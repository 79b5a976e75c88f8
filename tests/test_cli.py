import argparse
import dataclasses
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from coneighbor.cli import (EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                            _config, build_parser, main)
from coneighbor.config import INDUCTIVE, MATCH_STRICT, RunConfig
from coneighbor.model import PARAMS_VERSION
from coneighbor.synthetic import random_stream

FAST = ["--epochs", "1", "--seq-len", "4", "--hidden", "8", "--time-dim", "4",
        "--out-dim", "8", "--layers", "1", "--batch-size", "100", "--float32"]
# non-default table widths, seed and batch size: eval must take them from
# the checkpoint, because the replayed tables depend on every one of them
REPRO = FAST + ["--epochs", "2", "--long-size", "32", "--short-size", "8",
                "--seed", "5", "--batch-size", "150"]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "stream.csv"
    g = random_stream(25, 500, seed=13, edge_dim=2)
    rows = ["src,dst,t,label,f0,f1"]
    for i in range(g.num_events):
        rows.append(f"{g.src[i]},{g.dst[i]},{g.t[i]},0,"
                    f"{g.edge_feats[i, 0]},{g.edge_feats[i, 1]}")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def run_cli(*argv):
    return main(list(argv))


# stored configs that are not a valid RunConfig, as JSON text
BAD_STORED_CONFIGS = {"config_null": "null", "config_list": "[1, 2]",
                      "config_str": '"x"', "config_seq_len_0": '{"seq_len": 0}',
                      "config_seq_len_str": '{"seq_len": "x"}',
                      "config_seq_len_float": '{"seq_len": 2.5}',
                      "config_long_size_float": '{"long_size": 64.0}',
                      "config_no_cne_str": '{"no_cne": "false"}'}


class TestExitCodes:
    def test_unknown_verb_is_usage_error(self, capsys):
        assert run_cli("explode") == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert run_cli("train") == EXIT_USAGE

    def test_bad_config_value(self, csv_path, tmp_path, capsys):
        code = run_cli("train", "--data", csv_path, "--out", str(tmp_path),
                       *FAST, "--train-frac", "1.4")
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = run_cli("train", "--data", str(tmp_path / "absent.csv"),
                       "--out", str(tmp_path), *FAST)
        assert code == EXIT_DATA

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("src,dst,t\n0,1,zero\n")
        code = run_cli("train", "--data", str(bad), "--out", str(tmp_path),
                       *FAST)
        assert code == EXIT_DATA
        assert "line 2" in capsys.readouterr().err

    def test_non_integer_node_id_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("src,dst,t\n0,1,1.0\n1,inf,2.0\n")
        code = run_cli("train", "--data", str(bad), "--out", str(tmp_path),
                       *FAST)
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: line 3:") and err.count("\n") == 1

    def test_negative_node_id_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,1,1\n1,-2,1\n")
        code = run_cli("train", "--data", str(bad), "--out", str(tmp_path),
                       *FAST)
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: line 2: node id -2 is negative\n")

    @pytest.mark.parametrize("seed,phase", [(0, "val"), (1, "test")])
    def test_phase_scoring_no_event_is_data_error(self, tmp_path, capsys,
                                                  seed, phase):
        # train among nodes 0-9, val among 0-4, test among 5-9: one masked
        # node (a tenth of ten) leaves one of the two phases nothing to score
        rng = np.random.default_rng(0)
        rows = [rng.choice(np.arange(lo, lo + width), 2, replace=False)
                for lo, width, n in ((0, 10, 70), (0, 5, 15), (5, 5, 15))
                for _ in range(n)]
        path = tmp_path / "stream.csv"
        path.write_text("".join(f"{s},{d},{t}\n"
                                for t, (s, d) in enumerate(rows, 1)))
        code = run_cli("train", "--data", str(path), "--out",
                       str(tmp_path / "out"), *FAST, "--mode", "inductive",
                       "--inductive-fraction", "0.1", "--seed", str(seed))
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: no scored events in phase {phase!r}\n")

    def test_train_phase_scoring_no_event_is_data_error(self, tmp_path,
                                                        capsys):
        # two nodes: the one masked node touches every train event
        path = tmp_path / "stream.csv"
        path.write_text("".join(f"{t % 2},{1 - t % 2},{t}\n"
                                for t in range(1, 61)))
        code = run_cli("train", "--data", str(path), "--out",
                       str(tmp_path / "out"), *FAST, "--mode", "inductive",
                       "--inductive-fraction", "0.5")
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: no scored events in phase 'train'\n")

    @pytest.mark.parametrize("argv", [
        ["train", "--seed", "-1"],
        ["train", "--delimiter", ""],
        ["train", "--delimiter", "ab"],
        ["sweep", "--axis", "sequence_length", "--values", "8,x"],
        ["bench", "--seed", "-1"],
        ["bench", "--nodes", "1"],
        ["bench", "--batch-size", "0"],
        ["bench", "--repeats", "0"],
        ["bench", "--events", "0"],
        ["oracle-check", "--seed", "-1"],
        ["oracle-check", "--max-nodes", "3"],
        ["oracle-check", "--max-events", "5"],
        ["oracle-check", "--streams", "0"],
    ], ids=" ".join)
    def test_out_of_range_value_is_usage_error(self, csv_path, tmp_path,
                                               capsys, argv):
        if argv[0] in ("train", "sweep"):
            argv = argv[:1] + ["--data", csv_path, *FAST] + argv[1:]
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()


class TestTrain:
    def test_writes_config_metrics_checkpoint(self, csv_path, tmp_path,
                                              capsys):
        out = tmp_path / "run"
        assert run_cli("train", "--data", csv_path, "--out", str(out),
                       *FAST, "--seed", "5") == EXIT_OK
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["seed"] == 5 and cfg["epochs"] == 1
        res = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= res["test_ap"] <= 1.0
        assert (out / "checkpoint.npz").exists()
        assert "test_ap=" in capsys.readouterr().out

    def test_ablation_flag_lands_in_config(self, csv_path, tmp_path):
        out = tmp_path / "run"
        run_cli("train", "--data", csv_path, "--out", str(out), *FAST,
                "--no-cne")
        assert json.loads((out / "config.json").read_text())["no_cne"] is True

    def test_determinism_modulo_wall_time(self, csv_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli("train", "--data", csv_path, "--out", str(out), *FAST,
                    "--seed", "7")
            d = json.loads((out / "metrics.json").read_text())
            d.pop("wall_time")
            outs.append(json.dumps(d, sort_keys=True))
        assert outs[0] == outs[1]


@pytest.fixture(scope="module")
def trained(csv_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    assert run_cli("train", "--data", csv_path, "--out", str(out),
                   *REPRO) == EXIT_OK
    return out


def config_flags(cfg=RunConfig()):
    """One ``--flag [value]`` per RunConfig field, at cfg's value.

    A bool field gives its switch whatever its value.
    """
    for f in dataclasses.fields(RunConfig):
        value = getattr(cfg, f.name)
        flag = ["--" + f.name.replace("_", "-")]
        yield flag if isinstance(value, bool) else flag + [str(value)]


def subparser(verb: str) -> argparse.ArgumentParser:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[verb]


# every field away from its default, and still a valid config
NON_DEFAULT = RunConfig(
    train_frac=0.6, val_frac=0.2, mode=INDUCTIVE, inductive_fraction=0.2,
    long_size=32, short_size=8, matching=MATCH_STRICT, seq_len=7, hidden=9,
    time_dim=6, out_dim=5, layers=3, dropout=0.2, lr=1e-3, batch_size=50,
    epochs=3, patience=2, no_cne=True, no_td=True, no_nup=True,
    no_tup=True, seed=9, float32=True).validate()
# (verb, the argv it needs besides config flags)
CONFIG_VERBS = [("train", ["--data", "x.csv"]),
                ("sweep", ["--data", "x.csv", "--axis", "sequence_length",
                           "--values", "4"])]


class TestConfigFlags:
    @pytest.mark.parametrize("verb", ["train", "sweep"])
    def test_one_flag_per_field_with_its_name_type_and_default(self, verb):
        fields = dataclasses.fields(RunConfig)
        actions = {a.dest: a for a in subparser(verb)._actions}
        other = {"help", "data", "header", "label_col", "delimiter", "out",
                 "axis", "values"}
        assert set(actions) - other == {f.name for f in fields}
        for f in fields:
            a = actions[f.name]
            assert a.option_strings == ["--" + f.name.replace("_", "-")]
            assert a.default == f.default and type(a.default) is type(f.default)
            if isinstance(f.default, bool):
                assert isinstance(a, argparse._StoreTrueAction), f.name
            else:
                assert a.type is type(f.default), f.name

    @pytest.mark.parametrize("verb, argv", CONFIG_VERBS)
    def test_no_config_flags_parse_to_the_defaults(self, verb, argv):
        assert _config(build_parser().parse_args([verb, *argv])) == RunConfig()

    @pytest.mark.parametrize("verb, argv", CONFIG_VERBS)
    def test_non_default_values_round_trip(self, verb, argv):
        for f in dataclasses.fields(RunConfig):
            assert getattr(NON_DEFAULT, f.name) != f.default, f.name
        flags = [x for flag in config_flags(NON_DEFAULT) for x in flag]
        args = build_parser().parse_args([verb, *argv, *flags])
        assert _config(args) == NON_DEFAULT

    def test_readme_commands_parse(self):
        """Every ``coneighbor ...`` line in README.md's code blocks parses."""
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.S | re.M)
        commands = [line for block in blocks for line in block.splitlines()
                    if line.startswith("coneighbor ")]
        verbs = set()
        for line in commands:
            argv = shlex.split(line, comments=True)[1:]
            try:
                build_parser().parse_args(argv)
            except Exception as e:
                pytest.fail(f"README line does not parse: {line}\n{e}")
            verbs.add(argv[0])
        assert verbs == {"train", "eval", "sweep", "bench", "oracle-check"}


class TestEval:
    def test_roundtrip_matches_reported_test_metrics(self, csv_path,
                                                     trained, tmp_path):
        res = json.loads((trained / "metrics.json").read_text())
        eval_out = tmp_path / "eval"
        code = run_cli("eval", "--data", csv_path, "--out", str(eval_out),
                       "--checkpoint", str(trained / "checkpoint.npz"))
        assert code == EXIT_OK
        evaled = json.loads((eval_out / "metrics.json").read_text())
        best = res["best_epoch"]
        assert evaled["val_ap"] == res["val_ap"][best]
        assert evaled["val_auc"] == res["val_auc"][best]
        assert evaled["test_ap"] == res["test_ap"]
        assert evaled["test_auc"] == res["test_auc"]
        assert (json.loads((eval_out / "config.json").read_text())
                == json.loads((trained / "config.json").read_text()))

    def test_config_flags_are_usage_errors(self, csv_path, trained, tmp_path,
                                           capsys):
        for flag in config_flags():
            code = run_cli("eval", "--data", csv_path, "--out",
                           str(tmp_path / "eval"),
                           "--checkpoint", str(trained / "checkpoint.npz"),
                           *flag)
            assert code == EXIT_USAGE, flag
            assert "unrecognized arguments" in capsys.readouterr().err, flag

    def test_dim_mismatch_is_usage_error(self, csv_path, trained, tmp_path,
                                         capsys):
        # the same stream without its two edge-feature columns
        cut = tmp_path / "cut.csv"
        lines = open(csv_path).read().splitlines()
        cut.write_text("".join(",".join(line.split(",")[:4]) + "\n"
                               for line in lines))
        code = run_cli("eval", "--data", str(cut), "--out",
                       str(tmp_path / "eval"),
                       "--checkpoint", str(trained / "checkpoint.npz"))
        assert code == EXIT_USAGE
        assert "dims" in capsys.readouterr().err

    @pytest.mark.parametrize("change", ["fewer_events", "other_times"])
    def test_other_stream_is_data_error(self, csv_path, trained, tmp_path,
                                        capsys, change):
        # same node count and feature widths: only the fingerprint differs
        lines = open(csv_path).read().splitlines()
        if change == "fewer_events":
            lines = lines[:-1]
        else:
            lines = [lines[0]] + [",".join(row[:2] + [str(2 * float(row[2]))]
                                           + row[3:])
                                  for row in (r.split(",") for r in lines[1:])]
        other = tmp_path / "other.csv"
        other.write_text("\n".join(lines) + "\n")
        code = run_cli("eval", "--data", str(other), "--out",
                       str(tmp_path / "eval"),
                       "--checkpoint", str(trained / "checkpoint.npz"))
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: checkpoint was trained on another "
                              "stream") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["v1", "previous_version",
                                      "wrong_version", "not_npz",
                                      "missing_param", "bad_shape",
                                      *BAD_STORED_CONFIGS])
    def test_bad_checkpoint_is_data_error(self, csv_path, trained, tmp_path,
                                          capsys, kind):
        path = tmp_path / "ckpt.npz"
        if kind == "not_npz":
            path.write_text("src,dst,t\n0,1,2\n")
        elif kind in ("v1", "previous_version", "wrong_version"):
            version = {"v1": 1, "previous_version": PARAMS_VERSION - 1,
                       "wrong_version": PARAMS_VERSION + 1}[kind]
            np.savez(path, __version__=version, __dims__=np.arange(6),
                     w=np.zeros(2))
        else:       # a real checkpoint with one parameter cut
            with np.load(trained / "checkpoint.npz") as z:
                entries = dict(z)
            if kind == "missing_param":
                del entries["out_w"]
            elif kind == "bad_shape":
                entries["fuse0_w"] = entries["fuse0_w"][:-1]
            else:
                entries["__config__"] = np.array(BAD_STORED_CONFIGS[kind])
            np.savez(path, **entries)
        code = run_cli("eval", "--data", csv_path, "--out",
                       str(tmp_path / "eval"), "--checkpoint", str(path))
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        if kind in BAD_STORED_CONFIGS:
            assert str(path) in err


class TestSweep:
    def test_writes_rows_for_each_value(self, csv_path, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--data", csv_path, "--out", str(out), *FAST,
                       "--axis", "hashtable_size", "--values", "8,16")
        assert code == EXIT_OK
        rows = json.loads((out / "sweep.json").read_text())
        assert [r["value"] for r in rows] == [8, 16]
        assert all(0.0 <= r["test_ap"] <= 1.0 for r in rows)


class TestBench:
    def test_smoke_writes_report(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = run_cli("bench", "--out", str(out), "--nodes", "60",
                       "--events", "800", "--repeats", "2")
        assert code == EXIT_OK
        report = json.loads((out / "bench.json").read_text())
        assert set(report) >= {"sequence_length", "hashtable_size"}
        for axis in ("sequence_length", "hashtable_size"):
            assert len(report[axis]["seconds"]) == len(report[axis]["values"])
        assert "doubling" in capsys.readouterr().out


class TestOracleCheck:
    def test_small_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "oracle"
        code = run_cli("oracle-check", "--out", str(out), "--streams", "5",
                       "--max-events", "120")
        assert code == EXIT_OK
        summary = json.loads((out / "oracle.json").read_text())
        assert summary["mismatches"] == 0
        assert summary["streams"] == 5
        assert "mismatches=0" in capsys.readouterr().out
