"""Command-line entry point: train, eval, sweep, bench, oracle-check.

Every command writes its fully resolved configuration next to its results
so any run can be reproduced from the output directory alone.  ``train``
and ``sweep`` take one flag per ``RunConfig`` field, named after the field
with dashes (``seq_len`` is ``--seq-len``) and defaulting to its default.
``eval`` takes its configuration from the checkpoint, which stores the
training run's config, and refuses a stream other than the one the
checkpoint was trained on (a data error).  Exit codes:
0 success, 1 usage or configuration error, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import bench as bench_mod
from . import harness, oracle
from .config import RunConfig
from .data import CsvLayout, load_events
from .errors import (CheckpointError, ConfigError, DataError, NumericalError,
                     UndefinedMetricError)
from .harness import write_json
from .model import load_params

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # argparse would exit 2; we reserve 2 for data
        raise _UsageError(message)


def _tristate(value: str) -> bool | None:
    return {"auto": None, "yes": True, "no": False}[value]


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="CSV event stream: src,dst,t[,label][,features...]")
    p.add_argument("--header", choices=("auto", "yes", "no"), default="auto")
    p.add_argument("--label-col", choices=("auto", "yes", "no"), default="auto")
    p.add_argument("--delimiter", default=",")


def _add_config_args(p: argparse.ArgumentParser) -> None:
    # one flag per RunConfig field; its metadata adds help text or choices
    for f in dataclasses.fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if isinstance(f.default, bool):
            p.add_argument(flag, action="store_true", **f.metadata)
        else:
            p.add_argument(flag, type=type(f.default), default=f.default,
                           **f.metadata)


def _layout(args) -> CsvLayout:
    return CsvLayout(has_header=_tristate(args.header),
                     label_column=_tristate(args.label_col),
                     delimiter=args.delimiter)


def _config(args) -> RunConfig:
    # every RunConfig field has a flag with the field's name as its dest
    return RunConfig(**{f.name: getattr(args, f.name)
                        for f in dataclasses.fields(RunConfig)}).validate()


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(args) -> int:
    cfg = _config(args)
    g = load_events(args.data, _layout(args))
    out = _outdir(args)
    write_json(out / "config.json", cfg.to_dict())
    res = harness.run(g, cfg, dataset=Path(args.data).stem,
                      checkpoint_path=out / "checkpoint.npz")
    write_json(out / "metrics.json", res)
    print(f"test_ap={res['test_ap']:.4f} test_auc={res['test_auc']:.4f} "
          f"best_epoch={res['best_epoch']}")
    return EXIT_OK


def _describe(stream: dict) -> str:
    return (f"{stream.get('num_nodes')} nodes, {stream.get('num_events')} "
            f"events, sha256 {str(stream.get('sha256'))[:12]}")


def cmd_eval(args) -> int:
    params, dims, stored, stream = load_params(args.checkpoint)
    try:
        cfg = RunConfig.from_dict(stored)
    except ConfigError as e:
        raise CheckpointError(f"checkpoint {args.checkpoint}: stored config "
                              f"is invalid: {e}") from e
    g = load_events(args.data, _layout(args))
    got = g.fingerprint()
    if got != stream:
        raise DataError(f"checkpoint was trained on another stream: "
                        f"{_describe(stream)}, not {_describe(got)}")
    want = harness.model_dims(g, cfg)
    if dims != want:
        raise ConfigError(f"checkpoint dims {dims} do not match the data's {want}")
    out = _outdir(args)
    write_json(out / "config.json", cfg.to_dict())
    res = harness.evaluate_checkpoint(g, cfg, params, dims,
                                      dataset=Path(args.data).stem)
    write_json(out / "metrics.json", res)
    print(f"val_ap={res['val_ap']:.4f} test_ap={res['test_ap']:.4f} "
          f"test_auc={res['test_auc']:.4f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _config(args)
    g = load_events(args.data, _layout(args))
    try:
        values = [int(v) for v in args.values.split(",") if v]
    except ValueError:
        raise ConfigError(f"--values takes comma-separated integers, not "
                          f"{args.values!r}") from None
    out = _outdir(args)
    write_json(out / "config.json", {"base": cfg.to_dict(),
                                     "axis": args.axis, "values": values})
    rows = harness.run_sweep(g, cfg, args.axis, values,
                             dataset=Path(args.data).stem)
    write_json(out / "sweep.json", rows)
    print(f"{'value':>8}  {'test_ap':>8}  {'test_auc':>8}")
    for r in rows:
        print(f"{r['value']:>8d}  {r['test_ap']:>8.4f}  {r['test_auc']:>8.4f}")
    return EXIT_OK


def cmd_bench(args) -> int:
    report = bench_mod.run_bench(batch_size=args.batch_size,
                                 num_nodes=args.nodes,
                                 num_events=args.events,
                                 repeats=args.repeats, seed=args.seed)
    out = _outdir(args)
    write_json(out / "bench.json", report.to_dict())
    print(bench_mod.format_report(report))
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    reports = oracle.run_suite(streams=args.streams, max_nodes=args.max_nodes,
                               max_events=args.max_events, seed=args.seed)
    summary = oracle.summarize(reports)
    out = _outdir(args)
    write_json(out / "oracle.json", summary)
    print(f"streams={summary['streams']} pairs={summary['pairs_checked']} "
          f"injective={summary['pairs_injective']} "
          f"collision_skipped={summary['pairs_collision_skipped']} "
          f"mismatches={summary['mismatches']}")
    if summary["mismatches"]:
        for m in summary["first_mismatches"]:
            print(f"MISMATCH stream_seed={m['stream_seed']} table={m['table']} "
                  f"pair=({m['a']},{m['b']}) got={m['got']} want={m['want']}")
        return EXIT_NUMERIC
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="coneighbor",
                     description="streaming temporal-graph link prediction")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("train", parents=[], help="train and evaluate")
    _add_data_args(p)
    _add_config_args(p)
    p.add_argument("--out", default="runs/train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint under its stored config")
    _add_data_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default="runs/eval")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="sensitivity sweep over one axis")
    _add_data_args(p)
    _add_config_args(p)
    p.add_argument("--axis", choices=(harness.HASHTABLE_AXIS,
                                      harness.SEQUENCE_AXIS), required=True)
    p.add_argument("--values", required=True, help="comma-separated integers")
    p.add_argument("--out", default="runs/sweep")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="encoding-time scaling benchmark")
    p.add_argument("--batch-size", type=int, default=200)
    p.add_argument("--nodes", type=int, default=400)
    p.add_argument("--events", type=int, default=10_000)
    p.add_argument("--repeats", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="runs/bench")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle-check", help="sketch vs exact-set equivalence")
    p.add_argument("--streams", type=int, default=100)
    p.add_argument("--max-nodes", type=int, default=30)
    p.add_argument("--max-events", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="runs/oracle")
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (_UsageError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError, UndefinedMetricError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
