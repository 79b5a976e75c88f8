"""Sensitivity sweep over the hashtable width or the sequence length.

Runs one full train/eval cycle per value on the synthetic triadic stream,
from the ablation study's base config, and writes the rows as JSON.
Sweeping ``hashtable_size`` keeps the short table at a quarter of the long
one.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from coneighbor.config import ABLATION_BASE, RunConfig
from coneighbor.harness import run_sweep, write_json
from coneighbor.synthetic import TriadicStreamConfig, triadic_closure_stream

ROOT = Path(__file__).parent.parent
DEFAULT_VALUES = {"hashtable_size": [8, 16, 32, 64, 128],
                  "sequence_length": [5, 10, 20, 40]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--axis", choices=sorted(DEFAULT_VALUES), required=True)
    ap.add_argument("--values", type=int, nargs="+", default=None)
    ap.add_argument("--epochs", type=int, default=ABLATION_BASE["epochs"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=str(ROOT / "runs" / "sensitivity"))
    args = ap.parse_args(argv)

    values = args.values if args.values else DEFAULT_VALUES[args.axis]
    g = triadic_closure_stream(TriadicStreamConfig(seed=args.seed))
    cfg = RunConfig(**{**ABLATION_BASE, "epochs": args.epochs},
                    seed=args.seed).validate()

    rows = run_sweep(g, cfg, args.axis, values, dataset="triadic")
    for r in rows:
        print(f"{args.axis}={r['value']:<4d} ap={r['test_ap']:.4f} "
              f"auc={r['test_auc']:.4f}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / f"sweep_{args.axis}.json", rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
