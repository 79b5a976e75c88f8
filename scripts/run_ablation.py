"""Ablation study on the synthetic triadic-closure stream.

Compares three variants over several seeds:

    full    long=64 short=16, all features on
    no_cne  co-neighbor count features zero-filled
    narrow  long=8  short=2

The stream rewards counting shared partners, so ``full`` should beat
``no_cne`` by a wide margin and ``narrow`` should trail ``full``.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from coneighbor.config import ABLATION_BASE, ABLATION_VARIANTS, RunConfig
from coneighbor.harness import run, write_json
from coneighbor.synthetic import TriadicStreamConfig, triadic_closure_stream

ROOT = Path(__file__).parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--epochs", type=int, default=ABLATION_BASE["epochs"])
    ap.add_argument("--out", default=str(ROOT / "runs" / "ablation"))
    args = ap.parse_args(argv)

    base = {**ABLATION_BASE, "epochs": args.epochs}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for seed in args.seeds:
        g = triadic_closure_stream(TriadicStreamConfig(seed=seed))
        for name, overrides in ABLATION_VARIANTS.items():
            cfg = RunConfig(**base, **overrides, seed=seed).validate()
            res = run(g, cfg, dataset="triadic")
            rows.append({"seed": seed, "variant": name,
                         "test_ap": res["test_ap"],
                         "test_auc": res["test_auc"]})
            print(f"seed={seed} {name:7s} ap={res['test_ap']:.4f} "
                  f"auc={res['test_auc']:.4f}")

    print()
    for name in ABLATION_VARIANTS:
        aps = [r["test_ap"] for r in rows if r["variant"] == name]
        print(f"{name:7s} mean_ap={np.mean(aps):.4f} over {len(aps)} seeds")
    write_json(out / "ablation.json", rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
