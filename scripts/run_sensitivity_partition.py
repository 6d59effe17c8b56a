#!/usr/bin/env python3
"""Run the sensitivity-partition experiment and write its JSON report."""
import argparse
import dataclasses
import json
import logging
from pathlib import Path

from tkgalign.experiments import SENSITIVITY_GAP, sensitivity_gap_experiment


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("sensitivity_gap.json"))
    ap.add_argument("--epochs", type=int, default=SENSITIVITY_GAP.train.epochs)
    ap.add_argument("--train-seeds", type=int, nargs="+",
                    default=list(SENSITIVITY_GAP.train_seeds))
    args = ap.parse_args()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")

    cfg = dataclasses.replace(
        SENSITIVITY_GAP, train=dataclasses.replace(SENSITIVITY_GAP.train, epochs=args.epochs),
        train_seeds=tuple(args.train_seeds),
    )
    report = sensitivity_gap_experiment(cfg)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    s = report["summary"]
    print(f"report written to {args.out}")
    print(f"mean hits@1 gap, highly time-sensitive: {s['mean_gap_high']:+.3f}")
    print(f"mean hits@1 gap, lowly time-sensitive:  {s['mean_gap_low']:+.3f}")
    print(f"pattern (high > low) holds: {s['pattern_holds']} "
          f"({s['runs_where_pattern_holds']}/{s['num_runs']} individual runs)")


if __name__ == "__main__":
    main()
