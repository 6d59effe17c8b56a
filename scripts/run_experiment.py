#!/usr/bin/env python3
"""Run one canned experiment (its default config unless a flag overrides it)
and write its JSON report."""
import argparse
import dataclasses
import json
import logging
from pathlib import Path

from tkgalign import experiments as ex

# name -> (default config, experiment, summary lines filled from the report's summary)
EXPERIMENTS = {
    "planted_ambiguity": (ex.PLANTED_AMBIGUITY, ex.planted_ambiguity_experiment, (
        "time-aware perfect on planted pairs: {tea_planted_perfect_runs}/{num_runs} runs",
        "ablation at or below 0.5 on planted pairs: {tu_planted_low_runs}/{num_runs} runs",
        "time-aware >= ablation overall: {tea_ge_tu_overall_runs}/{num_runs} runs",
    )),
    "sensitivity_gap": (ex.SENSITIVITY_GAP, ex.sensitivity_gap_experiment, (
        "mean hits@1 gap, highly time-sensitive: {mean_gap_high:+.3f}",
        "mean hits@1 gap, lowly time-sensitive:  {mean_gap_low:+.3f}",
        "pattern (high > low) holds: {pattern_holds} "
        "({runs_where_pattern_holds}/{num_runs} individual runs)",
    )),
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("experiment", choices=EXPERIMENTS)
    ap.add_argument("--out", type=Path, help="report file (default: <experiment>.json)")
    ap.add_argument("--epochs", type=int)
    ap.add_argument("--train-seeds", type=int, nargs="+")
    args = ap.parse_args()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")

    cfg, experiment, lines = EXPERIMENTS[args.experiment]
    if args.epochs is not None:
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, epochs=args.epochs))
    if args.train_seeds is not None:
        cfg = dataclasses.replace(cfg, train_seeds=tuple(args.train_seeds))
    out = Path(f"{args.experiment}.json") if args.out is None else args.out
    report = experiment(cfg)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"report written to {out}")
    for line in lines:
        print(line.format(**report["summary"]))


if __name__ == "__main__":
    main()
