#!/usr/bin/env python3
"""Run the planted-ambiguity experiment and write its JSON report."""
import argparse
import dataclasses
import json
import logging
from pathlib import Path

from tkgalign.experiments import PLANTED_AMBIGUITY, planted_ambiguity_experiment


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("planted_ambiguity.json"))
    ap.add_argument("--epochs", type=int, default=PLANTED_AMBIGUITY.train.epochs)
    ap.add_argument("--train-seeds", type=int, nargs="+",
                    default=list(PLANTED_AMBIGUITY.train_seeds))
    args = ap.parse_args()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")

    cfg = dataclasses.replace(
        PLANTED_AMBIGUITY, train=dataclasses.replace(PLANTED_AMBIGUITY.train, epochs=args.epochs),
        train_seeds=tuple(args.train_seeds),
    )
    report = planted_ambiguity_experiment(cfg)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    s = report["summary"]
    print(f"report written to {args.out}")
    print(f"time-aware perfect on planted pairs: {s['tea_planted_perfect_runs']}/{s['num_runs']} runs")
    print(f"ablation at or below 0.5 on planted pairs: {s['tu_planted_low_runs']}/{s['num_runs']} runs")
    print(f"time-aware >= ablation overall: {s['tea_ge_tu_overall_runs']}/{s['num_runs']} runs")


if __name__ == "__main__":
    main()
