"""One benchmark sample, run in a fresh process by ``run.py``.

Phases:

* ``prepare`` -- train the checkpoint that ``eval-pool`` evaluates (untimed).
* ``setup``   -- time inputs-on-disk to a model ready to run: ``parse_dataset``
  plus ``train(..., epochs=0)`` (merge, graph build, parameter init), plus
  ``load_checkpoint`` on ``eval-pool``.
* ``run``     -- time the workload's command through ``tkgalign.cli.main``,
  read this process's peak RSS, then (untimed) check the outputs. With
  ``--trace 1`` the command runs under the span tracer and the per-layer
  metrics and raw spans are written too.

The result is one JSON file named by ``--result``. ``run.py`` starts this
script with BLAS/OpenMP threads already set to 1 in its environment.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import numpy as np  # noqa: E402

from tkgalign import cli  # noqa: E402
from tkgalign.checkpoint import load_checkpoint  # noqa: E402
from tkgalign.model import ModelConfig, model_forward, prepare_graph  # noqa: E402
from tkgalign.tkg import merge_pair, parse_dataset  # noqa: E402
from tkgalign.train import TrainConfig, train  # noqa: E402

from tracing import Recorder, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, command_argv, train_argv  # noqa: E402

# criterion 4 of the acceptance suite
ATTENTION_TOLERANCE = 1e-6
# rows per direction re-ranked by brute force on eval-pool
BRUTE_FORCE_ROWS = 16


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _cli(argv: list[str]) -> int:
    """Call the CLI in-process, keeping its report text off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def phase_setup(w, data: str, checkpoint: str) -> dict:
    t0, wall0 = time.process_time(), time.perf_counter()
    g1, g2, seeds = parse_dataset(data)
    train(g1, g2, seeds, TrainConfig(**{**w.options, "epochs": 0}))
    if not w.trains:
        load_checkpoint(checkpoint)
    return {"setup_s": time.process_time() - t0, "setup_wall_s": time.perf_counter() - wall0}


def _reports(path: Path) -> list[dict]:
    return json.loads(path.read_text())


def _find(reports: list[dict], space: str, direction: str, partition: str) -> dict | None:
    for r in reports:
        if (r["metric_space"], r["direction"], r["partition"]) == (space, direction, partition):
            return r
    return None


def _same_ranking(a: dict | None, b: dict | None) -> bool:
    keys = ("mrr", "hits1", "hits10", "ranks")
    return a is not None and b is not None and all(a[k] == b[k] for k in keys)


def check_train(w, data: str, out: Path) -> tuple[dict, dict, dict]:
    """Loss, attention and train-time vs eval-time metric checks."""
    seed = w.options["seed"]
    run_dir = out / f"run_{seed}"
    rows = (run_dir / "history.csv").read_text().splitlines()[1:]
    losses = [float(row.split(",")[1]) for row in rows]
    metrics = json.loads((run_dir / "metrics.json").read_text())
    ck = run_dir / "checkpoint.npz"
    eval_out = out / "eval_check"
    code = _cli(["eval", "--checkpoint", str(ck), "--data", data, "--metric", "both",
                 "--direction", "g1->g2", "--out", str(eval_out)])
    evals = _reports(eval_out / "eval_report.json") if code == 0 else []
    checks = {
        "losses_finite": bool(losses) and all(math.isfinite(x) for x in losses),
        "loss_falls": len(losses) >= 2 and losses[-1] < losses[0],
        "attention_sums": metrics["worst_attention_deviation"] < ATTENTION_TOLERANCE,
        "eval_matches_train": code == 0 and all(
            _same_ranking(_find(metrics["reports"], s, "g1->g2", "all"),
                          _find(evals, s, "g1->g2", "all"))
            for s in ("l1", "csls")),
    }
    csls = _find(metrics["reports"], "csls", "g1->g2", "all")
    quality = {"hits1": csls["hits1"], "mrr": csls["mrr"], "first_loss": losses[0],
               "last_loss": losses[-1]}
    return checks, quality, {"checkpoint_sha256": _sha256(ck)}


def _brute_force_ranks(src_row: np.ndarray, tgt: np.ndarray, gold: int) -> int:
    sims = [-np.abs(src_row - tgt[j]).sum() for j in range(len(tgt))]
    return 1 + sum(1 for j, s in enumerate(sims) if j != gold and s >= sims[gold])


def check_eval(w, data: str, out: Path, checkpoint: str, seed: int) -> tuple[dict, dict, dict]:
    """Report completeness, brute-force L1 ranks on sampled rows."""
    reports = _reports(out / "eval_report.json")
    store, meta = load_checkpoint(checkpoint)
    g1, g2, seeds = parse_dataset(data)
    merged = merge_pair(g1, g2)
    graph, _ = prepare_graph(merged, meta.self_loops)
    mcfg = ModelConfig(dim=meta.dim, num_layers=meta.num_layers,
                       self_loops=meta.self_loops, precision=meta.precision)
    reps = model_forward(store, graph, mcfg).data
    pairs = merged.merged_pairs(seeds.test_pairs)
    rows = np.random.default_rng(seed).choice(len(pairs), BRUTE_FORCE_ROWS, replace=False)
    brute_ok = True
    for direction, (a, b) in (("g1->g2", (0, 1)), ("g2->g1", (1, 0))):
        report = _find(reports, "l1", direction, "all")
        src, tgt = reps[pairs[:, a]], reps[pairs[:, b]]
        brute_ok &= report is not None and all(
            report["ranks"][i] == _brute_force_ranks(src[i], tgt, i) for i in rows)
    sizes = {p: (_find(reports, "l1", "g1->g2", p) or {"ranks": []})["ranks"] for p in
             ("highly", "lowly")}
    checks = {
        "all_reports": len(reports) == 12,
        "partitions_cover_pool": len(sizes["highly"]) > 0 and len(sizes["lowly"]) > 0
        and len(sizes["highly"]) + len(sizes["lowly"]) == len(pairs),
        "brute_force_l1_ranks": bool(brute_ok),
    }
    csls = _find(reports, "csls", "g1->g2", "all")
    quality = {"hits1": csls["hits1"], "mrr": csls["mrr"],
               "highly_pairs": len(sizes["highly"]), "lowly_pairs": len(sizes["lowly"])}
    # the report's ``seconds`` field is wall-clock by design; all else must repeat
    stable = [{k: v for k, v in r.items() if k != "seconds"} for r in reports]
    digest = hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()
    return checks, quality, {"report_sha256": digest}


def phase_run(w, data: str, out: Path, checkpoint: str, traced: bool, seed: int,
              spans_path: str | None) -> dict:
    argv = command_argv(w, data, str(out), checkpoint)
    rec = Recorder()
    tracer = Tracer(rec)
    if traced:
        tracer.install()
    t0, wall0 = time.process_time(), time.perf_counter()
    code = _cli(argv)
    run_s, wall_s = time.process_time() - t0, time.perf_counter() - wall0
    tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"run_s": run_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "exit_code": code}
    if code == 0:
        if w.trains:
            checks, quality, digests = check_train(w, data, out)
        else:
            checks, quality, digests = check_eval(w, data, out, checkpoint, seed)
        result.update(checks=checks, quality=quality, **digests)
    else:
        result["checks"] = {"exit_code": False}
    if traced:
        values, missing = layer_metrics(rec.spans, set(w.traits))
        result.update(layers=values, missing=missing)
        Path(spans_path).write_text(json.dumps([dataclasses.asdict(s) for s in rec.spans]))
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--phase", choices=("prepare", "setup", "run"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--data", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--checkpoint", default="")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    if args.phase == "prepare":
        code = _cli(train_argv(w.options, args.data, args.out))
        result = {"exit_code": code}
    elif args.phase == "setup":
        result = phase_setup(w, args.data, args.checkpoint)
    else:
        result = phase_run(w, args.data, Path(args.out), args.checkpoint, bool(args.trace),
                           args.seed, args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
