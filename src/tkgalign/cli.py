"""Command-line entry point: train, eval, and forge subcommands.

Every invocation writes a ``run_manifest.json`` into its output directory —
success or failure — recording the resolved configuration, input checksums,
seeds, and a checksum for every artifact the run produced.

Reruns with the same seed produce byte-identical artifacts, with exactly two
declared exceptions that record wall-clock time: the run manifest itself, and
the ``seconds`` column/field in training histories and evaluation reports.
Checkpoints, datasets, metrics, and summaries are strictly byte-identical.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, meta_from_result, save_checkpoint
from .errors import ConfigError, DatasetError, NumericsError, ParseError, TkgAlignError
from .evaluate import average_reports, partition_test_pairs, rank_pool
from .forge import (
    ForgeSpec,
    dataset_stats,
    format_stats,
    measured_overlap,
    param_count,
    read_source_quads,
    self_loop_param_delta,
    split_to_result,
    synth_tkg,
    write_dataset,
)
from .model import ModelConfig, model_forward, num_relation_rows
from .tkg import DATASET_FILES, merge_pair, parse_dataset
from .train import MODES, TrainConfig, build_graph, train

logger = logging.getLogger(__name__)

DATA_ROOT_ENV = "TKGALIGN_DATA_ROOT"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def resolve_data_dir(arg: str) -> Path:
    """Use the path as given, else look under the data-root env variable."""
    p = Path(arg)
    if p.is_dir():
        return p
    root = os.environ.get(DATA_ROOT_ENV)
    if root and (Path(root) / arg).is_dir():
        return Path(root) / arg
    hint = f" (also tried under ${DATA_ROOT_ENV})" if root else ""
    raise DatasetError(f"dataset directory not found: {arg}{hint}")


class RunManifest:
    """Collects run metadata and is flushed to disk exactly once, at exit."""

    def __init__(self, command: str, out_dir: Path, argv: list[str]):
        self.out_dir = out_dir
        self.data: dict = {
            "command": command,
            "argv": argv,
            "code_version": __version__,
            "started_at": _utcnow(),
            "finished_at": None,
            "status": "running",
            "error": None,
            "config": {},
            "seeds": [],
            "inputs": {},
            "artifacts": {},
            "metrics": {},
        }

    def record_input_dir(self, directory: Path) -> None:
        for name in DATASET_FILES:
            f = directory / name
            if f.is_file():
                self.data["inputs"][str(f)] = _sha256(f)

    def record_artifact(self, path: Path) -> None:
        self.data["artifacts"][str(path)] = _sha256(path)

    def finish(self, status: str, error: str | None = None) -> None:
        self.data["status"] = status
        self.data["error"] = error
        self.data["finished_at"] = _utcnow()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / "run_manifest.json"
        path.write_text(json.dumps(self.data, indent=2, sort_keys=True) + "\n")


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        payload = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{p}: config must be a JSON object")
    unknown = set(payload) - {f.name for f in dataclasses.fields(TrainConfig)}
    if unknown:
        raise ConfigError(f"{p}: unknown config keys {sorted(unknown)}")
    return payload


def _build_train_config(args: argparse.Namespace) -> TrainConfig:
    """Defaults, then config file, then explicit command-line flags."""
    merged = _load_config_file(args.config)
    flag_map = {
        "dim": args.dim, "num_layers": args.layers, "lr": args.lr,
        "margin": args.margin, "dropout": args.dropout, "epochs": args.epochs,
        "negatives_per_positive": args.neg_per_pos, "eval_every": args.eval_every,
        "patience": args.patience, "seed": args.seed, "mode": args.mode,
        "precision": args.precision, "k_csls": args.k_csls,
        "self_loops": None if args.self_loops is None else args.self_loops == "on",
    }
    for key, value in flag_map.items():
        if value is not None:
            merged[key] = value
    try:
        return TrainConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _set_thread_count(threads: int | None) -> int:
    """The compute path is single-threaded by construction; values above 1
    are accepted but have no effect on the numerics."""
    if threads is None:
        return 1
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    if threads > 1:
        logger.warning("thread count %d requested; computation runs single-threaded", threads)
    return threads


# ---------------------------------------------------------------------------
# train


def _write_plot_files(run_dir: Path, report) -> list[Path]:
    """Gnuplot-ready data files: loss curve, plus validation curve if recorded."""
    loss_path = run_dir / "plot_loss.dat"
    lines = ["# epoch loss"]
    lines += [f"{i} {loss:.8f}" for i, loss in enumerate(report.losses)]
    loss_path.write_text("\n".join(lines) + "\n")
    written = [loss_path]
    if report.eval_history:
        val_path = run_dir / "plot_validation.dat"
        lines = ["# epoch mrr hits1 hits10"]
        lines += [
            f"{e['epoch']} {e['mrr']:.6f} {e['hits1']:.6f} {e['hits10']:.6f}"
            for e in report.eval_history
        ]
        val_path.write_text("\n".join(lines) + "\n")
        written.append(val_path)
    return written


def cmd_train(args: argparse.Namespace, manifest: RunManifest) -> int:
    data_dir = resolve_data_dir(args.data)
    manifest.record_input_dir(data_dir)
    cfg = _build_train_config(args)
    threads = _set_thread_count(args.threads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    g1, g2, seeds = parse_dataset(data_dir)

    repeats = args.repeats
    run_seeds = [cfg.seed + i for i in range(repeats)]
    manifest.data["config"] = dataclasses.asdict(cfg)
    manifest.data["config"]["threads"] = threads
    manifest.data["seeds"] = run_seeds

    reports = []
    for run_seed in run_seeds:
        run_cfg = dataclasses.replace(cfg, seed=run_seed)
        run_dir = out / f"run_{run_seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        result = train(g1, g2, seeds, run_cfg)

        ck_path = run_dir / "checkpoint.npz"
        save_checkpoint(ck_path, result.store, meta_from_result(result))
        history_path = run_dir / "history.csv"
        history_path.write_text("\n".join(result.report.history_rows()) + "\n")

        reps = model_forward(result.store, result.graph, run_cfg.model_config()).data
        merged_test = result.merged.merged_pairs(seeds.test_pairs)
        run_reports = rank_pool(reps, merged_test, spaces=("l1", "csls"), k_csls=cfg.k_csls)
        for rep in run_reports:
            # metrics.json is byte-deterministic, so it carries no wall-clock time
            rep.seed, rep.seconds = run_seed, None
        metrics_path = run_dir / "metrics.json"
        _write_json(metrics_path, {
            "seed": run_seed,
            "mode": run_cfg.mode,
            "final_loss": result.report.losses[-1] if result.report.losses else None,
            "worst_attention_deviation": max(result.report.attention_deviations, default=0.0),
            "stopped_early": result.report.stopped_early,
            "fingerprint": result.report.fingerprint(),
            "reports": [json.loads(r.to_json()) for r in run_reports],
        })
        artifacts = [ck_path, history_path, metrics_path]
        if args.emit_plots:
            artifacts.extend(_write_plot_files(run_dir, result.report))
        for p in artifacts:
            manifest.record_artifact(p)
        reports.append(run_reports)
        logger.info("run %d: csls hits@1 %.4f", run_seed, run_reports[1].hits1)

    summary = {}
    for i, space in enumerate(("l1", "csls")):
        per_space = [r[i] for r in reports]
        summary[space] = average_reports(per_space)
        summary[space]["hits1_std"] = float(np.std([r.hits1 for r in per_space]))
        summary[space]["mrr_std"] = float(np.std([r.mrr for r in per_space]))
    summary_path = out / "summary.json"
    _write_json(summary_path, summary)
    manifest.record_artifact(summary_path)
    manifest.data["metrics"] = summary
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args: argparse.Namespace, manifest: RunManifest) -> int:
    data_dir = resolve_data_dir(args.data)
    manifest.record_input_dir(data_dir)
    out = Path(args.out)
    store, meta = load_checkpoint(args.checkpoint)
    manifest.data["inputs"][str(Path(args.checkpoint))] = _sha256(Path(args.checkpoint))
    manifest.data["config"] = {"checkpoint": dataclasses.asdict(meta), "metric": args.metric,
                               "k_csls": args.k_csls, "partition": args.partition,
                               "direction": args.direction}
    g1, g2, seeds = parse_dataset(data_dir)
    merged = merge_pair(g1, g2)
    expected = (
        merged.kg.num_entities,
        num_relation_rows(merged.kg.num_relations, meta.self_loops),
        merged.kg.time_index.num_ids,
    )
    actual = (meta.num_entities, meta.num_relation_rows, meta.num_times)
    if expected != actual:
        raise ConfigError(
            f"checkpoint does not fit this dataset: sizes {actual} in header, "
            f"{expected} required (entities, relation rows, time ids)"
        )

    graph, index = build_graph(merged, meta.mode, meta.self_loops, meta.unique_times)
    mcfg = ModelConfig(dim=meta.dim, num_layers=meta.num_layers, self_loops=meta.self_loops,
                       unique_times=meta.unique_times, precision=meta.precision)
    reps = model_forward(store, graph, mcfg).data
    merged_test = merged.merged_pairs(seeds.test_pairs)

    spaces = ("l1", "csls") if args.metric == "both" else (args.metric,)
    directions = ("g1->g2", "g2->g1") if args.direction == "both" else (args.direction,)
    partitions = ()
    if args.partition:
        partitions = tuple(zip(("highly", "lowly"), partition_test_pairs(merged_test, index)))
    reports = rank_pool(reps, merged_test, spaces=spaces, directions=directions,
                        k_csls=args.k_csls, partitions=partitions)
    for rep in reports:
        rep.seed = meta.seed

    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "eval_report.json"
    _write_json(json_path, [json.loads(r.to_json()) for r in reports])
    csv_path = out / "eval_report.csv"
    rows = reports[0].csv_rows()
    for r in reports[1:]:
        rows.extend(r.csv_rows()[1:])
    csv_path.write_text("\n".join(rows) + "\n")
    manifest.record_artifact(json_path)
    manifest.record_artifact(csv_path)
    manifest.data["metrics"] = {
        f"{r.metric_space}/{r.direction}/{r.partition}": {"mrr": r.mrr, "hits1": r.hits1, "hits10": r.hits10}
        for r in reports
    }
    for r in reports:
        print(f"{r.metric_space:>5} {r.direction} {r.partition:<7} "
              f"mrr {r.mrr:.4f}  hits@1 {r.hits1:.4f}  hits@10 {r.hits10:.4f}  (n={r.num_pairs})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# forge


def _forge_spec_from_args(args: argparse.Namespace) -> ForgeSpec:
    return ForgeSpec(
        entities=args.entities,
        relations=args.relations,
        time_steps=args.time_steps,
        quads_per_entity=args.quads_per_entity,
        planted_pairs=args.planted,
        planted_untimed_pairs=args.planted_untimed,
        nontemporal_entity_fraction=args.nontemporal_fraction,
        overlap_ratio=args.ratio,
        seed_count=args.seeds,
        seed=args.seed,
        name=args.name,
    )


def cmd_forge_synth(args: argparse.Namespace, manifest: RunManifest) -> int:
    spec = _forge_spec_from_args(args)
    manifest.data["config"] = dataclasses.asdict(spec)
    manifest.data["seeds"] = [spec.seed]
    result = synth_tkg(spec)
    out = write_dataset(Path(args.out), result.g1, result.g2, result.seeds, result.manifest)
    for f in sorted(out.iterdir()):
        if f.name != "run_manifest.json":
            manifest.record_artifact(f)
    stats = dataset_stats(result.g1, result.g2, result.seeds)
    print(format_stats(stats, spec.name, result.manifest["overlap"]), end="")
    print(f"dataset written to {out}")
    return EXIT_OK


def cmd_forge_split(args: argparse.Namespace, manifest: RunManifest) -> int:
    rng = np.random.default_rng(args.seed)
    if args.source:
        quads = read_source_quads(args.source)
        manifest.data["inputs"][args.source] = _sha256(Path(args.source))
        result = split_to_result(quads, args.ratio, args.seeds, rng, name=args.name)
    else:
        spec = _forge_spec_from_args(args)
        result = synth_tkg(spec, rng)
    manifest.data["config"] = {"ratio": args.ratio, "seeds": args.seeds,
                               "seed": args.seed, "source": args.source}
    manifest.data["seeds"] = [args.seed]
    out = write_dataset(Path(args.out), result.g1, result.g2, result.seeds, result.manifest)
    for f in sorted(out.iterdir()):
        if f.name != "run_manifest.json":
            manifest.record_artifact(f)
    stats = dataset_stats(result.g1, result.g2, result.seeds)
    overlap = measured_overlap(result.g1, result.g2, result.seeds.all_pairs)
    print(format_stats(stats, result.g1.name.removesuffix("_1"), overlap), end="")
    print(f"dataset written to {out}")
    return EXIT_OK


def cmd_forge_stats(args: argparse.Namespace, manifest: RunManifest) -> int:
    data_dir = resolve_data_dir(args.data)
    manifest.record_input_dir(data_dir)
    g1, g2, seeds = parse_dataset(data_dir)
    stats = dataset_stats(g1, g2, seeds)
    overlap = measured_overlap(g1, g2, seeds.all_pairs)
    total = param_count(stats, args.k, args.layers)
    print(format_stats(stats, data_dir.name, overlap), end="")
    print(f"trainable parameters (k={args.k}, layers={args.layers}): {total}")
    print(f"self-loop delta when enabled: +{self_loop_param_delta(args.k)}")
    manifest.data["metrics"] = {"param_count": total, **dataclasses.asdict(stats)}
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--out", default="runs", help="output directory (default: runs)")
    ap.add_argument("--threads", type=int, default=None,
                    help="worker threads (computation is single-threaded; >1 is advisory)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tkgalign",
        description="Time-aware entity alignment between temporal knowledge graphs",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    ap.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    sub = ap.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("train", help="train alignment models on a dataset directory")
    tr.add_argument("--data", required=True, help=f"dataset dir (or name under ${DATA_ROOT_ENV})")
    tr.add_argument("--mode", choices=MODES, default=None)
    tr.add_argument("--repeats", type=int, default=5, help="independent runs (default 5)")
    tr.add_argument("--seed", type=int, default=None, help="base RNG seed; run i uses seed+i")
    tr.add_argument("--config", default=None, help="JSON file with training-config keys")
    tr.add_argument("--dim", type=int, default=None)
    tr.add_argument("--layers", type=int, default=None)
    tr.add_argument("--lr", type=float, default=None)
    tr.add_argument("--margin", type=float, default=None)
    tr.add_argument("--dropout", type=float, default=None)
    tr.add_argument("--epochs", type=int, default=None)
    tr.add_argument("--neg-per-pos", type=int, default=None)
    tr.add_argument("--eval-every", type=int, default=None)
    tr.add_argument("--patience", type=int, default=None)
    tr.add_argument("--k-csls", type=int, default=None)
    tr.add_argument("--precision", choices=("f32", "f64"), default=None)
    tr.add_argument("--self-loops", choices=("on", "off"), default=None)
    tr.add_argument("--emit-plots", action="store_true",
                    help="also write gnuplot-ready loss/validation data files per run")
    _add_common(tr)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--metric", choices=("l1", "csls", "both"), default="both")
    ev.add_argument("--k-csls", type=int, default=10)
    ev.add_argument("--partition", action="store_true",
                    help="also report highly/lowly time-sensitive partitions")
    ev.add_argument("--direction", choices=("g1->g2", "g2->g1", "both"), default="g1->g2")
    _add_common(ev)
    ev.set_defaults(func=cmd_eval)

    fg = sub.add_parser("forge", help="construct datasets")
    fsub = fg.add_subparsers(dest="forge_command", required=True)

    def add_spec_args(p, for_split=False):
        p.add_argument("--entities", type=int, default=60)
        p.add_argument("--relations", type=int, default=4)
        p.add_argument("--time-steps", type=int, default=40)
        p.add_argument("--quads-per-entity", type=int, default=4)
        p.add_argument("--planted", type=int, default=0 if for_split else 3)
        p.add_argument("--planted-untimed", type=int, default=0)
        p.add_argument("--nontemporal-fraction", type=float, default=0.0)
        p.add_argument("--ratio", type=float, default=0.5)
        p.add_argument("--seeds", type=int, default=20)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--name", default="synth")

    fs = fsub.add_parser("synth", help="generate a synthetic aligned pair")
    add_spec_args(fs)
    _add_common(fs)
    fs.set_defaults(func=cmd_forge_synth)

    fp = fsub.add_parser("split", help="overlap-split a source quadruple set")
    fp.add_argument("--source", default=None,
                    help="five-column integer quad file; omitted: generate a synthetic source")
    add_spec_args(fp, for_split=True)
    _add_common(fp)
    fp.set_defaults(func=cmd_forge_split)

    ft = fsub.add_parser("stats", help="print dataset statistics and parameter count")
    ft.add_argument("--data", required=True)
    ft.add_argument("--k", type=int, default=100, help="embedding dim for the parameter count")
    ft.add_argument("--layers", type=int, default=2)
    _add_common(ft)
    ft.set_defaults(func=cmd_forge_stats)

    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help/--version
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    command = args.command if args.command != "forge" else f"forge {args.forge_command}"
    manifest = RunManifest(command, Path(args.out), argv)
    try:
        code = args.func(args, manifest)
        manifest.finish("success")
        return code
    except (ConfigError, ParseError, DatasetError) as exc:
        manifest.finish("failure", f"{type(exc).__name__}: {exc}")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TkgAlignError as exc:
        manifest.finish("failure", f"{type(exc).__name__}: {exc}")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - the manifest must record any crash
        manifest.finish("failure", f"{type(exc).__name__}: {exc}")
        raise


if __name__ == "__main__":
    sys.exit(main())
