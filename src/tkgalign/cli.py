"""Command-line entry point: train, eval, forge and experiment subcommands.

Every invocation writes a ``run_manifest.json`` into its output directory —
success or failure — recording the resolved configuration, input checksums,
seeds, and a checksum for every artifact the run produced. Two refusals come
before it and write none: arguments that do not parse (argparse's usage
message, exit 2) and an ``--out`` that is, or lies under, a file (exit 2).

Reruns with the same seed produce byte-identical artifacts, with exactly two
declared exceptions that record wall-clock time: the run manifest itself, and
the ``seconds`` column/field in training histories and evaluation reports.
Checkpoints, datasets, metrics, summaries and experiment reports are strictly
byte-identical.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import logging
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, meta_from_result, save_checkpoint
from .errors import ConfigError, DatasetError, TkgAlignError, require_field_types
from .evaluate import average_reports
from .experiments import EXPERIMENTS
from .forge import (
    ForgeSpec,
    dataset_stats,
    format_stats,
    measured_overlap,
    param_count,
    read_source_quads,
    split_to_result,
    synth_tkg,
    write_dataset,
)
from .model import DTYPES, num_relation_rows, table_sizes
from .tkg import DATASET_FILES, merge_pair, parse_dataset
from .train import MODES, TrainConfig, build_graph, score_model, train

logger = logging.getLogger(__name__)

DATA_ROOT_ENV = "TKGALIGN_DATA_ROOT"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# glibc's mallopt(3) parameters, and the block size up to which the heap
# serves and keeps memory
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
HEAP_THRESHOLD = 1 << 30


def _keep_freed_memory_in_heap() -> None:
    """Serve blocks under 1 GiB from the heap and keep up to 1 GiB freed there.

    Sets glibc's ``M_MMAP_THRESHOLD`` and ``M_TRIM_THRESHOLD`` (mallopt(3))
    for this process. Training allocates and frees per-link arrays every
    epoch. glibc maps each block above its mmap threshold (adaptive, at most
    32 MiB) afresh, faults it in page by page and unmaps it on free; from
    the heap the next epoch reuses the same pages. Values are unaffected.
    :func:`main` calls it first, so library callers that never enter
    ``cli.main`` keep the allocator's defaults. A no-op on any other C
    library, and a refused setting is ignored.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, HEAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, HEAP_THRESHOLD)


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
        _write_json(self.out_dir / "run_manifest.json", self.data)


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
        payload = json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{p}: config must be a JSON object")
    unknown = set(payload) - {f.name for f in dataclasses.fields(TrainConfig)}
    if unknown:
        raise ConfigError(f"{p}: unknown config keys {sorted(unknown)}")
    require_field_types(TrainConfig, payload, str(p))
    return payload


def _build_train_config(args: argparse.Namespace) -> TrainConfig:
    """Defaults, then config file, then explicit command-line flags."""
    merged = _load_config_file(args.config)
    for f in dataclasses.fields(TrainConfig):
        value = getattr(args, f.name)  # every field has a flag of its own name
        if value is not None:
            merged[f.name] = value == "on" if f.name == "self_loops" else value
    return TrainConfig(**merged)


def _parse_ranked_pair(data_dir: Path):
    """Parse a dataset that train and eval rank; its ``ref_pairs`` must hold pairs."""
    g1, g2, seeds = parse_dataset(data_dir)
    if not seeds.test_pairs:
        raise DatasetError(f"{data_dir / 'ref_pairs'}: no test pairs to rank")
    return g1, g2, seeds


# ---------------------------------------------------------------------------
# train


def cmd_train(args: argparse.Namespace, manifest: RunManifest) -> int:
    data_dir = resolve_data_dir(args.data)
    manifest.record_input_dir(data_dir)
    cfg = _build_train_config(args)
    if args.repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {args.repeats}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    g1, g2, seeds = _parse_ranked_pair(data_dir)

    repeats = args.repeats
    run_seeds = [cfg.seed + i for i in range(repeats)]
    manifest.data["config"] = dataclasses.asdict(cfg)
    manifest.data["seeds"] = run_seeds

    reports = []
    for run_seed in run_seeds:
        run_cfg = dataclasses.replace(cfg, seed=run_seed)
        result = train(g1, g2, seeds, run_cfg)
        run_dir = out / f"run_{run_seed}"
        run_dir.mkdir(parents=True, exist_ok=True)

        ck_path = run_dir / "checkpoint.npz"
        save_checkpoint(ck_path, result.store, meta_from_result(result))
        history_path = run_dir / "history.csv"
        history_path.write_text("\n".join(result.report.history_rows()) + "\n")

        run_reports = score_model(result.store, result.graph, run_cfg,
                                  result.merged.merged_pairs(seeds.test_pairs),
                                  spaces=("l1", "csls"))
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
            "reports": [vars(r) for r in run_reports],
        })
        for p in (ck_path, history_path, metrics_path):
            manifest.record_artifact(p)
        reports.extend(run_reports)
        logger.info("run %d: csls hits@1 %.4f", run_seed,
                    next(r.hits1 for r in run_reports if r.metric_space == "csls"))

    summary = {space: average_reports([r for r in reports if r.metric_space == space])
               for space in ("l1", "csls")}
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
    cfg = meta.model_config()  # the meta itself: the header is the run's TrainConfig
    if args.k_csls is not None:
        cfg = dataclasses.replace(cfg, k_csls=args.k_csls)  # TrainConfig checks the override
    manifest.data["inputs"][str(Path(args.checkpoint))] = _sha256(Path(args.checkpoint))
    manifest.data["config"] = {"checkpoint": dataclasses.asdict(meta), "metric": args.metric,
                               "k_csls": cfg.k_csls, "partition": args.partition,
                               "direction": args.direction}
    g1, g2, seeds = _parse_ranked_pair(data_dir)
    merged = merge_pair(g1, g2)
    expected = table_sizes(merged, meta.self_loops)
    if expected != meta.sizes:
        raise ConfigError(
            f"checkpoint does not fit this dataset: sizes {meta.sizes} in header, "
            f"{expected} required (entities, relation rows, time ids)"
        )

    graph, sensitivity = build_graph(merged, cfg)
    digest = graph.sha256()
    if digest != meta.graph_sha256:
        raise ConfigError(
            f"checkpoint was trained on another graph: graph_sha256 {meta.graph_sha256}"
            f" in header, {digest} built from this dataset"
        )
    spaces = ("l1", "csls") if args.metric == "both" else (args.metric,)
    directions = ("g1->g2", "g2->g1") if args.direction == "both" else (args.direction,)
    reports = score_model(store, graph, cfg, merged.merged_pairs(seeds.test_pairs),
                          spaces=spaces, directions=directions,
                          sensitivity=sensitivity if args.partition else None)
    for rep in reports:
        rep.seed = meta.seed

    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "eval_report.json"
    _write_json(json_path, [vars(r) for r in reports])
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


def _write_forged(result, args: argparse.Namespace, manifest: RunManifest) -> int:
    """Write a forged dataset directory, record its files and print its size table."""
    out = write_dataset(Path(args.out), result.g1, result.g2, result.seeds, result.manifest)
    for f in sorted(out.iterdir()):
        if f.name != "run_manifest.json":
            manifest.record_artifact(f)
    print((out / "stats.txt").read_text(), end="")
    print(f"dataset written to {out}")
    return EXIT_OK


def cmd_forge_synth(args: argparse.Namespace, manifest: RunManifest) -> int:
    # every ForgeSpec field has a flag whose dest is the field's name
    spec = ForgeSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(ForgeSpec)})
    manifest.data["config"] = dataclasses.asdict(spec)
    manifest.data["seeds"] = [spec.seed]
    return _write_forged(synth_tkg(spec), args, manifest)


def cmd_forge_split(args: argparse.Namespace, manifest: RunManifest) -> int:
    manifest.data["config"] = {"ratio": args.overlap_ratio, "seeds": args.seed_count,
                               "seed": args.seed, "source": args.source}
    manifest.data["seeds"] = [args.seed]
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    quads = read_source_quads(args.source)
    manifest.data["inputs"][args.source] = _sha256(Path(args.source))
    result = split_to_result(quads, args.overlap_ratio, args.seed_count,
                             np.random.default_rng(args.seed), name=args.name)
    return _write_forged(result, args, manifest)


def cmd_forge_stats(args: argparse.Namespace, manifest: RunManifest) -> int:
    data_dir = resolve_data_dir(args.data)
    manifest.record_input_dir(data_dir)
    g1, g2, seeds = parse_dataset(data_dir)
    stats = dataset_stats(g1, g2, seeds)
    overlap = measured_overlap(g1, g2, seeds.all_pairs)
    total = param_count(stats, args.k, args.layers)
    rels = stats.num_relations_1 + stats.num_relations_2
    self_rows = num_relation_rows(rels, self_loops=True) - num_relation_rows(rels, self_loops=False)
    print(format_stats(stats, data_dir.name, overlap), end="")
    print(f"trainable parameters (k={args.k}, layers={args.layers}): {total}")
    print(f"self-loop delta when enabled: +{self_rows * args.k}")
    manifest.data["metrics"] = {"param_count": total, **dataclasses.asdict(stats)}
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment


def cmd_experiment(args: argparse.Namespace, manifest: RunManifest) -> int:
    cfg, experiment, lines = EXPERIMENTS[args.experiment]
    if args.epochs is not None:
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, epochs=args.epochs))
    if args.train_seeds is not None:
        cfg = dataclasses.replace(cfg, train_seeds=tuple(args.train_seeds))
    manifest.data["config"] = dataclasses.asdict(cfg)
    manifest.data["seeds"] = list(cfg.train_seeds)
    report = experiment(cfg)
    path = Path(args.out) / f"{args.experiment}.json"
    _write_json(path, report)
    manifest.record_artifact(path)
    manifest.data["metrics"] = report["summary"]
    print(f"report written to {path}")
    for line in lines:
        print(line.format(**report["summary"]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--out", default="runs", help="output directory (default: runs)")


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
    tr.add_argument("--layers", dest="num_layers", type=int, default=None)
    tr.add_argument("--lr", type=float, default=None)
    tr.add_argument("--margin", type=float, default=None)
    tr.add_argument("--dropout", type=float, default=None)
    tr.add_argument("--epochs", type=int, default=None)
    tr.add_argument("--neg-per-pos", dest="negatives_per_positive", type=int, default=None)
    tr.add_argument("--eval-every", type=int, default=None)
    tr.add_argument("--patience", type=int, default=None)
    tr.add_argument("--k-csls", type=int, default=None)
    tr.add_argument("--precision", choices=tuple(DTYPES), default=None)
    tr.add_argument("--self-loops", choices=("on", "off"), default=None)
    _add_common(tr)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--metric", choices=("l1", "csls", "both"), default="both")
    ev.add_argument("--k-csls", type=int, default=None,
                    help="CSLS neighbourhood (default: the one recorded in the checkpoint)")
    ev.add_argument("--partition", action="store_true",
                    help="also report highly/lowly time-sensitive partitions")
    ev.add_argument("--direction", choices=("g1->g2", "g2->g1", "both"), default="g1->g2")
    _add_common(ev)
    ev.set_defaults(func=cmd_eval)

    fg = sub.add_parser("forge", help="construct datasets")
    fsub = fg.add_subparsers(dest="forge_command", required=True)

    def add_split_args(p):
        p.add_argument("--ratio", dest="overlap_ratio", type=float, default=0.5)
        p.add_argument("--seeds", dest="seed_count", type=int, default=20)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--name", default="synth")
        _add_common(p)

    fs = fsub.add_parser("synth", help="generate a synthetic aligned pair")
    fs.add_argument("--entities", type=int, default=60)
    fs.add_argument("--relations", type=int, default=4)
    fs.add_argument("--time-steps", type=int, default=40)
    fs.add_argument("--quads-per-entity", type=int, default=4)
    fs.add_argument("--planted", dest="planted_pairs", type=int, default=3)
    fs.add_argument("--planted-untimed", dest="planted_untimed_pairs", type=int, default=0)
    fs.add_argument("--nontemporal-fraction", dest="nontemporal_entity_fraction", type=float,
                    default=0.0)
    add_split_args(fs)
    fs.set_defaults(func=cmd_forge_synth)

    fp = fsub.add_parser("split", help="overlap-split a source quadruple set")
    fp.add_argument("--source", required=True, help="five-column tab-separated integer quad file")
    add_split_args(fp)
    fp.set_defaults(func=cmd_forge_split)

    ft = fsub.add_parser("stats", help="print dataset statistics and parameter count")
    ft.add_argument("--data", required=True)
    ft.add_argument("--k", type=int, default=100, help="embedding dim for the parameter count")
    ft.add_argument("--layers", type=int, default=2)
    _add_common(ft)
    ft.set_defaults(func=cmd_forge_stats)

    xp = sub.add_parser("experiment", help="run a canned experiment in both modes")
    xp.add_argument("experiment", choices=EXPERIMENTS)
    xp.add_argument("--epochs", type=int, default=None,
                    help="training epochs (default: the experiment's)")
    xp.add_argument("--train-seeds", type=int, nargs="+", default=None,
                    help="one run per seed and mode (default: the experiment's)")
    _add_common(xp)
    xp.set_defaults(func=cmd_experiment)

    return ap


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory_in_heap()
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help/--version
        return int(exc.code or 0)
    out = Path(args.out)
    if not next(p for p in (out, *out.parents) if p.exists()).is_dir():  # nowhere for the manifest
        print(f"error: --out {out} is a file or lies under one", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    command = args.command if args.command != "forge" else f"forge {args.forge_command}"
    manifest = RunManifest(command, out, argv)
    try:
        # a non-finite value is refused by the explicit checks on the loss,
        # gradients, representations and checkpoint arrays, as one error line
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            code = args.func(args, manifest)
        manifest.finish("success")
        return code
    except Exception as exc:  # noqa: BLE001 - the manifest must record any crash
        manifest.finish("failure", f"{type(exc).__name__}: {exc}")
        if isinstance(exc, MemoryError):
            print(f"error: out of memory ({exc})" if str(exc) else "error: out of memory", file=sys.stderr)
        elif isinstance(exc, TkgAlignError):
            print(f"error: {exc}", file=sys.stderr)
        else:
            raise
        return EXIT_USAGE if isinstance(exc, (ConfigError, DatasetError)) else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
