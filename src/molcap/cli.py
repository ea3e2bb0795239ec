"""Command-line surface: featurize, cross-validate, report, draw.

Every artifact-producing command writes a JSON run manifest capturing
the full configuration, SHA-256 digests of its inputs, the paths it
wrote, wall-clock timings and outcome counts, so a 64-bit run can be
reproduced bit-for-bit from the manifest alone (timing fields aside).

Exit codes: 0 success, 2 usage or input error, 3 training diverged.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .dataset import (
    FEATURIZER_VERSION,
    check_image_side,
    featurize_dataset,
    corpus_digest,
    load_csv,
    read_cache,
    stratified_kfold,
    write_cache,
    write_exclusion_csv,
)
from .errors import ConfigError, MolcapError, NonFiniteLossError
from .fingerprints import DEFAULT_NBITS, DEFAULT_RADIUS
from .imaging import DEFAULT_SIDE, render_molecule, write_pgm
from .maccs import default_key_path, load_key_definitions
from .metrics import aggregate_folds, roc_points, write_roc_csv
from .nn import (
    Model,
    ModelConfig,
    TrainConfig,
    save_checkpoint,
    train,
    write_history_csv,
)
from .smiles import parse_smiles

__all__ = ["RunManifest", "main"]


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to rerun a command and audit what it produced.

    ``counts`` holds outcome counts; ``featurize`` records the molecules
    kept and the exclusions per reason.
    """

    command: str
    config: dict
    inputs: dict[str, str]
    outputs: list[str]
    timings: dict[str, float]
    counts: dict = field(default_factory=dict)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(path: Path, manifest: RunManifest) -> None:
    path.write_text(json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# featurize


def cmd_featurize(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    in_path = Path(args.in_path)
    out_path = Path(args.out)
    definitions = load_key_definitions()
    molecules, rejects = load_csv(
        in_path, smiles_column=args.smiles_col, label_column=args.label_col
    )
    examples, report = featurize_dataset(
        molecules,
        side=args.image_side,
        radius=args.radius,
        nbits=args.fp_bits,
        definitions=definitions,
        workers=args.workers,
    )
    write_cache(out_path, examples, corpus_digest(molecules))
    exclusions_path = out_path.with_name(out_path.name + ".exclusions.csv")
    write_exclusion_csv(report, exclusions_path)
    seconds = time.perf_counter() - started
    counts = report.counts

    manifest_path = out_path.with_name(out_path.name + ".manifest.json")
    _write_manifest(
        manifest_path,
        RunManifest(
            command="featurize",
            config={
                "image_side": args.image_side,
                "fp_bits": args.fp_bits,
                "radius": args.radius,
                "smiles_column": args.smiles_col,
                "label_column": args.label_col,
                "key_file": str(default_key_path()),
                "featurizer_version": FEATURIZER_VERSION,
                "workers": args.workers,
            },
            inputs={str(in_path): _sha256(in_path)},
            outputs=[str(out_path), str(exclusions_path)],
            timings={"featurize_seconds": seconds},
            counts={"kept": len(examples), "excluded": counts},
        ),
    )

    breakdown = " ".join(
        f"{reason}={counts[reason]}" for reason in sorted(counts)
    )
    print(
        f"kept {len(examples)} of {len(molecules)} molecules"
        + (f"; excluded {breakdown}" if breakdown else "")
        + (f"; rejected {len(rejects)} csv rows" if rejects else "")
    )
    return 0


# --------------------------------------------------------------------------
# cv


def _combo_name(use_fp: bool, use_maccs: bool) -> str:
    parts = ["image"]
    if use_fp:
        parts.append("fp")
    if use_maccs:
        parts.append("maccs")
    return "+".join(parts)


def cmd_cv(args: argparse.Namespace) -> int:
    if args.folds < 2:
        raise ConfigError("--folds must be at least 2")
    if args.seed < 0:
        raise ConfigError(f"--seed must be at least 0, got {args.seed}")
    train_config = TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch,
        patience=args.patience,
        lr_factor=args.lr_factor,
        max_epochs=args.max_epochs,
    )
    started = time.perf_counter()
    in_path = Path(args.in_path)
    out_dir = Path(args.out)
    data = read_cache(in_path)

    # No flag at all means the full captioned configuration.
    any_flag = args.use_image or args.use_fp or args.use_maccs
    use_fp = args.use_fp or not any_flag
    use_maccs = args.use_maccs or not any_flag
    model_config = ModelConfig(
        blocks_per_stage=args.blocks,
        filters=args.filters,
        image_side=data.side,
        fp_width=8 * data.fingerprints.shape[1],
        keys_width=data.keys.shape[1],
        use_fingerprint=use_fp,
        use_keys=use_maccs,
    )
    split = stratified_kfold(data.labels.tolist(), k=args.folds, seed=args.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    folds = [0] if args.holdout else list(range(args.folds))
    dtype = np.float32 if args.fast32 else np.float64

    per_fold_auc: list[float] = []
    fold_seconds: list[float] = []
    outputs: list[str] = []
    # Folds write their artifacts as they finish, so a divergence abort
    # still leaves every completed fold on disk.
    for fold in folds:
        fold_started = time.perf_counter()
        fold_dir = out_dir / f"fold{fold}"
        fold_dir.mkdir(parents=True, exist_ok=True)
        val_idx = list(split.folds[fold])
        model = Model(model_config, seed=args.seed + fold, dtype=dtype)
        config = replace(train_config, seed=args.seed + fold)
        result = train(model, data, split.train_indices(fold), val_idx, config)
        write_history_csv(result.history, fold_dir / "history.csv")
        model.params = result.best_parameters
        save_checkpoint(fold_dir / "model.ckpt", model)
        # The best epoch's validation scores, computed by train at --batch.
        curve = roc_points(result.best_val_scores.tolist(), data.labels[val_idx].tolist())
        write_roc_csv(curve, fold_dir / "roc.csv")
        per_fold_auc.append(result.best_val_auc)
        fold_seconds.append(time.perf_counter() - fold_started)
        outputs.append(str(fold_dir))

    summary = aggregate_folds(per_fold_auc)
    metrics_path = out_dir / "metrics.json"
    metrics_path.write_text(
        json.dumps(
            {
                "combo": _combo_name(use_fp, use_maccs),
                "mode": "holdout" if args.holdout else "cv",
                "per_fold_auc": summary.per_fold_auc,
                "mean": summary.mean,
                "min": summary.min,
                "max": summary.max,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    outputs.append(str(metrics_path))

    _write_manifest(
        out_dir / "manifest.json",
        RunManifest(
            command="cv",
            config={
                "model": asdict(model_config),
                "train": {k: v for k, v in asdict(train_config).items() if k != "seed"},
                "combo": _combo_name(use_fp, use_maccs),
                "mode": "holdout" if args.holdout else "cv",
                "folds": args.folds,
                "dtype": "float32" if args.fast32 else "float64",
                "featurizer_version": data.featurizer_version,
                "corpus_hash": data.corpus_hash,
                "seeds": {"base": args.seed, "folds": [args.seed + f for f in folds]},
            },
            inputs={str(in_path): _sha256(in_path)},
            outputs=outputs,
            timings={
                "per_fold_seconds": fold_seconds,
                "total_seconds": time.perf_counter() - started,
            },
        ),
    )
    print(
        f"auc mean={summary.mean:.4f} min={summary.min:.4f} max={summary.max:.4f}"
        f" over {len(per_fold_auc)} fold(s)"
    )
    return 0


# --------------------------------------------------------------------------
# report


def _best_epoch_and_totals(history_path: Path) -> tuple[int, int, float]:
    """(epoch of best val AUC, epoch count, total seconds) for one fold."""
    best_epoch, best_auc = 0, -float("inf")
    epochs, seconds = 0, 0.0
    with open(history_path, newline="") as handle:
        for row in csv.DictReader(handle):
            epochs += 1
            seconds += float(row["seconds"])
            auc = float(row["val_auc"])
            if auc > best_auc:
                best_auc, best_epoch = auc, int(row["epoch"])
    return best_epoch, epochs, seconds


def cmd_report(args: argparse.Namespace) -> int:
    rows = []
    for run in args.runs:
        run_dir = Path(run)
        manifest_path = run_dir / "manifest.json"
        if not manifest_path.exists():
            raise ConfigError(f"missing manifest: {manifest_path}")
        manifest = json.loads(manifest_path.read_text())
        metrics = json.loads((run_dir / "metrics.json").read_text())
        best_epochs: list[int] = []
        total_epochs = 0
        total_seconds = 0.0
        for fold_output in manifest["outputs"]:
            # Outputs are recorded relative to where cv ran; folds live in run_dir.
            fold_dir = run_dir / Path(fold_output).name
            if not fold_dir.name.startswith("fold"):
                continue
            history_path = fold_dir / "history.csv"
            if not history_path.exists():
                raise ConfigError(f"missing history: {history_path}")
            best, epochs, seconds = _best_epoch_and_totals(history_path)
            best_epochs.append(best)
            total_epochs += epochs
            total_seconds += seconds
        epochs_to_best = (
            sum(best_epochs) / len(best_epochs) if best_epochs else 0.0
        )
        per_epoch = total_seconds / total_epochs if total_epochs else 0.0
        rows.append(
            (
                str(run_dir),
                metrics["combo"],
                metrics["mean"],
                metrics["min"],
                metrics["max"],
                epochs_to_best,
                per_epoch,
                total_seconds,
            )
        )

    rows.sort(key=lambda row: row[2], reverse=True)
    lines = ["run,combo,mean_auc,min_auc,max_auc,epochs_to_best,seconds_per_epoch,total_seconds"]
    for run, combo, mean, low, high, best, per_epoch, total in rows:
        lines.append(
            f"{run},{combo},{mean!r},{low!r},{high!r},"
            f"{best:.1f},{per_epoch:.3f},{total:.3f}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


# --------------------------------------------------------------------------
# draw


def cmd_draw(args: argparse.Namespace) -> int:
    check_image_side(args.image_side)
    graph = parse_smiles(args.smiles)
    image = render_molecule(graph, side=args.image_side)
    write_pgm(image, args.out)
    print(f"wrote {args.out}")
    return 0


# --------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molcap",
        description="Captioned molecular images: featurize, train, compare.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    featurize = commands.add_parser(
        "featurize", help="CSV of SMILES + labels -> binary feature cache"
    )
    featurize.add_argument("--in", dest="in_path", required=True)
    featurize.add_argument("--out", required=True)
    featurize.add_argument("--image-side", type=int, default=DEFAULT_SIDE)
    featurize.add_argument("--fp-bits", type=int, default=DEFAULT_NBITS)
    featurize.add_argument("--radius", type=int, default=DEFAULT_RADIUS)
    featurize.add_argument("--smiles-col", default="smiles")
    featurize.add_argument("--label-col", default="HIV_active")
    featurize.add_argument("--workers", type=int, default=1)
    featurize.set_defaults(func=cmd_featurize)

    cv = commands.add_parser(
        "cv", help="stratified cross-validation training from a cache"
    )
    cv.add_argument("--in", dest="in_path", required=True)
    cv.add_argument("--out", required=True)
    cv.add_argument("--folds", type=int, default=5)
    cv.add_argument("--seed", type=int, default=0)
    cv.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    cv.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    cv.add_argument("--patience", type=int, default=TrainConfig.patience)
    cv.add_argument("--lr-factor", type=float, default=TrainConfig.lr_factor)
    cv.add_argument("--blocks", type=int, default=ModelConfig.blocks_per_stage)
    cv.add_argument("--filters", type=int, default=ModelConfig.filters)
    cv.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    cv.add_argument("--use-image", action="store_true")
    cv.add_argument("--use-fp", action="store_true")
    cv.add_argument("--use-maccs", action="store_true")
    cv.add_argument(
        "--holdout",
        action="store_true",
        help="train once on the first fold's 80/20 split instead of all folds",
    )
    cv.add_argument(
        "--fast32",
        action="store_true",
        help="32-bit parameters (faster; same-seed runs on one machine and build "
        "write the same bytes, for any batch slicing and one or two BLAS threads)",
    )
    cv.set_defaults(func=cmd_cv)

    report = commands.add_parser(
        "report", help="one comparison row per finished run, best first"
    )
    report.add_argument("runs", nargs="+", metavar="RUN_DIR")
    report.add_argument("--out", default=None)
    report.set_defaults(func=cmd_report)

    draw = commands.add_parser("draw", help="render one SMILES to a PGM image")
    draw.add_argument("--smiles", required=True)
    draw.add_argument("--out", required=True)
    draw.add_argument("--image-side", type=int, default=DEFAULT_SIDE)
    draw.set_defaults(func=cmd_draw)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonFiniteLossError as exc:
        print(f"error: training diverged at epoch {exc.epoch}", file=sys.stderr)
        return 3
    except (MolcapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
