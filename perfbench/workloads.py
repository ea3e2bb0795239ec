"""The benchmark's workloads: set-up, one measured round, output checks.

Each workload builds its inputs from the seed during set-up and then
repeats identical rounds.  A round returns its phase timings, its item
counts, SHA-256 digests of the float64 artifacts it wrote, and the
failures of its output checks.  Rounds of one run redo the same work, so
their digests must agree; runs with the same seed must agree too.

Program functions are always looked up on their module at call time
(``self.ds.featurize_dataset``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import importlib
import io
import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import corpus


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclasses.dataclass
class Round:
    seconds: dict[str, float]
    counts: dict[str, float]
    digests: dict[str, str]
    attempted: int
    failed: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)


def _median(rounds: list[Round], count: str | None, phase: str) -> float:
    """Median over rounds of count per second of the phase, or of the
    phase's seconds when count is None."""
    if count is None:
        return statistics.median(r.seconds[phase] for r in rounds)
    return statistics.median(r.counts[count] / r.seconds[phase] for r in rounds)


class Workload:
    """Base: ``named`` lists (metric, unit, count key, phase key); the
    first entry is the headline rate reported as ``examples_per_s``."""

    name = ""
    scales: dict[str, tuple] = {}
    named: tuple[tuple[str, str, str, str], ...] = ()

    def __init__(self, seed: int, scale: str, work: Path):
        import molcap.dataset
        import molcap.maccs

        self.seed = seed
        self.size = self.scales[scale]
        self.work = work
        self.ds = molcap.dataset
        self.maccs = molcap.maccs

    def setup(self) -> None:
        """Start the program cold, as every command-line call does, then
        build the workload's inputs."""
        subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import molcap.cli"],
            check=True,
        )
        self.prepare()

    def prepare(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def named_metrics(self, rounds: list[Round]) -> dict[str, tuple[float, str]]:
        values = {
            name: (_median(rounds, count, phase), unit)
            for name, unit, count, phase in self.named
        }
        # Featurize's failures are the molecules it excludes by design.
        failed = sum(r.counts.get("excluded", r.failed) for r in rounds)
        values["failed_share"] = (failed / sum(r.attempted for r in rounds), "ratio")
        return values


class Featurize(Workload):
    name = "featurize"
    # (ring-rich molecules, small acyclic molecules) besides the drug-like list.
    scales = {"full": (300, 100), "tiny": (8, 4)}
    named = (("featurize.mol_per_s", "mol/s", "molecules", "featurize"),)

    def prepare(self) -> None:
        rows = corpus.featurize_corpus(self.seed, *self.size)
        self.molecules = [self.ds.LabeledMolecule(s, label) for s, label in rows]
        self.definitions = self.maccs.load_key_definitions()
        self.corpus_hash = self.ds.corpus_digest(self.molecules)

    def run_round(self) -> Round:
        ds = self.ds
        path = self.work / "corpus.cache"
        t0 = time.perf_counter()
        examples, report = ds.featurize_dataset(
            self.molecules, definitions=self.definitions, workers=1
        )
        t1 = time.perf_counter()
        ds.write_cache(path, examples, self.corpus_hash)
        t2 = time.perf_counter()
        cached = ds.read_cache(path)
        t3 = time.perf_counter()

        errors = []
        reasons = report.counts
        if reasons.get("parse-error"):
            errors.append(f"{reasons['parse-error']} generated SMILES failed to parse")
        expected = ds.arrays_from_examples(examples, self.corpus_hash)
        for field in ("images", "fingerprints", "keys", "labels"):
            if not np.array_equal(getattr(cached, field), getattr(expected, field)):
                errors.append(f"read_cache {field} differ from arrays_from_examples")
        if (cached.corpus_hash, cached.side) != (expected.corpus_hash, expected.side):
            errors.append("read_cache header differs from the written examples")
        n = len(self.molecules)
        return Round(
            seconds={"featurize": t1 - t0, "write_cache": t2 - t1, "read_cache": t3 - t2, "wall": t3 - t0},
            counts={"molecules": n, "excluded": len(report)},
            digests={"cache": sha256(path)},
            attempted=n,
            errors=errors,
        )


class TrainDefault(Workload):
    name = "train-default"
    # (batch size, training steps); validation holds one batch.
    scales = {"full": (32, 1), "tiny": (4, 1)}
    named = (
        ("train.f64.examples_per_s", "examples/s", "train_examples", "train_f64"),
        ("train.f32.examples_per_s", "examples/s", "train_examples", "train_f32"),
        ("score.f64.examples_per_s", "examples/s", "val_examples", "score_f64"),
    )

    def __init__(self, seed: int, scale: str, work: Path):
        super().__init__(seed, scale, work)
        import molcap.metrics

        # The package re-exports a function named ``train``, so reach the
        # submodules through importlib.
        self.nn_model = importlib.import_module("molcap.nn.model")
        self.nn_train = importlib.import_module("molcap.nn.train")
        self.metrics = molcap.metrics
        self.setup_digests: set[str] = set()

    def prepare(self) -> None:
        batch, steps = self.size
        n_train, n_val = batch * steps, batch
        need = n_train + n_val
        definitions = self.maccs.load_key_definitions()
        stream = corpus.training_candidates(self.seed)
        examples: list = []
        while len(examples) < need:
            chunk = [self.ds.LabeledMolecule(next(stream), 0) for _ in range(need - len(examples))]
            examples += self.ds.featurize_dataset(chunk, definitions=definitions)[0]
        # Balanced labels in both splits, so upsampling adds nothing and
        # the epoch is exactly ``steps`` steps.
        rng = random.Random(self.seed)
        labels = []
        for size in (n_train, n_val):
            block = [1] * (size // 2) + [0] * (size - size // 2)
            rng.shuffle(block)
            labels += block
        examples = [dataclasses.replace(e, label=l) for e, l in zip(examples, labels)]
        path = self.work / "train.cache"
        self.ds.write_cache(path, examples, "00" * 32)
        self.setup_digests.add(sha256(path))
        self.data = self.ds.arrays_from_examples(examples)
        self.train_idx = list(range(n_train))
        self.val_idx = list(range(n_train, need))

    def _train(self, dtype) -> tuple[object, float, float, int]:
        """(model, seconds, final loss, failed steps) for one train call."""
        from molcap.errors import NonFiniteLossError

        batch, steps = self.size
        model = self.nn_model.Model(self.nn_model.ModelConfig(), seed=self.seed, dtype=dtype)
        config = self.nn_train.TrainConfig(batch_size=batch, max_epochs=1, seed=self.seed)
        started = time.perf_counter()
        try:
            result = self.nn_train.train(model, self.data, self.train_idx, self.val_idx, config)
        except NonFiniteLossError:
            return model, time.perf_counter() - started, math.nan, 1
        seconds = time.perf_counter() - started
        loss = result.history[-1].train_loss
        return model, seconds, loss, 0 if math.isfinite(loss) else 1

    def run_round(self) -> Round:
        batch, steps = self.size
        errors = []
        t0 = time.perf_counter()
        model, f64_s, f64_loss, f64_failed = self._train(np.float64)
        ckpt = self.work / "model.ckpt"
        self.nn_model.save_checkpoint(ckpt, model)
        t1 = time.perf_counter()
        scores = self.nn_train.predict_scores(model, self.data, self.val_idx, batch_size=batch)
        t2 = time.perf_counter()
        roc = self.work / "roc.csv"
        labels = self.data.labels[self.val_idx].tolist()
        self.metrics.write_roc_csv(self.metrics.roc_points(scores.tolist(), labels), roc)
        del model
        t3 = time.perf_counter()
        _, f32_s, f32_loss, f32_failed = self._train(np.float32)
        t4 = time.perf_counter()

        failed = f64_failed + f32_failed + int(not np.all(np.isfinite(scores)))
        if failed:
            errors.append(f"non-finite losses or scores: f64 {f64_loss}, f32 {f32_loss}")
        if len(self.setup_digests) != 1:
            errors.append("set-up wrote different caches on repeats")
        return Round(
            seconds={"train_f64": f64_s, "train_f32": f32_s, "score_f64": t2 - t1, "wall": t4 - t0},
            counts={
                "train_examples": batch * steps,
                "val_examples": len(self.val_idx),
                "f64_loss": f64_loss,
                "f32_loss": f32_loss,
            },
            digests={
                "cache": min(self.setup_digests),
                "model.ckpt": sha256(ckpt),
                "roc.csv": sha256(roc),
                "f64_loss": repr(f64_loss),
            },
            attempted=2 * steps + 1,
            failed=failed,
            errors=errors,
        )

    def named_metrics(self, rounds: list[Round]) -> dict[str, tuple[float, str]]:
        values = super().named_metrics(rounds)
        values["train.f64.loss"] = (rounds[0].counts["f64_loss"], "loss")
        return values


class PipelineDesk(Workload):
    name = "pipeline-desk"
    # (molecules in the CSV, cv epochs).
    scales = {"full": (120, 3), "tiny": (80, 2)}
    named = (
        ("cv.examples_per_s", "examples/s", "cv_examples", "cv"),
        ("pipeline.wall_s", "s", None, "wall"),
    )
    # At --lr 0.01 the oxygen label is learnt to a validation AUC near 1
    # within three epochs; a broken training loop stays near 0.5.
    AUC_FLOOR = 0.75

    def __init__(self, seed: int, scale: str, work: Path):
        super().__init__(seed, scale, work)
        import molcap.cli

        self.cli = molcap.cli
        self.pool_size: int | None = None

    def prepare(self) -> None:
        self.rows = corpus.desk_corpus(self.seed, self.size[0])
        self.csv_path = self.work / "desk.csv"
        with open(self.csv_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["smiles", "HIV_active"])
            writer.writerows(self.rows)

    def _main(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def _train_pool_size(self, cache: Path) -> int:
        """Examples per cv epoch: fold 0's training part after upsampling."""
        with open(cache.with_name(cache.name + ".exclusions.csv"), newline="") as handle:
            excluded = {row["smiles"] for row in csv.DictReader(handle)}
        labels = [label for smiles, label in self.rows if smiles not in excluded]
        split = self.ds.stratified_kfold(labels, k=5, seed=self.seed)
        return len(self.ds.upsample_minority(split.train_indices(0), labels, seed=self.seed))

    def run_round(self) -> Round:
        epochs = self.size[1]
        cache = self.work / "desk.cache"
        run = self.work / "run"
        shutil.rmtree(run, ignore_errors=True)
        t0 = time.perf_counter()
        featurize_code, _ = self._main(
            ["featurize", "--in", str(self.csv_path), "--out", str(cache), "--image-side", "22"]
        )
        t1 = time.perf_counter()
        cv_code, _ = self._main(
            ["cv", "--in", str(cache), "--out", str(run), "--holdout", "--blocks", "1",
             "--filters", "4", "--max-epochs", str(epochs), "--lr", "0.01", "--seed", str(self.seed)]
        )
        t2 = time.perf_counter()
        report_code, report = self._main(["report", str(run)])
        t3 = time.perf_counter()

        codes = (featurize_code, cv_code, report_code)
        errors = [f"exit codes {codes}"] if any(codes) else []
        digests = {}
        if not errors:
            auc = json.loads((run / "metrics.json").read_text())["mean"]
            if not auc > self.AUC_FLOOR:
                errors.append(f"validation AUC {auc} not above {self.AUC_FLOOR}")
            rows = report.strip().splitlines()[1:]
            if len(rows) != 1:
                errors.append(f"report printed {len(rows)} rows for 1 run")
            for name, path in (
                ("cache", cache),
                ("metrics.json", run / "metrics.json"),
                ("roc.csv", run / "fold0" / "roc.csv"),
                ("model.ckpt", run / "fold0" / "model.ckpt"),
            ):
                digests[name] = sha256(path)
            if self.pool_size is None:
                self.pool_size = self._train_pool_size(cache)
        failed = sum(1 for code in codes if code)
        return Round(
            seconds={"featurize": t1 - t0, "cv": t2 - t1, "report": t3 - t2, "wall": t3 - t0},
            counts={"cv_examples": epochs * (self.pool_size or 0)},
            digests=digests,
            attempted=3,
            failed=failed,
            errors=errors,
        )


WORKLOADS = {w.name: w for w in (Featurize, TrainDefault, PipelineDesk)}
