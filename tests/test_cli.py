"""End-to-end tests for the command-line interface.

Commands are driven through main() so exit codes, stdout, and stderr
are all observable; one subprocess smoke test covers module execution.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import molcap.cli as cli
from molcap import dataset
from molcap.cli import main
from molcap.dataset import FEATURIZER_VERSION, read_cache
from molcap.errors import NonFiniteLossError
from molcap.imaging import PALETTE

from util import DRUG_LIKE

train_module = importlib.import_module("molcap.nn.train")

OXYGEN = ["CCO", "CO", "OCC", "O", "CC(=O)C", "OC(C)C", "CCCO", "COC"]
PLAIN = ["C", "CC", "CCC", "CCCC", "CN", "CCN", "c1ccccc1", "C1CC1"]


def write_corpus(path: Path, extra_rows: list[str] | None = None) -> None:
    rows = ["smiles,active"]
    rows += [f"{s},1" for s in OXYGEN]
    rows += [f"{s},0" for s in PLAIN]
    rows += extra_rows or []
    path.write_text("\n".join(rows) + "\n")


@pytest.fixture
def cache_path(tmp_path) -> Path:
    csv_path = tmp_path / "corpus.csv"
    write_corpus(csv_path)
    out = tmp_path / "corpus.cache"
    status = main(
        [
            "featurize",
            "--in", str(csv_path),
            "--out", str(out),
            "--image-side", "20",
            "--label-col", "active",
        ]
    )
    assert status == 0
    return out


def run_cv(cache: Path, out_dir: Path, *extra: str) -> int:
    return main(
        [
            "cv",
            "--in", str(cache),
            "--out", str(out_dir),
            "--folds", "2",
            "--blocks", "1",
            "--filters", "2",
            "--batch", "8",
            "--max-epochs", "1",
            "--seed", "3",
            *extra,
        ]
    )


# --------------------------------------------------------------------------
# featurize


def test_featurize_writes_cache_report_manifest(tmp_path, capsys) -> None:
    csv_path = tmp_path / "corpus.csv"
    write_corpus(csv_path)
    out = tmp_path / "corpus.cache"
    status = main(
        [
            "featurize",
            "--in", str(csv_path),
            "--out", str(out),
            "--image-side", "20",
            "--label-col", "active",
        ]
    )
    assert status == 0
    data = read_cache(out)
    assert len(data.labels) == 16
    assert data.side == 20
    assert data.labels.sum() == 8

    manifest = json.loads((tmp_path / "corpus.cache.manifest.json").read_text())
    assert manifest["command"] == "featurize"
    assert manifest["config"]["image_side"] == 20
    assert manifest["config"]["label_column"] == "active"
    assert manifest["config"]["featurizer_version"] == FEATURIZER_VERSION
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert manifest["inputs"][str(csv_path)] == digest
    assert str(out) in manifest["outputs"]
    assert manifest["timings"]["featurize_seconds"] >= 0

    assert (tmp_path / "corpus.cache.exclusions.csv").exists()
    assert "kept 16 of 16" in capsys.readouterr().out


def test_featurize_reports_exclusions(tmp_path, capsys) -> None:
    csv_path = tmp_path / "corpus.csv"
    write_corpus(csv_path, extra_rows=["C((,1", "C" * 100 + ",0"])
    out = tmp_path / "corpus.cache"
    status = main(
        [
            "featurize",
            "--in", str(csv_path),
            "--out", str(out),
            "--image-side", "20",
            "--label-col", "active",
        ]
    )
    assert status == 0
    printed = capsys.readouterr().out
    assert "kept 16 of 18" in printed
    assert "parse-error=1" in printed
    assert "does-not-fit=1" in printed
    body = (tmp_path / "corpus.cache.exclusions.csv").read_text()
    assert "parse-error" in body and "does-not-fit" in body
    manifest = json.loads((tmp_path / "corpus.cache.manifest.json").read_text())
    assert manifest["counts"] == {
        "kept": 16,
        "excluded": {"parse-error": 1, "does-not-fit": 1},
    }


def test_featurize_missing_label_column(tmp_path, capsys) -> None:
    csv_path = tmp_path / "corpus.csv"
    write_corpus(csv_path)
    status = main(
        ["featurize", "--in", str(csv_path), "--out", str(tmp_path / "x.cache")]
    )
    assert status == 2
    assert "HIV_active" in capsys.readouterr().err


def test_featurize_missing_input(tmp_path, capsys) -> None:
    status = main(
        [
            "featurize",
            "--in", str(tmp_path / "absent.csv"),
            "--out", str(tmp_path / "x.cache"),
        ]
    )
    assert status == 2
    assert "error" in capsys.readouterr().err


def test_featurize_deterministic_cache_bytes(tmp_path) -> None:
    csv_path = tmp_path / "corpus.csv"
    write_corpus(csv_path)
    args = ["--image-side", "20", "--label-col", "active"]
    first, second = tmp_path / "a.cache", tmp_path / "b.cache"
    assert main(["featurize", "--in", str(csv_path), "--out", str(first), *args]) == 0
    assert main(["featurize", "--in", str(csv_path), "--out", str(second), *args]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_featurize_cache_bytes_independent_of_hash_seed(tmp_path) -> None:
    # String and frozenset hashing differ between the two children, and
    # each runs two featurize workers.
    csv_path = tmp_path / "corpus.csv"
    write_corpus(csv_path, extra_rows=[f"{s},{i % 2}" for i, s in enumerate(DRUG_LIKE)])
    source_root = str(Path(cli.__file__).resolve().parents[1])
    python_path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    caches = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"seed{hash_seed}.cache"
        proc = subprocess.run(
            [sys.executable, "-m", "molcap.cli", "featurize", "--in", str(csv_path),
             "--out", str(out), "--image-side", "40", "--label-col", "active",
             "--workers", "2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": python_path, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr
        caches.append(out.read_bytes())
    assert len(read_cache(tmp_path / "seed0.cache").labels) > 16
    assert caches[0] == caches[1]


# SHA-256 of the cache the fixture's featurize call writes; a change in the
# record layout, packing or featurizer output changes it.
PINNED_CACHE_SHA256 = "c37c1cb7c0fb3b9907f6d4ed0c1c27ee75a1e9a4cc373b2048df065fdf8a90c2"
# SHA-256 of the same cache's decoded float32 images followed by its
# unpacked fingerprint bits, recorded from the cache version 1 layout
# (float32 records): the content the model sees, whatever the layout.
PINNED_CONTENT_SHA256 = "1627702ae5489402313e7637bcbe7825c80d9f9bed0a9487674110c7b6344039"


def test_featurize_cache_bytes_match_pinned_digest(cache_path) -> None:
    assert hashlib.sha256(cache_path.read_bytes()).hexdigest() == PINNED_CACHE_SHA256


def test_featurize_cache_content_matches_pinned_digest(cache_path) -> None:
    data = read_cache(cache_path)
    images = PALETTE[data.images]
    assert images.dtype == np.float32
    bits = np.unpackbits(data.fingerprints, axis=1)
    digest = hashlib.sha256(images.tobytes() + bits.tobytes()).hexdigest()
    assert digest == PINNED_CONTENT_SHA256


def test_featurize_rejects_tiny_fingerprint_width(tmp_path, capsys) -> None:
    csv_path = tmp_path / "corpus.csv"
    write_corpus(csv_path)
    out = tmp_path / "x.cache"
    status = main(
        ["featurize", "--in", str(csv_path), "--out", str(out),
         "--image-side", "20", "--label-col", "active", "--fp-bits", "4"]
    )
    assert status == 2
    assert "power of two of at least 8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--fp-bits", "65536"], "at most 32768"),
        (["--image-side", "-5"], "between 1 and 65535"),
        (["--image-side", "0"], "between 1 and 65535"),
        (["--image-side", "65536"], "between 1 and 65535"),
        (["--fp-bits", "12"], "power of two of at least 8"),
    ],
)
def test_featurize_rejects_sizes_the_cache_cannot_hold(
    tmp_path, capsys, monkeypatch, flags, message
) -> None:
    def fail(*args):
        raise AssertionError("a molecule was featurized")

    monkeypatch.setattr(dataset, "_featurize_one", fail)
    csv_path = tmp_path / "corpus.csv"
    write_corpus(csv_path)
    out = tmp_path / "x.cache"
    status = main(
        ["featurize", "--in", str(csv_path), "--out", str(out), "--label-col", "active", *flags]
    )
    assert status == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_featurize_rejects_negative_radius(tmp_path, capsys, monkeypatch) -> None:
    def fail(*args):
        raise AssertionError("a molecule was featurized")

    monkeypatch.setattr(dataset, "_featurize_one", fail)
    csv_path = tmp_path / "corpus.csv"
    write_corpus(csv_path)
    out = tmp_path / "x.cache"
    status = main(
        ["featurize", "--in", str(csv_path), "--out", str(out),
         "--image-side", "20", "--label-col", "active", "--radius", "-1"]
    )
    assert status == 2
    assert "radius must be at least 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_featurize_rejects_no_workers(tmp_path, capsys, monkeypatch, workers) -> None:
    def fail(*args):
        raise AssertionError("a molecule was featurized")

    monkeypatch.setattr(dataset, "_featurize_one", fail)
    csv_path = tmp_path / "corpus.csv"
    write_corpus(csv_path)
    out = tmp_path / "x.cache"
    status = main(
        ["featurize", "--in", str(csv_path), "--out", str(out),
         "--image-side", "20", "--label-col", "active", "--workers", workers]
    )
    assert status == 2
    assert "workers must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_keys_env_override_recorded(tmp_path, monkeypatch) -> None:
    from molcap.maccs import default_key_path

    copied = tmp_path / "keys.tsv"
    monkeypatch.delenv("MOLCAP_KEYS", raising=False)
    copied.write_text(Path(default_key_path()).read_text())
    monkeypatch.setenv("MOLCAP_KEYS", str(copied))
    csv_path = tmp_path / "corpus.csv"
    write_corpus(csv_path)
    out = tmp_path / "corpus.cache"
    status = main(
        [
            "featurize",
            "--in", str(csv_path),
            "--out", str(out),
            "--image-side", "20",
            "--label-col", "active",
        ]
    )
    assert status == 0
    manifest = json.loads((tmp_path / "corpus.cache.manifest.json").read_text())
    assert manifest["config"]["key_file"] == str(copied)


# --------------------------------------------------------------------------
# cv


def test_cv_artifacts(cache_path, tmp_path, capsys) -> None:
    out_dir = tmp_path / "run"
    assert run_cv(cache_path, out_dir) == 0
    for fold in (0, 1):
        assert (out_dir / f"fold{fold}" / "history.csv").exists()
        assert (out_dir / f"fold{fold}" / "roc.csv").exists()
        assert (out_dir / f"fold{fold}" / "model.ckpt").exists()

    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert metrics["combo"] == "image+fp+maccs"  # flagless default: all on
    assert metrics["mode"] == "cv"
    assert len(metrics["per_fold_auc"]) == 2
    assert metrics["min"] <= metrics["mean"] <= metrics["max"]

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "cv"
    assert manifest["config"]["seeds"] == {"base": 3, "folds": [3, 4]}
    assert manifest["config"]["model"]["image_side"] == 20
    assert manifest["config"]["dtype"] == "float64"
    assert len(manifest["timings"]["per_fold_seconds"]) == 2
    assert "auc mean=" in capsys.readouterr().out


def test_cv_metrics_byte_identical_across_runs(cache_path, tmp_path) -> None:
    first, second = tmp_path / "run1", tmp_path / "run2"
    assert run_cv(cache_path, first) == 0
    assert run_cv(cache_path, second) == 0
    assert (first / "metrics.json").read_bytes() == (
        second / "metrics.json"
    ).read_bytes()
    for fold in (0, 1):
        assert (first / f"fold{fold}" / "roc.csv").read_bytes() == (
            second / f"fold{fold}" / "roc.csv"
        ).read_bytes()
        assert (first / f"fold{fold}" / "model.ckpt").read_bytes() == (
            second / f"fold{fold}" / "model.ckpt"
        ).read_bytes()


def test_cv_combo_flags(cache_path, tmp_path) -> None:
    fp_dir = tmp_path / "fp_run"
    assert run_cv(cache_path, fp_dir, "--use-image", "--use-fp") == 0
    assert json.loads((fp_dir / "metrics.json").read_text())["combo"] == "image+fp"

    image_dir = tmp_path / "image_run"
    assert run_cv(cache_path, image_dir, "--use-image") == 0
    metrics = json.loads((image_dir / "metrics.json").read_text())
    assert metrics["combo"] == "image"
    manifest = json.loads((image_dir / "manifest.json").read_text())
    assert manifest["config"]["model"]["use_fingerprint"] is False
    assert manifest["config"]["model"]["use_keys"] is False


def test_cv_holdout_single_split(cache_path, tmp_path) -> None:
    out_dir = tmp_path / "holdout"
    assert run_cv(cache_path, out_dir, "--holdout") == 0
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert metrics["mode"] == "holdout"
    assert len(metrics["per_fold_auc"]) == 1
    assert (out_dir / "fold0").exists()
    assert not (out_dir / "fold1").exists()


def test_cv_fast32_mode(cache_path, tmp_path) -> None:
    out_dir = tmp_path / "fast"
    assert run_cv(cache_path, out_dir, "--fast32") == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["dtype"] == "float32"


def test_cv_fast32_byte_identical_across_runs(cache_path, tmp_path) -> None:
    first, second = tmp_path / "run1", tmp_path / "run2"
    assert run_cv(cache_path, first, "--fast32") == 0
    assert run_cv(cache_path, second, "--fast32") == 0
    names = ["metrics.json"] + [
        f"fold{fold}/{name}" for fold in (0, 1) for name in ("roc.csv", "model.ckpt")
    ]
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize("epochs, passes", [("0", 1), ("2", 2)])
def test_cv_scores_validation_once_per_epoch_at_training_batch(
    cache_path, tmp_path, monkeypatch, epochs, passes
) -> None:
    real_predict = train_module.predict_scores
    batch_sizes = []

    def recording(model, data, indices, batch_size):
        batch_sizes.append(batch_size)
        return real_predict(model, data, indices, batch_size)

    monkeypatch.setattr(train_module, "predict_scores", recording)
    # cv writes roc.csv from train's scores; a pass of its own would count too.
    monkeypatch.setattr(cli, "predict_scores", recording, raising=False)
    assert run_cv(cache_path, tmp_path / "run", "--max-epochs", epochs) == 0
    assert batch_sizes == [8] * passes * 2  # run_cv passes --batch 8, two folds


def test_cv_rejects_single_fold(cache_path, tmp_path, capsys) -> None:
    status = main(
        [
            "cv",
            "--in", str(cache_path),
            "--out", str(tmp_path / "run"),
            "--folds", "1",
        ]
    )
    assert status == 2
    assert "folds" in capsys.readouterr().err


def test_cv_rejects_negative_seed(tmp_path, capsys, monkeypatch) -> None:
    def fail(*args):
        raise AssertionError("the cache was read")

    monkeypatch.setattr(cli, "read_cache", fail)
    out = tmp_path / "run"
    status = main(["cv", "--in", str(tmp_path / "x.cache"), "--out", str(out), "--seed", "-1"])
    assert status == 2
    assert "--seed must be at least 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, message, reads",
    [
        ("--batch", "batch_size must be at least 1", 0),
        ("--blocks", "blocks_per_stage must be at least 1", 1),
    ],
)
def test_cv_rejects_bad_flags_before_making_the_run_directory(
    cache_path, tmp_path, capsys, monkeypatch, flag, message, reads
) -> None:
    real_read_cache = cli.read_cache
    read = []
    monkeypatch.setattr(cli, "read_cache", lambda path: read.append(path) or real_read_cache(path))
    out = tmp_path / "run"
    status = main(["cv", "--in", str(cache_path), "--out", str(out), flag, "0"])
    assert status == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    # A training flag is checked before the cache is read; a model flag
    # needs the cache's image side first.
    assert len(read) == reads


def test_cv_unfillable_folds_leave_no_run_directory(tmp_path, capsys) -> None:
    csv_path = tmp_path / "few.csv"
    csv_path.write_text("smiles,active\nCCO,1\nCC,0\nCCC,0\nCN,0\n")
    cache = tmp_path / "few.cache"
    featurize = ["featurize", "--in", str(csv_path), "--out", str(cache)]
    assert main([*featurize, "--image-side", "20", "--label-col", "active"]) == 0
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["cv", "--in", str(cache), "--out", str(out), "--folds", "2"]) == 2
    assert "1 positive examples cannot fill 2 folds" in capsys.readouterr().err
    assert not out.exists()


def test_cv_missing_cache(tmp_path, capsys) -> None:
    status = main(
        ["cv", "--in", str(tmp_path / "no.cache"), "--out", str(tmp_path / "run")]
    )
    assert status == 2
    assert "error" in capsys.readouterr().err


def test_cv_divergence_exits_3_keeps_partial(
    cache_path, tmp_path, capsys, monkeypatch
) -> None:
    real_train = cli.train
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise NonFiniteLossError(2, [])
        return real_train(*args, **kwargs)

    monkeypatch.setattr(cli, "train", flaky)
    out_dir = tmp_path / "run"
    status = run_cv(cache_path, out_dir)
    assert status == 3
    assert "diverged" in capsys.readouterr().err
    assert (out_dir / "fold0" / "history.csv").exists()  # completed fold kept
    assert not (out_dir / "metrics.json").exists()


# --------------------------------------------------------------------------
# report


def test_report_orders_runs_by_mean_auc(cache_path, tmp_path, capsys) -> None:
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert run_cv(cache_path, run_a) == 0
    assert run_cv(cache_path, run_b, "--use-image") == 0
    capsys.readouterr()  # drop the cv summary lines
    report_path = tmp_path / "report.csv"
    status = main(
        ["report", str(run_a), str(run_b), "--out", str(report_path)]
    )
    assert status == 0
    lines = report_path.read_text().strip().splitlines()
    header = (
        "run,combo,mean_auc,min_auc,max_auc,"
        "epochs_to_best,seconds_per_epoch,total_seconds"
    )
    assert lines[0] == header
    assert len(lines) == 3
    means = [float(line.split(",")[2]) for line in lines[1:]]
    assert means == sorted(means, reverse=True)
    combos = {line.split(",")[1] for line in lines[1:]}
    assert combos == {"image+fp+maccs", "image"}
    assert capsys.readouterr().out.startswith(header)


def test_report_single_run(cache_path, tmp_path) -> None:
    run_dir = tmp_path / "solo"
    assert run_cv(cache_path, run_dir) == 0
    report_path = tmp_path / "report.csv"
    assert main(["report", str(run_dir), "--out", str(report_path)]) == 0
    lines = report_path.read_text().strip().splitlines()
    assert len(lines) == 2
    run, combo, mean, low, high, best, per_epoch, total = lines[1].split(",")
    assert run == str(run_dir)
    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert float(mean) == metrics["mean"]
    assert float(best) >= 0
    assert float(total) >= 0


def test_report_run_read_from_another_directory(
    cache_path, tmp_path, monkeypatch, capsys
) -> None:
    monkeypatch.chdir(tmp_path)
    assert run_cv(cache_path, Path("sub") / "run") == 0
    capsys.readouterr()  # drop the cv summary line
    assert main(["report", "sub/run"]) == 0
    from_cv_dir = capsys.readouterr().out.splitlines()
    monkeypatch.chdir(tmp_path / "sub")
    assert main(["report", "run"]) == 0
    from_sub_dir = capsys.readouterr().out.splitlines()
    assert from_sub_dir[0] == from_cv_dir[0]
    assert from_sub_dir[1].split(",")[0] == "run"
    assert from_sub_dir[1].split(",")[1:] == from_cv_dir[1].split(",")[1:]


def test_report_missing_manifest(tmp_path, capsys) -> None:
    empty = tmp_path / "empty"
    empty.mkdir()
    status = main(["report", str(empty)])
    assert status == 2
    assert str(empty / "manifest.json") in capsys.readouterr().err


def test_report_missing_history(cache_path, tmp_path, capsys) -> None:
    run_dir = tmp_path / "run"
    assert run_cv(cache_path, run_dir) == 0
    (run_dir / "fold1" / "history.csv").unlink()
    status = main(["report", str(run_dir)])
    assert status == 2
    assert str(run_dir / "fold1" / "history.csv") in capsys.readouterr().err


# --------------------------------------------------------------------------
# draw


@pytest.mark.parametrize("side", ["-5", "0", "65536"])
def test_draw_rejects_bad_image_side(tmp_path, capsys, side) -> None:
    out = tmp_path / "x.pgm"
    status = main(["draw", "--smiles", "CC", "--out", str(out), "--image-side", side])
    assert status == 2
    assert "between 1 and 65535" in capsys.readouterr().err
    assert not out.exists()


def test_draw_writes_pgm(tmp_path, capsys) -> None:
    out = tmp_path / "benzene.pgm"
    status = main(["draw", "--smiles", "c1ccccc1", "--out", str(out)])
    assert status == 0
    body = out.read_bytes()
    assert body.startswith(b"P5\n60 60\n255\n")
    assert str(out) in capsys.readouterr().out


def test_draw_rejects_bad_smiles(tmp_path, capsys) -> None:
    status = main(["draw", "--smiles", "C((", "--out", str(tmp_path / "x.pgm")])
    assert status == 2
    assert "error" in capsys.readouterr().err


def test_draw_rejects_molecule_too_large(tmp_path, capsys) -> None:
    status = main(
        ["draw", "--smiles", "C" * 100, "--out", str(tmp_path / "x.pgm")]
    )
    assert status == 2
    assert "error" in capsys.readouterr().err


# --------------------------------------------------------------------------
# dispatch


def test_usage_errors_exit_2() -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(["featurize", "--out", "somewhere.cache"])  # --in required
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["unknown-command"])
    assert excinfo.value.code == 2


def test_module_execution_smoke(tmp_path) -> None:
    out = tmp_path / "ethane.pgm"
    # Bare pytest puts src/ on sys.path only; the child needs it too.
    source_root = str(Path(cli.__file__).resolve().parents[1])
    python_path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": python_path}
    proc = subprocess.run(
        [sys.executable, "-m", "molcap.cli", "draw", "--smiles", "CC", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert out.exists()


def test_cli_import_loads_no_pool_module() -> None:
    # Process and thread pools load on first use, so a command that
    # never starts one does not pay their imports at start-up.
    source_root = str(Path(cli.__file__).resolve().parents[1])
    python_path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, molcap.cli; "
         "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": python_path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
