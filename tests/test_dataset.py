"""Tests for corpus loading, featurization, balancing, splits, and cache."""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

import molcap.imaging
from molcap import dataset
from molcap.dataset import (
    CachedDataset,
    CaptionedExample,
    LabeledMolecule,
    arrays_from_examples,
    augment_image,
    corpus_digest,
    featurize_dataset,
    load_csv,
    read_cache,
    stratified_kfold,
    upsample_minority,
    write_cache,
    write_exclusion_csv,
)
from molcap.errors import (
    CacheError,
    ConfigError,
    EmptyFileError,
    LayoutFailureError,
    MissingColumnError,
    SingleClassError,
    TooFewExamplesError,
)
from molcap.imaging import ChemImage

from util import random_smiles


class FixedRng:
    """Stub with the Generator.integers signature, replaying a queue."""

    def __init__(self, values):
        self.values = list(values)

    def integers(self, low, high=None):
        return self.values.pop(0)


def write_corpus(path, rows, header="smiles,HIV_active"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


# --------------------------------------------------------------------------
# load_csv


def test_load_well_formed(tmp_path) -> None:
    path = tmp_path / "corpus.csv"
    write_corpus(path, ["C,0", "CCO,1", "c1ccccc1,0"])
    molecules, rejects = load_csv(path)
    assert molecules == [
        LabeledMolecule("C", 0),
        LabeledMolecule("CCO", 1),
        LabeledMolecule("c1ccccc1", 0),
    ]
    assert rejects == []


def test_load_custom_columns(tmp_path) -> None:
    path = tmp_path / "corpus.csv"
    path.write_text("structure,active,extra\nCC,1,x\nCCC,0,y\n")
    molecules, rejects = load_csv(path, smiles_column="structure", label_column="active")
    assert [m.smiles for m in molecules] == ["CC", "CCC"]
    assert [m.label for m in molecules] == [1, 0]
    assert rejects == []


def test_load_rejects_non_binary_label(tmp_path) -> None:
    path = tmp_path / "corpus.csv"
    write_corpus(path, ["C,0", "CC,2", "CCC,1"])
    molecules, rejects = load_csv(path)
    assert len(molecules) == 2
    assert len(rejects) == 1
    assert rejects[0].smiles == "CC"
    assert rejects[0].reason == "non-binary-label"
    assert rejects[0].line == 3


def test_load_rejects_blank_smiles(tmp_path) -> None:
    path = tmp_path / "corpus.csv"
    write_corpus(path, ["C,0", ",1"])
    molecules, rejects = load_csv(path)
    assert len(molecules) == 1
    assert rejects[0].reason == "empty-smiles"


def test_load_missing_column(tmp_path) -> None:
    path = tmp_path / "corpus.csv"
    path.write_text("smiles,activity\nC,0\n")
    with pytest.raises(MissingColumnError) as excinfo:
        load_csv(path)
    assert excinfo.value.name == "HIV_active"


def test_load_empty_file(tmp_path) -> None:
    path = tmp_path / "corpus.csv"
    path.write_text("")
    with pytest.raises(EmptyFileError):
        load_csv(path)


def test_load_header_only(tmp_path) -> None:
    path = tmp_path / "corpus.csv"
    path.write_text("smiles,HIV_active\n")
    with pytest.raises(EmptyFileError):
        load_csv(path)


# --------------------------------------------------------------------------
# featurize_dataset


def test_featurize_small_corpus() -> None:
    molecules = [LabeledMolecule("C", 0), LabeledMolecule("CCO", 1)]
    examples, report = featurize_dataset(molecules)
    assert len(examples) == 2
    assert len(report) == 0
    assert examples[0].label == 0 and examples[1].label == 1
    for example in examples:
        assert example.image.side == 60
        assert example.fingerprint.nbits == 2048
        assert len(example.keys.bits) == 167


def test_featurize_excludes_oversized_molecule() -> None:
    molecules = [
        LabeledMolecule("CCO", 1),
        LabeledMolecule("C" * 100, 0),
        LabeledMolecule("CC", 0),
    ]
    examples, report = featurize_dataset(molecules)
    assert len(examples) == 2
    assert report.entries == ((1, "C" * 100, "does-not-fit"),)
    assert report.counts == {"does-not-fit": 1}


def test_featurize_excludes_unparseable() -> None:
    molecules = [LabeledMolecule("C(", 0), LabeledMolecule("CC", 1)]
    examples, report = featurize_dataset(molecules)
    assert len(examples) == 1
    assert report.entries[0] == (0, "C(", "parse-error")


def test_featurize_maps_layout_failure(monkeypatch) -> None:
    def failing_layout(graph, relaxed=None):
        raise LayoutFailureError("forced")

    monkeypatch.setattr(dataset, "layout_2d", failing_layout)
    examples, report = featurize_dataset([LabeledMolecule("CC", 0)])
    assert examples == []
    assert report.entries[0][2] == "layout-failure"


def test_featurize_preserves_order() -> None:
    molecules = [
        LabeledMolecule(smiles, i % 2)
        for i, smiles in enumerate(["C", "CC", "CCO", "c1ccccc1", "CCN"])
    ]
    examples, report = featurize_dataset(molecules)
    assert len(report) == 0
    assert [e.label for e in examples] == [0, 1, 0, 1, 0]
    assert [e.fingerprint.popcount() for e in examples] == [
        featurize_dataset([m])[0][0].fingerprint.popcount() for m in molecules
    ]


def test_featurize_shuffle_gives_permutation() -> None:
    smiles = ["C", "CC", "CCO", "c1ccccc1", "CCN", "CC(=O)O", "c1ccncc1"]
    molecules = [LabeledMolecule(s, i % 2) for i, s in enumerate(smiles)]
    shuffled = molecules[::-1]
    base, _ = featurize_dataset(molecules)
    other, _ = featurize_dataset(shuffled)
    key = lambda e: (e.fingerprint.to_hex(), e.label)
    assert sorted(map(key, base)) == sorted(map(key, other))


def test_featurize_parallel_matches_sequential() -> None:
    molecules = [
        LabeledMolecule(s, i % 2)
        for i, s in enumerate(["C", "CCO", "c1ccccc1", "CC(C)C", "C" * 100, "N"])
    ]
    seq_examples, seq_report = featurize_dataset(molecules, workers=1)
    par_examples, par_report = featurize_dataset(molecules, workers=2)
    assert seq_report.entries == par_report.entries
    assert len(seq_examples) == len(par_examples)
    for a, b in zip(seq_examples, par_examples):
        assert np.array_equal(a.image.pixels, b.image.pixels)
        assert a.fingerprint == b.fingerprint
        assert a.keys == b.keys
        assert a.label == b.label


def test_featurize_parallel_matches_sequential_through_the_relax() -> None:
    # Ring-rich molecules and quinine reach the batched relax, and two
    # workers cut the corpus into other chunks than one worker does.
    rng = random.Random(11)
    smiles = [random_smiles(rng, max_atoms=25, ring_bias=0.7) for _ in range(80)]
    smiles.append("COc1ccc2nccc(C(O)C3CC4CCN3CC4C=C)c2c1")
    molecules = [LabeledMolecule(s, i % 2) for i, s in enumerate(smiles)]
    seq_examples, seq_report = featurize_dataset(molecules, workers=1)
    par_examples, par_report = featurize_dataset(molecules, workers=2)
    assert seq_report.entries == par_report.entries
    assert seq_report.counts["layout-failure"] >= 10
    assert len(seq_examples) == len(par_examples)
    for a, b in zip(seq_examples, par_examples):
        assert a.image.pixels.tobytes() == b.image.pixels.tobytes()
        assert a.fingerprint == b.fingerprint
        assert a.keys == b.keys
        assert a.label == b.label


def test_featurize_builds_each_bond_table_once(monkeypatch) -> None:
    # One relax path checks each parsed molecule once, so its bond table
    # is built once, whether it is drawn, relaxed or fails its layout.
    rng = random.Random(11)
    smiles = [random_smiles(rng, max_atoms=25, ring_bias=0.7) for _ in range(40)]
    smiles += ["C(", "C1CC2CCC1C2", "CCO"]
    calls: list[int] = []
    original = molcap.imaging._local_bonds

    def counting(graph, indices):
        calls.append(len(indices))
        return original(graph, indices)

    monkeypatch.setattr(molcap.imaging, "_local_bonds", counting)
    examples, report = featurize_dataset([LabeledMolecule(s, 0) for s in smiles])
    assert report.counts["parse-error"] == 1
    assert report.counts["layout-failure"] >= 2
    assert len(calls) == len(smiles) - 1


def test_featurize_pool_never_larger_than_corpus(monkeypatch) -> None:
    requested: list[int] = []

    class RecordingPool:
        """Stands in for multiprocessing.Pool: records the process count
        and runs the work inline."""

        def __init__(self, processes, initializer, initargs) -> None:
            requested.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc) -> None:
            pass

        def map(self, fn, items, chunksize=1):
            return [fn(item) for item in items]

    monkeypatch.setattr(dataset, "_WORKER_STATE", {})
    monkeypatch.setattr(dataset.multiprocessing, "Pool", RecordingPool)
    molecules = [LabeledMolecule("CCO", 1), LabeledMolecule("CC", 0)]
    examples, _ = featurize_dataset(molecules, side=20, workers=8)
    assert requested == [2]
    assert len(examples) == 2
    # One molecule runs inline, with no pool at all.
    featurize_dataset(molecules[:1], side=20, workers=8)
    assert requested == [2]


def test_featurize_custom_side() -> None:
    examples, _ = featurize_dataset([LabeledMolecule("CCO", 1)], side=40)
    assert examples[0].image.side == 40
    assert examples[0].image.pixels.shape == (40, 40)


def test_write_exclusion_csv(tmp_path) -> None:
    molecules = [LabeledMolecule("C(", 0), LabeledMolecule("C" * 100, 1)]
    _, report = featurize_dataset(molecules)
    out = tmp_path / "excluded.csv"
    write_exclusion_csv(report, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "smiles,reason"
    assert lines[1] == "C(,parse-error"
    assert lines[2].endswith(",does-not-fit")


# --------------------------------------------------------------------------
# upsample_minority


def test_upsample_balances_counts() -> None:
    labels = [0] * 10 + [1] * 2
    result = upsample_minority(range(12), labels, seed=3)
    assert len(result) == 20
    counts = Counter(labels[i] for i in result)
    assert counts[0] == counts[1] == 10
    assert result[:12] == list(range(12))
    assert set(result[12:]) <= {10, 11}


def test_upsample_balanced_input_unchanged() -> None:
    labels = [0, 1, 0, 1]
    assert upsample_minority(range(4), labels, seed=9) == [0, 1, 2, 3]


def test_upsample_leaves_distinct_set_unchanged() -> None:
    labels = [1] * 3 + [0] * 30
    result = upsample_minority(range(33), labels, seed=5)
    assert set(result) == set(range(33))


def test_upsample_deterministic() -> None:
    labels = [0] * 30 + [1] * 5
    a = upsample_minority(range(35), labels, seed=11)
    b = upsample_minority(range(35), labels, seed=11)
    c = upsample_minority(range(35), labels, seed=12)
    assert a == b
    assert a != c


def test_upsample_on_fold_subset() -> None:
    labels = [0, 0, 0, 0, 1, 1, 0, 0, 1, 0]
    subset = [0, 1, 2, 3, 4, 8]  # 4 negatives, 2 positives
    result = upsample_minority(subset, labels, seed=2)
    assert result[:6] == subset
    assert len(result) == 8
    assert all(labels[i] == 1 for i in result[6:])


def test_upsample_majority_can_be_positive() -> None:
    labels = [1] * 8 + [0] * 2
    result = upsample_minority(range(10), labels, seed=0)
    counts = Counter(labels[i] for i in result)
    assert counts[0] == counts[1] == 8
    assert all(labels[i] == 0 for i in result[10:])


def test_upsample_single_class_rejected() -> None:
    with pytest.raises(SingleClassError):
        upsample_minority(range(4), [1, 1, 1, 1], seed=0)


# --------------------------------------------------------------------------
# stratified_kfold


def test_kfold_even_split() -> None:
    labels = [1] * 20 + [0] * 80
    split = stratified_kfold(labels, k=5, seed=7)
    assert len(split.folds) == 5
    assert split.seed == 7
    for fold in split.folds:
        assert len(fold) == 20
        assert sum(labels[i] for i in fold) == 4


def test_kfold_partitions_everything() -> None:
    labels = [i % 3 == 0 for i in range(50)]
    split = stratified_kfold(labels, k=5, seed=1)
    combined = sorted(i for fold in split.folds for i in fold)
    assert combined == list(range(50))


def test_kfold_two_by_two() -> None:
    split = stratified_kfold([1, 1, 0, 0], k=2, seed=0)
    for fold in split.folds:
        assert len(fold) == 2
        assert sum(1 for i in fold if i in (0, 1)) == 1


def test_kfold_deterministic() -> None:
    labels = [i % 4 == 0 for i in range(60)]
    assert stratified_kfold(labels, 5, seed=3) == stratified_kfold(labels, 5, seed=3)
    assert stratified_kfold(labels, 5, seed=3) != stratified_kfold(labels, 5, seed=4)


def test_kfold_stratification_within_one_example() -> None:
    rng = random.Random(88)
    for _ in range(20):
        n = rng.randint(25, 200)
        n_pos = rng.randint(5, n - 5)
        labels = [1] * n_pos + [0] * (n - n_pos)
        rng.shuffle(labels)
        split = stratified_kfold(labels, k=5, seed=rng.randint(0, 99))
        fraction = n_pos / n
        for fold in split.folds:
            fold_pos = sum(labels[i] for i in fold)
            assert abs(fold_pos - len(fold) * fraction) <= 1.0


def test_kfold_too_few_examples() -> None:
    with pytest.raises(TooFewExamplesError):
        stratified_kfold([1, 1, 1] + [0] * 20, k=5)
    with pytest.raises(TooFewExamplesError):
        stratified_kfold([0, 0, 0] + [1] * 20, k=5)


def test_kfold_rejects_k_below_two() -> None:
    with pytest.raises(ConfigError):
        stratified_kfold([0, 1] * 10, k=1)


def test_train_indices_complement() -> None:
    labels = [i % 5 == 0 for i in range(40)]
    split = stratified_kfold(labels, k=4, seed=6)
    for fold_index, fold in enumerate(split.folds):
        train = split.train_indices(fold_index)
        assert set(train) & set(fold) == set()
        assert sorted(set(train) | set(fold)) == list(range(40))
        assert train == sorted(train)


# --------------------------------------------------------------------------
# augment_image


def _image_with_pixel(row: int, col: int, value: float = 0.5) -> ChemImage:
    pixels = np.zeros((60, 60), dtype=np.float32)
    pixels[row, col] = value
    return ChemImage(pixels=pixels, side=60)


def test_augment_identity_draw() -> None:
    image = _image_with_pixel(10, 20)
    out = augment_image(image, FixedRng([0, 0, 0]))
    assert np.array_equal(out.pixels, image.pixels)
    assert out.pixels is not image.pixels


def test_augment_translation_moves_content() -> None:
    image = _image_with_pixel(10, 20)
    out = augment_image(image, FixedRng([0, 3, -2]))  # dx=+3 cols, dy=-2 rows
    assert out.pixels[8, 23] == 0.5
    assert (out.pixels > 0).sum() == 1


def test_augment_rotation_matches_rot90() -> None:
    rng = np.random.default_rng(5)
    pixels = rng.random((60, 60)).astype(np.float32)
    image = ChemImage(pixels=pixels, side=60)
    out = augment_image(image, FixedRng([1, 0, 0]))
    assert np.array_equal(out.pixels, np.rot90(pixels, 1))


def test_augment_never_gains_pixels() -> None:
    image = _image_with_pixel(0, 0)  # corner content gets pushed out
    base = (image.pixels > 0).sum()
    out = augment_image(image, FixedRng([0, -5, -5]))
    assert (out.pixels > 0).sum() == 0
    for k in range(4):
        for dx in (-5, 0, 5):
            for dy in (-5, 0, 5):
                shifted = augment_image(image, FixedRng([k, dx, dy]))
                assert (shifted.pixels > 0).sum() <= base


def test_augment_centered_content_count_preserved() -> None:
    from molcap.imaging import render_molecule
    from molcap.smiles import parse_smiles

    image = render_molecule(parse_smiles("c1ccccc1"))
    base = (image.pixels > 0).sum()
    rng = np.random.default_rng(123)
    for _ in range(25):
        out = augment_image(image, rng)
        assert (out.pixels > 0).sum() == base  # content stays >5 px from edge


def test_augment_deterministic_given_seed() -> None:
    image = _image_with_pixel(30, 30)
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    for _ in range(10):
        x = augment_image(image, rng1)
        y = augment_image(image, rng2)
        assert np.array_equal(x.pixels, y.pixels)


def test_augment_draw_ranges() -> None:
    image = _image_with_pixel(30, 30)
    rng = np.random.default_rng(99)
    seen_k = set()
    positions = set()
    for _ in range(300):
        out = augment_image(image, rng)
        nz = np.argwhere(out.pixels > 0)
        assert len(nz) == 1
        row, col = map(int, nz[0])
        assert 24 <= row <= 36 and 24 <= col <= 36  # rot about center +/-1, shift <=5
        positions.add((row, col))
    assert len(positions) > 50


# --------------------------------------------------------------------------
# cache


@pytest.fixture(scope="module")
def small_examples():
    molecules = [
        LabeledMolecule("C", 0),
        LabeledMolecule("CCO", 1),
        LabeledMolecule("c1ccccc1", 1),
    ]
    examples, report = featurize_dataset(molecules)
    assert len(report) == 0
    return molecules, examples


def test_cache_roundtrip(tmp_path, small_examples) -> None:
    molecules, examples = small_examples
    digest = corpus_digest(molecules)
    path = tmp_path / "data.bin"
    write_cache(path, examples, digest)
    loaded = read_cache(path, expected_hash=digest)
    assert isinstance(loaded, CachedDataset)
    assert loaded.corpus_hash == digest
    assert loaded.featurizer_version == 1
    assert loaded.side == 60
    assert np.array_equal(loaded.labels, [0, 1, 1])
    for i, example in enumerate(examples):
        assert np.array_equal(loaded.images[i], example.image.pixels)
        assert np.array_equal(loaded.fingerprints[i], example.fingerprint.to_array())
        assert np.array_equal(loaded.keys[i], example.keys.to_array())


def test_cache_matches_in_memory_stacking(tmp_path, small_examples) -> None:
    molecules, examples = small_examples
    path = tmp_path / "data.bin"
    write_cache(path, examples, corpus_digest(molecules))
    loaded = read_cache(path)
    stacked = arrays_from_examples(examples)
    assert np.array_equal(loaded.images, stacked.images)
    assert np.array_equal(loaded.fingerprints, stacked.fingerprints)
    assert np.array_equal(loaded.keys, stacked.keys)
    assert np.array_equal(loaded.labels, stacked.labels)


def test_cache_hash_mismatch(tmp_path, small_examples) -> None:
    molecules, examples = small_examples
    path = tmp_path / "data.bin"
    write_cache(path, examples, corpus_digest(molecules))
    with pytest.raises(CacheError):
        read_cache(path, expected_hash="00" * 32)


def test_cache_bad_magic(tmp_path, small_examples) -> None:
    _, examples = small_examples
    path = tmp_path / "data.bin"
    write_cache(path, examples, "11" * 32)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheError):
        read_cache(path)


def test_cache_truncated(tmp_path, small_examples) -> None:
    _, examples = small_examples
    path = tmp_path / "data.bin"
    write_cache(path, examples, "11" * 32)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(CacheError):
        read_cache(path)


def test_cache_rejects_empty(tmp_path) -> None:
    with pytest.raises(CacheError):
        write_cache(tmp_path / "empty.bin", [], "00" * 32)


def test_cache_rejects_mixed_sizes_before_opening(tmp_path, small_examples) -> None:
    _, examples = small_examples
    (small,), _ = featurize_dataset([LabeledMolecule("CCO", 1)], side=20)
    path = tmp_path / "data.bin"
    with pytest.raises(CacheError, match="disagree on image or fingerprint size"):
        write_cache(path, [small, *examples], "11" * 32)
    assert not path.exists()


@pytest.mark.parametrize(
    "at, patch",
    [
        (4, b"\x02\x00"),  # cache version
        (6, b"\x02\x00"),  # featurizer version
        (18, b"\x07\x08"),  # fingerprint width 2055, same body length
        (20, b"\xa1\x00"),  # 161 keys, same body length
        (None, b"\x00"),  # one byte past the last record
    ],
)
def test_cache_rejects_bad_header_or_long_body(
    tmp_path, small_examples, at, patch
) -> None:
    _, examples = small_examples
    path = tmp_path / "data.bin"
    write_cache(path, examples, "11" * 32)
    raw = bytearray(path.read_bytes())
    if at is None:
        raw += patch
    else:
        raw[at : at + len(patch)] = patch
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheError):
        read_cache(path)


def test_cache_rejects_image_side_zero(tmp_path, small_examples) -> None:
    # A header side of 0 with a body sized for it used to load as
    # (n, 0, 0) images; featurize never writes that side.
    _, examples = small_examples
    path = tmp_path / "data.bin"
    write_cache(path, examples, "11" * 32)
    header = bytearray(path.read_bytes()[: dataset._HEADER.size])
    header[16:18] = b"\x00\x00"
    body = bytes(len(examples) * dataset._record_dtype(0, 2048).itemsize)
    path.write_bytes(bytes(header) + body)
    with pytest.raises(CacheError, match="image side"):
        read_cache(path)


def test_corpus_digest_properties() -> None:
    a = [LabeledMolecule("C", 0), LabeledMolecule("CC", 1)]
    b = [LabeledMolecule("CC", 1), LabeledMolecule("C", 0)]
    c = [LabeledMolecule("C", 1), LabeledMolecule("CC", 1)]
    da, db, dc = corpus_digest(a), corpus_digest(b), corpus_digest(c)
    assert len(da) == 64 and set(da) <= set("0123456789abcdef")
    assert da == corpus_digest(list(a))
    assert da != db  # order matters
    assert da != dc  # labels matter
