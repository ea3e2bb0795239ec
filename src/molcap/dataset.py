"""Corpus ingestion, featurization, balancing, splitting, and augmentation.

The pipeline reads a labeled SMILES CSV, turns every parseable molecule
into a captioned example (60x60 raster + 2,048-bit fingerprint + 167-bit
key vector), and prepares the index bookkeeping for balanced, stratified
cross-validation.  Molecules that fail to parse, lay out, or fit on the
grid become exclusion-report rows rather than errors.

Class balancing duplicates minority examples (sampling with
replacement); it is meant to run inside the training portion of each
fold so validation folds never contain duplicates.  Featurized corpora
round-trip through a versioned binary cache so repeated training runs
skip the featurization cost.
"""

from __future__ import annotations

import csv
import hashlib
import math
import multiprocessing
import random
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    CacheError,
    ConfigError,
    DoesNotFitError,
    EmptyFileError,
    LayoutFailureError,
    MissingColumnError,
    SingleClassError,
    SmilesError,
    TooFewExamplesError,
)
from .fingerprints import (
    DEFAULT_NBITS,
    DEFAULT_RADIUS,
    Fingerprint,
    check_fingerprint_width,
    morgan_fingerprint,
)
from .imaging import DEFAULT_SIDE, ChemImage, layout_2d, place_atoms, rasterize, relax_layouts
from .maccs import N_KEYS, KeyDefinition, KeyVector, evaluate_keys, load_key_definitions
from .smiles import MolecularGraph, parse_smiles

__all__ = [
    "LabeledMolecule",
    "CsvReject",
    "CaptionedExample",
    "ExclusionReport",
    "DatasetSplit",
    "CachedDataset",
    "FEATURIZER_VERSION",
    "load_csv",
    "check_image_side",
    "featurize_dataset",
    "upsample_minority",
    "stratified_kfold",
    "augment_image",
    "write_exclusion_csv",
    "corpus_digest",
    "arrays_from_examples",
    "write_cache",
    "read_cache",
]

#: Bumped whenever any featurizer output changes; stored in cache headers.
FEATURIZER_VERSION = 1

REASON_PARSE = "parse-error"
REASON_LAYOUT = "layout-failure"
REASON_FIT = "does-not-fit"

_CACHE_MAGIC = b"MCAP"
_CACHE_VERSION = 1
_HEADER = struct.Struct("<4sHHQHHH32s")
# The header keeps the image side and fingerprint width as uint16.
_MAX_SIDE = 0xFFFF
_MAX_FP_BITS = 1 << 15


@dataclass(frozen=True)
class LabeledMolecule:
    """One corpus row: a SMILES string and its binary activity label."""

    smiles: str
    label: int


@dataclass(frozen=True)
class CsvReject:
    """A CSV data row that could not become a LabeledMolecule."""

    line: int
    smiles: str
    reason: str


@dataclass(frozen=True)
class CaptionedExample:
    """All three featurizations of one molecule plus its label."""

    image: ChemImage
    fingerprint: Fingerprint
    keys: KeyVector
    label: int


@dataclass(frozen=True)
class ExclusionReport:
    """Molecules dropped during featurization, with the reason for each."""

    entries: tuple[tuple[int, str, str], ...]

    @property
    def counts(self) -> dict[str, int]:
        return dict(Counter(reason for _, _, reason in self.entries))

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class DatasetSplit:
    """A k-way partition of example indices, stratified by label."""

    folds: tuple[tuple[int, ...], ...]
    seed: int

    def train_indices(self, fold: int) -> list[int]:
        """All indices outside the given validation fold, ascending."""
        held_out = set(self.folds[fold])
        return sorted(
            i for part in self.folds for i in part if i not in held_out
        )


@dataclass(frozen=True)
class CachedDataset:
    """Featurized corpus unpacked into training-ready arrays."""

    images: np.ndarray
    fingerprints: np.ndarray
    keys: np.ndarray
    labels: np.ndarray
    corpus_hash: str
    featurizer_version: int
    side: int


# --------------------------------------------------------------------------
# CSV ingestion


def load_csv(
    path: str | Path,
    smiles_column: str = "smiles",
    label_column: str = "HIV_active",
) -> tuple[list[LabeledMolecule], list[CsvReject]]:
    """Read a labeled SMILES corpus.

    Args:
        path: Comma-separated file with a header row.
        smiles_column: Name of the SMILES column.
        label_column: Name of the binary label column.

    Returns:
        (molecules, rejects): one molecule per well-formed data row;
        rows with a blank SMILES or a non-binary label are returned as
        rejects instead of raising.

    Raises:
        EmptyFileError: No header or no data rows at all.
        MissingColumnError: The header lacks a required column.
    """
    molecules: list[LabeledMolecule] = []
    rejects: list[CsvReject] = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise EmptyFileError(f"{path}: no header row")
        for name in (smiles_column, label_column):
            if name not in reader.fieldnames:
                raise MissingColumnError(name)
        rows = 0
        for row in reader:
            rows += 1
            smiles = (row.get(smiles_column) or "").strip()
            label_text = (row.get(label_column) or "").strip()
            if not smiles:
                rejects.append(CsvReject(reader.line_num, smiles, "empty-smiles"))
            elif label_text not in ("0", "1"):
                rejects.append(
                    CsvReject(reader.line_num, smiles, "non-binary-label")
                )
            else:
                molecules.append(LabeledMolecule(smiles, int(label_text)))
        if rows == 0:
            raise EmptyFileError(f"{path}: header but no data rows")
    return molecules, rejects


# --------------------------------------------------------------------------
# Featurization

_WORKER_STATE: dict = {}

# Molecules featurized together inline; the relax runs once per chunk.
_CHUNK = 256


def _featurize_chunk(
    molecules: Sequence[LabeledMolecule],
    side: int,
    radius: int,
    nbits: int,
    definitions: list[KeyDefinition],
) -> list[CaptionedExample | str]:
    """Per molecule, an example or the exclusion reason string.

    Every parsed molecule is placed, one batched pass checks and relaxes
    all placements, and each molecule then goes through :func:`layout_2d`
    (which raises for a placement the relax left NaN), raster,
    fingerprint and keys.
    """
    results: list[CaptionedExample | str] = [REASON_PARSE] * len(molecules)
    parsed = []
    for index, molecule in enumerate(molecules):
        try:
            parsed.append((index, parse_smiles(molecule.smiles)))
        except SmilesError:
            pass
    placements = [place_atoms(graph) for _, graph in parsed]
    relax_layouts([graph for _, graph in parsed], placements)
    for (index, graph), positions in zip(parsed, placements):
        results[index] = _featurize_one(
            molecules[index], graph, positions, side, radius, nbits, definitions
        )
    return results


def _featurize_one(
    molecule: LabeledMolecule,
    graph: MolecularGraph,
    positions: np.ndarray,
    side: int,
    radius: int,
    nbits: int,
    definitions: list[KeyDefinition],
) -> CaptionedExample | str:
    """One parsed and relaxed molecule to an example, or the exclusion reason."""
    try:
        layout = layout_2d(graph, positions)
    except LayoutFailureError:
        return REASON_LAYOUT
    try:
        image = rasterize(graph, layout, side=side)
    except DoesNotFitError:
        return REASON_FIT
    return CaptionedExample(
        image=image,
        fingerprint=morgan_fingerprint(graph, radius=radius, nbits=nbits),
        keys=evaluate_keys(graph, definitions),
        label=molecule.label,
    )


def _init_worker(side: int, radius: int, nbits: int, definitions) -> None:
    _WORKER_STATE["args"] = (side, radius, nbits, definitions)


def _worker_featurize(molecules: Sequence[LabeledMolecule]) -> list[CaptionedExample | str]:
    return _featurize_chunk(molecules, *_WORKER_STATE["args"])


def check_image_side(side: int) -> None:
    """Raise ConfigError unless a cache can record this raster side."""
    if not 1 <= side <= _MAX_SIDE:
        raise ConfigError(f"image side must be between 1 and {_MAX_SIDE}, got {side}")


def _check_cache_width(nbits: int) -> None:
    """Raise ConfigError unless a cache can record this fingerprint width."""
    check_fingerprint_width(nbits)
    if nbits > _MAX_FP_BITS:
        raise ConfigError(f"fingerprint width must be at most {_MAX_FP_BITS}, got {nbits}")


def featurize_dataset(
    molecules: Sequence[LabeledMolecule],
    side: int = DEFAULT_SIDE,
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
    definitions: list[KeyDefinition] | None = None,
    workers: int = 1,
) -> tuple[list[CaptionedExample], ExclusionReport]:
    """Featurize a corpus, excluding molecules that cannot be drawn.

    Molecules go through in chunks of at most 256; with several workers
    each pool task is one chunk of at most ceil(n / workers) molecules.
    A chunk parses and places every molecule, checks and relaxes all
    placements in one batched pass (size buckets of padded coordinates,
    each molecule with its own exits), then wraps each result with
    :func:`layout_2d`, which raises for a placement the relax could not
    repair, and draws, fingerprints and keys it.  Every output byte is
    the same for any chunking and worker count.

    Args:
        molecules: Loaded corpus, order preserved in the output.
        side: Raster grid size in pixels.
        radius: Fingerprint circular radius.
        nbits: Fingerprint width.
        definitions: Key definitions; loaded from the default file when
            omitted.
        workers: Process count for parallel featurization, at least 1
            and capped at the corpus size; 1 runs inline.

    Returns:
        (examples, report): surviving examples in input order, plus one
        report entry (input index, smiles, reason) per exclusion.

    Raises:
        ConfigError: A side the cache cannot record, a width that is not
            a power of two from 8 to 32768, a negative radius or no
            worker; raised before any molecule is processed.
    """
    check_image_side(side)
    if radius < 0:
        raise ConfigError(f"fingerprint radius must be at least 0, got {radius}")
    _check_cache_width(nbits)
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    if definitions is None:
        definitions = load_key_definitions()
    workers = min(workers, len(molecules))
    size = min(_CHUNK, math.ceil(len(molecules) / workers)) if molecules else 1
    chunks = [molecules[i : i + size] for i in range(0, len(molecules), size)]
    if workers > 1:
        with multiprocessing.Pool(
            workers,
            initializer=_init_worker,
            initargs=(side, radius, nbits, definitions),
        ) as pool:
            parts = pool.map(_worker_featurize, chunks, chunksize=1)
    else:
        parts = [_featurize_chunk(c, side, radius, nbits, definitions) for c in chunks]
    results = [result for part in parts for result in part]

    examples: list[CaptionedExample] = []
    excluded: list[tuple[int, str, str]] = []
    for index, (molecule, result) in enumerate(zip(molecules, results)):
        if isinstance(result, str):
            excluded.append((index, molecule.smiles, result))
        else:
            examples.append(result)
    return examples, ExclusionReport(entries=tuple(excluded))


def write_exclusion_csv(report: ExclusionReport, path: str | Path) -> None:
    """Write the exclusion report as CSV with columns smiles, reason."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["smiles", "reason"])
        for _, smiles, reason in report.entries:
            writer.writerow([smiles, reason])


# --------------------------------------------------------------------------
# Balancing and splitting


def upsample_minority(
    indices: Sequence[int], labels: Sequence[int], seed: int
) -> list[int]:
    """Balance classes by duplicating minority-class indices.

    Args:
        indices: The example indices to balance (e.g. one training
            fold), kept verbatim at the front of the result.
        labels: Label lookup for the whole dataset, indexed by entries
            of ``indices``.
        seed: Sampling seed.

    Returns:
        ``list(indices)`` followed by minority indices drawn with
        replacement until both classes have equal counts.  Balanced
        input comes back unchanged.

    Raises:
        SingleClassError: The given indices cover only one class.
    """
    positives = [i for i in indices if labels[i]]
    negatives = [i for i in indices if not labels[i]]
    if not positives or not negatives:
        raise SingleClassError(
            f"{len(positives)} positives and {len(negatives)} negatives"
        )
    minority, majority = sorted((positives, negatives), key=len)
    rng = random.Random(seed)
    extras = [rng.choice(minority) for _ in range(len(majority) - len(minority))]
    return list(indices) + extras


def stratified_kfold(
    labels: Sequence[int], k: int = 5, seed: int = 0
) -> DatasetSplit:
    """Partition indices into k folds with near-equal class fractions.

    Shuffles each class separately with the seed, then deals members
    round-robin, so per-fold class counts differ by at most one.

    Args:
        labels: Binary label per example.
        k: Fold count, at least 2.
        seed: Shuffle seed.

    Returns:
        DatasetSplit whose folds partition range(len(labels)).

    Raises:
        ConfigError: k < 2.
        TooFewExamplesError: Either class has fewer than k members.
    """
    if k < 2:
        raise ConfigError(f"need at least 2 folds, got {k}")
    positives = [i for i, label in enumerate(labels) if label]
    negatives = [i for i, label in enumerate(labels) if not label]
    for name, members in (("positive", positives), ("negative", negatives)):
        if len(members) < k:
            raise TooFewExamplesError(
                f"{len(members)} {name} examples cannot fill {k} folds"
            )
    rng = random.Random(seed)
    rng.shuffle(positives)
    rng.shuffle(negatives)
    folds = tuple(
        tuple(sorted(positives[i::k] + negatives[i::k])) for i in range(k)
    )
    return DatasetSplit(folds=folds, seed=seed)


# --------------------------------------------------------------------------
# Augmentation


def augment_image(image: ChemImage, rng: np.random.Generator) -> ChemImage:
    """Random quarter-turn rotation plus small zero-padded translation.

    Draws, in order: quarter turns k from {0,1,2,3}, column shift dx
    from [-5, 5], row shift dy from [-5, 5].  Content shifted past the
    border is dropped; vacated pixels are zero.

    Args:
        image: Source image, not modified.
        rng: Generator; the three draws advance its state.

    Returns:
        New ChemImage of the same size.
    """
    k = int(rng.integers(4))
    dx = int(rng.integers(-5, 6))
    dy = int(rng.integers(-5, 6))
    pixels = np.rot90(image.pixels, k=k)
    shifted = np.zeros_like(pixels)
    side = image.side
    src_rows = slice(max(0, -dy), side - max(0, dy))
    dst_rows = slice(max(0, dy), side - max(0, -dy))
    src_cols = slice(max(0, -dx), side - max(0, dx))
    dst_cols = slice(max(0, dx), side - max(0, -dx))
    shifted[dst_rows, dst_cols] = pixels[src_rows, src_cols]
    return ChemImage(pixels=shifted, side=side)


# --------------------------------------------------------------------------
# Binary cache


def corpus_digest(molecules: Sequence[LabeledMolecule]) -> str:
    """SHA-256 over the (smiles, label) rows, as lowercase hex."""
    digest = hashlib.sha256()
    for molecule in molecules:
        digest.update(molecule.smiles.encode())
        digest.update(b"\t")
        digest.update(str(molecule.label).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _record_dtype(side: int, nbits: int) -> np.dtype:
    """One packed cache record: label, raster, then packed fingerprint and keys."""
    return np.dtype(
        [
            ("label", "u1"),
            ("image", "<f4", (side, side)),
            ("fingerprint", "u1", (nbits // 8,)),
            ("keys", "u1", (math.ceil(N_KEYS / 8),)),
        ]
    )


def _pack_records(examples: Sequence[CaptionedExample]) -> np.ndarray:
    """The cache records of non-empty examples, one per example."""
    side = examples[0].image.side
    nbits = examples[0].fingerprint.nbits
    if any(e.image.side != side or e.fingerprint.nbits != nbits for e in examples):
        raise CacheError("examples disagree on image or fingerprint size")
    records = np.empty(len(examples), dtype=_record_dtype(side, nbits))
    records["label"] = [e.label for e in examples]
    np.stack([e.image.pixels for e in examples], out=records["image"])
    records["fingerprint"] = [np.frombuffer(e.fingerprint.data, np.uint8) for e in examples]
    records["keys"] = np.packbits([e.keys.to_array() for e in examples], axis=1)
    return records


def _unpack_records(records: np.ndarray, corpus_hash: str) -> CachedDataset:
    """Training-ready arrays from cache records; none is a view of them."""
    return CachedDataset(
        images=records["image"].astype(np.float32),
        fingerprints=np.unpackbits(records["fingerprint"], axis=1),
        keys=np.unpackbits(records["keys"], axis=1, count=N_KEYS),
        labels=records["label"].copy(),
        corpus_hash=corpus_hash,
        featurizer_version=FEATURIZER_VERSION,
        side=records["image"].shape[1],
    )


def write_cache(
    path: str | Path, examples: Sequence[CaptionedExample], corpus_hash: str
) -> None:
    """Serialize featurized examples to a versioned binary file.

    Args:
        path: Output file.
        examples: Featurized corpus; all must share one image side and
            fingerprint width.
        corpus_hash: 64-char hex digest identifying the source corpus.

    Raises:
        CacheError: No examples, or sizes differ; the file is not opened.
    """
    if not examples:
        raise CacheError("refusing to write an empty cache")
    records = _pack_records(examples)
    header = _HEADER.pack(
        _CACHE_MAGIC,
        _CACHE_VERSION,
        FEATURIZER_VERSION,
        len(examples),
        examples[0].image.side,
        examples[0].fingerprint.nbits,
        N_KEYS,
        bytes.fromhex(corpus_hash),
    )
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(records)


def read_cache(
    path: str | Path, expected_hash: str | None = None
) -> CachedDataset:
    """Load a cache file back into training-ready arrays.

    Args:
        path: File written by :func:`write_cache`.
        expected_hash: When given, the stored corpus hash must match.

    Returns:
        CachedDataset with images (n, side, side) float32, fingerprints
        (n, nbits) uint8 in {0,1}, keys (n, 167) uint8, labels (n,).

    Raises:
        CacheError: Bad magic, unsupported version, wrong corpus hash,
            an image side, width or key count the featurizer never writes,
            or a bad body length.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise CacheError(f"{path}: shorter than the header")
    magic, cache_version, feat_version, count, side, nbits, n_keys, stored = (
        _HEADER.unpack_from(raw)
    )
    if magic != _CACHE_MAGIC:
        raise CacheError(f"{path}: bad magic {magic!r}")
    if cache_version != _CACHE_VERSION:
        raise CacheError(f"{path}: unsupported cache version {cache_version}")
    if feat_version != FEATURIZER_VERSION:
        raise CacheError(
            f"{path}: featurizer version {feat_version} != {FEATURIZER_VERSION}"
        )
    corpus_hash = stored.hex()
    if expected_hash is not None and corpus_hash != expected_hash.lower():
        raise CacheError(f"{path}: corpus hash mismatch")
    try:
        check_image_side(side)
        _check_cache_width(nbits)
    except ConfigError as exc:
        raise CacheError(f"{path}: {exc}") from None
    if n_keys != N_KEYS:
        raise CacheError(f"{path}: {n_keys} keys per record, expected {N_KEYS}")

    dtype = _record_dtype(side, nbits)
    body = len(raw) - _HEADER.size
    if body != count * dtype.itemsize:
        raise CacheError(
            f"{path}: expected {count * dtype.itemsize} record bytes, found {body}"
        )
    records = np.frombuffer(raw, dtype=dtype, count=count, offset=_HEADER.size)
    return _unpack_records(records, corpus_hash)


def arrays_from_examples(
    examples: Sequence[CaptionedExample], corpus_hash: str = ""
) -> CachedDataset:
    """The arrays read_cache would yield for a cache of these examples."""
    if not examples:
        raise CacheError("no examples to stack")
    return _unpack_records(_pack_records(examples), corpus_hash)
