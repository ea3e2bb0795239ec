"""Fixed 167-bit structural key evaluation.

Key definitions are data, not code: a tab-separated file gives each key
an index (0..166), a kind, an optional pattern, a count threshold, and a
description.  The shipped default lives at ``data/maccs_keys.tsv`` inside
the package; set the ``MOLCAP_KEYS`` environment variable or pass an
explicit path to substitute your own.

Kinds:

* ``pattern`` / ``pattern-count``: the pattern is substructure query
  text; the bit is set when the number of distinct matches reaches the
  threshold (matching stops early at the threshold);
* ``element-count``: the pattern is a comma-separated atomic-number
  list; the bit counts atoms whose element is in the list;
* ``ring-size``: the pattern is a ring size, or ``8+`` for eight or
  larger; the bit counts basis rings of that size;
* ``always-zero``: the bit never fires; used for keys that would need
  primitives outside the query language, with the reason recorded in the
  description.

Bit 0 is reserved so indices line up with the conventional 1-based key
numbering.

Keys are answered a featurize chunk at a time.  :func:`key_answers`
reads the chunk's :class:`~molcap.substructure.ChunkIndex`, the one atom
and bond table that the Morgan hashing reads too, and answers all 167
keys.  Each pattern key of threshold 1 is one join over the whole chunk
(:func:`~molcap.substructure.embedded_molecules`), and every
element-count and ring-size key, whatever its threshold, is a
per-molecule count over the same arrays.  Pattern keys of a threshold
above 1 (in the shipped file, keys 125, 131, 136, 138, 141 and 149) need
that many distinct matched atom sets, which the join does not count;
these *counted* keys are answered one molecule at a time by
:func:`~molcap.substructure.match_subgraph`, which stops at the
threshold, on one :class:`~molcap.substructure.MoleculeIndex` view of
the same table per molecule.  :func:`evaluate_keys` wraps one molecule's
row.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .elements import Z_TO_SYMBOL
from .errors import KeyFileError, MissingKeyError, PatternParseError, QueryError
from .smiles import MolecularGraph
from .substructure import (
    ChunkIndex,
    MoleculeIndex,
    QueryPattern,
    embedded_molecules,
    match_subgraph,
    parse_query,
)

__all__ = [
    "KeyDefinition",
    "KeyVector",
    "N_KEYS",
    "default_key_path",
    "load_key_definitions",
    "key_answers",
    "evaluate_keys",
]

N_KEYS = 167

_KINDS = ("pattern", "pattern-count", "element-count", "ring-size", "always-zero")
# One more than the largest atomic number.
_ELEMENTS = max(Z_TO_SYMBOL) + 1


@dataclass(frozen=True)
class KeyDefinition:
    """One loaded key: what to count and how many make a 'yes'."""

    index: int
    kind: str
    pattern_text: str
    threshold: int
    description: str
    query: QueryPattern | None = None
    elements: frozenset[int] | None = None
    ring_size: int | None = None
    ring_or_larger: bool = False


@dataclass(frozen=True)
class KeyVector:
    """167 binary answers, index 0 always zero.

    ``bits`` holds one byte, 0 or 1, per key; any sequence of such ints
    is accepted and stored as bytes.
    """

    bits: bytes

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", bytes(self.bits))
        if len(self.bits) != N_KEYS:
            raise KeyFileError(f"key vector needs {N_KEYS} bits, got {len(self.bits)}")

    def to_array(self) -> np.ndarray:
        return np.frombuffer(self.bits, dtype=np.uint8)


def default_key_path() -> Path:
    """Path of the key file in effect: MOLCAP_KEYS or the shipped default."""
    override = os.environ.get("MOLCAP_KEYS")
    if override:
        return Path(override)
    return Path(str(resources.files("molcap").joinpath("data/maccs_keys.tsv")))


def load_key_definitions(source: str | Path | None = None) -> list[KeyDefinition]:
    """Load and validate key definitions.

    Args:
        source: File path; None uses ``default_key_path()``.

    Returns:
        Exactly 167 definitions sorted by index.

    Raises:
        MissingKeyError: An index in 0..166 has no definition.
        PatternParseError: A pattern, element list, or ring size failed to
            parse; carries the key index.
        KeyFileError: Structural problems (field count, kind, duplicate or
            out-of-range index, bad threshold).
    """
    path = Path(source) if source is not None else default_key_path()
    definitions: dict[int, KeyDefinition] = {}
    for line_number, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t", 4)
        if len(fields) != 5:
            raise KeyFileError(
                f"line {line_number}: expected 5 tab-separated fields, got {len(fields)}"
            )
        index_text, kind, pattern_text, threshold_text, description = fields
        try:
            index = int(index_text)
        except ValueError:
            raise KeyFileError(f"line {line_number}: bad index {index_text!r}") from None
        if not 0 <= index < N_KEYS:
            raise KeyFileError(f"line {line_number}: index {index} out of range")
        if index in definitions:
            raise KeyFileError(f"line {line_number}: duplicate index {index}")
        if kind not in _KINDS:
            raise KeyFileError(f"line {line_number}: unknown kind {kind!r}")
        try:
            threshold = int(threshold_text)
        except ValueError:
            raise KeyFileError(
                f"line {line_number}: bad threshold {threshold_text!r}"
            ) from None
        if threshold < 1:
            raise KeyFileError(f"line {line_number}: threshold must be at least 1")
        definitions[index] = _build_definition(
            index, kind, pattern_text, threshold, description
        )
    for index in range(N_KEYS):
        if index not in definitions:
            raise MissingKeyError(index)
    return [definitions[i] for i in range(N_KEYS)]


def _build_definition(
    index: int, kind: str, pattern_text: str, threshold: int, description: str
) -> KeyDefinition:
    query = None
    elements = None
    ring_size = None
    ring_or_larger = False
    if kind in ("pattern", "pattern-count"):
        try:
            query = parse_query(pattern_text)
        except QueryError as exc:
            raise PatternParseError(index, str(exc)) from exc
    elif kind == "element-count":
        try:
            parsed = [int(z) for z in pattern_text.split(",")]
        except ValueError:
            raise PatternParseError(index, f"bad element list {pattern_text!r}") from None
        if not parsed or any(z not in Z_TO_SYMBOL for z in parsed):
            raise PatternParseError(index, f"bad element list {pattern_text!r}")
        elements = frozenset(parsed)
    elif kind == "ring-size":
        text = pattern_text
        if text.endswith("+"):
            ring_or_larger = True
            text = text[:-1]
        try:
            ring_size = int(text)
        except ValueError:
            raise PatternParseError(index, f"bad ring size {pattern_text!r}") from None
        if ring_size < 3:
            raise PatternParseError(index, f"bad ring size {pattern_text!r}")
    else:  # always-zero
        if pattern_text:
            raise PatternParseError(index, "always-zero keys take no pattern")
    return KeyDefinition(
        index=index,
        kind=kind,
        pattern_text=pattern_text,
        threshold=threshold,
        description=description,
        query=query,
        elements=elements,
        ring_size=ring_size,
        ring_or_larger=ring_or_larger,
    )


def _check_definitions(definitions: list[KeyDefinition]) -> None:
    """Raise KeyFileError unless definition i is key i, for all 167."""
    if len(definitions) != N_KEYS:
        raise KeyFileError(f"expected {N_KEYS} definitions, got {len(definitions)}")
    for position, definition in enumerate(definitions):
        if definition.index != position:
            raise KeyFileError(
                f"definition {position} is key {definition.index}; "
                "definitions must be in index order"
            )


def key_answers(chunk: ChunkIndex, definitions: list[KeyDefinition]) -> np.ndarray:
    """Answer every key for many molecules at once.

    Args:
        chunk: The molecules' atom and bond table.
        definitions: The 167 loaded definitions, in index order.

    Returns:
        (chunk.n_molecules, 167) uint8: row k holds the bits of the
        chunk's molecule k; bit i is 1 iff key i's count reaches its
        threshold.

    Raises:
        KeyFileError: Not 167 definitions, or not in index order.
    """
    _check_definitions(definitions)
    n = chunk.n_molecules
    answers = np.zeros((n, N_KEYS), dtype=np.uint8)
    # Per molecule, its atoms by atomic number.
    elements = np.bincount(
        chunk.molecule * _ELEMENTS + chunk.elements, minlength=n * _ELEMENTS
    ).reshape(n, _ELEMENTS)
    ring_sizes = chunk.ring_sizes
    for definition in definitions:
        if definition.query is not None:
            if definition.threshold == 1:
                answers[:, definition.index] = embedded_molecules(chunk, definition.query)
            continue
        if definition.kind == "element-count":
            assert definition.elements is not None
            counts = elements[:, sorted(definition.elements)].sum(axis=1)
        elif definition.kind == "ring-size":
            assert definition.ring_size is not None
            size = definition.ring_size
            sized = ring_sizes >= size if definition.ring_or_larger else ring_sizes == size
            counts = np.bincount(chunk.ring_molecule[sized], minlength=n)
        else:  # always-zero
            continue
        answers[:, definition.index] = counts >= definition.threshold
    counted = [d for d in definitions if d.query is not None and d.threshold > 1]
    if counted:
        for row, graph in enumerate(chunk.graphs):
            index = MoleculeIndex(chunk, row)
            for d in counted:
                count = match_subgraph(graph, d.query, d.threshold, index).count
                answers[row, d.index] = count >= d.threshold
    return answers


def evaluate_keys(
    graph: MolecularGraph,
    definitions: list[KeyDefinition],
    answers: np.ndarray | None = None,
) -> KeyVector:
    """Answer every key against one molecule.

    Args:
        graph: Parsed molecule.
        definitions: The 167 loaded definitions, in index order.
        answers: The molecule's row of :func:`key_answers` over a chunk
            that holds it; computed here for ``graph`` alone when
            omitted.

    Returns:
        The 167-bit vector; bit i is 1 iff key i's count reaches its
        threshold.

    Raises:
        KeyFileError: Not 167 definitions, or not in index order, so
            that a bit would land at the wrong index.

    Every bit comes from the molecule's row of :func:`key_answers`;
    ``graph`` is read only when that row is computed here.
    """
    _check_definitions(definitions)
    if answers is None:
        answers = key_answers(ChunkIndex([graph]), definitions)[0]
    return KeyVector(bits=answers.astype(np.uint8, copy=False).tobytes())
