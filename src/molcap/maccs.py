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
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import KeyFileError, MissingKeyError, PatternParseError, QueryError
from .smiles import MolecularGraph
from .substructure import MoleculeIndex, QueryPattern, match_subgraph, parse_query

__all__ = [
    "KeyDefinition",
    "KeyVector",
    "N_KEYS",
    "default_key_path",
    "load_key_definitions",
    "evaluate_keys",
]

N_KEYS = 167

_KINDS = ("pattern", "pattern-count", "element-count", "ring-size", "always-zero")


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
    """167 binary answers, index 0 always zero."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != N_KEYS:
            raise KeyFileError(f"key vector needs {N_KEYS} bits, got {len(self.bits)}")

    def to_array(self) -> np.ndarray:
        return np.asarray(self.bits, dtype=np.uint8)


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
        if not parsed or any(not 1 <= z <= 118 for z in parsed):
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


def _key_count(
    graph: MolecularGraph,
    definition: KeyDefinition,
    index: MoleculeIndex,
    elements: Counter[int],
    ring_sizes: Counter[int],
) -> int:
    """Count occurrences, stopping at the threshold where possible.

    ``elements`` and ``ring_sizes`` count the molecule's atoms by element
    and its basis rings by size.
    """
    if definition.kind in ("pattern", "pattern-count"):
        assert definition.query is not None
        return match_subgraph(
            graph, definition.query, max_count=definition.threshold, index=index
        ).count
    if definition.kind == "element-count":
        assert definition.elements is not None
        return sum(map(elements.get, definition.elements, repeat(0)))
    if definition.kind == "ring-size":
        assert definition.ring_size is not None
        if definition.ring_or_larger:
            return sum(n for size, n in ring_sizes.items() if size >= definition.ring_size)
        return ring_sizes.get(definition.ring_size, 0)
    return 0


def evaluate_keys(
    graph: MolecularGraph, definitions: list[KeyDefinition]
) -> KeyVector:
    """Answer every key against one molecule.

    Args:
        graph: Parsed molecule.
        definitions: The 167 loaded definitions.

    Returns:
        The 167-bit vector; bit i is 1 iff key i's count reaches its
        threshold.

    One :class:`~molcap.substructure.MoleculeIndex` of ``graph`` is built
    here and shared by every pattern key; atoms are counted by element
    and rings by size once, for every element-count and ring-size key.
    """
    if len(definitions) != N_KEYS:
        raise KeyFileError(f"expected {N_KEYS} definitions, got {len(definitions)}")
    index = MoleculeIndex(graph)
    elements = Counter(atom.element for atom in graph.atoms)
    ring_sizes = Counter(len(ring) for ring in graph.rings)
    bits = tuple(
        1
        if _key_count(graph, definition, index, elements, ring_sizes)
        >= definition.threshold
        else 0
        for definition in definitions
    )
    return KeyVector(bits=bits)
