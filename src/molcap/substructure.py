"""Subgraph matching against a small SMARTS-like query language.

The query grammar is a deliberately small subset, every unsupported
construct fails loudly rather than silently matching wrong:

* bare atoms: ``C N O S P B F Cl Br I`` (aliphatic), ``c n o s p b``
  (aromatic), ``*`` (any atom), ``a`` (any aromatic atom);
* bracket atoms combining primitives with optional ``;`` or ``&``
  separators (always conjunction):
  ``#n`` atomic number, ``!#n`` negated atomic number (repeatable),
  element symbols (uppercase aliphatic, lowercase aromatic), commas
  between element/#n alternatives (``[#7,#8]``), ``R``/``R0`` ring
  membership, ``Hn`` minimum total hydrogens, ``Dn`` minimum heavy
  degree, ``+``/``-``/``+n``/``-n`` exact charge, ``!+0`` any nonzero
  charge, and ``*``/``a``/``A`` wildcards;
* bonds: ``-`` single, ``=`` double, ``#`` triple, ``:`` aromatic,
  ``~`` any; an omitted bond means single-or-aromatic;
* branches and ring closures (digits and ``%nn``), with an optional bond
  symbol before the closure digit.

Matching is monomorphic (extra molecule bonds never block a match) and
counts are deduplicated by the set of matched molecule atoms, so a
symmetric pattern does not count its own automorphisms.

One table holds the atoms and bonds of many molecules: a
:class:`ChunkIndex` numbers their atoms in one array and keeps their
directed bonds sorted (the Morgan hashing reads the same table).  It
answers each query-atom predicate once, as a NumPy boolean array over
all its atoms.

:func:`embedded_molecules` answers a yes/no question, whether a query
has any embedding, for every molecule of a chunk at once: a join grows
every partial embedding of the whole chunk one query atom at a time, as
rows of a NumPy array.

:func:`match_subgraph` counts the embeddings in one molecule.  Its
search runs on bitsets, in the manner of Ullmann's bit-matrix refinement
(J. ACM 23:31, 1976): a :class:`MoleculeIndex`, one molecule's view of a
chunk, packs that molecule's slice of the chunk's arrays into Python
ints, and each step of a match intersects a query atom's candidate set
with the neighbour sets of the atoms already matched.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np

from .elements import AROMATIC_SYMBOLS, SYMBOL_TO_Z
from .errors import MalformedPatternError, UnsupportedPrimitiveError
from .smiles import BondOrder, MolecularGraph

__all__ = [
    "QueryAtom",
    "QueryBond",
    "QueryPattern",
    "MatchResult",
    "MoleculeIndex",
    "ChunkIndex",
    "JOIN_ROW_BUDGET",
    "parse_query",
    "match_subgraph",
    "embedded_molecules",
]


@dataclass
class QueryAtom:
    """Conjunction of predicates one molecule atom must satisfy.

    ``elements`` is the allowed atomic-number set (None means any);
    ``negate_elements`` flips it into a complement.  ``charge`` is an
    exact value, or the string "nonzero".
    """

    elements: frozenset[int] | None = None
    negate_elements: bool = False
    aromatic: bool | None = None
    in_ring: bool | None = None
    charge: int | str | None = None
    min_degree: int | None = None
    min_h: int | None = None


def _predicate_key(atom: QueryAtom) -> str:
    """Text naming every predicate field of ``atom``; equal predicates
    give equal keys.  A string caches its hash, so lookups stay cheap."""
    fields = dict(vars(atom))
    if atom.elements is not None:
        fields["elements"] = sorted(atom.elements)
    return repr(fields)


# Bond orders each query bond kind accepts.  A kind's position in this
# table is its index into MoleculeIndex.bond_masks.
_BOND_KIND_ORDERS = {
    "single": (BondOrder.SINGLE,),
    "double": (BondOrder.DOUBLE,),
    "triple": (BondOrder.TRIPLE,),
    "aromatic": (BondOrder.AROMATIC,),
    "default": (BondOrder.SINGLE, BondOrder.AROMATIC),
    "any": tuple(BondOrder),
}
_BOND_KINDS = tuple(_BOND_KIND_ORDERS)
# ``_ORDER_SATISFIES[kind, order]``: a bond of that order satisfies that kind.
_ORDER_SATISFIES = np.array(
    [[order in orders for order in range(max(BondOrder) + 1)] for orders in _BOND_KIND_ORDERS.values()]
)


@dataclass
class QueryBond:
    """An edge of the query graph with a bond-order predicate."""

    a: int
    b: int
    kind: str = "default"


@dataclass
class QueryPattern:
    """A connected query graph parsed from pattern text.

    Construction records each atom's predicate key, so atoms with equal
    predicates share one candidate mask in a :class:`MoleculeIndex`, and
    each bond's kind index.  Both are plain values, so a pickled pattern
    means the same in any process.  Atoms and bonds must not change
    after construction.
    """

    atoms: list[QueryAtom]
    bonds: list[QueryBond]
    text: str = ""
    atom_keys: tuple[str, ...] = field(init=False, repr=False, compare=False)
    bond_kinds: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _adjacency: dict[int, list[tuple[int, int]]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _plans: dict[int, list[tuple[int, tuple[tuple[int, int], ...]]]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.atom_keys = tuple(map(_predicate_key, self.atoms))
        self.bond_kinds = tuple(_BOND_KINDS.index(bond.kind) for bond in self.bonds)
        adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(self.atoms))}
        for bond_index, bond in enumerate(self.bonds):
            adj[bond.a].append((bond.b, bond_index))
            adj[bond.b].append((bond.a, bond_index))
        self._adjacency = adj

    def neighbors(self, index: int) -> list[tuple[int, int]]:
        return self._adjacency[index]

    def degree(self, index: int) -> int:
        return len(self._adjacency[index])

    def plan(self, start: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
        """Search plan from ``start``: per depth, (query atom, back bonds).

        Back bonds are (earlier query atom, bond kind index) pairs.  The
        plan depends only on the bond graph, which is fixed at
        construction, so it is cached per start atom.
        """
        plan = self._plans.get(start)
        if plan is None:
            plan = []
            placed: set[int] = set()
            for q in _query_order(self, start):
                back = tuple(
                    (nb, self.bond_kinds[bi]) for nb, bi in self.neighbors(q) if nb in placed
                )
                plan.append((q, back))
                placed.add(q)
            self._plans[start] = plan
        return plan


@dataclass
class MatchResult:
    """Distinct-match count plus one witness mapping (query -> molecule)."""

    count: int
    first_mapping: tuple[int, ...] | None


_BOND_CHAR = {"-": "single", "=": "double", "#": "triple", ":": "aromatic", "~": "any"}

# Characters that are meaningful SMARTS but outside this subset.
_KNOWN_UNSUPPORTED = set("$@/\\{}?.")


def parse_query(pattern: str, text_label: str | None = None) -> QueryPattern:
    """Parse query text into a :class:`QueryPattern`.

    Args:
        pattern: Query in the documented grammar.
        text_label: Optional label stored on the pattern (defaults to the
            pattern text itself).

    Returns:
        A connected query graph.

    Raises:
        MalformedPatternError: Syntax errors, with the byte offset.
        UnsupportedPrimitiveError: Recognized SMARTS outside the subset.
    """
    atoms: list[QueryAtom] = []
    bonds: list[QueryBond] = []
    prev: int | None = None
    pending: str | None = None
    stack: list[int] = []
    ring_open: dict[int, tuple[int, str | None]] = {}
    i = 0
    n = len(pattern)
    if n == 0:
        raise MalformedPatternError("empty pattern", 0)

    def attach(new_index: int) -> None:
        nonlocal pending
        if prev is not None:
            bonds.append(QueryBond(prev, new_index, pending or "default"))
        pending = None

    while i < n:
        ch = pattern[i]
        if ch in _KNOWN_UNSUPPORTED:
            raise UnsupportedPrimitiveError(ch, i)
        if ch == "[":
            end = pattern.find("]", i + 1)
            if end < 0:
                raise MalformedPatternError("unterminated bracket", i)
            atom = _parse_bracket_query(pattern[i + 1 : end], i + 1)
            attach(len(atoms))
            atoms.append(atom)
            prev = len(atoms) - 1
            i = end + 1
        elif ch in _BOND_CHAR:
            if pending is not None:
                raise MalformedPatternError("two bond symbols in a row", i)
            pending = _BOND_CHAR[ch]
            i += 1
        elif ch == "(":
            if prev is None:
                raise MalformedPatternError("branch before any atom", i)
            stack.append(prev)
            i += 1
        elif ch == ")":
            if not stack:
                raise MalformedPatternError("unbalanced ')'", i)
            prev = stack.pop()
            i += 1
        elif ch.isdigit() or ch == "%":
            closure_at = i
            if ch == "%":
                if i + 2 >= n or not pattern[i + 1 : i + 3].isdigit():
                    raise MalformedPatternError("'%' needs two digits", i)
                number = int(pattern[i + 1 : i + 3])
                i += 3
            else:
                number = int(ch)
                i += 1
            if prev is None:
                raise MalformedPatternError("ring closure before any atom", i)
            if number in ring_open:
                other, opening_bond = ring_open.pop(number)
                kind = pending if pending is not None else opening_bond
                if opening_bond is not None and opening_bond != kind:
                    raise MalformedPatternError(
                        "conflicting ring-closure bond symbols", closure_at
                    )
                bonds.append(QueryBond(other, prev, kind or "default"))
            else:
                ring_open[number] = (prev, pending)
            pending = None
        else:
            symbol, aromatic_flag, width = _read_bare_symbol(pattern, i)
            if symbol is None:
                raise MalformedPatternError(f"cannot read {ch!r}", i)
            attach(len(atoms))
            atoms.append(_bare_atom(symbol, aromatic_flag))
            prev = len(atoms) - 1
            i += width

    if stack:
        raise MalformedPatternError("unbalanced '('", n)
    if ring_open:
        raise MalformedPatternError(f"unclosed ring closure {min(ring_open)}", n)
    if pending is not None:
        raise MalformedPatternError("dangling bond symbol", n)

    query = QueryPattern(atoms=atoms, bonds=bonds, text=text_label or pattern)
    _check_connected(query, pattern)
    return query


def _read_bare_symbol(pattern: str, i: int) -> tuple[str | None, bool, int]:
    """Read one unbracketed atom symbol; returns (symbol, aromatic, width)."""
    two = pattern[i : i + 2]
    if two in ("Cl", "Br"):
        return two, False, 2
    ch = pattern[i]
    if ch == "*":
        return "*", False, 1
    if ch == "a":
        return "a", True, 1
    if ch == "A":
        return "A", False, 1
    if ch in "BCNOSPFI":
        return ch, False, 1
    if ch in "bcnops":
        return AROMATIC_SYMBOLS[ch], True, 1
    return None, False, 0


def _bare_atom(symbol: str, aromatic: bool) -> QueryAtom:
    if symbol == "*":
        return QueryAtom()
    if symbol == "a":
        return QueryAtom(aromatic=True)
    if symbol == "A":
        return QueryAtom(aromatic=False)
    return QueryAtom(
        elements=frozenset([SYMBOL_TO_Z[symbol]]),
        aromatic=aromatic,
    )


# Two-letter element symbols whose first letter collides with the H, D,
# or R primitives must be listed ahead of them.
_BRACKET_TOKEN = re.compile(
    r"""!\#(?P<neg>\d+)
      | \#(?P<num>\d+)
      | !\+0
      | (?P<chargeval>[+-]\d+)
      | (?P<chargerun>\+{1,}|-{1,})
      | (?P<sym2>H[efgos]|D[bsy]|R[abefghnu])
      | H(?P<hcount>\d*)
      | D(?P<dcount>\d*)
      | R(?P<ring>\d?)
      | (?P<sym>se|as|[A-Z][a-z]?|[bcnops])
      | (?P<wild>[*aA])
      | (?P<sep>[;&,])
    """,
    re.VERBOSE,
)


def _parse_bracket_query(body: str, offset: int) -> QueryAtom:
    """Parse bracket contents into a single QueryAtom conjunction."""
    if not body:
        raise MalformedPatternError("empty bracket", offset)
    atom = QueryAtom()
    elements: set[int] = set()
    negated: set[int] = set()
    sym_flags: set[bool] = set()
    wild_aromatic: bool | None = None
    i = 0
    while i < len(body):
        match = _BRACKET_TOKEN.match(body, i)
        if match is None:
            ch = body[i]
            # "!" (general negation), x/r/v/h (ring-bond count, ring size,
            # valence, implicit-H) are real primitives outside this subset.
            if ch in _KNOWN_UNSUPPORTED or ch in "!xrvh":
                raise UnsupportedPrimitiveError(body[i:], offset + i)
            raise MalformedPatternError(f"cannot read {ch!r}", offset + i)
        if match.group("neg") is not None:
            negated.add(int(match.group("neg")))
        elif match.group("num") is not None:
            elements.add(int(match.group("num")))
        elif match.group(0) == "!+0":
            atom.charge = "nonzero"
        elif match.group("chargeval") is not None:
            atom.charge = int(match.group("chargeval"))
        elif match.group("chargerun") is not None:
            run = match.group("chargerun")
            atom.charge = len(run) if run[0] == "+" else -len(run)
        elif match.group("sym2") is not None or match.group("sym") is not None:
            symbol = match.group("sym2") or match.group("sym")
            aromatic = False
            if symbol in AROMATIC_SYMBOLS:
                symbol = AROMATIC_SYMBOLS[symbol]
                aromatic = True
            z = SYMBOL_TO_Z.get(symbol)
            if z is None:
                raise UnsupportedPrimitiveError(symbol, offset + i)
            elements.add(z)
            sym_flags.add(aromatic)
        elif match.group("hcount") is not None:
            atom.min_h = int(match.group("hcount")) if match.group("hcount") else 1
        elif match.group("dcount") is not None:
            atom.min_degree = int(match.group("dcount")) if match.group("dcount") else 1
        elif match.group("ring") is not None:
            atom.in_ring = match.group("ring") != "0"
        elif match.group("wild") is not None:
            wild = match.group("wild")
            if wild == "a":
                wild_aromatic = True
            elif wild == "A":
                wild_aromatic = False
        # separators are conjunction markers; nothing to do
        i = match.end()

    if elements and negated:
        raise UnsupportedPrimitiveError(
            "mixed positive and negated element lists", offset
        )
    if negated:
        atom.elements = frozenset(negated)
        atom.negate_elements = True
    elif elements:
        atom.elements = frozenset(elements)
    # Element symbols imply an aromaticity constraint only when every
    # listed symbol agrees ([C,c] matches either form); an explicit a or A
    # wildcard overrides.
    if wild_aromatic is not None:
        atom.aromatic = wild_aromatic
    elif len(sym_flags) == 1:
        atom.aromatic = sym_flags.pop()
    return atom


def _check_connected(query: QueryPattern, pattern: str) -> None:
    if not query.atoms:
        raise MalformedPatternError("no atoms in pattern", 0)
    seen = {0}
    frontier = [0]
    while frontier:
        current = frontier.pop()
        for nxt, _ in query.neighbors(current):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    if len(seen) != len(query.atoms):
        raise MalformedPatternError("pattern graph is disconnected", len(pattern))


# --------------------------------------------------------------------------
# Matching


_ATOM_FIELDS = attrgetter(
    "element", "formal_charge", "explicit_h", "implicit_h", "aromatic", "in_ring"
)
_BOND_FIELDS = attrgetter("a", "b", "order")

# Partial embeddings one join step may build; a step that would build
# more goes over its rows in halves.  Rows hold one intp per matched
# query atom, so a step stays near a few MB.
JOIN_ROW_BUDGET = 2**15


class ChunkIndex:
    """Array tables of many molecules, shared by every query joined on them.

    The one atom and bond table of a featurize chunk: the Morgan hashing
    (:func:`~molcap.fingerprints.morgan_hashes`) and the structural keys
    (:func:`~molcap.maccs.key_answers`, by join and through
    :class:`MoleculeIndex` views) all read it.  ``graphs`` are the
    molecules it was built from; they must not change while it is in
    use.  Atoms are numbered chunk-wide, molecule after molecule: those
    of molecule ``k`` are ``starts[k]:starts[k + 1]``.  Per atom,
    ``molecule``, ``local`` (index within its molecule), ``elements``,
    ``charges``, ``degree`` (heavy degree), ``hydrogens`` (total H),
    ``aromatic`` and ``in_ring`` are arrays.  Every bond is stored in
    both directions, sorted by (source, target): the bonds leaving atom
    ``i`` are ``first[i]:first[i + 1]``, with neighbours ``targets``,
    sorted keys ``edge_keys`` (source * atom count + target),
    ``bond_orders`` and molecule-local bond indices ``bonds``, and
    ``bond_kinds[kind]`` marks those that satisfy query bond kind
    ``kind``.  ``bond_words`` uint64 words hold one bit per bond of the
    chunk's largest molecule.  Per basis ring, ``ring_sizes`` and
    ``ring_molecule``.  Candidate masks, one boolean array per distinct
    query-atom predicate, are built on first use by
    :func:`_predicate_mask`, and packed into one Python int per molecule
    on first use by :meth:`molecule_candidates`.  A pair of atoms is
    assumed to share at most one bond, as in every graph
    :func:`~molcap.smiles.parse_smiles` returns.
    """

    def __init__(self, graphs: Sequence[MolecularGraph]) -> None:
        atom_counts = np.array([len(g.atoms) for g in graphs], dtype=np.intp)
        bond_counts = np.array([len(g.bonds) for g in graphs], dtype=np.intp)
        n, n_bonds = int(atom_counts.sum()), int(bond_counts.sum())
        fields = np.fromiter(
            chain.from_iterable(map(_ATOM_FIELDS, chain.from_iterable(g.atoms for g in graphs))),
            dtype=np.intp,
            count=6 * n,
        ).reshape(n, 6)
        bonds = np.fromiter(
            chain.from_iterable(map(_BOND_FIELDS, chain.from_iterable(g.bonds for g in graphs))),
            dtype=np.int64,
            count=3 * n_bonds,
        ).reshape(n_bonds, 3)
        molecules = np.arange(len(graphs))
        self.graphs = list(graphs)
        self.n_molecules = len(graphs)
        self.n_atoms = n
        self.molecule = np.repeat(molecules, atom_counts)
        self.starts = np.concatenate(([0], np.cumsum(atom_counts)))
        self.local = np.arange(n) - self.starts[self.molecule]
        ends = bonds[:, :2] + np.repeat(self.starts[:-1], bond_counts)[:, None]
        keys = np.concatenate((ends[:, 0] * n + ends[:, 1], ends[:, 1] * n + ends[:, 0]))
        by_key = np.argsort(keys)
        self.edge_keys = keys[by_key]
        self.targets = self.edge_keys % max(n, 1)
        self.bond_orders = np.tile(bonds[:, 2], 2)[by_key]
        self.bond_kinds = _ORDER_SATISFIES[:, self.bond_orders]
        bond_start = np.cumsum(bond_counts) - bond_counts
        local_bond = np.arange(n_bonds) - np.repeat(bond_start, bond_counts)
        self.bonds = np.tile(local_bond, 2)[by_key]
        self.bond_words = max(1, -(-int(bond_counts.max(initial=0)) // 64))
        self.degree = np.bincount(self.edge_keys // max(n, 1), minlength=n)
        self.first = np.concatenate(([0], np.cumsum(self.degree)))
        self.elements = fields[:, 0]
        self.charges = fields[:, 1]
        self.hydrogens = fields[:, 2] + fields[:, 3]
        self.aromatic = fields[:, 4].astype(bool)
        self.in_ring = fields[:, 5].astype(bool)
        self.ring_sizes = np.array([len(ring) for g in graphs for ring in g.rings], dtype=np.intp)
        self.ring_molecule = np.repeat(molecules, [len(g.rings) for g in graphs])
        self._candidates: dict[str, tuple[np.ndarray, int]] = {}
        self._molecule_candidates: dict[str, list[int]] = {}

    def candidates(self, query: QueryPattern) -> list[tuple[np.ndarray, int]]:
        """(mask, count) of the chunk atoms satisfying each query atom, in order."""
        for key, atom in zip(query.atom_keys, query.atoms):
            if key not in self._candidates:
                mask = _predicate_mask(atom, self)
                self._candidates[key] = mask, int(np.count_nonzero(mask))
        return list(map(self._candidates.__getitem__, query.atom_keys))

    def molecule_candidates(self, query: QueryPattern) -> list[list[int]]:
        """Per query atom, in order, each molecule's candidate atoms as a
        Python int: bit ``m`` of molecule ``k``'s int stands for its atom
        ``m``.  Each predicate's mask is packed once, for all molecules."""
        try:
            return list(map(self._molecule_candidates.__getitem__, query.atom_keys))
        except KeyError:
            width = -(-int(np.diff(self.starts).max(initial=0)) // 64) * 64
            for key, (mask, _) in zip(query.atom_keys, self.candidates(query)):
                if key not in self._molecule_candidates:
                    bits = np.zeros((self.n_molecules, width), dtype=bool)
                    bits[self.molecule, self.local] = mask
                    self._molecule_candidates[key] = _bit_ints(bits)
            return list(map(self._molecule_candidates.__getitem__, query.atom_keys))


def _bit_ints(bits: np.ndarray) -> list:
    """Boolean rows, each a whole number of 64-bit words long, as nested
    lists of Python ints: bit ``m`` of a row's int is the row's entry ``m``."""
    words = np.packbits(bits, axis=-1, bitorder="little").view("<u8").astype(object)
    ints = np.zeros(words.shape[:-1], dtype=object)
    for word in range(words.shape[-1]):
        ints |= words[..., word] << 64 * word
    return ints.tolist()


class MoleculeIndex:
    """Bitset view of one molecule of a :class:`ChunkIndex`, shared by
    every query matched on it.

    Bit ``m`` of a mask stands for atom ``m`` of the molecule; masks are
    Python ints, so a molecule may have any number of atoms.
    ``bond_masks[kind][i]`` holds the neighbours of atom ``i`` joined by
    a bond of that query bond kind (single, double, triple, aromatic,
    default, any), packed from the molecule's slice of the chunk's
    sorted bonds.  Candidate masks, the atoms satisfying each distinct
    query-atom predicate, are the molecule's entries of
    :meth:`ChunkIndex.molecule_candidates`.  ``graph`` is the chunk's
    molecule ``row``.
    """

    def __init__(self, chunk: ChunkIndex, row: int) -> None:
        self.chunk = chunk
        self.graph = chunk.graphs[row]
        start, end = chunk.starts[row], chunk.starts[row + 1]
        n = end - start
        edges = slice(chunk.first[start], chunk.first[end])
        sources = np.repeat(np.arange(n), chunk.degree[start:end])
        neighbours = np.zeros((len(_BOND_KINDS), n, -(-n // 64) * 64), dtype=bool)
        neighbours[:, sources, chunk.targets[edges] - start] = chunk.bond_kinds[:, edges]
        self.bond_masks: list[list[int]] = _bit_ints(neighbours)
        self._row = row

    def candidates(self, query: QueryPattern) -> list[int]:
        """Mask of the molecule atoms satisfying each query atom, in order."""
        row = self._row
        return [masks[row] for masks in self.chunk.molecule_candidates(query)]


def _predicate_mask(atom: QueryAtom, chunk: ChunkIndex) -> np.ndarray:
    """The atoms of ``chunk`` that satisfy every predicate of ``atom``."""
    mask = np.ones(chunk.n_atoms, dtype=bool)
    if atom.elements is not None:
        inside = np.zeros(chunk.n_atoms, dtype=bool)
        for z in atom.elements:
            inside |= chunk.elements == z
        mask = ~inside if atom.negate_elements else inside
    if atom.aromatic is not None:
        mask &= chunk.aromatic == atom.aromatic
    if atom.in_ring is not None:
        mask &= chunk.in_ring == atom.in_ring
    if atom.charge == "nonzero":
        mask &= chunk.charges != 0
    elif atom.charge is not None:
        mask &= chunk.charges == atom.charge
    if atom.min_degree is not None:
        mask &= chunk.degree >= atom.min_degree
    if atom.min_h is not None:
        mask &= chunk.hydrogens >= atom.min_h
    return mask


def match_subgraph(
    graph: MolecularGraph,
    query: QueryPattern,
    max_count: int | None = None,
    index: MoleculeIndex | None = None,
) -> MatchResult:
    """Count distinct embeddings of ``query`` in ``graph``.

    Two embeddings that map the query onto the same set of molecule atoms
    count once.  Matching is monomorphic: molecule bonds absent from the
    query are ignored.  The search starts from the most selective query
    atom (fewest candidate molecule atoms, lowest index on ties) and
    grows the match along query bonds.  Each new atom's pool is its
    candidate mask, less the atoms already used, intersected with the
    matching-kind neighbour mask of every matched query neighbour; pools
    are taken in ascending atom order, so results are deterministic.

    Args:
        graph: Target molecule.
        query: Parsed pattern.
        max_count: Stop once this many distinct matches are found (the
            count is then a lower bound, which is all threshold tests
            need).  None means exact.
        index: The view of ``graph`` shared across queries; built here,
            from a chunk of ``graph`` alone, when omitted.

    Returns:
        MatchResult with the distinct count and the first witness mapping.
    """
    k = len(query.atoms)
    n = len(graph.atoms)
    if k == 0 or k > n or (max_count is not None and max_count <= 0):
        return MatchResult(0, None)
    if index is None:
        index = MoleculeIndex(ChunkIndex([graph]), 0)
    elif index.graph is not graph:
        raise ValueError("index was built for a different molecule")
    candidates = index.candidates(query)
    if not all(candidates):
        return MatchResult(0, None)
    sizes = [mask.bit_count() for mask in candidates]
    if k == 1:
        count = sizes[0] if max_count is None else min(sizes[0], max_count)
        return MatchResult(count, ((candidates[0] & -candidates[0]).bit_length() - 1,))
    plan = query.plan(sizes.index(min(sizes)))

    bond_masks = index.bond_masks
    matches: set[int] = set()  # matched atom sets, as masks
    first: tuple[int, ...] | None = None
    assignment = [-1] * k
    pools = [0] * k  # per depth, the candidates not yet tried
    used = [0] * k  # per depth, the atoms matched at shallower depths
    last = k - 1
    pools[0] = candidates[plan[0][0]]
    depth = 0
    while depth >= 0:
        pool = pools[depth]
        if not pool:
            depth -= 1
            continue
        bit = pool & -pool
        pools[depth] = pool ^ bit
        q = plan[depth][0]
        assignment[q] = bit.bit_length() - 1
        if depth < last:
            depth += 1
            taken = used[depth] = used[depth - 1] | bit
            q, back = plan[depth]
            pool = candidates[q] & ~taken
            for nb, kind in back:
                pool &= bond_masks[kind][assignment[nb]]
            pools[depth] = pool
        elif used[depth] | bit not in matches:
            matches.add(used[depth] | bit)
            if first is None:
                first = tuple(assignment)
            if max_count is not None and len(matches) >= max_count:
                break
    return MatchResult(len(matches), first)


def embedded_molecules(chunk: ChunkIndex, query: QueryPattern) -> np.ndarray:
    """Per molecule of ``chunk``, whether ``query`` embeds in it at least once.

    A join over the whole chunk.  It starts from the query atom with the
    fewest candidate atoms in the chunk (lowest index on ties), one row
    per candidate, and grows every row by one query atom per step of
    that atom's :meth:`QueryPattern.plan`: the bonds leaving the atom
    matched to the step's first back bond, kept where the bond kind fits,
    the new atom is a candidate and differs from the atoms already in the
    row, and every further back bond (a ring closure) is found among the
    sorted ``edge_keys``.  A molecule answers yes when a row of it
    survives the last step.  A step that would build more than
    JOIN_ROW_BUDGET rows goes over its rows in halves; once rows have
    been split, rows of molecules already answered are dropped.  Any one
    embedding is enough, so matched atom sets are not deduplicated.
    """
    found = np.zeros(chunk.n_molecules, dtype=bool)
    candidates = chunk.candidates(query)
    sizes = [size for _, size in candidates]
    if not all(sizes):
        return found
    plan = query.plan(sizes.index(min(sizes)))
    column = {q: depth for depth, (q, _) in enumerate(plan)}
    steps = [(candidates[q][0], [(column[nb], kind) for nb, kind in back]) for q, back in plan[1:]]
    pending = [np.flatnonzero(candidates[plan[0][0]][0])[:, None]]
    split = False
    while pending:
        rows = pending.pop()
        if split:
            rows = rows[~found[chunk.molecule[rows[:, 0]]]]
        if not len(rows):
            continue
        if rows.shape[1] == len(plan):
            found[chunk.molecule[rows[:, 0]]] = True
            continue
        mask, back = steps[rows.shape[1] - 1]
        anchor = rows[:, back[0][0]]
        count = chunk.degree[anchor]
        if len(rows) > 1 and count.sum() > JOIN_ROW_BUDGET:
            half = len(rows) // 2
            pending += [rows[half:], rows[:half]]
            split = True
        else:
            pending.append(_extend(chunk, rows, anchor, count, mask, back))
    return found


def _extend(
    chunk: ChunkIndex,
    rows: np.ndarray,
    anchor: np.ndarray,
    count: np.ndarray,
    mask: np.ndarray,
    back: list[tuple[int, int]],
) -> np.ndarray:
    """One join step: ``rows`` grown by one column, the next query atom.

    Builds one candidate row per bond leaving each row's ``anchor`` atom
    (``count`` of them per row, ``count.sum()`` in all) and keeps those
    whose bond satisfies the first back bond's kind, whose new atom is in
    ``mask`` and not yet in the row, and which have every further back
    bond, of its kind, to the atom in that bond's column.
    """
    ends = np.cumsum(count)
    parent = np.repeat(np.arange(len(rows)), count)
    edge = np.arange(ends[-1]) + np.repeat(chunk.first[anchor] - ends + count, count)
    target = chunk.targets[edge]
    keep = mask[target] & chunk.bond_kinds[back[0][1]][edge]
    target = target[keep]
    parents = rows[parent[keep]]
    keep = np.ones(len(target), dtype=bool)
    for column in range(rows.shape[1]):
        if column != back[0][0]:  # a bond's two ends always differ
            keep &= parents[:, column] != target
    for column, kind in back[1:]:
        key = parents[:, column] * chunk.n_atoms + target
        at = np.minimum(np.searchsorted(chunk.edge_keys, key), len(chunk.edge_keys) - 1)
        keep &= (chunk.edge_keys[at] == key) & chunk.bond_kinds[kind][at]
    grown = np.empty((np.count_nonzero(keep), rows.shape[1] + 1), dtype=rows.dtype)
    grown[:, :-1] = parents[keep]
    grown[:, -1] = target[keep]
    return grown


def _query_order(query: QueryPattern, start: int) -> list[int]:
    """Visit order: ``start``, then connected expansion."""
    k = len(query.atoms)
    order = [start]
    seen = {start}
    while len(order) < k:
        best: int | None = None
        best_key = (-1, -1, 0)
        for q in range(k):
            if q in seen:
                continue
            attached = sum(1 for nb, _ in query.neighbors(q) if nb in seen)
            if attached == 0:
                continue
            key = (attached, query.degree(q), -q)
            if key > best_key:
                best_key = key
                best = q
        assert best is not None  # query graphs are connected
        order.append(best)
        seen.add(best)
    return order
