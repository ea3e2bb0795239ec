"""SMILES parsing into annotated molecular graphs.

The supported dialect covers the organic subset (B, C, N, O, P, S, F, Cl,
Br, I, plus their aromatic lowercase forms), bracket atoms with isotope,
charge, and explicit hydrogen counts, bond symbols ``- = # :``, branches,
ring closures (including two-digit ``%nn``), and dot-separated components.
Stereo markers (``/``, ``\\``, ``@``) are accepted and discarded: ``/`` and
``\\`` read as single bonds, chirality tags inside brackets are skipped.
Isotope labels and atom-class tags are likewise parsed and dropped.

Parsing proceeds in fixed passes:

1. tokenize            -- characters to positioned tokens,
2. graph construction  -- tokens to atoms and bonds,
3. ring perception     -- smallest-set-of-smallest-rings cycle basis,
4. aromatic demotion   -- lowercase atoms outside any ring lose the flag,
5. hydrogen filling    -- implicit hydrogens up to standard valence,
6. aromaticity         -- 4n+2 rings normalized to aromatic bond orders.

Implicit hydrogens are computed from the input bond orders (before any
aromatic normalization), so a molecule written in its Kekule form and the
same molecule written with lowercase aromatic atoms produce graphs with the
same total hydrogen counts.  For benzene the two parses are field-identical.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from enum import Enum, IntEnum

from .elements import (
    AROMATIC_SYMBOLS,
    BARE_AROMATIC,
    DEFAULT_VALENCES,
    ORGANIC_SUBSET,
    SYMBOL_TO_Z,
    Z_TO_SYMBOL,
)
from .errors import (
    InvalidValenceError,
    MalformedSmilesError,
    UnbalancedBranchError,
    UnclosedRingBondError,
    UnknownCharacterError,
    UnsupportedElementError,
    UnterminatedBracketError,
)

__all__ = [
    "BondOrder",
    "Atom",
    "Bond",
    "MolecularGraph",
    "Token",
    "TokenKind",
    "tokenize",
    "parse_smiles",
    "perceive_rings",
    "perceive_aromaticity",
]


class BondOrder(IntEnum):
    """Bond order; aromatic is a distinct value, not 1.5."""

    SINGLE = 1
    DOUBLE = 2
    TRIPLE = 3
    AROMATIC = 4


@dataclass
class Atom:
    """One heavy atom of a molecular graph.

    Attributes:
        element: Atomic number.
        formal_charge: Signed formal charge.
        explicit_h: Hydrogens written in a bracket atom.
        implicit_h: Hydrogens added to reach a standard valence.
        aromatic: True for members of perceived aromatic rings.
        in_ring: True for members of the perceived ring basis.
        index: Position in ``MolecularGraph.atoms``.
    """

    element: int
    formal_charge: int = 0
    explicit_h: int = 0
    implicit_h: int = 0
    aromatic: bool = False
    in_ring: bool = False
    index: int = 0

    @property
    def total_h(self) -> int:
        return self.explicit_h + self.implicit_h

    @property
    def symbol(self) -> str:
        return Z_TO_SYMBOL[self.element]


@dataclass
class Bond:
    """An undirected bond between atom indices ``a`` and ``b`` (a != b)."""

    a: int
    b: int
    order: BondOrder
    in_ring: bool = False


@dataclass
class MolecularGraph:
    """Atoms, bonds, and the perceived ring basis of one parsed molecule.

    The graph is not mutated after ``parse_smiles`` returns.  ``rings``
    holds atom-index cycles, one per basis ring; the basis size always
    equals ``bonds - atoms + components``.
    """

    atoms: list[Atom]
    bonds: list[Bond]
    rings: list[list[int]] = field(default_factory=list)
    _adjacency: dict[int, list[tuple[int, int]]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._rebuild_adjacency()

    def _rebuild_adjacency(self) -> None:
        adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(self.atoms))}
        for bond_index, bond in enumerate(self.bonds):
            adj[bond.a].append((bond.b, bond_index))
            adj[bond.b].append((bond.a, bond_index))
        self._adjacency = adj

    def neighbors(self, index: int) -> list[tuple[int, Bond]]:
        """Pairs of (neighbor atom index, connecting bond)."""
        return [(j, self.bonds[b]) for j, b in self._adjacency[index]]

    def neighbor_bond_indices(self, index: int) -> list[tuple[int, int]]:
        """Pairs of (neighbor atom index, bond index)."""
        return self._adjacency[index]

    def bond_between(self, i: int, j: int) -> Bond | None:
        for k, bond_index in self._adjacency[i]:
            if k == j:
                return self.bonds[bond_index]
        return None

    def heavy_degree(self, index: int) -> int:
        return len(self._adjacency[index])

    def connected_components(self) -> list[list[int]]:
        """Atom-index components, each sorted, ordered by smallest member."""
        seen: set[int] = set()
        components: list[list[int]] = []
        for start in range(len(self.atoms)):
            if start in seen:
                continue
            queue = deque([start])
            seen.add(start)
            comp = [start]
            while queue:
                current = queue.popleft()
                for nxt, _ in self._adjacency[current]:
                    if nxt not in seen:
                        seen.add(nxt)
                        comp.append(nxt)
                        queue.append(nxt)
            components.append(sorted(comp))
        return components


# --------------------------------------------------------------------------
# Tokenizer


class TokenKind(Enum):
    ATOM = "atom"
    BRACKET = "bracket"
    BOND = "bond"
    OPEN = "open"
    CLOSE = "close"
    RING = "ring"
    DOT = "dot"


@dataclass
class Token:
    """A lexeme with its position; token texts tile the input exactly."""

    kind: TokenKind
    text: str
    pos: int
    value: int | None = None  # ring-closure number


_BOND_CHARS = {"-", "=", "#", ":", "/", "\\"}


def tokenize(smiles: str) -> list[Token]:
    """Split a SMILES string into positioned tokens.

    The scan is context-free: bracket atoms are captured as single tokens
    (content validated later), and no cross-token constraints are checked
    here, so ``C(`` tokenizes fine.

    Args:
        smiles: Raw SMILES text.

    Returns:
        Tokens in input order; concatenating their texts restores the input.

    Raises:
        UnknownCharacterError: A character outside the grammar.
        UnterminatedBracketError: A ``[`` without a closing ``]``.
    """
    tokens: list[Token] = []
    i = 0
    n = len(smiles)
    while i < n:
        ch = smiles[i]
        if ch == "[":
            end = smiles.find("]", i + 1)
            if end < 0:
                raise UnterminatedBracketError(i)
            tokens.append(Token(TokenKind.BRACKET, smiles[i : end + 1], i))
            i = end + 1
        elif ch in _BOND_CHARS:
            tokens.append(Token(TokenKind.BOND, ch, i))
            i += 1
        elif ch == "(":
            tokens.append(Token(TokenKind.OPEN, ch, i))
            i += 1
        elif ch == ")":
            tokens.append(Token(TokenKind.CLOSE, ch, i))
            i += 1
        elif ch == ".":
            tokens.append(Token(TokenKind.DOT, ch, i))
            i += 1
        elif ch.isdigit():
            tokens.append(Token(TokenKind.RING, ch, i, value=int(ch)))
            i += 1
        elif ch == "%":
            if i + 2 >= n or not smiles[i + 1 : i + 3].isdigit():
                raise UnknownCharacterError(ch, i)
            tokens.append(
                Token(TokenKind.RING, smiles[i : i + 3], i, value=int(smiles[i + 1 : i + 3]))
            )
            i += 3
        elif ch.isalpha():
            two = smiles[i : i + 2]
            if two in ("Cl", "Br"):
                tokens.append(Token(TokenKind.ATOM, two, i))
                i += 2
            elif ch in ORGANIC_SUBSET or ch in BARE_AROMATIC:
                tokens.append(Token(TokenKind.ATOM, ch, i))
                i += 1
            else:
                raise UnknownCharacterError(ch, i)
        else:
            raise UnknownCharacterError(ch, i)
    return tokens


# --------------------------------------------------------------------------
# Bracket-atom grammar

_BRACKET_RE = re.compile(
    r"""\[
        (?P<isotope>\d+)?
        (?P<symbol>[A-Z][a-z]?|as|se|[bcnops])
        (?P<chiral>@{1,2})?
        (?P<hcount>H\d*)?
        (?P<charge>\+{2,}|-{2,}|[+-]\d*)?
        (?::(?P<cls>\d+))?
        \]""",
    re.VERBOSE,
)


def _parse_bracket(token: Token) -> Atom:
    """Decode one ``[...]`` token into an Atom (hydrogens stay explicit)."""
    match = _BRACKET_RE.fullmatch(token.text)
    if match is None:
        # Structure is bracket-like but the content does not follow the
        # grammar; report the first position past '['.
        inner = token.text[1:-1]
        if not inner:
            raise MalformedSmilesError(f"empty bracket atom at position {token.pos}")
        sym_match = re.match(r"[A-Z][a-z]?|as|se|[bcnops]", inner)
        if sym_match is None:
            raise UnsupportedElementError(inner)
        raise MalformedSmilesError(
            f"cannot read bracket atom {token.text!r} at position {token.pos}"
        )
    symbol = match.group("symbol")
    aromatic = False
    if symbol in AROMATIC_SYMBOLS:
        symbol = AROMATIC_SYMBOLS[symbol]
        aromatic = True
    element = SYMBOL_TO_Z.get(symbol)
    if element is None:
        raise UnsupportedElementError(symbol)
    hcount = match.group("hcount")
    explicit_h = 0
    if hcount is not None:
        explicit_h = int(hcount[1:]) if len(hcount) > 1 else 1
    charge_text = match.group("charge")
    charge = 0
    if charge_text:
        if charge_text in ("+", "-"):
            charge = 1 if charge_text == "+" else -1
        elif set(charge_text) == {"+"}:
            charge = len(charge_text)
        elif set(charge_text) == {"-"}:
            charge = -len(charge_text)
        else:
            charge = int(charge_text)
    return Atom(element=element, formal_charge=charge, explicit_h=explicit_h, aromatic=aromatic)


# --------------------------------------------------------------------------
# Parser


@dataclass
class _RingOpening:
    atom: int
    order: BondOrder | None
    pos: int


class _Parser:
    """Token stream to atoms/bonds; one instance per parse call."""

    def __init__(self, smiles: str):
        self.smiles = smiles
        self.atoms: list[Atom] = []
        self.bonds: list[Bond] = []
        self.bracket_atoms: set[int] = set()
        self.prev_atom: int | None = None
        self.pending_order: BondOrder | None = None
        self.branch_stack: list[int | None] = []
        self.ring_openings: dict[int, _RingOpening] = {}

    def run(self) -> None:
        for token in tokenize(self.smiles):
            if token.kind in (TokenKind.ATOM, TokenKind.BRACKET):
                self._add_atom(token)
            elif token.kind == TokenKind.BOND:
                if self.pending_order is not None:
                    raise MalformedSmilesError(
                        f"two bond symbols in a row at position {token.pos}"
                    )
                self.pending_order = self._bond_order(token.text)
            elif token.kind == TokenKind.RING:
                self._ring_closure(token)
            elif token.kind == TokenKind.OPEN:
                if self.prev_atom is None:
                    raise UnbalancedBranchError("branch opened before any atom")
                if self.pending_order is not None:
                    raise MalformedSmilesError(
                        f"bond symbol before '(' at position {token.pos}"
                    )
                self.branch_stack.append(self.prev_atom)
            elif token.kind == TokenKind.CLOSE:
                if not self.branch_stack:
                    raise UnbalancedBranchError("')' without a matching '('")
                if self.pending_order is not None:
                    raise MalformedSmilesError(
                        f"dangling bond symbol before ')' at position {token.pos}"
                    )
                self.prev_atom = self.branch_stack.pop()
            elif token.kind == TokenKind.DOT:
                if self.pending_order is not None:
                    raise MalformedSmilesError(
                        f"bond symbol before '.' at position {token.pos}"
                    )
                self.prev_atom = None
        if self.branch_stack:
            raise UnbalancedBranchError("'(' without a matching ')'")
        if self.ring_openings:
            digit = min(self.ring_openings)
            raise UnclosedRingBondError(digit)
        if self.pending_order is not None:
            raise MalformedSmilesError("dangling bond symbol at end of input")
        if not self.atoms:
            raise MalformedSmilesError("no atoms in input")

    @staticmethod
    def _bond_order(text: str) -> BondOrder:
        if text in ("-", "/", "\\"):
            return BondOrder.SINGLE
        if text == "=":
            return BondOrder.DOUBLE
        if text == "#":
            return BondOrder.TRIPLE
        return BondOrder.AROMATIC

    def _add_atom(self, token: Token) -> None:
        if token.kind == TokenKind.ATOM:
            text = token.text
            if text in BARE_AROMATIC:
                atom = Atom(element=SYMBOL_TO_Z[AROMATIC_SYMBOLS[text]], aromatic=True)
            else:
                atom = Atom(element=SYMBOL_TO_Z[text])
        else:
            atom = _parse_bracket(token)
            self.bracket_atoms.add(len(self.atoms))
        atom.index = len(self.atoms)
        self.atoms.append(atom)
        if self.prev_atom is not None:
            self._connect(self.prev_atom, atom.index, self.pending_order)
        self.pending_order = None
        self.prev_atom = atom.index

    def _connect(self, a: int, b: int, order: BondOrder | None) -> None:
        if order is None:
            if self.atoms[a].aromatic and self.atoms[b].aromatic:
                order = BondOrder.AROMATIC
            else:
                order = BondOrder.SINGLE
        self.bonds.append(Bond(a=a, b=b, order=order))

    def _ring_closure(self, token: Token) -> None:
        if self.prev_atom is None:
            raise MalformedSmilesError(
                f"ring closure before any atom at position {token.pos}"
            )
        number = token.value
        assert number is not None
        opening = self.ring_openings.pop(number, None)
        if opening is None:
            self.ring_openings[number] = _RingOpening(
                self.prev_atom, self.pending_order, token.pos
            )
        else:
            if opening.atom == self.prev_atom:
                raise UnclosedRingBondError(number, "closed on its opening atom")
            if any(
                {bond.a, bond.b} == {opening.atom, self.prev_atom} for bond in self.bonds
            ):
                raise UnclosedRingBondError(number, "duplicates an existing bond")
            order = self.pending_order if self.pending_order is not None else opening.order
            if opening.order is not None and opening.order != order:
                raise MalformedSmilesError(
                    f"ring closure {number} has conflicting bond symbols at position {token.pos}"
                )
            self._connect(opening.atom, self.prev_atom, order)
        self.pending_order = None


# --------------------------------------------------------------------------
# Ring perception


def perceive_rings(graph: MolecularGraph) -> MolecularGraph:
    """Fill ``graph.rings`` with a smallest-cycle basis and set ring flags.

    For each non-tree bond of a breadth-first spanning forest the shortest
    cycle through that bond is taken as a candidate; candidates are sorted
    by length and kept while linearly independent over GF(2) until the
    basis holds exactly ``bonds - atoms + components`` cycles.

    Returns:
        The same graph, mutated in place.
    """
    n_atoms = len(graph.atoms)
    components = graph.connected_components()
    target = len(graph.bonds) - n_atoms + len(components)
    graph.rings = []
    for atom in graph.atoms:
        atom.in_ring = False
    for bond in graph.bonds:
        bond.in_ring = False
    if target <= 0:
        return graph

    tree_bonds: set[int] = set()
    visited: set[int] = set()
    for comp in components:
        root = comp[0]
        visited.add(root)
        queue = deque([root])
        while queue:
            current = queue.popleft()
            for nxt, bond_index in sorted(graph.neighbor_bond_indices(current)):
                if nxt not in visited:
                    visited.add(nxt)
                    tree_bonds.add(bond_index)
                    queue.append(nxt)

    candidates: list[tuple[int, list[int], int]] = []
    for bond_index, bond in enumerate(graph.bonds):
        if bond_index in tree_bonds:
            continue
        # Shortest cycle through the chord wins when independent; the
        # tree-only fundamental cycle guarantees the basis can complete.
        for restrict in (None, tree_bonds):
            path = _shortest_path_avoiding(graph, bond.a, bond.b, bond_index, restrict)
            if path is None:
                continue
            mask = 1 << bond_index
            for u, v in zip(path, path[1:]):
                for nxt, bi in graph.neighbor_bond_indices(u):
                    if nxt == v:
                        mask |= 1 << bi
                        break
            candidates.append((len(path), path, mask))

    candidates.sort(key=lambda item: (item[0], item[1]))
    pivots: dict[int, int] = {}
    selected: list[tuple[list[int], int]] = []
    for _, cycle_atoms, mask in candidates:
        reduced = mask
        while reduced:
            low = reduced & -reduced
            if low not in pivots:
                pivots[low] = reduced
                selected.append((cycle_atoms, mask))
                break
            reduced ^= pivots[low]
        if len(selected) == target:
            break

    for cycle_atoms, mask in selected:
        graph.rings.append(cycle_atoms)
        for atom_index in cycle_atoms:
            graph.atoms[atom_index].in_ring = True
        bond_index = 0
        while mask:
            if mask & 1:
                graph.bonds[bond_index].in_ring = True
            mask >>= 1
            bond_index += 1
    return graph


def _shortest_path_avoiding(
    graph: MolecularGraph,
    start: int,
    goal: int,
    skip_bond: int,
    restrict: set[int] | None = None,
) -> list[int] | None:
    """BFS path from start to goal that never crosses ``skip_bond``.

    When ``restrict`` is given, only bonds in that set may be traversed.
    """
    parents: dict[int, int] = {start: -1}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        if current == goal:
            path = [current]
            while parents[path[-1]] != -1:
                path.append(parents[path[-1]])
            return path
        for nxt, bond_index in sorted(graph.neighbor_bond_indices(current)):
            if bond_index == skip_bond or nxt in parents:
                continue
            if restrict is not None and bond_index not in restrict:
                continue
            parents[nxt] = current
            queue.append(nxt)
    return None


# --------------------------------------------------------------------------
# Aromaticity


def _demote_stray_aromatics(graph: MolecularGraph) -> None:
    """Clear aromatic flags on atoms outside every ring (input repair)."""
    for atom in graph.atoms:
        if atom.aromatic and not atom.in_ring:
            atom.aromatic = False
    for bond in graph.bonds:
        if bond.order == BondOrder.AROMATIC and not (
            graph.atoms[bond.a].aromatic and graph.atoms[bond.b].aromatic
        ):
            bond.order = BondOrder.SINGLE


def _fill_hydrogens(graph: MolecularGraph, bracket_atoms: set[int]) -> None:
    """Assign implicit hydrogen counts and run the valence check.

    Bracket atoms keep whatever hydrogen count they declared.  Bare atoms
    are filled to the smallest standard valence covering their bond-order
    sum; aromatic atoms count each aromatic bond as one plus a single
    shared unit for the delocalized system, and fill only to the lowest
    standard valence.
    """
    for atom in graph.atoms:
        orders = [bond.order for _, bond in graph.neighbors(atom.index)]
        n_aromatic = sum(1 for order in orders if order == BondOrder.AROMATIC)
        # A single, double or triple bond adds its order to the sum.
        plain_sum = sum(int(order) for order in orders if order != BondOrder.AROMATIC)
        valences = DEFAULT_VALENCES.get(atom.element)
        if atom.index in bracket_atoms:
            atom.implicit_h = 0
            if valences is not None:
                # Aromatic bonds count one each with no delocalization unit:
                # a lone-pair donor like pyrrole [nH] sits exactly at its
                # standard valence and must pass.
                aromatic_sum = plain_sum + n_aromatic
                allowed = valences[-1] + max(0, atom.formal_charge)
                if aromatic_sum + atom.explicit_h > allowed:
                    raise InvalidValenceError(
                        atom.index,
                        f"{atom.symbol} with order sum {aromatic_sum} and "
                        f"{atom.explicit_h} explicit hydrogens",
                    )
            continue
        # Bare atoms are always organic-subset, so valences is known.
        assert valences is not None
        if atom.aromatic:
            order_sum = plain_sum + n_aromatic + (1 if n_aromatic else 0)
            if order_sum - 1 > valences[-1]:
                raise InvalidValenceError(
                    atom.index, f"aromatic {atom.symbol} with order sum {order_sum}"
                )
            atom.implicit_h = max(0, valences[0] - order_sum)
        else:
            fitting = [v for v in valences if v >= plain_sum]
            if not fitting:
                raise InvalidValenceError(
                    atom.index, f"{atom.symbol} with order sum {plain_sum}"
                )
            atom.implicit_h = fitting[0] - plain_sum


def perceive_aromaticity(graph: MolecularGraph) -> MolecularGraph:
    """Mark 4n+2 rings aromatic and normalize their bond orders.

    Requires rings to be perceived and hydrogens to be filled.  Each basis
    ring is tested independently with a simplified electron count: an atom
    with a double bond to any ring atom contributes one pi electron, an
    atom with only an exocyclic double bond contributes zero, a heteroatom
    lone pair contributes two.  Rings containing an atom with no such
    contribution (a saturated carbon, say) stay non-aromatic.  Flags are
    only ever added here; lowercase input is trusted as written.

    Returns:
        The same graph, mutated in place.
    """
    for ring in graph.rings:
        ring_set = set(ring)
        pi_total = 0
        single_contributors = 0
        feasible = True
        for atom_index in ring:
            contribution = _pi_contribution(graph, atom_index, ring_set)
            if contribution is None:
                feasible = False
                break
            if contribution == 1:
                single_contributors += 1
            pi_total += contribution
        # A conjugated system needs pi bonds, not just lone pairs; a ring
        # where nothing contributes exactly one electron has none.
        if not feasible or single_contributors < 2 or pi_total % 4 != 2:
            continue
        for atom_index in ring:
            graph.atoms[atom_index].aromatic = True
        cycle = ring + [ring[0]]
        for u, v in zip(cycle, cycle[1:]):
            bond = graph.bond_between(u, v)
            if bond is not None:
                bond.order = BondOrder.AROMATIC
    return graph


def _pi_contribution(graph: MolecularGraph, atom_index: int, ring_set: set[int]) -> int | None:
    """Pi electrons the atom donates to the candidate ring, or None."""
    atom = graph.atoms[atom_index]
    element = atom.element
    charge = atom.formal_charge
    has_ring_double = False
    has_exo_double = False
    for neighbor, bond in graph.neighbors(atom_index):
        if bond.order == BondOrder.TRIPLE:
            return None
        if bond.order == BondOrder.DOUBLE:
            if graph.atoms[neighbor].in_ring and bond.in_ring:
                has_ring_double = True
            else:
                has_exo_double = True
    if atom.aromatic:
        if element == 6:
            return 2 if charge < 0 else (0 if charge > 0 else 1)
        if element in (7, 15):
            return 2 if atom.total_h + graph.heavy_degree(atom_index) >= 3 else 1
        if element in (8, 16, 34):
            return 2
        if element == 5:
            return 0
        return None
    if has_ring_double:
        return 1
    if has_exo_double:
        return 0
    if element == 6:
        if charge < 0:
            return 2
        if charge > 0:
            return 0
        return None
    if element in (7, 15):
        return 2 if charge == 0 else None
    if element in (8, 16, 34):
        return 2 if charge == 0 else None
    if element == 5:
        return 0
    return None


# --------------------------------------------------------------------------
# Entry point


def parse_smiles(smiles: str) -> MolecularGraph:
    """Parse a SMILES string into an annotated molecular graph.

    Args:
        smiles: SMILES text in the supported dialect.

    Returns:
        A graph with ring flags, aromatic flags, and hydrogen counts set.
        Kekule and lowercase-aromatic encodings of the same molecule
        normalize to the same aromatic annotations.

    Raises:
        SmilesError: Any tokenizer or parser failure; see
            :mod:`molcap.errors` for the concrete types.
    """
    parser = _Parser(smiles)
    parser.run()
    graph = MolecularGraph(atoms=parser.atoms, bonds=parser.bonds)
    perceive_rings(graph)
    _demote_stray_aromatics(graph)
    _fill_hydrogens(graph, parser.bracket_atoms)
    perceive_aromaticity(graph)
    return graph
