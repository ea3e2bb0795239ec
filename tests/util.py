"""Shared test helpers: random molecule generation and graph reshuffling.

The generator builds a random connected graph under valence budgets and
serializes it, so every produced string is parseable by construction.  It
is intentionally independent of the package's own SMILES writer-free
design: tests use it as a source of varied, valid inputs.
"""

from __future__ import annotations

import random

from molcap.smiles import Atom, Bond, MolecularGraph, perceive_rings

# Hand-written drug-like molecules: fused aromatics, heteroaromatics,
# charged groups and a bridged polycyclic (quinine), beside the random ones.
DRUG_LIKE = (
    "CC(=O)Oc1ccccc1C(=O)O",
    "CC(=O)Nc1ccc(O)cc1",
    "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
    "Cn1cnc2c1c(=O)n(C)c(=O)n2C",
    "CN1CCCC1c1cccnc1",
    "CN(C)C(=N)NC(=N)N",
    "COc1ccc2cc(ccc2c1)C(C)C(=O)O",
    "CN1C(=O)CN=C(c2ccccc2)c2cc(Cl)ccc21",
    "Cc1cc(NS(=O)(=O)c2ccc(N)cc2)no1",
    "CCC1(C(=O)NC(=O)NC1=O)c1ccccc1",
    "CN(C)CCCN1c2ccccc2Sc2ccc(Cl)cc21",
    "OC(=O)CCc1c[nH]c2ccccc12",
    "C[N+](C)(C)CCOC(C)=O",
    "O=[N+]([O-])c1ccc(Cl)cc1",
    "COc1ccc2nccc(C(O)C3CC4CCN3CC4C=C)c2c1",
    "CC1(C)SC2C(NC(=O)Cc3ccccc3)C(=O)N2C1C(=O)O",
)

# Molecules of more than 64 heavy atoms whose heteroatoms, rings and
# charged groups sit past atom 63, so substructure masks must be wider
# than one machine word.
WIDE_MOLECULES = (
    "C" * 64 + "c1ccc(cc1)C(=O)Nc1ccc(Cl)cc1S(=O)(=O)N",
    "NCC(=O)" * 22 + "NC(CS)C(=O)O",
    "C" * 65 + "1CCC2(CC1)OCCO2.Brc1cc[nH]c1C#N",
    "c1ccc2ccccc2c1" + "CCc1ccc(cc1)" * 8 + "C[N+](C)(C)CC(=O)[O-]",
)

_CAPACITY = {"C": 4, "N": 3, "O": 2, "S": 2, "P": 3, "F": 1, "Cl": 1, "Br": 1, "I": 1}
_WEIGHTED = ["C"] * 8 + ["N", "N", "O", "O", "S", "F", "Cl", "Br", "P", "I"]


def random_smiles(
    rng: random.Random,
    max_atoms: int = 10,
    ring_bias: float = 0.5,
    elements: list[str] | None = None,
) -> str:
    """Build a random valid SMILES string.

    A random spanning tree over 1..max_atoms atoms is grown under per-element
    valence budgets, extra ring-closing edges are added where capacity
    allows, and a few single bonds are upgraded to doubles or triples.
    """
    pool = elements if elements is not None else _WEIGHTED
    n = rng.randint(1, max_atoms)
    symbols = [rng.choice(pool) for _ in range(n)]
    spare = [_CAPACITY[s] for s in symbols]
    adjacency: dict[int, dict[int, int]] = {i: {} for i in range(n)}

    for i in range(1, n):
        parents = [j for j in range(i) if spare[j] >= 1]
        if not parents:
            symbols[i - 1] = "C"
            spare[i - 1] = _CAPACITY["C"] - len(adjacency[i - 1])
            parents = [i - 1]
        parent = rng.choice(parents)
        adjacency[parent][i] = 1
        adjacency[i][parent] = 1
        spare[parent] -= 1
        spare[i] -= 1

    # Ring-closing edges between non-adjacent atoms with spare valence.
    n_rings = rng.randint(0, 2) if rng.random() < ring_bias and n >= 3 else 0
    for _ in range(n_rings):
        options = [
            (i, j)
            for i in range(n)
            for j in range(i + 2, n)
            if spare[i] >= 1 and spare[j] >= 1 and j not in adjacency[i]
        ]
        if not options:
            break
        i, j = rng.choice(options)
        adjacency[i][j] = 1
        adjacency[j][i] = 1
        spare[i] -= 1
        spare[j] -= 1

    # Upgrade some bonds.
    for i in range(n):
        for j in list(adjacency[i]):
            if j <= i:
                continue
            if spare[i] >= 2 and spare[j] >= 2 and rng.random() < 0.08:
                adjacency[i][j] = adjacency[j][i] = 3
                spare[i] -= 2
                spare[j] -= 2
            elif spare[i] >= 1 and spare[j] >= 1 and rng.random() < 0.15:
                adjacency[i][j] = adjacency[j][i] = 2
                spare[i] -= 1
                spare[j] -= 1

    return _write_smiles(symbols, adjacency)


_BOND_TEXT = {1: "", 2: "=", 3: "#"}


def _write_smiles(symbols: list[str], adjacency: dict[int, dict[int, int]]) -> str:
    """Serialize a connected graph by depth-first traversal."""
    visited: set[int] = set()
    ring_digits: dict[tuple[int, int], int] = {}
    next_digit = [1]

    # Assign ring-closure digits to back edges found by DFS.
    tree: dict[int, list[int]] = {i: [] for i in adjacency}
    back_edges: dict[int, list[int]] = {i: [] for i in adjacency}
    stack = [0]
    seen = {0}
    order: dict[int, int] = {0: 0}
    parent: dict[int, int] = {0: -1}
    counter = 1
    while stack:
        node = stack.pop()
        for nxt in sorted(adjacency[node]):
            if nxt not in seen:
                seen.add(nxt)
                order[nxt] = counter
                counter += 1
                parent[nxt] = node
                tree[node].append(nxt)
                stack.append(nxt)
            elif parent[node] != nxt and (min(node, nxt), max(node, nxt)) not in ring_digits:
                key = (min(node, nxt), max(node, nxt))
                ring_digits[key] = next_digit[0]
                next_digit[0] += 1
                back_edges[node].append(nxt)
                back_edges[nxt].append(node)

    pieces: list[str] = []

    def emit(node: int) -> None:
        visited.add(node)
        pieces.append(symbols[node])
        for other in back_edges[node]:
            key = (min(node, other), max(node, other))
            digit = ring_digits[key]
            bond = _BOND_TEXT[adjacency[node][other]]
            if digit > 9:
                pieces.append(f"{bond}%{digit:02d}")
            else:
                pieces.append(f"{bond}{digit}")
        children = [c for c in tree[node] if c not in visited]
        for k, child in enumerate(children):
            bond = _BOND_TEXT[adjacency[node][child]]
            if k < len(children) - 1:
                pieces.append("(" + bond)
                emit(child)
                pieces.append(")")
            else:
                pieces.append(bond)
                emit(child)

    emit(0)
    return "".join(pieces)


def permute_graph(graph: MolecularGraph, perm: list[int]) -> MolecularGraph:
    """Relabel atoms so old index i becomes perm[i]; rings re-perceived."""
    n = len(graph.atoms)
    atoms = [None] * n
    for old, atom in enumerate(graph.atoms):
        atoms[perm[old]] = Atom(
            element=atom.element,
            formal_charge=atom.formal_charge,
            explicit_h=atom.explicit_h,
            implicit_h=atom.implicit_h,
            aromatic=atom.aromatic,
            in_ring=atom.in_ring,
            index=perm[old],
        )
    bonds = [
        Bond(a=min(perm[b.a], perm[b.b]), b=max(perm[b.a], perm[b.b]), order=b.order)
        for b in graph.bonds
    ]
    bonds.sort(key=lambda bond: (bond.a, bond.b))
    permuted = MolecularGraph(atoms=atoms, bonds=bonds)
    perceive_rings(permuted)
    return permuted


def random_printable(rng: random.Random, max_len: int = 40) -> str:
    """Random fuzz string biased toward SMILES-looking characters."""
    alphabet = "CNOSPFIclnorb=#()[]1234567890%+-@/\\.HBKagZx*$ \t"
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def featurize_corpus(count: int = 120, seed: int = 0) -> list[str]:
    """The drug-like molecules plus ``count`` seeded ring-rich random ones."""
    rng = random.Random(seed)
    return list(DRUG_LIKE) + [
        random_smiles(rng, max_atoms=25, ring_bias=0.7) for _ in range(count)
    ]
