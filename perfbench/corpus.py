"""Frozen, seeded molecule generators for the benchmark workloads.

The random-molecule generator is a frozen copy of the one the test suite
uses, plus an optional fixed atom count, so that edits to the test
helpers cannot silently change what a workload measures.  Every function here is a pure function of its seed
argument: the same seed gives the same SMILES strings and labels.
"""

from __future__ import annotations

import random
from typing import Iterator

# Hand-written drug-like molecules.  Every entry parses; a few, such as
# the bridged quinine, exercise the layout failure path.
DRUG_LIKE = (
    "CC(=O)Oc1ccccc1C(=O)O",
    "CC(=O)Nc1ccc(O)cc1",
    "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
    "Cn1cnc2c1c(=O)n(C)c(=O)n2C",
    "CN1CCCC1c1cccnc1",
    "CCOC(=O)c1ccc(N)cc1",
    "CCN(CC)CC(=O)Nc1c(C)cccc1C",
    "CCN(CC)CCOC(=O)c1ccc(N)cc1",
    "O=C(O)c1ccccc1O",
    "CN(C)C(=N)NC(=N)N",
    "CN(C)CCOC(c1ccccc1)c1ccccc1",
    "COc1ccc2cc(ccc2c1)C(C)C(=O)O",
    "CN1C(=O)CN=C(c2ccccc2)c2cc(Cl)ccc21",
    "CNCCC(Oc1ccc(cc1)C(F)(F)F)c1ccccc1",
    "Cc1cc(NS(=O)(=O)c2ccc(N)cc2)no1",
    "CCC1(C(=O)NC(=O)NC1=O)c1ccccc1",
    "Cn1c2c(c(=O)n(C)c1=O)[nH]cn2",
    "COc1ccc2c(c1)c(CC(=O)O)c(C)n2C(=O)c1ccc(Cl)cc1",
    "CC(C(=O)O)c1cccc(c1)C(=O)c1ccccc1",
    "CC(C)NCC(O)COc1ccc(CC(N)=O)cc1",
    "CC(C)NCC(O)COc1cccc2ccccc12",
    "CC(=O)CC(c1ccccc1)c1c(O)c2ccccc2oc1=O",
    "NC(=O)N1c2ccccc2C=Cc2ccccc21",
    "CN(C)CCCN1c2ccccc2Sc2ccc(Cl)cc21",
    "O=C(CCCN1CCC(O)(CC1)c1ccc(Cl)cc1)c1ccc(F)cc1",
    "Cc1ccnc2c1NC(=O)c1cccnc1N2C1CC1",
    "Nc1nc2c(ncn2COCCO)c(=O)[nH]1",
    "NCCc1ccc(O)c(O)c1",
    "NCCc1c[nH]c2ccc(O)cc12",
    "CNCC(O)c1ccc(O)c(O)c1",
    "OCC1OC(O)C(O)C(O)C1O",
    "OC(=O)c1cn(C2CC2)c2cc(N3CCNCC3)c(F)cc2c1=O",
    "COc1ccc2[nH]c(nc2c1)S(=O)Cc1ncc(C)c(OC)c1C",
    "CCC(=C(c1ccccc1)c1ccc(OCCN(C)C)cc1)c1ccccc1",
    "CC12CCC3C(CCC4=CC(=O)CCC34C)C1CCC2O",
    "COc1ccc2nccc(C(O)C3CC4CCN3CC4C=C)c2c1",
    "CC(C)(C)NCC(O)c1ccc(O)c(CO)c1",
    "Clc1ccc(cc1)C(c1ccccc1)N1CCN(CC1)CCOCC(=O)O",
    "CS(=O)(=O)Nc1ccc(cc1)C(O)CNC(C)C",
    "O=C1CN=C(c2ccccc2)c2cc(Cl)ccc2N1",
)

_CAPACITY = {"C": 4, "N": 3, "O": 2, "S": 2, "P": 3, "F": 1, "Cl": 1, "Br": 1, "I": 1}
_WEIGHTED = ["C"] * 8 + ["N", "N", "O", "O", "S", "F", "Cl", "Br", "P", "I"]
_BOND_TEXT = {1: "", 2: "=", 3: "#"}


def random_smiles(
    rng: random.Random,
    max_atoms: int = 10,
    ring_bias: float = 0.5,
    elements: list[str] | None = None,
    atoms: int | None = None,
) -> str:
    """A random valid SMILES string: a valence-bounded spanning tree over
    1..max_atoms atoms (or exactly ``atoms``), up to two ring closures, and
    a few bond upgrades."""
    pool = elements if elements is not None else _WEIGHTED
    n = rng.randint(1, max_atoms) if atoms is None else atoms
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


def _write_smiles(symbols: list[str], adjacency: dict[int, dict[int, int]]) -> str:
    """Serialize a connected graph by depth-first traversal."""
    visited: set[int] = set()
    ring_digits: dict[tuple[int, int], int] = {}
    tree: dict[int, list[int]] = {i: [] for i in adjacency}
    back_edges: dict[int, list[int]] = {i: [] for i in adjacency}
    stack = [0]
    seen = {0}
    parent: dict[int, int] = {0: -1}
    while stack:
        node = stack.pop()
        for nxt in sorted(adjacency[node]):
            if nxt not in seen:
                seen.add(nxt)
                parent[nxt] = node
                tree[node].append(nxt)
                stack.append(nxt)
            elif parent[node] != nxt and (min(node, nxt), max(node, nxt)) not in ring_digits:
                ring_digits[(min(node, nxt), max(node, nxt))] = len(ring_digits) + 1
                back_edges[node].append(nxt)
                back_edges[nxt].append(node)

    pieces: list[str] = []

    def emit(node: int) -> None:
        visited.add(node)
        pieces.append(symbols[node])
        for other in back_edges[node]:
            digit = ring_digits[(min(node, other), max(node, other))]
            bond = _BOND_TEXT[adjacency[node][other]]
            pieces.append(f"{bond}%{digit:02d}" if digit > 9 else f"{bond}{digit}")
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


def featurize_corpus(seed: int, ring_rich: int, acyclic: int) -> list[tuple[str, int]]:
    """The featurize workload's (smiles, label) rows: the drug-like list,
    ring-rich random molecules and small acyclic ones, shuffled.

    Atom counts cycle through 1..25 (ring-rich) and 1..8 (acyclic) rather
    than being drawn, so the corpus's featurize cost varies less between
    seeds; everything else about each molecule is random."""
    rng = random.Random(seed)
    smiles = list(DRUG_LIKE)
    smiles += [random_smiles(rng, 25, 0.7, atoms=1 + i % 25) for i in range(ring_rich)]
    smiles += [random_smiles(rng, 8, 0.0, atoms=1 + i % 8) for i in range(acyclic)]
    rng.shuffle(smiles)
    return [(s, rng.randint(0, 1)) for s in smiles]


def training_candidates(seed: int) -> Iterator[str]:
    """Endless SMILES for the rasters the default model trains on: the
    drug-like list in seeded order, then ring-rich random molecules."""
    rng = random.Random(seed)
    smiles = list(DRUG_LIKE)
    rng.shuffle(smiles)
    yield from smiles
    while True:
        yield random_smiles(rng, max_atoms=25, ring_bias=0.7)


def desk_corpus(seed: int, count: int) -> list[tuple[str, int]]:
    """Tiny molecules for the desk pipeline, labelled 1 when the molecule
    holds an oxygen atom, so a small model can learn the labels fast."""
    rng = random.Random(seed)
    rows = []
    for i in range(count):
        # Alternate the element pool so both labels stay common.
        pool = ["C", "C", "N", "O"] if i % 2 else ["C", "C", "N", "S"]
        smiles = random_smiles(rng, max_atoms=6, ring_bias=0.3, elements=pool)
        rows.append((smiles, int("O" in smiles)))
    return rows
