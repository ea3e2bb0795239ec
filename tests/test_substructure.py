"""Tests for the query language and subgraph matcher.

The matcher is checked against a brute-force oracle that enumerates all
injective atom assignments with itertools.permutations and re-implements
every predicate directly on atom fields, sharing no search code with the
module under test.  On molecules too large for the oracle it is checked
against a reference copy of the earlier index-order matcher.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from molcap.errors import MalformedPatternError, UnsupportedPrimitiveError
from molcap.fingerprints import initial_invariants, morgan_hashes
from molcap.maccs import load_key_definitions
from molcap.smiles import BondOrder, MolecularGraph, parse_smiles
from molcap.substructure import (
    ChunkIndex,
    MatchResult,
    MoleculeIndex,
    QueryAtom,
    QueryBond,
    QueryPattern,
    embedded_molecules,
    match_subgraph,
    parse_query,
)

from util import WIDE_MOLECULES, featurize_corpus, permute_graph, random_smiles


# --------------------------------------------------------------------------
# Brute-force oracle


def _oracle_atom_ok(graph: MolecularGraph, index: int, qa: QueryAtom) -> bool:
    atom = graph.atoms[index]
    if qa.elements is not None:
        if qa.negate_elements:
            if atom.element in qa.elements:
                return False
        else:
            if atom.element not in qa.elements:
                return False
    if qa.aromatic is True and not atom.aromatic:
        return False
    if qa.aromatic is False and atom.aromatic:
        return False
    if qa.in_ring is True and not atom.in_ring:
        return False
    if qa.in_ring is False and atom.in_ring:
        return False
    if qa.charge == "nonzero":
        if atom.formal_charge == 0:
            return False
    elif qa.charge is not None and atom.formal_charge != qa.charge:
        return False
    if qa.min_degree is not None and len(graph.neighbors(index)) < qa.min_degree:
        return False
    if qa.min_h is not None and atom.total_h < qa.min_h:
        return False
    return True


def _oracle_bond_ok(order: BondOrder, kind: str) -> bool:
    if kind == "any":
        return True
    if kind == "default":
        return order == BondOrder.SINGLE or order == BondOrder.AROMATIC
    table = {"single": 1, "double": 2, "triple": 3, "aromatic": 4}
    return int(order) == table[kind]


def oracle_match_sets(graph: MolecularGraph, query: QueryPattern) -> set[frozenset[int]]:
    """All distinct matched-atom sets, by exhaustive enumeration."""
    k = len(query.atoms)
    found: set[frozenset[int]] = set()
    for perm in itertools.permutations(range(len(graph.atoms)), k):
        if not all(_oracle_atom_ok(graph, perm[q], query.atoms[q]) for q in range(k)):
            continue
        ok = True
        for qb in query.bonds:
            bond = graph.bond_between(perm[qb.a], perm[qb.b])
            if bond is None or not _oracle_bond_ok(bond.order, qb.kind):
                ok = False
                break
        if ok:
            found.add(frozenset(perm))
    return found


# --------------------------------------------------------------------------
# Hand-derived pattern counts

HAND_COUNTS = [
    # (pattern, smiles, expected distinct matches)
    ("C", "CCO", 2),
    ("O", "CCO", 1),
    ("CC", "CCO", 1),
    ("CO", "CCO", 1),
    ("OO", "CCO", 0),
    ("*", "CCO", 3),
    ("C", "c1ccccc1", 0),
    ("c", "c1ccccc1", 6),
    ("cc", "c1ccccc1", 6),
    ("ccc", "c1ccccc1", 6),
    ("cccccc", "c1ccccc1", 1),
    ("c1ccccc1", "c1ccccc1", 1),
    ("c1ccccc1", "c1ccc2ccccc2c1", 2),
    ("a", "c1ccncc1", 6),
    ("aa", "c1ccncc1", 6),
    ("[a]", "c1ccoc1", 5),
    ("A", "c1ccccc1C", 1),
    ("n", "c1ccncc1", 1),
    ("[#7,#8]", "NCCO", 2),
    ("[!#6]", "CCO", 1),
    ("[!#6]", "c1ccccc1", 0),
    ("[!#6;!#1]", "CC(=O)N", 2),
    ("[R]", "C1CC1C", 3),
    ("[R0]", "C1CC1C", 1),
    ("[D3]", "CC(C)C", 1),
    ("[D2]", "CCCC", 2),
    ("[H2]", "CCC", 3),
    ("[H3]", "CCC", 2),
    ("[+]", "C[N+](C)(C)C", 1),
    ("[-]", "CC(=O)[O-]", 1),
    ("[!+0]", "C[N+](=O)[O-]", 2),
    ("C=C", "C=CC", 1),
    ("C=C", "CCC", 0),
    ("C#N", "CC#N", 1),
    ("C~C", "C=C", 1),
    ("C~C", "CC", 1),
    ("C:C", "c1ccccc1", 0),
    ("[#6]:[#6]", "c1ccccc1", 6),
    ("C-C", "c1ccccc1", 0),
    ("CC(C)C", "CC(C)(C)C", 4),
    ("CCC", "C1CC1", 1),
    ("C1CC1", "C1CC1", 1),
    ("C1CC1", "CCC", 0),
    ("[O;R]", "C1CCOC1", 1),
    ("[#8]=[#6]", "CC(=O)C", 1),
    ("[OH]", "OCCO", 2),
    ("[CH3]", "CC(C)C", 3),
]


@pytest.mark.parametrize("pattern,smiles,expected", HAND_COUNTS)
def test_hand_counts(pattern: str, smiles: str, expected: int) -> None:
    graph = parse_smiles(smiles)
    result = match_subgraph(graph, parse_query(pattern))
    assert result.count == expected, f"{pattern} in {smiles}"
    if expected > 0:
        assert result.first_mapping is not None
        assert len(result.first_mapping) == len(parse_query(pattern).atoms)
    else:
        assert result.first_mapping is None


def test_hand_counts_agree_with_oracle() -> None:
    for pattern, smiles, expected in HAND_COUNTS:
        graph = parse_smiles(smiles)
        sets = oracle_match_sets(graph, parse_query(pattern))
        assert len(sets) == expected, f"oracle disagrees on {pattern} in {smiles}"


def test_path_counts_in_chains() -> None:
    # A k-atom path in an n-atom chain has n - k + 1 placements.
    for n in range(1, 9):
        chain = parse_smiles("C" * n)
        for k in range(1, 9):
            query = parse_query("C" * k)
            expected = max(0, n - k + 1)
            assert match_subgraph(chain, query).count == expected


def test_first_mapping_is_valid_embedding() -> None:
    graph = parse_smiles("CC(=O)OC")
    query = parse_query("[#6]=[#8]")
    result = match_subgraph(graph, query)
    assert result.count == 1
    mapping = result.first_mapping
    assert mapping is not None
    a, b = mapping
    bond = graph.bond_between(a, b)
    assert bond is not None and bond.order == BondOrder.DOUBLE
    assert graph.atoms[a].element == 6
    assert graph.atoms[b].element == 8


# --------------------------------------------------------------------------
# Reference matcher: the earlier search, which starts from the
# highest-degree query atom, scans every molecule atom at depth 0 and
# recomputes its visit order on every call.


def reference_match_subgraph(
    graph: MolecularGraph, query: QueryPattern, max_count: int | None = None
) -> MatchResult:
    k = len(query.atoms)
    n = len(graph.atoms)
    if k == 0 or k > n or (max_count is not None and max_count <= 0):
        return MatchResult(0, None)

    order = _reference_query_order(query)
    anchors: list[tuple[int, list[tuple[int, int]]]] = []
    placed: set[int] = set()
    for q in order:
        back = [(nb, bi) for nb, bi in query.neighbors(q) if nb in placed]
        anchors.append((q, back))
        placed.add(q)

    matches: set[frozenset[int]] = set()
    first: list[tuple[int, ...] | None] = [None]
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def extend(depth: int) -> bool:
        if depth == k:
            key = frozenset(assignment.values())
            if key not in matches:
                matches.add(key)
                if first[0] is None:
                    first[0] = tuple(assignment[q] for q in range(k))
                if max_count is not None and len(matches) >= max_count:
                    return True
            return False
        q, back = anchors[depth]
        if depth == 0:
            candidates: list[int] | range = range(n)
        else:
            anchor = assignment[back[0][0]]
            candidates = sorted(m for m, _ in graph.neighbor_bond_indices(anchor))
        for m in candidates:
            if m in used or not _oracle_atom_ok(graph, m, query.atoms[q]):
                continue
            ok = True
            for nb, bond_index in back:
                bond = graph.bond_between(assignment[nb], m)
                if bond is None or not _oracle_bond_ok(bond.order, query.bonds[bond_index].kind):
                    ok = False
                    break
            if not ok:
                continue
            assignment[q] = m
            used.add(m)
            if extend(depth + 1):
                return True
            del assignment[q]
            used.remove(m)
        return False

    extend(0)
    return MatchResult(len(matches), first[0])


def _reference_query_order(query: QueryPattern) -> list[int]:
    k = len(query.atoms)
    start = max(range(k), key=lambda q: (query.degree(q), -q))
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
        assert best is not None
        order.append(best)
        seen.add(best)
    return order


def _is_embedding(
    graph: MolecularGraph, query: QueryPattern, mapping: tuple[int, ...]
) -> bool:
    if len(mapping) != len(query.atoms) or len(set(mapping)) != len(mapping):
        return False
    if not all(_oracle_atom_ok(graph, m, qa) for qa, m in zip(query.atoms, mapping)):
        return False
    for qb in query.bonds:
        bond = graph.bond_between(mapping[qb.a], mapping[qb.b])
        if bond is None or not _oracle_bond_ok(bond.order, qb.kind):
            return False
    return True


def test_key_patterns_match_reference_on_corpus() -> None:
    keys = [d for d in load_key_definitions() if d.query is not None]
    for smiles in featurize_corpus():
        graph = parse_smiles(smiles)
        index = MoleculeIndex(ChunkIndex([graph]), 0)
        for d in keys:
            for cap in (None, d.threshold):
                expected = reference_match_subgraph(graph, d.query, max_count=cap)
                result = match_subgraph(graph, d.query, max_count=cap, index=index)
                assert result.count == expected.count, (smiles, d.index, cap)
                if expected.count:
                    assert _is_embedding(graph, d.query, result.first_mapping)
                else:
                    assert result.first_mapping is None


# SHA-256 over the (count, first_mapping) reprs of every pattern key on
# every ``featurize_corpus()`` molecule, exact and capped at the key's
# threshold, recorded with the list-and-set matcher.  The corpus test
# above only checks that a first mapping is some embedding; this pins
# which one, so it also catches a change in search order.
MATCH_RESULTS_SHA256 = "e678455cd606150acf15a4004b40b4136b6e45640ca8071eb472f8e7ab467dec"


def test_key_pattern_results_match_recorded_digest() -> None:
    keys = [d for d in load_key_definitions() if d.query is not None]
    digest = hashlib.sha256()
    for smiles in featurize_corpus():
        graph = parse_smiles(smiles)
        index = MoleculeIndex(ChunkIndex([graph]), 0)
        for d in keys:
            for cap in (None, d.threshold):
                result = match_subgraph(graph, d.query, max_count=cap, index=index)
                digest.update(repr((result.count, result.first_mapping)).encode())
    assert digest.hexdigest() == MATCH_RESULTS_SHA256


def test_key_patterns_match_reference_past_atom_63() -> None:
    keys = [d for d in load_key_definitions() if d.query is not None]
    for smiles in WIDE_MOLECULES:
        graph = parse_smiles(smiles)
        assert len(graph.atoms) > 64
        index = MoleculeIndex(ChunkIndex([graph]), 0)
        beyond_one_word = 0
        for d in keys:
            expected = reference_match_subgraph(graph, d.query)
            result = match_subgraph(graph, d.query, index=index)
            assert result.count == expected.count, (smiles, d.index)
            if result.first_mapping is not None:
                assert _is_embedding(graph, d.query, result.first_mapping)
                beyond_one_word += min(result.first_mapping) >= 64
        assert beyond_one_word >= 5, smiles


def test_candidate_masks_agree_with_atom_predicates() -> None:
    # The views of one chunk's molecules slice its boolean candidate
    # arrays at each molecule's offset; every slice must pack to the
    # atoms the oracle accepts.
    rng = random.Random(5)
    queries = [d.query for d in load_key_definitions() if d.query is not None]
    queries += [_random_query(rng) for _ in range(200)]
    queries += [parse_query(p) for p in ("[+]", "[-2]", "[!+0]", "[D4]", "[H0]", "[!#6;!#7]")]
    graphs = [parse_smiles(s) for s in featurize_corpus(count=30) + ["C[N+](C)(C)C.[O-2]"]]
    chunk = ChunkIndex(graphs)
    for row, graph in enumerate(graphs):
        index = MoleculeIndex(chunk, row)
        for query in queries:
            expected = [
                sum(1 << m for m in range(len(graph.atoms)) if _oracle_atom_ok(graph, m, atom))
                for atom in query.atoms
            ]
            assert index.candidates(query) == expected, (row, query)


def test_join_agrees_with_oracle_on_random_pairs() -> None:
    rng = random.Random(4343)
    graphs = [parse_smiles(random_smiles(rng, max_atoms=8)) for _ in range(40)]
    chunk = ChunkIndex(graphs)
    queries = [_random_query(rng) for _ in range(150)]
    queries += [parse_query(p) for p in ("C1CC1", "*1~*~*~*~1", "c1ccccc1", "C=O", "*")]
    for query in queries:
        found = embedded_molecules(chunk, query)
        assert found.dtype == bool and found.shape == (len(graphs),)
        expected = [bool(oracle_match_sets(graph, query)) for graph in graphs]
        assert found.tolist() == expected, query


def test_join_on_empty_and_bondless_chunks() -> None:
    query = parse_query("C~C")
    assert embedded_molecules(ChunkIndex([]), query).tolist() == []
    graphs = [parse_smiles(s) for s in ("C", "[Na+].[Cl-]", "CC")]
    assert embedded_molecules(ChunkIndex(graphs), query).tolist() == [False, False, True]
    assert embedded_molecules(ChunkIndex(graphs[:2]), parse_query("C1CC1")).tolist() == [False, False]
    # The Morgan hashing reads the same tables: one entry per molecule,
    # none for an empty chunk, and only round-0 values where no atom is
    # bonded, whatever the radius.
    assert morgan_hashes(ChunkIndex([]), 2) == []
    hashes = morgan_hashes(ChunkIndex(graphs[:2]), 2)
    assert [h.tolist() for h in hashes] == [sorted(set(initial_invariants(g))) for g in graphs[:2]]


def test_shared_index_gives_the_same_result_as_a_fresh_one() -> None:
    graph = parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O")
    index = MoleculeIndex(ChunkIndex([graph]), 0)
    for pattern in ("c1ccccc1", "C(=O)O", "[CH3]C", "[!#6]", "cC", "N"):
        query = parse_query(pattern)
        assert match_subgraph(graph, query, index=index) == match_subgraph(graph, query)
    with pytest.raises(ValueError):
        match_subgraph(parse_smiles("CCO"), parse_query("C"), index=index)
    # Views at non-zero offsets of one chunk, including molecules past
    # one 64-bit word, give what the molecule alone gives.
    keys = [d.query for d in load_key_definitions() if d.query is not None]
    smiles = ("CCO", WIDE_MOLECULES[0], "c1ccccc1O", WIDE_MOLECULES[3], "CC(=O)[O-]")
    graphs = [parse_smiles(s) for s in smiles]
    chunk = ChunkIndex(graphs)
    for row, graph in enumerate(graphs):
        view = MoleculeIndex(chunk, row)
        assert view.bond_masks == MoleculeIndex(ChunkIndex([graph]), 0).bond_masks, row
        atoms = slice(chunk.starts[row], chunk.starts[row + 1])
        for query in keys:
            expected = [
                sum(1 << m for m, hit in enumerate(mask[atoms].tolist()) if hit)
                for mask, _ in chunk.candidates(query)
            ]
            assert view.candidates(query) == expected, (row, query.text)
            for cap in (1, 2, 3, 4):
                result = match_subgraph(graph, query, cap, view)
                assert result == match_subgraph(graph, query, cap), (row, query.text, cap)
    with pytest.raises(ValueError):
        match_subgraph(graphs[0], parse_query("C"), index=MoleculeIndex(chunk, 1))


# --------------------------------------------------------------------------
# Randomized agreement with the oracle


def _random_query(rng: random.Random) -> QueryPattern:
    k = rng.randint(1, 4)
    atoms = []
    for _ in range(k):
        qa = QueryAtom()
        roll = rng.random()
        if roll < 0.45:
            qa.elements = frozenset({rng.choice([6, 7, 8, 16])})
        elif roll < 0.60:
            qa.elements = frozenset({6, rng.choice([7, 8])})
        elif roll < 0.70:
            qa.elements = frozenset({6})
            qa.negate_elements = True
        if rng.random() < 0.25:
            qa.aromatic = rng.random() < 0.5
        if rng.random() < 0.20:
            qa.in_ring = rng.random() < 0.5
        if rng.random() < 0.15:
            qa.min_degree = rng.randint(1, 3)
        if rng.random() < 0.15:
            qa.min_h = rng.randint(1, 2)
        if rng.random() < 0.10:
            qa.charge = 0
        atoms.append(qa)
    bonds = []
    kinds = ["default", "default", "single", "double", "any", "aromatic"]
    for i in range(1, k):
        bonds.append(QueryBond(rng.randint(0, i - 1), i, rng.choice(kinds)))
    if k >= 3 and rng.random() < 0.3:
        i, j = sorted(rng.sample(range(k), 2))
        if all(not (b.a == i and b.b == j) for b in bonds):
            bonds.append(QueryBond(i, j, "any"))
    return QueryPattern(atoms=atoms, bonds=bonds, text="random")


def test_matcher_agrees_with_oracle_on_random_pairs() -> None:
    rng = random.Random(4242)
    checked = 0
    for _ in range(500):
        graph = parse_smiles(random_smiles(rng, max_atoms=8))
        query = _random_query(rng)
        expected_sets = oracle_match_sets(graph, query)
        result = match_subgraph(graph, query)
        assert result.count == len(expected_sets)
        if result.first_mapping is not None:
            assert frozenset(result.first_mapping) in expected_sets
        checked += 1
    assert checked == 500


def test_count_invariant_under_atom_relabeling() -> None:
    rng = random.Random(77)
    patterns = [parse_query(p) for p in ("CC", "C~C", "[!#6]", "ccc", "C(C)C")]
    for _ in range(60):
        graph = parse_smiles(random_smiles(rng, max_atoms=9))
        perm = list(range(len(graph.atoms)))
        rng.shuffle(perm)
        shuffled = permute_graph(graph, perm)
        for query in patterns:
            assert (
                match_subgraph(graph, query).count
                == match_subgraph(shuffled, query).count
            )


def test_match_is_deterministic() -> None:
    graph = parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O")
    query = parse_query("c1ccccc1")
    first = match_subgraph(graph, query)
    second = match_subgraph(graph, query)
    assert first == second
    assert isinstance(first, MatchResult)


# --------------------------------------------------------------------------
# Early exit


def test_max_count_truncates_exactly() -> None:
    benzene = parse_smiles("c1ccccc1")
    query = parse_query("cc")
    for cap in range(0, 9):
        result = match_subgraph(benzene, query, max_count=cap)
        assert result.count == min(6, cap)


def test_max_count_zero_returns_no_mapping() -> None:
    result = match_subgraph(parse_smiles("CC"), parse_query("C"), max_count=0)
    assert result == MatchResult(0, None)


def test_max_count_none_is_exact() -> None:
    graph = parse_smiles("CCCCCCCC")
    assert match_subgraph(graph, parse_query("CC"), max_count=None).count == 7


# --------------------------------------------------------------------------
# Query parsing details


def test_bracket_conjunction_separators() -> None:
    for text in ("[#6;R]", "[#6&R]", "[#6R]"):
        query = parse_query(text)
        qa = query.atoms[0]
        assert qa.elements == frozenset({6})
        assert qa.in_ring is True


def test_mixed_case_element_list_drops_aromatic_pin() -> None:
    qa = parse_query("[C,c]").atoms[0]
    assert qa.elements == frozenset({6})
    assert qa.aromatic is None


def test_uppercase_list_pins_aliphatic() -> None:
    qa = parse_query("[O,S]").atoms[0]
    assert qa.elements == frozenset({8, 16})
    assert qa.aromatic is False


def test_negated_element_list_is_complement() -> None:
    qa = parse_query("[!#6;!#7]").atoms[0]
    assert qa.elements == frozenset({6, 7})
    assert qa.negate_elements is True


def test_charge_tokens() -> None:
    assert parse_query("[+]").atoms[0].charge == 1
    assert parse_query("[++]").atoms[0].charge == 2
    assert parse_query("[-]").atoms[0].charge == -1
    assert parse_query("[+2]").atoms[0].charge == 2
    assert parse_query("[-3]").atoms[0].charge == -3
    assert parse_query("[!+0]").atoms[0].charge == "nonzero"


def test_h_and_degree_defaults() -> None:
    assert parse_query("[H]").atoms[0].min_h == 1
    assert parse_query("[D]").atoms[0].min_degree == 1
    assert parse_query("[H0]").atoms[0].min_h == 0
    assert parse_query("[D4]").atoms[0].min_degree == 4


def test_two_letter_elements_in_brackets() -> None:
    assert parse_query("[Hg]").atoms[0].elements == frozenset({80})
    assert parse_query("[Se]").atoms[0].elements == frozenset({34})
    assert parse_query("[se]").atoms[0].aromatic is True
    assert parse_query("[Cl]").atoms[0].elements == frozenset({17})


def test_ring_closure_with_bond_symbol() -> None:
    # On either end, or the same symbol on both.
    for pattern in ("C=1CCCCC1", "C1CCCCC=1", "C=1CCCCC=1"):
        query = parse_query(pattern)
        ring_bond = [b for b in query.bonds if {b.a, b.b} == {0, 5}]
        assert len(ring_bond) == 1 and ring_bond[0].kind == "double"


@pytest.mark.parametrize("pattern", ["C-1CCC=1", "C=1CCC-1", "C~1CCC-1", "C:1ccc=1"])
def test_ring_closure_with_conflicting_bond_symbols_fails(pattern: str) -> None:
    with pytest.raises(MalformedPatternError) as excinfo:
        parse_query(pattern)
    assert excinfo.value.position == len(pattern) - 1


def test_percent_ring_closure() -> None:
    query = parse_query("C%11CCCCC%11")
    assert len(query.bonds) == 6


def test_branching_structure() -> None:
    query = parse_query("CC(C)(C)C")
    center = 1
    assert query.degree(center) == 4


def test_query_text_is_kept() -> None:
    assert parse_query("CCO").text == "CCO"
    assert parse_query("CCO", text_label="ethanol-ish").text == "ethanol-ish"


# --------------------------------------------------------------------------
# Errors

MALFORMED = ["", "C(", "C)C", "C1CC", "C--C", "C=", "(C)", "1CC", "[]C", "[Cr3]", "C%1C"]


@pytest.mark.parametrize("pattern", MALFORMED)
def test_malformed_patterns(pattern: str) -> None:
    with pytest.raises(MalformedPatternError):
        parse_query(pattern)


UNSUPPORTED = [
    "[$([CX3])]",
    "[C@H]",
    "C/C=C/C",
    "[Cx2]",
    "[C!R]",
    "[Cv4]",
    "C.C",
    "[Zz]",
    "[C,!#7]",
    "[r5]",
]


@pytest.mark.parametrize("pattern", UNSUPPORTED)
def test_unsupported_primitives(pattern: str) -> None:
    with pytest.raises(UnsupportedPrimitiveError):
        parse_query(pattern)


def test_malformed_error_carries_position() -> None:
    with pytest.raises(MalformedPatternError) as excinfo:
        parse_query("CC)C")
    assert excinfo.value.position == 2


def test_unsupported_error_carries_token() -> None:
    with pytest.raises(UnsupportedPrimitiveError) as excinfo:
        parse_query("C/C")
    assert excinfo.value.token == "/"


def test_pattern_parse_error_carries_unclosed_ring() -> None:
    with pytest.raises(MalformedPatternError) as excinfo:
        parse_query("C1CCC")
    assert "1" in str(excinfo.value)
