"""Tests for circular fingerprint generation.

The 64-bit hash is checked against published FNV-1a test vectors and a
from-scratch reimplementation; environment counts come from hand
enumeration of small molecules (bond sets written out by hand).  The
batched core is checked against a reference copy of the earlier
one-molecule loop, which it must match environment for environment.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from molcap.errors import ConfigError
from molcap.fingerprints import (
    AtomEnvironment,
    Fingerprint,
    _hash_rows,
    fnv1a_64,
    fold_to_bits,
    initial_invariants,
    morgan_fingerprint,
    morgan_hashes,
    morgan_iterate,
)
from molcap.smiles import MolecularGraph, parse_smiles
from molcap.substructure import ChunkIndex

from util import DRUG_LIKE, WIDE_MOLECULES, permute_graph, random_smiles


# --------------------------------------------------------------------------
# Hash primitive


def _oracle_fnv(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) % 2**64
    return h


def test_fnv1a_published_vectors() -> None:
    # Reference values from the FNV specification.
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


def test_fnv1a_matches_reimplementation() -> None:
    rng = random.Random(11)
    for _ in range(200):
        data = rng.randbytes(rng.randint(0, 64))
        assert fnv1a_64(data) == _oracle_fnv(data)


def test_initial_invariants_match_pinned_encoding() -> None:
    # Ethanol atoms: terminal C, middle C, O.  Encode the documented
    # tuples by hand and hash with the oracle.
    graph = parse_smiles("CCO")
    tuples = [
        (6, 1, 0, 3, 0, 0),
        (6, 2, 0, 2, 0, 0),
        (8, 1, 0, 1, 0, 0),
    ]
    expected = [
        _oracle_fnv(b"".join(v.to_bytes(8, "big", signed=True) for v in t))
        for t in tuples
    ]
    assert initial_invariants(graph) == expected


def test_negative_charge_enters_encoding_in_twos_complement() -> None:
    graph = parse_smiles("[O-]")
    tup = (8, 0, -1, 0, 0, 0)
    data = b"".join((v % 2**64).to_bytes(8, "big") for v in tup)
    assert initial_invariants(graph) == [_oracle_fnv(data)]


# --------------------------------------------------------------------------
# Hand-enumerated environment counts


def test_methane_single_environment() -> None:
    envs = morgan_iterate(parse_smiles("C"), 2)
    assert len(envs) == 1
    assert envs[0].radius == 0
    assert envs[0].bond_set == frozenset()


def test_ethane_two_environments() -> None:
    envs = morgan_iterate(parse_smiles("CC"), 2)
    # Symmetric atoms share a round-0 hash; both round-1 environments
    # cover the single bond, so one survives; round 2 cannot grow.
    assert len(envs) == 2
    assert sorted(e.radius for e in envs) == [0, 1]
    assert envs[1].bond_set == frozenset({0})


def test_ethanol_environment_census() -> None:
    envs = morgan_iterate(parse_smiles("CCO"), 2)
    r0 = [e for e in envs if e.radius == 0]
    assert len({e.hash for e in r0}) == 3
    # Round 1 bond sets {b0}, {b0,b1}, {b1} are all new; every round-2
    # set collapses to {b0,b1} which round 1 already covered.
    assert 4 <= len(envs) <= 6
    assert len(envs) == 6
    assert all(e.radius <= 1 for e in envs)


def test_two_isolated_atoms() -> None:
    envs = morgan_iterate(parse_smiles("[Na+].[Cl-]"), 2)
    assert len(envs) == 2
    assert all(e.radius == 0 for e in envs)


def test_popcounts_on_small_molecules() -> None:
    assert morgan_fingerprint(parse_smiles("C")).popcount() == 1
    assert morgan_fingerprint(parse_smiles("CC")).popcount() <= 2
    assert morgan_fingerprint(parse_smiles("CCO")).popcount() <= 6


def test_popcount_bounded_by_environment_count() -> None:
    rng = random.Random(5)
    for _ in range(50):
        graph = parse_smiles(random_smiles(rng, max_atoms=12))
        envs = morgan_iterate(graph, 2)
        assert morgan_fingerprint(graph).popcount() <= len(envs)


# --------------------------------------------------------------------------
# Environment structural invariants


def test_radius_zero_environments_have_empty_bond_sets() -> None:
    rng = random.Random(6)
    for _ in range(30):
        graph = parse_smiles(random_smiles(rng, max_atoms=10))
        for env in morgan_iterate(graph, 2):
            assert (env.radius == 0) == (len(env.bond_set) == 0)


def test_bond_sets_grow_with_radius_per_center() -> None:
    rng = random.Random(7)
    for _ in range(30):
        graph = parse_smiles(random_smiles(rng, max_atoms=10))
        by_center: dict[int, list[AtomEnvironment]] = {}
        for env in morgan_iterate(graph, 3):
            by_center.setdefault(env.center, []).append(env)
        for envs in by_center.values():
            envs.sort(key=lambda e: e.radius)
            for earlier, later in zip(envs, envs[1:]):
                assert earlier.bond_set < later.bond_set


def test_retained_environments_are_radius_monotone() -> None:
    # Generating at a larger radius only appends environments.
    rng = random.Random(8)
    for _ in range(30):
        graph = parse_smiles(random_smiles(rng, max_atoms=10))
        previous: list[AtomEnvironment] = []
        for radius in range(4):
            current = morgan_iterate(graph, radius)
            assert current[: len(previous)] == previous
            previous = current


def test_radius_zero_fingerprint_folds_invariants_alone() -> None:
    rng = random.Random(9)
    for _ in range(30):
        graph = parse_smiles(random_smiles(rng, max_atoms=10))
        fp = morgan_fingerprint(graph, radius=0)
        expected_bits = {h % fp.nbits for h in initial_invariants(graph)}
        actual_bits = {i for i in range(fp.nbits) if fp.get_bit(i)}
        assert actual_bits == expected_bits


# --------------------------------------------------------------------------
# Whole-fingerprint properties


def test_atom_order_does_not_matter() -> None:
    assert morgan_fingerprint(parse_smiles("CCO")) == morgan_fingerprint(
        parse_smiles("OCC")
    )


def test_kekule_and_aromatic_benzene_agree() -> None:
    assert morgan_fingerprint(parse_smiles("c1ccccc1")) == morgan_fingerprint(
        parse_smiles("C1=CC=CC=C1")
    )


def test_permutation_invariance_on_random_molecules() -> None:
    rng = random.Random(1234)
    for _ in range(200):
        graph = parse_smiles(random_smiles(rng, max_atoms=12))
        perm = list(range(len(graph.atoms)))
        rng.shuffle(perm)
        shuffled = permute_graph(graph, perm)
        assert morgan_fingerprint(graph) == morgan_fingerprint(shuffled)


def test_halving_width_or_folds_the_vector() -> None:
    rng = random.Random(21)
    for _ in range(40):
        graph = parse_smiles(random_smiles(rng, max_atoms=12))
        wide = morgan_fingerprint(graph, nbits=2048).to_array()
        narrow = morgan_fingerprint(graph, nbits=1024).to_array()
        assert np.array_equal(narrow, wide[:1024] | wide[1024:])


def test_deterministic_across_calls() -> None:
    graph = parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O")
    assert morgan_fingerprint(graph) == morgan_fingerprint(graph)


def test_distinct_molecules_distinct_fingerprints() -> None:
    a = morgan_fingerprint(parse_smiles("CCO"))
    b = morgan_fingerprint(parse_smiles("CCN"))
    assert a != b


# --------------------------------------------------------------------------
# Folding and serialization


def test_fold_empty_is_all_zero() -> None:
    fp = fold_to_bits([], 2048, radius=2)
    assert fp.popcount() == 0
    assert fp.nbits == 2048
    assert len(fp.data) == 256


def test_fold_single_environment() -> None:
    env = AtomEnvironment(0, 0, 12345, frozenset())
    fp = fold_to_bits([env], 2048, radius=0)
    assert fp.popcount() == 1
    assert fp.get_bit(12345 % 2048)


def test_fold_needs_the_generation_radius() -> None:
    # Deduplication retains no radius-2 environment of ethanol, so its
    # largest retained radius (1) is not the generation radius.
    graph = parse_smiles("CCO")
    envs = morgan_iterate(graph, 2)
    assert max(env.radius for env in envs) == 1
    with pytest.raises(TypeError):
        fold_to_bits(envs, 2048)
    folded = fold_to_bits(envs, 2048, radius=2)
    assert folded.radius == 2
    assert folded == morgan_fingerprint(graph, 2)


def test_fold_rejects_non_power_of_two() -> None:
    for bad in (0, 1, 2, 4, -8, 100, 2047, 3000):
        with pytest.raises(ConfigError):
            fold_to_bits([], bad, radius=2)


def test_hex_serialization_roundtrip() -> None:
    fp = morgan_fingerprint(parse_smiles("c1ccc2ccccc2c1O"))
    text = fp.to_hex()
    assert len(text) == 512
    assert text == text.lower()
    restored = Fingerprint.from_hex(text, radius=fp.radius)
    assert restored == fp


def test_bit_packing_is_msb_first() -> None:
    env = AtomEnvironment(0, 0, 0, frozenset())
    fp = fold_to_bits([env], 8, radius=0)
    assert fp.data == b"\x80"
    assert fp.get_bit(0) and not fp.get_bit(7)


def test_to_array_matches_get_bit() -> None:
    fp = morgan_fingerprint(parse_smiles("CCO"))
    arr = fp.to_array()
    assert arr.shape == (2048,)
    assert arr.dtype == np.uint8
    for i in range(0, 2048, 17):
        assert bool(arr[i]) == fp.get_bit(i)
    assert int(arr.sum()) == fp.popcount()


def test_from_hex_rejects_widths_the_module_refuses() -> None:
    for text in ("", "ffffff", "00" * 5, "ab" * 48):
        with pytest.raises(ConfigError):
            Fingerprint.from_hex(text)
    assert Fingerprint.from_hex("80").nbits == 8


def test_negative_radius_fails_loudly() -> None:
    graph = parse_smiles("CCO")
    with pytest.raises(ConfigError, match="radius must be at least 0"):
        morgan_fingerprint(graph, radius=-1)
    with pytest.raises(ConfigError):
        morgan_iterate(graph, -1)
    with pytest.raises(ConfigError):
        morgan_hashes(ChunkIndex([graph]), -1)
    with pytest.raises(ConfigError):
        morgan_fingerprint(graph, radius=-1, hashes=morgan_hashes(ChunkIndex([graph]), 0)[0])
    with pytest.raises(ConfigError):
        fold_to_bits(morgan_iterate(graph, 1), 2048, radius=-1)
    with pytest.raises(ConfigError):
        Fingerprint.from_hex("00" * 256, radius=-1)


# --------------------------------------------------------------------------
# Batched core against the one-molecule reference loop


def _reference_hash_ints(values: list[int]) -> int:
    """Hash integers via their fixed 8-byte big-endian encodings."""
    return fnv1a_64(b"".join((v % 2**64).to_bytes(8, "big") for v in values))


def reference_morgan_iterate(graph: MolecularGraph, radius: int) -> list[AtomEnvironment]:
    """The earlier one-molecule loop: invariants, rounds and bond-set dedup."""
    n = len(graph.atoms)
    hashes = [
        _reference_hash_ints(
            [atom.element, graph.heavy_degree(i), atom.formal_charge, atom.total_h,
             int(atom.in_ring), int(atom.aromatic)]
        )
        for i, atom in enumerate(graph.atoms)
    ]
    retained: list[AtomEnvironment] = []
    seen_hashes: set[int] = set()
    for center in sorted(range(n), key=lambda i: (hashes[i], i)):
        if hashes[center] not in seen_hashes:
            seen_hashes.add(hashes[center])
            retained.append(AtomEnvironment(center, 0, hashes[center], frozenset()))

    bond_sets: list[frozenset[int]] = [frozenset() for _ in range(n)]
    seen_bond_sets: set[frozenset[int]] = {frozenset()}
    for r in range(1, radius + 1):
        new_hashes: list[int] = []
        new_sets: list[frozenset[int]] = []
        for center in range(n):
            pairs = sorted(
                (int(graph.bonds[b].order), hashes[nb])
                for nb, b in graph.neighbor_bond_indices(center)
            )
            flat = [r, hashes[center]]
            for order, neighbor_hash in pairs:
                flat += [order, neighbor_hash]
            new_hashes.append(_reference_hash_ints(flat))
            covered = {b for _, b in graph.neighbor_bond_indices(center)}
            for nb, _ in graph.neighbor_bond_indices(center):
                covered |= bond_sets[nb]
            new_sets.append(frozenset(covered))
        for center in sorted(range(n), key=lambda i: (new_hashes[i], i)):
            if new_sets[center] not in seen_bond_sets:
                seen_bond_sets.add(new_sets[center])
                retained.append(
                    AtomEnvironment(center, r, new_hashes[center], new_sets[center])
                )
        hashes = new_hashes
        bond_sets = new_sets
    return retained


def reference_fold(envs: list[AtomEnvironment], nbits: int) -> bytes:
    buffer = bytearray(nbits // 8)
    for env in envs:
        bit = env.hash % nbits
        buffer[bit >> 3] |= 0x80 >> (bit & 7)
    return bytes(buffer)


# Charged atoms (negative charges enter the invariant in two's
# complement), several components and isolated atoms.
_ODD_SMILES = (
    "[Na+].[Cl-]",
    "[O-]C(=O)CC[N+](C)(C)C.[K+]",
    "C.C.C",
    "[Fe+3].[Cl-].[Cl-].[Cl-]",
    "c1ccccc1.O.[NH4+]",
    "[O-][N+](=O)c1ccc(cc1)[S-]",
    "CC(=O)[O-].[Ca+2].CC(=O)[O-]",
    "C1CC1.C1CC1",
    "[CH3-]",
)


def _reference_corpus() -> list[MolecularGraph]:
    rng = random.Random(0)
    smiles = [random_smiles(rng, max_atoms=25, ring_bias=0.7) for _ in range(500)]
    rng = random.Random(5)
    smiles += [random_smiles(rng, max_atoms=40) for _ in range(200)]
    smiles += list(WIDE_MOLECULES) + list(DRUG_LIKE) + list(_ODD_SMILES)
    return [parse_smiles(s) for s in smiles]


def test_core_matches_reference_loop() -> None:
    graphs = _reference_corpus()
    assert any(len(g.bonds) > 64 for g in graphs)
    for radius in range(4):
        batched = morgan_hashes(ChunkIndex(graphs), radius)
        assert len(batched) == len(graphs)
        for graph, hashes in zip(graphs, batched):
            expected = reference_morgan_iterate(graph, radius)
            assert morgan_iterate(graph, radius) == expected
            assert hashes.dtype == np.uint64
            assert hashes.tolist() == [env.hash for env in expected]
            for nbits in (8, 2048):
                data = reference_fold(expected, nbits)
                assert morgan_fingerprint(graph, radius, nbits).data == data
                assert morgan_fingerprint(graph, radius, nbits, hashes=hashes).data == data


def test_molecule_hashes_the_same_alone_and_among_wider_ones() -> None:
    # Molecules of more than 64 bonds widen the chunk's bond-set masks to
    # several words; a narrow molecule's environments must not change.
    wide = [parse_smiles(s) for s in WIDE_MOLECULES]
    for smiles in DRUG_LIKE + _ODD_SMILES:
        graph = parse_smiles(smiles)
        alone = morgan_hashes(ChunkIndex([graph]), 3)[0].tolist()
        among = morgan_hashes(ChunkIndex(wide[:2] + [graph] + wide[2:]), 3)[2].tolist()
        assert among == alone


def test_row_hash_matches_fnv1a_on_every_word_value() -> None:
    # Words of 2**63 and above, negatives in two's complement, zero, and
    # byte columns that are zero in every row.
    rows = [
        [0, 0, 0],
        [-1, 2**63 - 1, 5],
        [-(2**63), 1, 0],
        [7, -2, 2**40],
        [0, 255, -256],
    ]
    words = np.array(rows, dtype=np.int64)
    expected = [_reference_hash_ints(row) for row in rows]
    assert _hash_rows(words).tolist() == expected
    unsigned = np.array([[2**63, 2**64 - 1], [2**63 + 5, 0]], dtype=np.uint64)
    assert _hash_rows(unsigned).tolist() == [
        _reference_hash_ints([2**63, 2**64 - 1]),
        _reference_hash_ints([2**63 + 5, 0]),
    ]
    assert _hash_rows(np.zeros((4, 2), dtype=np.uint64)).tolist() == [
        fnv1a_64(bytes(16))
    ] * 4
    assert _hash_rows(np.zeros((0, 3), dtype=np.int64)).shape == (0,)
    rng = random.Random(3)
    for width in (1, 2, 6, 10):
        values = [[rng.choice((0, 1, -1, rng.getrandbits(64) - 2**63)) for _ in range(width)]
                  for _ in range(20)]
        got = _hash_rows(np.array(values, dtype=np.int64)).tolist()
        assert got == [_reference_hash_ints(row) for row in values]
