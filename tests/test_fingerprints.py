"""Tests for circular fingerprint generation.

The 64-bit hash is checked against published FNV-1a test vectors and a
from-scratch reimplementation; environment counts come from hand
enumeration of small molecules (bond sets written out by hand).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from molcap.errors import ConfigError
from molcap.fingerprints import (
    AtomEnvironment,
    Fingerprint,
    fnv1a_64,
    fold_to_bits,
    initial_invariants,
    morgan_fingerprint,
    morgan_iterate,
)
from molcap.smiles import parse_smiles

from util import permute_graph, random_smiles


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
    fp = fold_to_bits([], 2048)
    assert fp.popcount() == 0
    assert fp.nbits == 2048
    assert len(fp.data) == 256


def test_fold_single_environment() -> None:
    env = AtomEnvironment(0, 0, 12345, frozenset())
    fp = fold_to_bits([env], 2048)
    assert fp.popcount() == 1
    assert fp.get_bit(12345 % 2048)


def test_fold_rejects_non_power_of_two() -> None:
    for bad in (0, 1, 2, 4, -8, 100, 2047, 3000):
        with pytest.raises(ConfigError):
            fold_to_bits([], bad)


def test_hex_serialization_roundtrip() -> None:
    fp = morgan_fingerprint(parse_smiles("c1ccc2ccccc2c1O"))
    text = fp.to_hex()
    assert len(text) == 512
    assert text == text.lower()
    restored = Fingerprint.from_hex(text, radius=fp.radius)
    assert restored == fp


def test_bit_packing_is_msb_first() -> None:
    env = AtomEnvironment(0, 0, 0, frozenset())
    fp = fold_to_bits([env], 8)
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
