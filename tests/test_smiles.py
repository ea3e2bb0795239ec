"""Tokenizer, parser, ring perception, and aromaticity tests."""

from __future__ import annotations

import random

import pytest

from molcap.errors import (
    InvalidValenceError,
    MalformedSmilesError,
    MolcapError,
    SmilesError,
    UnbalancedBranchError,
    UnclosedRingBondError,
    UnknownCharacterError,
    UnsupportedElementError,
    UnterminatedBracketError,
)
from molcap.smiles import (
    BondOrder,
    TokenKind,
    parse_smiles,
    perceive_rings,
    tokenize,
)
from util import random_printable, random_smiles

# SMILES, expected atoms, bonds, rings, aromatic-atom count.  Counts were
# derived by hand from the structures.
PARSE_CASES = [
    ("C", 1, 0, 0, 0),
    ("CC", 2, 1, 0, 0),
    ("CCO", 3, 2, 0, 0),
    ("C=C", 2, 1, 0, 0),
    ("C#N", 2, 1, 0, 0),
    ("CC(C)C", 4, 3, 0, 0),
    ("CC(C)(C)C", 5, 4, 0, 0),
    ("CC(=O)O", 4, 3, 0, 0),
    ("C(F)(Cl)Br", 4, 3, 0, 0),
    ("OCC(O)CO", 6, 5, 0, 0),
    ("N(C)CCN(C)C", 7, 6, 0, 0),
    ("C1CC1", 3, 3, 1, 0),
    ("C1CCC1", 4, 4, 1, 0),
    ("C1CCCCC1", 6, 6, 1, 0),
    ("C1CC2CCC1CC2", 8, 9, 2, 0),
    ("C1CC2(CC1)CCC2", 8, 9, 2, 0),
    ("C1CCCCC1C1CCCCC1", 12, 13, 2, 0),
    ("c1ccccc1", 6, 6, 1, 6),
    ("C1=CC=CC=C1", 6, 6, 1, 6),
    ("Cc1ccccc1", 7, 7, 1, 6),
    ("c1ccc2ccccc2c1", 10, 11, 2, 10),
    ("C1=CC2=CC=CC=C2C=C1", 10, 11, 2, 10),
    ("c1ccc2c(c1)ccc1ccccc12", 14, 16, 3, 14),
    ("c1cc[nH]c1", 5, 5, 1, 5),
    ("C1=CC=CN1", 5, 5, 1, 5),
    ("c1ccncc1", 6, 6, 1, 6),
    ("c1ccoc1", 5, 5, 1, 5),
    ("c1ccsc1", 5, 5, 1, 5),
    ("c1cnc[nH]1", 5, 5, 1, 5),
    ("O=C1C=CC(=O)C=C1", 8, 8, 1, 0),
    ("O=[N+]([O-])c1ccccc1", 9, 9, 1, 6),
    ("CC(=O)Oc1ccccc1C(=O)O", 13, 13, 1, 6),
    ("N#Cc1ccc(Cl)cc1", 9, 9, 1, 6),
    ("[Na+].[Cl-]", 2, 0, 0, 0),
    ("CCN.OC=O", 6, 4, 0, 0),
    ("C%10CCCC%10", 5, 5, 1, 0),
    ("C1(CC1)C1CC1", 6, 7, 2, 0),
    ("FC(F)(F)c1ccccc1", 10, 10, 1, 6),
    ("[13CH4]", 1, 0, 0, 0),
    ("[CH3:7]O", 2, 1, 0, 0),
    ("F/C=C/F", 4, 3, 0, 0),
    ("N[C@H](C)C(=O)O", 6, 5, 0, 0),
    ("[se]1cccc1", 5, 5, 1, 5),
    ("[SiH4]", 1, 0, 0, 0),
]


def test_token_counts_for_kekule_benzene():
    tokens = tokenize("C1=CC=CC=C1")
    kinds = [t.kind for t in tokens]
    assert kinds.count(TokenKind.ATOM) == 6
    assert kinds.count(TokenKind.BOND) == 3
    assert kinds.count(TokenKind.RING) == 2
    assert all(t.text == "=" for t in tokens if t.kind == TokenKind.BOND)


def test_tokens_tile_the_input():
    inputs = [case[0] for case in PARSE_CASES] + ["C%12CC%12", "[O-]S(=O)(=O)[O-]"]
    for smiles in inputs:
        tokens = tokenize(smiles)
        cursor = 0
        for token in tokens:
            assert token.pos == cursor
            cursor += len(token.text)
        assert cursor == len(smiles)


def test_tokenize_is_context_free():
    # 'C(' is fine at the token level; only the parser rejects it.
    kinds = [t.kind for t in tokenize("C(")]
    assert kinds == [TokenKind.ATOM, TokenKind.OPEN]


def test_unknown_character_position():
    with pytest.raises(UnknownCharacterError) as info:
        tokenize("CC?C")
    assert info.value.position == 2
    with pytest.raises(UnknownCharacterError) as info:
        tokenize("Cx")
    assert info.value.position == 1


def test_unterminated_bracket_position():
    with pytest.raises(UnterminatedBracketError) as info:
        tokenize("CC[NH2")
    assert info.value.position == 2


@pytest.mark.parametrize("smiles,n_atoms,n_bonds,n_rings,n_aromatic", PARSE_CASES)
def test_parse_corpus(smiles, n_atoms, n_bonds, n_rings, n_aromatic):
    graph = parse_smiles(smiles)
    assert len(graph.atoms) == n_atoms
    assert len(graph.bonds) == n_bonds
    assert len(graph.rings) == n_rings
    assert sum(a.aromatic for a in graph.atoms) == n_aromatic


def test_implicit_hydrogens_on_ethanol():
    graph = parse_smiles("CCO")
    assert [a.total_h for a in graph.atoms] == [3, 2, 1]
    assert all(a.explicit_h == 0 for a in graph.atoms)


def test_bracket_hydrogens_stay_explicit():
    graph = parse_smiles("[NH4+]")
    atom = graph.atoms[0]
    assert atom.explicit_h == 4
    assert atom.implicit_h == 0
    assert atom.formal_charge == 1


def test_charge_parsing():
    assert parse_smiles("[O-]").atoms[0].formal_charge == -1
    assert parse_smiles("[Fe+2]").atoms[0].formal_charge == 2
    assert parse_smiles("[Fe++]").atoms[0].formal_charge == 2
    assert parse_smiles("[O-2]").atoms[0].formal_charge == -2


def test_stereo_markers_discarded():
    plain = parse_smiles("NC(C)C(=O)O")
    tagged = parse_smiles("N[C@@H](C)C(=O)O")
    assert [a.element for a in plain.atoms] == [a.element for a in tagged.atoms]
    assert [a.total_h for a in plain.atoms] == [a.total_h for a in tagged.atoms]
    slash = parse_smiles("F/C=C\\F")
    assert [b.order for b in slash.bonds] == [
        BondOrder.SINGLE,
        BondOrder.DOUBLE,
        BondOrder.SINGLE,
    ]


def test_benzene_encodings_identical():
    kekule = parse_smiles("C1=CC=CC=C1")
    aromatic = parse_smiles("c1ccccc1")
    assert kekule.atoms == aromatic.atoms
    assert kekule.bonds == aromatic.bonds
    assert kekule.rings == aromatic.rings
    assert all(b.order == BondOrder.AROMATIC for b in kekule.bonds)
    assert all(a.total_h == 1 for a in kekule.atoms)


def test_pyrrole_hydrogen_survives_normalization():
    kekule = parse_smiles("C1=CC=CN1")
    nitrogen = next(a for a in kekule.atoms if a.element == 7)
    assert nitrogen.total_h == 1
    assert nitrogen.aromatic


def test_saturated_and_cross_conjugated_rings_not_aromatic():
    assert not any(a.aromatic for a in parse_smiles("C1CCCCC1").atoms)
    assert not any(a.aromatic for a in parse_smiles("O=C1C=CC(=O)C=C1").atoms)
    assert not any(a.aromatic for a in parse_smiles("C1=CC=C1").atoms)  # 4n


def test_ring_count_matches_cyclomatic_number():
    corpus = [case[0] for case in PARSE_CASES]
    for smiles in corpus:
        graph = parse_smiles(smiles)
        expected = len(graph.bonds) - len(graph.atoms) + len(graph.connected_components())
        assert len(graph.rings) == expected, smiles


def test_ring_flags_consistent():
    for smiles in ["C1CC2CCC1CC2", "c1ccc2ccccc2c1", "CC1CCCCC1", "C1CC1CC"]:
        graph = parse_smiles(smiles)
        flagged = {a.index for a in graph.atoms if a.in_ring}
        from_rings = {i for ring in graph.rings for i in ring}
        assert flagged == from_rings
        for bond in graph.bonds:
            if bond.in_ring:
                assert graph.atoms[bond.a].in_ring and graph.atoms[bond.b].in_ring


def test_aromatic_implies_ring():
    for smiles in [case[0] for case in PARSE_CASES]:
        graph = parse_smiles(smiles)
        for atom in graph.atoms:
            if atom.aromatic:
                assert atom.in_ring, smiles


def test_stray_lowercase_demoted():
    graph = parse_smiles("cc")
    assert not any(a.aromatic for a in graph.atoms)
    assert graph.bonds[0].order == BondOrder.SINGLE
    assert [a.total_h for a in graph.atoms] == [3, 3]


def test_valence_errors():
    with pytest.raises(InvalidValenceError) as info:
        parse_smiles("CC(C)(C)(C)(C)C")
    assert info.value.atom_index == 1
    with pytest.raises(InvalidValenceError):
        parse_smiles("O(C)(C)C")
    # Hypervalent sulfur and phosphorus are standard.
    assert parse_smiles("CS(=O)(=O)C").atoms[1].implicit_h == 0
    assert parse_smiles("OP(=O)(O)O").atoms[1].implicit_h == 0
    # Positive charge raises the cap.
    assert parse_smiles("C[N+](C)(C)C").atoms[1].formal_charge == 1


def test_unsupported_bare_elements():
    with pytest.raises(UnknownCharacterError):
        parse_smiles("CFe")  # reads F, then 'e' is unknown
    with pytest.raises(UnsupportedElementError):
        parse_smiles("[Xx]")
    # Any real element is fine inside brackets.
    assert parse_smiles("[Pt](Cl)Cl").atoms[0].element == 78


def test_branch_and_ring_errors():
    with pytest.raises(UnbalancedBranchError):
        parse_smiles("C(C")
    with pytest.raises(UnbalancedBranchError):
        parse_smiles("CC)C")
    with pytest.raises(UnclosedRingBondError) as info:
        parse_smiles("C1CC")
    assert info.value.digit == 1
    with pytest.raises(UnclosedRingBondError):
        parse_smiles("C11")
    with pytest.raises(UnclosedRingBondError):
        parse_smiles("C12CC12")  # second closure duplicates the first bond


@pytest.mark.parametrize("smiles", ["C=1CCCCC=1", "C=1CCCCC1", "C1CCCCC=1"])
def test_ring_closure_bond_symbol_on_one_or_both_ends(smiles):
    graph = parse_smiles(smiles)
    assert graph.bond_between(0, 5).order == BondOrder.DOUBLE


@pytest.mark.parametrize("smiles", ["C=1CCCCC-1", "C-1CCCCC=1", "C#1CCCC=1", "C=%12CCCCC-%12"])
def test_ring_closure_with_conflicting_bond_symbols_fails(smiles):
    with pytest.raises(MalformedSmilesError, match="conflicting bond symbols"):
        parse_smiles(smiles)


def test_two_digit_ring_closure():
    graph = parse_smiles("C%10CCCC%10")
    assert len(graph.rings) == 1
    assert len(graph.rings[0]) == 5


def test_dot_separated_components():
    graph = parse_smiles("[Na+].[Cl-]")
    assert len(graph.connected_components()) == 2
    assert graph.bonds == []


def test_parse_is_deterministic():
    first = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
    second = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
    assert first.atoms == second.atoms
    assert first.bonds == second.bonds
    assert first.rings == second.rings


def test_valence_invariant_on_random_molecules():
    from molcap.elements import DEFAULT_VALENCES

    rng = random.Random(20240817)
    for _ in range(300):
        smiles = random_smiles(rng)
        graph = parse_smiles(smiles)
        for atom in graph.atoms:
            if atom.formal_charge != 0 or atom.element not in DEFAULT_VALENCES:
                continue
            plain = sum(
                int(bond.order)
                for _, bond in graph.neighbors(atom.index)
                if bond.order != BondOrder.AROMATIC
            )
            n_aromatic = sum(
                1
                for _, bond in graph.neighbors(atom.index)
                if bond.order == BondOrder.AROMATIC
            )
            limit = DEFAULT_VALENCES[atom.element][-1]
            # Aromatic members get one unit of slack for the shared
            # delocalized bond.
            slack = 1 if n_aromatic else 0
            assert plain + n_aromatic + atom.total_h <= limit + slack, smiles


def test_generated_smiles_roundtrip_structure():
    rng = random.Random(11)
    for _ in range(200):
        smiles = random_smiles(rng)
        graph = parse_smiles(smiles)
        expected_rings = (
            len(graph.bonds) - len(graph.atoms) + len(graph.connected_components())
        )
        assert len(graph.rings) == expected_rings


def test_fuzz_only_typed_errors():
    rng = random.Random(99)
    for _ in range(5000):
        text = random_printable(rng)
        try:
            parse_smiles(text)
        except MolcapError:
            pass


def test_rings_reperceived_idempotently():
    graph = parse_smiles("C1CC2CCC1CC2")
    rings_before = [list(r) for r in graph.rings]
    perceive_rings(graph)
    assert [list(r) for r in graph.rings] == rings_before
