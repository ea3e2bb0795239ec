"""Tests for structural key loading and evaluation.

Key evaluation is cross-checked two ways: against full-count matcher
calls without the early-exit cap (every key, 50 molecules), and against
the permutation brute-force oracle from the substructure tests on the
small-pattern subset.  The chunk-wide key pass is checked the same two
ways, key by key, in chunks and one molecule at a time.
"""

from __future__ import annotations

import hashlib
import pickle
import random
import sys

import numpy as np
import pytest

from molcap import substructure
from molcap.errors import KeyFileError, MissingKeyError, PatternParseError
from molcap.maccs import (
    N_KEYS,
    KeyVector,
    default_key_path,
    evaluate_keys,
    key_answers,
    load_key_definitions,
)
from molcap.smiles import parse_smiles
from molcap.substructure import ChunkIndex, MoleculeIndex, match_subgraph

from test_substructure import oracle_match_sets
from util import DRUG_LIKE, WIDE_MOLECULES, featurize_corpus, permute_graph, random_smiles

CORPUS = [
    "C",
    "CC",
    "CCO",
    "OCCO",
    "CC(C)C",
    "CC(C)(C)C",
    "C=C",
    "C#N",
    "CC(=O)O",
    "CC(=O)N",
    "CC(=O)OC",
    "NCC(=O)O",
    "C1CC1",
    "C1CCC1",
    "C1CCCC1",
    "C1CCCCC1",
    "C1CCOC1",
    "C1CCNC1",
    "C1CCCCCC1",
    "c1ccccc1",
    "c1ccncc1",
    "c1ccoc1",
    "c1ccsc1",
    "c1cc[nH]c1",
    "c1ccc2ccccc2c1",
    "Cc1ccccc1",
    "Oc1ccccc1",
    "Nc1ccccc1",
    "Clc1ccccc1",
    "c1ccc(cc1)C(=O)O",
    "CSC",
    "CS(=O)C",
    "CCS",
    "CN(C)C",
    "C[N+](C)(C)C",
    "CC(=O)[O-]",
    "C[Si](C)(C)C",
    "OP(=O)(O)O",
    "FC(F)F",
    "ClCCl",
    "BrCCBr",
    "ICCI",
    "CCOC(=O)CC(=O)OCC",
    "O=C1CCCCC1",
    "O=C1CCCN1",
    "CC1=CC(=O)CC(C)(C)C1",
    "CN1CCC[C@H]1c1cccnc1",
    "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
    "[Na+].[Cl-]",
    "c1ccc2c(c1)cccc2O",
]


@pytest.fixture(scope="module")
def definitions():
    return load_key_definitions()


# --------------------------------------------------------------------------
# Loading


def test_default_file_loads_clean(definitions) -> None:
    assert len(definitions) == N_KEYS == 167
    assert [d.index for d in definitions] == list(range(167))
    for d in definitions:
        if d.kind in ("pattern", "pattern-count"):
            assert d.query is not None, d.index
        elif d.kind == "element-count":
            assert d.elements, d.index
        elif d.kind == "ring-size":
            assert d.ring_size is not None and d.ring_size >= 3
        else:
            assert d.kind == "always-zero"
        assert d.threshold >= 1
        assert d.description


def test_key_zero_is_reserved(definitions) -> None:
    assert definitions[0].kind == "always-zero"


def test_always_zero_keys_document_a_reason(definitions) -> None:
    for d in definitions:
        if d.kind == "always-zero":
            assert len(d.description.split()) >= 4


def test_env_var_overrides_default_path(monkeypatch, tmp_path) -> None:
    custom = tmp_path / "keys.tsv"
    lines = ["0\talways-zero\t\t1\treserved bit kept at zero"]
    for i in range(1, 167):
        lines.append(f"{i}\tpattern\tC\t1\taliphatic carbon (filler)")
    custom.write_text("\n".join(lines) + "\n")
    monkeypatch.setenv("MOLCAP_KEYS", str(custom))
    assert default_key_path() == custom
    defs = load_key_definitions()
    assert len(defs) == 167
    vector = evaluate_keys(parse_smiles("CC"), defs)
    assert vector.bits[0] == 0
    assert all(vector.bits[i] == 1 for i in range(1, 167))


def test_explicit_source_beats_env(monkeypatch, tmp_path) -> None:
    from importlib import resources

    shipped = str(resources.files("molcap").joinpath("data/maccs_keys.tsv"))
    monkeypatch.setenv("MOLCAP_KEYS", str(tmp_path / "nonexistent.tsv"))
    with pytest.raises(FileNotFoundError):
        load_key_definitions()
    assert len(load_key_definitions(shipped)) == 167


def test_missing_index_raises(tmp_path) -> None:
    source = default_key_path().read_text()
    kept = [
        line
        for line in source.splitlines()
        if not line.startswith("42\t")
    ]
    broken = tmp_path / "missing.tsv"
    broken.write_text("\n".join(kept) + "\n")
    with pytest.raises(MissingKeyError) as excinfo:
        load_key_definitions(broken)
    assert excinfo.value.index == 42


def test_bad_pattern_raises_with_index(tmp_path) -> None:
    source = default_key_path().read_text().splitlines()
    replaced = [
        "17\tpattern\t[C@H](N)C\t1\tstereo primitive outside the subset"
        if line.startswith("17\t")
        else line
        for line in source
    ]
    broken = tmp_path / "badpattern.tsv"
    broken.write_text("\n".join(replaced) + "\n")
    with pytest.raises(PatternParseError) as excinfo:
        load_key_definitions(broken)
    assert excinfo.value.index == 17


def test_duplicate_index_raises(tmp_path) -> None:
    source = default_key_path().read_text()
    broken = tmp_path / "dup.tsv"
    broken.write_text(source + "5\tpattern\tC\t1\tduplicate row\n")
    with pytest.raises(KeyFileError, match="duplicate"):
        load_key_definitions(broken)


def test_wrong_field_count_raises(tmp_path) -> None:
    broken = tmp_path / "fields.tsv"
    broken.write_text("0\talways-zero\t\t1\n")
    with pytest.raises(KeyFileError, match="5 tab-separated"):
        load_key_definitions(broken)


def test_unknown_kind_raises(tmp_path) -> None:
    broken = tmp_path / "kind.tsv"
    broken.write_text("0\tmystery\t\t1\tdescription here\n")
    with pytest.raises(KeyFileError, match="unknown kind"):
        load_key_definitions(broken)


def test_bad_threshold_raises(tmp_path) -> None:
    broken = tmp_path / "threshold.tsv"
    broken.write_text("0\talways-zero\t\t0\tdescription here\n")
    with pytest.raises(KeyFileError, match="threshold"):
        load_key_definitions(broken)


# --------------------------------------------------------------------------
# Evaluation semantics


def test_methane_has_no_ring_bits(definitions) -> None:
    vector = evaluate_keys(parse_smiles("C"), definitions)
    for d in definitions:
        if d.kind == "ring-size":
            assert vector.bits[d.index] == 0


def test_benzene_hand_checked_bits(definitions) -> None:
    vector = evaluate_keys(parse_smiles("c1ccccc1"), definitions)
    assert vector.bits[162] == 1  # aromatic atom
    assert vector.bits[163] == 1  # six-membered ring
    assert vector.bits[165] == 1  # ring atom
    assert vector.bits[164] == 0  # no oxygen
    assert vector.bits[125] == 0  # only one aromatic ring
    assert vector.bits[0] == 0


def test_naphthalene_counts_two_aromatic_rings(definitions) -> None:
    vector = evaluate_keys(parse_smiles("c1ccc2ccccc2c1"), definitions)
    assert vector.bits[125] == 1
    assert vector.bits[145] == 1


def test_ethanol_hand_checked_bits(definitions) -> None:
    vector = evaluate_keys(parse_smiles("CCO"), definitions)
    assert vector.bits[164] == 1  # oxygen present
    assert vector.bits[159] == 0  # not more than one oxygen
    assert vector.bits[139] == 1  # hydroxyl
    assert vector.bits[157] == 1  # C-O single bond
    assert vector.bits[112] == 0  # no C-O-C bridge
    assert vector.bits[160] == 1  # methyl
    assert vector.bits[165] == 0  # no ring atom


def test_charge_key(definitions) -> None:
    assert evaluate_keys(parse_smiles("C[N+](=O)[O-]"), definitions).bits[49] == 1
    assert evaluate_keys(parse_smiles("CCO"), definitions).bits[49] == 0


def test_threshold_ladder_is_consistent(definitions) -> None:
    # Oxygen-count keys 164 (>=1), 159 (>=2), 146 (>=3), 140 (>=4).
    ladder = [164, 159, 146, 140]
    for smiles, n_oxygens in [("C", 0), ("CO", 1), ("OCO", 2), ("OC(O)O", 3),
                              ("OC(O)(O)O", 4)]:
        vector = evaluate_keys(parse_smiles(smiles), definitions)
        fired = [vector.bits[i] for i in ladder]
        assert fired == [1 if n_oxygens >= t else 0 for t in (1, 2, 3, 4)]


def test_eight_plus_ring_key(definitions) -> None:
    index = next(
        d.index for d in definitions if d.kind == "ring-size" and d.ring_or_larger
    )
    assert evaluate_keys(parse_smiles("C1CCCCCCC1"), definitions).bits[index] == 1
    assert evaluate_keys(parse_smiles("C1CCCCCCCCC1"), definitions).bits[index] == 1
    assert evaluate_keys(parse_smiles("C1CCCCC1"), definitions).bits[index] == 0


def test_always_zero_never_fires_on_corpus(definitions) -> None:
    zero_indices = [d.index for d in definitions if d.kind == "always-zero"]
    for smiles in CORPUS:
        vector = evaluate_keys(parse_smiles(smiles), definitions)
        assert all(vector.bits[i] == 0 for i in zero_indices)


def test_wrong_definition_count_rejected(definitions) -> None:
    with pytest.raises(KeyFileError):
        evaluate_keys(parse_smiles("C"), definitions[:100])


def test_definitions_out_of_index_order_rejected(definitions) -> None:
    # Bits are placed by definition.index; a list in any other order
    # would put answers at the wrong index, so it is refused.
    shuffled = list(definitions)
    random.Random(3).shuffle(shuffled)
    graph = parse_smiles("c1ccccc1O")
    for wrong in (shuffled, [definitions[0]] * N_KEYS):
        with pytest.raises(KeyFileError, match="index order"):
            evaluate_keys(graph, wrong)
        with pytest.raises(KeyFileError, match="index order"):
            key_answers(ChunkIndex([graph]), wrong)


# --------------------------------------------------------------------------
# Agreement with uncapped matching and with the permutation oracle


def test_early_exit_agrees_with_full_count_on_corpus(definitions) -> None:
    for smiles in CORPUS:
        graph = parse_smiles(smiles)
        vector = evaluate_keys(graph, definitions)
        for d in definitions:
            if d.query is None:
                continue
            full = match_subgraph(graph, d.query, max_count=None).count
            assert vector.bits[d.index] == (1 if full >= d.threshold else 0), (
                d.index,
                smiles,
            )


def test_pattern_keys_agree_with_permutation_oracle(definitions) -> None:
    small_molecules = [s for s in CORPUS if len(parse_smiles(s).atoms) <= 8][:15]
    small_keys = [
        d for d in definitions if d.query is not None and len(d.query.atoms) <= 4
    ]
    assert len(small_keys) >= 40
    for smiles in small_molecules:
        graph = parse_smiles(smiles)
        vector = evaluate_keys(graph, definitions)
        for d in small_keys:
            expected = 1 if len(oracle_match_sets(graph, d.query)) >= d.threshold else 0
            assert vector.bits[d.index] == expected, (d.index, smiles)


# --------------------------------------------------------------------------
# The chunk-wide key pass

# Bridged molecules the placer cannot draw, and the crowded acyclic one.
NAMED = (
    "C1CC2CCC1C2",
    "C12C3C4C1C5C2C3C45",
    "CC(C)(C)C(C(C)(C)C)(C(C)(C)C)C(C)(C)C(C)(C)C(C)(C)C",
)


def _chunk_corpus() -> list[str]:
    ring_rich = random.Random(0)
    wide = random.Random(5)
    return (
        featurize_corpus()
        + list(DRUG_LIKE)
        + list(WIDE_MOLECULES)
        + list(NAMED)
        + CORPUS
        + [random_smiles(ring_rich, max_atoms=25, ring_bias=0.7) for _ in range(500)]
        + [random_smiles(wide, max_atoms=40) for _ in range(200)]
    )


def _expected_row(graph, definitions) -> list[int]:
    """The key_answers row of ``graph`` from uncapped matcher calls and
    direct counts, counted keys (pattern keys of a threshold above 1)
    included."""
    index = MoleculeIndex(ChunkIndex([graph]), 0)
    rings = [len(ring) for ring in graph.rings]
    row = []
    for d in definitions:
        if d.query is not None:
            hit = match_subgraph(graph, d.query, index=index).count >= d.threshold
        elif d.kind == "element-count":
            hit = sum(atom.element in d.elements for atom in graph.atoms) >= d.threshold
        elif d.kind == "ring-size":
            sizes = [r for r in rings if r == d.ring_size or (d.ring_or_larger and r > d.ring_size)]
            hit = len(sizes) >= d.threshold
        else:
            hit = False
        row.append(int(hit))
    return row


def test_key_answers_match_uncapped_matcher_in_chunks_and_alone(definitions) -> None:
    graphs = [parse_smiles(s) for s in _chunk_corpus()]
    chunked = np.concatenate(
        [
            key_answers(ChunkIndex(graphs[i : i + 256]), definitions)
            for i in range(0, len(graphs), 256)
        ]
    )
    assert chunked.shape == (len(graphs), N_KEYS) and chunked.dtype == np.uint8
    for k, graph in enumerate(graphs):
        assert chunked[k].tolist() == _expected_row(graph, definitions), k
        if k % 4 == 0:
            assert np.array_equal(key_answers(ChunkIndex([graph]), definitions)[0], chunked[k]), k


def test_key_answers_agree_with_permutation_oracle(definitions) -> None:
    small = [s for s in CORPUS + featurize_corpus() if len(parse_smiles(s).atoms) <= 7]
    keys = [
        d for d in definitions
        if d.query is not None and d.threshold == 1 and len(d.query.atoms) <= 4
    ]
    assert len(small) >= 30 and len(keys) >= 40
    graphs = [parse_smiles(s) for s in small]
    answers = key_answers(ChunkIndex(graphs), definitions)
    for graph, row in zip(graphs, answers):
        for d in keys:
            assert row[d.index] == (1 if oracle_match_sets(graph, d.query) else 0), d.index


def test_evaluate_keys_gives_the_same_bits_from_chunk_answers(definitions) -> None:
    graphs = [parse_smiles(s) for s in featurize_corpus(count=60) + list(NAMED)]
    for graph, row in zip(graphs, key_answers(ChunkIndex(graphs), definitions)):
        assert evaluate_keys(graph, definitions, row) == evaluate_keys(graph, definitions)


def test_molecule_keys_the_same_alone_and_among_wider_ones(definitions) -> None:
    rng = random.Random(8)
    wider = [parse_smiles(random_smiles(rng, max_atoms=40)) for _ in range(30)]
    for smiles in ("c1ccccc1O", "CC(=O)[O-]", "C1CC2CCC1C2", "C", "[Na+].[Cl-]"):
        graph = parse_smiles(smiles)
        alone = key_answers(ChunkIndex([graph]), definitions)[0]
        among = key_answers(ChunkIndex(wider[:15] + [graph] + wider[15:]), definitions)[15]
        assert np.array_equal(alone, among), smiles


def _path_key_file(tmp_path):
    path = tmp_path / "paths.tsv"
    lines = ["0\talways-zero\t\t1\treserved bit kept at zero"]
    lines.append("1\tpattern\t*~*~*~*~*~*\t1\tsix-atom path of any bonds")
    lines.append("2\tpattern\t*1~*~*~*~*~1\t1\tfive-ring of any bonds")
    for i in range(3, 167):
        lines.append(f"{i}\talways-zero\t\t1\tfiller key kept at zero")
    path.write_text("\n".join(lines) + "\n")
    return load_key_definitions(path)


@pytest.mark.parametrize("budget", [None, 64])
def test_join_keeps_each_step_under_the_row_budget(monkeypatch, tmp_path, budget) -> None:
    # In sixteen copies of the wide molecules the last step of the path
    # would build about 36k rows, more than the default budget; a budget
    # of 64 rows splits every step.
    definitions = _path_key_file(tmp_path)
    if budget is not None:
        monkeypatch.setattr(substructure, "JOIN_ROW_BUDGET", budget)
    steps: list[int] = []
    original = substructure._extend

    def recording(chunk, rows, anchor, count, mask, back):
        steps.append(int(count.sum()))
        return original(chunk, rows, anchor, count, mask, back)

    monkeypatch.setattr(substructure, "_extend", recording)
    graphs = [parse_smiles(s) for s in WIDE_MOLECULES * 16 + ("CC", "C1CCCC1")]
    answers = key_answers(ChunkIndex(graphs), definitions)
    # Five steps for the path, four for the ring, and more once split.
    assert len(steps) > 9
    assert max(steps) <= substructure.JOIN_ROW_BUDGET
    for graph, row in zip(graphs, answers):
        for d in definitions[1:3]:
            assert row[d.index] == match_subgraph(graph, d.query, max_count=1).count
    assert answers[-6:, 1].tolist() == [1, 1, 1, 1, 0, 0]
    assert answers[-6:, 2].tolist() == [0, 0, 1, 0, 0, 1]


# --------------------------------------------------------------------------
# Invariance and monotonicity


def test_vector_invariant_under_permutation_and_kekulization(definitions) -> None:
    paired = [
        ("c1ccccc1", "C1=CC=CC=C1"),
        ("c1ccncc1", "C1=CC=NC=C1"),
        ("c1ccc2ccccc2c1", "C1=CC=C2C=CC=CC2=C1"),
        ("c1cc[nH]c1", "C1=CNC=C1"),
    ]
    for aromatic_form, kekule_form in paired:
        left = evaluate_keys(parse_smiles(aromatic_form), definitions)
        right = evaluate_keys(parse_smiles(kekule_form), definitions)
        assert left == right, (aromatic_form, kekule_form)
    rng = random.Random(99)
    for smiles in CORPUS:
        graph = parse_smiles(smiles)
        perm = list(range(len(graph.atoms)))
        rng.shuffle(perm)
        shuffled = permute_graph(graph, perm)
        assert evaluate_keys(graph, definitions) == evaluate_keys(
            shuffled, definitions
        ), smiles


def test_adding_a_fragment_never_clears_bits(definitions) -> None:
    rng = random.Random(31)
    for _ in range(30):
        base = random_smiles(rng, max_atoms=8)
        extra = random_smiles(rng, max_atoms=5)
        before = evaluate_keys(parse_smiles(base), definitions)
        after = evaluate_keys(parse_smiles(base + "." + extra), definitions)
        for i in range(N_KEYS):
            assert after.bits[i] >= before.bits[i], i


# SHA-256 of the concatenated key bits over ``featurize_corpus()``, recorded
# with the earlier index-order matcher.  The bits are integers, so the
# digest holds on any machine; a change means some key answer changed.
KEY_BITS_SHA256 = "33ff889ef6fb9aea220aa0dca84fc99664809e46bd772b197d45d93be51659c4"


def test_key_bits_match_recorded_digest(definitions) -> None:
    digest = hashlib.sha256()
    for smiles in featurize_corpus():
        digest.update(bytes(evaluate_keys(parse_smiles(smiles), definitions).bits))
    assert digest.hexdigest() == KEY_BITS_SHA256


# SHA-256 of the concatenated key bits of ``WIDE_MOLECULES``, recorded with
# the list-and-set matcher: molecules of more than 64 atoms whose matches
# lie past atom 63 must answer as they did before bitmask matching.
WIDE_KEY_BITS_SHA256 = "a5492a5d39633242c5a2464e60e2985c82d4bee5d34b634b2b0b560f56424248"


def test_wide_molecule_key_bits_match_recorded_digest(definitions) -> None:
    digest = hashlib.sha256()
    for smiles in WIDE_MOLECULES:
        digest.update(bytes(evaluate_keys(parse_smiles(smiles), definitions).bits))
    assert digest.hexdigest() == WIDE_KEY_BITS_SHA256


# --------------------------------------------------------------------------
# KeyVector


def test_vector_array_shape(definitions) -> None:
    arr = evaluate_keys(parse_smiles("CCO"), definitions).to_array()
    assert arr.shape == (167,)
    assert arr.dtype == np.uint8


def test_vector_bits_are_one_byte_each(definitions) -> None:
    # Featurize keeps a vector per example and, with several workers,
    # pickles each one back; a tuple of Python ints took 1,392 bytes.
    vector = evaluate_keys(parse_smiles("c1ccccc1O"), definitions)
    assert isinstance(vector.bits, bytes)
    assert sys.getsizeof(vector.bits) <= 200
    assert len(pickle.dumps(vector)) < 300
    assert KeyVector(bits=tuple(vector.bits)) == vector


def test_vector_length_enforced() -> None:
    with pytest.raises(KeyFileError):
        KeyVector(bits=(0,) * 166)
