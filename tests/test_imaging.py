"""Tests for 2D layout and rasterization.

Geometry facts (hexagon circumradius, pixel counts) are hand-derived;
rotation invariance is checked by rotating coordinates before drawing.
The vectorized relax step and the array rasterizer are checked against
reference copies of the earlier per-bond loops, which they must
reproduce byte for byte.
"""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np
import pytest

import molcap.imaging
from molcap.dataset import augment_image
from molcap.elements import Z_TO_SYMBOL
from molcap.errors import DoesNotFitError, LayoutFailureError, MolcapError
from molcap.imaging import (
    BOND_TOLERANCE,
    MAX_RELAX_ITERATIONS,
    MIN_SEPARATION,
    PALETTE,
    PIXELS_PER_UNIT,
    ChemImage,
    Layout2D,
    layout_2d,
    rasterize,
    render_molecule,
    write_pgm,
)
from molcap.smiles import BondOrder, MolecularGraph, parse_smiles

from util import WIDE_MOLECULES, random_smiles


def _pair_distances(layout: Layout2D) -> np.ndarray:
    coords = layout.positions[layout.placed]
    deltas = coords[:, None, :] - coords[None, :, :]
    d = np.sqrt((deltas**2).sum(axis=2))
    np.fill_diagonal(d, np.inf)
    return d


def _bond_lengths(graph, layout: Layout2D) -> list[float]:
    lengths = []
    for bond in graph.bonds:
        if layout.placed[bond.a] and layout.placed[bond.b]:
            lengths.append(
                float(np.linalg.norm(layout.positions[bond.a] - layout.positions[bond.b]))
            )
    return lengths


# --------------------------------------------------------------------------
# Layout


def test_single_atom_at_origin() -> None:
    layout = layout_2d(parse_smiles("C"))
    assert np.allclose(layout.positions[0], (0.0, 0.0))
    assert layout.bounding_box == (0.0, 0.0)


def test_two_atoms_exactly_unit_apart() -> None:
    layout = layout_2d(parse_smiles("CC"))
    d = float(np.linalg.norm(layout.positions[0] - layout.positions[1]))
    assert d == pytest.approx(1.0, abs=1e-12)


def test_benzene_regular_hexagon() -> None:
    graph = parse_smiles("c1ccccc1")
    layout = layout_2d(graph)
    lengths = _bond_lengths(graph, layout)
    assert len(lengths) == 6
    mean = sum(lengths) / 6.0
    for length in lengths:
        assert abs(length - mean) / mean < 0.05
    center = layout.positions.mean(axis=0)
    radii = np.linalg.norm(layout.positions - center, axis=1)
    assert np.allclose(radii, 1.0, atol=1e-9)


def test_straight_chain_lengths() -> None:
    graph = parse_smiles("CCCCCCCC")
    layout = layout_2d(graph)
    for length in _bond_lengths(graph, layout):
        assert length == pytest.approx(1.0, abs=1e-9)


def test_naphthalene_fused_rings_share_edge() -> None:
    graph = parse_smiles("c1ccc2ccccc2c1")
    layout = layout_2d(graph)
    lengths = _bond_lengths(graph, layout)
    assert len(lengths) == 11
    for length in lengths:
        assert 0.85 <= length <= 1.15
    assert _pair_distances(layout).min() >= 0.5
    # Two hexagon centroids one apothem pair apart: width spans ~ 2 rings.
    assert max(layout.bounding_box) > 2.0


def test_substituted_ring_points_outward() -> None:
    graph = parse_smiles("Cc1ccccc1")
    layout = layout_2d(graph)
    for length in _bond_lengths(graph, layout):
        assert 0.85 <= length <= 1.15
    assert _pair_distances(layout).min() >= 0.5


def test_spiro_rings_share_single_atom() -> None:
    graph = parse_smiles("C1CCC2(CC1)CCCC2")
    layout = layout_2d(graph)
    for length in _bond_lengths(graph, layout):
        assert 0.85 <= length <= 1.15
    assert _pair_distances(layout).min() >= 0.5


def test_biphenyl_two_ring_systems() -> None:
    graph = parse_smiles("c1ccccc1-c1ccccc1")
    layout = layout_2d(graph)
    for length in _bond_lengths(graph, layout):
        assert 0.85 <= length <= 1.15
    assert _pair_distances(layout).min() >= 0.5


def test_largest_component_only() -> None:
    graph = parse_smiles("CCCC.[Na+]")
    layout = layout_2d(graph)
    assert layout.placed.sum() == 4
    assert not layout.placed[4]
    assert np.isnan(layout.positions[4]).all()


def test_layout_deterministic() -> None:
    a = layout_2d(parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O"))
    b = layout_2d(parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O"))
    assert np.array_equal(a.positions, b.positions)


def test_layout_constraints_on_random_molecules() -> None:
    rng = random.Random(404)
    succeeded = 0
    for _ in range(120):
        graph = parse_smiles(random_smiles(rng, max_atoms=12))
        try:
            layout = layout_2d(graph)
        except LayoutFailureError:
            continue
        succeeded += 1
        for length in _bond_lengths(graph, layout):
            assert 0.85 - 1e-9 <= length <= 1.15 + 1e-9
        if layout.placed.sum() > 1:
            assert _pair_distances(layout).min() >= 0.5 - 1e-9
    # The constraint checks only ran if layouts mostly succeed.
    assert succeeded >= 100


# --------------------------------------------------------------------------
# Reference relax: the earlier per-bond loop


def reference_constraints_ok(
    graph: MolecularGraph, positions: np.ndarray, indices: np.ndarray
) -> bool:
    index_set = set(int(i) for i in indices)
    for bond in graph.bonds:
        if bond.a in index_set and bond.b in index_set:
            d = float(np.linalg.norm(positions[bond.a] - positions[bond.b]))
            if not (1.0 - BOND_TOLERANCE <= d <= 1.0 + BOND_TOLERANCE):
                return False
    coords = positions[indices]
    if len(coords) > 1:
        deltas = coords[:, None, :] - coords[None, :, :]
        distances = np.sqrt((deltas**2).sum(axis=2))
        np.fill_diagonal(distances, np.inf)
        if distances.min() < MIN_SEPARATION:
            return False
    return True


def reference_relax(
    graph: MolecularGraph, positions: np.ndarray, indices: np.ndarray
) -> None:
    index_list = [int(i) for i in indices]
    index_set = set(index_list)
    bonds = [
        (bond.a, bond.b)
        for bond in graph.bonds
        if bond.a in index_set and bond.b in index_set
    ]
    for _ in range(MAX_RELAX_ITERATIONS):
        forces = np.zeros_like(positions)
        for a, b in bonds:
            delta = positions[b] - positions[a]
            d = float(np.linalg.norm(delta))
            if d < 1e-9:
                delta = np.array([1e-3, 0.0])
                d = 1e-3
            stretch = (d - 1.0) / d
            forces[a] += 0.5 * stretch * delta
            forces[b] -= 0.5 * stretch * delta
        coords = positions[index_list]
        deltas = coords[:, None, :] - coords[None, :, :]
        distances = np.sqrt((deltas**2).sum(axis=2))
        np.fill_diagonal(distances, np.inf)
        too_close = distances < 0.9
        if too_close.any():
            push = np.zeros_like(distances)
            np.divide(
                0.9 - distances,
                np.maximum(distances, 1e-9),
                out=push,
                where=too_close,
            )
            repulsion = (deltas * push[:, :, None]).sum(axis=1)
            for row, atom in enumerate(index_list):
                forces[atom] += 0.5 * repulsion[row]
        step = 0.3 * forces
        magnitude = np.sqrt((step**2).sum(axis=1, keepdims=True))
        step = np.where(magnitude > 0.2, step * 0.2 / np.maximum(magnitude, 1e-12), step)
        positions += step
        if float(np.abs(step[index_list]).max()) < 1e-5:
            break
        if reference_constraints_ok(graph, positions, indices):
            break


def _layouts(graphs: list[MolecularGraph]) -> tuple[list[bytes], set[int]]:
    """Position bytes of each layout, and the indices that failed."""
    positions: list[bytes] = []
    failed: set[int] = set()
    for i, graph in enumerate(graphs):
        try:
            positions.append(layout_2d(graph).positions.tobytes())
        except LayoutFailureError:
            positions.append(b"")
            failed.add(i)
    return positions, failed


def test_relax_matches_reference_loop_byte_for_byte() -> None:
    rng = random.Random(0)
    graphs = [
        parse_smiles(random_smiles(rng, max_atoms=25, ring_bias=0.7))
        for _ in range(300)
    ]
    positions, failed = _layouts(graphs)
    expected_positions, expected_failed = _reference_layouts(graphs)
    assert failed == expected_failed
    # The full iteration budget runs on every failure: cover it.
    assert len(failed) >= 50
    assert positions == expected_positions


# Molecules the placer cannot draw: bridged (norbornane, cubane) and a
# crowded acyclic centre.
NAMED_LAYOUT_FAILURES = (
    "C1CC2CCC1C2",
    "C12C3C4C1C5C2C3C45",
    "CC(C)(C)C(C(C)(C)C)(C(C)(C)C)C(C)(C)C(C)(C)C(C)(C)C",
)


def test_relax_matches_reference_loop_on_molecules_wider_than_a_summation_block(
    monkeypatch,
) -> None:
    # NumPy sums a contiguous axis in blocks of 8; these molecules place
    # up to 95 atoms, so a repulsion summed in any other order shows.
    rng = random.Random(5)
    smiles = list(WIDE_MOLECULES) + list(NAMED_LAYOUT_FAILURES)
    smiles += [random_smiles(rng, max_atoms=40, ring_bias=0.9) for _ in range(200)]
    graphs = [parse_smiles(s) for s in smiles]
    buckets = _record_buckets(monkeypatch)
    positions, failed = _layouts(graphs)
    expected_positions, expected_failed = _reference_layouts(graphs)
    named = set(range(len(WIDE_MOLECULES), len(WIDE_MOLECULES) + len(NAMED_LAYOUT_FAILURES)))
    assert named <= failed
    assert failed == expected_failed
    assert sum(size > 8 for sizes in buckets for size in sizes) >= 50
    assert positions == expected_positions


# Hand-made starting positions, each reaching one branch of the relax step.
RELAX_CASES = {
    # A bonded pair at one point: the degenerate-bond branch.
    "bonded pair at one point": ("CC", [(0.0, 0.0), (0.0, 0.0)]),
    # Two unbonded atoms (0 and 2) at one point: repulsion at distance 0,
    # then at short range once the springs pull them apart.
    "unbonded pair at one point": (
        "CCCC",
        [(0.0, 0.0), (1.5, 0.0), (0.0, 0.0), (0.0, 1.2)],
    ),
    # Springs stretched far enough that the step is clamped to 0.2.
    "far apart": ("CCC", [(0.0, 0.0), (6.0, 0.0), (6.0, 7.5)]),
    # Twelve atoms squeezed onto a small circle: repulsion over more
    # atoms than one summation block.
    "squeezed ring": (
        "C1CCCCCCCCCCC1",
        [(0.3 * math.cos(k * math.pi / 6), 0.3 * math.sin(k * math.pi / 6)) for k in range(12)],
    ),
    # Only the larger fragment is placed; its rows sit after the NaN rows
    # of the smaller one, which must come back unchanged.
    "disconnected": (
        "CC.CC(C)C",
        [(math.nan, math.nan)] * 2 + [(0.0, 0.0), (0.4, 0.1), (0.5, 0.2), (3.0, -1.0)],
    ),
}


@pytest.mark.parametrize("smiles, start", RELAX_CASES.values(), ids=list(RELAX_CASES))
def test_relax_matches_reference_from_hand_made_positions(smiles, start) -> None:
    graph = parse_smiles(smiles)
    positions = np.array(start)
    placed = ~np.isnan(positions[:, 0])
    indices = np.flatnonzero(placed)
    expected = positions.copy()
    reference_relax(graph, expected, indices)
    molcap.imaging.relax_layouts([graph], [positions])
    assert positions.tobytes() == expected.tobytes()
    assert np.isnan(positions[~placed]).all()


def _reference_layouts(graphs: list[MolecularGraph]) -> tuple[list[bytes], set[int]]:
    """:func:`_layouts` with the reference relax and check, one molecule at a time."""
    positions: list[bytes] = []
    failed: set[int] = set()
    for i, graph in enumerate(graphs):
        placed = molcap.imaging.place_atoms(graph)
        indices = np.flatnonzero(~np.isnan(placed[:, 0]))
        if not reference_constraints_ok(graph, placed, indices):
            reference_relax(graph, placed, indices)
            if not reference_constraints_ok(graph, placed, indices):
                failed.add(i)
                placed = None
        positions.append(b"" if placed is None else placed.tobytes())
    return positions, failed


def _batched_layouts(graphs: list[MolecularGraph]) -> tuple[list[bytes], set[int]]:
    """:func:`_layouts` with every molecule relaxed in one batched pass."""
    placements = [molcap.imaging.place_atoms(graph) for graph in graphs]
    molcap.imaging.relax_layouts(graphs, placements)
    positions: list[bytes] = []
    failed: set[int] = set()
    for i, (graph, relaxed) in enumerate(zip(graphs, placements)):
        try:
            positions.append(layout_2d(graph, relaxed).positions.tobytes())
        except LayoutFailureError:
            positions.append(b"")
            failed.add(i)
    return positions, failed


def _record_buckets(monkeypatch) -> list[list[int]]:
    """Placed-atom counts of every relax bucket from now on, in call order."""
    buckets: list[list[int]] = []
    original_bucket = molcap.imaging._relax_bucket

    def recording_bucket(jobs) -> None:
        buckets.append([len(job.indices) for job in jobs])
        original_bucket(jobs)

    monkeypatch.setattr(molcap.imaging, "_relax_bucket", recording_bucket)
    return buckets


def test_batched_relax_matches_reference_one_molecule_at_a_time(monkeypatch) -> None:
    rng = random.Random(0)
    smiles = [random_smiles(rng, max_atoms=25, ring_bias=0.7) for _ in range(500)]
    rng = random.Random(5)
    smiles += [random_smiles(rng, max_atoms=40, ring_bias=0.9) for _ in range(200)]
    smiles += list(WIDE_MOLECULES) + list(NAMED_LAYOUT_FAILURES)
    graphs = [parse_smiles(s) for s in smiles]
    buckets = _record_buckets(monkeypatch)
    positions, failed = _batched_layouts(graphs)
    expected_positions, expected_failed = _reference_layouts(graphs)
    assert failed == expected_failed
    assert len(failed) >= 200
    assert positions == expected_positions
    # The relax ran in shared, padded buckets, each within the pair cap.
    assert sum(len(sizes) > 1 and min(sizes) < max(sizes) for sizes in buckets) >= 2
    for sizes in buckets:
        assert len(sizes) == 1 or len(sizes) * max(sizes) ** 2 <= molcap.imaging.RELAX_BUCKET_PAIRS


def test_relax_of_a_molecule_does_not_depend_on_its_bucket(monkeypatch) -> None:
    # A molecule the relax rescues late, after about 120 iterations,
    # relaxed alone and padded in one bucket with wider molecules that
    # leave it before it finishes, must come out with the same bytes.
    # Norbornane, which the relax cannot rescue, must fail both ways.
    rescued = parse_smiles("C(SI)(O1)(O2)POC(C(C1(C)CC2(C)C)N)P")
    norbornane = parse_smiles(NAMED_LAYOUT_FAILURES[0])
    rng = random.Random(5)
    wider = [parse_smiles(random_smiles(rng, max_atoms=40, ring_bias=0.9)) for _ in range(60)]
    alone = [molcap.imaging.place_atoms(graph) for graph in (rescued, norbornane)]
    start = alone[0].copy()
    for graph, positions in zip((rescued, norbornane), alone):
        molcap.imaging.relax_layouts([graph], [positions])
    buckets = _record_buckets(monkeypatch)
    graphs = [rescued, norbornane, *wider]
    together = [molcap.imaging.place_atoms(graph) for graph in graphs]
    molcap.imaging.relax_layouts(graphs, together)
    assert together[0].tobytes() == alone[0].tobytes()
    assert not np.isnan(alone[0]).any()
    assert not np.array_equal(alone[0], start)
    assert np.isnan(alone[1]).all() and np.isnan(together[1]).all()
    shared = [sizes for sizes in buckets if len(rescued.atoms) in sizes]
    assert len(shared) == 1 and len(shared[0]) >= 20 and max(shared[0]) >= 30


@pytest.mark.parametrize("smiles", [*NAMED_LAYOUT_FAILURES, "CC.C1CC2CCC1C2"])
def test_failed_placement_comes_back_nan_and_layout_raises(smiles) -> None:
    # Every row NaN, unplaced ones included, is the relax's only verdict:
    # the wrap must raise on it without checking anything itself.
    graph = parse_smiles(smiles)
    positions = molcap.imaging.place_atoms(graph)
    assert not np.isnan(positions).all()
    molcap.imaging.relax_layouts([graph], [positions])
    assert np.isnan(positions).all()
    with pytest.raises(LayoutFailureError):
        layout_2d(graph, positions)


# Failures and SHA-256 over the 500 seeded ring-rich molecules, recorded
# at the commit before the ring placer became one polygon walk.
PINNED_RING_RICH_FAILURES = 130
PINNED_RING_RICH_SHA256 = "94573c6781c76e3675f3d56257ef735c8583391232316cb7dd8566f10729a7ca"


def test_ring_rich_layout_and_raster_bytes_match_pinned_digest() -> None:
    # Per molecule: b"F" for a layout failure, else the position bytes
    # followed by the 60 px raster bytes, or b"D" when it does not fit.
    rng = random.Random(0)
    digest = hashlib.sha256()
    failures = 0
    for _ in range(500):
        graph = parse_smiles(random_smiles(rng, max_atoms=25, ring_bias=0.7))
        try:
            layout = layout_2d(graph)
        except LayoutFailureError:
            failures += 1
            digest.update(b"F")
            continue
        digest.update(layout.positions.tobytes())
        try:
            digest.update(rasterize(graph, layout).pixels.tobytes())
        except DoesNotFitError:
            digest.update(b"D")
    assert failures == PINNED_RING_RICH_FAILURES
    assert digest.hexdigest() == PINNED_RING_RICH_SHA256


# --------------------------------------------------------------------------
# Reference rasterize: the earlier per-bond, per-sample drawing loop


def _reference_round(value: float) -> int:
    return int(math.floor(value + 0.5)) if value >= 0 else -int(math.floor(-value + 0.5))


def reference_rasterize(
    graph: MolecularGraph, layout: Layout2D, side: int = 60
) -> np.ndarray:
    placed_indices = [i for i in range(len(graph.atoms)) if layout.placed[i]]
    atom_layer = np.zeros((side, side), dtype=np.float64)
    bond_layer = np.zeros((side, side), dtype=np.float64)
    if not placed_indices:
        return atom_layer.astype(np.float32)

    coords = layout.positions[placed_indices]
    center = np.array(
        [
            (coords[:, 0].min() + coords[:, 0].max()) / 2.0,
            (coords[:, 1].min() + coords[:, 1].max()) / 2.0,
        ]
    )
    half = (side - 1) // 2

    offsets: dict[int, tuple[int, int]] = {}
    max_offset = 0
    for i in placed_indices:
        dx = PIXELS_PER_UNIT * (layout.positions[i][0] - center[0])
        dy = PIXELS_PER_UNIT * (layout.positions[i][1] - center[1])
        px, py = _reference_round(float(dx)), _reference_round(float(dy))
        offsets[i] = (px, py)
        max_offset = max(max_offset, abs(px), abs(py))
    if max_offset > half:
        raise DoesNotFitError(2 * max_offset + 1, side)

    def pixel(px: int, py: int) -> tuple[int, int]:
        return side // 2 - py, side // 2 + px

    placed_set = set(placed_indices)
    for bond in graph.bonds:
        if bond.a not in placed_set or bond.b not in placed_set:
            continue
        if bond.order == BondOrder.AROMATIC:
            intensity = 0.3
        else:
            intensity = 0.2 * int(bond.order)
        start = PIXELS_PER_UNIT * (layout.positions[bond.a] - center)
        end = PIXELS_PER_UNIT * (layout.positions[bond.b] - center)
        length = float(np.linalg.norm(end - start))
        samples = max(2, int(math.ceil(length * 4.0)) + 1)
        for t in np.linspace(0.0, 1.0, samples):
            point = (1.0 - t) * start + t * end
            row, col = pixel(
                _reference_round(float(point[0])), _reference_round(float(point[1]))
            )
            bond_layer[row, col] = max(bond_layer[row, col], intensity)

    for i in placed_indices:
        row, col = pixel(*offsets[i])
        value = min(1.0, graph.atoms[i].element / 80.0)
        atom_layer[row, col] = max(atom_layer[row, col], value)

    return np.where(atom_layer > 0, atom_layer, bond_layer).astype(np.float32)


# Disconnected, aromatic, triple-bond and heavy-atom molecules, plus
# chains whose scaled coordinates land exactly on half pixels.
REFERENCE_RASTER_SMILES = [
    "C",
    "CC",
    "CCC",
    "CC.OCC(=O)O",
    "[Na+].[Cl-]",
    "c1ccc2ccccc2c1",
    "c1ccccc1-c1ccncc1",
    "CC#CC#N",
    "N#Cc1ccccc1C#C",
    "[Hg]C(Cl)(Br)I",
    "[U]",
    "O=[Os](=O)(=O)=O",
]


def test_rasterize_matches_reference_loop_byte_for_byte() -> None:
    graphs = [parse_smiles(s) for s in REFERENCE_RASTER_SMILES]
    for seed, max_atoms, ring_bias in ((0, 25, 0.7), (1, 12, 0.3)):
        rng = random.Random(seed)
        graphs += [
            parse_smiles(random_smiles(rng, max_atoms=max_atoms, ring_bias=ring_bias))
            for _ in range(80)
        ]
    layouts = []
    for graph in graphs:
        try:
            layout = layout_2d(graph)
        except LayoutFailureError:
            continue
        layouts += [(graph, layout), (graph, layout.rotated90())]
    for side in (1, 3, 7, 15, 22, 60, 61):
        drawn = refused = 0
        for graph, layout in layouts:
            try:
                expected = reference_rasterize(graph, layout, side)
            except DoesNotFitError as exc:
                with pytest.raises(DoesNotFitError) as got:
                    rasterize(graph, layout, side)
                assert (got.value.extent_px, got.value.side) == (exc.extent_px, side)
                refused += 1
            else:
                assert rasterize(graph, layout, side).pixels.tobytes() == expected.tobytes()
                drawn += 1
        assert drawn > 0
        assert refused > 0 or side >= 60
        if side == 15:
            assert min(drawn, refused) >= 40


# --------------------------------------------------------------------------
# Rasterization


def test_methane_single_carbon_pixel() -> None:
    image = render_molecule(parse_smiles("C"))
    nonzero = np.argwhere(image.pixels > 0)
    assert len(nonzero) == 1
    row, col = nonzero[0]
    assert image.pixels[row, col] == pytest.approx(6.0 / 80.0)


def test_single_heavy_atom_intensity_caps_at_one() -> None:
    image = render_molecule(parse_smiles("[Hg]"))
    assert image.pixels.max() == pytest.approx(1.0)


def test_benzene_pixel_census() -> None:
    image = render_molecule(parse_smiles("c1ccccc1"))
    carbon = 6.0 / 80.0
    atom_pixels = np.isclose(image.pixels, carbon).sum()
    assert atom_pixels == 6
    assert (image.pixels > 0).sum() >= 12
    bond_pixels = np.isclose(image.pixels, 0.3).sum()
    assert bond_pixels >= 6


def test_bond_intensity_scales_with_order() -> None:
    single = render_molecule(parse_smiles("CC"))
    double = render_molecule(parse_smiles("C=C"))
    triple = render_molecule(parse_smiles("C#C"))
    for image, value in ((single, 0.2), (double, 0.4), (triple, 0.6)):
        mask = (image.pixels > 0) & ~np.isclose(image.pixels, 6.0 / 80.0)
        assert mask.any()
        assert np.allclose(image.pixels[mask], value)


def test_atom_pixels_overdraw_bonds() -> None:
    image = render_molecule(parse_smiles("CC"))
    carbon = 6.0 / 80.0
    assert np.isclose(image.pixels, carbon).sum() == 2
    # The midpoint pixel carries the bond value, not a blend.
    positive = image.pixels[image.pixels > 0].astype(np.float64)
    values = set(np.round(positive, 6).tolist())
    assert values == {round(carbon, 6), round(0.2, 6)}


def test_intensities_in_unit_interval_background_zero() -> None:
    rng = random.Random(777)
    for _ in range(40):
        graph = parse_smiles(random_smiles(rng, max_atoms=10))
        try:
            image = render_molecule(graph)
        except MolcapError:
            continue
        assert image.pixels.min() >= 0.0
        assert image.pixels.max() <= 1.0
        assert image.pixels.shape == (60, 60)


def test_atom_pixel_count_equals_heavy_atoms() -> None:
    rng = random.Random(31337)
    checked = 0
    for _ in range(40):
        graph = parse_smiles(random_smiles(rng, max_atoms=9))
        if any(atom.element == 16 for atom in graph.atoms):
            # Sulfur intensity 16/80 collides with the single-bond value.
            continue
        try:
            layout = layout_2d(graph)
        except LayoutFailureError:
            continue
        coords = layout.positions[layout.placed]
        if len(coords) < 2:
            continue
        deltas = coords[:, None, :] - coords[None, :, :]
        d = np.sqrt((deltas**2).sum(axis=2))
        np.fill_diagonal(d, np.inf)
        # Guarantee distinct pixels: at 3 px per unit, anything beyond
        # 2/3 unit rounds to different cells.
        if d.min() < 0.7:
            continue
        image = rasterize(graph, layout)
        intensities = {min(1.0, atom.element / 80.0) for atom in graph.atoms}
        atom_mask = np.zeros_like(image.pixels, dtype=bool)
        for value in intensities:
            atom_mask |= np.isclose(image.pixels, value)
        assert atom_mask.sum() == layout.placed.sum()
        checked += 1
    assert checked >= 10


def test_rotation_preserves_nonzero_count() -> None:
    rng = random.Random(2020)
    checked = 0
    for _ in range(60):
        graph = parse_smiles(random_smiles(rng, max_atoms=10))
        try:
            layout = layout_2d(graph)
            base = rasterize(graph, layout)
        except MolcapError:
            continue
        rotated_layout = layout
        for _turn in range(4):
            rotated_layout = rotated_layout.rotated90()
            rotated = rasterize(graph, rotated_layout)
            assert (rotated.pixels > 0).sum() == (base.pixels > 0).sum()
        checked += 1
    assert checked >= 40


def test_rotation_four_times_is_identity_image() -> None:
    graph = parse_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O")
    layout = layout_2d(graph)
    four = layout.rotated90().rotated90().rotated90().rotated90()
    a = rasterize(graph, layout)
    b = rasterize(graph, four)
    assert np.array_equal(a.pixels, b.pixels)


def test_long_chain_does_not_fit() -> None:
    graph = parse_smiles("C" * 100)
    layout = layout_2d(graph)
    with pytest.raises(DoesNotFitError) as excinfo:
        rasterize(graph, layout, side=60)
    assert excinfo.value.side == 60
    assert excinfo.value.extent_px > 60


def test_wider_grid_fits_what_narrow_rejects() -> None:
    graph = parse_smiles("C" * 25)
    layout = layout_2d(graph)
    with pytest.raises(DoesNotFitError):
        rasterize(graph, layout, side=60)
    image = rasterize(graph, layout, side=160)
    assert (image.pixels > 0).sum() >= 25


def test_fit_boundary_is_exact() -> None:
    # A 19-atom straight chain spans 18 units = 54 px, within +/-29 of
    # center after centering; a 21-atom chain spans 60 px and cannot fit.
    fits = parse_smiles("C" * 19)
    image = rasterize(fits, layout_2d(fits), side=60)
    assert np.isclose(image.pixels, 6.0 / 80.0).sum() == 19
    too_long = parse_smiles("C" * 21)
    with pytest.raises(DoesNotFitError):
        rasterize(too_long, layout_2d(too_long), side=60)


def test_disconnected_fragment_not_drawn() -> None:
    image = render_molecule(parse_smiles("CCCC.[Lr]"))
    assert np.isclose(image.pixels, 103.0 / 80.0).sum() == 0
    assert np.isclose(image.pixels, 1.0).sum() == 0
    assert np.isclose(image.pixels, 6.0 / 80.0).sum() == 4


def test_only_largest_component_bonds_drawn() -> None:
    # The two-carbon fragment has a bond, so its bond pixels would show.
    alone = render_molecule(parse_smiles("CCO")).pixels.tobytes()
    assert render_molecule(parse_smiles("CC.CCO")).pixels.tobytes() == alone
    assert render_molecule(parse_smiles("CCO.CC")).pixels.tobytes() == alone


def test_write_pgm(tmp_path) -> None:
    image = render_molecule(parse_smiles("c1ccccc1"))
    out = tmp_path / "benzene.pgm"
    write_pgm(image, out)
    data = out.read_bytes()
    assert data.startswith(b"P5\n60 60\n255\n")
    body = data.split(b"255\n", 1)[1]
    assert len(body) == 3600
    values = sorted(set(body))
    # Background, carbon at 0.075, aromatic bond at 0.3 (float32 rounding
    # lands the latter on either side of 76.5).
    assert values[0] == 0
    assert values[1] == 19
    assert values[2] in (76, 77)
    assert len(values) == 3


def test_chem_image_is_float32() -> None:
    image = render_molecule(parse_smiles("CCO"))
    assert isinstance(image, ChemImage)
    assert image.pixels.dtype == np.float32


# --------------------------------------------------------------------------
# Palette


def _raster_values() -> list[np.float32]:
    """Every float32 value the per-bond reference raster can write."""
    values = [np.float32(0.0)]
    for order in BondOrder:
        values.append(np.float32(0.3 if order == BondOrder.AROMATIC else 0.2 * int(order)))
    values += [np.float32(min(1.0, z / 80.0)) for z in sorted(Z_TO_SYMBOL)]
    return values


def test_palette_has_a_code_for_every_raster_value() -> None:
    values = _raster_values()
    assert len(values) == 1 + 4 + 118
    codes = np.searchsorted(PALETTE, values)
    assert PALETTE[codes].tobytes() == np.array(values, dtype=np.float32).tobytes()
    assert len(PALETTE) == len(set(values)) == 81


def test_palette_is_ascending_float32_with_fewer_than_256_entries() -> None:
    assert PALETTE.dtype == np.float32
    assert len(PALETTE) < 256
    assert np.all(np.diff(PALETTE) > 0)


def test_palette_code_zero_is_background() -> None:
    assert PALETTE[0] == 0.0
    assert render_molecule(parse_smiles("CCO")).codes.dtype == np.uint8


def _reference_float_augment(pixels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The quarter turn and zero-padded shift, applied to float pixels."""
    k = int(rng.integers(4))
    dx = int(rng.integers(-5, 6))
    dy = int(rng.integers(-5, 6))
    rotated = np.rot90(pixels, k=k)
    side = len(pixels)
    out = np.zeros_like(rotated)
    out[max(0, dy) : side - max(0, -dy), max(0, dx) : side - max(0, -dx)] = rotated[
        max(0, -dy) : side - max(0, dy), max(0, -dx) : side - max(0, dx)
    ]
    return out


def test_palette_codes_augment_like_float_pixels() -> None:
    # Near the border, so shifts drop content and fill vacated pixels.
    codes = np.zeros((60, 60), dtype=np.uint8)
    codes[:8, :8] = np.arange(64).reshape(8, 8)
    images = [ChemImage(codes=codes, side=60), render_molecule(parse_smiles("c1ccccc1CC#N"))]
    for image in images:
        coded_rng, float_rng = np.random.default_rng(17), np.random.default_rng(17)
        for _ in range(40):
            decoded = augment_image(image, coded_rng).pixels
            expected = _reference_float_augment(image.pixels, float_rng)
            assert decoded.tobytes() == expected.tobytes()
