"""2D coordinate generation and fixed-size rasterization.

Layout runs in three steps.  Placement puts rings down as regular
polygons with unit sides (fused rings reflected across the shared edge,
spiro rings tangent at the shared atom), then grows acyclic substituents
outward, each new atom taking the direction bisecting the largest free
angular gap around its parent.  :func:`relax_layouts` then checks the
distance constraints once per molecule and repairs the placements that
miss them with up to 200 deterministic force-directed iterations; a
placement still missing them comes back with every row NaN, and
:func:`layout_2d` raises LayoutFailureError for it.

The check and the relax run on many molecules at once: molecules are
sorted by placed-atom count and packed into size buckets of padded
(B, 2, M) coordinates, at most RELAX_BUCKET_PAIRS padded pairs each.  A
precomputed mask adds +inf to the distance of every pair with a padded
atom, so padded atoms never repel, and each molecule leaves its bucket on
its own exits.  Every position is byte for byte the one the molecule
gets alone, as :func:`layout_2d` without relaxed coordinates relaxes it.

Rasterization maps bond-length units onto 3 pixels each, centers the
molecule on the grid (60 x 60 unless asked otherwise), draws every bond
as a line sampled at most a quarter pixel apart, at intensity 0.2 x
order (0.3 for aromatic), and overdraws every atom as one pixel at
intensity min(1, atomic_number / 80); where an atom and a bond share a
pixel the atom value wins.  Grid offsets are rounded half away from
zero, so a 90 degree rotation of the layout permutes pixels exactly and
the nonzero pixel count is rotation invariant.  Molecules whose scaled
extent exceeds the grid raise DoesNotFitError, which is the featurizer's
size-exclusion mechanism.  Bond samples and atom pixels are computed
and written as whole arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DoesNotFitError, LayoutFailureError
from .smiles import BondOrder, MolecularGraph

__all__ = [
    "Layout2D",
    "ChemImage",
    "layout_2d",
    "place_atoms",
    "relax_layouts",
    "rasterize",
    "render_molecule",
    "write_pgm",
    "PIXELS_PER_UNIT",
    "DEFAULT_SIDE",
]

DEFAULT_SIDE = 60
PIXELS_PER_UNIT = 3
BOND_TOLERANCE = 0.15
MIN_SEPARATION = 0.5
MAX_RELAX_ITERATIONS = 200
# A relax bucket of B molecules padded to M atoms has B * M * M <= this
# many pairs, so each of its (B, 2, M, M) arrays stays near 1 MB.
RELAX_BUCKET_PAIRS = 2**16


@dataclass
class Layout2D:
    """Per-atom coordinates in bond-length units.

    Atoms outside the largest connected component are not placed; their
    rows are NaN and ``placed`` is False.
    """

    positions: np.ndarray
    placed: np.ndarray
    bounding_box: tuple[float, float]

    def rotated90(self) -> "Layout2D":
        """Counterclockwise quarter turn, (x, y) -> (-y, x)."""
        rotated = np.empty_like(self.positions)
        rotated[:, 0] = -self.positions[:, 1]
        rotated[:, 1] = self.positions[:, 0]
        return Layout2D(
            positions=rotated,
            placed=self.placed.copy(),
            bounding_box=(self.bounding_box[1], self.bounding_box[0]),
        )


@dataclass
class ChemImage:
    """Square intensity grid in [0, 1]; background exactly 0."""

    pixels: np.ndarray
    side: int


# --------------------------------------------------------------------------
# Layout


def layout_2d(graph: MolecularGraph, relaxed: np.ndarray | None = None) -> Layout2D:
    """Assign 2D coordinates to the largest connected component.

    Args:
        graph: Parsed molecule.
        relaxed: Coordinates that :func:`place_atoms` and
            :func:`relax_layouts` already produced for ``graph``, to be
            wrapped as they are; placed and relaxed here when omitted.

    Returns:
        Layout with bonded atoms at unit distance (within 15%) and no
        two atoms closer than half a unit.

    Raises:
        LayoutFailureError: The relax left the constraints unmet, so no
            atom is placed (typically crowded bridged polycyclics).
    """
    if relaxed is None:
        relaxed = place_atoms(graph)
        relax_layouts([graph], [relaxed])
    placed = ~np.isnan(relaxed[:, 0])
    if not placed.any():
        if len(graph.atoms):
            raise LayoutFailureError(
                "could not reach distance constraints within "
                f"{MAX_RELAX_ITERATIONS} iterations"
            )
        return Layout2D(relaxed, placed, (0.0, 0.0))
    box = tuple(float(extent) for extent in np.ptp(relaxed[placed], axis=0))
    return Layout2D(positions=relaxed, placed=placed, bounding_box=box)


def place_atoms(graph: MolecularGraph) -> np.ndarray:
    """(n, 2) coordinates of the largest component before any relax.

    Ring systems become polygons and substituents grow into the widest
    free gap; rows of atoms outside the component are NaN.
    """
    n = len(graph.atoms)
    positions = np.full((n, 2), np.nan)
    if n == 0:
        return positions

    components = graph.connected_components()
    component = max(components, key=len)
    in_component = set(component)

    placed: set[int] = set()
    systems = _ring_systems(graph)
    system_of = {a: i for i, system in enumerate(systems) for a in system[0]}
    placed_systems: set[int] = set()

    def place_ring_system(index: int, entry: int) -> None:
        """Lay out every ring of one fused/spiro system, entry ring first."""
        placed_systems.add(index)
        for ring in _ring_order(systems[index][1], entry):
            _place_ring(graph, _ordered_cycle(graph, ring), positions, placed)

    start = component[0]
    if start in system_of:
        place_ring_system(system_of[start], start)
    else:
        positions[start] = (0.0, 0.0)
        placed.add(start)

    queue = sorted(placed)
    seen = set(queue)
    while queue:
        current = queue.pop(0)
        for neighbor, _ in sorted(graph.neighbor_bond_indices(current)):
            if neighbor not in in_component or neighbor in seen:
                continue
            if neighbor not in placed:
                direction = _open_direction(graph, current, positions, placed)
                positions[neighbor] = positions[current] + np.array(
                    [math.cos(direction), math.sin(direction)]
                )
                placed.add(neighbor)
                system = system_of.get(neighbor)
                if system is not None and system not in placed_systems:
                    place_ring_system(system, neighbor)
            seen.add(neighbor)
            queue.append(neighbor)
    return positions


def _ring_systems(
    graph: MolecularGraph,
) -> list[tuple[set[int], list[list[int]]]]:
    """Group basis rings that share atoms; returns (atom set, rings)."""
    systems: list[tuple[set[int], list[list[int]]]] = []
    for ring in graph.rings:
        ring_atoms = set(ring)
        merged: tuple[set[int], list[list[int]]] | None = None
        remaining = []
        for atoms, rings in systems:
            if atoms & ring_atoms:
                if merged is None:
                    merged = (atoms | ring_atoms, rings + [ring])
                else:
                    merged = (merged[0] | atoms, merged[1] + rings)
            else:
                remaining.append((atoms, rings))
        systems = remaining + [merged if merged else (ring_atoms, [ring])]
    return systems


def _ring_order(rings: list[list[int]], entry: int) -> list[list[int]]:
    """Rings of one system ordered so each shares an atom with the prior."""
    pending = sorted(rings, key=lambda r: (entry not in r, sorted(r)))
    ordered = [pending.pop(0)]
    covered = set(ordered[0])
    while pending:
        ordered.append(
            pending.pop(next(i for i, r in enumerate(pending) if covered.intersection(r)))
        )
        covered.update(ordered[-1])
    return ordered


def _ordered_cycle(graph: MolecularGraph, ring: list[int]) -> list[int]:
    """Ring atoms reordered so consecutive entries share bonds."""
    ring_set = set(ring)
    start = min(ring)
    cycle = [start]
    previous = -1
    while len(cycle) < len(ring):
        current = cycle[-1]
        nexts = sorted(
            nb
            for nb, _ in graph.neighbor_bond_indices(current)
            if nb in ring_set and nb != previous and nb not in cycle
        )
        if not nexts:
            return ring  # not a simple cycle; fall back to given order
        previous = current
        cycle.append(nexts[0])
    return cycle


def _place_ring(
    graph: MolecularGraph,
    cycle: list[int],
    positions: np.ndarray,
    placed: set[int],
) -> None:
    """Place the unplaced atoms of ``cycle`` on a regular unit-sided polygon.

    Three cases choose where the polygon goes; one walk then places its
    atoms around it, starting at cycle index ``k``:

    - fused (two cycle-adjacent atoms placed): reflected across the first
      placed edge, to the side away from the atoms placed around it;
    - spiro or bridged (atoms placed, none adjacent): hung off the first
      placed atom, pointing into its widest free gap;
    - first ring of the molecule (nothing placed): centred on the origin
      with its first atom straight up.
    """
    n = len(cycle)
    radius = 1.0 / (2.0 * math.sin(math.pi / n))
    step = 2.0 * math.pi / n
    on = [atom in placed for atom in cycle]
    edges = [k for k in range(n) if on[k] and on[(k + 1) % n]]
    if edges:
        k = edges[0]
        a, b = cycle[k], cycle[(k + 1) % n]
        pa, pb = positions[a], positions[b]
        mid = (pa + pb) / 2.0
        edge_vec = pb - pa
        normal = np.array([-edge_vec[1], edge_vec[0]])
        norm_len = np.linalg.norm(normal)
        if norm_len < 1e-9:
            normal = np.array([0.0, 1.0])
            norm_len = 1.0
        normal = normal / norm_len
        reference = _local_centroid(graph, (a, b), positions, placed)
        apothem = 1.0 / (2.0 * math.tan(math.pi / n))
        center = mid + apothem * normal
        if reference is not None and np.dot(center - mid, reference - mid) > 0:
            center = mid - apothem * normal
        start = math.atan2(pa[1] - center[1], pa[0] - center[0])
        to_b = math.atan2(pb[1] - center[1], pb[0] - center[0])
        forward = (to_b - start) % (2.0 * math.pi)
        step = step if abs(forward - step) < 1e-6 else -step
    elif any(on):
        k = on.index(True)
        anchor = positions[cycle[k]]
        direction = _open_direction(graph, cycle[k], positions, placed)
        center = anchor + radius * np.array([math.cos(direction), math.sin(direction)])
        start = math.atan2(anchor[1] - center[1], anchor[0] - center[0])
    else:
        k, center, start = 0, np.zeros(2), math.pi / 2.0
    for offset, atom in enumerate(cycle[k:] + cycle[:k]):
        if atom not in placed:
            angle = start + offset * step
            positions[atom] = center + radius * np.array([math.cos(angle), math.sin(angle)])
            placed.add(atom)


def _local_centroid(
    graph: MolecularGraph,
    atoms: tuple[int, ...],
    positions: np.ndarray,
    placed: set[int],
) -> np.ndarray | None:
    """Mean position of placed neighbors of ``atoms`` (excluding them)."""
    points = []
    for atom in atoms:
        for nb, _ in graph.neighbor_bond_indices(atom):
            if nb in placed and nb not in atoms:
                points.append(positions[nb])
    if not points:
        return None
    return np.mean(points, axis=0)


def _open_direction(
    graph: MolecularGraph, atom: int, positions: np.ndarray, placed: set[int]
) -> float:
    """Angle bisecting the widest gap between placed neighbor directions."""
    angles = sorted(
        math.atan2(*(positions[nb] - positions[atom])[::-1])
        for nb, _ in graph.neighbor_bond_indices(atom)
        if nb in placed
    )
    if not angles:
        return 0.0
    if len(angles) == 1:
        return angles[0] + math.pi
    best_gap = -1.0
    best_angle = 0.0
    for i, angle in enumerate(angles):
        following = angles[(i + 1) % len(angles)]
        gap = (following - angle) % (2.0 * math.pi)
        if gap > best_gap + 1e-12:
            best_gap = gap
            best_angle = angle + gap / 2.0
    return best_angle


def _placed_bonds(
    graph: MolecularGraph, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """End-atom index arrays (a, b) and orders of the bonds between placed atoms."""
    placed = set(indices.tolist())
    rows = [(b.a, b.b, b.order) for b in graph.bonds if b.a in placed and b.b in placed]
    table = np.array(rows, dtype=np.intp).reshape(-1, 3)
    return table[:, 0], table[:, 1], table[:, 2]


def _local_bonds(
    graph: MolecularGraph, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bond ends (a, b) between placed atoms, as rows of the sorted ``indices``."""
    bond_a, bond_b, _ = _placed_bonds(graph, indices)
    return np.searchsorted(indices, bond_a), np.searchsorted(indices, bond_b)


def _bond_vectors(
    positions: np.ndarray, bond_a: np.ndarray, bond_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-bond (b - a) vectors and their lengths.

    The batched matmul takes the same BLAS dot as ``np.linalg.norm`` on
    each vector, so lengths are bit-identical to it; ``sqrt(x*x + y*y)``
    rounds differently for some vectors.
    """
    delta = positions[bond_b] - positions[bond_a]
    return delta, np.sqrt(delta[:, None, :] @ delta[:, :, None])[:, 0, 0]


class _Job(NamedTuple):
    """One molecule to check or relax: its (n, 2) coordinates, updated in
    place, the sorted rows of its placed atoms and its bonds between them
    as positions in ``indices``."""

    positions: np.ndarray
    indices: np.ndarray
    bond_a: np.ndarray
    bond_b: np.ndarray


def _job(graph: MolecularGraph, positions: np.ndarray) -> _Job:
    indices = np.flatnonzero(~np.isnan(positions[:, 0]))
    return _Job(positions, indices, *_local_bonds(graph, indices))


def _buckets(jobs: list[_Job]) -> list[list[_Job]]:
    """Jobs sorted by placed-atom count, cut so that B molecules padded to
    the widest one's M atoms hold at most RELAX_BUCKET_PAIRS pairs."""
    buckets: list[list[_Job]] = []
    for job in sorted(jobs, key=lambda job: len(job.indices)):
        width = len(job.indices)
        if buckets and (len(buckets[-1]) + 1) * width * width <= RELAX_BUCKET_PAIRS:
            buckets[-1].append(job)
        else:
            buckets.append([job])
    return buckets


def _pack(jobs: list[_Job]) -> tuple[np.ndarray, np.ndarray]:
    """Padded (B, 2, M) coordinates of ``jobs`` and their (B, M, M) pair
    mask: +inf on the diagonal and on every pair with a padded atom, 0
    elsewhere."""
    sizes = np.array([len(job.indices) for job in jobs])
    width = int(sizes.max())
    xy = np.zeros((len(jobs), 2, width))
    for row, job in zip(xy, jobs):
        row[:, : len(job.indices)] = job.positions[job.indices].T
    real = np.arange(width) < sizes[:, None]
    mask = np.where(real[:, :, None] & real[:, None, :], 0.0, np.inf)
    mask.reshape(len(jobs), -1)[:, :: width + 1] = np.inf
    return xy, mask


def _bucket_bonds(
    jobs: list[_Job], width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every bond of ``jobs`` in order: its row, its ends as rows of the
    flattened (B * M, 2) atoms, and the bins of its spring terms in the
    flattened (B, 2, M) forces.

    Each row's bins keep a per-bond loop's order: end atoms interleaved
    (a0, b0, a1, b1, ...), x bins before y bins.
    """
    mol = np.repeat(np.arange(len(jobs)), [len(job.bond_a) for job in jobs])
    first = mol * width
    ends_a = np.concatenate([job.bond_a for job in jobs]) + first
    ends_b = np.concatenate([job.bond_b for job in jobs]) + first
    ends = np.empty(2 * len(mol), dtype=np.intp)
    ends[0::2] = ends_a + first
    ends[1::2] = ends_b + first
    return mol, ends_a, ends_b, np.concatenate([ends, ends + width])


def _geometry(
    xy: np.ndarray, ends_a: np.ndarray, ends_b: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bond vectors and lengths, pairwise offsets and distances of (B, 2, M) coordinates.

    ``offsets[r, c, i, j]`` is coordinate c of atom j minus that of atom i
    in row r, one contiguous (M, M) array per row and axis.  ``mask``
    leaves every real distance as computed and makes the diagonal and
    every pair with a padded atom infinite.
    """
    delta, lengths = _bond_vectors(xy.transpose(0, 2, 1).reshape(-1, 2), ends_a, ends_b)
    offsets = xy[:, :, None, :] - xy[:, :, :, None]
    distances = np.sqrt((offsets * offsets).sum(axis=1)) + mask
    return delta, lengths, offsets, distances


def _met(lengths: np.ndarray, distances: np.ndarray, mol: np.ndarray) -> np.ndarray:
    """Per row: every bond within 15% of unit length, no pair under 0.5."""
    within = (1.0 - BOND_TOLERANCE <= lengths) & (lengths <= 1.0 + BOND_TOLERANCE)
    bonds_ok = np.bincount(mol[~within], minlength=len(distances)) == 0
    return bonds_ok & ~(distances.min(axis=(1, 2)) < MIN_SEPARATION)


def _constraints_met(jobs: list[_Job]) -> np.ndarray:
    """:func:`_met` of one bucket of jobs, in their order."""
    xy, mask = _pack(jobs)
    mol, ends_a, ends_b, _ = _bucket_bonds(jobs, xy.shape[2])
    _, lengths, _, distances = _geometry(xy, ends_a, ends_b, mask)
    return _met(lengths, distances, mol)


def relax_layouts(graphs: Sequence[MolecularGraph], placements: Sequence[np.ndarray]) -> None:
    """Relax, in place, every placement that misses the distance constraints.

    ``placements[k]`` holds :func:`place_atoms` coordinates of
    ``graphs[k]``.  Every placement is checked once, in size buckets of
    molecules at once; only those that miss go on to be relaxed, in
    buckets of their own.  A placement that still misses the constraints
    when it leaves its bucket comes back with every row NaN, which
    :func:`layout_2d` reports as a failure.  Each result is byte for byte
    the one the molecule gets in any other bucket, alone included.
    """
    jobs = [_job(graph, p) for graph, p in zip(graphs, placements) if len(p)]
    missed = [
        job
        for bucket in _buckets(jobs)
        for job, met in zip(bucket, _constraints_met(bucket))
        if not met
    ]
    for bucket in _buckets(missed):
        _relax_bucket(bucket)


def _relax_bucket(jobs: list[_Job]) -> None:
    """Force-directed cleanup: bond springs plus short-range repulsion.

    Moves only the placed rows, held as padded (B, 2, M) coordinates.
    Every iteration is one set of NumPy calls for the whole bucket, and
    each molecule leaves on its own exits: a step under 1e-5, met
    constraints after its step, or the end of its iteration budget.  A
    molecule that leaves with the constraints met gets its placed rows
    written back; one that leaves without gets every row NaN.  One
    :func:`_geometry` pass per iteration serves both that iteration's
    check and the next one's forces.

    The arithmetic is that of a per-bond loop run on each molecule alone.
    One ``np.bincount`` adds every atom's spring terms in bond order from
    0 (see :func:`_bucket_bonds`), and repulsion sums ``offsets * push``
    over the leading atom axis, which adds the other atoms in index order
    without pairwise-summation blocks.  Padded atoms come after the real
    ones and add only signed zeros; the diagonal's +0 comes first, so no
    real partial sum is -0 and the padding changes no byte.
    """
    xy, mask = _pack(jobs)
    width = xy.shape[2]
    mol, ends_a, ends_b, bins = _bucket_bonds(jobs, width)
    delta, lengths, offsets, distances = _geometry(xy, ends_a, ends_b, mask)
    for _ in range(MAX_RELAX_ITERATIONS):
        degenerate = lengths < 1e-9
        if degenerate.any():
            delta[degenerate] = (1e-3, 0.0)
            lengths[degenerate] = 1e-3
        stretch = (lengths - 1.0) / lengths
        spring = (0.5 * stretch) * delta.T
        terms = np.empty((2, 2 * len(mol)))
        terms[:, 0::2] = spring
        terms[:, 1::2] = -spring
        forces = np.bincount(bins, terms.ravel(), xy.size).reshape(xy.shape)
        too_close = distances < 0.9
        if too_close.any():
            push = np.zeros_like(distances)
            np.divide(
                0.9 - distances,
                np.maximum(distances, 1e-9),
                out=push,
                where=too_close,
            )
            forces += 0.5 * (offsets * push[:, None]).sum(axis=2)
        step = 0.3 * forces
        magnitude = np.sqrt((step * step).sum(axis=1, keepdims=True))
        step = np.where(magnitude > 0.2, step * 0.2 / np.maximum(magnitude, 1e-12), step)
        xy += step
        small = np.abs(step).max(axis=(1, 2)) < 1e-5
        delta, lengths, offsets, distances = _geometry(xy, ends_a, ends_b, mask)
        met = _met(lengths, distances, mol)
        keep = ~(small | met)
        if not keep.all():
            delta, lengths = delta[keep[mol]], lengths[keep[mol]]
            offsets, distances = offsets[keep], distances[keep]
            jobs, xy, mask = _leave(jobs, xy, mask, keep, met)
            if not jobs:
                return
            mol, ends_a, ends_b, bins = _bucket_bonds(jobs, width)
    for job in jobs:
        job.positions[:] = np.nan


def _leave(
    jobs: list[_Job], xy: np.ndarray, mask: np.ndarray, keep: np.ndarray, met: np.ndarray
) -> tuple[list[_Job], np.ndarray, np.ndarray]:
    """Write the rows that met the constraints back to their positions,
    NaN into every row of the others not kept; the kept rows."""
    for job, row, kept, ok in zip(jobs, xy, keep, met):
        if ok:
            job.positions[job.indices] = row[:, : len(job.indices)].T
        elif not kept:
            job.positions[:] = np.nan
    return [job for job, kept in zip(jobs, keep) if kept], xy[keep], mask[keep]


# --------------------------------------------------------------------------
# Rasterization


def _grid_cells(points: np.ndarray, side: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) of scaled (x, y) points, rounded half away from zero."""
    x, y = np.copysign(np.floor(np.abs(points) + 0.5), points).astype(np.intp).T
    return side // 2 - y, side // 2 + x


def rasterize(
    graph: MolecularGraph, layout: Layout2D, side: int = DEFAULT_SIDE
) -> ChemImage:
    """Draw the laid-out molecule onto a side x side grid.

    Args:
        graph: Parsed molecule.
        layout: Coordinates from :func:`layout_2d`.
        side: Grid size in pixels.

    Returns:
        ChemImage with intensities in [0, 1].

    Raises:
        DoesNotFitError: The molecule needs more pixels than the grid
            provides at 3 px per bond unit.
    """
    indices = np.flatnonzero(layout.placed)
    if not len(indices):
        return ChemImage(pixels=np.zeros((side, side), dtype=np.float32), side=side)

    coords = layout.positions[indices]
    center = (coords.min(axis=0) + coords.max(axis=0)) / 2.0
    scaled = PIXELS_PER_UNIT * (layout.positions - center)
    atoms = scaled[indices]
    reach = int(np.floor(np.abs(atoms) + 0.5).max())
    if reach > (side - 1) // 2:
        raise DoesNotFitError(2 * reach + 1, side)

    # Each bond is sampled like np.linspace(0, 1, n): sample k at
    # k * (1 / (n - 1)) and the last at exactly 1.
    bond_a, bond_b, order = _placed_bonds(graph, indices)
    _, lengths = _bond_vectors(scaled, bond_a, bond_b)
    counts = np.maximum(2, np.ceil(lengths * 4.0).astype(np.intp) + 1)
    ends = np.cumsum(counts)
    bond = np.repeat(np.arange(len(counts)), counts)
    t = (np.arange(counts.sum()) - (ends - counts)[bond]) * (1.0 / (counts - 1))[bond]
    t[ends - 1] = 1.0
    points = (1.0 - t)[:, None] * scaled[bond_a[bond]] + t[:, None] * scaled[bond_b[bond]]
    intensity = np.where(order == BondOrder.AROMATIC, 0.3, 0.2 * order)
    bond_layer, atom_layer = np.zeros((2, side, side))
    np.maximum.at(bond_layer, _grid_cells(points, side), intensity[bond])

    elements = np.array([graph.atoms[i].element for i in indices])
    np.maximum.at(atom_layer, _grid_cells(atoms, side), np.minimum(1.0, elements / 80.0))

    pixels = np.where(atom_layer > 0, atom_layer, bond_layer).astype(np.float32)
    return ChemImage(pixels=pixels, side=side)


def render_molecule(graph: MolecularGraph, side: int = DEFAULT_SIDE) -> ChemImage:
    """Layout and rasterize in one step."""
    return rasterize(graph, layout_2d(graph), side=side)


def write_pgm(image: ChemImage, path: str | Path) -> None:
    """Dump as a binary portable graymap for visual inspection."""
    levels = np.clip(np.round(image.pixels * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{image.side} {image.side}\n255\n".encode()
    Path(path).write_bytes(header + levels.tobytes())
