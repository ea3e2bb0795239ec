"""Circular fingerprints from iterative neighborhood hashing.

Every atom starts with a 64-bit invariant hashed from the tuple
``(element, heavy_degree, formal_charge, total_h, in_ring, aromatic)``.
Each round rehashes ``(round, own previous hash, sorted list of
(bond order, neighbor previous hash))``, so an atom's value at round r
describes its neighborhood out to r bonds.  Environments are
deduplicated and the survivors fold onto a fixed-width bit vector at
position ``hash mod nbits``.

The byte-level hash is pinned so results are reproducible: FNV-1a
(64-bit, offset basis 0xcbf29ce484222325, prime 0x100000001b3) over the
components encoded as 8 big-endian bytes each, negatives in two's
complement.  Bit positions are therefore stable across runs and
platforms, but intentionally do not match any other toolkit.

Deduplication:

* round 0: one environment per distinct invariant value;
* round r >= 1: environments are keyed by their covered bond set; a bond
  set seen in any earlier round or earlier in the same round (candidates
  ordered by (hash, center)) is dropped.  The empty bond set is
  pre-seeded so isolated atoms only ever contribute their round-0 value.

Keying on bond sets rather than hashes means two centers describing the
same fragment count once, and ordering candidates by hash keeps the
choice of survivor independent of atom numbering.

One batched core, :func:`morgan_hashes`, hashes every atom of many
molecules at once.  It reads their atoms and directed bonds from a
:class:`~molcap.substructure.ChunkIndex`, the table the structural keys
are joined on, so a featurize chunk gathers its molecules once.  Each
round builds one row of words per bonded atom, rows ordered by falling
heavy degree so that the rows hashing a p-th neighbor pair lead, and
runs FNV-1a over the byte columns of the rows' big-endian encoding in
``uint64``, whose wrapping multiplication is the 64-bit mask of the
spec.  Bond sets are bit masks of molecule-local bond indices in
``uint64`` words, and one sort per chunk keeps the first candidate of
each bond set.  :func:`initial_invariants`, :func:`morgan_iterate` and
:func:`morgan_fingerprint` are one-molecule views of it, each over
``ChunkIndex([graph])``; :func:`fnv1a_64` is the scalar spec of the
hash.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .smiles import MolecularGraph
from .substructure import ChunkIndex

__all__ = [
    "AtomEnvironment",
    "Fingerprint",
    "fnv1a_64",
    "initial_invariants",
    "morgan_hashes",
    "morgan_iterate",
    "check_fingerprint_width",
    "check_fingerprint_radius",
    "fold_to_bits",
    "morgan_fingerprint",
    "DEFAULT_NBITS",
    "DEFAULT_RADIUS",
]

DEFAULT_NBITS = 2048
DEFAULT_RADIUS = 2

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a_64(data: bytes) -> int:
    """FNV-1a hash, 64-bit variant."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


@lru_cache(maxsize=256)
def _prime_power(n: int) -> np.uint64:
    """The FNV prime to the n-th power, mod 2**64: n steps of a zero byte."""
    return np.uint64(pow(_FNV_PRIME, n, 1 << 64))


def _hash_rows(words: np.ndarray, active: Sequence[int] | None = None) -> np.ndarray:
    """:func:`fnv1a_64` of every row of 64-bit words, 8 big-endian bytes each.

    Args:
        words: (rows, k) int64 or uint64; negative words enter in two's
            complement.
        active: Per word, how many leading rows hash it, never rising
            from one word to the next (all rows when omitted); the words a
            row does not hash are ignored.

    Returns:
        The (rows,) uint64 hashes.  A byte column that is zero in every
        row hashing it leaves the XOR step unchanged, so each run of them
        costs one multiplication by a power of the prime.
    """
    rows, k = words.shape
    columns = words.astype(">u8").view(np.uint8).T
    hashes = np.full(rows, _FNV_OFFSET, dtype=np.uint64)
    live, owed = hashes, 0  # the rows still hashing, and multiplications they owe
    for w, count in enumerate([rows] * k if active is None else active):
        if count != len(live):
            live *= _prime_power(owed)
            live, owed = hashes[:count], 0
        either = int(np.bitwise_or.reduce(words[:count, w], initial=0)) & _MASK64
        done = 0
        for j, byte in enumerate(either.to_bytes(8, "big")):
            if byte:
                owed += j - done
                if owed:
                    live *= _prime_power(owed)
                live ^= columns[8 * w + j, :count]
                owed, done = 1, j + 1
        owed += 8 - done
    live *= _prime_power(owed)
    return hashes


@dataclass(frozen=True)
class AtomEnvironment:
    """One retained circular environment.

    ``bond_set`` holds the indices of every bond within ``radius`` steps
    of the center; it is empty exactly when ``radius`` is 0.
    """

    center: int
    radius: int
    hash: int
    bond_set: frozenset[int]


@dataclass(frozen=True)
class Fingerprint:
    """Fixed-width bit vector, packed 8 bits per byte, high bit first."""

    data: bytes
    nbits: int
    radius: int

    def get_bit(self, index: int) -> bool:
        return bool(self.data[index >> 3] & (0x80 >> (index & 7)))

    def popcount(self) -> int:
        return int.from_bytes(self.data, "big").bit_count()

    def to_hex(self) -> str:
        return self.data.hex()

    @classmethod
    def from_hex(cls, text: str, radius: int = DEFAULT_RADIUS) -> "Fingerprint":
        """Parse :meth:`to_hex` output.

        Raises:
            ConfigError: The width is not a power of two of at least 8, or
                the radius is negative.
        """
        data = bytes.fromhex(text)
        check_fingerprint_width(len(data) * 8)
        check_fingerprint_radius(radius)
        return cls(data=data, nbits=len(data) * 8, radius=radius)

    def to_array(self) -> np.ndarray:
        """Unpacked 0/1 vector of length nbits, dtype uint8."""
        return np.unpackbits(np.frombuffer(self.data, dtype=np.uint8))


def _invariants(chunk: ChunkIndex) -> np.ndarray:
    """Round-0 hashes of the chunk's atoms, uint64, one row per atom of
    (element, heavy_degree, formal_charge, total_h, in_ring, aromatic)."""
    columns = ("elements", "degree", "charges", "hydrogens", "in_ring", "aromatic")
    return _hash_rows(np.column_stack([getattr(chunk, name) for name in columns]))


def _first_of_runs(*keys: np.ndarray) -> np.ndarray:
    """Mask of the rows of sorted key columns that differ from the row before."""
    first = np.ones(len(keys[0]), dtype=bool)
    if len(first):
        first[1:] = np.any([key[1:] != key[:-1] for key in keys], axis=0)
    return first


def _environments(
    chunk: ChunkIndex, radius: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The retained environments of every molecule, in retention order.

    Returns:
        (molecule, radius, hash, center, bond masks): one entry per
        environment sorted by (molecule, radius, hash, center); center is
        molecule-local, and row k of the (k, words) uint64 masks has bit b
        set when molecule-local bond b is in the bond set.

    Raises:
        ConfigError: Negative radius.
    """
    check_fingerprint_radius(radius)
    hashes = _invariants(chunk)
    masks = np.zeros((len(hashes), chunk.bond_words), dtype=np.uint64)
    # Candidates of each round in (hash, atom) order: every atom in round
    # 0, every bonded atom (whose bond set is never empty) after it.
    ranked = np.argsort(hashes, kind="stable")
    found = [(ranked, np.zeros(len(ranked), np.int64), hashes[ranked], masks[ranked])]

    # One row of words per bonded atom, atoms by falling degree so the rows
    # that hash a p-th neighbor pair lead; padded pairs sort last and no
    # row hashes them.
    bonded = np.flatnonzero(chunk.degree)
    rowed = bonded[np.argsort(-chunk.degree[bonded], kind="stable")]
    width = int(chunk.degree.max(initial=0))
    padded = np.arange(width) >= chunk.degree[rowed, None]
    slots = np.where(padded, 0, chunk.first[rowed, None] + np.arange(width))
    pair_order = np.where(padded, np.uint64(_MASK64), chunk.bond_orders[slots].astype(np.uint64))
    active = [len(rowed)] * 2
    for p in range(width):
        active += [int(np.count_nonzero(~padded[:, p]))] * 2
    bits = np.zeros((len(chunk.bonds), chunk.bond_words), dtype=np.uint64)
    bits[np.arange(len(chunk.bonds)), chunk.bonds >> 6] = np.left_shift(
        np.uint64(1), (chunk.bonds & 63).astype(np.uint64)
    )
    for r in range(1, radius + 1):
        pair_hash = hashes[chunk.targets[slots]]
        pairs = np.lexsort((pair_hash, pair_order))
        words = np.empty((len(rowed), 2 + 2 * width), dtype=np.uint64)
        words[:, 0] = r
        words[:, 1] = hashes[rowed]
        words[:, 2::2] = np.take_along_axis(pair_order, pairs, axis=1)
        words[:, 3::2] = np.take_along_axis(pair_hash, pairs, axis=1)
        new_hashes = hashes.copy()
        new_hashes[rowed] = _hash_rows(words, active)
        new_masks = np.zeros_like(masks)
        if len(bonded):
            new_masks[bonded] = np.bitwise_or.reduceat(
                bits | masks[chunk.targets], chunk.first[bonded], axis=0
            )
        hashes, masks = new_hashes, new_masks
        ranked = bonded[np.argsort(hashes[bonded], kind="stable")]
        found.append((ranked, np.full(len(ranked), r), hashes[ranked], masks[ranked]))

    # A stable sort by molecule of the rounds laid end to end puts each
    # molecule's candidates in (round, hash, center) order.
    atom, rounds, env_hash, env_masks = (np.concatenate(column) for column in zip(*found))
    order = np.argsort(chunk.molecule[atom], kind="stable")
    atom, rounds, env_hash, env_masks = atom[order], rounds[order], env_hash[order], env_masks[order]
    molecule = chunk.molecule[atom]
    # Round 0 keeps the first atom of each invariant; later rounds keep the
    # first candidate of each bond set (a stable sort keeps molecules and
    # candidates of one bond set in order).
    keep = (rounds > 0) | _first_of_runs(molecule, rounds, env_hash)
    later = np.flatnonzero(rounds)
    ranked = later[np.lexsort(env_masks[later].T)]
    keep[ranked[~_first_of_runs(molecule[ranked], *env_masks[ranked].T)]] = False
    return molecule[keep], rounds[keep], env_hash[keep], chunk.local[atom[keep]], env_masks[keep]


def morgan_hashes(chunk: ChunkIndex, radius: int) -> list[np.ndarray]:
    """Hash many molecules at once.

    Args:
        chunk: The molecules' atom and bond table.
        radius: Number of expansion rounds (0 keeps initial values only).

    Returns:
        Per molecule of the chunk, the uint64 hashes of its retained
        environments in retention order, as :func:`morgan_iterate` lists
        them; an empty list for an empty chunk.

    Raises:
        ConfigError: Negative radius.
    """
    molecule, _, hashes, _, _ = _environments(chunk, radius)
    ends = np.cumsum(np.bincount(molecule, minlength=chunk.n_molecules))
    return np.split(hashes, ends)[:-1]


def initial_invariants(graph: MolecularGraph) -> list[int]:
    """Per-atom 64-bit starting values from local atom properties."""
    return _invariants(ChunkIndex([graph])).tolist()


def morgan_iterate(graph: MolecularGraph, radius: int) -> list[AtomEnvironment]:
    """Expand invariants outward and return the retained environments.

    Args:
        graph: Parsed molecule.
        radius: Number of expansion rounds (0 keeps initial values only).

    Returns:
        Environments surviving deduplication, in retention order.

    Raises:
        ConfigError: Negative radius.
    """
    _, rounds, hashes, centers, masks = _environments(ChunkIndex([graph]), radius)
    bits = np.unpackbits(masks.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    return [
        AtomEnvironment(center, r, h, frozenset(np.flatnonzero(row).tolist()))
        for center, r, h, row in zip(centers.tolist(), rounds.tolist(), hashes.tolist(), bits)
    ]


def check_fingerprint_width(nbits: int) -> None:
    """Raise ConfigError unless ``nbits`` is a power of two of at least 8."""
    if nbits < 8 or nbits & (nbits - 1):
        raise ConfigError(
            f"fingerprint width must be a power of two of at least 8, got {nbits}"
        )


def check_fingerprint_radius(radius: int) -> None:
    """Raise ConfigError unless ``radius`` is at least 0."""
    if radius < 0:
        raise ConfigError(f"fingerprint radius must be at least 0, got {radius}")


def _fold(hashes: np.ndarray, nbits: int, radius: int) -> Fingerprint:
    """Set bit ``hash mod nbits`` for every uint64 hash."""
    check_fingerprint_width(nbits)
    check_fingerprint_radius(radius)
    vector = np.zeros(nbits, dtype=np.uint8)
    vector[(hashes % np.uint64(nbits)).astype(np.intp)] = 1
    return Fingerprint(data=np.packbits(vector).tobytes(), nbits=nbits, radius=radius)


def fold_to_bits(envs: list[AtomEnvironment], nbits: int, radius: int) -> Fingerprint:
    """Set bit ``hash mod nbits`` for every environment.

    Args:
        envs: Retained environments.
        nbits: Vector width; must be a power of two of at least 8.
        radius: The radius the environments were generated with, recorded
            in the result.  It is not read off the environments: their
            largest radius can be smaller when deduplication retains no
            environment of the last rounds.

    Returns:
        The folded fingerprint.

    Raises:
        ConfigError: Width not a power of two of at least 8, or a negative
            radius.
    """
    return _fold(np.array([env.hash for env in envs], dtype=np.uint64), nbits, radius)


def morgan_fingerprint(
    graph: MolecularGraph,
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
    hashes: np.ndarray | None = None,
) -> Fingerprint:
    """Generate, deduplicate, and fold in one call.

    Args:
        graph: Parsed molecule.
        radius: Number of expansion rounds, recorded in the result.
        nbits: Vector width; must be a power of two of at least 8.
        hashes: The molecule's entry of :func:`morgan_hashes` at this
            radius, folded as it is; hashed here when omitted.

    Raises:
        ConfigError: Negative radius, or a width not a power of two of at
            least 8.
    """
    if hashes is None:
        hashes = morgan_hashes(ChunkIndex([graph]), radius)[0]
    return _fold(hashes, nbits, radius)
