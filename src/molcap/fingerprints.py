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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .smiles import MolecularGraph

__all__ = [
    "AtomEnvironment",
    "Fingerprint",
    "fnv1a_64",
    "initial_invariants",
    "morgan_iterate",
    "check_fingerprint_width",
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


def _hash_ints(values: list[int]) -> int:
    """Hash integers via their fixed 8-byte big-endian encodings."""
    data = b"".join((v & _MASK64).to_bytes(8, "big") for v in values)
    return fnv1a_64(data)


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
        data = bytes.fromhex(text)
        return cls(data=data, nbits=len(data) * 8, radius=radius)

    def to_array(self) -> np.ndarray:
        """Unpacked 0/1 vector of length nbits, dtype uint8."""
        return np.unpackbits(np.frombuffer(self.data, dtype=np.uint8))


def initial_invariants(graph: MolecularGraph) -> list[int]:
    """Per-atom 64-bit starting values from local atom properties."""
    values = []
    for i, atom in enumerate(graph.atoms):
        values.append(
            _hash_ints(
                [
                    atom.element,
                    graph.heavy_degree(i),
                    atom.formal_charge,
                    atom.total_h,
                    int(atom.in_ring),
                    int(atom.aromatic),
                ]
            )
        )
    return values


def morgan_iterate(graph: MolecularGraph, radius: int) -> list[AtomEnvironment]:
    """Expand invariants outward and return the retained environments.

    Args:
        graph: Parsed molecule.
        radius: Number of expansion rounds (0 keeps initial values only).

    Returns:
        Environments surviving deduplication, in retention order.
    """
    n = len(graph.atoms)
    hashes = initial_invariants(graph)
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
                flat.append(order)
                flat.append(neighbor_hash)
            new_hashes.append(_hash_ints(flat))
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


def check_fingerprint_width(nbits: int) -> None:
    """Raise ConfigError unless ``nbits`` is a power of two of at least 8."""
    if nbits < 8 or nbits & (nbits - 1):
        raise ConfigError(
            f"fingerprint width must be a power of two of at least 8, got {nbits}"
        )


def fold_to_bits(
    envs: list[AtomEnvironment], nbits: int, radius: int | None = None
) -> Fingerprint:
    """Set bit ``hash mod nbits`` for every environment.

    Args:
        envs: Retained environments.
        nbits: Vector width; must be a power of two of at least 8.
        radius: Recorded generation radius (defaults to the largest
            radius present, or 0 for an empty list).

    Returns:
        The folded fingerprint.

    Raises:
        ConfigError: Width not a power of two of at least 8.
    """
    check_fingerprint_width(nbits)
    if radius is None:
        radius = max((env.radius for env in envs), default=0)
    buffer = bytearray(nbits // 8)
    for env in envs:
        bit = env.hash % nbits
        buffer[bit >> 3] |= 0x80 >> (bit & 7)
    return Fingerprint(data=bytes(buffer), nbits=nbits, radius=radius)


def morgan_fingerprint(
    graph: MolecularGraph, radius: int = DEFAULT_RADIUS, nbits: int = DEFAULT_NBITS
) -> Fingerprint:
    """Generate, deduplicate, and fold in one call."""
    return fold_to_bits(morgan_iterate(graph, radius), nbits, radius=radius)
