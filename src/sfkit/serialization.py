"""Z-order (Morton) serialization of voxelized points and its exact inverse.

Points are keyed by the Morton code of their voxel coordinate: the bits of
(ix, iy, iz) are interleaved into a single 63-bit integer so that sorting by
key walks a Z-order space-filling curve.  Sorting is stable, so points that
share a voxel keep their original relative order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPermutation, RangeError, ShapeError

MORTON_BITS = 21
MORTON_COORD_MAX = (1 << MORTON_BITS) - 1

_U = np.uint64


def _spread(v):
    """Insert two zero bits between each of the low 21 bits of v (uint64)."""
    v = v & _U(0x1FFFFF)
    v = (v | (v << _U(32))) & _U(0x1F00000000FFFF)
    v = (v | (v << _U(16))) & _U(0x1F0000FF0000FF)
    v = (v | (v << _U(8))) & _U(0x100F00F00F00F00F)
    v = (v | (v << _U(4))) & _U(0x10C30C30C30C30C3)
    v = (v | (v << _U(2))) & _U(0x1249249249249249)
    return v


def _compact(v):
    """Inverse of _spread: gather every third bit back into the low 21 bits."""
    v = v & _U(0x1249249249249249)
    v = (v | (v >> _U(2))) & _U(0x10C30C30C30C30C3)
    v = (v | (v >> _U(4))) & _U(0x100F00F00F00F00F)
    v = (v | (v >> _U(8))) & _U(0x1F0000FF0000FF)
    v = (v | (v >> _U(16))) & _U(0x1F00000000FFFF)
    v = (v | (v >> _U(32))) & _U(0x1FFFFF)
    return v


def morton_encode(ix, iy, iz):
    """Interleave three 21-bit coordinates into one Morton code.

    Bit k of axis a lands at output bit 3k + rank(a) with ranks x=0, y=1, z=2,
    so (1,0,0) -> 1, (0,1,0) -> 2, (0,0,1) -> 4.  Accepts scalars or arrays
    (broadcast together); scalars come back as a plain int.
    """
    scalar = np.isscalar(ix) and np.isscalar(iy) and np.isscalar(iz)
    ix, iy, iz = np.asarray(ix), np.asarray(iy), np.asarray(iz)
    for name, c in (("ix", ix), ("iy", iy), ("iz", iz)):
        if np.any(c < 0) or np.any(c > MORTON_COORD_MAX):
            raise RangeError(
                f"{name} outside [0, 2^{MORTON_BITS}); got extreme value "
                f"{int(c.min()) if np.any(c < 0) else int(c.max())}"
            )
    code = (
        _spread(ix.astype(np.uint64))
        | (_spread(iy.astype(np.uint64)) << _U(1))
        | (_spread(iz.astype(np.uint64)) << _U(2))
    )
    return int(code) if scalar else code


def morton_decode(code):
    """Recover (ix, iy, iz) from a Morton code. Exact inverse of morton_encode."""
    scalar = np.isscalar(code)
    code = np.asarray(code, dtype=np.uint64)
    ix = _compact(code).astype(np.int64)
    iy = _compact(code >> _U(1)).astype(np.int64)
    iz = _compact(code >> _U(2)).astype(np.int64)
    if scalar:
        return int(ix), int(iy), int(iz)
    return ix, iy, iz


def morton_codes(coords):
    """Morton codes for an (N, 3) integer coordinate array."""
    coords = np.asarray(coords)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ShapeError(f"expected (N, 3) voxel coordinates, got {coords.shape}")
    return morton_encode(coords[:, 0], coords[:, 1], coords[:, 2])


@dataclass(frozen=True)
class SerializedSequence:
    """A payload reordered along the Z-order curve plus the permutation pair.

    ``order[j]`` is the original index of the row at sequence position j;
    ``rank[i]`` is the sequence position of original row i (rank = order^-1).
    """

    order: np.ndarray
    rank: np.ndarray
    rows: np.ndarray

    def __len__(self):
        return len(self.order)


def serialize(rows, coords):
    """Sort payload rows by the Morton code of their voxel coordinate.

    Ties (points sharing a voxel) keep their original relative order, so the
    permutation is reproducible.  Returns a SerializedSequence carrying both
    the forward permutation and its inverse.
    """
    rows = np.asarray(rows)
    coords = np.asarray(coords)
    if rows.shape[0] != coords.shape[0]:
        raise ShapeError(
            f"{rows.shape[0]} payload rows vs {coords.shape[0]} coordinates"
        )
    keys = morton_codes(coords)
    order = np.argsort(keys, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return SerializedSequence(order=order, rank=rank, rows=rows[order])


def deserialize(seq):
    """Undo serialize: return the payload in original row order (bit-exact)."""
    order, rank = np.asarray(seq.order), np.asarray(seq.rank)
    n = len(order)
    if rank.shape != order.shape or seq.rows.shape[0] != n:
        raise InvalidPermutation("permutation/payload lengths disagree")
    if n:
        counts = np.bincount(order, minlength=n) if order.min() >= 0 else None
        if counts is None or len(counts) != n or not np.all(counts == 1):
            raise InvalidPermutation("order is not a permutation of 0..n-1")
        if not np.array_equal(rank[order], np.arange(n)):
            raise InvalidPermutation("rank is not the inverse of order")
    return seq.rows[rank]
