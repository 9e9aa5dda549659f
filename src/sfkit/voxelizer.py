"""Voxel grid construction, offset-preserving point assignment, feature
encoding, voxel pooling, coarse devoxelization, and temporal stacking.

Offsets are measured from the voxel center and normalized by half the cell
size, so every in-bounds point carries a conditioning vector in [-1, 1]^3.
Out-of-bounds points are flagged with a sentinel, never dropped.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, RangeError, ShapeError, check_config
from .weights import MlpWeights

OUT_OF_BOUNDS = -1

DEFAULT_CELL_SIZE = 0.2
DEFAULT_EXTENTS = (102, 102, 32)
DEFAULT_ORIGIN = (-10.2, -10.2, -3.2)
DEFAULT_CHANNELS = 16


@dataclass(frozen=True)
class VoxelGrid:
    origin: tuple = DEFAULT_ORIGIN
    cell_size: float = DEFAULT_CELL_SIZE
    extents: tuple = DEFAULT_EXTENTS

    def __post_init__(self):
        check_config(self, "cell_size", origin="grid_origin", extents="grid_extents")

    @property
    def shape(self):
        return tuple(int(e) for e in self.extents)

    def centers(self, coords):
        """World-space cell centers for (N, 3) integer voxel coordinates."""
        return np.asarray(self.origin) + (np.asarray(coords) + 0.5) * self.cell_size


class VoxelizationResult:
    """Per-point voxel assignment plus the occupied-voxel index structure.

    assignment[i] is the row of point i's voxel in voxel_coords, or
    OUT_OF_BOUNDS.  offsets[i] is the point's position relative to its voxel
    center in units of half a cell (zero for out-of-bounds points).
    """

    def __init__(self, grid, assignment, offsets, point_coords, voxel_coords):
        self.grid = grid
        self.assignment = assignment
        self.offsets = offsets
        self.point_coords = point_coords  # raw floor coords, may be out of range
        self.voxel_coords = voxel_coords  # (V, 3), occupied, lexicographic order
        in_bounds = assignment != OUT_OF_BOUNDS
        self.in_bounds = in_bounds
        order = np.argsort(assignment[in_bounds], kind="stable")
        members = np.flatnonzero(in_bounds)[order]
        counts = np.bincount(assignment[in_bounds], minlength=len(voxel_coords))
        self._indptr = np.concatenate(([0], np.cumsum(counts)))
        self._members = members

    @property
    def n_points(self):
        return len(self.assignment)

    @property
    def n_voxels(self):
        return len(self.voxel_coords)

    def points_in_voxel(self, v):
        """Original indices of the points assigned to occupied voxel v."""
        return self._members[self._indptr[v] : self._indptr[v + 1]]

    def clamped_coords(self):
        """Per-point voxel coords clipped into the grid (for serialization of
        out-of-bounds points, which carry zero features anyway)."""
        ext = np.asarray(self.grid.extents, dtype=np.int64)
        return np.clip(self.point_coords, 0, ext - 1)


def voxelize(cloud, grid):
    """Assign every point to its voxel and record the in-cell offset."""
    pts = cloud.points
    fcoords = np.floor((pts - np.asarray(grid.origin)) / grid.cell_size)
    ext = np.asarray(grid.extents, dtype=np.int64)
    # Bounds test in float space; clip before the int cast so far-away points
    # cannot overflow int64.
    in_bounds = np.all((fcoords >= 0) & (fcoords < ext), axis=1)
    coords = np.clip(fcoords, -(2.0**40), 2.0**40).astype(np.int64)

    offsets = np.zeros_like(pts)
    if np.any(in_bounds):
        centers = grid.centers(coords[in_bounds])
        offsets[in_bounds] = (pts[in_bounds] - centers) / (grid.cell_size / 2.0)

    # Linear index over the grid gives a deterministic (lexicographic) order
    # for the occupied-voxel list.
    linear = (coords[:, 0] * ext[1] + coords[:, 1]) * ext[2] + coords[:, 2]
    assignment = np.full(len(pts), OUT_OF_BOUNDS, dtype=np.int64)
    if np.any(in_bounds):
        uniq, inverse = np.unique(linear[in_bounds], return_inverse=True)
        assignment[in_bounds] = inverse
        vx, rem = np.divmod(uniq, ext[1] * ext[2])
        vy, vz = np.divmod(rem, ext[2])
        voxel_coords = np.stack([vx, vy, vz], axis=1)
    else:
        voxel_coords = np.empty((0, 3), dtype=np.int64)

    return VoxelizationResult(grid, assignment, offsets, coords, voxel_coords)


def encode_point_features(cloud, weights=None, seed=0, channels=DEFAULT_CHANNELS):
    """Per-point features from a two-layer MLP over raw coordinates.

    When no weights are given they are drawn from the seeded initializer, so
    the same (cloud, seed) pair always produces identical features.
    """
    if weights is None:
        weights = MlpWeights.seeded(3, channels, channels, np.random.default_rng(seed))
    if weights.n_in != 3:
        raise ShapeError(f"point encoder must take 3 inputs, got {weights.n_in}")
    return weights.apply(cloud.points)


def pool_to_voxels(point_features, result):
    """Mean of member-point features per occupied voxel."""
    feats = np.asarray(point_features, dtype=np.float64)
    if feats.shape[0] != result.n_points:
        raise ShapeError(
            f"{feats.shape[0]} feature rows vs {result.n_points} assigned points"
        )
    if result.n_voxels == 0:
        return np.empty((0, feats.shape[1] if feats.ndim == 2 else 0))
    sums = np.zeros((result.n_voxels, feats.shape[1]))
    np.add.at(sums, result.assignment[result.in_bounds], feats[result.in_bounds])
    counts = np.bincount(
        result.assignment[result.in_bounds], minlength=result.n_voxels
    )
    return sums / counts[:, None]


def devoxelize_coarse(voxel_features, result):
    """Copy each voxel's feature to its member points (out-of-bounds -> zero)."""
    vf = np.asarray(voxel_features, dtype=np.float64)
    if vf.shape[0] != result.n_voxels:
        raise ShapeError(f"{vf.shape[0]} voxel rows vs {result.n_voxels} occupied voxels")
    out = np.zeros((result.n_points, vf.shape[1]))
    out[result.in_bounds] = vf[result.assignment[result.in_bounds]]
    return out


def packing_strides(lo, hi):
    """Strides that pack keys between ``lo`` and ``hi`` (per axis, inclusive)
    into one int64 as ``(keys - lo) @ strides``, plus the box's cell count.

    Packing is row-major over the bounding box, so packed keys sort like the
    rows they pack.  The cell count is taken in Python ints: a box of more
    than 2**63 - 1 cells would wrap the keys, so it raises RangeError.
    """
    span = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
    cells = math.prod(span)
    if cells > np.iinfo(np.int64).max:
        raise RangeError(
            f"cannot pack keys into int64: a bounding box spanning {span} cells "
            f"per axis holds {cells} cells"
        )
    strides = [math.prod(span[i + 1 :]) for i in range(len(span))]
    return np.array(strides, dtype=np.int64), cells


class SparseTensor4D:
    """Map from (t, ix, iy, iz) keys to C-channel feature rows.

    Rows are stored in canonical (t, ix, iy, iz)-lexicographic order, which
    makes active-set comparison and deterministic iteration trivial.  Inserted
    features must be finite.
    """

    def __init__(self, coords, features, _canonical=False):
        coords = np.asarray(coords, dtype=np.int64)
        features = np.asarray(features, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 4:
            raise ShapeError(f"coords must be (N, 4), got {coords.shape}")
        if features.ndim != 2 or features.shape[0] != coords.shape[0]:
            raise ShapeError(
                f"features {features.shape} do not align with coords {coords.shape}"
            )
        if not np.all(np.isfinite(features)):
            bad = int(np.flatnonzero(~np.isfinite(features).all(axis=1))[0])
            raise NumericError("non-finite feature on insert", index=bad)
        if not _canonical:
            order = np.lexsort((coords[:, 3], coords[:, 2], coords[:, 1], coords[:, 0]))
            coords = coords[order]
            features = features[order]
            if len(coords) > 1 and np.any(np.all(np.diff(coords, axis=0) == 0, axis=1)):
                raise ShapeError("duplicate (t, ix, iy, iz) keys")
        self.coords = coords
        self.features = features
        self._packed = None
        self._span = None

    @property
    def n_active(self):
        return self.coords.shape[0]

    @property
    def n_channels(self):
        return self.features.shape[1]

    def _packing(self):
        if self._packed is None:
            if self.n_active == 0:
                self._span = (np.zeros(4, np.int64), np.ones(4, np.int64), None)
                self._packed = np.empty(0, dtype=np.int64)
            else:
                lo = self.coords.min(axis=0)
                hi = self.coords.max(axis=0)
                strides, _ = packing_strides(lo, hi)
                self._span = (lo, hi - lo + 1, strides)
                self._packed = self._pack(self.coords)
        return self._packed

    def _pack(self, coords):
        lo, _, strides = self._span
        return (coords - lo) @ strides

    def lookup(self, coords):
        """Row indices for (M, 4) query keys plus a found mask."""
        coords = np.asarray(coords, dtype=np.int64)
        packed = self._packing()
        if self.n_active == 0:
            return np.zeros(len(coords), np.int64), np.zeros(len(coords), bool)
        lo, size, _ = self._span
        rel = coords - lo
        inside = np.all((rel >= 0) & (rel < size), axis=1)
        q = np.zeros(len(coords), dtype=np.int64)
        q[inside] = self._pack(coords[inside])
        idx = np.searchsorted(packed, q)
        idx_c = np.minimum(idx, len(packed) - 1)
        found = inside & (packed[idx_c] == q)
        return np.where(found, idx_c, 0), found

    def feature_at(self, key):
        idx, found = self.lookup(np.asarray(key, dtype=np.int64).reshape(1, 4))
        if not found[0]:
            raise KeyError(f"key {tuple(key)} not active")
        return self.features[idx[0]]

    def with_features(self, features):
        """Same active set (already canonical), new feature rows."""
        features = np.asarray(features, dtype=np.float64)
        if features.shape[0] != self.n_active:
            raise ShapeError(
                f"{features.shape[0]} feature rows vs {self.n_active} active sites"
            )
        if not np.all(np.isfinite(features)):
            bad = int(np.flatnonzero(~np.isfinite(features).all(axis=1))[0])
            raise NumericError("non-finite feature on insert", index=bad)
        out = SparseTensor4D.__new__(SparseTensor4D)
        out.coords = self.coords
        out.features = features
        out._packed = self._packed
        out._span = self._span
        return out

    def same_active_set(self, other):
        return np.array_equal(self.coords, other.coords)

    def to_dense(self, shape):
        """(nx, ny, nz, T, C) dense array with zeros at inactive sites."""
        nx, ny, nz, nt = shape
        dense = np.zeros((nx, ny, nz, nt, self.n_channels))
        t, x, y, z = (self.coords[:, i] for i in range(4))
        dense[x, y, z, t] = self.features
        return dense


# The dense neighbour table costs 4 bytes per bounding-box cell.  This bound
# keeps it under 256 bytes per active site (two 16-channel float64 rows), so
# a far-flung or huge-grid active set cannot allocate a giant table; such
# sets search the sorted keys instead.  Voxelized scenes stay well below it.
TABLE_CELLS_PER_SITE = 64


class KernelMap:
    """Neighbour rows of one active set, built once per kernel tap.

    pairs(taps) gives, for each (t, x, y, z) displacement, int32 row arrays
    (dst, src) with coords[dst] + tap == coords[src] and dst ascending: the
    rows, in order, where a per-tap ``lookup`` of coords + tap hits.  The
    zero tap, which maps every row to itself, gives None.  Maps live as long
    as the KernelMap; whoever runs convolutions over one active set creates
    it and drops it when done.
    """

    def __init__(self, coords):
        self.coords = coords
        self._pairs = {}

    def matches(self, tensor):
        return self.coords is tensor.coords or np.array_equal(self.coords, tensor.coords)

    def pairs(self, taps):
        taps = [tuple(int(v) for v in tap) for tap in taps]
        missing = [tap for tap in taps if any(tap) and tap not in self._pairs]
        if missing:
            self._pairs.update(zip(missing, _neighbour_pairs(self.coords, missing)))
        return [self._pairs[tap] if any(tap) else None for tap in taps]


def _dense_table(keys, cells):
    table = np.full(cells, -1, dtype=np.int32)
    table[keys] = np.arange(len(keys), dtype=np.int32)
    return table


def _neighbour_pairs(coords, taps):
    """(dst, src) per tap for canonical (lexicographic) coords."""
    taps = np.asarray(taps, dtype=np.int64)
    n = len(coords)
    if n == 0:
        empty = np.empty(0, dtype=np.int32)
        return [(empty, empty)] * len(taps)
    # Pack keys over the bounding box padded by the kernel reach on x, y, z,
    # so a tap shifts a key by one constant and never wraps into another
    # row of the box.  Time, the outermost axis, needs no padding: a tap
    # leaving it leaves [0, cells), and the sorted keys give that row range.
    pad = np.abs(taps).max(axis=0)
    pad[0] = 0
    lo = coords.min(axis=0) - pad
    strides, cells = packing_strides(lo, coords.max(axis=0) + pad)
    keys = (coords - lo) @ strides
    table = _dense_table(keys, cells) if cells <= TABLE_CELLS_PER_SITE * n else None
    out = []
    for delta in (taps @ strides).tolist():
        first, stop = np.searchsorted(keys, (-delta, cells - delta))
        shifted = keys[first:stop] + delta
        if table is not None:
            rows = table[shifted]
            hit = np.flatnonzero(rows >= 0)
        else:
            rows = np.minimum(np.searchsorted(keys, shifted), n - 1)
            hit = np.flatnonzero(keys[rows] == shifted)
        out.append(((hit + first).astype(np.int32), rows[hit].astype(np.int32, copy=False)))
    return out


def stack_temporal(results, voxel_features):
    """Concatenate per-frame voxel features along a leading time key.

    Every frame must share the grid and the channel count.  The output holds
    key (tau, v) exactly for the voxels occupied at frame tau.
    """
    if len(results) != len(voxel_features):
        raise ShapeError("one feature matrix per voxelization result required")
    if not results:
        raise ShapeError("need at least one frame")
    grid = results[0].grid
    channels = None
    coords_parts, feat_parts = [], []
    for tau, (res, feats) in enumerate(zip(results, voxel_features)):
        if res.grid != grid:
            raise ShapeError(f"frame {tau} uses a different voxel grid")
        feats = np.asarray(feats, dtype=np.float64)
        if feats.shape[0] != res.n_voxels:
            raise ShapeError(
                f"frame {tau}: {feats.shape[0]} rows vs {res.n_voxels} voxels"
            )
        if channels is None:
            channels = feats.shape[1]
        elif feats.shape[1] != channels:
            raise ShapeError(
                f"frame {tau}: channel count {feats.shape[1]} != {channels}"
            )
        keys = np.empty((res.n_voxels, 4), dtype=np.int64)
        keys[:, 0] = tau
        keys[:, 1:] = res.voxel_coords
        coords_parts.append(keys)
        feat_parts.append(feats)
    return SparseTensor4D(np.vstack(coords_parts), np.vstack(feat_parts))
