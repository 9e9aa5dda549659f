"""Spatio-temporal deep coupling blocks over 4D sparse tensors.

Each block runs three decomposed submanifold convolutions (spatial 3x3x3x1,
temporal 1x1x1x3, and a temporally dilated 1x1x1x3 for cross-timestep
reach), fuses the temporal branches through a sigmoid-gated soft selection,
modulates the spatial branch with a (1 + beta) gate, and fuses everything
back onto the input through a point-wise convolution.  beta is the sigmoid
of two point-wise convolutions with a ReLU between them: a two-layer
perceptron, held as the ``weights.MlpWeights`` that also serves the point
encoder, the offset encoder and the flow head.  All convolutions are
submanifold: outputs exist exactly at the input's active sites, so residual
connections are always well defined.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ShapeError
from .ssm import sigmoid
from .voxelizer import KernelMap, SparseTensor4D, packing_strides
from .weights import MlpWeights, flatten_tree, uniform_init

# "Dilated by one" cross-timestep conv: neighbors at t-2, t, t+2.
GAP1_DILATION = 2

# Output rows per tile of a coupling block.  A tile's scratch, about seven
# (tile, C) arrays, stays cache-sized while the per-tile Python overhead
# stays small against the tile's work.
BLOCK_TILE = 4096


@dataclass(frozen=True)
class ConvKernel4D:
    """Sparse convolution kernel over (x, y, z, t) with optional t-dilation.

    weights: (kx, ky, kz, kt, Cin, Cout); extents odd where > 1 so the kernel
    is centered.  dilation_t stretches the temporal taps.
    """

    weights: np.ndarray
    bias: np.ndarray
    dilation_t: int = 1

    def __post_init__(self):
        if self.weights.ndim != 6:
            raise ShapeError(
                f"kernel weights must be (kx, ky, kz, kt, Cin, Cout), got {self.weights.shape}"
            )
        for extent in self.weights.shape[:4]:
            if extent > 1 and extent % 2 == 0:
                raise ShapeError(f"kernel extents must be odd where > 1, got {extent}")
        if self.bias.shape != (self.weights.shape[5],):
            raise ShapeError(f"bias must be ({self.weights.shape[5]},)")
        if self.dilation_t < 1:
            raise ShapeError("dilation_t must be >= 1")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ShapeError("kernel contains non-finite values")

    @property
    def c_in(self):
        return self.weights.shape[4]

    @property
    def c_out(self):
        return self.weights.shape[5]

    @classmethod
    def seeded(cls, extent, c_in, c_out, rng, dilation_t=1):
        kx, ky, kz, kt = extent
        return cls(
            weights=uniform_init(rng, (kx, ky, kz, kt, c_in, c_out)),
            bias=uniform_init(rng, (c_out,)),
            dilation_t=dilation_t,
        )

    def offsets(self):
        """Kernel taps as (n_taps, 4) displacements in (t, x, y, z) key order."""
        kx, ky, kz, kt = self.weights.shape[:4]
        taps = []
        for a in range(kx):
            for b in range(ky):
                for c in range(kz):
                    for d in range(kt):
                        taps.append(
                            (
                                (d - kt // 2) * self.dilation_t,
                                a - kx // 2,
                                b - ky // 2,
                                c - kz // 2,
                            )
                        )
        return np.array(taps, dtype=np.int64).reshape(-1, 4)


def _scratch(buf, shape):
    """A contiguous view of ``shape`` at the start of a contiguous ``buf``.

    Scratch views of an (N, 2C) buffer are taken this way rather than as
    column halves, because ufuncs over strided halves run far slower.
    """
    return buf.reshape(-1)[: math.prod(shape)].reshape(shape)


def _computed_rows(n, rows):
    """(lo, hi, a, b): the row range [lo, hi) asked of n rows (all of them
    when ``rows`` is None) and the range [a, b) to compute for it.

    numpy multiplies a one-row matrix through another BLAS path than a
    longer one, and the two round differently.  So that a row's bytes never
    depend on the range it is computed in, one row of a larger set is
    computed together with a neighbour.
    """
    lo, hi = (0, n) if rows is None else (int(rows[0]), int(rows[1]))
    if not 0 <= lo <= hi <= n:
        raise ShapeError(f"row range {rows} is outside the {n} rows")
    if hi - lo == 1 < n:
        a = min(lo, n - 2)
        return lo, hi, a, a + 2
    return lo, hi, lo, hi


def sparse_conv(tensor, kernel, *, kmap=None, rows=None):
    """Submanifold convolution: evaluate only at the input's active sites.

    Absent neighbors contribute zero, so the active set is preserved exactly.
    The tap order is fixed, keeping floating-point sums deterministic.
    ``kmap`` is a KernelMap of the tensor's active set, shared by convs over
    that set; without one the neighbour rows are built for this call only.
    ``rows=(lo, hi)`` evaluates output rows lo..hi-1 only and returns a
    tensor over those rows, byte for byte the same rows of the full output.
    """
    if kernel.c_in != tensor.n_channels:
        raise ShapeError(
            f"kernel expects {kernel.c_in} channels, tensor has {tensor.n_channels}"
        )
    if kmap is None:
        kmap = KernelMap(tensor.coords)
    elif not kmap.matches(tensor):
        raise AlignmentError("kernel map was built for a different active set")
    lo, hi, a, b = _computed_rows(tensor.n_active, rows)
    c_in, c_out = kernel.c_in, kernel.c_out
    flat_w = kernel.weights.reshape(-1, c_in, c_out)
    out = np.broadcast_to(kernel.bias, (b - a, c_out)).copy()
    # Every tap reuses these two buffers: fresh per-tap temporaries cost
    # more in page faults than the gather and the matmul themselves.
    # ``scratch`` holds a tap's gathered input rows, then the output rows
    # that tap adds to.
    scratch = np.empty((b - a) * max(c_in, c_out))
    prod = np.empty_like(out)
    for pair, w in zip(kmap.pairs(kernel.offsets()), flat_w):
        if pair is None:  # centre tap: every row is its own neighbour
            out += np.matmul(tensor.features[a:b], w, out=prod)
            continue
        # ``dst`` ascends, so the tap's pairs that write rows [a, b) are one
        # run; one pair of several is multiplied along with a neighbour.
        dst, src = pair
        # Bounds in ``dst``'s own dtype, so the search does not cast ``dst``.
        first, stop = dst.searchsorted(np.array((a, b), dtype=dst.dtype))
        _, _, p, q = _computed_rows(len(dst), (first, stop))
        if p == q:
            continue
        # The map's rows are in range; "clip" lets take skip buffering ``out``.
        gathered = tensor.features.take(
            src[p:q], axis=0, out=_scratch(scratch, (q - p, c_in)), mode="clip"
        )
        np.matmul(gathered, w, out=prod[: q - p])
        hit = dst[first:stop] - a
        acc = out.take(hit, axis=0, out=_scratch(scratch, (stop - first, c_out)), mode="clip")
        # ``out[hit] += prod`` minus its temporary
        out[hit] = np.add(acc, prod[first - p : stop - p], out=acc)
    return tensor.rows(a, b).with_features(out).rows(lo - a, hi - a)


def _require_aligned(a, b, what):
    if a.n_channels != b.n_channels:
        raise ShapeError(f"{what}: channel counts differ ({a.n_channels} vs {b.n_channels})")
    if not a.same_active_set(b):
        in_a = set(map(tuple, a.coords)) - set(map(tuple, b.coords))
        in_b = set(map(tuple, b.coords)) - set(map(tuple, a.coords))
        sample = sorted(in_a | in_b)[:8]
        raise AlignmentError(f"{what}: active sets differ, e.g. {sample}")


@dataclass(frozen=True)
class SfsmWeights:
    """Sigmoid gate for blending a main and an auxiliary branch.

    The gate is sigmoid(LeakyReLU(BN(pointwise(concat(main, aux))))) with
    inference-mode batch norm; the running statistics travel with the weights.
    """

    conv_w: np.ndarray  # (2C, C)
    conv_b: np.ndarray
    bn_scale: np.ndarray
    bn_shift: np.ndarray
    bn_mean: np.ndarray
    bn_var: np.ndarray
    bn_eps: float = 1e-5
    leaky_slope: float = 0.01

    def __post_init__(self):
        c = self.conv_w.shape[1]
        if self.conv_w.shape != (2 * c, c):
            raise ShapeError(f"SFSM conv must map 2C -> C, got {self.conv_w.shape}")
        for name in ("conv_b", "bn_scale", "bn_shift", "bn_mean", "bn_var"):
            if getattr(self, name).shape != (c,):
                raise ShapeError(f"SFSM {name} must be ({c},)")
        if self.bn_eps <= 0:
            raise ShapeError("bn_eps must be positive")
        if not np.all(self.bn_var >= 0):  # a variance; the gate takes its root
            raise ShapeError(f"SFSM bn_var must be >= 0, got {np.min(self.bn_var)}")
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ShapeError(f"leaky_slope must be in [0, 1], got {self.leaky_slope}")

    @classmethod
    def seeded(cls, channels, rng):
        return cls(
            conv_w=uniform_init(rng, (2 * channels, channels)),
            conv_b=uniform_init(rng, (channels,)),
            bn_scale=np.ones(channels),
            bn_shift=np.zeros(channels),
            bn_mean=np.zeros(channels),
            bn_var=np.ones(channels),
        )

    def gate(self, stacked):
        """Per-site blending weights alpha from the concatenated branches.

        The matmul allocates the result; every later step runs in place.
        ``stacked`` is scratch once the matmul has read it.
        """
        z = stacked @ self.conv_w
        z += self.conv_b
        z -= self.bn_mean
        z /= np.sqrt(self.bn_var + self.bn_eps)
        z *= self.bn_scale
        z += self.bn_shift
        # Leaky ReLU: for a slope in [0, 1], max(z, slope * z) is bit for bit
        # where(z >= 0, z, slope * z), signed zeros included, and it runs
        # several times faster than any masked form on mixed signs.
        slope_z = np.multiply(z, self.leaky_slope, out=_scratch(stacked, z.shape))
        np.maximum(z, slope_z, out=z)
        return sigmoid(z, out=z)


def sfsm(f_main, f_aux, w, *, buf=None):
    """Soft feature selection: alpha * main + (1 - alpha) * aux, element-wise.

    ``buf`` is an (N, 2C) scratch array for the concatenated branches, which
    the blend reuses once the gate has read them; with ``buf`` given, the
    gate's result is the only array allocated here.
    """
    _require_aligned(f_main, f_aux, "sfsm")
    stacked = np.concatenate([f_main.features, f_aux.features], axis=1, out=buf)
    out = w.gate(stacked)  # alpha
    main = np.multiply(out, f_main.features, out=_scratch(stacked, out.shape))
    np.subtract(1.0, out, out=out)
    out *= f_aux.features
    out += main
    return f_main.with_features(out)


def temporal_gated_block(f_spatial, f_temporal, f_temporal_ct, sfsm_w, gate_w, *, buf=None):
    """Fuse the temporal branches, then scale the spatial branch by (1 + beta).

    Returns (modulated spatial features, fused temporal features); the
    multiplier stays in (1, 2) so spatial magnitudes never shrink and at most
    double.  ``buf`` is the temporal SFSM's concatenation scratch.
    """
    f_temporal_fused = sfsm(f_temporal, f_temporal_ct, sfsm_w, buf=buf)
    # Consumed: a caller that passed the branches inline frees them here.
    del f_temporal, f_temporal_ct
    _require_aligned(f_spatial, f_temporal_fused, "temporal gate")
    mod = gate_w.apply(f_temporal_fused.features)
    sigmoid(mod, out=mod)  # beta
    mod += 1.0
    mod *= f_spatial.features
    return f_spatial.with_features(mod), f_temporal_fused


@dataclass(frozen=True)
class StdcbWeights:
    """All parameters of one spatio-temporal deep coupling block."""

    conv_spatial: ConvKernel4D  # 3x3x3x1
    conv_temporal: ConvKernel4D  # 1x1x1x3
    conv_cross: ConvKernel4D  # 1x1x1x3, temporally dilated
    sfsm_temporal: SfsmWeights
    gate: MlpWeights  # C -> C -> C, then a sigmoid: the temporal attention beta
    sfsm_fuse: SfsmWeights
    fuse_w: np.ndarray  # (2C, C)
    fuse_b: np.ndarray

    @classmethod
    def seeded(cls, channels, rng, cross_dilation=GAP1_DILATION):
        return cls(
            conv_spatial=ConvKernel4D.seeded((3, 3, 3, 1), channels, channels, rng),
            conv_temporal=ConvKernel4D.seeded((1, 1, 1, 3), channels, channels, rng),
            conv_cross=ConvKernel4D.seeded(
                (1, 1, 1, 3), channels, channels, rng, dilation_t=cross_dilation
            ),
            sfsm_temporal=SfsmWeights.seeded(channels, rng),
            gate=MlpWeights.seeded(channels, channels, channels, rng),
            sfsm_fuse=SfsmWeights.seeded(channels, rng),
            fuse_w=uniform_init(rng, (2 * channels, channels)),
            fuse_b=uniform_init(rng, (channels,)),
        )


def stdcb_forward(f_sparse, w, *, kmap=None, rows=None):
    """One coupling block; the active set is preserved end to end.

    The block runs in tiles of ``BLOCK_TILE`` output rows.  For each tile
    it runs the three convs, which share one KernelMap (``kmap`` if given,
    else one built for this block), the temporal gate, the fuse gate and
    the fuse matmul on that tile alone, and writes the tile into the
    block's one output array.  Above its input the block therefore holds
    its output and O(BLOCK_TILE · C) scratch: one (tile, 2C) buffer serves
    the concatenations of every tile.  ``rows=(lo, hi)`` computes output
    rows lo..hi-1 only and returns a tensor over them; the full call is the
    range (0, N).  A row's bytes do not depend on the tile size or range.
    """
    lo, hi, a, b = _computed_rows(f_sparse.n_active, rows)
    if kmap is None:
        kmap = KernelMap(f_sparse.coords)
    out = np.empty((b - a, w.fuse_w.shape[1]))
    bounds = [*range(a, b, BLOCK_TILE), b]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]  # a one-row tail tile joins the one before it
    buf = np.empty((min(b - a, BLOCK_TILE + 1), 2 * f_sparse.n_channels))
    for t0, t1 in zip(bounds, bounds[1:]):
        tile, tile_buf = (t0, t1), buf[: t1 - t0]
        # The conv outputs are passed inline, so the gate frees each as soon
        # as it is consumed.
        f_spatial_mod, f_temporal_fused = temporal_gated_block(
            sparse_conv(f_sparse, w.conv_spatial, kmap=kmap, rows=tile),
            sparse_conv(f_sparse, w.conv_temporal, kmap=kmap, rows=tile),
            sparse_conv(f_sparse, w.conv_cross, kmap=kmap, rows=tile),
            w.sfsm_temporal,
            w.gate,
            buf=tile_buf,
        )
        f_fused = sfsm(f_temporal_fused, f_spatial_mod, w.sfsm_fuse, buf=tile_buf)
        del f_spatial_mod, f_temporal_fused
        stacked = np.concatenate([f_fused.features, f_sparse.features[t0:t1]], axis=1, out=tile_buf)
        del f_fused
        fused = np.matmul(stacked, w.fuse_w, out=out[t0 - a : t1 - a])
        fused += w.fuse_b
    return f_sparse.rows(a, b).with_features(out).rows(lo - a, hi - a)


@dataclass(frozen=True)
class BackboneWeights:
    """Every block of the U backbone, nested as its layout: one encoder
    stack per level, one decoder stack per level transition, and at least
    one block per stack."""

    encoder: tuple  # tuple per level of tuple[StdcbWeights]
    decoder: tuple  # tuple per transition of tuple[StdcbWeights]

    def __post_init__(self):
        if not (self.encoder and len(self.decoder) == len(self.encoder) - 1
                and all(self.encoder) and all(self.decoder)):
            raise ShapeError(
                "a backbone needs at least one level, one decoder stack per level "
                "transition and one block per stack; got encoder stacks of depth "
                f"{[len(s) for s in self.encoder]} and decoder stacks of depth "
                f"{[len(s) for s in self.decoder]}"
            )

    @classmethod
    def seeded(cls, channels, encoder_depths, decoder_depths, rng,
               cross_dilation=GAP1_DILATION):
        def stacks(depths):
            return tuple(
                tuple(StdcbWeights.seeded(channels, rng, cross_dilation) for _ in range(depth))
                for depth in depths
            )

        # Arguments evaluate in order: the encoder stacks draw from rng first.
        return cls(encoder=stacks(encoder_depths), decoder=stacks(decoder_depths))


def pool2(coords):
    """Stride-2 spatial pooling of an active set: (parent coords, parent).

    ``parent_coords`` are the distinct (t, x // 2, y // 2, z // 2) keys in
    canonical order, and ``parent[i]`` is the row of fine row i's parent
    among them.  The time axis is untouched.  ``downsample2`` averages over
    this index and ``upsample_into`` gathers through it.
    """
    if len(coords) == 0:
        return np.empty((0, 4), dtype=np.int64), np.empty(0, dtype=np.int64)
    parents = coords.copy()
    parents[:, 1:] = np.floor_divide(parents[:, 1:], 2)
    lo = parents.min(axis=0)
    strides, _ = packing_strides(lo, parents.max(axis=0))
    # Packed keys sort like the parent rows, so a 1-D unique yields the
    # canonical parents and the inverse without sorting rows.
    _, first, parent = np.unique(
        (parents - lo) @ strides, return_index=True, return_inverse=True
    )
    return parents[first], parent


def downsample2(tensor, pooling):
    """Average the children that share a parent cell, over ``pooling``
    (``pool2`` of the tensor's coords).  Parent order is canonical, so the
    result is deterministic.
    """
    parent_coords, parent = pooling
    sums = np.zeros((len(parent_coords), tensor.n_channels))
    np.add.at(sums, parent, tensor.features)
    counts = np.bincount(parent, minlength=len(parent_coords))
    np.divide(sums, counts[:, None], out=sums)
    return SparseTensor4D(parent_coords, sums, _canonical=True)


def upsample_into(coarse, fine, pooling):
    """Add each parent's features into its child rows of ``fine`` in place
    (nearest unpooling onto a skip) and return ``fine``.

    ``pooling`` is ``pool2`` of ``fine``'s coords and ``coarse`` holds its
    parents' rows.  ``fine``'s features must be an array nothing else
    reads, such as a fresh block output.  Parent rows are gathered one
    ``BLOCK_TILE`` of rows at a time, so no array of length N is allocated.
    ``skip + parent`` rounds as ``parent + skip``.
    """
    _, parent = pooling
    for t0 in range(0, fine.n_active, BLOCK_TILE):
        tile = slice(t0, t0 + BLOCK_TILE)
        fine.features[tile] += coarse.features.take(parent[tile], axis=0)
    return fine


def _cut_last(blocks, kmap, rows):
    """(block, keyword arguments) per block of a stack, with ``rows`` passed
    to the last block only, and only when a range is given."""
    for i, block in enumerate(blocks):
        cut = rows is not None and i == len(blocks) - 1
        yield block, {"kmap": kmap, "rows": rows} if cut else {"kmap": kmap}


def backbone_forward(f_4d, weights, rows=None):
    """U-shaped encoder/decoder over coupling-block stacks.

    Spatial resolution halves between levels; skip connections add by active
    site, and the full-resolution output is residually combined with the
    input (active sets coincide by the submanifold property).  The level
    count is the weights' (one encoder stack per level).  A single level is
    a plain block stack: no skips and no outer residual, so depth-1
    reduces exactly to one block.

    ``rows=(lo, hi)`` returns a tensor over those output rows only.  Just
    the last block run at level 0 and the outer residual are cut to the
    range: every earlier block feeds a temporal conv or ``downsample2``, and
    both mix rows.

    Every array is dropped once its last reader has run.  The input is read
    by level 0's encoder stack and then only by the outer residual: with a
    range, only its rows are kept past that stack, and a single level, which
    has no residual, keeps none of it past the first block.  This frees the
    input only if the caller holds no reference to it.  Each decoder level
    adds the upsampled coarse features into its skip's rows in place.
    """
    n_levels = len(weights.encoder)
    # One KernelMap per level serves that level's encoder and decoder blocks,
    # and one pool2 index per transition serves its downsample and upsample.
    # Both live only in these locals, so each is dropped once its level's
    # decoder stack or upsample has run and none survives the return.
    x, skips = f_4d, []
    if n_levels == 1:
        del f_4d
    for level in range(n_levels):
        kmap = KernelMap(x.coords)
        cut = rows if n_levels == 1 else None
        for block, kwargs in _cut_last(weights.encoder[level], kmap, cut):
            x = stdcb_forward(x, block, **kwargs)
        if level < n_levels - 1:
            if level == 0 and rows is not None:
                # Only the outer residual reads the input from here on, and
                # only these rows; a view of them would keep it all alive.
                f_4d = f_4d.rows(*rows)
                f_4d = f_4d.with_features(f_4d.features.copy())
            pooling = pool2(x.coords)
            skips.append((x, kmap, pooling))
            x = downsample2(x, pooling)
    if n_levels == 1:
        return x
    for level in range(n_levels - 2, -1, -1):
        skip, kmap, pooling = skips.pop()
        x = upsample_into(x, skip, pooling)
        del skip, pooling  # x is the skip now; only the first decoder block reads it
        for block, kwargs in _cut_last(weights.decoder[level], kmap, rows if level == 0 else None):
            x = stdcb_forward(x, block, **kwargs)
    return f_4d.with_features(f_4d.features + x.features)


def count_parameters(weights):
    """Total scalar parameter count of a backbone weight set."""
    return sum(
        leaf.size for leaf in flatten_tree(weights).values() if isinstance(leaf, np.ndarray)
    )
