"""Spatio-temporal deep coupling blocks over 4D sparse tensors.

Each block runs three decomposed submanifold convolutions (spatial 3x3x3x1,
temporal 1x1x1x3, and a temporally dilated 1x1x1x3 for cross-timestep
reach), fuses the temporal branches through a sigmoid-gated soft selection,
modulates the spatial branch with a (1 + beta) gate, and fuses everything
back onto the input through a point-wise convolution.  All convolutions are
submanifold: outputs exist exactly at the input's active sites, so residual
connections are always well defined.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, InvalidConfig, ShapeError, check_config
from .ssm import sigmoid
from .voxelizer import KernelMap, SparseTensor4D, packing_strides
from .weights import flatten_tree, uniform_init

# "Dilated by one" cross-timestep conv: neighbors at t-2, t, t+2.
GAP1_DILATION = 2


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


def sparse_conv(tensor, kernel, *, kmap=None):
    """Submanifold convolution: evaluate only at the input's active sites.

    Absent neighbors contribute zero, so the active set is preserved exactly.
    The tap order is fixed, keeping floating-point sums deterministic.
    ``kmap`` is a KernelMap of the tensor's active set, shared by convs over
    that set; without one the neighbour rows are built for this call only.
    """
    if kernel.c_in != tensor.n_channels:
        raise ShapeError(
            f"kernel expects {kernel.c_in} channels, tensor has {tensor.n_channels}"
        )
    if kmap is None:
        kmap = KernelMap(tensor.coords)
    elif not kmap.matches(tensor):
        raise AlignmentError("kernel map was built for a different active set")
    c_in, c_out = kernel.c_in, kernel.c_out
    flat_w = kernel.weights.reshape(-1, c_in, c_out)
    out = np.broadcast_to(kernel.bias, (tensor.n_active, c_out)).copy()
    # Every tap reuses these two buffers: fresh per-tap temporaries cost
    # more in page faults than the gather and the matmul themselves.
    # ``scratch`` holds a tap's gathered input rows, then the output rows
    # that tap adds to.
    scratch = np.empty(tensor.n_active * max(c_in, c_out))
    prod = np.empty_like(out)
    for pair, w in zip(kmap.pairs(kernel.offsets()), flat_w):
        if pair is None:  # centre tap: every row is its own neighbour
            out += np.matmul(tensor.features, w, out=prod)
            continue
        dst, src = pair
        n = len(src)
        # The map's rows are in range; "clip" lets take skip buffering ``out``.
        rows = np.take(tensor.features, src, axis=0, out=_scratch(scratch, (n, c_in)), mode="clip")
        np.matmul(rows, w, out=prod[:n])
        acc = np.take(out, dst, axis=0, out=_scratch(scratch, (n, c_out)), mode="clip")
        out[dst] = np.add(acc, prod[:n], out=acc)  # ``out[dst] += prod`` minus its temporary
    return tensor.with_features(out)


def pointwise(tensor, weight, bias):
    """1x1x1x1 convolution: a per-site linear map."""
    weight = np.asarray(weight, dtype=np.float64)
    if weight.shape[0] != tensor.n_channels:
        raise ShapeError(
            f"pointwise weight expects {weight.shape[0]} channels, tensor has "
            f"{tensor.n_channels}"
        )
    return tensor.with_features(tensor.features @ weight + bias)


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


@dataclass(frozen=True)
class GateWeights:
    """Two point-wise convolutions producing the temporal attention beta."""

    w1: np.ndarray  # (C, C)
    b1: np.ndarray
    w2: np.ndarray  # (C, C)
    b2: np.ndarray

    def __post_init__(self):
        c = self.w1.shape[0]
        if self.w1.shape != (c, c) or self.w2.shape != (c, c):
            raise ShapeError("gate convolutions must be square (C, C)")
        if self.b1.shape != (c,) or self.b2.shape != (c,):
            raise ShapeError("gate biases must be (C,)")

    @classmethod
    def seeded(cls, channels, rng):
        return cls(
            w1=uniform_init(rng, (channels, channels)),
            b1=uniform_init(rng, (channels,)),
            w2=uniform_init(rng, (channels, channels)),
            b2=uniform_init(rng, (channels,)),
        )

    def beta(self, feats):
        hidden = feats @ self.w1
        hidden += self.b1
        np.maximum(hidden, 0.0, out=hidden)
        z = hidden @ self.w2
        del hidden
        z += self.b2
        return sigmoid(z, out=z)


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
    mod = gate_w.beta(f_temporal_fused.features)
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
    gate: GateWeights
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
            gate=GateWeights.seeded(channels, rng),
            sfsm_fuse=SfsmWeights.seeded(channels, rng),
            fuse_w=uniform_init(rng, (2 * channels, channels)),
            fuse_b=uniform_init(rng, (channels,)),
        )


def stdcb_forward(f_sparse, w, *, kmap=None):
    """One coupling block; the active set is preserved end to end.

    The three convs share one KernelMap (``kmap`` if given, else one built
    for this block).  Above its input the block holds at most six (N, C)
    arrays at once, whatever the depth of the stack it sits in: every step
    after a matmul runs in place, and one (N, 2C) buffer serves the
    concatenations of both SFSM gates and of the fuse step.
    """
    if f_sparse.n_active == 0:
        return f_sparse
    if kmap is None:
        kmap = KernelMap(f_sparse.coords)
    # The conv outputs are passed inline, so the gate frees each as soon as
    # it is consumed; ``buf`` is allocated after all three convs.
    f_spatial_mod, f_temporal_fused = temporal_gated_block(
        sparse_conv(f_sparse, w.conv_spatial, kmap=kmap),
        sparse_conv(f_sparse, w.conv_temporal, kmap=kmap),
        sparse_conv(f_sparse, w.conv_cross, kmap=kmap),
        w.sfsm_temporal,
        w.gate,
        buf=(buf := np.empty((f_sparse.n_active, 2 * f_sparse.n_channels))),
    )
    f_fused = sfsm(f_temporal_fused, f_spatial_mod, w.sfsm_fuse, buf=buf)
    del f_spatial_mod, f_temporal_fused
    stacked = np.concatenate([f_fused.features, f_sparse.features], axis=1, out=buf)
    del f_fused
    out = stacked @ w.fuse_w
    out += w.fuse_b
    return f_sparse.with_features(out)


@dataclass(frozen=True)
class StdcbConfig:
    """Backbone layout: one encoder stack per level, decoder stacks between."""

    channels: int = 16
    encoder_depths: tuple = (2, 2, 2, 2, 2)
    decoder_depths: tuple = (1, 1, 1, 1)
    cross_dilation: int = GAP1_DILATION

    def __post_init__(self):
        check_config(self, "channels", "encoder_depths", "decoder_depths")
        if len(self.decoder_depths) != len(self.encoder_depths) - 1:
            raise InvalidConfig(
                "need one decoder stack per level transition "
                f"({len(self.encoder_depths) - 1}), got {len(self.decoder_depths)}"
            )
        if self.cross_dilation < 1:
            raise InvalidConfig("cross_dilation must be >= 1")

    @classmethod
    def desk(cls, channels=16, cross_dilation=GAP1_DILATION):
        """Shrunken two-level layout that keeps dense-oracle tests feasible."""
        return cls(
            channels=channels,
            encoder_depths=(1, 1),
            decoder_depths=(1,),
            cross_dilation=cross_dilation,
        )

    @property
    def n_levels(self):
        return len(self.encoder_depths)


@dataclass(frozen=True)
class BackboneWeights:
    encoder: tuple  # tuple per level of tuple[StdcbWeights]
    decoder: tuple  # tuple per transition of tuple[StdcbWeights]

    @classmethod
    def seeded(cls, config, rng):
        enc = tuple(
            tuple(
                StdcbWeights.seeded(config.channels, rng, config.cross_dilation)
                for _ in range(depth)
            )
            for depth in config.encoder_depths
        )
        dec = tuple(
            tuple(
                StdcbWeights.seeded(config.channels, rng, config.cross_dilation)
                for _ in range(depth)
            )
            for depth in config.decoder_depths
        )
        return cls(encoder=enc, decoder=dec)


def downsample2(tensor):
    """Stride-2 spatial pooling: children sharing a parent cell are averaged.

    The time axis is untouched.  Parent order is canonical, so the result is
    deterministic.
    """
    if tensor.n_active == 0:
        return tensor
    parents = tensor.coords.copy()
    parents[:, 1:] = np.floor_divide(parents[:, 1:], 2)
    lo = parents.min(axis=0)
    strides, _ = packing_strides(lo, parents.max(axis=0))
    # Packed keys sort like the parent rows, so a 1-D unique yields the
    # canonical parents and the inverse without sorting rows.
    _, first, inverse = np.unique(
        (parents - lo) @ strides, return_index=True, return_inverse=True
    )
    sums = np.zeros((len(first), tensor.n_channels))
    np.add.at(sums, inverse, tensor.features)
    counts = np.bincount(inverse, minlength=len(first))
    return SparseTensor4D(parents[first], sums / counts[:, None], _canonical=True)


def upsample_into(coarse, fine_coords):
    """Copy each parent feature to its child active sites (nearest unpooling)."""
    parents = np.asarray(fine_coords, dtype=np.int64).copy()
    parents[:, 1:] = np.floor_divide(parents[:, 1:], 2)
    idx, found = coarse.lookup(parents)
    if not np.all(found):
        raise AlignmentError("fine active site without a coarse parent")
    return coarse.features[idx]


def backbone_forward(f_4d, config, weights):
    """U-shaped encoder/decoder over coupling-block stacks.

    Spatial resolution halves between levels; skip connections add by active
    site, and the full-resolution output is residually combined with the
    input (active sets coincide by the submanifold property).  A single-level
    config is a plain block stack: no skips and no outer residual, so depth-1
    reduces exactly to one block.
    """
    if len(weights.encoder) != config.n_levels or len(weights.decoder) != config.n_levels - 1:
        raise ShapeError("weights do not match the configured level count")
    # One KernelMap per level serves that level's encoder and decoder blocks.
    # Maps live only in these locals, so each is dropped once its level's
    # decoder stack has run and none survives the return.
    x = f_4d
    skips = []
    for level in range(config.n_levels):
        kmap = KernelMap(x.coords)
        for block in weights.encoder[level]:
            x = stdcb_forward(x, block, kmap=kmap)
        if level < config.n_levels - 1:
            skips.append((x, kmap))
            x = downsample2(x)
    if config.n_levels == 1:
        return x
    for level in range(config.n_levels - 2, -1, -1):
        skip, kmap = skips.pop()
        up = upsample_into(x, skip.coords)
        up += skip.features
        x = skip.with_features(up)
        del skip, up  # the skip's rows are summed in; nothing else reads them
        for block in weights.decoder[level]:
            x = stdcb_forward(x, block, kmap=kmap)
    return f_4d.with_features(f_4d.features + x.features)


def count_parameters(weights):
    """Total scalar parameter count of a backbone weight set."""
    return sum(
        leaf.size for leaf in flatten_tree(weights).values() if isinstance(leaf, np.ndarray)
    )
