import dataclasses
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from sfkit import ssm
from sfkit import pointcloud as pc
from sfkit import stdcb
from sfkit import voxelizer as vx
from sfkit.errors import AlignmentError, InvalidInput, NumericError, ShapeError
from sfkit.pipeline import InferenceTrace, RunConfig, infer_flow, init_pipeline_weights
from sfkit.voxelizer import SparseTensor4D
from sfkit.weights import MlpWeights, flatten_tree

GRID = (8, 8, 8, 5)  # (nx, ny, nz, T)


def random_tensor(rng, occupancy=0.4, channels=4, grid=GRID):
    nx, ny, nz, nt = grid
    all_keys = np.array(
        [(t, x, y, z) for t in range(nt) for x in range(nx)
         for y in range(ny) for z in range(nz)],
        dtype=np.int64,
    )
    pick = rng.random(len(all_keys)) < occupancy
    coords = all_keys[pick]
    feats = rng.normal(size=(len(coords), channels))
    return SparseTensor4D(coords, feats)


def to_dense(tensor, grid=GRID):
    return tensor.to_dense(grid)


def active_mask(tensor, grid=GRID):
    nx, ny, nz, nt = grid
    mask = np.zeros((nx, ny, nz, nt), dtype=bool)
    t, x, y, z = (tensor.coords[:, i] for i in range(4))
    mask[x, y, z, t] = True
    return mask


def dense_conv(dense, kernel, grid=GRID):
    """Independent dense convolution: shift-and-add over every kernel tap."""
    nx, ny, nz, nt = grid
    kx, ky, kz, kt = kernel.weights.shape[:4]
    out = np.zeros((nx, ny, nz, nt, kernel.c_out))
    for a in range(kx):
        for b in range(ky):
            for c in range(kz):
                for d in range(kt):
                    off = (
                        a - kx // 2,
                        b - ky // 2,
                        c - kz // 2,
                        (d - kt // 2) * kernel.dilation_t,
                    )
                    shifted = np.zeros_like(dense)
                    src = [slice(max(0, o), dim + min(0, o))
                           for o, dim in zip(off, (nx, ny, nz, nt))]
                    dst = [slice(max(0, -o), dim + min(0, -o))
                           for o, dim in zip(off, (nx, ny, nz, nt))]
                    shifted[tuple(dst)] = dense[tuple(src)]
                    out += shifted @ kernel.weights[a, b, c, d]
    return out + kernel.bias


def assert_matches_dense(tensor, kernel, tol=1e-10):
    sparse_out = stdcb.sparse_conv(tensor, kernel)
    dense_out = dense_conv(to_dense(tensor), kernel)
    t, x, y, z = (tensor.coords[:, i] for i in range(4))
    expect = dense_out[x, y, z, t]
    assert np.abs(sparse_out.features - expect).max() < tol
    assert sparse_out.same_active_set(tensor)


# --- sparse convolution ----------------------------------------------------------


def test_identity_pointwise_conv():
    rng = np.random.default_rng(0)
    tensor = random_tensor(rng, channels=3)
    kernel = stdcb.ConvKernel4D(
        weights=np.eye(3).reshape(1, 1, 1, 1, 3, 3), bias=np.zeros(3)
    )
    out = stdcb.sparse_conv(tensor, kernel)
    assert np.array_equal(out.features, tensor.features)


def test_isolated_site_sees_only_center_tap():
    rng = np.random.default_rng(1)
    kernel = stdcb.ConvKernel4D.seeded((3, 3, 3, 1), 2, 2, rng)
    tensor = SparseTensor4D(np.array([[2, 4, 4, 4]]), rng.normal(size=(1, 2)))
    out = stdcb.sparse_conv(tensor, kernel)
    center = kernel.weights[1, 1, 1, 0]
    expect = kernel.bias + tensor.features[0] @ center
    assert np.allclose(out.features[0], expect, atol=1e-14)


@pytest.mark.parametrize("extent,dilation", [((3, 3, 3, 1), 1), ((1, 1, 1, 3), 1), ((1, 1, 1, 3), 2)])
def test_branch_convs_match_dense_oracle(extent, dilation):
    rng = np.random.default_rng(2)
    tensor = random_tensor(rng, channels=4)
    kernel = stdcb.ConvKernel4D.seeded(extent, 4, 4, rng, dilation_t=dilation)
    assert_matches_dense(tensor, kernel)


def lookup_conv(tensor, kernel):
    """Reference formulation: one ``lookup`` of coords + tap per kernel tap."""
    flat_w = kernel.weights.reshape(-1, kernel.c_in, kernel.c_out)
    out = np.broadcast_to(kernel.bias, (tensor.n_active, kernel.c_out)).copy()
    for tap, w in zip(kernel.offsets(), flat_w):
        idx, found = tensor.lookup(tensor.coords + tap)
        if np.any(found):
            out[found] += tensor.features[idx[found]] @ w
    return tensor.with_features(out)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("extent,dilation", [
    ((3, 3, 3, 1), 1), ((1, 1, 1, 3), 1), ((1, 1, 1, 3), 2), ((3, 1, 5, 3), 2),
])
def test_sparse_conv_bytes_match_lookup_formulation(seed, extent, dilation):
    rng = np.random.default_rng(40 + seed)
    tensor = random_tensor(rng, occupancy=(0.05, 0.4, 0.9)[seed], channels=4)
    kernel = stdcb.ConvKernel4D.seeded(extent, 4, 3, rng, dilation_t=dilation)
    got = stdcb.sparse_conv(tensor, kernel)
    assert got.features.tobytes() == lookup_conv(tensor, kernel).features.tobytes()


def test_desk_backbone_bytes_match_lookup_formulation(monkeypatch):
    scene_cfg = pc.SceneConfig(n_background=600, movers=pc.sample_mover_specs(1, 5, n_points=60))
    scene = pc.synth_scene(scene_cfg, 5)
    config = RunConfig()
    weights = init_pipeline_weights(config, 5)
    outputs = []
    def sliced_lookup_conv(tensor, kernel, kmap=None, rows=None):
        return lookup_conv(tensor, kernel).rows(*(rows or (0, tensor.n_active)))

    for conv in (stdcb.sparse_conv, sliced_lookup_conv):
        monkeypatch.setattr(stdcb, "sparse_conv", conv)
        trace = InferenceTrace()
        infer_flow(scene, weights, config, trace=trace)
        outputs.append(trace.backbone_out.features.tobytes())
    assert outputs[0] == outputs[1]


def test_sparse_conv_rejects_foreign_kernel_map():
    rng = np.random.default_rng(44)
    tensor = random_tensor(rng, channels=2)
    other = random_tensor(rng, channels=2)
    kernel = stdcb.ConvKernel4D.seeded((1, 1, 1, 3), 2, 2, rng)
    with pytest.raises(AlignmentError):
        stdcb.sparse_conv(tensor, kernel, kmap=vx.KernelMap(other.coords, kernel.offsets()))


def test_conv_channel_mismatch():
    rng = np.random.default_rng(3)
    tensor = random_tensor(rng, channels=4)
    kernel = stdcb.ConvKernel4D.seeded((1, 1, 1, 3), 5, 4, rng)
    with pytest.raises(ShapeError):
        stdcb.sparse_conv(tensor, kernel)


def test_even_kernel_extent_rejected():
    with pytest.raises(ShapeError):
        stdcb.ConvKernel4D(weights=np.zeros((2, 1, 1, 1, 2, 2)), bias=np.zeros(2))


@pytest.mark.parametrize("name", ["weights", "bias"])
def test_non_finite_kernel_is_invalid_input_naming_the_field(name):
    kernel = stdcb.ConvKernel4D.seeded((3, 3, 3, 1), 2, 2, np.random.default_rng(4))
    bad = getattr(kernel, name).copy()
    bad.flat[-1] = np.nan
    with pytest.raises(InvalidInput, match=f"kernel {name} must be finite"):
        dataclasses.replace(kernel, **{name: bad})


# --- soft feature selection --------------------------------------------------------


def sfsm_dense_reference(main, aux, w):
    stacked = np.concatenate([main, aux], axis=-1)
    pre = stacked @ w.conv_w + w.conv_b
    norm = w.bn_scale * (pre - w.bn_mean) / np.sqrt(w.bn_var + w.bn_eps) + w.bn_shift
    act = np.where(norm >= 0, norm, w.leaky_slope * norm)
    alpha = 1.0 / (1.0 + np.exp(-act))
    return alpha * main + (1 - alpha) * aux


def test_sfsm_saturates_to_main_branch():
    rng = np.random.default_rng(4)
    main = random_tensor(rng, channels=3)
    aux = main.with_features(rng.normal(size=main.features.shape))
    w = stdcb.SfsmWeights(
        conv_w=np.zeros((6, 3)), conv_b=np.full(3, 50.0),
        bn_scale=np.ones(3), bn_shift=np.zeros(3),
        bn_mean=np.zeros(3), bn_var=np.ones(3),
    )
    out = stdcb.sfsm(main, aux, w)
    assert np.abs(out.features - main.features).max() < 1e-6


def test_sfsm_zero_preactivation_averages():
    rng = np.random.default_rng(5)
    main = random_tensor(rng, channels=3)
    aux = main.with_features(rng.normal(size=main.features.shape))
    w = stdcb.SfsmWeights(
        conv_w=np.zeros((6, 3)), conv_b=np.zeros(3),
        bn_scale=np.ones(3), bn_shift=np.zeros(3),
        bn_mean=np.zeros(3), bn_var=np.ones(3),
    )
    out = stdcb.sfsm(main, aux, w)
    assert np.allclose(out.features, (main.features + aux.features) / 2.0, atol=1e-14)


def test_sfsm_matches_dense_reference():
    rng = np.random.default_rng(6)
    main = random_tensor(rng, channels=4)
    aux = main.with_features(rng.normal(size=main.features.shape))
    w = stdcb.SfsmWeights.seeded(4, rng)
    out = stdcb.sfsm(main, aux, w)
    expect = sfsm_dense_reference(main.features, aux.features, w)
    assert np.abs(out.features - expect).max() < 1e-10


def test_sfsm_is_elementwise_convex_combination():
    rng = np.random.default_rng(7)
    main = random_tensor(rng, channels=4)
    aux = main.with_features(rng.normal(size=main.features.shape))
    out = stdcb.sfsm(main, aux, stdcb.SfsmWeights.seeded(4, rng))
    lo = np.minimum(main.features, aux.features)
    hi = np.maximum(main.features, aux.features)
    assert np.all(out.features >= lo - 1e-12)
    assert np.all(out.features <= hi + 1e-12)


def test_sfsm_rejects_mismatched_active_sets():
    rng = np.random.default_rng(8)
    main = random_tensor(rng, channels=3)
    other = SparseTensor4D(main.coords[:-1], main.features[:-1])
    with pytest.raises(AlignmentError) as err:
        stdcb.sfsm(main, other, stdcb.SfsmWeights.seeded(3, rng))
    assert "active sets differ" in str(err.value)


# --- temporal gated block ----------------------------------------------------------


def test_gate_zero_weights_scale_by_one_point_five():
    rng = np.random.default_rng(9)
    spatial = random_tensor(rng, channels=3)
    temporal = spatial.with_features(rng.normal(size=spatial.features.shape))
    cross = spatial.with_features(rng.normal(size=spatial.features.shape))
    sfsm_w = stdcb.SfsmWeights.seeded(3, rng)
    gate_w = MlpWeights(
        w1=np.zeros((3, 3)), b1=np.zeros(3), w2=np.zeros((3, 3)), b2=np.zeros(3)
    )
    out_spatial, _ = stdcb.temporal_gated_block(spatial, temporal, cross, sfsm_w, gate_w)
    assert np.allclose(out_spatial.features, 1.5 * spatial.features, atol=1e-14)


def test_gate_zero_spatial_stays_zero():
    rng = np.random.default_rng(10)
    temporal = random_tensor(rng, channels=3)
    spatial = temporal.with_features(np.zeros_like(temporal.features))
    cross = temporal.with_features(rng.normal(size=temporal.features.shape))
    out_spatial, _ = stdcb.temporal_gated_block(
        spatial, temporal, cross, stdcb.SfsmWeights.seeded(3, rng),
        MlpWeights.seeded(3, 3, 3, rng),
    )
    assert np.array_equal(out_spatial.features, np.zeros_like(spatial.features))


def test_gate_multiplier_strictly_between_one_and_two():
    rng = np.random.default_rng(11)
    spatial = random_tensor(rng, channels=4)
    ones = spatial.with_features(np.ones_like(spatial.features))
    temporal = spatial.with_features(rng.normal(size=spatial.features.shape))
    cross = spatial.with_features(rng.normal(size=spatial.features.shape))
    out, _ = stdcb.temporal_gated_block(
        ones, temporal, cross, stdcb.SfsmWeights.seeded(4, rng),
        MlpWeights.seeded(4, 4, 4, rng),
    )
    # features were all one, so the output is the multiplier itself
    assert np.all(out.features > 1.0)
    assert np.all(out.features < 2.0)


def test_gate_matches_dense_reference():
    rng = np.random.default_rng(12)
    spatial = random_tensor(rng, channels=4)
    temporal = spatial.with_features(rng.normal(size=spatial.features.shape))
    cross = spatial.with_features(rng.normal(size=spatial.features.shape))
    sfsm_w = stdcb.SfsmWeights.seeded(4, rng)
    gate_w = MlpWeights.seeded(4, 4, 4, rng)
    out_spatial, out_temporal = stdcb.temporal_gated_block(
        spatial, temporal, cross, sfsm_w, gate_w
    )
    fused = sfsm_dense_reference(temporal.features, cross.features, sfsm_w)
    hidden = np.maximum(fused @ gate_w.w1 + gate_w.b1, 0.0)
    beta = 1.0 / (1.0 + np.exp(-(hidden @ gate_w.w2 + gate_w.b2)))
    assert np.abs(out_temporal.features - fused).max() < 1e-10
    assert np.abs(out_spatial.features - spatial.features * (1 + beta)).max() < 1e-10


# --- full block ---------------------------------------------------------------------


def stdcb_dense_reference(tensor, w, grid=GRID):
    """Compose the dense stages, zeroing inactive sites before every conv."""
    mask = active_mask(tensor, grid)[..., None]
    dense = to_dense(tensor, grid)
    d_spatial = dense_conv(dense, w.conv_spatial, grid) * mask
    d_temporal = dense_conv(dense, w.conv_temporal, grid) * mask
    d_cross = dense_conv(dense, w.conv_cross, grid) * mask
    fused_t = sfsm_dense_reference(d_temporal, d_cross, w.sfsm_temporal) * mask
    hidden = np.maximum(fused_t @ w.gate.w1 + w.gate.b1, 0.0)
    beta = 1.0 / (1.0 + np.exp(-(hidden @ w.gate.w2 + w.gate.b2)))
    d_spatial_mod = d_spatial * (1 + beta) * mask
    f_fused = sfsm_dense_reference(fused_t, d_spatial_mod, w.sfsm_fuse) * mask
    out = np.concatenate([f_fused, dense], axis=-1) @ w.fuse_w + w.fuse_b
    return out * mask


def test_stdcb_forward_matches_dense_reference():
    rng = np.random.default_rng(13)
    tensor = random_tensor(rng, channels=4)
    w = stdcb.StdcbWeights.seeded(4, rng)
    out = stdcb.stdcb_forward(tensor, w)
    dense_out = stdcb_dense_reference(tensor, w)
    t, x, y, z = (tensor.coords[:, i] for i in range(4))
    assert np.abs(out.features - dense_out[x, y, z, t]).max() < 1e-10
    assert out.same_active_set(tensor)


def identity_fusion_block(channels, rng):
    """Block weights with zero convs, neutral gates and a fuse that passes
    the residual lane: the block returns its input."""
    w = stdcb.StdcbWeights.seeded(channels, rng)
    zero_kernel = lambda k: stdcb.ConvKernel4D(
        weights=np.zeros_like(k.weights), bias=np.zeros_like(k.bias),
        dilation_t=k.dilation_t,
    )
    neutral_sfsm = stdcb.SfsmWeights(
        conv_w=np.zeros((2 * channels, channels)), conv_b=np.zeros(channels),
        bn_scale=np.ones(channels), bn_shift=np.zeros(channels),
        bn_mean=np.zeros(channels), bn_var=np.ones(channels),
    )
    zeros = np.zeros((channels, channels))
    return stdcb.StdcbWeights(
        conv_spatial=zero_kernel(w.conv_spatial),
        conv_temporal=zero_kernel(w.conv_temporal),
        conv_cross=zero_kernel(w.conv_cross),
        sfsm_temporal=neutral_sfsm,
        gate=MlpWeights(w1=zeros, b1=np.zeros(channels), w2=zeros, b2=np.zeros(channels)),
        sfsm_fuse=neutral_sfsm,
        fuse_w=np.vstack([zeros, np.eye(channels)]),  # pass the residual lane
        fuse_b=np.zeros(channels),
    )


def test_stdcb_zero_branches_identity_fusion_passes_residual():
    rng = np.random.default_rng(14)
    tensor = random_tensor(rng, channels=3)
    out = stdcb.stdcb_forward(tensor, identity_fusion_block(3, rng))
    assert np.allclose(out.features, tensor.features, atol=1e-14)


def test_backbone_outer_residual_overflow_raises():
    # Row 1 is alone in its parent cell, so level 0's output row is its input
    # doubled (1.2e308) and the residual adds the input once more.
    rng = np.random.default_rng(15)
    coords = np.array([(0, 0, 0, 0), (0, 4, 4, 4), (1, 0, 0, 0)])
    features = rng.normal(size=(3, 3))
    features[1] = 6e307
    block = identity_fusion_block(3, rng)
    weights = stdcb.BackboneWeights(encoder=((block,), (block,)), decoder=((block,),))
    with np.errstate(over="ignore"), pytest.raises(NumericError) as err:
        stdcb.backbone_forward(SparseTensor4D(coords, features), weights)
    assert err.value.index == 1


def test_stdcb_empty_tensor():
    rng = np.random.default_rng(15)
    tensor = SparseTensor4D(np.empty((0, 4), dtype=int), np.empty((0, 3)))
    out = stdcb.stdcb_forward(tensor, stdcb.StdcbWeights.seeded(3, rng))
    assert out.n_active == 0


def test_stdcb_deterministic():
    rng = np.random.default_rng(16)
    tensor = random_tensor(rng, channels=4)
    w = stdcb.StdcbWeights.seeded(4, rng)
    a = stdcb.stdcb_forward(tensor, w)
    b = stdcb.stdcb_forward(tensor, w)
    assert np.array_equal(a.features, b.features)


# --- in-place gates: byte identity with the expression forms ---------------------
# These copy the out-of-place forms the gates had before they ran in place;
# the in-place gates must reproduce them bit for bit.


def pinned_gate(w, stacked):
    pre = stacked @ w.conv_w + w.conv_b
    norm = (pre - w.bn_mean) / np.sqrt(w.bn_var + w.bn_eps)
    norm = w.bn_scale * norm + w.bn_shift
    act = np.where(norm >= 0.0, norm, w.leaky_slope * norm)
    return 0.5 * (1.0 + np.tanh(0.5 * act))


def pinned_sfsm(main, aux, w):
    alpha = pinned_gate(w, np.concatenate([main, aux], axis=1))
    return alpha * main + (1.0 - alpha) * aux


def pinned_temporal_gate(spatial, temporal, cross, sfsm_w, gate_w):
    fused = pinned_sfsm(temporal, cross, sfsm_w)
    hidden = np.maximum(fused @ gate_w.w1 + gate_w.b1, 0.0)
    beta = 0.5 * (1.0 + np.tanh(0.5 * (hidden @ gate_w.w2 + gate_w.b2)))
    return spatial * (1.0 + beta), fused


def pinned_block(tensor, w, kmap):
    spatial, temporal, cross = (
        stdcb.sparse_conv(tensor, k, kmap=kmap).features
        for k in (w.conv_spatial, w.conv_temporal, w.conv_cross)
    )
    spatial_mod, fused_t = pinned_temporal_gate(spatial, temporal, cross, w.sfsm_temporal, w.gate)
    fused = pinned_sfsm(fused_t, spatial_mod, w.sfsm_fuse)
    return np.concatenate([fused, tensor.features], axis=1) @ w.fuse_w + w.fuse_b


def signed_zero_sfsm(channels, rng):
    """Seeded SFSM weights whose last two pre-activation columns are zero:
    one all +0.0, one +0.0 or -0.0 by the sign of the normalised value."""
    w = stdcb.SfsmWeights.seeded(channels, rng)
    scale, shift = w.bn_scale.copy(), w.bn_shift.copy()
    scale[-2:] = 0.0
    shift[-2:] = (0.0, -0.0)
    return stdcb.SfsmWeights(w.conv_w, w.conv_b, scale, shift, w.bn_mean, w.bn_var)


def signed_zero_gate(channels, rng):
    """Seeded beta gate whose first hidden and last output columns are zero."""
    g = MlpWeights.seeded(channels, channels, channels, rng)
    w1, b1, w2, b2 = g.w1.copy(), g.b1.copy(), g.w2.copy(), g.b2.copy()
    w1[:, 0], b1[0] = 0.0, -0.0
    w2[:, -1], b2[-1] = 0.0, -0.0
    return MlpWeights(w1, b1, w2, b2)


@pytest.mark.parametrize("bn_var", [-65536.0, -1e-300, float("nan")])
def test_sfsm_rejects_a_negative_bn_var(bn_var):
    w = stdcb.SfsmWeights.seeded(3, np.random.default_rng(48))
    var = w.bn_var.copy()
    var[1] = bn_var
    with pytest.raises(ShapeError, match="bn_var must be >= 0"):
        dataclasses.replace(w, bn_var=var)
    var[1] = 0.0  # a zero variance is legal: bn_eps keeps the root positive
    assert np.all(np.isfinite(dataclasses.replace(w, bn_var=var).gate(np.ones((2, 6)))))


def test_signed_zero_weights_reach_the_preactivation():
    rng = np.random.default_rng(46)
    main = random_tensor(rng, channels=4)
    aux = main.with_features(rng.normal(size=main.features.shape))
    w = signed_zero_sfsm(4, rng)
    stacked = np.concatenate([main.features, aux.features], axis=1)
    pre = stacked @ w.conv_w + w.conv_b
    norm = w.bn_scale * ((pre - w.bn_mean) / np.sqrt(w.bn_var + w.bn_eps)) + w.bn_shift
    assert np.all(norm[:, -2:] == 0.0)
    assert np.any(np.signbit(norm[:, -1])) and not np.all(np.signbit(norm[:, -1]))
    assert not np.any(np.signbit(norm[:, -2]))


@pytest.mark.parametrize("seed", range(5))
def test_sfsm_bytes_match_expression_form(seed):
    rng = np.random.default_rng(50 + seed)
    main = random_tensor(rng, channels=4)
    aux = main.with_features(rng.normal(size=main.features.shape))
    for w in (stdcb.SfsmWeights.seeded(4, rng), signed_zero_sfsm(4, rng)):
        expect = pinned_sfsm(main.features, aux.features, w).tobytes()
        assert stdcb.sfsm(main, aux, w).features.tobytes() == expect


@pytest.mark.parametrize("seed", range(3))
def test_temporal_gate_bytes_match_expression_form(seed):
    rng = np.random.default_rng(53 + seed)
    spatial = random_tensor(rng, channels=4)
    temporal, cross = (spatial.with_features(rng.normal(size=spatial.features.shape))
                       for _ in range(2))
    for sfsm_w, gate_w in ((stdcb.SfsmWeights.seeded(4, rng), MlpWeights.seeded(4, 4, 4, rng)),
                           (signed_zero_sfsm(4, rng), signed_zero_gate(4, rng))):
        out_spatial, out_temporal = stdcb.temporal_gated_block(
            spatial, temporal, cross, sfsm_w, gate_w
        )
        exp_spatial, exp_temporal = pinned_temporal_gate(
            spatial.features, temporal.features, cross.features, sfsm_w, gate_w
        )
        assert out_spatial.features.tobytes() == exp_spatial.tobytes()
        assert out_temporal.features.tobytes() == exp_temporal.tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_stdcb_forward_bytes_match_expression_form(seed):
    rng = np.random.default_rng(56 + seed)
    tensor = random_tensor(rng, occupancy=(0.1, 0.4, 0.9)[seed], channels=4)
    seeded = stdcb.StdcbWeights.seeded(4, rng)
    zeros = stdcb.StdcbWeights(
        seeded.conv_spatial, seeded.conv_temporal, seeded.conv_cross,
        signed_zero_sfsm(4, rng), signed_zero_gate(4, rng), signed_zero_sfsm(4, rng),
        seeded.fuse_w, seeded.fuse_b,
    )
    kmap = vx.KernelMap(tensor.coords, seeded.taps())
    for w in (seeded, zeros):
        got = stdcb.stdcb_forward(tensor, w, kmap=kmap)
        assert got.features.tobytes() == pinned_block(tensor, w, kmap).tobytes()
        assert got.same_active_set(tensor)


def test_stdcb_forward_leaves_its_input_untouched():
    rng = np.random.default_rng(59)
    tensor = random_tensor(rng, channels=4)
    before = tensor.features.copy()
    stdcb.stdcb_forward(tensor, stdcb.StdcbWeights.seeded(4, rng))
    assert tensor.features.tobytes() == before.tobytes()


def test_stdcb_forward_peak_memory_bound(one_cpu):
    # One block holds a fixed handful of (N, C) arrays above its input; the
    # out-of-place gates held about twelve.  The kernel map is built first,
    # as the backbone builds it once per level.
    rng = np.random.default_rng(60)
    n, c = 6000, 16
    cells = rng.choice(5 * 40 * 40 * 20, size=n, replace=False)
    coords = np.stack(np.unravel_index(cells, (5, 40, 40, 20)), axis=1)
    tensor = SparseTensor4D(coords, rng.normal(size=(n, c)))
    w = stdcb.StdcbWeights.seeded(c, rng)
    kmap = vx.KernelMap(tensor.coords, w.taps())
    stdcb.stdcb_forward(tensor, w, kmap=kmap)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = stdcb.stdcb_forward(tensor, w, kmap=kmap)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert out.n_active == n
    assert peak <= 7.5 * n * c * 8


# --- row tiles and row ranges -------------------------------------------------------


def tiled_tensor(rng, n=449, channels=4):
    """n sparse sites: 449 rows leave a one-row tail tile at tile sizes 7 and 64."""
    cells = rng.choice(5 * 8 * 8 * 8, size=n, replace=False)
    coords = np.stack(np.unravel_index(cells, (5, 8, 8, 8)), axis=1)
    return SparseTensor4D(coords, rng.normal(size=(n, channels)))


def taps_with_one_pair_in_a_tile(kmap, kernels, n, tile):
    starts = range(0, n, tile)
    return sum(
        int(np.count_nonzero(np.diff(np.searchsorted(pair[0], [*starts, n])) == 1))
        for kernel in kernels
        for pair in kmap.pairs(kernel.offsets())
        if pair is not None
    )


@pytest.mark.parametrize("tile", [7, 64])
def test_tiled_block_bytes_match_expression_form(monkeypatch, tile):
    rng = np.random.default_rng(63)
    tensor = tiled_tensor(rng)
    assert tensor.n_active % tile == 1  # the tail tile has one row
    w = stdcb.StdcbWeights.seeded(4, rng)
    kmap = vx.KernelMap(tensor.coords, w.taps())
    kernels = (w.conv_spatial, w.conv_temporal, w.conv_cross)
    assert taps_with_one_pair_in_a_tile(kmap, kernels, tensor.n_active, tile) > 0
    expect = pinned_block(tensor, w, kmap)
    monkeypatch.setattr(stdcb, "BLOCK_TILE", tile)
    got = stdcb.stdcb_forward(tensor, w, kmap=kmap)
    assert got.features.tobytes() == expect.tobytes()
    assert got.same_active_set(tensor)


@pytest.mark.parametrize("rows", [(0, 449), (0, 1), (200, 201), (448, 449), (5, 5),
                                  (449, 449), (3, 170), (100, 449)])
def test_row_range_bytes_match_full_output(monkeypatch, rows):
    rng = np.random.default_rng(64)
    tensor = tiled_tensor(rng)
    w = stdcb.StdcbWeights.seeded(4, rng)
    kmap = vx.KernelMap(tensor.coords, w.taps())
    lo, hi = rows
    full_conv = stdcb.sparse_conv(tensor, w.conv_spatial, kmap=kmap)
    cut_conv = stdcb.sparse_conv(tensor, w.conv_spatial, kmap=kmap, rows=rows)
    assert cut_conv.features.tobytes() == full_conv.features[lo:hi].tobytes()
    assert np.array_equal(cut_conv.coords, tensor.coords[lo:hi])
    expect = pinned_block(tensor, w, kmap)[lo:hi]
    monkeypatch.setattr(stdcb, "BLOCK_TILE", 64)
    cut = stdcb.stdcb_forward(tensor, w, kmap=kmap, rows=rows)
    assert cut.features.tobytes() == expect.tobytes()
    assert np.array_equal(cut.coords, tensor.coords[lo:hi])


@pytest.mark.parametrize("rows", [(-1, 3), (4, 2), (0, 450)])
def test_row_range_outside_the_tensor_rejected(rows):
    rng = np.random.default_rng(65)
    tensor = tiled_tensor(rng)
    w = stdcb.StdcbWeights.seeded(4, rng)
    with pytest.raises(ShapeError, match="row range"):
        stdcb.stdcb_forward(tensor, w, rows=rows)
    with pytest.raises(ShapeError, match="row range"):
        stdcb.sparse_conv(tensor, w.conv_spatial, rows=rows)


def centre_only_spatial_block(rng):
    """4-channel block weights whose spatial conv has only its centre tap,
    scaled by 1e10: a row of 1e300 overflows that conv in its own row only."""
    w = stdcb.StdcbWeights.seeded(4, rng)
    weights = np.zeros_like(w.conv_spatial.weights)
    weights[1, 1, 1, 0] = w.conv_spatial.weights[1, 1, 1, 0] * 1e10
    return dataclasses.replace(
        w, conv_spatial=dataclasses.replace(w.conv_spatial, weights=weights))


def test_one_row_range_checks_and_indexes_only_its_row():
    # A one-row range is computed together with a neighbour row.  With a
    # centre-only spatial kernel each conv row reads only its own input row,
    # so only the big rows overflow; a range names its own rows only, as
    # rows of the block.
    rng = np.random.default_rng(67)
    w = centre_only_spatial_block(rng)
    tensor = tiled_tensor(rng)
    n = tensor.n_active
    tensor, _ = with_big_rows(tensor, w, {5: 1e300, n - 1: 1e300})
    with np.errstate(all="ignore"):
        for rows in ((4, 5), (n - 2, n - 1)):  # computed with a big neighbour
            conv = stdcb.sparse_conv(tensor, w.conv_spatial, rows=rows)
            assert np.isfinite(conv.features).all()
        for rows, row in (((5, 6), 5), ((n - 1, n), n - 1), ((3, 7), 5)):
            with pytest.raises(NumericError) as err:
                stdcb.stdcb_forward(tensor, w, rows=rows)
            assert err.value.index == row, rows


@pytest.mark.parametrize("tile", [stdcb.BLOCK_TILE, 32])
def test_one_row_block_range_beside_a_bad_row_runs_clean(set_cpus, monkeypatch, tile):
    # The range (5, 6) is computed together with row 6, which overflows the
    # spatial conv in its own row only; the range checks row 5 alone.
    rng = np.random.default_rng(68)
    w = centre_only_spatial_block(rng)
    tensor, _ = with_big_rows(tiled_tensor(rng), w, {6: 1e300})
    monkeypatch.setattr(stdcb, "BLOCK_TILE", tile)
    with np.errstate(all="ignore"):
        for cpus in (1, 3):
            set_cpus(cpus)
            for rows in ((4, 6), (5, 6)):
                out = stdcb.stdcb_forward(tensor, w, rows=rows)
                assert np.isfinite(out.features).all(), (cpus, rows)
            for rows in ((6, 7), None):
                with pytest.raises(NumericError) as err:
                    stdcb.stdcb_forward(tensor, w, rows=rows)
                assert err.value.index == 6, (cpus, rows)


@pytest.fixture()
def three_cpus(set_cpus):
    """Let every block run on up to three threads, whatever this host has."""
    set_cpus(3)


def test_threaded_block_bytes_match_expression_form(set_cpus, monkeypatch):
    # Fourteen tiles, the last with the one-row tail joined to it: enough
    # for three threads at one thread per four tiles.
    rng = np.random.default_rng(68)
    tensor = tiled_tensor(rng)
    w = stdcb.StdcbWeights.seeded(4, rng)
    kmap = vx.KernelMap(tensor.coords, w.taps())
    expect = pinned_block(tensor, w, kmap)
    monkeypatch.setattr(stdcb, "BLOCK_TILE", 32)
    for cpus in (1, 2, 3):
        set_cpus(cpus)
        got = stdcb.stdcb_forward(tensor, w, kmap=kmap)
        assert got.features.tobytes() == expect.tobytes(), cpus
        cut = stdcb.stdcb_forward(tensor, w, kmap=kmap, rows=(100, 449))
        assert cut.features.tobytes() == expect[100:].tobytes(), cpus


def test_block_with_a_prebuilt_map_builds_nothing(three_cpus, monkeypatch):
    rng = np.random.default_rng(71)
    tensor = tiled_tensor(rng)
    w = stdcb.StdcbWeights.seeded(4, rng)
    kmap = vx.KernelMap(tensor.coords, w.taps())
    expect = pinned_block(tensor, w, kmap)

    def refuse(coords, taps):
        raise AssertionError(f"{len(taps)} taps built after the map")

    monkeypatch.setattr(vx, "_neighbour_pairs", refuse)
    monkeypatch.setattr(stdcb, "BLOCK_TILE", 32)
    got = stdcb.stdcb_forward(tensor, w, kmap=kmap)
    assert got.features.tobytes() == expect.tobytes()


def with_big_rows(tensor, w, rows, **scales):
    """``tensor`` with each row of ``rows`` (row: value) set to its value,
    and ``w`` with the named weights scaled (a conv kernel's weights)."""
    def scaled(value, k):
        if isinstance(value, stdcb.ConvKernel4D):
            return dataclasses.replace(value, weights=value.weights * k)
        return value * k

    features = tensor.features.copy()
    for row, value in rows.items():
        features[row] = value
    return tensor.with_features(features), dataclasses.replace(
        w, **{name: scaled(getattr(w, name), k) for name, k in scales.items()})


def test_block_numeric_error_names_the_lowest_row_of_the_block(set_cpus, monkeypatch):
    rng = np.random.default_rng(66)
    base = tiled_tensor(rng, n=300)
    w = stdcb.StdcbWeights.seeded(4, rng)
    # The spatial conv overflows near both rows.
    tensor, big = with_big_rows(base, w, {131: 1e300, 260: 1e300}, conv_spatial=1e10)
    with np.errstate(all="ignore"), pytest.raises(NumericError) as whole:
        stdcb.stdcb_forward(tensor, big)
    assert whole.value.index >= 16  # past the first 16-row tile
    # Only the fuse matmul overflows: row 200 and, through the convs, its
    # neighbours, of which 193 is the lowest.  A cut range names the row of
    # the block, not of the range.
    fuse_only = with_big_rows(base, w, {200: 1e306}, fuse_w=1e4)
    # The fuse matmul overflows near row 50 (38 is the lowest), and the
    # spatial conv at row 250, in another tile at 16-row tiles and in the
    # same one at the default tile: the row of the later stage is lower.
    fuse_and_conv = with_big_rows(base, w, {50: 1e200, 250: 1.7e308},
                                  fuse_w=1e110, conv_spatial=100)
    cases = [(tensor, big, None, whole.value.index),
             (*fuse_only, (100, 300), 193), (*fuse_only, (150, 250), 193),
             (*fuse_and_conv, None, 38)]
    with np.errstate(all="ignore"):
        for case_tensor, case_w, rows, expect in cases[1:]:
            lo = 0 if rows is None else rows[0]
            stdcb.stdcb_forward(case_tensor, case_w, rows=(lo, expect))  # no lower bad row
    for tile in (stdcb.BLOCK_TILE, 16):  # one tile, and 19 tiles: enough for three threads
        monkeypatch.setattr(stdcb, "BLOCK_TILE", tile)
        for cpus in (1, 2, 3):
            set_cpus(cpus)
            for case_tensor, case_w, rows, expect in cases:
                with np.errstate(all="ignore"), pytest.raises(NumericError) as err:
                    stdcb.stdcb_forward(case_tensor, case_w, rows=rows)
                assert err.value.index == expect, (tile, cpus, rows)
                assert "coupling-block feature" in str(err.value)


def test_threaded_block_peak_memory_bound(three_cpus, monkeypatch):
    # Each thread holds only the temporaries of the one tile it runs, about
    # six (tile, C) arrays, and no array of N rows: above its input the block
    # holds its output and at most eight (tile, C) arrays per thread.
    monkeypatch.setattr(stdcb, "BLOCK_TILE", 512)
    rng = np.random.default_rng(69)
    n, c = 6000, 16
    cells = rng.choice(5 * 40 * 40 * 20, size=n, replace=False)
    coords = np.stack(np.unravel_index(cells, (5, 40, 40, 20)), axis=1)
    tensor = SparseTensor4D(coords, rng.normal(size=(n, c)))
    w = stdcb.StdcbWeights.seeded(c, rng)
    kmap = vx.KernelMap(tensor.coords, w.taps())
    stdcb.stdcb_forward(tensor, w, kmap=kmap)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = stdcb.stdcb_forward(tensor, w, kmap=kmap)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert out.n_active == n
    tile = 512 * c * 8
    assert peak <= n * c * 8 + 3 * 8 * tile, f"{(peak - n * c * 8) / tile:.1f} tiles per 3 threads"


def test_stdcb_forward_tiled_peak_memory_bound(one_cpu, monkeypatch):
    # With 512-row tiles a block holds its output and a few tiles of scratch
    # above its input, about 1.6 (N, C) arrays at N = 6000.
    monkeypatch.setattr(stdcb, "BLOCK_TILE", 512)
    rng = np.random.default_rng(60)
    n, c = 6000, 16
    cells = rng.choice(5 * 40 * 40 * 20, size=n, replace=False)
    coords = np.stack(np.unravel_index(cells, (5, 40, 40, 20)), axis=1)
    tensor = SparseTensor4D(coords, rng.normal(size=(n, c)))
    w = stdcb.StdcbWeights.seeded(c, rng)
    kmap = vx.KernelMap(tensor.coords, w.taps())
    stdcb.stdcb_forward(tensor, w, kmap=kmap)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = stdcb.stdcb_forward(tensor, w, kmap=kmap)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert out.n_active == n
    assert peak <= 2.0 * n * c * 8


def with_prediction_frame(scene, slot, points):
    """``scene`` with frame ``slot`` replaced by ``points``."""
    frames = list(scene.frames)
    frames[slot] = pc.PointCloud(points, frame_index=slot)
    n = len(frames[pc.FRAME_T])
    return pc.SceneSequence(frames, pc.FlowField(np.zeros((n, 3))), np.zeros(n, np.uint8),
                            scene.seed)


LAYOUTS = {
    "desk": {},
    "three-level": {"encoder_depths": (2, 1, 1), "decoder_depths": (1, 2)},
    "single-level": {"encoder_depths": (2,), "decoder_depths": ()},
}


@pytest.mark.parametrize("frame", ["synth", "empty", "one-voxel"])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_infer_flow_bytes_do_not_depend_on_trace_or_tile(monkeypatch, layout, frame):
    config = RunConfig(**LAYOUTS[layout])
    slot = pc.FRAME_T
    scene = pc.synth_scene(pc.SceneConfig(n_background=300, movers=()), 8)
    if frame == "empty":  # every point of the prediction frame is outside the grid
        scene = with_prediction_frame(scene, slot, np.full((20, 3), 500.0))
    elif frame == "one-voxel":
        scene = with_prediction_frame(scene, slot, np.tile([[0.31, -1.07, 0.45]], (20, 1)))
    weights = init_pipeline_weights(config, 8)
    traced = infer_flow(scene, weights, config, trace=InferenceTrace())
    untraced = infer_flow(scene, weights, config)
    monkeypatch.setattr(stdcb, "BLOCK_TILE", 64)
    small_tiles = infer_flow(scene, weights, config)
    assert len(traced) == len(scene.frames[slot])
    assert untraced.vectors.tobytes() == traced.vectors.tobytes()
    assert small_tiles.vectors.tobytes() == traced.vectors.tobytes()


@pytest.mark.parametrize("layout", LAYOUTS)
def test_infer_flow_bytes_do_not_depend_on_threads(set_cpus, monkeypatch, layout):
    # 64-row tiles, so that every level's blocks split over the threads.
    monkeypatch.setattr(ssm, "SPLIT_MIN_TERMS", 0)
    monkeypatch.setattr(stdcb, "BLOCK_TILE", 64)
    scene = pc.synth_scene(pc.SceneConfig(n_background=1500, movers=()), 9)
    config = RunConfig(**LAYOUTS[layout])
    weights = init_pipeline_weights(config, 9)
    flows = []
    for cpus in (1, 2, 3):
        set_cpus(cpus)
        flows.append(infer_flow(scene, weights, config))
    assert flows[0].vectors.tobytes() == flows[1].vectors.tobytes() == flows[2].vectors.tobytes()


def test_concurrent_backbones_on_more_tiles_than_cores_keep_their_bytes(set_cpus, monkeypatch):
    # Three callers share the one helper pool, each splitting its blocks
    # over 8 threads, with the interpreter switching threads as often as it
    # can.
    monkeypatch.setattr(stdcb, "BLOCK_TILE", 16)
    rng = np.random.default_rng(70)
    cases = [(random_tensor(rng, channels=4), stdcb.BackboneWeights.seeded(4, (1, 1), (1,), rng))
             for _ in range(3)]
    set_cpus(1)
    expect = [stdcb.backbone_forward(tensor, weights) for tensor, weights in cases]
    set_cpus(8)
    got = [None] * len(cases)

    def run(i):
        got[i] = stdcb.backbone_forward(*cases[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for want, result in zip(expect, got):
        assert result is not None
        assert result.features.tobytes() == want.features.tobytes()


def test_out_of_grid_point_flows_do_not_depend_on_its_distance():
    # All four distances clamp to the same cell, so only the raw coordinates
    # differ, and an out-of-grid point's features must not depend on them.
    config = RunConfig()
    scene = pc.synth_scene(pc.SceneConfig(n_background=300, movers=()), 8)
    weights = init_pipeline_weights(config, 8)
    flows = []
    for far in (-1e3, -1e20, -1e300, -1e308):
        points = scene.prediction_frame.points.copy()
        points[7] = far
        flow = infer_flow(with_prediction_frame(scene, pc.FRAME_T, points), weights, config)
        assert np.all(np.isfinite(flow.vectors)), far
        flows.append(flow.vectors.tobytes())
    assert flows[0] == flows[1] == flows[2] == flows[3]


# --- backbone -------------------------------------------------------------------


def test_backbone_weights_refuse_malformed_stacks():
    block = stdcb.StdcbWeights.seeded(2, np.random.default_rng(16))
    one = (block,)
    for encoder, decoder in [
        ((), ()),  # no level
        ((one, one), (one, one)),  # two decoder stacks for one transition
        ((one, one), ()),  # no decoder stack for the transition
        ((one,), (one,)),  # a decoder stack with no transition
        ((one, ()), (one,)),  # an empty encoder stack
        ((one, one), ((),)),  # an empty decoder stack
    ]:
        with pytest.raises(ShapeError, match="one decoder stack per level transition"):
            stdcb.BackboneWeights(encoder=encoder, decoder=decoder)
    assert stdcb.BackboneWeights(encoder=(one, one), decoder=(one,)).decoder == (one,)


def test_three_level_weights_run_three_levels(monkeypatch):
    # The level count is read from the weights alone; no config is passed.
    rng = np.random.default_rng(15)
    tensor = random_tensor(rng, channels=4)
    weights = stdcb.BackboneWeights.seeded(4, (2, 1, 1), (1, 1), rng)
    calls = []
    for name in ("stdcb_forward", "downsample2", "upsample_into"):
        real = getattr(stdcb, name)
        monkeypatch.setattr(stdcb, name,
                            lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
    out = stdcb.backbone_forward(tensor, weights)
    assert calls.count("downsample2") == calls.count("upsample_into") == 2
    assert calls.count("stdcb_forward") == 2 + 1 + 1 + 1 + 1
    assert out.same_active_set(tensor)
    assert np.all(np.isfinite(out.features))


def test_single_level_depth_one_degenerates_to_block():
    rng = np.random.default_rng(17)
    tensor = random_tensor(rng, channels=4)
    weights = stdcb.BackboneWeights.seeded(4, (1,), (), rng)
    out = stdcb.backbone_forward(tensor, weights)
    expect = stdcb.stdcb_forward(tensor, weights.encoder[0][0])
    assert np.array_equal(out.features, expect.features)


def test_backbone_preserves_active_set():
    rng = np.random.default_rng(18)
    tensor = random_tensor(rng, channels=4)
    weights = stdcb.BackboneWeights.seeded(4, (1, 1), (1,), rng)
    out = stdcb.backbone_forward(tensor, weights)
    assert out.same_active_set(tensor)
    assert np.all(np.isfinite(out.features))


def test_backbone_shares_and_releases_kernel_maps(monkeypatch):
    maps, builds = [], []

    class TrackedMap(vx.KernelMap):
        def __init__(self, coords, taps):
            super().__init__(coords, taps)
            maps.append(weakref.ref(self))

    real_build = vx._neighbour_pairs
    monkeypatch.setattr(stdcb, "KernelMap", TrackedMap)
    monkeypatch.setattr(vx, "_neighbour_pairs",
                        lambda coords, taps: builds.append(len(taps)) or real_build(coords, taps))
    rng = np.random.default_rng(45)
    tensor = random_tensor(rng, channels=4)
    out = stdcb.backbone_forward(tensor, stdcb.BackboneWeights.seeded(4, (2, 2, 1), (2, 1), rng))
    # One map per level, shared by its encoder and decoder blocks and built
    # in one pass: the spatial kernel's 26 non-zero taps and each temporal
    # kernel's 2, as all three share the centre tap.
    assert len(maps) == 3
    assert builds == [30] * 3
    # Nothing, the input and the output tensors included, keeps a map alive.
    assert all(ref() is None for ref in maps)
    assert out.same_active_set(tensor)


def test_backbone_frees_skip_rows_before_decoder_blocks(monkeypatch):
    rng = np.random.default_rng(62)
    tensor = random_tensor(rng, channels=4)
    weights = stdcb.BackboneWeights.seeded(4, (1, 1, 1), (1, 1), rng)
    decoder_blocks = {id(block) for stack in weights.decoder for block in stack}
    encoder_rows, alive, in_place = [], [], []
    real_block = stdcb.stdcb_forward

    def block(x, w, **kwargs):
        if id(w) in decoder_blocks:
            live = [ref() for ref in encoder_rows if ref() is not None]
            alive.append(len(live))
            in_place.append(any(rows is x.features for rows in live))
            del live
        out = real_block(x, w, **kwargs)
        if id(w) not in decoder_blocks:
            encoder_rows.append(weakref.ref(out.features))
        return out

    monkeypatch.setattr(stdcb, "stdcb_forward", block)
    stdcb.backbone_forward(tensor, weights)
    # Entering the level-1 decoder, only the level-0 skip is still needed;
    # entering the level-0 decoder, no encoder output is.  Besides those,
    # the one live encoder output is the skip the decoder block reads,
    # which the upsampled features were added into.
    assert alive == [2, 1]
    assert in_place == [True, True]


def test_infer_flow_drops_backbone_tensors_before_decode(monkeypatch):
    import sfkit.pipeline as pipeline

    refs, alive = [], []

    def keeping_ref(fn):
        def wrapper(*args):
            out = fn(*args)
            refs.append(weakref.ref(out))
            return out
        return wrapper

    def decode(*args, **kwargs):
        alive.extend(ref() is not None for ref in refs)
        return real_decode(*args, **kwargs)

    real_decode = pipeline.decode
    monkeypatch.setattr(pipeline, "stack_temporal", keeping_ref(pipeline.stack_temporal))
    monkeypatch.setattr(pipeline, "backbone_forward", keeping_ref(pipeline.backbone_forward))
    monkeypatch.setattr(pipeline, "decode", decode)
    scene = pc.synth_scene(pc.SceneConfig(n_background=200, movers=()), 6)
    config = RunConfig()
    infer_flow(scene, init_pipeline_weights(config, 6), config)
    assert alive == [False, False]  # the stacked input and the backbone output


@pytest.mark.parametrize("traced", [False, True])
def test_infer_flow_drops_voxel_features_before_backbone(monkeypatch, traced):
    import sfkit.pipeline as pipeline

    refs, alive = [], []

    def pool(*args):
        out = real_pool(*args)
        refs.append(weakref.ref(out))
        return out

    def backbone(*args):
        alive.extend(ref() is not None for ref in refs)
        return real_backbone(*args)

    real_pool, real_backbone = pipeline.pool_to_voxels, pipeline.backbone_forward
    monkeypatch.setattr(pipeline, "pool_to_voxels", pool)
    monkeypatch.setattr(pipeline, "backbone_forward", backbone)
    scene = pc.synth_scene(pc.SceneConfig(n_background=200, movers=()), 7)
    config = RunConfig()
    trace = InferenceTrace() if traced else None
    infer_flow(scene, init_pipeline_weights(config, 7), config, trace=trace)
    # Five frames, traced or not: the stacked tensor's copy is all.
    assert alive == [False] * 5


@pytest.mark.parametrize("traced", [False, True])
def test_infer_flow_frees_stacked_input_and_frame_state_before_level_1(monkeypatch, traced):
    import sfkit.pipeline as pipeline

    refs, level, alive = [], [0], []

    def keeping(fn, pick):
        def wrapper(*args):
            out = fn(*args)
            held = pick(args, out)
            if held is not None:
                refs.append(weakref.ref(held))
            return out
        return wrapper

    def stepping(fn, step):
        def wrapper(*args):
            level[0] += step
            return fn(*args)
        return wrapper

    def block(x, w, **kwargs):
        if level[0] == 1:
            alive.append([ref() is not None for ref in refs])
        return real_block(x, w, **kwargs)

    real_block = stdcb.stdcb_forward
    # Every result but the prediction frame's, frame t+1's point features
    # and the stacked input's features.
    monkeypatch.setattr(pipeline, "voxelize", keeping(
        pipeline.voxelize, lambda args, out: out if args[0].frame_index != pc.FRAME_T else None))
    monkeypatch.setattr(pipeline, "encode_point_features", keeping(
        pipeline.encode_point_features,
        lambda args, out: out if args[0].frame_index == pc.FRAME_T1 else None))
    monkeypatch.setattr(pipeline, "stack_temporal", keeping(
        pipeline.stack_temporal, lambda args, out: out.features))
    monkeypatch.setattr(stdcb, "downsample2", stepping(stdcb.downsample2, 1))
    monkeypatch.setattr(stdcb, "upsample_into", stepping(stdcb.upsample_into, -1))
    monkeypatch.setattr(stdcb, "stdcb_forward", block)
    scene = pc.synth_scene(pc.SceneConfig(n_background=200, movers=()), 9)
    config = RunConfig()
    trace = InferenceTrace() if traced else None
    infer_flow(scene, init_pipeline_weights(config, 9), config, trace=trace)
    assert len(refs) == 6
    # desk: one level-1 encoder block.  The frame state is freed either way;
    # only the whole output's residual, which a trace keeps, reads the input.
    assert alive == [[False] * 5 + [traced]]


def test_infer_flow_peak_memory_bound():
    # N stacked rows of C channels: at its peak, the level-1 block, the
    # untraced inference holds about five (N, C) arrays above its entry.
    scene = pc.synth_scene(pc.SceneConfig(n_background=16000, movers=()), 67)
    config = RunConfig()
    weights = init_pipeline_weights(config, 67)
    trace = InferenceTrace()
    infer_flow(scene, weights, config, trace=trace)
    n, c = trace.backbone_out.features.shape  # the stacked input's rows
    del trace
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        infer_flow(scene, weights, config)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak <= 6 * n * c * 8


@pytest.fixture(params=[8, 32])
def many_cpus(request, set_cpus, monkeypatch):
    """A host with many CPUs: the thread splits and a fresh helper pool
    follow the patched count."""
    set_cpus(request.param)
    monkeypatch.setattr(ssm, "_helpers", None)
    yield request.param
    if ssm._helpers is not None:
        ssm._helpers.shutdown()


def test_infer_flow_peak_memory_bound_on_many_cpus(many_cpus):
    # Each block runs on one thread per four tiles at most, so the bound of
    # the default-config test holds whatever the host's CPU count.
    test_infer_flow_peak_memory_bound()


def test_backbone_parameter_count_matches_formula():
    c = 4
    encoder_depths, decoder_depths = (2, 1, 1), (1, 1)
    weights = stdcb.BackboneWeights.seeded(c, encoder_depths, decoder_depths,
                                           np.random.default_rng(19))
    n_blocks = sum(encoder_depths) + sum(decoder_depths)
    per_block = (
        (27 * c * c + c)  # spatial conv
        + (3 * c * c + c)  # temporal conv
        + (3 * c * c + c)  # cross-timestep conv
        + 2 * (2 * c * c + c + 4 * c)  # two SFSM gates (conv + bn stats)
        + 2 * (c * c + c)  # beta gate
        + (2 * c * c + c)  # fusion conv
    )
    arrays = [leaf for leaf in flatten_tree(weights).values() if isinstance(leaf, np.ndarray)]
    assert sum(leaf.size for leaf in arrays) == n_blocks * per_block


def test_downsample_merges_children_by_mean():
    coords = np.array([[0, 0, 0, 0], [0, 1, 0, 0], [0, 4, 4, 4]])
    feats = np.array([[2.0], [4.0], [10.0]])
    tensor = SparseTensor4D(coords, feats)
    down = stdcb.downsample2(tensor, stdcb.pool2(tensor.coords))
    assert down.n_active == 2
    idx, found = down.lookup([(0, 0, 0, 0), (0, 2, 2, 2)])
    assert found.all()
    assert np.allclose(down.features[idx], [[3.0], [10.0]])


def row_unique_downsample(tensor):
    """The row-wise form: np.unique over (t, x // 2, y // 2, z // 2) rows."""
    parents = tensor.coords.copy()
    parents[:, 1:] = np.floor_divide(parents[:, 1:], 2)
    uniq, inverse = np.unique(parents, axis=0, return_inverse=True)
    sums = np.zeros((len(uniq), tensor.n_channels))
    np.add.at(sums, inverse, tensor.features)
    return uniq, sums / np.bincount(inverse, minlength=len(uniq))[:, None]


@pytest.mark.parametrize("case", ["random", "negative", "shared_across_t", "one_site", "empty"])
def test_downsample_matches_row_unique_form(case):
    rng = np.random.default_rng(61)
    if case == "empty":
        coords = np.empty((0, 4), dtype=np.int64)
    elif case == "one_site":
        coords = np.array([[3, -7, 0, 9]])
    elif case == "shared_across_t":
        # The same eight children at every t: each parent recurs per frame.
        cube = np.array([(x, y, z) for x in (4, 5) for y in (-2, -1) for z in (0, 1)])
        coords = np.array([(t, *xyz) for t in range(5) for xyz in cube])
    else:
        cells = rng.choice(5 * 16 * 16 * 16, size=1500, replace=False)
        coords = np.stack(np.unravel_index(cells, (5, 16, 16, 16)), axis=1)
        if case == "negative":
            coords = coords - (0, 9, 8, 11)
    tensor = SparseTensor4D(coords, rng.normal(size=(len(coords), 3)))
    pooling = stdcb.pool2(tensor.coords)
    down = stdcb.downsample2(tensor, pooling)
    uniq, means = row_unique_downsample(tensor)
    _, inverse = np.unique(tensor.coords // (1, 2, 2, 2), axis=0, return_inverse=True)
    assert np.array_equal(pooling[0], uniq)
    assert np.array_equal(pooling[1], inverse)
    assert pooling[0].dtype == pooling[1].dtype == np.int64
    assert np.array_equal(down.coords, uniq)
    assert down.coords.dtype == np.int64
    assert down.features.shape == means.shape
    assert down.features.tobytes() == means.tobytes()
    if case == "shared_across_t":
        assert down.n_active == 5


def test_upsample_copies_parent_feature():
    coords = np.array([[0, 0, 0, 0], [0, 2, 2, 2]])
    coarse = SparseTensor4D(coords, np.array([[1.0], [5.0]]))
    fine = SparseTensor4D(
        np.array([[0, 0, 1, 0], [0, 1, 1, 1], [0, 4, 4, 5], [0, 5, 5, 4]]), np.zeros((4, 1))
    )
    pooling = stdcb.pool2(fine.coords)
    up = stdcb.upsample_into(coarse, fine, pooling)
    assert up is fine
    assert np.allclose(up.features[:, 0], [1.0, 1.0, 5.0, 5.0])
    rng = np.random.default_rng(66)
    fine = fine.with_features(rng.normal(size=(4, 1)))
    lookup = [0, 0, 1, 1]
    expect = coarse.features[lookup] + fine.features
    assert stdcb.upsample_into(coarse, fine, pooling).features.tobytes() == expect.tobytes()


def parent_rows(coarse, fine):
    parents = fine.coords.copy()
    parents[:, 1:] = np.floor_divide(parents[:, 1:], 2)
    return coarse.lookup(parents)


def test_tiled_upsample_bytes_match_lookup_and_add(monkeypatch):
    rng = np.random.default_rng(67)
    fine = tiled_tensor(rng)
    assert fine.n_active % 7 == 1  # the tail tile has one row
    pooling = stdcb.pool2(fine.coords)
    coarse = stdcb.downsample2(fine, pooling)
    coarse = coarse.with_features(rng.normal(size=coarse.features.shape))
    lookup, found = parent_rows(coarse, fine)
    assert found.all()
    expect = coarse.features[lookup] + fine.features
    monkeypatch.setattr(stdcb, "BLOCK_TILE", 7)
    assert stdcb.upsample_into(coarse, fine, pooling) is fine
    assert fine.features.tobytes() == expect.tobytes()


def test_backbone_makes_no_key_lookups(monkeypatch):
    # Each transition's pool2 index serves both its downsample and its
    # upsample, so no parent is searched for by key.
    calls = []
    real_lookup = SparseTensor4D.lookup
    monkeypatch.setattr(SparseTensor4D, "lookup",
                        lambda self, coords: calls.append(len(coords)) or real_lookup(self, coords))
    rng = np.random.default_rng(69)
    tensor = tiled_tensor(rng, n=600)
    out = stdcb.backbone_forward(tensor, stdcb.BackboneWeights.seeded(4, (1, 1, 1), (1, 1), rng))
    assert out.same_active_set(tensor)
    assert calls == []
