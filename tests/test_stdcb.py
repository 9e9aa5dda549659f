import weakref

import numpy as np
import pytest

from sfkit import pointcloud as pc
from sfkit import stdcb
from sfkit import voxelizer as vx
from sfkit.errors import AlignmentError, InvalidConfig, ShapeError
from sfkit.pipeline import InferenceTrace, RunConfig, infer_flow, init_pipeline_weights
from sfkit.voxelizer import SparseTensor4D

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
    for conv in (stdcb.sparse_conv, lambda tensor, kernel, kmap=None: lookup_conv(tensor, kernel)):
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
        stdcb.sparse_conv(tensor, kernel, kmap=vx.KernelMap(other.coords))


def test_conv_channel_mismatch():
    rng = np.random.default_rng(3)
    tensor = random_tensor(rng, channels=4)
    kernel = stdcb.ConvKernel4D.seeded((1, 1, 1, 3), 5, 4, rng)
    with pytest.raises(ShapeError):
        stdcb.sparse_conv(tensor, kernel)


def test_even_kernel_extent_rejected():
    with pytest.raises(ShapeError):
        stdcb.ConvKernel4D(weights=np.zeros((2, 1, 1, 1, 2, 2)), bias=np.zeros(2))


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
    gate_w = stdcb.GateWeights(
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
        stdcb.GateWeights.seeded(3, rng),
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
        stdcb.GateWeights.seeded(4, rng),
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
    gate_w = stdcb.GateWeights.seeded(4, rng)
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


def test_stdcb_zero_branches_identity_fusion_passes_residual():
    rng = np.random.default_rng(14)
    tensor = random_tensor(rng, channels=3)
    w = stdcb.StdcbWeights.seeded(3, rng)
    zero_kernel = lambda k: stdcb.ConvKernel4D(
        weights=np.zeros_like(k.weights), bias=np.zeros_like(k.bias),
        dilation_t=k.dilation_t,
    )
    neutral_sfsm = stdcb.SfsmWeights(
        conv_w=np.zeros((6, 3)), conv_b=np.zeros(3), bn_scale=np.ones(3),
        bn_shift=np.zeros(3), bn_mean=np.zeros(3), bn_var=np.ones(3),
    )
    fuse_w = np.vstack([np.zeros((3, 3)), np.eye(3)])  # pass the residual lane
    w = stdcb.StdcbWeights(
        conv_spatial=zero_kernel(w.conv_spatial),
        conv_temporal=zero_kernel(w.conv_temporal),
        conv_cross=zero_kernel(w.conv_cross),
        sfsm_temporal=neutral_sfsm,
        gate=stdcb.GateWeights(w1=np.zeros((3, 3)), b1=np.zeros(3),
                               w2=np.zeros((3, 3)), b2=np.zeros(3)),
        sfsm_fuse=neutral_sfsm,
        fuse_w=fuse_w,
        fuse_b=np.zeros(3),
    )
    out = stdcb.stdcb_forward(tensor, w)
    assert np.allclose(out.features, tensor.features, atol=1e-14)


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


# --- backbone -------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(InvalidConfig):
        stdcb.StdcbConfig(encoder_depths=(), decoder_depths=())
    with pytest.raises(InvalidConfig):
        stdcb.StdcbConfig(encoder_depths=(1, 1), decoder_depths=(1, 1))
    with pytest.raises(InvalidConfig):
        stdcb.StdcbConfig(channels=0, encoder_depths=(1,), decoder_depths=())


def test_single_level_depth_one_degenerates_to_block():
    rng = np.random.default_rng(17)
    tensor = random_tensor(rng, channels=4)
    config = stdcb.StdcbConfig(channels=4, encoder_depths=(1,), decoder_depths=())
    weights = stdcb.BackboneWeights.seeded(config, rng)
    out = stdcb.backbone_forward(tensor, config, weights)
    expect = stdcb.stdcb_forward(tensor, weights.encoder[0][0])
    assert np.array_equal(out.features, expect.features)


def test_backbone_preserves_active_set():
    rng = np.random.default_rng(18)
    tensor = random_tensor(rng, channels=4)
    config = stdcb.StdcbConfig.desk(channels=4)
    weights = stdcb.BackboneWeights.seeded(config, rng)
    out = stdcb.backbone_forward(tensor, config, weights)
    assert out.same_active_set(tensor)
    assert np.all(np.isfinite(out.features))


def test_backbone_shares_and_releases_kernel_maps(monkeypatch):
    maps, builds = [], []

    class TrackedMap(vx.KernelMap):
        def __init__(self, coords):
            super().__init__(coords)
            maps.append(weakref.ref(self))

    real_build = vx._neighbour_pairs
    monkeypatch.setattr(stdcb, "KernelMap", TrackedMap)
    monkeypatch.setattr(vx, "_neighbour_pairs",
                        lambda coords, taps: builds.append(len(taps)) or real_build(coords, taps))
    rng = np.random.default_rng(45)
    tensor = random_tensor(rng, channels=4)
    config = stdcb.StdcbConfig(channels=4, encoder_depths=(2, 2, 1), decoder_depths=(2, 1))
    out = stdcb.backbone_forward(tensor, config, stdcb.BackboneWeights.seeded(config, rng))
    # One map per level, shared by its encoder and decoder blocks; within a
    # block the spatial kernel builds 26 taps and each temporal kernel 2, as
    # all three share the centre tap.
    assert len(maps) == config.n_levels
    assert builds == [26, 2, 2] * config.n_levels
    # Nothing, the input and the output tensors included, keeps a map alive.
    assert all(ref() is None for ref in maps)
    assert out.same_active_set(tensor)


def test_infer_flow_drops_backbone_tensors_before_decode(monkeypatch):
    import sfkit.pipeline as pipeline

    refs, alive = [], []

    def keeping_ref(fn):
        def wrapper(*args):
            out = fn(*args)
            refs.append(weakref.ref(out))
            return out
        return wrapper

    def decode(*args):
        alive.extend(ref() is not None for ref in refs)
        return real_decode(*args)

    real_decode = pipeline.decode
    monkeypatch.setattr(pipeline, "stack_temporal", keeping_ref(pipeline.stack_temporal))
    monkeypatch.setattr(pipeline, "backbone_forward", keeping_ref(pipeline.backbone_forward))
    monkeypatch.setattr(pipeline, "decode", decode)
    scene = pc.synth_scene(pc.SceneConfig(n_background=200, movers=()), 6)
    config = RunConfig()
    infer_flow(scene, init_pipeline_weights(config, 6), config)
    assert alive == [False, False]  # the stacked input and the backbone output


def test_backbone_parameter_count_matches_formula():
    c = 4
    config = stdcb.StdcbConfig(
        channels=c, encoder_depths=(2, 1, 1), decoder_depths=(1, 1)
    )
    weights = stdcb.BackboneWeights.seeded(config, np.random.default_rng(19))
    n_blocks = sum(config.encoder_depths) + sum(config.decoder_depths)
    per_block = (
        (27 * c * c + c)  # spatial conv
        + (3 * c * c + c)  # temporal conv
        + (3 * c * c + c)  # cross-timestep conv
        + 2 * (2 * c * c + c + 4 * c)  # two SFSM gates (conv + bn stats)
        + 2 * (c * c + c)  # beta gate
        + (2 * c * c + c)  # fusion conv
    )
    assert stdcb.count_parameters(weights) == n_blocks * per_block


def test_downsample_merges_children_by_mean():
    coords = np.array([[0, 0, 0, 0], [0, 1, 0, 0], [0, 4, 4, 4]])
    feats = np.array([[2.0], [4.0], [10.0]])
    down = stdcb.downsample2(SparseTensor4D(coords, feats))
    assert down.n_active == 2
    assert np.allclose(down.feature_at((0, 0, 0, 0)), [3.0])
    assert np.allclose(down.feature_at((0, 2, 2, 2)), [10.0])


def test_upsample_copies_parent_feature():
    coords = np.array([[0, 0, 0, 0], [0, 2, 2, 2]])
    coarse = SparseTensor4D(coords, np.array([[1.0], [5.0]]))
    fine = np.array([[0, 0, 1, 0], [0, 1, 1, 1], [0, 4, 4, 5], [0, 5, 5, 4]])
    up = stdcb.upsample_into(coarse, fine)
    assert np.allclose(up[:, 0], [1.0, 1.0, 5.0, 5.0])
