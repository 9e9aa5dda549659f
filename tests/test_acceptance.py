"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; every tolerance is pinned here, nothing is deferred.
"""

import dataclasses
import time

import numpy as np
import pytest

from sfkit import loss as loss_mod
from sfkit import metrics, ssm, stdcb
from sfkit import pointcloud as pc
from sfkit.cli import main as cli_main
from sfkit.decoder import DecoderWeights, decode
from sfkit.pipeline import RunConfig, init_pipeline_weights
from sfkit.serialization import deserialize, morton_codes, morton_decode, serialize
from sfkit.ssm import SsmParams, ZohMode
from sfkit.voxelizer import SparseTensor4D, VoxelGrid, voxelize
from sfkit.weights import MlpWeights


def _pass(num, label):
    print(f"ACCEPTANCE {num:02d} {label}: PASS")


def _cli(*argv):
    code = cli_main([str(a) for a in argv])
    assert code == 0, f"command failed: {argv}"


def test_criterion_01_serialization_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    coords = rng.integers(0, 512, (10_000, 3))
    payload = rng.normal(size=(10_000, 8))
    assert np.array_equal(deserialize(serialize(payload, coords)), payload)

    raw = rng.integers(0, 1 << 21, (100_000, 3))
    ix, iy, iz = morton_decode(morton_codes(raw))
    assert np.array_equal(np.stack([ix, iy, iz], axis=1), raw)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    _pass(1, "serialization identity")


def test_criterion_02_scan_oracle_equivalence():
    start = time.perf_counter()
    batch, d_inner, state = 2, 4, 8
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        for length in (1, 2, 255, 4096):
            params = SsmParams.seeded(d_inner, state, 3, rng)
            f_off = rng.normal(size=(batch, length, 3))
            x = rng.normal(size=(batch, length, d_inner))
            delta = ssm.softplus(f_off @ params.w_delta + params.b_delta)
            disc = ssm.zoh_discretize(params.a, f_off @ params.w_b, delta,
                                      ZohMode.SIMPLIFIED)
            c_tok = f_off @ params.w_c
            h0 = rng.normal(size=(batch, d_inner, state))
            y_seq, h_seq = ssm.scan_sequential(disc, c_tok, params.d, x, h0)
            y_blk, h_blk = ssm.scan_blocked(disc, c_tok, params.d, x, h0, 64)
            assert np.abs(y_seq - y_blk).max() <= 1e-10 * max(np.abs(y_seq).max(), 1.0)
            assert np.abs(h_seq - h_blk).max() <= 1e-10 * max(np.abs(h_seq).max(), 1.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    _pass(2, "scan oracle equivalence")


def test_criterion_03_zoh_consistency():
    rng = np.random.default_rng(300)
    for _ in range(100):
        a = -rng.uniform(0.1, 2.0, size=(1, 1))
        b = rng.normal(size=(1, 1, 1))
        delta = rng.uniform(0.01, 0.1, size=(1, 1, 1))
        gaps = []
        for d in (delta, delta / 2.0):
            exact = ssm.zoh_discretize(a, b, d, ZohMode.EXACT).b_bar
            simple = ssm.zoh_discretize(a, b, d, ZohMode.SIMPLIFIED).b_bar
            gaps.append(np.abs(exact - simple).max())
        ratio = gaps[0] / gaps[1]
        assert 3.6 <= ratio <= 4.4, f"second-order shrinkage violated: {ratio:.3f}"
    _pass(3, "zero-order-hold consistency (quadratic gap shrinkage)")


def test_criterion_04_gradient_correctness():
    length, d_inner, state, c_off = 32, 32, 16, 16
    rng = np.random.default_rng(400)
    params = SsmParams.seeded(d_inner, state, c_off, rng)
    x = rng.normal(size=(1, length, d_inner))
    f_off = rng.normal(size=(1, length, c_off))
    gy = rng.normal(size=x.shape)
    run = ssm.flow_ssm_forward(x, f_off, params, keep_intermediates=True)
    grads = ssm.ssm_backward(run, gy)

    h = 1e-6

    def central(loss_fn, arr):
        grad = np.zeros_like(arr)
        for i in range(arr.size):
            plus, minus = arr.copy(), arr.copy()
            plus.flat[i] += h
            minus.flat[i] -= h
            grad.flat[i] = (loss_fn(plus) - loss_fn(minus)) / (2.0 * h)
        return grad

    def check(name, analytic, numeric):
        rel = np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-10)
        assert rel < 1e-5, f"{name}: relative error {rel:.2e}"

    for name in ("a_log", "d", "w_delta", "b_delta", "w_b", "w_c"):
        def loss_fn(arr, name=name):
            p = dataclasses.replace(params, **{name: arr})
            return float((gy * ssm.flow_ssm_layer(x, f_off, p)[0]).sum())

        check(name, getattr(grads, name), central(loss_fn, getattr(params, name)))
    check("x", grads.x, central(
        lambda arr: float((gy * ssm.flow_ssm_layer(arr, f_off, params)[0]).sum()), x))
    check("f_offset", grads.f_offset, central(
        lambda arr: float((gy * ssm.flow_ssm_layer(x, arr, params)[0]).sum()), f_off))
    _pass(4, "adjoint gradients vs central finite differences")


def _random_sparse(rng, channels, occupancy=0.4):
    keys = np.array(
        [(t, x, y, z) for t in range(5) for x in range(8) for y in range(8)
         for z in range(8)], dtype=np.int64,
    )
    coords = keys[rng.random(len(keys)) < occupancy]
    return SparseTensor4D(coords, rng.normal(size=(len(coords), channels)))


def _dense_conv(dense, kernel):
    nx, ny, nz, nt = dense.shape[:4]
    out = np.zeros(dense.shape[:4] + (kernel.c_out,))
    kx, ky, kz, kt = kernel.weights.shape[:4]
    for a in range(kx):
        for b in range(ky):
            for c in range(kz):
                for d in range(kt):
                    off = (a - kx // 2, b - ky // 2, c - kz // 2,
                           (d - kt // 2) * kernel.dilation_t)
                    shifted = np.zeros_like(dense)
                    src = tuple(slice(max(0, o), dim + min(0, o))
                                for o, dim in zip(off, (nx, ny, nz, nt)))
                    dst = tuple(slice(max(0, -o), dim + min(0, -o))
                                for o, dim in zip(off, (nx, ny, nz, nt)))
                    shifted[dst] = dense[src]
                    out += shifted @ kernel.weights[a, b, c, d]
    return out + kernel.bias


def test_criterion_05_sparse_conv_dense_oracle():
    channels = 4
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        tensor = _random_sparse(rng, channels)
        dense = tensor.to_dense((8, 8, 8, 5))
        mask = np.zeros((8, 8, 8, 5), dtype=bool)
        t, x, y, z = (tensor.coords[:, i] for i in range(4))
        mask[x, y, z, t] = True

        w = stdcb.StdcbWeights.seeded(channels, rng)
        for kernel in (w.conv_spatial, w.conv_temporal, w.conv_cross):
            sparse_out = stdcb.sparse_conv(tensor, kernel)
            expect = _dense_conv(dense, kernel)[x, y, z, t]
            assert np.abs(sparse_out.features - expect).max() < 1e-10

        # full block against the composed dense reference
        m = mask[..., None]
        d_spatial = _dense_conv(dense, w.conv_spatial) * m
        d_temporal = _dense_conv(dense, w.conv_temporal) * m
        d_cross = _dense_conv(dense, w.conv_cross) * m

        def dense_sfsm(main, aux, g):
            pre = np.concatenate([main, aux], -1) @ g.conv_w + g.conv_b
            norm = g.bn_scale * (pre - g.bn_mean) / np.sqrt(g.bn_var + g.bn_eps) + g.bn_shift
            act = np.where(norm >= 0, norm, g.leaky_slope * norm)
            alpha = 1.0 / (1.0 + np.exp(-act))
            return alpha * main + (1 - alpha) * aux

        fused_t = dense_sfsm(d_temporal, d_cross, w.sfsm_temporal) * m
        hidden = np.maximum(fused_t @ w.gate.w1 + w.gate.b1, 0.0)
        beta = 1.0 / (1.0 + np.exp(-(hidden @ w.gate.w2 + w.gate.b2)))
        d_spatial_mod = d_spatial * (1 + beta) * m
        f_fused = dense_sfsm(fused_t, d_spatial_mod, w.sfsm_fuse) * m
        expect = (np.concatenate([f_fused, dense], -1) @ w.fuse_w + w.fuse_b)[x, y, z, t]
        got = stdcb.stdcb_forward(tensor, w)
        assert np.abs(got.features - expect).max() < 1e-10
    _pass(5, "sparse convolutions and full block vs dense oracle")


def test_criterion_06_sfsm_convexity_and_saturation():
    rng = np.random.default_rng(600)
    channels = 5
    tensor = _random_sparse(rng, channels)
    n_checked = 0
    while n_checked < 1000:
        main = tensor.with_features(rng.normal(size=(tensor.n_active, channels)))
        aux = tensor.with_features(rng.normal(size=(tensor.n_active, channels)))
        out = stdcb.sfsm(main, aux, stdcb.SfsmWeights.seeded(channels, rng))
        lo = np.minimum(main.features, aux.features)
        hi = np.maximum(main.features, aux.features)
        assert np.all(out.features >= lo - 1e-12)
        assert np.all(out.features <= hi + 1e-12)
        n_checked += out.features.size

    saturating = stdcb.SfsmWeights(
        conv_w=np.zeros((2 * channels, channels)), conv_b=np.full(channels, 60.0),
        bn_scale=np.ones(channels), bn_shift=np.zeros(channels),
        bn_mean=np.zeros(channels), bn_var=np.ones(channels),
    )
    main = tensor.with_features(rng.normal(size=(tensor.n_active, channels)))
    aux = tensor.with_features(rng.normal(size=(tensor.n_active, channels)))
    out = stdcb.sfsm(main, aux, saturating)
    assert np.abs(out.features - main.features).max() < 1e-6
    _pass(6, "soft-selection convexity and saturation")


def test_criterion_07_temporal_gate_bound():
    rng = np.random.default_rng(700)
    channels = 4
    tensor = _random_sparse(rng, channels)
    ones = tensor.with_features(np.ones((tensor.n_active, channels)))
    temporal = tensor.with_features(rng.normal(size=(tensor.n_active, channels)))
    cross = tensor.with_features(rng.normal(size=(tensor.n_active, channels)))
    out, _ = stdcb.temporal_gated_block(
        ones, temporal, cross,
        stdcb.SfsmWeights.seeded(channels, rng),
        MlpWeights.seeded(channels, channels, channels, rng),
    )
    assert np.all(out.features > 1.0) and np.all(out.features < 2.0)

    zero_gate = MlpWeights(
        w1=np.zeros((channels, channels)), b1=np.zeros(channels),
        w2=np.zeros((channels, channels)), b2=np.zeros(channels),
    )
    spatial = tensor.with_features(rng.normal(size=(tensor.n_active, channels)))
    out, _ = stdcb.temporal_gated_block(
        spatial, temporal, cross, stdcb.SfsmWeights.seeded(channels, rng), zero_gate
    )
    assert np.allclose(out.features, 1.5 * spatial.features, atol=1e-14)
    _pass(7, "temporal gate multiplier in (1, 2); zero case exactly 1.5x")


def test_criterion_08_scene_adaptive_loss():
    gt = np.zeros((100, 3))
    gt[-1] = (2.0, 0.0, 0.0)
    pred = gt.copy()
    pred[-1] += (1.0, 0.0, 0.0)
    gt_f, pred_f = pc.FlowField(gt), pc.FlowField(pred)
    out = loss_mod.scene_adaptive_loss(pred_f, gt_f, k=100)

    # brute-force binning oracle
    mags = np.linalg.norm(gt, axis=1)
    r_max = mags.max()
    width = r_max / 100
    counts = np.zeros(100, dtype=int)
    for r in mags:
        counts[min(int(r / width), 99)] += 1
    weights = counts / 100
    alpha_oracle = next(j for j in range(100) if weights[j] < 1 / 100)
    assert out.alpha == alpha_oracle == 1
    assert out.r_alpha == alpha_oracle * width
    static_oracle = {i for i in range(100) if mags[i] <= out.r_alpha}
    assert out.n_static == len(static_oracle) == 99
    assert out.n_dynamic == 1
    assert out.static_term == 0.0 and out.dynamic_term == 1.0 and out.total == 1.0

    # uniform histogram: every bin holds exactly 1/K, no bin is sparse
    k = 10
    uniform = np.zeros((k, 3))
    uniform[:, 0] = (np.arange(k) + 0.5) / k
    fallback = loss_mod.scene_adaptive_loss(
        pc.FlowField(np.zeros((k, 3))), pc.FlowField(uniform), k=k
    )
    assert fallback.fallback and fallback.alpha == k and fallback.n_dynamic == 0

    perfect = loss_mod.scene_adaptive_loss(gt_f, gt_f, k=100)
    assert perfect.total == 0.0
    _pass(8, "scene-adaptive loss exact construction, fallback, zero residual")


def test_criterion_09_three_bucket_boundaries():
    gt = np.zeros((4, 3))
    gt[:, 0] = [0.39, 0.40, 0.99, 1.00]  # speeds at dt = 1 s
    pred = gt.copy()
    pred[:, 1] = [1.0, 2.0, 4.0, 8.0]
    total = loss_mod.three_bucket_loss(pc.FlowField(pred), pc.FlowField(gt), dt=1.0)
    # [0, 0.4): {0.39} -> 1.0; [0.4, 1.0): {0.40, 0.99} -> 3.0; [1.0, inf): {1.00} -> 8.0
    assert total == pytest.approx(1.0 + 3.0 + 8.0, abs=1e-12)
    _pass(9, "three-bucket half-open boundary assignment")


def test_criterion_10_metric_suite():
    assert metrics.epe(
        pc.FlowField([[3.0, 4.0, 0.0]]), pc.FlowField([[0.0, 0.0, 0.0]])
    )[0] == 5.0

    rng = np.random.default_rng(1000)
    n = 400
    p = rng.normal(size=(n, 3)) * 0.2
    g = rng.normal(size=(n, 3)) * rng.uniform(0, 0.4, (n, 1))
    mask = rng.choice(
        [metrics.MotionClass.FOREGROUND_DYNAMIC, metrics.MotionClass.BACKGROUND_STATIC,
         metrics.MotionClass.FOREGROUND_STATIC], n,
    )
    classes = rng.integers(0, 4, n)
    pred_f, gt_f = pc.FlowField(p), pc.FlowField(g)

    errors = np.linalg.norm(p - g, axis=1)
    out3 = metrics.threeway_epe(pred_f, gt_f, mask)
    subset_means = []
    for cls, got in ((metrics.MotionClass.FOREGROUND_DYNAMIC, out3.fd),
                     (metrics.MotionClass.BACKGROUND_STATIC, out3.bs),
                     (metrics.MotionClass.FOREGROUND_STATIC, out3.fs)):
        sel = mask == cls
        expect = errors[sel].mean()
        assert abs(got - expect) < 1e-12
        subset_means.append(expect)
    assert abs(out3.avg - np.mean(subset_means)) < 1e-12

    dt = 0.1
    out_b = metrics.bucketed_normalized_epe(pred_f, gt_f, mask, dt, classes)
    gt_mag = np.linalg.norm(g, axis=1)
    norm = errors / np.maximum(gt_mag, 1e-6)
    speeds = gt_mag / dt
    expected_classes = {}
    for cls in range(4):
        sel = (mask == metrics.MotionClass.FOREGROUND_DYNAMIC) & (classes == cls)
        if not sel.any():
            continue
        buckets = np.floor(speeds[sel] / 0.4).astype(int)
        means = [norm[sel][buckets == b].mean() for b in sorted(set(buckets))]
        expected_classes[metrics.ObjectClass(cls).name] = np.mean(means)
    assert set(out_b.per_class) == set(expected_classes)
    for name, expect in expected_classes.items():
        assert abs(out_b.per_class[name] - expect) < 1e-12
    assert abs(out_b.dynamic_mean - np.mean(list(expected_classes.values()))) < 1e-12
    static_expect = errors[mask != metrics.MotionClass.FOREGROUND_DYNAMIC].mean()
    assert abs(out_b.static_mean - static_expect) < 1e-12

    assert metrics.dynamic_iou(gt_f, gt_f) == 1.0
    _pass(10, "metric suite vs nested-loop oracles")


def test_criterion_11_devoxelization_refinement():
    grid = VoxelGrid(origin=(0.0, 0.0, 0.0), cell_size=1.0, extents=(8, 8, 8))
    points = pc.PointCloud([[0.15, 0.25, 0.35], [0.85, 0.65, 0.75], [3.5, 3.5, 3.5]])
    res = voxelize(points, grid)
    assert res.assignment[0] == res.assignment[1]  # co-voxel pair
    assert np.linalg.norm(res.offsets[0] - res.offsets[1]) > 0.1

    rng = np.random.default_rng(1100)
    channels = 8
    voxel_features = rng.normal(size=(res.n_voxels, channels))
    point_features = np.tile(rng.normal(size=(1, channels)), (3, 1))
    from sfkit.decoder import assemble_coarse

    coarse = assemble_coarse(voxel_features, point_features, res)
    assert np.array_equal(coarse[0], coarse[1])  # identical before refinement

    weights = DecoderWeights(
        offset_encoder=MlpWeights.seeded(3, channels, channels, rng),
        ssm_layers=(SsmParams.seeded(2 * channels, 8, channels, rng),),
        head=MlpWeights.seeded(3 * channels, channels, 3, rng),
    )
    flow = decode(voxel_features, point_features, res.offsets, res, weights)
    separation = np.linalg.norm(flow.vectors[0] - flow.vectors[1])
    assert separation > 1e-9, f"co-voxel outputs separated by only {separation:.2e}"
    _pass(11, "refined devoxelization separates co-voxel points")


def test_criterion_12_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    outputs = []
    for run_idx, threads in ((0, 1), (1, 4), (2, 1)):
        base = tmp_path / f"run_{run_idx}"
        base.mkdir()
        scene = base / "scene.sfsc"
        flow = base / "flow.sffl"
        report = base / "report.csv"
        _cli("synth", "--points", 4600, "--movers", 2, "--mover-points", 200,
             "--seed", 12, "--threads", threads, "--out", scene)
        _cli("infer", scene, "--seed-weights", 12, "--threads", threads, "--out", flow)
        _cli("eval", scene, flow, "--threads", threads, "--out", report)
        outputs.append(
            (scene.read_bytes(), flow.read_bytes(), report.read_bytes(),
             report.with_name(report.stem + "_loss.csv").read_bytes())
        )
    elapsed = time.perf_counter() - start
    assert outputs[0] == outputs[1] == outputs[2]
    scene = pc.load_scene(tmp_path / "run_0" / "scene.sfsc")
    assert len(scene.prediction_frame) == 5000
    assert elapsed < 60.0, f"full pipeline x3 took {elapsed:.1f}s, budget 60s per run"
    _pass(12, "end-to-end byte determinism across runs and thread counts")


def test_criterion_13_benchmark_harness(tmp_path):
    out = tmp_path / "bench.csv"
    _cli("bench", "--lengths", "0,64,256", "--min-time", "0.01", "--out", out)
    lines = out.read_text().splitlines()
    assert lines[0] == "impl,L,D_inner,S,tokens_per_second"
    rows = [line.split(",") for line in lines[1:]]
    assert {(r[0], r[1]) for r in rows} == {
        ("sequential", "64"), ("blocked", "64"),
        ("sequential", "256"), ("blocked", "256"),
    }
    for r in rows:
        assert len(r) == 5
        assert float(r[4]) > 0.0
    _pass(13, "benchmark harness CSV with equality guard")
