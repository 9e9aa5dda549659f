"""Command-line entry point: scene synthesis, inference, evaluation,
benchmarking, and the embedded self-test suite.

Exit codes are stable: 0 success, 2 input/config error, 3 numeric error.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import loss as loss_mod
from . import metrics as metrics_mod
from . import pointcloud as pc
from . import serialization as sz
from . import ssm
from . import stdcb
from .errors import MAX_FLOATS, InvalidConfig, NumericError, SceneFlowError, check_config
from .pipeline import (
    InferenceTrace,
    RunConfig,
    infer_flow,
    init_pipeline_weights,
    load_pipeline_weights,
    pipeline_weights_to_dict,
    save_pipeline_weights,
)
from .voxelizer import KernelMap, SparseTensor4D

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _common_flags(parser):
    parser.add_argument("--config", type=Path, help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--out", type=Path, help="output path")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker cap; validated but no effect today (falls back to SFKIT_THREADS)")
    parser.add_argument("--k-bins", type=int, default=None, help="histogram bin count")
    parser.add_argument("--decoder-layers", type=int, default=None,
                        help="refinement cascade length")
    parser.add_argument("--zoh", dest="zoh_mode", choices=("exact", "simplified"), default=None)
    parser.add_argument("--dilation", choices=("gap1", "literal"), default=None)
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override any run-config key (value parsed as JSON, "
                             "e.g. --set cell_size=0.1 --set encoder_depths=[1,1])")


def _load_config(args):
    check_config(args, seed="--seed")
    mapping = {}
    if args.config is not None:
        try:
            mapping = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SceneFlowError(f"cannot read config {args.config}: {exc}") from exc
    overrides = {}
    if args.threads is None and (raw := os.environ.get("SFKIT_THREADS")):
        try:
            overrides["threads"] = int(raw)
        except ValueError:
            raise InvalidConfig(f"SFKIT_THREADS must be an integer, got {raw!r}") from None
    for key in ("threads", "k_bins", "decoder_layers", "zoh_mode", "dilation"):  # flag dests
        if getattr(args, key) is not None:
            overrides[key] = getattr(args, key)
    for item in args.overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise SceneFlowError(f"--set expects KEY=VALUE, got {item!r}")
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw  # bare strings like --set zoh_mode=exact
    return RunConfig.from_mapping(mapping, overrides)


def cmd_synth(args):
    config = _load_config(args)
    movers = pc.sample_mover_specs(args.movers, args.seed, n_points=args.mover_points)
    scene_cfg = pc.SceneConfig(
        n_background=args.points,
        movers=movers,
        dt=config.dt,
        ego=pc.EgoMotion(velocity=(args.ego_speed, 0.0, 0.0)),
        jitter_sigma=args.jitter,
        dynamic_threshold=config.dynamic_threshold,
    )
    scene = pc.synth_scene(scene_cfg, args.seed)
    out = args.out or Path("scene.sfsc")
    pc.save_scene(scene, out)
    n_dyn = int(np.sum(scene.mask == pc.MotionClass.FOREGROUND_DYNAMIC))
    n_fs = int(np.sum(scene.mask == pc.MotionClass.FOREGROUND_STATIC))
    print(f"wrote {out}: {len(scene.prediction_frame)} points/frame, "
          f"{len(movers)} movers ({n_dyn} dynamic, {n_fs} slow foreground points)")
    for i, m in enumerate(movers):
        speed = float(np.linalg.norm(m.velocity))
        print(f"  mover {i}: {m.n_points} pts, |v|={speed:.2f} m/s")
    if args.ply is not None:
        pc.export_ply(scene.prediction_frame, args.ply)
        print(f"wrote {args.ply} (prediction frame, ASCII PLY)")
    return EXIT_OK


def cmd_infer(args):
    config = _load_config(args)
    check_config(args, seed_weights="--seed-weights")
    scene = pc.load_scene(args.scene)
    if args.weights is not None:
        weights = load_pipeline_weights(args.weights, config)
    else:
        weights = init_pipeline_weights(config, args.seed_weights)
    if args.save_weights is not None:
        save_pipeline_weights(weights, args.save_weights)
    out = args.out or Path("flow.sffl")
    trace = InferenceTrace() if args.dump_features is not None else None
    flow = infer_flow(scene, weights, config, trace=trace)
    pc.save_flow(flow, out)
    mean_mag = flow.magnitudes().mean() if len(flow) else 0.0
    print(f"wrote {out}: {len(flow)} flow vectors (|flow| mean {mean_mag:.4f} m)")
    if args.csv is not None:
        with open(args.csv, "w") as fh:
            fh.write("index,dx,dy,dz\n")
            for i, (dx, dy, dz) in enumerate(flow.vectors):
                fh.write(f"{i},{dx:.9g},{dy:.9g},{dz:.9g}\n")
        print(f"wrote {args.csv} (flow as CSV)")
    if args.dump_features is not None:
        _dump_backbone_csv(trace.backbone_out, args.dump_features)
        print(f"wrote {args.dump_features} (backbone feature dump)")
    return EXIT_OK


def _dump_backbone_csv(tensor, path):
    with open(path, "w") as fh:
        header = ",".join(f"c{i}" for i in range(tensor.n_channels))
        fh.write(f"t,ix,iy,iz,{header}\n")
        for key, row in zip(tensor.coords, tensor.features):
            values = ",".join(format(v, ".9g") for v in row)
            fh.write(f"{key[0]},{key[1]},{key[2]},{key[3]},{values}\n")


def cmd_eval(args):
    config = _load_config(args)
    scene = pc.load_scene(args.scene)
    flow = pc.load_flow(args.flow)
    if len(flow) != len(scene.gt_flow):
        raise SceneFlowError(
            f"flow file has {len(flow)} vectors, scene expects {len(scene.gt_flow)}"
        )
    report = metrics_mod.evaluate(flow, scene.gt_flow, scene.mask, config.dt)
    breakdown = loss_mod.scene_adaptive_loss(flow, scene.gt_flow, config.k_bins)
    bucket = loss_mod.three_bucket_loss(flow, scene.gt_flow, config.dt)

    print(report.to_text())
    print(f"scene-adaptive loss: static {breakdown.static_term:.6f} "
          f"+ dynamic {breakdown.dynamic_term:.6f} = {breakdown.total:.6f} "
          f"(alpha={breakdown.alpha}, r_alpha={breakdown.r_alpha:.4f} m"
          f"{', fallback' if breakdown.fallback else ''})")
    print(f"three-bucket loss: {bucket:.6f}")

    if args.out is not None:
        Path(args.out).write_text(report.to_csv())
        loss_path = Path(args.out).with_name(Path(args.out).stem + "_loss.csv")
        scene_id = Path(args.scene).stem
        loss_path.write_text(
            loss_mod.LOSS_REPORT_HEADER + "\n"
            + loss_mod.loss_report_row(scene_id, breakdown, config.k_bins) + "\n"
        )
        print(f"wrote {args.out} and {loss_path}")
    return EXIT_OK


def _comma_list(text):
    """Comma-separated items, each an int where it parses and else left a
    string for the flag's rule to reject."""
    items = []
    for item in filter(str.strip, text.split(",")):
        try:
            items.append(int(item))
        except ValueError:
            items.append(item)
    return items


def cmd_bench(args):
    config = _load_config(args)
    check_config(args, lengths="--lengths", batch="--batch", d_inner="--d-inner",
                 state="--state", min_time="--min-time")
    d_inner, state, batch = args.d_inner, args.state, args.batch
    if (terms := batch * max(args.lengths, default=0) * d_inner * state) > MAX_FLOATS:
        raise InvalidConfig("--batch, --lengths, --d-inner and --state must give at most "
                            f"{MAX_FLOATS} scan terms (batch*L*D*S), got {terms}")
    rng = np.random.default_rng(args.seed)
    rows = ["impl,L,D_inner,S,tokens_per_second"]
    for length in args.lengths:
        if length == 0:
            print("skipping L=0 (nothing to scan)")
            continue
        params = ssm.SsmParams.seeded(d_inner, state, d_inner, rng)
        x = rng.normal(size=(batch, length, d_inner))
        offsets = rng.normal(size=(batch, length, d_inner))
        _, delta, b_tok, c_tok = ssm.project_token_params(offsets, params)
        disc = ssm.zoh_discretize(params.a, b_tok, delta, ssm.ZohMode.SIMPLIFIED)
        h0 = np.zeros((batch, d_inner, state))

        y_seq, _ = ssm.scan_sequential(disc, c_tok, params.d, x, h0)
        y_blk, _ = ssm.scan_blocked(disc, c_tok, params.d, x, h0, config.block_size)
        scale = max(np.abs(y_seq).max(), 1.0)
        assert np.abs(y_seq - y_blk).max() <= 1e-10 * scale, "scan outputs diverged"

        for name, fn in (
            ("sequential", lambda: ssm.scan_sequential(disc, c_tok, params.d, x, h0)),
            ("blocked", lambda: ssm.scan_blocked(disc, c_tok, params.d, x, h0,
                                                 config.block_size)),
        ):
            start = time.perf_counter()
            reps = 0
            while time.perf_counter() - start < args.min_time:
                fn()
                reps += 1
            elapsed = time.perf_counter() - start
            tps = batch * length * reps / elapsed
            rows.append(f"{name},{length},{d_inner},{state},{tps:.1f}")
    csv_text = "\n".join(rows) + "\n"
    if args.out is not None:
        Path(args.out).write_text(csv_text)
        print(f"wrote {args.out}")
    else:
        print(csv_text, end="")
    return EXIT_OK


# --- selftest ----------------------------------------------------------------


def _check_serialization_roundtrip():
    rng = np.random.default_rng(11)
    coords = rng.integers(0, 64, (500, 3))
    rows = rng.normal(size=(500, 4))
    seq = sz.serialize(rows, coords)
    assert np.array_equal(sz.deserialize(seq), rows)
    raw = rng.integers(0, 1 << 21, (1000, 3))
    ix, iy, iz = sz.morton_decode(sz.morton_codes(raw))
    assert np.array_equal(np.stack([ix, iy, iz], 1), raw)


def _check_scan_equivalence():
    rng = np.random.default_rng(5)
    for length in (1, 2, 100):
        d_inner, state = 4, 8
        params = ssm.SsmParams.seeded(d_inner, state, 3, rng)
        f_off = rng.normal(size=(2, length, 3))
        x = rng.normal(size=(2, length, d_inner))
        _, delta, b_tok, c_tok = ssm.project_token_params(f_off, params)
        disc = ssm.zoh_discretize(params.a, b_tok, delta)
        h0 = rng.normal(size=(2, d_inner, state))
        y1, h1 = ssm.scan_sequential(disc, c_tok, params.d, x, h0)
        y2, h2 = ssm.scan_blocked(disc, c_tok, params.d, x, h0, block_size=16)
        scale = max(np.abs(y1).max(), 1.0)
        assert np.abs(y1 - y2).max() <= 1e-10 * scale
        assert np.abs(h1 - h2).max() <= 1e-10 * max(np.abs(h1).max(), 1.0)


def _check_streamed_scan():
    rng = np.random.default_rng(13)
    length = 3 * ssm.SCAN_CHUNK + 5  # several chunks and a tail shorter than a block
    params = ssm.SsmParams.seeded(4, 8, 3, rng)
    x = rng.normal(size=(1, length, 4))
    f_off = rng.normal(size=(1, length, 3))
    h0 = rng.normal(size=(1, 4, 8))
    refined, h = ssm.flow_ssm_layer(x, f_off, params, h0)
    _, delta, b_tok, c_tok = ssm.project_token_params(f_off, params)
    disc = ssm.zoh_discretize(params.a, b_tok, delta, ssm.ZohMode.SIMPLIFIED)
    y_ref, h_ref = ssm.scan_sequential(disc, c_tok, params.d, x, h0)
    assert np.abs(refined - y_ref).max() <= 1e-10 * max(np.abs(y_ref).max(), 1.0)
    assert np.abs(h - h_ref).max() <= 1e-10 * max(np.abs(h_ref).max(), 1.0)


def _check_chunk_bytes():
    # At the decoder's widths the streamed layer projects each chunk on its
    # own; that matches the full-length projection byte for byte only if
    # this BLAS rounds a row range like the whole matrix.  The decoder runs
    # the layer in place, so that run must match the recorded one too.
    rng = np.random.default_rng(17)
    length = 2 * ssm.SCAN_CHUNK + 5
    params = ssm.SsmParams.seeded(32, 16, 16, rng)
    x = rng.normal(size=(1, length, 32))
    f_off = rng.normal(size=(1, length, 16))
    h0 = rng.normal(size=(1, 32, 16))
    run = ssm.flow_ssm_forward(x, f_off, params, h0, keep_intermediates=True)
    refined, h = ssm.flow_ssm_layer(x, f_off, params, h0)
    assert np.array_equal(refined, run.refined), "streamed output differs from recorded run"
    assert np.array_equal(h, run.h_final), "streamed state differs from recorded run"
    in_place = x.copy()
    _, h = ssm.flow_ssm_layer(in_place, f_off, params, h0, out=in_place)
    assert np.array_equal(in_place, run.refined), "in-place output differs from recorded run"
    assert np.array_equal(h, run.h_final), "in-place state differs from recorded run"
    z_delta, _, b_tok, c_tok = ssm.project_token_params(f_off, params)
    for name, expect in zip(("z_delta", "b_tokens", "c_tokens"), (z_delta, b_tok, c_tok)):
        assert np.array_equal(getattr(run, name), expect), f"per-chunk {name} differs"


def _check_ssm_gradients():
    rng = np.random.default_rng(3)
    params = ssm.SsmParams.seeded(4, 6, 3, rng)
    x = rng.normal(size=(1, 12, 4))
    f_off = rng.normal(size=(1, 12, 3))
    gy = rng.normal(size=x.shape)
    run = ssm.flow_ssm_forward(x, f_off, params, keep_intermediates=True)
    grads = ssm.ssm_backward(run, gy)
    h = 1e-6
    import dataclasses

    for name in ("a_log", "d", "w_b"):
        base = getattr(params, name)
        flat_idx = base.size // 2
        plus, minus = base.copy(), base.copy()
        plus.flat[flat_idx] += h
        minus.flat[flat_idx] -= h
        loss_p = float((gy * ssm.flow_ssm_layer(
            x, f_off, dataclasses.replace(params, **{name: plus}))[0]).sum())
        loss_m = float((gy * ssm.flow_ssm_layer(
            x, f_off, dataclasses.replace(params, **{name: minus}))[0]).sum())
        fd = (loss_p - loss_m) / (2 * h)
        an = getattr(grads, name).flat[flat_idx]
        assert abs(an - fd) <= 1e-5 * max(abs(fd), 1e-8), f"{name} gradient mismatch"


def _check_loss_construction():
    gt = np.zeros((100, 3))
    gt[-1] = (2.0, 0.0, 0.0)
    pred = gt.copy()
    pred[-1] += (1.0, 0.0, 0.0)
    breakdown = loss_mod.scene_adaptive_loss(pred, gt, k=100)
    assert breakdown.alpha == 1 and breakdown.n_dynamic == 1
    assert abs(breakdown.total - 1.0) < 1e-12


def _check_scene_roundtrip():
    import tempfile

    cfg = pc.SceneConfig(
        n_background=100,
        movers=(pc.MoverSpec((1, 1, 0), (1, 1, 1), (1.0, 0, 0), 20),),
    )
    scene = pc.synth_scene(cfg, 9)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.sfsc"
        pc.save_scene(scene, path)
        assert pc.load_scene(path) == scene


def _check_weights_roundtrip():
    import tempfile

    config = RunConfig()
    weights = init_pipeline_weights(config, 4)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.sfwt"
        save_pipeline_weights(weights, path)
        loaded = load_pipeline_weights(path, config)
        saved, reread = pipeline_weights_to_dict(weights), pipeline_weights_to_dict(loaded)
        assert saved.keys() == reread.keys(), "sections differ after a round trip"
        for name, value in saved.items():
            assert np.array_equal(reread[name], value), f"section {name} differs"
        again = Path(tmp) / "again.sfwt"
        save_pipeline_weights(loaded, again)
        assert again.read_bytes() == path.read_bytes(), "re-saved bytes differ"


def _check_kernel_map():
    rng = np.random.default_rng(8)
    extent = (5, 12, 12, 12)
    cells = rng.choice(int(np.prod(extent)), size=800, replace=False)
    tensor = SparseTensor4D(np.stack(np.unravel_index(cells, extent), axis=1), np.zeros((800, 1)))
    taps = np.array([(0, a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)]
                    + [(dt, 0, 0, 0) for dt in (-2, -1, 1, 2)])
    for tap, pair in zip(taps, KernelMap(tensor.coords).pairs(taps)):
        idx, found = tensor.lookup(tensor.coords + tap)
        if pair is None:
            pair = (np.arange(tensor.n_active), np.arange(tensor.n_active))
        assert np.array_equal(pair[0], np.flatnonzero(found)), f"tap {tap}: rows differ"
        assert np.array_equal(pair[1], idx[found]), f"tap {tap}: neighbours differ"


def _seeded_pooling():
    """A seeded fine tensor, its parent rows, and each fine row's parent."""
    rng = np.random.default_rng(10)
    extent = (5, 12, 12, 12)
    cells = rng.choice(int(np.prod(extent)), size=800, replace=False)
    coords = np.stack(np.unravel_index(cells, extent), axis=1) - (0, 6, 6, 6)
    tensor = SparseTensor4D(coords, rng.normal(size=(800, 3)))
    parents = tensor.coords.copy()
    parents[:, 1:] = np.floor_divide(parents[:, 1:], 2)
    uniq, inverse = np.unique(parents, axis=0, return_inverse=True)
    return tensor, uniq, inverse


def _check_downsample():
    tensor, uniq, inverse = _seeded_pooling()
    sums = np.zeros((len(uniq), 3))
    np.add.at(sums, inverse, tensor.features)
    pooling = stdcb.pool2(tensor.coords)
    assert np.array_equal(pooling[1], inverse), "parent rows differ"
    down = stdcb.downsample2(tensor, pooling)
    assert np.array_equal(down.coords, uniq), "parents differ"
    means = sums / np.bincount(inverse)[:, None]
    assert down.features.tobytes() == means.tobytes(), "means differ"


def _check_upsample():
    tensor, uniq, inverse = _seeded_pooling()
    pooling = stdcb.pool2(tensor.coords)
    down = stdcb.downsample2(tensor, pooling)
    assert np.array_equal(down.coords, uniq), "parents differ"
    expect = down.features[inverse] + tensor.features
    up = stdcb.upsample_into(down, tensor.with_features(tensor.features.copy()), pooling)
    assert up.features.tobytes() == expect.tobytes(), "upsampled rows differ"


SELFTEST_CHECKS = (
    ("serialization.roundtrip", _check_serialization_roundtrip),
    ("ssm.scan_equivalence", _check_scan_equivalence),
    ("ssm.stream", _check_streamed_scan),
    ("ssm.chunk_bytes", _check_chunk_bytes),
    ("ssm.gradients", _check_ssm_gradients),
    ("loss.construction", _check_loss_construction),
    ("pointcloud.roundtrip", _check_scene_roundtrip),
    ("weights.roundtrip", _check_weights_roundtrip),
    ("stdcb.kmap", _check_kernel_map),
    ("stdcb.downsample", _check_downsample),
    ("stdcb.upsample", _check_upsample),
)


def cmd_selftest(args):
    failures = []
    for name, check in SELFTEST_CHECKS:
        if args.filter and args.filter not in name:
            continue
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report, don't mask
            failures.append((name, exc))
            print(f"{name}: FAIL ({exc})")
        else:
            print(f"{name}: ok")
    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(n for n, _ in failures)}")
        return 1
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sfkit", description="Desk-scale scene-flow pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene file")
    _common_flags(p)
    p.add_argument("--points", type=int, default=2000, help="background point count")
    p.add_argument("--movers", type=int, default=2, help="number of rigid movers")
    p.add_argument("--mover-points", type=int, default=200)
    p.add_argument("--jitter", type=float, default=0.0, help="Gaussian jitter sigma (m)")
    p.add_argument("--ego-speed", type=float, default=0.0, help="ego forward speed (m/s)")
    p.add_argument("--ply", type=Path, help="also export the prediction frame as PLY")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("infer", help="run the pipeline on a scene file")
    _common_flags(p)
    p.add_argument("scene", type=Path)
    p.add_argument("--weights", type=Path, help="SFWT weight file")
    p.add_argument("--seed-weights", type=int, default=0,
                   help="draw weights from this seed instead of a file")
    p.add_argument("--save-weights", type=Path, help="write the weights used as SFWT")
    p.add_argument("--csv", type=Path, help="also write the flow as CSV")
    p.add_argument("--dump-features", type=Path,
                   help="debug CSV dump of the backbone output tensor")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score a flow file against a scene's ground truth")
    _common_flags(p)
    p.add_argument("scene", type=Path)
    p.add_argument("flow", type=Path)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="time the scan implementations")
    _common_flags(p)
    p.add_argument("--lengths", type=_comma_list, default="64,256,1024,4096")
    p.add_argument("--batch", type=int, default=2)
    p.add_argument("--d-inner", type=int, default=32)
    p.add_argument("--state", type=int, default=16)
    p.add_argument("--min-time", type=float, default=0.05,
                   help="minimum seconds per measurement")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("selftest", help="run the embedded oracle checks")
    _common_flags(p)
    p.add_argument("--filter", default="", help="only run checks whose name contains this")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SceneFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main(argv=None))
