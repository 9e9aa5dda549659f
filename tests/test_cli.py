import json

import numpy as np
import pytest

from sfkit import cli
from sfkit import pointcloud as pc
from sfkit.cli import main
from sfkit.pipeline import RunConfig, init_pipeline_weights


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def scene_path(tmp_path):
    path = tmp_path / "scene.sfsc"
    assert run("synth", "--points", 300, "--movers", 1, "--mover-points", 40,
               "--seed", 11, "--out", path) == 0
    return path


def test_synth_same_seed_byte_identical(tmp_path):
    a = tmp_path / "a.sfsc"
    b = tmp_path / "b.sfsc"
    for out in (a, b):
        assert run("synth", "--points", 100, "--movers", 2, "--seed", 5, "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_without_movers_zero_flow(tmp_path):
    out = tmp_path / "static.sfsc"
    assert run("synth", "--points", 50, "--movers", 0, "--seed", 1, "--out", out) == 0
    scene = pc.load_scene(out)
    assert np.all(scene.gt_flow.vectors == 0.0)


def test_infer_deterministic_and_counts(scene_path, tmp_path):
    flow_a = tmp_path / "a.sffl"
    flow_b = tmp_path / "b.sffl"
    for out in (flow_a, flow_b):
        assert run("infer", scene_path, "--seed-weights", 4, "--out", out) == 0
    assert flow_a.read_bytes() == flow_b.read_bytes()
    flow = pc.load_flow(flow_a)
    scene = pc.load_scene(scene_path)
    assert len(flow) == len(scene.prediction_frame)


def test_infer_weight_file_matches_seeded(scene_path, tmp_path):
    flow_a = tmp_path / "a.sffl"
    flow_b = tmp_path / "b.sffl"
    wpath = tmp_path / "w.sfwt"
    assert run("infer", scene_path, "--seed-weights", 9, "--out", flow_a,
               "--save-weights", wpath) == 0
    assert run("infer", scene_path, "--weights", wpath, "--out", flow_b) == 0
    assert flow_a.read_bytes() == flow_b.read_bytes()


def test_eval_exact_prediction(scene_path, tmp_path, capsys):
    scene = pc.load_scene(scene_path)
    flow_path = tmp_path / "gt.sffl"
    pc.save_flow(scene.gt_flow, flow_path)
    report_path = tmp_path / "report.csv"
    assert run("eval", scene_path, flow_path, "--out", report_path) == 0
    printed = capsys.readouterr().out
    assert "dynamic IoU  1.0000" in printed
    rows = dict(
        line.split(",") for line in report_path.read_text().splitlines()[1:]
    )
    assert float(rows["avg_epe"]) == 0.0
    assert float(rows["dynamic_iou"]) == 1.0
    loss_csv = report_path.with_name("report_loss.csv").read_text().splitlines()
    assert loss_csv[0].startswith("scene_id,K,alpha")
    assert loss_csv[1].split(",")[0] == "scene"


def test_eval_count_mismatch_exit_code(scene_path, tmp_path):
    bad_flow = tmp_path / "bad.sffl"
    pc.save_flow(pc.FlowField(np.zeros((3, 3))), bad_flow)
    assert run("eval", scene_path, bad_flow) == 2


def test_eval_dt_overflowing_speed_buckets_exit_code(tmp_path):
    mover = pc.MoverSpec(center=(2.0, 1.0, 0.0), extents=(1.0, 1.0, 0.5),
                         velocity=(2.0, 0.0, 0.0), n_points=20)
    scene = pc.synth_scene(pc.SceneConfig(n_background=50, movers=(mover,)), 3)
    assert np.any(scene.mask == pc.MotionClass.FOREGROUND_DYNAMIC)
    scene_path = tmp_path / "scene.sfsc"
    pc.save_scene(scene, scene_path)
    flow_path = tmp_path / "gt.sffl"
    pc.save_flow(scene.gt_flow, flow_path)
    assert run("eval", scene_path, flow_path, "--set", "dt=1e-300") == 2


def test_infer_flow_outside_f32_exit_code_and_no_file(scene_path, tmp_path, monkeypatch):
    n = len(pc.load_scene(scene_path).prediction_frame)
    monkeypatch.setattr(cli, "infer_flow", lambda *a, **k: pc.FlowField(np.full((n, 3), 1e200)))
    out = tmp_path / "f.sffl"
    assert run("infer", scene_path, "--out", out) == 3
    assert not out.exists()


def test_missing_file_exit_code(tmp_path):
    assert run("infer", tmp_path / "nope.sfsc") == 2


def test_corrupt_scene_exit_code(tmp_path):
    bad = tmp_path / "bad.sfsc"
    bad.write_bytes(b"SFSC\x01\x00\x05\x00\xff")
    assert run("infer", bad) == 2


def every_truncation_and_byte_flip(blob):
    yield from (blob[:n] for n in range(len(blob)))
    yield from (blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:] for i in range(len(blob)))


def test_scene_and_flow_every_truncation_and_byte_flip_exit_0_2_or_3(tmp_path):
    scene = tmp_path / "scene.sfsc"
    flow = tmp_path / "flow.sffl"
    assert run("synth", "--points", 9, "--movers", 0, "--seed", 3, "--out", scene) == 0
    assert run("infer", scene, "--out", flow) == 0
    broken = tmp_path / "broken"
    # (intact file, command that reads its broken variant)
    table = (
        (scene, ("infer", broken, "--out", tmp_path / "out.sffl")),
        (flow, ("eval", scene, broken)),
    )
    for intact, command in table:
        for i, variant in enumerate(every_truncation_and_byte_flip(intact.read_bytes())):
            broken.write_bytes(variant)
            assert run(*command) in (0, 2, 3), (intact.name, i)


def test_corrupt_weight_file_exit_code(scene_path, tmp_path):
    wpath = tmp_path / "w.sfwt"
    assert run("infer", scene_path, "--seed-weights", 1, "--out", tmp_path / "f.sffl",
               "--save-weights", wpath) == 0
    blob = wpath.read_bytes()
    wpath.write_bytes(blob[: len(blob) - 16])
    assert run("infer", scene_path, "--weights", wpath) == 2


def test_weight_file_for_another_dilation_exit_2(scene_path, tmp_path, capsys):
    wpath = tmp_path / "gap1.sfwt"
    assert run("infer", scene_path, "--seed-weights", 1, "--out", tmp_path / "f.sffl",
               "--save-weights", wpath) == 0
    assert run("infer", scene_path, "--weights", wpath, "--dilation", "literal",
               "--out", tmp_path / "g.sffl") == 2
    assert "conv_cross.dilation_t" in capsys.readouterr().err


@pytest.mark.parametrize("section", [
    "point_encoder.w1",
    "backbone.encoder.0.0.conv_spatial.weights",
    "backbone.decoder.0.0.sfsm_fuse.bn_var",
    "decoder.ssm.0.a_log",
    "decoder.head.b2",
])
def test_weight_file_non_finite_section_exit_2(scene_path, tmp_path, section, capsys):
    from sfkit.weights import load_weight_dict, save_weight_dict

    wpath = tmp_path / "w.sfwt"
    assert run("infer", scene_path, "--seed-weights", 1, "--out", tmp_path / "f.sffl",
               "--save-weights", wpath) == 0
    flat = load_weight_dict(wpath)
    flat[section].flat[0] = np.nan
    save_weight_dict(flat, wpath)
    flow = tmp_path / "g.sffl"
    assert run("infer", scene_path, "--weights", wpath, "--out", flow) == 2
    assert f"section {section!r} holds a non-finite value" in capsys.readouterr().err
    assert not flow.exists()


def test_weight_file_negative_bn_var_exit_2(scene_path, tmp_path, capsys):
    from sfkit.weights import load_weight_dict, save_weight_dict

    wpath = tmp_path / "w.sfwt"
    assert run("infer", scene_path, "--seed-weights", 1, "--out", tmp_path / "f.sffl",
               "--save-weights", wpath) == 0
    flat = load_weight_dict(wpath)
    flat["backbone.encoder.0.0.sfsm_temporal.bn_var"].flat[0] = -65536.0
    save_weight_dict(flat, wpath)
    flow = tmp_path / "g.sffl"
    assert run("infer", scene_path, "--weights", wpath, "--out", flow) == 2
    assert "bn_var must be >= 0, got -65536.0" in capsys.readouterr().err
    assert not flow.exists()


def test_weight_file_section_name_not_utf8_exit_2(scene_path, tmp_path):
    wpath = tmp_path / "w.sfwt"
    wpath.write_bytes(b"SFWT\x01\x00\x01\x00\xff\x00" + bytes(8))
    assert run("infer", scene_path, "--weights", wpath) == 2


def test_bench_csv_rows(tmp_path):
    out = tmp_path / "bench.csv"
    assert run("bench", "--lengths", "0,32,64", "--min-time", "0.01", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "impl,L,D_inner,S,tokens_per_second"
    body = [line.split(",") for line in lines[1:]]
    assert {(r[0], r[1]) for r in body} == {
        ("sequential", "32"), ("blocked", "32"), ("sequential", "64"), ("blocked", "64")
    }
    assert all(float(r[4]) > 0 for r in body)


def test_selftest_passes_and_filter(capsys):
    assert run("selftest") == 0
    out = capsys.readouterr().out
    assert "ssm.gradients: ok" in out
    assert run("selftest", "--filter", "ssm") == 0
    out = capsys.readouterr().out
    assert "loss.construction" not in out
    assert run("selftest", "--filter", "kmap") == 0
    assert capsys.readouterr().out.splitlines() == ["stdcb.kmap: ok"]
    assert run("selftest", "--filter", "stream") == 0
    assert capsys.readouterr().out.splitlines() == ["ssm.stream: ok"]
    assert run("selftest", "--filter", "downsample") == 0
    assert capsys.readouterr().out.splitlines() == ["stdcb.downsample: ok"]


def test_selftest_checks_upsample(capsys):
    assert run("selftest", "--filter", "upsample") == 0
    assert capsys.readouterr().out.splitlines() == ["stdcb.upsample: ok"]


def test_config_file_and_flag_overrides(scene_path, tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"decoder_layers": 2, "k_bins": 50}))
    flow = tmp_path / "f.sffl"
    assert run("infer", scene_path, "--config", cfg_path, "--out", flow,
               "--decoder-layers", 3) == 0
    # flag wins over file; a bad merged config must fail cleanly
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"unknown_key": 1}))
    assert run("infer", scene_path, "--config", bad_cfg) == 2


def test_set_overrides_any_config_key(scene_path, tmp_path):
    flow = tmp_path / "f.sffl"
    assert run("infer", scene_path, "--out", flow,
               "--set", "channels=8", "--set", "encoder_depths=[1]",
               "--set", "decoder_depths=[]", "--set", "zoh_mode=exact") == 0
    assert run("infer", scene_path, "--set", "bogus_key=1") == 2
    assert run("infer", scene_path, "--set", "no_equals_sign") == 2


def test_threads_env_fallback(scene_path, tmp_path, monkeypatch):
    monkeypatch.setenv("SFKIT_THREADS", "4")
    flow_env = tmp_path / "env.sffl"
    assert run("infer", scene_path, "--out", flow_env) == 0
    monkeypatch.delenv("SFKIT_THREADS")
    flow_flag = tmp_path / "flag.sffl"
    assert run("infer", scene_path, "--threads", 4, "--out", flow_flag) == 0
    assert flow_env.read_bytes() == flow_flag.read_bytes()


def test_threads_env_not_an_integer_exit_2(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("SFKIT_THREADS", "abc")
    assert run("synth", "--points", 10, "--movers", 0, "--out", tmp_path / "s.sfsc") == 2
    assert "SFKIT_THREADS must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--lengths", "-5"), ("--lengths", "abc"), ("--lengths", "8,x"),
    ("--batch", "0"), ("--d-inner", "0"), ("--state", "0"), ("--state", "-2"),
])
def test_bench_malformed_arguments_exit_2(tmp_path, flag, value, capsys):
    out = tmp_path / "bench.csv"
    assert run("bench", flag, value, "--min-time", "0.001", "--out", out) == 2
    assert "must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
def test_bench_min_time_must_be_finite_and_positive_exit_2(tmp_path, value, capsys):
    out = tmp_path / "bench.csv"
    assert run("bench", "--lengths", "8", "--min-time", value, "--out", out) == 2
    assert "--min-time must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,rule", [
    ("--jitter", "nan", "jitter_sigma must be"), ("--jitter", "inf", "jitter_sigma must be"),
    ("--jitter", "-0.1", "jitter_sigma must be"), ("--movers", "-1", "n_movers must be"),
])
def test_synth_malformed_arguments_exit_2(tmp_path, flag, value, rule, capsys):
    out = tmp_path / "s.sfsc"
    assert run("synth", "--points", 10, flag, value, "--out", out) == 2
    assert rule in capsys.readouterr().err
    assert not out.exists()


def test_grid_too_wide_to_pack_keys_exit_2(scene_path, tmp_path, capsys):
    # Each axis fits the grid, but five frames of this grid hold more than
    # 2**63 cells, so the backbone cannot pack its keys into int64.
    flow = tmp_path / "f.sffl"
    assert run("infer", scene_path, "--out", flow, "--set", "cell_size=1e-5",
               "--set", "grid_extents=[2097151,2097151,2097151]",
               "--set", "grid_origin=[-10.5,-10.5,-10.5]") == 2
    err = capsys.readouterr().err
    assert "cannot pack keys into int64" in err
    assert not flow.exists()


def test_run_config_validation():
    from sfkit.errors import CONFIG_RULES, InvalidConfig

    with pytest.raises(InvalidConfig):
        RunConfig(zoh_mode="banana")
    with pytest.raises(InvalidConfig):
        RunConfig(decoder_layers=0)
    with pytest.raises(InvalidConfig):
        RunConfig.from_mapping({"nope": 3})
    assert CONFIG_RULES.keys() == RunConfig.__dataclass_fields__.keys()


def test_empty_encoder_depths_gets_the_rule_message(scene_path, tmp_path, capsys):
    from sfkit.errors import InvalidConfig

    message = "encoder_depths must be a non-empty list of integers >= 1, got []"
    with pytest.raises(InvalidConfig) as err:
        RunConfig.from_mapping({"encoder_depths": []})
    assert str(err.value) == message
    assert run("infer", scene_path, "--out", tmp_path / "f.sffl",
               "--set", "encoder_depths=[]") == 2
    assert message in capsys.readouterr().err
    # A single level has no transition, so it takes no decoder stack.
    config = RunConfig.from_mapping({"encoder_depths": [2], "decoder_depths": []})
    assert len(init_pipeline_weights(config, 0).backbone.encoder) == 1


def test_ply_export_flag(tmp_path):
    ply = tmp_path / "frame.ply"
    assert run("synth", "--points", 20, "--movers", 0, "--seed", 2,
               "--out", tmp_path / "s.sfsc", "--ply", ply) == 0
    assert ply.read_text().startswith("ply")


def test_infer_csv_export(scene_path, tmp_path):
    csv_path = tmp_path / "flow.csv"
    flow_path = tmp_path / "f.sffl"
    assert run("infer", scene_path, "--out", flow_path, "--csv", csv_path) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "index,dx,dy,dz"
    flow = pc.load_flow(flow_path)
    assert len(lines) - 1 == len(flow)
    first = [float(v) for v in lines[1].split(",")[1:]]
    assert np.allclose(first, flow.vectors[0], atol=1e-7)


def test_decode_frame_switch(scene_path, tmp_path):
    cfg_path = tmp_path / "tp1.json"
    cfg_path.write_text(json.dumps({"decode_frame": "t+1"}))
    flow_t = tmp_path / "t.sffl"
    flow_t1 = tmp_path / "t1.sffl"
    assert run("infer", scene_path, "--out", flow_t) == 0
    assert run("infer", scene_path, "--config", cfg_path, "--out", flow_t1) == 0
    a = pc.load_flow(flow_t)
    b = pc.load_flow(flow_t1)
    assert len(a) == len(b)  # synthetic frames share their point count
    assert not np.array_equal(a.vectors, b.vectors)


def test_dump_features_flag(scene_path, tmp_path):
    dump = tmp_path / "features.csv"
    assert run("infer", scene_path, "--out", tmp_path / "f.sffl",
               "--dump-features", dump) == 0
    lines = dump.read_text().splitlines()
    assert lines[0].startswith("t,ix,iy,iz,c0")
    assert len(lines) > 1


def test_dump_features_runs_inference_once(scene_path, tmp_path, monkeypatch):
    import sfkit.cli as cli
    from sfkit.pipeline import InferenceTrace, infer_flow, init_pipeline_weights

    calls = []

    def counting_infer(*args, **kwargs):
        calls.append(kwargs.get("trace"))
        return infer_flow(*args, **kwargs)

    monkeypatch.setattr(cli, "infer_flow", counting_infer)
    dump = tmp_path / "features.csv"
    assert run("infer", scene_path, "--seed-weights", 3, "--out", tmp_path / "f.sffl",
               "--dump-features", dump) == 0
    assert len(calls) == 1 and calls[0] is not None

    config = RunConfig()
    trace = InferenceTrace()
    infer_flow(pc.load_scene(scene_path), init_pipeline_weights(config, 3), config, trace=trace)
    tensor = trace.backbone_out
    expect = "t,ix,iy,iz," + ",".join(f"c{i}" for i in range(tensor.n_channels)) + "\n"
    for key, row in zip(tensor.coords, tensor.features):
        expect += ",".join(str(k) for k in key) + ","
        expect += ",".join(format(v, ".9g") for v in row) + "\n"
    assert dump.read_bytes() == expect.encode()


@pytest.mark.parametrize("command,override", [
    ("infer", "decoder_layers=1.5"),
    ("infer", "block_size=2.5"),
    ("eval", "k_bins=2.5"),
    ("infer", "threads=true"),
    ("infer", "dynamic_threshold=-1"),
    ("infer", "state_size=-3"),
    ("infer", "grid_origin=[0,0]"),
    ("infer", 'grid_origin=["a",0,0]'),
    ("infer", "encoder_depths=[1.5,1]"),
    ("infer", "--config=3"),
    ("infer", "--config=null"),
    ("eval", "k_bins=1000000000000"),
    ("infer", "cell_size=NaN"),
    ("infer", "cell_size=true"),
    ("infer", "dt=NaN"),
    ("infer", "dt=Infinity"),
    ("infer", "grid_origin=[NaN,0,0]"),
    ("infer", "grid_extents=[1.5,2,2]"),
    ("infer", "grid_extents=[true,2,2]"),
    ("infer", "decoder_depths=[true]"),
    ("infer", "dynamic_threshold=Infinity"),
    ("infer", "cell_size=Infinity"),
])
def test_bad_config_values_exit_2(scene_path, tmp_path, command, override, capsys):
    flow = tmp_path / "f.sffl"
    assert run("infer", scene_path, "--out", flow) == 0
    args = (scene_path, flow) if command == "eval" else (scene_path, "--out", flow)
    if override.startswith("--config="):  # a config file that is not a JSON object
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(override.removeprefix("--config="))
        assert run(command, *args, "--config", cfg_path) == 2
    else:
        assert run(command, *args, "--set", override) == 2
    assert "must be" in capsys.readouterr().err


# Each scalar and list shape that JSON can spell, with lists of three items so
# that the 3-vector keys see a bad item rather than a bad length.
BAD_JSON_VALUES = ("null", "true", '"x"', "NaN", "Infinity", "-Infinity", "1e400", "-1", "0",
                   "1.5", "[]", "[1,1]", '[1,1,"x"]', "[1,1,NaN]", "[1,1,true]",
                   "100000000000000000000000000")


def test_every_config_key_and_bad_value_exits_0_or_2(tmp_path, capsys):
    from sfkit.errors import CONFIG_RULES

    scene = tmp_path / "scene.sfsc"
    assert run("synth", "--points", 9, "--movers", 0, "--seed", 3, "--out", scene) == 0
    for key in CONFIG_RULES:
        for value in BAD_JSON_VALUES:
            code = run("infer", scene, "--out", tmp_path / "f.sffl", "--set", f"{key}={value}")
            err = capsys.readouterr().err
            assert code in (0, 2), (key, value, code, err)
            if code == 2:
                assert f"{key} must be" in err, (key, value, err)


def run_or_usage_error(*argv):
    """``run``, with argparse's own usage error read as its exit code 2."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


# Each swept flag and the rule its value is checked by, or None for a flag
# whose bad values are refused further in.
SWEPT_FLAGS = {
    "synth": {"--points": "n_background", "--movers": "n_movers",
              "--mover-points": "mover n_points", "--jitter": "jitter_sigma",
              "--ego-speed": None, "--seed": "--seed"},
    "infer": {"--seed-weights": "--seed-weights"},
    "bench": {"--lengths": "--lengths", "--batch": "--batch", "--d-inner": "--d-inner",
              "--state": "--state", "--min-time": "--min-time", "--seed": "--seed"},
}
SWEPT_VALUES = ("-1", "0", "1.5", "nan", "inf", "-inf", "x", str(10**20), str(10**26),
                str(-10**26))


def test_every_cli_flag_and_bad_value_exits_0_or_2(tmp_path, capsys):
    scene = tmp_path / "scene.sfsc"
    assert run("synth", "--points", 9, "--movers", 0, "--seed", 3, "--out", scene) == 0
    out = tmp_path / "out"
    # ``--lengths 0`` times nothing, so that a valid --min-time costs no time.
    base = {"synth": ("--points", 9, "--movers", 1, "--mover-points", 3),
            "infer": (scene,), "bench": ("--lengths", "0")}
    for command, flags in SWEPT_FLAGS.items():
        for flag, key in flags.items():
            for value in SWEPT_VALUES:
                code = run_or_usage_error(command, *base[command], f"{flag}={value}",
                                          "--out", out)
                err = capsys.readouterr().err
                assert code in (0, 2), (command, flag, value, code, err)
                if "must be" in err:
                    assert f"error: {key} must be" in err, (command, flag, value, err)


def test_weight_file_truncations_and_byte_flips_through_infer_exit_0_2_or_3(tmp_path):
    scene = tmp_path / "scene.sfsc"
    assert run("synth", "--points", 9, "--movers", 0, "--seed", 3, "--out", scene) == 0
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({"channels": 1, "encoder_depths": [1], "decoder_depths": [],
                                  "state_size": 1}))
    wpath, broken = tmp_path / "w.sfwt", tmp_path / "broken.sfwt"
    assert run("infer", scene, "--config", config, "--out", tmp_path / "f.sffl",
               "--save-weights", wpath) == 0
    # Every 7th variant: 7 is prime to the 8 bytes of a float64, so the flips
    # still land on every byte position of the payload's numbers.
    variants = list(every_truncation_and_byte_flip(wpath.read_bytes()))[::7]
    for i, variant in enumerate(variants):
        broken.write_bytes(variant)
        code = run("infer", scene, "--config", config, "--weights", broken,
                   "--out", tmp_path / "g.sffl")
        assert code in (0, 2, 3), i


def test_sizes_above_max_floats_exit_2_naming_their_inputs(scene_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run("infer", scene_path, "--set", "channels=400", "--out", out) == 2
    assert ("channels, encoder_depths, decoder_depths, decoder_layers and state_size must give"
            in capsys.readouterr().err)
    assert run("bench", "--lengths", "8,64", "--d-inner", 1024, "--state", 1024,
               "--out", out) == 2
    assert "--batch, --lengths, --d-inner and --state must give" in capsys.readouterr().err
    # 1100 points scan as a 1024-token chunk and a tail: at channels=64
    # (D = 128) and state_size=65 the chunk's term pair is 2*1024*128*65
    # floats, just above MAX_FLOATS, while the bundle is well below it.
    scene = tmp_path / "scene.sfsc"
    assert run("synth", "--points", 1100, "--movers", 0, "--seed", 4, "--out", scene) == 0
    capsys.readouterr()
    assert run("infer", scene, "--set", "channels=64", "--set", "state_size=65",
               "--out", out) == 2
    assert ("channels, state_size and block_size must give a scan workspace of at most "
            "16777216 floats, got 17039360" in capsys.readouterr().err)
    assert not out.exists()
