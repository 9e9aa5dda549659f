import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sfkit import cli
from sfkit import metrics
from sfkit import pointcloud as pc
from sfkit.cli import main
from sfkit.errors import InvalidConfig
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


@pytest.mark.parametrize("argv", [
    ("infer", "{scene}", "--out", "{dir}"),
    ("infer", "{scene}", "--out", "{flow}", "--csv", "{dir}"),
    ("infer", "{scene}", "--out", "{flow}", "--dump-features", "{dir}"),
    ("synth", "--out", "{dir}"),
    ("infer", "{dir}"),
    ("eval", "{scene}", "{flow}", "--out", "{dir}"),
])
def test_a_directory_where_a_file_belongs_exits_2(scene_path, tmp_path, argv, capsys):
    flow, folder = tmp_path / "f.sffl", tmp_path / "folder"
    folder.mkdir()
    assert run("infer", scene_path, "--out", flow) == 0
    capsys.readouterr()
    paths = {"scene": scene_path, "flow": flow, "dir": folder}
    assert run(*(arg.format(**paths) for arg in argv)) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("bad_flag", ["--out", "--csv", "--dump-features"])
@pytest.mark.parametrize("bad_path", ["folder", "missing/x"])
def test_infer_that_fails_over_an_output_path_leaves_no_file(scene_path, tmp_path, bad_flag,
                                                             bad_path, capsys):
    (tmp_path / "folder").mkdir()
    paths = {"--out": tmp_path / "f.sffl", "--csv": tmp_path / "f.csv",
             "--dump-features": tmp_path / "dump.csv", "--save-weights": tmp_path / "w.sfwt"}
    paths[bad_flag] = tmp_path / bad_path
    before = sorted(tmp_path.iterdir())
    argv = [arg for flag, path in paths.items() for arg in (flag, path)]
    assert run("infer", scene_path, *argv) == 2
    assert capsys.readouterr().err.startswith("error: [Errno")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("second", ["--csv", "--save-weights"])
def test_infer_that_names_one_file_twice_exits_2_before_inference(scene_path, tmp_path, second,
                                                                  monkeypatch, capsys):
    (tmp_path / "sub").mkdir()
    monkeypatch.setattr(cli, "infer_flow", lambda *a, **k: pytest.fail("inference ran"))
    before = sorted(tmp_path.iterdir())
    # The second spelling resolves to the first.
    assert run("infer", scene_path, "--out", tmp_path / "x",
               second, tmp_path / "sub" / ".." / "x") == 2
    assert "named by two outputs" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ("--out", "{scene}"),
    ("--out", "{tmp}/sub/../scene.sfsc"),
    ("--csv", "{config}", "--config", "{config}"),
    ("--save-weights", "{weights}", "--weights", "{weights}"),
    ("--dump-features", "{weights}", "--weights", "{weights}"),
], ids=["out-scene", "out-scene-respelled", "csv-config", "save-weights", "dump-weights"])
def test_infer_refuses_an_output_that_is_an_input_before_any_work(scene_path, tmp_path, argv,
                                                                  monkeypatch, capsys):
    (tmp_path / "sub").mkdir()
    config, weights = tmp_path / "run.json", tmp_path / "w.sfwt"
    config.write_text("{}")
    assert run("infer", scene_path, "--out", tmp_path / "f.sffl", "--save-weights", weights) == 0
    monkeypatch.setattr(cli.pc, "load_scene", lambda *a: pytest.fail("the scene was read"))
    before = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    paths = {"scene": scene_path, "config": config, "weights": weights, "tmp": tmp_path}
    assert run("infer", scene_path, *(arg.format(**paths) for arg in argv)) == 2
    assert "is also an input" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before


@pytest.mark.parametrize("target", ["flow", "scene", "config"])
def test_eval_refuses_an_output_that_is_an_input_before_any_work(scene_path, tmp_path, target,
                                                                 monkeypatch, capsys):
    paths = {"scene": scene_path, "flow": tmp_path / "f.sffl", "config": tmp_path / "run.json"}
    paths["config"].write_text("{}")
    assert run("infer", scene_path, "--out", paths["flow"]) == 0
    monkeypatch.setattr(cli.pc, "load_scene", lambda *a: pytest.fail("the scene was read"))
    before = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    assert run("eval", scene_path, paths["flow"], "--config", paths["config"],
               "--out", paths[target]) == 2
    assert "is also an input" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before


# Config keys that no code reads, each with a value it once took.
UNREAD_KEYS = {"decode_frame": "t", "block_size": 64, "zoh_mode": "exact", "dilation": "literal",
               "threads": 1}


@pytest.mark.parametrize("argv,key", [
    (("selftest", "--config", "{config}"), None),
    (("selftest", "--seed", 9, "--out", "{tmp}/nowhere"), None),
    (("infer", "{scene}", "--seed", 1, "--out", "{tmp}/f.sffl"), None),
    (("eval", "{scene}", "{flow}", "--seed", 1), None),
    *((("infer", "{scene}", "--set", f"{key}={json.dumps(value)}", "--out", "{tmp}/f.sffl"), key)
      for key, value in UNREAD_KEYS.items()),
    *((("infer", "{scene}", "--config", "{config}", "--out", "{tmp}/f.sffl"), key)
      for key in UNREAD_KEYS),
], ids=["selftest-config", "selftest-seed-out", "infer-seed", "eval-seed",
        "set-decode-frame", "set-block-size", "set-zoh-mode", "set-dilation", "set-threads",
        "config-decode-frame", "config-block-size", "config-zoh-mode", "config-dilation",
        "config-threads"])
def test_settings_that_nothing_reads_exit_2(scene_path, tmp_path, argv, key, capsys):
    flow, config = tmp_path / "flow.sffl", tmp_path / "run.json"
    config.write_text(json.dumps({key: UNREAD_KEYS[key]} if key else {}))
    assert run("infer", scene_path, "--out", flow) == 0
    capsys.readouterr()
    paths = {"scene": scene_path, "flow": flow, "config": config, "tmp": tmp_path}
    assert run_or_usage_error(*(str(arg).format(**paths) for arg in argv)) == 2
    err = capsys.readouterr().err
    assert (f"unknown config keys: ['{key}']" if key else "unrecognized arguments") in err
    assert not (tmp_path / "f.sffl").exists()


@pytest.mark.parametrize("argv", [
    ("eval", "{scene}", "{flow}", "--out", "{tmp}/r.csv"),
    ("synth", "--out", "{tmp}/s.sfsc", "--ply", "{tmp}/p.ply"),
], ids=["eval", "synth"])
def test_eval_and_synth_that_fail_over_their_second_output_leave_no_file(scene_path, tmp_path,
                                                                         argv, capsys):
    flow = tmp_path / "f.sffl"
    assert run("infer", scene_path, "--out", flow) == 0
    (tmp_path / "r_loss.csv").mkdir()
    (tmp_path / "p.ply").mkdir()
    before = sorted(tmp_path.iterdir())
    paths = {"scene": scene_path, "flow": flow, "tmp": tmp_path}
    assert run(*(arg.format(**paths) for arg in argv)) == 2
    assert capsys.readouterr().err.startswith("error: [Errno")
    assert sorted(tmp_path.iterdir()) == before


def test_bench_refuses_its_output_path_before_timing(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.ssm, "scan_sequential", lambda *a, **k: pytest.fail("timing ran"))
    assert run("bench", "--lengths", "32", "--out", tmp_path / "missing" / "b.csv") == 2
    assert list(tmp_path.iterdir()) == []


def test_infer_that_fails_writing_its_last_output_leaves_no_file(scene_path, tmp_path,
                                                                 monkeypatch):
    def full_disk(tensor, path):
        Path(path).write_text("t,ix")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_dump_backbone_csv", full_disk)
    old = tmp_path / "f.sffl"
    old.write_bytes(b"earlier flow")
    before = sorted(tmp_path.iterdir())
    assert run("infer", scene_path, "--out", old, "--csv", tmp_path / "f.csv",
               "--dump-features", tmp_path / "dump.csv") == 2
    assert sorted(tmp_path.iterdir()) == before
    assert old.read_bytes() == b"earlier flow"


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
    from sfkit.weights import load_weight_dict, save_weight_dict

    wpath = tmp_path / "literal.sfwt"
    assert run("infer", scene_path, "--seed-weights", 1, "--out", tmp_path / "f.sffl",
               "--save-weights", wpath) == 0
    flat = load_weight_dict(wpath)
    flat["backbone.encoder.0.0.conv_cross.dilation_t"] = np.float64(1.0)  # {t-1, t, t+1}
    save_weight_dict(flat, wpath)
    assert run("infer", scene_path, "--weights", wpath, "--out", tmp_path / "g.sffl") == 2
    assert "'backbone.encoder.0.0.conv_cross.dilation_t' holds 1.0" in capsys.readouterr().err


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
    err = capsys.readouterr().err
    assert "bn_var must be >= 0, got -65536.0" in err
    assert err.startswith("error: backbone.encoder.0.0.sfsm_temporal: ")  # the section prefix
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
    assert {(r[2], r[3]) for r in body} == {("32", "16")}  # RunConfig(): 2 * 16 channels, S 16


def test_bench_stdout_is_the_csv_alone(capsys):
    assert run("bench", "--lengths", "0,64", "--min-time", "0.01") == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("impl,L,D_inner,S,tokens_per_second\n")
    assert captured.err == "skipping L=0 (nothing to scan)\n"


def test_bench_times_the_run_configs_scan_layer(tmp_path):
    out = tmp_path / "bench.csv"
    assert run("bench", "--lengths", "32", "--min-time", "0.01", "--set", "channels=8",
               "--set", "state_size=4", "--out", out) == 0
    body = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[:4] for r in body] == [["sequential", "32", "16", "4"], ["blocked", "32", "16", "4"]]


def test_bench_scan_divergence_exits_3_before_writing(tmp_path, monkeypatch, capsys):
    scan_blocked = cli.ssm.scan_blocked

    def off_by_one(*args, **kwargs):
        y, h = scan_blocked(*args, **kwargs)
        return y + 1.0, h

    monkeypatch.setattr(cli.ssm, "scan_blocked", off_by_one)
    out = tmp_path / "bench.csv"
    assert run("bench", "--lengths", "32", "--min-time", "0.01", "--out", out) == 3
    assert "numeric error: scan outputs diverged by 1 at L=32" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_selftest_refuses_to_run_with_asserts_off():
    env = os.environ | {"PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-m", "sfkit", "selftest", "--filter", "loss"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "run it without -O" in proc.stderr


def test_out_of_memory_exits_2_and_leaves_no_file(scene_path, tmp_path, monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 96.0 GiB")

    monkeypatch.setattr(cli, "infer_flow", out_of_memory)
    before = sorted(tmp_path.iterdir())
    assert run("infer", scene_path, "--out", tmp_path / "f.sffl") == 2
    assert "error: out of memory: Unable to allocate 96.0 GiB" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


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


def test_selftest_filter_that_matches_no_check_exits_2(capsys):
    assert run("selftest", "--filter", "ssm.stram") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no selftest check matches 'ssm.stram'\n"


def test_selftest_checks_upsample(capsys):
    assert run("selftest", "--filter", "upsample") == 0
    assert capsys.readouterr().out.splitlines() == ["stdcb.upsample: ok"]


def test_config_file_and_flag_overrides(scene_path, tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"decoder_layers": 2, "k_bins": 50}))
    flow = tmp_path / "f.sffl"
    assert run("infer", scene_path, "--config", cfg_path, "--out", flow,
               "--set", "decoder_layers=3") == 0
    # --set wins over the file; a bad merged config must fail cleanly
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"unknown_key": 1}))
    assert run("infer", scene_path, "--config", bad_cfg) == 2


def test_set_overrides_any_config_key(scene_path, tmp_path):
    flow = tmp_path / "f.sffl"
    assert run("infer", scene_path, "--out", flow,
               "--set", "channels=8", "--set", "encoder_depths=[1]",
               "--set", "decoder_depths=[]", "--set", "state_size=4") == 0
    assert run("infer", scene_path, "--set", "bogus_key=1") == 2
    assert run("infer", scene_path, "--set", "no_equals_sign") == 2


@pytest.mark.parametrize("flag,value", [
    ("--lengths", "-5"), ("--lengths", "abc"), ("--lengths", "8,x"),
    ("--batch", "0"), ("--set", "channels=0"), ("--set", "state_size=0"),
    ("--set", "state_size=-2"),
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


def test_eval_iou_uses_the_configs_dynamic_threshold(tmp_path, capsys):
    scene, flow = tmp_path / "s.sfsc", tmp_path / "f.sffl"
    threshold = ("--set", "dynamic_threshold=0.15")
    assert run("synth", "--points", 300, "--movers", 1, "--mover-points", 40, "--seed", 11,
               *threshold, "--out", scene) == 0
    assert run("infer", scene, *threshold, "--out", flow) == 0
    capsys.readouterr()
    assert run("eval", scene, flow, *threshold) == 0
    printed = capsys.readouterr().out
    pred, gt = pc.load_flow(flow), pc.load_scene(scene).gt_flow
    expect = metrics.dynamic_iou(pred, gt, 0.15)
    assert expect != metrics.dynamic_iou(pred, gt, metrics.DEFAULT_IOU_THRESHOLD)
    assert f"dynamic IoU  {expect:.4f}" in printed


@pytest.mark.parametrize("flag,value,rule", [
    ("--jitter", "nan", "jitter_sigma must be"), ("--jitter", "inf", "jitter_sigma must be"),
    ("--jitter", "-0.1", "jitter_sigma must be"), ("--movers", "-1", "n_movers must be"),
    ("--ego-speed", "nan", "--ego-speed must be a finite number"),
    ("--ego-speed", "1e200", "synthesized frame 0 row 0 is outside the f32 range of SFSC files"),
    ("--jitter", "1e200", "synthesized frame 0 row 0 is outside the f32 range of SFSC files"),
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
    ("eval", "k_bins=2.5"),
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
    # The flag sweep's values too, and 5e-324: as cell_size it divides every
    # coordinate of the scene to an infinite voxel coordinate.
    for key in CONFIG_RULES:
        for value in dict.fromkeys((*BAD_JSON_VALUES, *SWEPT_VALUES, "5e-324")):
            code = run("infer", scene, "--out", tmp_path / "f.sffl", "--set", f"{key}={value}")
            err = capsys.readouterr().err
            assert code in (0, 2), (key, value, code, err)
            if code == 2:
                assert f"{key} must be" in err, (key, value, err)


def test_no_flag_sets_a_run_config_key():
    # A run-config key is set through --config or --set only, so that
    # CONFIG_RULES is its one parser and its one error message.
    parser = cli.build_parser()
    (commands,) = (a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
    flagged = [(name, action.option_strings) for name, sub in commands.items()
               for action in sub._actions if action.dest in RunConfig.__dataclass_fields__]
    assert flagged == []


def test_readme_rule_table_names_every_rule():
    # The README's input-rule table names each key of CONFIG_RULES and
    # INPUT_RULES, a flag as "<command> --flag" and any other key as
    # itself, and names no key that no rule holds.
    from sfkit.errors import CONFIG_RULES, INPUT_RULES

    parser = cli.build_parser()
    (commands,) = (a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme[readme.index("| input | rule |"):]
    rows = table[:table.index("\n\n")].splitlines()[2:]
    flags, bare = set(), set()
    for row in rows:
        for name in re.findall(r"`([^`]+)`", row.split("|")[1]):
            command, _, flag = name.partition(" ")
            if command in commands:
                flags.add(flag)
            else:
                bare.add(name)
    rules = CONFIG_RULES.keys() | INPUT_RULES.keys()
    assert sorted(rules - flags - bare) == [], "rules with no row"
    assert sorted(bare - rules) == [], "rows with no rule"


def run_or_usage_error(*argv):
    """``run``, with argparse's own usage error read as its exit code 2."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


# Each swept flag and the rule its value is checked by.
SWEPT_FLAGS = {
    "synth": {"--points": "n_background", "--movers": "n_movers",
              "--mover-points": "mover n_points", "--jitter": "jitter_sigma",
              "--ego-speed": "--ego-speed", "--seed": "--seed"},
    "infer": {"--seed-weights": "--seed-weights"},
    "bench": {"--lengths": "--lengths", "--batch": "--batch", "--min-time": "--min-time",
              "--seed": "--seed"},
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
    assert run("bench", "--lengths", "8,1024", "--set", "state_size=1024", "--out", out) == 2
    assert ("--batch, --lengths, channels and state_size must give at most 16777216 scan "
            "terms (batch*L*2*channels*state_size), got 67108864" in capsys.readouterr().err)
    # 1100 points scan as a 1024-token chunk and a tail: at channels=64
    # (D = 128) and state_size=65 the chunk's term pair is 2*1024*128*65
    # floats, just above MAX_FLOATS, while the bundle is well below it.
    scene = tmp_path / "scene.sfsc"
    assert run("synth", "--points", 1100, "--movers", 0, "--seed", 4, "--out", scene) == 0
    capsys.readouterr()
    assert run("infer", scene, "--set", "channels=64", "--set", "state_size=65",
               "--out", out) == 2
    assert ("channels and state_size must give a scan workspace of at most "
            "16777216 floats, got 17039360" in capsys.readouterr().err)
    assert not out.exists()


def test_infer_flow_refuses_the_scan_workspace_before_voxelizing(monkeypatch):
    import sfkit.pipeline as pipeline

    def voxelize(*args):
        raise AssertionError("voxelize ran before the scan workspace was checked")

    monkeypatch.setattr(pipeline, "voxelize", voxelize)
    # The 1100-point case above: a workspace of 17039360 floats.
    scene = pc.synth_scene(pc.SceneConfig(n_background=1100, movers=()), 4)
    config = RunConfig(channels=64, state_size=65)
    with pytest.raises(InvalidConfig, match="got 17039360 for 1100 tokens"):
        pipeline.infer_flow(scene, init_pipeline_weights(config, 4), config)


def test_cli_pins_blas_to_one_thread_unless_the_user_set_it():
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    script = ("import os\nimport sfkit.cli\n"
              f"print(','.join(os.environ[name] for name in {names!r}))")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])

    def pinned(**preset):
        proc = subprocess.run([sys.executable, "-c", script], env=env | preset,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    assert pinned() == "1,1,1"
    assert pinned(OPENBLAS_NUM_THREADS="3") == "3,1,1"
