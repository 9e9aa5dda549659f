import struct
import warnings

import numpy as np
import pytest

from sfkit import pointcloud as pc
from sfkit.errors import FormatError, InvalidConfig, InvalidInput, NumericError, RangeError


def basic_config(**overrides):
    defaults = dict(
        n_background=200,
        movers=(
            pc.MoverSpec(center=(2.0, 1.0, 0.0), extents=(1.0, 1.0, 0.5),
                         velocity=(2.0, 0.0, 0.0), n_points=40),
        ),
    )
    defaults.update(overrides)
    return pc.SceneConfig(**defaults)


# --- warping -----------------------------------------------------------------


def test_warp_identity():
    cloud = pc.PointCloud([[1.0, 2.0, 3.0], [-1.0, 0.5, 0.0]])
    assert pc.warp_to_frame(cloud, pc.Pose.identity()) == cloud


def test_warp_pure_translation():
    pose = pc.Pose.from_rt(np.eye(3), (1.0, 0.0, 0.0))
    out = pc.warp_to_frame(pc.PointCloud([[0.0, 0.0, 0.0]]), pose)
    assert np.array_equal(out.points, [[1.0, 0.0, 0.0]])


def test_warp_rotation_about_z():
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    out = pc.warp_to_frame(pc.PointCloud([[1.0, 0.0, 0.0]]), pc.Pose.from_rt(rot, (0, 0, 0)))
    assert np.allclose(out.points, [[0.0, 1.0, 0.0]], atol=1e-12)


def test_warp_rejects_non_finite_points():
    with pytest.raises(InvalidInput):
        pc.PointCloud([[np.nan, 0.0, 0.0]])


def test_warp_is_isometry():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(50, 3))
    theta = 0.7
    rot = np.array(
        [[np.cos(theta), -np.sin(theta), 0.0],
         [np.sin(theta), np.cos(theta), 0.0],
         [0.0, 0.0, 1.0]]
    )
    pose = pc.Pose.from_rt(rot, (0.3, -1.2, 2.0))
    warped = pc.warp_to_frame(pc.PointCloud(pts), pose).points
    d_before = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
    d_after = np.linalg.norm(warped[:, None] - warped[None], axis=-1)
    scale = np.maximum(d_before, 1e-300)
    assert np.max(np.abs(d_after - d_before) / scale) < 1e-9


def test_warp_then_inverse_restores_cloud():
    rng = np.random.default_rng(1)
    cloud = pc.PointCloud(rng.normal(size=(40, 3)))
    theta = -1.1
    rot = np.array(
        [[np.cos(theta), 0.0, np.sin(theta)],
         [0.0, 1.0, 0.0],
         [-np.sin(theta), 0.0, np.cos(theta)]]
    )
    pose = pc.Pose.from_rt(rot, (5.0, 0.1, -2.0))
    back = pc.warp_to_frame(pc.warp_to_frame(cloud, pose), pose.inverse())
    assert np.allclose(back.points, cloud.points, atol=1e-9)


def test_pose_validation():
    bad = np.eye(4)
    bad[3, 0] = 0.5
    with pytest.raises(InvalidInput):
        pc.Pose(bad)
    skewed = np.eye(4)
    skewed[0, 1] = 0.01  # rotation block no longer orthonormal
    with pytest.raises(InvalidInput):
        pc.Pose(skewed)


# --- synthetic scenes ----------------------------------------------------------


def test_static_world_has_zero_flow():
    scene = pc.synth_scene(basic_config(movers=()), seed=0)
    assert np.all(scene.gt_flow.vectors == 0.0)
    assert np.all(scene.mask == pc.MotionClass.BACKGROUND_STATIC)


def test_mover_flow_is_velocity_times_dt():
    scene = pc.synth_scene(basic_config(), seed=1)
    mover_rows = scene.gt_flow.vectors[200:]
    assert np.allclose(mover_rows, [0.2, 0.0, 0.0], atol=1e-7)
    assert np.all(scene.mask[200:] == pc.MotionClass.FOREGROUND_DYNAMIC)
    assert np.all(scene.mask[:200] == pc.MotionClass.BACKGROUND_STATIC)


def test_background_flow_exactly_zero_with_ego_motion():
    cfg = basic_config(ego=pc.EgoMotion(velocity=(3.0, 0.5, 0.0), yaw_rate=0.2))
    scene = pc.synth_scene(cfg, seed=2)
    assert np.all(scene.gt_flow.vectors[:200] == 0.0)


def test_slow_mover_is_foreground_static():
    cfg = basic_config(
        movers=(
            pc.MoverSpec(center=(0, 0, 0), extents=(1, 1, 1),
                         velocity=(0.3, 0.0, 0.0), n_points=10),
        )
    )
    scene = pc.synth_scene(cfg, seed=3)
    # 0.3 m/s * 0.1 s = 0.03 m < 0.05 m threshold
    assert np.all(scene.mask[200:] == pc.MotionClass.FOREGROUND_STATIC)


def test_same_seed_is_bit_identical():
    cfg = basic_config(ego=pc.EgoMotion(velocity=(1.0, 0, 0), yaw_rate=0.1),
                       jitter_sigma=0.01)
    assert pc.synth_scene(cfg, 42) == pc.synth_scene(cfg, 42)
    assert pc.synth_scene(cfg, 42) != pc.synth_scene(cfg, 43)


def test_scene_has_five_frames_warped_to_reference():
    scene = pc.synth_scene(basic_config(), seed=4)
    assert len(scene.frames) == 5
    assert [f.frame_index for f in scene.frames] == [0, 1, 2, 3, 4]
    # static world, no ego motion: every frame's background block coincides
    for frame in scene.frames[1:]:
        assert np.allclose(frame.points[:200], scene.frames[0].points[:200], atol=1e-6)


def test_invalid_configs_rejected():
    with pytest.raises(InvalidConfig):
        pc.synth_scene(basic_config(dt=-0.1), 0)
    with pytest.raises(InvalidConfig):
        pc.synth_scene(basic_config(n_background=-5), 0)


# --- file I/O ------------------------------------------------------------------


def test_scene_roundtrip(tmp_path):
    scene = pc.synth_scene(
        basic_config(ego=pc.EgoMotion(velocity=(2.0, 0, 0), yaw_rate=0.05)), seed=7
    )
    path = tmp_path / "scene.sfsc"
    pc.save_scene(scene, path)
    assert pc.load_scene(path) == scene


def test_empty_scene_roundtrip(tmp_path):
    scene = pc.synth_scene(basic_config(n_background=0, movers=()), seed=8)
    assert len(scene.prediction_frame) == 0
    path = tmp_path / "empty.sfsc"
    pc.save_scene(scene, path)
    assert pc.load_scene(path) == scene


def test_truncated_file_raises_format_error(tmp_path):
    scene = pc.synth_scene(basic_config(), seed=9)
    path = tmp_path / "scene.sfsc"
    pc.save_scene(scene, path)
    blob = path.read_bytes()
    truncated = tmp_path / "broken.sfsc"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError) as err:
        pc.load_scene(truncated)
    assert err.value.offset <= len(blob) // 2


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "bad.sfsc"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(FormatError) as err:
        pc.load_scene(path)
    assert err.value.offset == 0

    scene = pc.synth_scene(basic_config(n_background=1, movers=()), seed=0)
    good = tmp_path / "good.sfsc"
    pc.save_scene(scene, good)
    blob = bytearray(good.read_bytes())
    blob[4] = 99  # version field
    bad_version = tmp_path / "badver.sfsc"
    bad_version.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        pc.load_scene(bad_version)
    assert err.value.offset == 4


def test_flow_roundtrip(tmp_path):
    vectors = np.array([[0.25, -0.5, 1.0], [0.0, 0.0, 0.0]], dtype=np.float32)
    flow = pc.FlowField(vectors.astype(np.float64))
    path = tmp_path / "flow.sffl"
    pc.save_flow(flow, path)
    assert pc.load_flow(path) == flow


def _tiny_scene():
    """3 background points and one 2-point mover: a 437-byte SFSC file."""
    mover = pc.MoverSpec(center=(1.0, 0.0, 0.0), extents=(0.5, 0.5, 0.5),
                         velocity=(1.0, 0.0, 0.0), n_points=2)
    return pc.synth_scene(basic_config(n_background=3, movers=(mover,)), seed=4)


def _tiny_file(tmp_path, save):
    """The tiny scene saved by save_scene, or its flow by save_flow: path and bytes."""
    scene = _tiny_scene()
    path = tmp_path / "good"
    save(scene if save is pc.save_scene else scene.gt_flow, path)
    return path, path.read_bytes()


@pytest.mark.parametrize("save, load", [
    (pc.save_scene, pc.load_scene), (pc.save_flow, pc.load_flow),
], ids=["sfsc", "sffl"])
def test_every_truncation_byte_flip_and_appended_byte(tmp_path, save, load):
    # Each variant is refused, or loads to an object that saves back to its bytes.
    _, blob = _tiny_file(tmp_path, save)
    variants = [blob[:n] for n in range(len(blob))]
    variants += [blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:] for i in range(len(blob))]
    variants.append(blob + b"\0")
    broken, resaved = tmp_path / "broken", tmp_path / "resaved"
    for variant in variants:
        broken.write_bytes(variant)
        try:
            loaded = load(broken)
        except (FormatError, InvalidInput):
            continue
        save(loaded, resaved)
        assert resaved.read_bytes() == variant


@pytest.mark.parametrize("save, load, kind", [
    (pc.save_scene, pc.load_scene, "scene file"), (pc.save_flow, pc.load_flow, "flow file"),
], ids=["sfsc", "sffl"])
def test_a_byte_after_the_body_raises_at_the_original_length(tmp_path, save, load, kind):
    path, blob = _tiny_file(tmp_path, save)
    path.write_bytes(blob + b"\0")
    with pytest.raises(FormatError, match=f"after the end of the {kind}") as err:
        load(path)
    assert err.value.offset == len(blob)


def _scene_count_offsets(scene):
    """Byte offsets of an SFSC file's flow count and mask count."""
    flow = 8 + sum(8 + 12 * len(frame) for frame in scene.frames)
    return flow, flow + 8 + 12 * len(scene.gt_flow)


@pytest.mark.parametrize("defect", ["flow_count", "mask_count", "mask_code"])
def test_scene_count_and_mask_defects_raise_at_their_offset(tmp_path, defect):
    scene = _tiny_scene()
    path = tmp_path / "scene.sfsc"
    pc.save_scene(scene, path)
    blob = bytearray(path.read_bytes())
    flow_at, mask_at = _scene_count_offsets(scene)
    n = len(scene.prediction_frame)
    if defect == "flow_count":
        struct.pack_into("<Q", blob, flow_at, n + 1)
        match, offset = "flow count 6 != prediction frame count 5", flow_at
    elif defect == "mask_count":
        struct.pack_into("<Q", blob, mask_at, n - 1)
        match, offset = "mask count 4 != flow count 5", mask_at
    else:
        blob[mask_at + 8 + n - 1] = 3  # the last mask code
        match, offset = "mask code outside 0..2", mask_at + 8
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=match) as err:
        pc.load_scene(path)
    assert err.value.offset == offset


def test_ply_export(tmp_path):
    scene = pc.synth_scene(basic_config(n_background=3, movers=()), seed=1)
    path = tmp_path / "frame.ply"
    pc.export_ply(scene.prediction_frame, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "ply"
    assert "element vertex 3" in lines[2]
    assert len(lines) == 7 + 3  # 7 header lines + 3 points


def test_mover_spec_sampling_deterministic():
    a = pc.sample_mover_specs(3, seed=5)
    b = pc.sample_mover_specs(3, seed=5)
    assert a == b
    assert a != pc.sample_mover_specs(3, seed=6)


def test_flow_outside_f32_refused_before_writing(tmp_path):
    flow = pc.FlowField([[0.0, 0.0, 0.0], [1.0, 1e200, 0.0]])
    path = tmp_path / "flow.sffl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as err:
            pc.save_flow(flow, path)
    assert err.value.index == 1
    assert not path.exists()


def test_scene_outside_f32_refused_before_writing(tmp_path):
    scene = pc.synth_scene(basic_config(n_background=5, movers=()), seed=3)
    points = scene.frames[2].points.copy()
    points[4, 0] = -1e200
    frames = list(scene.frames)
    frames[2] = pc.PointCloud(points, 2)
    far = pc.SceneSequence(frames, scene.gt_flow, scene.mask, scene.seed)
    path = tmp_path / "scene.sfsc"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match="frame 2 row 4"):
            pc.save_scene(far, path)
        gt = scene.gt_flow.vectors.copy()
        gt[3, 2] = 1e39  # beyond the largest f32, rounds to inf
        bad_gt = pc.SceneSequence(scene.frames, pc.FlowField(gt), scene.mask, scene.seed)
        with pytest.raises(RangeError, match="flow row 3"):
            pc.save_scene(bad_gt, path)
    assert not path.exists()


@pytest.mark.parametrize("setting", [
    {"ego": pc.EgoMotion(velocity=(1e200, 0.0, 0.0))}, {"jitter_sigma": 1e200},
], ids=["ego-speed", "jitter"])
def test_synth_scene_outside_f32_raises_range_error(setting):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match="synthesized frame 0 row 0 is outside the f32 "
                                             "range of SFSC files"):
            pc.synth_scene(basic_config(**setting), seed=3)
