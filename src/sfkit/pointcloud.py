"""Point-cloud data model, rigid warping, synthetic scenes, and scene file I/O.

A scene is five consecutive frames already warped into the last frame's
coordinate system, plus ground-truth flow and a motion-class mask for the
fourth frame (the prediction frame).  The synthetic generator builds such
scenes from rigid box movers over a static background with a configurable
ego trajectory, so the ground truth is known analytically.
"""

import struct
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import FormatError, InvalidConfig, InvalidInput, NumericError, RangeError, check_config

N_FRAMES = 5
# Frame slots 0..4 cover five consecutive sweeps; slot 3 is the prediction
# frame ("t") and slot 4 the warp target ("t+1").
FRAME_T = 3
FRAME_T1 = 4

# Displacement (m per frame pair) above which a mover point counts as dynamic.
DEFAULT_DYNAMIC_THRESHOLD = 0.05
DEFAULT_DT = 0.1

SCENE_MAGIC = b"SFSC"
SCENE_VERSION = 1
FLOW_MAGIC = b"SFFL"
FLOW_VERSION = 1


class MotionClass(IntEnum):
    FOREGROUND_DYNAMIC = 0
    BACKGROUND_STATIC = 1
    FOREGROUND_STATIC = 2


def _as_finite_xyz(values, what):
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise InvalidInput(f"{what} must be (N, 3), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{what} contains non-finite values")
    arr.setflags(write=False)
    return arr


class Pose:
    """Rigid transform stored as a 4x4 row-major homogeneous matrix."""

    def __init__(self, matrix):
        m = np.array(matrix, dtype=np.float64)
        if m.shape != (4, 4):
            raise InvalidInput(f"pose must be 4x4, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidInput("pose contains non-finite values")
        if not np.allclose(m[3], (0.0, 0.0, 0.0, 1.0), atol=1e-9):
            raise InvalidInput("pose last row must be (0, 0, 0, 1)")
        r = m[:3, :3]
        if not np.allclose(r @ r.T, np.eye(3), atol=1e-9):
            raise InvalidInput("pose rotation block is not orthonormal within 1e-9")
        m.setflags(write=False)
        self.matrix = m

    @classmethod
    def identity(cls):
        return cls(np.eye(4))

    @classmethod
    def from_rt(cls, rotation, translation):
        m = np.eye(4)
        m[:3, :3] = rotation
        m[:3, 3] = translation
        return cls(m)

    @property
    def rotation(self):
        return self.matrix[:3, :3]

    @property
    def translation(self):
        return self.matrix[:3, 3]

    def inverse(self):
        r, t = self.rotation, self.translation
        return Pose.from_rt(r.T, -r.T @ t)

    def compose(self, other):
        """Pose equal to applying ``other`` first, then self."""
        return Pose(self.matrix @ other.matrix)

    def apply(self, points):
        points = np.asarray(points, dtype=np.float64)
        return points @ self.rotation.T + self.translation

    def __eq__(self, other):
        return isinstance(other, Pose) and np.array_equal(self.matrix, other.matrix)


class PointCloud:
    """Ordered (N, 3) point set; point identity is positional."""

    def __init__(self, points, frame_index=0):
        self.points = _as_finite_xyz(points, "points")
        if not 0 <= int(frame_index) < N_FRAMES:
            raise InvalidInput(f"frame_index must be in 0..{N_FRAMES - 1}")
        self.frame_index = int(frame_index)

    def __len__(self):
        return self.points.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, PointCloud)
            and self.frame_index == other.frame_index
            and np.array_equal(self.points, other.points)
        )

    def __repr__(self):
        return f"PointCloud(n={len(self)}, frame={self.frame_index})"


class FlowField:
    """Per-point 3D motion vectors aligned 1:1 with a PointCloud."""

    def __init__(self, vectors):
        self.vectors = _as_finite_xyz(vectors, "flow vectors")

    def __len__(self):
        return self.vectors.shape[0]

    def magnitudes(self):
        return np.linalg.norm(self.vectors, axis=1)

    def __eq__(self, other):
        return isinstance(other, FlowField) and np.array_equal(
            self.vectors, other.vectors
        )


class SceneSequence:
    """Five warped frames + ground truth for the prediction frame.

    ``poses`` (the warping transforms) are kept for provenance when the scene
    was generated in-process; they are not part of the file format and are
    excluded from equality.
    """

    def __init__(self, frames, gt_flow, mask, seed, poses=None):
        frames = list(frames)
        if len(frames) != N_FRAMES:
            raise InvalidInput(f"expected {N_FRAMES} frames, got {len(frames)}")
        mask = np.array(mask, dtype=np.uint8)
        if mask.ndim != 1 or len(mask) != len(frames[FRAME_T]):
            raise InvalidInput("mask length must equal the prediction frame's count")
        if mask.size and mask.max() > 2:
            raise InvalidInput("mask codes must be 0, 1 or 2")
        if len(gt_flow) != len(frames[FRAME_T]):
            raise InvalidInput("gt flow length must equal the prediction frame's count")
        mask.setflags(write=False)
        self.frames = frames
        self.gt_flow = gt_flow
        self.mask = mask
        self.seed = int(seed)
        self.poses = poses

    @property
    def prediction_frame(self):
        return self.frames[FRAME_T]

    def __eq__(self, other):
        return (
            isinstance(other, SceneSequence)
            and self.frames == other.frames
            and self.gt_flow == other.gt_flow
            and np.array_equal(self.mask, other.mask)
            and self.seed == other.seed
        )


def warp_to_frame(cloud, pose):
    """Apply a rigid transform to every point; order is preserved."""
    return PointCloud(pose.apply(cloud.points), frame_index=cloud.frame_index)


# ---------------------------------------------------------------------------
# Synthetic scene generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MoverSpec:
    """Axis-aligned box of points translating at constant velocity."""

    center: tuple
    extents: tuple
    velocity: tuple
    n_points: int = 200
    object_class: int = 0  # metrics.ObjectClass code; 0 == CAR


@dataclass(frozen=True)
class EgoMotion:
    """Constant-twist ego trajectory: linear velocity plus yaw rate."""

    velocity: tuple = (0.0, 0.0, 0.0)
    yaw_rate: float = 0.0
    start: tuple = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class SceneConfig:
    n_background: int = 2000
    movers: tuple = ()
    dt: float = DEFAULT_DT
    bounds_lo: tuple = (-10.0, -10.0, -3.0)
    bounds_hi: tuple = (10.0, 10.0, 3.0)
    ego: EgoMotion = field(default_factory=EgoMotion)
    jitter_sigma: float = 0.0
    dynamic_threshold: float = DEFAULT_DYNAMIC_THRESHOLD
    n_frames: int = N_FRAMES

    def validate(self):
        if self.n_frames != N_FRAMES:
            raise InvalidConfig(
                f"scene must have exactly {N_FRAMES} frames, got {self.n_frames}"
            )
        check_config(self, "dt", "dynamic_threshold")
        if self.n_background < 0:
            raise InvalidConfig("n_background must be >= 0")
        if self.jitter_sigma < 0.0:
            raise InvalidConfig("jitter_sigma must be >= 0")
        if np.any(np.asarray(self.bounds_hi) <= np.asarray(self.bounds_lo)):
            raise InvalidConfig("bounds_hi must exceed bounds_lo per axis")
        for m in self.movers:
            if m.n_points <= 0:
                raise InvalidConfig("mover n_points must be positive")
            if np.any(np.asarray(m.extents) <= 0):
                raise InvalidConfig("mover extents must be positive")


def _yaw_matrix(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _ego_pose(ego, time):
    """Ego-to-world pose at an absolute scene time."""
    rot = _yaw_matrix(ego.yaw_rate * time)
    trans = np.asarray(ego.start, dtype=np.float64) + np.asarray(
        ego.velocity, dtype=np.float64
    ) * time
    return Pose.from_rt(rot, trans)


def _f32_round(arr):
    # Stored precision is float32; quantizing here makes save/load bit-exact.
    return np.asarray(arr, dtype=np.float32).astype(np.float64)


def synth_scene(config, seed):
    """Generate a five-frame scene with analytically known ground truth.

    World model: static background points plus rigid movers drifting at
    constant velocity.  Each frame is observed from the ego pose at its
    timestamp, then warped into the last frame's coordinates using the exact
    relative poses.  Ground-truth flow for the prediction frame is the mover
    displacement over one frame interval expressed in the reference frame;
    background flow is exactly zero.
    """
    config.validate()
    rng = np.random.default_rng(seed)

    lo = np.asarray(config.bounds_lo, dtype=np.float64)
    hi = np.asarray(config.bounds_hi, dtype=np.float64)
    background = rng.uniform(lo, hi, size=(config.n_background, 3))

    mover_bases = []
    for m in config.movers:
        half = np.asarray(m.extents, dtype=np.float64) / 2.0
        center = np.asarray(m.center, dtype=np.float64)
        mover_bases.append(rng.uniform(center - half, center + half, (m.n_points, 3)))

    times = np.arange(N_FRAMES) * config.dt
    ref_pose = _ego_pose(config.ego, times[FRAME_T1])
    ref_rot = ref_pose.rotation

    frames, poses = [], []
    for i in range(N_FRAMES):
        # World positions at this timestamp: movers drift relative to the
        # prediction frame where their sampled bases live.
        parts = [background]
        for m, base in zip(config.movers, mover_bases):
            drift = np.asarray(m.velocity, dtype=np.float64) * (
                times[i] - times[FRAME_T]
            )
            parts.append(base + drift)
        world = np.vstack(parts) if parts else np.empty((0, 3))

        ego_pose = _ego_pose(config.ego, times[i])
        measured = ego_pose.inverse().apply(world)
        if config.jitter_sigma > 0.0:
            measured = measured + rng.normal(0.0, config.jitter_sigma, measured.shape)

        warp = ref_pose.inverse().compose(ego_pose)
        warped = warp.apply(measured)
        frames.append(PointCloud(_f32_round(warped), frame_index=i))
        poses.append(warp)

    n_t = len(frames[FRAME_T])
    flow = np.zeros((n_t, 3))
    mask = np.full(n_t, MotionClass.BACKGROUND_STATIC, dtype=np.uint8)
    row = config.n_background
    for m in config.movers:
        disp_world = np.asarray(m.velocity, dtype=np.float64) * config.dt
        disp_ref = ref_rot.T @ disp_world
        flow[row : row + m.n_points] = disp_ref
        moving = np.linalg.norm(disp_world) > config.dynamic_threshold
        mask[row : row + m.n_points] = (
            MotionClass.FOREGROUND_DYNAMIC if moving else MotionClass.FOREGROUND_STATIC
        )
        row += m.n_points

    return SceneSequence(
        frames=frames,
        gt_flow=FlowField(_f32_round(flow)),
        mask=mask,
        seed=seed,
        poses=poses,
    )


def sample_mover_specs(n_movers, seed, bounds_lo=(-8.0, -8.0, -1.0),
                       bounds_hi=(8.0, 8.0, 1.0), n_points=200):
    """Deterministically draw mover boxes and velocities for a scene seed."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 77]))
    lo, hi = np.asarray(bounds_lo), np.asarray(bounds_hi)
    movers = []
    for _ in range(n_movers):
        center = rng.uniform(lo, hi)
        extents = rng.uniform(0.6, 2.0, 3)
        speed = rng.uniform(0.3, 3.0)
        heading = rng.uniform(0.0, 2.0 * np.pi)
        velocity = (speed * np.cos(heading), speed * np.sin(heading), 0.0)
        movers.append(
            MoverSpec(
                center=tuple(center),
                extents=tuple(extents),
                velocity=velocity,
                n_points=n_points,
            )
        )
    return tuple(movers)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------


class _Reader:
    """Byte cursor that raises FormatError with the failing offset."""

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.data):
            raise FormatError(f"truncated file while reading {what}", self.pos)
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u16(self, what):
        return struct.unpack("<H", self.take(2, what))[0]

    def u64(self, what):
        return struct.unpack("<Q", self.take(8, what))[0]

    def f32_triplets(self, count, what):
        raw = self.take(12 * count, what)
        return np.frombuffer(raw, dtype="<f4").reshape(count, 3).astype(np.float64)


def _as_f32(rows):
    """(N, 3) float64 rows as little-endian f32 and the first row that
    overflows the f32 range, or None when every row fits."""
    with np.errstate(over="ignore"):
        out = rows.astype("<f4")
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    return out, int(bad[0]) if bad.size else None


def save_scene(seq, path):
    """Write a SceneSequence in the SFSC binary format (coordinates as f32).

    Raises RangeError, before the file is opened, when a coordinate or flow
    entry does not fit f32, since load_scene would reject the file.
    """
    chunks = [SCENE_MAGIC, struct.pack("<H", SCENE_VERSION), struct.pack("<H", N_FRAMES)]
    for i, frame in enumerate(seq.frames):
        raw, bad = _as_f32(frame.points)
        if bad is not None:
            raise RangeError(f"frame {i} row {bad} is outside the f32 range of SFSC files")
        chunks.append(struct.pack("<Q", len(frame)))
        chunks.append(raw.tobytes())
    raw, bad = _as_f32(seq.gt_flow.vectors)
    if bad is not None:
        raise RangeError(f"ground-truth flow row {bad} is outside the f32 range of SFSC files")
    chunks.append(struct.pack("<Q", len(seq.gt_flow)))
    chunks.append(raw.tobytes())
    chunks.append(struct.pack("<Q", len(seq.mask)))
    chunks.append(seq.mask.astype(np.uint8).tobytes())
    chunks.append(struct.pack("<Q", seq.seed))
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_scene(path):
    """Read an SFSC scene file; inverse of save_scene for f32-quantized data."""
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data)
    if r.take(4, "magic") != SCENE_MAGIC:
        raise FormatError("bad magic, not an SFSC scene file", 0)
    version = r.u16("version")
    if version != SCENE_VERSION:
        raise FormatError(f"unsupported scene format version {version}", 4)
    n_frames = r.u16("frame count")
    if n_frames != N_FRAMES:
        raise FormatError(f"expected {N_FRAMES} frames, file has {n_frames}", 6)
    frames = []
    for i in range(n_frames):
        count = r.u64(f"frame {i} point count")
        frames.append(PointCloud(r.f32_triplets(count, f"frame {i} points"), i))
    flow_count = r.u64("flow count")
    flow_offset = r.pos - 8
    if flow_count != len(frames[FRAME_T]):
        raise FormatError(
            f"flow count {flow_count} != prediction frame count {len(frames[FRAME_T])}",
            flow_offset,
        )
    flow = FlowField(r.f32_triplets(flow_count, "flow vectors"))
    mask_count = r.u64("mask count")
    mask_offset = r.pos - 8
    if mask_count != flow_count:
        raise FormatError(f"mask count {mask_count} != flow count {flow_count}", mask_offset)
    mask = np.frombuffer(r.take(mask_count, "mask codes"), dtype=np.uint8).copy()
    if mask.size and mask.max() > 2:
        raise FormatError("mask code outside 0..2", mask_offset + 8)
    seed = r.u64("seed")
    return SceneSequence(frames=frames, gt_flow=flow, mask=mask, seed=seed)


def save_flow(flow, path):
    """Write a FlowField in the SFFL binary format (f32 triplets).

    Raises NumericError, before the file is opened, when a vector does not fit
    f32, since load_flow would reject the file.
    """
    raw, bad = _as_f32(flow.vectors)
    if bad is not None:
        raise NumericError("flow vector outside the f32 range of SFFL files", index=bad)
    with open(path, "wb") as fh:
        fh.write(FLOW_MAGIC)
        fh.write(struct.pack("<H", FLOW_VERSION))
        fh.write(struct.pack("<Q", len(flow)))
        fh.write(raw.tobytes())


def load_flow(path):
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data)
    if r.take(4, "magic") != FLOW_MAGIC:
        raise FormatError("bad magic, not an SFFL flow file", 0)
    version = r.u16("version")
    if version != FLOW_VERSION:
        raise FormatError(f"unsupported flow format version {version}", 4)
    count = r.u64("point count")
    return FlowField(r.f32_triplets(count, "flow vectors"))


def export_ply(cloud, path):
    """ASCII PLY export of one frame, for external viewers."""
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(cloud)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write("end_header\n")
        for x, y, z in cloud.points:
            fh.write(f"{x:.6f} {y:.6f} {z:.6f}\n")
