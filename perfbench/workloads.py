"""Benchmark workloads: run configurations, scene pools and the SFSC/SFWT
inputs the program under test receives.

Every workload owns a fixed pool of scenes.  Pool scene ``i`` is synthesised
from its own scene seed, so the reference in ``reference.json`` covers every
scene a run can draw.  The run seed only picks the order in which a run
walks the pool, which keeps "same seed, same inputs" while any seed stays
checkable against the recorded reference.
"""

import contextlib
import hashlib
import zlib
from dataclasses import dataclass

import numpy as np

from sfkit import loss, metrics
from sfkit import pipeline
from sfkit import pointcloud as pc

WEIGHT_SEED = 0
POOL_SIZE = 16
N_MOVERS = 2
MOVER_POINTS = 200


@dataclass(frozen=True)
class Workload:
    name: str
    config: tuple  # RunConfig overrides as (key, value) pairs
    n_background: int
    box_lo: tuple  # background points and mover centres are drawn in this box
    box_hi: tuple
    mover_lo: tuple
    mover_hi: tuple
    pool: int = POOL_SIZE

    def run_config(self):
        return pipeline.RunConfig.from_mapping(dict(self.config))

    def scene_seed(self, index):
        """Seed of pool scene ``index``; independent of the run seed."""
        base = zlib.crc32(self.name.encode())
        return int(np.random.SeedSequence([base, index]).generate_state(1)[0])

    def run_order(self, seed):
        """Pool indices in the order a run with ``seed`` visits them."""
        base = zlib.crc32(self.name.encode())
        return [int(i) for i in np.random.default_rng([int(seed), base]).permutation(self.pool)]

    def make_scene(self, index):
        config = self.run_config()
        seed = self.scene_seed(index)
        movers = pc.sample_mover_specs(
            N_MOVERS, seed, bounds_lo=self.mover_lo, bounds_hi=self.mover_hi,
            n_points=MOVER_POINTS,
        )
        scene_cfg = pc.SceneConfig(
            n_background=self.n_background,
            movers=movers,
            dt=config.dt,
            bounds_lo=self.box_lo,
            bounds_hi=self.box_hi,
            dynamic_threshold=config.dynamic_threshold,
        )
        return pc.synth_scene(scene_cfg, seed)

    def write_scene(self, index, path):
        """Write pool scene ``index`` as SFSC; returns the file's SHA-256."""
        pc.save_scene(self.make_scene(index), path)
        return sha256_file(path)

    def write_weights(self, path):
        """Write the seeded weight bundle as SFWT; returns the file's SHA-256."""
        weights = pipeline.init_pipeline_weights(self.run_config(), WEIGHT_SEED)
        pipeline.save_pipeline_weights(weights, path)
        return sha256_file(path)


@dataclass
class Outputs:
    flow: object  # float64 FlowField from inference
    loaded: object  # the same flow read back from its SFFL file
    report: object
    adaptive: object
    three_bucket: float


def untimed(name):
    return contextlib.nullcontext()


def operation(scene_path, flow_path, weights, config, step=untimed):
    """One benchmark operation: one scene through the whole user path.

    ``step(name)`` is entered around each call into the program, so a tracer
    can time the calls; the default times nothing.
    """
    with step("pointcloud.load_scene"):
        scene = pc.load_scene(scene_path)
    with step("pipeline.infer"):
        flow = pipeline.infer_flow(scene, weights, config)
    with step("pointcloud.save_flow"):
        pc.save_flow(flow, flow_path)
    with step("pointcloud.load_flow"):
        loaded = pc.load_flow(flow_path)
    with step("metrics.evaluate"):
        report = metrics.evaluate(loaded, scene.gt_flow, scene.mask, dt=config.dt)
    with step("loss.scene_adaptive"):
        adaptive = loss.scene_adaptive_loss(loaded, scene.gt_flow, k=config.k_bins)
    with step("loss.three_bucket"):
        bucket = loss.three_bucket_loss(loaded, scene.gt_flow, config.dt)
    return Outputs(flow, loaded, report, adaptive, bucket)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


DESK_BOX = ((-10.0, -10.0, -3.0), (10.0, 10.0, 3.0))
DESK_MOVERS = ((-8.0, -8.0, -1.0), (8.0, 8.0, 1.0))
DENSE_BOX = ((-2.0, -2.0, -1.0), (2.0, 2.0, 1.0))

WORKLOADS = {
    w.name: w
    for w in (
        # ~1 point per voxel: the backbone and its tap lookups dominate, and
        # the scan holds ~1 GB.  Kernel-map and scan changes both show here.
        Workload(
            name="desk-32k",
            config=(),
            n_background=32000,
            box_lo=DESK_BOX[0], box_hi=DESK_BOX[1],
            mover_lo=DESK_MOVERS[0], mover_hi=DESK_MOVERS[1],
        ),
        # The paper's five levels: 14 blocks reuse each active set and the
        # scan is a few percent of the time, so a scan change shows nothing.
        Workload(
            name="paper5-8k",
            config=(("encoder_depths", (2, 2, 2, 2, 2)), ("decoder_depths", (1, 1, 1, 1))),
            n_background=8000,
            box_lo=DESK_BOX[0], box_hi=DESK_BOX[1],
            mover_lo=DESK_MOVERS[0], mover_hi=DESK_MOVERS[1],
        ),
        # ~7.6 points per voxel: the scan is far longer than the voxel count
        # and the decoder dominates, so a kernel-map change barely shows.
        Workload(
            name="covoxel-dense",
            config=(),
            n_background=32000,
            box_lo=DENSE_BOX[0], box_hi=DENSE_BOX[1],
            mover_lo=DENSE_BOX[0], mover_hi=DENSE_BOX[1],
        ),
    )
}
