"""End-to-end scene-flow benchmark: a single-process, closed-loop client
with one scene in flight.

    python3 perfbench/run.py --workload desk-32k --seed 0 --seconds 25 --trace 0

One operation is one scene: load_scene -> infer_flow -> save_flow/load_flow
-> metrics.evaluate + both losses.  Scenes and weights are generated before
timing and handed to the program as SFSC/SFWT files.  Every operation is
checked against reference.json; an exception or a mismatch counts as a
failed operation and makes the exit code 1.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every scene once
untraced and once traced, and reports per-layer metrics from the spans.
The last line of standard output is one JSON object; a fuller record,
including the environment, goes to perfbench/out/.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_REPEATS = 9
WEIGHT_LOADS = 5
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "scene_s_p50": "s",
    "points_per_s": "points/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "voxelizer.voxelize_s": "s",
    "voxelizer.encode_s": "s",
    "voxelizer.pool_s": "s",
    "voxelizer.stack_s": "s",
    "voxelizer.lookup_s": "s",
    "voxelizer.lookup_queries": "count",
    "voxelizer.lookup_hit_ratio": "ratio",
    "voxelizer.points": "count",
    "voxelizer.out_of_grid_points": "count",
    "voxelizer.voxels_t": "count",
    "voxelizer.peak_mb": "MB",
    "stdcb.sparse_conv_s": "s",
    "stdcb.gates_s": "s",
    "stdcb.block_s": "s",
    "stdcb.downsample_s": "s",
    "stdcb.upsample_s": "s",
    "stdcb.backbone_s": "s",
    "stdcb.level0_s": "s",
    "stdcb.level1_s": "s",
    "stdcb.active_sites_l0": "count",
    "stdcb.active_sites_l1": "count",
    "stdcb.active_sites_l2": "count",
    "stdcb.active_sites_l3": "count",
    "stdcb.active_sites_l4": "count",
    "stdcb.conv_calls": "count",
    "stdcb.peak_mb": "MB",
    "serialization.s": "s",
    "serialization.tokens": "count",
    "ssm.layer_s": "s",
    "ssm.discretize_s": "s",
    "ssm.scan_s": "s",
    "ssm.scan_length": "count",
    "ssm.peak_mb": "MB",
    "ssm.state_mb_computed": "MB",
    "decoder.decode_s": "s",
    "decoder.self_s": "s",
    "pipeline.infer_s": "s",
    "pipeline.self_s": "s",
    "pointcloud.io_s": "s",
    "pointcloud.io_bytes": "bytes",
    "metrics.evaluate_s": "s",
    "loss.s": "s",
    "loss.fallback_scenes": "count",
    "weights.load_s": "s",
    "weights.bytes": "bytes",
    "trace.overhead_frac": "ratio",
}

N_LEVELS = 5  # the deepest layout any workload uses

# Per-layer metrics derived from counts alone.
EXACT = {name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")} | {
    "voxelizer.lookup_hit_ratio", "ssm.state_mb_computed",
}


class SetupError(Exception):
    """The benchmark cannot start; no result is printed."""


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def host_loop_seconds():
    """Time of a fixed pure-Python loop.  On a shared machine the host's
    speed drifts, and every timing drifts with it; this records by how much."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i
    return time.perf_counter() - start


class Session:
    """One workload's inputs on disk plus the reference they are checked
    against.  Scenes are written one at a time, just before their operation."""

    def __init__(self, workload, seed, reference, workdir):
        self.workload = workload
        self.config = workload.run_config()
        self.reference = reference
        self.weights_path = workdir / "weights.sfwt"
        digest = workload.write_weights(self.weights_path)
        self.weights_problem = (
            None if digest == reference["weights_sha256"]
            else "seeded SFWT weights differ from the reference's"
        )
        self.weights_bytes = self.weights_path.stat().st_size
        self.order = workload.run_order(seed)
        self.flow_path = workdir / "flow.sffl"
        self.scene_path = workdir / "scene.sfsc"
        self._next = 0

    def next_scene(self):
        """Write the run's next scene; returns (pool index, input problems)."""
        index = self.order[self._next % len(self.order)]
        self._next += 1
        digest = self.workload.write_scene(index, self.scene_path)
        problems = [] if self.weights_problem is None else [self.weights_problem]
        if digest != self.reference["scenes"][index]["scene_sha256"]:
            problems.append(f"scene {index} SFSC bytes differ from the reference's")
        return index, problems

    def io_bytes(self):
        return self.scene_path.stat().st_size + 2 * self.flow_path.stat().st_size


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, index, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 3:
                print(f"scene {index} failed: " + "; ".join(problems[:5]), file=sys.stderr)
        return not problems


def checked_op(session, index, input_problems, step=None):
    """Run one operation, then check it.

    Returns (outputs or None, problems, seconds the operation took).
    """
    import gate
    from workloads import operation, untimed

    start = time.perf_counter()
    try:
        outputs = operation(session.scene_path, session.flow_path, session.weights,
                            session.config, step or untimed)
    except Exception:  # any failure of the program is a failed operation
        problem = traceback.format_exc(limit=3).strip()
        return None, input_problems + [problem], time.perf_counter() - start
    seconds = time.perf_counter() - start
    problems = input_problems + gate.check(outputs, session.reference["scenes"][index])
    return outputs, problems, seconds


def keep_going(deadline, durations):
    """Start another operation only if it should end before the deadline."""
    now = time.perf_counter()
    if now >= deadline:
        return False
    return not durations or now + statistics.median(durations) <= deadline


def setup_seconds(session):
    """Median cold set-up time over SETUP_REPEATS fresh interpreters."""
    config_json = json.dumps(session.config.to_mapping())
    samples = []
    for _ in range(SETUP_REPEATS):
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
                 str(session.weights_path), config_json],
                capture_output=True, text=True, timeout=120, check=False,
            )
        except subprocess.TimeoutExpired as exc:
            raise SetupError("set-up probe did not finish") from exc
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def run_untraced(session, seconds):
    from sfkit.pipeline import load_pipeline_weights

    setup_s, setup_samples = setup_seconds(session)
    session.weights = load_pipeline_weights(session.weights_path, session.config)
    tally = Tally()
    index, problems = session.next_scene()  # warm-up, untimed but checked
    tally.record(index, checked_op(session, index, problems)[1])

    durations, indices, points = [], [], 0
    deadline = time.perf_counter() + seconds
    while keep_going(deadline, durations):
        index, problems = session.next_scene()
        gc.collect()
        outputs, problems, elapsed = checked_op(session, index, problems)
        if tally.record(index, problems):
            durations.append(elapsed)
            indices.append(index)
            points += len(outputs.flow)
    extra = {"scene_index": indices, "scene_seconds": durations, "setup_samples": setup_samples}
    if not durations:
        return tally, {}, extra
    metrics = {
        "scene_s_p50": statistics.median(durations),
        "points_per_s": points / sum(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "setup_s": setup_s,
    }
    return tally, metrics, extra


def layer_metrics(scene, counts):
    """Per-layer metrics of one traced scene from its spans and counts."""
    own, total, peak = scene["self"], scene["total"], scene["peak"]
    queries = counts.get("voxelizer.lookup_queries", 0)
    out = {
        "voxelizer.voxelize_s": own["voxelizer.voxelize"],
        "voxelizer.encode_s": own["voxelizer.encode"],
        "voxelizer.pool_s": own["voxelizer.pool"],
        "voxelizer.stack_s": own["voxelizer.stack"],
        "voxelizer.lookup_s": own["voxelizer.lookup"],
        "voxelizer.lookup_queries": queries,
        "voxelizer.lookup_hit_ratio": counts.get("voxelizer.lookup_hits", 0) / max(queries, 1),
        "voxelizer.peak_mb": max(peak[k] for k in (
            "voxelizer.voxelize", "voxelizer.encode", "voxelizer.pool", "voxelizer.stack",
        )) / 1e6,
        "stdcb.sparse_conv_s": own["stdcb.sparse_conv"],
        "stdcb.gates_s": own["stdcb.sfsm"] + own["stdcb.temporal_gate"],
        "stdcb.block_s": own["stdcb.block"],
        "stdcb.downsample_s": own["stdcb.downsample"],
        "stdcb.upsample_s": own["stdcb.upsample"],
        "stdcb.backbone_s": total["stdcb.backbone"],
        "stdcb.peak_mb": peak["stdcb.backbone"] / 1e6,
        "serialization.s": own["serialization.serialize"] + own["serialization.deserialize"],
        "ssm.layer_s": own["ssm.layer"],
        "ssm.discretize_s": own["ssm.discretize"],
        "ssm.scan_s": own["ssm.scan"],
        "ssm.peak_mb": peak["ssm.layer"] / 1e6,
        "ssm.state_mb_computed": counts.get("ssm.state_bytes_computed", 0) / 1e6,
        "decoder.decode_s": total["decoder.decode"],
        "decoder.self_s": own["decoder.decode"],
        "pipeline.infer_s": total["pipeline.infer"],
        "pipeline.self_s": own["pipeline.infer"],
        "pointcloud.io_s": sum(total[k] for k in (
            "pointcloud.load_scene", "pointcloud.save_flow", "pointcloud.load_flow",
        )),
        "metrics.evaluate_s": total["metrics.evaluate"],
        "loss.s": total["loss.scene_adaptive"] + total["loss.three_bucket"],
    }
    for level in range(N_LEVELS):
        out[f"stdcb.level{level}_s"] = scene["level"][level]
        out[f"stdcb.active_sites_l{level}"] = counts.get(f"stdcb.active_sites_l{level}", 0)
    for name in ("voxelizer.points", "voxelizer.out_of_grid_points", "voxelizer.voxels_t",
                 "stdcb.conv_calls", "serialization.tokens", "ssm.scan_length",
                 "pointcloud.io_bytes"):
        out[name] = counts.get(name, 0)
    return out


def run_traced(session, seconds):
    import spans
    from sfkit.pipeline import load_pipeline_weights

    load_times = []
    for _ in range(WEIGHT_LOADS):
        start = time.perf_counter()
        session.weights = load_pipeline_weights(session.weights_path, session.config)
        load_times.append(time.perf_counter() - start)
    tally = Tally()
    index, problems = session.next_scene()  # warm-up, untimed but checked
    tally.record(index, checked_op(session, index, problems)[1])

    tracer = spans.Tracer()
    plain, traced, pairs, passed, indices, fallbacks = [], [], [], [], [], 0
    deadline = time.perf_counter() + seconds
    while keep_going(deadline, pairs):
        index, problems = session.next_scene()
        gc.collect()
        start = time.perf_counter()
        expect, plain_problems, plain_s = checked_op(session, index, [])

        tracer.scene = len(pairs) + tally.failed  # one id per traced operation
        gc.collect()
        tracemalloc.start()
        try:
            with spans.installed(tracer):
                got, problems, traced_s = checked_op(session, index, problems, tracer.span)
        finally:
            tracemalloc.stop()
        problems += plain_problems
        if expect is not None and got is not None and (
            expect.flow.vectors.tobytes() != got.flow.vectors.tobytes()
        ):
            problems.append("traced flow differs from the untraced flow")
        if tally.record(index, problems):
            plain.append(plain_s)
            traced.append(traced_s)
            pairs.append(time.perf_counter() - start)
            passed.append(tracer.scene)
            indices.append(index)
            tracer.count("pointcloud.io_bytes", session.io_bytes())
            fallbacks += int(got.adaptive.fallback)

    scenes = spans.scene_breakdown(tracer)
    per_scene = {op: layer_metrics(scenes[op], tracer.counts[op]) for op in passed}
    if not per_scene:
        return tally, {}, {"trace": tracer.dump()}
    # Times are medians over the traced scenes.  Counts come from the run's
    # first traced scene, which the seed alone fixes, so they repeat exactly.
    first = per_scene[passed[0]]
    metrics = {
        name: first[name] if name in EXACT else
        statistics.median(s[name] for s in per_scene.values())
        for name in first
    }
    metrics["loss.fallback_scenes"] = fallbacks
    metrics["weights.load_s"] = statistics.median(load_times)
    metrics["weights.bytes"] = session.weights_bytes
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    extra = {
        "scene_index": indices,
        "untraced_scene_seconds": plain,
        "traced_scene_seconds": traced,
        "per_scene": {str(k): v for k, v in per_scene.items()},
        "trace": tracer.dump(),
    }
    return tally, metrics, extra


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import sfkit from this checkout's src/ and nowhere else."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    try:
        import sfkit
    except ImportError as exc:
        raise SetupError(f"cannot import sfkit from {SRC}: {exc}") from exc
    if Path(sfkit.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"sfkit was imported from {sfkit.__file__}, not {SRC}")


def main(argv=None):
    args = parse_args(argv)
    host_before = host_loop_seconds()
    try:
        load_program()
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise SetupError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        references = json.loads(REFERENCE.read_text())["workloads"]
        if args.workload not in references:
            raise SetupError(f"{REFERENCE} has no entry for {args.workload!r}")
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        workdir = OUT / f"{tag}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            session = Session(WORKLOADS[args.workload], args.seed,
                              references[args.workload], workdir)
            runner = run_traced if args.trace else run_untraced
            tally, metrics, extra = runner(session, args.seconds)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (SetupError, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    units = PER_LAYER if args.trace else END_TO_END
    correct = tally.failed == 0 and set(units) <= set(metrics)
    env = environment()
    env["host_loop_s"] = [host_before, host_loop_seconds()]  # before and after
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "attempted": tally.attempted,
        "failed": tally.failed, "metrics": metrics, **extra,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"environment {json.dumps(env)}")
    for name, unit in units.items():
        if name in metrics:
            print(f"{name:32s} {metrics[name]:.6g} {unit}")
    print(f"{'failed_frac':32s} {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
