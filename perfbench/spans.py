"""Spans recorded from outside the program.

``installed(tracer)`` replaces public sfkit functions at the places where
the pipeline looks them up with wrappers that record a span per call, plus
exact counts taken from arguments and return values.  Spans stay in memory;
the caller writes them out at the end.  Every original is put back when the
context exits, even on error.

Each span also records its tracemalloc peak above the traced size at
entry; the peaks read 0 unless the caller has started tracemalloc.
"""

import contextlib
import importlib
import time
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

from sfkit.pointcloud import FRAME_T
from sfkit.voxelizer import OUT_OF_BOUNDS


@dataclass
class Span:
    name: str
    scene: int
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span in Tracer.spans, -1 for none
    level: int = -1  # backbone level, for coupling blocks
    peak_bytes: int = 0  # traced-memory peak above the size at entry
    _entry_bytes: int = 0
    _max_bytes: int = 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}  # scene -> {name: value}
        self.missing = []  # hooks whose target does not exist
        self.scene = -1
        self.level = 0
        self._open = []

    def _fold_peak(self):
        current, peak = tracemalloc.get_traced_memory()
        for i in self._open:
            span = self.spans[i]
            span._max_bytes = max(span._max_bytes, peak)
        tracemalloc.reset_peak()
        return current

    @contextlib.contextmanager
    def span(self, name):
        span = Span(name, self.scene, 0.0,
                    parent=self._open[-1] if self._open else -1)
        if name == "stdcb.block":
            span.level = self.level
        span._entry_bytes = span._max_bytes = self._fold_peak()
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._fold_peak()
            span.peak_bytes = span._max_bytes - span._entry_bytes
            self._open.pop()

    def count(self, name, value, combine=sum):
        scene = self.counts.setdefault(self.scene, {})
        scene[name] = combine((scene[name], value)) if name in scene else value

    def dump(self):
        """Spans and counts as plain data for a JSON file."""
        spans = [{k: v for k, v in asdict(s).items() if not k.startswith("_")}
                 for s in self.spans]
        return {"spans": spans,
                "counts": {str(k): v for k, v in self.counts.items()},
                "missing_hooks": self.missing}


def scene_breakdown(tracer):
    """Per scene: seconds of self and inclusive time and peak bytes by span
    name, and inclusive seconds of coupling blocks by backbone level.

    Self time is a span's duration minus the durations of its child spans.
    """
    spans = tracer.spans
    children = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            children[s.parent] += s.end - s.start
    out = {}
    for i, s in enumerate(spans):
        scene = out.setdefault(s.scene, {
            "self": defaultdict(float), "total": defaultdict(float),
            "peak": defaultdict(int), "level": defaultdict(float),
        })
        duration = s.end - s.start
        scene["self"][s.name] += duration - children[i]
        scene["total"][s.name] += duration
        scene["peak"][s.name] = max(scene["peak"][s.name], s.peak_bytes)
        if s.level >= 0:
            scene["level"][s.level] += duration
    return out


# --- counts from arguments and return values --------------------------------


def _voxelize(tracer, args, result):
    cloud = args[0]
    tracer.count("voxelizer.points", int(result.n_points))
    tracer.count("voxelizer.out_of_grid_points",
                 int(np.sum(result.assignment == OUT_OF_BOUNDS)))
    if cloud.frame_index == FRAME_T:
        tracer.count("voxelizer.voxels_t", int(result.n_voxels), max)


def _stack(tracer, args, result):
    tracer.count("stdcb.active_sites_l0", int(result.n_active), max)


def _backbone(tracer, args, result):
    tracer.level = 0


def _downsample(tracer, args, result):
    tracer.level += 1
    tracer.count(f"stdcb.active_sites_l{tracer.level}", int(result.n_active), max)


def _upsample(tracer, args, result):
    tracer.level -= 1


def _conv(tracer, args, result):
    tracer.count("stdcb.conv_calls", 1)


def _lookup(tracer, args, result):
    tracer.count("voxelizer.lookup_queries", len(result[1]))
    tracer.count("voxelizer.lookup_hits", int(np.count_nonzero(result[1])))


def _serialize(tracer, args, result):
    tracer.count("serialization.tokens", len(result), max)


def _ssm_layer(tracer, args, result):
    f_coarse, params = args[0], args[2]
    length, width = f_coarse.shape[1], f_coarse.shape[2]
    # One (L, D, S) float64 array; the scan keeps several of them alive.
    tracer.count("ssm.state_bytes_computed", length * width * params.state_size * 8, max)


def _scan(tracer, args, result):
    tracer.count("ssm.scan_length", int(args[3].shape[1]), max)


# (module, attribute, span name, counter).  Modules are the ones whose global
# the caller resolves at call time, so a wrapper placed there sees the call.
HOOKS = (
    ("pipeline", "voxelize", "voxelizer.voxelize", _voxelize),
    ("pipeline", "encode_point_features", "voxelizer.encode", None),
    ("pipeline", "pool_to_voxels", "voxelizer.pool", None),
    ("pipeline", "stack_temporal", "voxelizer.stack", _stack),
    ("pipeline", "backbone_forward", "stdcb.backbone", _backbone),
    ("pipeline", "decode", "decoder.decode", None),
    ("stdcb", "stdcb_forward", "stdcb.block", None),
    ("stdcb", "sparse_conv", "stdcb.sparse_conv", _conv),
    ("stdcb", "sfsm", "stdcb.sfsm", None),
    ("stdcb", "temporal_gated_block", "stdcb.temporal_gate", None),
    ("stdcb", "downsample2", "stdcb.downsample", _downsample),
    ("stdcb", "upsample_into", "stdcb.upsample", _upsample),
    ("decoder", "serialize", "serialization.serialize", _serialize),
    ("decoder", "deserialize", "serialization.deserialize", None),
    ("decoder", "flow_ssm_layer", "ssm.layer", _ssm_layer),
    ("ssm", "zoh_discretize", "ssm.discretize", None),
    ("ssm", "scan_blocked", "ssm.scan", _scan),
    ("voxelizer", "SparseTensor4D.lookup", "voxelizer.lookup", _lookup),
)


def hook_targets():
    """(owner object, attribute name, span name, counter) for each hook."""
    out = []
    for module, attr, span_name, counter in HOOKS:
        owner = importlib.import_module(f"sfkit.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        out.append((owner, leaf, span_name, counter))
    return out


def _wrap(tracer, fn, span_name, counter):
    def wrapper(*args, **kwargs):
        with tracer.span(span_name):
            result = fn(*args, **kwargs)
        if counter is not None:
            counter(tracer, args, result)
        return result

    return wrapper


@contextlib.contextmanager
def installed(tracer):
    """Patch every hook for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, span_name, counter in hook_targets():
            if attr not in vars(owner):
                if f"{owner.__name__}.{attr}" not in tracer.missing:
                    tracer.missing.append(f"{owner.__name__}.{attr}")
                continue
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, span_name, counter))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
