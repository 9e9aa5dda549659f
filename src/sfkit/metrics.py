"""Evaluation suite: endpoint error, 3-way split, speed-bucketed normalized
error, and dynamic IoU.

The bucketed normalized error here is a desk-scale variant (the benchmark's
official protocol lives outside this package): dynamic points are grouped by
object class and speed bucket, each group's error is normalized by the
ground-truth magnitude, buckets average into a class score and classes into
the dynamic mean.  Reports always label it as the variant.
"""

from dataclasses import dataclass
from enum import IntEnum
import io
from types import SimpleNamespace

import numpy as np

from .errors import EmptyInput, InvalidConfig, ShapeError, check_config
from .pointcloud import DEFAULT_DYNAMIC_THRESHOLD, MotionClass

NORMALIZATION_FLOOR = 1e-6  # meters; guards the EPE/|gt| ratio
BUCKET_WIDTH = 0.4  # m/s
DEFAULT_IOU_THRESHOLD = DEFAULT_DYNAMIC_THRESHOLD  # meters per frame pair, as in mask generation


class ObjectClass(IntEnum):
    CAR = 0
    OTHER_VEHICLE = 1
    PEDESTRIAN = 2
    WHEELED_VRU = 3
    BACKGROUND = 4


def _vectors(flow):
    return flow.vectors if hasattr(flow, "vectors") else np.asarray(flow, dtype=float)


def magnitudes(flow):
    """Per-point L2 norm of a flow field or an (N, 3) array."""
    return np.linalg.norm(_vectors(flow), axis=1)


def _aligned(pred, gt):
    p, g = _vectors(pred), _vectors(gt)
    if p.shape != g.shape:
        raise ShapeError(f"pred {p.shape} vs gt {g.shape}")
    return p, g


def epe(pred, gt):
    """Per-point L2 distance between predicted and ground-truth flow."""
    p, g = _aligned(pred, gt)
    return np.linalg.norm(p - g, axis=1)


def average_epe(pred, gt):
    errors = epe(pred, gt)
    if len(errors) == 0:
        raise EmptyInput("cannot average over zero points")
    return float(errors.mean())


@dataclass(frozen=True)
class ThreewayEpe:
    """Per-subset mean EPE; a missing subset is None, and the average runs
    over the subsets that are present."""

    avg: float
    fd: float = None
    bs: float = None
    fs: float = None
    counts: tuple = (0, 0, 0)


def threeway_epe(pred, gt, mask):
    """Mean EPE per motion class plus their unweighted average."""
    errors = epe(pred, gt)
    mask = np.asarray(mask)
    if mask.shape != (len(errors),):
        raise ShapeError(f"mask has {mask.shape}, expected ({len(errors)},)")
    subset_means, counts = {}, []
    for cls in (MotionClass.FOREGROUND_DYNAMIC, MotionClass.BACKGROUND_STATIC,
                MotionClass.FOREGROUND_STATIC):
        sel = mask == cls
        counts.append(int(sel.sum()))
        subset_means[cls] = float(errors[sel].mean()) if np.any(sel) else None
    present = [v for v in subset_means.values() if v is not None]
    if not present:
        raise EmptyInput("no points in any motion class")
    return ThreewayEpe(
        avg=float(np.mean(present)),
        fd=subset_means[MotionClass.FOREGROUND_DYNAMIC],
        bs=subset_means[MotionClass.BACKGROUND_STATIC],
        fs=subset_means[MotionClass.FOREGROUND_STATIC],
        counts=tuple(counts),
    )


@dataclass(frozen=True)
class BucketedNormalizedEpe:
    """Desk-scale variant of the speed-bucketed, class-normalized error."""

    per_class: dict
    dynamic_mean: float
    static_mean: float
    n_dynamic: int
    n_static: int


def bucketed_normalized_epe(pred, gt, mask, dt, object_classes=None):
    """Normalized dynamic error per object class plus the plain static mean.

    Dynamic points (mask FOREGROUND_DYNAMIC) are grouped by object class
    (all cars when ``object_classes`` is None) and by speed bucket
    [k*w, (k+1)*w) with w = BUCKET_WIDTH; each group contributes
    mean(EPE / max(|gt|, floor)), buckets average into the class entry, and
    non-empty classes average into the dynamic mean.
    """
    check_config(SimpleNamespace(dt=dt), "dt")
    errors = epe(pred, gt)
    mask = np.asarray(mask)
    if mask.shape != (len(errors),):
        raise ShapeError(f"mask has {mask.shape}, expected ({len(errors)},)")
    if object_classes is None:
        object_classes = np.where(
            mask == MotionClass.FOREGROUND_DYNAMIC, ObjectClass.CAR, ObjectClass.BACKGROUND
        )
    object_classes = np.asarray(object_classes)
    if object_classes.shape != mask.shape:
        raise ShapeError("object class array must align with the mask")

    gt_mag = magnitudes(gt)
    with np.errstate(over="ignore"):  # infinite bucket positions are refused below
        bucket_pos = gt_mag / dt / BUCKET_WIDTH
    dynamic = mask == MotionClass.FOREGROUND_DYNAMIC
    normalized = errors / np.maximum(gt_mag, NORMALIZATION_FLOOR)

    per_class = {}
    for cls in ObjectClass:
        if cls is ObjectClass.BACKGROUND:
            continue
        sel = dynamic & (object_classes == cls)
        if not np.any(sel):
            continue
        if not np.all(bucket_pos[sel] < 2.0 ** 63):  # also false for nan
            raise InvalidConfig(
                f"dt={dt} puts a dynamic point's speed bucket outside int64"
            )
        buckets = bucket_pos[sel].astype(np.int64)
        bucket_means = [
            float(normalized[sel][buckets == b].mean()) for b in np.unique(buckets)
        ]
        per_class[cls.name] = float(np.mean(bucket_means))
    dynamic_mean = float(np.mean(list(per_class.values()))) if per_class else 0.0

    static = ~dynamic
    static_mean = float(errors[static].mean()) if np.any(static) else 0.0
    return BucketedNormalizedEpe(
        per_class=per_class,
        dynamic_mean=dynamic_mean,
        static_mean=static_mean,
        n_dynamic=int(dynamic.sum()),
        n_static=int(static.sum()),
    )


def dynamic_iou(pred, gt, threshold=DEFAULT_IOU_THRESHOLD):
    """IoU of the predicted-dynamic and truly-dynamic point sets.

    A point is called dynamic when its flow magnitude exceeds the threshold;
    an empty union scores 1.
    """
    check_config(SimpleNamespace(threshold=threshold), threshold="iou_threshold")
    p, g = _aligned(pred, gt)
    pred_dyn = np.linalg.norm(p, axis=1) > threshold
    true_dyn = np.linalg.norm(g, axis=1) > threshold
    union = int(np.sum(pred_dyn | true_dyn))
    if union == 0:
        return 1.0
    return float(np.sum(pred_dyn & true_dyn) / union)


@dataclass(frozen=True)
class MetricsReport:
    avg_epe: float
    threeway: ThreewayEpe
    bucketed: BucketedNormalizedEpe
    iou: float

    def rows(self):
        """(name, value) pairs; None marks an absent subset."""
        tw, bk = self.threeway, self.bucketed
        rows = [
            ("avg_epe", self.avg_epe),
            ("threeway_avg", tw.avg),
            ("threeway_fd", tw.fd),
            ("threeway_bs", tw.bs),
            ("threeway_fs", tw.fs),
        ]
        for cls in ObjectClass:
            if cls is ObjectClass.BACKGROUND:
                continue
            rows.append((f"bucketed_dynamic_{cls.name.lower()}", bk.per_class.get(cls.name)))
        rows += [
            ("bucketed_dynamic_mean", bk.dynamic_mean),
            ("bucketed_static_mean", bk.static_mean),
            ("dynamic_iou", self.iou),
        ]
        return rows

    def to_csv(self):
        buf = io.StringIO()
        buf.write("metric,value\n")
        for name, value in self.rows():
            buf.write(f"{name},{'' if value is None else format(value, '.9g')}\n")
        return buf.getvalue()

    def to_text(self):
        """Aligned columns mirroring the benchmark table roles."""
        lines = ["3-way EPE                      bucketed normalized EPE (desk-scale variant)"]
        tw, bk = self.threeway, self.bucketed

        def cell(v):
            return "   --  " if v is None else f"{v:7.4f}"

        lines.append(
            f"  Avg {cell(tw.avg)}  FD {cell(tw.fd)}  BS {cell(tw.bs)}  FS {cell(tw.fs)}"
        )
        parts = [f"{name}={value:.4f}" for name, value in sorted(bk.per_class.items())]
        lines.append(
            f"  dynamic mean {bk.dynamic_mean:.4f}"
            + (f" ({', '.join(parts)})" if parts else " (no dynamic points)")
        )
        lines.append(f"  static mean  {bk.static_mean:.4f}")
        lines.append(f"  dynamic IoU  {self.iou:.4f}")
        return "\n".join(lines)


def evaluate(pred, gt, mask, dt, iou_threshold=DEFAULT_IOU_THRESHOLD):
    """Full metric suite for one scene; dynamic points count as cars."""
    return MetricsReport(
        avg_epe=average_epe(pred, gt),
        threeway=threeway_epe(pred, gt, mask),
        bucketed=bucketed_normalized_epe(pred, gt, mask, dt),
        iou=dynamic_iou(pred, gt, iou_threshold),
    )
