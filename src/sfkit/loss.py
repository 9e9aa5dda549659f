"""Scene-adaptive loss and the three-bucket baseline loss.

The scene-adaptive loss histograms ground-truth displacement magnitudes into
K equal-width bins over [0, r_max], picks the first bin holding less than a
1/K share of the points, and splits the cloud at that bin's lower edge: the
mean endpoint error of the static and dynamic sides are summed.  The split
depends only on the ground truth, so the partition is stable under any
prediction.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import EmptyInput, check_config
from .metrics import epe, magnitudes

DEFAULT_K = 100
# Speed thresholds splitting the three-bucket baseline loss, in m/s.
BUCKET_SPEEDS = (0.4, 1.0)


@dataclass(frozen=True)
class DisplacementHistogram:
    """Equal-width histogram of displacement magnitudes over [0, r_max].

    The top edge is inclusive so the maximum lands in the last bin.  A scene
    with r_max = 0 is flagged degenerate (all mass nominally in bin 0).
    """

    k: int
    r_max: float
    counts: np.ndarray
    n: int
    degenerate: bool

    @property
    def bin_width(self):
        return self.r_max / self.k

    @property
    def weights(self):
        return self.counts / self.n


@dataclass(frozen=True)
class AdaptiveThreshold:
    """First sparse bin index and its lower displacement bound.

    ``fallback`` is set when no bin holds less than a 1/K share (or the
    histogram was degenerate); everything is then treated as static.
    """

    alpha: int
    r_alpha: float
    fallback: bool = False


@dataclass(frozen=True)
class LossBreakdown:
    static_term: float
    dynamic_term: float
    total: float
    n_static: int
    n_dynamic: int
    alpha: int
    r_alpha: float
    fallback: bool


def build_histogram(gt_flow, k=DEFAULT_K):
    """Bin ground-truth displacement magnitudes into k equal-width bins."""
    check_config(SimpleNamespace(k=k), k="k_bins")
    r = magnitudes(gt_flow)
    n = len(r)
    if n == 0:
        raise EmptyInput("cannot histogram an empty flow field")
    r_max = float(r.max())
    if r_max == 0.0:
        counts = np.zeros(k, dtype=np.int64)
        counts[0] = n
        return DisplacementHistogram(k=k, r_max=0.0, counts=counts, n=n, degenerate=True)
    idx = np.minimum((r / (r_max / k)).astype(np.int64), k - 1)
    counts = np.bincount(idx, minlength=k)
    return DisplacementHistogram(k=k, r_max=r_max, counts=counts, n=n, degenerate=False)


def select_threshold(hist):
    """First bin whose share falls strictly below 1/K; fallback to all-static."""
    if not hist.degenerate:
        sparse = np.flatnonzero(hist.weights < 1.0 / hist.k)
        if len(sparse):
            alpha = int(sparse[0])
            return AdaptiveThreshold(alpha=alpha, r_alpha=alpha * hist.bin_width)
    return AdaptiveThreshold(alpha=hist.k, r_alpha=hist.r_max, fallback=True)


def partition(gt_flow, threshold):
    """Index sets (static, dynamic): static iff displacement <= r_alpha."""
    r = magnitudes(gt_flow)
    static = np.flatnonzero(r <= threshold.r_alpha)
    dynamic = np.flatnonzero(r > threshold.r_alpha)
    return static, dynamic


def scene_adaptive_loss(pred, gt, k=DEFAULT_K):
    """Sum of mean endpoint errors over the adaptive static/dynamic split.

    An empty side contributes zero rather than 0/0.
    """
    err = epe(pred, gt)
    hist = build_histogram(gt, k)
    thr = select_threshold(hist)
    static, dynamic = partition(gt, thr)
    static_term = float(err[static].mean()) if len(static) else 0.0
    dynamic_term = float(err[dynamic].mean()) if len(dynamic) else 0.0
    return LossBreakdown(
        static_term=static_term,
        dynamic_term=dynamic_term,
        total=static_term + dynamic_term,
        n_static=len(static),
        n_dynamic=len(dynamic),
        alpha=thr.alpha,
        r_alpha=thr.r_alpha,
        fallback=thr.fallback,
    )


def three_bucket_loss(pred, gt, dt):
    """Speed-bucketed baseline: sum of mean EPE over [0,0.4), [0.4,1), [1,inf) m/s."""
    check_config(SimpleNamespace(dt=dt), "dt")
    err = epe(pred, gt)
    speed = magnitudes(gt) / dt
    lo, hi = BUCKET_SPEEDS
    total = 0.0
    for sel in (speed < lo, (speed >= lo) & (speed < hi), speed >= hi):
        if np.any(sel):
            total += float(err[sel].mean())
    return total


def loss_report_row(scene_id, breakdown, k=DEFAULT_K):
    """CSV row matching the documented loss-report schema."""
    return (
        f"{scene_id},{k},{breakdown.alpha},{breakdown.r_alpha:.9g},"
        f"{breakdown.n_static},{breakdown.n_dynamic},"
        f"{breakdown.static_term:.9g},{breakdown.dynamic_term:.9g},{breakdown.total:.9g}"
    )


LOSS_REPORT_HEADER = "scene_id,K,alpha,r_alpha,n_static,n_dynamic,static_term,dynamic_term,total"
