"""Correctness gate: a compact per-scene summary of the program's outputs,
compared against the summary recorded at the seed commit.

A summary holds seeded +-1 projections of the float64 flow, its largest
magnitude, every value of the metric suite and both losses.  Values are
compared at the acceptance suite's tolerance: a difference may not exceed
1e-10 times max(|reference|, 1), and a projection over 3N flow entries may
not move by more than 3N times that per-entry allowance.  Integer outcomes
(threshold bin, split sizes, fallback) must match exactly.
"""

import numpy as np

RTOL = 1e-10
N_PROJECTIONS = 4
PROJECTION_SEED = 20250227


def projections(n_values):
    """(N_PROJECTIONS, n_values) matrix of +-1 entries, fixed per length."""
    rng = np.random.default_rng([PROJECTION_SEED, n_values])
    return rng.integers(0, 2, size=(N_PROJECTIONS, n_values)) * 2.0 - 1.0


def summarize(flow, report, adaptive, three_bucket):
    """Summary of one operation's outputs.

    ``flow`` is the float64 FlowField from inference; ``report`` and the
    losses are computed from the flow read back from its SFFL file.
    """
    vectors = np.asarray(flow.vectors, dtype=np.float64).ravel()
    return {
        "points": len(flow),
        "projections": [float(v) for v in projections(vectors.size) @ vectors],
        "max_abs": float(np.abs(vectors).max()) if vectors.size else 0.0,
        "metrics": {name: (None if v is None else float(v)) for name, v in report.rows()},
        "adaptive": {
            "total": float(adaptive.total),
            "static_term": float(adaptive.static_term),
            "dynamic_term": float(adaptive.dynamic_term),
            "alpha": int(adaptive.alpha),
            "n_static": int(adaptive.n_static),
            "n_dynamic": int(adaptive.n_dynamic),
            "fallback": bool(adaptive.fallback),
        },
        "three_bucket": float(three_bucket),
    }


def _close(got, ref, scale=1.0):
    return abs(got - ref) <= RTOL * scale * max(abs(ref), 1.0)


def compare(summary, ref):
    """Mismatch descriptions (empty when the summary matches ``ref``)."""
    bad = []
    if summary["points"] != ref["points"]:
        return [f"flow has {summary['points']} points, reference {ref['points']}"]
    if not _close(summary["max_abs"], ref["max_abs"]):
        bad.append(f"max |flow| {summary['max_abs']!r} vs {ref['max_abs']!r}")
    # A per-entry change within tolerance moves a +-1 projection by at most
    # the sum of the per-entry allowances.
    allowance = RTOL * 3 * ref["points"] * max(ref["max_abs"], 1.0)
    for k, (got, want) in enumerate(zip(summary["projections"], ref["projections"])):
        if abs(got - want) > allowance:
            bad.append(f"flow projection {k}: {got!r} vs {want!r}")
    if set(summary["metrics"]) != set(ref["metrics"]):
        bad.append(f"metric names {sorted(summary['metrics'])} vs {sorted(ref['metrics'])}")
    for name, want in ref["metrics"].items():
        got = summary["metrics"].get(name)
        if (got is None) != (want is None) or (want is not None and not _close(got, want)):
            bad.append(f"metric {name}: {got!r} vs {want!r}")
    for name, want in ref["adaptive"].items():
        got = summary["adaptive"][name]
        same = _close(got, want) if isinstance(want, float) else got == want
        if not same:
            bad.append(f"adaptive loss {name}: {got!r} vs {want!r}")
    if not _close(summary["three_bucket"], ref["three_bucket"]):
        bad.append(f"three-bucket loss {summary['three_bucket']!r} vs {ref['three_bucket']!r}")
    return bad


def check(outputs, ref):
    """Mismatches of one operation's ``workloads.Outputs`` against ``ref``."""
    stored = np.asarray(outputs.flow.vectors, dtype=np.float32).astype(np.float64)
    if not np.array_equal(outputs.loaded.vectors, stored):
        return ["flow read back from SFFL differs from the flow as float32"]
    return compare(
        summarize(outputs.flow, outputs.report, outputs.adaptive, outputs.three_bucket),
        ref,
    )
