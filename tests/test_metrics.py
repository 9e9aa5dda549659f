import numpy as np
import pytest

from sfkit import metrics
from sfkit.errors import EmptyInput, InvalidConfig, ShapeError
from sfkit.pointcloud import FlowField, MotionClass


def flow_of(vectors):
    return FlowField(np.asarray(vectors, dtype=np.float64))


FD = MotionClass.FOREGROUND_DYNAMIC
BS = MotionClass.BACKGROUND_STATIC
FS = MotionClass.FOREGROUND_STATIC


# --- epe -------------------------------------------------------------------------


def test_epe_zero_for_identical_fields():
    rng = np.random.default_rng(0)
    f = flow_of(rng.normal(size=(10, 3)))
    assert np.array_equal(metrics.epe(f, f), np.zeros(10))


def test_epe_three_four_five():
    pred = flow_of([[3.0, 4.0, 0.0]])
    gt = flow_of([[0.0, 0.0, 0.0]])
    assert metrics.epe(pred, gt)[0] == 5.0


def test_epe_matches_loop():
    rng = np.random.default_rng(1)
    p = rng.normal(size=(100, 3))
    g = rng.normal(size=(100, 3))
    out = metrics.epe(flow_of(p), flow_of(g))
    for i in range(100):
        expect = np.sqrt(((p[i] - g[i]) ** 2).sum())
        assert abs(out[i] - expect) < 1e-15


def test_epe_symmetry():
    rng = np.random.default_rng(2)
    p = flow_of(rng.normal(size=(30, 3)))
    g = flow_of(rng.normal(size=(30, 3)))
    assert np.array_equal(metrics.epe(p, g), metrics.epe(g, p))


def test_average_epe():
    pred = flow_of([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    gt = flow_of(np.zeros((2, 3)))
    assert metrics.average_epe(pred, gt) == 1.0
    with pytest.raises(EmptyInput):
        metrics.average_epe(flow_of(np.zeros((0, 3))), flow_of(np.zeros((0, 3))))


def test_average_epe_translation_invariant():
    rng = np.random.default_rng(3)
    p = rng.normal(size=(40, 3))
    g = rng.normal(size=(40, 3))
    shift = np.array([0.3, -0.8, 1.1])
    a = metrics.average_epe(flow_of(p), flow_of(g))
    b = metrics.average_epe(flow_of(p + shift), flow_of(g + shift))
    assert np.isclose(a, b, atol=1e-12)


# --- 3-way -------------------------------------------------------------------------


def test_threeway_all_background_exact():
    gt = flow_of(np.zeros((5, 3)))
    out = metrics.threeway_epe(gt, gt, np.full(5, BS))
    assert out.bs == 0.0
    assert out.fd is None and out.fs is None
    assert out.avg == 0.0


def test_threeway_one_point_per_subset():
    pred = flow_of([[0.3, 0, 0], [0, 0, 0], [0, 0, 0]])
    gt = flow_of(np.zeros((3, 3)))
    mask = np.array([FD, BS, FS])
    out = metrics.threeway_epe(pred, gt, mask)
    assert np.isclose(out.avg, 0.1)
    assert np.isclose(out.fd, 0.3)
    assert out.bs == 0.0 and out.fs == 0.0


def test_threeway_matches_loop_oracle():
    rng = np.random.default_rng(4)
    p = rng.normal(size=(200, 3))
    g = rng.normal(size=(200, 3))
    mask = rng.integers(0, 3, 200)
    out = metrics.threeway_epe(flow_of(p), flow_of(g), mask)
    errors = np.linalg.norm(p - g, axis=1)
    means = []
    for cls, got in ((FD, out.fd), (BS, out.bs), (FS, out.fs)):
        sel = mask == cls
        if sel.any():
            expect = errors[sel].mean()
            assert abs(got - expect) < 1e-12
            means.append(expect)
        else:
            assert got is None
    assert abs(out.avg - np.mean(means)) < 1e-12


def test_threeway_subset_means_within_member_range():
    rng = np.random.default_rng(5)
    p = rng.normal(size=(100, 3))
    g = rng.normal(size=(100, 3))
    mask = rng.integers(0, 3, 100)
    errors = np.linalg.norm(p - g, axis=1)
    out = metrics.threeway_epe(flow_of(p), flow_of(g), mask)
    for cls, got in ((FD, out.fd), (BS, out.bs), (FS, out.fs)):
        sel = mask == cls
        if sel.any():
            assert errors[sel].min() - 1e-15 <= got <= errors[sel].max() + 1e-15


def test_threeway_empty_raises():
    with pytest.raises(EmptyInput):
        metrics.threeway_epe(
            flow_of(np.zeros((0, 3))), flow_of(np.zeros((0, 3))), np.zeros(0, dtype=int)
        )


# --- bucketed normalized ------------------------------------------------------------


def test_bucketed_zero_for_exact_prediction():
    rng = np.random.default_rng(6)
    gt = flow_of(rng.normal(size=(20, 3)))
    out = metrics.bucketed_normalized_epe(gt, gt, np.full(20, FD), dt=0.1)
    assert out.dynamic_mean == 0.0
    assert all(v == 0.0 for v in out.per_class.values())


def test_bucketed_single_car_ratio():
    gt = flow_of([[1.0, 0.0, 0.0]])
    pred = flow_of([[1.1, 0.0, 0.0]])
    out = metrics.bucketed_normalized_epe(
        pred, gt, np.array([FD]), dt=0.1,
        object_classes=np.array([metrics.ObjectClass.CAR]),
    )
    assert np.isclose(out.per_class["CAR"], 0.1)
    assert np.isclose(out.dynamic_mean, 0.1)


def test_bucketed_matches_nested_loop_oracle():
    rng = np.random.default_rng(7)
    n = 300
    p = rng.normal(size=(n, 3))
    g = rng.normal(size=(n, 3)) * rng.uniform(0, 0.5, (n, 1))
    mask = rng.choice([FD, BS, FS], n)
    classes = rng.integers(0, 4, n)  # CAR..WHEELED_VRU
    dt = 0.1
    out = metrics.bucketed_normalized_epe(
        flow_of(p), flow_of(g), mask, dt, object_classes=classes
    )

    errors = np.linalg.norm(p - g, axis=1)
    gt_mag = np.linalg.norm(g, axis=1)
    speeds = gt_mag / dt
    norm = errors / np.maximum(gt_mag, 1e-6)
    class_values = {}
    for cls in range(4):
        sel = (mask == FD) & (classes == cls)
        if not sel.any():
            continue
        buckets = np.floor(speeds[sel] / 0.4).astype(int)
        bucket_means = [norm[sel][buckets == b].mean() for b in sorted(set(buckets))]
        class_values[metrics.ObjectClass(cls).name] = np.mean(bucket_means)
    assert set(out.per_class) == set(class_values)
    for name, expect in class_values.items():
        assert abs(out.per_class[name] - expect) < 1e-12
    assert abs(out.dynamic_mean - np.mean(list(class_values.values()))) < 1e-12
    static_expect = errors[mask != FD].mean()
    assert abs(out.static_mean - static_expect) < 1e-12


def test_bucketed_scale_covariance():
    # per-point normalized entries are scale-invariant; the table entries are
    # too as long as the scale does not move points across speed buckets, so
    # keep every speed inside bucket 0 before and after scaling
    rng = np.random.default_rng(8)
    g = rng.normal(size=(50, 3))
    g *= (0.005 / np.linalg.norm(g, axis=1))[:, None]  # |gt| = 5 mm >> 1e-6 floor
    p = g + rng.normal(size=(50, 3)) * 0.001
    mask = np.full(50, FD)
    a = metrics.bucketed_normalized_epe(flow_of(p), flow_of(g), mask, dt=0.1)
    b = metrics.bucketed_normalized_epe(flow_of(3 * p), flow_of(3 * g), mask, dt=0.1)
    for name in a.per_class:
        assert np.isclose(a.per_class[name], b.per_class[name], rtol=1e-12)


def test_bucketed_default_classes_treat_dynamic_as_car():
    gt = flow_of([[0.5, 0, 0], [0.0, 0, 0]])
    pred = flow_of([[0.6, 0, 0], [0.1, 0, 0]])
    mask = np.array([FD, BS])
    out = metrics.bucketed_normalized_epe(pred, gt, mask, dt=0.1)
    assert list(out.per_class) == ["CAR"]
    assert out.n_dynamic == 1 and out.n_static == 1


# --- dynamic IoU ---------------------------------------------------------------------


def test_iou_identical_fields():
    rng = np.random.default_rng(9)
    f = flow_of(rng.normal(size=(30, 3)))
    assert metrics.dynamic_iou(f, f) == 1.0


def test_iou_disjoint_sets():
    pred = flow_of([[1.0, 0, 0], [0.0, 0, 0]])
    gt = flow_of([[0.0, 0, 0], [1.0, 0, 0]])
    assert metrics.dynamic_iou(pred, gt) == 0.0


def test_iou_empty_union_is_one():
    zero = flow_of(np.zeros((5, 3)))
    assert metrics.dynamic_iou(zero, zero) == 1.0


def test_iou_matches_set_arithmetic():
    rng = np.random.default_rng(10)
    p = rng.normal(size=(200, 3)) * 0.08
    g = rng.normal(size=(200, 3)) * 0.08
    got = metrics.dynamic_iou(flow_of(p), flow_of(g), threshold=0.05)
    pred_set = {i for i in range(200) if np.linalg.norm(p[i]) > 0.05}
    true_set = {i for i in range(200) if np.linalg.norm(g[i]) > 0.05}
    union = pred_set | true_set
    expect = len(pred_set & true_set) / len(union) if union else 1.0
    assert got == expect


def test_iou_monotone_as_prediction_tightens():
    # nested predicted sets shrinking toward the true set never lower the IoU
    n = 50
    gt = np.zeros((n, 3))
    gt[:10, 0] = 1.0  # true dynamic: first 10
    iou_values = []
    for extra in (30, 20, 10, 0):
        pred = np.zeros((n, 3))
        pred[: 10 + extra, 0] = 1.0  # superset shrinking toward the truth
        iou_values.append(metrics.dynamic_iou(flow_of(pred), flow_of(gt)))
    assert all(b >= a for a, b in zip(iou_values, iou_values[1:]))
    assert iou_values[-1] == 1.0


def test_shape_mismatch():
    with pytest.raises(ShapeError):
        metrics.epe(flow_of(np.zeros((2, 3))), flow_of(np.zeros((3, 3))))
    with pytest.raises(ShapeError):
        metrics.threeway_epe(
            flow_of(np.zeros((2, 3))), flow_of(np.zeros((2, 3))), np.zeros(3, dtype=int)
        )


# --- report ---------------------------------------------------------------------------


def test_report_csv_roundtrip():
    rng = np.random.default_rng(11)
    p = flow_of(rng.normal(size=(50, 3)) * 0.1)
    g = flow_of(rng.normal(size=(50, 3)) * 0.1)
    mask = rng.choice([FD, BS, FS], 50)
    report = metrics.evaluate(p, g, mask, dt=0.1)
    parsed = {}
    for line in report.to_csv().splitlines()[1:]:
        name, value = line.split(",")
        parsed[name] = float(value) if value else None
    for name, value in report.rows():
        if value is None:
            assert parsed[name] is None
        else:
            assert np.isclose(parsed[name], value, rtol=1e-8)
    assert "dynamic IoU" in report.to_text()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dt", [1e-300, 5e-324, float("nan")])
def test_bucketed_refuses_dt_that_overflows_speed_buckets(dt):
    gt = flow_of([[1.0, 0.0, 0.0], [1e10, 0.0, 0.0], [0.0, 0.0, 0.0]])
    mask = np.array([FD, FD, BS])
    with pytest.raises(InvalidConfig, match="dt="):
        metrics.bucketed_normalized_epe(gt, gt, mask, dt=dt)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bucketed_tiny_dt_ignored_for_static_points():
    gt = flow_of([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    out = metrics.bucketed_normalized_epe(gt, gt, np.array([BS, FD]), dt=1e-300)
    assert out.per_class == {"CAR": 0.0}
