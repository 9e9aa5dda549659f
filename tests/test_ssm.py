import dataclasses
import tracemalloc

import numpy as np
import pytest

from sfkit import ssm
from sfkit.errors import MAX_FLOATS, InvalidConfig, NumericError, ShapeError, StateError


def make_inputs(rng, batch, length, d_inner, state, c_off):
    params = ssm.SsmParams.seeded(d_inner, state, c_off, rng)
    x = rng.normal(size=(batch, length, d_inner))
    f_off = rng.normal(size=(batch, length, c_off))
    return params, x, f_off


def token_terms(params, f_off):
    delta = ssm.softplus(f_off @ params.w_delta + params.b_delta)
    return delta, f_off @ params.w_b, f_off @ params.w_c


def two_branch_sigmoid(z):
    """Overflow-guarded logistic: 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_two_branch_form():
    rng = np.random.default_rng(20)
    z = np.concatenate([
        rng.normal(scale=5.0, size=20000),
        rng.uniform(-800.0, 800.0, size=20000),
        np.linspace(-40.0, 40.0, 8001),
        [-np.inf, -800.0, -745.0, -1e-300, 0.0, 1e-300, 745.0, 800.0, np.inf],
    ])
    got = ssm.sigmoid(z)
    assert np.abs(got - two_branch_sigmoid(z)).max() <= 1e-15
    assert np.all((got >= 0.0) & (got <= 1.0))
    assert got[z == -np.inf][0] == 0.0 and got[z == np.inf][0] == 1.0


# --- discretization -------------------------------------------------------------


def test_zoh_small_delta_approaches_identity():
    a = -np.abs(np.random.default_rng(0).normal(size=(3, 4))) - 0.1
    b = np.random.default_rng(1).normal(size=(1, 2, 4))
    for mode in ssm.ZohMode:
        disc = ssm.zoh_discretize(a, b, np.full((1, 2, 3), 1e-12), mode)
        assert np.allclose(disc.a_bar, 1.0, atol=1e-10)


def test_zoh_scalar_example():
    # a = -1, delta = ln 2  ->  a_bar = exp(-ln 2) = 0.5
    disc = ssm.zoh_discretize(
        np.array([[-1.0]]), np.array([[[1.0]]]), np.array([[[np.log(2.0)]]])
    )
    assert np.allclose(disc.a_bar, 0.5, atol=1e-15)


def test_zoh_exact_matches_closed_form():
    rng = np.random.default_rng(2)
    a = -np.abs(rng.normal(size=(2, 3))) - 0.05
    b = rng.normal(size=(1, 4, 3))
    delta = np.abs(rng.normal(size=(1, 4, 2))) + 0.01
    disc = ssm.zoh_discretize(a, b, delta, ssm.ZohMode.EXACT)
    expect = (np.exp(delta[..., None] * a) - 1.0) / a * b[:, :, None, :]
    assert np.allclose(disc.b_bar, expect, rtol=1e-12)


def test_zoh_zero_decay_uses_series_limit():
    a = np.array([[0.0, -1.0]])
    b = np.array([[[2.0, 2.0]]])
    delta = np.array([[[0.5]]])
    disc = ssm.zoh_discretize(a, b, delta, ssm.ZohMode.EXACT)
    assert np.isclose(disc.b_bar[0, 0, 0, 0], 0.5 * 2.0)  # delta * b at a = 0
    assert np.all(np.isfinite(disc.b_bar))


def test_zoh_gap_shrinks_quadratically():
    # |b_exact - b_simplified| = O(delta^2): halving delta quarters the gap
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = -rng.uniform(0.1, 2.0, size=(1, 1))
        b = rng.normal(size=(1, 1, 1))
        delta = rng.uniform(0.01, 0.1, size=(1, 1, 1))
        gaps = []
        for d in (delta, delta / 2.0):
            exact = ssm.zoh_discretize(a, b, d, ssm.ZohMode.EXACT).b_bar
            simple = ssm.zoh_discretize(a, b, d, ssm.ZohMode.SIMPLIFIED).b_bar
            gaps.append(np.abs(exact - simple).max())
        ratio = gaps[0] / gaps[1]
        assert 4.0 * 0.9 <= ratio <= 4.0 * 1.1


def expression_zoh(a, b, delta, mode):
    """zoh_discretize written as one expression per term, allocating each."""
    da = delta[..., :, None] * a
    if mode is ssm.ZohMode.SIMPLIFIED:
        return np.exp(da), delta[..., :, None] * b[..., None, :]
    factor = np.expm1(da) / np.where(a == 0.0, 1.0, a)
    factor = np.where(a == 0.0, delta[..., :, None], factor)
    return np.exp(da), factor * b[..., None, :]


@pytest.mark.parametrize("mode", list(ssm.ZohMode))
def test_zoh_out_bytes_match_allocating_call(mode):
    rng = np.random.default_rng(4)
    a = -np.exp(rng.normal(size=(5, 6)))
    a[1, 2] = 0.0  # takes the exact mode's series limit
    b = rng.normal(size=(2, 37, 6))
    delta = ssm.softplus(rng.normal(size=(2, 37, 5)))
    expect = ssm.zoh_discretize(a, b, delta, mode)
    for term, reference in zip((expect.a_bar, expect.b_bar), expression_zoh(a, b, delta, mode)):
        assert term.tobytes() == reference.tobytes()
    # Prefix views of a longer batch-2 buffer, as the layer passes them, and
    # every other token of a buffer twice as long: neither is contiguous.
    for view in (lambda buf: buf[:, :37], lambda buf: buf[:, ::2]):
        pair = [np.full((2, 74, 5, 6), np.nan) for _ in range(2)]
        out = ssm.Discretized(*(view(buf) for buf in pair))
        assert not out.a_bar.flags.c_contiguous
        got = ssm.zoh_discretize(a, b, delta, mode, out=out)
        assert got is out
        assert np.array_equal(got.a_bar, expect.a_bar)
        assert np.array_equal(got.b_bar, expect.b_bar)


def test_zoh_out_shape_mismatch_rejected():
    rng = np.random.default_rng(5)
    out = ssm.Discretized(np.empty((1, 4, 2, 3)), np.empty((1, 5, 2, 3)))
    with pytest.raises(ShapeError):
        ssm.zoh_discretize(-np.ones((2, 3)), rng.normal(size=(1, 4, 3)),
                           np.ones((1, 4, 2)), out=out)


# --- sequential scan -------------------------------------------------------------


def scalar_loop_scan(a_bar, b_bar, c, d, x, h0):
    """Naive per-element recurrence (independent oracle)."""
    batch, length, d_inner, state = a_bar.shape
    y = np.zeros((batch, length, d_inner))
    h = h0.copy()
    for bi in range(batch):
        for t in range(length):
            for di in range(d_inner):
                acc = 0.0
                for si in range(state):
                    h[bi, di, si] = (
                        a_bar[bi, t, di, si] * h[bi, di, si]
                        + b_bar[bi, t, di, si] * x[bi, t, di]
                    )
                    acc += h[bi, di, si] * c[bi, t, si]
                y[bi, t, di] = acc + d[di] * x[bi, t, di]
    return y, h


def test_scan_memoryless_when_abar_zero():
    rng = np.random.default_rng(4)
    batch, length, d_inner, state = 1, 6, 3, 4
    b_bar = rng.normal(size=(batch, length, d_inner, state))
    c = rng.normal(size=(batch, length, state))
    d = rng.normal(size=(d_inner,))
    x = rng.normal(size=(batch, length, d_inner))
    disc = ssm.Discretized(a_bar=np.zeros_like(b_bar), b_bar=b_bar)
    y, _ = ssm.scan_sequential(disc, c, d, x, rng.normal(size=(batch, d_inner, state)))
    expect = np.einsum("blds,bld,bls->bld", b_bar, x, c) + d * x
    assert np.allclose(y, expect, atol=1e-14)


def test_scan_single_step_closed_form():
    rng = np.random.default_rng(5)
    params, x, f_off = make_inputs(rng, 2, 1, 3, 4, 2)
    delta, b_tok, c_tok = token_terms(params, f_off)
    disc = ssm.zoh_discretize(params.a, b_tok, delta, ssm.ZohMode.SIMPLIFIED)
    h0 = np.zeros((2, 3, 4))
    y, h = ssm.scan_sequential(disc, c_tok, params.d, x, h0)
    expect = (
        np.einsum("bds,bs->bd", disc.b_bar[:, 0] * x[:, 0, :, None], c_tok[:, 0])
        + params.d * x[:, 0]
    )
    assert np.allclose(y[:, 0], expect, atol=1e-14)
    assert np.allclose(h, disc.b_bar[:, 0] * x[:, 0, :, None], atol=1e-14)


def test_scan_matches_scalar_loop_oracle():
    rng = np.random.default_rng(6)
    params, x, f_off = make_inputs(rng, 2, 64, 4, 8, 3)
    delta, b_tok, c_tok = token_terms(params, f_off)
    disc = ssm.zoh_discretize(params.a, b_tok, delta, ssm.ZohMode.SIMPLIFIED)
    h0 = rng.normal(size=(2, 4, 8))
    y, h = ssm.scan_sequential(disc, c_tok, params.d, x, h0)
    y_ref, h_ref = scalar_loop_scan(disc.a_bar, disc.b_bar, c_tok, params.d, x, h0)
    assert np.max(np.abs(y - y_ref)) < 1e-12
    assert np.max(np.abs(h - h_ref)) < 1e-12


def test_scan_shape_errors():
    rng = np.random.default_rng(7)
    params, x, f_off = make_inputs(rng, 1, 4, 3, 4, 2)
    delta, b_tok, c_tok = token_terms(params, f_off)
    disc = ssm.zoh_discretize(params.a, b_tok, delta)
    with pytest.raises(ShapeError):
        ssm.scan_sequential(disc, c_tok, params.d, x[:, :, :2], np.zeros((1, 3, 4)))
    with pytest.raises(ShapeError):
        ssm.scan_sequential(disc, c_tok, params.d, x, np.zeros((1, 3, 5)))


def test_scan_numeric_error_names_token():
    rng = np.random.default_rng(8)
    params, x, f_off = make_inputs(rng, 1, 5, 2, 2, 2)
    delta, b_tok, c_tok = token_terms(params, f_off)
    disc = ssm.zoh_discretize(params.a, b_tok, delta)
    x = x.copy()
    x[0, 3, 0] = np.inf
    with pytest.raises(NumericError) as err:
        ssm.scan_sequential(disc, c_tok, params.d, x, np.zeros((1, 2, 2)))
    assert err.value.index == 3


# --- blocked scan ----------------------------------------------------------------


@pytest.mark.parametrize("length", [1, 2, 255, 4096])
def test_blocked_equals_sequential(length):
    rng = np.random.default_rng(length)
    params, x, f_off = make_inputs(rng, 2, length, 4, 8, 3)
    delta, b_tok, c_tok = token_terms(params, f_off)
    disc = ssm.zoh_discretize(params.a, b_tok, delta, ssm.ZohMode.SIMPLIFIED)
    h0 = rng.normal(size=(2, 4, 8))
    y_seq, h_seq = ssm.scan_sequential(disc, c_tok, params.d, x, h0)
    y_blk, h_blk = ssm.scan_blocked(disc, c_tok, params.d, x, h0, block_size=64)
    scale = max(np.abs(y_seq).max(), 1.0)
    assert np.abs(y_seq - y_blk).max() <= 1e-10 * scale
    assert np.abs(h_seq - h_blk).max() <= 1e-10 * max(np.abs(h_seq).max(), 1.0)


def test_blocked_degenerates_to_sequential_exactly():
    rng = np.random.default_rng(9)
    params, x, f_off = make_inputs(rng, 1, 37, 3, 5, 2)
    delta, b_tok, c_tok = token_terms(params, f_off)
    disc = ssm.zoh_discretize(params.a, b_tok, delta)
    h0 = rng.normal(size=(1, 3, 5))
    y_seq, h_seq = ssm.scan_sequential(disc, c_tok, params.d, x, h0)
    y_blk, h_blk = ssm.scan_blocked(disc, c_tok, params.d, x, h0, block_size=64)
    assert np.array_equal(y_seq, y_blk)
    assert np.array_equal(h_seq, h_blk)


def test_blocked_empty_sequence():
    disc = ssm.Discretized(
        a_bar=np.zeros((2, 0, 3, 4)), b_bar=np.zeros((2, 0, 3, 4))
    )
    h0 = np.random.default_rng(10).normal(size=(2, 3, 4))
    y, h = ssm.scan_blocked(disc, np.zeros((2, 0, 4)), np.zeros(3), np.zeros((2, 0, 3)), h0)
    assert y.shape == (2, 0, 3)
    assert np.array_equal(h, h0)


def test_blocked_deterministic_per_block_size():
    rng = np.random.default_rng(11)
    params, x, f_off = make_inputs(rng, 1, 200, 4, 4, 3)
    delta, b_tok, c_tok = token_terms(params, f_off)
    disc = ssm.zoh_discretize(params.a, b_tok, delta)
    h0 = np.zeros((1, 4, 4))
    runs = [
        ssm.scan_blocked(disc, c_tok, params.d, x, h0, block_size=32)[0]
        for _ in range(2)
    ]
    assert np.array_equal(runs[0], runs[1])


# --- flow layer ------------------------------------------------------------------


def test_flow_layer_constant_parameter_reduction():
    # zero offsets + zero delta-bias: every token shares (delta, B, C); the
    # layer must equal a plain scan with those constants
    rng = np.random.default_rng(12)
    d_inner, state, c_off, length = 4, 6, 3, 20
    params = ssm.SsmParams.seeded(d_inner, state, c_off, rng)
    params = dataclasses.replace(params, b_delta=np.zeros(d_inner))
    x = rng.normal(size=(1, length, d_inner))
    f_off = np.zeros((1, length, c_off))

    refined, h = ssm.flow_ssm_layer(x, f_off, params)

    delta = np.full((1, length, d_inner), ssm.softplus(0.0))
    b_tok = np.zeros((1, length, state))
    c_tok = np.zeros((1, length, state))
    disc = ssm.zoh_discretize(params.a, b_tok, delta, ssm.ZohMode.SIMPLIFIED)
    expect, h_expect = ssm.scan_sequential(disc, c_tok, params.d, x, np.zeros((1, d_inner, state)))
    assert np.allclose(refined, expect, atol=1e-12)
    assert np.allclose(h, h_expect, atol=1e-12)


def test_flow_layer_zero_input_zero_output():
    rng = np.random.default_rng(13)
    params = ssm.SsmParams.seeded(3, 4, 2, rng)
    f_off = rng.normal(size=(1, 10, 2))
    refined, _ = ssm.flow_ssm_layer(np.zeros((1, 10, 3)), f_off, params)
    assert np.array_equal(refined, np.zeros((1, 10, 3)))


def test_flow_layer_causality():
    rng = np.random.default_rng(14)
    params, x, f_off = make_inputs(rng, 1, 30, 4, 4, 3)
    base, _ = ssm.flow_ssm_layer(x, f_off, params)
    k = 11
    bumped = f_off.copy()
    bumped[0, k] += 0.5
    out, _ = ssm.flow_ssm_layer(x, bumped, params)
    diff = np.abs(out - base).max(axis=(0, 2))
    assert np.all(diff[:k] == 0.0)
    assert diff[k] > 0.0


def test_flow_layer_shape_errors():
    rng = np.random.default_rng(15)
    params = ssm.SsmParams.seeded(4, 4, 3, rng)
    with pytest.raises(ShapeError):
        ssm.flow_ssm_layer(np.zeros((1, 5, 4)), np.zeros((1, 5, 2)), params)
    with pytest.raises(ShapeError):
        ssm.flow_ssm_layer(np.zeros((1, 5, 3)), np.zeros((1, 5, 3)), params)


def test_flow_layer_linearity_in_x():
    rng = np.random.default_rng(16)
    params = ssm.SsmParams.seeded(4, 5, 3, rng)
    f_off = rng.normal(size=(1, 25, 3))
    x1 = rng.normal(size=(1, 25, 4))
    x2 = rng.normal(size=(1, 25, 4))
    alpha, beta = 0.7, -1.3
    combined, _ = ssm.flow_ssm_layer(alpha * x1 + beta * x2, f_off, params)
    y1, _ = ssm.flow_ssm_layer(x1, f_off, params)
    y2, _ = ssm.flow_ssm_layer(x2, f_off, params)
    scale = max(np.abs(combined).max(), 1.0)
    assert np.abs(combined - (alpha * y1 + beta * y2)).max() <= 1e-10 * scale


def test_hidden_state_stability_bound():
    rng = np.random.default_rng(17)
    params, x, f_off = make_inputs(rng, 1, 200, 4, 4, 3)
    run = ssm.flow_ssm_forward(x, f_off, params, keep_intermediates=True)
    delta, b_tok, _ = token_terms(params, f_off)
    disc = ssm.zoh_discretize(params.a, b_tok, delta, ssm.ZohMode.SIMPLIFIED)
    drive = np.abs(disc.b_bar * x[..., None]).max()
    a_max = disc.a_bar.max()
    bound = 0.0 + drive / (1.0 - a_max)  # h0 = 0
    assert np.abs(run.h_states).max() <= bound + 1e-9


# --- adjoint ---------------------------------------------------------------------


def test_backward_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(18)
    params, x, f_off = make_inputs(rng, 1, 8, 3, 4, 2)
    run = ssm.flow_ssm_forward(x, f_off, params, keep_intermediates=True)
    grads = ssm.ssm_backward(run, np.zeros_like(run.refined))
    for name in ("x", "f_offset", "a_log", "d", "w_delta", "b_delta", "w_b", "w_c"):
        assert np.array_equal(getattr(grads, name), np.zeros_like(getattr(grads, name)))


def test_backward_requires_recorded_run():
    rng = np.random.default_rng(19)
    params, x, f_off = make_inputs(rng, 1, 4, 2, 2, 2)
    run = ssm.flow_ssm_forward(x, f_off, params)
    with pytest.raises(StateError):
        ssm.ssm_backward(run, np.zeros_like(run.refined))


def test_backward_scalar_case_matches_symbolic_derivation():
    sympy = pytest.importorskip("sympy")
    # L = 2, D = S = 1, one offset channel: differentiate the closed form
    # symbolically and compare against the adjoint.
    wd, bd, wb, wc, al, dskip = sympy.symbols("wd bd wb wc al dskip", real=True)
    o1, o2, x1, x2, g1, g2 = sympy.symbols("o1 o2 x1 x2 g1 g2", real=True)

    def sp(z):
        return sympy.log(1 + sympy.exp(z))

    a = -sympy.exp(al)
    d1, d2 = sp(wd * o1 + bd), sp(wd * o2 + bd)
    b1, b2 = wb * o1, wb * o2
    c1, c2 = wc * o1, wc * o2
    h1 = sympy.exp(d1 * a) * 0 + d1 * b1 * x1
    h2 = sympy.exp(d2 * a) * h1 + d2 * b2 * x2
    y1 = c1 * h1 + dskip * x1
    y2 = c2 * h2 + dskip * x2
    loss = g1 * y1 + g2 * y2

    values = {
        wd: 0.37, bd: -0.21, wb: 0.83, wc: -0.55, al: 0.11, dskip: 0.29,
        o1: 0.61, o2: -0.47, x1: 1.3, x2: -0.9, g1: 0.7, g2: -1.1,
    }
    params = ssm.SsmParams(
        a_log=np.array([[values[al]]]),
        d=np.array([values[dskip]]),
        w_delta=np.array([[values[wd]]]),
        b_delta=np.array([values[bd]]),
        w_b=np.array([[values[wb]]]),
        w_c=np.array([[values[wc]]]),
    )
    x = np.array([[[values[x1]], [values[x2]]]])
    f_off = np.array([[[values[o1]], [values[o2]]]])
    gy = np.array([[[values[g1]], [values[g2]]]])

    run = ssm.flow_ssm_forward(x, f_off, params, keep_intermediates=True)
    grads = ssm.ssm_backward(run, gy)

    checks = {
        "w_delta": wd, "b_delta": bd, "w_b": wb, "w_c": wc, "a_log": al, "d": dskip,
    }
    for name, symbol in checks.items():
        expect = float(sympy.diff(loss, symbol).subs(values))
        got = float(np.asarray(getattr(grads, name)).ravel()[0])
        assert got == pytest.approx(expect, rel=1e-10, abs=1e-12), name
    for name, symbol, got in (
        ("x1", x1, grads.x[0, 0, 0]),
        ("x2", x2, grads.x[0, 1, 0]),
        ("o1", o1, grads.f_offset[0, 0, 0]),
        ("o2", o2, grads.f_offset[0, 1, 0]),
    ):
        expect = float(sympy.diff(loss, symbol).subs(values))
        assert got == pytest.approx(expect, rel=1e-10, abs=1e-12), name


def central_difference(loss_fn, arr, h=1e-6):
    grad = np.zeros_like(arr)
    for i in range(arr.size):
        plus, minus = arr.copy(), arr.copy()
        plus.flat[i] += h
        minus.flat[i] -= h
        grad.flat[i] = (loss_fn(plus) - loss_fn(minus)) / (2.0 * h)
    return grad


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(20)
    params, x, f_off = make_inputs(rng, 1, 16, 4, 5, 3)
    gy = rng.normal(size=x.shape)
    run = ssm.flow_ssm_forward(x, f_off, params, keep_intermediates=True)
    grads = ssm.ssm_backward(run, gy)

    def rel_err(analytic, numeric):
        return np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-10)

    for name in ("a_log", "d", "w_delta", "b_delta", "w_b", "w_c"):
        def loss_fn(arr, name=name):
            p = dataclasses.replace(params, **{name: arr})
            refined, _ = ssm.flow_ssm_layer(x, f_off, p)
            return float((gy * refined).sum())

        fd = central_difference(loss_fn, getattr(params, name))
        assert rel_err(getattr(grads, name), fd) < 1e-5, name

    fd_x = central_difference(
        lambda arr: float((gy * ssm.flow_ssm_layer(arr, f_off, params)[0]).sum()), x
    )
    assert rel_err(grads.x, fd_x) < 1e-5
    fd_off = central_difference(
        lambda arr: float((gy * ssm.flow_ssm_layer(x, arr, params)[0]).sum()), f_off
    )
    assert rel_err(grads.f_offset, fd_off) < 1e-5


# --- streamed engine ---------------------------------------------------------------


def one_shot_layer(x, f_off, params, h0, mode, block_size):
    """The layer as one full-length pass: every (L, D, S) term materialized at
    once, padded by concatenation.  Returns (y, h_final, states or None)."""
    delta, b_tok, c_tok = token_terms(params, f_off)
    disc = ssm.zoh_discretize(params.a, b_tok, delta, mode)
    batch, length, d_inner, state = disc.a_bar.shape
    if length == 0:
        return np.empty(x.shape), h0, None
    if length <= block_size:
        y, h = ssm.scan_sequential(disc, c_tok, params.d, x, h0)
        return y, h, None
    a, u = disc.a_bar, disc.b_bar * x[..., None]
    n_blocks = -(-length // block_size)
    pad = n_blocks * block_size - length
    a = np.concatenate([a, np.ones((batch, pad, d_inner, state))], axis=1)
    u = np.concatenate([u, np.zeros((batch, pad, d_inner, state))], axis=1)
    a = a.reshape(batch, n_blocks, block_size, d_inner, state)
    u = u.reshape(batch, n_blocks, block_size, d_inner, state)
    a_pref, u_pref = a.copy(), u.copy()
    for k in range(1, block_size):
        a_pref[:, :, k] = a[:, :, k] * a_pref[:, :, k - 1]
        u_pref[:, :, k] = a[:, :, k] * u_pref[:, :, k - 1] + u[:, :, k]
    h_enter = np.empty((batch, n_blocks, d_inner, state))
    h_enter[:, 0] = h0
    for i in range(1, n_blocks):
        h_enter[:, i] = a_pref[:, i - 1, -1] * h_enter[:, i - 1] + u_pref[:, i - 1, -1]
    h = (a_pref * h_enter[:, :, None] + u_pref).reshape(batch, -1, d_inner, state)[:, :length]
    y = np.einsum("blds,bls->bld", h, c_tok) + params.d * x
    return y, h[:, -1].copy(), h


def chunk_tokens(block_size):
    return max(2, -(-ssm.SCAN_CHUNK // block_size)) * block_size


def stream_lengths(block_size):
    c, b = chunk_tokens(block_size), block_size
    return [0, 1, b, b + 1, c - 1, c, c + 1, c + b, c + b + 1, 3 * c + 5]


@pytest.mark.parametrize("block_size", [64, 48])
@pytest.mark.parametrize("mode", list(ssm.ZohMode))
def test_streamed_layer_byte_identical_to_one_shot(block_size, mode):
    for length in stream_lengths(block_size):
        rng = np.random.default_rng(length)
        params, x, f_off = make_inputs(rng, 2, length, 3, 4, 2)
        h0 = rng.normal(size=(2, 3, 4))
        y_ref, h_ref, _ = one_shot_layer(x, f_off, params, h0, mode, block_size)
        y, h = ssm.flow_ssm_layer(x, f_off, params, h0, mode, block_size)
        assert np.array_equal(y, y_ref), length
        assert np.array_equal(h, h_ref), length


def test_chunk_bounds_tile_whole_blocks():
    for block_size in (1, 7, 64, 1000, 5000):
        chunk = chunk_tokens(block_size)
        for length in stream_lengths(block_size) + [2 * chunk + block_size]:
            bounds = ssm._chunk_bounds(length, block_size)
            edges = [0] + [stop for _, stop in bounds]
            assert [start for start, _ in bounds] == edges[:-1]
            assert edges[-1] == length
            for start, stop in bounds:
                assert start % block_size == 0
                assert stop - start <= chunk + block_size
                # only a sequence of one block or less is scanned as one short chunk
                assert stop - start > block_size or length <= block_size


@pytest.mark.parametrize("mode", list(ssm.ZohMode))
def test_recorded_run_matches_streamed_run(mode):
    block_size = 64
    for length in stream_lengths(block_size):
        rng = np.random.default_rng(length + 1)
        params, x, f_off = make_inputs(rng, 1, length, 3, 4, 2)
        h0 = rng.normal(size=(1, 3, 4))
        run = ssm.flow_ssm_forward(x, f_off, params, h0, mode, keep_intermediates=True)
        streamed = ssm.flow_ssm_forward(x, f_off, params, h0, mode)
        assert np.array_equal(run.refined, streamed.refined), length
        assert np.array_equal(run.h_final, streamed.h_final), length
        delta, b_tok, _ = token_terms(params, f_off)
        a_bar = ssm.zoh_discretize(params.a, b_tok, delta, mode).a_bar
        assert np.array_equal(run.a_bar, a_bar), length
        _, _, states = one_shot_layer(x, f_off, params, h0, mode, block_size)
        if states is not None:
            assert np.array_equal(run.h_states, states), length


def test_backward_unchanged_against_one_shot_record():
    rng = np.random.default_rng(30)
    length = chunk_tokens(64) + 70
    params, x, f_off = make_inputs(rng, 1, length, 3, 4, 2)
    h0 = rng.normal(size=(1, 3, 4))
    gy = rng.normal(size=x.shape)
    run = ssm.flow_ssm_forward(x, f_off, params, h0, keep_intermediates=True)

    z_delta = f_off @ params.w_delta + params.b_delta
    delta, b_tok, c_tok = token_terms(params, f_off)
    y, h_final, states = one_shot_layer(x, f_off, params, h0, ssm.ZohMode.SIMPLIFIED, 64)
    reference = ssm.FlowSsmRun(
        refined=y, h_final=h_final, mode=ssm.ZohMode.SIMPLIFIED,
        inputs=(x, f_off, params, h0), z_delta=z_delta, delta=delta,
        b_tokens=b_tok, c_tokens=c_tok,
        a_bar=ssm.zoh_discretize(params.a, b_tok, delta).a_bar, h_states=states,
    )
    got, expect = ssm.ssm_backward(run, gy), ssm.ssm_backward(reference, gy)
    for field in dataclasses.fields(got):
        assert np.array_equal(getattr(got, field.name), getattr(expect, field.name)), field.name


@pytest.mark.parametrize("keep", [False, True])
def test_numeric_error_in_third_chunk_names_global_token(keep):
    rng = np.random.default_rng(31)
    chunk = chunk_tokens(64)
    params, x, f_off = make_inputs(rng, 1, 3 * chunk + 5, 3, 4, 2)
    bad = 2 * chunk + 17
    x = x.copy()
    x[0, bad, 1] = np.inf
    with pytest.raises(NumericError) as err:
        ssm.flow_ssm_forward(x, f_off, params, keep_intermediates=keep)
    assert err.value.index == bad


def test_streamed_layer_memory_is_bounded():
    rng = np.random.default_rng(32)
    length, d_inner, state, c_off = 32_400, 32, 16, 16
    params = ssm.SsmParams.seeded(d_inner, state, c_off, rng)
    x = rng.normal(size=(1, length, d_inner))
    f_off = rng.normal(size=(1, length, c_off))
    tracemalloc.start()
    try:
        ssm.flow_ssm_layer(x, f_off, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One full-length (L, D, S) float64 term alone is 133 MB here.
    assert peak < 150e6, f"peak {peak / 1e6:.0f} MB"


@pytest.mark.parametrize("mode", list(ssm.ZohMode))
def test_streamed_layer_bytes_at_pipeline_widths(mode):
    # D = 32, S = 16, C_off = 16 as in the decoder: BLAS takes other kernels
    # here than at the small widths above.  Per-chunk projections must round
    # like full-length ones, and the recorded run must match the streamed one.
    block_size = 64
    length = 3 * chunk_tokens(block_size) + 5
    rng = np.random.default_rng(33)
    params, x, f_off = make_inputs(rng, 1, length, 32, 16, 16)
    h0 = rng.normal(size=(1, 32, 16))
    run = ssm.flow_ssm_forward(x, f_off, params, h0, mode, keep_intermediates=True)
    streamed = ssm.flow_ssm_forward(x, f_off, params, h0, mode)
    assert np.array_equal(run.refined, streamed.refined)
    assert np.array_equal(run.h_final, streamed.h_final)
    delta, b_tok, c_tok = token_terms(params, f_off)
    for got, expect in ((run.delta, delta), (run.b_tokens, b_tok), (run.c_tokens, c_tok)):
        assert np.array_equal(got, expect)
    y_ref, h_ref, _ = one_shot_layer(x, f_off, params, h0, mode, block_size)
    assert np.array_equal(streamed.refined, y_ref)
    assert np.array_equal(streamed.h_final, h_ref)


def test_streamed_layer_memory_is_bounded_by_one_chunk():
    rng = np.random.default_rng(32)
    length, d_inner, state, c_off = 32_400, 32, 16, 16
    params = ssm.SsmParams.seeded(d_inner, state, c_off, rng)
    x = rng.normal(size=(1, length, d_inner))
    f_off = rng.normal(size=(1, length, c_off))
    tracemalloc.start()
    try:
        ssm.flow_ssm_layer(x, f_off, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The output, plus a few (D, S) terms of the longest chunk (a chunk and
    # a tail of at most one block); no full-length projection is alive.
    longest = ssm.SCAN_CHUNK + ssm.DEFAULT_BLOCK_SIZE
    bound = length * d_inner * 8 + 5 * longest * d_inner * state * 8
    assert peak <= bound, f"peak {peak / 1e6:.1f} MB > {bound / 1e6:.1f} MB"


def test_layer_memory_does_not_grow_with_a_block_longer_than_the_sequence():
    rng = np.random.default_rng(38)
    params, x, f_off = make_inputs(rng, 1, 30, 32, 16, 16)
    expect = ssm.flow_ssm_layer(x, f_off, params, block_size=30)
    tracemalloc.start()
    try:
        got = ssm.flow_ssm_layer(x, f_off, params, block_size=20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One (D, S) term pair padded to 20,000 tokens would be 164 MB.
    assert peak <= 1e6, f"peak {peak / 1e6:.1f} MB"
    assert np.array_equal(got[0], expect[0]) and np.array_equal(got[1], expect[1])


def test_scan_workspace_above_max_floats_is_refused_before_it_is_allocated():
    # One 1024-token chunk at D = 128, S = 65: the term pair is 2*1024*128*65
    # floats, just above MAX_FLOATS, so a missing check allocates ~136 MB.
    rng = np.random.default_rng(39)
    params, x, f_off = make_inputs(rng, 1, 1024, 128, 65, 4)
    assert 2 * 1024 * 128 * 65 > MAX_FLOATS
    tracemalloc.start()
    try:
        with pytest.raises(InvalidConfig, match="channels, state_size and block_size") as err:
            ssm.flow_ssm_layer(x, f_off, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "got 17039360 for 1024 tokens" in str(err.value)
    assert peak <= 8e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("block_size", [64, 48])
@pytest.mark.parametrize("mode", list(ssm.ZohMode))
def test_in_place_layer_bytes_match_out_of_place(block_size, mode):
    for length in stream_lengths(block_size):
        rng = np.random.default_rng(length)
        params, x, f_off = make_inputs(rng, 2, length, 3, 4, 2)
        h0 = rng.normal(size=(2, 3, 4))
        y, h = ssm.flow_ssm_layer(x, f_off, params, h0, mode, block_size)
        buf = x.copy()
        got, h_in = ssm.flow_ssm_layer(buf, f_off, params, h0, mode, block_size, out=buf)
        assert got is buf, length
        assert np.array_equal(buf, y), length
        assert np.array_equal(h_in, h), length


def test_recorded_run_refuses_an_out_that_overwrites_its_input():
    rng = np.random.default_rng(35)
    params, x, f_off = make_inputs(rng, 1, 200, 3, 4, 2)
    for out in (x, x[:, ::-1]):
        with pytest.raises(StateError):
            ssm.flow_ssm_forward(x, f_off, params, keep_intermediates=True, out=out)
    with pytest.raises(ShapeError):
        ssm.flow_ssm_forward(x, f_off, params, out=np.empty((1, 199, 3)))
    out = np.empty_like(x)
    run = ssm.flow_ssm_forward(x, f_off, params, keep_intermediates=True, out=out)
    assert run.refined is out
    assert np.array_equal(out, ssm.flow_ssm_layer(x, f_off, params)[0])


def test_in_place_numeric_error_in_third_chunk_names_global_token():
    rng = np.random.default_rng(31)
    chunk = chunk_tokens(64)
    params, x, f_off = make_inputs(rng, 1, 3 * chunk + 5, 3, 4, 2)
    bad = 2 * chunk + 17
    x[0, bad, 1] = np.inf
    with pytest.raises(NumericError) as err:
        ssm.flow_ssm_layer(x, f_off, params, out=x)
    assert err.value.index == bad


def test_layer_discretizes_each_chunk_into_the_block_major_workspace(monkeypatch):
    seen = []
    discretize = ssm.zoh_discretize

    def spy(a, b, delta, mode=ssm.ZohMode.EXACT, out=None):
        seen.append(out)
        return discretize(a, b, delta, mode, out)

    monkeypatch.setattr(ssm, "zoh_discretize", spy)
    rng = np.random.default_rng(36)
    chunk = chunk_tokens(64)
    params, x, f_off = make_inputs(rng, 1, 2 * chunk + 70, 3, 4, 2)
    ssm.flow_ssm_layer(x, f_off, params)
    n_blocks = chunk // 64
    assert [out.a_bar.shape for out in seen] == [(1, 64, n_blocks, 3, 4)] * 2 + [(1, 64, 2, 3, 4)]
    first = seen[0].a_bar
    for out in seen:
        assert np.shares_memory(out.a_bar, first) and np.shares_memory(out.b_bar, seen[0].b_bar)


@pytest.mark.parametrize("length", [0, 1, 47, 48, 49, 96, 130])
def test_scan_blocked_block_major_terms_match_token_order(length):
    rng = np.random.default_rng(37)
    params, x, f_off = make_inputs(rng, 2, length, 3, 4, 2)
    delta, b_tok, c_tok = token_terms(params, f_off)
    h0 = rng.normal(size=(2, 3, 4))
    expect_states, got_states = np.empty((2, 2, length, 3, 4))
    tokens = ssm.zoh_discretize(params.a, b_tok, delta)
    before = (tokens.a_bar.copy(), tokens.b_bar.copy())
    expect = ssm.scan_blocked(tokens, c_tok, params.d, x, h0, 48, states=expect_states)
    # The block-major copy of a whole number of blocks is made from a view,
    # so only the copy protects the caller's terms from the scan.
    assert np.array_equal(tokens.a_bar, before[0]) and np.array_equal(tokens.b_bar, before[1])
    blocked = ssm.zoh_discretize(params.a, ssm._by_block(b_tok, 48), ssm._by_block(delta, 48))
    got = ssm.scan_blocked(blocked, c_tok, params.d, x, h0, 48, states=got_states)
    assert np.array_equal(got[0], expect[0])
    assert np.array_equal(got[1], expect[1])
    assert np.array_equal(got_states, expect_states)
    if length > 48:
        short = ssm.Discretized(blocked.a_bar[:, :, :-1], blocked.b_bar[:, :, :-1])
        with pytest.raises(ShapeError):
            ssm.scan_blocked(short, c_tok, params.d, x, h0, 48)
