"""Selective state-space machinery.

The recurrence is h_t = Abar_t * h_{t-1} + Bbar_t * x_t with readout
y_t = C_t . h_t + D * x_t, where the per-token parameters (Delta, B, C) are
linear projections of offset features and A is diagonal per channel (stored
as log-negatives so the decay stays strictly inside the unit interval).

One scan engine streams the sequence in chunks of whole blocks and, within a
chunk, exploits the associative composition
(a2, b2) o (a1, b1) = (a2*a1, a2*b1 + b2) to vectorize across blocks; the
hidden state is carried from chunk to chunk.  A plain left-to-right loop with
the same contract is the oracle.  An adjoint pass provides exact gradients
for finite-difference verification.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericError, ShapeError, StateError
from .weights import uniform_init

DEFAULT_BLOCK_SIZE = 64
# Tokens per streamed scan chunk, rounded up to whole blocks.  Only one chunk
# of (D, S) scan terms is alive at a time, so scan memory is O(chunk * D * S).
# Short chunks pay per-call overhead and long ones fall out of cache: at
# L = 32.4k, D = 32, S = 16 on a 2-core x86 VM, 512-1024 tokens ran fastest.
SCAN_CHUNK = 1024


class ZohMode(str, Enum):
    """Discretization flavor: exact zero-order hold or the product shortcut."""

    EXACT = "exact"
    SIMPLIFIED = "simplified"


def softplus(z):
    return np.logaddexp(0.0, z)


def sigmoid(z):
    # The tanh form needs no overflow guard, so no masked two-branch split.
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=np.float64)))


@dataclass(frozen=True)
class SsmParams:
    """Per-layer parameters of the offset-conditioned scan.

    a_log: (D, S) log-magnitudes; the state decay matrix is -exp(a_log).
    d: (D,) skip gains.  w_delta/b_delta, w_b, w_c: projections from offset
    feature channels to the per-token step size, input gate and output gate.
    """

    a_log: np.ndarray
    d: np.ndarray
    w_delta: np.ndarray
    b_delta: np.ndarray
    w_b: np.ndarray
    w_c: np.ndarray

    def __post_init__(self):
        d_inner, s = self.a_log.shape
        if self.d.shape != (d_inner,):
            raise ShapeError(f"d must be ({d_inner},), got {self.d.shape}")
        c_off = self.w_delta.shape[0]
        if self.w_delta.shape != (c_off, d_inner) or self.b_delta.shape != (d_inner,):
            raise ShapeError("delta projection shapes inconsistent with a_log")
        if self.w_b.shape != (c_off, s) or self.w_c.shape != (c_off, s):
            raise ShapeError("B/C projection shapes inconsistent with a_log")
        for name in ("a_log", "d", "w_delta", "b_delta", "w_b", "w_c"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise NumericError(f"non-finite entries in {name}")

    @property
    def d_inner(self):
        return self.a_log.shape[0]

    @property
    def state_size(self):
        return self.a_log.shape[1]

    @property
    def n_offset_channels(self):
        return self.w_delta.shape[0]

    @property
    def a(self):
        """State decay matrix, strictly negative by construction."""
        return -np.exp(self.a_log)

    @classmethod
    def seeded(cls, d_inner, state_size, n_offset_channels, rng):
        return cls(
            a_log=uniform_init(rng, (d_inner, state_size)),
            d=uniform_init(rng, (d_inner,)),
            w_delta=uniform_init(rng, (n_offset_channels, d_inner)),
            b_delta=uniform_init(rng, (d_inner,)),
            w_b=uniform_init(rng, (n_offset_channels, state_size)),
            w_c=uniform_init(rng, (n_offset_channels, state_size)),
        )

    @classmethod
    def zeros(cls, d_inner, state_size, n_offset_channels):
        return cls(
            a_log=np.zeros((d_inner, state_size)),
            d=np.zeros(d_inner),
            w_delta=np.zeros((n_offset_channels, d_inner)),
            b_delta=np.zeros(d_inner),
            w_b=np.zeros((n_offset_channels, state_size)),
            w_c=np.zeros((n_offset_channels, state_size)),
        )


@dataclass(frozen=True)
class Discretized:
    """Per-token discretized transition (a_bar) and input (b_bar) terms.

    Both are (..., D, S); with delta > 0 and a < 0 every a_bar entry lies in
    (0, 1).
    """

    a_bar: np.ndarray
    b_bar: np.ndarray


def zoh_discretize(a, b, delta, mode=ZohMode.EXACT):
    """Discretize diagonal-per-channel dynamics via zero-order hold.

    a: (D, S) strictly the continuous decay; b: (..., S) per-token input
    projection; delta: (..., D) positive step sizes.  EXACT uses
    a_bar = exp(delta a), b_bar = (exp(delta a) - 1)/a * b with the series
    limit delta*b at a = 0; SIMPLIFIED replaces b_bar by delta * b.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    da = delta[..., :, None] * a  # (..., D, S)
    a_bar = np.exp(da)
    if ZohMode(mode) is ZohMode.SIMPLIFIED:
        b_bar = delta[..., :, None] * b[..., None, :]
    else:
        safe_a = np.where(a == 0.0, 1.0, a)
        factor = np.expm1(da) / safe_a  # -> delta as a -> 0
        factor = np.where(
            np.broadcast_to(a == 0.0, factor.shape),
            np.broadcast_to(delta[..., :, None], factor.shape),
            factor,
        )
        b_bar = factor * b[..., None, :]
    return Discretized(a_bar=a_bar, b_bar=b_bar)


def _check_scan_shapes(disc, c, d, x, h0):
    a_bar, b_bar = disc.a_bar, disc.b_bar
    if a_bar.shape != b_bar.shape or a_bar.ndim != 4:
        raise ShapeError(
            f"discretized terms must be (batch, L, D, S); got {a_bar.shape} / {b_bar.shape}"
        )
    batch, length, d_inner, state = a_bar.shape
    if x.shape != (batch, length, d_inner):
        raise ShapeError(f"x must be {(batch, length, d_inner)}, got {x.shape}")
    if c.shape != (batch, length, state):
        raise ShapeError(f"C must be {(batch, length, state)}, got {c.shape}")
    if d.shape != (d_inner,):
        raise ShapeError(f"D must be ({d_inner},), got {d.shape}")
    if h0.shape != (batch, d_inner, state):
        raise ShapeError(f"h0 must be {(batch, d_inner, state)}, got {h0.shape}")
    return batch, length, d_inner, state


def scan_sequential(disc, c, d, x, h0, states=None):
    """Exact left-to-right recurrence. Returns (y, h_final).

    When ``states`` is a (batch, L, D, S) array, every per-token hidden state
    is written into it.
    """
    c = np.asarray(c, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    h0 = np.asarray(h0, dtype=np.float64)
    batch, length, d_inner, _ = _check_scan_shapes(disc, c, d, x, h0)
    y = np.empty((batch, length, d_inner))
    h = h0.copy()
    for t in range(length):
        h = disc.a_bar[:, t] * h + disc.b_bar[:, t] * x[:, t, :, None]
        if not np.all(np.isfinite(h)):
            raise NumericError("non-finite hidden state", index=t)
        if states is not None:
            states[:, t] = h
        y[:, t] = np.einsum("bds,bs->bd", h, c[:, t]) + d * x[:, t]
    return y, h


def scan_blocked(disc, c, d, x, h0, block_size=DEFAULT_BLOCK_SIZE, states=None):
    """Blocked scan with identical contract to scan_sequential.

    Streams the sequence in chunks of whole blocks, carrying the hidden state
    from one chunk to the next, so only one chunk's (D, S) terms are alive at
    a time.  Within a chunk it forms within-block prefix composites of the
    transition pairs (vectorized across blocks), carries the state across
    block boundaries, then reconstructs every per-token state.  Degenerates to
    the sequential path when one block covers the whole sequence.  ``states``
    is filled as in scan_sequential.
    """
    c = np.asarray(c, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    h0 = np.asarray(h0, dtype=np.float64)
    batch, length, d_inner, state = _check_scan_shapes(disc, c, d, x, h0)
    chunks = _chunk_bounds(length, block_size)
    if length == 0:
        return np.empty((batch, 0, d_inner)), h0.copy()
    if block_size >= length:
        return scan_sequential(disc, c, d, x, h0, states)

    y = np.empty((batch, length, d_inner))
    h_last = h0
    for start, stop in chunks:
        part = slice(start, stop)
        h = _blocked_states(disc.a_bar[:, part], disc.b_bar[:, part], x[:, part],
                            h_last, block_size)
        if not np.all(np.isfinite(h)):
            finite = np.isfinite(h).reshape(batch, stop - start, -1).all(axis=(0, 2))
            raise NumericError("non-finite hidden state",
                               index=start + int(np.flatnonzero(~finite)[0]))
        y[:, part] = np.einsum("blds,bls->bld", h, c[:, part]) + d * x[:, part]
        if states is not None:
            states[:, part] = h
        h_last = h[:, -1].copy()
    return y, h_last


def _chunk_bounds(length, block_size):
    """Token ranges [start, stop) that the scan visits one at a time.

    Chunks hold a whole number of blocks, at least two, so every block is
    composed exactly as in one full-length pass.  A tail of at most one block
    joins the chunk before it: scanned on its own it would take scan_blocked's
    one-block sequential shortcut, whose rounding differs.
    """
    if block_size < 1:
        raise ShapeError(f"block_size must be >= 1, got {block_size}")
    chunk = max(2, -(-SCAN_CHUNK // block_size)) * block_size
    starts = list(range(0, length, chunk))
    if len(starts) > 1 and length - starts[-1] <= block_size:
        starts.pop()
    return list(zip(starts, starts[1:] + [length]))


def _blocked_states(a, b, x, h0, block_size):
    """All hidden states for h_t = a_t * h_{t-1} + b_t * x_t via block composition."""
    batch, length, d_inner, state = a.shape
    n_blocks = -(-length // block_size)
    padded = (batch, n_blocks * block_size, d_inner, state)
    a_pref = np.empty(padded)
    u_pref = np.empty(padded)
    a_pref[:, :length] = a
    np.multiply(b, x[..., None], out=u_pref[:, :length])
    # Identity elements extend the last block without changing any state.
    a_pref[:, length:] = 1.0
    u_pref[:, length:] = 0.0
    a_pref = a_pref.reshape(batch, n_blocks, block_size, d_inner, state)
    u_pref = u_pref.reshape(batch, n_blocks, block_size, d_inner, state)

    for k in range(1, block_size):
        u_pref[:, :, k] += a_pref[:, :, k] * u_pref[:, :, k - 1]
        a_pref[:, :, k] *= a_pref[:, :, k - 1]

    h_enter = np.empty((batch, n_blocks, d_inner, state))
    h_enter[:, 0] = h0
    for i in range(1, n_blocks):
        h_enter[:, i] = a_pref[:, i - 1, -1] * h_enter[:, i - 1] + u_pref[:, i - 1, -1]

    h = np.multiply(a_pref, h_enter[:, :, None], out=a_pref)
    h += u_pref
    return h.reshape(padded)[:, :length]


# ---------------------------------------------------------------------------
# Offset-conditioned layer
# ---------------------------------------------------------------------------


@dataclass
class FlowSsmRun:
    """Forward result; intermediates are kept only when requested."""

    refined: np.ndarray
    h_final: np.ndarray
    mode: ZohMode
    inputs: tuple = None  # (x, f_offset, params, h0)
    z_delta: np.ndarray = None
    delta: np.ndarray = None
    b_tokens: np.ndarray = None
    c_tokens: np.ndarray = None
    a_bar: np.ndarray = None
    h_states: np.ndarray = None


def _project_token_params(f_offset, params):
    z_delta = f_offset @ params.w_delta + params.b_delta
    delta = softplus(z_delta)
    b_tokens = f_offset @ params.w_b
    c_tokens = f_offset @ params.w_c
    return z_delta, delta, b_tokens, c_tokens


def flow_ssm_forward(f_coarse, f_offset, params, h0=None, mode=ZohMode.SIMPLIFIED,
                     keep_intermediates=False, block_size=DEFAULT_BLOCK_SIZE):
    """Run one offset-conditioned scan layer over a serialized sequence.

    f_coarse: (batch, L, D) token features being refined; f_offset: (batch,
    L, C_off) offset features that parameterize (Delta, B, C) per token.
    """
    f_coarse = np.asarray(f_coarse, dtype=np.float64)
    f_offset = np.asarray(f_offset, dtype=np.float64)
    if f_coarse.ndim != 3 or f_offset.ndim != 3:
        raise ShapeError("token sequences must be (batch, L, channels)")
    if f_coarse.shape[:2] != f_offset.shape[:2]:
        raise ShapeError(
            f"sequence shapes disagree: {f_coarse.shape[:2]} vs {f_offset.shape[:2]}"
        )
    if f_offset.shape[2] != params.n_offset_channels:
        raise ShapeError(
            f"offset features have {f_offset.shape[2]} channels, projections expect "
            f"{params.n_offset_channels}"
        )
    if f_coarse.shape[2] != params.d_inner:
        raise ShapeError(
            f"input width {f_coarse.shape[2]} != layer width {params.d_inner}"
        )
    batch, length, d_inner = f_coarse.shape
    state = params.state_size
    h0 = np.zeros((batch, d_inner, state)) if h0 is None else np.asarray(h0, dtype=np.float64)
    if h0.shape != (batch, d_inner, state):
        raise ShapeError(f"h0 must be {(batch, d_inner, state)}, got {h0.shape}")

    z_delta, delta, b_tokens, c_tokens = _project_token_params(f_offset, params)
    refined = np.empty((batch, length, d_inner))
    a_bar = h_states = None
    if keep_intermediates:
        a_bar = np.empty((batch, length, d_inner, state))
        h_states = np.empty((batch, length, d_inner, state))
    h = h0
    for start, stop in _chunk_bounds(length, block_size):
        part = slice(start, stop)
        disc = zoh_discretize(params.a, b_tokens[:, part], delta[:, part], mode=mode)
        try:
            refined[:, part], h = scan_blocked(
                disc, c_tokens[:, part], params.d, f_coarse[:, part], h, block_size,
                states=None if h_states is None else h_states[:, part],
            )
        except NumericError as err:
            raise NumericError("non-finite hidden state", index=start + err.index) from err
        if keep_intermediates:
            a_bar[:, part] = disc.a_bar
    if not keep_intermediates:
        return FlowSsmRun(refined=refined, h_final=h.copy(), mode=ZohMode(mode))
    return FlowSsmRun(
        refined=refined, h_final=h.copy(), mode=ZohMode(mode),
        inputs=(f_coarse, f_offset, params, h0),
        z_delta=z_delta, delta=delta, b_tokens=b_tokens, c_tokens=c_tokens,
        a_bar=a_bar, h_states=h_states,
    )


def flow_ssm_layer(f_coarse, f_offset, params, h0=None, mode=ZohMode.SIMPLIFIED,
                   block_size=DEFAULT_BLOCK_SIZE):
    """Convenience wrapper returning just (refined sequence, new hidden state)."""
    run = flow_ssm_forward(f_coarse, f_offset, params, h0, mode, block_size=block_size)
    return run.refined, run.h_final


@dataclass(frozen=True)
class FlowSsmGrads:
    """Gradients of a scalar loss through one layer, by parameter name."""

    x: np.ndarray
    f_offset: np.ndarray
    h0: np.ndarray
    a_log: np.ndarray
    d: np.ndarray
    w_delta: np.ndarray
    b_delta: np.ndarray
    w_b: np.ndarray
    w_c: np.ndarray


def ssm_backward(run, dy, dh_final=None):
    """Adjoint of the recorded forward pass, run right to left.

    ``dy`` is dLoss/d(refined).  Requires a run from
    flow_ssm_forward(..., keep_intermediates=True); supports the simplified
    discretization (the layer default).
    """
    if run.h_states is None or run.inputs is None:
        raise StateError("forward run was not recorded; pass keep_intermediates=True")
    if run.mode is not ZohMode.SIMPLIFIED:
        raise StateError("adjoint implemented for the simplified discretization only")
    x, f_offset, params, h0 = run.inputs
    dy = np.asarray(dy, dtype=np.float64)
    if dy.shape != run.refined.shape:
        raise ShapeError(f"dy must be {run.refined.shape}, got {dy.shape}")
    batch, length, d_inner = x.shape
    a = params.a

    dh = (
        np.zeros((batch, d_inner, params.state_size))
        if dh_final is None
        else np.asarray(dh_final, dtype=np.float64).copy()
    )
    d_delta = np.zeros((batch, length, d_inner))
    d_bm = np.zeros((batch, length, params.state_size))
    d_cm = np.zeros((batch, length, params.state_size))
    dx = np.zeros_like(x)
    da = np.zeros_like(a)

    for t in range(length - 1, -1, -1):
        h_t = run.h_states[:, t]
        h_prev = run.h_states[:, t - 1] if t > 0 else h0
        a_bar_t = run.a_bar[:, t]
        delta_t = run.delta[:, t, :, None]  # (B, D, 1)
        bm_t = run.b_tokens[:, t, None, :]  # (B, 1, S)
        x_t = x[:, t, :, None]  # (B, D, 1)

        d_cm[:, t] = np.einsum("bd,bds->bs", dy[:, t], h_t)
        dh = dh + dy[:, t, :, None] * run.c_tokens[:, t, None, :]

        d_abar = dh * h_prev
        # u_t = delta_t * bm_t * x_t is the additive term, so du = dh.
        d_delta[:, t] = (d_abar * a_bar_t * a).sum(-1) + (dh * bm_t * x_t).sum(-1)
        da += np.einsum("bds->ds", d_abar * a_bar_t * delta_t)
        d_bm[:, t] = (dh * delta_t * x_t).sum(-2)
        dx[:, t] = (dh * delta_t * bm_t).sum(-1) + params.d * dy[:, t]
        dh = dh * a_bar_t

    dz_delta = d_delta * sigmoid(run.z_delta)
    return FlowSsmGrads(
        x=dx,
        f_offset=dz_delta @ params.w_delta.T + d_bm @ params.w_b.T + d_cm @ params.w_c.T,
        h0=dh,
        a_log=da * a,
        d=np.einsum("bld,bld->d", dy, x),
        w_delta=np.einsum("blc,bld->cd", f_offset, dz_delta),
        b_delta=dz_delta.sum(axis=(0, 1)),
        w_b=np.einsum("blc,bls->cs", f_offset, d_bm),
        w_c=np.einsum("blc,bls->cs", f_offset, d_cm),
    )
