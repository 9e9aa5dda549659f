"""Selective state-space machinery.

The recurrence is h_t = Abar_t * h_{t-1} + Bbar_t * x_t with readout
y_t = C_t . h_t + D * x_t, where the per-token parameters (Delta, B, C) are
linear projections of offset features and A is diagonal per channel (stored
as log-negatives so the decay stays strictly inside the unit interval).

One scan engine exploits the associative composition
(a2, b2) o (a1, b1) = (a2*a1, a2*b1 + b2) to vectorize across blocks, in one
pass over the tokens it is given.  It composes terms in one layout, block
major (token i * block + k at [:, k, i]), so each prefix step works on one
contiguous slice.  The layer streams the sequence through it in chunks of
whole blocks, carrying the hidden state from chunk to chunk.  It discretizes
each chunk straight into a block-major pair that it allocates once per call,
and scans the terms there, so its memory above its input and output is
O(chunk * D * S); the output may be the input itself.  A is diagonal, so the
layer may split its channels into groups that run the same chunk loop on
parallel threads, each over the whole sequence, with the same bytes.
A plain left-to-right loop with the same contract is the oracle.  An
adjoint pass over a recorded run, one full-length pass that keeps its
terms, provides exact gradients for finite-difference verification.
"""

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import MAX_FLOATS, InvalidConfig, NumericError, ShapeError, StateError
from .weights import ZeroRng, uniform_init

# Tokens per scan block: every scan layer's block, and scan_blocked's default.
DEFAULT_BLOCK_SIZE = 64
# Tokens per streamed scan chunk, rounded up to whole blocks.  Only one chunk
# of (D, S) scan terms is alive at a time, so scan memory is O(chunk * D * S).
# Short chunks pay per-call overhead and long ones fall out of cache: at
# L = 32.4k, D = 32, S = 16 on a 2-core x86 VM, 512-1024 tokens ran fastest.
SCAN_CHUNK = 1024
# A layer of fewer (token, channel, state) lanes than this scans on one
# thread.  On a 2-core x86 VM two groups lost at 2**17 lanes (D = 32, S = 16,
# L = 256) and won from 2**18 on, at every D * S from 64 to 1024.
SPLIT_MIN_TERMS = 1 << 18


class ZohMode(str, Enum):
    """Discretization flavor: exact zero-order hold or the product shortcut."""

    EXACT = "exact"
    SIMPLIFIED = "simplified"


def softplus(z, out=None):
    return np.logaddexp(0.0, z, out=out)


def sigmoid(z, out=None):
    # The tanh form needs no overflow guard, so no masked two-branch split.
    # Every step writes ``out``, which may be ``z`` itself.
    z = np.asarray(z, dtype=np.float64)
    if out is None:
        out = np.empty_like(z)
    np.multiply(0.5, z, out=out)
    np.tanh(out, out=out)
    np.add(1.0, out, out=out)
    return np.multiply(0.5, out, out=out)


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
        return cls.seeded(d_inner, state_size, n_offset_channels, ZeroRng())


@dataclass(frozen=True)
class Discretized:
    """Per-token discretized transition (a_bar) and input (b_bar) terms.

    Both are (..., D, S); with delta > 0 and a < 0 every a_bar entry lies in
    (0, 1).
    """

    a_bar: np.ndarray
    b_bar: np.ndarray


def zoh_discretize(a, b, delta, mode, out=None):
    """Discretize diagonal-per-channel dynamics via zero-order hold.

    a: (D, S) strictly the continuous decay; b: (..., S) per-token input
    projection; delta: (..., D) positive step sizes.  EXACT uses
    a_bar = exp(delta a), b_bar = (exp(delta a) - 1)/a * b with the series
    limit delta*b at a = 0; SIMPLIFIED replaces b_bar by delta * b.

    ``out`` is an optional Discretized of writable (..., D, S) arrays that
    receive the result, which is then ``out`` itself; the values are the
    same as without it.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    shape = delta.shape + a.shape[-1:]
    if out is None:
        out = Discretized(a_bar=np.empty(shape), b_bar=np.empty(shape))
    elif out.a_bar.shape != shape or out.b_bar.shape != shape:
        raise ShapeError(f"out terms must be {shape}, got {out.a_bar.shape} / {out.b_bar.shape}")
    a_bar, b_bar = out.a_bar, out.b_bar
    da = np.multiply(delta[..., :, None], a, out=a_bar)  # (..., D, S)
    if ZohMode(mode) is ZohMode.SIMPLIFIED:
        np.multiply(delta[..., :, None], b[..., None, :], out=b_bar)
    else:
        safe_a = np.where(a == 0.0, 1.0, a)
        np.expm1(da, out=b_bar)
        np.divide(b_bar, safe_a, out=b_bar)  # -> delta as a -> 0
        np.copyto(b_bar, delta[..., :, None], where=a == 0.0)
        np.multiply(b_bar, b[..., None, :], out=b_bar)
    np.exp(da, out=a_bar)
    return out


def _check_scan_shapes(disc, c, d, x, h0, block_size=None):
    """(batch, L, D, S), with L taken from ``x``.  The terms are token-order
    (batch, L, D, S), or block-major (batch, block, n_blocks, D, S) when a
    ``block_size`` is given and they are 5-D."""
    if x.ndim != 3 or h0.ndim != 3:
        raise ShapeError(f"x and h0 must be 3-D, got {x.shape} / {h0.shape}")
    (batch, length, d_inner), state = x.shape, h0.shape[2]
    terms = (batch, length, d_inner, state)
    if block_size is not None and disc.a_bar.ndim == 5:
        terms = (batch, block_size, -(-length // block_size), d_inner, state)
    if disc.a_bar.shape != terms or disc.b_bar.shape != terms:
        raise ShapeError(
            f"discretized terms must be {terms}; got {disc.a_bar.shape} / {disc.b_bar.shape}"
        )
    if c.shape != (batch, length, state):
        raise ShapeError(f"C must be {(batch, length, state)}, got {c.shape}")
    if d.shape != (d_inner,):
        raise ShapeError(f"D must be ({d_inner},), got {d.shape}")
    if h0.shape != (batch, d_inner, state):
        raise ShapeError(f"h0 must be {(batch, d_inner, state)}, got {h0.shape}")
    return batch, length, d_inner, state


def scan_sequential(disc, c, d, x, h0):
    """Exact left-to-right recurrence, the oracle of scan_blocked.  Returns
    (y, h_final)."""
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
        y[:, t] = np.einsum("bds,bs->bd", h, c[:, t]) + d * x[:, t]
    return y, h


def scan_blocked(disc, c, d, x, h0, block_size=DEFAULT_BLOCK_SIZE, states=None):
    """Blocked scan with identical contract to scan_sequential.

    Scans what it is given in one pass: it forms within-block prefix
    composites of the transition pairs (vectorized across blocks), carries
    the state across block boundaries, then reconstructs every per-token
    state.  When ``states`` is a (batch, L, D, S) array, every per-token
    hidden state is written into it.  Callers that bound memory scan one
    chunk at a time, as flow_ssm_forward does.

    The terms are token-order (batch, L, D, S), or block-major (batch, block,
    n_blocks, D, S) with token i * block + k at [:, k, i].  Block-major terms
    are composed where they lie, and the scan overwrites them; token-order
    terms are first laid out block-major in a copy.  The readout, ``states``
    and the returned state read the composed pairs through views.  Its
    other arrays are its own: two of one (D, S) state per block, and the
    skip term and readout, of one (D,) row per token.
    """
    c = np.asarray(c, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    h0 = np.asarray(h0, dtype=np.float64)
    if block_size < 1:
        raise ShapeError(f"block_size must be >= 1, got {block_size}")
    batch, length, d_inner, state = _check_scan_shapes(disc, c, d, x, h0, block_size)
    if length == 0:
        return np.empty((batch, 0, d_inner)), h0.copy()
    if disc.a_bar.ndim == 4:
        disc = Discretized(*(_block_major_copy(t, block_size) for t in (disc.a_bar, disc.b_bar)))
    h = _blocked_states(disc, x, h0, block_size)
    y = np.empty((batch, length, d_inner))
    for h_tok, c_tok, y_tok in zip(_token_blocks(h, length), _blocks(c, block_size),
                                   _blocks(y, block_size)):
        np.einsum("...ds,...s->...d", h_tok, c_tok, out=y_tok)
    # With finite output gates a token's readout is finite exactly when all
    # its states are, and einsum raises no FP warning; the skip add could
    # (inf - inf), so the check comes first.  min and max propagate NaN and
    # allocate nothing.
    if not (np.isfinite(y.min()) and np.isfinite(y.max())):
        finite = np.isfinite(y).all(axis=(0, 2))
        raise NumericError("non-finite hidden state", index=int(np.flatnonzero(~finite)[0]))
    y += d * x
    if states is not None:
        for h_tok, s_tok in zip(_token_blocks(h, length), _blocks(states, block_size)):
            s_tok[...] = h_tok
    return y, h[:, (length - 1) % block_size, -1].copy()


def _chunk_bounds(length):
    """Token ranges [start, stop) that the scan visits one at a time.

    Chunks hold a whole number of ``DEFAULT_BLOCK_SIZE`` blocks, so every
    block is composed exactly as in one full-length pass.  A tail of at most
    one block joins the chunk before it: a one-row tail would be projected
    through another BLAS path and round differently from the recorded run's
    full-length projection.
    """
    chunk = -(-SCAN_CHUNK // DEFAULT_BLOCK_SIZE) * DEFAULT_BLOCK_SIZE
    starts = list(range(0, length, chunk))
    if len(starts) > 1 and length - starts[-1] <= DEFAULT_BLOCK_SIZE:
        starts.pop()
    return list(zip(starts, starts[1:] + [length]))


def _blocks(tokens, block_size):
    """Views of a (batch, L, ...) token array by block: the whole blocks as
    (batch, L // block, block, ...), then any rest as (batch, 1, rest, ...)."""
    whole = tokens.shape[1] // block_size * block_size
    head = tokens[:, :whole]
    views = [head.reshape(head.shape[0], -1, block_size, *head.shape[2:])]
    if whole < tokens.shape[1]:
        views.append(tokens[:, None, whole:])
    return views


def _token_blocks(blocked, n_tokens):
    """The first ``n_tokens`` tokens of a block-major (batch, block, n_blocks,
    ...) array, as the views _blocks gives of a token array."""
    whole, rest = divmod(n_tokens, blocked.shape[1])
    by_token = blocked.swapaxes(1, 2)
    return [by_token[:, :whole]] + ([by_token[:, whole:whole + 1, :rest]] if rest else [])


def _by_block(tokens, block_size):
    """The block-major (batch, block, n_blocks, ...) view of a (batch, L, ...)
    token array of whole blocks."""
    batch, length = tokens.shape[:2]
    return tokens.reshape(batch, length // block_size, block_size,
                          *tokens.shape[2:]).swapaxes(1, 2)


def _block_major_copy(tokens, block_size):
    """A (batch, L, ...) token array written once into a zeroed block-major
    (batch, block, n_blocks, ...) array; a partial last block ends in zeros."""
    batch, length = tokens.shape[:2]
    out = np.zeros((batch, block_size, -(-length // block_size)) + tokens.shape[2:])
    for dst, src in zip(_token_blocks(out, length), _blocks(tokens, block_size)):
        dst[...] = src
    return out


def _blocked_states(disc, x, h0, block_size):
    """All hidden states for h_t = a_t * h_{t-1} + b_t * x_t via block composition.

    Composes the block-major (batch, block, n_blocks, D, S) terms where they
    lie and returns the states as a view of the first of them.  Its only
    temporaries are one prefix step's product and the block entry states,
    (batch, n_blocks, D, S) each.
    """
    length = x.shape[1]
    n_blocks = -(-length // block_size)
    a_pref, u_pref = disc.a_bar, disc.b_bar
    for u_dst, x_src in zip(_token_blocks(u_pref, length), _blocks(x, block_size)):
        u_dst *= x_src[..., None]
    # Identity elements extend the last block without changing any state.
    tail = length - (n_blocks - 1) * block_size
    a_pref[:, tail:, -1] = 1.0
    u_pref[:, tail:, -1] = 0.0

    step = np.empty_like(a_pref[:, 0])
    for k in range(1, block_size):
        u_pref[:, k] += np.multiply(a_pref[:, k], u_pref[:, k - 1], out=step)
        a_pref[:, k] *= a_pref[:, k - 1]

    h_enter = np.empty_like(step)
    h_enter[:, 0] = h0
    for i in range(1, n_blocks):
        np.multiply(a_pref[:, -1, i - 1], h_enter[:, i - 1], out=h_enter[:, i])
        h_enter[:, i] += u_pref[:, -1, i - 1]

    h = np.multiply(a_pref, h_enter[:, None], out=a_pref)
    h += u_pref
    return h


# ---------------------------------------------------------------------------
# Offset-conditioned layer
# ---------------------------------------------------------------------------


@dataclass
class FlowSsmRun:
    """Forward result; intermediates are kept only when requested."""

    refined: np.ndarray
    h_final: np.ndarray
    inputs: tuple = None  # (x, f_offset, params, h0)
    z_delta: np.ndarray = None
    delta: np.ndarray = None
    b_tokens: np.ndarray = None
    c_tokens: np.ndarray = None
    a_bar: np.ndarray = None
    h_states: np.ndarray = None


def project_token_params(f_offset, params):
    """(z_delta, delta, B, C): the per-token step-size logits, step sizes
    softplus(z_delta), input gates and output gates projected from offset
    features (..., C_off)."""
    z_delta = f_offset @ params.w_delta + params.b_delta
    delta = softplus(z_delta)
    b_tokens = f_offset @ params.w_b
    c_tokens = f_offset @ params.w_c
    return z_delta, delta, b_tokens, c_tokens


def scan_layout(batch, length, d_inner, state):
    """(chunks, work_shape) of a scan over (batch, L, D) tokens with S
    states in blocks of ``DEFAULT_BLOCK_SIZE``: the chunks of _chunk_bounds,
    and the shape of the block-major (2, batch, block, n_blocks, D, S) pair
    that every chunk is discretized into and scanned in.  A pair of more
    than ``MAX_FLOATS`` floats raises InvalidConfig; nothing is allocated.
    """
    chunks = _chunk_bounds(length)
    longest = max((stop - start for start, stop in chunks), default=0)
    work_shape = (2, batch, DEFAULT_BLOCK_SIZE, -(-longest // DEFAULT_BLOCK_SIZE), d_inner, state)
    if (floats := math.prod(work_shape)) > MAX_FLOATS:
        raise InvalidConfig(
            "channels and state_size must give a scan workspace of at most "
            f"{MAX_FLOATS} floats, got {floats} for {length} tokens"
        )
    return chunks, work_shape


def _channel_groups(n_groups, work_shape):
    """``n_groups`` contiguous channel groups, as (channel slice, term pair)
    pairs.  The block-major term pairs are carved from one array of
    ``work_shape``, allocated here, so together they hold the floats of one
    pair.  This is the layer's only preallocated array: a group's thread
    makes everything else its chunk loop writes, one chunk at a time."""
    _, batch, block_size, n_blocks, d_inner, state = work_shape
    work = np.empty(math.prod(work_shape))
    per_channel = work.size // d_inner
    edges = [d_inner * g // n_groups for g in range(n_groups + 1)]
    return [
        (slice(lo, hi), work[lo * per_channel:hi * per_channel].reshape(
            2, batch, block_size, n_blocks, hi - lo, state))
        for lo, hi in zip(edges, edges[1:])
    ]


def usable_cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def split_groups(length, d_inner, state):
    """How many channel groups a layer of (L, D, S) scans on parallel threads:
    ``min(usable_cpus(), D)`` once the sequence holds SPLIT_MIN_TERMS
    (token, channel, state) lanes, and one below that."""
    if length * d_inner * state < SPLIT_MIN_TERMS:
        return 1
    return max(1, min(usable_cpus(), d_inner))


_helpers = None
_helpers_lock = threading.Lock()


def _helper_pool():
    """The process's one pool of helper threads, started at its first use."""
    global _helpers
    with _helpers_lock:
        if _helpers is None:
            from concurrent.futures import ThreadPoolExecutor

            _helpers = ThreadPoolExecutor(max(1, usable_cpus() - 1), "sfkit-helper")
        return _helpers


def run_parallel(run_item, n_items, per_thread=1):
    """Call ``run_item(i)`` once for each i in range(n_items), on this
    thread and helper threads of the one pool, ``max(1, min(usable_cpus(),
    n_items // per_thread))`` in all: the CPU set sizes every split.  Every
    thread pulls item numbers from one shared counter, so this thread works
    too and a busy pool cannot stall the call.  Helpers run in a copy of
    this thread's context, so ``np.errstate`` reaches them.

    Every item runs, whatever fails.  Returns once every item has stopped;
    then raises the error of the earliest bad index (NumericError.index), or
    another error before that, the lowest item's first, so the outcome is
    the same at any thread count.
    """
    n_threads = max(1, min(usable_cpus(), n_items // per_thread))
    items = iter(range(n_items))  # the shared counter: next() is one call under the GIL
    errors = []

    def work():
        for i in items:
            try:
                run_item(i)
            except Exception as exc:  # raised below, once every item has stopped
                errors.append((i, exc))

    futures = [_helper_pool().submit(contextvars.copy_context().run, work)
               for _ in range(n_threads - 1)]
    try:
        work()
    finally:
        for _ in items:  # interrupted here: take the items left, so the helpers stop
            pass
        for future in futures:
            if not future.cancel():  # a helper that never started holds no item
                future.result()
    if errors:
        _, _, exc = min((e.index if isinstance(e, NumericError) else -1, i, e)
                        for i, e in errors)
        raise exc


def flow_ssm_forward(f_coarse, f_offset, params, h0=None, *, keep_intermediates=False,
                     out=None):
    """Run one offset-conditioned scan layer over a serialized sequence.

    f_coarse: (batch, L, D) token features being refined; f_offset: (batch,
    L, C_off) offset features that parameterize (Delta, B, C) per token.
    B is discretized with Mamba's first-order shortcut, ZohMode.SIMPLIFIED.

    Each chunk of _chunk_bounds is projected, then discretized straight into
    a block-major pair of terms in blocks of ``DEFAULT_BLOCK_SIZE`` tokens,
    which is allocated here once for the longest chunk; the scan composes
    the terms there.  That pair is the only array made ahead of the chunk
    loop: the projections and the scan's own arrays are made per chunk, on
    the thread that scans it.  A pair of more than ``MAX_FLOATS`` floats
    raises InvalidConfig before anything is allocated (see scan_layout).  A
    streamed run makes no token-order (D, S) term.
    The refined sequence goes to ``out``, a (batch, L, D) float64 array, or
    a new one; ``out`` may be ``f_coarse`` itself, since each chunk's input
    is read before its output is written.

    A is diagonal, so every channel runs its own recurrence: the layer scans
    split_groups(L, D, S) contiguous channel groups, each over the whole
    sequence, on this thread and helper threads (run_parallel), and joins
    them once.  Each group's bytes are those of a one-group run, at any
    thread count.

    A recorded run (``keep_intermediates``) is one pass on this thread,
    with the streamed run's bytes: project_token_params, zoh_discretize and
    a token-order scan_blocked over the whole sequence, then ``out``.  The
    record keeps ``f_coarse`` for the backward pass, so an ``out`` that
    shares its memory is refused.
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
    if out is None:
        out = np.empty((batch, length, d_inner))
    elif out.shape != f_coarse.shape or out.dtype != np.float64:
        raise ShapeError(f"out must be float64 {f_coarse.shape}, got {out.dtype} {out.shape}")
    elif keep_intermediates and np.may_share_memory(out, f_coarse):
        raise StateError("a recorded run keeps f_coarse; out must not overwrite it")

    a = params.a
    chunks, work_shape = scan_layout(batch, length, d_inner, state)
    if keep_intermediates:
        z_delta, delta, b_tokens, c_tokens = project_token_params(f_offset, params)
        disc = zoh_discretize(a, b_tokens, delta, ZohMode.SIMPLIFIED)
        h_states = np.empty(disc.a_bar.shape)
        y, h_final = scan_blocked(disc, c_tokens, params.d, f_coarse, h0, states=h_states)
        out[...] = y
        return FlowSsmRun(refined=out, h_final=h_final, inputs=(f_coarse, f_offset, params, h0),
                          z_delta=z_delta, delta=delta, b_tokens=b_tokens, c_tokens=c_tokens,
                          a_bar=disc.a_bar, h_states=h_states)
    h_final = np.empty((batch, d_inner, state))

    def scan_group(g):
        lanes, work = groups[g]
        h = h0[:, lanes]
        for start, stop in chunks:
            part, n_tokens = slice(start, stop), stop - start
            n_blocks = -(-n_tokens // DEFAULT_BLOCK_SIZE)
            # The projections of project_token_params.  The step-size logits
            # are projected to all D columns, so they round as in a one-group
            # run on any BLAS.  Step sizes and input gates stay zero past the
            # chunk, to the end of its last block.
            f_part = f_offset[:, part]
            padded = (batch, n_blocks * DEFAULT_BLOCK_SIZE)
            delta = np.zeros(padded + (lanes.stop - lanes.start,))
            b_tokens = np.zeros(padded + (state,))
            rows = delta[:, :n_tokens]
            np.add((f_part @ params.w_delta)[..., lanes], params.b_delta[lanes], out=rows)
            softplus(rows, out=rows)
            np.matmul(f_part, params.w_b, out=b_tokens[:, :n_tokens])
            blocked = (_by_block(t, DEFAULT_BLOCK_SIZE) for t in (b_tokens, delta))
            # Both calls go through the module globals, once per chunk, with
            # x scan_blocked's 4th positional argument: perfbench's traced
            # mode wraps them there and reads the scan length from x.
            disc = zoh_discretize(a[lanes], *blocked, ZohMode.SIMPLIFIED,
                                  out=Discretized(*work[:, :, :, :n_blocks]))
            try:
                y, h = scan_blocked(disc, f_part @ params.w_c, params.d[lanes],
                                    f_coarse[:, part, lanes], h)
            except NumericError as err:
                raise NumericError("non-finite hidden state", index=start + err.index) from err
            out[:, part, lanes] = y
        h_final[:, lanes] = h

    groups = _channel_groups(split_groups(length, d_inner, state), work_shape)
    run_parallel(scan_group, len(groups))
    return FlowSsmRun(refined=out, h_final=h_final)


def flow_ssm_layer(f_coarse, f_offset, params, h0=None, *, out=None):
    """Convenience wrapper returning just (refined sequence, new hidden state).

    ``out`` is as in flow_ssm_forward: ``out=f_coarse`` refines in place,
    and the scan runs in blocks of ``DEFAULT_BLOCK_SIZE``.
    """
    run = flow_ssm_forward(f_coarse, f_offset, params, h0, out=out)
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
    flow_ssm_forward(..., keep_intermediates=True).
    """
    if run.h_states is None or run.inputs is None:
        raise StateError("forward run was not recorded; pass keep_intermediates=True")
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
