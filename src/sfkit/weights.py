"""Weight containers, seeded initialization, and the SFWT weight-file format.

All learnable arrays are drawn from a seeded uniform distribution on
[-0.1, 0.1] so every run is reproducible from a single integer.  One binary
format serves every module: named sections, each a float64 little-endian
payload with an explicit shape.
"""

import math
import struct
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import FormatError, SceneFlowError, ShapeError
from .pointcloud import read_file, write_file

WEIGHTS_MAGIC = b"SFWT"
WEIGHTS_VERSION = 1

INIT_SCALE = 0.1


def uniform_init(rng, shape):
    return rng.uniform(-INIT_SCALE, INIT_SCALE, shape)


class ZeroRng:
    """Generator stand-in whose draws are read-only zero views that take no
    memory: a ``seeded`` builder given one yields the bundle's shapes for
    free, without importing ``numpy.random``."""

    def uniform(self, low, high, size):
        return np.broadcast_to(0.0, size)


@dataclass(frozen=True)
class MlpWeights:
    """Two-layer perceptron in -> hidden -> out with a ReLU in between."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        if self.w1.shape[1] != self.b1.shape[0] or self.w1.shape[1] != self.w2.shape[0]:
            raise ShapeError(
                f"inconsistent MLP shapes: w1 {self.w1.shape}, w2 {self.w2.shape}"
            )
        if self.w2.shape[1] != self.b2.shape[0]:
            raise ShapeError(f"w2 {self.w2.shape} vs b2 {self.b2.shape}")

    @property
    def n_in(self):
        return self.w1.shape[0]

    @classmethod
    def seeded(cls, n_in, n_hidden, n_out, rng):
        return cls(
            w1=uniform_init(rng, (n_in, n_hidden)),
            b1=uniform_init(rng, (n_hidden,)),
            w2=uniform_init(rng, (n_hidden, n_out)),
            b2=uniform_init(rng, (n_out,)),
        )

    @classmethod
    def zeros(cls, n_in, n_hidden, n_out):
        return cls.seeded(n_in, n_hidden, n_out, ZeroRng())

    def apply(self, x):
        """Row-wise forward pass over an (N, n_in) matrix.

        The two matmuls allocate; the bias adds and the ReLU run in place,
        bit for bit ``np.maximum(x @ w1 + b1, 0.0) @ w2 + b2``.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeError(f"expected (N, {self.n_in}) input, got {x.shape}")
        hidden = x @ self.w1
        hidden += self.b1
        np.maximum(hidden, 0.0, out=hidden)
        out = hidden @ self.w2
        out += self.b2
        return out


def save_weight_dict(weights, path):
    """Write {name: float array} as an SFWT file. Sections are name-sorted."""
    chunks = []
    for name in sorted(weights):
        arr = np.asarray(weights[name], dtype=np.float64)
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f8").tobytes())
    write_file(path, WEIGHTS_MAGIC, WEIGHTS_VERSION, chunks)


def load_weight_dict(path):
    """Read an SFWT file back into {name: float64 array}.

    Every defect, including an undecodable or repeated section name, raises
    FormatError at the offset where it starts.
    """
    return read_file(path, WEIGHTS_MAGIC, WEIGHTS_VERSION, "weight file", _sections)


def _sections(r):
    out = {}
    while r.pos < len(r.data):
        start = r.pos
        name_len = r.u16("section name length")
        try:
            name = r.take(name_len, "section name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("section name is not UTF-8", start + 2) from None
        if name in out:
            raise FormatError(f"duplicate section {name!r}", start)
        rank = r.unpack("<B", f"{name} rank")[0]
        if rank > 64:  # numpy's limit
            raise FormatError(f"{name} rank {rank} exceeds 64", r.pos - 1)
        dims = r.unpack(f"<{rank}I", f"{name} dims")
        payload = r.take(8 * math.prod(dims), f"{name} payload")
        out[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
    return out


def _join(prefix, key):
    return f"{prefix}.{key}" if prefix else str(key)


def _children(node):
    """(key, child) pairs of a tuple or dataclass; None for a leaf."""
    if isinstance(node, tuple):
        return list(enumerate(node))
    if is_dataclass(node):
        return [(f.name, getattr(node, f.name)) for f in fields(node)]
    return None


def flatten_tree(tree, prefix=""):
    """{dotted path: leaf} over nested dataclasses and tuples.

    Leaves (arrays, and scalars such as a kernel's ``dilation_t``) are
    returned as they are.
    """
    children = _children(tree)
    if children is None:
        return {prefix: tree}
    flat = {}
    for key, child in children:
        flat.update(flatten_tree(child, _join(prefix, key)))
    return flat


def unflatten_like(template, flat, prefix=""):
    """Inverse of flatten_tree: ``template``'s structure with ``flat``'s leaves.

    Every dataclass is rebuilt through its constructor, so its validation
    runs; an error it raises is prefixed with the object's dotted path, which
    is its SFWT section prefix (scan layers, stored as ``decoder.ssm.N``,
    refuse no value that has passed the loader's shape and finiteness checks).
    """
    children = _children(template)
    if children is None:
        return flat[prefix]
    rebuilt = {key: unflatten_like(child, flat, _join(prefix, key)) for key, child in children}
    if isinstance(template, tuple):
        return tuple(rebuilt.values())
    try:
        return type(template)(**rebuilt)
    except SceneFlowError as err:
        if prefix:
            err.args = (f"{prefix}: {err}",)
        raise
