"""Exception types shared across the pipeline."""

import math
from numbers import Integral, Real


class SceneFlowError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(SceneFlowError):
    """Input data violates a precondition (non-finite coordinate, bad pose, ...)."""


class InvalidConfig(SceneFlowError):
    """A configuration value is out of its legal range."""


class ShapeError(SceneFlowError):
    """Array dimensions do not line up with the operation's contract."""


class RangeError(SceneFlowError):
    """A value exceeds the representable range (e.g. Morton coordinate overflow)."""


class InvalidPermutation(SceneFlowError):
    """A stored permutation pair is not a bijection / inverse pair."""


class AlignmentError(SceneFlowError):
    """Two sparse tensors that must share an active set do not."""


class EmptyInput(SceneFlowError):
    """An operation that needs at least one element received none."""


class StateError(SceneFlowError):
    """Required recorded state (e.g. forward intermediates) is missing."""


class NumericError(SceneFlowError):
    """A non-finite value appeared mid-computation.

    ``index`` localizes the failure (token or point index) when known.
    """

    def __init__(self, message, index=None):
        if index is not None:
            message = f"{message} (index {index})"
        super().__init__(message)
        self.index = index


class FormatError(SceneFlowError):
    """A binary file is malformed. ``offset`` is the byte position of the defect."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _finite(v):
    try:
        return math.isfinite(v)
    except OverflowError:  # an int past the float range
        return False


_COUNT = (Integral, lambda v: v >= 1, "an integer >= 1")
_DEPTHS = ((Integral, None), _COUNT[1], "a list of integers >= 1")
_POSITIVE = (Real, lambda v: _finite(v) and v > 0, "a finite number > 0")

# The run-config rules, in this leaf module so every config class can use them.
# field: (type, test, rule text).  A type ``(T, n)`` is a list or tuple of n
# items of type T (any length when n is None); the test applies to each item.
# Float fields accept ints; no field accepts a bool.
CONFIG_RULES = {
    "grid_origin": ((Real, 3), _finite, "3 finite numbers"),
    "cell_size": _POSITIVE,
    # 21 bits per axis keeps voxel coords Morton-encodable
    "grid_extents": ((Integral, 3), lambda v: 1 <= v < 1 << 21, "3 integers in [1, 2**21)"),
    "channels": _COUNT,
    "encoder_depths": _DEPTHS,
    "decoder_depths": _DEPTHS,
    "decoder_layers": _COUNT,
    "state_size": _COUNT,
    "zoh_mode": (str, ("exact", "simplified").__contains__, "exact|simplified"),
    "dilation": (str, ("gap1", "literal").__contains__, "gap1|literal"),
    "dt": _POSITIVE,
    # 2**20 bins bounds the loss histogram at 8 MB
    "k_bins": (Integral, lambda v: 2 <= v <= 1 << 20, "an integer in [2, 2**20]"),
    "dynamic_threshold": (Real, lambda v: _finite(v) and v >= 0, "a finite number >= 0"),
    "block_size": _COUNT,
    "threads": _COUNT,
    "decode_frame": (str, ("t", "t+1").__contains__, "t|t+1"),
}


def check_config(config, *names, **renamed):
    """Check fields of the frozen dataclass ``config`` against CONFIG_RULES,
    storing lists as tuples.  ``names`` are fields named as their rule;
    ``renamed`` maps field to rule.  Raises ``InvalidConfig``."""
    for name, key in [*zip(names, names), *renamed.items()]:
        value = getattr(config, name)
        kind, test, rule = CONFIG_RULES[key]
        items = (value,)
        if isinstance(kind, tuple):
            kind, length = kind
            shaped = isinstance(value, (list, tuple)) and length in (None, len(value))
            items = value if shaped else (None,)  # None fails every type
        if not all(isinstance(v, kind) and not isinstance(v, bool) and test(v) for v in items):
            raise InvalidConfig(f"{key} must be {rule}, got {value!r}")
        if isinstance(value, list):
            object.__setattr__(config, name, tuple(value))
