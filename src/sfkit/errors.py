"""Exception types shared across the pipeline."""

import math
import sys
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


_ANY_LENGTH = range(sys.maxsize)
_POSITIVE = (Real, lambda v: _finite(v) and v > 0, "a finite number > 0")
_NON_NEGATIVE = (Real, lambda v: _finite(v) and v >= 0, "a finite number >= 0")


def _count(lo, bits):
    return (Integral, lambda v: lo <= v <= 1 << bits, f"an integer in [{lo}, 2**{bits}]")


# Every count has an upper bound, so no count reaches numpy as a size it
# cannot allocate; sizes that grow with several inputs at once are held to
# MAX_FLOATS by cross-field checks.
_COUNT = _count(1, 10)
_SEED = (Integral, lambda v: 0 <= v < 1 << 64, "an integer in [0, 2**64)")
MAX_FLOATS = 1 << 24  # 128 MiB of float64

# The run-config rules, in this leaf module so every config class can use them.
# field: (type, test, rule text).  A type ``(T, lengths)`` is a list or tuple
# of items of type T whose length is in ``lengths``; the test applies to each
# item.  Float fields accept ints; no field accepts a bool.
CONFIG_RULES = {
    "grid_origin": ((Real, (3,)), _finite, "3 finite numbers"),
    "cell_size": _POSITIVE,
    # 21 bits per axis keeps voxel coords Morton-encodable
    "grid_extents": ((Integral, (3,)), lambda v: 1 <= v < 1 << 21, "3 integers in [1, 2**21)"),
    "channels": _COUNT,
    # one encoder stack per level, and at least one level; the weight bundle's
    # size bounds the depths
    "encoder_depths": (
        (Integral, _ANY_LENGTH[1:]), lambda v: v >= 1, "a non-empty list of integers >= 1"
    ),
    "decoder_depths": ((Integral, _ANY_LENGTH), lambda v: v >= 1, "a list of integers >= 1"),
    "decoder_layers": _COUNT,
    "state_size": _COUNT,
    "dt": _POSITIVE,
    # 2**20 bins bounds the loss histogram at 8 MB
    "k_bins": _count(2, 20),
    "dynamic_threshold": _NON_NEGATIVE,
}

# The rules of every other input, keyed by the name its error prints: the
# CLI's own flags, the synthetic scene's fields and the metric parameters.
INPUT_RULES = {
    "--lengths": ((Integral, _ANY_LENGTH), lambda v: 0 <= v <= 1 << 20,
                  "a comma-separated list of integers in [0, 2**20]"),
    "--batch": _COUNT,
    "--min-time": (Real, lambda v: 0 < v <= 60, "a number of seconds in (0, 60]"),
    "--seed": _SEED,
    "--seed-weights": _SEED,
    "--ego-speed": (Real, _finite, "a finite number"),
    # at most 2**22 + 64 * 2**16 = 2**23 points per synthetic frame
    "n_background": _count(0, 22),
    "n_movers": _count(0, 6),
    "mover n_points": _count(1, 16),
    "jitter_sigma": _NON_NEGATIVE,
    "iou_threshold": _NON_NEGATIVE,
}

_RULES = CONFIG_RULES | INPUT_RULES


def check_config(config, *names, **renamed):
    """Check attributes of ``config`` against their rules in CONFIG_RULES or
    INPUT_RULES, storing lists as tuples.  ``names`` are attributes named as
    their rule; ``renamed`` maps attribute to rule.  Raises ``InvalidConfig``
    naming the rule.  This is the one check of a single input value; checks
    that span several values stay with the classes that hold them."""
    for name, key in [*zip(names, names), *renamed.items()]:
        value = getattr(config, name)
        kind, test, rule = _RULES[key]
        items = (value,)
        if isinstance(kind, tuple):
            kind, lengths = kind
            shaped = isinstance(value, (list, tuple)) and len(value) in lengths
            items = value if shaped else (None,)  # None fails every type
        if not all(isinstance(v, kind) and not isinstance(v, bool) and test(v) for v in items):
            raise InvalidConfig(f"{key} must be {rule}, got {value!r}")
        if isinstance(value, list):
            object.__setattr__(config, name, tuple(value))
