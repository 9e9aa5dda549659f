"""Flow decoder: offset encoding, coarse assembly, serialized selective-scan
refinement, and the flow head.

Coarse per-point features (each point inherits its voxel's backbone feature,
concatenated with its own encoder feature) are sorted along the Z-order
curve together with encoded in-cell offsets.  A cascade of offset-conditioned
scan layers then refines the sequence so that points sharing a voxel can
receive distinct features, which is the whole purpose of the exercise.  The
refined sequence is restored to input order and mapped to per-point flow.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError, check_config
from .pointcloud import FlowField
from .serialization import deserialize, serialize
from .ssm import DEFAULT_BLOCK_SIZE, ZohMode, flow_ssm_layer
from .voxelizer import devoxelize_coarse
from .weights import MlpWeights, ZeroRng, uniform_init


@dataclass(frozen=True)
class DecoderConfig:
    n_layers: int = 1  # one refinement pass balances accuracy and speed
    channels: int = 16
    state_size: int = 16
    zoh_mode: ZohMode = ZohMode.SIMPLIFIED
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self):
        check_config(self, "channels", "state_size", "block_size", n_layers="decoder_layers")


@dataclass(frozen=True)
class FlowHeadWeights:
    """Perceptron (2C + C) -> C -> 3 producing per-point flow."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        if self.w1.shape[1] != self.w2.shape[0] or self.w2.shape[1] != 3:
            raise ShapeError(
                f"head must end in 3 outputs, got {self.w1.shape} -> {self.w2.shape}"
            )
        if self.b1.shape != (self.w1.shape[1],) or self.b2.shape != (3,):
            raise ShapeError("head bias shapes inconsistent")

    @classmethod
    def seeded(cls, channels, rng):
        return cls(
            w1=uniform_init(rng, (3 * channels, channels)),
            b1=uniform_init(rng, (channels,)),
            w2=uniform_init(rng, (channels, 3)),
            b2=uniform_init(rng, (3,)),
        )

    @classmethod
    def zeros(cls, channels):
        return cls.seeded(channels, ZeroRng())

    def apply(self, feats):
        hidden = np.maximum(feats @ self.w1 + self.b1, 0.0)
        return hidden @ self.w2 + self.b2


def encode_offsets(p_offset, w):
    """Lift 3-channel in-cell offsets to C channels so they can condition
    the scan without being drowned out."""
    p_offset = np.asarray(p_offset, dtype=np.float64)
    if p_offset.ndim != 2 or p_offset.shape[1] != 3:
        raise ShapeError(f"offsets must be (N, 3), got {p_offset.shape}")
    if w.n_in != 3:
        raise ShapeError(f"offset encoder must take 3 inputs, got {w.n_in}")
    return w.apply(p_offset)


def assemble_coarse(voxel_features, point_features, assignment):
    """Per-point concat of the devoxelized backbone feature (first C lanes)
    and the point's own encoder feature (last C lanes)."""
    point_features = np.asarray(point_features, dtype=np.float64)
    coarse = devoxelize_coarse(voxel_features, assignment)
    if point_features.shape[0] != coarse.shape[0]:
        raise ShapeError(
            f"{point_features.shape[0]} point features vs {coarse.shape[0]} points"
        )
    if point_features.shape[1] != coarse.shape[1]:
        raise ShapeError(
            "voxel and point feature widths must match: "
            f"{coarse.shape[1]} vs {point_features.shape[1]}"
        )
    return np.concatenate([coarse, point_features], axis=1)


@dataclass(frozen=True)
class DecoderWeights:
    offset_encoder: MlpWeights  # 3 -> C -> C
    ssm_layers: tuple  # one SsmParams per cascade layer
    head: FlowHeadWeights


def decode(voxel_features, point_features, p_offset, assignment, weights, config):
    """Run the full decoder for one scene's prediction frame.

    Output row i is the flow of input point i regardless of the serialized
    processing order.
    """
    if len(weights.ssm_layers) != config.n_layers:
        raise ShapeError(
            f"{len(weights.ssm_layers)} scan layers provided, config wants {config.n_layers}"
        )
    f_coarse = assemble_coarse(voxel_features, point_features, assignment)
    f_offset = encode_offsets(p_offset, weights.offset_encoder)

    seq = serialize(f_coarse, assignment.clamped_coords())
    tokens = seq.rows[None]  # batch of one scene
    offset_tokens = f_offset[seq.order][None]
    hidden = None
    for params in weights.ssm_layers:
        tokens, hidden = flow_ssm_layer(
            tokens, offset_tokens, params, hidden,
            mode=config.zoh_mode, block_size=config.block_size,
        )

    refined = deserialize(seq.with_rows(tokens[0]))
    flow = weights.head.apply(np.concatenate([refined, f_offset], axis=1))
    bad = ~np.isfinite(flow).all(axis=1)
    if np.any(bad):
        raise NumericError("non-finite flow from head", index=int(np.flatnonzero(bad)[0]))
    return FlowField(flow)
