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

from .errors import NumericError, ShapeError
from .pointcloud import FlowField
from .serialization import deserialize, serialize
from .ssm import flow_ssm_layer
from .voxelizer import devoxelize_coarse
from .weights import MlpWeights


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
    head: MlpWeights  # flow head, 2C + C -> C -> 3

    def __post_init__(self):
        if not self.ssm_layers:
            raise ShapeError("a decoder needs at least one scan layer")


def decode(voxel_features, point_features, assignment, weights):
    """Run the full decoder for one scene's prediction frame.

    ``assignment`` is the frame's voxelization result; its in-cell offsets
    condition the scan.  The cascade runs one scan layer per entry of
    ``weights.ssm_layers`` (``flow_ssm_layer``, which scans in blocks of
    ``ssm.DEFAULT_BLOCK_SIZE``).

    Output row i is the flow of input point i regardless of the serialized
    processing order.  The scan layers refine the serialized sequence in
    place, and each per-point array exists in one copy at a time: the
    offset features are kept only in sequence order, and the head reads
    them back through the inverse permutation.  So that the decoder's
    inputs can be freed here, the caller should hold no other reference.
    """
    # Each array is dropped once its last reader has run; the head's input,
    # built while its two parts are alive, sets the peak memory.
    f_coarse = assemble_coarse(voxel_features, point_features, assignment)
    del voxel_features, point_features
    seq = serialize(f_coarse, assignment.clamped_coords())
    del f_coarse
    offset_tokens = encode_offsets(assignment.offsets, weights.offset_encoder)[seq.order][None]
    tokens = seq.rows[None]  # batch of one scene
    hidden = None
    for params in weights.ssm_layers:
        hidden = flow_ssm_layer(tokens, offset_tokens, params, hidden, out=tokens)[1]
    del tokens

    refined, rank = deserialize(seq), seq.rank
    del seq
    f_offset = offset_tokens[0][rank]  # input order, equal byte for byte
    del offset_tokens
    head_in = np.concatenate([refined, f_offset], axis=1)
    del refined, f_offset
    flow = weights.head.apply(head_in)
    bad = ~np.isfinite(flow).all(axis=1)
    if np.any(bad):
        raise NumericError("non-finite flow from head", index=int(np.flatnonzero(bad)[0]))
    return FlowField(flow)
