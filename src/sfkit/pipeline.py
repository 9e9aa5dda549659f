"""End-to-end orchestration: configuration, the full weight bundle, and the
scene -> flow inference path shared by the CLI and the tests.

Inference order: voxelize and encode each of the five frames, pool to voxel
features, stack along time, run the sparse backbone, pull the prediction
frame's voxel features back out, and decode them to per-point flow.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .decoder import DecoderWeights, decode
from .errors import CONFIG_RULES, MAX_FLOATS, InvalidConfig, InvalidInput, ShapeError, check_config
from .pointcloud import DEFAULT_DT, DEFAULT_DYNAMIC_THRESHOLD, FRAME_T
from .ssm import SsmParams, scan_layout
from .stdcb import BackboneWeights, StdcbWeights, backbone_forward
from .voxelizer import (
    DEFAULT_CELL_SIZE,
    DEFAULT_CHANNELS,
    DEFAULT_EXTENTS,
    DEFAULT_ORIGIN,
    VoxelGrid,
    encode_point_features,
    pool_to_voxels,
    stack_temporal,
    voxelize,
)
from .weights import (
    MlpWeights,
    ZeroRng,
    flatten_tree,
    load_weight_dict,
    save_weight_dict,
    unflatten_like,
)


@dataclass(frozen=True)
class RunConfig:
    """Every knob of the pipeline in one validated bundle."""

    grid_origin: tuple = DEFAULT_ORIGIN
    cell_size: float = DEFAULT_CELL_SIZE
    grid_extents: tuple = DEFAULT_EXTENTS
    channels: int = DEFAULT_CHANNELS
    encoder_depths: tuple = (1, 1)
    decoder_depths: tuple = (1,)
    decoder_layers: int = 1
    state_size: int = 16
    dt: float = DEFAULT_DT
    k_bins: int = 100
    dynamic_threshold: float = DEFAULT_DYNAMIC_THRESHOLD

    def __post_init__(self):
        check_config(self, *CONFIG_RULES)
        if len(self.decoder_depths) != len(self.encoder_depths) - 1:
            raise InvalidConfig(
                "decoder_depths must be one integer >= 1 per level transition "
                f"({len(self.encoder_depths) - 1}), got {self.decoder_depths!r}"
            )
        if (floats := _bundle_floats(self)) > MAX_FLOATS:
            raise InvalidConfig(
                "channels, encoder_depths, decoder_depths, decoder_layers and state_size "
                f"must give a weight bundle of at most {MAX_FLOATS} floats, got {floats}"
            )

    def grid(self):
        return VoxelGrid(self.grid_origin, self.cell_size, self.grid_extents)

    @classmethod
    def from_mapping(cls, *mappings):
        """Build from JSON objects; a key in a later one overrides earlier ones."""
        merged = {}
        for mapping in mappings:
            if not isinstance(mapping, dict):
                raise InvalidConfig(f"a run config must be a JSON object, got {mapping!r}")
            merged.update(mapping)
        unknown = set(merged) - set(cls.__dataclass_fields__)
        if unknown:
            raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
        return cls(**merged)

    def to_mapping(self):
        return asdict(self)


@dataclass(frozen=True)
class PipelineWeights:
    """All learnable arrays of the inference path."""

    point_encoder: MlpWeights  # 3 -> C -> C, shared across frames
    backbone: BackboneWeights
    decoder: DecoderWeights


def init_pipeline_weights(config, seed):
    """Draw a full weight bundle from one seed (uniform on [-0.1, 0.1])."""
    return _build_pipeline_weights(config, np.random.default_rng(seed))


def _build_pipeline_weights(config, rng):
    c = config.channels
    point_encoder = MlpWeights.seeded(3, c, c, rng)
    backbone = BackboneWeights.seeded(c, config.encoder_depths, config.decoder_depths, rng)
    offset_encoder = MlpWeights.seeded(3, c, c, rng)
    ssm_layers = tuple(
        SsmParams.seeded(2 * c, config.state_size, c, rng)
        for _ in range(config.decoder_layers)
    )
    head = MlpWeights.seeded(3 * c, c, 3, rng)
    return PipelineWeights(
        point_encoder=point_encoder,
        backbone=backbone,
        decoder=DecoderWeights(
            offset_encoder=offset_encoder, ssm_layers=ssm_layers, head=head
        ),
    )


def _floats(tree):
    return sum(np.size(leaf) for leaf in flatten_tree(tree).values())


def _bundle_floats(config):
    """Floats in ``config``'s weight bundle, a kernel's ``dilation_t``
    counted as one.  Every block and every scan layer has one shape, so one
    of each is built from ZeroRng, for free, and no depth is looped over."""
    c, zero = config.channels, ZeroRng()
    blocks = sum(config.encoder_depths) + sum(config.decoder_depths)
    return (
        2 * _floats(MlpWeights.seeded(3, c, c, zero))  # point and offset encoders
        + blocks * _floats(StdcbWeights.seeded(c, zero))
        + config.decoder_layers * _floats(SsmParams.seeded(2 * c, config.state_size, c, zero))
        + _floats(MlpWeights.seeded(3 * c, c, 3, zero))  # head
    )


# --- SFWT round trip ---------------------------------------------------------


def _section_name(path):
    """The SFWT section holding a weight-tree field path: the path itself,
    except that scan layers are stored as ``decoder.ssm.N``."""
    return path.replace("decoder.ssm_layers.", "decoder.ssm.", 1)


def pipeline_weights_to_dict(weights):
    return {_section_name(path): leaf for path, leaf in flatten_tree(weights).items()}


def pipeline_weights_from_dict(flat, config):
    """Rebuild the bundle for ``config`` from {section: array}.

    The sections must be exactly the config's: a missing or extra section, a
    shape unlike the config's, or a stored ``dilation_t`` unlike the
    template's raises ShapeError naming the section.  A section holding a
    non-finite value raises InvalidInput naming it.
    """
    template = _build_pipeline_weights(config, ZeroRng())
    leaves = flatten_tree(template)
    expected = set()
    for path, leaf in leaves.items():
        name = _section_name(path)
        expected.add(name)
        if name not in flat:
            raise ShapeError(f"weight file is missing section {name!r}")
        value = flat[name]
        if np.shape(value) != np.shape(leaf):
            raise ShapeError(
                f"section {name!r} is {np.shape(value)}, the config wants {np.shape(leaf)}"
            )
        if isinstance(leaf, np.ndarray):
            if not np.all(np.isfinite(value)):
                raise InvalidInput(f"section {name!r} holds a non-finite value")
            leaves[path] = value
        elif value != leaf:
            raise ShapeError(f"section {name!r} holds {value}, the config wants {leaf}")
    extra = sorted(set(flat) - expected)
    if extra:
        raise ShapeError(f"weight file has {len(extra)} extra section(s), e.g. {extra[0]!r}")
    return unflatten_like(template, leaves)


def save_pipeline_weights(weights, path):
    save_weight_dict(pipeline_weights_to_dict(weights), path)


def load_pipeline_weights(path, config):
    return pipeline_weights_from_dict(load_weight_dict(path), config)


# --- Inference ---------------------------------------------------------------


@dataclass
class InferenceTrace:
    """What a traced run keeps: the whole backbone output."""

    backbone_out: object = None


def infer_flow(scene, weights, config, trace=None):
    """Predict per-point flow for the scene's prediction frame.

    A scan workspace too large for the prediction frame's points is refused
    before any stage runs.  Every array is dropped once its last reader has
    run: from the backbone on, only the prediction frame's voxelization
    result and point features are kept of the per-frame state.  A trace
    changes only the backbone's output: it keeps all of its rows, not just
    the prediction frame's.
    """
    grid = config.grid()
    layer = weights.decoder.ssm_layers[0]
    # The decoder scans every point of the prediction frame, in one batch.
    scan_layout(1, len(scene.prediction_frame), layer.d_inner, layer.state_size)
    results, voxel_feats = [], []
    point_feats_t = None
    for frame in scene.frames:
        res = voxelize(frame, grid)
        pf = encode_point_features(frame, weights.point_encoder)
        # Out-of-grid points get zero features, as they get zero offsets and
        # pool into no voxel: their raw coordinates reach nothing downstream.
        pf[~res.in_bounds] = 0.0
        results.append(res)
        voxel_feats.append(pool_to_voxels(pf, res))
        if frame.frame_index == FRAME_T:
            point_feats_t = pf

    # Handed over by ``pop`` so that the backbone call holds the only
    # reference and can free the stacked input after its last reader.
    stacked = [stack_temporal(results, voxel_feats)]
    res_t = results[FRAME_T]
    # In canonical order the prediction frame's rows are one range, and the
    # decoder reads nothing else; a trace keeps the whole backbone output.
    lo = sum(res.n_voxels for res in results[:FRAME_T])
    rows = None if trace is not None else (lo, lo + res_t.n_voxels)
    del results, res, pf, voxel_feats  # the stacked tensor holds copies of the features
    refined = backbone_forward(stacked.pop(), weights.backbone, rows)

    keys = np.empty((res_t.n_voxels, 4), dtype=np.int64)
    keys[:, 0] = FRAME_T
    keys[:, 1:] = res_t.voxel_coords
    idx, found = refined.lookup(keys)
    if not np.all(found):
        raise ShapeError("backbone dropped prediction-frame voxels")
    f3d_t = refined.features[idx]
    if trace is not None:
        trace.backbone_out = refined
    # The decoder sets the peak memory: keep alive only what it reads, and
    # hand its feature inputs over by ``pop`` so that it can free them.
    del refined
    features = [f3d_t, point_feats_t]
    del f3d_t, point_feats_t
    return decode(features.pop(0), features.pop(0), res_t, weights.decoder)
