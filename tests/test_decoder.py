import dataclasses
import tracemalloc

import numpy as np
import pytest

from sfkit import decoder as dec
from sfkit import ssm
from sfkit.errors import ShapeError
from sfkit.pointcloud import PointCloud
from sfkit.serialization import deserialize, serialize
from sfkit.ssm import SsmParams, flow_ssm_layer
from sfkit.voxelizer import VoxelGrid, voxelize
from sfkit.weights import MlpWeights


def make_assignment(points):
    grid = VoxelGrid(origin=(0.0, 0.0, 0.0), cell_size=1.0, extents=(16, 16, 16))
    return voxelize(PointCloud(points), grid)


def seeded_weights(rng, channels=4, state=4, n_layers=1):
    return dec.DecoderWeights(
        offset_encoder=MlpWeights.seeded(3, channels, channels, rng),
        ssm_layers=tuple(
            SsmParams.seeded(2 * channels, state, channels, rng) for _ in range(n_layers)
        ),
        head=MlpWeights.seeded(3 * channels, channels, 3, rng),
    )


# --- offset encoder -----------------------------------------------------------


def test_zero_offset_encoder():
    out = dec.encode_offsets(np.zeros((5, 3)), MlpWeights.zeros(3, 4, 4))
    assert np.array_equal(out, np.zeros((5, 4)))


def test_offset_encoder_hand_computed():
    w = MlpWeights(
        w1=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
        b1=np.array([0.0, 0.5]),
        w2=np.array([[2.0], [1.0]]),
        b2=np.array([-1.0]),
    )
    # hidden = relu([0.5, -0.25 + 0.5]) = [0.5, 0.25]; out = 1.0 + 0.25 - 1.0
    out = dec.encode_offsets(np.array([[0.5, -0.25, 0.9]]), w)
    assert np.allclose(out, [[0.25]], atol=1e-15)


def test_offset_encoder_row_permutation():
    rng = np.random.default_rng(0)
    offs = rng.uniform(-1, 1, (10, 3))
    w = MlpWeights.seeded(3, 6, 6, rng)
    perm = rng.permutation(10)
    assert np.array_equal(dec.encode_offsets(offs, w)[perm], dec.encode_offsets(offs[perm], w))


def test_offset_encoder_shape_error():
    with pytest.raises(ShapeError):
        dec.encode_offsets(np.zeros((5, 2)), MlpWeights.zeros(3, 4, 4))
    with pytest.raises(ShapeError):
        dec.encode_offsets(np.zeros((5, 3)), MlpWeights.zeros(4, 4, 4))


# --- coarse assembly ------------------------------------------------------------


def test_assemble_covoxel_points_share_voxel_lanes():
    res = make_assignment([[0.2, 0.2, 0.2], [0.7, 0.7, 0.7], [5.5, 0.5, 0.5]])
    rng = np.random.default_rng(1)
    vf = rng.normal(size=(res.n_voxels, 3))
    pf = rng.normal(size=(3, 3))
    out = dec.assemble_coarse(vf, pf, res)
    assert out.shape == (3, 6)
    assert np.array_equal(out[0, :3], out[1, :3])  # shared voxel lanes
    assert not np.array_equal(out[0, 3:], out[1, 3:])


def test_assemble_zero_voxel_features():
    res = make_assignment([[0.5, 0.5, 0.5]])
    pf = np.array([[1.0, 2.0, 3.0]])
    out = dec.assemble_coarse(np.zeros((1, 3)), pf, res)
    assert np.array_equal(out, [[0.0, 0.0, 0.0, 1.0, 2.0, 3.0]])


def test_assemble_matches_gather_oracle():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 16, (50, 3))
    res = make_assignment(pts)
    vf = rng.normal(size=(res.n_voxels, 4))
    pf = rng.normal(size=(50, 4))
    out = dec.assemble_coarse(vf, pf, res)
    for i in range(50):
        assert np.array_equal(out[i, :4], vf[res.assignment[i]])
        assert np.array_equal(out[i, 4:], pf[i])


def test_assemble_width_mismatch():
    res = make_assignment([[0.5, 0.5, 0.5]])
    with pytest.raises(ShapeError):
        dec.assemble_coarse(np.zeros((1, 3)), np.zeros((1, 4)), res)


# --- decode -----------------------------------------------------------------------


def decode_inputs(rng, points, channels=4):
    res = make_assignment(points)
    vf = rng.normal(size=(res.n_voxels, channels))
    pf = rng.normal(size=(len(points), channels))
    return vf, pf, res


def test_covoxel_points_get_distinct_flow():
    rng = np.random.default_rng(3)
    points = [[0.2, 0.3, 0.4], [0.8, 0.6, 0.7]]  # same voxel, distinct offsets
    res = make_assignment(points)
    assert res.n_voxels == 1
    vf = rng.normal(size=(1, 4))
    pf = np.tile(rng.normal(size=(1, 4)), (2, 1))  # identical point features too
    w = seeded_weights(rng)
    flow = dec.decode(vf, pf, res, w)
    assert np.linalg.norm(flow.vectors[0] - flow.vectors[1]) > 1e-9


def test_all_zero_weights_give_zero_flow():
    rng = np.random.default_rng(4)
    vf, pf, res = decode_inputs(rng, rng.uniform(0, 16, (20, 3)))
    w = dec.DecoderWeights(
        offset_encoder=MlpWeights.zeros(3, 4, 4),
        ssm_layers=(SsmParams.zeros(8, 4, 4),),
        head=MlpWeights.zeros(12, 4, 3),
    )
    flow = dec.decode(vf, pf, res, w)
    assert np.array_equal(flow.vectors, np.zeros((20, 3)))


def test_decode_deterministic():
    rng = np.random.default_rng(5)
    vf, pf, res = decode_inputs(rng, rng.uniform(0, 16, (100, 3)))
    w = seeded_weights(np.random.default_rng(42))
    a = dec.decode(vf, pf, res, w)
    b = dec.decode(vf, pf, res, w)
    assert np.array_equal(a.vectors, b.vectors)


def test_decode_output_follows_input_order():
    # distinct Morton codes: permuting the input points permutes the output
    rng = np.random.default_rng(6)
    pts = np.array([[x + 0.5, 2.0, 3.0] for x in range(12)])
    res = make_assignment(pts)
    vf = rng.normal(size=(res.n_voxels, 4))
    pf = rng.normal(size=(12, 4))
    w = seeded_weights(np.random.default_rng(7))
    base = dec.decode(vf, pf, res, w)

    perm = rng.permutation(12)
    res_p = make_assignment(pts[perm])
    vf_p = np.empty_like(vf)
    # occupied-voxel order may differ; remap voxel features by coordinate
    for i, coord in enumerate(res_p.voxel_coords):
        match = np.flatnonzero((res.voxel_coords == coord).all(axis=1))[0]
        vf_p[i] = vf[match]
    out = dec.decode(vf_p, pf[perm], res_p, w)
    assert np.allclose(out.vectors, base.vectors[perm], atol=1e-12)


def test_decode_layer_count_changes_values_not_shape():
    rng = np.random.default_rng(8)
    vf, pf, res = decode_inputs(rng, rng.uniform(0, 16, (30, 3)))
    w1 = seeded_weights(np.random.default_rng(9), n_layers=1)
    w3 = dec.DecoderWeights(
        offset_encoder=w1.offset_encoder,
        ssm_layers=w1.ssm_layers * 3,
        head=w1.head,
    )
    f1 = dec.decode(vf, pf, res, w1)
    f3 = dec.decode(vf, pf, res, w3)
    assert f1.vectors.shape == f3.vectors.shape
    assert not np.allclose(f1.vectors, f3.vectors)


def test_decoder_refuses_an_empty_cascade():
    w = seeded_weights(np.random.default_rng(10))
    with pytest.raises(ShapeError, match="at least one scan layer"):
        dec.DecoderWeights(offset_encoder=w.offset_encoder, ssm_layers=(), head=w.head)


def two_serialize_decode(voxel_features, point_features, assignment, weights):
    """decode with both feature sets serialized separately and the offsets
    deserialized back before the head."""
    f_coarse = dec.assemble_coarse(voxel_features, point_features, assignment)
    f_offset = dec.encode_offsets(assignment.offsets, weights.offset_encoder)
    coords = assignment.clamped_coords()
    seq_coarse = serialize(f_coarse, coords)
    seq_offset = serialize(f_offset, coords)
    tokens, hidden = seq_coarse.rows[None], None
    for params in weights.ssm_layers:
        tokens, hidden = flow_ssm_layer(tokens, seq_offset.rows[None], params, hidden)
    refined = deserialize(dataclasses.replace(seq_coarse, rows=tokens[0]))
    return weights.head.apply(np.concatenate([refined, deserialize(seq_offset)], axis=1))


@pytest.mark.parametrize("n_layers", [1, 2])
def test_decode_serializes_once_byte_identical(n_layers, monkeypatch):
    # 3000 points over 4096 cells: many co-voxel ties, and a scan of several chunks
    rng = np.random.default_rng(11)
    vf, pf, res = decode_inputs(rng, rng.uniform(0, 16, (3000, 3)))
    w = seeded_weights(np.random.default_rng(12), n_layers=n_layers)
    expect = two_serialize_decode(vf, pf, res, w)
    calls = []
    monkeypatch.setattr(dec, "serialize", lambda *a: calls.append(1) or serialize(*a))
    flow = dec.decode(vf, pf, res, w)
    assert np.array_equal(flow.vectors, expect)
    assert len(calls) == 1


def test_decode_bytes_do_not_depend_on_threads(set_cpus):
    rng = np.random.default_rng(13)
    vf, pf, res = decode_inputs(rng, rng.uniform(0, 16, (3000, 3)), channels=16)
    w = seeded_weights(np.random.default_rng(14), channels=16, state=16, n_layers=2)
    flows = []
    for cpus in (1, 2, 3):
        set_cpus(cpus)
        assert ssm.split_groups(3000, 32, 16) == cpus
        flows.append(dec.decode(vf, pf, res, w).vectors.tobytes())
    assert flows[0] == flows[1] == flows[2]


def test_decode_peak_memory_bound_on_dense_scene(one_cpu):
    # 32.4k points over 4096 cells (~7.9 per voxel) at the pipeline widths:
    # the serialized sequence, not the voxels, sets the decoder's memory.
    rng = np.random.default_rng(13)
    channels, n_points = 16, 32_400
    vf, pf, res = decode_inputs(rng, rng.uniform(0, 16, (n_points, 3)), channels)
    w = seeded_weights(np.random.default_rng(14), channels, state=16)
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        dec.decode(vf, pf, res, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sequence = n_points * 2 * channels * 8  # one (L, 2C) float64 array
    assert peak - entry <= 7 * sequence, f"{(peak - entry) / sequence:.2f} x L*2C*8"


def test_decode_refines_in_place_within_tight_memory_bound(one_cpu):
    # The inputs of test_decode_peak_memory_bound_on_dense_scene.  With the
    # sequence refined in place, each chunk discretized into the scan
    # workspace and one copy of each per-point array, the head's input and
    # its two parts (3 x L*2C*8) set the peak.
    rng = np.random.default_rng(13)
    channels, n_points = 16, 32_400
    vf, pf, res = decode_inputs(rng, rng.uniform(0, 16, (n_points, 3)), channels)
    w = seeded_weights(np.random.default_rng(14), channels, state=16)
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        dec.decode(vf, pf, res, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sequence = n_points * 2 * channels * 8  # one (L, 2C) float64 array
    assert peak - entry <= 3.5 * sequence, f"{(peak - entry) / sequence:.2f} x L*2C*8"
