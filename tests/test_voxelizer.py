import re

import numpy as np
import pytest

from sfkit import voxelizer as vx
from sfkit.errors import AlignmentError, InvalidConfig, NumericError, RangeError, ShapeError
from sfkit.pointcloud import PointCloud
from sfkit.weights import MlpWeights


def small_grid():
    return vx.VoxelGrid(origin=(0.0, 0.0, 0.0), cell_size=1.0, extents=(10, 10, 10))


def random_cloud(rng, n, lo=0.0, hi=10.0):
    return PointCloud(rng.uniform(lo, hi, (n, 3)))


# --- grid / assignment ---------------------------------------------------------


def test_grid_validation():
    with pytest.raises(InvalidConfig):
        vx.VoxelGrid(cell_size=0.0)
    with pytest.raises(InvalidConfig):
        vx.VoxelGrid(extents=(0, 4, 4))
    with pytest.raises(InvalidConfig):
        vx.VoxelGrid(extents=(1 << 21, 4, 4))


def test_point_at_voxel_center_has_zero_offset():
    res = vx.voxelize(PointCloud([[2.5, 3.5, 4.5]]), small_grid())
    assert np.allclose(res.offsets, 0.0, atol=1e-12)
    assert np.array_equal(res.voxel_coords, [[2, 3, 4]])


def test_two_points_share_a_voxel():
    res = vx.voxelize(PointCloud([[1.2, 1.2, 1.2], [1.8, 1.9, 1.1]]), small_grid())
    assert res.n_voxels == 1
    assert np.array_equal(res.assignment, [0, 0])


def test_out_of_bounds_points_flagged_not_dropped():
    res = vx.voxelize(PointCloud([[5.0, 5.0, 5.0], [-3.0, 5.0, 5.0]]), small_grid())
    assert res.assignment[0] == 0
    assert res.assignment[1] == vx.OUT_OF_BOUNDS
    assert np.all(res.offsets[1] == 0.0)
    assert res.n_points == 2


def test_smallest_subnormal_cell_size_gives_finite_offsets():
    grid = vx.VoxelGrid(origin=(0.0, 0.0, 0.0), cell_size=5e-324, extents=(4, 4, 4))
    res = vx.voxelize(PointCloud([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]), grid)
    assert np.array_equal(res.in_bounds, [True, False])
    assert np.all(np.abs(res.offsets) <= 1.0)


def test_grouping_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    cloud = random_cloud(rng, 1000, lo=-2.0, hi=12.0)  # some points out of bounds
    grid = small_grid()
    res = vx.voxelize(cloud, grid)

    # oracle: pairwise comparison of floor-divided coordinates
    floors = np.floor((cloud.points - np.asarray(grid.origin)) / grid.cell_size)
    inb = np.all((floors >= 0) & (floors < np.asarray(grid.extents)), axis=1)
    for i in range(res.n_points):
        assert inb[i] == (res.assignment[i] != vx.OUT_OF_BOUNDS)
    same_cell = lambda i, j: np.array_equal(floors[i], floors[j])
    idx = rng.choice(np.flatnonzero(inb), size=(200, 2))
    for i, j in idx:
        assert same_cell(i, j) == (res.assignment[i] == res.assignment[j])


def test_every_in_bounds_point_in_exactly_one_voxel():
    rng = np.random.default_rng(1)
    res = vx.voxelize(random_cloud(rng, 500), small_grid())
    seen = np.concatenate([np.flatnonzero(res.assignment == v) for v in range(res.n_voxels)])
    assert sorted(seen) == sorted(np.flatnonzero(res.in_bounds))


def test_translation_consistency():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.0, 10.0, (300, 3))
    delta = np.array([3.7, -1.3, 0.9])
    grid_a = small_grid()
    grid_b = vx.VoxelGrid(origin=tuple(np.asarray(grid_a.origin) + delta),
                          cell_size=1.0, extents=(10, 10, 10))
    res_a = vx.voxelize(PointCloud(pts), grid_a)
    res_b = vx.voxelize(PointCloud(pts + delta), grid_b)
    assert np.array_equal(res_a.assignment, res_b.assignment)
    assert np.allclose(res_a.offsets, res_b.offsets, atol=1e-12)


def test_offsets_bounded():
    rng = np.random.default_rng(3)
    res = vx.voxelize(random_cloud(rng, 2000), small_grid())
    assert np.max(np.abs(res.offsets[res.in_bounds])) <= 1.0 + 1e-12


# --- point features --------------------------------------------------------------


def test_zero_weights_give_zero_features():
    cloud = PointCloud([[1.0, 2.0, 3.0]])
    out = vx.encode_point_features(cloud, MlpWeights.zeros(3, 4, 4))
    assert np.array_equal(out, np.zeros((1, 4)))


def test_hand_computed_feature():
    # first layer passes coordinates through (identity-ish), second layer sums
    w = MlpWeights(
        w1=np.eye(3, 4),
        b1=np.zeros(4),
        w2=np.ones((4, 2)),
        b2=np.zeros(2),
    )
    out = vx.encode_point_features(PointCloud([[1.0, -2.0, 3.0]]), w)
    # hidden = relu([1, -2, 3, 0]) = [1, 0, 3, 0]; each output = 1 + 0 + 3 + 0
    assert np.allclose(out, [[4.0, 4.0]])


def test_row_wise_permutation_equivariance():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(20, 3))
    w = MlpWeights.seeded(3, 8, 8, rng)
    perm = rng.permutation(20)
    a = vx.encode_point_features(PointCloud(pts), w)
    b = vx.encode_point_features(PointCloud(pts[perm]), w)
    assert np.array_equal(a[perm], b)


def test_encoder_shape_mismatch():
    with pytest.raises(ShapeError):
        vx.encode_point_features(PointCloud([[0, 0, 0]]), MlpWeights.zeros(5, 4, 4))


# --- pooling / devoxelization ----------------------------------------------------


def test_pool_singletons_is_identity():
    cloud = PointCloud([[0.5, 0.5, 0.5], [3.5, 3.5, 3.5]])
    res = vx.voxelize(cloud, small_grid())
    feats = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vx.pool_to_voxels(feats, res), feats)


def test_pool_mean_of_equal_features():
    cloud = PointCloud([[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]])
    res = vx.voxelize(cloud, small_grid())
    feats = np.array([[2.0, -1.0], [2.0, -1.0]])
    assert np.array_equal(vx.pool_to_voxels(feats, res), [[2.0, -1.0]])


def test_pool_matches_naive_loop():
    rng = np.random.default_rng(5)
    cloud = random_cloud(rng, 400, lo=-1.0, hi=11.0)
    res = vx.voxelize(cloud, small_grid())
    feats = rng.normal(size=(400, 6))
    pooled = vx.pool_to_voxels(feats, res)
    for v in range(res.n_voxels):
        members = np.flatnonzero(res.assignment == v)
        expect = feats[members].mean(axis=0)
        assert np.max(np.abs(pooled[v] - expect)) < 1e-12


def add_at_pool(feats, res):
    """pool_to_voxels in its np.add.at form."""
    sums = np.zeros((res.n_voxels, feats.shape[1]))
    np.add.at(sums, res.assignment[res.in_bounds], feats[res.in_bounds])
    return sums / np.bincount(res.assignment[res.in_bounds], minlength=res.n_voxels)[:, None]


def test_pool_bytes_match_add_at_form():
    rng = np.random.default_rng(9)
    cloud = random_cloud(rng, 3000, lo=-2.0, hi=12.0)  # dense, with out-of-grid points
    res = vx.voxelize(cloud, small_grid())
    assert not np.all(res.in_bounds) and res.n_voxels < res.n_points
    signed_zeros = rng.choice([-0.0, 0.0, 1.5], size=(3000, 5))
    signed_zeros[res.assignment == res.assignment[np.flatnonzero(res.in_bounds)[0]]] = -0.0
    for feats in (rng.normal(size=(3000, 7)), signed_zeros,
                  np.asfortranarray(rng.normal(size=(3000, 4)))):
        assert vx.pool_to_voxels(feats, res).tobytes() == add_at_pool(feats, res).tobytes()


def test_devoxelize_copies_per_voxel():
    cloud = PointCloud([[1.1, 1.1, 1.1], [1.9, 1.9, 1.9], [5.5, 5.5, 5.5]])
    res = vx.voxelize(cloud, small_grid())
    vf = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = vx.devoxelize_coarse(vf, res)
    assert np.array_equal(out[0], out[1])  # co-voxel points identical
    assert not np.array_equal(out[0], out[2])


def test_pool_then_devoxelize_identity_for_singletons():
    rng = np.random.default_rng(6)
    pts = np.stack(np.meshgrid(*[np.arange(4) + 0.5] * 3, indexing="ij"), -1).reshape(-1, 3)
    res = vx.voxelize(PointCloud(pts), small_grid())
    feats = rng.normal(size=(len(pts), 5))
    assert np.allclose(
        vx.devoxelize_coarse(vx.pool_to_voxels(feats, res), res), feats, atol=1e-14
    )


def test_pool_devoxelize_idempotent_on_voxel_features():
    rng = np.random.default_rng(7)
    cloud = random_cloud(rng, 200)
    res = vx.voxelize(cloud, small_grid())
    vf = rng.normal(size=(res.n_voxels, 4))
    again = vx.pool_to_voxels(vx.devoxelize_coarse(vf, res), res)
    assert np.allclose(again, vf, atol=1e-12)


def test_devoxelize_matches_gather_loop():
    rng = np.random.default_rng(8)
    cloud = random_cloud(rng, 300, lo=-1.0, hi=11.0)
    res = vx.voxelize(cloud, small_grid())
    vf = rng.normal(size=(res.n_voxels, 3))
    out = vx.devoxelize_coarse(vf, res)
    for i in range(res.n_points):
        if res.assignment[i] == vx.OUT_OF_BOUNDS:
            assert np.array_equal(out[i], np.zeros(3))
        else:
            assert np.array_equal(out[i], vf[res.assignment[i]])


def test_pool_shape_mismatch():
    res = vx.voxelize(PointCloud([[0.5, 0.5, 0.5]]), small_grid())
    with pytest.raises(ShapeError):
        vx.pool_to_voxels(np.zeros((3, 2)), res)
    with pytest.raises(ShapeError):
        vx.devoxelize_coarse(np.zeros((5, 2)), res)


# --- temporal stacking -----------------------------------------------------------


def _frame_results(rng, grid, counts):
    results, feats = [], []
    for n in counts:
        res = vx.voxelize(PointCloud(rng.uniform(0, 10, (n, 3))), grid)
        results.append(res)
        feats.append(rng.normal(size=(res.n_voxels, 4)))
    return results, feats


def test_stack_single_occupied_frame():
    rng = np.random.default_rng(9)
    grid = small_grid()
    results, feats = _frame_results(rng, grid, [0, 5, 0])
    tensor = vx.stack_temporal(results, feats)
    assert np.all(tensor.coords[:, 0] == 1)


def test_stack_key_count_is_sum_of_frames():
    rng = np.random.default_rng(10)
    results, feats = _frame_results(rng, small_grid(), [50, 80, 20, 60, 10])
    tensor = vx.stack_temporal(results, feats)
    assert tensor.n_active == sum(r.n_voxels for r in results)


def test_stack_lookup_matches_source():
    rng = np.random.default_rng(11)
    results, feats = _frame_results(rng, small_grid(), [30, 40, 25])
    tensor = vx.stack_temporal(results, feats)
    for tau in range(3):
        v = rng.integers(0, results[tau].n_voxels)
        key = np.concatenate(([tau], results[tau].voxel_coords[v]))
        idx, found = tensor.lookup(key[None])
        assert found[0]
        assert np.array_equal(tensor.features[idx[0]], feats[tau][v])


def test_stack_rejects_mismatched_channels_and_grids():
    rng = np.random.default_rng(12)
    results, feats = _frame_results(rng, small_grid(), [10, 10])
    feats[1] = rng.normal(size=(results[1].n_voxels, 7))
    with pytest.raises(ShapeError):
        vx.stack_temporal(results, feats)

    other = vx.VoxelGrid(origin=(0, 0, 0), cell_size=0.5, extents=(10, 10, 10))
    res_other = vx.voxelize(PointCloud(rng.uniform(0, 4, (10, 3))), other)
    with pytest.raises(ShapeError):
        vx.stack_temporal(
            [results[0], res_other],
            [np.zeros((results[0].n_voxels, 4)), np.zeros((res_other.n_voxels, 4))],
        )


def test_stack_bytes_match_sorting_constructor():
    rng = np.random.default_rng(13)
    results, feats = _frame_results(rng, small_grid(), [60, 0, 90, 30, 45])
    tensor = vx.stack_temporal(results, feats)
    keys = [np.column_stack([np.full(r.n_voxels, tau), r.voxel_coords])
            for tau, r in enumerate(results)]
    sorted_tensor = vx.SparseTensor4D(np.vstack(keys)[::-1], np.vstack(feats)[::-1])
    assert tensor.coords.tobytes() == sorted_tensor.coords.tobytes()
    assert tensor.features.tobytes() == sorted_tensor.features.tobytes()


def _result_with_voxels(grid, voxel_coords):
    voxel_coords = np.asarray(voxel_coords, dtype=np.int64)
    n = len(voxel_coords)
    return vx.VoxelizationResult(grid, np.arange(n), np.zeros((n, 3)),
                                 voxel_coords.copy(), voxel_coords)


@pytest.mark.parametrize("voxel_coords", [
    [[0, 0, 1], [0, 1, 0], [0, 0, 2]],  # out of order in the second axis
    [[1, 0, 0], [0, 9, 9]],  # out of order in the first axis
    [[2, 3, 4], [2, 3, 4]],  # a duplicate key
])
def test_stack_rejects_keys_that_do_not_ascend(voxel_coords):
    grid = small_grid()
    good = _result_with_voxels(grid, [[0, 0, 0], [5, 5, 5]])
    bad = _result_with_voxels(grid, voxel_coords)
    feats = [np.zeros((good.n_voxels, 2)), np.zeros((bad.n_voxels, 2))]
    assert vx.stack_temporal([good, good], [feats[0], feats[0]]).n_active == 4
    with pytest.raises(ShapeError):
        vx.stack_temporal([good, bad], feats)


# --- sparse tensor container ------------------------------------------------------


def test_sparse_tensor_rejects_non_finite():
    with pytest.raises(NumericError):
        vx.SparseTensor4D(np.zeros((1, 4), dtype=int), np.array([[np.inf, 0.0]]))


def test_sparse_tensor_rejects_duplicates():
    coords = np.array([[0, 1, 2, 3], [0, 1, 2, 3]])
    with pytest.raises(ShapeError):
        vx.SparseTensor4D(coords, np.zeros((2, 2)))


def test_sparse_tensor_lookup():
    coords = np.array([[0, 5, 5, 5], [1, 2, 3, 4], [0, 0, 0, 0]])
    feats = np.arange(6.0).reshape(3, 2)
    tensor = vx.SparseTensor4D(coords, feats)
    idx, found = tensor.lookup(np.array([[1, 2, 3, 4], [2, 2, 3, 4], [0, 0, 0, 0]]))
    assert list(found) == [True, False, True]
    assert np.array_equal(tensor.features[idx[0]], feats[1])
    assert np.array_equal(tensor.features[idx[2]], feats[2])


def test_keys_that_would_wrap_int64_raise_range_error():
    m = 2**22 - 1  # two frames of a 2**22-cell cube: 2**67 cells to pack
    coords = np.array([[0, 0, 0, 0], [0, m, m, m], [1, 0, 0, 0], [1, 5, 5, 5]])
    tensor = vx.SparseTensor4D(coords, np.arange(4.0).reshape(4, 1))
    with pytest.raises(RangeError, match=r"\[2, 4194304, 4194304, 4194304\]"):
        tensor.lookup(tensor.coords)
    with pytest.raises(RangeError):
        vx.KernelMap(tensor.coords, SPATIAL_TAPS).pairs(SPATIAL_TAPS)
    # A quarter of that span per axis still packs, and every row finds itself.
    fits = vx.SparseTensor4D(coords // (1, 4, 4, 4), tensor.features)
    idx, found = fits.lookup(fits.coords)
    assert found.all() and idx.tolist() == [0, 1, 2, 3]


def test_packing_strides_bound_is_int64_max():
    top = np.iinfo(np.int64).max
    strides, cells = vx.packing_strides((0, 0), (0, top - 1))
    assert cells == top and strides.tolist() == [top, 1]
    with pytest.raises(RangeError):
        vx.packing_strides((0, 0), (1, top // 2))  # 2 * 2**62 cells


# --- kernel maps ------------------------------------------------------------------

SPATIAL_TAPS = [(0, a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)]
TEMPORAL_TAPS = [(-2, 0, 0, 0), (-1, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0)]
FAR_TAPS = [(0, 9, 0, 0), (0, 0, -9, 0), (5, 0, 0, 0), (-5, 1, 1, 1), (1, -2, 3, -4)]
TAPS = SPATIAL_TAPS + TEMPORAL_TAPS + FAR_TAPS


def random_sparse(rng, n, extent=(5, 8, 8, 8)):
    cells = rng.choice(int(np.prod(extent)), size=n, replace=False)
    coords = np.stack(np.unravel_index(cells, extent), axis=1)
    return vx.SparseTensor4D(coords, rng.normal(size=(n, 2)))


def kernel_map_cases():
    rng = np.random.default_rng(30)
    time_edges = np.array([[t, x, 3, 3] for t in (0, 2, 4) for x in (2, 3)])
    return {
        "empty": vx.SparseTensor4D(np.empty((0, 4), dtype=int), np.empty((0, 2))),
        "single": vx.SparseTensor4D([[4, 7, 0, 3]], [[1.0, 2.0]]),
        "sparse": random_sparse(rng, 40),
        "dense": random_sparse(rng, 1500),
        "time_edges": vx.SparseTensor4D(time_edges, np.ones((len(time_edges), 2))),
    }


def assert_maps_match_lookup(tensor, taps=TAPS):
    pairs = vx.KernelMap(tensor.coords, taps).pairs(np.array(taps))
    for tap, pair in zip(taps, pairs):
        idx, found = tensor.lookup(tensor.coords + np.array(tap))
        if pair is None:
            assert not any(tap) and found.all()
            assert np.array_equal(idx, np.arange(tensor.n_active))
            continue
        dst, src = pair
        assert dst.dtype == np.int32 and src.dtype == np.int32
        assert np.array_equal(dst, np.flatnonzero(found)), tap
        assert np.array_equal(src, idx[found]), tap


@pytest.mark.parametrize("cells_per_site", [0, vx.TABLE_CELLS_PER_SITE, 10**9])
@pytest.mark.parametrize("case", sorted(kernel_map_cases()))
def test_kernel_map_matches_lookup_oracle(case, cells_per_site, monkeypatch):
    monkeypatch.setattr(vx, "TABLE_CELLS_PER_SITE", cells_per_site)
    assert_maps_match_lookup(kernel_map_cases()[case])


def test_kernel_map_dilated_time_taps_at_sequence_ends():
    coords = np.array([[0, 1, 1, 1], [2, 1, 1, 1], [4, 1, 1, 1], [4, 2, 1, 1]])
    tensor = vx.SparseTensor4D(coords, np.zeros((4, 1)))
    taps = [(-2, 0, 0, 0), (2, 0, 0, 0)]
    back, fwd = vx.KernelMap(tensor.coords, taps).pairs(taps)
    assert back[0].tolist() == [1, 2] and back[1].tolist() == [0, 1]
    assert fwd[0].tolist() == [0, 1] and fwd[1].tolist() == [1, 2]


def test_kernel_map_table_and_sorted_paths_agree(monkeypatch):
    tensor = random_sparse(np.random.default_rng(31), 600)
    tables = []
    real_table = vx._dense_table
    monkeypatch.setattr(vx, "_dense_table", lambda *a: tables.append(a) or real_table(*a))
    monkeypatch.setattr(vx, "TABLE_CELLS_PER_SITE", 10**9)
    from_table = vx.KernelMap(tensor.coords, TAPS).pairs(TAPS)
    assert len(tables) == 1
    monkeypatch.setattr(vx, "TABLE_CELLS_PER_SITE", 0)
    from_search = vx.KernelMap(tensor.coords, TAPS).pairs(TAPS)
    assert len(tables) == 1
    for a, b in zip(from_table, from_search):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_far_flung_active_set_builds_no_table(monkeypatch):
    def refuse(keys, cells):
        raise AssertionError(f"dense table of {cells} cells for {len(keys)} sites")

    monkeypatch.setattr(vx, "_dense_table", refuse)
    far = 1 << 20
    coords = [[0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0], [4, far, far, far]]
    assert_maps_match_lookup(vx.SparseTensor4D(coords, np.zeros((4, 1))))


def test_kernel_map_builds_each_tap_once():
    tensor = random_sparse(np.random.default_rng(32), 200)
    kmap = vx.KernelMap(tensor.coords, SPATIAL_TAPS)
    first = kmap.pairs(SPATIAL_TAPS)
    again = kmap.pairs(SPATIAL_TAPS[::-1])
    assert all(a is b for a, b in zip(first, again[::-1]))


def test_a_tap_the_map_was_built_without_is_an_alignment_error(monkeypatch):
    from sfkit.stdcb import ConvKernel4D, sparse_conv

    rng = np.random.default_rng(34)
    tensor = random_sparse(rng, 200)
    kmap = vx.KernelMap(tensor.coords, SPATIAL_TAPS)
    with pytest.raises(AlignmentError, match=re.escape("(-1, 0, 0, 0)")):
        kmap.pairs(SPATIAL_TAPS + [(-1, 0, 0, 0)])
    temporal = ConvKernel4D.seeded((1, 1, 1, 3), 2, 2, rng)
    with pytest.raises(AlignmentError, match=re.escape("(-1, 0, 0, 0)")):
        sparse_conv(tensor, temporal, kmap=kmap)
    # The centre tap needs no neighbour search.
    calls = []
    monkeypatch.setattr(vx, "_neighbour_pairs", lambda *args: calls.append(args))
    assert vx.KernelMap(tensor.coords, [(0, 0, 0, 0)]).pairs([(0, 0, 0, 0)]) == [None]
    assert calls == []


@pytest.mark.parametrize("cells_per_site", [0, vx.TABLE_CELLS_PER_SITE])
def test_mirrored_taps_share_their_pairs_and_match_lookup(cells_per_site, monkeypatch):
    from sfkit.stdcb import ConvKernel4D

    monkeypatch.setattr(vx, "TABLE_CELLS_PER_SITE", cells_per_site)
    rng = np.random.default_rng(33)
    taps = ConvKernel4D.seeded((3, 1, 5, 3), 1, 1, rng, dilation_t=2).offsets()
    tensor = random_sparse(rng, 900, extent=(5, 9, 6, 9))
    assert_maps_match_lookup(tensor, taps.tolist())
    pairs = dict(zip(map(tuple, taps.tolist()), vx.KernelMap(tensor.coords, taps).pairs(taps)))
    for tap, pair in pairs.items():
        if any(tap):
            mirror = pairs[tuple(-v for v in tap)]
            assert pair[0] is mirror[1] and pair[1] is mirror[0], tap
