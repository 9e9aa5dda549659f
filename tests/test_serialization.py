import numpy as np
import pytest

from sfkit.errors import InvalidPermutation, RangeError, ShapeError
from sfkit.serialization import (
    MORTON_BITS,
    SerializedSequence,
    deserialize,
    morton_codes,
    morton_decode,
    morton_encode,
    serialize,
)


def naive_morton(ix, iy, iz):
    """Bit-by-bit interleaver on plain Python ints (independent oracle)."""
    code = 0
    for bit in range(MORTON_BITS):
        code |= ((ix >> bit) & 1) << (3 * bit)
        code |= ((iy >> bit) & 1) << (3 * bit + 1)
        code |= ((iz >> bit) & 1) << (3 * bit + 2)
    return code


def test_zero_maps_to_zero():
    assert morton_encode(0, 0, 0) == 0


def test_unit_axes():
    assert morton_encode(1, 0, 0) == 1
    assert morton_encode(0, 1, 0) == 2
    assert morton_encode(0, 0, 1) == 4


def test_matches_naive_interleaver():
    rng = np.random.default_rng(0)
    for _ in range(500):
        ix, iy, iz = (int(v) for v in rng.integers(0, 1 << MORTON_BITS, 3))
        assert morton_encode(ix, iy, iz) == naive_morton(ix, iy, iz)


def test_roundtrip_random_coords():
    rng = np.random.default_rng(1)
    coords = rng.integers(0, 1 << MORTON_BITS, (10_000, 3))
    ix, iy, iz = morton_decode(morton_codes(coords))
    assert np.array_equal(np.stack([ix, iy, iz], axis=1), coords)


def test_max_coordinate_roundtrips():
    top = (1 << MORTON_BITS) - 1
    assert morton_decode(morton_encode(top, top, top)) == (top, top, top)


def test_overflow_rejected():
    with pytest.raises(RangeError):
        morton_encode(1 << MORTON_BITS, 0, 0)
    with pytest.raises(RangeError):
        morton_encode(0, -1, 0)


def test_morton_codes_shape_check():
    with pytest.raises(ShapeError):
        morton_codes(np.zeros((4, 2), dtype=int))


def test_sorted_input_gives_identity_permutation():
    coords = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 1]])
    rows = np.arange(4.0).reshape(4, 1)
    seq = serialize(rows, coords)
    assert np.array_equal(seq.order, np.arange(4))
    assert np.array_equal(seq.rank, np.arange(4))


def test_equal_codes_keep_original_order():
    coords = np.array([[3, 2, 1], [0, 0, 0], [3, 2, 1]])
    rows = np.array([[10.0], [20.0], [30.0]])
    seq = serialize(rows, coords)
    # the two co-voxel rows (10, 30) must stay in input order after the lone
    # origin row
    assert np.array_equal(seq.rows[:, 0], [20.0, 10.0, 30.0])


def test_order_matches_stable_sort_by_naive_keys():
    rng = np.random.default_rng(2)
    coords = rng.integers(0, 50, (300, 3))
    rows = rng.normal(size=(300, 5))
    seq = serialize(rows, coords)
    keys = [naive_morton(*map(int, c)) for c in coords]
    expect = sorted(range(300), key=lambda i: (keys[i], i))
    assert np.array_equal(seq.order, expect)


def test_roundtrip_is_bit_exact():
    rng = np.random.default_rng(3)
    coords = rng.integers(0, 100, (1000, 3))
    rows = rng.normal(size=(1000, 7))
    assert np.array_equal(deserialize(serialize(rows, coords)), rows)


def test_empty_payload():
    seq = serialize(np.empty((0, 4)), np.empty((0, 3), dtype=int))
    assert deserialize(seq).shape == (0, 4)


def test_rank_applied_twice_is_not_identity():
    # a permutation that is not an involution: applying the inverse twice
    # must not restore the payload
    coords = np.array([[2, 0, 0], [0, 0, 0], [1, 0, 0]])
    rows = np.array([[0.0], [1.0], [2.0]])
    seq = serialize(rows, coords)
    once = seq.rows[seq.rank]
    twice = once[seq.rank]
    assert np.array_equal(once, rows)
    assert not np.array_equal(twice, rows)


def test_corrupt_permutation_rejected():
    rows = np.zeros((3, 1))
    bad = SerializedSequence(order=np.array([0, 0, 2]), rank=np.array([0, 1, 2]), rows=rows)
    with pytest.raises(InvalidPermutation):
        deserialize(bad)
    mismatched = SerializedSequence(
        order=np.array([1, 0, 2]), rank=np.array([0, 1, 2]), rows=rows
    )
    with pytest.raises(InvalidPermutation):
        deserialize(mismatched)
    short = SerializedSequence(order=np.array([1, 0, 2]), rank=np.array([1, 0, 2]), rows=rows[:2])
    with pytest.raises(InvalidPermutation, match="lengths disagree"):
        deserialize(short)


def test_length_mismatch_rejected():
    with pytest.raises(ShapeError):
        serialize(np.zeros((3, 1)), np.zeros((4, 3), dtype=int))


def _neighbor_rank_gaps(rank, k, offsets):
    rank3 = np.asarray(rank).reshape(k, k, k)
    gaps = []
    for off in offsets:
        src = rank3[
            max(0, -off[0]) : k - max(0, off[0]),
            max(0, -off[1]) : k - max(0, off[1]),
            max(0, -off[2]) : k - max(0, off[2]),
        ]
        dst = rank3[
            max(0, off[0]) : k + min(0, off[0]),
            max(0, off[1]) : k + min(0, off[1]),
            max(0, off[2]) : k + min(0, off[2]),
        ]
        gaps.append(np.abs(src - dst).ravel())
    return np.concatenate(gaps)


def test_morton_locality_beats_row_major():
    # On a dense 8^3 block the plain mean of 6-neighbor rank gaps is provably
    # identical for any axis-ordered layout (the per-axis means redistribute a
    # fixed total), so locality shows up in the median of the 6-neighbor gaps
    # and in the mean over the full 26-neighborhood instead.
    k = 8
    grid = np.stack(np.meshgrid(range(k), range(k), range(k), indexing="ij"), -1)
    coords = grid.reshape(-1, 3)
    morton_rank = np.empty(len(coords), dtype=int)
    morton_rank[np.argsort(morton_codes(coords), kind="stable")] = np.arange(len(coords))
    row_major_rank = (coords[:, 0] * k + coords[:, 1]) * k + coords[:, 2]

    six = [o for o in np.ndindex(3, 3, 3) if sum(abs(v - 1) for v in o) == 1]
    six = [tuple(v - 1 for v in o) for o in six]
    all26 = [
        tuple(v - 1 for v in o)
        for o in np.ndindex(3, 3, 3)
        if any(v != 1 for v in o)
    ]

    m6 = _neighbor_rank_gaps(morton_rank, k, six)
    r6 = _neighbor_rank_gaps(row_major_rank, k, six)
    assert np.isclose(m6.mean(), r6.mean())  # the tie that motivates the rest
    assert np.median(m6) < np.median(r6)

    m26 = _neighbor_rank_gaps(morton_rank, k, all26)
    r26 = _neighbor_rank_gaps(row_major_rank, k, all26)
    assert m26.mean() < r26.mean()
