import hashlib
import re
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sfkit

from sfkit.errors import MAX_FLOATS, FormatError, InvalidConfig, InvalidInput, ShapeError
from sfkit.pipeline import (
    RunConfig,
    _build_pipeline_weights,
    _bundle_floats,
    _section_name,
    init_pipeline_weights,
    load_pipeline_weights,
    pipeline_weights_to_dict,
    save_pipeline_weights,
)
from sfkit.weights import (
    MlpWeights,
    ZeroRng,
    flatten_tree,
    load_weight_dict,
    save_weight_dict,
    unflatten_like,
)


def test_weight_dict_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    weights = {
        "a.w": rng.normal(size=(3, 4)),
        "scalar": np.array(2.5),
        "deep.nested.bias": rng.normal(size=(7,)),
        "tensor4": rng.normal(size=(2, 3, 1, 2)),
    }
    path = tmp_path / "w.sfwt"
    save_weight_dict(weights, path)
    loaded = load_weight_dict(path)
    assert set(loaded) == set(weights)
    for name in weights:
        assert np.array_equal(loaded[name], np.asarray(weights[name], dtype=float))


def test_weight_file_truncation(tmp_path):
    path = tmp_path / "w.sfwt"
    save_weight_dict({"x": np.zeros((4, 4))}, path)
    blob = path.read_bytes()
    broken = tmp_path / "broken.sfwt"
    broken.write_bytes(blob[:-8])
    with pytest.raises(FormatError) as err:
        load_weight_dict(broken)
    assert err.value.offset > 0


def test_weight_file_byte_after_the_last_section_raises_at_its_offset(tmp_path):
    path = tmp_path / "w.sfwt"
    save_weight_dict({"x": np.zeros(2)}, path)
    blob = path.read_bytes()
    path.write_bytes(blob + b"\0")
    with pytest.raises(FormatError) as err:
        load_weight_dict(path)
    assert err.value.offset == len(blob)


def test_weight_file_bad_magic(tmp_path):
    path = tmp_path / "bad.sfwt"
    path.write_bytes(b"XXXX\x01\x00")
    with pytest.raises(FormatError) as err:
        load_weight_dict(path)
    assert err.value.offset == 0


def test_pipeline_weights_roundtrip(tmp_path):
    config = RunConfig(channels=8, state_size=4, decoder_layers=2)
    weights = init_pipeline_weights(config, seed=3)
    path = tmp_path / "pipe.sfwt"
    save_pipeline_weights(weights, path)
    loaded = load_pipeline_weights(path, config)
    flat_a = pipeline_weights_to_dict(weights)
    flat_b = pipeline_weights_to_dict(loaded)
    assert set(flat_a) == set(flat_b)
    for name in flat_a:
        assert np.array_equal(np.asarray(flat_a[name], float), np.asarray(flat_b[name], float)), name


def test_save_refuses_a_non_finite_leaf_before_writing(tmp_path):
    config = RunConfig(channels=4)
    weights = init_pipeline_weights(config, seed=1)
    w1 = weights.point_encoder.w1.copy()
    w1[2, 1] = np.nan
    bad = replace(weights, point_encoder=replace(weights.point_encoder, w1=w1))
    message = "section 'point_encoder.w1' holds a non-finite value"
    loadable = tmp_path / "raw.sfwt"
    save_weight_dict(pipeline_weights_to_dict(bad), loadable)
    with pytest.raises(InvalidInput, match=message):
        load_pipeline_weights(loadable, config)
    path = tmp_path / "pipe.sfwt"
    with pytest.raises(InvalidInput, match=message):
        save_pipeline_weights(bad, path)
    assert not path.exists()


def test_every_weight_tree_leaf_is_a_stored_section():
    # The weight tree holds only what an SFWT file stores: a leaf without a
    # section would be a setting that no weight file can carry.
    weights = init_pipeline_weights(RunConfig(), 0)
    leaves = flatten_tree(weights)
    sections = pipeline_weights_to_dict(weights)
    assert [path for path in leaves if _section_name(path) not in sections] == []
    assert len(sections) == len(leaves)


def test_pipeline_weights_missing_section(tmp_path):
    config = RunConfig(channels=4)
    weights = init_pipeline_weights(config, seed=1)
    flat = pipeline_weights_to_dict(weights)
    del flat["decoder.head.w2"]
    path = tmp_path / "partial.sfwt"
    save_weight_dict(flat, path)
    with pytest.raises(ShapeError):
        load_pipeline_weights(path, config)


def test_mlp_shape_validation():
    with pytest.raises(ShapeError):
        MlpWeights(
            w1=np.zeros((3, 4)), b1=np.zeros(4), w2=np.zeros((5, 2)), b2=np.zeros(2)
        )


def signed_zero_mlp(n_in, n_hidden, n_out, rng):
    """Seeded perceptron whose first hidden and last output columns are
    zero, with -0.0 biases."""
    w = MlpWeights.seeded(n_in, n_hidden, n_out, rng)
    w1, b1, w2, b2 = w.w1.copy(), w.b1.copy(), w.w2.copy(), w.b2.copy()
    w1[:, 0], b1[0] = 0.0, -0.0
    w2[:, -1], b2[-1] = 0.0, -0.0
    return MlpWeights(w1, b1, w2, b2)


@pytest.mark.parametrize("shape", [(3, 8, 8), (4, 4, 4), (12, 4, 3)],
                         ids=["encoder", "gate", "head"])
def test_mlp_apply_bytes_match_expression_form(shape):
    rng = np.random.default_rng(60)
    x = rng.normal(size=(257, shape[0]))
    for w in (MlpWeights.seeded(*shape, rng), signed_zero_mlp(*shape, rng)):
        expect = np.maximum(x @ w.w1 + w.b1, 0.0) @ w.w2 + w.b2
        assert w.apply(x).tobytes() == expect.tobytes()


def test_mlp_apply_allocates_only_the_two_matmuls():
    t, c = 4096, 16
    rng = np.random.default_rng(61)
    x = rng.normal(size=(t, c))
    w = MlpWeights.seeded(c, c, c, rng)
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        w.apply(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - entry <= 2.5 * t * c * 8, f"{(peak - entry) / (t * c * 8):.2f} x T*C*8"


PAPER5 = dict(encoder_depths=(2, 2, 2, 2, 2), decoder_depths=(1, 1, 1, 1))


@pytest.mark.parametrize(
    "saved, rewritten, section",
    [
        # a file drawn with taps at {t-1, t, t+1}
        ({}, {"backbone.encoder.0.0.conv_cross.dilation_t": np.float64(1.0)},
         "backbone.encoder.0.0.conv_cross.dilation_t"),
        ({"state_size": 4}, {}, "decoder.ssm.0.a_log"),
        ({"decoder_layers": 2}, {}, "decoder.ssm.1.a_log"),
        ({"channels": 8}, {}, "point_encoder.w1"),
        (PAPER5, {}, "backbone.decoder.1.0.conv_cross.bias"),
    ],
    ids=["dilation", "state_size", "extra_layer", "channels", "extra_levels"],
)
def test_pipeline_weights_must_match_config(tmp_path, saved, rewritten, section):
    path = tmp_path / "w.sfwt"
    flat = pipeline_weights_to_dict(init_pipeline_weights(RunConfig(**saved), 0))
    save_weight_dict(flat | rewritten, path)
    with pytest.raises(ShapeError, match=re.escape(repr(section))):
        load_pipeline_weights(path, RunConfig())


@pytest.mark.parametrize(
    "config, digest",
    [
        ({}, "cc8e5692e8c13753499c7f6a2317ee6f4a1e5535289fb20b9cd4c8a73ac01ba2"),
        (PAPER5, "a0130300b6a562b6d4af24751fe0611a6387d724c3023a464f7263aa5fba66df"),
        ({"channels": 8, "state_size": 4, "decoder_layers": 2},
         "ee75b505a1f2d3ea01ba2d88fe84603f8e4472d4f959c0e77b2eede69a38534b"),
    ],
    ids=["desk", "paper5", "small_two_layer"],
)
def test_pipeline_weights_bytes_pinned(tmp_path, config, digest):
    config = RunConfig(**config)
    path, again = tmp_path / "w.sfwt", tmp_path / "again.sfwt"
    save_pipeline_weights(init_pipeline_weights(config, 0), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    save_pipeline_weights(load_pipeline_weights(path, config), again)
    assert again.read_bytes() == path.read_bytes()


def test_unflatten_inverts_flatten():
    weights = init_pipeline_weights(RunConfig(channels=4, decoder_layers=2), 2)
    flat = flatten_tree(weights)
    rebuilt = flatten_tree(unflatten_like(weights, flat))
    assert list(rebuilt) == list(flat)
    assert all(rebuilt[path] is leaf for path, leaf in flat.items())


def test_unflatten_runs_post_init_checks():
    weights = init_pipeline_weights(RunConfig(channels=4), 2)
    flat = flatten_tree(weights)
    flat["decoder.head.b2"] = np.zeros(4)  # the head must end in 3 outputs
    with pytest.raises(ShapeError):
        unflatten_like(weights, flat)


def test_loading_weights_does_not_import_numpy_random(tmp_path):
    path = tmp_path / "w.sfwt"
    save_pipeline_weights(init_pipeline_weights(RunConfig(), 0), path)
    code = (
        f"import sys; sys.path.insert(0, {str(Path(sfkit.__file__).parents[1])!r})\n"
        "from sfkit.pipeline import RunConfig, load_pipeline_weights\n"
        f"load_pipeline_weights({str(path)!r}, RunConfig())\n"
        "print('numpy.random' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "config",
    [{}, PAPER5, {"channels": 3, "state_size": 5, "decoder_layers": 3}],
    ids=["desk", "paper5", "small_three_layer"],
)
def test_bundle_floats_count_the_whole_template(config):
    config = RunConfig(**config)
    template = _build_pipeline_weights(config, ZeroRng())
    assert _bundle_floats(config) == sum(np.size(v) for v in flatten_tree(template).values())
    assert _bundle_floats(config) <= MAX_FLOATS


def test_oversized_bundle_is_refused_before_any_array_exists():
    # 38.2M floats, 305 MB if drawn; at this width one block's template
    # would take 21 MB if ZeroRng allocated its zeros.
    tracemalloc.start()
    try:
        with pytest.raises(InvalidConfig) as err:
            RunConfig(**PAPER5, channels=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "channels, encoder_depths, decoder_depths, decoder_layers and state_size must give "
        f"a weight bundle of at most {MAX_FLOATS} floats, got 38154797"
    )
    assert peak < 8e6


def _section(name, dims, payload=b"", rank=None):
    encoded = name if isinstance(name, bytes) else name.encode()
    rank = len(dims) if rank is None else rank
    return (struct.pack("<H", len(encoded)) + encoded + struct.pack("<B", rank)
            + struct.pack(f"<{len(dims)}I", *dims) + payload)


HEADER = b"SFWT" + struct.pack("<H", 1)


@pytest.mark.parametrize(
    "body, offset",
    [
        (_section(b"ok\xff", (1,), bytes(8)), 8),
        (_section("x", (1,) * 65, bytes(8)), 9),
        (_section("x", (2**16,) * 4), 26),  # 2**64 items wrap to 0 in int64
        (_section("x", (1,), bytes(8)) * 2, 22),
    ],
    ids=["name_not_utf8", "rank_above_64", "dims_overflow_int64", "duplicate_section"],
)
def test_weight_file_defects_raise_format_error(tmp_path, body, offset):
    path = tmp_path / "bad.sfwt"
    path.write_bytes(HEADER + body)
    with pytest.raises(FormatError) as err:
        load_weight_dict(path)
    assert err.value.offset == offset


def test_weight_file_every_truncation_and_byte_flip(tmp_path):
    path = tmp_path / "w.sfwt"
    save_weight_dict(
        {"a": np.arange(3.0), "bb": np.array(1.5), "c.d": np.ones((2, 1))}, path
    )
    blob = path.read_bytes()
    variants = [blob[:n] for n in range(len(blob))]
    variants += [blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:] for i in range(len(blob))]
    broken = tmp_path / "broken.sfwt"
    for variant in variants:
        broken.write_bytes(variant)
        try:
            load_weight_dict(broken)
        except FormatError:
            pass
