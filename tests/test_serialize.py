"""The array-at-a-time codec: bit-exact round trips and pinned file bytes."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthobounds import serialize
from orthobounds.cli import main
from orthobounds.generate import (
    generate_certified_instance,
    generate_certified_pair,
    rng_from_seed,
)
from orthobounds.quadrature import WeightedL2Context, periodic_trapezoid
from orthobounds.space import COMPLEX, REAL, as_vector

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]
finite = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def complex_arrays(draw, is_complex):
    """A vector (depth 1) or a stack of rows (depth 2) as complex128, with
    imaginary parts exactly +0.0 unless ``is_complex``."""
    shape = draw(st.sampled_from([(), (3,)])) + (draw(st.integers(1, 5)),)
    count = int(np.prod(shape))
    parts = draw(st.lists(finite, min_size=2 * count, max_size=2 * count))
    values = np.array(parts).view(np.complex128).reshape(shape)
    if not is_complex:
        values = values.real.astype(np.complex128)
    return values


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.uint64)


@pytest.fixture(scope="module")
def codec_file(tmp_path_factory):
    return tmp_path_factory.mktemp("codec") / "array.json"


def _round_trip(a, field, path):
    serialize.dump_json({"a": serialize.encode_vector(a, field)}, path)
    stored = serialize.load_json(path)["a"]
    return stored, serialize.decode_vector(stored, a.ndim)


class TestCodecRoundTrip:
    @settings(deadline=None, max_examples=60)
    @given(a=complex_arrays(is_complex=False))
    def test_real_arrays_bit_exact_in_both_forms(self, a, codec_file):
        bare, from_bare = _round_trip(a, REAL, codec_file)
        pairs, from_pairs = _round_trip(a, COMPLEX, codec_file)
        assert np.array(bare).shape == a.shape
        assert np.array(pairs).shape == a.shape + (2,)
        assert np.array(pairs)[..., 1].tobytes() == bytes(8 * a.size)  # [re, +0.0]
        np.testing.assert_array_equal(_bits(from_bare), _bits(a))
        np.testing.assert_array_equal(_bits(from_pairs), _bits(a))

    @settings(deadline=None, max_examples=60)
    @given(a=complex_arrays(is_complex=True))
    def test_complex_arrays_bit_exact(self, a, codec_file):
        _, back = _round_trip(a, COMPLEX, codec_file)
        assert back.shape == a.shape
        np.testing.assert_array_equal(_bits(back), _bits(a))


GOLDEN_INSTANCE_SHA256 = {
    (4, 2, REAL, "instance"): "325b0147ccb5215b0a8a76da80d6f47a9efd9b8b35a646b4f9934d53ddf9f82b",
    (4, 2, REAL, "pair"): "9a45c876e1598aa1da684ac0020398bec36ffb43272aa65ca5461d82b3feccc8",
    (16, 8, COMPLEX, "instance"): "948e00c172a6b6ff3db4ea16957951859bd899379ddfae995beade52b9255351",
    (16, 8, COMPLEX, "pair"): "f5b2bdd0390d188934e6eb15f2f347924bbd0da146deeffeb77b5c3e248035c7",
}


class TestGoldenBytes:
    """File bytes pinned at full precision, so a codec change cannot alter what
    the CLI writes unnoticed.  The pins also cover generation and the trig
    report values, so a numpy build that changes those bits needs new pins."""

    @pytest.mark.parametrize("key", GOLDEN_INSTANCE_SHA256)
    def test_instance_file_bytes(self, key):
        dimension, family_size, field, kind = key
        if kind == "instance":
            inst = generate_certified_instance(rng_from_seed(7, 0), dimension, family_size, field)
        else:
            inst = generate_certified_pair(rng_from_seed(7, 1), dimension, family_size, field)
        text = serialize.dump_json(serialize.instance_to_dict(inst), None)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_INSTANCE_SHA256[key]

    def test_l2demo_trig_file_bytes(self, tmp_path):
        out = tmp_path / "trig.json"
        assert main(["l2demo", "trig", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e5636559cd4adf7edd970a11492d2820021ed4cb2280c7e0c8053e8c9a7cdcca"
        )


class TestWeightedL2Payload:
    @pytest.fixture()
    def payload(self):
        ctx = WeightedL2Context.uniform_density(periodic_trapezoid(4))
        f = as_vector(ctx.context, np.sin(ctx.space.nodes))
        return json.loads(json.dumps(serialize.l2_instance_to_dict(ctx, {"f": f})))

    def test_round_trip_is_exact(self, payload):
        ctx, functions = serialize.l2_instance_from_dict(payload)
        assert ctx.space.nodes.tolist() == payload["nodes"]
        assert ctx.space.weights.tolist() == payload["weights"]
        assert ctx.rho.tolist() == payload["rho"]
        assert functions["f"].real.tolist() == payload["functions"]["f"]

    @pytest.mark.parametrize("key", ["nodes", "weights", "rho"])
    def test_numeric_strings_are_rejected(self, key, payload):
        # the same strings in "functions" were always rejected; these three
        # arrays used to be converted by np.asarray(..., dtype=float)
        payload[key] = [repr(v) for v in payload[key]]
        with pytest.raises(ValueError, match="expected numbers"):
            serialize.l2_instance_from_dict(payload)

    @pytest.mark.parametrize("key", ["nodes", "weights", "rho"])
    def test_booleans_are_rejected(self, key, payload):
        # true/false used to read as 1/0
        payload[key] = [True] * len(payload[key])
        with pytest.raises(ValueError, match="expected numbers"):
            serialize.l2_instance_from_dict(payload)

    @pytest.mark.parametrize("key", ["nodes", "weights", "rho"])
    def test_a_boolean_among_numbers_is_rejected(self, key, payload):
        # np.array([True, 0.5]) is float64: the boolean used to read as 1
        payload[key] = [True] + payload[key][1:]
        with pytest.raises(ValueError, match="expected numbers"):
            serialize.l2_instance_from_dict(payload)

    def test_missing_key_is_rejected(self, payload):
        del payload["rho"]
        with pytest.raises(ValueError, match="missing key"):
            serialize.l2_instance_from_dict(payload)
