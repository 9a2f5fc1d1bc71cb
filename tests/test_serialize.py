"""The array-at-a-time codec: bit-exact round trips, pinned file bytes, the
JSON writer against the stdlib and the instance digest."""

import copy
import hashlib
import json
import math

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

    def test_l2demo_legendre_file_bytes(self, tmp_path):
        # the CLI's one route through certified_box_arrays: a weighted
        # context, and a box drawn for a family and vector the caller gives
        out = tmp_path / "legendre.json"
        assert main(["l2demo", "legendre", "--nodes", "64", "--seed", "3", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "118b60d76baa38faaf81b44631f219d03c356280073b90056f771d8e47a21a57"
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


#: JSON scalars, among them the spellings a writer could get wrong: signed
#: zeros, NaN and the infinities, integers past 2^63, and strings holding
#: separators, brackets, quotes and non-ASCII characters.
json_text = st.text(st.sampled_from(list(', []{}"\\:\u00e9\u2028\U0001f600a1')), max_size=6)
json_numbers = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 2**63, -(2**63) - 1, 2**70]),
    st.floats(),
    st.integers(-(2**70), 2**70),
    st.booleans(),
)
json_scalars = st.one_of(json_numbers, st.none(), json_text)


@st.composite
def rectangular_lists(draw):
    """Nested lists of numbers of one shape, empty axes included."""
    shape = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    leaves = iter(draw(st.lists(json_numbers, min_size=math.prod(shape), max_size=math.prod(shape))))

    def build(axis):
        if axis == len(shape):
            return next(leaves)
        return [build(axis + 1) for _ in range(shape[axis])]

    return build(0)


#: encode_vector stacks of depth 1 to 3: vectors and rows, bare or as pairs.
encoded_stacks = st.builds(
    serialize.encode_vector, complex_arrays(is_complex=True), st.sampled_from([REAL, COMPLEX])
)

json_values = st.recursive(
    json_scalars | rectangular_lists() | encoded_stacks,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(json_text, children, max_size=4),
    max_leaves=12,
)


class TestJsonWriter:
    @settings(deadline=None, max_examples=300)
    @given(value=json_values)
    def test_writes_the_stdlib_bytes(self, value):
        assert serialize.dump_json(value, None) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [{1: 2}, {"a": [{"b": 0, 2: 1}]}], ids=["top", "nested"])
    def test_non_string_key_raises(self, value):
        with pytest.raises(TypeError):
            serialize.dump_json(value, None)


#: The report digest of the (16, 8, complex) pair GOLDEN_INSTANCE_SHA256 pins.
GOLDEN_PAIR_DIGEST = "29782bbbf13a941219ec880a8d317f601d92ba3ef0e556bbd5672610890d8851"

#: A real pair with integral and shared values, so it can be spelled in
#: several ways: box_y equals box and tolerance is the default.
SPELLED_PAIR = {
    "field": "real",
    "dimension": 3,
    "vectors": [[1, 0, 0], [0, 1, 0]],
    "tolerance": 1e-10,
    "indices": [0, 1],
    "x": [0.5, 0.25, 2],
    "box": {"lower": [0, 0], "upper": [1, 1]},
    "y": [0.25, 0.75, 1],
    "box_y": {"lower": [0, 0], "upper": [1, 1]},
}


def _floats(payload):
    """Every integer of ``payload``'s arrays written as a float."""
    if isinstance(payload, dict):
        return {k: v if k in ("dimension", "indices") else _floats(v) for k, v in payload.items()}
    if isinstance(payload, list):
        return [_floats(v) for v in payload]
    return float(payload) if isinstance(payload, int) else payload


def _pairs(payload):
    """Every real array of ``payload`` written as [re, 0.0] pairs."""
    out = copy.deepcopy(payload)
    for key in ("vectors", "x", "y"):
        out[key] = np.stack([np.array(out[key], float), np.zeros(np.shape(out[key]))], -1).tolist()
    for box in (out["box"], out["box_y"]):
        for key in ("lower", "upper"):
            box[key] = [[v, 0.0] for v in box[key]]
    return out


def _signed_zero_pairs(payload):
    """``_pairs`` with every imaginary part written as -0.0."""
    out = _pairs(payload)
    boxes = [(box, key) for box in (out["box"], out["box_y"]) for key in ("lower", "upper")]
    for owner, key in [(out, "vectors"), (out, "x"), (out, "y"), *boxes]:
        a = np.array(owner[key])
        a[..., 1] = -0.0
        owner[key] = a.tolist()
    return out


def _without(key):
    def respell(payload):
        return {k: v for k, v in payload.items() if k != key}
    return respell


def _with_extra_key(payload):
    return {**payload, "comment": "an unread key"}


class TestInstanceDigest:
    @pytest.fixture(scope="class")
    def golden(self):
        pair = generate_certified_pair(rng_from_seed(7, 1), 16, 8, COMPLEX)
        return serialize.instance_to_dict(pair)

    def test_golden_pair_digest(self, golden):
        assert serialize.digest(golden) == GOLDEN_PAIR_DIGEST

    @pytest.mark.parametrize("respell", [
        _floats, _pairs, _without("tolerance"), _with_extra_key, _without("box_y"),
    ], ids=["1-vs-1.0", "bare-vs-pairs", "default-tolerance", "extra-key", "box_y-omitted"])
    def test_one_instance_one_digest(self, respell):
        assert serialize.digest(respell(SPELLED_PAIR)) == serialize.digest(SPELLED_PAIR)

    def test_compact_and_indented_files_agree(self, golden, tmp_path):
        digests = []
        for name, text in [
            ("compact", json.dumps(golden, separators=(",", ":"))),
            ("indented", serialize.dump_json(golden, None)),
        ]:
            path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.report.json"
            path.write_text(text, encoding="utf-8")
            assert main(["gruss", str(path), "--out", str(out)]) == 0
            digests.append(json.loads(out.read_text())["digest"])
        assert digests == [GOLDEN_PAIR_DIGEST] * 2

    @pytest.mark.parametrize("where", [
        ("vectors", 3, 5, 1), ("x", 15, 0), ("box", "lower", 7, 1), ("box", "upper", 0, 0),
        ("y", 2, 1), ("box_y", "lower", 4, 0), ("box_y", "upper", 1, 1),
    ], ids=str)
    def test_one_flipped_bit_changes_it(self, golden, where):
        changed = copy.deepcopy(golden)
        *path, last = where
        parent = changed
        for key in path:
            parent = parent[key]
        bits = np.float64(parent[last]).view(np.uint64) ^ np.uint64(1)
        parent[last] = float(bits.view(np.float64))
        assert serialize.digest(changed) != GOLDEN_PAIR_DIGEST

    def test_an_index_changes_it(self, golden):
        changed = copy.deepcopy(golden)
        changed["indices"][:2] = changed["indices"][1::-1]
        assert serialize.digest(changed) != GOLDEN_PAIR_DIGEST

    def test_the_tolerance_changes_it(self, golden):
        assert serialize.digest({**golden, "tolerance": 2e-10}) != GOLDEN_PAIR_DIGEST

    def test_the_field_changes_it(self):
        changed = {**SPELLED_PAIR, "field": "complex"}
        assert serialize.digest(changed) != serialize.digest(SPELLED_PAIR)

    def test_a_signed_zero_imaginary_part_is_one_real_instance(self, tmp_path):
        # a real-field file may write a zero imaginary part as -0.0; it is
        # the instance of the bare reals, down to the report bytes
        reports = {}
        for name, payload in [("bare", SPELLED_PAIR), ("signed", _signed_zero_pairs(SPELLED_PAIR))]:
            path = tmp_path / f"{name}.json"
            serialize.dump_json(payload, path)
            for command in ("bounds", "gruss"):
                out = tmp_path / f"{name}.{command}.json"
                assert main([command, str(path), "--out", str(out)]) == 0
                reports[name, command] = out.read_bytes()
            assert serialize.digest(payload) == serialize.digest(SPELLED_PAIR)
        for command in ("bounds", "gruss"):
            assert reports["signed", command] == reports["bare", command]

    def test_a_complex_file_keeps_its_signed_zeros(self):
        payload = {**_signed_zero_pairs(SPELLED_PAIR), "field": "complex"}
        pair = serialize.instance_from_dict(payload)
        for a in (pair.family.members, pair.x, pair.y, pair.box_x.lower_array, pair.box_y.upper_array):
            assert np.signbit(a.imag).all()
        assert serialize.digest(payload) != serialize.digest({**_pairs(SPELLED_PAIR), "field": "complex"})

    def test_a_nonzero_imaginary_part_of_a_real_file_is_rejected(self):
        payload = _pairs(SPELLED_PAIR)
        payload["x"][1][1] = 5e-324
        with pytest.raises(ValueError, match="imaginary"):
            serialize.instance_from_dict(payload)
