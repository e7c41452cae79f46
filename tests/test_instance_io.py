"""Unit tests for the instance file schema and the deterministic serializer."""

import json
import math
import re

import numpy as np
import orjson
import pytest

from curvlike.ambient_models import AmbientKind, AmbientModel
from curvlike.errors import ValidationError
from curvlike.instance_io import (
    _zeta_array,
    Instance,
    StructureInfo,
    dump_json,
    format_float,
    instance_sha256,
    load_instance,
    loads_instance,
    save_instance,
)
from curvlike.structures import Family, FamilyParams, construct_family
from curvlike.tensor_core import BundleValuedForm
from random_forms import sample_general


class TestFloatFormat:
    def test_integral_values_stay_floats(self):
        assert format_float(2.0) == "2.0"
        assert format_float(-0.0) == "-0.0"

    def test_seventeen_digits_round_trip(self):
        for x in (0.1, 1.0 / 3.0, math.pi, 1e-300, -2.5e17, 123456.789):
            assert float(format_float(x)) == x

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match=r"^non-finite number inf cannot be serialized$"):
            format_float(float("inf"))


class TestLoad:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "min.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "n": 2,
                    "bundle_dim": 2,
                    "zeta": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                }
            )
        )
        instance = load_instance(path)
        assert instance.zeta.max_abs() == 0.0
        assert instance.ambient is None

    def test_asymmetric_zeta_names_indices(self):
        text = json.dumps(
            {
                "version": 1,
                "n": 2,
                "bundle_dim": 1,
                "zeta": [[[0.0, 0.5], [0.49, 0.0]]],
            }
        )
        with pytest.raises(ValidationError, match=r"zeta\[0\]\[0\]\[1\]"):
            loads_instance(text)

    @pytest.mark.parametrize("bad", ["1.5", " 2 ", "abc", True, False, None, {}, [2]])
    def test_zeta_components_must_be_json_numbers(self, bad):
        """A string, a bool, null, an object or a list is refused by the first
        entry it sits at, not read as a number or reported as non-finite."""
        zeta = [[[0.5, 1], [1, bad]], [[bad, 0.0], [0.0, 2]]]
        text = json.dumps({"version": 1, "n": 2, "bundle_dim": 2, "zeta": zeta})
        expected = f"field 'zeta[0][1][1]' must be a number, got {bad!r}"
        with pytest.raises(ValidationError, match=f"^<string>: {re.escape(expected)}$"):
            loads_instance(text)

    def test_one_bool_among_floats_is_named(self):
        zeta = np.random.default_rng(9).standard_normal((32, 16, 16))
        zeta = (zeta + zeta.transpose(0, 2, 1)).tolist()
        zeta[20][7][3] = zeta[20][3][7] = True
        text = json.dumps({"version": 1, "n": 16, "bundle_dim": 32, "zeta": zeta})
        expected = "field 'zeta[20][3][7]' must be a number, got True"
        with pytest.raises(ValidationError, match=f"^<string>: {re.escape(expected)}$"):
            loads_instance(text)
        zeta[20][7][3] = zeta[20][3][7] = 1
        loaded = loads_instance(json.dumps({**json.loads(text), "zeta": zeta}))
        assert loaded.zeta.components[20, 3, 7] == 1.0

    @pytest.mark.parametrize(
        "zeta, message",
        [
            ([0.5, 1.0], "field 'zeta' must have shape (1, 2, 2), got (2,)"),
            ([[0.5, 1.0], [1.0, 2.0]], "field 'zeta' must have shape (1, 2, 2), got (2, 2)"),
            ([[[0.5, 1.0], [1.0]]], "field 'zeta' is not a numeric array: "),
            ([[[0.5, 1.0], 1.0]], "field 'zeta' is not a numeric array: "),
            ({}, "field 'zeta' is not a numeric array: "),
        ],
    )
    def test_zeta_not_three_lists_deep_gets_the_shape_rules(self, zeta, message):
        """The number rule names entries of a ζ nested three lists deep; a
        flat, shallow, ragged or non-list ζ is refused as an array."""
        text = json.dumps({"version": 1, "n": 2, "bundle_dim": 1, "zeta": zeta})
        with pytest.raises(ValidationError) as caught:
            loads_instance(text)
        assert str(caught.value).startswith(f"<string>: {message}")

    def test_malformed_json_reports_position(self):
        with pytest.raises(ValidationError, match=r"^<string>:1:2: Expecting property name"):
            loads_instance("{nope")

    def test_unknown_field_rejected(self):
        text = json.dumps(
            {"version": 1, "n": 1, "bundle_dim": 1, "zeta": [[[0]]], "extra": 1}
        )
        with pytest.raises(ValidationError, match="extra"):
            loads_instance(text)

    def test_version_required(self):
        text = json.dumps({"n": 1, "bundle_dim": 1, "zeta": [[[0]]]})
        with pytest.raises(ValidationError, match="version"):
            loads_instance(text)

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2, None])
    def test_version_must_be_the_integer_one(self, version):
        text = json.dumps({"version": version, "n": 1, "bundle_dim": 1, "zeta": [[[0]]]})
        expected = f"field 'version' must be 1, got {version!r}"
        with pytest.raises(ValidationError, match=f"^<string>: {re.escape(expected)}$"):
            loads_instance(text)

    def test_shape_mismatch(self):
        text = json.dumps({"version": 1, "n": 2, "bundle_dim": 1, "zeta": [[[0]]]})
        with pytest.raises(ValidationError, match="zeta"):
            loads_instance(text)

    def test_ambient_parsing(self):
        text = json.dumps(
            {
                "version": 1,
                "n": 2,
                "bundle_dim": 2,
                "zeta": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                "ambient": {"kind": "complex_slant", "c": 4.0, "theta": 0.6},
            }
        )
        instance = loads_instance(text)
        assert instance.ambient.kind is AmbientKind.COMPLEX_SLANT
        assert instance.ambient.theta == 0.6

    def test_ambient_theta_rules(self):
        text = json.dumps(
            {
                "version": 1,
                "n": 2,
                "bundle_dim": 1,
                "zeta": [[[0, 0], [0, 0]]],
                "ambient": {"kind": "real_space_form", "c": 1.0, "theta": 0.3},
            }
        )
        with pytest.raises(ValidationError, match="ambient"):
            loads_instance(text)

    @pytest.mark.parametrize(
        "n, c, message",
        [
            (1, 1.0, "field 'ambient': tangent dimension must be in 2..16, got 1"),
            (3, 1e308, "field 'ambient': c = 1e+308 overflows the Ricci offset at n = 3"),
        ],
    )
    def test_ambient_needs_a_finite_offset_at_n(self, n, c, message):
        doc = {
            "version": 1,
            "n": n,
            "bundle_dim": 1,
            "zeta": [np.zeros((n, n)).tolist()],
            "ambient": {"kind": "real_space_form", "c": c},
        }
        with pytest.raises(ValidationError) as caught:
            loads_instance(json.dumps(doc))
        assert str(caught.value) == f"<string>: {message}"
        # (n - 1) c = 1e308 is finite at n = 2.
        doc.update(n=2, zeta=[np.zeros((2, 2)).tolist()])
        assert loads_instance(json.dumps(doc)).ambient.c == c

    @pytest.mark.parametrize(
        "n, bundle_dim, message",
        [
            (0, 1, "field 'n': tangent dimension must be in 1..16, got 0"),
            (17, 1, "field 'n': tangent dimension must be in 1..16, got 17"),
            (1, 0, "field 'bundle_dim': bundle dimension must be in 1..32, got 0"),
            (1, 33, "field 'bundle_dim': bundle dimension must be in 1..32, got 33"),
        ],
    )
    def test_dimensions_are_judged_by_their_owners(self, n, bundle_dim, message):
        """The loader reuses the tangent- and bundle-dimension rules and
        words, under the field name."""
        text = json.dumps({"version": 1, "n": n, "bundle_dim": bundle_dim, "zeta": []})
        with pytest.raises(ValidationError) as caught:
            loads_instance(text)
        assert str(caught.value) == f"<string>: {message}"

    def test_ambient_theta_meets_the_even_dimension_rule(self):
        """A proper slant angle needs even n in `ambient.theta` as in
        `structure.theta`; theta = pi/2 is the Lagrangian case."""
        doc = {
            "version": 1,
            "n": 3,
            "bundle_dim": 1,
            "zeta": [np.zeros((3, 3)).tolist()],
            "ambient": {"kind": "complex_slant", "c": 1.0, "theta": 0.7},
        }
        with pytest.raises(ValidationError) as caught:
            loads_instance(json.dumps(doc))
        assert str(caught.value) == (
            "<string>: field 'ambient': "
            "proper slant angle 0.7 requires even tangent dimension, got 3"
        )
        doc["ambient"]["theta"] = math.pi / 2
        assert loads_instance(json.dumps(doc)).ambient.theta == math.pi / 2

    def test_structure_theta_conflicts_with_ambient(self):
        text = json.dumps(
            {
                "version": 1,
                "n": 2,
                "bundle_dim": 2,
                "zeta": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                "ambient": {"kind": "complex_slant", "c": 1.0, "theta": 0.5},
                "structure": {"kind": "slant", "theta": 0.7},
            }
        )
        with pytest.raises(ValidationError, match="conflicts"):
            loads_instance(text)

    def test_structure_slant_odd_dimension(self):
        text = json.dumps(
            {
                "version": 1,
                "n": 3,
                "bundle_dim": 3,
                "zeta": [[[0] * 3] * 3] * 3,
                "structure": {"kind": "slant", "theta": 0.5},
            }
        )
        with pytest.raises(ValidationError, match="even"):
            loads_instance(text)

    @pytest.mark.parametrize(
        "n, theta, message",
        [
            (3, 0.5, "proper slant angle 0.5 requires even tangent dimension, got 3"),
            (2, 2.0, "theta must lie in (0, pi/2], got 2.0"),
        ],
    )
    def test_structure_theta_is_judged_by_the_slant_structure(self, n, theta, message):
        """The loader reuses `build_slant_structure`'s rule and words, under
        the field name."""
        doc = {
            "version": 1,
            "n": n,
            "bundle_dim": 1,
            "zeta": [np.zeros((n, n)).tolist()],
            "structure": {"kind": "slant", "theta": theta},
        }
        with pytest.raises(ValidationError) as caught:
            loads_instance(json.dumps(doc))
        assert str(caught.value) == f"<string>: field 'structure.theta': {message}"


# JSON numbers whose conversion to binary64 is easy to get wrong: zeros of
# both signs, integers on both sides of 2^53 and of the 64-bit limits (the
# ones beyond read by the standard decoder as Python ints), subnormals and
# the edge of the range.
EDGE_NUMBERS = [
    0, 7, -3, -0.0, 0.1, 2**53 + 1, -(2**53 + 1), 2**63 - 1, -(2**63 - 1), 2**64 - 1,
    2**70 + 1, -(2**64 + 1), 5e-324, 2.2250738585072009e-308, 1e308, -1e308,
]

# Byte-exact refusals of the loader, one per rule the ζ conversion keeps;
# "oversized, ragged" is refused by the shape before the integer is named.
BIG = "1" + "0" * 400
ZETA_REFUSALS = {
    "bool": ("[[[0.5, true], [true, 2]]]", "field 'zeta[0][0][1]' must be a number, got True"),
    "str": ('[[[0.5, "1"], ["1", 2]]]', "field 'zeta[0][0][1]' must be a number, got '1'"),
    "null": ("[[[0.5, null], [null, 2]]]", "field 'zeta[0][0][1]' must be a number, got None"),
    "nested list": ("[[[0.5, [1]], [[1], 2]]]", "field 'zeta[0][0][1]' must be a number, got [1]"),
    "ragged": (
        "[[[0.5, 1], [1]]]",
        "field 'zeta' is not a numeric array: setting an array element with a sequence. "
        "The requested array has an inhomogeneous shape after 2 dimensions. "
        "The detected shape was (1, 2) + inhomogeneous part.",
    ),
    "wrong shape": (
        "[[[0.5, 1], [1, 2]], [[0.5, 1], [1, 2]]]",
        "field 'zeta' must have shape (1, 2, 2), got (2, 2, 2)",
    ),
    "oversized integer": (
        f"[[[0.5, {BIG}], [{BIG}, 2]]]",
        "field 'zeta[0][0][1]' is an integer too large for binary64",
    ),
    "oversized, wrong shape": (
        f"[[[0.5, {BIG}], [{BIG}, 2]], [[0.5, 1], [1, 2]]]",
        "field 'zeta[0][0][1]' is an integer too large for binary64",
    ),
    "oversized, ragged": (
        f"[[[0.5, {BIG}], [1]]]",
        "field 'zeta' is not a numeric array: setting an array element with a sequence. "
        "The requested array has an inhomogeneous shape after 2 dimensions. "
        "The detected shape was (1, 2) + inhomogeneous part.",
    ),
    "oversized before a bool": (
        f"[[[0.5, {BIG}], [true, 2]]]",
        "field 'zeta[0][0][1]' is an integer too large for binary64",
    ),
}

# A (1, 2) instance split at its fields, with a trailing comma in zeta.
TRAILING_COMMA = [
    "{", '"version": 1, "n": 2, "bundle_dim": 1,', '"zeta": [[[1.0, 0.5], [0.5, 2.0]],]', "}"
]


class TestZetaConversion:
    """A ζ of exactly m' lists of n lists of n JSON numbers is packed from
    one flat list; every other ζ keeps the path and the words it had."""

    @pytest.mark.parametrize("decode", [orjson.loads, json.loads], ids=["orjson", "json"])
    @pytest.mark.parametrize("with_0_or_1", [True, False], ids=["type-checked", "unchecked"])
    def test_packed_conversion_is_numpys_bit_for_bit(self, decode, with_0_or_1, monkeypatch):
        """With an entry of 0 (or -0.0) the packed path runs its type check;
        without one it does not.  Neither takes np.array or np.asarray."""
        values = [x for x in EDGE_NUMBERS if with_0_or_1 or x not in (0, 1)]
        values += [0.5] * (32 - len(values))
        zeta = decode(json.dumps(np.reshape(np.array(values, dtype=object), (2, 4, 4)).tolist()))
        expected = np.asarray(zeta, dtype=float)
        with monkeypatch.context() as patched:
            patched.setattr(np, "array", None)
            patched.setattr(np, "asarray", None)
            assert _zeta_array(zeta, 2, 4).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("flag", [True, False])
    def test_a_bool_is_refused_at_every_position(self, flag):
        """struct packs a bool as 1.0 or 0.0, so its refusal rests on the
        type check that an entry of 0.0 or 1.0 starts."""
        for r, i, j in np.ndindex(2, 2, 2):
            zeta = [[[0.5, 0.25], [0.25, 2.0]] for _ in range(2)]
            zeta[r][i][j] = flag
            text = json.dumps({"version": 1, "n": 2, "bundle_dim": 2, "zeta": zeta})
            with pytest.raises(ValidationError) as caught:
                loads_instance(text)
            assert str(caught.value) == (
                f"<string>: field 'zeta[{r}][{i}][{j}]' must be a number, got {flag}"
            )

    def test_integers_0_and_1_are_accepted(self):
        zeta = [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]
        converted = _zeta_array(zeta, 2, 2)
        assert converted.dtype == np.float64
        assert converted.tobytes() == np.asarray(zeta, dtype=float).tobytes()
        text = json.dumps({"version": 1, "n": 2, "bundle_dim": 2, "zeta": zeta})
        assert loads_instance(text).zeta.components.tolist() == zeta

    def test_loaded_form_is_numpys_conversion(self):
        """The loader's copy of a form with the edge numbers (1e308 left out:
        8 n ||zeta||^2 would overflow) holds the standard decoder's values."""
        values = iter([x for x in EDGE_NUMBERS if abs(x) != 1e308] * 4)
        zeta = [[[0] * 5 for _ in range(5)] for _ in range(3)]
        for slot in zeta:
            for i in range(5):
                for j in range(i, 5):
                    slot[i][j] = slot[j][i] = next(values)
        text = json.dumps({"version": 1, "n": 5, "bundle_dim": 3, "zeta": zeta})
        loaded = loads_instance(text).zeta.components
        assert loaded.tobytes() == np.asarray(json.loads(text)["zeta"], dtype=float).tobytes()

    @pytest.mark.parametrize("zeta, message", ZETA_REFUSALS.values(), ids=ZETA_REFUSALS.keys())
    def test_refusals_keep_their_words(self, zeta, message):
        text = '{"version": 1, "n": 2, "bundle_dim": 1, "zeta": %s}' % zeta
        with pytest.raises(ValidationError) as caught:
            loads_instance(text)
        assert str(caught.value) == f"<string>: {message}"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_line_breaks_are_read_as_universal_newlines(self, tmp_path, newline):
        """The file is decoded as ``read_text`` decodes it: a bare CR and a
        CRLF are each one line break, for the refusal's line:col too."""
        path = tmp_path / "two.json"
        path.write_bytes(newline.join(TRAILING_COMMA).encode())
        with pytest.raises(ValidationError) as caught:
            load_instance(path)
        assert str(caught.value) == f"{path}:3:35: Expecting value"
        path.write_bytes(newline.join(TRAILING_COMMA).replace(",]", "]").encode())
        assert load_instance(path).zeta.components.tolist() == [[[1.0, 0.5], [0.5, 2.0]]]


class TestRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(97)
        for k in range(20):
            zeta = sample_general(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            instance = Instance(zeta=zeta)
            path = tmp_path / f"inst{k}.json"
            save_instance(instance, path)
            loaded = load_instance(path)
            assert np.array_equal(loaded.zeta.components, zeta.components)

    def test_constructed_families_round_trip(self, tmp_path):
        params = [
            FamilyParams(Family.H_UMBILICAL, n=2, lam=3.0, mu=1.0),
            FamilyParams(Family.SLUMBILICAL, n=3, lam=math.pi),
            FamilyParams(Family.TOTALLY_UMBILICAL, n=4, h0=np.array([0.1, -2.0 / 3.0])),
        ]
        for k, p in enumerate(params):
            zeta = construct_family(p)
            path = tmp_path / f"fam{k}.json"
            save_instance(Instance(zeta=zeta), path)
            assert np.array_equal(load_instance(path).zeta.components, zeta.components)

    def test_save_bytes_deterministic(self, tmp_path):
        zeta = BundleValuedForm(np.full((1, 2, 2), 1.0 / 3.0))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_instance(Instance(zeta=zeta), a)
        save_instance(Instance(zeta=zeta), b)
        assert a.read_bytes() == b.read_bytes()

    def test_sha256_stable_across_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        zeta = sample_general(rng, 3, 2)
        instance = Instance(
            zeta=zeta, ambient=AmbientModel(AmbientKind.COMPLEX_LAGRANGIAN, 4.0)
        )
        path = tmp_path / "h.json"
        save_instance(instance, path)
        assert instance_sha256(load_instance(path)) == instance_sha256(instance)

    def test_structure_preserved(self, tmp_path):
        zeta = construct_family(
            FamilyParams(Family.SLUMBILICAL, n=2, lam=1.0, theta=0.5)
        )
        instance = Instance(zeta=zeta, structure=StructureInfo(kind="slant", theta=0.5))
        path = tmp_path / "s.json"
        save_instance(instance, path)
        loaded = load_instance(path)
        assert loaded.structure == StructureInfo(kind="slant", theta=0.5)


class TestDumpJson:
    def test_output_is_valid_json(self):
        doc = {
            "version": 1,
            "flags": [True, False, None],
            "matrix": [[1.0, 0.5], [0.5, 1.0]],
            "nested": {"empty_list": [], "empty_obj": {}},
        }
        parsed = json.loads(dump_json(doc))
        assert parsed["version"] == 1
        assert parsed["matrix"][0][1] == 0.5
        assert parsed["nested"]["empty_list"] == []
