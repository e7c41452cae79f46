"""The loader's orjson decoder against the standard decoder it replaced.

Accepted text must give ζ bit for bit as ``np.asarray(json.loads(text)
["zeta"], dtype=float)`` does, and refused text must give the message of the
standard-decoder loader, :func:`stdlib_loads`, through the CLI as well.
"""

import json

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvlike.cli import main
from curvlike.errors import ValidationError
from curvlike.instance_io import dump_json, instance_from_dict, loads_instance


def stdlib_loads(text: str, source: str = "<string>"):
    """The loader as it was before orjson: the standard decoder, then the
    same validation."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    try:
        return instance_from_dict(doc)
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from exc


def outcome(loader, text: str):
    """ζ's bytes of the loaded instance, or the refusal message."""
    try:
        return "loaded", loader(text).zeta.components.tobytes()
    except ValidationError as exc:
        return "refused", str(exc)


def column_text(numbers: list[str]) -> str:
    """An n = 1 instance file whose ζ holds the number texts ``numbers``."""
    zeta = ", ".join(f"[[{number}]]" for number in numbers)
    return f'{{"version": 1, "n": 1, "bundle_dim": {len(numbers)}, "zeta": [{zeta}]}}'


def assert_decoders_agree(text: str) -> None:
    expected = np.asarray(json.loads(text)["zeta"], dtype=float)
    decoded = np.asarray(orjson.loads(text)["zeta"], dtype=float)
    assert decoded.tobytes() == expected.tobytes()
    assert outcome(loads_instance, text) == outcome(stdlib_loads, text)


EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308]


class TestAcceptedNumbers:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=32),
        st.sampled_from(["repr", "dump_json"]),
    )
    @example(EXTREMES, "repr")
    @example(EXTREMES, "dump_json")
    @example([1.0, 0.5, -3.0], "dump_json")
    def test_every_finite_double_decodes_bitwise(self, values, writer):
        """Any finite double, written by ``repr`` (as ``json.dumps`` does) or
        by the library's writer, decodes to itself, signed zeros,
        subnormals and the largest magnitudes included."""
        comps = np.array(values).reshape(-1, 1, 1)
        doc = {"version": 1, "n": 1, "bundle_dim": len(values), "zeta": comps}
        text = dump_json(doc) if writer == "dump_json" else json.dumps(
            {**doc, "zeta": comps.tolist()}
        )
        assert_decoders_agree(text)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.text("0123456789", min_size=18, max_size=40),
                st.integers(-345, 307),
            ).map(lambda t: f"{'-' if t[0] else ''}{t[1][0]}.{t[1][1:]}e{t[2]}"),
            min_size=1,
            max_size=8,
        )
    )
    @example(["9007199254740993.0", "2.2250738585072011e-308", "2.4703282292062328e-324"])
    @example(["0.100000000000000005551115123125782702118158340454101562500000"])
    def test_long_decimals_round_correctly(self, numbers):
        """Decimals of 18 to 40 digits, down into the subnormals, round as
        ``float()`` rounds them, halfway cases included."""
        assert_decoders_agree(column_text(numbers))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(2**64, 10**40),
                st.integers(-(10**40), -(2**63) - 1),
                st.integers(-(2**63), 2**64 - 1),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @example([2**64 + 2**11, 2**64 + 2**11 + 1, 2**64 + 3 * 2**11, -(2**64) - 2**11])
    @example([2**53 + 1, 2**63, 2**64 - 1, 2**64, -(2**63), -(2**63) - 1])
    def test_integers_beyond_64_bits_round_correctly(self, integers):
        """orjson reads an integer outside int64/uint64 as a float; it must
        be the float that numpy makes of the standard decoder's int."""
        assert_decoders_agree(column_text([str(i) for i in integers]))


BASE = {
    "version": 1,
    "n": 2,
    "bundle_dim": 1,
    "zeta": [[[1.0, 0.5], [0.5, -1.0]]],
    "ambient": {"kind": "complex_slant", "c": 1.0, "theta": 0.7},
    "structure": {"kind": "slant", "theta": 0.7},
}
BASE_TEXT = json.dumps(BASE)

NUMERIC_FIELDS = {
    "version": ('"version": 1', '"version": {}'),
    "n": ('"n": 2', '"n": {}'),
    "bundle_dim": ('"bundle_dim": 1', '"bundle_dim": {}'),
    "zeta": ("[[1.0, 0.5], [0.5, -1.0]]", "[[1.0, {}], [0.5, -1.0]]"),
    "ambient.c": ('"c": 1.0', '"c": {}'),
    "ambient.theta": ('"theta": 0.7}, "structure"', '"theta": {}}}, "structure"'),
    "structure.theta": ('"theta": 0.7}}', '"theta": {}}}}}'),
}
LITERALS = {
    "NaN": "NaN",
    "Infinity": "Infinity",
    "-Infinity": "-Infinity",
    "1e400": "1e400",
    "-1e400": "-1e400",
    "10^400": "1" + "0" * 400,
}


def with_literal(field: str, literal: str) -> str:
    old, new = NUMERIC_FIELDS[field]
    assert BASE_TEXT.count(old) == 1
    return BASE_TEXT.replace(old, new.format(literal))


REFUSALS = {
    "bom": "\ufeff" + BASE_TEXT,
    "trailing data": BASE_TEXT + " x",
    "control character": BASE_TEXT.replace('"slant"', '"sla\x01nt"'),
    "lone surrogate": BASE_TEXT.replace('"slant"', '"\\ud800"'),
    "malformed": "{nope",
    "empty": "",
    "huge n": BASE_TEXT.replace('"n": 2', f'"n": {2**70}'),
    **{
        f"{field} = {name}": with_literal(field, literal)
        for field in NUMERIC_FIELDS
        for name, literal in LITERALS.items()
    },
}


class TestRefusalParity:
    def test_base_document_loads(self):
        assert outcome(loads_instance, BASE_TEXT) == outcome(stdlib_loads, BASE_TEXT)
        assert outcome(loads_instance, BASE_TEXT)[0] == "loaded"

    @pytest.mark.parametrize("text", REFUSALS.values(), ids=REFUSALS.keys())
    def test_cli_refuses_with_the_standard_decoders_message(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError) as reference:
            stdlib_loads(text, source=str(path))
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {reference.value}\n")

    @pytest.mark.parametrize(
        "text, standard_error",
        [
            (with_literal("zeta", "9" * 5000), ValueError),
            ("[" * 2000 + "}", RecursionError),
        ],
        ids=["5000-digit integer", "2000 lists deep"],
    )
    def test_orjsons_message_where_the_standard_decoder_words_none(self, text, standard_error):
        """The standard decoder raises a bare ValueError on an integer of
        more than 4300 digits and RecursionError on deep nesting; neither
        has a position, so orjson's refusal is the message."""
        with pytest.raises(standard_error):
            json.loads(text)
        with pytest.raises(ValidationError, match=r"^<string>:1:\d+: [a-z]"):
            loads_instance(text)
