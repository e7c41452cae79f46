"""The deterministic writers against the one-float-at-a-time references, and
the instance hash against a route that shares no code with the library's.

Golden bytes were recorded with the per-float writer (now
``tests/json_oracle.py``) before the array emitter replaced it; the property
tests compare the JSON writer and the text renderer with their references on
random documents, on a report of every kind and on the reports of the
benchmark's own file and campaign operations.  Both writers refuse every
value outside their type set with a TypeError that names its type.
"""

import hashlib
import math
import re
import struct
import sys
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvlike.ambient_models import AmbientKind, AmbientModel
from curvlike.errors import ValidationError
from curvlike.gauss_bounds import BoundMode
from curvlike.instance_io import (
    SHORT_ROW,
    Instance,
    StructureInfo,
    dump_json,
    format_float,
    format_floats,
    instance_sha256,
    instance_to_dict,
    load_instance,
    loads_instance,
    save_instance,
)
from curvlike.optim_lemmas import Objective
from curvlike.reporting import (
    build_bound_report,
    build_check_report,
    build_instance_report,
    build_lemma_report,
    build_nullspace_report,
    render_text,
    run_sample,
)
from curvlike.structures import Family, FamilyParams, construct_family
from curvlike.tensor_core import DEFAULT_TOL, BundleValuedForm, rotate_frame
from json_oracle import reference_dump_json, reference_format_float, reference_render_text
from random_forms import random_orthogonal, sample_general, sample_symmetric

GOLDEN = Path(__file__).parent / "golden"

# The benchmark's workload definitions, read only: their instance files and
# campaign calls are the documents the writers meet in a benchmark run.
sys.path.append(str(Path(__file__).parents[1] / "perfbench"))
import workloads  # noqa: E402

SLANT = math.pi / 3

# Entries that sit on the edges of the two format codes: signed zeros,
# integers up to and past 1e17, the smallest subnormal and huge values.
SPECIAL_VALUES = [
    0.0, -0.0, 3.0, 1e16, 99999999999999984.0, 1e17,
    5e-324, 1e300, -99999999999999984.0, -1e17, 0.1, -2.5,
    1.0 / 3.0, 123456789012345678.0, 2.0**53 + 2.0, -7.0, 1e-300, -5e-324,
]


def boundary_row(length: int, *bad: float) -> np.ndarray:
    """A row of ``length`` floats cycling through -0.0, 1e17 and 2^-1074,
    with its last entries replaced by ``bad``."""
    row = np.resize(np.array([-0.0, 1e17, 2.0**-1074]), length)
    row[length - len(bad):] = bad
    return row


def written(write, doc) -> str:
    """The text ``write`` makes of ``doc``, or the message it refuses it with."""
    try:
        return write(doc)
    except ValidationError as exc:
        return f"refused: {exc}"


def general_instance() -> Instance:
    """Seeded (4, 6) general form with a slant ambient and structure."""
    zeta = sample_general(np.random.default_rng(4604), 4, 6)
    return Instance(
        zeta=zeta,
        ambient=AmbientModel(AmbientKind.COMPLEX_SLANT, -1.5, SLANT),
        structure=StructureInfo(kind="slant", theta=SLANT),
    )


def special_values_document() -> dict:
    """Instance document of a (3, 3) form whose upper triangles hold
    :data:`SPECIAL_VALUES`.  Its 1e300 entry leaves 8 n ||zeta||^2 no room in
    binary64, so no form carries it and the loader refuses the file: the
    document tests the writer and the JSON decoder alone."""
    comps = np.zeros((3, 3, 3))
    upper = np.triu_indices(3)
    for r in range(3):
        comps[r][upper] = SPECIAL_VALUES[6 * r : 6 * r + 6]
        comps[r][upper[::-1]] = SPECIAL_VALUES[6 * r : 6 * r + 6]
    return {"version": 1, "n": 3, "bundle_dim": 3, "zeta": comps}


def as_lists(value):
    """``value`` with every ndarray replaced by its ``tolist()``."""
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_lists(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


class TestGoldenBytes:
    def test_bytes_and_hash(self, tmp_path):
        instance = general_instance()
        text = dump_json(instance_to_dict(instance))
        assert text == (GOLDEN / "general_4x6.json").read_text()
        assert instance_sha256(instance) == (
            "1aff572d2e6cfcb02a09a55d5447916400538196b93377ca27cc3dffd424ae81"
        )
        save_instance(instance, tmp_path / "general_4x6.json")
        saved = (tmp_path / "general_4x6.json").read_bytes()
        assert saved == (GOLDEN / "general_4x6.json").read_bytes()

    def test_special_values_bytes_and_hash(self):
        text = dump_json(special_values_document())
        assert text == (GOLDEN / "special_values.json").read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5a8c095257e47a61072956184af169d7b31bf24ff293f05fa33e373737cd6953"
        )

    def test_zero_form_hash(self):
        instance = Instance(zeta=BundleValuedForm.zeros(16, 32))
        text = dump_json(instance_to_dict(instance))
        assert len(text) == 45506
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "31b168aa880cf1d48fd6ce8a296e272f1e6559821687acb0283d3f7de698a69d"
        )
        assert instance_sha256(instance) == (
            "70bd73d5fd2d52fae192e2c156ca112d524c0f9e1523be40091357f62d75b321"
        )

    def test_special_values_round_trip(self):
        """The decoder the loader uses restores every value bit for bit,
        signed zeros included; the loader itself refuses the file."""
        text = (GOLDEN / "special_values.json").read_text()
        comps = special_values_document()["zeta"]
        decoded = np.asarray(orjson.loads(text)["zeta"], dtype=float)
        assert np.array_equal(np.signbit(decoded), np.signbit(comps))
        assert np.array_equal(decoded, comps)
        with pytest.raises(ValidationError, match="^<string>: field 'zeta': zeta is too large"):
            loads_instance(text)

    def test_special_values_match_scalar_formatter(self):
        values = np.array(SPECIAL_VALUES)
        assert format_floats(values) == (
            "[" + ", ".join(reference_format_float(x) for x in SPECIAL_VALUES) + "]"
        )
        for x in SPECIAL_VALUES:
            assert format_float(x) == reference_format_float(x)


class TestNonFinite:
    @pytest.mark.parametrize(
        "values",
        [
            [1.0, float("inf"), float("nan")],
            [[0.5, -2.0], [float("-inf"), float("nan")]],
            [[[0.0, float("nan")]], [[float("inf"), 1.0]]],
            *(
                boundary_row(length, float("inf"), float("nan")).tolist()
                for length in (SHORT_ROW - 1, SHORT_ROW, SHORT_ROW + 1)
            ),
        ],
    )
    def test_array_names_first_non_finite_value(self, values):
        doc = {"ok": [1.0, 2.0], "data": np.array(values)}
        with pytest.raises(ValidationError) as expected:
            reference_dump_json(as_lists(doc))
        with pytest.raises(ValidationError) as got:
            dump_json(doc)
        assert str(got.value) == str(expected.value)
        assert "cannot be serialized" in str(got.value)

    def test_scalar_message_unchanged(self):
        for x in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValidationError) as expected:
                reference_format_float(x)
            with pytest.raises(ValidationError) as got:
                format_float(x)
            assert str(got.value) == str(expected.value)


finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(SPECIAL_VALUES),
    st.integers(-(10**18), 10**18).map(float),
)
float_arrays = st.one_of(
    # Rows on both sides of the writer's short-row cut.
    hnp.arrays(np.float64, st.integers(0, 40), elements=finite_floats),
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
        elements=finite_floats,
    ),
    hnp.arrays(
        np.float32,
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
        elements=st.floats(width=32, allow_nan=False, allow_infinity=False),
    ),
)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), finite_floats, st.text(max_size=6)
)
documents = st.recursive(
    st.one_of(scalars, float_arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=12,
)


class TestAgainstReference:
    @settings(max_examples=500, deadline=None)
    @given(finite_floats)
    def test_scalar_formatter_matches_reference(self, x):
        assert format_float(x) == reference_format_float(x)
        assert format_floats(np.array([x])) == "[" + reference_format_float(x) + "]"

    @settings(max_examples=300, deadline=None)
    @given(documents)
    # Keys that are not ASCII identifiers, which go through json.dumps, and one that is.
    @example({"ü": 1.0, "1a": [2, "x"], "a-b": None, 'q"t': {"ok_1": True}, "": -0.0})
    # Rows on both sides of the short-row cut; one of them holds an inf.
    @example({"a": boundary_row(SHORT_ROW - 1), "b": [boundary_row(SHORT_ROW)]})
    @example({"a": boundary_row(SHORT_ROW + 1), "b": boundary_row(SHORT_ROW, float("inf"))})
    @example([boundary_row(SHORT_ROW - 1, float("inf")), boundary_row(SHORT_ROW + 1)])
    @example({"a": [1.0, 2.0], "b": boundary_row(SHORT_ROW + 1, float("inf"))})
    def test_writer_matches_reference(self, doc):
        expected = written(reference_dump_json, doc)
        assert written(dump_json, doc) == expected
        assert written(reference_dump_json, as_lists(doc)) == expected
        if expected.startswith("refused"):  # only an example holds an inf
            assert expected == "refused: non-finite number inf cannot be serialized"

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(min_size=1, max_size=5), documents, max_size=4))
    def test_text_matches_reference(self, doc):
        expected = reference_render_text(as_lists(doc))
        assert render_text(doc) == expected
        assert render_text(as_lists(doc)) == expected

    @pytest.mark.parametrize(
        "zeta",
        [
            general_instance().zeta,
            BundleValuedForm.zeros(3, 2),
            construct_family(FamilyParams(Family.H_UMBILICAL, n=2, lam=3.0, mu=1.0)),
            construct_family(FamilyParams(Family.H_UMBILICAL, n=4, lam=3.0, mu=1.0)),
            construct_family(
                FamilyParams(Family.TOTALLY_UMBILICAL, n=3, h0=np.array([1.0, 0.0, 0.5]))
            ),
            sample_symmetric(np.random.default_rng(5), 3, 4),
            sample_general(np.random.default_rng(6), 16, 32),
        ],
    )
    def test_reports_match_reference(self, zeta):
        instance = Instance(
            zeta=zeta, ambient=AmbientModel(AmbientKind.COMPLEX_LAGRANGIAN, 2.0)
        )
        assert_match_reference(file_reports(instance, 1e-9))

    @pytest.mark.parametrize("spec", workloads.file_specs(1), ids=lambda spec: spec.name)
    def test_benchmark_file_reports_match_reference(self, spec, tmp_path):
        instance = load_instance(workloads.write_instance(spec, tmp_path))
        assert_match_reference(file_reports(instance, DEFAULT_TOL))

    @pytest.mark.parametrize("workload", sorted(workloads.CAMPAIGNS))
    @pytest.mark.parametrize("index", [0, 1])
    def test_benchmark_campaign_reports_match_reference(self, workload, index):
        argv = workloads.campaign_op(workload, 1, index).argv
        opts = dict(zip(argv[1::2], argv[2::2]))  # "sample" then flag, value pairs
        doc, code = run_sample(
            int(opts["--n"]),
            int(opts["--bundle"]),
            int(opts["--count"]),
            int(opts["--seed"]),
            opts["--family"],
            AmbientModel(AmbientKind(opts["--ambient"]), float(opts["--c"])),
            DEFAULT_TOL,
        )
        assert code == 0
        assert_match_reference([doc])

    def test_lemma_and_sample_reports_match_reference(self):
        lagrangian = AmbientModel(AmbientKind.COMPLEX_LAGRANGIAN, 1.0)
        docs = [
            build_lemma_report(Objective.F1, 3, 6.0, None, 1e-9)[0],
            build_lemma_report(Objective.F2, 3, 4.0, np.array([1.0, 2.0, 1.0]), 1e-9)[0],
            run_sample(3, 3, 40, 42, "symmetric", lagrangian, 1e-9)[0],
            # At tolerance 0 every roundoff residual is a violation.
            run_sample(4, 6, 4, 5, "general", None, 0.0)[0],
        ]
        assert docs[-1]["results"]["violations"]
        assert_match_reference(docs)


def file_reports(instance: Instance, tol: float) -> list[dict]:
    """The report of every file command on ``instance``: ``report``,
    ``check``, ``bound`` in both modes and ``nullspace``."""
    return [
        build_instance_report(instance, tol)[0],
        build_check_report(instance, tol)[0],
        build_bound_report(instance, BoundMode.GENERAL, tol)[0],
        build_bound_report(instance, BoundMode.IMPROVED, tol)[0],
        build_nullspace_report(instance, tol)[0],
    ]


def assert_match_reference(docs: list[dict]) -> None:
    for doc in docs:
        assert dump_json(doc) == reference_dump_json(as_lists(doc))
        assert render_text(doc) == reference_render_text(as_lists(doc))


# Values outside the writers' type set, each with the type its refusal names.
UNWRITABLE = [
    pytest.param(np.float64(1.0), "numpy.float64", id="float64"),
    pytest.param(np.int64(1), "numpy.int64", id="int64"),
    pytest.param(np.bool_(True), "numpy.bool", id="bool_"),
    pytest.param((1.0,), "tuple", id="tuple"),
    pytest.param(np.arange(3), "1-d int64 ndarray", id="int-array"),
    pytest.param(np.array(1.0), "0-d float64 ndarray", id="0-d-array"),
    pytest.param({1: 0.0}, "key of <class 'int'>", id="int-key"),
]


class TestTypeSet:
    """Both writers take dicts with str keys, lists, float arrays of one or
    more axes and Python's float, str, int, bool and None, by exact type;
    anything else is a TypeError that names its type, wherever it sits."""

    @pytest.mark.parametrize("value, name", UNWRITABLE)
    def test_writers_refuse_and_name_the_type(self, value, name):
        refusal = "^cannot serialize .*" + re.escape(name)
        # As a field, in a flat list and in a list that nests.
        docs = [{"a": value}, {"a": [value]}, {"a": [value, [1.0]]}]
        for write in (dump_json, render_text):
            for doc in docs:
                with pytest.raises(TypeError, match=refusal):
                    write(doc)
        with pytest.raises(TypeError, match=refusal):
            dump_json(value)
        if type(value) is dict:
            with pytest.raises(TypeError, match=refusal):
                render_text(value)

    @pytest.mark.parametrize("root", [(1.0,), [1.0], 1.0], ids=["tuple", "list", "float"])
    def test_text_writer_root_must_be_a_dict(self, root):
        with pytest.raises(TypeError, match=rf"^cannot render a root of {re.escape(repr(type(root)))}$"):
            render_text(root)


# Pool entries for the large arrays, binary64 and binary32: signed zeros,
# integral values just below, at and above 1e17, subnormals and the largest
# finite values.
POOL_EDGES = [
    0.0, -0.0, 99999999999999984.0, 1e17, 100000000000000016.0,
    -99999999999999984.0, -1e17, 5e-324, -5e-324, 2.2250738585072009e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
]
POOL_EDGES_32 = [
    0.0, -0.0, 16777216.0, -16777218.0, 99999998430674944.0, 100000007020609536.0,
    1.401298464324817e-45, -1.1754942106924411e-38, 3.4028234663852886e38,
    -3.4028234663852886e38,
]


@st.composite
def pooled_arrays(draw, dtype=np.float64):
    """Arrays of 1-3 axes and 500-9000 elements whose entries come from a
    pool of at most a dozen values, so that most entries repeat."""
    edges, width = (POOL_EDGES, 64) if dtype == np.float64 else (POOL_EDGES_32, 32)
    pool = draw(
        st.lists(
            st.one_of(
                st.sampled_from(edges),
                st.floats(width=width, allow_nan=False, allow_infinity=False),
            ),
            min_size=2,
            max_size=12,
        )
    )
    inner = tuple(draw(st.lists(st.integers(1, 40), max_size=2)))
    size = math.prod(inner)
    lead = draw(st.integers(-(-500 // size), 9000 // size))
    # A seeded pick of every entry: hypothesis would fill most of an array this
    # large with one value.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array(pool, dtype=dtype)[rng.integers(len(pool), size=(lead, *inner))]


def assert_same_text(got: str, expected: str) -> None:
    """``got == expected``, failing with the first difference in a short
    message: pytest's own diff of two long one-line texts takes minutes, and
    hypothesis pays it on every failing call while it shrinks."""
    if got != expected:
        k = min(len(got), len(expected))
        k = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), k)
        lo = max(k - 30, 0)
        pytest.fail(f"texts differ at {k}: {got[lo:k + 30]!r} != {expected[lo:k + 30]!r}")


def h_umbilical(n: int, m_prime: int) -> BundleValuedForm:
    """The lambda = 3, mu = 1 h-umbilical pattern, with a zero bundle tail up
    to ``m_prime``."""
    comps = np.zeros((m_prime, n, n))
    comps[:n] = construct_family(
        FamilyParams(Family.H_UMBILICAL, n=n, lam=3.0, mu=1.0)
    ).components
    return BundleValuedForm(comps)


class TestLargeArrays:
    """Arrays of 500-9000 elements, most of them repeated values, against the
    reference writer."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(pooled_arrays(), pooled_arrays(np.float32)))
    def test_pooled_arrays_match_reference(self, values):
        expected = reference_dump_json({"a": values.tolist()})
        assert_same_text(dump_json({"a": values}), expected)

    def test_signed_zeros_stay_apart(self):
        values = np.resize(np.array([0.0, -0.0, -0.0, 0.0, 2.0, -2.0]), (2, 600))
        rows = format_floats(values).splitlines()[1:-1]
        assert rows[0].startswith("  [0.0, -0.0, -0.0, 0.0, 2.0, -2.0, 0.0, -0.0")
        expected = reference_dump_json({"z": values.tolist()})
        assert_same_text(dump_json({"z": values}), expected)


def reference_sha256(instance: Instance) -> str:
    """The instance hash by a route that shares no code with the library's:
    the reference writer's text of a header built here, then the components
    packed one by one as little-endian binary64."""
    zeta, ambient, structure = instance.zeta, instance.ambient, instance.structure
    header: dict = {"version": 1, "n": zeta.n, "bundle_dim": zeta.m_prime}
    if ambient is not None:
        header["ambient"] = {"kind": ambient.kind.value, "c": ambient.c}
        if ambient.theta is not None:
            header["ambient"]["theta"] = ambient.theta
    if structure is not None:
        header["structure"] = {"kind": structure.kind}
        if structure.theta is not None:
            header["structure"]["theta"] = structure.theta
    flat = [x for slot in zeta.components.tolist() for row in slot for x in row]
    stream = reference_dump_json(header).encode() + struct.pack(f"<{len(flat)}d", *flat)
    return hashlib.sha256(stream).hexdigest()


class TestInstanceHash:
    @pytest.mark.parametrize("shape", [(16, 32), (16, 16), (8, 8)])
    @pytest.mark.parametrize("kind", ["general", "symmetric", "zero", "h-umbilical"])
    def test_matches_reference_and_survives_save_load(self, kind, shape, tmp_path):
        n, m_prime = shape
        rng = np.random.default_rng([n, m_prime])
        zeta = {
            "general": lambda: sample_general(rng, n, m_prime),
            "symmetric": lambda: sample_symmetric(rng, n, m_prime),
            "zero": lambda: BundleValuedForm.zeros(n, m_prime),
            "h-umbilical": lambda: h_umbilical(n, m_prime),
        }[kind]()
        rotated = rotate_frame(zeta, random_orthogonal(rng, n), np.eye(m_prime))
        for form in (zeta, rotated):
            instance = Instance(
                zeta=form, ambient=AmbientModel(AmbientKind.COMPLEX_LAGRANGIAN, 2.0)
            )
            digest = instance_sha256(instance)
            assert digest == reference_sha256(instance)
            save_instance(instance, tmp_path / "i.json")
            assert instance_sha256(load_instance(tmp_path / "i.json")) == digest

    def test_signed_zero_changes_the_hash(self, tmp_path):
        comps = np.zeros((2, 3, 3))
        negative = comps.copy()
        negative[1, 2, 2] = -0.0
        digests = set()
        for values in (comps, negative):
            instance = Instance(zeta=BundleValuedForm(values))
            digest = instance_sha256(instance)
            assert digest == reference_sha256(instance)
            save_instance(instance, tmp_path / "z.json")
            assert instance_sha256(load_instance(tmp_path / "z.json")) == digest
            digests.add(digest)
        assert len(digests) == 2

    def test_ambient_c_and_structure_theta_change_the_hash(self):
        instance = general_instance()
        ambient, structure = instance.ambient, instance.structure
        variants = [
            instance,
            Instance(
                zeta=instance.zeta,
                ambient=AmbientModel(
                    ambient.kind, math.nextafter(ambient.c, 0.0), ambient.theta
                ),
                structure=structure,
            ),
            Instance(
                zeta=instance.zeta,
                ambient=ambient,
                structure=StructureInfo(kind="slant", theta=math.nextafter(SLANT, 0.0)),
            ),
        ]
        digests = [instance_sha256(v) for v in variants]
        assert digests == [reference_sha256(v) for v in variants]
        assert len(set(digests)) == 3

    @pytest.mark.parametrize(
        "ambient, structure",
        [
            (AmbientModel(AmbientKind.REAL_SPACE_FORM, 1), None),
            (AmbientModel(AmbientKind.REAL_SPACE_FORM, np.int64(1)), None),
            (AmbientModel(AmbientKind.COMPLEX_SLANT, -2, 1), None),
            (None, StructureInfo("slant", 1)),
        ],
        ids=["int-c", "int64-c", "int-theta", "int-structure-theta"],
    )
    def test_integer_numbers_survive_save_load(self, ambient, structure, tmp_path):
        """An integer c or theta is stored as the float the loader reads."""
        instance = Instance(general_instance().zeta, ambient, structure)
        digest = instance_sha256(instance)
        assert digest == reference_sha256(instance)
        save_instance(instance, tmp_path / "i.json")
        loaded = load_instance(tmp_path / "i.json")
        assert (loaded.ambient, loaded.structure) == (ambient, structure)
        assert instance_sha256(loaded) == digest

    def test_structure_theta_beyond_binary64_is_refused(self):
        with pytest.raises(ValidationError, match="^theta is an integer too large for binary64$"):
            StructureInfo("slant", 10**400)
        with pytest.raises(ValidationError, match="^theta must be finite, got nan$"):
            StructureInfo("slant", math.nan)

    def test_list_and_array_forms_hash_alike(self):
        comps = sample_general(np.random.default_rng(8), 4, 6).components
        digests = {
            instance_sha256(Instance(zeta=BundleValuedForm(values)))
            for values in (comps.tolist(), comps, np.asfortranarray(comps))
        }
        assert len(digests) == 1
