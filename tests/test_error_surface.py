"""Guards on the package's public and exception surface, read from the
source with ast.

Every invalid input raises ``ValidationError``, a ``CurvlikeError``; the CLI
maps both to exit 2 and no caller tells finer classes apart, so none may come
back.  Builtin ``TypeError`` and ``ArithmeticError`` stay allowed for
internal invariants.  Each quantity has one public entry point, so the names
in ``curvlike.__all__`` are pinned, and the one-form wrappers that forwarded
to the array kernels may not come back.
"""

import ast
from pathlib import Path

import curvlike

SOURCE = Path(curvlike.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}

PACKAGE_ERRORS = {"CurvlikeError", "ValidationError"}
ALLOWED_RAISES = PACKAGE_ERRORS | {"TypeError", "ArithmeticError"}

PUBLIC_NAMES = {
    "__version__",
    # tensor_core
    "DEFAULT_TOL", "Dimensions", "BundleValuedForm", "CurvatureLikeTensor",
    "SymmetryReport", "as_unit_vector", "validate_curvature_symmetries",
    "pair_exchange_residual", "t_sectional", "t_ricci_form", "t_ricci", "t_scalar",
    "zeta_norm_sq", "traces", "trace_norms_sq", "rotate_frame", "null_space",
    # gauss_bounds
    "BoundMode", "EqualityTag", "EqualityClass", "BoundReport", "CorollaryTriple",
    "build_T_from_zeta", "verify_gauss", "bound_coefficient", "is_totally_symmetric",
    "check_bound", "equality_directions", "corollary_triple",
    # optim_lemmas
    "Objective", "ConstrainedQuadratic", "f_value", "f1_max_closed", "f2_max_closed",
    "brute_force_max", "max_ricci",
    # ambient_models
    "AmbientKind", "AmbientModel", "ricci_offset", "application_bounds",
    "intrinsic_ricci",
    # structures
    "SlantStructure", "build_slant_structure", "Family", "FamilyParams",
    "construct_family", "RigidityVerdict", "umbilical_rigidity_witness",
    # instance_io
    "Instance", "StructureInfo", "load_instance", "loads_instance", "save_instance",
    "instance_sha256",
    # errors
    "CurvlikeError", "ValidationError",
}

# Wrappers over bound_coefficient, check_bound, traces, trace_norms_sq,
# application_bounds and is_totally_symmetric, removed in favour of them.
REMOVED_NAMES = {
    "chen_ricci_bound",
    "improved_bound",
    "classify_all_equality",
    "trace_zeta",
    "trace_norm_sq",
    "application_bound",
    "mean_curvature_sq",
    "lagrangian_symmetry_check",
}


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _classes(tree) -> list[ast.ClassDef]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]


def _is_exception_class(node: ast.ClassDef) -> bool:
    bases = {_name(base) for base in node.bases}
    return any(
        base is not None and (base in PACKAGE_ERRORS or base.endswith(("Error", "Exception")))
        for base in bases
    )


def test_errors_module_defines_exactly_the_two_classes():
    assert {node.name for node in _classes(MODULES["errors"])} == PACKAGE_ERRORS


def test_no_other_module_defines_an_exception():
    offenders = [
        f"{module}.{node.name}"
        for module, tree in MODULES.items()
        if module != "errors"
        for node in _classes(tree)
        if _is_exception_class(node)
    ]
    assert offenders == []


def test_every_raise_names_an_allowed_class():
    """``raise X(...)``, ``raise X`` and ``raise helper(...)`` where the
    helper's return annotation is the class; a bare ``raise`` re-raises."""
    offenders = []
    for module, tree in MODULES.items():
        returns = {
            node.name: _name(node.returns)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = _name(exc)
            raised = name if name in ALLOWED_RAISES else returns.get(name)
            if raised not in ALLOWED_RAISES:
                offenders.append(f"{module}.py:{node.lineno} raises {name}")
    assert offenders == []


def test_all_has_no_duplicates_and_every_entry_resolves():
    names = curvlike.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(curvlike, name)]
    assert missing == []
    assert PACKAGE_ERRORS <= set(names)


def test_all_is_exactly_the_public_names():
    assert set(curvlike.__all__) == PUBLIC_NAMES


def test_removed_wrappers_stay_removed():
    defined = {
        f"{module}.{node.name}"
        for module, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in REMOVED_NAMES
    }
    assert defined == set()
    assert [name for name in REMOVED_NAMES if hasattr(curvlike, name)] == []
