"""Guards on the package's public and exception surface, read from the
source with ast.

Every invalid input raises ``ValidationError``, a ``CurvlikeError``; the CLI
maps both to exit 2 and no caller tells finer classes apart, so none may come
back.  Builtin ``TypeError`` and ``ArithmeticError`` stay allowed for
internal invariants.  Each quantity has one public entry point, so the names
in ``curvlike.__all__`` are pinned, and the one-form wrappers that forwarded
to the array kernels may not come back.  Each input rule has one owning
function, so the comparisons that implement a rule are looked up by shape and
must all sit in that function (the overflow headroom of a form sits with its
other checks); the same holds for each verdict rule, and the
verdicts of ``report``, ``bound``, ``check`` and ``sample`` come from one
pass; every rule on zeta scales its tolerance with zeta, and the pointwise
equality rule has one owner.  The Gauss tensor is built once where it is checked against zeta
and never rebuilt to be compared with itself, and no kernel takes a
caller's work buffer.  S_T's top eigenvalue comes from one owner, and its
eigenvectors only where a direction is printed or certified.  Every
module-level definition is read somewhere in the package or exported.  The
CLI parses and dispatches; every report is built in ``reporting``.
"""

import ast
from collections import Counter
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
    "build_T_from_zeta", "bound_coefficient", "is_totally_symmetric",
    "check_bound", "equality_directions", "corollary_triple",
    # optim_lemmas
    "Objective", "ConstrainedQuadratic", "f_value", "f1_max_closed", "f2_max_closed",
    "brute_force_max", "max_ricci",
    # ambient_models
    "AmbientKind", "AmbientModel", "ricci_offset", "application_bounds",
    "intrinsic_ricci", "SlantStructure", "build_slant_structure",
    # structures
    "Family", "FamilyParams",
    "construct_family", "RigidityVerdict", "umbilical_rigidity_witness",
    # instance_io
    "Instance", "StructureInfo", "load_instance", "loads_instance", "save_instance",
    "instance_sha256",
    # errors
    "CurvlikeError", "ValidationError",
}

# Wrappers over bound_coefficient, check_bound, traces, trace_norms_sq,
# application_bounds and is_totally_symmetric, removed in favour of them,
# and verify_gauss, a same-kernel rebuild of T that read 0.0 by construction.
REMOVED_NAMES = {
    "chen_ricci_bound",
    "improved_bound",
    "classify_all_equality",
    "trace_zeta",
    "trace_norm_sq",
    "application_bound",
    "mean_curvature_sq",
    "lagrangian_symmetry_check",
    "verify_gauss",
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


def _module_definitions(tree) -> set[str]:
    """Names a module's top level binds by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names |= {
                sub.id
                for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
            }
    return names


def test_every_module_level_definition_is_used():
    """A name defined at a module's top level is read somewhere in the
    package, or exported through ``__all__``; a dead definition goes."""
    read = {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for tree in MODULES.values()
        for sub in ast.walk(tree)
        if (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load))
        or isinstance(sub, ast.Attribute)
    }
    unused = {
        f"{module}.{name}"
        for module, tree in MODULES.items()
        for name in _module_definitions(tree) - read - set(curvlike.__all__)
        if not name.startswith("__")
    }
    assert unused == set()


def _owner_counts(predicate) -> Counter:
    """How many nodes that satisfy ``predicate`` each owner holds: the
    ``module.function`` of the innermost function around the node
    (``module.<module>`` outside any function)."""
    found = Counter()

    def visit(node, owner):
        if isinstance(node, ast.FunctionDef):
            owner = f"{owner.split('.')[0]}.{node.name}"
        if predicate(node):
            found[owner] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for module, tree in MODULES.items():
        visit(tree, f"{module}.<module>")
    return found


def _owners(predicate) -> set[str]:
    return set(_owner_counts(predicate))


def _names(node) -> set[str]:
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _is_constant(node, value) -> bool:
    return (
        isinstance(node, ast.Constant)
        and type(node.value) is type(value)
        and node.value == value
    )


def _string_with(fragment: str):
    return lambda node: isinstance(node, ast.Constant) and fragment in str(node.value)


def test_tangent_dimension_rule_has_one_owner():
    owners = _owners(
        lambda node: isinstance(node, ast.Compare) and "MAX_TANGENT_DIM" in _names(node)
    )
    assert owners == {"tensor_core.check_tangent_dim"}


def test_bundle_dimension_rule_has_one_owner():
    owners = _owners(
        lambda node: isinstance(node, ast.Compare) and "MAX_BUNDLE_DIM" in _names(node)
    )
    assert owners == {"tensor_core.check_bundle_dim"}


def test_loader_names_no_dimension_limit():
    """The loader passes ``n`` and ``bundle_dim`` to the two owners above
    instead of restating their limits."""
    names = {
        node.id if isinstance(node, ast.Name) else node.name
        for node in ast.walk(MODULES["instance_io"])
        if isinstance(node, (ast.Name, ast.alias))
    }
    assert sorted(name for name in names if name.startswith("MAX_")) == []


def test_headroom_rule_has_one_owner():
    """8 n ||zeta||^2 must stay finite: checked where every form is
    validated, so no report builder checks it again.  The rule is the only
    reader of the binary64 maximum."""
    owners = _owners(lambda node: _name(node) == "finfo")
    assert owners == {"tensor_core.checked_components"}
    functions = {
        node.name
        for tree in MODULES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }
    assert "_require_headroom" not in functions


def test_slant_angle_rule_and_lagrangian_snap_have_one_owner():
    """cos theta, the (0, pi/2] range and the |cos theta| < 1e-12 snap."""

    def is_rule(node) -> bool:
        if isinstance(node, ast.Call):
            return _name(node.func) == "cos"
        if not isinstance(node, ast.Compare):
            return False
        snap = isinstance(node.ops[0], ast.Lt) and _is_constant(node.comparators[0], 1e-12)
        closed_range = any(
            isinstance(op, ast.LtE) and "pi" in ast.unparse(side)
            for op, side in zip(node.ops, node.comparators)
        )
        return (snap and _name(getattr(node.left, "func", None)) == "abs") or closed_range

    assert _owners(is_rule) == {"ambient_models.slant_cos"}
    assert not any("LAGRANGIAN_COS_TOL" in path.read_text() for path in SOURCE.glob("*.py"))


def test_even_dimension_rule_has_one_owner():
    parity = _owners(
        lambda node: isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mod)
        and _is_constant(node.right, 2)
    )
    assert parity == {"ambient_models.build_slant_structure"}


def test_symmetric_bundle_rule_has_one_owner():
    """m' >= n for a totally symmetric draw is checked once, before any draw."""
    owners = _owners(
        lambda node: isinstance(node, ast.Compare)
        and isinstance(node.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
        and "n" in _names(node)
        and bool({"bundle_dim", "m_prime"} & _names(node))
    )
    assert owners == {"reporting.run_sample"}


def test_instance_field_checks_have_one_owner_each():
    def in_io(fragment: str) -> set[str]:
        return {
            owner
            for owner in _owners(_string_with(fragment))
            if owner.startswith("instance_io.")
        }

    assert in_io("is not recognized") == {"instance_io._object"}
    assert in_io("must be an object") == {"instance_io._object"}
    assert in_io("must be a number") == {"instance_io._number"}


# What a verdict compares with tol, by the words that name it, and the one
# function that may make each comparison.  The Gauss-residual gate is
# listed so that it cannot pass for one of the others.
VERDICT_RULES = {
    "Gauss residual": ({"gauss", "gauss_residual"}, "reporting._verdicts"),
    "ambient margin": ({"margin", "app", "intrinsic_max"}, "reporting._verdicts"),
    "bound violation": ({"gap", "gap_general", "gap_improved"}, "reporting._verdicts"),
    "certification": ({"residual", "symmetry_residual"}, "gauss_bounds._certified"),
    "curvature symmetry": (
        {"worst", "symmetry", "skew_xy", "skew_zw", "bianchi"},
        "tensor_core._symmetries_hold",
    ),
}


def _verdict_rule(node) -> str | None:
    """The rule a comparison with ``tol`` decides, from the names, attributes
    and keys it reads; None for any other node."""
    if not isinstance(node, ast.Compare) or "tol" not in _names(node):
        return None
    words = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            words.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            words.add(sub.value)
    words |= _names(node)
    return next((rule for rule, (marks, _) in VERDICT_RULES.items() if words & marks), None)


def test_each_verdict_rule_has_one_owner():
    owners = {
        rule: _owners(lambda node, rule=rule: _verdict_rule(node) == rule)
        for rule in VERDICT_RULES
    }
    assert owners == {rule: {owner} for rule, (_, owner) in VERDICT_RULES.items()}


def test_every_cli_verdict_comes_from_the_one_pass():
    """``report`` and ``check`` reach the pass through their symmetry block,
    and a campaign's audited tensors through ``run_sample``'s ``audit``."""
    callers = _owners(lambda node: isinstance(node, ast.Call) and _name(node.func) == "_verdicts")
    assert callers == {
        "reporting._symmetry_block",
        "reporting.build_bound_report",
        "reporting.run_sample",
        "reporting.audit",
    }


def test_cli_builds_no_report():
    """Report envelopes are made only in ``reporting``, and ``cli`` binds
    neither the envelope nor the lemma's closed forms and oracle; its four
    file commands share one runner."""
    assert {owner.split(".")[0] for owner in _callers("report_envelope")} == {"reporting"}
    tree = MODULES["cli"]
    bound = _module_definitions(tree) | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    report_names = {"report_envelope", "f1_max_closed", "f2_max_closed", "brute_force_max"}
    assert bound & report_names == set()
    commands = {name for name in _module_definitions(tree) if name.startswith("_cmd_")}
    assert commands == {"_cmd_construct", "_cmd_file", "_cmd_lemma", "_cmd_sample"}


def test_no_code_rebuilds_the_gauss_tensor_to_compare_it():
    """A second build of T by the kernel that built it equals T by
    construction, so a residual against it reads 0.0 and tests nothing.  T
    is built by one call, only in its constructor and in the n^4 stage,
    which checks it against zeta and S_T by the independent
    ``gauss_probe_residuals`` and serves the symmetry block of ``check`` and
    ``report`` and a campaign's audit."""
    builds = _owner_counts(
        lambda node: isinstance(node, ast.Call)
        and _name(node.func) in {"gauss_components", "build_T_from_zeta"}
    )
    assert builds == {"gauss_bounds.build_T_from_zeta": 1, "reporting._gauss_stage": 1}
    assert _callers("gauss_probe_residuals") == {"reporting._gauss_stage"}
    assert _callers("_gauss_stage") == {"reporting._symmetry_block", "reporting.audit"}


def test_work_buffers_are_taken_only_by_the_n4_stage_kernels():
    """Every kernel allocates its own result, except the three that share a
    form's one n^4 buffer: ``gauss_components`` writes X and T into it, and
    the two residual kernels reduce in its spent slabs, block by block.  No
    other function takes a caller's ``out``, ``gram`` or ``scratch`` array,
    and a tensor is built only through the public, copying constructor."""
    buffers = {
        f"{module}.{node.name}({arg.arg})"
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for arg in ast.walk(node.args)
        if isinstance(arg, ast.arg) and arg.arg in {"out", "gram", "scratch"}
    }
    assert buffers == {
        "gauss_bounds.gauss_components(out)",
        "tensor_core._slab_blocks(scratch)",
        "tensor_core.curvature_residuals(scratch)",
        "tensor_core.pair_exchange_residuals(scratch)",
    }
    tensor_class = next(
        node for node in _classes(MODULES["tensor_core"]) if node.name == "CurvatureLikeTensor"
    )
    methods = {node.name for node in tensor_class.body if isinstance(node, ast.FunctionDef)}
    assert "_adopt" not in methods


def _callers(name: str) -> set[str]:
    return _owners(lambda node: isinstance(node, ast.Call) and _name(node.func) == name)


def test_each_eigen_route_has_one_owner():
    """The verdicts read only S_T's top eigenvalue, from one ``eigvalsh``
    route that ``evaluate`` and ``max_ricci`` share.  An eigenvector of S_T
    comes from ``eigh`` only where a direction is printed or certified:
    ``top_eigenvector`` (``check_evaluated`` and ``max_ricci``) and
    ``equality_directions``.  ``_classify``'s one ``eigh`` diagonalizes the
    trace-weighted slot form sum_r u_r zeta_r of a surface, never S_T."""
    assert _callers("eigvalsh") == {"optim_lemmas.top_eigenvalues"}
    assert _callers("top_eigenvalues") == {"gauss_bounds.evaluate", "optim_lemmas.max_ricci"}
    assert _callers("eigh") == {
        "optim_lemmas.top_eigenvector",
        "gauss_bounds.equality_directions",
        "gauss_bounds._classify",
    }
    assert _callers("top_eigenvector") == {
        "gauss_bounds.check_evaluated",
        "optim_lemmas.max_ricci",
    }
    classify = next(
        node
        for node in MODULES["gauss_bounds"].body
        if isinstance(node, ast.FunctionDef) and node.name == "_classify"
    )
    frame_forms = {
        ast.unparse(node.args[0])
        for node in ast.walk(classify)
        if isinstance(node, ast.Call) and _name(node.func) == "eigh"
    }
    assert frame_forms == {"np.einsum('rij,r->ij', comps, u)"}


def _bare_tolerance(node) -> bool:
    """A comparison one of whose sides is ``tol``, ``-tol`` or a ``*_TOL``
    constant, with no size of the data it judges."""
    if not isinstance(node, ast.Compare):
        return False
    for side in (node.left, *node.comparators):
        side = side.operand if isinstance(side, ast.UnaryOp) else side
        name = _name(side) or ""
        if name == "tol" or name.endswith("_TOL"):
            return True
    return False


def test_rules_on_zeta_scale_their_tolerance():
    """Every rule on zeta compares with its tolerance times a size of zeta
    (||zeta||, ||zeta||^2, max |zeta|, or ||zeta||^2 + |offset| for the
    ambient margin), so no verdict changes under zeta -> 2^k zeta."""
    scoped = {"reporting._verdicts", "tensor_core.checked_components"}
    owners = _owners(_bare_tolerance)
    assert {o for o in owners if o.startswith("gauss_bounds.") or o in scoped} == set()


def test_equality_rule_has_one_owner():
    """``corollary_evaluated`` owns the pointwise equality rule, the root of
    the general gap's sum of squares at X within tol * ||zeta||: the
    umbilical tag and ``equality_directions`` read it, and neither builds a
    rotated form, reads max |zeta| or takes a spectral norm."""
    assert _callers("corollary_evaluated") == {
        "gauss_bounds.corollary_triple",
        "gauss_bounds.equality_directions",
        "gauss_bounds._classify",
        "reporting._corollary_block",
    }
    readers = {"gauss_bounds._classify", "gauss_bounds.equality_directions"}
    for name in ("rotate_frame", "BundleValuedForm", "max_abs", "svd"):
        assert _callers(name) & readers == set()
    spectral = _owners(
        lambda node: isinstance(node, ast.Call)
        and _name(node.func) == "norm"
        and (len(node.args) > 1 or any(keyword.arg == "ord" for keyword in node.keywords))
    )
    assert spectral & readers == set()
