"""Source rules for the library modules.

Every bracket identity in `src/homlie` is checked as one matrix product, so
no module evaluates a bracket one pair at a time through `bracket_of`.
Minors are wedges of columns: compounds and the alternating extension in
`Cochain.evaluate` alike are `_compound`, so no module calls
`determinant_of`.  Both functions stay public for callers and tests, and
the naive oracles of the tests evaluate with neither `_compound` nor the
library's `evaluate` and `bracket_of`.  A deformation's truncated brackets
are products with one insertion matrix per coefficient, and the order-1
equivalence identity and the coboundary shift read the coboundary of N off
the kept differential, so `deformations` calls no `nr_bracket` and no
`is_mc_pair`; `infinitesimal_class` leaves the cocycle test to
`class_coordinates` and calls no `check_linear_generator`.  The representation identities and the coboundary are block
products over the action matrices of the basis, so no module forms the
action of one vector at a time (`Representation.action` is gone).  Only
`linalg` tells a zero entry from a nonzero one, so no other module imports
or names its shared `ZERO`.  A stored integral entry is a Python int, so
the identity shortcuts of products test for the int 1, and no module names
a shared Fraction `ONE`.  The coboundary, the pair blocks, the
equivariance constraints and the two-bracket layout
(of the differential and of its images) are sums of Kronecker products,
and each of their builders assembles its sum in one `kron_sum` call
rather than adding the terms one at a time; a single Kronecker product
(the twist of the coboundary and of the module identities, and the basis
in every slot) is a `kron_sum` of one term, so no module defines a
second kernel (`kron`).  The dense helpers that nothing in the library
called are gone: `span_basis`, `vec_is_zero` and `Matrix.apply`.  The two-bracket differential
is one kept matrix, so outside `cohomology` no module reads the
per-bracket coboundary matrices of a kept complex, and inside it the parts
of a kept complex are built by `_Complex.__missing__` alone: the bases,
the images and their elimination, the cocycles (`_kernel`) and the
coboundaries (`_row_space`), so a report eliminates no images matrix.
A report of `verify_structure` is kept on its object, so checking again is
free and every result that needs valid inputs asks `algebra.require_valid`,
the one place that turns a failing report into a PreconditionError.
Outside `algebra`, `verify_structure` is called only where a failing report
is not a precondition failure: `cli._cmd_verify` reports it, and the
induced module that `extensions.extract_cocycle` reads off an extension
(`AbelianExtension._induced`, kept on the extension) raises ContractError.
No module keeps a private route round the gate (`_cohomology_report`,
`_generator_report`, `_require_valid`).  Each call takes its inputs and
works out the rest: no public function has a `check` option that skips
the input checks, or a `flavor` that restates which complex the structure
fixes, and `deformations` keeps each deformation's K list on the object
instead of private twins fed a K list (`_insertions`, `_verify`,
`_obstruction`).
Each computation takes one route.  `is_mc_pair` reads its residuals off
the pair's two insertion matrices, with no `nr_bracket`; `solve` replays
the elimination record (`_elimination`, `_replay`) instead of eliminating
[m | b] with `rref`; `class_coordinates` reads the class record its report
carries with products alone, so it calls no `_elimination`, `solve`,
`_replay` or `hstack`; `bracket_of` evaluates the bracket cochain, so no
module keeps a pair-wedge twin (`_bracket_apply`); and `exterior_square`
takes its compound directly, not through `exterior_power_matrix`.
Every row reduction reads one elimination record, so the pivot loop
`_echelon` has one caller, `_elimination`, and neither it nor `_eliminate`
has a `steps` option.  No library module other than `__init__` imports a
name it never reads.
"""

import ast
import inspect
from pathlib import Path

import homlie
from homlie import linalg

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "homlie").glob("*.py"))


def calls(path: Path):
    """(enclosing definition, called name) for every call in a module, with
    the definition written as dotted class and function names."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                found.append((".".join(scope), name))
            visit(child, inner)

    visit(ast.parse(path.read_text()), ())
    return found


def names(path: Path):
    """Every identifier a module reads, imports or reaches as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
            found.add(node.name)
    return found


def test_the_call_scanner_sees_attribute_and_name_calls():
    helpers = calls(ROOT / "tests" / "helpers.py")
    assert ("naive_bracket", "bracket_cochain") in helpers
    assert ("naive_exterior_power", "naive_determinant") in helpers


def test_the_naive_oracles_evaluate_without_the_wedge_compound():
    helpers = calls(ROOT / "tests" / "helpers.py")
    assert ("naive_evaluate", "naive_determinant") in helpers
    offenders = [(scope, name) for scope, name in helpers
                 if name in ("_compound", "_wedges", "evaluate", "bracket_of")]
    assert offenders == []


def test_no_library_module_calls_bracket_of():
    offenders = [(path.name, scope) for path in MODULES
                 for scope, name in calls(path) if name == "bracket_of"]
    assert offenders == []


def test_no_library_module_calls_determinant_of():
    callers = [(path.name, scope) for path in MODULES
               for scope, name in calls(path) if name == "determinant_of"]
    assert callers == []
    assert "_compound" in called_in("cochains.py", "Cochain.evaluate")


def test_no_module_defines_the_removed_dense_helpers():
    removed = {"kron", "span_basis", "vec_is_zero", "apply"}  # apply: Matrix.apply
    defined = [(path.name, node.name) for path in MODULES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name in removed]
    assert defined == []


def test_deformations_take_brackets_through_the_insertion_matrices():
    found = calls(ROOT / "src" / "homlie" / "deformations.py")
    assert [scope for scope, name in found if name == "nr_bracket"] == []
    assert [scope for scope, name in found if name == "is_mc_pair"] == []
    assert "compatible_coboundary" in called_in("deformations.py", "check_linear_equivalence")


def test_infinitesimal_class_leaves_the_cocycle_test_to_class_coordinates():
    called = called_in("deformations.py", "infinitesimal_class")
    assert "class_coordinates" in called and "check_linear_generator" not in called


def test_no_library_module_calls_action():
    offenders = [(path.name, scope) for path in MODULES
                 for scope, name in calls(path) if name == "action"]
    assert offenders == []


def test_only_linalg_names_the_shared_zero():
    assert "ZERO" in names(ROOT / "src" / "homlie" / "linalg.py")
    assert "ZERO" in names(ROOT / "tests" / "test_matrix_storage.py")
    offenders = [path.name for path in MODULES
                 if path.name != "linalg.py" and "ZERO" in names(path)]
    assert offenders == []


def test_no_module_names_a_shared_one():
    offenders = [path.name for path in MODULES if "ONE" in names(path)]
    assert offenders == []


def test_the_kronecker_builders_call_kron_sum():
    builders = {("cohomology.py", "_coboundary_map"), ("cohomology.py", "_layout"),
                ("cohomology.py", "_in_slots"), ("algebra.py", "_pair_blocks"),
                ("algebra.py", "_representation_checks"),
                ("cochains.py", "equivariance_constraints")}
    callers = {(path.name, scope) for path in MODULES
               for scope, name in calls(path) if name == "kron_sum"}
    assert callers == builders


def kept_keys(path: Path):
    """The constant first part of every tuple subscript in a module, such
    as "coboundary" in kept["coboundary", b, n]."""
    return [node.slice.elts[0].value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
            and node.slice.elts and isinstance(node.slice.elts[0], ast.Constant)]


def test_only_cohomology_reads_the_per_bracket_coboundaries():
    assert "coboundary" in kept_keys(ROOT / "src" / "homlie" / "cohomology.py")
    assert "differential" in kept_keys(ROOT / "src" / "homlie" / "deformations.py")
    offenders = [path.name for path in MODULES
                 if path.name != "cohomology.py" and "coboundary" in kept_keys(path)]
    assert offenders == []


def test_the_kept_complex_builds_its_parts_alone():
    builders = {"_coboundary_map", "_equivariant_columns", "_layout", "_elimination",
                "insertion_matrix", "_kernel", "_row_space"}
    callers = {(scope, name) for scope, name in calls(ROOT / "src" / "homlie" / "cohomology.py")
               if name in builders}
    assert callers == {("_Complex.__missing__", name) for name in builders}


def test_require_valid_is_the_one_verify_or_raise_gate():
    callers = {(path.name, scope) for path in MODULES
               for scope, name in calls(path) if name == "verify_structure"}
    assert callers == {("algebra.py", "require_valid"), ("cli.py", "_cmd_verify"),
                       ("extensions.py", "AbelianExtension._induced")}
    bypasses = {"_cohomology_report", "_generator_report", "_require_valid"}
    defined = [(path.name, node.name) for path in MODULES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name in bypasses]
    assert defined == []


def test_no_public_function_takes_a_check_or_flavor_option():
    functions = [getattr(homlie, name) for name in homlie.__all__]
    functions = [f for f in functions if inspect.isfunction(f)]
    assert homlie.cohomology_dimensions in functions and homlie.ce_coboundary in functions
    offenders = [(f.__name__, p) for f in functions
                 for p in inspect.signature(f).parameters if p in ("check", "flavor")]
    assert offenders == []


def test_no_module_defines_a_k_list_twin():
    twins = {"_insertions", "_verify", "_obstruction"}
    defined = [(path.name, node.name) for path in MODULES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name in twins]
    assert defined == []


def called_in(module: str, scope: str) -> set:
    return {name for where, name in calls(ROOT / "src" / "homlie" / module) if where == scope}


def test_is_mc_pair_reads_the_insertion_matrices():
    called = called_in("cochains.py", "is_mc_pair")
    assert "insertion_matrix" in called and "nr_bracket" not in called


def test_solve_replays_the_elimination_record():
    called = called_in("linalg.py", "solve")
    assert {"_elimination", "_replay"} <= called and "rref" not in called


def test_class_coordinates_runs_no_elimination():
    called = called_in("cohomology.py", "class_coordinates")
    assert "_flat" in called
    assert called.isdisjoint({"_elimination", "solve", "_replay", "hstack"})


def test_the_pivot_loop_has_one_caller_and_no_steps_option():
    callers = {(path.name, scope) for path in MODULES
               for scope, name in calls(path) if name == "_echelon"}
    assert callers == {("linalg.py", "_elimination")}
    for function in (linalg._echelon, linalg._eliminate):
        defaults = [p.name for p in inspect.signature(function).parameters.values()
                    if p.default is not inspect.Parameter.empty]
        assert defaults == []


def unread_imports(source: str) -> set:
    """The names a module's imports bind that it never reads; `__future__`
    features are not names."""
    tree = ast.parse(source)
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             or isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names}
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_the_import_scanner_sees_unread_names():
    assert unread_imports("from __future__ import annotations\n"
                          "import os.path\nfrom .linalg import rref, rank as r\nr(os)") == {"rref"}


def test_no_library_module_imports_a_name_it_never_reads():
    unread = {path.name: unread_imports(path.read_text()) for path in MODULES
              if path.name != "__init__.py"}
    assert {name: found for name, found in unread.items() if found} == {}


def test_no_module_defines_a_bracket_apply_twin():
    defined = [(path.name, node.name) for path in MODULES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name == "_bracket_apply"]
    assert defined == []


def test_exterior_square_takes_the_compound_directly():
    called = called_in("cochains.py", "exterior_square")
    assert "_compound" in called and "exterior_power_matrix" not in called
