import dataclasses
import json
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from homlie import cli, cohomology
from homlie.cli import main, run
from homlie.documents import parse, serialize

from helpers import basis_vector, dense, naive_apply

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

GOLDEN_CASES = {
    "verify_ab1": ["verify", "fixtures/ab1.json"],
    "verify_g4a": ["verify", "fixtures/g4a.json"],
    "verify_h3": ["verify", "fixtures/h3.json"],
    "verify_d2": ["verify", "fixtures/d2.json"],
    "verify_d2_ext": ["verify", "fixtures/d2_ext.json"],
    "verify_g2a": ["verify", "fixtures/g2a.json"],
    "verify_h3_rational": ["verify", "fixtures/h3_rational.json"],
    "cohomology_d2_degree0": ["cohomology", "fixtures/d2.json", "--degree", "0"],
    "cohomology_d2_degree2": ["cohomology", "fixtures/d2.json", "--degree", "2"],
    "cohomology_h3_degree1": ["cohomology", "fixtures/h3.json", "--degree", "1"],
    "cohomology_d2_ext_degree2": ["cohomology", "fixtures/d2_ext.json", "--degree", "2"],
    "cohomology_h3_deform_degree2": ["cohomology", "fixtures/h3_deform.json", "--degree", "2"],
    "cohomology_h3_rational_degree2": ["cohomology", "fixtures/h3_rational.json", "--degree", "2"],
    "derivations_d2": ["derivations", "fixtures/d2.json"],
    "derivations_h3_deform": ["derivations", "fixtures/h3_deform.json"],
    "derivations_h3_rational": ["derivations", "fixtures/h3_rational.json"],
    "nijenhuis_g4a_N": ["nijenhuis", "fixtures/g4a.json", "--operator", "N"],
    "nijenhuis_d2_N": ["nijenhuis", "fixtures/d2.json", "--operator", "N"],
    "rota_baxter_g2a_R": ["rota-baxter", "fixtures/g2a.json", "--operator", "R"],
    "rota_baxter_g2a_S": ["rota-baxter", "fixtures/g2a.json", "--operator", "S"],
    "mc_check_d2": ["mc-check", "fixtures/d2.json"],
    "deform_verify_d2": ["deform-verify", "fixtures/d2_deform.json"],
    "deform_obstruct_d2": ["deform-obstruct", "fixtures/d2_deform.json"],
    "deform_verify_h3": ["deform-verify", "fixtures/h3_deform.json"],
    "deform_obstruct_h3": ["deform-obstruct", "fixtures/h3_deform.json"],
    "extension_build_d2": ["extension-build", "fixtures/d2_ext.json"],
    "extension_classify_d2": ["extension-classify", "fixtures/d2_ext.json"],
}


def machine_bytes(argv):
    status, report = run(argv + ["--format", "machine"])
    return status, json.dumps(report, indent=2, sort_keys=True) + "\n"


def absolutize(argv):
    return [str(ROOT / a) if a.startswith("fixtures/") else a for a in argv]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(name):
    argv = absolutize(GOLDEN_CASES[name])
    status, text = machine_bytes(argv)
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert text == expected
    assert status == json.loads(expected)["exit_status"]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_machine_output_is_byte_stable(name):
    argv = absolutize(GOLDEN_CASES[name])
    _, first = machine_bytes(argv)
    _, second = machine_bytes(argv)
    assert first == second


def test_exit_code_contract_on_fixture_corpus():
    expectations = [
        (["verify", "fixtures/ab1.json"], 0),
        (["verify", "fixtures/g4a.json"], 1),
        (["verify", "fixtures/g2a.json"], 1),
        (["verify", "fixtures/d2.json"], 0),
        (["cohomology", "fixtures/d2.json", "--degree", "0"], 0),
        (["rota-baxter", "fixtures/g2a.json", "--operator", "R"], 0),
        (["nijenhuis", "fixtures/g4a.json", "--operator", "N"], 0),
        (["mc-check", "fixtures/d2.json"], 0),
        (["deform-verify", "fixtures/d2_deform.json"], 0),
        (["deform-obstruct", "fixtures/d2_deform.json"], 0),
        (["extension-build", "fixtures/d2_ext.json"], 0),
        (["extension-classify", "fixtures/d2_ext.json"], 0),
        (["derivations", "fixtures/d2.json"], 0),
    ]
    for argv, expected in expectations:
        status, _ = run(absolutize(argv))
        assert status == expected, argv


def test_degree1_cohomology_where_d1_d0_does_not_vanish_exits_1(tmp_path):
    """A valid module whose twist moves the actions of its fixed vectors has
    no degree-1 cohomology: a precondition failure (exit 1), not a library
    fault (exit 3)."""
    from test_maurer_cartan_oracle import yau_sl2

    s = yau_sl2()
    doc = dataclasses.replace(parse((FIXTURES / "h3.json").read_text(encoding="utf-8")),
                              alpha=s.alpha, brackets=(s.bracket,))
    path = tmp_path / "yau_sl2.json"
    path.write_text(serialize(doc), encoding="utf-8")
    assert run(["verify", str(path)])[0] == 0
    status, report = run(["cohomology", str(path), "--degree", "1"])
    assert status == 1 and report["exit_status"] == 1
    assert "d1 . d0 is not zero" in report["results"]["error"]
    assert run(["cohomology", str(path), "--degree", "2"])[0] == 0


def test_cohomology_of_invalid_structure_exits_1():
    status, report = run(["cohomology", str(ROOT / "fixtures/g4a.json"), "--degree", "1"])
    assert status == 1
    assert "error" in report["results"]
    assert any(c["check"] == "multiplicativity" for c in report["results"]["checks"])


def test_usage_errors_exit_2():
    d2 = str(ROOT / "fixtures/d2.json")
    g2a = str(ROOT / "fixtures/g2a.json")
    cases = [
        ["verify", str(ROOT / "fixtures/no_such_file.json")],
        ["nijenhuis", d2, "--operator", "missing"],
        ["rota-baxter", d2, "--operator", "N"],  # wrong kind
        ["mc-check", g2a],  # single bracket
        ["deform-verify", d2],  # no deformation block
        ["extension-build", d2],  # no extension block
        ["derivations", g2a],  # single bracket
    ]
    for argv in cases:
        status, report = run(argv)
        assert status == 2, argv
        assert "error" in report["results"]


def test_bad_command_line_exit_2():
    status, report = run(["no-such-command", "x.json"])
    assert status == 2 and report is None
    status, report = run(["cohomology", str(ROOT / "fixtures/d2.json")])  # missing --degree
    assert status == 2


def test_negative_degree_exit_2():
    status, report = run(["cohomology", str(ROOT / "fixtures/d2.json"), "--degree", "-1"])
    assert status == 2
    assert "error" in report["results"]


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    status, report = run(["verify", str(bad)])
    assert status == 2
    assert "invalid JSON" in report["results"]["error"]


def test_duplicate_basis_names_exit_2(tmp_path):
    # Repeated names would make the report's labels ambiguous.
    raw = json.loads((FIXTURES / "h3.json").read_text(encoding="utf-8"))
    raw["basis_names"] = ["e1", "e1", "e1"]
    path = tmp_path / "names.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    status, report = run(["verify", str(path)])
    assert status == 2
    assert report["results"]["error"] == "$.basis_names[1]: duplicate basis name 'e1'"


def test_mc_check_reports_precondition_failure(tmp_path):
    # A two-bracket document whose brackets are not twist-equivariant: the
    # Maurer-Cartan test refuses with a diagnostic and exit status 1.
    raw = json.loads((FIXTURES / "g2a.json").read_text(encoding="utf-8"))
    del raw["operators"]
    raw["brackets"] = [raw["brackets"][0], raw["brackets"][0]]
    path = tmp_path / "g2a_pair.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    status, report = run(["mc-check", str(path)])
    assert status == 1
    assert "error" in report["results"]


def _two_copies_of_g2a(raw):
    # twist-non-equivariant brackets: multiplicativity fails in both
    del raw["operators"]
    raw["brackets"] = [raw["brackets"][0], raw["brackets"][0]]


def _flip_twist(raw):
    # diag(1, -1) makes the deformation coefficients non-equivariant
    raw["alpha"] = [["1", "0"], ["0", "-1"]]


def _swap_beta(raw):
    # beta no longer intertwines the actions: an invalid representation
    raw["representation"]["beta"] = [["0", "1"], ["1", "0"]]


def _scale_beta(raw):
    # the representation stays valid, the extension cocycle is not equivariant
    raw["representation"]["beta"] = [["2", "0"], ["0", "1"]]


# command, extra arguments, fixture, edit, expected error, report attached
PRECONDITION_CASES = {
    "cohomology": (["--degree", "1"], "g4a.json", None, "invalid algebra", True),
    "derivations": ([], "g2a.json", _two_copies_of_g2a, "invalid algebra", True),
    "mc-check": ([], "g2a.json", _two_copies_of_g2a, "cochain is not twist-equivariant", False),
    "deform-verify": ([], "d2_deform.json", _flip_twist,
                      "deformation coefficient is not twist-equivariant", False),
    "deform-obstruct": ([], "d2_deform.json", _flip_twist,
                        "deformation coefficient is not twist-equivariant", False),
    "extension-build": ([], "d2_ext.json", _swap_beta, "invalid representation", True),
    "extension-classify": ([], "d2_ext.json", _scale_beta,
                           "component is not twist-equivariant", False),
}


@pytest.mark.parametrize("command", sorted(PRECONDITION_CASES))
def test_precondition_failure_exits_1_with_report(tmp_path, command):
    extra, fixture, edit, error, attached = PRECONDITION_CASES[command]
    path = FIXTURES / fixture
    if edit is not None:
        raw = json.loads(path.read_text(encoding="utf-8"))
        edit(raw)
        path = tmp_path / fixture
        path.write_text(json.dumps(raw), encoding="utf-8")
    status, report = run([command, str(path), *extra])
    assert status == 1
    assert report["exit_status"] == 1
    assert report["results"]["error"] == error
    assert ("checks" in report["results"]) == attached
    if attached:
        assert not all(c["passed"] for c in report["results"]["checks"])


# Compatible h3 ([x, y] = z and twice that) with the order-1 pair w1(x, z) = x,
# w2 = 0, which is not a 2-cocycle.
NON_COCYCLE_DEFORMATION = {
    "schema_version": "1", "dimension": 3, "basis_names": ["x", "y", "z"],
    "alpha": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "brackets": [[{"i": 0, "j": 1, "coefficients": ["0", "0", "1"]}],
                 [{"i": 0, "j": 1, "coefficients": ["0", "0", "2"]}]],
    "deformation": {"order": 1, "coeffs1": [[{"i": 0, "j": 2, "coefficients": ["1", "0", "0"]}]],
                    "coeffs2": [[]]},
}


@pytest.mark.parametrize("command", ["deform-verify", "deform-obstruct"])
@pytest.mark.parametrize("which", [1, 2])
def test_a_failed_self_check_exits_3_with_a_report(tmp_path, capsys, monkeypatch, command, which):
    """A ContractError is a library bug, not a failed check: exit status 3 and
    the usual report, not a traceback.  The fault is a wrong sign in one
    coboundary map, which the truncated-bracket route catches."""
    path = tmp_path / "h3_deform.json"
    path.write_text(json.dumps(NON_COCYCLE_DEFORMATION), encoding="utf-8")
    assert run(["deform-verify", str(path)])[0] == 1  # the unpatched routes agree
    real = cohomology._coboundary_map

    def flipped(struct, v, bracket, n):
        matrix = real(struct, v, bracket, n)
        return -matrix if bracket == which else matrix

    # The command parses a new structure, whose adjoint module builds its
    # kept coboundary matrices through the patched builder.
    monkeypatch.setattr(cohomology, "_coboundary_map", flipped)
    assert main([command, str(path), "--format", "machine"]) == 3
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["exit_status"] == 3 and report["command"] == command
    assert report["results"] == {
        "error": "truncated-bracket route disagrees with the identity route"}
    assert err == ""


def test_witnesses_reevaluate_from_machine_report():
    status, report = run(["verify", str(ROOT / "fixtures/g4a.json")])
    assert status == 1
    checks = {c["check"]: c for c in report["results"]["algebra"]}
    witness = checks["multiplicativity"]["witnesses"][0]
    i, j = witness["indices"]
    doc = parse((FIXTURES / "g4a.json").read_text(encoding="utf-8"))
    alg = doc.algebra()
    lhs = naive_apply(dense(alg.alpha), alg.bracket_of(basis_vector(4, i), basis_vector(4, j)))
    rhs = alg.bracket_of(alg.alpha.col(i), alg.alpha.col(j))
    defect = tuple(str(a - b) for a, b in zip(lhs, rhs))
    assert list(defect) == witness["defect"]


def test_console_entry_point_machine_bytes():
    argv = ["verify", str(ROOT / "fixtures/g4a.json"), "--format", "machine"]
    result = subprocess.run(
        [sys.executable, "-m", "homlie.cli", *argv], capture_output=True, text=True,
        cwd=ROOT / "src",  # `-m` imports the package from the working directory
    )
    assert result.returncode == 1
    expected = (GOLDEN / "verify_g4a.json").read_text(encoding="utf-8")
    assert result.stdout == expected


def test_a_degree_far_above_the_dimension_exits_0_with_zero_groups():
    """Every group of d2 above its dimension is 0 and the complex lays out
    no empty blocks, so degree 10**12 answers at once.  The child process
    runs under a 1 GiB address-space cap and a time bound, so a layout
    that grows with the degree fails here instead of filling memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    argv = ["cohomology", str(ROOT / "fixtures/d2.json"), "--degree", str(10**12),
            "--format", "machine"]
    result = subprocess.run(
        [sys.executable, "-m", "homlie.cli", *argv], capture_output=True, text=True,
        cwd=ROOT / "src", timeout=60, preexec_fn=cap,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["results"] == {
        "degree": 10**12, "flavor": "compatible", "dim_cochains": 0, "dim_cocycles": 0,
        "dim_coboundaries": 0, "dim_cohomology": 0}


def test_a_deeply_nested_document_exits_2_with_a_report(tmp_path):
    """The JSON decoder recurses once per nested array, so 100 000 open
    brackets exhaust the interpreter's recursion limit.  That is a parse
    error at the document root (exit 2 with a machine report), not an
    escaped RecursionError."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "homlie.cli", "verify", str(path), "--format", "machine"],
        capture_output=True, text=True, timeout=60,
        cwd=ROOT / "src",  # `-m` imports the package from the working directory
    )
    assert (result.returncode, result.stderr) == (2, "")
    report = json.loads(result.stdout)
    assert report["exit_status"] == 2
    assert report["results"]["error"].startswith("$: invalid JSON")


def test_a_computed_rational_beyond_the_digit_limit_is_reported(tmp_path):
    """alpha = diag(10^2999, 1, 1) and [e1, e2] = 10^2999 e3 parse under the
    interpreter's 4300-digit limit, but the multiplicativity defect
    10^2999 - 10^5998 has 5998 digits.  The check fails (exit 1) with a
    machine report that writes the defect in full, not a traceback.  The
    child process keeps the default digit limit, and the expected text is
    built with no int-to-str conversion."""
    big = "1" + "0" * 2999
    doc = {"schema_version": "1", "dimension": 3, "basis_names": ["e1", "e2", "e3"],
           "alpha": [[big, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
           "brackets": [[{"i": 0, "j": 1, "coefficients": ["0", "0", big]}]]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "homlie.cli", "verify", str(path), "--format", "machine"],
        capture_output=True, text=True, timeout=60,
        cwd=ROOT / "src",  # `-m` imports the package from the working directory
    )
    assert (result.returncode, result.stderr) == (1, "")
    report = json.loads(result.stdout)
    assert report["exit_status"] == 1
    checks = {c["check"]: c for c in report["results"]["algebra"]}
    assert checks["multiplicativity"]["witnesses"] == [
        {"indices": [0, 1], "defect": ["0", "0", "-" + "9" * 2999 + "0" * 2999]}]


def test_human_format_mentions_checks():
    argv = ["verify", str(ROOT / "fixtures/g4a.json")]
    result = subprocess.run(
        [sys.executable, "-m", "homlie.cli", *argv], capture_output=True, text=True,
        cwd=ROOT / "src",  # `-m` imports the package from the working directory
    )
    assert result.returncode == 1
    assert "multiplicativity" in result.stdout
    assert "exit: 1" in result.stdout


def test_main_accepts_an_abbreviated_format_option(capsys):
    # argparse reads --form as --format, so the run asks for machine output.
    status = main(["verify", str(ROOT / "fixtures/ab1.json"), "--form", "machine"])
    expected = (GOLDEN / "verify_ab1.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
    assert status == json.loads(expected)["exit_status"]


def test_main_uses_the_last_format_option(capsys):
    argv = ["verify", str(ROOT / "fixtures/ab1.json"), "--format=machine", "--format", "human"]
    status = main(argv)
    out = capsys.readouterr().out
    assert out.startswith("command: verify\n")
    assert out.endswith(f"exit: {status}\n")


def test_repeated_runs_in_one_process_match_fresh_processes(capsys):
    # The parser is built once per process; no option of one run leaks into
    # the next, and each run prints what a fresh process prints.
    runs = [
        ["cohomology", "fixtures/d2.json", "--degree", "2", "--format", "machine"],
        ["verify", "fixtures/g4a.json"],
        ["cohomology", "fixtures/d2.json"],  # usage error: no --degree
        ["verify", "fixtures/ab1.json", "--format", "machine"],
    ]
    for argv in map(absolutize, runs):
        status = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "homlie.cli", *argv], capture_output=True, text=True,
            cwd=ROOT / "src",  # `-m` imports the package from the working directory
        )
        assert (status, captured.out, captured.err) == (fresh.returncode, fresh.stdout,
                                                        fresh.stderr), argv
    path = str(ROOT / "fixtures/ab1.json")
    _, _, args = cli._run(["verify", path])
    assert vars(args) == {"command": "verify", "document": path, "format": "human"}


DIMENSION_ZERO_CASES = {
    # (brackets, representation block or None, expected dim H^0)
    "plain_adjoint": ([[]], None, 0),
    "plain_module": ([[]], {"vdim": 2, "beta": [["1", "0"], ["0", "2"]], "actions": [[]]}, 1),
    "compatible_module": ([[], []], {"vdim": 2, "beta": [["1", "0"], ["0", "2"]],
                                     "actions": [[], []]}, 1),
}


@pytest.mark.parametrize("name", sorted(DIMENSION_ZERO_CASES))
def test_dimension_zero_document_passes(tmp_path, name):
    brackets, representation, h0 = DIMENSION_ZERO_CASES[name]
    raw = {"schema_version": "1", "dimension": 0, "basis_names": [], "alpha": [],
           "brackets": brackets}
    if representation is not None:
        raw["representation"] = representation
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    status, report = run(["verify", str(path)])
    assert status == 0 and report["results"]["passed"]
    checks = report["results"]["algebra"] + report["results"].get("representation", [])
    assert all(c["passed"] and c["witnesses"] == [] for c in checks)
    assert len(report["results"].get("representation", [])) == (
        0 if representation is None else 3 * len(brackets) - 1)
    status, report = run(["cohomology", str(path), "--degree", "0"])
    assert status == 0
    assert report["results"]["dim_cohomology"] == h0
