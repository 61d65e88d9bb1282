"""Command line front end.

Exit codes: 0 when every check passed (or the computation succeeded),
1 when the run was valid but checks failed, 2 for usage or parse errors,
3 when an internal self-check failed (a ContractError: a library bug).
Machine-format reports are canonical JSON, byte-stable across runs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

from .algebra import (
    NIJENHUIS,
    ROTA_BAXTER,
    adjoint_representation,
    verify_operator,
    verify_structure,
)
from .cochains import is_mc_pair
from .cohomology import cohomology_dimensions, derivation_space
from .deformations import OrderPDeformation, is_extensible, obstruction, verify_order_p
from .documents import AlgebraDocument, ParseError, _rational_text, _table_json, parse
from .errors import ContractError, PreconditionError, UsageError
from .extensions import ExtensionCocycle, build_extension, ext_class

REPORT_VERSION = "1"


def _witness_json(witness):
    indices, defect = witness
    return {"indices": list(indices), "defect": [_rational_text(x) for x in defect]}


def _checks_json(report):
    return [
        {
            "check": c.name,
            "passed": c.passed,
            "witnesses": [_witness_json(w) for w in c.witnesses],
        }
        for c in report.checks
    ]


def _precondition_json(exc: PreconditionError):
    out = {"error": str(exc)}
    if exc.report is not None:
        out["checks"] = _checks_json(exc.report)
    return out


def _need_compatible(doc: AlgebraDocument):
    algebra = doc.algebra()
    if len(doc.brackets) != 2:
        raise UsageError("this command needs a document with two brackets")
    return algebra


def _representation(doc: AlgebraDocument, algebra):
    rep = doc.representation_object(algebra)
    if rep is None:
        rep = adjoint_representation(algebra)
    return rep


def _cmd_verify(doc: AlgebraDocument, args):
    algebra = doc.algebra()
    results = {"algebra": _checks_json(verify_structure(algebra))}
    passed = all(c["passed"] for c in results["algebra"])
    rep = doc.representation_object(algebra)
    if rep is not None:
        results["representation"] = _checks_json(verify_structure(rep))
        passed = passed and all(c["passed"] for c in results["representation"])
    results["passed"] = passed
    return (0 if passed else 1), results


def _cmd_cohomology(doc: AlgebraDocument, args):
    algebra = doc.algebra()
    rep = _representation(doc, algebra)
    report = cohomology_dimensions(algebra, rep, args.degree)
    return 0, {
        "degree": report.degree,
        "flavor": report.flavor,
        "dim_cochains": report.dim_cochains,
        "dim_cocycles": report.dim_cocycles,
        "dim_coboundaries": report.dim_coboundaries,
        "dim_cohomology": report.dim_cohomology,
    }


def _cmd_derivations(doc: AlgebraDocument, args):
    algebra = _need_compatible(doc)
    rep = _representation(doc, algebra)
    report = derivation_space(algebra, rep)
    return 0, {
        "dim_derivations": len(report.derivations),
        "dim_inner": len(report.inner),
        "dim_outer": report.outer_dim,
    }


def _cmd_operator(doc: AlgebraDocument, args, kind: str):
    algebra = doc.algebra()
    entry = doc.operator_named(args.operator)
    if entry.kind != kind:
        raise UsageError(f"operator {entry.name!r} has kind {entry.kind!r}, expected {kind!r}")
    report = verify_operator(algebra, entry.operator())
    results = {"operator": entry.name, "checks": _checks_json(report), "passed": report.passed}
    return (0 if report.passed else 1), results


def _cmd_mc_check(doc: AlgebraDocument, args):
    algebra = _need_compatible(doc)
    check = is_mc_pair(algebra.bracket_cochain(1), algebra.bracket_cochain(2), algebra.alpha)
    results = {
        "square1_zero": check.residual1.is_zero(),
        "square2_zero": check.residual2.is_zero(),
        "mixed_zero": check.residual_mixed.is_zero(),
        "is_mc": check.is_mc,
    }
    return (0 if check.is_mc else 1), results


def _deformation(doc: AlgebraDocument, algebra) -> OrderPDeformation:
    if doc.deformation is None:
        raise UsageError("this command needs a deformation block")
    order, coeffs1, coeffs2 = doc.deformation
    return OrderPDeformation(
        algebra,
        (algebra.bracket_cochain(1),) + coeffs1,
        (algebra.bracket_cochain(2),) + coeffs2,
    )


def _cmd_deform_verify(doc: AlgebraDocument, args):
    algebra = _need_compatible(doc)
    report = verify_order_p(_deformation(doc, algebra))
    orders = [
        {"order": n, "passed": all(r.is_zero() for r in triple)}
        for n, triple in enumerate(report.residuals)
    ]
    return (0 if report.passed else 1), {"orders": orders, "passed": report.passed}


def _cmd_deform_obstruct(doc: AlgebraDocument, args):
    algebra = _need_compatible(doc)
    deformation = _deformation(doc, algebra)
    ob = obstruction(deformation)
    pair = is_extensible(deformation)
    results = {
        "order": deformation.order,
        "obstruction_is_zero": ob.cochain.is_zero(),
        "extensible": pair is not None,
    }
    if pair is not None:
        results["extension_coefficients"] = {
            "coeffs1": _table_json(pair[0].coeffs, algebra.dim),
            "coeffs2": _table_json(pair[1].coeffs, algebra.dim),
        }
    return (0 if pair is not None else 1), results


def _extension_input(doc: AlgebraDocument):
    algebra = _need_compatible(doc)
    rep = doc.representation_object(algebra)
    if rep is None or doc.extension is None:
        raise UsageError("this command needs representation and extension blocks")
    return algebra, rep, ExtensionCocycle(*doc.extension)


def _cmd_extension_build(doc: AlgebraDocument, args):
    algebra, rep, cocycle = _extension_input(doc)
    extension = build_extension(algebra, rep, cocycle)
    return 0, {
        "total_dimension": extension.total.dim,
        "verified": True,
    }


def _cmd_extension_classify(doc: AlgebraDocument, args):
    algebra, rep, cocycle = _extension_input(doc)
    coords = ext_class(build_extension(algebra, rep, cocycle))
    return 0, {
        "class_coordinates": [_rational_text(x) for x in coords],
        "class_is_zero": all(x == 0 for x in coords),
        "dim_cohomology": len(coords),  # one coordinate per class basis element
    }


# The one command table: the subparsers are built from it, in this order.
_HANDLERS = {
    "verify": _cmd_verify,
    "cohomology": _cmd_cohomology,
    "derivations": _cmd_derivations,
    "nijenhuis": lambda doc, args: _cmd_operator(doc, args, NIJENHUIS),
    "rota-baxter": lambda doc, args: _cmd_operator(doc, args, ROTA_BAXTER),
    "deform-verify": _cmd_deform_verify,
    "deform-obstruct": _cmd_deform_obstruct,
    "extension-build": _cmd_extension_build,
    "extension-classify": _cmd_extension_classify,
    "mc-check": _cmd_mc_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homlie",
        description="Exact verification, cohomology and deformation theory "
        "for (compatible) Hom-Lie algebras given by structure constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        sp = sub.add_parser(name)
        sp.add_argument("document", help="path to a JSON algebra document")
        sp.add_argument("--format", choices=("human", "machine"), default="human")
        if name == "cohomology":
            sp.add_argument("--degree", type=int, required=True)
        if name in ("nijenhuis", "rota-baxter"):
            sp.add_argument("--operator", required=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: parsing leaves it unchanged."""
    return build_parser()


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def run(argv):
    """Execute a command line; returns (exit_code, report dict or None)."""
    return _run(argv)[:2]


def _run(argv):
    """`run`, followed by the parsed arguments (None when argparse exits)."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), None, None
    report = {
        "schema_version": REPORT_VERSION,
        "command": args.command,
        "inputs_digest": "",
        "results": {},
        "exit_status": 2,
    }
    try:
        with open(args.document, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        report["results"] = {"error": f"cannot read document: {exc}"}
        return 2, report, args
    report["inputs_digest"] = _digest(data)
    try:
        doc = parse(data.decode("utf-8"))
        status, results = _HANDLERS[args.command](doc, args)
    except PreconditionError as exc:
        status, results = 1, _precondition_json(exc)
    except ContractError as exc:
        status, results = 3, {"error": str(exc)}
    except (ParseError, UsageError, UnicodeDecodeError) as exc:
        report["results"] = {"error": str(exc)}
        return 2, report, args
    report["results"] = results
    report["exit_status"] = status
    return status, report, args


def _human_lines(report: dict):
    yield f"command: {report['command']}"
    yield f"input: {report['inputs_digest']}"
    yield from _render_value(report["results"])
    yield f"exit: {report['exit_status']}"


def _render_value(value, prefix: str = ""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _render_value(item, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            yield f"{prefix}: [{', '.join(str(x) for x in value)}]"
        else:
            for k, item in enumerate(value):
                yield from _render_value(item, f"{prefix}[{k}]")
    else:
        yield f"{prefix}: {value}"


def main(argv=None) -> int:
    status, report, args = _run(sys.argv[1:] if argv is None else argv)
    if report is not None:
        if args.format == "machine":
            sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        else:
            for line in _human_lines(report):
                sys.stdout.write(line + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
