"""Strict JSON document format for algebras, operators, deformations, extensions.

Rationals travel as strings ("2", "-1/3") so that exactness survives the
wire; floats are rejected.  Unknown fields are rejected, indices are range
checked, and bracket tables only accept pairs with i < j.  Parse errors
carry the offending field path.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import comb

from .algebra import (
    CompatibleHomLieAlgebra,
    HomLieAlgebra,
    LinearOperator,
    NIJENHUIS,
    ROTA_BAXTER,
    Representation,
)
from .cochains import Cochain, increasing_tuples, tuple_position
from .errors import UsageError
from .linalg import Matrix

SCHEMA_VERSION = "1"

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


class ParseError(UsageError):
    """Malformed or invalid document; carries the field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _rational(value, path: str, *index):
    """The rational string "p" or "p/q" as int(p) or Fraction(p, q); a
    `Matrix` stores an integral Fraction as its int.  The field path is
    `path` followed by [i] for each index, built only for a refused value."""
    match = _RATIONAL_RE.match(value) if isinstance(value, str) else None
    if match is None:
        path += "".join(f"[{i}]" for i in index)
        raise ParseError(path, f"expected a rational string like '2' or '-1/3', got {value!r}")
    p, q = match.groups()
    return int(p) if q is None else Fraction(int(p), int(q))


def _count(value, path: str, minimum: int = 0) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ParseError(path, f"expected an integer >= {minimum}, got {value!r}")
    return value


def _listof(value, path: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        raise ParseError(path, f"expected a list, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise ParseError(path, f"expected {length} entries, got {len(value)}")
    return value


def _object(value, path: str, required, optional=()) -> dict:
    if not isinstance(value, dict):
        raise ParseError(path, f"expected an object, got {type(value).__name__}")
    unknown = set(value) - set(required) - set(optional)
    if unknown:
        raise ParseError(path, f"unknown fields: {sorted(unknown)}")
    missing = set(required) - set(value)
    if missing:
        raise ParseError(path, f"missing fields: {sorted(missing)}")
    return value


def _matrix(value, path: str, rows: int, cols: int) -> Matrix:
    value = _listof(value, path, rows)
    entries = {}
    for r, row in enumerate(value):
        row = _listof(row, f"{path}[{r}]", cols)
        for c, x in enumerate(row):
            x = _rational(x, path, r, c)
            if x:
                entries[r, c] = x
    return Matrix.from_entries(rows, cols, entries)


def _cochain_table(value, path: str, dim: int, target_dim: int) -> Cochain:
    """A sparse arity-2 table [{i, j, coefficients}] with i < j."""
    value = _listof(value, path)
    entries = {}
    seen = set()
    pos = tuple_position(dim, 2)
    for k, entry in enumerate(value):
        epath = f"{path}[{k}]"
        entry = _object(entry, epath, ("i", "j", "coefficients"))
        i = _count(entry["i"], f"{epath}.i")
        j = _count(entry["j"], f"{epath}.j")
        if not i < j:
            raise ParseError(epath, f"requires i < j, got i={i}, j={j}")
        if j >= dim:
            raise ParseError(epath, f"index {j} out of range for dimension {dim}")
        if (i, j) in seen:
            raise ParseError(epath, f"duplicate pair ({i}, {j})")
        seen.add((i, j))
        cpath = f"{epath}.coefficients"
        coeffs = _listof(entry["coefficients"], cpath, target_dim)
        column = pos[(i, j)]
        for c, x in enumerate(coeffs):
            x = _rational(x, cpath, c)
            if x:
                entries[c, column] = x
    return Cochain(2, dim, target_dim, Matrix.from_entries(target_dim, comb(dim, 2), entries))


@dataclass(frozen=True)
class OperatorEntry:
    name: str
    kind: str
    weight: Fraction | None
    matrix: Matrix

    def operator(self) -> LinearOperator:
        return LinearOperator(self.matrix, self.kind, self.weight)


@dataclass(frozen=True)
class AlgebraDocument:
    schema_version: str
    dimension: int
    basis_names: tuple
    alpha: Matrix
    brackets: tuple  # 1 or 2 bracket matrices (dim x C(dim,2))
    representation: tuple | None  # (vdim, beta, action tables)
    operators: tuple  # OperatorEntry entries
    deformation: tuple | None  # (order, coeffs1 cochains t^1..t^p, coeffs2)
    extension: tuple | None  # (f1, f2) cochains into the module

    def algebra(self):
        if len(self.brackets) == 1:
            return HomLieAlgebra(self.dimension, self.alpha, self.brackets[0])
        return CompatibleHomLieAlgebra(self.dimension, self.alpha, self.brackets[0], self.brackets[1])

    def representation_object(self, base) -> Representation | None:
        if self.representation is None:
            return None
        vdim, beta, tables = self.representation
        return Representation(base, vdim, beta, tables)

    def operator_named(self, name: str) -> OperatorEntry:
        for op in self.operators:
            if op.name == name:
                return op
        raise UsageError(f"no operator named {name!r} in the document")


def parse(text: str) -> AlgebraDocument:
    """Parse and strictly validate a document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", f"invalid JSON: {exc}") from None
    except RecursionError:  # the decoder recurses once per nested array or object
        raise ParseError("$", "invalid JSON: nested too deeply to decode") from None
    raw = _object(
        raw,
        "$",
        ("schema_version", "dimension", "alpha", "brackets"),
        ("basis_names", "representation", "operators", "deformation", "extension"),
    )
    version = raw["schema_version"]
    if version != SCHEMA_VERSION:
        raise ParseError("$.schema_version", f"unsupported version {version!r}")
    dim = _count(raw["dimension"], "$.dimension")
    if "basis_names" in raw:
        names = _listof(raw["basis_names"], "$.basis_names", dim)
        seen = set()
        for k, n in enumerate(names):
            if not isinstance(n, str) or not n:
                raise ParseError(f"$.basis_names[{k}]", "expected a nonempty string")
            if n in seen:
                raise ParseError(f"$.basis_names[{k}]", f"duplicate basis name {n!r}")
            seen.add(n)
        names = tuple(names)
    else:
        names = tuple(f"e{k + 1}" for k in range(dim))
    alpha = _matrix(raw["alpha"], "$.alpha", dim, dim)
    tables = _listof(raw["brackets"], "$.brackets")
    if len(tables) not in (1, 2):
        raise ParseError("$.brackets", f"expected 1 or 2 bracket tables, got {len(tables)}")
    brackets = tuple(
        _cochain_table(t, f"$.brackets[{k}]", dim, dim).coeffs for k, t in enumerate(tables)
    )

    representation = None
    if "representation" in raw:
        rpath = "$.representation"
        robj = _object(raw["representation"], rpath, ("vdim", "beta", "actions"))
        vdim = _count(robj["vdim"], f"{rpath}.vdim")
        beta = _matrix(robj["beta"], f"{rpath}.beta", vdim, vdim)
        action_tables = _listof(robj["actions"], f"{rpath}.actions", len(brackets))
        parsed_tables = []
        for b, table in enumerate(action_tables):
            table = _listof(table, f"{rpath}.actions[{b}]", dim)
            parsed_tables.append(
                tuple(
                    _matrix(mat, f"{rpath}.actions[{b}][{i}]", vdim, vdim)
                    for i, mat in enumerate(table)
                )
            )
        representation = (vdim, beta, tuple(parsed_tables))

    operators = []
    if "operators" in raw:
        entries = _listof(raw["operators"], "$.operators")
        seen = set()
        for k, entry in enumerate(entries):
            opath = f"$.operators[{k}]"
            entry = _object(entry, opath, ("name", "kind", "matrix"), ("weight",))
            name = entry["name"]
            if not isinstance(name, str) or not name:
                raise ParseError(f"{opath}.name", "expected a nonempty string")
            if name in seen:
                raise ParseError(f"{opath}.name", f"duplicate operator name {name!r}")
            seen.add(name)
            kind = entry["kind"]
            if kind not in (NIJENHUIS, ROTA_BAXTER):
                raise ParseError(f"{opath}.kind", f"expected 'nijenhuis' or 'rota_baxter', got {kind!r}")
            weight = None
            if kind == ROTA_BAXTER:
                if "weight" not in entry:
                    raise ParseError(opath, "rota_baxter operators need a weight")
                weight = Fraction(_rational(entry["weight"], f"{opath}.weight"))
            elif "weight" in entry:
                raise ParseError(opath, "nijenhuis operators take no weight")
            matrix = _matrix(entry["matrix"], f"{opath}.matrix", dim, dim)
            operators.append(OperatorEntry(name, kind, weight, matrix))

    deformation = None
    if "deformation" in raw:
        dpath = "$.deformation"
        dobj = _object(raw["deformation"], dpath, ("order", "coeffs1", "coeffs2"))
        order = _count(dobj["order"], f"{dpath}.order", minimum=1)
        coeff_lists = []
        for key in ("coeffs1", "coeffs2"):
            entries = _listof(dobj[key], f"{dpath}.{key}", order)
            coeff_lists.append(
                tuple(
                    _cochain_table(t, f"{dpath}.{key}[{k}]", dim, dim)
                    for k, t in enumerate(entries)
                )
            )
        deformation = (order, coeff_lists[0], coeff_lists[1])

    extension = None
    if "extension" in raw:
        epath = "$.extension"
        eobj = _object(raw["extension"], epath, ("cocycle1", "cocycle2"))
        if representation is None:
            raise ParseError(epath, "extension blocks need a representation block")
        vdim = representation[0]
        extension = (
            _cochain_table(eobj["cocycle1"], f"{epath}.cocycle1", dim, vdim),
            _cochain_table(eobj["cocycle2"], f"{epath}.cocycle2", dim, vdim),
        )

    return AlgebraDocument(
        schema_version=version,
        dimension=dim,
        basis_names=names,
        alpha=alpha,
        brackets=brackets,
        representation=representation,
        operators=tuple(operators),
        deformation=deformation,
        extension=extension,
    )


def _integer_text(n: int) -> str:
    """The decimal text of an int of any length: `Decimal` writes it with
    no limit on the digits, and no interpreter setting is changed."""
    return str(Decimal(n))


def _rational_text(x) -> str:
    """The text "p" or "p/q" of an exact rational, as `str` writes a
    Fraction, for numerators and denominators of any length."""
    if x.denominator == 1:
        return _integer_text(x.numerator)
    return f"{_integer_text(x.numerator)}/{_integer_text(x.denominator)}"


def _matrix_json(m: Matrix):
    return [[_rational_text(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def _table_json(coeffs: Matrix, dim: int):
    columns = coeffs.transpose()
    return [{"i": i, "j": j, "coefficients": [_rational_text(x) for x in columns.row(k)]}
            for k, (i, j) in enumerate(increasing_tuples(dim, 2)) if columns.row_items(k)]


def document_json(doc: AlgebraDocument) -> dict:
    out = {
        "schema_version": doc.schema_version,
        "dimension": doc.dimension,
        "basis_names": list(doc.basis_names),
        "alpha": _matrix_json(doc.alpha),
        "brackets": [_table_json(b, doc.dimension) for b in doc.brackets],
    }
    if doc.representation is not None:
        vdim, beta, tables = doc.representation
        out["representation"] = {
            "vdim": vdim,
            "beta": _matrix_json(beta),
            "actions": [[_matrix_json(a) for a in table] for table in tables],
        }
    if doc.operators:
        ops = []
        for op in doc.operators:
            entry = {"name": op.name, "kind": op.kind, "matrix": _matrix_json(op.matrix)}
            if op.weight is not None:
                entry["weight"] = _rational_text(op.weight)
            ops.append(entry)
        out["operators"] = ops
    if doc.deformation is not None:
        order, coeffs1, coeffs2 = doc.deformation
        out["deformation"] = {
            "order": order,
            "coeffs1": [_table_json(c.coeffs, doc.dimension) for c in coeffs1],
            "coeffs2": [_table_json(c.coeffs, doc.dimension) for c in coeffs2],
        }
    if doc.extension is not None:
        f1, f2 = doc.extension
        out["extension"] = {
            "cocycle1": _table_json(f1.coeffs, doc.dimension),
            "cocycle2": _table_json(f2.coeffs, doc.dimension),
        }
    return out


def serialize(doc: AlgebraDocument) -> str:
    """Canonical text form; parse(serialize(doc)) reproduces doc exactly."""
    return json.dumps(document_json(doc), indent=2, sort_keys=True) + "\n"
