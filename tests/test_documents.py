import json
from fractions import Fraction
from pathlib import Path

import pytest

from homlie.documents import ParseError, _rational_text, parse, serialize

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

F = Fraction


def load(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def test_parse_ab1():
    doc = parse(load("ab1.json"))
    assert doc.dimension == 1
    assert len(doc.brackets) == 1
    assert doc.brackets[0].is_zero()
    assert doc.basis_names == ("e1",)


def test_parse_g4a_bracket_table():
    doc = parse(load("g4a.json"))
    assert doc.dimension == 4
    bracket = doc.brackets[0]
    assert bracket.col(0) == (F(1), F(1), F(0), F(0))
    for k in range(1, bracket.cols):
        assert all(x == 0 for x in bracket.col(k))
    assert doc.operator_named("N").kind == "nijenhuis"


def test_parse_rejects_bad_pair_order():
    text = load("d2.json").replace('"i": 0, "j": 1', '"i": 1, "j": 0')
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "i < j" in str(err.value)


def test_parse_rejects_unknown_fields():
    raw = json.loads(load("ab1.json"))
    raw["surprise"] = 1
    with pytest.raises(ParseError) as err:
        parse(json.dumps(raw))
    assert "unknown fields" in str(err.value)


def test_parse_rejects_out_of_range_index():
    raw = json.loads(load("d2.json"))
    raw["brackets"][0][0]["j"] = 9
    with pytest.raises(ParseError) as err:
        parse(json.dumps(raw))
    assert "out of range" in str(err.value)


def test_parse_rejects_float_like_rationals():
    raw = json.loads(load("ab1.json"))
    raw["alpha"][0][0] = "1.5"
    with pytest.raises(ParseError):
        parse(json.dumps(raw))
    raw["alpha"][0][0] = 1.5
    with pytest.raises(ParseError):
        parse(json.dumps(raw))


def test_parse_rejects_zero_denominator():
    raw = json.loads(load("ab1.json"))
    raw["alpha"][0][0] = "1/0"
    with pytest.raises(ParseError):
        parse(json.dumps(raw))


def test_parse_rejects_duplicate_pairs():
    raw = json.loads(load("d2.json"))
    raw["brackets"][0].append({"i": 0, "j": 1, "coefficients": ["0", "0"]})
    with pytest.raises(ParseError) as err:
        parse(json.dumps(raw))
    assert "duplicate" in str(err.value)


def test_parse_rejects_extension_without_representation():
    raw = json.loads(load("d2.json"))
    raw["extension"] = {"cocycle1": [], "cocycle2": []}
    with pytest.raises(ParseError):
        parse(json.dumps(raw))


def test_parse_error_carries_path():
    raw = json.loads(load("d2.json"))
    raw["alpha"][1][0] = "x"
    with pytest.raises(ParseError) as err:
        parse(json.dumps(raw))
    assert err.value.path == "$.alpha[1][0]"


def _set(field, value):
    return lambda raw: raw.__setitem__(field, value)


# A field of the wrong shape is refused at its path, before anything is built.
MALFORMED = {
    "negative dimension": (_set("dimension", -1), "$.dimension",
                           "expected an integer >= 0, got -1"),
    "twist not a list": (_set("alpha", "1"), "$.alpha", "expected a list, got str"),
    "twist row count": (lambda raw: raw["alpha"].pop(), "$.alpha", "expected 2 entries, got 1"),
    "module not an object": (_set("representation", []), "$.representation",
                             "expected an object, got list"),
    "twist missing": (lambda raw: raw.pop("alpha"), "$", "missing fields: ['alpha']"),
    "no bracket table": (_set("brackets", []), "$.brackets",
                         "expected 1 or 2 bracket tables, got 0"),
    "empty basis name": (lambda raw: raw["basis_names"].__setitem__(0, ""), "$.basis_names[0]",
                         "expected a nonempty string"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_a_malformed_field_is_refused_at_its_path(name):
    change, path, message = MALFORMED[name]
    raw = json.loads(load("d2_ext.json"))
    change(raw)
    with pytest.raises(ParseError) as err:
        parse(json.dumps(raw))
    assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")


def test_rationals_parse_exactly():
    raw = json.loads(load("ab1.json"))
    raw["alpha"][0][0] = "-2/6"
    doc = parse(json.dumps(raw))
    assert doc.alpha.entry(0, 0) == F(-1, 3)


def test_round_trip_all_fixture_files():
    for path in sorted(FIXTURES.glob("*.json")):
        doc = parse(path.read_text(encoding="utf-8"))
        again = parse(serialize(doc))
        assert again == doc, path.name
        # serialization is canonical: a second pass is byte-identical
        assert serialize(again) == serialize(doc)


def test_parse_rejects_nesting_too_deep_to_decode():
    # The JSON decoder recurses once per nested array; running out of
    # recursion is a parse error at the root, not a RecursionError.
    with pytest.raises(ParseError) as err:
        parse("[" * 100_000)
    assert err.value.path == "$"


# Strings the parser accepts: each is read to the stored form of Fraction(s),
# the int when it is integral.  "\d" takes non-ASCII digits, as int() does,
# and a final newline is allowed by "$", as int() and Fraction() allow it.
ACCEPTED = ("0", "-0", "007", "6/4", "-6/3", "0/5", "1/10", "9" * 300, "5\n", "-3/4\n",
            "٣", "-١٢")

# Values the parser refuses.  Each is refused at its field path with the
# message that parsing through Fraction(s) gave.
REFUSED = (1.5, "1.5", "+1", "1/0", "1/-2", "1/02", True, None)


def _placed(value):
    """The g2a document with value as alpha[1][0], as the second coefficient
    of the bracket pair (0, 1) and as the weight of operator R."""
    raw = json.loads(load("g2a.json"))
    raw["alpha"][1][0] = value
    raw["brackets"][0][0]["coefficients"][1] = value
    raw["operators"][0]["weight"] = value
    return raw


def _stored(x: Fraction):
    return x.numerator if x.denominator == 1 else x


def test_rational_strings_are_read_to_the_stored_form():
    for text in ACCEPTED:
        doc = parse(json.dumps(_placed(text)))
        want = _stored(Fraction(text))
        alpha = dict(doc.alpha.row_items(1)).get(0, 0)
        coefficient = dict(doc.brackets[0].row_items(1)).get(0, 0)
        for x in (alpha, coefficient):
            assert x == want and type(x) is type(want), repr(text)
        weight = doc.operator_named("R").weight
        assert weight == Fraction(text) and type(weight) is Fraction, repr(text)


def test_refused_rationals_name_their_field():
    for value in REFUSED:
        message = f"expected a rational string like '2' or '-1/3', got {value!r}"
        for field, path in (("alpha", "$.alpha[1][0]"),
                            ("brackets", "$.brackets[0][0].coefficients[1]"),
                            ("operators", "$.operators[0].weight")):
            raw = json.loads(load("g2a.json"))
            raw[field] = _placed(value)[field]
            with pytest.raises(ParseError) as err:
                parse(json.dumps(raw))
            assert (err.value.path, str(err.value)) == (path, f"{path}: {message}"), value


def test_parse_rejects_duplicate_basis_names():
    raw = json.loads(load("h3.json"))
    raw["basis_names"] = ["e1", "e2", "e1"]
    with pytest.raises(ParseError) as err:
        parse(json.dumps(raw))
    assert err.value.path == "$.basis_names[2]"
    assert str(err.value) == "$.basis_names[2]: duplicate basis name 'e1'"


def test_a_document_without_basis_names_gets_e1_to_ed():
    raw = json.loads(load("h3.json"))
    del raw["basis_names"]
    doc = parse(json.dumps(raw))
    assert doc.basis_names == ("e1", "e2", "e3")
    assert doc == parse(load("h3.json"))  # which names its basis e1, e2, e3
    assert parse(serialize(doc)) == doc


def _operator(field, value):
    """The d2 document with its operator's field set to value, or removed
    for None, and a second operator when field is "twin"."""
    raw = json.loads(load("d2.json"))
    entry = raw["operators"][0]
    if field == "twin":
        raw["operators"].append(dict(entry, kind="rota_baxter", weight=value))
    elif value is None:
        del entry[field]
    else:
        entry[field] = value
    return raw


# Operator entries the parser refuses, with the field path and message.
OPERATOR_REFUSALS = {
    "empty name": (("name", ""), "$.operators[0].name", "expected a nonempty string"),
    "unnamed": (("name", 7), "$.operators[0].name", "expected a nonempty string"),
    "duplicate name": (("twin", "1"), "$.operators[1].name", "duplicate operator name 'N'"),
    "unknown kind": (("kind", "lie"), "$.operators[0].kind",
                     "expected 'nijenhuis' or 'rota_baxter', got 'lie'"),
    "extra weight": (("weight", "1"), "$.operators[0]", "nijenhuis operators take no weight"),
    "missing weight": (("kind", "rota_baxter"), "$.operators[0]",
                       "rota_baxter operators need a weight"),
}


@pytest.mark.parametrize("name", sorted(OPERATOR_REFUSALS))
def test_parse_refuses_a_bad_operator_entry(name):
    change, path, message = OPERATOR_REFUSALS[name]
    with pytest.raises(ParseError) as err:
        parse(json.dumps(_operator(*change)))
    assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")


def read_decimal(text: str) -> int:
    """The int of a decimal text of any length, read 500 digits at a time,
    so no conversion meets the interpreter's digit limit."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for k in range(0, len(digits), 500):
        chunk = digits[k : k + 500]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def test_rational_text_writes_rationals_of_any_length():
    """Within the digit limit the text is `str` of the Fraction; beyond it
    the text reads back to the same numerator and denominator."""
    small = [Fraction(0), Fraction(-7, 3), Fraction(10**999), Fraction(-(10**1000)),
             Fraction(10**1000 - 1, 10**1000 + 7), Fraction(3 * 10**4000 + 1)]
    for x in small:
        assert _rational_text(x) == str(x)
        assert _rational_text(x.numerator) == str(x.numerator)
    for n, d in [(10**5998 - 10**2999, 1), (-(7 * 10**9000 + 5), 1),
                 (3, 10**4500 + 11), (-(10**4400 + 1), 10**4301 - 3)]:
        x = Fraction(n, d)
        text = _rational_text(x)
        num, _, den = text.partition("/")
        assert (read_decimal(num), read_decimal(den) if den else 1) == (x.numerator, x.denominator)
        assert not num.lstrip("-").startswith("0")
    assert _rational_text(Fraction(10**5998 - 10**2999)) == "9" * 2999 + "0" * 2999
