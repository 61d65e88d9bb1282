import json
from fractions import Fraction
from pathlib import Path

import pytest

from homlie.documents import ParseError, parse, serialize

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
