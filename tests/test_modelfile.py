from pathlib import Path

import pytest

from finkern.semiring import ExtNonneg
from finkern.spaces import Tagged
from finkern.modelfile import (
    ModelDocument, ModelError, emit, format_label, parse, parse_label,
)

MODELS = Path(__file__).resolve().parent.parent / "models"


def q(num, den=1):
    return ExtNonneg(num, den)


MINIMAL = """
space X { a b }
measure mu on X { a = 1/2  b = 1/2 }
"""


def test_minimal_round_trip():
    doc = parse(MINIMAL)
    assert parse(emit(doc)) == doc


def test_emit_is_canonical_fixed_point():
    doc = parse(MINIMAL)
    assert emit(parse(emit(doc))) == emit(doc)


def test_all_declaration_kinds_round_trip():
    text = """
    space X { a b }
    space P { (a,u) (b,u) }
    space T { L:a R:(a,u) }
    measure mu on X { a = 1/3 }
    effect w on X { b = inf }
    probability al on X { a = 1, b = 1/2 }
    kernel k : X -> P { a -> (a,u) = 2/3 }
    involution phi on X { a -> b  b -> a }
    balancing met = metropolis
    """
    doc = parse(text)
    assert parse(emit(doc)) == doc
    assert doc.spaces["T"].labels[0] == Tagged("L", "a")
    assert doc.effects["w"].effect_values()[1] == ExtNonneg.parse("inf")
    assert doc.balancing["met"] == "metropolis"


def test_absent_entries_are_zero():
    doc = parse(MINIMAL + "kernel k : X -> X { a -> b = 1 }\n")
    assert doc.kernels["k"].entry("b", "a") == q(0)
    assert doc.kernels["k"].entry("b", "b") == q(0)


def test_listed_zero_entries_are_not_stored():
    doc = parse(MINIMAL + "kernel k : X -> X { a -> a = 0  a -> b = 1 }\n"
                "effect w on X { a = 0  b = 2 }\n"
                "measure z on X { a = 0 }\n")
    assert doc.kernels["k"].rows == (((1,), (q(1),)), ((), ()))
    assert doc.effects["w"].rows == (((), ()), ((0,), (q(2),)))
    assert doc.measures["z"].is_zero()


def test_comments_and_commas_are_ignored():
    doc = parse("space X { a, b } # trailing\nmeasure m on X { a = 1 } # done\n")
    assert doc.spaces["X"].labels == ("a", "b")


@pytest.mark.parametrize("text,fragment,line", [
    ("space X { a a }", "duplicate label", 1),
    ("space X { a }\nspace X { b }", "duplicate space", 2),
    ("measure m on Y { }", "unknown space", 1),
    ("space X { a }\nmeasure m on X { b = 1 }", "not in the measure space", 2),
    ("space X { a }\nmeasure m on X { a = 1 a = 2 }", "duplicate entry", 2),
    ("space X { a }\nmeasure m on X { a = -1 }", "not a value", 2),
    ("space X { a }\nmeasure m on X { a = 1/0 }", "denominator", 2),
    ("space X { a b }\nprobability p on X { a = 3/2 }", "exceeds 1", 2),
    ("space X { a b }\ninvolution i on X { a -> b }", "not a permutation", 2),
    ("space X { a b c }\ninvolution i on X { a -> b  b -> c  c -> a }", "self-inverse", 2),
    ("space X { a }\nkernel k : X -> X { a -> a = 1 a -> a = 2 }", "duplicate kernel entry", 2),
    ("balancing b = nope", "unknown balancing function", 1),
    ("widget w { }", "unknown declaration", 1),
    ("space X { a } measure m on X { a = ", "unexpected end", 1),
])
def test_parse_errors_carry_lines(text, fragment, line):
    with pytest.raises(ModelError) as err:
        parse(text)
    assert err.value.line == line
    if fragment:
        assert fragment in str(err.value)


def test_space_name_lookup():
    doc = parse(MINIMAL)
    assert doc.space_name(doc.spaces["X"]) == "X"
    with pytest.raises(ValueError):
        doc.space_name(doc.spaces["X"].__class__(("zz",)))


def test_emitting_undeclared_space_fails():
    doc = parse(MINIMAL)
    orphan = ModelDocument()
    orphan.measures["m"] = doc.measures["mu"]
    with pytest.raises(ValueError):
        emit(orphan)


def test_parse_label_forms():
    assert parse_label("a") == "a"
    assert parse_label("(a,b)") == ("a", "b")
    assert parse_label("(a,b,c)") == ("a", "b", "c")
    assert parse_label("(a,(u,v))") == ("a", ("u", "v"))
    assert parse_label("L:a") == Tagged("L", "a")
    assert parse_label("R:(a,b)") == Tagged("R", ("a", "b"))
    with pytest.raises(ModelError):
        parse_label("a b")
    with pytest.raises(ModelError):
        parse_label("(a)")


def test_format_label_inverts_parse_label():
    for text in ("a", "(a,b)", "(a,(u,v))", "L:a", "R:(a,b)", "(L:a,R:b)"):
        assert format_label(parse_label(text)) == text


def test_bundled_corpus_round_trips():
    files = sorted(MODELS.glob("*.fk"))
    assert files, "bundled model corpus is missing"
    for path in files:
        doc = parse(path.read_text())
        assert parse(emit(doc)) == doc, path.name
