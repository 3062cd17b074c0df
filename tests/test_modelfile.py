import random
import sys
from contextlib import contextmanager
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from finkern.semiring import INF, ZERO, ExtNonneg
from finkern.spaces import FinSpace, Tagged
from finkern.kernels import Involution, Kernel, effect, measure
from finkern.modelfile import (
    MAX_LABEL_DEPTH, MAX_VALUE_DIGITS, ModelDocument, ModelError, emit,
    format_label, parse, parse_label,
)

from strategies import finite_values

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


# ---------------------------------------------------------------------------
# round trips over generated documents, and re-laid texts


ATOM_NAMES = ("a", "b", "c_1", "x.2", "*")


@st.composite
def labels(draw, depth=2):
    """An atom, a tuple of labels or a tagged label."""
    kind = draw(st.sampled_from(("atom", "atom", "tuple", "tagged"))
                if depth else st.just("atom"))
    if kind == "atom":
        return draw(st.sampled_from(ATOM_NAMES))
    if kind == "tuple":
        return tuple(draw(st.lists(labels(depth - 1), min_size=2, max_size=3)))
    return Tagged(draw(st.sampled_from("LR")), draw(labels(depth - 1)))


label_spaces = st.lists(labels(), min_size=1, max_size=5, unique=True).map(FinSpace)
# 0 and oo often, so listed zeros and infinite entries both occur
doc_values = st.one_of(st.just(ZERO), st.just(INF), finite_values)
probability_values = st.builds(lambda n, d: ExtNonneg(min(n, d), d),
                               st.integers(0, 6), st.integers(1, 6))


@st.composite
def documents(draw):
    doc = ModelDocument()
    spaces = draw(st.lists(label_spaces, min_size=1, max_size=3, unique=True))
    for k, space in enumerate(spaces):
        doc.add_space(f"S{k}", space)

    def values_on(space, values=doc_values):
        return draw(st.lists(values, min_size=len(space), max_size=len(space)))

    for k in range(draw(st.integers(0, 2))):
        space = draw(st.sampled_from(spaces))
        doc.measures[f"mu{k}"] = measure(space, values_on(space))
        doc.effects[f"w{k}"] = effect(space, values_on(space))
        doc.probabilities[f"p{k}"] = effect(space, values_on(space, probability_values))
    for k in range(draw(st.integers(0, 3))):
        dom, cod = draw(st.sampled_from(spaces)), draw(st.sampled_from(spaces))
        doc.kernels[f"K{k}"] = Kernel(dom, cod, [values_on(cod) for _ in dom.labels])
    if draw(st.booleans()):
        space = draw(st.sampled_from(spaces))
        perm = list(range(len(space)))
        if len(space) >= 2:
            perm[0], perm[1] = 1, 0
        doc.involutions["phi"] = Involution(space, tuple(perm))
    if draw(st.booleans()):
        doc.balancing["met"] = "metropolis"
    return doc


def relay(text: str, rng: random.Random) -> str:
    """The same document laid out anew: words joined by commas, newlines
    and comments as often as by spaces, so entries break across lines."""
    separators = (" ", " ", ", ", "\n", "  # a comment, with {braces} -> =\n",
                  ",\n", "\n\n  ")
    words = []
    for word in text.split():
        if word.startswith(("(", "L:(", "R:(")) and rng.random() < 0.5:
            word = word.replace(",", rng.choice((" ", " , ", ",\n")))
        words.append(word)
    return "".join(word + rng.choice(separators) for word in words)


@given(documents(), st.randoms(use_true_random=False))
@settings(max_examples=80)
def test_generated_documents_round_trip_in_any_layout(doc, rng):
    text = emit(doc)
    assert parse(text) == doc
    assert parse(relay(text, rng)) == doc


# ---------------------------------------------------------------------------
# errors deep in a large kernel block


DEEP_SIZE = 24


def _deep_document() -> list[str]:
    """A space of atoms, a space of pairs, and a kernel block on each, one
    entry a line: well over a thousand lines in all."""
    atoms = [f"x{i}" for i in range(DEEP_SIZE)]
    pairs = [f"(u{i},v{i % 3})" for i in range(DEEP_SIZE)]
    lines = ["space X { " + " ".join(atoms) + " }",
             "space P { " + " ".join(pairs) + " }",
             "kernel K : X -> X {"]
    lines += [f"  {a} -> {b} = {1 + (i * j) % 7}/{1 + (i + j) % 5}"
              for i, a in enumerate(atoms) for j, b in enumerate(atoms)]
    lines += ["}", "kernel M : P -> P {"]
    lines += [f"  {a} -> {b} = {1 + (i + j) % 4}"
              for i, a in enumerate(pairs) for j, b in enumerate(pairs)]
    lines.append("}")
    return lines


@pytest.mark.parametrize("block,change,fragment", [
    ("K", lambda e: e.replace(" = ", " = 3/0 #"), "zero denominator"),
    ("K", lambda e: e.replace(" = ", " = -1 #"), "not a value"),
    ("K", lambda e: e.replace(" -> ", " -> y"), "not in the codomain"),
    ("K", lambda e: "  y" + e.lstrip(), "not in the domain"),
    ("K", lambda e: e + "  " + e.strip(), "duplicate kernel entry"),
    ("K", lambda e: e.replace(" = ", " = 1 }"), "unknown declaration"),
    ("M", lambda e: e.replace(" = ", " = 1//2 #"), "not a value"),
    ("M", lambda e: e.replace(" -> (", " -> (w"), "not in the codomain"),
    ("M", lambda e: e.replace("(", "(w", 1), "not in the domain"),
    ("M", lambda e: e + "  " + e.strip(), "duplicate kernel entry"),
    ("M", lambda e: e.replace("(", "((", 1), "bad label '->'"),
], ids=["atom-zero-den", "atom-negative", "atom-unknown-dst",
        "atom-unknown-src", "atom-duplicate", "atom-early-close",
        "tuple-bad-value", "tuple-unknown-dst", "tuple-unknown-src",
        "tuple-duplicate", "tuple-malformed"])
def test_errors_deep_in_a_large_kernel_block_carry_their_line(block, change, fragment):
    lines = _deep_document()
    assert len(lines) > 1000
    assert parse("\n".join(lines)).kernels["M"].entry(
        ("u3", "v0"), ("u5", "v2")) == ExtNonneg(1)
    start = lines.index(f"kernel {block} : {'X -> X' if block == 'K' else 'P -> P'} {{")
    index = start + 400  # hundreds of lines into the block
    lines[index] = change(lines[index])
    with pytest.raises(ModelError) as err:
        parse("\n".join(lines))
    assert err.value.line == index + 1
    assert fragment in str(err.value)


def test_an_error_in_a_split_entry_carries_the_line_of_its_token():
    head = "space X { a b }\nkernel k : X -> X {\n  a -> a = 1/2\n"
    with pytest.raises(ModelError) as err:
        parse(head + "  a ->\n    b =\n    1/0 }\n")
    assert err.value.line == 6
    with pytest.raises(ModelError) as err:
        parse(head + "  b ->\n    c = 1 }\n")
    assert err.value.line == 4  # an entry's label errors name its first line
    with pytest.raises(ModelError) as err:
        parse(head + "  a\n  -> a = 1 }\n")
    assert (err.value.line, str(err.value)) == (4, "line 4: duplicate kernel entry")


def test_nested_tags_parse_as_the_grammar_reads_them():
    assert parse_label("L:L:a") == Tagged("L", Tagged("L", "a"))
    assert parse_label("R:L:(a,b)") == Tagged("R", Tagged("L", ("a", "b")))
    with pytest.raises(ModelError, match="tag must be L or R, got 'X'"):
        parse_label("L:X:a")


def _nest(depth, shape):
    label = "a"
    for _ in range(depth):
        label = Tagged("L", label) if shape == "tag" else ("b", label)
    return label


@pytest.mark.parametrize("shape", ["tag", "tuple"])
def test_labels_nest_at_most_the_limit_in_parse_and_emit(shape):
    at_limit = _nest(MAX_LABEL_DEPTH, shape)
    doc = ModelDocument(spaces={"X": FinSpace([at_limit, "c"])},
                        measures={"mu": measure(FinSpace([at_limit, "c"]), [1, 0])})
    assert parse(emit(doc)) == doc
    assert parse_label(format_label(at_limit)) == at_limit
    deeper = _nest(MAX_LABEL_DEPTH + 1, shape)
    with pytest.raises(ValueError, match="space 'X' has a label nested deeper "
                                         f"than {MAX_LABEL_DEPTH} levels"):
        emit(ModelDocument(spaces={"X": FinSpace(["c", deeper])}))
    text = "space X { c }\nspace Y {\n  c " + format_label(deeper) + " }\n"
    with pytest.raises(ModelError) as err:
        parse(text)
    assert str(err.value) == f"line 3: label nested deeper than {MAX_LABEL_DEPTH} levels"


@contextmanager
def _no_digit_limit():
    """Lift the interpreter's limit on integer digits, where it has one, so
    that values past ``MAX_VALUE_DIGITS`` can be built and printed."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_parse_and_emit_convert_long_values_under_the_least_digit_limit(
        least_digit_limit):
    """1000-digit values, inside ``MAX_VALUE_DIGITS`` but past a digit limit
    of 640, read and print back in-process, and the limit is left as it
    was. The text is built from strings: no int is printed under the limit."""
    num, rest, den = ("3" + "0" * 999, "6" + "0" * 998 + "7", "9" + "0" * 998 + "7")
    text = f"space X {{ a b }}\nmeasure mu on X {{ a = {num}/{den}  b = {rest}/{den} }}\n"
    doc = parse(text)
    assert doc.measures["mu"].measure_values() == (
        ExtNonneg(3 * 10**999, 9 * 10**999 + 7), ExtNonneg(6 * 10**999 + 7, 9 * 10**999 + 7))
    assert emit(doc) == text
    assert parse(emit(doc)) == doc
    assert sys.get_int_max_str_digits() == least_digit_limit


def test_values_have_at_most_the_bound_of_digits_in_parse_and_emit():
    X = FinSpace.atoms("a b")
    at_bound = int("7" * MAX_VALUE_DIGITS)
    doc = ModelDocument(spaces={"X": X},
                        measures={"mu": measure(X, [q(at_bound, at_bound + 1), 1])})
    assert parse(emit(doc)) == doc
    with _no_digit_limit():
        longer = q(10 * at_bound + 1, 2)
        for store, keyword, k in (
                ("measures", "measure", measure(X, [longer, 1])),
                ("effects", "effect", effect(X, [1, longer])),
                ("probabilities", "probability", effect(X, [1, 1 / longer])),
                ("kernels", "kernel", Kernel(X, X, [[0, 1], [longer, 0]]))):
            with pytest.raises(ValueError, match=f"{keyword} 'mu' has a value of "
                                                 f"more than {MAX_VALUE_DIGITS} digits"):
                emit(ModelDocument(spaces={"X": X}, **{store: {"mu": k}}))
        for value in (f"{longer.num}/2", f"1/{longer.num}", str(longer.num)):
            with pytest.raises(ModelError) as err:
                parse(f"space X {{ a b }}\nmeasure mu on X {{ b = 1\n a = {value} }}\n")
            assert str(err.value) == ("line 3: a value's numerator and denominator "
                                      f"have at most {MAX_VALUE_DIGITS} digits each")
