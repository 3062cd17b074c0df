"""Fuzz the CLI in-process: every input exits 0, 1 or 2, and none raises.

Model documents are assembled from valid statements with random values,
with now and then an invalid one (a value out of range, a broken
involution, a stray token); each subcommand gets names drawn from those
the document defines and some it does not, and sometimes a flag it does
not take. Labels nested up to a few thousand levels deep, in a document or
an argument, exit 0 or 2, and values whose numerator or denominator has
about as many digits as Python's 4300-digit ``int(str)`` limit, on either
side of it, exit 0, 1 or 2. So do the subcommands on spaces of thousands of
points, and ``sample`` with step counts past its bound, up to 10**12.
"""

import contextlib
import functools
import io
import re
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from finkern.cli import CHECKS, MAX_STEPS, main
from finkern.modelfile import MAX_LABEL_DEPTH

ATOMS = ("a", "b", "c", "d")
NAMES = ("mu", "nu", "pi", "K", "P", "lik", "alpha", "flip", "met", "X",
         "Y", "J", "joint", "ghost")
VALUES = ("0", "1", "1/2", "1/3", "2/3", "3/2", "inf", "5", "0/1")
PROBABILITIES = ("0", "1", "1/2", "1/3", "2/3")


@st.composite
def documents(draw):
    n = draw(st.integers(1, len(ATOMS)))
    atoms = ATOMS[:n]
    value = st.sampled_from(VALUES)

    def assignments(labels, values=value):
        picked = draw(st.lists(st.sampled_from(labels), unique=True))
        return "  ".join(f"{x} = {draw(values)}" for x in picked)

    lines = [f"space X {{ {' '.join(atoms)} }}", "space Y { u v }",
             "space J { (a,u) (a,v) (b,u) (b,v) }"]
    lines.append(f"measure mu on X {{ {assignments(atoms)} }}")
    lines.append(f"measure nu on X {{ {assignments(atoms)} }}")
    lines.append("measure joint on J { "
                 + assignments(("(a,u)", "(a,v)", "(b,u)", "(b,v)")) + " }")
    lines.append("measure pi on X { "
                 + "  ".join(f"{x} = 1/{n}" for x in atoms) + " }")
    lines.append("probability alpha on X { "
                 + assignments(atoms, st.sampled_from(PROBABILITIES)) + " }")
    pairs = draw(st.lists(st.tuples(st.sampled_from(atoms),
                                    st.sampled_from(atoms)),
                          max_size=8, unique=True))
    lines.append("kernel K : X -> X { "
                 + "  ".join(f"{x} -> {y} = {draw(value)}" for x, y in pairs)
                 + " }")
    # a normalized kernel: each row splits its mass between two points
    halves = [(x, draw(st.sampled_from(atoms)), draw(st.sampled_from(atoms)))
              for x in atoms]
    lines.append("kernel P : X -> X { " + "  ".join(
        f"{x} -> {y} = 1" if y == z else f"{x} -> {y} = 1/2  {x} -> {z} = 1/2"
        for x, y, z in halves) + " }")
    lik = draw(st.lists(st.tuples(st.sampled_from(atoms),
                                  st.sampled_from(("u", "v"))),
                        max_size=6, unique=True))
    lines.append("kernel lik : X -> Y { "
                 + "  ".join(f"{x} -> {y} = {draw(value)}" for x, y in lik)
                 + " }")
    moves = draw(st.lists(st.tuples(st.sampled_from(atoms),
                                    st.sampled_from(atoms)), max_size=3))
    if draw(st.integers(0, 3)) != 1:  # make it self-inverse
        moves = [m for x, y in moves for m in ((x, y), (y, x))]
        moves = list(dict(moves).items())
    lines.append("involution flip on X { "
                 + "  ".join(f"{x} -> {y}" for x, y in moves) + " }")
    lines.append(f"balancing met = {draw(st.sampled_from(('metropolis', 'barker')))}")
    if draw(st.integers(0, 9)) == 5:
        junk = draw(st.sampled_from(("}", "kernel", "measure mu on X {",
                                     "space X { a }", "= 1/0", "(")))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines) + "\n"


label = st.sampled_from(ATOMS + ("u", "ghost", "(a,u)", "(("))


def name(*fitting):
    """Mostly a name of the fitting kinds, sometimes any name at all."""
    return st.one_of(st.sampled_from(fitting), st.sampled_from(fitting),
                     st.sampled_from(NAMES))


@st.composite
def arguments(draw):
    """A subcommand and its arguments, the model path left as ``MODEL``."""
    command = draw(st.sampled_from(
        ("check", "decompose", "build-mh", "verify-mh", "verify-skew",
         "classical-mh", "exchange", "gibbs", "sample")))
    argv = [command, "--model", "MODEL"]
    if command == "check":
        predicate = draw(st.sampled_from(sorted(CHECKS) + ["bogus"]))
        kinds = CHECKS.get(predicate, ((),))[0]
        argv.append(predicate)
        argv += [draw(name("mu", "pi", "K", "P", "alpha", "flip"))
                 for _ in kinds]
        argv += draw(st.lists(name("K"), max_size=1))
    elif command == "decompose":
        argv += [draw(name("mu", "K")), draw(name("flip", "nu", "P"))]
    elif command in ("build-mh", "verify-mh", "verify-skew"):
        argv += ["--target", draw(name("mu", "pi")),
                 "--involution", draw(name("flip"))]
        if command == "verify-mh" and draw(st.booleans()):
            # a batch with the flags of one problem is a usage error
            kept = argv if draw(st.integers(0, 3)) == 0 else argv[:3]
            argv = kept + ["--instances", str(draw(st.integers(0, 3))),
                           "--seed", str(draw(st.integers(-3, 3)))]
        for flag, fitting in (("--acceptance", "alpha"), ("--balancing", "met")):
            if draw(st.booleans()):
                argv += [flag, draw(name(fitting))]
        if command == "verify-skew":
            argv += ["--twist", draw(name("flip"))]
    elif command == "classical-mh":
        argv += ["--target", draw(name("mu", "pi")),
                 "--proposal", draw(name("P", "K"))]
    elif command == "exchange":
        argv += ["--prior", draw(name("pi", "mu")),
                 "--likelihood", draw(name("lik")),
                 "--obs", draw(label), "--proposal", draw(name("P", "K"))]
    elif command == "gibbs":
        argv += ["--target", draw(name("joint")),
                 "--factors", draw(st.sampled_from(("X,Y", "X", "Q,X", "")))]
    else:
        argv += ["--kernel", draw(name("P", "K")),
                 "--target", draw(name("pi", "mu")),
                 "--init", draw(st.one_of(st.just("a"), label)),
                 # past the step bound, a usage error before the model is
                 # read; no count in between, which would run a long chain
                 "--steps", str(draw(st.one_of(
                     st.integers(-1, 40), st.integers(MAX_STEPS + 1, 10**12)))),
                 "--burn", str(draw(st.integers(-1, 12))),
                 "--seed", str(draw(st.integers(-3, 3)))]
    if draw(st.integers(0, 9)) == 5:
        argv += draw(st.sampled_from((["--seed", "1"], ["--instances"],
                                      ["--bogus"], ["--steps", "x"])))
    if draw(st.integers(0, 3)) == 2:
        argv += ["--out", "OUT"]
    return argv


def _run(document, argv):
    """Exit code and stderr of ``main(argv)`` on ``document`` at ``MODEL``."""
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "m.fk"
        model.write_text(document, encoding="utf-8")
        argv = [str(model) if a == "MODEL" else
                str(Path(tmp) / "out.fk") if a == "OUT" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    return code, err.getvalue()


@settings(max_examples=50)
@given(documents(), arguments())
def test_cli_exits_0_1_or_2_and_never_raises(document, argv):
    code, err = _run(document, argv)
    assert code in (0, 1, 2), (argv, document, err)
    assert "Traceback" not in err


def _deep_label(shape, depth):
    return {"tag": "L:" * depth + "a", "split": "L: " * depth + "a",
            "tuple": "(a," * depth + "b" + ")" * depth}[shape]


depths = st.one_of(st.integers(1, 3000),
                   st.integers(MAX_LABEL_DEPTH - 2, MAX_LABEL_DEPTH + 2))


@settings(max_examples=40)
@given(depths, st.sampled_from(("tag", "split", "tuple")), st.booleans())
def test_deep_labels_exit_0_or_2_and_never_raise(depth, shape, in_argv):
    # a label nested ``depth`` levels deep in a space, or in ``--init``
    label = _deep_label(shape, depth)
    if in_argv:
        document = "space X { a b }\nmeasure m on X { a = 1 }\n" \
                   "kernel K : X -> X { a -> a = 1  b -> b = 1 }\n"
        argv = ["sample", "--model", "MODEL", "--kernel", "K", "--target", "m",
                "--init", label, "--steps", "3"]
    else:
        document = f"space X {{ {label} c }}\nmeasure m on X {{ c = 1 }}\n"
        argv = ["check", "--model", "MODEL", "normalized", "m"]
    code, err = _run(document, argv)
    deep = depth > MAX_LABEL_DEPTH
    # a label within the limit is no point of X in ``--init``: a usage error
    assert code == (2 if deep or in_argv else 0), (depth, shape, err)
    assert "Traceback" not in err
    assert ("nested deeper than" in err) == deep


def _digits(draw):
    """A digit text of 4290-5000 digits, within the 4300-digit limit three
    times in four."""
    within = st.integers(4290, 4300)
    count = draw(st.one_of(within, within, within, st.integers(4301, 5000)))
    return draw(st.sampled_from("123456789")) + draw(st.sampled_from("0123456789")) * (count - 1)


@st.composite
def long_values(draw):
    """A value text whose numerator, denominator or both are long."""
    side = draw(st.sampled_from(("num", "den", "both")))
    num = _digits(draw) if side != "den" else draw(st.sampled_from(("1", "3")))
    return num + "/" + (_digits(draw) if side != "num" else draw(st.sampled_from(("1", "7"))))


@st.composite
def long_value_documents(draw):
    """A fuzz document with about one in six measure and kernel entries
    long, the first one always."""
    first = [True]

    def lengthen(entry):
        if first.pop() if first else draw(st.integers(0, 5)) == 3:
            return "= " + draw(long_values())
        return entry.group(0)

    lines = [re.sub(r"= (\S+)", lengthen, line)
             if line.startswith(("measure", "kernel")) else line
             for line in draw(documents()).splitlines()]
    return "\n".join(lines) + "\n"


@settings(max_examples=25, deadline=None)
@given(long_value_documents(), arguments())
def test_long_values_exit_0_1_or_2_and_never_raise(document, argv):
    code, err = _run(document, argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err


@functools.cache
def _large_document(n):
    """A document on ``n`` points (``n`` even): a measure that charges every
    point, an involution that pairs the points and preserves it, a uniform
    measure, a normalized kernel with three entries per row, and a
    probability."""
    points = [f"p{i}" for i in range(n)]
    return "\n".join([
        f"space X {{ {' '.join(points)} }}",
        "measure mu on X { " + "  ".join(f"{x} = {i // 2 % 7 + 1}"
                                         for i, x in enumerate(points)) + " }",
        "measure pi on X { " + "  ".join(f"{x} = 1/{n}" for x in points) + " }",
        "involution flip on X { " + "  ".join(f"{points[i]} -> {points[i ^ 1]}"
                                              for i in range(n)) + " }",
        "kernel K : X -> X {", *(f"  {x} -> {points[(i + k) % n]} = {v}"
                                  for i, x in enumerate(points)
                                  for k, v in ((0, "1/2"), (1, "1/4"), (2, "1/4"))),
        "}",
        "probability alpha on X { " + "  ".join(f"{x} = 1/{i % 5 + 1}"
                                                for i, x in enumerate(points)) + " }",
        "balancing met = metropolis", ""])


_MH = ["--target", "mu", "--involution", "flip", "--balancing", "met"]


@pytest.mark.parametrize("n, argv", [
    (3000, ["check", "--model", "MODEL", "normalized", "K"]),
    (3000, ["check", "--model", "MODEL", "reversible", "mu", "K"]),
    (3000, ["check", "--model", "MODEL", "invariant", "mu", "K"]),
    (3000, ["check", "--model", "MODEL", "skew-reversible", "mu", "flip", "K"]),
    (3000, ["decompose", "--model", "MODEL", "mu", "flip"]),
    (3000, ["build-mh", "--model", "MODEL", "--out", "OUT", *_MH]),
    (3000, ["build-mh", "--model", "MODEL", "--target", "mu", "--involution", "flip",
            "--acceptance", "alpha"]),
    (3000, ["verify-mh", "--model", "MODEL", *_MH]),
    (3000, ["verify-skew", "--model", "MODEL", *_MH, "--twist", "flip"]),
    # classical-mh builds the augmented space X (x) X densely: its cost
    # grows as the square of the points, so it runs on fewer of them
    (250, ["classical-mh", "--model", "MODEL", "--target", "pi", "--proposal", "K"]),
    (250, ["sample", "--model", "MODEL", "--kernel", "K", "--target", "pi",
           "--init", "p0", "--steps", "1000", "--seed", "1"]),
])
def test_large_spaces_exit_0_1_or_2_and_never_raise(n, argv):
    code, err = _run(_large_document(n), argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
