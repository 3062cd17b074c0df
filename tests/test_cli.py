import ast
import importlib
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from finkern import cli, mcmc
from finkern.cli import main
from finkern.semiring import ExtNonneg, ZERO
from finkern.kernels import (
    Involution, compose, dirac, is_copyable, is_normalized, is_substochastic,
    lift_involution, pushforward,
)
from finkern.enrichment import is_finite_morphism, rn_derivative
from finkern.mcmc import MhProblem, build_skew_mh
from finkern.modelfile import parse
from strategies import ext_sum

MODELS = Path(__file__).resolve().parent.parent / "models"
TWO_STATE = str(MODELS / "two_state_mh.fk")
DECOMPOSE = str(MODELS / "three_point_decompose.fk")
CLASSICAL = str(MODELS / "classical_mh.fk")
EXCHANGE = str(MODELS / "exchange_small.fk")
GIBBS = str(MODELS / "gibbs_2x2.fk")
SKEW = str(MODELS / "skew_four_point.fk")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_dict(text):
    entries = {}
    for line in text.splitlines():
        line = line.lstrip("# ").strip()
        if " = " in line:
            key, _, value = line.partition(" = ")
            entries[key] = value
    return entries


def test_check_passing(capsys):
    code, out, _ = run(capsys, "check", "--model", TWO_STATE, "normalized", "walk")
    assert code == 0
    assert report_dict(out)["result"] == "true"


def test_check_failing_with_witness(capsys):
    code, out, _ = run(capsys, "check", "--model", TWO_STATE, "reversible", "mu", "walk")
    assert code == 1
    report = report_dict(out)
    assert report["result"] == "false"
    assert report["witness_x"] == "a" and report["witness_y"] == "b"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on integer digits")
def test_check_prints_results_longer_than_the_digit_limit(capsys, tmp_path):
    """Inputs under Python's 4300-digit limit can have an exact result
    above it: the check still reports it, in full, and leaves the limit as
    it found it."""
    sevens, threes = "7" * 4290, "3" * 4295
    model = tmp_path / "long.fk"
    model.write_text(f"space X {{ a b c }}\nmeasure mu on X {{ a = {sevens}/{threes}"
                     f"  b = 1/{sevens}  c = {threes} }}\n")
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "check", "--model", str(model), "normalized", "mu")
    assert sys.get_int_max_str_digits() == limit
    assert code == 1
    report = report_dict(out)
    assert report["result"] == "false" and report["witness_row"] == "*"
    sys.set_int_max_str_digits(0)
    try:
        mass = Fraction(int(sevens), int(threes)) + Fraction(1, int(sevens)) + int(threes)
        assert Fraction(report["row_mass"]) == mass
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_value_past_the_digit_bound_is_refused_with_the_bound(capsys, tmp_path):
    model = tmp_path / "long.fk"
    model.write_text(f"space X {{ a b }}\nmeasure mu on X {{ a = {'7' * 4301}  b = 1 }}\n")
    code, _, err = run(capsys, "check", "--model", str(model), "normalized", "mu")
    assert code == 2
    assert "at most 4300 digits" in err and "set_int_max_str_digits" not in err


def test_build_mh_writes_no_document_it_could_not_read(capsys, tmp_path):
    """Masses of 3000 digits a part give an acceptance of about 6000
    digits: the build is refused, and no file is written."""
    model = tmp_path / "long.fk"
    model.write_text(
        f"space X {{ a b }}\nmeasure mu on X {{ a = {'7' * 3000}/{'3' * 2999}1"
        f"  b = 1{'0' * 2999}/{'9' * 3000} }}\n"
        "involution flip on X { a -> b  b -> a }\nbalancing met = metropolis\n")
    built = tmp_path / "built.fk"
    code, _, err = run(capsys, "build-mh", "--model", str(model), "--target", "mu",
                       "--involution", "flip", "--balancing", "met", "--out", str(built))
    assert code == 2
    assert "probability 'acceptance' has a value of more than 4300 digits" in err
    assert not built.exists()


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on integer digits")
def test_model_values_do_not_depend_on_the_interpreter_digit_limit(capsys, tmp_path):
    """Under a limit of 640 digits, a model with 1000-digit values is read
    as under any other, and the limit is left as it was."""
    num, den = 3 * 10**999, 9 * 10**999 + 7
    model = tmp_path / "long.fk"
    model.write_text(f"space X {{ a b }}\nmeasure mu on X {{ a = {num}/{den}"
                     f"  b = {den - num}/{den} }}\n")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, _ = run(capsys, "check", "--model", str(model), "normalized", "mu")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0 and report_dict(out)["result"] == "true"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on integer digits")
def test_a_process_under_the_least_digit_limit_reads_long_values(tmp_path):
    """A CLI process started with a digit limit of 640 reads and checks a
    model of 1000-digit values."""
    num, den = 3 * 10**999, 9 * 10**999 + 7
    model = tmp_path / "long.fk"
    model.write_text(f"space X {{ a b }}\nmeasure mu on X {{ a = {num}/{den}"
                     f"  b = {den - num}/{den} }}\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-m", "finkern.cli",
         "check", "--model", str(model), "normalized", "mu"],
        env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert report_dict(done.stdout)["result"] == "true"


#: What a library module would call to change, or to read, state that the
#: whole process shares.
PROCESS_WIDE = ("set_int_max_str_digits", "getrefcount")


def test_no_module_touches_process_wide_state():
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                assert node.attr not in PROCESS_WIDE, (path.name, node.lineno)
            if isinstance(node, ast.alias):
                assert node.name not in PROCESS_WIDE, path.name


def test_check_unknown_predicate(capsys):
    code, _, err = run(capsys, "check", "--model", TWO_STATE, "bogus", "walk")
    assert code == 2
    assert "unknown predicate" in err


def test_check_wrong_arity(capsys):
    code, _, err = run(capsys, "check", "--model", TWO_STATE, "leq", "walk")
    assert code == 2
    assert "takes 2" in err


def test_check_unknown_name(capsys):
    code, _, err = run(capsys, "check", "--model", TWO_STATE, "normalized", "ghost")
    assert code == 2
    assert "ghost" in err


def test_verify_mh_pass(capsys):
    code, out, _ = run(capsys, "verify-mh", "--model", TWO_STATE,
                       "--target", "mu", "--involution", "flip",
                       "--acceptance", "alpha")
    assert code == 0
    report = report_dict(out)
    assert report["reversible"] == "true"
    assert report["balanced"] == "true"
    assert report["flags_agree"] == "true"


def test_verify_mh_balancing_selection(capsys):
    code, out, _ = run(capsys, "verify-mh", "--model", TWO_STATE,
                       "--target", "mu", "--involution", "flip",
                       "--balancing", "met")
    assert code == 0
    assert report_dict(out)["acceptance"] == "metropolis"


def test_verify_mh_failure_witness_refails(capsys):
    code, out, _ = run(capsys, "verify-mh", "--model", TWO_STATE,
                       "--target", "mu", "--involution", "flip",
                       "--acceptance", "alpha_bad")
    assert code == 1
    report = report_dict(out)
    assert report["flags_agree"] == "true"
    # re-check detailed balance at the reported pair with library calls
    from finkern.mcmc import MhProblem, build_mh
    doc = parse(Path(TWO_STATE).read_text())
    mu = doc.measures["mu"]
    problem = MhProblem(target=mu, involution=doc.involutions["flip"],
                        acceptance=doc.probabilities["alpha_bad"])
    chain = build_mh(problem)
    x, y = report["witness_x"], report["witness_y"]
    assert mu.entry("*", x) * chain.entry(x, y) != mu.entry("*", y) * chain.entry(y, x)
    assert report["left"] != report["right"]


def test_verify_mh_batch(capsys):
    code, out, _ = run(capsys, "verify-mh", "--model", TWO_STATE,
                       "--seed", "99", "--instances", "200")
    assert code == 0
    report = report_dict(out)
    assert report["instances"] == "200"
    assert report["flags_agree"] == "200"


def test_verify_skew(capsys):
    code, out, _ = run(capsys, "verify-skew", "--model", SKEW,
                       "--target", "mu", "--involution", "prop",
                       "--acceptance", "alpha", "--twist", "twist")
    assert code == 0
    report = report_dict(out)
    assert report["skew_reversible"] == "true" and report["balanced"] == "true"


def test_verify_skew_checks_the_twist_once(capsys, monkeypatch):
    calls = []
    real = mcmc.invariant_violation

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(mcmc, "invariant_violation", counted)
    code, _, _ = run(capsys, "verify-skew", "--model", SKEW,
                     "--target", "mu", "--involution", "prop",
                     "--acceptance", "alpha", "--twist", "twist")
    assert code == 0
    assert len(calls) == 1


def test_build_mh_emits_parseable_document(capsys, tmp_path):
    out_path = tmp_path / "built.fk"
    code, out, _ = run(capsys, "build-mh", "--model", TWO_STATE,
                       "--target", "mu", "--involution", "flip",
                       "--balancing", "metropolis", "--out", str(out_path))
    assert code == 0
    built = parse(out_path.read_text())
    assert "mh_chain" in built.kernels
    assert "acceptance" in built.probabilities


def test_build_mh_balancing_on_a_support_phi_leaves(capsys, tmp_path):
    # swap_ab sends mu's mass at a onto the null point b: the move is
    # never accepted, and the chain is reversible for mu
    out_path = tmp_path / "built.fk"
    code, _, err = run(capsys, "build-mh", "--model", DECOMPOSE,
                       "--target", "mu", "--involution", "swap_ab",
                       "--balancing", "metropolis", "--out", str(out_path))
    assert code == 0 and err == ""
    built = parse(out_path.read_text())
    mu = parse(Path(DECOMPOSE).read_text()).measures["mu"]
    assert built.probabilities["acceptance"].effect_values() == (ZERO, ZERO, ExtNonneg(1))
    assert mcmc.is_reversible(mu, built.kernels["mh_chain"])


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--model", DECOMPOSE, "mu", "swap_ab")
    assert code == 0
    report = report_dict(out)
    assert report["S"] == "c"
    body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
    built = parse(body)
    assert built.spaces["S"].labels == ("c",)
    assert built.measures["ac"].entry("*", "c") == ExtNonneg(1, 2)


def test_classical_mh(capsys):
    code, out, _ = run(capsys, "classical-mh", "--model", CLASSICAL,
                       "--target", "pi", "--proposal", "q")
    assert code == 0
    report = report_dict(out)
    assert report["routes_equal"] == "true"
    assert report["reversible_direct"] == "true"


def test_exchange(capsys):
    code, out, _ = run(capsys, "exchange", "--model", EXCHANGE,
                       "--prior", "prior", "--likelihood", "lik",
                       "--obs", "z1", "--proposal", "q")
    assert code == 0
    assert report_dict(out)["balanced"] == "true"
    body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
    built = parse(body)
    assert "mu" in built.measures and "phi" in built.involutions


def test_gibbs(capsys):
    code, out, _ = run(capsys, "gibbs", "--model", GIBBS,
                       "--target", "joint", "--factors", "X,Y")
    assert code == 0
    assert report_dict(out)["invariant"] == "true"


def test_gibbs_over_a_factor_with_no_points(capsys, tmp_path):
    """The joint space is empty, so the chain is the empty one."""
    model = tmp_path / "empty.fk"
    model.write_text("space X { a b }\nspace E { }\nmeasure joint on E { }\n")
    code, out, err = run(capsys, "gibbs", "--model", str(model),
                         "--target", "joint", "--factors", "X,E")
    assert (code, err) == (0, "")
    assert report_dict(out)["invariant"] == "true"
    body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
    chain = parse(body).kernels["gibbs_chain"]
    assert len(chain.dom) == len(chain.cod) == 0


def test_gibbs_names_the_joint_space_itself_before_an_equal_one(capsys, tmp_path):
    """E is declared first and equals J (both empty), but the chain is on J."""
    model = tmp_path / "empty.fk"
    model.write_text("space X { a b }\nspace E { }\nspace J { }\n"
                     "measure joint on J { }\n")
    code, out, err = run(capsys, "gibbs", "--model", str(model),
                         "--target", "joint", "--factors", "X,E")
    assert (code, err) == (0, "")
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert body[0].startswith("space J {")
    assert body[1] == "kernel gibbs_chain : J -> J {"


def test_sample(capsys, tmp_path):
    merged = tmp_path / "chain.fk"
    base = Path(TWO_STATE).read_text()
    merged.write_text(base + """
kernel mh_chain : X -> X {
  a -> b = 1
  b -> a = 1/2
  b -> b = 1/2
}
""")
    code, out, _ = run(capsys, "sample", "--model", str(merged),
                       "--kernel", "mh_chain", "--target", "mu",
                       "--init", "a", "--seed", "5", "--steps", "50000",
                       "--burn", "500")
    assert code == 0
    report = report_dict(out)
    assert report["rng"] == "python-mersenne-twister"
    assert float(report["tv_to_target"]) < 0.05


def test_verify_mh_batch_env_default(capsys, monkeypatch):
    monkeypatch.setenv("FINKERN_INSTANCES", "50")
    code, out, _ = run(capsys, "verify-mh", "--model", TWO_STATE,
                       "--seed", "3", "--instances")
    assert code == 0
    assert report_dict(out)["instances"] == "50"


def test_decompose_kernel_against_kernel(capsys, tmp_path):
    model = tmp_path / "pair.fk"
    model.write_text("""
space X { a b }
kernel p : X -> X { a -> a = 1  a -> b = 2  b -> a = 3 }
kernel ref : X -> X { a -> b = 1  b -> a = 1 }
""")
    code, out, _ = run(capsys, "decompose", "--model", str(model), "p", "ref")
    assert code == 0
    body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
    built = parse(body)
    assert built.kernels["ac"].entry("a", "b") == ExtNonneg(2)
    assert built.kernels["si"].entry("a", "a") == ExtNonneg(1)


def test_decompose_measure_against_measure(capsys, tmp_path):
    model = tmp_path / "pair.fk"
    model.write_text("""
space X { a b c }
measure p on X { a = 1  b = 2 }
measure ref on X { b = 5  c = 1 }
""")
    code, out, _ = run(capsys, "decompose", "--model", str(model), "p", "ref")
    assert code == 0
    report = report_dict(out)
    assert report["S"] == "b"
    body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
    built = parse(body)
    assert built.measures["ac"].entry("*", "b") == ExtNonneg(2)
    assert built.measures["si"].entry("*", "a") == ExtNonneg(1)


PREDICATE_MODEL = """
space X { a b }
measure mu on X { a = 1/3  b = 2/3 }
measure nu on X { a = 1/6  b = 1/3 }
kernel walk : X -> X { a -> a = 1/2  a -> b = 1/2  b -> a = 1/2  b -> b = 1/2 }
kernel still : X -> X { a -> a = 1  b -> b = 1 }
kernel big : X -> X { a -> a = inf  b -> b = 1 }
involution flip on X { a -> b  b -> a }
involution stay on X { }
probability alpha on X { a = 1  b = 1/2 }
probability alpha_one on X { a = 1  b = 1 }
measure on_a on X { a = 1 }
"""


PREDICATE_CASES = [
    ("normalized", ["walk"], True),
    ("normalized", ["big"], False),
    ("copyable", ["still"], True),
    ("copyable", ["walk"], False),
    ("substochastic", ["walk"], True),
    ("substochastic", ["big"], False),
    ("cancellative", ["walk"], True),
    ("cancellative", ["big"], False),
    ("finite", ["walk"], True),
    ("finite", ["big"], False),
    ("leq", ["nu", "mu"], True),
    ("leq", ["mu", "nu"], False),
    ("abs-cont", ["nu", "mu"], True),
    ("equivalent", ["nu", "mu"], True),
    ("singular", ["nu", "mu"], False),
    ("invariant", ["mu", "still"], True),
    ("invariant", ["mu", "walk"], False),
    ("reversible", ["mu", "still"], True),
    ("reversible", ["mu", "walk"], False),
    ("skew-reversible", ["mu", "stay", "still"], True),
    ("balanced", ["mu", "flip", "alpha"], True),
    ("balanced", ["mu", "flip", "alpha_one"], False),
    ("ae-equal", ["mu", "walk", "walk"], True),
    ("ae-equal", ["mu", "walk", "still"], False),
    ("abs-cont", ["mu", "on_a"], False),
    ("equivalent", ["on_a", "mu"], False),
    ("skew-reversible", ["mu", "stay", "walk"], False),
]


@pytest.mark.parametrize("predicate,names,expect", PREDICATE_CASES)
def test_every_check_predicate(capsys, tmp_path, predicate, names, expect):
    model = tmp_path / "preds.fk"
    model.write_text(PREDICATE_MODEL)
    code, out, _ = run(capsys, "check", "--model", str(model), predicate, *names)
    assert code == (0 if expect else 1)
    assert report_dict(out)["result"] == ("true" if expect else "false")


def _entity(doc, name):
    for store in (doc.kernels, doc.measures, doc.effects, doc.probabilities,
                  doc.involutions):
        if name in store:
            return store[name]
    raise KeyError(name)


def _row_of(kernel, x):
    """Row x of a kernel, as a measure."""
    return compose(kernel, dirac(kernel.dom, x))


def _skew_sides(target, twist, chain, x, y):
    lifted = lift_involution(twist)
    back = compose(lifted, compose(chain, lifted))
    return (target.entry("*", x) * chain.entry(x, y),
            target.entry("*", y) * back.entry(y, x))


def _balancing_sides(target, phi, accept, x):
    ratio = rn_derivative(pushforward(phi, target), target)
    return (accept.entry(x, "*"),
            accept.entry(phi(x), "*") * ratio.entry(x, "*"))


def _weighted_rows(mu, p, q, x):
    weight = mu.entry("*", x)
    return (tuple(weight * v for v in p.row(x)), tuple(weight * v for v in q.row(x)))


# Re-checks of a printed witness, by witness kind; each says whether the
# predicate fails there. Row predicates re-fail on the witness row alone.
ROW_PREDICATES = {"normalized": is_normalized, "copyable": is_copyable,
                  "substochastic": is_substochastic, "finite": is_finite_morphism}
# entry predicates: do the entries of the first and last names fail?
ENTRY_FAILS = {
    "cancellative": lambda a, b: not a.is_finite,
    "leq": lambda a, b: not a <= b,
    "abs-cont": lambda a, b: a != ZERO and b == ZERO,
    "equivalent": lambda a, b: (a == ZERO) != (b == ZERO),
    "singular": lambda a, b: a != ZERO and b != ZERO,
}
# equation predicates: the two sides of the defining equation at the witness
SIDES = {
    "invariant": lambda k, w: (k[0].entry("*", w["witness_y"]),
                               compose(k[1], k[0]).entry("*", w["witness_y"])),
    "reversible": lambda k, w: _skew_sides(k[0], Involution.identity(k[0].cod), k[1],
                                           w["witness_x"], w["witness_y"]),
    "skew-reversible": lambda k, w: _skew_sides(*k, w["witness_x"], w["witness_y"]),
    "balanced": lambda k, w: _balancing_sides(*k, w["witness_point"]),
    "ae-equal": lambda k, w: _weighted_rows(*k, w["witness_point"]),
}


def _refails(predicate, names, report):
    if predicate in ROW_PREDICATES:
        return not ROW_PREDICATES[predicate](_row_of(names[0], report["witness_row"]))
    if predicate in ENTRY_FAILS:
        x, y = report["witness_x"], report["witness_y"]
        return ENTRY_FAILS[predicate](names[0].entry(x, y), names[-1].entry(x, y))
    left, right = SIDES[predicate](names, report)
    return left != right


@pytest.mark.parametrize("predicate,names",
                         [(p, n) for p, n, expect in PREDICATE_CASES if not expect])
def test_failing_check_witness_refails(capsys, tmp_path, predicate, names):
    model = tmp_path / "preds.fk"
    model.write_text(PREDICATE_MODEL)
    code, out, _ = run(capsys, "check", "--model", str(model), predicate, *names)
    assert code == 1
    report = report_dict(out)
    doc = parse(PREDICATE_MODEL)
    assert _refails(predicate, [_entity(doc, name) for name in names], report)
    if "left" in report:
        assert report["left"] != report["right"] or predicate == "cancellative"
    if "row_mass" in report:
        kernel = _entity(doc, names[0])
        assert report["row_mass"] == str(ext_sum(kernel.row(report["witness_row"])))


def test_every_predicate_has_a_failing_row():
    assert {p for p, _, expect in PREDICATE_CASES if not expect} == set(cli.CHECKS)


def test_verify_skew_witness_refails_with_a_twist(capsys, tmp_path):
    model = tmp_path / "skew.fk"
    model.write_text("""
space X { p0 p1 p2 p3 }
measure mu on X { p0 = 1/2 p1 = 1/6 p2 = 1/6 p3 = 1/6 }
involution prop on X { p0 -> p2 p2 -> p0 }
involution twist on X { p2 -> p3 p3 -> p2 }
probability alpha on X { p0 = 1 p1 = 1 p2 = 1 p3 = 1 }
""")
    code, out, _ = run(capsys, "verify-skew", "--model", str(model),
                       "--target", "mu", "--involution", "prop",
                       "--acceptance", "alpha", "--twist", "twist")
    assert code == 1
    report = report_dict(out)
    assert report["skew_reversible"] == "false"
    doc = parse(model.read_text())
    target, twist = doc.measures["mu"], doc.involutions["twist"]
    chain = build_skew_mh(MhProblem(target=target, involution=doc.involutions["prop"],
                                    acceptance=doc.probabilities["alpha"]), twist)
    left, right = _skew_sides(target, twist, chain,
                              report["witness_x"], report["witness_y"])
    assert left != right
    assert (report["left"], report["right"]) == (str(left), str(right))


def test_copyable_and_skew_failures_print_witnesses(capsys, tmp_path):
    model = tmp_path / "preds.fk"
    model.write_text(PREDICATE_MODEL)
    _, out, _ = run(capsys, "check", "--model", str(model), "copyable", "walk")
    assert report_dict(out)["witness_row"] == "a"
    _, out, _ = run(capsys, "check", "--model", str(model),
                    "skew-reversible", "mu", "stay", "walk")
    report = report_dict(out)
    assert (report["witness_x"], report["witness_y"]) == ("a", "b")


@pytest.mark.parametrize("argv", [
    ["check", "--model", TWO_STATE, "normalized", "walk", "--instances", "5"],
    ["check", "--model", TWO_STATE, "normalized", "walk", "--seed", "5"],
    ["build-mh", "--model", TWO_STATE, "--target", "mu", "--involution", "flip",
     "--balancing", "met", "--seed", "5"],
    ["verify-skew", "--model", SKEW, "--target", "mu", "--involution", "prop",
     "--acceptance", "alpha", "--twist", "twist", "--instances", "5"],
    ["sample", "--model", TWO_STATE, "--kernel", "walk", "--target", "mu",
     "--init", "a", "--steps", "10", "--instances", "5"],
    ["gibbs", "--model", GIBBS, "--target", "joint", "--factors", "X,Y",
     "--seed", "1"],
])
def test_flags_only_on_the_subcommands_that_use_them(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sample_rejects_a_target_that_is_not_a_probability(capsys, tmp_path):
    model = tmp_path / "heavy.fk"
    model.write_text(Path(TWO_STATE).read_text()
                     + "measure heavy on X { a = 1  b = 3 }\n")
    code, out, err = run(capsys, "sample", "--model", str(model),
                         "--kernel", "walk", "--target", "heavy",
                         "--init", "a", "--seed", "5", "--steps", "100")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "probability" in err and "4" in err


def test_sample_with_no_memory_for_the_trace_exits_2(capsys, monkeypatch):
    # the run is replaced: no test asks for a trace that long
    from finkern import sampler

    def no_memory(matrix, initial, seed, length):
        assert length == cli.MAX_STEPS
        raise MemoryError
    monkeypatch.setattr(sampler, "run_chain", no_memory)
    code, out, err = run(capsys, "sample", "--model", TWO_STATE, "--kernel", "walk",
                         "--target", "mu", "--init", "a", "--steps", str(cli.MAX_STEPS))
    assert (code, out) == (2, "")
    assert err == f"error: --steps {cli.MAX_STEPS}: no memory for a trace that long\n"


SAMPLE = ["sample", "--model", TWO_STATE, "--kernel", "walk", "--target", "mu",
          "--init", "a"]


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_sample_steps_must_be_positive(capsys, steps):
    with pytest.raises(SystemExit) as exc:
        main([*SAMPLE, "--steps", steps])
    assert exc.value.code == 2
    assert f"argument --steps: expected a positive integer, got '{steps}'" \
        in capsys.readouterr().err


def test_sample_refuses_more_steps_than_the_bound_at_once(capsys, monkeypatch):
    """A count past ``MAX_STEPS`` is refused before the model is read: no
    matrix, no trace, nothing allocated in proportion to the count."""
    from finkern import sampler

    def never(*args):
        raise AssertionError("sample ran")
    monkeypatch.setattr(sampler, "to_float", never)
    monkeypatch.setattr(sampler, "run_chain", never)
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main([*SAMPLE, "--steps", str(10**12)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == 2
    assert f"--steps: at most {cli.MAX_STEPS}, got {10**12}" in capsys.readouterr().err
    assert peak < 2**20


@pytest.mark.parametrize("burn", ["10", "11", "-1"])
def test_sample_burn_must_lie_below_the_steps(capsys, burn):
    with pytest.raises(SystemExit) as exc:
        main([*SAMPLE, "--steps", "10", "--burn", burn])
    assert exc.value.code == 2
    assert f"--burn: expected 0 <= burn < --steps, got {burn}" in capsys.readouterr().err


def test_a_malformed_init_label_names_its_flag(capsys):
    code, out, err = run(capsys, *SAMPLE[:-1], "((", "--steps", "10")
    assert (code, out) == (2, "")
    assert err == "error: --init: unexpected end of document, expected a label\n"


def test_a_malformed_obs_label_names_its_flag(capsys):
    code, out, err = run(capsys, "exchange", "--model", EXCHANGE, "--prior", "prior",
                         "--likelihood", "lik", "--obs", "z1 z2", "--proposal", "q")
    assert (code, out) == (2, "")
    assert err == "error: --obs: trailing input after label: 'z2'\n"


def test_readme_lists_exactly_the_check_predicates():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = set(re.findall(r"^\| `([a-z-]+)` \|", readme, re.MULTILINE))
    assert listed == set(cli.CHECKS)


def test_every_package_export_resolves():
    import finkern

    init = Path(finkern.__file__).read_text()
    imported = [(node.module, alias.name)
                for node in ast.walk(ast.parse(init))
                if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"finkern.{module}")
        assert getattr(finkern, name) is getattr(source, name)


def test_missing_model_file(capsys):
    code, _, err = run(capsys, "check", "--model", "/nonexistent.fk",
                       "normalized", "walk")
    assert code == 2
    assert "does not exist" in err


def test_model_error_reported_with_line(capsys, tmp_path):
    bad = tmp_path / "bad.fk"
    bad.write_text("space X { a }\nmeasure m on X { a = 3/0 }\n")
    code, _, err = run(capsys, "check", "--model", str(bad), "normalized", "m")
    assert code == 2
    assert "line 2" in err


def test_exchange_with_infinite_prior_is_a_model_error(capsys, tmp_path):
    model = tmp_path / "inf_prior.fk"
    model.write_text(Path(EXCHANGE).read_text().replace(
        "t1 = 1/2  t2 = 1/2", "t1 = inf  t2 = 1/2"))
    code, out, err = run(capsys, "exchange", "--model", str(model),
                         "--prior", "prior", "--likelihood", "lik",
                         "--obs", "z1", "--proposal", "q")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


def test_arithmetic_error_exits_2(capsys, monkeypatch):
    import finkern.cli as cli
    from finkern.semiring import SemiringDivisionError

    def divide(*args):
        raise SemiringDivisionError("oo/oo is undefined")
    monkeypatch.setattr(cli, "gibbs", divide)
    code, _, err = run(capsys, "gibbs", "--model", GIBBS,
                       "--target", "joint", "--factors", "X,Y")
    assert code == 2
    assert err == "error: oo/oo is undefined\n"


def test_model_path_that_is_a_directory_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "check", "--model", str(tmp_path),
                         "normalized", "walk")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Is a directory" in err


def test_unwritable_out_exits_2_after_the_check(capsys, tmp_path):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run(capsys, "check", "--model", TWO_STATE, "normalized",
                         "walk", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert "Traceback" not in err


def test_instances_env_is_read_only_by_a_bare_instances(capsys, monkeypatch):
    monkeypatch.setenv("FINKERN_INSTANCES", "abc")
    code, out, _ = run(capsys, "check", "--model", TWO_STATE, "normalized", "walk")
    assert code == 0
    assert report_dict(out)["result"] == "true"
    code, out, _ = run(capsys, "verify-mh", "--model", TWO_STATE,
                       "--instances", "3")
    assert code == 0
    assert report_dict(out)["instances"] == "3"


@pytest.mark.parametrize("value", ["abc", "0", "-3", ""])
def test_bad_instances_env_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("FINKERN_INSTANCES", value)
    with pytest.raises(SystemExit) as exc:
        main(["verify-mh", "--model", TWO_STATE, "--instances"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"FINKERN_INSTANCES: expected a positive integer, got {value!r}" in err


@pytest.mark.parametrize("value", ["-3", "0", "x"])
def test_non_positive_instances_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify-mh", "--model", TWO_STATE, "--instances", value])
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("flags,named", [
    (["--target", "mu", "--involution", "flip", "--acceptance", "alpha_bad"],
     "--target, --involution, --acceptance"),
    (["--balancing", "met"], "--balancing"),
], ids=["one-problem", "balancing"])
def test_verify_mh_batch_rejects_single_instance_flags(capsys, flags, named):
    with pytest.raises(SystemExit) as exc:
        main(["verify-mh", "--model", TWO_STATE, *flags, "--instances", "3"])
    assert exc.value.code == 2
    assert f"--instances takes none of {named}" in capsys.readouterr().err


@pytest.mark.parametrize("env,flags,message", [
    ("abc", ["--instances"], "FINKERN_INSTANCES: expected a positive integer"),
    (None, ["--target", "mu", "--instances", "3"], "--instances takes none of --target"),
    (None, ["--target", "mu"], "verify-mh needs --target and --involution"),
], ids=["bad-env", "batch-with-problem-flags", "missing-involution"])
def test_verify_mh_usage_errors_show_its_own_usage(capsys, monkeypatch, env,
                                                  flags, message):
    if env is None:
        monkeypatch.delenv("FINKERN_INSTANCES", raising=False)
    else:
        monkeypatch.setenv("FINKERN_INSTANCES", env)
    with pytest.raises(SystemExit) as exc:
        main(["verify-mh", "--model", TWO_STATE, *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: finkern verify-mh [-h] --model MODEL")
    assert f"finkern verify-mh: error: {message}" in err


@pytest.mark.parametrize("text,message", [
    (None, "does not exist"),
    ("space X { a }\nmeasure m on X { a = 3/0 }\n", "line 2"),
], ids=["missing", "malformed"])
def test_verify_mh_batch_reads_the_model(capsys, tmp_path, text, message):
    model = tmp_path / "batch.fk"
    if text is not None:
        model.write_text(text)
    code, out, err = run(capsys, "verify-mh", "--model", str(model),
                         "--instances", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_decompose_rejects_an_ambiguous_name(capsys, tmp_path):
    model = tmp_path / "ambiguous.fk"
    model.write_text("""
space X { a b }
measure mu on X { a = 1  b = 1 }
measure s on X { a = 1 }
involution s on X { a -> b  b -> a }
""")
    code, out, err = run(capsys, "decompose", "--model", str(model), "mu", "s")
    assert code == 2
    assert out == ""
    assert "ambiguous" in err


SAMPLED_CHAIN = """
kernel mh_chain : X -> X {
  a -> b = 1
  b -> a = 1/2
  b -> b = 1/2
}
"""


@pytest.mark.parametrize("text,kernel,invariant", [
    (PREDICATE_MODEL, "walk", "false"),
    (Path(TWO_STATE).read_text() + SAMPLED_CHAIN, "mh_chain", "true"),
], ids=["walk", "mh_chain"])
def test_sample_reports_whether_the_chain_keeps_the_target(
        capsys, tmp_path, text, kernel, invariant):
    model = tmp_path / "sample.fk"
    model.write_text(text)
    code, out, _ = run(capsys, "sample", "--model", str(model), "--kernel", kernel,
                       "--target", "mu", "--init", "a", "--steps", "100")
    assert code == 0
    assert report_dict(out)["invariant"] == invariant


def test_sample_rejects_a_kernel_between_two_spaces(capsys, tmp_path):
    model = tmp_path / "lik.fk"
    model.write_text(Path(TWO_STATE).read_text() + """
space Y { u v }
kernel lik : X -> Y { a -> u = 1  b -> v = 1 }
""")
    code, out, err = run(capsys, "sample", "--model", str(model), "--kernel", "lik",
                         "--target", "mu", "--init", "a", "--steps", "100")
    assert code == 2
    assert out == ""
    assert err == "error: target and kernel live on different spaces\n"

def test_verify_mh_batch_reports_its_rng(capsys):
    code, out, _ = run(capsys, "verify-mh", "--model", TWO_STATE,
                       "--seed", "4", "--instances", "5")
    assert code == 0
    report = report_dict(out)
    assert report["rng"] == "python-mersenne-twister"
    assert "disagreement_instance" not in report
    assert not out.startswith("#")  # no document follows the report


def test_verify_mh_batch_emits_a_replayable_disagreement(capsys, monkeypatch,
                                                         tmp_path):
    import random

    from finkern.generators import rand_mh_problem
    from finkern.mcmc import TheoremFlags, verify_mh_theorem

    calls = []

    def third_disagrees(problem):
        calls.append(problem)
        flags = verify_mh_theorem(problem)
        if len(calls) == 3:
            return TheoremFlags(flags.reversible, not flags.reversible)
        return flags
    monkeypatch.setattr(cli, "verify_mh_theorem", third_disagrees)
    code, out, _ = run(capsys, "verify-mh", "--model", TWO_STATE,
                       "--seed", "7", "--instances", "5")
    assert code == 1
    report = report_dict(out)
    assert (report["flags_agree"], report["result"]) == ("4", "false")
    assert report["disagreement_instance"] == "2"
    assert report["replay"] == ("verify-mh --target mu --involution phi "
                                "--acceptance alpha")

    rng = random.Random(7)
    problem = [rand_mh_problem(rng) for _ in range(3)][2]
    assert problem == calls[2]
    doc = parse(out)
    assert doc.measures["mu"] == problem.target
    assert doc.involutions["phi"] == problem.involution
    assert doc.probabilities["alpha"] == problem.acceptance

    monkeypatch.undo()
    replay = tmp_path / "disagreement.fk"
    replay.write_text(out)
    code, out, _ = run(capsys, "verify-mh", "--model", str(replay),
                       *report["replay"].split()[1:])
    flags = verify_mh_theorem(problem)
    assert code == (0 if flags.reversible else 1)
    replayed = report_dict(out)
    assert replayed["reversible"] == str(flags.reversible).lower()
    assert replayed["flags_agree"] == "true"



MH_FLAGS = ("--target", "mu", "--involution", "flip")
MH_KEYS = ["command", "target", "involution", "acceptance"]
THEOREM_KEYS = ["balanced", "flags_agree"]
PAIR_KEYS = ["witness_x", "witness_y", "left", "right"]
REPORT_KEYS = {
    "check": (["check", "--model", TWO_STATE, "normalized", "walk"],
              ["command", "predicate", "args", "result"]),
    "check-witness": (["check", "--model", TWO_STATE, "reversible", "mu", "walk"],
                      ["command", "predicate", "args", "result", *PAIR_KEYS]),
    "decompose": (["decompose", "--model", DECOMPOSE, "mu", "swap_ab"],
                  ["command", "S"]),
    "build-mh": (["build-mh", "--model", TWO_STATE, *MH_FLAGS, "--balancing", "met"],
                 [*MH_KEYS, "normalized"]),
    "verify-mh": (["verify-mh", "--model", TWO_STATE, *MH_FLAGS,
                   "--acceptance", "alpha"],
                  [*MH_KEYS, "reversible", *THEOREM_KEYS]),
    "verify-mh-witness": (["verify-mh", "--model", TWO_STATE, *MH_FLAGS,
                           "--acceptance", "alpha_bad"],
                          [*MH_KEYS, "reversible", *THEOREM_KEYS, "witness_kind",
                           *PAIR_KEYS, "witness_balancing"]),
    "verify-mh-batch": (["verify-mh", "--model", TWO_STATE, "--instances", "5",
                         "--seed", "4"],
                        ["command", "mode", "rng", "seed", "instances",
                         "flags_agree", "result"]),
    "verify-skew": (["verify-skew", "--model", SKEW, "--target", "mu",
                     "--involution", "prop", "--balancing", "bk", "--twist", "twist"],
                    ["command", "target", "involution", "twist", "acceptance",
                     "skew_reversible", *THEOREM_KEYS]),
    "classical-mh": (["classical-mh", "--model", CLASSICAL, "--target", "pi",
                      "--proposal", "q"],
                     ["command", "target", "proposal", "routes_equal",
                      "reversible_via_involution", "reversible_direct"]),
    "exchange": (["exchange", "--model", EXCHANGE, "--prior", "prior",
                  "--likelihood", "lik", "--obs", "z1", "--proposal", "q"],
                 ["command", "prior", "likelihood", "observed", "proposal",
                  "balanced"]),
    "gibbs": (["gibbs", "--model", GIBBS, "--target", "joint", "--factors", "X,Y"],
              ["command", "target", "factors", "invariant"]),
    "sample": (["sample", "--model", TWO_STATE, "--kernel", "walk", "--target", "mu",
                "--init", "a", "--steps", "100"],
               ["command", "kernel", "target", "rng", "seed", "init", "steps",
                "burn", "freq_a", "freq_b", "tv_to_target", "invariant"]),
}


@pytest.mark.parametrize("case", REPORT_KEYS)
def test_report_keys_in_order(capsys, case):
    argv, keys = REPORT_KEYS[case]
    _, out, _ = run(capsys, *argv)
    # with a document on stdout, the report is its "# "-prefixed head
    lines = out.splitlines()
    if out.startswith("# "):
        lines = [l[2:] for l in lines if l.startswith("# ")]
    assert [l.partition(" = ")[0] for l in lines] == keys
