"""Command-line front door: parse a model file, run checks and builders,
emit line-oriented reports with witnesses for failures.

Reports are ``key = value`` lines with a stable schema. Built artifacts
(kernels, measures, decompositions) are emitted in the model file format;
when they share stdout with a report, the report lines are ``#``-prefixed so
the output stays parseable. Exit status is 0 on pass or successful build,
1 on a failed check (with a witness section), 2 on usage or model errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .semiring import ONE, ZERO
from .spaces import FinSpace
from .kernels import (
    Involution, Kernel, SpaceMismatchError, compose, is_copyable,
    is_normalized, is_substochastic, lift_involution, row_masses,
)
from .enrichment import (
    abs_cont, ae_violation, equivalent, involutive_decompose, is_cancellative,
    is_finite_morphism, is_singular, lebesgue_decompose, leq_kernel,
    support_labels,
)
from .mcmc import (
    BALANCING_FUNCTIONS, MhProblem, balancing_alpha, balancing_violation,
    build_mh, build_skew_mh, check_balancing, classical_mh,
    detailed_balance_violation, exchange_algorithm, gibbs, is_invariant,
    is_reversible, is_skew_reversible, verify_mh_theorem,
    verify_skew_theorem,
)
from .generators import rand_mh_problem
from .modelfile import (
    ModelDocument, ModelError, emit, format_label, parse, parse_label,
)
from .sampler import empirical, run_chain, to_float, tv_distance

DEFAULT_INSTANCES = 1000
INSTANCES_ENV = "FINKERN_INSTANCES"


class CliError(Exception):
    """A user-facing problem: bad reference, bad flag combination."""


# ---------------------------------------------------------------------------
# report plumbing


class Report:
    def __init__(self):
        self.lines: list[tuple[str, str]] = []

    def add(self, key: str, value) -> None:
        if isinstance(value, bool):
            value = "true" if value else "false"
        self.lines.append((key, str(value)))

    def text(self, comment: bool = False) -> str:
        prefix = "# " if comment else ""
        return "".join(f"{prefix}{key} = {value}\n" for key, value in self.lines)


def _write_output(report: Report, doc_text: str | None, out: str | None) -> None:
    if doc_text is None:
        body = report.text()
        if out:
            Path(out).write_text(body)
        else:
            sys.stdout.write(body)
    elif out:
        Path(out).write_text(doc_text)
        sys.stdout.write(report.text())
    else:
        sys.stdout.write(report.text(comment=True))
        sys.stdout.write(doc_text)


# ---------------------------------------------------------------------------
# model lookups


def _load_model(args) -> ModelDocument:
    path = Path(args.model)
    if not path.exists():
        raise CliError(f"model file {path} does not exist")
    return parse(path.read_text())


def _lookup(doc: ModelDocument, name: str, stores: dict[str, dict]):
    hits = [(kind, store[name]) for kind, store in stores.items() if name in store]
    if not hits:
        kinds = "/".join(stores)
        raise CliError(f"no {kinds} named {name!r} in the model")
    if len(hits) > 1:
        raise CliError(f"name {name!r} is ambiguous across kinds "
                       + "/".join(kind for kind, _ in hits))
    return hits[0][1]


def _kernel_like(doc: ModelDocument, name: str) -> Kernel:
    return _lookup(doc, name, {"kernel": doc.kernels, "measure": doc.measures,
                               "effect": doc.effects,
                               "probability": doc.probabilities})


def _measure(doc: ModelDocument, name: str) -> Kernel:
    return _lookup(doc, name, {"measure": doc.measures})


def _effect_like(doc: ModelDocument, name: str) -> Kernel:
    return _lookup(doc, name, {"probability": doc.probabilities,
                               "effect": doc.effects})


def _involution(doc: ModelDocument, name: str) -> Involution:
    return _lookup(doc, name, {"involution": doc.involutions})


def _acceptance(doc: ModelDocument, args, target: Kernel,
                phi: Involution) -> tuple[Kernel, str]:
    """Resolve --acceptance NAME or --balancing NAME into an effect."""
    if args.acceptance and args.balancing:
        raise CliError("pass either --acceptance or --balancing, not both")
    if args.acceptance:
        return _effect_like(doc, args.acceptance), args.acceptance
    if args.balancing:
        key = doc.balancing.get(args.balancing, args.balancing)
        if key not in BALANCING_FUNCTIONS:
            raise CliError(f"unknown balancing function {key!r}")
        return balancing_alpha(BALANCING_FUNCTIONS[key], target, phi), key
    raise CliError("an acceptance is required: --acceptance or --balancing")


def _mh_problem(doc: ModelDocument, args) -> tuple[MhProblem, str]:
    target = _measure(doc, args.target)
    phi = _involution(doc, args.involution)
    accept, accept_name = _acceptance(doc, args, target, phi)
    return MhProblem(target=target, involution=phi, acceptance=accept), accept_name


# ---------------------------------------------------------------------------
# the check registry


def _row_witness(kernel: Kernel, predicate) -> list[tuple[str, str]]:
    for x, mass in zip(kernel.dom.labels, row_masses(kernel)):
        if not predicate(mass):
            return [("witness_row", format_label(x)), ("row_mass", str(mass))]
    return []


def _entry_witness(p: Kernel, q: Kernel, bad) -> list[tuple[str, str]]:
    # Every ``bad`` is false where both entries are zero, so only the
    # positions where p or q is nonzero are visited, in row-major order.
    for x, r1, r2 in zip(p.dom.labels, p.rows, q.rows):
        left, right = dict(zip(*r1)), dict(zip(*r2))
        for j in sorted(left.keys() | right.keys()):
            a, b = left.get(j, ZERO), right.get(j, ZERO)
            if bad(a, b):
                return [("witness_x", format_label(x)),
                        ("witness_y", format_label(p.cod.labels[j])),
                        ("left", str(a)), ("right", str(b))]
    return []


def _check_normalized(doc, names):
    k = _kernel_like(doc, names[0])
    return is_normalized(k), _row_witness(k, lambda m: m == ONE)


def _check_substochastic(doc, names):
    k = _kernel_like(doc, names[0])
    return is_substochastic(k), _row_witness(k, lambda m: m <= ONE)


def _check_copyable(doc, names):
    return is_copyable(_kernel_like(doc, names[0])), []


def _check_cancellative(doc, names):
    k = _kernel_like(doc, names[0])
    ok = is_cancellative(k)
    witness = [] if ok else _entry_witness(k, k, lambda a, b: not a.is_finite)
    return ok, witness


def _check_finite(doc, names):
    k = _kernel_like(doc, names[0])
    return is_finite_morphism(k), _row_witness(k, lambda m: m.is_finite)


def _check_leq(doc, names):
    p, q = (_kernel_like(doc, n) for n in names)
    return leq_kernel(p, q), _entry_witness(p, q, lambda a, b: not a <= b)


def _check_abs_cont(doc, names):
    p, q = (_kernel_like(doc, n) for n in names)
    return abs_cont(p, q), _entry_witness(
        p, q, lambda a, b: b.num == 0 and a.num != 0)


def _check_equivalent(doc, names):
    p, q = (_kernel_like(doc, n) for n in names)
    return equivalent(p, q), _entry_witness(
        p, q, lambda a, b: (a.num == 0) != (b.num == 0))


def _check_singular(doc, names):
    p, q = (_kernel_like(doc, n) for n in names)
    return is_singular(p, q), _entry_witness(
        p, q, lambda a, b: a.num != 0 and b.num != 0)


def _check_invariant(doc, names):
    target = _measure(doc, names[0])
    chain = _kernel_like(doc, names[1])
    ok = is_invariant(target, chain)
    witness = []
    if not ok:
        pushed = compose(chain, target)
        witness = _entry_witness(target, pushed, lambda a, b: a != b)
    return ok, witness


def _check_reversible(doc, names):
    target = _measure(doc, names[0])
    chain = _kernel_like(doc, names[1])
    pair = detailed_balance_violation(target, chain)
    witness = []
    if pair is not None:
        x, y = pair
        witness = [("witness_x", format_label(x)), ("witness_y", format_label(y)),
                   ("left", str(target.entry("*", x) * chain.entry(x, y))),
                   ("right", str(target.entry("*", y) * chain.entry(y, x)))]
    return pair is None, witness


def _check_skew_reversible(doc, names):
    target = _measure(doc, names[0])
    twist = _involution(doc, names[1])
    chain = _kernel_like(doc, names[2])
    return is_skew_reversible(target, twist, chain), []


def _check_balanced(doc, names):
    target = _measure(doc, names[0])
    phi = _involution(doc, names[1])
    accept = _effect_like(doc, names[2])
    problem = MhProblem(target=target, involution=phi, acceptance=accept)
    point = balancing_violation(problem)
    witness = [] if point is None else [("witness_point", format_label(point))]
    return point is None, witness


def _check_ae_equal(doc, names):
    target = _measure(doc, names[0])
    p = _kernel_like(doc, names[1])
    q = _kernel_like(doc, names[2])
    point = ae_violation(target, p, q)
    witness = [] if point is None else [("witness_point", format_label(point))]
    return point is None, witness


CHECKS = {
    "normalized": (1, _check_normalized),
    "copyable": (1, _check_copyable),
    "substochastic": (1, _check_substochastic),
    "cancellative": (1, _check_cancellative),
    "finite": (1, _check_finite),
    "leq": (2, _check_leq),
    "abs-cont": (2, _check_abs_cont),
    "equivalent": (2, _check_equivalent),
    "singular": (2, _check_singular),
    "invariant": (2, _check_invariant),
    "reversible": (2, _check_reversible),
    "skew-reversible": (3, _check_skew_reversible),
    "balanced": (3, _check_balanced),
    "ae-equal": (3, _check_ae_equal),
}


def _cmd_check(args) -> int:
    doc = _load_model(args)
    if args.predicate not in CHECKS:
        raise CliError(f"unknown predicate {args.predicate!r}; choose from "
                       + ", ".join(sorted(CHECKS)))
    arity, fn = CHECKS[args.predicate]
    if len(args.names) != arity:
        raise CliError(f"predicate {args.predicate!r} takes {arity} name(s)")
    ok, witness = fn(doc, args.names)
    report = Report()
    report.add("command", "check")
    report.add("predicate", args.predicate)
    report.add("args", " ".join(args.names))
    report.add("result", ok)
    for key, value in witness:
        report.add(key, value)
    _write_output(report, None, args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# decompose


def _cmd_decompose(args) -> int:
    doc = _load_model(args)
    first = _lookup(doc, args.names[0],
                    {"measure": doc.measures, "kernel": doc.kernels})
    report = Report()
    report.add("command", "decompose")
    out_doc = ModelDocument()
    if args.names[1] in doc.involutions:
        phi = doc.involutions[args.names[1]]
        s, decomposition = involutive_decompose(first, phi)
        space = first.cod
        out_doc.add_space(doc.space_name(space), space)
        out_doc.add_space("S", FinSpace(s))
        out_doc.measures["ac"] = decomposition.ac
        out_doc.measures["si"] = decomposition.si
        report.add("S", " ".join(format_label(x) for x in s))
    else:
        second = _lookup(doc, args.names[1],
                         {"measure": doc.measures, "kernel": doc.kernels})
        decomposition = lebesgue_decompose(first, second)
        if first.is_measure:
            out_doc.add_space(doc.space_name(first.cod), first.cod)
            out_doc.measures["ac"] = decomposition.ac
            out_doc.measures["si"] = decomposition.si
            report.add("S", " ".join(format_label(x)
                                     for x in support_labels(decomposition.ac)))
        else:
            needed = ([first.dom] if first.dom == first.cod
                      else [first.dom, first.cod])
            for space in needed:
                out_doc.add_space(doc.space_name(space), space)
            out_doc.kernels["ac"] = decomposition.ac
            out_doc.kernels["si"] = decomposition.si
    _write_output(report, emit(out_doc), args.out)
    return 0


# ---------------------------------------------------------------------------
# MH builders and verifiers


def _cmd_build_mh(args) -> int:
    doc = _load_model(args)
    problem, accept_name = _mh_problem(doc, args)
    chain = build_mh(problem)
    out_doc = ModelDocument()
    out_doc.add_space(doc.space_name(problem.space), problem.space)
    out_doc.kernels["mh_chain"] = chain
    out_doc.probabilities["acceptance"] = problem.acceptance
    report = Report()
    report.add("command", "build-mh")
    report.add("target", args.target)
    report.add("involution", args.involution)
    report.add("acceptance", accept_name)
    report.add("normalized", is_normalized(chain))
    _write_output(report, emit(out_doc), args.out)
    return 0


def _verify_report(report: Report, problem: MhProblem, chain: Kernel,
                   reversible: bool, balanced: bool) -> None:
    report.add("reversible", reversible)
    report.add("balanced", balanced)
    report.add("flags_agree", reversible == balanced)
    if not reversible:
        pair = detailed_balance_violation(problem.target, chain)
        if pair is not None:
            x, y = pair
            report.add("witness_kind", "detailed-balance")
            report.add("witness_x", format_label(x))
            report.add("witness_y", format_label(y))
            report.add("left", problem.target.entry("*", x) * chain.entry(x, y))
            report.add("right", problem.target.entry("*", y) * chain.entry(y, x))
    if not balanced:
        point = balancing_violation(problem)
        if point is not None:
            report.add("witness_balancing", format_label(point))


def _cmd_verify_mh(args) -> int:
    if args.instances:
        return _verify_batch(args)
    doc = _load_model(args)
    problem, accept_name = _mh_problem(doc, args)
    flags = verify_mh_theorem(problem)
    report = Report()
    report.add("command", "verify-mh")
    report.add("target", args.target)
    report.add("involution", args.involution)
    report.add("acceptance", accept_name)
    _verify_report(report, problem, build_mh(problem), *flags)
    _write_output(report, None, args.out)
    return 0 if flags.reversible else 1


def _verify_batch(args) -> int:
    import random

    count = args.instances
    rng = random.Random(args.seed)
    agree = 0
    disagreement = None
    for _ in range(count):
        problem = rand_mh_problem(rng)
        flags = verify_mh_theorem(problem)
        if flags.reversible == flags.balanced:
            agree += 1
        elif disagreement is None:
            disagreement = problem
    report = Report()
    report.add("command", "verify-mh")
    report.add("mode", "batch")
    report.add("seed", args.seed)
    report.add("instances", count)
    report.add("flags_agree", agree)
    report.add("result", agree == count)
    _write_output(report, None, args.out)
    return 0 if agree == count else 1


def _cmd_verify_skew(args) -> int:
    doc = _load_model(args)
    problem, accept_name = _mh_problem(doc, args)
    twist = _involution(doc, args.twist)
    flags = verify_skew_theorem(problem, twist)
    chain = build_skew_mh(problem, twist)
    report = Report()
    report.add("command", "verify-skew")
    report.add("target", args.target)
    report.add("involution", args.involution)
    report.add("twist", args.twist)
    report.add("acceptance", accept_name)
    report.add("skew_reversible", flags.reversible)
    report.add("balanced", flags.balanced)
    report.add("flags_agree", flags.reversible == flags.balanced)
    if not flags.balanced:
        point = balancing_violation(problem)
        if point is not None:
            report.add("witness_balancing", format_label(point))
    if not flags.reversible:
        # the twisted chain composed with the twist fails plain detailed balance
        pair = detailed_balance_violation(
            problem.target, compose(lift_involution(twist), chain))
        if pair is not None:
            report.add("witness_kind", "detailed-balance")
            report.add("witness_x", format_label(pair[0]))
            report.add("witness_y", format_label(pair[1]))
    _write_output(report, None, args.out)
    return 0 if flags.reversible else 1


def _cmd_classical_mh(args) -> int:
    doc = _load_model(args)
    target = _measure(doc, args.target)
    proposal = _lookup(doc, args.proposal, {"kernel": doc.kernels})
    via, direct = classical_mh(target, proposal)
    equal = via == direct
    rev_via = is_reversible(target, via)
    rev_direct = is_reversible(target, direct)
    out_doc = ModelDocument()
    out_doc.add_space(doc.space_name(target.cod), target.cod)
    out_doc.kernels["mh_chain"] = direct
    report = Report()
    report.add("command", "classical-mh")
    report.add("target", args.target)
    report.add("proposal", args.proposal)
    report.add("routes_equal", equal)
    report.add("reversible_via_involution", rev_via)
    report.add("reversible_direct", rev_direct)
    ok = equal and rev_via and rev_direct
    _write_output(report, emit(out_doc), args.out)
    return 0 if ok else 1


def _cmd_exchange(args) -> int:
    doc = _load_model(args)
    prior = _measure(doc, args.prior)
    likelihood = _lookup(doc, args.likelihood, {"kernel": doc.kernels})
    proposal = _lookup(doc, args.proposal, {"kernel": doc.kernels})
    observed = parse_label(args.obs)
    augmented, phi, accept = exchange_algorithm(prior, likelihood, observed, proposal)
    problem = MhProblem(target=augmented, involution=phi, acceptance=accept)
    balanced = check_balancing(problem)
    out_doc = ModelDocument()
    out_doc.add_space("augmented", augmented.cod)
    out_doc.measures["mu"] = augmented
    out_doc.involutions["phi"] = phi
    out_doc.probabilities["alpha"] = accept
    report = Report()
    report.add("command", "exchange")
    report.add("prior", args.prior)
    report.add("likelihood", args.likelihood)
    report.add("observed", args.obs)
    report.add("proposal", args.proposal)
    report.add("balanced", balanced)
    if not balanced:
        point = balancing_violation(problem)
        if point is not None:
            report.add("witness_balancing", format_label(point))
    _write_output(report, emit(out_doc), args.out)
    return 0 if balanced else 1


def _cmd_gibbs(args) -> int:
    doc = _load_model(args)
    joint = _measure(doc, args.target)
    factors = []
    for name in args.factors.split(","):
        name = name.strip()
        if name not in doc.spaces:
            raise CliError(f"unknown space {name!r} in --factors")
        factors.append(doc.spaces[name])
    chain = gibbs(joint, factors)
    invariant = is_invariant(joint, chain)
    out_doc = ModelDocument()
    out_doc.add_space(doc.space_name(joint.cod), joint.cod)
    out_doc.kernels["gibbs_chain"] = chain
    report = Report()
    report.add("command", "gibbs")
    report.add("target", args.target)
    report.add("factors", args.factors)
    report.add("invariant", invariant)
    _write_output(report, emit(out_doc), args.out)
    return 0 if invariant else 1


def _cmd_sample(args) -> int:
    doc = _load_model(args)
    chain = _lookup(doc, args.kernel, {"kernel": doc.kernels})
    target = _measure(doc, args.target)
    if target.cod != chain.dom:
        raise CliError("target and kernel live on different spaces")
    initial_label = parse_label(args.init)
    initial = chain.dom.index(initial_label)
    matrix = to_float(chain)
    run = run_chain(matrix, initial, args.seed, args.steps)
    frequencies = empirical(run, args.burn)
    target_floats = [v.to_float() for v in target.measure_values()]
    tv = tv_distance(frequencies, target_floats)
    report = Report()
    report.add("command", "sample")
    report.add("kernel", args.kernel)
    report.add("target", args.target)
    report.add("rng", run.rng_name)
    report.add("seed", args.seed)
    report.add("init", args.init)
    report.add("steps", args.steps)
    report.add("burn", args.burn)
    for x, f in zip(chain.dom.labels, frequencies):
        report.add(f"freq_{format_label(x)}", f"{f:.6f}")
    report.add("tv_to_target", f"{tv:.6f}")
    _write_output(report, None, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finkern",
        description="Exact kernel calculus checks and MCMC builders on finite spaces.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--model", required=True, help="model file path")
        p.add_argument("--out", help="write the report or document here")
        p.add_argument("--seed", type=int, default=0, help="PRNG seed")
        default_instances = int(os.environ.get(INSTANCES_ENV, DEFAULT_INSTANCES))
        p.add_argument("--instances", type=int, nargs="?", const=default_instances,
                       default=0, help="run a randomized theorem batch instead")

    p = sub.add_parser("check", help="evaluate a named predicate")
    common(p)
    p.add_argument("predicate", help=", ".join(sorted(CHECKS)))
    p.add_argument("names", nargs="+", help="entity names from the model")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decompose", help="Lebesgue decomposition (kernel/kernel "
                                         "or measure/involution)")
    common(p)
    p.add_argument("names", nargs=2)
    p.set_defaults(func=_cmd_decompose)

    for name, fn, needs_mh in (("build-mh", _cmd_build_mh, True),
                               ("verify-mh", _cmd_verify_mh, True),
                               ("verify-skew", _cmd_verify_skew, True)):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--target", required=(name != "verify-mh"))
        p.add_argument("--involution", required=(name != "verify-mh"))
        p.add_argument("--acceptance")
        p.add_argument("--balancing")
        if name == "verify-skew":
            p.add_argument("--twist", required=True)
        p.set_defaults(func=fn)

    p = sub.add_parser("classical-mh")
    common(p)
    p.add_argument("--target", required=True)
    p.add_argument("--proposal", required=True)
    p.set_defaults(func=_cmd_classical_mh)

    p = sub.add_parser("exchange")
    common(p)
    p.add_argument("--prior", required=True)
    p.add_argument("--likelihood", required=True)
    p.add_argument("--obs", required=True, help="observed data label")
    p.add_argument("--proposal", required=True)
    p.set_defaults(func=_cmd_exchange)

    p = sub.add_parser("gibbs")
    common(p)
    p.add_argument("--target", required=True)
    p.add_argument("--factors", required=True, help="comma-separated space names")
    p.set_defaults(func=_cmd_gibbs)

    p = sub.add_parser("sample")
    common(p)
    p.add_argument("--kernel", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--burn", type=int, default=0)
    p.set_defaults(func=_cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "verify-mh" and not args.instances:
        if not (args.target and args.involution):
            parser.error("verify-mh needs --target and --involution "
                         "(or --instances for batch mode)")
    try:
        return args.func(args)
    except (CliError, ModelError, SpaceMismatchError, ValueError, KeyError,
            ArithmeticError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
