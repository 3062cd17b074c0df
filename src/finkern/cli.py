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

from .semiring import ext_sum
from .spaces import FinSpace
from .kernels import (
    Involution, Kernel, SpaceMismatchError, compose, copyable_violation,
    is_normalized, normalized_violation, substochastic_violation,
)
from .enrichment import (
    abs_cont_violation, ae_violation, cancellative_violation,
    equivalent_violation, finite_violation, involutive_decompose,
    lebesgue_decompose, leq_violation, singular_violation, support_labels,
)
from .mcmc import (
    BALANCING_FUNCTIONS, MhProblem, balancing_alpha, balancing_violation,
    build_mh, build_skew_mh, classical_mh, detailed_balance_violation,
    exchange_algorithm, gibbs, invariant_violation, is_invariant,
    is_reversible, skew_balance_violation, verify_mh_theorem,
    _skew_pair_violation,
)
from .modelfile import (
    ModelDocument, ModelError, emit, format_label, parse, parse_label,
)

DEFAULT_INSTANCES = 1000
INSTANCES_ENV = "FINKERN_INSTANCES"  # read only for a bare --instances


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

    def extend(self, pairs) -> None:
        for key, value in pairs:
            self.add(key, value)

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


def _row(names, x):
    return [("witness_row", format_label(x))]


def _row_mass(names, x):
    return _row(names, x) + [("row_mass", ext_sum(names[0].row(x)))]


def _entry(names, witness):
    # The entry of the first and the last name (one name: both sides are it).
    x, y = witness
    return [("witness_x", format_label(x)), ("witness_y", format_label(y)),
            ("left", names[0].entry(x, y)), ("right", names[-1].entry(x, y))]


def _pushed(names, y):
    # Invariance fails at y: the target and its image under the chain differ.
    target, chain = names
    return _entry((target, compose(chain, target)), ("*", y))


def _pair(names, pair):
    # Both sides of the failed detailed-balance identity at (x, y); with a
    # twist s between target and chain, the right side is
    # target[y] * (s∘chain∘s)[y][x] = target[y] * chain[s(y)][s(x)].
    target, *twist, chain = names
    x, y = pair
    back = (twist[0](y), twist[0](x)) if twist else (y, x)
    return [("witness_x", format_label(x)), ("witness_y", format_label(y)),
            ("left", target.entry("*", x) * chain.entry(x, y)),
            ("right", target.entry("*", y) * chain.entry(*back))]


def _point(names, x):
    return [("witness_point", format_label(x))]


def _balancing_violation(target, phi, accept):
    return balancing_violation(MhProblem(target, phi, accept))


# predicate -> (one lookup per name, violation function, witness formatter);
# a formatter turns the resolved names and the witness into report lines.
_KERNEL = (_kernel_like,)
_KERNELS = (_kernel_like, _kernel_like)
CHECKS = {
    "normalized": (_KERNEL, normalized_violation, _row_mass),
    "copyable": (_KERNEL, copyable_violation, _row),
    "substochastic": (_KERNEL, substochastic_violation, _row_mass),
    "cancellative": (_KERNEL, cancellative_violation, _entry),
    "finite": (_KERNEL, finite_violation, _row_mass),
    "leq": (_KERNELS, leq_violation, _entry),
    "abs-cont": (_KERNELS, abs_cont_violation, _entry),
    "equivalent": (_KERNELS, equivalent_violation, _entry),
    "singular": (_KERNELS, singular_violation, _entry),
    "invariant": ((_measure, _kernel_like), invariant_violation, _pushed),
    "reversible": ((_measure, _kernel_like), detailed_balance_violation, _pair),
    "skew-reversible": ((_measure, _involution, _kernel_like),
                        skew_balance_violation, _pair),
    "balanced": ((_measure, _involution, _effect_like),
                 _balancing_violation, _point),
    "ae-equal": ((_measure, _kernel_like, _kernel_like), ae_violation, _point),
}


def _cmd_check(args) -> int:
    doc = _load_model(args)
    if args.predicate not in CHECKS:
        raise CliError(f"unknown predicate {args.predicate!r}; choose from "
                       + ", ".join(sorted(CHECKS)))
    lookups, violation, witness_lines = CHECKS[args.predicate]
    if len(args.names) != len(lookups):
        raise CliError(f"predicate {args.predicate!r} takes {len(lookups)} name(s)")
    names = [lookup(doc, name) for lookup, name in zip(lookups, args.names)]
    witness = violation(*names)
    report = Report()
    report.add("command", "check")
    report.add("predicate", args.predicate)
    report.add("args", " ".join(args.names))
    report.add("result", witness is None)
    if witness is not None:
        report.extend(witness_lines(names, witness))
    _write_output(report, None, args.out)
    return 0 if witness is None else 1


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


#: The verify-mh flags that read back a document made by ``_mh_document``.
_REPLAY = "verify-mh --target mu --involution phi --acceptance alpha"


def _mh_document(space_name: str, target: Kernel, phi: Involution,
                 accept: Kernel) -> ModelDocument:
    """An MH problem as a document: measure mu, involution phi, probability alpha."""
    doc = ModelDocument()
    doc.add_space(space_name, target.cod)
    doc.measures["mu"] = target
    doc.involutions["phi"] = phi
    doc.probabilities["alpha"] = accept
    return doc


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


def _theorem_report(report: Report, flag: str, names, pair, point) -> bool:
    """Both sides of a reversibility theorem, each with its own witness."""
    report.add(flag, pair is None)
    report.add("balanced", point is None)
    report.add("flags_agree", (pair is None) == (point is None))
    if pair is not None:
        report.add("witness_kind", "detailed-balance")
        report.extend(_pair(names, pair))
    if point is not None:
        report.add("witness_balancing", format_label(point))
    return pair is None


def _cmd_verify_mh(args) -> int:
    if args.instances:
        return _verify_batch(args)
    doc = _load_model(args)
    problem, accept_name = _mh_problem(doc, args)
    chain = build_mh(problem)
    report = Report()
    report.add("command", "verify-mh")
    report.add("target", args.target)
    report.add("involution", args.involution)
    report.add("acceptance", accept_name)
    ok = _theorem_report(report, "reversible", (problem.target, chain),
                         detailed_balance_violation(problem.target, chain),
                         balancing_violation(problem))
    _write_output(report, None, args.out)
    return 0 if ok else 1


def _verify_batch(args) -> int:
    """A seeded theorem batch; the first disagreeing instance, if any, is
    emitted as a document that single-instance verify-mh replays."""
    import random

    from .generators import rand_mh_problem
    from .sampler import RNG_NAME

    count = args.instances
    rng = random.Random(args.seed)
    agree = 0
    disagreement = None  # (instance index, problem)
    for index in range(count):
        problem = rand_mh_problem(rng)
        flags = verify_mh_theorem(problem)
        if flags.reversible == flags.balanced:
            agree += 1
        elif disagreement is None:
            disagreement = index, problem
    report = Report()
    report.add("command", "verify-mh")
    report.add("mode", "batch")
    report.add("rng", RNG_NAME)
    report.add("seed", args.seed)
    report.add("instances", count)
    report.add("flags_agree", agree)
    report.add("result", agree == count)
    doc_text = None
    if disagreement is not None:
        index, problem = disagreement
        report.add("disagreement_instance", index)
        report.add("replay", _REPLAY)
        doc_text = emit(_mh_document("X", problem.target, problem.involution,
                                     problem.acceptance))
    _write_output(report, doc_text, args.out)
    return 0 if agree == count else 1


def _cmd_verify_skew(args) -> int:
    doc = _load_model(args)
    problem, accept_name = _mh_problem(doc, args)
    twist = _involution(doc, args.twist)
    chain = build_skew_mh(problem, twist)
    report = Report()
    report.add("command", "verify-skew")
    report.add("target", args.target)
    report.add("involution", args.involution)
    report.add("twist", args.twist)
    report.add("acceptance", accept_name)
    ok = _theorem_report(report, "skew_reversible", (problem.target, twist, chain),
                         _skew_pair_violation(problem.target, twist, chain),
                         balancing_violation(problem))
    _write_output(report, None, args.out)
    return 0 if ok else 1


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
    point = balancing_violation(
        MhProblem(target=augmented, involution=phi, acceptance=accept))
    out_doc = _mh_document("augmented", augmented, phi, accept)
    report = Report()
    report.add("command", "exchange")
    report.add("prior", args.prior)
    report.add("likelihood", args.likelihood)
    report.add("observed", args.obs)
    report.add("proposal", args.proposal)
    report.add("balanced", point is None)
    if point is not None:
        report.add("witness_balancing", format_label(point))
    _write_output(report, emit(out_doc), args.out)
    return 0 if point is None else 1


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
    from .sampler import empirical, run_chain, to_float, tv_distance

    doc = _load_model(args)
    chain = _lookup(doc, args.kernel, {"kernel": doc.kernels})
    target = _measure(doc, args.target)
    if target.cod != chain.dom:
        raise CliError("target and kernel live on different spaces")
    if not is_normalized(target):
        raise CliError(f"target {args.target!r} is not a probability measure "
                       f"(total mass {ext_sum(target.rows[0][1])})")
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


def _count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finkern",
        description="Exact kernel calculus checks and MCMC builders on finite spaces.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--model", required=True, help="model file path")
        p.add_argument("--out", help="write the report or document here")

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

    for name, fn in (("build-mh", _cmd_build_mh),
                     ("verify-mh", _cmd_verify_mh),
                     ("verify-skew", _cmd_verify_skew)):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--target", required=(name != "verify-mh"))
        p.add_argument("--involution", required=(name != "verify-mh"))
        p.add_argument("--acceptance")
        p.add_argument("--balancing")
        if name == "verify-mh":
            p.add_argument("--seed", type=int, default=0, help="PRNG seed")
            # a bare --instances leaves None, for main to read the count
            # from the environment
            p.add_argument("--instances", type=_count, nargs="?", const=None,
                           default=0, help="run a randomized theorem batch "
                           f"instead (bare: ${INSTANCES_ENV} or {DEFAULT_INSTANCES})")
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
    p.add_argument("--seed", type=int, default=0, help="PRNG seed")
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
    if args.subcommand == "verify-mh":
        if args.instances is None:
            text = os.environ.get(INSTANCES_ENV)
            try:
                args.instances = DEFAULT_INSTANCES if text is None else _count(text)
            except argparse.ArgumentTypeError as exc:
                parser.error(f"{INSTANCES_ENV}: {exc}")
        if not args.instances and not (args.target and args.involution):
            parser.error("verify-mh needs --target and --involution "
                         "(or --instances for batch mode)")
    try:
        return args.func(args)
    except (CliError, ModelError, SpaceMismatchError, ValueError, KeyError,
            ArithmeticError, OSError) as exc:
        # str() of a KeyError quotes its message; that of an OSError or a
        # UnicodeDecodeError joins its several args into one sentence
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
