"""Command-line front door: parse a model file, run checks and builders,
emit line-oriented reports with witnesses for failures.

Reports are ``key = value`` lines with a stable schema. Built artifacts
(kernels, measures, decompositions) are emitted in the model file format;
when they share stdout with a report, the report lines are ``#``-prefixed so
the output stays parseable. Exit status is 0 on pass or successful build,
1 on a failed check (with a witness section), 2 on usage or model errors
and on a run that finds no memory for its work.

Adding a subcommand means adding one handler and one ``COMMANDS`` record.
A handler maps the loaded model and the parsed arguments to ``(ok, report
lines after "command", document or None)``; ``main`` alone loads ``--model``,
writes the output and maps the outcome to the exit status.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .spaces import FinSpace, format_label
from .kernels import (
    Involution, compose, copyable_violation, is_normalized, normalized_violation,
    row_masses, substochastic_violation,
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
)
from .modelfile import ModelDocument, ModelError, emit, parse, parse_label

DEFAULT_INSTANCES = 1000

#: The most steps ``sample`` runs. Its trace holds one byte per step for a
#: chain on at most 256 states, so the longest run takes about 100 MB, and
#: 8 bytes per step for a larger chain, about 800 MB; at about 9 million
#: steps/s it takes about 11 s. A trace that outgrows memory raises
#: ``MemoryError`` during the run.
MAX_STEPS = 10**8


# ---------------------------------------------------------------------------
# model lookups


_STORES = {"kernel": "kernels", "measure": "measures", "effect": "effects",
           "probability": "probabilities", "involution": "involutions"}
# the kinds of entity a name may refer to, in the order the model is searched
_KERNEL = ("kernel", "measure", "effect", "probability")
_MEASURE = ("measure",)
_EFFECT = ("probability", "effect")
_INVOLUTION = ("involution",)


def _lookup(doc: ModelDocument, name: str, kinds: tuple[str, ...]):
    hits = [kind for kind in kinds if name in getattr(doc, _STORES[kind])]
    if not hits:
        raise ValueError(f"no {'/'.join(kinds)} named {name!r} in the model")
    if len(hits) > 1:
        raise ValueError(f"name {name!r} is ambiguous across kinds " + "/".join(hits))
    return getattr(doc, _STORES[hits[0]])[name]


def _mh_problem(doc: ModelDocument, args, twist: str | None = None):
    """The MH problem the flags name, and the report lines echoing those
    names (a twist name goes before the acceptance)."""
    target = _lookup(doc, args.target, _MEASURE)
    phi = _lookup(doc, args.involution, _INVOLUTION)
    if args.acceptance and args.balancing:
        raise ValueError("pass either --acceptance or --balancing, not both")
    if args.acceptance:
        accept, accept_name = _lookup(doc, args.acceptance, _EFFECT), args.acceptance
    elif args.balancing:
        accept_name = doc.balancing.get(args.balancing, args.balancing)
        if accept_name not in BALANCING_FUNCTIONS:
            raise ValueError(f"unknown balancing function {accept_name!r}")
        accept = balancing_alpha(BALANCING_FUNCTIONS[accept_name], target, phi)
    else:
        raise ValueError("an acceptance is required: --acceptance or --balancing")
    echo = [("target", args.target), ("involution", args.involution),
            ("twist", twist), ("acceptance", accept_name)]
    return MhProblem(target, phi, accept), [(k, v) for k, v in echo if v is not None]


def _flag_label(args, flag: str):
    """The label ``--flag`` gives, or an error that names the flag."""
    try:
        return parse_label(getattr(args, flag))
    except ModelError as exc:
        raise ValueError(f"--{flag}: {exc.message}") from None


def _space_doc(doc: ModelDocument, *spaces: FinSpace, **stores) -> ModelDocument:
    """A document of the given stores, declaring the spaces by their names in doc."""
    return ModelDocument(spaces={doc.space_name(s): s for s in spaces}, **stores)


#: The verify-mh flags that read back a document made by ``_mh_document``.
_REPLAY = "verify-mh --target mu --involution phi --acceptance alpha"


def _mh_document(space_name: str, problem: MhProblem) -> ModelDocument:
    """An MH problem as a document: measure mu, involution phi, probability alpha."""
    return ModelDocument(spaces={space_name: problem.space},
                         measures={"mu": problem.target},
                         involutions={"phi": problem.involution},
                         probabilities={"alpha": problem.acceptance})


# ---------------------------------------------------------------------------
# the check registry


def _row(names, x):
    return [("witness_row", format_label(x))]


def _row_mass(names, x):
    return _row(names, x) + [("row_mass", row_masses(names[0])[names[0].dom.index(x)])]


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


# predicate -> (the kinds each name may refer to, violation function,
# witness formatter: (resolved names, witness) -> report lines)
CHECKS = {
    "normalized": ((_KERNEL,), normalized_violation, _row_mass),
    "copyable": ((_KERNEL,), copyable_violation, _row),
    "substochastic": ((_KERNEL,), substochastic_violation, _row_mass),
    "cancellative": ((_KERNEL,), cancellative_violation, _entry),
    "finite": ((_KERNEL,), finite_violation, _row_mass),
    "leq": ((_KERNEL, _KERNEL), leq_violation, _entry),
    "abs-cont": ((_KERNEL, _KERNEL), abs_cont_violation, _entry),
    "equivalent": ((_KERNEL, _KERNEL), equivalent_violation, _entry),
    "singular": ((_KERNEL, _KERNEL), singular_violation, _entry),
    "invariant": ((_MEASURE, _KERNEL), invariant_violation, _pushed),
    "reversible": ((_MEASURE, _KERNEL), detailed_balance_violation, _pair),
    "skew-reversible": ((_MEASURE, _INVOLUTION, _KERNEL),
                        skew_balance_violation, _pair),
    "balanced": ((_MEASURE, _INVOLUTION, _EFFECT),
                 lambda *names: balancing_violation(MhProblem(*names)), _point),
    "ae-equal": ((_MEASURE, _KERNEL, _KERNEL), ae_violation, _point),
}


# ---------------------------------------------------------------------------
# subcommand handlers: (doc, args) -> (ok, report lines, document or None)


def _check(doc, args):
    if args.predicate not in CHECKS:
        raise ValueError(f"unknown predicate {args.predicate!r}; choose from "
                         + ", ".join(sorted(CHECKS)))
    kinds, violation, witness_lines = CHECKS[args.predicate]
    if len(args.names) != len(kinds):
        raise ValueError(f"predicate {args.predicate!r} takes {len(kinds)} name(s)")
    names = [_lookup(doc, name, k) for k, name in zip(kinds, args.names)]
    witness = violation(*names)
    lines = [("predicate", args.predicate), ("args", " ".join(args.names)),
             ("result", witness is None)]
    if witness is not None:
        lines += witness_lines(names, witness)
    return witness is None, lines, None


def _decompose(doc, args):
    first = _lookup(doc, args.names[0], ("measure", "kernel"))
    second = _lookup(doc, args.names[1], ("involution", "measure", "kernel"))
    parts = (involutive_decompose(first, second)[1] if isinstance(second, Involution)
             else lebesgue_decompose(first, second))
    pieces = {"ac": parts.ac, "si": parts.si}
    if not first.is_measure:
        return True, [], _space_doc(doc, first.dom, first.cod, kernels=pieces)
    support = support_labels(parts.ac)
    out = _space_doc(doc, first.cod, measures=pieces)
    if isinstance(second, Involution):
        out.add_space("S", FinSpace(support))
    return True, [("S", " ".join(format_label(x) for x in support))], out


def _build_mh(doc, args):
    problem, echo = _mh_problem(doc, args)
    chain = build_mh(problem)
    out = _space_doc(doc, problem.space, kernels={"mh_chain": chain},
                     probabilities={"acceptance": problem.acceptance})
    return True, echo + [("normalized", is_normalized(chain))], out


def _theorem_report(echo, flag: str, names, pair, point):
    """Both sides of a reversibility theorem, each with its own witness."""
    lines = echo + [(flag, pair is None), ("balanced", point is None),
                    ("flags_agree", (pair is None) == (point is None))]
    if pair is not None:
        lines += [("witness_kind", "detailed-balance"), *_pair(names, pair)]
    if point is not None:
        lines.append(("witness_balancing", format_label(point)))
    return pair is None, lines, None


def _verify_mh(doc, args):
    if args.instances:
        return _verify_batch(args)
    problem, echo = _mh_problem(doc, args)
    chain = build_mh(problem)
    return _theorem_report(echo, "reversible", (problem.target, chain),
                           detailed_balance_violation(problem.target, chain),
                           balancing_violation(problem))


def _verify_batch(args):
    """A seeded theorem batch; the first disagreeing instance, if any, is
    emitted as a document that single-instance verify-mh replays."""
    import random

    from .generators import rand_mh_problem
    from .sampler import RNG_NAME

    rng = random.Random(args.seed)
    disagreements = []  # (instance index, problem)
    for index in range(args.instances):
        problem = rand_mh_problem(rng)
        flags = verify_mh_theorem(problem)
        if flags.reversible != flags.balanced:
            disagreements.append((index, problem))
    lines = [("mode", "batch"), ("rng", RNG_NAME), ("seed", args.seed),
             ("instances", args.instances),
             ("flags_agree", args.instances - len(disagreements)),
             ("result", not disagreements)]
    if not disagreements:
        return True, lines, None
    index, problem = disagreements[0]
    lines += [("disagreement_instance", index), ("replay", _REPLAY)]
    return False, lines, _mh_document("X", problem)


def _verify_skew(doc, args):
    problem, echo = _mh_problem(doc, args, twist=args.twist)
    twist = _lookup(doc, args.twist, _INVOLUTION)
    chain = build_skew_mh(problem, twist)
    return _theorem_report(echo, "skew_reversible", (problem.target, twist, chain),
                           skew_balance_violation(problem.target, twist, chain),
                           balancing_violation(problem))


def _classical_mh(doc, args):
    target = _lookup(doc, args.target, _MEASURE)
    proposal = _lookup(doc, args.proposal, ("kernel",))
    via, direct = classical_mh(target, proposal)
    flags = [("routes_equal", via == direct),
             ("reversible_via_involution", is_reversible(target, via)),
             ("reversible_direct", is_reversible(target, direct))]
    out = _space_doc(doc, target.cod, kernels={"mh_chain": direct})
    return (all(flag for _, flag in flags),
            [("target", args.target), ("proposal", args.proposal), *flags], out)


def _exchange(doc, args):
    prior = _lookup(doc, args.prior, _MEASURE)
    likelihood = _lookup(doc, args.likelihood, ("kernel",))
    proposal = _lookup(doc, args.proposal, ("kernel",))
    problem = MhProblem(*exchange_algorithm(prior, likelihood,
                                            _flag_label(args, "obs"), proposal))
    point = balancing_violation(problem)
    lines = [("prior", args.prior), ("likelihood", args.likelihood),
             ("observed", args.obs), ("proposal", args.proposal),
             ("balanced", point is None)]
    if point is not None:
        lines.append(("witness_balancing", format_label(point)))
    return point is None, lines, _mh_document("augmented", problem)


def _gibbs(doc, args):
    joint = _lookup(doc, args.target, _MEASURE)
    names = [name.strip() for name in args.factors.split(",")]
    unknown = [name for name in names if name not in doc.spaces]
    if unknown:
        raise ValueError(f"unknown space {unknown[0]!r} in --factors")
    chain = gibbs(joint, [doc.spaces[name] for name in names])
    invariant = is_invariant(joint, chain)
    out = _space_doc(doc, joint.cod, kernels={"gibbs_chain": chain})
    return invariant, [("target", args.target), ("factors", args.factors),
                       ("invariant", invariant)], out


def _sample(doc, args):
    from .sampler import empirical, run_chain, to_float, tv_distance

    chain = _lookup(doc, args.kernel, ("kernel",))
    target = _lookup(doc, args.target, _MEASURE)
    if not target.cod == chain.dom == chain.cod:
        raise ValueError("target and kernel live on different spaces")
    if not is_normalized(target):
        raise ValueError(f"target {args.target!r} is not a probability measure "
                         f"(total mass {row_masses(target)[0]})")
    initial = chain.dom.index(_flag_label(args, "init"))
    matrix = to_float(chain)
    try:  # the trace holds every step
        run = run_chain(matrix, initial, args.seed, args.steps)
    except MemoryError:
        raise ValueError(f"--steps {args.steps}: no memory for a trace that long") from None
    frequencies = empirical(run, args.burn)
    tv = tv_distance(frequencies, [v.to_float() for v in target.measure_values()])
    lines = [("kernel", args.kernel), ("target", args.target),
             ("rng", run.rng_name), ("seed", args.seed), ("init", args.init),
             ("steps", args.steps), ("burn", args.burn)]
    lines += [(f"freq_{format_label(x)}", f"{f:.6f}")
              for x, f in zip(chain.dom.labels, frequencies)]
    # not a check, so exit 0 either way. tv_to_target compares with the
    # whole target: it misleads when invariant is false, and also when the
    # closed class that the start reaches carries only part of the target
    lines += [("tv_to_target", f"{tv:.6f}"),
              ("invariant", is_invariant(target, chain))]
    return True, lines, None


# ---------------------------------------------------------------------------
# argument parsing and the subcommand table


def _count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return count


_REQUIRED = {"required": True}
_MH_FLAGS = [("--target", _REQUIRED), ("--involution", _REQUIRED),
             ("--acceptance", {}), ("--balancing", {})]

# subcommand -> (handler, help, argument specs after --model and --out)
COMMANDS = {
    "check": (_check, "evaluate a named predicate", [
        ("predicate", {"help": ", ".join(sorted(CHECKS))}),
        ("names", {"nargs": "+", "help": "entity names from the model"})]),
    "decompose": (_decompose, "Lebesgue decomposition (kernel/kernel or "
                  "measure/involution)", [("names", {"nargs": 2})]),
    "build-mh": (_build_mh, "build an involutive MH chain", _MH_FLAGS),
    "verify-mh": (_verify_mh, "check the involutive MH theorem on one "
                  "problem or a randomized batch", [
        ("--target", {}), ("--involution", {}), *_MH_FLAGS[2:],
        ("--seed", {"type": int, "help": "the batch's PRNG seed (default 0)"}),
        ("--instances", {"type": _count, "nargs": "?", "const": DEFAULT_INSTANCES,
                         "default": 0, "help": "run a randomized theorem batch "
                         f"instead (bare: {DEFAULT_INSTANCES})"})]),
    "verify-skew": (_verify_skew, "check the skew-reversible MH theorem",
                    [*_MH_FLAGS, ("--twist", _REQUIRED)]),
    "classical-mh": (_classical_mh, "classical MH as an involutive MH chain",
                     [("--target", _REQUIRED), ("--proposal", _REQUIRED)]),
    "exchange": (_exchange, "the exchange algorithm's augmented MH problem", [
        ("--prior", _REQUIRED), ("--likelihood", _REQUIRED),
        ("--obs", {"required": True, "help": "observed data label"}),
        ("--proposal", _REQUIRED)]),
    "gibbs": (_gibbs, "build a Gibbs sampler over product factors", [
        ("--target", _REQUIRED),
        ("--factors", {"required": True, "help": "comma-separated space names"})]),
    "sample": (_sample, "run a chain in floating point", [
        ("--seed", {"type": int, "default": 0, "help": "PRNG seed"}),
        ("--kernel", _REQUIRED), ("--target", _REQUIRED),
        ("--init", _REQUIRED), ("--steps", {"type": _count, "required": True}),
        ("--burn", {"type": int, "default": 0})]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finkern",
        description="Exact kernel calculus checks and MCMC builders on finite spaces.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, specs) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", required=True, help="model file path")
        p.add_argument("--out", help="write the report or document here")
        # a usage error found after parsing shows the subcommand's own usage
        p.set_defaults(usage_error=p.error)
        for flag, options in specs:
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.subcommand == "verify-mh":
        # a batch draws its own problems: it takes no flag that names one
        given = [f"--{name}" for name in ("target", "involution", "acceptance",
                                          "balancing") if getattr(args, name) is not None]
        if args.instances and given:
            args.usage_error("--instances takes none of " + ", ".join(given))
        if not args.instances and not (args.target and args.involution):
            args.usage_error("verify-mh needs --target and --involution "
                             "(or --instances for batch mode)")
        if args.seed is None:
            args.seed = 0
        elif not args.instances:
            args.usage_error("--seed seeds a batch: it needs --instances")
    if args.subcommand == "sample":
        if args.steps > MAX_STEPS:
            args.usage_error(f"--steps: at most {MAX_STEPS}, got {args.steps}")
        if not 0 <= args.burn < args.steps:
            args.usage_error(f"--burn: expected 0 <= burn < --steps, got {args.burn}")
    try:
        path = Path(args.model)
        if not path.exists():
            raise ValueError(f"model file {path} does not exist")
        model = parse(path.read_text(encoding="utf-8"))
        ok, lines, doc = COMMANDS[args.subcommand][0](model, args)
        report = [f"{key} = {str(value).lower() if isinstance(value, bool) else value}\n"
                  for key, value in [("command", args.subcommand), *lines]]
        # --out receives the document if there is one, else the report; a
        # report that shares stdout with a document is "#"-commented
        body, head = ("".join(report), []) if doc is None else (emit(doc), report)
        if args.out:
            Path(args.out).write_text(body, encoding="utf-8")
            sys.stdout.write("".join(head))
        else:
            sys.stdout.write("".join("# " + line for line in head) + body)
        return 0 if ok else 1
    except (ValueError, KeyError, ArithmeticError, OSError) as exc:
        # str() of a KeyError quotes its message; that of an OSError or a
        # UnicodeDecodeError joins its several args into one sentence
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        exc.__traceback__ = None  # let go of the frames that hold what filled memory
        print(f"error: {args.subcommand}: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
