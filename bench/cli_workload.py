"""The ``cli`` workload: ``python -m finkern.cli`` processes, one at a time.

Each op is one child process over a shipped ``models/*.fk`` file or a seeded
document written with ``modelfile.emit``. Its check compares the exit code
with the verdict the library computes in-process for the same input (0 pass,
1 failed check, 2 usage or model error) and re-parses any document the child
emitted on stdout.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from finkern import enrichment, kernels, mcmc, sampler
from finkern import generators as gen
from finkern.modelfile import ModelDocument, ModelError, emit, parse
from finkern.spaces import product_many

from workloads import (
    Op, exchange_inputs, mh_problem, points, target_preserving_twist,
)

CHILD_TIMEOUT_S = 60
N = 64  # points of the seeded verify, build, check and decompose inputs
CLASSICAL_N = 12
GIBBS_SIDE = 4
BATCH_INSTANCES = 200
SAMPLE_N = 8
SAMPLE_STEPS = 20_000

PROFILED_CLI = Path(__file__).resolve().parent / "profiled_cli.py"
INF_EXCHANGE_DEFECT = ("exchange with an inf prior atom exits 1 with a "
                       "traceback instead of 2")


class Children:
    """Spawns CLI processes one at a time and keeps the largest child RSS."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.peak_rss_kb = 0

    def spawn(self, args: list[str], profile: str | None) -> int:
        """Run one child to completion; return its exit code."""
        if profile is None:
            cmd = [sys.executable, "-m", "finkern.cli", *args]
        else:
            cmd = [sys.executable, str(PROFILED_CLI), profile, *args]
        with (open(self.work / "stdout.txt", "wb") as stdout,
              open(self.work / "stderr.txt", "wb") as stderr):
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=stdout, stderr=stderr)
        # wait4 gives this child's own rusage; SIGALRM kills a hung child.
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def stdout(self) -> str:
        return (self.work / "stdout.txt").read_text()


@dataclass
class _Case:
    name: str
    args: list[str]
    model: Path
    # The library's in-process verdict on the same input: true means exit 0,
    # false exit 1, and an error raised on the input exit 2.
    predicate: Callable[[], bool]
    emits_doc: bool = False
    known_defect: str | None = None
    _expected: int | None = field(default=None, repr=False)

    def expected(self) -> int:
        if self._expected is None:
            try:
                self._expected = 0 if self.predicate() else 1
            except (ArithmeticError, LookupError, ValueError):
                self._expected = 2
        return self._expected


def _cli_op(case: _Case, children: Children) -> Op:
    size = case.model.stat().st_size

    def run(tr):
        with tr.span("cli.process"):
            code = children.spawn(case.args, tr.child_profile())
        tr.count("modelfile.bytes_parsed", size)
        return code

    def check(code, tr) -> bool:
        expected = case.expected()
        tr.count("cli.exit_mismatch", code != expected)
        if code != expected:
            return False
        if case.emits_doc:
            try:
                doc = parse(children.stdout())
            except ModelError:
                return False
            tr.inspect(list(doc.kernels.values()))
        return True
    return Op(case.name, run, check, case.known_defect)


# ---------------------------------------------------------------------------
# inputs


def _shipped_cases(models: Path) -> list[_Case]:
    def model(name):
        path = models / name
        return path, parse(path.read_text())

    cases = []
    path, doc = model("two_state_mh.fk")
    for accept in ("alpha", "alpha_bad"):
        problem = mcmc.MhProblem(target=doc.measures["mu"],
                                 involution=doc.involutions["flip"],
                                 acceptance=doc.probabilities[accept])
        cases.append(_Case(
            f"shipped_verify_mh_{accept}",
            ["verify-mh", "--model", str(path), "--target", "mu",
             "--involution", "flip", "--acceptance", accept], path,
            partial(_mh_reversible, problem)))
    cases.append(_Case(
        "shipped_check_reversible",
        ["check", "--model", str(path), "reversible", "mu", "walk"], path,
        partial(mcmc.is_reversible, doc.measures["mu"], doc.kernels["walk"])))

    path, doc = model("classical_mh.fk")
    cases.append(_Case(
        "shipped_classical_mh",
        ["classical-mh", "--model", str(path), "--target", "pi", "--proposal", "q"],
        path, partial(_classical_ok, doc.measures["pi"], doc.kernels["q"]),
        emits_doc=True))

    path, doc = model("exchange_small.fk")
    cases.append(_Case(
        "shipped_exchange",
        ["exchange", "--model", str(path), "--prior", "prior", "--likelihood",
         "lik", "--obs", "z1", "--proposal", "q"], path,
        partial(_exchange_balanced, doc.measures["prior"], doc.kernels["lik"],
                "z1", doc.kernels["q"]),
        emits_doc=True))

    path, doc = model("gibbs_2x2.fk")
    cases.append(_Case(
        "shipped_gibbs",
        ["gibbs", "--model", str(path), "--target", "joint", "--factors", "X,Y"],
        path, partial(_gibbs_invariant, doc.measures["joint"],
                      [doc.spaces["X"], doc.spaces["Y"]]),
        emits_doc=True))

    path, doc = model("skew_four_point.fk")
    problem = mcmc.MhProblem(target=doc.measures["mu"],
                             involution=doc.involutions["prop"],
                             acceptance=doc.probabilities["alpha"])
    cases.append(_Case(
        "shipped_verify_skew",
        ["verify-skew", "--model", str(path), "--target", "mu", "--involution",
         "prop", "--twist", "twist", "--acceptance", "alpha"], path,
        partial(_skew_reversible, problem, doc.involutions["twist"])))

    path, doc = model("three_point_decompose.fk")
    cases.append(_Case(
        "shipped_decompose",
        ["decompose", "--model", str(path), "mu", "swap_ab"], path,
        partial(_succeeds, enrichment.involutive_decompose, doc.measures["mu"],
                doc.involutions["swap_ab"]),
        emits_doc=True))
    return cases


def _succeeds(fn, *args) -> bool:
    fn(*args)
    return True


def _mh_reversible(problem) -> bool:
    return mcmc.verify_mh_theorem(problem).reversible


def _skew_reversible(problem, twist) -> bool:
    return mcmc.verify_skew_theorem(problem, twist).reversible


def _classical_ok(target, proposal) -> bool:
    via, direct = mcmc.classical_mh(target, proposal)
    return (via == direct and mcmc.is_reversible(target, via)
            and mcmc.is_reversible(target, direct))


def _exchange_balanced(prior, likelihood, observed, proposal) -> bool:
    augmented, phi, accept = mcmc.exchange_algorithm(
        prior, likelihood, observed, proposal)
    return mcmc.check_balancing(mcmc.MhProblem(
        target=augmented, involution=phi, acceptance=accept))


def _gibbs_invariant(joint, factors) -> bool:
    return mcmc.is_invariant(joint, mcmc.gibbs(joint, factors))


def _mh_doc(problem, accept_as="alpha") -> ModelDocument:
    doc = ModelDocument()
    doc.add_space("X", problem.space)
    doc.measures["mu"] = problem.target
    doc.involutions["phi"] = problem.involution
    doc.probabilities[accept_as] = problem.acceptance
    return doc


def _seeded_cases(rng: random.Random, write: Callable[[str, str], Path],
                  shipped_two_state: Path) -> list[_Case]:
    cases = []
    problem, _ = mh_problem(rng, N, N)
    path = write("verify_mh", emit(_mh_doc(problem)))
    cases.append(_Case(
        f"verify_mh_{N}",
        ["verify-mh", "--model", str(path), "--target", "mu", "--involution",
         "phi", "--acceptance", "alpha"], path,
        partial(_mh_reversible, problem)))

    build = gen.rand_mh_problem(rng, N, N, mode="balanced")
    doc = _mh_doc(build)
    doc.balancing["met"] = "metropolis"
    path = write("build_mh", emit(doc))
    cases.append(_Case(
        f"build_mh_{N}",
        ["build-mh", "--model", str(path), "--target", "mu", "--involution",
         "phi", "--balancing", "met"], path,
        partial(_succeeds, mcmc.build_mh, build), emits_doc=True))

    skew, _ = mh_problem(rng, N, N)
    twist = target_preserving_twist(rng, skew.target)
    doc = _mh_doc(skew)
    doc.involutions["twist"] = twist
    path = write("verify_skew", emit(doc))
    cases.append(_Case(
        f"verify_skew_{N}",
        ["verify-skew", "--model", str(path), "--target", "mu", "--involution",
         "phi", "--twist", "twist", "--acceptance", "alpha"], path,
        partial(_skew_reversible, skew, twist)))

    space = points(CLASSICAL_N)
    target = gen.rand_probability_measure(rng, space, zero_weight=0.2)
    proposal = gen.rand_normalized_kernel(rng, space, space, zero_weight=0.3)
    doc = ModelDocument()
    doc.add_space("X", space)
    doc.measures["pi"] = target
    doc.kernels["q"] = proposal
    path = write("classical_mh", emit(doc))
    cases.append(_Case(
        f"classical_mh_{CLASSICAL_N}",
        ["classical-mh", "--model", str(path), "--target", "pi", "--proposal", "q"],
        path, partial(_classical_ok, target, proposal), emits_doc=True))

    factors = [points(GIBBS_SIDE, f"c{i}_") for i in range(3)]
    joint = gen.rand_probability_measure(rng, product_many(factors),
                                         zero_weight=0.3)
    doc = ModelDocument()
    for name, factor in zip("ABC", factors):
        doc.add_space(name, factor)
    doc.add_space("J", joint.cod)
    doc.measures["joint"] = joint
    path = write("gibbs", emit(doc))
    cases.append(_Case(
        f"gibbs_{GIBBS_SIDE}x{GIBBS_SIDE}x{GIBBS_SIDE}",
        ["gibbs", "--model", str(path), "--target", "joint", "--factors", "A,B,C"],
        path, partial(_gibbs_invariant, joint, factors), emits_doc=True))

    # The three dearest cases run twice, on fresh kernels: a 25 s run then
    # has more than 10 samples in their group, and the tail falls inside it
    # rather than at its edge.
    for name in ("kernels", "kernels_again"):
        cases.extend(_kernel_cases(rng, write, name))

    batch_seed = rng.randrange(2 ** 31)
    cases.append(_Case(
        "verify_mh_batch",
        ["verify-mh", "--model", str(shipped_two_state), "--instances",
         str(BATCH_INSTANCES), "--seed", str(batch_seed)], shipped_two_state,
        partial(_batch_agrees, batch_seed)))

    space = points(SAMPLE_N)
    target = gen.rand_probability_measure(rng, space)
    flip = gen.rand_involution(rng, space)
    chain_problem = mcmc.MhProblem(
        target=target, involution=flip,
        acceptance=mcmc.balancing_alpha(mcmc.METROPOLIS, target, flip))
    chain = mcmc.build_mh(chain_problem)
    doc = _mh_doc(chain_problem)
    doc.kernels["K"] = chain
    path = write("sample", emit(doc))
    sample_seed = rng.randrange(2 ** 31)
    cases.append(_Case(
        "sample",
        ["sample", "--model", str(path), "--kernel", "K", "--target", "mu",
         "--init", "x0", "--steps", str(SAMPLE_STEPS), "--burn", "1000",
         "--seed", str(sample_seed)], path,
        partial(_succeeds, sampler.to_float, chain)))

    prior, likelihood, observed, proposal = exchange_inputs(rng, 2, 2,
                                                             inf_prior=True)
    doc = ModelDocument()
    doc.add_space("X", prior.cod)
    doc.add_space("Z", likelihood.cod)
    doc.measures["prior"] = prior
    doc.kernels["lik"] = likelihood
    doc.kernels["q"] = proposal
    path = write("exchange_inf_prior", emit(doc))
    cases.append(_Case(
        "exchange_inf_prior",
        ["exchange", "--model", str(path), "--prior", "prior", "--likelihood",
         "lik", "--obs", observed, "--proposal", "q"], path,
        partial(_exchange_balanced, prior, likelihood, observed, proposal),
        emits_doc=True, known_defect=INF_EXCHANGE_DEFECT))
    return cases


def _kernel_cases(rng: random.Random, write: Callable[[str, str], Path],
                  name: str) -> list[_Case]:
    """``check reversible``, ``check normalized`` and ``decompose`` at n = N."""
    space = points(N)
    mu = gen.rand_measure(rng, space)
    reversible = gen.rand_reversible_kernel(rng, mu)
    normalized = gen.rand_normalized_kernel(rng, space, space, zero_weight=0.2)
    reference = gen.rand_kernel(rng, space, space, zero_weight=0.5)
    doc = ModelDocument()
    doc.add_space("X", space)
    doc.measures["mu"] = mu
    doc.kernels["P"] = reversible
    doc.kernels["Q"] = normalized
    doc.kernels["R"] = reference
    path = write(name, emit(doc))
    return [
        _Case(f"check_reversible_{N}",
              ["check", "--model", str(path), "reversible", "mu", "P"], path,
              partial(mcmc.is_reversible, mu, reversible)),
        _Case(f"check_normalized_{N}",
              ["check", "--model", str(path), "normalized", "Q"], path,
              partial(kernels.is_normalized, normalized)),
        _Case(f"decompose_{N}",
              ["decompose", "--model", str(path), "Q", "R"], path,
              partial(_succeeds, enrichment.lebesgue_decompose, normalized,
                      reference),
              emits_doc=True),
    ]


def _batch_agrees(seed: int) -> bool:
    rng = random.Random(seed)
    for _ in range(BATCH_INSTANCES):
        flags = mcmc.verify_mh_theorem(gen.rand_mh_problem(rng))
        if flags.reversible != flags.balanced:
            return False
    return True


def _invalid_cases(write: Callable[[str, str], Path],
                   shipped_two_state: Path) -> list[_Case]:
    """Documents and references the CLI must reject with exit 2."""
    cases = []
    for name, text in (
            ("undeclared_space", "space X { a b }\nmeasure mu on Y { a = 1 }\n"),
            ("probability_above_one",
             "space X { a b }\nprobability alpha on X { a = 3/2 }\n")):
        path = write(name, text)
        cases.append(_Case(
            f"invalid_{name}",
            ["check", "--model", str(path), "normalized", "mu"], path,
            partial(_succeeds, parse, text)))
    cases.append(_Case(
        "invalid_unknown_name",
        ["verify-mh", "--model", str(shipped_two_state), "--target", "nosuch",
         "--involution", "flip", "--acceptance", "alpha"], shipped_two_state,
        partial(_succeeds, _doc_measure, shipped_two_state, "nosuch")))
    return cases


def _doc_measure(path: Path, name: str):
    return parse(path.read_text()).measures[name]


def cli(rng: random.Random, cycles: int, children: Children) -> list[Op]:
    models = children.root / "models"
    children.work.mkdir(parents=True, exist_ok=True)
    shipped = _shipped_cases(models)
    two_state = models / "two_state_mh.fk"
    ops = []
    for c in range(cycles):
        def write(name, text, c=c):
            path = children.work / f"{name}-{c}.fk"
            path.write_text(text)
            return path
        # The invalid inputs run twice: with the kernel cases twice too,
        # the median then stays inside the group of quick processes instead
        # of at its edge.
        invalid = _invalid_cases(write, two_state)
        cases = (shipped + _seeded_cases(rng, write, two_state)
                 + invalid + invalid)
        ops.extend(_cli_op(case, children) for case in cases)
    return ops
