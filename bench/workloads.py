"""The in-process workloads: seeded inputs, the op each times, its check.

Each workload function (``theorem_batch(rng, cycles)`` and so on) generates
every input a run needs and returns the ops in run order; ``cli_workload``
does the same for the CLI. An op's ``run(tr)`` makes its calls into finkern
through ``tr.call``, so that a traced pass can record spans. Its
``check(result, tr)`` decides exactly, outside the timed region, whether the
output is right. Ops come in cycles of fixed composition, so two runs with
the same ``cycles`` time the same mix of op kinds and sizes.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Callable

from finkern import enrichment, kernels, mcmc, sampler
from finkern import generators as gen
from finkern.kernels import Involution, Kernel, effect, measure
from finkern.semiring import ONE, ExtNonneg
from finkern.spaces import FinSpace, product_many


@dataclass
class Op:
    kind: str
    run: Callable
    check: Callable
    # Set when the op reproduces a documented defect of the program: it still
    # counts as failed, but does not make the run incorrect.
    known_defect: str | None = None


def points(n: int, prefix: str = "x") -> FinSpace:
    return FinSpace(tuple(f"{prefix}{i}" for i in range(n)))


def target_preserving_twist(rng: random.Random, target: Kernel) -> Involution:
    """Pair points of equal target mass, as acceptance criterion 06 does."""
    masses = target.measure_values()
    perm = list(range(len(masses)))
    indices = list(range(len(masses)))
    rng.shuffle(indices)
    while len(indices) >= 2:
        a, b = indices.pop(), indices.pop()
        if masses[a] == masses[b] and rng.random() < 0.8:
            perm[a], perm[b] = b, a
    return Involution(target.cod, tuple(perm))


def _flags_ok(balanced_mode: bool):
    """Flags must agree; a balanced acceptance must make both true."""
    def check(flags, tr) -> bool:
        return flags.reversible == flags.balanced and (
            flags.reversible or not balanced_mode)
    return check


def _all_true(results, tr) -> bool:
    return all(results)


# ---------------------------------------------------------------------------
# theorem-batch: tiny instances, as in acceptance criteria 01, 02 and 06

THEOREM_POOL = 1000  # distinct instances of each kind
THEOREM_BATCH = 50  # instances of one kind per op


def _verify_mh_op(problem, balanced_mode):
    def run(tr):
        return tr.call("mcmc.verify_mh_theorem", mcmc.verify_mh_theorem, problem)
    return Op("verify_mh", run, _flags_ok(balanced_mode))


def _verify_skew_op(problem, twist, balanced_mode):
    def run(tr):
        return tr.call("mcmc.verify_skew_theorem", mcmc.verify_skew_theorem,
                       problem, twist)
    return Op("verify_skew", run, _flags_ok(balanced_mode))


def _decompose_op(mu, phi):
    def run(tr):
        support, d = tr.call("enrichment.involutive_decompose",
                             enrichment.involutive_decompose, mu, phi)
        lifted_ac = tr.call("kernels.pushforward", kernels.pushforward, phi, d.ac)
        lifted_si = tr.call("kernels.pushforward", kernels.pushforward, phi, d.si)
        total = tr.call("kernels.sum", Kernel.__add__, d.ac, d.si)
        return (total == mu,
                tr.call("enrichment.equivalent", enrichment.equivalent,
                        d.ac, lifted_ac),
                tr.call("enrichment.is_singular", enrichment.is_singular,
                        d.si, lifted_si),
                tr.call("enrichment.is_singular", enrichment.is_singular,
                        d.ac, d.si),
                support == tuple(x for x, v in zip(mu.cod.labels, d.ac.entries[0])
                                 if v.num != 0))
    return Op("decompose", run, _all_true)


def _batch(ops: list[Op]) -> Op:
    """One op that runs several instances of one kind, then checks each."""
    def run(tr):
        return [op.run(tr) for op in ops]

    def check(results, tr) -> bool:
        return all(op.check(result, tr) for op, result in zip(ops, results))
    return Op(f"{ops[0].kind}_x{len(ops)}", run, check)


def mh_problem(rng: random.Random, lo: int, hi: int):
    """A problem with a balanced or a random acceptance (a fair coin).

    Returns the problem and whether its acceptance is balanced.
    """
    balanced = rng.random() < 0.5
    mode = "balanced" if balanced else "adversarial"
    return gen.rand_mh_problem(rng, lo, hi, mode=mode), balanced


def theorem_batch(rng: random.Random, cycles: int) -> list[Op]:
    """One cycle is one pass over the pool, in batches of each kind in turn."""
    mh, skew, decompose = [], [], []
    for _ in range(THEOREM_POOL):
        mh.append(_verify_mh_op(*mh_problem(rng, 2, 6)))

        problem, balanced = mh_problem(rng, 2, 6)
        twist = target_preserving_twist(rng, problem.target)
        skew.append(_verify_skew_op(problem, twist, balanced))

        space = points(rng.randint(2, 6))
        phi = gen.rand_involution(rng, space)
        decompose.append(_decompose_op(
            gen.rand_measure(rng, space, zero_weight=0.5), phi))
    cycle = []
    for start in range(0, THEOREM_POOL, THEOREM_BATCH):
        for pool in (mh, skew, decompose):
            cycle.append(_batch(pool[start:start + THEOREM_BATCH]))
    return cycle * cycles


# ---------------------------------------------------------------------------
# structural-build: constructions that build large permutation-like kernels

CLASSICAL_SIZES = (12, 16, 24)
GIBBS_SIDES = (3, 4, 5)
EXCHANGE_SIZES = (6, 4)  # |X|, |Z|: the augmented space has 6 * 4 * 6 points
# build_mh at n = 128 runs three times per cycle. Its cost lies between the
# four cheaper kinds and the four dearer ones, so the median op falls inside
# that one kind instead of between two kinds. Its acceptances are all
# balanced: random ones cost less to check, and a mix of both would split
# the kind in two around the median.
BUILD_MH_SIZES = (128, 128, 128, 256)


def _classical_op(rng, n):
    space = points(n)
    target = gen.rand_probability_measure(rng, space, zero_weight=0.2)
    proposal = gen.rand_normalized_kernel(rng, space, space, zero_weight=0.3)

    def run(tr):
        via, direct = tr.call("mcmc.classical_mh", mcmc.classical_mh,
                              target, proposal)
        return (via == direct,
                tr.call("mcmc.is_reversible", mcmc.is_reversible, target, via),
                tr.call("mcmc.is_reversible", mcmc.is_reversible, target, direct))
    return Op(f"classical_mh_{n}", run, _all_true)


def _gibbs_grid(rng, side, zero_weight):
    factors = [points(side, f"c{i}_") for i in range(3)]
    joint = gen.rand_probability_measure(rng, product_many(factors),
                                         zero_weight=zero_weight)
    return joint, factors


def _gibbs_op(rng, side):
    joint, factors = _gibbs_grid(rng, side, zero_weight=0.3)

    def run(tr):
        chain = tr.call("mcmc.gibbs", mcmc.gibbs, joint, factors)
        return tr.call("mcmc.is_invariant", mcmc.is_invariant, joint, chain)
    return Op(f"gibbs_{side}x{side}x{side}", run, lambda invariant, tr: invariant)


def exchange_inputs(rng, nx, nz, inf_prior=False):
    """Prior, unnormalized positive likelihood and proposal, as criterion 04."""
    base = points(nx, "t")
    data = points(nz, "z")
    prior_values = [gen.rand_value(rng, 8) + ONE for _ in range(nx)]
    if inf_prior:
        prior_values[rng.randrange(nx)] = ExtNonneg.INF
    prior = measure(base, prior_values)
    likelihood = Kernel(base, data, [
        [gen.rand_value(rng, 8) + ExtNonneg(1, 8) for _ in range(nz)]
        for _ in range(nx)])
    proposal = gen.rand_normalized_kernel(rng, base, base)
    observed = data.labels[rng.randrange(nz)]
    return prior, likelihood, observed, proposal


def _exchange_op(rng, nx, nz):
    prior, likelihood, observed, proposal = exchange_inputs(rng, nx, nz)

    def run(tr):
        augmented, phi, accept = tr.call(
            "mcmc.exchange_algorithm", mcmc.exchange_algorithm,
            prior, likelihood, observed, proposal)
        problem = mcmc.MhProblem(target=augmented, involution=phi,
                                 acceptance=accept)
        return tr.call("mcmc.verify_mh_theorem", mcmc.verify_mh_theorem, problem)
    return Op(f"exchange_{nx}x{nz}x{nx}", run, _flags_ok(True))


def _build_mh_op(rng, n):
    problem = gen.rand_mh_problem(rng, n, n, mode="balanced")
    flags_ok = _flags_ok(True)

    def run(tr):
        chain = tr.call("mcmc.build_mh", mcmc.build_mh, problem)
        return (tr.call("kernels.is_normalized", kernels.is_normalized, chain),
                tr.call("mcmc.verify_mh_theorem", mcmc.verify_mh_theorem, problem))
    return Op(f"build_mh_{n}", run,
              lambda result, tr: result[0] and flags_ok(result[1], tr))


def structural_build(rng: random.Random, cycles: int) -> list[Op]:
    """A cycle is two halves; only the first has ``classical_mh`` at n = 24.

    That op costs as much as the rest of a half. Once per cycle it stays
    below 10 samples in a run, so the tail (10 samples beyond it) falls
    inside the group of ``build_mh`` at n = 256, not at that group's edge.
    """
    ops = []
    for _ in range(cycles):
        for classical in (CLASSICAL_SIZES, CLASSICAL_SIZES[:-1]):
            ops.extend(_classical_op(rng, n) for n in classical)
            ops.extend(_gibbs_op(rng, side) for side in GIBBS_SIDES)
            ops.append(_exchange_op(rng, *EXCHANGE_SIZES))
            ops.extend(_build_mh_op(rng, n) for n in BUILD_MH_SIZES)
    return ops


# ---------------------------------------------------------------------------
# dense-algebra: fully dense normalized kernels, no structural kernel

# Chain lengths: P >> P, then >> P again, up to this many compositions.
POWER_STEPS = {16: 4, 32: 2, 64: 1}
ASSOCIATIVITY_SIZES = (16, 32)
TENSOR_SIZE = 8
SUM_SIZE = 64


class _Power:
    """P, then P >> P, P^2 >> P, ...: each step is one op."""

    def __init__(self, p: Kernel):
        self.p = p
        self.earlier = p
        self.power = p


def _compose_op(chain: _Power, step: int, n: int):
    def run(tr):
        chain.earlier = chain.p if step == 0 else chain.power
        chain.power = tr.call("kernels.compose", kernels.compose,
                              chain.p, chain.earlier)
        return chain.power

    def check(result, tr) -> bool:
        if not kernels.is_normalized(result):
            return False
        # P^k >> P == P >> P^k: the same power, associated the other way.
        if step > 0 and n in ASSOCIATIVITY_SIZES:
            return kernels.compose(chain.earlier, chain.p) == result
        return True
    return Op(f"compose_{n}", run, check)


def _dense(rng, n, prefix="x"):
    space = points(n, prefix)
    return gen.rand_normalized_kernel(rng, space, space)


def _tensor_op(rng):
    a, b = _dense(rng, TENSOR_SIZE, "a"), _dense(rng, TENSOR_SIZE, "b")

    def run(tr):
        return tr.call("kernels.tensor", kernels.tensor, a, b)
    return Op(f"tensor_{TENSOR_SIZE}x{TENSOR_SIZE}", run,
              lambda result, tr: kernels.is_normalized(result))


def _mixture_op(rng):
    p, q = _dense(rng, SUM_SIZE), _dense(rng, SUM_SIZE)
    half = effect(p.dom, [ExtNonneg(1, 2)] * SUM_SIZE)

    def run(tr):
        left = tr.call("kernels.reweight", kernels.reweight, half, p)
        right = tr.call("kernels.reweight", kernels.reweight, half, q)
        return tr.call("kernels.sum", Kernel.__add__, left, right)
    return Op(f"mixture_{SUM_SIZE}", run,
              lambda result, tr: kernels.is_normalized(result))


def dense_algebra(rng: random.Random, cycles: int) -> list[Op]:
    ops = []
    for _ in range(cycles):
        for n, steps in POWER_STEPS.items():
            chain = _Power(_dense(rng, n))
            ops.extend(_compose_op(chain, step, n) for step in range(steps))
        ops.append(_tensor_op(rng))
        ops.append(_mixture_op(rng))
    return ops


# ---------------------------------------------------------------------------
# simulate: float sampling from exact chains built at set-up

STEPS = 1_000_000
BURN_IN = 10_000
TV_BOUND = 0.02


@dataclass
class _Chain:
    name: str
    kernel: Kernel
    target: tuple[float, ...]  # exact target, restricted to the start's class
    starts: tuple[int, ...]


def _zero_mass_steps(trace, kernel: Kernel) -> int:
    """Steps that follow an entry the exact kernel gives mass 0."""
    steps = Counter(zip(trace, islice(trace, 1, None)))
    return sum(count for (a, b), count in steps.items()
               if kernel.entries[a][b].num == 0)


def _normalized(values) -> tuple[float, ...]:
    total = sum(values)
    return tuple(v / total for v in values)


def _simulate_chains(rng: random.Random) -> list[_Chain]:
    chains = []
    # the two-state chain of acceptance criterion 09
    two = measure(FinSpace.atoms("a b"), [ExtNonneg(1, 3), ExtNonneg(2, 3)])
    flip = Involution.from_mapping(two.cod, {"a": "b", "b": "a"})
    problem = mcmc.MhProblem(target=two, involution=flip,
                             acceptance=mcmc.balancing_alpha(mcmc.METROPOLIS,
                                                             two, flip))
    chains.append(_Chain("two_state", mcmc.build_mh(problem),
                         _normalized([v.to_float() for v in two.entries[0]]),
                         (0, 1)))

    joint, factors = _gibbs_grid(rng, 5, zero_weight=0.0)
    chains.append(_Chain("gibbs_5x5x5", mcmc.gibbs(joint, factors),
                         _normalized([v.to_float() for v in joint.entries[0]]),
                         tuple(range(len(joint.cod)))))

    # An involutive chain never leaves the orbit {x, phi(x)} of its start, so
    # its target is the exact target restricted to that orbit.
    problem = gen.rand_mh_problem(rng, 256, 256, mode="balanced")
    masses = problem.target.entries[0]
    perm = problem.involution.perm
    start = rng.choice([i for i, j in enumerate(perm)
                        if i != j and masses[i].num != 0])
    orbit = (start, perm[start])
    restricted = [masses[i].to_float() if i in orbit else 0.0
                  for i in range(len(perm))]
    chains.append(_Chain("involutive_256", mcmc.build_mh(problem),
                         _normalized(restricted), orbit))

    space = points(16)
    target = gen.rand_probability_measure(rng, space)
    proposal = gen.rand_normalized_kernel(rng, space, space)
    _, direct = mcmc.classical_mh(target, proposal)
    chains.append(_Chain("classical_16", direct,
                         _normalized([v.to_float() for v in target.entries[0]]),
                         tuple(range(16))))
    return chains


def _sample_op(chain: _Chain, start: int, seed: int):
    def run(tr):
        matrix = tr.call("sampler.to_float", sampler.to_float, chain.kernel)
        walk = tr.call("sampler.run_chain", sampler.run_chain,
                       matrix, start, seed, STEPS)
        frequencies = tr.call("sampler.empirical", sampler.empirical,
                              walk, BURN_IN)
        tv = tr.call("sampler.tv_distance", sampler.tv_distance,
                     frequencies, chain.target)
        tr.count("sampler.steps", walk.length)
        return walk, tv

    def check(result, tr) -> bool:
        walk, tv = result
        zero = _zero_mass_steps(walk.trace, chain.kernel)
        tr.count("sampler.zero_mass_steps", zero)
        return zero == 0 and tv < TV_BOUND
    return Op(f"sample_{chain.name}", run, check)


def simulate(rng: random.Random, cycles: int) -> list[Op]:
    two_state, gibbs, involutive, classical = _simulate_chains(rng)
    # The two slowest chains run twice per cycle, the two fastest once: the
    # median op then falls in the middle of the Gibbs group, between the
    # involutive chain above it and the classical chain below it.
    chains = (two_state, gibbs, involutive, classical, gibbs, involutive)
    return [_sample_op(chain, rng.choice(chain.starts), rng.randrange(2 ** 32))
            for _ in range(cycles) for chain in chains]
