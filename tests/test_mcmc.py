import ast
import random
from math import lcm
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from finkern.semiring import (
    ExtNonneg, INF, ONE, ZERO, ZERO_PAIR, pair_products_equal,
)
from finkern.spaces import EMPTY, FinSpace, UNIT, product, product_many
from finkern.kernels import (
    Involution, Kernel, SpaceMismatchError, compose, copy, delete,
    deterministic, effect, effect_pairs, from_maps, from_pair_rows, graph, identity,
    lazy_proposal, lift_involution, measure, pair_rows, pushforward, reweight, right_unitor,
    row_support, swap, swap_asymmetry, tensor, uniform, is_normalized,
)
from finkern.enrichment import (
    NoExactDerivative, NotAbsolutelyContinuous, NotCancellative, _density_values,
    is_cancellative, lebesgue_decompose, rn_derivative,
)
from finkern import kernels as kernels_module, mcmc
from finkern.mcmc import (
    BALANCING_FUNCTIONS, BARKER, METROPOLIS, MhProblem, augment_reversible,
    balancing_alpha, balancing_violation, bayesian_inverse, build_mh,
    build_skew_mh, check_balancing, classical_mh, detailed_balance_violation,
    exchange_algorithm,
    first_summand_reversible, gibbs, gibbs_site_kernels, invariant_violation,
    is_invariant,
    is_reversible, is_skew_reversible,
    skew_balance_violation, verify_mh_theorem, verify_skew_theorem,
)
from finkern.generators import (
    rand_involution, rand_mh_problem, rand_normalized_kernel,
    rand_probability_measure, rand_reversible_kernel,
)
from strategies import (
    assert_reduced, eager_fold, ext_sum, finite_values, leq_witness, mh_acceptance_ratio,
    kernels_on, normalized_kernels, rand_skew_instance, residual, rows_built,
    spaces, values,
)


def q(num, den=1):
    return ExtNonneg(num, den)


X2 = FinSpace.atoms("a b")
X3 = FinSpace.atoms("a b c")
SWAP2 = Involution.from_mapping(X2, {"a": "b", "b": "a"})


def two_state_problem(accept_values=None):
    mu = measure(X2, [q(1, 3), q(2, 3)])
    accept = (balancing_alpha(METROPOLIS, mu, SWAP2)
              if accept_values is None else effect(X2, accept_values))
    return MhProblem(target=mu, involution=SWAP2, acceptance=accept)


# -- balancing functions --------------------------------------------------------

def test_metropolis_values():
    assert METROPOLIS(q(2)) == ONE
    assert METROPOLIS(q(1, 2)) == q(1, 2)
    assert METROPOLIS(ZERO) == ZERO
    assert METROPOLIS(INF) == ONE


def test_barker_values():
    assert BARKER(q(2)) == q(2, 3)
    assert BARKER(q(1, 2)) == q(1, 3)
    assert BARKER(ZERO) == ZERO
    assert BARKER(INF) == ONE


@pytest.mark.parametrize("name", sorted(BALANCING_FUNCTIONS))
@given(st.integers(1, 60), st.integers(1, 60))
def test_balancing_function_axioms(name, num, den):
    fn = BALANCING_FUNCTIONS[name]
    t = q(num, den)
    inverse = q(den, num)
    assert fn(ZERO) == ZERO
    assert fn(t) <= ONE
    assert fn(t) == t * fn(inverse)


# -- problem validation -----------------------------------------------------------

def test_mh_problem_rejects_alpha_above_one():
    with pytest.raises(ValueError):
        two_state_problem([q(3, 2), ONE])


def test_mh_problem_rejects_infinite_target():
    with pytest.raises(Exception):
        MhProblem(target=measure(X2, [INF, ONE]), involution=SWAP2,
                  acceptance=effect(X2, [1, 1]))


# -- invariance and reversibility ---------------------------------------------------

def test_identity_always_invariant():
    for mu in (uniform(X2), measure(X3, [1, 0, 2])):
        assert is_invariant(mu, identity(mu.cod))


def test_swap_invariance_examples():
    flip = lift_involution(SWAP2)
    assert is_invariant(uniform(X2), flip)
    assert not is_invariant(measure(X2, [q(1, 3), q(2, 3)]), flip)


def test_reversible_examples():
    sym = Kernel(X2, X2, [[q(1, 2), q(1, 2)], [q(1, 2), q(1, 2)]])
    assert is_reversible(uniform(X2), sym)
    skewed = measure(X2, [q(1, 3), q(2, 3)])
    chain = Kernel(X2, X2, [[0, 1], [q(1, 2), q(1, 2)]])
    assert is_reversible(skewed, chain)


def _rng_cases(seed, count):
    rng = random.Random(seed)
    return rng, range(count)


def test_reversible_implies_invariant_randomized():
    # normalized reversible chains: classical MH matrices
    rng, cases = _rng_cases(1001, 200)
    for _ in cases:
        space = FinSpace(tuple(f"x{i}" for i in range(rng.randint(2, 5))))
        target = rand_probability_measure(rng, space)
        proposal = rand_normalized_kernel(rng, space, space, zero_weight=0.2)
        _, chain = classical_mh(target, proposal)
        assert is_reversible(target, chain)
        assert is_invariant(target, chain)


def test_reversibility_matches_joint_swap_oracle():
    # detailed balance is exactly swap-invariance of the joint measure
    rng, cases = _rng_cases(1002, 200)
    for _ in cases:
        space = FinSpace(tuple(f"x{i}" for i in range(rng.randint(2, 4))))
        target = rand_probability_measure(rng, space, zero_weight=0.2)
        chain = rand_normalized_kernel(rng, space, space, zero_weight=0.3)
        joint = compose(compose(tensor(identity(space), chain), copy(space)), target)
        swapped = compose(swap(space, space), joint)
        assert is_reversible(target, chain) == (joint == swapped)


def test_invariant_closed_under_composition():
    rng, cases = _rng_cases(1003, 100)
    for _ in cases:
        space = FinSpace(tuple(f"x{i}" for i in range(rng.randint(2, 4))))
        target = rand_probability_measure(rng, space)
        _, p = classical_mh(target, rand_normalized_kernel(rng, space, space))
        _, q_ = classical_mh(target, rand_normalized_kernel(rng, space, space))
        assert is_invariant(target, p)
        assert is_invariant(target, compose(p, q_))


def test_sum_of_reversible_is_reversible():
    rng, cases = _rng_cases(1004, 100)
    for _ in cases:
        space = FinSpace(tuple(f"x{i}" for i in range(rng.randint(2, 4))))
        target = rand_probability_measure(rng, space)
        if any(v.num == 0 for v in target.measure_values()):
            continue
        p = rand_reversible_kernel(rng, target)
        q_ = rand_reversible_kernel(rng, target)
        assert is_reversible(target, p + q_)


def _substochastic_scale(kernel):
    top = ZERO
    for row in kernel.entries:
        mass = ext_sum(row)
        if not mass <= top:
            top = mass
    if top == ZERO or top <= ONE:
        return kernel
    scale = effect(kernel.dom, [ONE / top] * len(kernel.dom))
    return reweight(scale, kernel)


def test_reversibility_of_difference():
    # if P+Q and Q are reversible with Q substochastic and the target
    # finite, the difference P is reversible
    rng, cases = _rng_cases(1005, 150)
    for _ in cases:
        space = FinSpace(tuple(f"x{i}" for i in range(rng.randint(2, 4))))
        target = rand_probability_measure(rng, space)
        if any(v.num == 0 for v in target.measure_values()):
            continue
        q_ = _substochastic_scale(rand_reversible_kernel(rng, target))
        p = rand_normalized_kernel(rng, space, space, zero_weight=0.3)
        total = p + q_
        if is_reversible(target, total):
            assert is_reversible(target, p)
        recovered = leq_witness(q_, total)
        assert recovered == p


def test_invariant_deterministic_involution_is_reversible():
    rng, cases = _rng_cases(1006, 200)
    for _ in cases:
        space = FinSpace(tuple(f"x{i}" for i in range(rng.randint(2, 5))))
        phi = rand_involution(rng, space)
        masses = [q(rng.randint(0, 8), rng.randint(1, 8)) for _ in space.labels]
        for i, j in enumerate(phi.perm):  # make the target involution-invariant
            if i < j:
                masses[j] = masses[i]
        target = measure(space, masses)
        lifted = lift_involution(phi)
        assert is_invariant(target, lifted)
        assert is_reversible(target, lifted)


# -- skew reversibility ---------------------------------------------------------------

def test_skew_with_identity_reduces_to_reversible():
    rng, cases = _rng_cases(1007, 100)
    for _ in cases:
        space = FinSpace(tuple(f"x{i}" for i in range(rng.randint(2, 4))))
        target = rand_probability_measure(rng, space, zero_weight=0.2)
        chain = rand_normalized_kernel(rng, space, space, zero_weight=0.3)
        assert (is_skew_reversible(target, Involution.identity(space), chain)
                == is_reversible(target, chain))


def test_skew_hand_example():
    target = uniform(X2)
    assert is_skew_reversible(target, SWAP2, identity(X2))


def test_skew_requires_invariant_twist():
    target = measure(X2, [q(1, 3), q(2, 3)])
    with pytest.raises(ValueError):
        is_skew_reversible(target, SWAP2, identity(X2))


def test_skew_four_way_equivalence():
    rng, cases = _rng_cases(1008, 300)
    for _ in cases:
        target, twist, chain = rand_skew_instance(rng, max_size=5)
        lifted = lift_involution(twist)
        c1 = is_skew_reversible(target, twist, chain)
        c2 = is_reversible(target, compose(chain, lifted))
        c3 = is_reversible(target, compose(lifted, chain))
        # existence form: the canonical witnesses are chain∘s and s∘chain
        c4 = (is_reversible(target, compose(chain, lifted))
              and is_reversible(target, compose(lifted, chain))
              and compose(compose(chain, lifted), lifted) == chain)
        assert c1 == c2 == c3 == c4


# -- Bayesian inversion -----------------------------------------------------------------

def test_bayesian_inverse_of_permutation():
    prior = uniform(X3)
    perm = lift_involution(Involution.from_mapping(X3, {"a": "b", "b": "a"}))
    assert bayesian_inverse(prior, perm) == perm


def test_bayesian_inverse_hand_example():
    prior = uniform(X2)
    forward = Kernel(X2, X2, [[1, 0], [q(1, 2), q(1, 2)]])
    assert bayesian_inverse(prior, forward) == Kernel(
        X2, X2, [[q(2, 3), q(1, 3)], [0, 1]])


def test_bayesian_inverse_unreachable_outputs_get_uniform_rows():
    prior = measure(X2, [1, 0])
    inverse = bayesian_inverse(prior, identity(X2))
    assert inverse.row("a") == (ONE, ZERO)
    assert inverse.row("b") == (q(1, 2), q(1, 2))


def test_bayesian_inverse_defining_equation():
    rng, cases = _rng_cases(1009, 150)
    for _ in cases:
        dom = FinSpace(tuple(f"x{i}" for i in range(rng.randint(2, 4))))
        cod = FinSpace(tuple(f"y{i}" for i in range(rng.randint(2, 4))))
        prior = rand_probability_measure(rng, dom, zero_weight=0.2)
        forward = rand_normalized_kernel(rng, dom, cod, zero_weight=0.3)
        inverse = bayesian_inverse(prior, forward)
        assert is_normalized(inverse)
        joint = compose(compose(tensor(identity(dom), forward), copy(dom)), prior)
        evidence = compose(forward, prior)
        other = compose(compose(tensor(inverse, identity(cod)), copy(cod)), evidence)
        assert joint == other


# -- augmentation --------------------------------------------------------------------------

def test_augment_identity_inner():
    prior = measure(X2, [q(1, 3), q(2, 3)])
    aux = FinSpace.atoms("u v")
    proposal = rand_normalized_kernel(random.Random(5), X2, aux)
    inner = identity(product(X2, aux))
    chain, augmented = augment_reversible(prior, proposal, inner)
    assert chain == identity(X2)
    assert augmented.measure_values() == tuple(
        prior.entries[0][X2.index(x)] * proposal.entry(x, z)
        for (x, z) in product(X2, aux).labels)


def test_augment_transfers_invariance_without_reversibility():
    # a 4-cycle on the augmented square preserves the uniform augmented
    # measure but is not reversible for it; invariance still marginalizes
    prior = uniform(X2)
    proposal = Kernel(X2, X2, [[q(1, 2), q(1, 2)], [q(1, 2), q(1, 2)]])
    joint = product(X2, X2)
    cycle = {("a", "a"): ("a", "b"), ("a", "b"): ("b", "a"),
             ("b", "a"): ("b", "b"), ("b", "b"): ("a", "a")}
    inner = deterministic(joint, joint, cycle.get)
    chain, augmented = augment_reversible(prior, proposal, inner)
    assert is_invariant(augmented, inner)
    assert not is_reversible(augmented, inner)
    assert is_invariant(prior, chain)


def test_augment_transfers_reversibility_and_invariance():
    rng, cases = _rng_cases(1010, 120)
    for _ in cases:
        base = FinSpace(tuple(f"x{i}" for i in range(rng.randint(2, 3))))
        aux = FinSpace(tuple(f"z{i}" for i in range(rng.randint(2, 3))))
        prior = rand_probability_measure(rng, base)
        proposal = rand_normalized_kernel(rng, base, aux)
        chain0, augmented = augment_reversible(
            prior, proposal, identity(product(base, aux)))
        if any(v.num == 0 for v in augmented.measure_values()):
            continue
        inner = rand_reversible_kernel(rng, augmented)
        chain, _ = augment_reversible(prior, proposal, inner)
        assert is_reversible(prior, chain)
        assert is_invariant(prior, compose(chain0, chain0))


# -- the MH kernel ---------------------------------------------------------------------------

def test_build_mh_reject_everything_is_identity():
    prob = two_state_problem([0, 0])
    assert build_mh(prob) == identity(X2)


def test_build_mh_accept_everything_is_the_involution():
    prob = MhProblem(target=uniform(X2), involution=SWAP2,
                     acceptance=effect(X2, [1, 1]))
    assert build_mh(prob) == lift_involution(SWAP2)


def test_build_mh_hand_example():
    prob = two_state_problem([q(1, 2), ONE])
    assert build_mh(prob) == Kernel(X2, X2, [[q(1, 2), q(1, 2)], [1, 0]])


@given(st.integers(0, 2**32))
def test_build_mh_always_normalized(seed):
    prob = rand_mh_problem(random.Random(seed), max_size=5)
    assert is_normalized(build_mh(prob))


def reweight_oracle(problem):
    """build_mh by its defining formula: accept * phi + (1 - accept) * id."""
    accept = problem.acceptance
    reject = effect(problem.space,
                    [residual(a, ONE) for a in accept.effect_values()])
    return (reweight(accept, lift_involution(problem.involution))
            + reweight(reject, identity(problem.space)))


def _with_acceptance(problem, choices):
    """The problem with some acceptances forced to exactly 0 or 1."""
    forced = {"keep": None, "zero": ZERO, "one": ONE}
    values = [a if forced[c] is None else forced[c]
              for a, c in zip(problem.acceptance.effect_values(), choices)]
    return MhProblem(target=problem.target, involution=problem.involution,
                     acceptance=effect(problem.space, values))


@given(st.integers(0, 2**32),
       st.lists(st.sampled_from(["keep", "zero", "one"]), min_size=8, max_size=8))
def test_build_mh_matches_reweight_oracle(seed, choices):
    problem = rand_mh_problem(random.Random(seed), max_size=8)
    for prob in (problem, _with_acceptance(problem, choices)):
        chain = build_mh(prob)
        assert chain == reweight_oracle(prob)
        assert chain.rows == reweight_oracle(prob).rows


def test_build_mh_oracle_seeds_cover_fixed_points_and_extreme_acceptances():
    seen = {"fixed point": 0, "accept 0": 0, "accept 1": 0, "strict": 0}
    for seed in range(200):
        prob = rand_mh_problem(random.Random(seed), max_size=8)
        assert build_mh(prob) == reweight_oracle(prob)
        perm = prob.involution.perm
        for i, a in enumerate(prob.acceptance.effect_values()):
            seen["fixed point"] += perm[i] == i
            seen["accept 0"] += perm[i] != i and a == ZERO
            seen["accept 1"] += perm[i] != i and a == ONE
            seen["strict"] += perm[i] != i and ZERO < a < ONE
    assert all(seen.values()), seen


@pytest.mark.parametrize("bad", [q(3, 2), INF])
def test_build_mh_rejects_acceptance_above_one(bad):
    # MhProblem refuses such an acceptance; build_mh checks it again
    prob = two_state_problem()
    forged = SimpleNamespace(target=prob.target, involution=prob.involution,
                             space=prob.space,
                             acceptance=effect(X2, [q(1, 2), bad]))
    with pytest.raises(ValueError, match=f"acceptance value {bad} exceeds 1"):
        build_mh(forged)


def test_effect_of_the_wrong_length_is_a_space_mismatch():
    with pytest.raises(SpaceMismatchError, match="expected 2 rows for .*, got 3"):
        effect(X2, [q(1, 2), ONE, ZERO])
    with pytest.raises(SpaceMismatchError, match="expected 3 rows for .*, got 2"):
        effect(X3, [q(1, 2), ONE])


# -- balancing -----------------------------------------------------------------------------------

def test_balancing_uniform_target_constant_alpha():
    target = uniform(X3)
    phi = Involution.from_mapping(X3, {"a": "b", "b": "a"})
    prob = MhProblem(target=target, involution=phi,
                     acceptance=effect(X3, [q(1, 2)] * 3))
    assert check_balancing(prob)


def test_balancing_hand_example():
    assert check_balancing(two_state_problem([ONE, q(1, 2)]))
    assert not check_balancing(two_state_problem([ONE, ONE]))


def test_balancing_alpha_contract():
    rng, cases = _rng_cases(1011, 200)
    for _ in cases:
        prob = rand_mh_problem(rng, mode="balanced")
        assert check_balancing(prob)


def test_balancing_alpha_constant_when_target_invariant():
    target = uniform(X2)
    alpha = balancing_alpha(BARKER, target, SWAP2)
    assert alpha.effect_values() == (BARKER(ONE), BARKER(ONE))


def test_balancing_alpha_reduces_the_pairs_the_balancing_function_writes():
    # at b the density pi(a)/pi(b) is the pair (2, 4), which Metropolis
    # writes as it is: from_pair_rows' gcd is what stores it as 1/2
    target = measure(X3, [q(2, 7), q(4, 7), q(1, 7)])
    phi = Involution.from_mapping(X3, {"a": "b", "b": "a", "c": "c"})
    assert METROPOLIS.fn((2, 4)) == (2, 4)
    alpha = balancing_alpha(METROPOLIS, target, phi)
    assert alpha.int_rows == (((0,), (1,), 1, ()), ((0,), (1,), 2, ()),
                              ((0,), (1,), 1, ()))
    assert_reduced(alpha)


def test_balancing_propagates_absolute_continuity_failure():
    # phi sends the charged point a onto the null point b, so the density
    # d(phi_* pi)/d pi does not exist; the product form still decides the
    # condition: accepting the move off the support violates it at a
    target = measure(X2, [ONE, ZERO])
    prob = MhProblem(target=target, involution=SWAP2,
                     acceptance=effect(X2, [1, 1]))
    assert check_balancing(prob) is False
    assert balancing_violation(prob) == "a"
    assert not is_reversible(target, build_mh(prob))


@pytest.mark.parametrize("name", sorted(BALANCING_FUNCTIONS))
def test_balancing_alpha_is_zero_where_phi_leaves_the_support(name):
    # phi sends the charged point c onto the null point d: the target's
    # support is not a union of phi-orbits
    fn = BALANCING_FUNCTIONS[name]
    space = FinSpace.atoms("a b c d")
    target = measure(space, [q(1, 6), q(1, 3), q(1, 2), ZERO])
    phi = Involution.from_mapping(space, {"a": "b", "b": "a", "c": "d", "d": "c"})
    alpha = balancing_alpha(fn, target, phi)
    assert alpha.effect_values() == (fn(q(2)), fn(q(1, 2)), ZERO, ZERO)
    prob = MhProblem(target=target, involution=phi, acceptance=alpha)
    assert is_reversible(target, build_mh(prob))
    assert check_balancing(prob)


def _density_balancing_violation(problem):
    """The balancing condition in the paper's density form, ``accept =
    (accept ∘ phi) * d(phi_* pi)/d pi`` at each charged point: the oracle
    for the product form, defined only where the density exists."""
    target, phi, accept = problem.target, problem.involution, problem.acceptance
    ratio = effect_pairs(rn_derivative(pushforward(phi, target), target))
    alpha = effect_pairs(accept)
    for i in row_support(target, 0):
        if not pair_products_equal(alpha[i], (1, 1), alpha[phi.perm[i]], ratio[i]):
            return target.cod.labels[i]
    return None


@pytest.mark.parametrize("support", ["orbits", "any"])
def test_balancing_product_form_is_the_density_form_where_it_exists(support):
    rng, cases = _rng_cases(1031, 600)
    dominated = 0
    for _ in cases:
        prob = rand_mh_problem(rng, mode="mixed", support=support)
        try:
            expected = _density_balancing_violation(prob)
        except NotAbsolutelyContinuous:
            assert support == "any"
            continue
        dominated += 1
        assert balancing_violation(prob) == expected
    assert dominated > 100


def test_theorem_flags_agree_on_arbitrary_supports():
    # a batch beside acceptance 01, whose instances keep supports that are
    # unions of phi-orbits: here phi may move charged points onto null ones
    rng, cases = _rng_cases(1041, 2000)
    off_support = reversible = 0
    for _ in cases:
        prob = rand_mh_problem(rng, 2, 6, mode="mixed", support="any")
        (masses,) = pair_rows(prob.target)
        off_support += any(prob.involution.perm[i] not in masses for i in masses)
        flags = verify_mh_theorem(prob)
        assert flags.reversible == flags.balanced
        assert flags == first_summand_reversible(prob.target, prob.involution,
                                                 prob.acceptance)
        reversible += flags.reversible
    assert off_support > 500 and 200 < reversible < 1800


def test_balancing_alpha_chain_is_reversible_on_any_support():
    rng, cases = _rng_cases(1021, 200)
    for _ in cases:
        space = FinSpace(tuple(f"x{i}" for i in range(rng.randint(2, 6))))
        target = rand_probability_measure(rng, space, zero_weight=0.4)
        phi = rand_involution(rng, space)
        masses = target.measure_values()
        for fn in BALANCING_FUNCTIONS.values():
            alpha = balancing_alpha(fn, target, phi)
            for i, a in enumerate(alpha.effect_values()):
                if not masses[phi.perm[i]]:
                    assert a == ZERO
            prob = MhProblem(target=target, involution=phi, acceptance=alpha)
            assert is_reversible(target, build_mh(prob))


# -- the pair arithmetic against its ExtNonneg definitions -------------------------------------------

_TEXTBOOK_BALANCING = {"metropolis": lambda t: min(ONE, t),
                       "barker": lambda t: ONE if t == INF else t / (ONE + t)}


def _balancing_alpha_oracle(name, target, phi):
    """``balancing_alpha`` by its definition, on ExtNonneg values: the
    balancing function of the density, against the target, of the part of
    the pushforward target that the target dominates."""
    dominated = lebesgue_decompose(pushforward(phi, target), target).ac
    return effect(target.cod, list(map(_TEXTBOOK_BALANCING[name],
                                       _density_values(dominated, target))))


@st.composite
def involutions(draw, space):
    """An involution of ``space`` that swaps some of a random pairing."""
    order = draw(st.permutations(range(len(space))))
    perm = list(range(len(space)))
    for a, b in zip(order[::2], order[1::2]):
        if draw(st.booleans()):
            perm[a], perm[b] = b, a
    return Involution(space, perm)


@st.composite
def masses_on(draw, space, entries):
    return measure(space, draw(st.lists(entries | st.just(ZERO), min_size=len(space),
                                        max_size=len(space))))


@st.composite
def balancing_problems(draw):
    """A target with zero, finite and infinite masses, and an involution."""
    space = draw(spaces(1, 6))
    return draw(masses_on(space, values)), draw(involutions(space))


@pytest.mark.parametrize("name", sorted(BALANCING_FUNCTIONS))
@given(balancing_problems())
def test_balancing_alpha_is_its_density_definition(name, problem):
    target, phi = problem
    try:
        expected = _balancing_alpha_oracle(name, target, phi)
    except NoExactDerivative as exc:
        with pytest.raises(NoExactDerivative) as got:
            balancing_alpha(BALANCING_FUNCTIONS[name], target, phi)
        assert str(got.value) == str(exc)
        return
    alpha = balancing_alpha(BALANCING_FUNCTIONS[name], target, phi)
    assert alpha.int_rows == expected.int_rows
    assert_reduced(alpha)


def test_balancing_alpha_rejects_what_its_definition_rejects():
    # an involution of another space, and a target that is not a measure
    for target, phi in ((measure(X2, [1, 1]), Involution.identity(X3)),
                        (Kernel(X2, X2, [[1, 0], [0, 1]]), SWAP2)):
        for name, fn in BALANCING_FUNCTIONS.items():
            with pytest.raises(SpaceMismatchError) as expected:
                _balancing_alpha_oracle(name, target, phi)
            with pytest.raises(SpaceMismatchError) as got:
                balancing_alpha(fn, target, phi)
            assert str(got.value) == str(expected.value)


def test_density_errors_name_the_mass_and_the_point():
    with pytest.raises(NotAbsolutelyContinuous) as got:
        rn_derivative(measure(X2, [0, q(1, 2)]), measure(X2, [1, 0]))
    assert str(got.value) == "mass 1/2 at 'b' outside the base measure's support"
    with pytest.raises(NoExactDerivative) as got:
        rn_derivative(measure(X2, [q(1, 2), 0]), measure(X2, [INF, 0]))
    assert str(got.value) == "finite mass 1/2 over an infinite atom at 'a'"
    for fn in BALANCING_FUNCTIONS.values():
        with pytest.raises(NoExactDerivative) as got:
            balancing_alpha(fn, measure(X2, [INF, q(1, 2)]), SWAP2)
        assert str(got.value) == "finite mass 1/2 over an infinite atom at 'a'"


def _textbook_direct_route(target, proposal):
    """``classical_mh``'s direct route on ExtNonneg values: q(i, j) times
    min(1, pi(j) q(j, i) / (pi(i) q(i, j))) off the diagonal, and what is
    left of 1 on it."""
    pi, steps = target.measure_values(), proposal.entries
    rows = []
    for i, row in enumerate(steps):
        off = {j: w * mh_acceptance_ratio(pi[j] * steps[j][i], pi[i] * w)
               for j, w in enumerate(row) if j != i and w != ZERO}
        off[i] = residual(ext_sum(off.values()), ONE)
        rows.append(off)
    return from_maps(target.cod, target.cod, rows)


@given(normalized_kernels(), st.data())
def test_classical_mh_direct_route_is_its_textbook_definition(proposal, data):
    target = data.draw(masses_on(proposal.dom, finite_values))
    via, direct = classical_mh(target, proposal)
    assert direct.int_rows == _textbook_direct_route(target, proposal).int_rows
    assert via == direct
    assert_reduced(direct)


# -- the MH row writers against the pair-map builds they replace -----------------------------------

def _pair_map_direct_route(proposal, accept):
    """``classical_mh``'s direct route as it was built before
    ``lazy_proposal``, with one pair map per proposal row and one per output
    row through ``from_pair_rows``: its oracle."""
    n = len(proposal.dom)
    alpha = effect_pairs(accept)
    rows = []
    for i, props in enumerate(pair_rows(proposal)):
        accepts = alpha[i * n:i * n + n]
        moves = [(j, w * accepts[j][0], accepts[j][1]) for j, (w, _) in props.items()
                 if j != i and accepts[j][0]]
        scale = lcm(*[ad for _, _, ad in moves])
        den = sum([w for w, _ in props.values()]) * scale
        row = {j: (m * (scale // ad), den) for j, m, ad in moves}
        row[i] = (den - sum([m for m, _ in row.values()]), den)
        rows.append(row)
    return from_pair_rows(proposal.dom, proposal.cod, rows)


def _dict_row_balancing_alpha(balancing, target, phi):
    """``balancing_alpha`` as it was built before ``from_effect_pairs``, with
    one ``{0: pair}`` map per charged point through ``from_pair_rows``: its
    oracle."""
    (masses,) = pair_rows(target)
    rows = [{}] * len(target.cod)
    for i, (mn, md) in masses.items():
        if (pushed := masses.get(phi.perm[i])) is None:
            continue
        if not md and pushed[1]:
            raise NoExactDerivative("finite mass over an infinite atom")
        ratio = (1, 1) if not md else (pushed[0], mn) if pushed[1] else (1, 0)
        rows[i] = {0: balancing.fn(ratio)}
    return from_pair_rows(target.cod, UNIT, rows)


@st.composite
def _proposals(draw):
    """A normalized proposal on 0-5 points, with a zero diagonal about half
    of the time it can have one."""
    n = draw(st.integers(0, 5))
    space = FinSpace(tuple(f"x{i}" for i in range(n)))
    hollow = n > 1 and draw(st.booleans())
    rows = []
    for i in range(n):
        row = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)
                   .map(lambda r, i=i: [0 if hollow and j == i else w for j, w in enumerate(r)])
                   .filter(any))
        rows.append([q(w, sum(row)) for w in row])
    return Kernel(space, space, rows)


@st.composite
def _acceptances(draw, space):
    """An effect on space (x) space with values in [0, 1], every move of
    some rows rejected."""
    n = len(space)
    rejected = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    values = [ZERO if rejected[k // n] else
              draw(st.builds(lambda a, b: q(min(a, b), b), st.integers(0, 12), st.integers(1, 12)))
              for k in range(n * n)]
    return effect(product(space, space), values)


@given(_proposals(), st.data())
def test_lazy_proposal_is_the_pair_map_direct_route(proposal, data):
    accept = data.draw(_acceptances(proposal.dom))
    direct = lazy_proposal(proposal, accept)
    assert direct.int_rows == _pair_map_direct_route(proposal, accept).int_rows
    assert_reduced(direct)
    assert is_normalized(direct)


@given(_proposals(), st.data())
def test_classical_mh_direct_route_is_its_pair_map_build(proposal, data):
    """On targets with zero masses, uncharged proposed points included, the
    direct route is the old build from the Metropolis acceptance on X (x) X."""
    target = data.draw(masses_on(proposal.dom, finite_values))
    n = len(proposal.dom)
    augmented = compose(graph(proposal), target)
    accept = balancing_alpha(METROPOLIS, augmented, Involution(
        augmented.cod, [j * n + i for i in range(n) for j in range(n)]))
    via, direct = classical_mh(target, proposal)
    assert direct.int_rows == _pair_map_direct_route(proposal, accept).int_rows
    assert via == direct
    assert_reduced(direct)


@pytest.mark.parametrize("name", sorted(BALANCING_FUNCTIONS))
@given(st.data())
def test_balancing_alpha_is_its_dict_row_build(name, data):
    """On targets of zero, finite and oo masses, the empty space included."""
    space = data.draw(spaces(0, 6))
    target, phi = data.draw(masses_on(space, values)), data.draw(involutions(space))
    fn = BALANCING_FUNCTIONS[name]
    try:
        expected = _dict_row_balancing_alpha(fn, target, phi)
    except NoExactDerivative:
        with pytest.raises(NoExactDerivative):
            balancing_alpha(fn, target, phi)
        return
    alpha = balancing_alpha(fn, target, phi)
    assert alpha.int_rows == expected.int_rows
    assert_reduced(alpha)


def test_classical_mh_builds_no_inner_after_embed(monkeypatch):
    """The marginal projects the unbuilt composite of ``embed`` and
    ``inner``: no compose, in ``mcmc`` or in the kernel layer, makes the
    X -> X (x) X kernel ``inner ∘ embed``."""
    rng = random.Random(1025)
    target = rand_probability_measure(rng, X3, zero_weight=0.2)
    proposal = rand_normalized_kernel(rng, X3, X3, zero_weight=0.3)
    made = []
    real = kernels_module.compose

    def spied(later, earlier):
        out = real(later, earlier)
        made.append((out.dom, out.cod))
        return out
    monkeypatch.setattr(kernels_module, "compose", spied)
    monkeypatch.setattr(mcmc, "compose", spied)
    via, direct = classical_mh(target, proposal)
    joint = product(X3, X3)
    assert (UNIT, joint) in made and (X3, X3) in made  # embed ∘ target, the marginal
    assert (X3, joint) not in made
    assert via == direct


def test_mcmc_reads_no_value_views():
    """``mcmc`` reads entries as pairs: none of the ``ExtNonneg`` views,
    and ``at`` only to print a value in an error message."""
    tree = ast.parse(Path(mcmc.__file__).read_text())
    in_raise = {id(node) for stmt in ast.walk(tree) if isinstance(stmt, ast.Raise)
                for node in ast.walk(stmt)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert node.attr not in ("rows", "entries", "measure_values",
                                     "effect_values"), node.lineno
            assert node.attr != "at" or id(node) in in_raise, node.lineno


# -- the theorem checkers ---------------------------------------------------------------------------

def test_verify_mh_metropolis_instance():
    assert verify_mh_theorem(two_state_problem()) == (True, True)


def test_verify_mh_unbalanced_instance():
    assert verify_mh_theorem(two_state_problem([ONE, ONE])) == (False, False)


def test_verify_mh_flags_agree_randomized():
    rng, cases = _rng_cases(1012, 500)
    for _ in cases:
        flags = verify_mh_theorem(rand_mh_problem(rng))
        assert flags.reversible == flags.balanced


def test_first_summand_zero_alpha():
    prob = two_state_problem([0, 0])
    flags = first_summand_reversible(prob.target, prob.involution, prob.acceptance)
    assert flags == (True, True)


def test_first_summand_metropolis_three_points():
    target = measure(X3, [q(1, 6), q(1, 3), q(1, 2)])
    phi = Involution.from_mapping(X3, {"a": "c", "c": "a"})
    alpha = balancing_alpha(METROPOLIS, target, phi)
    assert first_summand_reversible(target, phi, alpha) == (True, True)


def test_first_summand_always_accept_fails():
    target = measure(X2, [q(1, 3), q(2, 3)])
    flags = first_summand_reversible(target, SWAP2, effect(X2, [1, 1]))
    assert flags == (False, False)


def test_first_summand_flags_agree_randomized():
    rng, cases = _rng_cases(1013, 300)
    for _ in cases:
        prob = rand_mh_problem(rng)
        flags = first_summand_reversible(prob.target, prob.involution,
                                         prob.acceptance)
        assert flags.reversible == flags.balanced


def reweighted_involution_identity(target, phi):
    """The involution is reversible up to reweighting by the density.

    Checks target[x]*[phi(x)=y] == target[y]*r[y]*[phi(y)=x] for all pairs,
    with r the density of the pushforward target against the target. Holds
    whenever the density exists.
    """
    ratio = rn_derivative(pushforward(phi, target), target)
    masses = target.measure_values()
    r = ratio.effect_values()
    n = len(masses)
    for i in range(n):
        for j in range(n):
            lhs = masses[i] * (ONE if phi.perm[i] == j else ZERO)
            rhs = masses[j] * r[j] * (ONE if phi.perm[j] == i else ZERO)
            if lhs != rhs:
                return False
    return True


def test_reweighted_involution_identity_holds():
    rng, cases = _rng_cases(1014, 200)
    for _ in cases:
        prob = rand_mh_problem(rng)
        assert reweighted_involution_identity(prob.target, prob.involution)


# -- skew theorem -------------------------------------------------------------------------------------

def test_skew_mh_with_identity_twist_is_build_mh():
    prob = two_state_problem()
    assert build_skew_mh(prob, Involution.identity(X2)) == build_mh(prob)
    assert verify_skew_theorem(prob, Involution.identity(X2)) == verify_mh_theorem(prob)


def test_skew_mh_disjoint_transpositions():
    space = FinSpace.atoms("p0 p1 p2 p3")
    target = uniform(space)
    phi = Involution.from_mapping(space, {"p0": "p1", "p1": "p0"})
    twist = Involution.from_mapping(space, {"p2": "p3", "p3": "p2"})
    alpha = balancing_alpha(METROPOLIS, target, phi)
    prob = MhProblem(target=target, involution=phi, acceptance=alpha)
    assert is_normalized(build_skew_mh(prob, twist))
    assert verify_skew_theorem(prob, twist) == (True, True)


def test_skew_mh_violating_alpha():
    space = FinSpace.atoms("p0 p1 p2 p3")
    target = measure(space, [q(1, 10), q(2, 10), q(3, 10), q(4, 10)])
    phi = Involution.from_mapping(space, {"p0": "p1", "p1": "p0"})
    twist = Involution.identity(space)
    prob = MhProblem(target=target, involution=phi,
                     acceptance=effect(space, [1, 1, 1, 1]))
    assert verify_skew_theorem(prob, twist) == (False, False)


def _twisted_problem():
    """An MH problem and a twist that preserves its target (p1 <-> p2)."""
    space = FinSpace.atoms("p0 p1 p2 p3")
    target = measure(space, [q(1, 10), q(2, 10), q(2, 10), q(5, 10)])
    phi = Involution.from_mapping(space, {"p0": "p1", "p1": "p0"})
    prob = MhProblem(target=target, involution=phi,
                     acceptance=balancing_alpha(METROPOLIS, target, phi))
    return prob, Involution.from_mapping(space, {"p1": "p2", "p2": "p1"})


def test_verify_skew_checks_the_twist_once(monkeypatch):
    prob, twist = _twisted_problem()
    calls = []
    real = mcmc.invariant_violation

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(mcmc, "invariant_violation", counted)
    assert verify_skew_theorem(prob, twist).balanced
    assert len(calls) == 1


def test_skew_twist_must_preserve_the_target():
    prob, _ = _twisted_problem()
    moving = Involution.from_mapping(prob.target.cod, {"p0": "p3", "p3": "p0"})
    for check in (lambda: build_skew_mh(prob, moving),
                  lambda: verify_skew_theorem(prob, moving),
                  lambda: skew_balance_violation(prob.target, moving,
                                                 build_mh(prob))):
        with pytest.raises(ValueError, match="does not preserve the target"):
            check()


def test_a_twist_on_another_space_is_named():
    prob, _ = _twisted_problem()
    elsewhere = SWAP2  # on a two-point space, not the problem's four points
    chain = build_mh(prob)
    for check in (lambda: skew_balance_violation(prob.target, elsewhere, chain),
                  lambda: is_skew_reversible(prob.target, elsewhere, chain),
                  lambda: verify_skew_theorem(prob, elsewhere),
                  lambda: build_skew_mh(prob, elsewhere)):
        with pytest.raises(SpaceMismatchError,
                           match="^twist involution lives on a different space$"):
            check()


MU2 = measure(X2, [q(1, 3), q(2, 3)])


@pytest.mark.parametrize("mu, kernel, twist, error, message", [
    (MU2, Kernel(X2, X2, [[ZERO, ONE], [ONE, ZERO]]), SWAP2,
     ValueError, "twist involution does not preserve the target"),
    (MU2, Kernel(X3, X2, [[ZERO, ONE], [q(1, 2), q(1, 2)], [ONE, ZERO]]), None,
     SpaceMismatchError, "chain must be an endomorphism on the target space"),
    (identity(X2), identity(X2), None, SpaceMismatchError, "target must be a measure"),
    (MU2, Kernel(X2, X3, [[ZERO, ZERO, ONE]] * 2), None,
     SpaceMismatchError, "chain must be an endomorphism on the target space"),
])
def test_the_scan_refuses_inputs_it_cannot_decide(mu, kernel, twist, error, message):
    """Each case returned a silent answer or a stray error before the scan
    checked its own inputs."""
    with pytest.raises(error, match=f"^{message}$"):
        swap_asymmetry(mu, kernel, twist)


@st.composite
def _involutions(draw, space):
    n = len(space)
    order, pairs = draw(st.permutations(range(n))), draw(st.integers(1, n // 2))
    perm = list(range(n))
    for a, b in zip(order[:2 * pairs:2], order[1:2 * pairs:2]):
        perm[a], perm[b] = b, a
    return Involution(space, perm)


@st.composite
def _targets_and_twists(draw):
    """A target of zero, finite and oo masses and an involution on its
    space; in about half of the cases the target is then made equal on each
    swapped pair, so that the involution preserves it."""
    target, _ = draw(_targets_and_chains())
    twist = draw(_involutions(target.cod))
    if draw(st.booleans()):
        masses = target.measure_values()
        target = measure(target.cod, [masses[min(i, j)] for i, j in enumerate(twist.perm)])
    return target, twist


def _refusal(check):
    try:
        check()
    except ValueError as exc:  # SpaceMismatchError is one
        return type(exc), str(exc)
    return None


@given(_targets_and_twists(), st.data())
def test_the_scan_and_build_skew_mh_refuse_the_same_twists(case, data):
    """``build_skew_mh`` decides that a twist preserves the target by
    composing it after the target, the scan by comparing mass pairs. Under
    a target with an oo mass, which no MH problem takes, the scan is
    compared with that composition alone."""
    target, twist = case
    if is_cancellative(target):
        phi = data.draw(_involutions(target.cod))
        problem = MhProblem(target=target, involution=phi,
                            acceptance=balancing_alpha(METROPOLIS, target, phi))
        built = _refusal(lambda: build_skew_mh(problem, twist))
        assert built == _refusal(lambda: swap_asymmetry(target, build_mh(problem), twist))
    else:
        built = None if is_invariant(target, lift_involution(twist)) else (
            ValueError, "twist involution does not preserve the target")
        scan = _refusal(lambda: swap_asymmetry(target, identity(target.cod), twist))
        assert built == scan


@given(_targets_and_twists())
def test_an_involution_moves_the_target_where_its_kernel_does(case):
    # zero, finite and oo masses: the pair-row comparison against the
    # composition, witness included
    target, twist = case
    assert (invariant_violation(target, twist)
            == invariant_violation(target, lift_involution(twist)))


def test_skew_theorem_flags_agree_randomized():
    rng, cases = _rng_cases(1015, 200)
    for _ in cases:
        prob = rand_mh_problem(rng, max_size=5)
        twist = _target_preserving_involution(rng, prob.target)
        assert is_normalized(build_skew_mh(prob, twist))
        flags = verify_skew_theorem(prob, twist)
        assert flags.reversible == flags.balanced


def _target_preserving_involution(rng, target):
    space = target.cod
    masses = target.measure_values()
    perm = list(range(len(space)))
    indices = list(range(len(space)))
    rng.shuffle(indices)
    while len(indices) >= 2:
        a, b = indices.pop(), indices.pop()
        if masses[a] == masses[b] and rng.random() < 0.8:
            perm[a], perm[b] = b, a
    return Involution(space, tuple(perm))


# -- classical MH ---------------------------------------------------------------------------------------

def test_acceptance_ratio_convention():
    assert mh_acceptance_ratio(ONE, ZERO) == ZERO
    assert mh_acceptance_ratio(ZERO, ZERO) == ZERO
    assert mh_acceptance_ratio(q(3), q(2)) == ONE
    assert mh_acceptance_ratio(ONE, q(2)) == q(1, 2)


def test_classical_mh_uniform_target_symmetric_proposal():
    target = uniform(X3)
    sym = Kernel(X3, X3, [
        [q(1, 2), q(1, 4), q(1, 4)],
        [q(1, 4), q(1, 2), q(1, 4)],
        [q(1, 4), q(1, 4), q(1, 2)]])
    via, direct = classical_mh(target, sym)
    assert via == direct == sym


def test_classical_mh_hand_example():
    target = measure(X2, [q(1, 3), q(2, 3)])
    proposal = Kernel(X2, X2, [[q(1, 2), q(1, 2)], [q(1, 2), q(1, 2)]])
    via, direct = classical_mh(target, proposal)
    assert direct == Kernel(X2, X2, [[q(1, 2), q(1, 2)], [q(1, 4), q(3, 4)]])
    assert via == direct


def test_classical_mh_routes_agree_randomized():
    rng, cases = _rng_cases(1016, 150)
    for _ in cases:
        space = FinSpace(tuple(f"x{i}" for i in range(rng.randint(2, 5))))
        target = rand_probability_measure(rng, space, zero_weight=0.2)
        proposal = rand_normalized_kernel(rng, space, space, zero_weight=0.3)
        via, direct = classical_mh(target, proposal)
        assert via == direct
        assert is_reversible(target, via)
        assert is_reversible(target, direct)


def test_classical_mh_builds_the_proposals_graph_once(monkeypatch):
    rng = random.Random(1024)
    target = rand_probability_measure(rng, X3, zero_weight=0.2)
    proposal = rand_normalized_kernel(rng, X3, X3, zero_weight=0.3)
    calls = []
    real = mcmc.graph

    def counted(kernel):
        calls.append(kernel)
        return real(kernel)
    monkeypatch.setattr(mcmc, "graph", counted)
    via, direct = classical_mh(target, proposal)
    assert calls == [proposal]
    assert via == direct
    # augment_reversible builds it once more, for its own augmented measure
    calls.clear()
    augment_reversible(target, proposal, identity(product(X3, X3)))
    assert calls == [proposal]


# -- exchange algorithm -----------------------------------------------------------------------------------

def _exchange_fixture(rng=None, nx=2, nz=2):
    rng = rng or random.Random(7)
    base = FinSpace(tuple(f"t{i}" for i in range(nx)))
    data = FinSpace(tuple(f"z{i}" for i in range(nz)))
    prior = rand_probability_measure(rng, base)
    lik = rand_normalized_kernel(rng, base, data)
    proposal = rand_normalized_kernel(rng, base, base)
    return base, data, prior, lik, proposal


def test_exchange_balancing_exhaustive_small():
    base, data, prior, lik, proposal = _exchange_fixture()
    augmented, phi, alpha = exchange_algorithm(prior, lik, "z0", proposal)
    assert len(augmented.cod) == 8
    prob = MhProblem(target=augmented, involution=phi, acceptance=alpha)
    assert check_balancing(prob)
    assert is_reversible(augmented, build_mh(prob))


def test_exchange_alpha_invariant_under_likelihood_rescaling():
    base, data, prior, lik, proposal = _exchange_fixture(random.Random(11))
    scaled = Kernel(base, data, [
        [v * q(3, 2) if i == 0 else v * q(7) for v in row]
        for i, row in enumerate(lik.entries)])
    _, _, alpha = exchange_algorithm(prior, lik, "z1", proposal)
    _, _, alpha_scaled = exchange_algorithm(prior, scaled, "z1", proposal)
    assert alpha == alpha_scaled


def test_exchange_reduces_to_prior_ratio_when_likelihood_uninformative():
    base = FinSpace.atoms("t0 t1")
    data = FinSpace.atoms("z0 z1")
    prior = measure(base, [q(1, 4), q(3, 4)])
    lik = Kernel(base, data, [[q(1, 2), q(1, 2)], [q(1, 2), q(1, 2)]])
    proposal = Kernel(base, base, [[q(1, 2), q(1, 2)], [q(1, 2), q(1, 2)]])
    _, _, alpha = exchange_algorithm(prior, lik, "z0", proposal)
    for point, value in zip(alpha.dom.labels, alpha.effect_values()):
        x, (z, y) = point
        expected = mh_acceptance_ratio(prior.entry("*", y), prior.entry("*", x))
        assert value == expected


def test_exchange_marginal_chain_targets_posterior():
    base, data, prior, lik, proposal = _exchange_fixture(random.Random(17))
    augmented, phi, alpha = exchange_algorithm(prior, lik, "z0", proposal)
    prob = MhProblem(target=augmented, involution=phi, acceptance=alpha)
    inner = build_mh(prob)
    raw = [prior.entry("*", x) * lik.entry(x, "z0") for x in base.labels]
    total = ext_sum(raw)
    posterior = measure(base, [v / total for v in raw])
    attach = compose(tensor(lik, identity(base)), compose(copy(base), proposal))
    marginal_chain, augmented_again = augment_reversible(posterior, attach, inner)
    assert augmented_again == augmented
    assert is_invariant(posterior, marginal_chain)
    assert is_reversible(posterior, marginal_chain)


def _oracle_ratio(num, den):
    return ZERO if den == ZERO else min(ONE, num / den)


def test_classical_mh_matches_the_textbook_acceptance():
    # alpha(i, j) = min(1, pi(j) q(j, i) / (pi(i) q(i, j))), 0 over a zero
    # denominator; off the diagonal both routes are q(i, j) * alpha(i, j)
    rng, cases = _rng_cases(1022, 150)
    for _ in cases:
        space = FinSpace(tuple(f"x{i}" for i in range(rng.randint(2, 5))))
        target = rand_probability_measure(rng, space, zero_weight=0.3)
        proposal = rand_normalized_kernel(rng, space, space, zero_weight=0.4)
        pi, steps = target.measure_values(), proposal.entries
        n = len(space)
        rows = []
        for i in range(n):
            row = [steps[i][j] * _oracle_ratio(pi[j] * steps[j][i], pi[i] * steps[i][j])
                   if j != i else ZERO for j in range(n)]
            row[i] = residual(ext_sum(row), ONE)
            rows.append(row)
        expected = Kernel(space, space, rows)
        via, direct = classical_mh(target, proposal)
        assert via == direct == expected


def test_exchange_matches_the_textbook_acceptance():
    # alpha(x, z, y) = min(1, p(y) L(y, obs) q(y, x) L(x, z)
    #                         / (p(x) L(x, obs) q(x, y) L(y, z))), 0 over 0
    rng, cases = _rng_cases(1023, 150)
    checked = 0
    for _ in cases:
        base = FinSpace(tuple(f"t{i}" for i in range(rng.randint(2, 3))))
        data = FinSpace(tuple(f"z{i}" for i in range(rng.randint(2, 3))))
        prior = rand_probability_measure(rng, base, zero_weight=0.3)
        lik = rand_normalized_kernel(rng, base, data, zero_weight=0.4)
        proposal = rand_normalized_kernel(rng, base, base, zero_weight=0.4)
        p = dict(zip(base.labels, prior.measure_values()))
        if all(p[x] * lik.entry(x, "z0") == ZERO for x in base.labels):
            continue  # no posterior at the observation
        _, _, alpha = exchange_algorithm(prior, lik, "z0", proposal)
        for (x, (z, y)), value in zip(alpha.dom.labels, alpha.effect_values()):
            num = p[y] * lik.entry(y, "z0") * proposal.entry(y, x) * lik.entry(x, z)
            den = p[x] * lik.entry(x, "z0") * proposal.entry(x, y) * lik.entry(y, z)
            assert value == _oracle_ratio(num, den)
        checked += 1
    assert checked > 100


def test_exchange_rejects_a_prior_that_is_not_a_measure():
    base = FinSpace.atoms("t0 t1")
    lik = Kernel(base, FinSpace.atoms("z0 z1"), [[1, 0], [0, 1]])
    with pytest.raises(SpaceMismatchError, match="prior must be a measure"):
        exchange_algorithm(identity(base), lik, "z0", identity(base))


def test_exchange_rejects_zero_mass_target():
    base = FinSpace.atoms("t0 t1")
    data = FinSpace.atoms("z0 z1")
    prior = measure(base, [1, 1])
    lik = Kernel(base, data, [[0, 1], [0, 1]])
    proposal = Kernel(base, base, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        exchange_algorithm(prior, lik, "z0", proposal)


DATA1 = FinSpace.atoms("z")
INFINITE_MASS_CASES = {
    "classical_mh": (lambda: classical_mh(measure(X2, [INF, 1]), lift_involution(SWAP2)),
                     "classical_mh needs finite target masses"),
    "exchange_prior": (lambda: exchange_algorithm(
        measure(X2, [INF, 1]), Kernel(X2, DATA1, [[1], [1]]), "z", identity(X2)),
        "exchange_algorithm needs a finite prior and likelihood"),
    "exchange_likelihood": (lambda: exchange_algorithm(
        measure(X2, [1, 1]), Kernel(X2, DATA1, [[INF], [1]]), "z", identity(X2)),
        "exchange_algorithm needs a finite prior and likelihood"),
    "bayesian_inverse": (lambda: bayesian_inverse(measure(X2, [INF, 1]), identity(X2)),
                         "bayesian_inverse needs finite joint masses"),
    "gibbs": (lambda: gibbs(measure(product_many([X2, X2]), [INF, 1, 1, 1]), [X2, X2]),
              "gibbs needs a finite joint measure"),
}


@pytest.mark.parametrize("case", sorted(INFINITE_MASS_CASES))
def test_an_infinite_mass_is_refused_as_not_cancellative(case):
    build, message = INFINITE_MASS_CASES[case]
    with pytest.raises(NotCancellative) as refused:
        build()
    assert str(refused.value) == message


# -- conditionals and Gibbs ----------------------------------------------------------------------------------

def _split_product(space):
    """The two factors of a space built by ``product``."""
    left_sp = FinSpace(dict.fromkeys(x for x, _ in space.labels))
    right_sp = FinSpace(dict.fromkeys(y for _, y in space.labels))
    assert product(left_sp, right_sp) == space
    return left_sp, right_sp


def conditional(joint, given="left"):
    """The conditional of a finite measure on X (x) Y given the left
    factor: f: X -> Y with joint[(x, y)] == marginal[x] * f[x][y], uniform
    at marginal-null x; ``given="right"`` conditions on Y."""
    left_sp, right_sp = _split_product(joint.cod)
    if given == "right":
        return conditional(compose(deterministic(
            joint.cod, product(right_sp, left_sp), lambda p: (p[1], p[0])), joint))
    m = len(right_sp)
    values = joint.measure_values()
    maps = []
    for start in range(0, len(values), m):
        block = values[start:start + m]
        total = ext_sum(block)
        maps.append({j: v / total if total.num else q(1, m) for j, v in enumerate(block)})
    return from_maps(left_sp, right_sp, maps)


def test_conditional_of_product_measure():
    left = measure(X2, [q(1, 4), q(3, 4)])
    right = measure(FinSpace.atoms("u v"), [q(1, 3), q(2, 3)])
    # explicit unit relabel: I -> I (x) I, then the tensored measures
    joint = compose(tensor(left, right), copy(UNIT))
    f = conditional(joint, given="left")
    for row in f.entries:
        assert row == right.entries[0]


def test_conditional_hand_example():
    grid = product(X2, FinSpace.atoms("u v"))
    joint = measure(grid, [q(1, 4), q(1, 4), q(1, 2), 0])
    f = conditional(joint, given="left")
    assert f.entries == ((q(1, 2), q(1, 2)), (ONE, ZERO))
    g = conditional(joint, given="right")
    assert g.entries == ((q(1, 3), q(2, 3)), (ONE, ZERO))


def test_conditional_null_rows_are_uniform():
    grid = product(X2, FinSpace.atoms("u v w"))
    joint = measure(grid, {("a", "u"): ONE})
    f = conditional(joint, given="left")
    assert f.row("a") == (ONE, ZERO, ZERO)
    assert f.row("b") == (q(1, 3), q(1, 3), q(1, 3))


def test_conditional_reconstruction():
    rng, cases = _rng_cases(1017, 150)
    for _ in cases:
        left_sp = FinSpace(tuple(f"x{i}" for i in range(rng.randint(2, 3))))
        right_sp = FinSpace(tuple(f"y{i}" for i in range(rng.randint(2, 3))))
        grid = product(left_sp, right_sp)
        joint = rand_probability_measure(rng, grid, zero_weight=0.3)
        f = conditional(joint, given="left")
        marginal = compose(right_unitor(left_sp),
                           compose(tensor(identity(left_sp), delete(right_sp)),
                                   joint))
        rebuilt = compose(compose(tensor(identity(left_sp), f), copy(left_sp)),
                          marginal)
        assert rebuilt == joint


def test_gibbs_on_independent_product_resamples_fully():
    left = measure(X2, [q(1, 4), q(3, 4)])
    right = measure(FinSpace.atoms("u v"), [q(1, 3), q(2, 3)])
    joint_vals = [a * b for a in left.entries[0] for b in right.entries[0]]
    grid = product_many([X2, FinSpace.atoms("u v")])
    joint = measure(grid, joint_vals)
    chain = gibbs(joint, [X2, FinSpace.atoms("u v")])
    for row in chain.entries:
        assert row == tuple(joint_vals)


def test_gibbs_invariance_correlated():
    grid = product_many([X2, FinSpace.atoms("u v")])
    joint = measure(grid, [q(1, 4), q(1, 4), q(1, 2), 0])
    chain = gibbs(joint, [X2, FinSpace.atoms("u v")])
    assert is_invariant(joint, chain)
    assert is_normalized(chain)


def test_gibbs_site_kernels_reversible():
    rng, cases = _rng_cases(1018, 60)
    for _ in cases:
        sizes = [rng.randint(2, 3) for _ in range(rng.randint(2, 3))]
        factors = [FinSpace(tuple(f"c{i}_{j}" for j in range(n)))
                   for i, n in enumerate(sizes)]
        grid = product_many(factors)
        joint = rand_probability_measure(rng, grid, zero_weight=0.25)
        for site in gibbs_site_kernels(joint, factors):
            assert is_reversible(joint, site)
        assert is_invariant(joint, gibbs(joint, factors))


def test_gibbs_sites_match_the_conditional_written_out():
    """Row x of site i is the joint at x with coordinate i set to each value
    c, over its sum across c, and uniform where that sum is 0."""
    rng, cases = _rng_cases(1119, 40)
    for _ in cases:
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
        factors = [FinSpace(tuple(f"c{i}_{j}" for j in range(n)))
                   for i, n in enumerate(sizes)]
        grid = product_many(factors)
        joint = rand_probability_measure(rng, grid, zero_weight=0.5)
        mass = dict(zip(grid.labels, joint.measure_values()))
        for i, site in enumerate(gibbs_site_kernels(joint, factors)):
            for x in grid.labels:
                moves = [x[:i] + (c,) + x[i + 1:] for c in factors[i].labels]
                total = ext_sum(mass[y] for y in moves)
                want = dict.fromkeys(grid.labels, ZERO)
                for y in moves:
                    want[y] = mass[y] / total if total.num else q(1, sizes[i])
                assert site.row(x) == tuple(want.values()), (i, x)


def _gibbs_site_oracle(joint, factors, i):
    """Site ``i`` built from structural kernels: relabel coordinate ``i`` to
    the last slot, delete it, refill it by the graph of the conditional
    given the rest, and relabel back."""
    space = product_many(factors)
    rest_sp = product_many(factors[:i] + factors[i + 1:])
    grouped_sp = product(rest_sp, factors[i])
    to_grouped = deterministic(space, grouped_sp, lambda x: (x[:i] + x[i + 1:], x[i]))
    from_grouped = deterministic(grouped_sp, space,
                                 lambda p: p[0][:i] + (p[1],) + p[0][i:])
    resample = conditional(compose(to_grouped, joint), given="left")
    update = compose(graph(resample), compose(
        right_unitor(rest_sp), tensor(identity(rest_sp), delete(factors[i]))))
    return compose(from_grouped, compose(update, to_grouped))


def test_gibbs_sites_equal_the_structural_construction():
    """2-4 factors of 1-3 points; joints with null fibers, unnormalized
    integer weights, and all zero."""
    rng, cases = _rng_cases(1420, 60)
    for case in cases:
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        factors = [FinSpace(tuple(f"c{i}_{j}" for j in range(n)))
                   for i, n in enumerate(sizes)]
        grid = product_many(factors)
        if case % 3 == 0:
            joint = rand_probability_measure(rng, grid, zero_weight=0.6)
        elif case % 3 == 1:
            joint = measure(grid, [rng.choice([0, 0, 1, 2, 6]) for _ in grid.labels])
        else:
            joint = measure(grid, [0] * len(grid))
        sites = gibbs_site_kernels(joint, factors)
        assert len(sites) == len(factors)
        for i, site in enumerate(sites):
            assert site == _gibbs_site_oracle(joint, factors, i), (case, i)
            assert_reduced(site)


def test_gibbs_over_a_factor_with_no_points_is_the_empty_chain():
    for factors in ([X2, EMPTY], [EMPTY, X3], [X2, EMPTY, X3]):
        grid = product_many(factors)
        joint = measure(grid, [])
        chain = gibbs(joint, factors)
        assert chain == Kernel(grid, grid, []) and chain.dom == EMPTY
        assert is_invariant(joint, chain)
        assert gibbs_site_kernels(joint, factors) == [chain] * len(factors)


def _grid(sizes):
    return [FinSpace(tuple(f"c{i}_{j}" for j in range(n))) for i, n in enumerate(sizes)]


@given(st.data())
def test_a_moved_measure_gets_the_eager_sweeps_witness(data):
    """The measure is pushed through the sites, zeros and oo included, and
    the first moved point is the one the built sweep gives."""
    factors = _grid(data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    grid = product_many(factors)
    joint = data.draw(kernels_on(UNIT, grid, st.one_of(st.just(ZERO), finite_values)))
    nu = data.draw(kernels_on(UNIT, grid, st.one_of(st.just(ZERO), values)))
    witness = invariant_violation(nu, eager_fold(gibbs_site_kernels(joint, factors)))
    assume(witness is not None)
    chain = gibbs(joint, factors)
    assert invariant_violation(nu, chain) == witness
    assert not rows_built(chain)


def test_checking_a_gibbs_sweep_never_builds_its_rows(monkeypatch):
    """Every composition the check makes, ``compose``'s own calls to itself
    included, takes a measure first: no site is ever composed with another."""
    from finkern import kernels

    earlier_doms = []
    real = kernels.compose

    def counted(later, earlier):
        earlier_doms.append(earlier.dom)
        return real(later, earlier)
    monkeypatch.setattr(kernels, "compose", counted)
    monkeypatch.setattr(mcmc, "compose", counted)
    factors = _grid([5, 5, 5])
    joint = rand_probability_measure(random.Random(36), product_many(factors),
                                     zero_weight=0.3)
    chain = gibbs(joint, factors)
    assert is_invariant(joint, chain)
    assert not rows_built(chain)
    assert earlier_doms == [UNIT] * 4  # chain ∘ joint, then one per site
    monkeypatch.undo()
    assert chain.int_rows == eager_fold(gibbs_site_kernels(joint, factors)).int_rows


# -- the sparse pair scans against the all-pairs definitions ------------------

sparse_values = st.one_of(st.just(ZERO), st.just(ZERO), st.just(ZERO),
                          st.builds(ExtNonneg, st.integers(1, 6), st.integers(1, 4)),
                          st.just(INF))


@st.composite
def _targets_and_chains(draw):
    n = draw(st.integers(2, 6))
    space = FinSpace(tuple(f"x{i}" for i in range(n)))
    target = measure(space, draw(st.lists(sparse_values, min_size=n, max_size=n)))
    chain = Kernel(space, space, draw(st.lists(
        st.lists(sparse_values, min_size=n, max_size=n), min_size=n, max_size=n)))
    return target, chain


@given(_targets_and_chains())
def test_detailed_balance_witness_is_first_unbalanced_pair(pair):
    target, chain = pair
    masses, rows = target.measure_values(), chain.entries
    labels = target.cod.labels
    expected = next(((labels[i], labels[j])
                     for i in range(len(labels)) for j in range(i + 1, len(labels))
                     if masses[i] * rows[i][j] != masses[j] * rows[j][i]), None)
    assert detailed_balance_violation(target, chain) == expected


def _sorted_pairs_violation(target, chain):
    """Detailed balance as it was first decided, kept as the oracle: every
    index pair where the chain moves in at least one direction, sorted, each
    compared as pairs."""
    (masses,) = pair_rows(target)
    rows = pair_rows(chain)
    pairs = sorted({(i, j) if i < j else (j, i)
                    for i, row in enumerate(rows) for j in row if i != j})
    for i, j in pairs:
        if not pair_products_equal(masses.get(i, ZERO_PAIR), rows[i].get(j, ZERO_PAIR),
                                   masses.get(j, ZERO_PAIR), rows[j].get(i, ZERO_PAIR)):
            return i, j
    return None


def _in_detailed_balance(target, chain):
    """The chain's rows with each entry below the diagonal set from the one
    above it, so that they are in detailed balance with the target (zero
    and oo masses and entries included)."""
    masses, rows = target.measure_values(), [list(row) for row in chain.entries]
    n = len(masses)
    for i in range(n):
        for j in range(i + 1, n):
            joint = masses[i] * rows[i][j]
            if not masses[j].num:  # the swapped side is 0
                if joint.num:
                    rows[i][j] = ZERO
            elif masses[j].is_finite:
                rows[j][i] = joint / masses[j]
            elif joint.num:  # oo on the swapped side: make this side oo too
                rows[i][j], rows[j][i] = INF, ONE
            else:
                rows[j][i] = ZERO
    return rows


@st.composite
def _balanced_targets_and_chains(draw):
    """A target and a chain in detailed balance with it, zero, finite and oo
    masses and entries included; in about half of them one entry is then
    redrawn. Returns the target, the chain and whether it was redrawn."""
    target, chain = draw(_targets_and_chains())
    rows, n = _in_detailed_balance(target, chain), len(target.cod)
    redrawn = draw(st.booleans())
    if redrawn:
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(sparse_values)
    return target, Kernel(target.cod, target.cod, rows), redrawn


def _assert_one_pass_matches_sorted_pairs(target, chain):
    expected = _sorted_pairs_violation(target, chain)
    assert swap_asymmetry(target, chain) == expected
    labels = target.cod.labels
    assert detailed_balance_violation(target, chain) == (
        None if expected is None else (labels[expected[0]], labels[expected[1]]))
    return expected


@given(_balanced_targets_and_chains())
def test_one_pass_detailed_balance_matches_sorted_pairs_when_balanced(case):
    target, chain, redrawn = case
    expected = _assert_one_pass_matches_sorted_pairs(target, chain)
    assert redrawn or expected is None


@given(_targets_and_chains())
def test_one_pass_detailed_balance_matches_sorted_pairs_on_sparse_chains(pair):
    _assert_one_pass_matches_sorted_pairs(*pair)


@given(st.integers(1, 7), st.integers(0, 2 ** 32), st.data())
def test_one_pass_detailed_balance_matches_sorted_pairs_on_random_chains(n, seed, data):
    rng = random.Random(seed)
    space = FinSpace(tuple(f"x{i}" for i in range(n)))
    target = rand_probability_measure(rng, space)
    reversible = rand_reversible_kernel(rng, target)
    assert _assert_one_pass_matches_sorted_pairs(target, reversible) is None
    problem = rand_mh_problem(rng, n, n)
    _assert_one_pass_matches_sorted_pairs(problem.target, build_mh(problem))
    dense = Kernel(space, space, data.draw(st.lists(
        st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n)))
    masses = measure(space, data.draw(st.lists(values, min_size=n, max_size=n)))
    for mu in (target, masses):
        _assert_one_pass_matches_sorted_pairs(mu, dense)


@given(st.integers(0, 2 ** 32))
def test_skew_reversibility_matches_all_pairs_definition(seed):
    target, twist, chain = rand_skew_instance(random.Random(seed))
    lifted = lift_involution(twist)
    back = compose(lifted, compose(chain, lifted)).entries
    masses, n = target.measure_values(), len(target.cod)
    expected = all(masses[i] * chain.entries[i][j] == masses[j] * back[j][i]
                   for i in range(n) for j in range(n))
    assert is_skew_reversible(target, twist, chain) == expected


@given(_targets_and_chains())
def test_invariance_witness_matches_the_value_oracle(pair):
    """The integer-pair comparison agrees with ExtNonneg arithmetic, zeros
    and oo included (0 * oo = 0)."""
    target, chain = pair
    masses, rows = target.measure_values(), chain.entries
    n = len(masses)
    after = [sum((masses[i] * rows[i][j] for i in range(n)), ZERO) for j in range(n)]
    expected = next((target.cod.labels[j] for j in range(n)
                     if after[j] != masses[j]), None)
    assert mcmc.invariant_violation(target, chain) == expected


@st.composite
def _twisted_targets_and_chains(draw):
    """A target of zero, finite and oo masses, an involution that preserves
    it, and a chain of zero, finite and oo entries; about half of the chains
    are twisted detailed-balance chains, which are skew-balanced, some with
    one entry redrawn."""
    target, chain = draw(_targets_and_chains())
    n = len(target.cod)
    perm = list(range(n))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        if perm[i] == i:  # pair i with the first fixed point after it
            k = next((k for k in range(i + 1, n) if perm[k] == k), None)
            if k is not None:
                perm[i], perm[k] = k, i
    masses = target.measure_values()
    target = measure(target.cod, [masses[min(i, j)] for i, j in enumerate(perm)])
    twist = Involution(target.cod, perm)
    if draw(st.booleans()):
        balanced = Kernel(target.cod, target.cod, _in_detailed_balance(target, chain))
        rows = [list(row) for row in compose(lift_involution(twist), balanced).entries]
        if draw(st.booleans()):
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(sparse_values)
        chain = Kernel(target.cod, target.cod, rows)
    return target, twist, chain


@given(_twisted_targets_and_chains())
def test_skew_witness_matches_the_value_oracle(case):
    """Under a target-preserving twist the witness is the first failing
    entry in row-major order, by ExtNonneg arithmetic with zeros and oo
    (0 * oo = 0); without a twist it is the least failing pair i < j."""
    target, twist, chain = case
    masses, rows, s = target.measure_values(), chain.entries, twist.perm
    n, labels = len(masses), target.cod.labels
    skew = next(((i, j) for i in range(n) for j in range(n) if rows[i][j].num
                 and masses[i] * rows[i][j] != masses[j] * rows[s[j]][s[i]]), None)
    assert swap_asymmetry(target, chain, twist) == skew
    assert skew_balance_violation(target, twist, chain) == (
        None if skew is None else (labels[skew[0]], labels[skew[1]]))
    plain = next(((i, j) for i in range(n) for j in range(i + 1, n)
                  if masses[i] * rows[i][j] != masses[j] * rows[j][i]), None)
    assert swap_asymmetry(target, chain) == plain


@pytest.mark.parametrize("refuse, text", [
    pytest.param(lambda: invariant_violation(identity(X2), identity(X2)),
                 "target must be a measure", id="invariant-target"),
    pytest.param(lambda: invariant_violation(measure(X2, [1, 0]), Involution.identity(X3)),
                 "involution lives on a different space", id="invariant-involution"),
    pytest.param(lambda: bayesian_inverse(identity(X2), identity(X2)),
                 "prior must be a measure on the forward domain", id="bayesian-inverse"),
    pytest.param(lambda: augment_reversible(measure(X2, [1, 0]), identity(X3), identity(X2)),
                 "proposal must start from the target space", id="augment-proposal"),
    pytest.param(lambda: augment_reversible(measure(X2, [1, 0]), identity(X2), identity(X2)),
                 "inner chain must act on base (x) aux", id="augment-inner"),
    pytest.param(lambda: exchange_algorithm(identity(X2), identity(X2), "a", identity(X2)),
                 "prior must be a measure on the parameters", id="exchange-prior"),
    pytest.param(lambda: exchange_algorithm(measure(X2, [1, 0]), identity(X3), "a", identity(X2)),
                 "likelihood must map parameters to data", id="exchange-likelihood"),
])
def test_mcmc_refusals_keep_their_class_and_text(refuse, text):
    with pytest.raises(SpaceMismatchError) as info:
        refuse()
    assert type(info.value) is SpaceMismatchError and str(info.value) == text
