import random
from types import SimpleNamespace

import pytest
from hypothesis import given
import hypothesis.strategies as st

from finkern.semiring import (
    ExtNonneg, INF, ONE, ZERO, ext_sum, pair_products_equal, residual,
)
from finkern.spaces import FinSpace, UNIT, product, product_many
from finkern.kernels import (
    Involution, Kernel, SpaceMismatchError, compose, copy, delete,
    deterministic, effect, effect_pairs, identity, lift_involution, measure,
    pair_rows, pushforward, reweight, right_unitor, row_support, swap, tensor,
    uniform, is_normalized,
)
from finkern.enrichment import NotAbsolutelyContinuous, leq_witness, rn_derivative
from finkern import mcmc
from finkern.mcmc import (
    BALANCING_FUNCTIONS, BARKER, METROPOLIS, MhProblem, augment_reversible,
    balancing_alpha, balancing_violation, bayesian_inverse, build_mh,
    build_skew_mh, check_balancing, classical_mh, conditional, detailed_balance_violation,
    exchange_algorithm,
    first_summand_reversible, gibbs, gibbs_site_kernels, is_invariant,
    is_reversible, is_skew_reversible, mh_acceptance_ratio,
    skew_balance_violation, verify_mh_theorem, verify_skew_theorem,
)
from finkern.generators import (
    rand_involution, rand_mh_problem, rand_normalized_kernel,
    rand_probability_measure, rand_reversible_kernel, rand_skew_instance,
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
    # the public predicate keeps its own precondition check
    chain = build_skew_mh(prob, twist)
    calls.clear()
    skew_balance_violation(prob.target, twist, chain)
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


def test_exchange_rejects_zero_mass_target():
    base = FinSpace.atoms("t0 t1")
    data = FinSpace.atoms("z0 z1")
    prior = measure(base, [1, 1])
    lik = Kernel(base, data, [[0, 1], [0, 1]])
    proposal = Kernel(base, base, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        exchange_algorithm(prior, lik, "z0", proposal)


# -- conditionals and Gibbs ----------------------------------------------------------------------------------

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


@given(_targets_and_chains(), st.data())
def test_skew_witness_matches_the_value_oracle(pair, data):
    target, chain = pair
    n = len(target.cod)
    perm = list(range(n))
    for i in data.draw(st.lists(st.integers(0, n - 1), max_size=n)):
        j = perm[i]
        if j == i:  # pair i with the first fixed point after it
            k = next((k for k in range(i + 1, n) if perm[k] == k), None)
            if k is not None:
                perm[i], perm[k] = k, i
    twist = Involution(target.cod, perm)
    masses, rows = target.measure_values(), chain.entries
    expected = next(((target.cod.labels[i], target.cod.labels[j])
                     for i in range(n) for j in range(n) if rows[i][j].num
                     and masses[i] * rows[i][j]
                     != masses[j] * rows[perm[j]][perm[i]]), None)
    assert mcmc._skew_pair_violation(target, twist, chain) == expected
