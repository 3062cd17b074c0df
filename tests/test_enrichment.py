from itertools import combinations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from finkern.semiring import ExtNonneg, INF, ONE, ZERO
from finkern.spaces import FinSpace, UNIT
from finkern.kernels import (
    Involution, Kernel, SpaceMismatchError, compose, dirac, effect, effect_mul, from_maps, identity,
    lift_involution, measure, pushforward, tensor, uniform,
)
from finkern.enrichment import (
    NoExactDerivative, NotAbsolutelyContinuous, NotCancellative, abs_cont,
    ae_equal, cancellation_counterexample, equivalent,
    involutive_decompose, is_cancellative, is_finite_morphism, is_singular,
    kernel_zero, lebesgue_decompose, leq_kernel, leq_violation,
    meet, rn_derivative, support_labels,
)
from strategies import (
    kernel_pairs, kernels, kernels_on, leq_witness, residual, spaces, values,
)


def q(num, den=1):
    return ExtNonneg(num, den)


X2 = FinSpace.atoms("a b")
X3 = FinSpace.atoms("a b c")


def row(*vals):
    return Kernel(UNIT, FinSpace(tuple(f"y{i}" for i in range(len(vals)))),
                  [list(vals)])


# -- sums and bilinearity ------------------------------------------------------

def test_add_unit_and_example():
    p = row(q(1, 2))
    assert p + kernel_zero(p.dom, p.cod) == p
    assert row(q(1, 2)) + row(q(1, 2)) == row(ONE)


@given(kernel_pairs(max_size=3))
def test_composition_left_bilinear(pq):
    p, q_ = pq
    r = Kernel(p.cod, X2, [[ONE, ZERO]] * len(p.cod))
    assert compose(r, p + q_) == compose(r, p) + compose(r, q_)


@given(kernel_pairs(max_size=3))
def test_composition_right_bilinear(pq):
    p, q_ = pq
    r = Kernel(X2, p.dom, [[ONE] * len(p.dom), [ZERO] * len(p.dom)])
    assert compose(p + q_, r) == compose(p, r) + compose(q_, r)


@given(kernel_pairs(max_size=3))
def test_tensor_bilinear(pq):
    p, q_ = pq
    r = identity(X2)
    assert tensor(p + q_, r) == tensor(p, r) + tensor(q_, r)
    assert tensor(r, p + q_) == tensor(r, p) + tensor(r, q_)


@given(kernels(max_size=3))
def test_zero_annihilates_composition(k):
    z = kernel_zero(k.cod, X3)
    assert compose(z, k).is_zero()
    assert compose(k, kernel_zero(X3, k.dom)).is_zero()


# -- the additive preorder ------------------------------------------------------

def test_leq_examples():
    p = Kernel(UNIT, X2, [[q(1, 2), ZERO]])
    q_ = Kernel(UNIT, X2, [[ONE, q(1, 3)]])
    assert leq_kernel(p, q_)
    assert leq_witness(p, q_) == Kernel(UNIT, X2, [[q(1, 2), q(1, 3)]])


@given(kernels(max_size=3))
def test_leq_reflexive_and_zero_bottom(k):
    assert leq_kernel(k, k)
    z = kernel_zero(k.dom, k.cod)
    assert leq_kernel(z, k)
    if leq_kernel(k, z):
        assert k.is_zero()


@given(kernel_pairs(max_size=3))
def test_leq_agrees_with_witness_construction(pq):
    p, q_ = pq
    w = leq_witness(p, q_)
    assert leq_kernel(p, q_) == (w is not None)
    if w is not None:
        assert p + w == q_


def leq_violation_oracle(p, q_):
    """``leq_violation`` over the value views: ``<=`` entry by entry."""
    for x, (pcols, pvals), (qcols, qvals) in zip(p.dom.labels, p.rows, q_.rows):
        upper = dict(zip(qcols, qvals))
        for j, a in zip(pcols, pvals):
            b = upper.get(j)
            if b is None or not a <= b:
                return x, p.cod.labels[j]
    return None


def leq_witness_oracle(p, q_):
    """``leq_witness`` over the value views: ``residual`` entry by entry."""
    rows = []
    for (pcols, pvals), (qcols, qvals) in zip(p.rows, q_.rows):
        lower = dict(zip(pcols, pvals))
        gaps = {}
        for j, b in zip(qcols, qvals):
            c = residual(lower.pop(j, ZERO), b)
            if c is None:
                return None
            gaps[j] = c
        if lower:
            return None
        rows.append(gaps)
    return from_maps(p.dom, p.cod, rows)


@st.composite
def leq_candidates(draw):
    """Kernel pairs with zero, finite and oo entries; half of them are
    (p, p + r), so that p <= q holds and a witness exists."""
    p, r = draw(kernel_pairs(max_size=3))
    return (p, p + r) if draw(st.booleans()) else (p, r)


@given(leq_candidates())
def test_leq_on_pairs_agrees_with_value_oracles(pq):
    """The additive order decided on integer pairs gives the witnesses the
    value views give: the same first entry, and the same residual kernel,
    0 where both entries are oo, or None from both."""
    p, q_ = pq
    assert leq_violation(p, q_) == leq_violation_oracle(p, q_)
    w, expected = leq_witness(p, q_), leq_witness_oracle(p, q_)
    assert (w is None) == (expected is None)
    if w is not None:
        assert w.int_rows == expected.int_rows


@given(kernel_pairs(max_size=3))
def test_sum_dominates_summand(pq):
    p, q_ = pq
    assert leq_kernel(p, p + q_)


@given(kernel_pairs(max_size=3))
def test_leq_preserved_by_composition(pq):
    p, q_ = pq
    if leq_kernel(p, q_):
        r = Kernel(p.cod, X2, [[ONE, ONE]] * len(p.cod))
        s = Kernel(X2, p.dom, [[ONE] * len(p.dom)] * 2)
        assert leq_kernel(compose(r, p), compose(r, q_))
        assert leq_kernel(compose(p, s), compose(q_, s))
        assert leq_kernel(tensor(p, identity(X2)), tensor(q_, identity(X2)))


# -- cancellativity and finiteness ----------------------------------------------

def test_cancellative_examples():
    assert is_cancellative(Kernel(X2, X2, [[1, 2], [3, 4]]))
    k = Kernel(X2, X2, [[INF, 0], [0, 1]])
    assert not is_cancellative(k)
    pair = cancellation_counterexample(k)
    assert pair is not None
    q_, r = pair
    assert k + q_ == k + r and q_ != r


@given(kernels(max_size=3))
def test_cancellative_characterization(k):
    pair = cancellation_counterexample(k)
    if is_cancellative(k):
        assert pair is None
    else:
        q_, r = pair
        assert k + q_ == k + r and q_ != r


@given(kernels(max_size=3), st.data())
def test_cancellative_kernels_cancel(p, data):
    if is_cancellative(p):
        probe = data.draw(kernels_on(p.dom, p.cod))
        other = data.draw(kernels_on(p.dom, p.cod))
        if p + probe == p + other:
            assert probe == other


@given(kernel_pairs(max_size=3))
def test_cancellative_downward_closed(pq):
    p, q_ = pq
    if leq_kernel(p, q_) and is_cancellative(q_):
        assert is_cancellative(p)


@given(kernels(min_size=2, max_size=3))
def test_cancellative_preserved_by_permutations(k):
    # index reversal is a self-inverse permutation on any space
    left = lift_involution(Involution(k.cod, tuple(reversed(range(len(k.cod))))))
    right = lift_involution(Involution(k.dom, tuple(reversed(range(len(k.dom))))))
    conjugated = compose(left, compose(k, right))
    assert is_cancellative(conjugated) == is_cancellative(k)


def test_finite_morphism_examples():
    assert is_finite_morphism(uniform(X3))
    assert not is_finite_morphism(Kernel(UNIT, X2, [[INF, 0]]))


@given(kernels(max_size=3))
def test_finite_implies_cancellative(k):
    if is_finite_morphism(k):
        assert is_cancellative(k)


@given(kernels(max_size=3, entry_strategy=st.builds(ExtNonneg, st.integers(0, 40), st.integers(1, 8))))
def test_finite_composed_with_substochastic_is_finite(k):
    from finkern.kernels import is_substochastic
    rows = [[q(1, 2 * len(k.cod))] * len(k.cod) for _ in range(len(k.cod))]
    sub = Kernel(k.cod, k.cod, rows)
    assert is_substochastic(sub)
    if is_finite_morphism(k):
        assert is_finite_morphism(compose(sub, k))


# -- absolute continuity ---------------------------------------------------------

def test_abs_cont_examples():
    assert abs_cont(row(ZERO, q(3)), row(ZERO, q(1, 2)))
    assert not abs_cont(row(ONE, ZERO), row(ZERO, q(1, 2)))


@given(kernels(max_size=3))
def test_zero_bottom_for_abs_cont(k):
    z = kernel_zero(k.dom, k.cod)
    assert abs_cont(z, k)
    if abs_cont(k, z):
        assert k.is_zero()


@given(kernel_pairs(max_size=3))
def test_leq_implies_abs_cont(pq):
    p, q_ = pq
    if leq_kernel(p, q_):
        assert abs_cont(p, q_)


def abs_cont_basis(p, q):
    """Definitional absolute-continuity check over the Dirac/indicator basis.

    Quantifies the pre-composition over all Dirac measures on the domain and
    the post-composition over all indicator effects on the codomain. This is
    exponential in the codomain size; it is the oracle the fast support
    check is validated against.
    """
    indices = range(len(p.cod))
    for x in p.dom.labels:
        delta = dirac(p.dom, x)
        for size in range(len(p.cod) + 1):
            for subset in combinations(indices, size):
                ind = effect(p.cod, [ONE if j in subset else ZERO
                                     for j in indices])
                if compose(ind, compose(q, delta)).is_zero():
                    if not compose(ind, compose(p, delta)).is_zero():
                        return False
    return True


@given(kernel_pairs(max_size=2))
def test_abs_cont_agrees_with_basis_definition(pq):
    p, q_ = pq
    assert abs_cont(p, q_) == abs_cont_basis(p, q_)


@given(kernel_pairs(max_size=3))
def test_abs_cont_preserved_by_composition(pq):
    p, q_ = pq
    if abs_cont(p, q_):
        post = Kernel(p.cod, X2, [[ONE, ZERO]] * len(p.cod))
        pre = Kernel(X2, p.dom, [[ONE] * len(p.dom)] * 2)
        assert abs_cont(compose(post, p), compose(post, q_))
        assert abs_cont(compose(p, pre), compose(q_, pre))


def test_equivalent_examples():
    assert equivalent(row(ONE, q(2)), row(q(3), q(1, 2)))
    assert not equivalent(row(ONE, ZERO), row(ONE, ONE))


@given(kernels(max_size=3))
def test_equivalent_reflexive(k):
    assert equivalent(k, k)


# -- meets, singularity, decompositions -------------------------------------------

def test_meet_examples():
    p = row(ONE, q(2), ZERO)
    q_ = row(ZERO, q(5), ONE)
    assert meet(p, q_) == row(ZERO, q(2), ZERO)
    assert equivalent(meet(p, p), p)


@given(kernel_pairs(max_size=3), st.data())
def test_meet_is_greatest_lower_bound(pq, data):
    p, q_ = pq
    m = meet(p, q_)
    assert abs_cont(m, p) and abs_cont(m, q_)
    # a random kernel masked into both supports is a lower bound, and must
    # be dominated by the meet
    r = meet(meet(data.draw(kernels_on(p.dom, p.cod)), p), q_)
    assert abs_cont(r, p) and abs_cont(r, q_)
    assert abs_cont(r, m)


def test_meet_preserved_by_permutations_up_to_equivalence():
    p = Kernel(X3, X2, [[1, 0], [2, 3], [0, 0]])
    q_ = Kernel(X3, X2, [[1, 1], [0, 3], [1, 0]])
    left = lift_involution(Involution.from_mapping(X2, {"a": "b", "b": "a"}))
    right = lift_involution(Involution.from_mapping(X3, {"a": "c", "c": "a"}))
    lhs = meet(compose(left, compose(p, right)), compose(left, compose(q_, right)))
    rhs = compose(left, compose(meet(p, q_), right))
    assert equivalent(lhs, rhs)


def test_singular_examples():
    assert is_singular(row(ONE, ZERO), row(ZERO, q(5)))
    assert not is_singular(row(ONE, ONE), row(ZERO, q(5)))


@given(kernels(max_size=3))
def test_singular_against_zero(k):
    assert is_singular(k, kernel_zero(k.dom, k.cod))


@given(kernel_pairs(max_size=3), st.data())
def test_abs_cont_singular_transitivity(pq, data):
    p, q_ = pq
    third = data.draw(kernels_on(p.dom, p.cod))
    if abs_cont(p, q_) and is_singular(q_, third):
        assert is_singular(p, third)


def test_lebesgue_decompose_examples():
    p = row(ONE, q(2), q(3))
    q_ = row(ZERO, ONE, ONE)
    d = lebesgue_decompose(p, q_)
    assert d.ac == row(ZERO, q(2), q(3))
    assert d.si == row(ONE, ZERO, ZERO)
    same = lebesgue_decompose(p, p)
    assert same.ac == p and same.si.is_zero()
    against_zero = lebesgue_decompose(p, kernel_zero(p.dom, p.cod))
    assert against_zero.ac.is_zero() and against_zero.si == p


@given(kernel_pairs(max_size=3))
def test_lebesgue_decomposition_contract(pq):
    p, q_ = pq
    d = lebesgue_decompose(p, q_)
    assert d.ac + d.si == p
    assert abs_cont(d.ac, q_)
    assert is_singular(d.si, q_)
    assert d.ac == meet(p, q_)


# -- involutive decomposition ------------------------------------------------------

def test_involutive_decompose_identity():
    mu = measure(X3, [q(1, 2), ZERO, q(1, 2)])
    s, d = involutive_decompose(mu, Involution.identity(X3))
    assert s == ("a", "c")
    assert d.si.is_zero() and d.ac == mu


def test_involutive_decompose_hand_example():
    mu = measure(X3, [q(1, 2), ZERO, q(1, 2)])
    phi = Involution.from_mapping(X3, {"a": "b", "b": "a"})
    s, d = involutive_decompose(mu, phi)
    assert s == ("c",)
    assert d.ac == measure(X3, [ZERO, ZERO, q(1, 2)])
    assert d.si == measure(X3, [q(1, 2), ZERO, ZERO])
    pushed_si = pushforward(phi, d.si)
    assert pushed_si == measure(X3, [ZERO, q(1, 2), ZERO])
    assert is_singular(pushed_si, d.si)


def test_involutive_decompose_full_support():
    mu = measure(X3, [q(1, 3), q(1, 3), q(1, 3)])
    phi = Involution.from_mapping(X3, {"a": "b", "b": "a"})
    s, d = involutive_decompose(mu, phi)
    assert s == X3.labels
    assert d.si.is_zero()


def test_involutive_decompose_requires_finite_atoms():
    mu = measure(X2, [INF, ONE])
    with pytest.raises(NotCancellative):
        involutive_decompose(mu, Involution.identity(X2))


# -- Radon-Nikodym derivatives -------------------------------------------------------

def test_rn_of_measure_against_itself():
    mu = measure(X3, [q(1, 2), ZERO, q(1, 2)])
    r = rn_derivative(mu, mu)
    assert r.effect_values() == (ONE, ZERO, ONE)


def test_rn_hand_example():
    pi = measure(X2, [q(1, 4), q(3, 4)])
    mu = measure(X2, [q(1, 2), q(1, 2)])
    assert rn_derivative(pi, mu).effect_values() == (q(1, 2), q(3, 2))


def test_rn_not_absolutely_continuous():
    with pytest.raises(NotAbsolutelyContinuous):
        rn_derivative(measure(X2, [ONE, ZERO]), measure(X2, [ZERO, ONE]))


def test_rn_infinite_atom_rules():
    mu = measure(X3, [INF, INF, INF])
    pi = measure(X3, [ZERO, INF, ONE])
    with pytest.raises(NoExactDerivative):
        rn_derivative(pi, mu)
    ok = rn_derivative(measure(X3, [ZERO, INF, INF]), mu)
    assert ok.effect_values() == (ZERO, ONE, ONE)


@given(spaces(2, 4), st.data())
def test_rn_reconstructs_measure(space, data):
    masses = data.draw(st.lists(
        st.builds(ExtNonneg, st.integers(0, 12), st.integers(1, 6)),
        min_size=len(space), max_size=len(space)))
    density = data.draw(st.lists(
        st.builds(ExtNonneg, st.integers(0, 12), st.integers(1, 6)),
        min_size=len(space), max_size=len(space)))
    mu = measure(space, masses)
    pi = measure(space, [d * m for d, m in zip(density, masses)])
    r = rn_derivative(pi, mu)
    for rv, m, p in zip(r.effect_values(), masses, pi.measure_values()):
        assert rv * m == p


# -- almost-everywhere equality --------------------------------------------------------

def test_ae_equal_examples():
    mu = measure(X2, [ONE, ZERO])
    p = Kernel(X2, X2, [[1, 0], [0, 1]])
    q_ = Kernel(X2, X2, [[1, 0], [1, 0]])
    assert ae_equal(mu, p, p)
    assert ae_equal(mu, p, q_)
    full = uniform(X2)
    assert not ae_equal(full, p, q_)


def test_ae_equal_requires_cancellative():
    mu = measure(X2, [INF, ZERO])
    with pytest.raises(NotCancellative):
        ae_equal(mu, identity(X2), identity(X2))


# -- kernel-level semiring pathologies ---------------------------------------------------

@given(kernel_pairs(max_size=3))
def test_kernel_zero_sum_free(pq):
    p, q_ = pq
    if (p + q_).is_zero():
        assert p.is_zero() and q_.is_zero()


@given(kernels(max_size=3))
def test_kernel_zero_monic(k):
    from finkern.kernels import row_mass
    if row_mass(k).is_zero():
        assert k.is_zero()


@given(kernels(max_size=2), kernels(max_size=2))
def test_kernel_no_zero_divisors(p, q_):
    if tensor(p, q_).is_zero():
        assert p.is_zero() or q_.is_zero()


# -- importance sampling --------------------------------------------------------------------

@given(spaces(2, 4), st.data())
def test_importance_sampling_identity(space, data):
    small = st.builds(ExtNonneg, st.integers(0, 10), st.integers(1, 6))
    masses = data.draw(st.lists(small, min_size=len(space), max_size=len(space)))
    density = data.draw(st.lists(small, min_size=len(space), max_size=len(space)))
    weights = data.draw(st.lists(values, min_size=len(space), max_size=len(space)))
    mu = measure(space, masses)
    pi = measure(space, [d * m for d, m in zip(density, masses)])
    r = rn_derivative(pi, mu)
    f = effect(space, weights)
    lhs = compose(f, pi)
    rhs = compose(effect_mul(f, r), mu)
    assert lhs == rhs


def test_support_labels():
    mu = measure(X3, [ZERO, q(1, 2), INF])
    assert support_labels(mu) == ("b", "c")


@pytest.mark.parametrize("refuse, cls, text", [
    pytest.param(lambda: involutive_decompose(identity(X2), Involution.identity(X2)),
                 SpaceMismatchError, "involutive_decompose needs a measure",
                 id="involutive-decompose"),
    pytest.param(lambda: involutive_decompose(measure(X2, [1, 0]), Involution.identity(X3)),
                 SpaceMismatchError, "measure and involution live on different spaces",
                 id="involutive-decompose-spaces"),
    pytest.param(lambda: rn_derivative(measure(X2, [1, 0]), measure(X3, [1, 0, 0])),
                 SpaceMismatchError, "rn_derivative needs measures on the same space",
                 id="rn-derivative-spaces"),
    pytest.param(lambda: support_labels(identity(X2)), SpaceMismatchError,
                 "not a measure (domain is not the unit space)", id="support-labels"),
])
def test_enrichment_refusals_keep_their_class_and_text(refuse, cls, text):
    with pytest.raises(cls) as info:
        refuse()
    assert type(info.value) is cls and str(info.value) == text
