"""Every ``*_violation`` against the all-entries definition of its predicate.

Each violation function must return None exactly when the predicate's
definition holds everywhere, and otherwise a witness at which that
definition fails.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from finkern.semiring import INF, ONE, ZERO
from finkern.spaces import UNIT
from finkern.kernels import (
    Involution, Kernel, compose, copyable_violation, lift_involution,
    normalized_violation, substochastic_violation,
)
from finkern.enrichment import (
    abs_cont_violation, cancellative_violation, equivalent_violation,
    finite_violation, leq_violation, singular_violation,
)
from finkern.mcmc import invariant_violation, skew_balance_violation
from strategies import ext_sum, kernel_pairs, kernels_on, spaces, values

# violation function -> whether a dense row satisfies the predicate
ROW_DEFINITIONS = {
    normalized_violation: lambda row: ext_sum(row) == ONE,
    substochastic_violation: lambda row: ext_sum(row) <= ONE,
    finite_violation: lambda row: ext_sum(row).is_finite,
    copyable_violation: lambda row: (sum(v != ZERO for v in row) <= 1
                                     and all(v in (ZERO, ONE, INF) for v in row)),
}

# violation function of (p, q) -> whether the entries p[x][y], q[x][y] satisfy it
ENTRY_DEFINITIONS = {
    leq_violation: lambda a, b: a <= b,
    abs_cont_violation: lambda a, b: b != ZERO or a == ZERO,
    equivalent_violation: lambda a, b: (a == ZERO) == (b == ZERO),
    singular_violation: lambda a, b: a == ZERO or b == ZERO,
    # one kernel: both entries are the kernel's own
    cancellative_violation: lambda a, b: a.is_finite,
}


@pytest.mark.parametrize("violation", ROW_DEFINITIONS, ids=lambda f: f.__name__)
@given(pair=kernel_pairs())
def test_row_violation_is_the_first_failing_row(violation, pair):
    kernel = pair[0]
    holds = ROW_DEFINITIONS[violation]
    expected = next((x for x, row in zip(kernel.dom.labels, kernel.entries)
                     if not holds(row)), None)
    assert violation(kernel) == expected
    if expected is not None:
        assert not holds(kernel.row(expected))


@pytest.mark.parametrize("violation", ENTRY_DEFINITIONS, ids=lambda f: f.__name__)
@given(pair=kernel_pairs())
def test_entry_violation_is_the_first_failing_entry(violation, pair):
    p, q = pair
    if violation is cancellative_violation:
        q, witness = p, violation(p)
    else:
        witness = violation(p, q)
    holds = ENTRY_DEFINITIONS[violation]
    expected = next(((x, y) for x in p.dom.labels for y in p.cod.labels
                     if not holds(p.entry(x, y), q.entry(x, y))), None)
    assert witness == expected
    if witness is not None:
        assert not holds(p.entry(*witness), q.entry(*witness))


@st.composite
def _targets_and_chains(draw):
    space = draw(spaces(1, 4))
    target = draw(kernels_on(UNIT, space))
    return target, draw(kernels_on(space, space))


@given(_targets_and_chains())
def test_invariant_violation_is_the_first_moved_point(pair):
    target, chain = pair
    pushed = compose(chain, target)
    expected = next((y for y in target.cod.labels
                     if pushed.entry("*", y) != target.entry("*", y)), None)
    assert invariant_violation(target, chain) == expected


@st.composite
def _skew_instances(draw):
    """A target, an involution preserving it, and a chain on its space."""
    space = draw(spaces(1, 5))
    n = len(space)
    perm = list(range(n))
    for i in draw(st.permutations(range(n))):
        j = draw(st.sampled_from(range(n)))
        if perm[i] == i and perm[j] == j:
            perm[i], perm[j] = j, i
    masses = draw(st.lists(values, min_size=n, max_size=n))
    masses = [masses[min(i, perm[i])] for i in range(n)]
    twist = Involution(space, tuple(perm))
    target = Kernel(UNIT, space, [masses])
    return target, twist, draw(kernels_on(space, space))


@given(_skew_instances())
def test_skew_violation_matches_the_all_pairs_definition(instance):
    target, twist, chain = instance
    lifted = lift_involution(twist)
    back = compose(lifted, compose(chain, lifted))
    labels = target.cod.labels

    def holds(x, y):
        return (target.entry("*", x) * chain.entry(x, y)
                == target.entry("*", y) * back.entry(y, x))

    witness = skew_balance_violation(target, twist, chain)
    assert (witness is None) == all(holds(x, y) for x in labels for y in labels)
    if witness is not None:
        assert not holds(*witness)
