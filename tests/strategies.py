"""Shared hypothesis strategies and fixtures for exact kernels."""

import random
from math import gcd

import hypothesis.strategies as st

from finkern.semiring import INF, INF_PAIR, ZERO, ZERO_PAIR, ExtNonneg, fraction
from finkern.spaces import FinSpace, product_many
from finkern.kernels import (
    Involution, Kernel, SpaceMismatchError, compose, from_pair_rows, lift_involution,
    measure, pair_rows,
)
from finkern.generators import (
    rand_involution, rand_kernel, rand_probability_measure,
    rand_reversible_kernel, rand_space, rand_value,
)
from finkern.mcmc import METROPOLIS, gibbs

finite_values = st.builds(
    ExtNonneg, st.integers(0, 48), st.integers(1, 12))

values = st.one_of(finite_values, finite_values, finite_values, st.just(INF))


def spaces(min_size=1, max_size=4, prefix="x"):
    return st.integers(min_size, max_size).map(
        lambda n: FinSpace(tuple(f"{prefix}{i}" for i in range(n))))


# weights for normalized rows: zero half the time, sometimes tiny after
# normalization
weights = st.one_of(st.just(0), st.integers(1, 48), st.integers(1, 10**6))


@st.composite
def normalized_kernels(draw, min_size=1, max_size=6):
    """An endo-kernel whose rows are probability vectors, zeros included."""
    space = draw(spaces(min_size, max_size))
    n = len(space)
    rows = []
    for _ in range(n):
        row = draw(st.lists(weights, min_size=n, max_size=n).filter(any))
        total = sum(row)
        rows.append([ExtNonneg(w, total) for w in row])
    return Kernel(space, space, rows)


def kernels_on(dom, cod, entry_strategy=values):
    rows = st.lists(
        st.lists(entry_strategy, min_size=len(cod), max_size=len(cod)),
        min_size=len(dom), max_size=len(dom))
    return rows.map(lambda r: Kernel(dom, cod, r))


@st.composite
def kernels(draw, min_size=1, max_size=4, entry_strategy=values):
    dom = draw(spaces(min_size, max_size, "a"))
    cod = draw(spaces(min_size, max_size, "b"))
    return draw(kernels_on(dom, cod, entry_strategy))


@st.composite
def kernel_pairs(draw, min_size=1, max_size=4, entry_strategy=values):
    """Two kernels with the same dom and cod."""
    dom = draw(spaces(min_size, max_size, "a"))
    cod = draw(spaces(min_size, max_size, "b"))
    return (draw(kernels_on(dom, cod, entry_strategy)),
            draw(kernels_on(dom, cod, entry_strategy)))


@st.composite
def composable_pairs(draw, min_size=1, max_size=3, entry_strategy=values):
    """(later, earlier) with earlier.cod == later.dom."""
    a = draw(spaces(min_size, max_size, "a"))
    b = draw(spaces(min_size, max_size, "b"))
    c = draw(spaces(min_size, max_size, "c"))
    earlier = draw(kernels_on(a, b, entry_strategy))
    later = draw(kernels_on(b, c, entry_strategy))
    return later, earlier


def gibbs_3x3x3():
    """The systematic-scan Gibbs chain of a seeded positive joint measure on
    a 3 x 3 x 3 grid. Its row at x does not depend on x's first coordinate,
    which the sweep resamples first, so its 27 rows hold 9 distinct ones."""
    factors = [FinSpace(tuple(f"c{i}_{j}" for j in range(3))) for i in range(3)]
    joint = rand_probability_measure(random.Random(21), product_many(factors))
    return gibbs(joint, factors)


def rand_skew_instance(rng: random.Random, min_size: int = 2, max_size: int = 6,
                       ) -> tuple[Kernel, Involution, Kernel]:
    """A target, a target-preserving twist involution, and a random chain."""
    space = rand_space(rng, min_size, max_size)
    twist = rand_involution(rng, space)
    masses = [rand_value(rng, zero_weight=0.0) for _ in space.labels]
    for i, j in enumerate(twist.perm):  # equal mass on each twist orbit
        if i < j:
            masses[j] = masses[i]
    target = measure(space, masses)
    if rng.random() < 0.5:
        chain = rand_reversible_kernel(rng, target)
        if rng.random() < 0.5:
            # compose with the twist to land in the skew-reversible class
            chain = compose(lift_involution(twist), chain)
    else:
        chain = rand_kernel(rng, space, space, max_den=16)
    return target, twist, chain


#: The kernel layer's source files in ``src/finkern``: only they call
#: ``Kernel._new``, read stored rows and import each other's private names.
KERNEL_LAYER = ("kernels.py", "_kernel_functions.py", "_kernel_rows.py")


def kernel_layer_module(name):
    """Whether an import's module name, relative or absolute, is one of the
    kernel layer's."""
    return f"{(name or '').removeprefix('finkern.')}.py" in KERNEL_LAYER


def assert_reduced(k):
    """Each stored row is ascending, positive, reduced, and keeps its oo
    columns apart from its finite ones."""
    assert len(k.int_rows) == len(k.dom)
    for cols, nums, den, infs in k.int_rows:
        assert list(cols) == sorted(set(cols)) and list(infs) == sorted(set(infs))
        assert not set(cols) & set(infs)
        assert all(0 <= j < len(k.cod) for j in cols + infs)
        assert len(nums) == len(cols)
        assert all(type(n) is int and n > 0 for n in nums)
        assert type(den) is int and den >= 1 and gcd(den, *nums) == 1


def eager_fold(factors):
    """``compose`` folded over ``factors`` in order: what a composite's rows
    must equal."""
    built = factors[0]
    for factor in factors[1:]:
        built = compose(factor, built)
    return built


def rows_built(k):
    """Whether ``k`` stores its rows: an index map or a composite does not
    until they are first read."""
    try:
        Kernel.int_rows.__get__(k, Kernel)
    except AttributeError:
        return False
    return True


def mh_acceptance_ratio(num, den):
    """min(1, num/den) over ``ExtNonneg`` values, 0 over a zero denominator:
    the textbook Metropolis-Hastings acceptance, the oracle for the pair
    arithmetic of ``classical_mh`` and ``exchange_algorithm``.

    A zero denominator means the proposal is never launched from that
    configuration under the chain, so the value is free; 0 is canonical.
    """
    return ZERO if den.is_zero else METROPOLIS(num / den)


def ext_sum(values):
    """The sum of ``ExtNonneg`` values (ints are lifted), as the tests'
    oracles add them: the finite terms go into one integer numerator over
    a running common denominator, grown by the lcm, with one gcd at the
    end; the first infinite term returns oo."""
    num, den = 0, 1
    for v in values:
        if v.__class__ is not ExtNonneg:
            lifted = ExtNonneg._lift(v)
            if lifted is None:
                raise TypeError(f"cannot add {v!r} in [0, oo]")
            v = lifted
        d = v.den
        if d == den:
            num += v.num
        elif d == 0:
            return INF
        elif den % d == 0:
            num += v.num * (den // d)
        else:
            g = gcd(den, d)
            scale = d // g
            num = num * scale + v.num * (den // g)
            den *= scale
    return fraction(num, den)


def residual(lower, upper):
    """A witness ``c`` with ``lower + c == upper`` over ``ExtNonneg``
    values, or None when none exists: the oracle for the pair residuals of
    ``leq_witness``.

    Returns the minimal witness for finite pairs; for ``upper == oo`` the
    witness oo (or 0 when lower is already oo) is used.
    """
    if upper.den == 0:
        return ZERO if lower.den == 0 else INF
    if lower.den == 0:
        return None
    n = lower.num * upper.den
    d = upper.num * lower.den
    if n > d:
        return None
    return fraction(d - n, lower.den * upper.den)


def leq_witness(p, q):
    """A kernel R with p + R == q, or None when p <= q fails.

    Entrywise residuals assemble into a witness; this is the explicit
    construction the entrywise test (``enrichment.leq_violation``) is
    validated against. Where q is finite the residual is the least one,
    q - p; where q is oo it is 0 if p is oo and oo otherwise.
    """
    if p.dom != q.dom or p.cod != q.cod:
        raise SpaceMismatchError("leq needs kernels with equal dom and cod")
    rows = []
    for lower, upper in zip(pair_rows(p), pair_rows(q)):
        if not lower.keys() <= upper.keys():  # p nonzero over a zero of q
            return None
        gaps = {}
        for j, (c, d) in upper.items():
            a, b = lower.get(j, ZERO_PAIR)
            if not d:
                if b:
                    gaps[j] = INF_PAIR
            elif not b or a * d > c * b:  # p is oo, or larger than q
                return None
            else:
                gaps[j] = (c * b - a * d, b * d)
        rows.append(gaps)
    return from_pair_rows(p.dom, p.cod, rows)
