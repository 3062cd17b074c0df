import random
from itertools import product as iproduct

import pytest
from hypothesis import given
import hypothesis.strategies as st

from finkern.semiring import ExtNonneg, INF
from finkern.spaces import EMPTY, FinSpace, Tagged, product
from finkern.kernels import (
    Kernel, SpaceMismatchError, compose, deterministic, from_maps, identity,
    is_copyable, is_normalized, tensor,
)
from finkern.coproducts import (
    copair, distributivity_iso, injection, nullary_distributivity_iso, oplus,
)
from finkern.generators import rand_kernel, rand_normalized_kernel
from strategies import kernels_on, spaces


def q(num, den=1):
    return ExtNonneg(num, den)


X = FinSpace.atoms("a b")
Y = FinSpace.atoms("u")
Z = FinSpace.atoms("p q r")


def test_oplus_sizes_and_tags():
    s = oplus(X, Y)
    assert len(s) == len(X) + len(Y)
    assert s.labels == (Tagged("L", "a"), Tagged("L", "b"), Tagged("R", "u"))


def test_injections_are_normalized_and_deterministic():
    for side, space in (("L", X), ("R", Y)):
        emb = injection(side, X, Y)
        assert is_normalized(emb)
        assert is_copyable(emb)


def test_copair_of_injections_is_identity():
    assert copair(injection("L", X, Y), injection("R", X, Y)) == identity(oplus(X, Y))


def test_copair_restricts_to_components():
    f = Kernel(X, Z, [[q(1, 2), q(1, 2), 0], [0, 0, 1]])
    g = Kernel(Y, Z, [[0, 1, 0]])
    h = copair(f, g)
    assert compose(h, injection("L", X, Y)) == f
    assert compose(h, injection("R", X, Y)) == g
    assert is_normalized(h)


@given(st.data())
def test_copair_with_infinite_entries_restricts_to_components(data):
    x, y, z = (data.draw(spaces(1, 3, prefix)) for prefix in "xyz")
    f, g = data.draw(kernels_on(x, z)), data.draw(kernels_on(y, z))
    f = f + from_maps(x, z, [{0: INF}] + [{}] * (len(x) - 1))  # at least one oo
    h = copair(f, g)
    assert h.int_rows == f.int_rows + g.int_rows
    assert compose(h, injection("L", x, y)) == f
    assert compose(h, injection("R", x, y)) == g


def test_copair_needs_common_codomain():
    with pytest.raises(SpaceMismatchError):
        copair(identity(X), identity(Y))


def test_copair_universal_property_uniqueness():
    # any normalized map out of the coproduct is the copairing of its
    # restrictions; exhaustive over deterministic maps, randomized otherwise
    s = oplus(X, Y)
    for images in iproduct(Z.labels, repeat=len(s)):
        table = dict(zip(s.labels, images))
        h = deterministic(s, Z, table.get)
        f = compose(h, injection("L", X, Y))
        g = compose(h, injection("R", X, Y))
        assert copair(f, g) == h
    rng = random.Random(3)
    for _ in range(50):
        h = rand_normalized_kernel(rng, s, Z, zero_weight=0.3)
        assert copair(compose(h, injection("L", X, Y)),
                      compose(h, injection("R", X, Y))) == h


def test_distributivity_iso_inverse_pairs():
    for sizes in iproduct((1, 2, 3), repeat=3):
        a = FinSpace(tuple(f"a{i}" for i in range(sizes[0])))
        b = FinSpace(tuple(f"b{i}" for i in range(sizes[1])))
        c = FinSpace(tuple(f"c{i}" for i in range(sizes[2])))
        fwd, bwd = distributivity_iso(a, b, c)
        assert compose(bwd, fwd) == identity(fwd.dom)
        assert compose(fwd, bwd) == identity(fwd.cod)
        assert is_normalized(fwd) and is_copyable(fwd)
        assert is_normalized(bwd) and is_copyable(bwd)


def test_distributivity_singleton_summands():
    fwd, bwd = distributivity_iso(X, Y, FinSpace.atoms("w"))
    assert len(fwd.dom) == len(X) * 2
    assert fwd.cod == product(X, oplus(Y, FinSpace.atoms("w")))


def test_nullary_distributivity_is_empty():
    fwd, bwd = nullary_distributivity_iso(X)
    assert fwd.dom == EMPTY
    assert len(fwd.cod) == 0
    assert bwd.entries == ()
    assert compose(bwd, fwd) == identity(EMPTY)


def test_tensor_is_additive_in_each_argument():
    rng = random.Random(4)
    for _ in range(60):
        f = rand_kernel(rng, X, Z, max_den=8)
        g = rand_kernel(rng, X, Z, max_den=8)
        w = identity(Y)
        assert tensor(f + g, w) == tensor(f, w) + tensor(g, w)
        assert tensor(w, f + g) == tensor(w, f) + tensor(w, g)



def test_injection_refuses_a_side_that_is_not_l_or_r():
    with pytest.raises(ValueError) as info:
        injection("X", X, Z)
    assert type(info.value) is ValueError and str(info.value) == "side must be 'L' or 'R', got 'X'"
