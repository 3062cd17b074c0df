import ast
import pickle
import random
import re
from fractions import Fraction
from itertools import permutations, product as iproduct
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from finkern.semiring import ExtNonneg, INF, ONE, ZERO
from finkern.spaces import EMPTY, FinSpace, UNIT, product, product_many
from finkern.kernels import (
    Involution, Kernel, SpaceMismatchError, associator, compose, composite,
    copy, delete, deterministic, dirac, effect, effect_mul, from_effect_pairs,
    from_maps, from_pair_rows, graph, identity,
    is_copyable, is_normalized, is_substochastic, lazy_involution, lazy_proposal,
    left_unitor, lift_involution, measure, reweight, right_unitor, row_mass,
    effect_pairs, pair_rows, resample_within, row_support, split_by_support,
    swap, tensor, uniform,
)
import finkern
from finkern import kernels as kernels_module
from finkern.enrichment import kernel_zero
from finkern.generators import rand_normalized_kernel
from strategies import (
    KERNEL_LAYER, assert_reduced, composable_pairs, eager_fold, finite_values,
    gibbs_3x3x3, kernel_layer_module, kernel_pairs, kernels, kernels_on,
    rows_built, spaces, values,
)


def q(num, den=1):
    return ExtNonneg(num, den)


X2 = FinSpace.atoms("a b")
X3 = FinSpace.atoms("a b c")


# -- spaces -------------------------------------------------------------------

def test_space_rejects_duplicates():
    with pytest.raises(ValueError):
        FinSpace(("a", "a"))


@pytest.mark.parametrize("labels, first_repeat", [
    (["a", "b", "b", "a"], "'b'"),
    (["a", "b", "c", "d", "a", "b"], "'a'"),
    ([("x", 1), ("x", 2), "y", ("x", 2)], "('x', 2)"),
    ([f"p{i}" for i in range(50)] + ["p49"], "'p49'"),
])
def test_space_names_the_first_repeated_label(labels, first_repeat):
    with pytest.raises(ValueError, match=rf"^duplicate label {re.escape(first_repeat)}$"):
        FinSpace(labels)


def test_product_label_order():
    assert product(X2, FinSpace.atoms("u v")).labels == (
        ("a", "u"), ("a", "v"), ("b", "u"), ("b", "v"))


def test_unit_space():
    assert UNIT.labels == ("*",)
    assert len(EMPTY) == 0


def test_unknown_label():
    with pytest.raises(KeyError):
        X2.index("z")


def test_product_many_refuses_no_factors():
    with pytest.raises(ValueError) as info:
        product_many([])
    assert type(info.value) is ValueError and str(info.value) == (
        "product_many needs at least one factor")


# -- kernels: construction, measures, effects --------------------------------

def test_kernel_repr_shows_its_spaces_and_first_four_rows():
    assert repr(Kernel(X2, X3, [[q(1, 2), 0, INF], [0, 1, 0]])) == (
        "Kernel(FinSpace(a b) -> FinSpace(a b c): 1/2 0 inf; 0 1 0)")
    five = FinSpace.atoms("a b c d e")
    assert repr(identity(five)) == (
        "Kernel(FinSpace(a b c d e) -> FinSpace(a b c d e): "
        "1 0 0 0 0; 0 1 0 0 0; 0 0 1 0 0; 0 0 0 1 0; ...)")


def test_kernel_shape_validation():
    with pytest.raises(SpaceMismatchError):
        Kernel(X2, X2, [[1, 0]])
    with pytest.raises(SpaceMismatchError):
        Kernel(X2, X2, [[1], [0]])


def test_measure_and_effect_roles():
    mu = measure(X2, {"a": q(1, 3)})
    assert mu.is_measure and not mu.is_effect
    assert mu.measure_values() == (q(1, 3), ZERO)
    w = effect(X2, [1, 2])
    assert w.is_effect
    assert w.effect_values() == (ONE, q(2))


# -- composition --------------------------------------------------------------

def test_compose_hand_example():
    p = Kernel(X2, X2, [[q(1, 2), q(1, 2)], [0, 1]])
    qk = Kernel(X2, X2, [[1, 0], [q(1, 2), q(1, 2)]])
    assert compose(qk, p) == Kernel(
        X2, X2, [[q(3, 4), q(1, 4)], [q(1, 2), q(1, 2)]])


@given(kernels())
def test_identity_laws(k):
    assert compose(identity(k.cod), k) == k
    assert compose(k, identity(k.dom)) == k


def test_compose_mismatch():
    with pytest.raises(SpaceMismatchError):
        compose(Kernel(X3, X3, [[1, 0, 0]] * 3), identity(X2))


def test_dirac_kernels_compose_functorially():
    # exhaustive over all functions on a 3-point space
    points = list(X3.labels)
    for f_img in iproduct(points, repeat=3):
        f = dict(zip(points, f_img))
        for g_img in iproduct(points, repeat=3):
            g = dict(zip(points, g_img))
            kf = deterministic(X3, X3, f.get)
            kg = deterministic(X3, X3, g.get)
            assert compose(kg, kf) == deterministic(
                X3, X3, lambda x: g[f[x]])


# -- tensor --------------------------------------------------------------------

def test_tensor_of_identities():
    y = FinSpace.atoms("u v w")
    assert tensor(identity(X2), identity(y)) == identity(product(X2, y))


def test_tensor_of_measures_is_outer_product():
    mu = measure(X2, [q(1, 2), q(1, 2)])
    nu = measure(FinSpace.atoms("u v"), [q(1, 3), q(2, 3)])
    joint = tensor(mu, nu)
    # the unit pair relabeling is explicit: compare raw entries
    assert joint.entries[0] == (q(1, 6), q(1, 3), q(1, 6), q(1, 3))


@given(kernels(max_size=3))
def test_tensor_with_zero_annihilates(k):
    z = kernel_zero(X2, X2)
    assert tensor(k, z).is_zero()
    assert tensor(z, k).is_zero()


@given(composable_pairs(max_size=2), composable_pairs(max_size=2))
def test_interchange(pq, rs):
    p, r = pq
    q_, s = rs
    lhs = compose(tensor(p, q_), tensor(r, s))
    rhs = tensor(compose(p, r), compose(q_, s))
    assert lhs == rhs


# -- structure morphisms -------------------------------------------------------

def test_delete_on_unit_is_identity():
    assert delete(UNIT) == identity(UNIT)


def test_copy_matrix():
    pairs = product(X2, X2)
    expected = kernel_zero(X2, pairs).entries
    k = copy(X2)
    assert k.entry("a", ("a", "a")) == ONE
    assert k.entry("b", ("b", "b")) == ONE
    nonzero = sum(1 for row in k.entries for v in row if v != ZERO)
    assert nonzero == 2 and len(expected) == 2


def test_swap_after_copy_is_copy():
    for space in (X2, X3):
        assert compose(swap(space, space), copy(space)) == copy(space)


def test_structure_morphisms_normalized_and_copyable():
    for k in (identity(X3), copy(X3), delete(X3), swap(X2, X3),
              dirac(X3, "b"), left_unitor(X2), right_unitor(X2),
              associator(X2, X2, X3)):
        assert is_normalized(k)
        assert is_copyable(k)


def _all_involutions(space):
    n = len(space)
    for perm in permutations(range(n)):
        if all(perm[perm[i]] == i for i in range(n)):
            yield Involution(space, perm)


def test_lift_identity_involution():
    assert lift_involution(Involution.identity(X3)) == identity(X3)


def test_lift_swap_involution_is_structure_swap():
    pairs = product(X2, X2)
    inv = Involution(pairs, [pairs.index((y, x)) for x, y in pairs.labels])
    assert lift_involution(inv) == swap(X2, X2)


def test_lifted_involutions_copyable_normalized_self_inverse():
    for n in range(1, 5):
        space = FinSpace(tuple(f"x{i}" for i in range(n)))
        for inv in _all_involutions(space):
            k = lift_involution(inv)
            assert is_copyable(k)
            assert is_normalized(k)
            assert compose(k, k) == identity(space)


def test_involution_validation():
    with pytest.raises(ValueError):
        Involution(X3, (1, 2, 0))  # a 3-cycle is not self-inverse
    with pytest.raises(ValueError):
        Involution(X2, (0, 0))


@pytest.mark.parametrize("perm, first_bad", [
    ((1, 0, 3, 2, 4, 6, 7, 5), 5),  # swaps, a fixed point, then a 3-cycle
    ((0, 1, 2, 3, 4, 5, 7, 8, 6), 6),
    ((1, 2, 0, 4, 3), 0),
    (tuple(range(40)) + (41, 42, 40), 40),
])
def test_involution_names_the_first_index_that_is_not_self_inverse(perm, first_bad):
    space = FinSpace(tuple(f"x{i}" for i in range(len(perm))))
    with pytest.raises(ValueError,
                       match=rf"^permutation is not self-inverse at index {first_bad}$"):
        Involution(space, perm)
    with pytest.raises(ValueError, match="^not a permutation of the space's points$"):
        Involution(space, perm[:-1] + (perm[0],))


# -- CD axioms, exhaustively on spaces of size <= 4 ----------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_comonoid_axioms(n):
    space = FinSpace(tuple(f"x{i}" for i in range(n)))
    cop = copy(space)
    # counit: (del (x) id) ; unitor == id == (id (x) del) ; unitor
    left = compose(left_unitor(space), compose(tensor(delete(space), identity(space)), cop))
    right = compose(right_unitor(space), compose(tensor(identity(space), delete(space)), cop))
    assert left == identity(space)
    assert right == identity(space)
    # coassociativity up to the explicit associator
    lhs = compose(associator(space, space, space),
                  compose(tensor(cop, identity(space)), cop))
    rhs = compose(tensor(identity(space), cop), cop)
    assert lhs == rhs
    # cocommutativity
    assert compose(swap(space, space), cop) == cop


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_copy_delete_compatible_with_tensor(n, m):
    a = FinSpace(tuple(f"a{i}" for i in range(n)))
    b = FinSpace(tuple(f"b{i}" for i in range(m)))
    ab = product(a, b)
    # del_{A(x)B} == (del_A (x) del_B) ; unit collapse
    collapse = deterministic(product(UNIT, UNIT), UNIT, lambda p: "*")
    assert delete(ab) == compose(collapse, tensor(delete(a), delete(b)))
    # cop_{A(x)B} == middle-four relabel of cop_A (x) cop_B
    rearrange = deterministic(
        product(product(a, a), product(b, b)), product(ab, ab),
        lambda p: ((p[0][0], p[1][0]), (p[0][1], p[1][1])))
    assert copy(ab) == compose(rearrange, tensor(copy(a), copy(b)))


def test_unit_object_structure():
    assert delete(UNIT) == identity(UNIT)
    canonical = deterministic(UNIT, product(UNIT, UNIT), lambda p: ("*", "*"))
    assert copy(UNIT) == canonical


@given(kernels(max_size=3))
def test_delete_natural_exactly_on_normalized(k):
    natural = compose(delete(k.cod), k) == delete(k.dom)
    assert natural == is_normalized(k)


# -- predicates ----------------------------------------------------------------

def test_is_normalized_examples():
    assert is_normalized(Kernel(X2, X2, [[q(1, 2), q(1, 2)], [1, 0]]))
    assert not is_normalized(Kernel(X2, X2, [[q(1, 2), q(1, 3)], [1, 0]]))


@given(composable_pairs(entry_strategy=st.builds(ExtNonneg, st.integers(0, 6), st.integers(1, 6))))
def test_normalized_closed_under_compose(pair):
    later, earlier = pair
    if is_normalized(later) and is_normalized(earlier):
        assert is_normalized(compose(later, earlier))


def _normalize_rows(k):
    rows = []
    for row in k.entries:
        total = sum((v for v in row), ZERO)
        if not total.is_finite or total == ZERO:
            return None
        rows.append([v / total for v in row])
    return Kernel(k.dom, k.cod, rows)


@given(kernels(max_size=3), kernels(max_size=3))
def test_normalized_closed_under_tensor(k1, k2):
    n1, n2 = _normalize_rows(k1), _normalize_rows(k2)
    if n1 is not None and n2 is not None:
        assert is_normalized(tensor(n1, n2))


def test_is_copyable_examples():
    assert is_copyable(dirac(X2, "b"))
    assert not is_copyable(Kernel(UNIT, X2, [[q(1, 2), q(1, 2)]]))
    assert is_copyable(kernel_zero(X2, X3))


@given(kernels(max_size=3))
def test_is_copyable_matches_defining_equation(k):
    # copy ∘ P == (P (x) P) ∘ copy, computed with the library's own
    # composition and tensor as the independent route
    lhs = compose(copy(k.cod), k)
    rhs = compose(tensor(k, k), copy(k.dom))
    assert is_copyable(k) == (lhs == rhs)


def test_row_mass_examples():
    p = Kernel(UNIT, X2, [[q(1, 2), q(1, 3)]])
    assert row_mass(p).effect_values() == (q(5, 6),)
    assert row_mass(kernel_zero(X2, X3)).effect_values() == (ZERO, ZERO)
    walk = Kernel(X2, X2, [[q(1, 2), q(1, 2)], [0, 1]])
    assert row_mass(walk) == delete(X2)


@given(kernels(max_size=3))
def test_row_mass_is_delete_composed(k):
    assert row_mass(k) == compose(delete(k.cod), k)


def test_is_substochastic_examples():
    assert is_substochastic(Kernel(UNIT, X2, [[q(1, 2), q(1, 3)]]))
    assert not is_substochastic(Kernel(UNIT, X2, [[1, q(1, 3)]]))
    assert is_substochastic(uniform(X3))


@given(composable_pairs(entry_strategy=st.builds(ExtNonneg, st.integers(0, 4), st.integers(2, 8))))
def test_substochastic_closed_under_compose(pair):
    later, earlier = pair
    if is_substochastic(later) and is_substochastic(earlier):
        assert is_substochastic(compose(later, earlier))


def test_effect_mul_examples():
    v = effect(X2, [q(1, 2), q(2)])
    w = effect(X2, [q(1, 3), INF])
    assert effect_mul(v, w).effect_values() == (q(1, 6), INF)
    assert effect_mul(v, delete(X2)) == v
    zero_eff = effect(X2, [0, 0])
    assert effect_mul(zero_eff, w) == zero_eff


def test_effect_mul_mismatch():
    with pytest.raises(SpaceMismatchError):
        effect_mul(effect(X2, [1, 1]), effect(X3, [1, 1, 1]))


def test_reweight_examples():
    p = Kernel(X2, X2, [[1, 0], [0, 1]])
    assert reweight(delete(X2), p) == p
    w = effect(X2, [q(1, 2), 0])
    assert reweight(w, p) == Kernel(X2, X2, [[q(1, 2), 0], [0, 0]])
    diag = reweight(effect(X2, [q(1, 3), q(3)]), identity(X2))
    assert diag == Kernel(X2, X2, [[q(1, 3), 0], [0, q(3)]])


def test_reweight_mismatch():
    with pytest.raises(SpaceMismatchError):
        reweight(effect(X3, [1, 1, 1]), identity(X2))


# -- the sparse representation against a dense oracle -------------------------
#
# Each kernel stores only its nonzero entries. The oracles below work on the
# dense ``entries`` view, entry by entry, as the matrix definitions read.

def _oracle_compose(later, earlier):
    mid = range(len(earlier.cod))
    return [[sum((row[t] * later.entries[t][j] for t in mid), ZERO)
             for j in range(len(later.cod))] for row in earlier.entries]


def _oracle_tensor(left, right):
    return [[a * b for a in lrow for b in rrow]
            for lrow in left.entries for rrow in right.entries]


def _oracle_sum(p, q_):
    return [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(p.entries, q_.entries)]


def _oracle_reweight(weight, k):
    return [[w[0] * v for v in row] for w, row in zip(weight.entries, k.entries)]


def _assert_canonical(k):
    """Ascending in-range columns, one value each, and never a stored zero."""
    assert len(k.rows) == len(k.dom)
    for cols, vals in k.rows:
        assert len(cols) == len(vals)
        assert list(cols) == sorted(set(cols))
        assert all(0 <= j < len(k.cod) for j in cols)
        assert all(isinstance(v, ExtNonneg) and v.num != 0 for v in vals)


def _matches(k, dense):
    _assert_canonical(k)
    assert k.entries == tuple(tuple(row) for row in dense)
    assert k == Kernel(k.dom, k.cod, dense)


small_values = st.sampled_from([ZERO, ONE, INF, q(1, 2), q(3)])


@given(composable_pairs())
def test_compose_matches_dense_oracle(pair):
    later, earlier = pair
    _matches(compose(later, earlier), _oracle_compose(later, earlier))


positive_values = st.builds(ExtNonneg, st.integers(1, 48), st.integers(1, 12))


@st.composite
def disjoint_later_pairs(draw):
    """(later, earlier) where no two rows of ``later`` share a column.

    Each column of later's codomain belongs to at most one middle point, and
    only its owner's row may charge it: contiguous owners give block-diagonal
    rows, whose concatenation is ascending; shuffled owners give unordered
    ones; a middle point that owns no column has an empty row; and when each
    point owns one column, later is permutation-like with values other than 1.
    """
    a = draw(spaces(1, 3, "a"))
    b = draw(spaces(1, 5, "b"))
    c = draw(spaces(1, 8, "c"))
    owners = draw(st.lists(st.integers(-1, len(b) - 1), min_size=len(c), max_size=len(c)))
    if draw(st.booleans()):
        owners.sort()
    rows = [[draw(positive_values) if owner == k else ZERO for owner in owners]
            for k in range(len(b))]
    earlier = draw(kernels_on(a, b, finite_values))
    return Kernel(b, c, rows), earlier


def _compose_checked(later, earlier):
    out = compose(later, earlier)
    assert_reduced(out)
    _matches(out, _oracle_compose(later, earlier))
    return out


@given(disjoint_later_pairs())
def test_compose_concatenates_middle_rows_that_never_meet(pair):
    _compose_checked(*pair)


@given(disjoint_later_pairs(), st.data())
def test_compose_adds_middle_rows_that_meet_in_one_column(pair, data):
    """The near miss: two middle rows charged by one earlier row share one
    column, so that column's products must be added."""
    later, earlier = pair
    assume(len(later.dom) >= 2)
    k1, k2 = data.draw(st.lists(st.integers(0, len(later.dom) - 1),
                                min_size=2, max_size=2, unique=True))
    j = data.draw(st.integers(0, len(later.cod) - 1))
    rows = [list(row) for row in later.entries]
    rows[k1][j] = data.draw(positive_values)
    rows[k2][j] = data.draw(positive_values)
    for k in range(len(later.dom)):
        if k not in (k1, k2):
            rows[k][j] = ZERO
    later = Kernel(later.dom, later.cod, rows)
    first = [list(row) for row in earlier.entries]
    first[0][k1], first[0][k2] = data.draw(positive_values), data.draw(positive_values)
    out = _compose_checked(later, Kernel(earlier.dom, earlier.cod, first))
    assert out.entries[0][j] == first[0][k1] * rows[k1][j] + first[0][k2] * rows[k2][j]


def test_compose_concatenation_reorders_columns_and_drops_empty_rows():
    # middle rows a: {2}, b: {0, 3}, c: {}, d: {1}, no column shared
    mid, out = FinSpace.atoms("a b c d"), FinSpace.atoms("w x y z")
    later = Kernel(mid, out, [[0, 0, q(2, 3), 0], [q(1, 5), 0, 0, q(4, 5)],
                              [0, 0, 0, 0], [0, q(7, 2), 0, 0]])
    earlier = measure(mid, [q(1, 2), q(1, 3), q(1, 7), q(1, 6)])
    assert _compose_checked(later, earlier).rows == (
        ((0, 1, 2, 3), (q(1, 15), q(7, 12), q(1, 3), q(4, 15))),)


def test_compose_takes_no_concatenation_past_the_pigeonhole_bound(monkeypatch):
    """A dense earlier row over dense middle rows holds more entries than the
    output has columns, so they must meet: compose adds them up without
    trying to concatenate. Exactly as many entries as columns may not meet."""
    joined = []

    def spy(*args):
        joined.append(args[0])
        return original(*args)
    original = kernels_module._joined_row
    monkeypatch.setattr(kernels_module, "_joined_row", spy)
    dense = Kernel(X3, X3, [[q(1, 3)] * 3, [q(1, 2), q(1, 4), q(1, 4)], [q(1, 6), q(1, 2), q(1, 3)]])
    start = measure(X3, [q(1, 2), q(1, 3), q(1, 6)])
    _compose_checked(dense, start)
    _compose_checked(dense, dense)
    assert joined == []
    # a permutation-like later kernel: three entries in three columns
    moved = Kernel(X3, X3, [[0, 0, q(3)], [q(1, 2), 0, 0], [0, q(5), 0]])
    assert _compose_checked(moved, start).rows == (((0, 1, 2), (q(1, 6), q(5, 6), q(3, 2))),)
    assert joined == [[2, 0, 1]]


#: X3 -> X2 sending b and c to one column: a relabel where columns meet.
_MERGE_BC = deterministic(X3, X2, {"a": "a", "b": "b", "c": "b"}.__getitem__)


@pytest.mark.parametrize("op, left, right, first_row", [
    # one measure's oo lies over the other's finite 1/4 and absorbs it, so
    # the 1/2 left over goes over denominator 2, not 4
    ("+", measure(X3, [q(1, 2), q(1, 4), 0]), measure(X3, [0, INF, 0]),
     ((0,), (1,), 2, (1,))),
    ("+", Kernel(X2, X3, [[q(1, 3), INF, 0], [0, q(1, 2), q(1, 2)]]),
     Kernel(X2, X3, [[q(1, 6), q(1, 6), 0], [INF, 0, q(1, 4)]]),
     ((0,), (1,), 2, (1,))),
    # {a: 1/2, b: 1/4, c: oo} with b and c sent to one column
    ("∘", _MERGE_BC, measure(X3, [q(1, 2), q(1, 4), INF]), ((0,), (1,), 2, (1,))),
    # two finite entries meet: 1/6 + 1/3
    ("∘", _MERGE_BC, measure(X3, [q(1, 2), q(1, 6), q(1, 3)]), ((0, 1), (1, 1), 2, ())),
    # oo on both sides: 1/2 * (1/2, oo, 0) + 1/2 * (1/4, 1/4, 1/2)
    ("∘", Kernel(X2, X3, [[q(1, 2), INF, 0], [q(1, 4), q(1, 4), q(1, 2)]]),
     Kernel(X2, X2, [[q(1, 2), q(1, 2)], [INF, q(1, 3)]]), ((0, 2), (3, 2), 8, (1,))),
], ids=["sum-oo-over-finite", "sum-of-kernels", "relabel-oo-meets-finite",
        "relabel-finite-entries-meet", "compose-oo-on-both-sides"])
def test_meeting_columns_add_up_and_oo_absorbs_them(op, left, right, first_row):
    """Compose, relabels and + add numerators where columns meet, and an
    oo absorbs the finite mass on its column before the row is reduced."""
    if op == "+":
        out, dense = left + right, _oracle_sum(left, right)
    else:
        out, dense = compose(left, right), _oracle_compose(left, right)
    assert_reduced(out)
    _matches(out, dense)
    assert out.int_rows[0] == first_row


@given(kernel_pairs(max_size=5), st.data())
def test_moves_and_sums_where_no_column_meets(pair, data):
    """A relabel by a permutation moves every entry to a column of its own,
    and a sum of kernels with disjoint supports meets in no column: the
    results equal the dense oracle, and a permuted row keeps its
    denominator and its numerators. Some rows are zero, some entries oo."""
    k, other = pair
    zero = data.draw(st.lists(st.booleans(), min_size=len(k.dom), max_size=len(k.dom)))
    k = Kernel(k.dom, k.cod, [[ZERO] * len(k.cod) if z else row
                              for z, row in zip(zero, k.entries)])
    cod = k.cod
    perm = data.draw(st.permutations(range(len(cod))))
    move = deterministic(cod, cod, dict(zip(cod.labels, [cod.labels[j] for j in perm])).get)
    moved = _compose_checked(move, k)
    for (cols, nums, den, infs), (mcols, mnums, mden, minfs) in zip(k.int_rows, moved.int_rows):
        assert mden == den
        assert dict(zip(mcols, mnums)) == {perm[j]: n for j, n in zip(cols, nums)}
        assert minfs == tuple(sorted(perm[j] for j in infs))
    mine = [data.draw(st.lists(st.booleans(), min_size=len(cod), max_size=len(cod)))
            for _ in k.dom.labels]
    p = Kernel(k.dom, cod, [[v if m else ZERO for v, m in zip(row, mask)]
                            for row, mask in zip(k.entries, mine)])
    q_ = Kernel(k.dom, cod, [[ZERO if m else v for v, m in zip(row, mask)]
                             for row, mask in zip(other.entries, mine)])
    total = p + q_
    assert_reduced(total)
    _matches(total, _oracle_sum(p, q_))


@given(kernels(max_size=3), kernels(max_size=3))
def test_tensor_matches_dense_oracle(left, right):
    _matches(tensor(left, right), _oracle_tensor(left, right))


@given(kernel_pairs())
def test_sum_matches_dense_oracle(pair):
    p, q_ = pair
    _matches(p + q_, _oracle_sum(p, q_))


@given(kernels(), st.data())
def test_reweight_matches_dense_oracle(k, data):
    weight = data.draw(kernels_on(k.dom, UNIT))
    _matches(reweight(weight, k), _oracle_reweight(weight, k))


@given(kernel_pairs(max_size=2, entry_strategy=small_values))
def test_equality_matches_dense_oracle(pair):
    p, q_ = pair
    assert (p == q_) == (p.entries == q_.entries)
    if p == q_:
        assert hash(p) == hash(q_)


def test_zero_times_infinity_stores_nothing():
    p = Kernel(X2, X2, [[INF, 0], [0, 1]])
    w = effect(X2, [0, 1])
    assert reweight(w, p).rows == (((), ()), ((1,), (ONE,)))
    assert compose(p, Kernel(UNIT, X2, [[0, q(1, 2)]])).rows == (((1,), (q(1, 2),)),)
    assert tensor(Kernel(UNIT, UNIT, [[0]]), p).is_zero()


@given(kernels())
def test_constructor_stores_nonzeros_only(k):
    _assert_canonical(k)
    assert sum(len(cols) for cols, _ in k.rows) == sum(
        1 for row in k.entries for v in row if v != ZERO)


def test_entries_is_a_kept_read_only_view():
    k = Kernel(X2, X2, [[q(1, 2), q(1, 2)], [0, 1]])
    assert k.entries is k.entries
    with pytest.raises(AttributeError):
        k.entries = ((ONE, ZERO), (ZERO, ONE))


def _shared_exactly_where_rows_are_equal(k, per_row):
    rows = k.int_rows
    return all((per_row[i] is per_row[j]) == (rows[i] == rows[j])
               for i in range(len(rows)) for j in range(len(rows)))


def test_equal_rows_share_one_pair_map_and_one_view():
    chain = gibbs_3x3x3()
    maps = pair_rows(chain)
    assert len(maps) == 27
    assert len({id(pairs) for pairs in maps}) == 9
    assert _shared_exactly_where_rows_are_equal(chain, maps)
    assert _shared_exactly_where_rows_are_equal(chain, chain.rows)
    assert _shared_exactly_where_rows_are_equal(chain, chain.entries)
    # equal rows built apart share too, whether the dense matrix is built
    # before the ``rows`` view or after it
    for view_first in (False, True):
        k = Kernel(X3, X2, [[q(1, 2), q(1, 2)], [0, 1], [q(1, 2), q(1, 2)]])
        assert k.int_rows[0] is not k.int_rows[2]
        if view_first:
            assert _shared_exactly_where_rows_are_equal(k, k.rows)
        assert _shared_exactly_where_rows_are_equal(k, k.entries)
        assert _shared_exactly_where_rows_are_equal(k, pair_rows(k))
        assert k.entries == ((q(1, 2), q(1, 2)), (ZERO, ONE), (q(1, 2), q(1, 2)))
        assert pair_rows(k) == [{0: (1, 2), 1: (1, 2)}, {1: (1, 1)},
                                {0: (1, 2), 1: (1, 2)}]


def _structural_kernels():
    """Each structural kernel with the label function it should store."""
    uvw = FinSpace.atoms("u v w")
    phi = Involution.from_mapping(X3, {"a": "c", "c": "a"})
    return [
        (identity(X3), lambda x: x),
        (deterministic(X3, X2, lambda x: "a" if x == "c" else "b"),
         lambda x: "a" if x == "c" else "b"),
        (copy(X3), lambda x: (x, x)),
        (swap(X2, uvw), lambda p: (p[1], p[0])),
        (delete(X3), lambda x: "*"),
        (dirac(X3, "b"), lambda x: "b"),
        (left_unitor(X3), lambda p: p[1]),
        (right_unitor(X3), lambda p: p[0]),
        (associator(X2, uvw, X3), lambda p: (p[0][0], (p[0][1], p[1]))),
        (lift_involution(phi), phi),
    ]


@pytest.mark.parametrize("k, fn", _structural_kernels())
def test_structural_kernels_store_one_unit_entry_per_row(k, fn):
    for x, row in zip(k.dom.labels, k.rows):
        assert row == ((k.cod.index(fn(x)),), (ONE,))
    assert len(k.rows) == len(k.dom)


# -- public constructors: rows are built only inside ``kernels`` ---------------

@given(kernels())
def test_from_maps_rebuilds_every_kernel(k):
    maps = [dict(zip(*row)) for row in k.rows]
    rebuilt = from_maps(k.dom, k.cod, maps)
    assert rebuilt == k and rebuilt.rows == k.rows
    # key order does not matter, and zero values are zero entries
    padded = [{j: m.get(j, ZERO) for j in reversed(range(len(k.cod)))} for m in maps]
    rebuilt = from_maps(k.dom, k.cod, padded)
    _assert_canonical(rebuilt)
    assert rebuilt.rows == k.rows


def test_from_maps_rejects_wrong_shapes():
    with pytest.raises(SpaceMismatchError, match="expected 2 rows for .*, got 1"):
        from_maps(X2, X3, [{}])
    for bad in (3, -1):
        for value in (ONE, ZERO):
            with pytest.raises(SpaceMismatchError, match="out of range"):
                from_maps(X2, X3, [{0: ONE}, {bad: value}])


@given(kernels(), st.data())
def test_from_pair_rows_rebuilds_every_kernel_from_its_pair_rows(k, data):
    assert from_pair_rows(k.dom, k.cod, pair_rows(k)).int_rows == k.int_rows
    # each pair scaled on its own, so that a row's pairs are unreduced and
    # over different denominators, zero pairs added, and keys reversed
    factors = st.integers(1, 6)
    rows = []
    for row in pair_rows(k):
        scaled = {j: (n * f, d * f) for j, (n, d) in row.items() for f in [data.draw(factors)]}
        zeros = {j: (0, data.draw(factors)) for j in range(len(k.cod)) if j not in row}
        rows.append(dict(sorted((scaled | zeros).items(), reverse=True)))
    assert from_pair_rows(k.dom, k.cod, rows).int_rows == k.int_rows


def test_from_pair_rows_reduces_one_entry_rows():
    assert from_pair_rows(X3, UNIT, [{0: (4, 6)}, {0: (3, 0)}, {0: (0, 5)}]) == effect(
        X3, [q(2, 3), INF, ZERO])


def test_from_pair_rows_rejects_wrong_shapes():
    with pytest.raises(SpaceMismatchError, match="expected 2 rows for .*, got 1"):
        from_pair_rows(X2, X3, [{}])
    for bad in (3, -1):
        for row in ({bad: (1, 2)}, {bad: (0, 1)}, {0: (1, 2), bad: (1, 0)}):
            with pytest.raises(SpaceMismatchError, match="out of range"):
                from_pair_rows(X2, X3, [{0: (1, 1)}, row])


def test_lazy_involution_needs_an_effect_on_the_involutions_space():
    phi = Involution.from_mapping(X2, {"a": "b", "b": "a"})
    with pytest.raises(SpaceMismatchError):
        lazy_involution(phi, effect(X3, [ONE, ONE, ONE]))
    with pytest.raises(SpaceMismatchError):
        lazy_involution(phi, identity(X2))


def test_split_by_support_needs_kernels_between_the_same_spaces():
    q_ = Kernel(X2, X2, [[ONE, ZERO], [ZERO, ONE]])
    for p in (Kernel(X3, X2, [[ONE, ONE]] * 3), Kernel(X2, X3, [[ONE, ZERO, ONE]] * 2)):
        with pytest.raises(SpaceMismatchError, match="^split_by_support needs kernels "
                                                     "with equal dom and cod$"):
            split_by_support(p, q_)


SRC = Path(__file__).resolve().parent.parent / "src" / "finkern"


#: The public names ``finkern.kernels`` defines, wherever in the kernel
#: layer each is written.
KERNELS_PUBLIC = [
    "Involution", "Kernel", "SpaceMismatchError", "associator", "compose",
    "composite", "copy", "copyable_violation", "delete", "deterministic",
    "dirac", "effect", "effect_mul", "effect_pairs", "from_effect_pairs",
    "from_maps", "from_pair_rows", "graph", "identity", "infinite_entry",
    "is_copyable", "is_normalized", "is_substochastic", "lazy_involution",
    "lazy_proposal", "left_unitor",
    "lift_involution", "measure", "normalized_violation", "pair_rows",
    "pushforward", "resample_within", "reweight", "right_unitor", "row_mass",
    "row_masses", "row_support", "split_by_support", "substochastic_violation",
    "swap", "swap_asymmetry", "tensor", "uniform",
]


def test_kernels_keeps_its_public_names():
    assert len(KERNELS_PUBLIC) == 43
    for name in KERNELS_PUBLIC:
        obj = getattr(kernels_module, name)
        if hasattr(finkern, name):
            assert getattr(finkern, name) is obj, name
    for cls in (Kernel, Involution, SpaceMismatchError):
        assert cls.__module__ == "finkern.kernels"


def test_the_kernel_layer_lists_its_files():
    """``KERNEL_LAYER`` is ``kernels.py`` and every ``_kernel*.py`` file, so
    no kernel-layer file is left out of the guards below."""
    assert sorted(KERNEL_LAYER) == sorted(
        ["kernels.py", *(path.name for path in SRC.glob("_kernel*.py"))])


def test_only_kernels_builds_rows():
    """No module outside the kernel layer calls ``Kernel._new`` or reaches a
    private name of a kernel-layer module, so the row format is decided in
    one place."""
    for path in SRC.glob("*.py"):
        if path.name in KERNEL_LAYER:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert not (node.value.id == "Kernel" and node.attr == "_new"), path.name
                assert not (kernel_layer_module(node.value.id)
                            and node.attr.startswith("_")), path.name
            if isinstance(node, ast.ImportFrom) and kernel_layer_module(node.module):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, (path.name, private)
    for name in ("Row", "EMPTY_ROW", "point_row", "value_row", "dict_row"):
        assert not hasattr(kernels_module, name), name


def test_only_kernels_reads_stored_rows():
    """Other modules read entries through ``pair_rows``, ``effect_pairs``,
    ``row_support`` or the value views, never the stored ``int_rows``."""
    for path in SRC.glob("*.py"):
        if path.name in KERNEL_LAYER:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                assert node.attr != "int_rows", path.name


#: The modules that may read the ``ExtNonneg`` views: ``kernels`` defines
#: them, ``cli`` formats witnesses and reads ``sample``'s float target with
#: them, and ``generators`` builds random inputs through the public API.
VIEW_READERS = ("kernels.py", "cli.py", "generators.py")
VIEWS = ("rows", "entries", "row", "entry", "at", "measure_values", "effect_values")


def test_only_the_api_reads_value_views():
    """Below the API, modules read entries as pairs: no ``ExtNonneg`` view,
    and ``at`` only to print a value in an error message."""
    for path in SRC.glob("*.py"):
        if path.name in VIEW_READERS:
            continue
        tree = ast.parse(path.read_text())
        in_raise = {id(node) for stmt in ast.walk(tree) if isinstance(stmt, ast.Raise)
                    for node in ast.walk(stmt)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in VIEWS:
                assert node.attr == "at" and id(node) in in_raise, (path.name, node.lineno)


# -- the stored integer rows ---------------------------------------------------

@given(kernels(entry_strategy=small_values | st.sampled_from([q(2, 3), q(5, 6)])))
def test_every_route_to_a_kernel_stores_the_same_rows(k):
    ones = effect(k.dom, [ONE] * len(k.dom))
    routes = [
        Kernel(k.dom, k.cod, k.entries),
        from_maps(k.dom, k.cod, [dict(zip(*row)) for row in k.rows]),
        identity(k.dom) >> k,
        k >> identity(k.cod),
        k + kernel_zero(k.dom, k.cod),
        reweight(ones, k),
        # marginalize the graph onto its second factor
        graph(k) >> tensor(delete(k.dom), identity(k.cod)) >> left_unitor(k.cod),
    ]
    assert_reduced(k)
    for built in routes:
        assert_reduced(built)
        assert built.int_rows == k.int_rows
        assert built == k and hash(built) == hash(k)


@given(composable_pairs(), kernel_pairs())
def test_kernel_operations_store_reduced_rows(pair, same_type):
    later, earlier = pair
    p, q_ = same_type
    weight = effect(p.dom, [row[0] for row in q_.entries])
    for k in (compose(later, earlier), tensor(later, earlier), p + q_,
              reweight(weight, p)):
        assert_reduced(k)


# -- each distinct row built once ---------------------------------------------

def test_compose_keeps_each_rows_infinite_entries_to_itself():
    """An empty row between two rows that meet oo stays empty, and a row
    whose oo meets a zero keeps its finite sum."""
    p = Kernel(X3, X3, [[q(13, 4), 3, 2], [0, 0, 0], [q(3, 8), 0, INF]])
    r = Kernel(X3, UNIT, [[q(5, 2)], [INF], [0]])
    assert compose(r, p).entries == ((INF,), (ZERO,), (q(15, 16),))


repeat_values = st.sampled_from([ZERO, ZERO, ONE, INF, q(1, 2), q(3), q(2, 3)])


@st.composite
def repeated_row_kernels(draw):
    """A kernel whose rows are 1-3 random rows (an empty one among them
    half the time), each drawn 1-3 times, in random order."""
    mid = draw(spaces(1, 3, "b"))
    distinct = draw(st.lists(st.lists(repeat_values, min_size=len(mid),
                                      max_size=len(mid)), min_size=1, max_size=3))
    if draw(st.booleans()):
        distinct.append([ZERO] * len(mid))
    rows = draw(st.permutations([r for r in distinct for _ in range(draw(st.integers(1, 3)))]))
    return Kernel(FinSpace(tuple(f"a{i}" for i in range(len(rows)))), mid, rows)


@given(repeated_row_kernels(), st.data())
def test_compose_over_repeated_rows_matches_dense_oracle(earlier, data):
    cod = data.draw(spaces(1, 3, "c"))
    later = data.draw(kernels_on(earlier.cod, cod, repeat_values))
    f = data.draw(st.lists(st.integers(0, len(cod) - 1),
                           min_size=len(earlier.cod), max_size=len(earlier.cod)))
    relabel = deterministic(earlier.cod, cod, lambda y: cod.labels[f[earlier.cod.index(y)]])
    for k in (later, relabel):
        out = compose(k, earlier)
        _matches(out, _oracle_compose(k, earlier))
        assert_reduced(out)


finite_repeat_values = st.sampled_from([ZERO, ZERO, ONE, q(1, 2), q(3), q(2, 3)])


@given(st.data())
def test_compose_over_shared_later_rows_matches_dense_oracle(data):
    """``later``'s rows repeat as one stored object, whose weights compose
    adds up first, and as equal but separate tuples; ``oo`` entries sit on
    either side or on neither."""
    mid = data.draw(spaces(1, 5, "b"))
    cod = data.draw(spaces(1, 3, "c"))
    distinct = data.draw(kernels_on(data.draw(spaces(1, 3, "s")), cod, data.draw(
        st.sampled_from([finite_repeat_values, repeat_values]))))
    picks = data.draw(st.lists(st.integers(0, len(distinct.dom) - 1),
                               min_size=len(mid), max_size=len(mid)))
    earlier = data.draw(kernels_on(data.draw(spaces(1, 4, "a")), mid, data.draw(
        st.sampled_from([finite_repeat_values, repeat_values]))))
    shared = [distinct.int_rows[i] for i in picks]
    for rows in (shared, [tuple(list(row)) for row in shared]):
        later = Kernel._new(mid, cod, tuple(rows))
        out = compose(later, earlier)
        _matches(out, _oracle_compose(later, earlier))
        assert_reduced(out)


@pytest.mark.parametrize("later, row, helper", [
    pytest.param(Kernel(X2, X3, [[q(1, 2), q(1, 2), 0], [0, 0, 1]]), [q(2, 3), 0],
                 "_joined_row", id="one-middle-point"),
    pytest.param(Kernel(X2, X3, [[q(1, 3), 0, 0], [0, q(1, 2), q(1, 2)]]), [q(1, 2), q(1, 4)],
                 "_joined_row", id="concatenated"),
    pytest.param(Kernel(X2, X3, [[q(1, 2), q(1, 2), 0], [0, q(1, 2), q(1, 2)]]),
                 [q(1, 2), q(1, 2)], "_dense_sum", id="pigeonhole-dense"),
    pytest.param(Kernel(X2, X3, [[INF, 0, 0], [0, 1, 0]]), [q(1, 2), q(1, 2)],
                 "_joined_row", id="meets-oo"),
    pytest.param(deterministic(X2, X3, lambda x: "c"), [q(1, 2), q(1, 3)],
                 "_relabel", id="index-map-relabel"),
])
def test_compose_gives_equal_earlier_rows_one_output_row(monkeypatch, later, row, helper):
    """Two equal (but separately stored) earlier rows are worked out once,
    by the row builder of their shape, and share one output row."""
    calls = []
    original = getattr(kernels_module, helper)

    def spy(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(kernels_module, helper, spy)
    earlier = Kernel(X2, X2, [row, list(row)])
    assert earlier.int_rows[0] is not earlier.int_rows[1]
    out = _compose_checked(later, earlier)
    assert out.int_rows[0] is out.int_rows[1]
    assert len(calls) == 1


def test_resample_within_shares_one_reduced_row_per_block():
    space = FinSpace(tuple("abcdef"))
    mu = measure(space, [q(1, 6), q(1, 3), 0, 0, q(1, 4), 0])
    k = resample_within(mu, [[1, 0], range(2, 4), (5, 4)])
    assert k.dom == k.cod == space
    assert k.entries == (
        (q(1, 3), q(2, 3), 0, 0, 0, 0), (q(1, 3), q(2, 3), 0, 0, 0, 0),
        (0, 0, q(1, 2), q(1, 2), 0, 0), (0, 0, q(1, 2), q(1, 2), 0, 0),
        (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 1, 0))
    rows = k.int_rows
    assert rows[0] is rows[1] and rows[2] is rows[3] and rows[4] is rows[5]
    assert_reduced(k)
    assert resample_within(measure(EMPTY, []), []) == identity(EMPTY)
    for blocks in ([[0, 1], [2, 3], [4]], [[0, 1], [1, 2, 3], [4, 5]],
                   [[0, 1, 2, 3], [4, 5], [5]]):
        with pytest.raises(ValueError, match="partition"):
            resample_within(mu, blocks)
    with pytest.raises(ValueError, match="finite"):
        resample_within(measure(space, [INF, 0, 0, 0, 0, 0]), [range(6)])
    with pytest.raises(SpaceMismatchError):
        resample_within(identity(space), [range(6)])


@given(kernels())
def test_graph_is_the_tensor_with_identity_after_copy(k):
    built = graph(k)
    assert built == compose(tensor(identity(k.dom), k), copy(k.dom))
    assert built.cod == product(k.dom, k.cod)
    assert_reduced(built)


def test_graph_of_an_index_map_is_an_index_map():
    def fn(x):
        return "a" if x == "c" else "b"

    f = deterministic(X3, X2, fn)
    built = graph(f)
    assert built == compose(tensor(identity(X3), f), copy(X3))
    assert built._map == deterministic(X3, product(X3, X2), lambda x: (x, fn(x)))._map


def _index_maps():
    """Each structural constructor's index map, as a builder of fresh ones,
    with the columns its rows point at."""
    flip = Involution.from_mapping(X3, {"a": "c", "c": "a"})
    return [
        (lambda: identity(X3), [0, 1, 2]),
        (lambda: copy(X3), [0, 4, 8]),
        (lambda: swap(X2, X3), [0, 2, 4, 1, 3, 5]),
        (lambda: delete(X3), [0, 0, 0]),
        (lambda: dirac(X3, "b"), [1]),
        (lambda: left_unitor(X2), [0, 1]),
        (lambda: right_unitor(X3), [0, 1, 2]),
        (lambda: associator(X2, X2, X2), list(range(8))),
        (lambda: lift_involution(flip), [2, 1, 0]),
        (lambda: deterministic(X3, X2, lambda x: "a" if x == "c" else "b"), [1, 1, 0]),
        (lambda: tensor(identity(X2), delete(X3)), [0, 0, 0, 1, 1, 1]),
        (lambda: compose(swap(X3, X3), copy(X3)), [0, 4, 8]),
        (lambda: graph(lift_involution(flip)), [2, 4, 6]),
    ]


@pytest.mark.parametrize("build, targets", _index_maps())
def test_index_map_rows_are_built_on_first_read(build, targets):
    """An index map stores its targets alone; its rows, read for the first
    time, are the unit point rows it used to store, and it equals, and
    hashes as, the dense 0/1 kernel, whichever side is read first."""
    point_rows = tuple(((j,), (1,), 1, ()) for j in targets)
    fresh = build()
    with pytest.raises(AttributeError):  # nothing stored yet
        Kernel.int_rows.__get__(fresh, Kernel)
    assert fresh.int_rows == point_rows and fresh.int_rows is fresh.int_rows
    width = len(fresh.cod)
    dense = Kernel(fresh.dom, fresh.cod, [[int(j == t) for j in range(width)]
                                          for t in targets])
    assert build() == dense and dense == build()
    assert hash(build()) == hash(dense)
    assert pickle.loads(pickle.dumps(build())) == dense
    assert build().entries == dense.entries
    with pytest.raises(AttributeError):
        build().no_such_attribute


# -- composites: rows built on first read ------------------------------------

# zero entries half the time, so whole rows and whole measures are zero often
_ZERO_HEAVY = st.one_of(st.just(ZERO), values)


@st.composite
def _factor(draw, dom, cod):
    """A kernel dom -> cod: an index map now and then, else dense entries
    with zeros and oo."""
    if len(cod) and draw(st.booleans()):
        targets = draw(st.lists(st.sampled_from(cod.labels),
                                min_size=len(dom), max_size=len(dom)))
        return deterministic(dom, cod, lambda x: targets[dom.index(x)])
    return draw(kernels_on(dom, cod, _ZERO_HEAVY))


@st.composite
def _chains(draw):
    """2-4 composable kernels over spaces of 0-3 points, first to last."""
    stops = [draw(spaces(0, 3, f"s{i}_")) for i in range(draw(st.integers(3, 5)))]
    return [draw(_factor(dom, cod)) for dom, cod in zip(stops, stops[1:])]


@given(_chains())
def test_composite_rows_are_the_eager_fold(factors):
    lazy, eager = composite(factors), eager_fold(factors)
    assert (lazy.dom, lazy.cod) == (factors[0].dom, factors[-1].cod)
    assert lazy.int_rows == eager.int_rows and lazy.int_rows is lazy.int_rows
    assert_reduced(lazy)
    assert lazy._factors is None  # dropped once the rows are built


@given(_chains(), st.data())
def test_compose_after_a_composite_is_compose_after_the_eager_fold(factors, data):
    """A measure and a kernel of 0-4 rows, pushed through the factors, give
    the eager sweep's kernel and leave the composite's rows unbuilt."""
    dom = factors[0].dom
    for source in (UNIT, data.draw(spaces(0, 4, "e"))):
        earlier = data.draw(kernels_on(source, dom, _ZERO_HEAVY))
        lazy = composite(factors)
        pushed = compose(lazy, earlier)
        assert pushed.int_rows == compose(eager_fold(factors), earlier).int_rows
        assert_reduced(pushed)
        assert not rows_built(lazy)


@given(_chains(), st.data())
def test_a_composite_reads_as_its_eager_fold_everywhere_else(factors, data):
    eager = eager_fold(factors)
    later = data.draw(kernels_on(factors[-1].cod, data.draw(spaces(0, 3, "l")),
                                 _ZERO_HEAVY))
    assert compose(later, composite(factors)) == compose(later, eager)
    other = data.draw(kernels(0, 2, _ZERO_HEAVY))
    assert tensor(composite(factors), other) == tensor(eager, other)
    assert tensor(other, composite(factors)) == tensor(other, eager)
    assert composite(factors) == eager and eager == composite(factors)
    assert hash(composite(factors)) == hash(eager)
    assert composite(factors).entries == eager.entries


@st.composite
def _trailing_maps(draw, dom):
    """An index map out of ``dom``: an injection, under which no two columns
    meet, or any map onto 1-3 points, under which they may."""
    if draw(st.booleans()):
        cod = draw(spaces(len(dom), len(dom) + 1, "t"))
        targets = draw(st.permutations(range(len(cod))))[:len(dom)]
    else:
        cod = draw(spaces(1 if len(dom) else 0, 3, "t"))
        targets = draw(st.lists(st.integers(0, max(len(cod) - 1, 0)),
                                min_size=len(dom), max_size=len(dom)))
    return deterministic(dom, cod, lambda x: cod.labels[targets[dom.index(x)]])


@given(st.data())
def test_an_index_map_after_a_composite_is_the_eager_fold_moved(data):
    """``compose(index_map, composite(factors))`` for 1-3 factors over spaces
    of 0-3 points, with zero rows, oo entries and index maps among the
    factors, is the eager fold with its columns moved, and equals the dense
    oracle; from two factors on, the composite's rows stay unbuilt."""
    stops = [data.draw(spaces(0, 3, f"s{i}_")) for i in range(data.draw(st.integers(2, 4)))]
    factors = [data.draw(_factor(dom, cod)) for dom, cod in zip(stops, stops[1:])]
    move = data.draw(_trailing_maps(stops[-1]))
    lazy = composite(factors)
    out = compose(move, lazy)
    eager = eager_fold(factors)
    assert out.int_rows == compose(move, eager).int_rows
    assert (out.dom, out.cod) == (stops[0], move.cod)
    assert_reduced(out)
    _matches(out, _oracle_compose(move, eager))
    if len(factors) > 1:
        assert not rows_built(lazy)


@given(st.data())
def test_equal_earlier_rows_share_one_row_after_a_folded_index_map(data):
    """Where the factors before the last give two equal rows, the folded
    compose writes one output row object for both, as ``compose`` does."""
    mid = data.draw(spaces(1, 3, "m"))
    row = data.draw(st.lists(_ZERO_HEAVY, min_size=len(mid), max_size=len(mid)))
    factors = [Kernel(X2, mid, [row, list(row)])]
    for i in range(data.draw(st.integers(1, 2))):
        factors.append(data.draw(_factor(factors[-1].cod, data.draw(spaces(1, 3, f"n{i}_")))))
    out = compose(data.draw(_trailing_maps(factors[-1].cod)), composite(factors))
    first, second = out.int_rows
    assert first is second
    assert_reduced(out)


def test_composite_refuses_what_compose_refuses():
    with pytest.raises(SpaceMismatchError,
                       match=re.escape("cannot compose: middle spaces differ")):
        composite([identity(X2), Kernel(X3, X3, [[1, 0, 0]] * 3)])
    with pytest.raises(ValueError, match="^composite needs at least one kernel$"):
        composite([])


def _fraction_power_step(power, step):
    n = len(step)
    return [[sum(row[t] * step[t][j] for t in range(n)) for j in range(n)]
            for row in power]


def test_powers_grow_denominators_and_match_a_fraction_oracle():
    """P^k >> P for k <= 3 on a dense n = 16 chain: the middle rows'
    denominators differ, so each composition grows the row lcm."""
    space = FinSpace(tuple(f"s{i}" for i in range(16)))
    p = rand_normalized_kernel(random.Random(16), space, space)
    step = [[Fraction(v.num, v.den) for v in row] for row in p.entries]
    power, oracle = p, step
    for _ in range(3):
        later = power >> p
        oracle = _fraction_power_step(oracle, step)
        assert [[Fraction(v.num, v.den) for v in row]
                for row in later.entries] == oracle
        assert later == p >> power
        assert_reduced(later)
        power = later
    assert max(den.bit_length() for _, _, den, _ in power.int_rows) > 200


@given(kernel_pairs(entry_strategy=small_values | st.sampled_from([q(2, 3), q(5, 6)])))
def test_pair_readers_give_each_entry_and_tell_rows_apart(pair):
    p, other = pair
    for i, (pairs, other_pairs) in enumerate(zip(pair_rows(p), pair_rows(other))):
        cols, vals = p.rows[i]
        assert list(pairs) == list(cols) == list(row_support(p, i))
        assert [ExtNonneg(n, d) if d else INF for n, d in pairs.values()] == list(vals)
        assert (pairs == other_pairs) == (p.rows[i] == other.rows[i])
    weight = effect(p.dom, [row[0] for row in p.entries])
    assert [ExtNonneg(n, d) if d else (INF if n else ZERO)
            for n, d in effect_pairs(weight)] == list(weight.effect_values())
    with pytest.raises(SpaceMismatchError):
        effect_pairs(identity(p.cod) @ identity(p.cod))


_PAIRS = st.tuples(st.integers(0, 12), st.integers(0, 12))  # zeros, oo, unreduced


@given(st.data())
def test_from_effect_pairs_is_the_one_entry_pair_map_build(data):
    """``from_effect_pairs`` writes what ``from_pair_rows`` writes from one
    ``{0: pair}`` map per point, reads back through ``effect_pairs`` as the
    reduced pairs, and keeps one column tuple for every finite row."""
    space = data.draw(spaces(0, 6))
    pairs = data.draw(st.lists(_PAIRS, min_size=len(space), max_size=len(space)))
    k = from_effect_pairs(space, pairs)
    assert k.int_rows == from_pair_rows(space, UNIT, [{0: pair} for pair in pairs]).int_rows
    assert_reduced(k)
    assert effect_pairs(k) == [(0, 1) if not n else (1, 0) if not d
                               else (n // gcd(n, d), d // gcd(n, d)) for n, d in pairs]
    assert len({id(cols) for cols, _, _, _ in k.int_rows if cols}) <= 1


@given(kernels(entry_strategy=small_values), st.data())
def test_index_map_shortcuts_match_the_general_products(k, data):
    """Running an index map after a kernel moves its columns (merging some,
    oo included), and index maps compose and tensor to index maps; each
    result equals the product of the same matrices built without targets."""
    cod = FinSpace(tuple(f"c{i}" for i in range(data.draw(st.integers(1, 3)))))
    f = data.draw(st.lists(st.integers(0, len(cod) - 1),
                           min_size=len(k.cod), max_size=len(k.cod)))
    g = deterministic(k.cod, cod, lambda y: cod.labels[f[k.cod.index(y)]])
    swap_g = swap(cod, k.cod)

    def plain(m):
        return Kernel(m.dom, m.cod, m.entries)

    assert k >> g == k >> plain(g)
    assert copy(k.cod) >> (g @ identity(k.cod)) >> swap_g == (
        plain(copy(k.cod)) >> (plain(g) @ plain(identity(k.cod))) >> plain(swap_g))


# -- refusals -------------------------------------------------------------------

@pytest.mark.parametrize("refuse, cls, text", [
    pytest.param(lambda: compose(identity(X2), identity(X3)), SpaceMismatchError,
                 "cannot compose: middle spaces differ (FinSpace(a b c) vs FinSpace(a b))",
                 id="compose"),
    pytest.param(lambda: identity(X2) + identity(X3), SpaceMismatchError,
                 "kernel sum needs equal dom and cod", id="sum"),
    pytest.param(lambda: reweight(identity(X2), identity(X2)), SpaceMismatchError,
                 "reweight needs an effect", id="reweight-not-an-effect"),
    pytest.param(lambda: reweight(effect(X3, [1, 1, 1]), identity(X2)), SpaceMismatchError,
                 "reweight needs an effect on the kernel's domain", id="reweight-domain"),
    pytest.param(lambda: Kernel(X2, X3, [[1, 0], [0, 1]]), SpaceMismatchError,
                 "expected 3 columns for FinSpace(a b c), got 2", id="columns"),
    pytest.param(lambda: identity(X2).measure_values(), SpaceMismatchError,
                 "not a measure (domain is not the unit space)", id="measure-view"),
    pytest.param(lambda: identity(X2).effect_values(), SpaceMismatchError,
                 "not an effect (codomain is not the unit space)", id="effect-view"),
    pytest.param(lambda: effect_pairs(identity(X2)), SpaceMismatchError,
                 "not an effect (codomain is not the unit space)", id="effect-pairs"),
    pytest.param(lambda: from_maps(X2, X3, [{3: ONE}, {}]), SpaceMismatchError,
                 "column index out of range 0..2 for FinSpace(a b c)", id="column-index"),
    pytest.param(lambda: uniform(EMPTY), SpaceMismatchError,
                 "no uniform measure on the empty space", id="uniform"),
    pytest.param(lambda: resample_within(identity(X2), [[0, 1]]), SpaceMismatchError,
                 "resample_within needs a measure", id="resample-not-a-measure"),
    pytest.param(lambda: resample_within(measure(X2, [INF, 0]), [[0, 1]]), ValueError,
                 "resample_within needs a finite measure", id="resample-infinite"),
    pytest.param(lambda: resample_within(measure(X2, [1, 0]), [[0]]), ValueError,
                 "blocks must partition the measure's points", id="resample-blocks"),
    pytest.param(lambda: lazy_involution(Involution.identity(X2), effect(X3, [0, 0, 0])),
                 SpaceMismatchError, "lazy_involution needs an effect on the involution's space",
                 id="lazy-involution"),
    pytest.param(lambda: from_effect_pairs(X2, [(1, 2)]), SpaceMismatchError,
                 "expected 2 rows for FinSpace(a b), got 1", id="effect-pairs-rows"),
    pytest.param(lambda: lazy_proposal(identity(X2), effect(X3, [0, 0, 0])),
                 SpaceMismatchError,
                 "lazy_proposal needs an endo-kernel on X and an effect on X (x) X",
                 id="lazy-proposal-spaces"),
    pytest.param(lambda: lazy_proposal(Kernel(X2, X2, [[1, 1], [0, 1]]),
                                       effect(product(X2, X2), [0] * 4)),
                 ValueError, "proposal rows must be normalized", id="lazy-proposal-rows"),
    pytest.param(lambda: lazy_proposal(Kernel(X2, X2, [[0, 1], [0, 1]]),
                                       effect(product(X2, X2), [0, 2, 0, 0])),
                 ValueError, "acceptance value exceeds 1", id="lazy-proposal-above-1"),
    pytest.param(lambda: lazy_proposal(Kernel(X2, X2, [[0, 1], [0, 1]]),
                                       effect(product(X2, X2), [0, INF, 0, 0])),
                 ValueError, "acceptance value exceeds 1", id="lazy-proposal-oo"),
    pytest.param(lambda: effect_mul(identity(X2), effect(X2, [1, 1])), SpaceMismatchError,
                 "effect_mul needs two effects", id="effect-mul-not-effects"),
    pytest.param(lambda: effect_mul(effect(X2, [1, 1]), effect(X3, [1, 1, 1])),
                 SpaceMismatchError, "effect_mul needs effects on the same space",
                 id="effect-mul-spaces"),
    pytest.param(lambda: Kernel(X2, X2, [[1, 0.5], [0, 1]]), TypeError,
                 "kernel entries must be ExtNonneg or int, got 0.5", id="entry-type"),
    pytest.param(lambda: deterministic(X2, X3, lambda x: "z"), KeyError,
                 repr("label 'z' is not a point of FinSpace(a b c)"), id="deterministic-label"),
])
def test_kernel_layer_refusals_keep_their_class_and_text(refuse, cls, text):
    with pytest.raises(cls) as info:
        refuse()
    assert type(info.value) is cls and str(info.value) == text
