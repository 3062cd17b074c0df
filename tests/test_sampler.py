import functools
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from finkern.semiring import ExtNonneg, INF
from finkern.spaces import FinSpace, product
from finkern.kernels import (
    Involution, Kernel, from_pair_rows, identity, measure, normalized_violation,
    pair_rows,
)
from finkern.generators import rand_mh_problem, rand_normalized_kernel
from finkern.mcmc import METROPOLIS, MhProblem, balancing_alpha, build_mh
from finkern import sampler
from finkern.sampler import (
    RNG_NAME, ChainRun, empirical, run_chain, to_float, tv_distance,
)
from strategies import gibbs_3x3x3, normalized_kernels


def q(num, den=1):
    return ExtNonneg(num, den)


X2 = FinSpace.atoms("a b")
X4 = FinSpace.atoms("a b c d")


def two_state_chain():
    mu = measure(X2, [q(1, 3), q(2, 3)])
    phi = Involution.from_mapping(X2, {"a": "b", "b": "a"})
    prob = MhProblem(target=mu, involution=phi,
                     acceptance=balancing_alpha(METROPOLIS, mu, phi))
    return build_mh(prob), mu


def test_to_float_identity():
    assert to_float(identity(X2)) == ((1.0, 0.0), (0.0, 1.0))


def test_to_float_rows_sum_to_one_exactly():
    k = Kernel(X2, X2, [[q(1, 3), q(2, 3)], [q(1, 7), q(6, 7)]])
    for row in to_float(k):
        assert math.fsum(row) == 1.0


def test_to_float_rejects_bad_input():
    with pytest.raises(ValueError):
        to_float(Kernel(X2, X2, [[q(1, 2), q(1, 3)], [1, 0]]))  # row sum != 1
    with pytest.raises(ValueError):
        to_float(Kernel(X2, X2, [[INF, 0], [0, 1]]))
    with pytest.raises(ValueError):
        to_float(Kernel(X2, X2, [[0, 0], [0, 1]]))  # zero row


def test_to_float_names_the_row_that_is_not_normalized():
    with pytest.raises(ValueError, match="not normalized at row b$"):
        to_float(Kernel(X2, X2, [[q(1, 2), q(1, 2)], [INF, 0]]))
    with pytest.raises(ValueError, match=r"not normalized at row \(a,b\)$"):
        to_float(Kernel(product(X2, X2), X2,
                        [[1, 0], [q(1, 2), q(1, 3)], [0, 1], [0, 1]]))


def _row_choices():
    half = ExtNonneg(1, 2)
    return st.sampled_from([[half, half], [1, 0], [0, 1], [INF, 0], [0, 0],
                            [half, 0], [1, 1], [half, INF]])


@given(st.lists(_row_choices(), min_size=1, max_size=6))
def test_to_float_checks_each_distinct_row_as_normalized_violation_does(rows):
    # few row choices, so rows repeat and share one pair map
    space = FinSpace(tuple(f"r{i}" for i in range(len(rows))))
    kernel = Kernel(space, X2, rows)
    bad = normalized_violation(kernel)
    if bad is None:
        assert len(to_float(kernel)) == len(rows)
    else:
        with pytest.raises(ValueError, match=f"not normalized at row {bad}$"):
            to_float(kernel)


def dense_to_float(kernel):
    """to_float's result by the dense algorithm: a float per entry, the
    residual absorbed by the first maximal entry of the full row."""
    rows = []
    for row in kernel.entries:
        floats = [v.to_float() for v in row]
        top = max(range(len(floats)), key=floats.__getitem__)
        for _ in range(10):
            gap = 1.0 - math.fsum(floats)
            if gap == 0.0:
                break
            floats[top] += gap
        rows.append(tuple(floats))
    return tuple(rows)


TINY = q(1, 2 ** 1100)  # rounds to 0.0: below the least double


@pytest.mark.parametrize("rows", [
    [[0, q(1, 3), q(1, 3), q(1, 3)], [q(1, 2), 0, 0, q(1, 2)],
     [0, 0, 0, 1], [q(1, 10), q(1, 10), q(1, 10), q(7, 10)]],
    [[TINY, q(2 ** 1100 - 1, 2 ** 1100), 0, 0], [0, 0, q(1, 3), q(2, 3)],
     [q(1, 7), q(2, 7), q(2, 7), q(2, 7)], [q(1, 4), 0, q(3, 8), q(3, 8)]],
], ids=["ties-and-thirds", "tiny-and-sevenths"])
def test_to_float_matches_the_dense_algorithm(rows):
    k = Kernel(X4, X4, rows)
    assert to_float(k) == dense_to_float(k)


@settings(max_examples=80)
@given(normalized_kernels(max_size=8))
def test_to_float_matches_the_dense_algorithm_randomized(kernel):
    assert to_float(kernel) == dense_to_float(kernel)


def test_to_float_of_a_sparse_wide_chain_matches_the_dense_algorithm():
    space = FinSpace(tuple(f"s{i}" for i in range(256)))
    phi = Involution(space, [i ^ 1 for i in range(256)])
    mu = measure(space, [q(i % 5 + 1, 768) for i in range(256)])
    chain = build_mh(MhProblem(target=mu, involution=phi,
                               acceptance=balancing_alpha(METROPOLIS, mu, phi)))
    assert to_float(chain) == dense_to_float(chain)


def test_to_float_converts_each_distinct_row_once():
    chain = gibbs_3x3x3()
    matrix = to_float(chain)
    maps = pair_rows(chain)
    assert len({id(row) for row in matrix}) == 9
    assert all((matrix[i] is matrix[j]) == (maps[i] is maps[j])
               for i in range(27) for j in range(27))
    assert matrix == dense_to_float(chain)


def test_run_chain_deterministic_in_seed():
    chain, _ = two_state_chain()
    matrix = to_float(chain)
    r1 = run_chain(matrix, 0, 123, 5000)
    r2 = run_chain(matrix, 0, 123, 5000)
    assert r1.trace == r2.trace
    r3 = run_chain(matrix, 0, 124, 5000)
    assert r3.trace != r1.trace
    assert r1.rng_name == RNG_NAME


def test_run_chain_trace_shape():
    chain, _ = two_state_chain()
    run = run_chain(to_float(chain), 1, 9, 100)
    assert len(run.trace) == 101
    assert run.trace[0] == 1
    assert all(0 <= s < 2 for s in run.trace)


def test_run_chain_never_refills_a_trace_still_referred_to():
    matrix = to_float(two_state_chain()[0])
    held_run = run_chain(matrix, 0, 1, 1000)
    held_list = run_chain(matrix, 0, 2, 1000).trace
    before = (list(held_run.trace), list(held_list))
    for seed in range(3, 6):
        run_chain(matrix, 1, seed, 1000)
    assert (list(held_run.trace), list(held_list)) == before


def test_identity_kernel_gives_constant_trace():
    run = run_chain(to_float(identity(X2)), 1, 77, 500)
    assert set(run.trace) == {1}
    assert empirical(run, 0) == (0.0, 1.0)


def test_run_chain_index_errors():
    chain, _ = two_state_chain()
    matrix = to_float(chain)
    with pytest.raises(IndexError):
        run_chain(matrix, 5, 0, 10)
    run = run_chain(matrix, 0, 0, 10)
    with pytest.raises(ValueError):
        empirical(run, 10)


def test_empirical_refuses_a_trace_that_is_not_length_plus_one_states():
    matrix = ((0.5, 0.5), (0.5, 0.5))
    for trace in ([0] * 5, [0] * 12, []):
        with pytest.raises(ValueError, match=r"not length \+ 1 = 11$"):
            empirical(ChainRun(matrix, 0, 0, 10, trace), 7)
    assert empirical(ChainRun(matrix, 0, 0, 10, [0, 1] * 5 + [1]), 7) == (0.25, 0.75)


def test_tv_distance_examples():
    assert tv_distance((0.5, 0.5), (0.5, 0.5)) == 0.0
    assert tv_distance((1.0, 0.0), (0.0, 1.0)) == 1.0
    with pytest.raises(ValueError):
        tv_distance((1.0,), (0.5, 0.5))


def test_tv_decreases_over_checkpoints_within_noise():
    chain, mu = two_state_chain()
    matrix = to_float(chain)
    target = [v.to_float() for v in mu.measure_values()]
    states = len(matrix)
    tvs = []
    for steps in (10**4, 10**5, 10**6):
        run = run_chain(matrix, 0, 20260808, steps)
        tvs.append(tv_distance(empirical(run, steps // 100), target))
    for prev_steps, prev_tv, next_tv in zip((10**4, 10**5), tvs, tvs[1:]):
        assert next_tv < prev_tv + 3 * math.sqrt(states / prev_steps)


# -- exact-zero transitions ---------------------------------------------------

LAST_BELOW_ONE = 1.0 - 2.0 ** -53  # the largest double below 1.0


class _FixedDraws:
    """Stands in for ``random.Random``: serves the given uniforms in turn.

    The sampler reads a uniform ``u`` as a cell ``getrandbits(g)`` and, when
    the cell needs one, a ``random()`` inside it: this serves ``u`` as
    ``floor(u * 2**g)``, then the remainder ``u * 2**g - floor(u * 2**g)``
    (both exact, for a float or a ``Fraction`` ``u``).
    """

    def __init__(self, draws):
        self._draws = iter(draws)
        self._remainder = None

    def __call__(self, seed):
        return self

    def getrandbits(self, bits):
        scaled = next(self._draws) * 2 ** bits
        cell = math.floor(scaled)
        self._remainder = float(scaled - cell)
        return cell

    def random(self):
        remainder, self._remainder = self._remainder, None
        return remainder


def _steps(monkeypatch, row, draws):
    """The states run_chain visits from state 0 of a chain whose rows are
    all ``row``, under fixed uniform draws."""
    monkeypatch.setattr(sampler.random, "Random", _FixedDraws(draws))
    space = FinSpace(tuple(f"x{i}" for i in range(len(row))))
    matrix = to_float(Kernel(space, space, [row] * len(space)))
    return run_chain(matrix, 0, 0, len(draws)).trace[1:]


@pytest.mark.parametrize("row", [
    # the float running sum stops two steps below 1.0, so the old 1.0 guard
    # on the last (zero) entry caught u = LAST_BELOW_ONE
    [q(2, 7), q(2, 7), q(1, 7), q(1, 7), q(1, 7), 0],
    # the running sum reaches LAST_BELOW_ONE itself: bisect_right needs the
    # 1.0 from the last positive entry on
    [q(1, 10)] * 10 + [0],
])
def test_trailing_zero_entry_is_never_taken(monkeypatch, row):
    trace = _steps(monkeypatch, row, [LAST_BELOW_ONE, 0.5, 0.0])
    assert all(row[state] != 0 for state in trace)
    assert trace[0] == len(row) - 2


def test_leading_zero_entry_is_never_taken(monkeypatch):
    row = [0, q(1, 2), 0, q(1, 2), 0]
    trace = _steps(monkeypatch, row, [0.0, 0.5, LAST_BELOW_ONE])
    assert list(trace) == [1, 3, 3]


# -- the guide-table step ------------------------------------------------------

IN_CELL = (0.0, 0.5, LAST_BELOW_ONE)  # v: the bottom, middle and top of a cell


def _rows_with_zeros():
    """Exact probability rows with leading, interior and trailing zeros."""
    rows = [
        [0, q(1, 2), 0, q(1, 2), 0],  # running sums on cell edges
        [q(2, 7), q(2, 7), q(1, 7), q(1, 7), q(1, 7), 0],
        [q(1, 10)] * 10 + [0],
        # four running sums in one cell of width 1/128 around 1/3
        [0, q(1, 3), q(1, 10**4), 0, q(1, 10**4), q(1, 10**4),
         q(19991, 30000), 0],
    ]
    rng = random.Random(2024)
    for _ in range(16):
        width = rng.randint(3, 12)
        weights = [0 if rng.random() < 0.3 else rng.randint(1, 50)
                   for _ in range(width)]
        weights[0] = weights[-1] = weights[width // 2] = 0
        weights[1] = weights[1] or 1
        total = sum(weights)
        rows.append([q(w, total) for w in weights])
    # a wide row with a long tail of zeros, a split cell among its sums
    rows.append([0, q(1, 3), q(1, 10**4), q(19997, 30000)] + [0] * 396)
    return rows


def _running_sums(floats):
    """The running sums of a float row, 1.0 from its last positive entry
    on, found by a scan from the right."""
    cum = list(itertools.accumulate(floats))
    last = len(floats) - 1
    while last > 0 and floats[last] <= 0.0:
        last -= 1
    cum[last:] = [1.0] * (len(floats) - last)
    return cum


@pytest.mark.parametrize("row", _rows_with_zeros())
def test_guide_table_is_exact_inverse_cdf(monkeypatch, row):
    space = FinSpace(tuple(f"x{i}" for i in range(len(row))))
    matrix = to_float(Kernel(space, space, [row] * len(space)))
    floats = matrix[0]
    bits, cells = sampler._guide_table(floats, [], [])
    m = 2 ** bits
    sums = [Fraction(b) for b in _running_sums(floats)]
    # every cell at the bottom, middle and top, and every running sum itself
    draws = [(c + Fraction(v)) / m for c in range(m) for v in IN_CELL]
    draws += [b for b in sums if b < 1]
    monkeypatch.setattr(sampler.random, "Random", _FixedDraws(draws))
    picks = run_chain(matrix, 0, 0, len(draws)).trace[1:]
    assert list(picks) == [sum(b <= u for b in sums) for u in draws]
    assert all(row[j] != 0 for j in picks)


def test_guide_table_splits_a_cell_at_every_sum_inside_it():
    row = _rows_with_zeros()[3]
    space = FinSpace(tuple(f"x{i}" for i in range(len(row))))
    floats = to_float(Kernel(space, space, [row] * len(space)))[0]
    offsets, picks = [], []
    bits, cells = sampler._guide_table(floats, offsets, picks)
    assert len(cells) == 2 ** bits == 128  # 16 cells per positive entry
    c = math.floor(128 / 3)
    assert offsets[~cells[c]:] == [floats[1] * 128 - c,
                                   (floats[1] + floats[2]) * 128 - c,
                                   (floats[1] + floats[2] + floats[4]) * 128 - c,
                                   (floats[1] + floats[2] + floats[4]
                                    + floats[5]) * 128 - c, 1.0]
    assert picks[~cells[c]:] == [1, 2, 4, 5, 6]
    assert [s for s in cells if s < 0] == [cells[c]]


def test_guide_table_rejects_a_row_without_mass():
    with pytest.raises(ValueError):
        run_chain(((0.0, 0.0), (0.0, 1.0)), 0, 0, 3)


@settings(max_examples=60)
@given(normalized_kernels(), st.integers(0, 2**32 - 1))
def test_no_step_follows_an_exact_zero_entry(kernel, seed):
    initial = seed % len(kernel.dom)
    trace = run_chain(to_float(kernel), initial, seed, 300).trace
    assert all(kernel.at(a, b).num != 0 for a, b in zip(trace, trace[1:]))


# -- guide tables for reachable rows only ---------------------------------------

BLOCKS = Kernel(X4, X4, [[q(1, 3), q(2, 3), 0, 0], [q(1, 2), q(1, 2), 0, 0],
                         [0, 0, q(1, 5), q(4, 5)], [0, q(1, 7), 0, q(6, 7)]])


def _traces():
    """Seeded traces of five chains, 30 steps each. The first four literals
    are the traces of the version that built a guide table for every row,
    the Gibbs one that of the version that built one per row, equal rows
    included."""
    rng = random.Random(9)
    problem = rand_mh_problem(rng, 16, 16, mode="balanced")
    space = FinSpace(tuple(f"x{i}" for i in range(16)))
    sparse = rand_normalized_kernel(random.Random(5), space, space, zero_weight=0.6)
    return [
        (build_mh(problem), 0, 11,
         [0, 5, 5, 0, 5, 5, 5, 0, 5, 0, 5, 0, 5, 0, 5, 5, 5, 5, 0, 5, 0, 5,
          0, 5, 0, 5, 5, 5, 5, 0, 5]),
        (sparse, 3, 12,
         [3, 8, 6, 7, 4, 1, 7, 1, 15, 10, 8, 6, 7, 12, 7, 10, 10, 8, 4, 8, 1,
          11, 5, 1, 15, 10, 8, 4, 6, 13, 1]),
        (BLOCKS, 0, 13,
         [0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 0, 1,
          1, 0, 1, 0, 0, 1, 0, 1, 1]),
        (BLOCKS, 2, 14,
         [2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 1, 1, 0, 0, 1, 1, 1, 0,
          1, 1, 1, 0, 0, 0, 1, 1, 0]),
        (gibbs_3x3x3(), 7, 15,
         [7, 26, 11, 0, 4, 15, 1, 24, 12, 23, 21, 17, 10, 17, 20, 26, 14, 5,
          3, 5, 12, 19, 10, 7, 7, 4, 26, 24, 12, 23, 10]),
    ]


@pytest.mark.parametrize("kernel, initial, seed, expected", _traces(),
                         ids=["involutive", "sparse", "closed-block", "leaky-block",
                              "gibbs"])
def test_seeded_traces_are_those_of_tables_for_every_row(kernel, initial, seed, expected):
    assert list(run_chain(to_float(kernel), initial, seed, 30).trace) == expected


_GUIDE_TABLE = sampler._guide_table


def _tables_built(monkeypatch, matrix, initial):
    built = []

    def counting(row, offsets, picks):
        built.append(matrix.index(row))
        return _GUIDE_TABLE(row, offsets, picks)
    monkeypatch.setattr(sampler, "_guide_table", counting)
    run_chain(matrix, initial, 0, 5)
    return sorted(built)


def test_tables_are_built_for_the_reachable_rows_only(monkeypatch):
    assert _tables_built(monkeypatch, to_float(BLOCKS), 0) == [0, 1]
    assert _tables_built(monkeypatch, to_float(BLOCKS), 3) == [0, 1, 3]
    chain = _traces()[0][0]
    assert len(_tables_built(monkeypatch, to_float(chain), 0)) == 2


def test_equal_rows_share_one_table(monkeypatch):
    matrix = to_float(gibbs_3x3x3())
    firsts = sorted({matrix.index(row) for row in matrix})
    assert len(firsts) == 9
    assert _tables_built(monkeypatch, matrix, 7) == firsts
    # equal rows that are separate tuples share a table all the same, and
    # the draws are those of the shared rows
    apart = tuple([tuple(list(row)) for row in matrix])
    assert len({id(row) for row in apart}) == 27
    assert _tables_built(monkeypatch, apart, 7) == firsts
    assert run_chain(apart, 7, 16, 3000).trace == run_chain(matrix, 7, 16, 3000).trace


def test_an_unreachable_row_without_mass_is_never_read():
    assert list(run_chain(((1.0, 0.0), (0.0, 0.0)), 0, 0, 3).trace) == [0, 0, 0, 0]


# -- rows run_chain refuses ------------------------------------------------------


def _refused(matrix, match, initial=0):
    """run_chain refuses ``matrix`` with a ValueError matching ``match``,
    before it makes a generator."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(sampler.random, "Random", None)  # no draw is made
        with pytest.raises(ValueError, match=match):
            run_chain(matrix, initial, 0, 10)


def test_run_chain_refuses_a_row_shorter_than_the_matrix():
    _refused(((0.5, 0.5), (1.0,)), r"^row of state 1 has 1 entries, not 2$")


def test_run_chain_refuses_a_row_naming_a_state_outside_the_matrix():
    _refused(((0.5, 0.25, 0.25), (0.5, 0.5)), r"^row of state 0 has 3 entries, not 2$")


def test_run_chain_refuses_a_negative_entry():
    matrix = ((0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (0.5, -0.5, 1.0))
    _refused(matrix, r"^row of state 2 has entry -0\.5 at column 1$")


def test_run_chain_refuses_a_nan_entry():
    _refused(((0.5, math.nan), (0.5, 0.5)), r"^row of state 0 has entry nan at column 1$")


def test_run_chain_refuses_an_infinite_entry():
    _refused(((0.5, 0.5), (math.inf, 0.0)), r"^row of state 1 has entry inf at column 0$")


def test_run_chain_refuses_a_row_that_does_not_sum_to_one():
    _refused(((0.9, 0.9), (0.5, 0.5)), r"^row of state 0 sums to 1\.8, not 1\.0$")
    # the bound is one unit of 2**-53 per entry: here 2**-52
    assert len(run_chain(((0.5, 0.5 - 2**-52), (0.5, 0.5)), 0, 0, 10).trace) == 11
    _refused(((0.5, 0.5 - 2**-51), (0.5, 0.5)), r"^row of state 0 sums to 0\.99")


_ROW_FAULT = sampler._row_fault


def test_run_chain_checks_each_distinct_reachable_row_once(monkeypatch):
    checked = []

    def fault(row, n):
        checked.append(row)
        return _ROW_FAULT(row, n)
    monkeypatch.setattr(sampler, "_row_fault", fault)
    matrix = to_float(gibbs_3x3x3())
    run_chain(matrix, 7, 0, 1000)
    assert sorted(checked) == sorted(set(matrix)) and len(checked) == 9
    # a bad row the chain cannot reach is never read
    checked.clear()
    assert list(run_chain(((1.0, 0.0), (0.9, math.nan)), 0, 0, 3).trace) == [0, 0, 0, 0]
    assert checked == [(1.0, 0.0)]


@settings(max_examples=80)
@given(normalized_kernels(max_size=8), st.data())
def test_run_chain_accepts_every_normalized_kernel_as_floats(kernel, data):
    matrix = to_float(kernel)
    initial = data.draw(st.integers(0, len(matrix) - 1))
    assert len(run_chain(matrix, initial, 0, 5).trace) == 6


# -- one table width per run ---------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2026, 2**32 - 1, 10**30])
def test_getrandbits_takes_the_top_bits_of_one_32_bit_word(seed):
    # the widened step reads getrandbits(W) where the per-row step read
    # getrandbits(g) for g <= W <= 32: the same cell at every width
    for k in range(1, 33):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(4):
            assert rng.getrandbits(k) == ref.getrandbits(32) >> (32 - k)


def _per_row_trace(matrix, initial, seed, length):
    """The trace by the loop that reads each row's guide table at its own
    width, with a table for every row."""
    offsets, picks = [], []
    tables = [sampler._guide_table(row, offsets, picks) for row in matrix]
    rng = random.Random(seed)
    state = initial
    trace = [state]
    for _ in range(length):
        bits, cells = tables[state]
        state = cells[rng.getrandbits(bits)]
        if state < 0:
            i = ~state
            v = rng.random()
            while offsets[i] <= v:
                i += 1
            state = picks[i]
        trace.append(state)
    return trace


_WIDENED = sampler._widened


def _run_noting_width(monkeypatch, matrix, initial, seed, length):
    """run_chain's trace, and the wide tables it stepped with (None for
    the per-row loop); checks the 2x bound on the cells they hold."""
    seen = []

    def noting(tables, built):
        widened = _WIDENED(tables, built)
        if widened is not None:
            narrow = sum(len(cells) for _, cells in built.values())
            wide = {id(cells): len(cells) for cells in widened[1] if cells is not None}
            assert sum(wide.values()) <= 2 * narrow
        seen.append(widened)
        return widened
    monkeypatch.setattr(sampler, "_widened", noting)
    trace = run_chain(matrix, initial, seed, length).trace
    return trace, seen[0]


@settings(max_examples=80)
@given(normalized_kernels(max_size=10), st.integers(0, 2**32 - 1))
def test_both_loops_step_as_the_per_row_oracle(kernel, seed):
    # rows of 1 to 10 positive entries: tables 4 to 8 bits wide, most
    # with split cells; each run steps once as run_chain chooses and once
    # with the per-row loop forced
    matrix = to_float(kernel)
    initial = seed % len(matrix)
    expected = _per_row_trace(matrix, initial, seed, 200)
    with pytest.MonkeyPatch.context() as monkeypatch:
        trace, widened = _run_noting_width(monkeypatch, matrix, initial, seed, 200)
        hypothesis.event("widened" if widened else "per-row")
        assert list(trace) == expected
        monkeypatch.setattr(sampler, "_widened", lambda tables, built: None)
        assert list(run_chain(matrix, initial, seed, 200).trace) == expected


def _mixed_widths():
    """Rows of 1, 2, 5 and 6 positive entries, all reachable from x1:
    tables of 4, 5 and 7 bits, 560 cells, 768 at one width."""
    weights = [[0, 1, 0, 0, 0, 0], [3, 0, 0, 5, 0, 0], [1, 1, 2, 0, 3, 5],
               [7, 1, 2, 3, 3, 5], [1, 1, 2, 4, 3, 5], [1, 1, 1, 1, 1, 1]]
    space = FinSpace(tuple(f"x{i}" for i in range(6)))
    return Kernel(space, space, [[q(w, sum(row)) for w in row] for row in weights])


def _hub(n):
    """State 0 moves anywhere; every other state returns to 0 or stays."""
    space = FinSpace(tuple(f"h{i}" for i in range(n)))
    rows = [{j: (1, n) for j in range(n)}]
    rows += [{0: (1, 2), i: (1, 2)} for i in range(1, n)]
    return from_pair_rows(space, space, rows)


def test_mixed_widths_step_with_one_width(monkeypatch):
    matrix = to_float(_mixed_widths())
    for seed in range(5):
        trace, widened = _run_noting_width(monkeypatch, matrix, 1, seed, 3000)
        assert widened[0] == 7
        assert list(trace) == _per_row_trace(matrix, 1, seed, 3000)


def test_a_hub_chain_keeps_the_per_row_loop_in_bounded_memory(monkeypatch):
    # one table of 2**13 cells among 299 of 2**5: one width would need
    # 300 * 2**13 cells, 2.4 million, against 17 760
    matrix = to_float(_hub(300))
    trace, widened = _run_noting_width(monkeypatch, matrix, 0, 7, 3000)
    assert widened is None
    assert trace == _per_row_trace(matrix, 0, 7, 3000)
    tracemalloc.start()
    try:
        run_chain(matrix, 0, 7, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


# -- counting visits -------------------------------------------------------------

K = sampler._BYTE_COUNT_STATES


def _loop_frequencies(run, burn_in):
    """empirical's frequencies by the loop over the trace, as it counted
    every chain before the byte count."""
    if not 0 <= burn_in < run.length:
        raise ValueError("burn_in must satisfy 0 <= burn_in < length")
    counts = [0] * len(run.kernel)
    for state in itertools.islice(run.trace, burn_in, None):
        counts[state] += 1
    total = len(run.trace) - burn_in
    return tuple(c / total for c in counts)


def _outcome(count, run, burn_in):
    try:
        return count(run, burn_in)
    except Exception as exc:  # the oracle's exception is the expected outcome
        return type(exc), str(exc)


@functools.cache
def _class_chain(n, reach):
    """A float chain on ``n`` states whose first ``reach`` form a closed
    class that state 0 reaches in full: state ``i`` of the class stays or
    moves to ``i + 1`` (mod ``reach``), and every other state stays or
    moves to 0."""
    rows = []
    for i in range(n):
        row = [0.0] * n
        row[i] += 0.5
        row[(i + 1) % reach if i < reach else 0] += 0.5
        rows.append(tuple(row))
    return tuple(rows)


@st.composite
def _runs(draw):
    """A run of a chain on both sides of both selection bounds (at most
    256 states, at most K of them reachable), often a hand-built one
    whose trace leaves the reachable set, with a burn-in. A state that is
    no byte turns a byte trace into a list."""
    n = draw(st.sampled_from([K - 1, K, K + 1, 255, 256, 257]))
    reach = draw(st.sampled_from([r for r in (1, 2, K - 1, K, K + 1) if r <= n]))
    matrix = _class_chain(n, reach)
    length = draw(st.integers(0, 120))
    initial = draw(st.one_of(st.integers(0, reach - 1), st.integers(0, n - 1),
                             st.sampled_from([-1, n])))
    outside = st.one_of(st.integers(-2, n + 2), st.sampled_from([255, 256, 0.5]))
    if 0 <= initial < n:
        seed = draw(st.integers(0, 2**32 - 1))
        trace = run_chain(matrix, initial, seed, length).trace
    else:
        trace = draw(st.lists(st.integers(0, reach - 1), min_size=length + 1,
                              max_size=length + 1))
    for _ in range(draw(st.integers(0, 2))):
        state = draw(outside)
        if not _is_byte(state):
            trace = list(trace)
        trace[draw(st.integers(0, length))] = state
    burn_in = draw(st.one_of(st.just(0), st.just(length - 1),
                             st.integers(-1, length + 1)))
    return ChainRun(matrix, initial, 0, length, trace), burn_in


def _is_byte(state):
    return isinstance(state, int) and 0 <= state < 256


@settings(max_examples=300)
@given(_runs())
def test_empirical_counts_as_the_loop_does(case):
    run, burn_in = case
    got = _outcome(empirical, run, burn_in)
    if isinstance(got, tuple):
        total = len(run.trace) - burn_in
        counts = sampler._byte_counts(run, burn_in, total)
        hypothesis.event("loop" if counts is None else "byte count")
    assert got == _outcome(_loop_frequencies, run, burn_in)


@pytest.mark.parametrize("initial", [0, 1, 4, -1])
@pytest.mark.parametrize("bad", [2, 3, 4, 255, 256, -1, -300, 0.5, True])
def test_a_trace_that_leaves_the_reachable_set_is_counted_as_the_loop_counts(
        initial, bad):
    # states 0 and 1 are a closed class; state 3 is also state -1 to the loop
    matrix = _class_chain(4, 2)
    trace = run_chain(matrix, 0, 8, 20).trace
    if not _is_byte(bad):  # a byte trace cannot hold it
        trace = list(trace)
    trace[5] = bad
    run = ChainRun(matrix, initial, 0, 20, trace)
    for burn_in in (0, 5, 6):
        expected = _outcome(_loop_frequencies, run, burn_in)
        assert _outcome(empirical, run, burn_in) == expected


def _check_byte_count(n, reach, byte_count):
    run = run_chain(_class_chain(n, reach), 0, 3, 500)
    counts = sampler._byte_counts(run, 10, 491)
    assert (counts is not None) == byte_count
    if byte_count:
        assert tuple(c / 491 for c in counts) == _loop_frequencies(run, 10)


@pytest.mark.parametrize("n, reach, byte_count", [
    (2, 2, True), (255, 24, True), (256, 24, True), (256, 1, True),
    (256, 25, False), (25, 25, False), (257, 1, False), (257, 24, False),
])
def test_the_byte_count_serves_chains_reaching_few_of_at_most_256_states(
        monkeypatch, n, reach, byte_count):
    # the gate reads its reach limit at each call; hold it at 24 here
    monkeypatch.setattr(sampler, "_BYTE_COUNT_STATES", 24)
    _check_byte_count(n, reach, byte_count)


@pytest.mark.parametrize("n, reach, byte_count", [
    (255, 16, True), (256, 16, True), (256, 17, False), (17, 17, False),
    (257, 16, False),
])
def test_the_byte_count_stops_at_its_reach_limit(monkeypatch, n, reach, byte_count):
    # the same boundary one limit lower: hold the reach limit at 16 here
    monkeypatch.setattr(sampler, "_BYTE_COUNT_STATES", 16)
    _check_byte_count(n, reach, byte_count)


@pytest.mark.parametrize("n, reach, byte_count", [
    (255, K, True), (256, K, True), (256, K + 1, False), (K + 1, K + 1, False),
    (257, K, False),
], ids=["255-K-True", "256-K-True", "256-K+1-False", "K+1-K+1-False",
        "257-K-False"])
def test_the_byte_count_stops_at_the_shipped_reach_limit(n, reach, byte_count):
    # ids name the limit K, not its value, so a retuned limit keeps them
    _check_byte_count(n, reach, byte_count)


def test_the_byte_count_copies_one_chunk_at_a_time():
    # 300 001 states: the byte count copies none of them, where a list
    # slice of the whole trace would hold 2.4 MB
    run = run_chain(to_float(two_state_chain()[0]), 0, 5, 300_000)
    assert sampler._byte_counts(run, 17, 300_001 - 17) is not None
    tracemalloc.start()
    try:
        frequencies = empirical(run, 17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frequencies == _loop_frequencies(run, 17)
    assert peak < 2**20


# -- one byte per step -----------------------------------------------------------

P = sampler._PACK_STEPS


@pytest.mark.parametrize("length", [0, 1, P - 1, P, P + 1, 2 * P + 3])
def test_both_loops_pack_each_chunk_of_steps_as_the_oracle_steps(monkeypatch, length):
    # a byte trace of 6 states, and a list trace of 300 states, which the
    # same chunk loop appends to in place
    for matrix, kind in ((to_float(_mixed_widths()), bytearray),
                         (_class_chain(300, 300), list)):
        expected = _per_row_trace(matrix, 1, 11, length)
        trace, widened = _run_noting_width(monkeypatch, matrix, 1, 11, length)
        assert widened is not None
        assert type(trace) is kind and list(trace) == expected
        monkeypatch.setattr(sampler, "_widened", lambda tables, built: None)
        trace = run_chain(matrix, 1, 11, length).trace
        assert type(trace) is kind and list(trace) == expected


@pytest.mark.parametrize("n, kind", [(256, bytearray), (257, list)])
def test_a_trace_is_a_bytearray_up_to_256_states(n, kind):
    # from state n - 1, which leaves for the class {0, 1, 2}: 4 states
    # reachable, so the byte count serves the 256-state chain
    run = run_chain(_class_chain(n, 3), n - 1, 4, 5000)
    assert type(run.trace) is kind
    assert run.trace[0] == n - 1 and set(run.trace) == {n - 1, 0, 1, 2}
    assert empirical(run, 2) == _loop_frequencies(run, 2)


def test_a_byte_trace_holds_about_one_byte_per_step():
    run = run_chain(to_float(two_state_chain()[0]), 0, 9, 10**5)
    assert sys.getsizeof(run.trace) < 2 * (10**5 + 1) + 4096



def test_run_chain_refuses_a_negative_length():
    with pytest.raises(ValueError) as info:
        run_chain(to_float(identity(X2)), 0, 1, -1)
    assert type(info.value) is ValueError and str(info.value) == "length must be nonnegative"
