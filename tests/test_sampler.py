import math

import pytest

from finkern.semiring import ExtNonneg, INF
from finkern.spaces import FinSpace
from finkern.kernels import Involution, Kernel, identity, measure
from finkern.mcmc import METROPOLIS, MhProblem, balancing_alpha, build_mh
from finkern import sampler
from finkern.sampler import (
    RNG_NAME, empirical, run_chain, to_float, tv_distance,
)


def q(num, den=1):
    return ExtNonneg(num, den)


X2 = FinSpace.atoms("a b")


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
    """Stands in for ``random.Random``: returns the given draws in turn."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def __call__(self, seed):
        return self

    def random(self):
        return next(self._draws)


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
    assert trace == [1, 3, 3]
