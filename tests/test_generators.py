"""Seeded generators: the same seed gives the same instance."""

import random

import pytest

from finkern.semiring import ExtNonneg, ZERO
from finkern.spaces import FinSpace
from finkern.kernels import Kernel, measure
from finkern.generators import (
    rand_mh_problem, rand_normalized_kernel, rand_probability_measure,
    rand_reversible_kernel, rand_value,
)


# The generators as they were when every zero entry was built as a value
# of its own: the reference for the draws and the kernels they give.

def _old_probability_measure(rng, space, zero_weight=0.0):
    weights = [0 if rng.random() < zero_weight else rng.randint(1, 24)
               for _ in space.labels]
    if not any(weights):
        weights[rng.randrange(len(weights))] = 1
    total = sum(weights)
    return measure(space, [ExtNonneg(w, total) for w in weights])


def _old_normalized_kernel(rng, dom, cod, zero_weight=0.0):
    rows = []
    for _ in dom.labels:
        weights = [0 if rng.random() < zero_weight else rng.randint(1, 24)
                   for _ in cod.labels]
        if not any(weights):
            weights[rng.randrange(len(weights))] = 1
        total = sum(weights)
        rows.append([ExtNonneg(w, total) for w in weights])
    return Kernel(dom, cod, rows)


def _old_reversible_kernel(rng, target, max_den=16):
    masses = target.measure_values()
    n = len(target.cod)
    sym = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rand_value(rng, max_den, zero_weight=0.2)
            sym[i][j] = sym[j][i] = v
    rows = [[sym[i][j] / masses[i] for j in range(n)] for i in range(n)]
    return Kernel(target.cod, target.cod, rows)


def _space(n):
    return FinSpace(tuple(f"x{i}" for i in range(n)))


@pytest.mark.parametrize("seed", range(20))
def test_seeded_instances_are_unchanged(seed):
    space = _space(seed % 7 + 1)
    zero_weight = (seed % 4) / 4
    old, new = random.Random(seed), random.Random(seed)
    assert (rand_probability_measure(new, space, zero_weight)
            == _old_probability_measure(old, space, zero_weight))
    assert (rand_normalized_kernel(new, space, space, zero_weight)
            == _old_normalized_kernel(old, space, space, zero_weight))
    target = rand_probability_measure(new, space)
    assert target == _old_probability_measure(old, space)
    assert (rand_reversible_kernel(new, target)
            == _old_reversible_kernel(old, target))
    assert new.getstate() == old.getstate()


def test_seeded_distributions_are_pinned():
    # literals drawn with seed 11; the last measure has every weight zeroed,
    # so its one point comes from the fallback draw
    rng = random.Random(11)
    points = FinSpace.atoms("a b c d")
    m = rand_probability_measure(rng, points, zero_weight=0.3)
    k = rand_normalized_kernel(rng, FinSpace.atoms("u v w"), points, zero_weight=0.5)
    fallback = rand_probability_measure(rng, points, zero_weight=1.0)
    assert [str(v) for v in m.measure_values()] == ["9/26", "15/52", "19/52", "0"]
    assert [[str(v) for v in row] for row in k.entries] == [
        ["8/11", "3/11", "0", "0"],
        ["0", "23/58", "10/29", "15/58"],
        ["10/21", "10/21", "0", "1/21"]]
    assert [str(v) for v in fallback.measure_values()] == ["0", "0", "1", "0"]
    assert rng.random() == 0.4405311166566568



@pytest.mark.parametrize("refuse, text", [
    pytest.param(lambda: rand_mh_problem(random.Random(1), support="none"),
                 "unknown support 'none'", id="support"),
    pytest.param(lambda: rand_mh_problem(random.Random(1), mode="none"),
                 "unknown mode 'none'", id="mode"),
    pytest.param(lambda: rand_reversible_kernel(random.Random(1),
                                                measure(FinSpace.atoms("a b"), [1, 0])),
                 "target must be positive and finite", id="reversible-target"),
])
def test_generator_refusals_keep_their_class_and_text(refuse, text):
    with pytest.raises(ValueError) as info:
        refuse()
    assert type(info.value) is ValueError and str(info.value) == text
