"""Seeded random instances for theorem batches and tests.

Measures and kernels get rational entries with bounded denominators and
controllable support sparsity; every generator takes an explicit
``random.Random`` so batches are reproducible from a recorded seed.
"""

from __future__ import annotations

import random

from .semiring import ExtNonneg, INF, ZERO
from .spaces import FinSpace
from .kernels import Involution, Kernel, effect, measure
from .mcmc import (
    BALANCING_FUNCTIONS, MhProblem, balancing_alpha,
)

DEFAULT_MAX_DEN = 64


def rand_value(rng: random.Random, max_den: int = DEFAULT_MAX_DEN,
               zero_weight: float = 0.0, inf_weight: float = 0.0) -> ExtNonneg:
    """A random value in [0, oo] with denominator at most ``max_den``."""
    u = rng.random()
    if u < zero_weight:
        return ZERO
    if u < zero_weight + inf_weight:
        return INF
    den = rng.randint(1, max_den)
    return ExtNonneg(rng.randint(1, 4 * den), den)


def rand_space(rng: random.Random, min_size: int = 2, max_size: int = 6,
               prefix: str = "x") -> FinSpace:
    n = rng.randint(min_size, max_size)
    return FinSpace(tuple(f"{prefix}{i}" for i in range(n)))


def rand_kernel(rng: random.Random, dom: FinSpace, cod: FinSpace,
                max_den: int = DEFAULT_MAX_DEN, zero_weight: float = 0.2,
                inf_weight: float = 0.0) -> Kernel:
    return Kernel(dom, cod,
                  [[rand_value(rng, max_den, zero_weight, inf_weight)
                    for _ in cod.labels] for _ in dom.labels])


def rand_measure(rng: random.Random, space: FinSpace,
                 max_den: int = DEFAULT_MAX_DEN,
                 zero_weight: float = 0.0, inf_weight: float = 0.0) -> Kernel:
    return measure(space, [rand_value(rng, max_den, zero_weight, inf_weight)
                           for _ in space.labels])


def _rand_distribution(rng: random.Random, n: int,
                       zero_weight: float) -> list[ExtNonneg]:
    """Weights 0 (with chance ``zero_weight``) or 1..24, never all 0, over their sum."""
    weights = [0 if rng.random() < zero_weight else rng.randint(1, 24)
               for _ in range(n)]
    if not any(weights):
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return [ExtNonneg(w, total) if w else ZERO for w in weights]


def rand_probability_measure(rng: random.Random, space: FinSpace,
                             zero_weight: float = 0.0) -> Kernel:
    """A normalized measure with exact rational masses."""
    return measure(space, _rand_distribution(rng, len(space), zero_weight))


def rand_normalized_kernel(rng: random.Random, dom: FinSpace, cod: FinSpace,
                           zero_weight: float = 0.0) -> Kernel:
    return Kernel(dom, cod, [_rand_distribution(rng, len(cod), zero_weight)
                             for _ in dom.labels])


def rand_involution(rng: random.Random, space: FinSpace) -> Involution:
    """A uniform-ish random involution: shuffle, then pair adjacent points."""
    indices = list(range(len(space)))
    rng.shuffle(indices)
    perm = list(range(len(space)))
    while len(indices) >= 2:
        if rng.random() < 0.3:  # leave a fixed point now and then
            indices.pop()
            continue
        a = indices.pop()
        b = indices.pop()
        perm[a], perm[b] = b, a
    return Involution(space, tuple(perm))


def rand_probability_effect(rng: random.Random, space: FinSpace,
                            max_den: int = DEFAULT_MAX_DEN) -> Kernel:
    values = []
    for _ in space.labels:
        den = rng.randint(1, max_den)
        values.append(ExtNonneg(rng.randint(0, den), den))
    return effect(space, values)


def rand_mh_problem(rng: random.Random, min_size: int = 2, max_size: int = 6,
                    mode: str = "mixed", support: str = "orbits") -> MhProblem:
    """A random target/involution/acceptance triple ready for verification.

    With ``support="orbits"`` the target's support is a union of involution
    orbits, so the pushforward target is dominated by the target and the
    balancing density exists; with ``support="any"`` each point is charged
    or not on its own, so phi may move a charged point onto a null one.
    ``mode`` selects the acceptance: ``"balanced"`` derives it from a random
    balancing function, ``"adversarial"`` draws it at random (almost always
    violating balancing), ``"mixed"`` flips a coin.
    """
    space = rand_space(rng, min_size, max_size)
    phi = rand_involution(rng, space)
    n = len(space)
    charged = [False] * n
    if support == "orbits":
        for i in range(n):
            if rng.random() < 0.7:
                charged[i] = charged[phi.perm[i]] = True
        if not any(charged):
            i = rng.randrange(n)
            charged[i] = charged[phi.perm[i]] = True
    elif support == "any":
        charged = [rng.random() < 0.6 for _ in range(n)]
        if not any(charged):
            charged[rng.randrange(n)] = True
    else:
        raise ValueError(f"unknown support {support!r}")
    masses = [rand_value(rng) if s else ZERO for s in charged]
    target = measure(space, masses)

    if mode == "mixed":
        mode = "balanced" if rng.random() < 0.5 else "adversarial"
    if mode == "balanced":
        fn = rng.choice(list(BALANCING_FUNCTIONS.values()))
        accept = balancing_alpha(fn, target, phi)
    elif mode == "adversarial":
        accept = rand_probability_effect(rng, space)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return MhProblem(target=target, involution=phi, acceptance=accept)


def rand_reversible_kernel(rng: random.Random, target: Kernel,
                           max_den: int = 16) -> Kernel:
    """A kernel in exact detailed balance with a positive target.

    Built from a random symmetric mass matrix divided by the target, so the
    result is generally unnormalized.
    """
    space = target.cod
    masses = target.measure_values()
    if any(m.num == 0 or not m.is_finite for m in masses):
        raise ValueError("target must be positive and finite")
    n = len(space)
    sym = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rand_value(rng, max_den, zero_weight=0.2)
            sym[i][j] = sym[j][i] = v
    rows = [[v / masses[i] if v.num else ZERO for v in sym[i]] for i in range(n)]
    return Kernel(space, space, rows)

