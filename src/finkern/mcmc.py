"""Markov chain constructions and exact correctness checkers.

Builds involutive Metropolis-Hastings kernels (accept to the involution's
image, otherwise stay), checks invariance, detailed balance, the skew
variant, and the balancing condition that characterizes reversibility, and
recovers the classical Metropolis-Hastings chain, the exchange algorithm for
doubly-intractable targets, and the systematic-scan Gibbs sampler. Every
check is an exact decidable equality.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from .semiring import (
    ExtNonneg, ONE, ZERO, ZERO_PAIR, ext_sum, pair_products_equal,
    residual,
)
from .spaces import FinSpace, Label, UNIT, product, product_many
from .kernels import (
    Involution, Kernel, SpaceMismatchError, compose, delete, effect,
    from_maps, graph, identity, is_normalized, lazy_involution,
    lift_involution, pushforward, resample_within, reweight, right_unitor,
    effect_pairs, pair_rows, substochastic_violation, swap, tensor,
)
from .enrichment import (
    NotCancellative, _density_values, is_cancellative, lebesgue_decompose,
)
from ._record import FrozenRecord


class InfiniteMassError(ValueError):
    """An exact ratio was requested over an infinite mass."""


# ---------------------------------------------------------------------------
# balancing functions


class BalancingFunction(NamedTuple):
    """A named map [0, oo] -> [0, 1] with a(0) = 0 and a(t) = t * a(1/t)."""

    name: str
    fn: Callable[[ExtNonneg], ExtNonneg]

    def __call__(self, ratio: ExtNonneg) -> ExtNonneg:
        return self.fn(ratio)


def _metropolis(ratio: ExtNonneg) -> ExtNonneg:
    # min(1, t): t >= 1 exactly when num >= den, which holds for oo = 1/0,
    # so the limit convention a(oo) = 1 needs no branch of its own.
    return ONE if ratio.num >= ratio.den else ratio


def _barker(ratio: ExtNonneg) -> ExtNonneg:
    # t / (1 + t); the limit convention gives a(oo) = 1.
    if not ratio.is_finite:
        return ONE
    return ExtNonneg(ratio.num, ratio.num + ratio.den)


METROPOLIS = BalancingFunction("metropolis", _metropolis)
BARKER = BalancingFunction("barker", _barker)

BALANCING_FUNCTIONS = {f.name: f for f in (METROPOLIS, BARKER)}


# ---------------------------------------------------------------------------
# problem container


class MhProblem(FrozenRecord):
    """A target measure, an involution on its space, and an acceptance effect.

    The target must have finite atoms and the acceptance must be a
    probability (all values at most 1).
    """

    __slots__ = ("target", "involution", "acceptance")

    def __init__(self, target: Kernel, involution: Involution, acceptance: Kernel):
        if not target.is_measure:
            raise SpaceMismatchError("target must be a measure")
        if target.cod != involution.space:
            raise SpaceMismatchError("involution lives on a different space")
        if not acceptance.is_effect or acceptance.dom != target.cod:
            raise SpaceMismatchError("acceptance must be an effect on the target space")
        if not is_cancellative(target):
            raise NotCancellative("target must have finite atoms")
        bad = substochastic_violation(acceptance)
        if bad is not None:
            value = acceptance.at(acceptance.dom.index(bad), 0)
            raise ValueError(f"acceptance value {value} exceeds 1")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "involution", involution)
        object.__setattr__(self, "acceptance", acceptance)

    @property
    def space(self) -> FinSpace:
        return self.target.cod


class TheoremFlags(NamedTuple):
    reversible: bool
    balanced: bool


# ---------------------------------------------------------------------------
# invariance and reversibility
#
# The balance checks in this module read entries through ``pair_rows`` and
# ``effect_pairs`` and compare them as integer pairs by cross-multiplication,
# building no ``ExtNonneg``; the invariance check compares kernels with ``==``
# and reads values only to name the witness of a failure.


def invariant_violation(target: Kernel, chain: Kernel) -> Label | None:
    """The first point where chain ∘ target and target differ."""
    _check_endo(target, chain)
    after = compose(chain, target)
    if after == target:
        return None
    moved = next(j for j, (a, b) in enumerate(zip(target.measure_values(),
                                                  after.measure_values()))
                 if a != b)
    return target.cod.labels[moved]


def is_invariant(target: Kernel, chain: Kernel) -> bool:
    """Whether the chain preserves the target: chain ∘ target == target."""
    return invariant_violation(target, chain) is None


def detailed_balance_violation(target: Kernel, chain: Kernel) -> tuple[Label, Label] | None:
    """The first (x, y) with target[x]*chain[x][y] != target[y]*chain[y][x].

    Pairs are taken in index order with x before y. Only pairs where the
    chain moves in at least one direction can fail.
    """
    _check_endo(target, chain)
    (masses,) = pair_rows(target)
    rows = pair_rows(chain)
    pairs = sorted({(i, j) if i < j else (j, i)
                    for i, row in enumerate(rows) for j in row if i != j})
    for i, j in pairs:
        if not pair_products_equal(masses.get(i, ZERO_PAIR), rows[i].get(j, ZERO_PAIR),
                                   masses.get(j, ZERO_PAIR), rows[j].get(i, ZERO_PAIR)):
            labels = target.cod.labels
            return labels[i], labels[j]
    return None


def is_reversible(target: Kernel, chain: Kernel) -> bool:
    """Exact detailed balance of the chain against the target."""
    return detailed_balance_violation(target, chain) is None


def skew_balance_violation(target: Kernel, twist: Involution,
                           chain: Kernel) -> tuple[Label, Label] | None:
    """A pair (x, y) with target[x]*chain[x][y] != target[y]*(s∘chain∘s)[y][x].

    s is the twist; (s∘chain∘s)[y][x] is chain[s(y)][s(x)]. Pairs are taken
    in row-major order over the chain's nonzero entries. Raises if the
    twist does not preserve the target (a precondition of the definition).
    """
    _check_endo(target, chain)
    if invariant_violation(target, lift_involution(twist)) is not None:
        raise ValueError("twist involution does not preserve the target")
    return _skew_pair_violation(target, twist, chain)


def _skew_pair_violation(target: Kernel, twist: Involution,
                         chain: Kernel) -> tuple[Label, Label] | None:
    """``skew_balance_violation`` for a twist already known to preserve
    the target (e.g. one ``build_skew_mh`` accepted)."""
    (masses,) = pair_rows(target)
    rows = pair_rows(chain)
    s = twist.perm
    # Only pairs on the chain's support need checking. A pair (x, y) with
    # chain[x][y] == 0 fails only if target[y] * chain[s(y)][s(x)] != 0; the
    # supported pair (s(y), s(x)) then fails as well, since its left side is
    # target[s(y)] * chain[s(y)][s(x)] with target[s(y)] == target[y], and
    # its right side is target[s(x)] * chain[x][y] == 0.
    for i, row in enumerate(rows):
        for j, v in row.items():
            if not pair_products_equal(masses.get(i, ZERO_PAIR), v,
                                       masses.get(j, ZERO_PAIR),
                                       rows[s[j]].get(s[i], ZERO_PAIR)):
                labels = target.cod.labels
                return labels[i], labels[j]
    return None


def is_skew_reversible(target: Kernel, twist: Involution, chain: Kernel) -> bool:
    """Detailed balance twisted by a target-invariant involution."""
    return skew_balance_violation(target, twist, chain) is None


def _check_endo(target: Kernel, chain: Kernel) -> None:
    if not target.is_measure:
        raise SpaceMismatchError("target must be a measure")
    if chain.dom != target.cod or chain.cod != target.cod:
        raise SpaceMismatchError("chain must be an endomorphism on the target space")


# ---------------------------------------------------------------------------
# Bayesian inversion and state-space augmentation


def bayesian_inverse(prior: Kernel, forward: Kernel) -> Kernel:
    """The posterior kernel reversing ``forward`` across ``prior``.

    Rows at outputs the joint never reaches are set to the uniform
    distribution (any normalized row satisfies the defining equation).
    """
    if not prior.is_measure or prior.cod != forward.dom:
        raise SpaceMismatchError("prior must be a measure on the forward domain")
    # the joint measure's columns: joint_cols[j][i] = prior[i] * forward[i][j]
    joint_cols: list[dict[int, ExtNonneg]] = [{} for _ in forward.cod.labels]
    for i, mass in zip(*prior.rows[0]):
        for j, w in zip(*forward.rows[i]):
            joint_cols[j][i] = mass * w
    return _normalized(forward.cod, forward.dom, joint_cols,
                       "bayesian_inverse needs finite joint masses")


def _normalized(dom: FinSpace, cod: FinSpace, blocks: list[dict[int, ExtNonneg]],
                infinite: str) -> Kernel:
    """Row ``i`` is ``blocks[i]`` over its mass, uniform when that is 0;
    an infinite mass raises ``InfiniteMassError(infinite)``."""
    maps = []
    for block in blocks:
        mass = ext_sum(block.values())
        if not mass.is_finite:
            raise InfiniteMassError(infinite)
        if mass.num == 0:
            maps.append(dict.fromkeys(range(len(cod)), ExtNonneg(1, len(cod))))
        else:
            maps.append({j: v / mass for j, v in block.items()})
    return from_maps(dom, cod, maps)


def augment_reversible(target: Kernel, proposal: Kernel, inner: Kernel) -> tuple[Kernel, Kernel]:
    """Marginalize a chain on an augmented space back to the base space.

    ``proposal`` attaches an auxiliary coordinate (X -> Z, normalized rows);
    ``inner`` is an endomorphism on X (x) Z. Returns the marginal chain on X
    together with the augmented measure it should be checked against. If
    ``inner`` is reversible for that measure, the marginal chain is
    reversible for the target (and likewise for invariance).
    """
    base = target.cod
    if proposal.dom != base:
        raise SpaceMismatchError("proposal must start from the target space")
    aux = proposal.cod
    joint = product(base, aux)
    if inner.dom != joint or inner.cod != joint:
        raise SpaceMismatchError("inner chain must act on base (x) aux")
    embed = graph(proposal)
    return _marginal(inner, embed, aux), compose(embed, target)


def _marginal(inner: Kernel, embed: Kernel, aux: FinSpace) -> Kernel:
    """``inner`` run after ``embed: X -> X (x) aux``, then ``aux`` deleted."""
    base = embed.dom
    marginalize = compose(right_unitor(base), tensor(identity(base), delete(aux)))
    return compose(marginalize, compose(inner, embed))


# ---------------------------------------------------------------------------
# the involutive Metropolis-Hastings kernel


def build_mh(problem: MhProblem) -> Kernel:
    """accept * involution + (1 - accept) * identity; always normalized."""
    return lazy_involution(problem.involution, problem.acceptance)


def _balancing_violation(target: Kernel, phi: Involution, accept: Kernel) -> Label | None:
    # At a point neither x nor phi(x) charges both sides are 0, and the
    # condition at an uncharged x is the one at phi(x); so the charged
    # points, in order, are all there is to check.
    (masses,) = pair_rows(target)
    alpha = effect_pairs(accept)
    perm = phi.perm
    for i, mass in masses.items():
        j = perm[i]
        if not pair_products_equal(alpha[i], mass, alpha[j], masses.get(j, ZERO_PAIR)):
            return target.cod.labels[i]
    return None


def balancing_violation(problem: MhProblem) -> Label | None:
    """The first charged point x where the balancing condition
    ``accept(x) * pi(x) = accept(phi x) * pi(phi x)`` fails.

    Where phi maps the target's support onto itself this is the paper's
    ``accept = (accept ∘ phi) * d(phi_* pi)/d pi`` times ``pi(x)``; where
    phi sends a charged point x to a null one it demands ``accept(x) = 0``
    (Tierney 1998). So it is decided on every support.
    """
    return _balancing_violation(problem.target, problem.involution,
                                problem.acceptance)


def check_balancing(problem: MhProblem) -> bool:
    """The balancing condition, checked at every point the target charges."""
    return balancing_violation(problem) is None


def balancing_alpha(balancing: BalancingFunction, target: Kernel,
                    phi: Involution) -> Kernel:
    """Derive an acceptance effect from a balancing function.

    Applies the function to the density, against the target, of the part
    of the pushforward target that the target dominates. Where phi moves a
    charged point off the target's support that density is 0, so the
    acceptance is ``balancing(0) = 0`` and the move is never taken. The
    chain ``build_mh`` makes from the result is always reversible, and the
    problem satisfies the balancing condition on any support.
    """
    dominated = lebesgue_decompose(pushforward(phi, target), target).ac
    return effect(target.cod, list(map(balancing.fn, _density_values(dominated, target))))


def verify_mh_theorem(problem: MhProblem) -> TheoremFlags:
    """Both sides of the reversibility characterization, independently.

    The flags are provably equal; computing both exposes the equivalence as
    a checkable fact rather than an assumption.
    """
    chain = build_mh(problem)
    return TheoremFlags(
        reversible=is_reversible(problem.target, chain),
        balanced=check_balancing(problem))


def build_skew_mh(problem: MhProblem, twist: Involution) -> Kernel:
    """Post-compose the MH kernel with a target-preserving involution."""
    lifted = lift_involution(twist)
    if not is_invariant(problem.target, lifted):
        raise ValueError("twist involution does not preserve the target")
    return compose(lifted, build_mh(problem))


def verify_skew_theorem(problem: MhProblem, twist: Involution) -> TheoremFlags:
    """Skew reversibility of the twisted kernel vs the balancing condition."""
    chain = build_skew_mh(problem, twist)
    return TheoremFlags(
        reversible=_skew_pair_violation(problem.target, twist, chain) is None,
        balanced=check_balancing(problem))


def first_summand_reversible(target: Kernel, phi: Involution,
                             accept: Kernel) -> TheoremFlags:
    """Detailed balance of the accept-move summand alone vs balancing.

    The summand accept * involution is generally unnormalized; reversibility
    still means the same exact detailed-balance identity.
    """
    summand = reweight(accept, lift_involution(phi))
    return TheoremFlags(
        reversible=is_reversible(target, summand),
        balanced=_balancing_violation(target, phi, accept) is None)


# ---------------------------------------------------------------------------
# classical Metropolis-Hastings via augmentation


def mh_acceptance_ratio(num: ExtNonneg, den: ExtNonneg) -> ExtNonneg:
    """min(1, num/den) with the convention that a zero denominator gives 0.

    A zero denominator means the proposal is never launched from that
    configuration under the chain, so the value is free; 0 is canonical.
    """
    return ZERO if den.is_zero else METROPOLIS(num / den)


def classical_mh(target: Kernel, proposal: Kernel) -> tuple[Kernel, Kernel]:
    """The textbook Metropolis-Hastings chain, built two independent ways.

    ``viaInvolution`` augments the state with the proposed point, applies
    the involutive MH kernel for the swap involution, and marginalizes
    back; ``direct`` fills in the familiar matrix (off-diagonal
    proposal*acceptance, diagonal residual). The two are equal and both
    reversible for the target.
    """
    base = target.cod
    if proposal.dom != base or proposal.cod != base:
        raise SpaceMismatchError("proposal must be an endomorphism on the target space")
    if not is_normalized(proposal):
        raise ValueError("proposal rows must be normalized")
    if not is_cancellative(target):
        raise InfiniteMassError("classical_mh needs finite target masses")
    # point (i, j) is state i with proposed point j, at target(i) * proposal(i, j)
    embed = graph(proposal)
    augmented = compose(embed, target)
    swap_inv = Involution.from_function(augmented.cod, lambda p: (p[1], p[0]))
    accept = balancing_alpha(METROPOLIS, augmented, swap_inv)
    inner = build_mh(MhProblem(target=augmented, involution=swap_inv, acceptance=accept))
    via_involution = _marginal(inner, embed, base)

    alpha = accept.effect_values()
    n = len(base)  # joint points are (i, j) in lexicographic index order
    rows = []
    for i, (cols, vals) in enumerate(proposal.rows):
        off = {j: w * alpha[i * n + j] for j, w in zip(cols, vals) if j != i}
        stay = residual(ext_sum(off.values()), ONE)
        if stay is None:
            raise ValueError("proposal rows must be normalized")
        off[i] = stay
        rows.append(off)
    return via_involution, from_maps(base, base, rows)


# ---------------------------------------------------------------------------
# the exchange algorithm


def exchange_algorithm(prior: Kernel, likelihood: Kernel, observed: Label,
                       proposal: Kernel) -> tuple[Kernel, Involution, Kernel]:
    """Set up the exchange algorithm for a doubly-intractable posterior.

    The chain targets the posterior over parameters X given one observation,
    augmented with synthetic data Z drawn from the proposed parameter, on
    the space X (x) (Z (x) X). The acceptance is the Metropolis balancing
    function of the augmented measure's density under the parameter swap;
    the likelihood's normalizing constants cancel in that ratio, so
    rescaling likelihood rows leaves the acceptance unchanged.

    Returns the augmented measure, the parameter-swap involution, and the
    acceptance effect. Feed them to MhProblem / build_mh / check_balancing.
    """
    base = prior.cod
    data = likelihood.cod
    if likelihood.dom != base:
        raise SpaceMismatchError("likelihood must map parameters to data")
    if proposal.dom != base or proposal.cod != base:
        raise SpaceMismatchError("proposal must be an endomorphism on parameters")
    if not is_cancellative(prior) or not is_cancellative(likelihood):
        raise InfiniteMassError("exchange_algorithm needs a finite prior and likelihood")
    obs_j = data.index(observed)
    posterior_raw = {i: mass * likelihood.at(i, obs_j)
                     for i, mass in zip(*prior.rows[0])}
    if not any(v.num for v in posterior_raw.values()):
        raise ValueError("target has zero mass at the observed data")
    posterior = _normalized(UNIT, base, [posterior_raw],
                            "exchange_algorithm needs a finite prior and likelihood")

    # X -> Z (x) X: propose a parameter, then draw synthetic data from it
    # (keeping the proposed parameter alongside the data).
    attach = compose(swap(base, data), compose(graph(likelihood), proposal))
    augmented = compose(graph(attach), posterior)

    phi = Involution.from_function(
        augmented.cod, lambda p: (p[1][1], (p[1][0], p[0])))
    return augmented, phi, balancing_alpha(METROPOLIS, augmented, phi)


# ---------------------------------------------------------------------------
# the systematic-scan Gibbs sampler


def gibbs_site_kernels(joint: Kernel, factors: Sequence[FinSpace]) -> list[Kernel]:
    """One single-site resampling kernel per coordinate of the joint space.

    The joint space carries flat tuple labels over ``factors``, numbered in
    lexicographic order, so the points that differ only in coordinate ``i``
    form a fiber of ``len(factors[i])`` indices a stride apart, the stride
    being the number of points of the later factors. Site ``i`` resamples
    coordinate ``i`` within its fiber (``resample_within``): row ``x`` is
    the joint at ``x`` with coordinate ``i`` set to each value, over its
    sum (uniform where that sum is 0). It does not depend on ``x``'s own
    coordinate ``i``, so a fiber's points share one stored row. A factor
    with no points makes the space empty, and every site the empty chain.
    """
    factors = tuple(factors)
    if len(factors) < 2:
        raise SpaceMismatchError("gibbs needs at least two factors")
    space = product_many(factors)
    if not joint.is_measure or joint.cod != space:
        raise SpaceMismatchError("joint must be a measure on the product of the factors")
    if not is_cancellative(joint):
        raise NotCancellative("gibbs needs a finite joint measure")
    if not space:
        return [identity(space)] * len(factors)
    sites = []
    step = len(space)  # how many points share the coordinates before i
    for factor in factors:
        stride = step // len(factor)
        sites.append(resample_within(joint, [
            range(start + r, start + step, stride)
            for start in range(0, len(space), step) for r in range(stride)]))
        step = stride
    return sites


def gibbs(joint: Kernel, factors: Sequence[FinSpace]) -> Kernel:
    """The systematic-scan Gibbs sampler: site updates composed in order.

    The result preserves the joint measure exactly.
    """
    sites = gibbs_site_kernels(joint, factors)
    chain = sites[0]
    for site in sites[1:]:
        chain = compose(site, chain)
    return chain
