"""Markov chain constructions and exact correctness checkers.

Builds involutive Metropolis-Hastings kernels (accept to the involution's
image, otherwise stay), checks invariance, detailed balance, the skew
variant, and the balancing condition that characterizes reversibility, and
recovers the classical Metropolis-Hastings chain, the exchange algorithm for
doubly-intractable targets, and the systematic-scan Gibbs sampler. Every
check is an exact decidable equality; detailed and skew balance are one
scan, ``kernels.swap_asymmetry``. Entries are read as integer pairs
(``pair_rows``, ``effect_pairs``), compared by cross-multiplication and
written as pairs (``from_pair_rows``, ``from_effect_pairs``); the balancing
functions map pairs to pairs, so no ``ExtNonneg`` is made below the API.
"""

from __future__ import annotations

from math import lcm
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .semiring import (
    ExtNonneg, INF_PAIR, ONE_PAIR, ZERO_PAIR, fraction, pair_products_equal,
)
from .spaces import FinSpace, Label, UNIT, product, product_many
from .kernels import (
    Involution, Kernel, SpaceMismatchError, compose, composite, deterministic,
    effect_pairs, from_effect_pairs, from_pair_rows, graph, identity, is_normalized,
    lazy_involution, lazy_proposal, lift_involution, pair_rows, resample_within,
    reweight, substochastic_violation, swap, swap_asymmetry,
)
from .enrichment import NoExactDerivative, NotCancellative, is_cancellative
from ._record import FrozenRecord


# ---------------------------------------------------------------------------
# balancing functions


class BalancingFunction(NamedTuple):
    """A named map [0, oo] -> [0, 1] with a(0) = 0 and a(t) = t * a(1/t);
    ``fn`` maps integer pairs to finite, not necessarily reduced, pairs."""

    name: str
    fn: Callable[[tuple[int, int]], tuple[int, int]]

    def __call__(self, ratio: ExtNonneg) -> ExtNonneg:
        return fraction(*self.fn((ratio.num, ratio.den)))


def _metropolis(ratio: tuple[int, int]) -> tuple[int, int]:
    # min(1, t): t >= 1 exactly when num >= den, which holds for oo = 1/0,
    # so the limit convention a(oo) = 1 needs no branch of its own.
    return ONE_PAIR if ratio[0] >= ratio[1] else ratio


def _barker(ratio: tuple[int, int]) -> tuple[int, int]:
    # t / (1 + t); the limit convention gives a(oo) = 1.
    return (ratio[0], ratio[0] + ratio[1]) if ratio[1] else ONE_PAIR


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
            raise ValueError(f"acceptance value "
                             f"{acceptance.at(acceptance.dom.index(bad), 0)} exceeds 1")
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


def invariant_violation(target: Kernel, chain: Kernel | Involution) -> Label | None:
    """The first point where chain ∘ target and target differ.

    A composite chain whose rows are not built, such as a Gibbs sweep, has
    the target pushed through its factors one at a time (``compose``); the
    image and so the witness are those of the built chain. An involution
    stands for its deterministic kernel. It moves the target at the first
    point whose mass is not its image's, read from the target's one pair
    row, with no composition.
    """
    if not target.is_measure:
        raise SpaceMismatchError("target must be a measure")
    if isinstance(chain, Involution):
        if chain.space != target.cod:
            raise SpaceMismatchError("involution lives on a different space")
        (pairs,) = pair_rows(target)  # equal pairs are equal masses
        masses = [pairs.get(j) for j in range(len(target.cod))]
        moved = next((j for j, t in enumerate(chain.perm) if masses[t] != masses[j]), None)
        return None if moved is None else target.cod.labels[moved]
    if chain.dom != target.cod or chain.cod != target.cod:
        raise SpaceMismatchError("chain must be an endomorphism on the target space")
    after = compose(chain, target)
    if after == target:
        return None
    (old,), (new,) = pair_rows(target), pair_rows(after)
    moved = min(j for j in old.keys() | new.keys() if not pair_products_equal(
        old.get(j, ZERO_PAIR), ONE_PAIR, new.get(j, ZERO_PAIR), ONE_PAIR))
    return target.cod.labels[moved]


def is_invariant(target: Kernel, chain: Kernel) -> bool:
    """Whether the chain preserves the target: chain ∘ target == target."""
    return invariant_violation(target, chain) is None


def detailed_balance_violation(target: Kernel, chain: Kernel) -> tuple[Label, Label] | None:
    """The first (x, y) with target[x]*chain[x][y] != target[y]*chain[y][x].

    Pairs are taken in index order with x before y: the least pair where
    the joint ``(identity (x) chain) ∘ copy ∘ target`` differs from its
    swap (``kernels.swap_asymmetry``, which checks the inputs).
    """
    return _labels(target, swap_asymmetry(target, chain))


def is_reversible(target: Kernel, chain: Kernel) -> bool:
    """Exact detailed balance of the chain against the target."""
    return detailed_balance_violation(target, chain) is None


def skew_balance_violation(target: Kernel, twist: Involution,
                           chain: Kernel) -> tuple[Label, Label] | None:
    """A pair (x, y) with target[x]*chain[x][y] != target[y]*(s∘chain∘s)[y][x].

    s is the twist; (s∘chain∘s)[y][x] is chain[s(y)][s(x)]. The pair is the
    first failing entry in row-major order. Raises if the twist lives on
    another space or does not preserve the target (a precondition).
    """
    return _labels(target, swap_asymmetry(target, chain, twist))


def is_skew_reversible(target: Kernel, twist: Involution, chain: Kernel) -> bool:
    """Detailed balance twisted by a target-invariant involution."""
    return skew_balance_violation(target, twist, chain) is None


def _labels(target: Kernel, pair: tuple[int, int] | None) -> tuple[Label, Label] | None:
    return None if pair is None else (target.cod.labels[pair[0]], target.cod.labels[pair[1]])


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
    joint_cols: list[dict[int, tuple[int, int]]] = [{} for _ in forward.cod.labels]
    (masses,), rows = pair_rows(prior), pair_rows(forward)
    for i, (mn, md) in masses.items():
        for j, (wn, wd) in rows[i].items():
            if not md * wd:
                raise NotCancellative("bayesian_inverse needs finite joint masses")
            joint_cols[j][i] = (mn * wn, md * wd)
    return _normalized(forward.cod, forward.dom, joint_cols)


def _normalized(dom: FinSpace, cod: FinSpace,
                blocks: list[dict[int, tuple[int, int]]]) -> Kernel:
    """Row ``i`` is ``blocks[i]``, a map of finite pairs, over its mass,
    uniform when that is 0. Each caller refuses an infinite mass first."""
    rows = []
    for block in blocks:
        # entry j is a_j / den, so over the mass a_j / sum(a)
        den = lcm(*[d for _, d in block.values()])
        nums = {j: n * (den // d) for j, (n, d) in block.items()}
        mass = sum(nums.values())
        rows.append({j: (a, mass) for j, a in nums.items()} if mass
                    else dict.fromkeys(range(len(cod)), (1, len(cod))))
    return from_pair_rows(dom, cod, rows)


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
    return _marginal(inner, embed), compose(embed, target)


def _marginal(inner: Kernel, embed: Kernel) -> Kernel:
    """``inner`` run after ``embed: X -> X (x) aux``, then ``aux`` deleted.

    The projection ``(x, z) -> x`` that deletes ``aux`` is the categorical
    marginal ``right_unitor(X) ∘ (identity(X) (x) delete(aux))``: both are
    the index map sending point ``(x, z)`` to ``x``. It runs after the
    unbuilt ``composite`` of ``embed`` and ``inner``, so ``compose`` writes
    each row of ``inner``, as ``embed`` weighs it, straight into the
    projected columns, and ``inner ∘ embed`` is never built.
    """
    project = deterministic(embed.cod, embed.dom, itemgetter(0))
    return compose(project, composite((embed, inner)))


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
    for i, (mn, md) in masses.items():
        j = perm[i]
        (an, ad), (bn, bd) = alpha[i], alpha[j]
        cn, cd = masses.get(j, ZERO_PAIR)
        if (an * mn * bd * cd != bn * cn * ad * md if md and ad and bd and cd
                else not pair_products_equal((an, ad), (mn, md), (bn, bd), (cn, cd))):
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
    of the pushforward target that the target dominates: ``pi(phi x) /
    pi(x)`` at a charged x, with ``rn_derivative``'s conventions. Where phi
    moves a charged point off the target's support that density is 0, so
    the acceptance is ``balancing(0) = 0`` and the move is never taken. The
    chain ``build_mh`` makes from the result is always reversible, and the
    problem satisfies the balancing condition on any support. The value
    pairs, one per point, are written by ``from_effect_pairs``.
    """
    if target.cod != phi.space:  # as the pushforward of the target reports it
        raise SpaceMismatchError("cannot compose: middle spaces differ "
                                 f"({target.cod!r} vs {phi.space!r})")
    if not target.is_measure:
        raise SpaceMismatchError("rn_derivative needs two measures")
    (masses,) = pair_rows(target)  # its finite masses share one denominator
    pairs = [ZERO_PAIR] * len(target.cod)
    for i, (mn, md) in masses.items():
        if (pushed := masses.get(phi.perm[i])) is None:
            continue
        if not md and pushed[1]:
            raise NoExactDerivative(f"finite mass {target.at(0, phi.perm[i])} over "
                                    f"an infinite atom at {target.cod.labels[i]!r}")
        ratio = ONE_PAIR if not md else (pushed[0], mn) if pushed[1] else INF_PAIR
        pairs[i] = balancing.fn(ratio)
    return from_effect_pairs(target.cod, pairs)


def verify_mh_theorem(problem: MhProblem) -> TheoremFlags:
    """Both sides of the reversibility characterization, independently.

    The flags are provably equal; computing both exposes the equivalence as
    a checkable fact rather than an assumption.
    """
    return TheoremFlags(reversible=is_reversible(problem.target, build_mh(problem)),
                        balanced=check_balancing(problem))


def build_skew_mh(problem: MhProblem, twist: Involution) -> Kernel:
    """Post-compose the MH kernel with a target-preserving involution."""
    if twist.space != problem.space:
        raise SpaceMismatchError("twist involution lives on a different space")
    if invariant_violation(problem.target, twist) is not None:
        raise ValueError("twist involution does not preserve the target")
    return compose(lift_involution(twist), build_mh(problem))


def verify_skew_theorem(problem: MhProblem, twist: Involution) -> TheoremFlags:
    """Skew reversibility of the twisted kernel vs the balancing condition."""
    chain = build_skew_mh(problem, twist)
    return TheoremFlags(reversible=is_skew_reversible(problem.target, twist, chain),
                        balanced=check_balancing(problem))


def first_summand_reversible(target: Kernel, phi: Involution,
                             accept: Kernel) -> TheoremFlags:
    """Detailed balance of the accept-move summand alone vs balancing.

    The summand accept * involution is generally unnormalized; reversibility
    still means the same exact detailed-balance identity.
    """
    summand = reweight(accept, lift_involution(phi))
    return TheoremFlags(reversible=is_reversible(target, summand),
                        balanced=_balancing_violation(target, phi, accept) is None)


# ---------------------------------------------------------------------------
# classical Metropolis-Hastings via augmentation


def classical_mh(target: Kernel, proposal: Kernel) -> tuple[Kernel, Kernel]:
    """The textbook Metropolis-Hastings chain, built two independent ways.

    ``viaInvolution`` augments the state with the proposed point, applies
    the involutive MH kernel for the swap involution, and marginalizes
    back (``_marginal``); ``direct`` fills in the familiar matrix
    (off-diagonal proposal*acceptance, diagonal residual) from the
    proposal and the same acceptance effect, with ``lazy_proposal``, and
    reads no row of the augmented chain. The two are equal and both
    reversible for the target.
    """
    base = target.cod
    if proposal.dom != base or proposal.cod != base:
        raise SpaceMismatchError("proposal must be an endomorphism on the target space")
    if not is_normalized(proposal):
        raise ValueError("proposal rows must be normalized")
    if not is_cancellative(target):
        raise NotCancellative("classical_mh needs finite target masses")
    # point (i, j) is state i with proposed point j, at target(i) * proposal(i, j)
    embed = graph(proposal)
    augmented = compose(embed, target)
    n = len(base)  # joint points are (i, j), at index i * n + j
    swap_inv = Involution(augmented.cod, [j * n + i for i in range(n) for j in range(n)])
    accept = balancing_alpha(METROPOLIS, augmented, swap_inv)
    # the target's masses were checked finite above, and a Metropolis
    # acceptance is at most 1, so the chain needs none of MhProblem's checks
    inner = lazy_involution(swap_inv, accept)
    return _marginal(inner, embed), lazy_proposal(proposal, accept)


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
    if not prior.is_measure:
        raise SpaceMismatchError("prior must be a measure on the parameters")
    if likelihood.dom != base:
        raise SpaceMismatchError("likelihood must map parameters to data")
    if proposal.dom != base or proposal.cod != base:
        raise SpaceMismatchError("proposal must be an endomorphism on parameters")
    if not is_cancellative(prior) or not is_cancellative(likelihood):
        raise NotCancellative("exchange_algorithm needs a finite prior and likelihood")
    obs_j = data.index(observed)
    (masses,) = pair_rows(prior)
    likes = [row.get(obs_j, ZERO_PAIR) for row in pair_rows(likelihood)]
    posterior_raw = {i: (mn * likes[i][0], md * likes[i][1])
                     for i, (mn, md) in masses.items() if likes[i][0]}
    if not posterior_raw:
        raise ValueError("target has zero mass at the observed data")
    posterior = _normalized(UNIT, base, [posterior_raw])

    # X -> Z (x) X: propose a parameter, then draw synthetic data from it
    # (keeping the proposed parameter alongside the data).
    attach = compose(swap(base, data), composite((proposal, graph(likelihood))))
    augmented = compose(graph(attach), posterior)

    nx, nz = len(base), len(data)  # (x, (z, y)), at (x * nz + z) * nx + y, to (y, (z, x))
    phi = Involution(augmented.cod, [(y * nz + z) * nx + x for x in range(nx)
                                     for z in range(nz) for y in range(nx)])
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

    The result preserves the joint measure exactly. It is the deferred
    ``kernels.composite`` of the sites: the sweep's rows are built on their
    first read (by ``to_float``, ``emit`` or an entry), and until then a
    measure composed with it is pushed through the sites one at a time, so
    ``is_invariant`` never builds them.
    """
    return composite(gibbs_site_kernels(joint, factors))
