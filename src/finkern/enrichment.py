"""Sums of kernels and the order structure they induce.

Hom-sets of kernels are commutative monoids under entrywise addition
(``P + Q``, with unit ``kernel_zero``), which yields two preorders: the
additive order (P <= Q when some R has P + R = Q) and pointwise absolute
continuity (P << Q when Q's null entries are null for P). On top of these
live cancellativity, meets, singularity, Lebesgue decompositions,
Radon-Nikodym derivatives, and almost-everywhere equality, all decided
exactly.

Each predicate is decided by one ``*_violation`` function that returns its
first witness or None: an entry ``(x, y)`` for the order relations and
cancellativity, a domain point for finiteness and a.e. equality. The
boolean form is ``*_violation(...) is None``.

Entries are read as integer pairs (``kernels.pair_rows``), supports and
infinite entries through ``row_support`` and ``infinite_entry``; an
``ExtNonneg`` view is read only to print a value in an error message.
"""

from __future__ import annotations

from typing import NamedTuple

from .semiring import ExtNonneg, INF, ONE, ZERO, ZERO_PAIR, fraction
from .spaces import FinSpace, Label
from .kernels import (
    Involution, Kernel, SpaceMismatchError, effect, from_maps,
    infinite_entry, pair_rows, pushforward, row_support, split_by_support,
)


class NotAbsolutelyContinuous(ValueError):
    """The requested derivative's numerator is not dominated by its base."""


class NoExactDerivative(ValueError):
    """No exact density exists (finite positive mass over an infinite atom)."""


class NotCancellative(ValueError):
    """An operation required a cancellative (all-finite) measure or kernel:
    the one refusal of an infinite mass, by ``ae_equal`` and
    ``involutive_decompose`` here and by ``mcmc``'s constructions."""


def _check_same_type(p: Kernel, q: Kernel, what: str) -> None:
    if p.dom != q.dom or p.cod != q.cod:
        raise SpaceMismatchError(f"{what} needs kernels with equal dom and cod")


# ---------------------------------------------------------------------------
# the commutative-monoid structure


def kernel_zero(dom: FinSpace, cod: FinSpace) -> Kernel:
    return from_maps(dom, cod, ({},) * len(dom))


def leq_violation(p: Kernel, q: Kernel) -> tuple[Label, Label] | None:
    """The first entry (x, y), in row-major order, where p[x][y] <= q[x][y] fails."""
    _check_same_type(p, q, "leq")
    for x, lower, upper in zip(p.dom.labels, pair_rows(p), pair_rows(q)):
        for j, (a, b) in lower.items():  # a zero entry of p is below anything
            c, d = upper.get(j, ZERO_PAIR)
            if a * d > c * b:  # a / b > c / d, with oo as (1, 0)
                return x, p.cod.labels[j]
    return None


def leq_kernel(p: Kernel, q: Kernel) -> bool:
    """The additive preorder, decided entrywise."""
    return leq_violation(p, q) is None


# ---------------------------------------------------------------------------
# cancellativity and finiteness


def cancellative_violation(kernel: Kernel) -> tuple[Label, Label] | None:
    """The first infinite entry (x, y), in row-major order.

    On a finite space a row measure is sigma-finite exactly when it has no
    infinite atom, so sums with the kernel cancel exactly when every entry
    is finite.
    """
    entry = infinite_entry(kernel)
    if entry is None:
        return None
    return kernel.dom.labels[entry[0]], kernel.cod.labels[entry[1]]


def is_cancellative(kernel: Kernel) -> bool:
    """Whether sums with this kernel can be cancelled."""
    return cancellative_violation(kernel) is None


def cancellation_counterexample(kernel: Kernel) -> tuple[Kernel, Kernel] | None:
    """A pair (Q, R) with kernel+Q == kernel+R but Q != R, if one exists."""
    witness = cancellative_violation(kernel)
    if witness is None:
        return None
    x, y = witness
    dom, cod = kernel.dom, kernel.cod
    maps = [{}] * len(dom)
    maps[dom.index(x)] = {cod.index(y): ONE}
    return kernel_zero(dom, cod), from_maps(dom, cod, maps)


def finite_violation(kernel: Kernel) -> Label | None:
    """The first domain point whose row mass is infinite."""
    # finite entries have a finite sum
    entry = infinite_entry(kernel)
    return None if entry is None else kernel.dom.labels[entry[0]]


def is_finite_morphism(kernel: Kernel) -> bool:
    """Every row has finite total mass."""
    return finite_violation(kernel) is None


# ---------------------------------------------------------------------------
# absolute continuity and singularity


def _support_violation(p: Kernel, q: Kernel, what: str,
                       failing) -> tuple[Label, Label] | None:
    # The first entry, in row-major order, in the column set that
    # ``failing(p's support, q's support)`` returns for its row.
    _check_same_type(p, q, what)
    for i, x in enumerate(p.dom.labels):
        bad = failing(set(row_support(p, i)), row_support(q, i))
        if bad:
            return x, p.cod.labels[min(bad)]
    return None


def abs_cont_violation(p: Kernel, q: Kernel) -> tuple[Label, Label] | None:
    """The first entry where p is nonzero and q is zero."""
    return _support_violation(p, q, "abs_cont", set.difference)


def abs_cont(p: Kernel, q: Kernel) -> bool:
    """Pointwise absolute continuity: q's null entries are null for p."""
    return abs_cont_violation(p, q) is None


def equivalent_violation(p: Kernel, q: Kernel) -> tuple[Label, Label] | None:
    """The first entry where exactly one of p and q is zero."""
    return _support_violation(p, q, "equivalent", set.symmetric_difference)


def equivalent(p: Kernel, q: Kernel) -> bool:
    """Mutual absolute continuity: equal supports, row by row."""
    return equivalent_violation(p, q) is None


def meet(p: Kernel, q: Kernel) -> Kernel:
    """The canonical greatest lower bound for << : p masked to q's support."""
    _check_same_type(p, q, "meet")
    return lebesgue_decompose(p, q).ac


def singular_violation(p: Kernel, q: Kernel) -> tuple[Label, Label] | None:
    """The first entry where both p and q are nonzero."""
    return _support_violation(p, q, "is_singular", set.intersection)


def is_singular(p: Kernel, q: Kernel) -> bool:
    """Whether p and q put mass on disjoint points, row by row."""
    return singular_violation(p, q) is None


# ---------------------------------------------------------------------------
# Lebesgue decompositions


class Decomposition(NamedTuple):
    """A split P = ac + si with ac << reference and si singular to it."""

    ac: Kernel
    si: Kernel

    @property
    def total(self) -> Kernel:
        return self.ac + self.si


def lebesgue_decompose(p: Kernel, q: Kernel) -> Decomposition:
    """Split p into the part dominated by q and the part singular to q."""
    _check_same_type(p, q, "lebesgue_decompose")
    return Decomposition(*split_by_support(p, q))


def involutive_decompose(mu: Kernel, phi: Involution) -> tuple[tuple[Label, ...], Decomposition]:
    """Decompose a measure against its own pushforward under an involution.

    Returns the set S of points where the measure and its pushforward are
    jointly supported, together with the decomposition mu = mu|_S + mu|_S^c.
    The pieces satisfy ac ~ phi.ac, si _|_ phi.si, and ac _|_ si.
    """
    if not mu.is_measure:
        raise SpaceMismatchError("involutive_decompose needs a measure")
    if mu.cod != phi.space:
        raise SpaceMismatchError("measure and involution live on different spaces")
    if not is_cancellative(mu):
        raise NotCancellative("involutive_decompose needs finite atoms")
    pushed = pushforward(phi, mu)
    decomposition = lebesgue_decompose(mu, pushed)
    return support_labels(decomposition.ac), decomposition


# ---------------------------------------------------------------------------
# Radon-Nikodym derivatives and a.e. equality


def rn_derivative(pi: Kernel, mu: Kernel) -> Kernel:
    """The exact density r with pi = r * mu, as an effect.

    Convention: r is 0 on mu-null points (forced to carry no pi-mass by
    absolute continuity) and 1 on atoms where both measures are infinite.
    Raises NotAbsolutelyContinuous when pi is not dominated by mu, and
    NoExactDerivative at an infinite mu-atom carrying finite positive
    pi-mass, where no exact scalar exists under 0*oo = 0.
    """
    return effect(mu.cod, _density_values(pi, mu))


def _density_values(pi: Kernel, mu: Kernel) -> list[ExtNonneg]:
    """``rn_derivative(pi, mu)``'s values in point order."""
    if not pi.is_measure or not mu.is_measure:
        raise SpaceMismatchError("rn_derivative needs two measures")
    if pi.cod != mu.cod:
        raise SpaceMismatchError("rn_derivative needs measures on the same space")
    (p,), (m,) = pair_rows(pi), pair_rows(mu)
    values = [ZERO] * len(mu.cod)
    for j, (pn, pd) in p.items():  # the other points have density 0
        if j not in m:
            raise NotAbsolutelyContinuous(
                f"mass {pi.at(0, j)} at {mu.cod.labels[j]!r} outside the base "
                "measure's support")
        mn, md = m[j]
        if md:  # (pn / pd) / (mn / md), with one gcd
            values[j] = fraction(pn * md, mn * pd) if pd else INF
        elif pd:
            raise NoExactDerivative(
                f"finite mass {pi.at(0, j)} over an infinite atom at "
                f"{mu.cod.labels[j]!r}")
        else:
            values[j] = ONE
    return values


def ae_equal(mu: Kernel, p: Kernel, q: Kernel) -> bool:
    """Whether p and q agree at every point the measure charges."""
    return ae_violation(mu, p, q) is None


def ae_violation(mu: Kernel, p: Kernel, q: Kernel) -> Label | None:
    """The first point the measure charges where p's and q's rows differ."""
    if not mu.is_measure or mu.cod != p.dom:
        raise SpaceMismatchError("ae_equal needs a measure on the kernels' domain")
    _check_same_type(p, q, "ae_equal")
    if not is_cancellative(mu):
        raise NotCancellative("ae_equal needs finite atoms")
    prows, qrows = pair_rows(p), pair_rows(q)
    for i in row_support(mu, 0):
        if prows[i] != qrows[i]:
            return mu.cod.labels[i]
    return None


def support_labels(mu: Kernel) -> tuple[Label, ...]:
    """The points a measure charges, in space order."""
    if not mu.is_measure:
        raise SpaceMismatchError("not a measure (domain is not the unit space)")
    labels = mu.cod.labels
    return tuple([labels[i] for i in row_support(mu, 0)])
