"""Finite coproducts of spaces: disjoint unions with tagged labels.

The empty space is initial; X (+) Y carries L/R-tagged labels so coproduct
points never collide with product pairs. Injections are deterministic
normalized embeddings, copairing stacks row blocks, and the distributivity
relabelings witness X (x) (Y (+) Z) ~ (X (x) Y) (+) (X (x) Z).
"""

from __future__ import annotations

from .spaces import EMPTY, FinSpace, Tagged, product
from .kernels import Kernel, SpaceMismatchError, deterministic, from_pair_rows, pair_rows


def oplus(left: FinSpace, right: FinSpace) -> FinSpace:
    """The disjoint union, left points first, each label tagged."""
    return FinSpace(
        tuple(Tagged("L", x) for x in left.labels)
        + tuple(Tagged("R", y) for y in right.labels))


def injection(side: str, left: FinSpace, right: FinSpace) -> Kernel:
    """The coproduct inclusion of one summand into left (+) right."""
    target = oplus(left, right)
    if side == "L":
        return deterministic(left, target, lambda x: Tagged("L", x))
    if side == "R":
        return deterministic(right, target, lambda y: Tagged("R", y))
    raise ValueError(f"side must be 'L' or 'R', got {side!r}")


def copair(f: Kernel, g: Kernel) -> Kernel:
    """The unique map out of a coproduct restricting to f and g.

    Stacks f's rows over g's rows; f : X -> Z and g : Y -> Z yield
    [f, g] : X (+) Y -> Z.
    """
    if f.cod != g.cod:
        raise SpaceMismatchError("copair needs kernels into the same space")
    return from_pair_rows(oplus(f.dom, g.dom), f.cod, pair_rows(f) + pair_rows(g))


def distributivity_iso(x: FinSpace, y: FinSpace, z: FinSpace) -> tuple[Kernel, Kernel]:
    """Mutually inverse relabelings (X(x)Y) (+) (X(x)Z) <-> X (x) (Y(+)Z)."""
    source = oplus(product(x, y), product(x, z))
    target = product(x, oplus(y, z))

    def fwd(label):
        pair = label.label
        return (pair[0], Tagged(label.side, pair[1]))

    def bwd(label):
        point, tagged = label
        return Tagged(tagged.side, (point, tagged.label))

    return deterministic(source, target, fwd), deterministic(target, source, bwd)


def nullary_distributivity_iso(x: FinSpace) -> tuple[Kernel, Kernel]:
    """The empty-space case 0 <-> 0 (x) X: both kernels are empty matrices."""
    target = product(EMPTY, x)
    return Kernel(EMPTY, target, ()), Kernel(target, EMPTY, ())
