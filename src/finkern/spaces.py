"""Finite measurable spaces with structured point labels.

A space is an ordered list of distinct labels. Monoidal products carry pair
labels and coproducts carry left/right-tagged labels, so structurally
different spaces never collide; associativity and unit relabelings are
explicit kernels (see :mod:`finkern.kernels`), never silent coercions.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Iterable, Iterator, Union

from ._record import FrozenRecord


class Tagged(FrozenRecord):
    """A coproduct point label: the original label plus an L/R tag.

    A tagged label never equals a tuple, so a coproduct point cannot
    collide with a product point.
    """

    __slots__ = ("side", "label")

    def __init__(self, side: str, label: "Label"):
        if side not in ("L", "R"):
            raise ValueError(f"tag must be 'L' or 'R', got {side!r}")
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "label", label)


Label = Union[str, tuple, Tagged]


class FinSpace:
    """An ordered finite set of distinct point labels.

    ``index`` finds a label's position through a dict built in one pass at
    C speed; a repeated label is refused, naming its first repeat.
    """

    __slots__ = ("labels", "_index")

    def __init__(self, labels: Iterable[Label]):
        labels = tuple(labels)
        index = dict(zip(labels, range(len(labels))))
        if len(index) < len(labels):  # find the first repeat, for the message
            seen = set()
            for label in labels:
                if label in seen:
                    raise ValueError(f"duplicate label {label!r}")
                seen.add(label)
        self.labels = labels
        self._index = index

    @classmethod
    def atoms(cls, text: str) -> "FinSpace":
        """Build a space from whitespace-separated atom labels."""
        return cls(text.split())

    def index(self, label: Label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"label {label!r} is not a point of {self!r}") from None

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.labels)

    def __contains__(self, label) -> bool:
        return label in self._index

    def __eq__(self, other):
        if self is other:  # most comparisons are of a space with itself
            return True
        if not isinstance(other, FinSpace):
            return NotImplemented
        return self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        shown = " ".join(format_label(label) for label in self.labels[:6])
        if len(self.labels) > 6:
            shown += " ..."
        return f"FinSpace({shown})"


def format_label(label: Label) -> str:
    """A label in model-file syntax: ``a``, ``(a,b)``, ``L:a``."""
    if isinstance(label, Tagged):
        return f"{label.side}:{format_label(label.label)}"
    if isinstance(label, tuple):
        return "(" + ",".join(format_label(p) for p in label) + ")"
    return str(label)


#: The monoidal unit: a single point labeled "*".
UNIT = FinSpace(("*",))

#: The initial object: the empty space.
EMPTY = FinSpace(())


def product(left: FinSpace, right: FinSpace) -> FinSpace:
    """Binary product: pair labels in lexicographic order of indices."""
    return FinSpace(tuple(iter_product(left.labels, right.labels)))


def product_many(factors: Iterable[FinSpace]) -> FinSpace:
    """n-ary product with flat tuple labels (x1, ..., xn)."""
    factors = tuple(factors)
    if not factors:
        raise ValueError("product_many needs at least one factor")
    return FinSpace(tuple(iter_product(*(f.labels for f in factors))))
