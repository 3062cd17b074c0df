"""Record classes over ``__slots__``: field-wise equality, hash and repr.

The package's records are built on these rather than on ``dataclasses``,
whose import brings ``inspect``, ``ast``, ``dis`` and ``tokenize`` into
every process that imports finkern, the CLI's included.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """A mutable, unhashable record whose fields are its ``__slots__``.

    Records of the same class are equal when their fields are equal; a
    record never equals an object of another class. ``repr`` leaves out
    the fields named in ``_hidden``.
    """

    __slots__ = ()
    _hidden: tuple[str, ...] = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__:  # the fields as one tuple (a record has two or more)
            cls._values = property(attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__ if name not in self._hidden)
        return f"{type(self).__name__}({shown})"


class FrozenRecord(Record):
    """An immutable, hashable record: assigning a field raises AttributeError.

    ``__init__`` sets each field with ``object.__setattr__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values)

    def __reduce__(self):
        return self.__class__, self._values
