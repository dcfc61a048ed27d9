"""Plain result records shared by the library, the CLI, and the tests.

``Record`` is the base of every value type in the package. A subclass names
its fields in ``__slots__``; its records are immutable, equal only to records
of the same class with equal fields, hashed by their fields, and shown as
``Name(field=value, ...)``. Records built or compared on hot paths write
their own ``__init__``, ``__eq__`` and ``__hash__`` with the same meaning;
such an ``__init__`` sets each slot through its descriptor's ``__set__``,
bound once at module level.
A slot named in ``derived`` (``class C(Record, derived=(...))``) is set by the
code that builds the record from its fields, and is not a field itself.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    _fields = ()

    def __init_subclass__(cls, derived=()):
        cls._fields = cls.__base__._fields + tuple(n for n in cls.__slots__ if n not in derived)
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = args + tuple(kwargs.pop(n) for n in names[len(args):] if n in kwargs)
        if kwargs or len(values) != len(names):
            raise TypeError(f"{type(self).__name__}() takes the fields ({', '.join(names)})")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def to_dict(self):
        return {n: getattr(self, n) for n in self._fields}


class LawReport(Record):
    __slots__ = ("law", "instance", "trials", "seed", "status", "witness")  # status: "pass" | "fail"


class ContentReport(Record):
    """Both sides of the content product comparison, rendered canonically.

    dm_exponent is 0 exactly when the pair is Gaussian; it is left as None
    when the caller did not search for it.
    """

    __slots__ = (
        "instance", "f", "g", "content_f", "content_g", "content_fg", "product", "gaussian", "dm_exponent", "witness"
    )
