"""The base of the value classes that are compared, hashed or printed."""

from operator import attrgetter


class Value:
    """Equality, hash and repr over the fields named in ``__slots__``, in that order.

    A subclass lists its fields in ``__slots__`` and writes its own
    ``__init__``; one that is compared but not treated as immutable sets
    ``__hash__ = None``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = property(attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({body})"
