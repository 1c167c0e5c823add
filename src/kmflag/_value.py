"""Value semantics for the package's plain record classes."""

from operator import attrgetter


class Value:
    """Field equality, hashing and repr for a plain class.  A subclass names
    its fields in `_fields`: two instances of one class are equal when those
    fields are, and hash by them.  Other attributes, such as derived tables,
    take no part."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        return type(other) is type(self) and self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"
