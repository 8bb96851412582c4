"""The base of the package's immutable value types.

A value type lists its compared fields in ``_fields`` (and in
``__slots__``, with any cache slots), validates in its own ``__init__``
and sets each field once there with ``object.__setattr__``.  Plain records
with no validation are ``typing.NamedTuple``s instead.  Neither needs code
generated at class creation or the ``inspect`` module, so importing the
package stays cheap for a process that answers one small question.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    """Type-strict equality and a hash over ``_fields``, a repr naming
    them, and no assignment or deletion of an attribute.  ``replace``
    builds a new value through ``__init__``, so it is validated again.
    Equality and the hash of every value type come from here.  A type
    that must not be hashed (one with a mutable cache slot, such as
    ``chow.GradedRingPresentation``'s pieces) keeps ``__hash__ = None``
    in its body, which is left in place.  A cache slot that is written
    once, with a function of the fields, leaves equality and the hash as
    they are, so its type may be hashed: ``model.StackModel``'s analysis
    is one.  No cache slot is compared, copied or pickled."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the fields as one tuple (one field: the field itself), read in C
        key = attrgetter(*cls._fields)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        for name, method in (("__eq__", __eq__), ("__hash__", __hash__)):
            if name not in vars(cls):
                setattr(cls, name, method)

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__,
                           ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of an immutable %s" % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of an immutable %s" % (name, type(self).__name__))

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not by assignment
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def replace(self, **changes):
        """This value with the named fields changed, validated again."""
        return type(self)(**{f: getattr(self, f) for f in self._fields} | changes)
