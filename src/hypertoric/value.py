"""The base of the package's immutable value types.

A value type lists its compared fields in ``_fields`` (and in
``__slots__``, with any cache slots) and sets each field once, at
construction, with ``object.__setattr__``.  Construction follows one
rule:

- outside input goes through ``__init__``, which validates it;
- a value the library derives from validated values goes through the
  type's ``_``-prefixed constructor, which runs none of those checks,
  since none of them can fire: ``Value._derived``, or one built on it
  (``inertia.TorsionElement._reduced``,
  ``chow.SectorEmbedding._of_coordinates``).

A type built both ways sets its fields in one ``_set``, which
``__init__`` calls after its checks and ``_derived`` in their place; a
type may instead set what a field is worked out from and work the field
out on its first read (``chow.GradedRingPresentation``'s relations).

Plain records with no validation are ``typing.NamedTuple``s instead.
These do generate code at class creation (``collections.namedtuple``
``eval``s each class's ``__new__``), but neither kind needs the
``dataclasses`` or ``inspect`` modules, so importing the package stays
cheap for a process that answers one small question.
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

    def _set(self, *values) -> None:
        """Set the fields, in ``_fields`` order, once; one value per field,
        or ValueError.  A type with cache slots to fill at construction
        defines its own."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    @classmethod
    def _derived(cls, *values):
        """The value with these fields, set by ``_set`` with none of
        ``__init__``'s checks: for values the library derived from
        validated ones, never for outside input."""
        out = object.__new__(cls)
        out._set(*values)
        return out

    def replace(self, **changes):
        """This value with the named fields changed, validated again."""
        return type(self)(**{f: getattr(self, f) for f in self._fields} | changes)
