"""Exception types and the value-type base shared across the package."""

from operator import attrgetter


class Value:
    """Immutable value: equality, hash and repr over the names in ``fields``.

    A subclass lists its fields in order in ``fields`` and sets each one
    with ``object.__setattr__`` or through the instance ``__dict__``, in
    ``__init__`` (or :meth:`_unchecked`); after that, assignment and
    deletion raise ``AttributeError``.  Instances of different classes
    never compare equal.  These are plain classes, not dataclasses: importing
    ``dataclasses`` and generating each class's methods cost every command
    more start-up time than the command itself takes.
    """

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.fields)

    @classmethod
    def _unchecked(cls, *values):
        """``values`` in ``fields`` order, stored without a check: each must obey ``__init__``.

        For values derived from already checked ones, such as block sums
        and derived invariant systems; tests rebuild them through the
        constructor.
        """
        self = object.__new__(cls)
        vars(self).update(zip(cls.fields, values))
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ValidationError(ValueError):
    """Input data violates a structural invariant.

    Raised for non-symmetric matrices, non-unimodular forms presented as
    closed-manifold data, non-characteristic w2 vectors, dimension
    mismatches, and malformed descriptor fields.
    """


class DescriptorError(ValidationError):
    """A descriptor document could not be parsed.

    When the JSON decoder gives the offending location, the message ends
    with "(line L, column C)".
    """


class SearchBudgetError(RuntimeError):
    """A matrix search was refused because its candidate space exceeds the step budget."""
