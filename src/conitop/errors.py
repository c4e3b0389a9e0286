"""Exception types and the value-type base shared across the package."""

from operator import attrgetter


class Value:
    """Immutable value: equality, hash and repr over the names in ``fields``.

    A subclass lists its fields in order in ``fields`` and sets each one in
    its own ``__init__`` with ``object.__setattr__``; after that, assignment
    and deletion raise ``AttributeError``.  Instances of different classes
    never compare equal.  These are plain classes, not dataclasses: importing
    ``dataclasses`` and generating each class's methods cost every command
    more start-up time than the command itself takes.
    """

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.fields)

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

    Carries the line/column of the offending location when the underlying
    JSON decoder provides one.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class SearchBudgetError(RuntimeError):
    """A matrix search was refused because its candidate space exceeds the step budget."""
