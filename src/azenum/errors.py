"""Exception types shared across the package, the one JSON parse that
turns malformed input into an `InputError`, the cap on how much of an
input an error line shows (`shown`), and `Record`, the base of the
package's immutable value records (words, generators, group tables),
built from field values by position or by keyword, every field exactly
once; a subclass with checks validates, then calls `super().__init__`."""

import json


class AzenumError(Exception):
    """Base class for all package errors."""


class StructuralError(AzenumError):
    """A multiplication table fails the group axioms."""


class InputError(AzenumError):
    """An argument violates a documented precondition."""


class CapacityError(AzenumError):
    """The input is too large for exhaustive desk-scale checking."""


class InsufficientFamilyError(AzenumError):
    """A finite tuple family is too short to contain a usable pair.

    This is a normal outcome for short families, not a bug.
    """


class FalsificationError(AzenumError):
    """A verified property failed; carries a concrete witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def shown(text: str) -> str:
    """Text as an error line names it: its first 40 characters, and "..."
    when it is longer, so a huge argument or entry gives a short line."""
    return text if len(text) <= 40 else text[:40] + "..."


def parse_json(text: str, source: str):
    """The JSON document in `text`; InputError naming `source` if malformed,
    with an integer past int()'s digit limit or arrays nested too deep."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{source} is not JSON: {exc}") from None


class Record:
    """An immutable value whose fields are its class's `__slots__` (less a
    `__dict__` slot, kept for cached properties): equal to a record of the
    same type with equal fields, hashed as the tuple of its fields, shown
    as `Name(field=value, ...)`, and closed to assignment. Its values come
    by position, in `__slots__` order, or by keyword, every field exactly
    once, else TypeError; a subclass with checks validates its arguments,
    then calls `super().__init__`."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)  # past __setattr__

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            values += tuple([named.pop(f) for f in fields[len(values) :] if f in named])
            if named or len(values) != len(fields):
                name = f"{type(self).__qualname__}({', '.join(fields)})"
                raise TypeError(f"{name} takes each field exactly once, by position or by keyword")
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()
