"""Exception types shared across the package, the one JSON parse that
turns malformed input into an `InputError`, and `Record`, the base of the
package's immutable value records (words, generators, group tables)."""

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
    as `Name(field=value, ...)`, and closed to assignment. A subclass sets
    each field in `__init__` through `object.__setattr__`."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")

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
