"""Exception types shared across the package, and the one JSON parse that
turns malformed input into an `InputError`."""

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
