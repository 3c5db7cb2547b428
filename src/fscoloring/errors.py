"""Shared exception types and the resource guards they report on."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Guards:
    """Numeric resource bounds, overridable from configs and the CLI.

    The field defaults are the library's only guard defaults: every
    guarded function takes its default bound from here.
    """

    block_exponent: int = 20
    tree_exponent: int = 16
    request_exponent: int = 8
    chain_bits: int = 64
    blind_bound: int = 65536
    horizon: int = 24
    search_combinations: int = 5_000_000

    @classmethod
    def from_payload(cls, payload: Optional[dict], **overrides) -> "Guards":
        values = {}
        for name in cls.__dataclass_fields__:
            if payload and name in payload:
                values[name] = int(payload[name])
        for name, value in overrides.items():
            if value is not None:
                values[name] = int(value)
        return cls(**values)

    def to_payload(self) -> dict:
        return {name: str(getattr(self, name)) for name in self.__dataclass_fields__}


class GuardError(RuntimeError):
    """A resource guard refused an exponentially sized materialization.

    Carries the name of the guard and the bound that tripped so callers
    (and the command line) can report exactly what to raise.
    """

    def __init__(self, guard, bound, requested):
        self.guard = guard
        self.bound = bound
        self.requested = requested
        super().__init__(
            "guard %r exceeded: requested %s, bound %s" % (guard, requested, bound)
        )


class FixtureError(ValueError):
    """A fixture family or schedule violates its declared shape."""


class MissingOracleError(RuntimeError):
    """An operation needed truth/settling oracles the family does not carry."""


class WitnessSearchError(RuntimeError):
    """A bounded witness search exhausted its budget without a witness.

    This is an explicit "not found within bound" outcome, never a claim
    that no witness exists.
    """

    def __init__(self, message, *, bound=None, quantifier=None):
        self.bound = bound
        self.quantifier = quantifier
        super().__init__(message)


class VerificationError(RuntimeError):
    """Recomputation of a claimed equality or inequality disagreed."""
