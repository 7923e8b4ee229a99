"""Exception types shared across the package: every input error is a ValidationError, exit 2 at the command line."""

from __future__ import annotations


class ZenolabError(Exception):
    """Base class for all package errors."""


class ValidationError(ZenolabError):
    """A precondition or structural invariant of an input failed."""


class InvariantViolation(ZenolabError):
    """A runtime invariant that should hold mathematically was violated.

    Carries the name of the failed inequality and a detail mapping so the
    caller can print a replayable diagnostic instead of a bare message.
    """

    def __init__(self, name: str, **details):
        self.name = name
        self.details = details
        parts = [name] + [f"{k}={details[k]!r}" for k in sorted(details)]
        super().__init__(" ".join(parts))
