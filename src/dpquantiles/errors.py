"""Exception types shared across the package."""

import contextlib


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


@contextlib.contextmanager
def prefixed(prefix: str):
    """An :class:`InvalidArgumentError` inside is raised again with ``prefix``
    before its message: the key or flag the bad value came from."""
    try:
        yield
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{prefix}{exc}") from None


class DegenerateDensityError(ValueError):
    """A piecewise density carries no probability mass anywhere."""


class BoundPreconditionError(ValueError):
    """A closed-form bound was evaluated outside its validity region.

    ``guard`` names the violated precondition so callers (and the CLI,
    which maps this to a dedicated exit code) can report it.
    """

    def __init__(self, guard: str, message: str | None = None):
        super().__init__(message or f"bound precondition violated: {guard}")
        self.guard = guard
