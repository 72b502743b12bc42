"""Exceptions shared by every module (a leaf, so any module may import it)."""

__all__ = ["ConsistencyError"]


class ConsistencyError(RuntimeError):
    """A mathematical invariant failed: two routes disagree, a count is off,
    or a division that must be exact left a remainder.

    Raised explicitly, so the checks also run under ``python -O``.
    """
