"""Attribute patching shared by the trial checks and the tracer.

The benchmark observes the library from outside: it replaces a class
attribute or module global with a wrapper around the original, and puts
the original back when it is done.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations


class Patches:
    """Replaces attributes and remembers the originals for :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, wrap) -> None:
        """Set ``owner.attr`` to ``wrap(original)``."""

        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
