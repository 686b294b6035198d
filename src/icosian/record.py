"""The base of the package's immutable records.

A record lists its fields in ``__slots__`` and sets them in ``__init__``
with ``object.__setattr__``; it is then equal, hashed and shown by those
fields in order, and assigning an attribute raises ``AttributeError``.
"""
from __future__ import annotations


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable:"
                             f" cannot set {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({shown})"
