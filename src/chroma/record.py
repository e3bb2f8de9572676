"""The base of the package's value records.

A record is a plain class whose fields are its ``__slots__``, set once by
its ``__init__``: assigning or deleting a field afterwards raises
AttributeError.  Equality (same class, equal fields), hashing and the
repr ``Name(field=value, ...)`` read the fields in slot order.  The
classes are written out rather than generated, so importing the package
runs no generated code.
"""

from __future__ import annotations


class Record:
    """Fields in ``__slots__`` order; equality, hashing and the repr read the
    leading ``_compared`` of them (every one when None)."""

    __slots__ = ()
    _compared: int | None = None

    def _init(self, *values) -> None:
        """Set the fields, in slot order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__[:self._compared])

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__[:self._compared])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple) -> None:
        # copy and pickle restore the fields (and an instance dict, where a
        # record keeps one) without running __init__
        for part in state:
            for name, value in (part or {}).items():
                object.__setattr__(self, name, value)
