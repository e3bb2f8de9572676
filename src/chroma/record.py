"""The base of the package's value records.

A record is a plain class whose fields are its ``__slots__`` (less any
``__dict__``), set once: assigning or deleting a field afterwards raises
AttributeError.  ``Record.__init__`` is the one constructor, taking the
fields in slot order by position or by name; a record that checks or
builds its fields ends its own ``__init__`` in ``super().__init__``.
Each class keeps its field names in ``_fields`` and its slots' own
setters, which store past the refusing ``__setattr__``, in ``_setters``;
the records built by the hundred per operation store through them.
Equality (same class, equal fields), hashing and the repr
``Name(field=value, ...)`` read the fields in slot order.  The classes
are written out rather than generated, so importing the package runs no
generated code.
"""

from __future__ import annotations


class Record:
    """Fields in ``__slots__`` order; equality, hashing and the repr read the
    leading ``_compared`` of them (every one when None)."""

    __slots__ = ()
    _compared: int | None = None

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
        cls._usage = f"{cls.__qualname__} takes ({', '.join(cls._fields)}) by position or by name"

    def __init__(self, *values, **named) -> None:
        """The values given by position, then by name; a field missing, extra,
        unknown or given twice is a TypeError naming the fields."""
        fields = self._fields
        if named:
            try:
                values += tuple(map(named.pop, fields[len(values):]))
            except KeyError as missing:
                raise TypeError(f"{self._usage}; {missing.args[0]!r} is missing") from None
            if named:   # a name left over is given by position too, or no field's
                name = next(iter(named))
                raise TypeError(f"{self._usage}; {name!r} is "
                                f"{'given twice' if name in fields else 'unknown'}")
        if len(values) != len(fields):
            raise TypeError(f"{self._usage}; got {len(values)} values")
        for store, value in zip(self._setters, values):
            store(self, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields[:self._compared])

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields[:self._compared])
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
