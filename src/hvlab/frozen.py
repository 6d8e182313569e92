"""The base class of hvlab's immutable value classes.

A subclass of :class:`Frozen` names its fields as class annotations,
after those it inherits, and gives a default as a plain class attribute
of the same name.  It then has, as a frozen dataclass would:

- a constructor that takes the fields positionally or by keyword, fills
  in defaults and then calls ``__post_init__``, where a field is
  normalised with ``object.__setattr__``;
- no assignment or deletion of attributes (``AttributeError``);
- equality only with an instance of the same class whose fields are
  equal, and a hash over the fields;
- the repr ``Name(field=value, ...)``.

The methods are written once, here, instead of being generated per
class with ``exec`` at import time, which ``dataclasses`` does at about
1 ms a class.  Each class gets one ``operator.attrgetter`` over its
fields for equality and hashing, and a constructor call with every field
given positionally skips argument binding.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable

# Set one attribute at a time, as a dataclass does: CPython then keeps the
# values in the instance, not in a separate __dict__, which is smaller and
# faster to read.
_set = object.__setattr__


class Frozen:
    """Base of hvlab's immutable value classes; see the module docstring."""

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}
    _key: Callable[[Any], Any]

    def __init_subclass__(cls) -> None:
        own = [name for name in cls.__dict__.get("__annotations__", {}) if name not in cls._fields]
        cls._fields = fields = cls._fields + tuple(own)
        cls._defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
        cls._key = attrgetter(*fields)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple[Any, ...], kwargs: dict[str, Any]) -> list[Any]:
        """Every field's value, in order, from a call's arguments and the
        defaults; raises TypeError as a function with this signature would."""
        fields, where = cls._fields, f"{cls.__qualname__}()"
        if len(args) > len(fields):
            raise TypeError(f"{where} takes {len(fields)} arguments but {len(args)} were given")
        given = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if name in given:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
            given[name] = value
        given = {**cls._defaults, **given}
        missing = [name for name in fields if name not in given]
        if missing:
            raise TypeError(f"{where} missing required arguments: {', '.join(missing)}")
        return [given[name] for name in fields]

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
