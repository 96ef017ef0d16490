"""Frozen value records, without the standard library's record decorator.

``frozen`` turns an annotated class into an immutable record: an
``__init__`` taking the annotated fields in order (a class attribute is
its default), which calls ``__post_init__`` when the class has one;
equality and hash over the field tuple, for records of the same class
only; a ``Name(field=value, ...)`` repr; and ``FrozenInstanceError`` on
assignment or deletion.  ``__post_init__`` may normalise a field with
``object.__setattr__``.  Records pickle through their ``__dict__``.

That decorator's module costs milliseconds to import (it loads
``inspect``), and it compiles six methods per frozen class with ``exec``.
Here only ``__init__`` is compiled, as one straight-line function per
class, so a constructor costs the same; the other methods are closures
over the field names.
"""

from __future__ import annotations

__all__ = ["FrozenInstanceError", "frozen"]


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen record."""


def frozen(cls: type) -> type:
    """Make ``cls`` a frozen record over its annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    cls.__init__ = _init(cls, names)

    def fields(self):
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(names, fields(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


def _init(cls: type, names: tuple[str, ...]):
    """Compile ``__init__(self, *names)``, setting each field in turn; a
    field's class attribute is its default.  A field without a default
    after one with a default is a SyntaxError here."""
    params = ["self"] + [f"{n}=_cls.{n}" if n in cls.__dict__ else n
                         for n in names]
    body = [f"_set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    source = (f"def __init__({', '.join(params)}):\n    "
              + ("\n    ".join(body) or "pass"))
    namespace = {"__name__": cls.__module__, "_cls": cls,
                 "_set": object.__setattr__}
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init
