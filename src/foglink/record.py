"""Immutable value records.

A ``Record`` subclass lists its fields as class annotations, in order, and
may check them in ``__post_init__``.  Records are built from keywords only.
Instances compare, hash and print by their field values, and no field can
be assigned or deleted once built.  ``replace`` makes a validated copy with
some fields changed.
"""

__all__ = ["Record", "replace"]


class Record:
    """Base of the frozen parameter and result records."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._field_set = frozenset(cls._fields)

    def __init__(self, **fields):
        cls = type(self)
        if fields.keys() != cls._field_set:
            for key in fields:
                if key not in cls._field_set:
                    raise TypeError(
                        f"{cls.__name__}() got an unexpected keyword argument {key!r}")
            missing = ", ".join([key for key in cls._fields if key not in fields])
            raise TypeError(f"{cls.__name__}() missing required arguments: {missing}")
        self.__dict__.update(fields)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self):
        values = self.__dict__
        return tuple([values[name] for name in self._fields])

    def __repr__(self):
        values = self.__dict__
        body = ", ".join([f"{name}={values[name]!r}" for name in self._fields])
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


def replace(record, **changes):
    """A copy of ``record`` with ``changes`` applied, validated anew."""
    return type(record)(**{**record.__dict__, **changes})
