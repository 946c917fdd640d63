"""A light base for the package's immutable value classes, in place of frozen dataclasses.

A subclass declares its fields as class annotations, in order; a class attribute
of a field's name is its default (defaults come last). A record is built by position
or keyword and checked by `_check`; it compares and hashes by value against its own
class only, and refuses assignment. Unlike dataclasses, it costs next to nothing to import.
"""


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)  # its own, in order (Python 3.10+)
        # straight into the instance dict, in field order, since __setattr__ refuses assignment;
        # a field's name is an annotation's, so never `__fields`, which a class body would mangle
        namespace = {}
        exec(f"def __init__(self, {', '.join(fields)}):\n    __fields = self.__dict__\n"
             + "".join(f"    __fields[{name!r}] = {name}\n" for name in fields)
             + "    self._check()", namespace)
        init = cls.__init__ = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__defaults__ = tuple(getattr(cls, name) for name in fields if name in cls.__dict__)

    def _check(self) -> None:
        """Refuse invalid field values; a subclass with constraints overrides this."""

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self.__dict__ == other.__dict__ if same else NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __setattr__(self, name, value=None):  # also __delattr__, which passes no value
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__name__}({fields})"
