"""Frozen records: the package's one idiom for immutable result types.

A subclass declares its fields as annotations, in order, defaults as class
attributes, and validates in `__post_init__`. Records compare and hash by value,
refuse assignment and deletion, and the `dataclasses` functions accept them; yet
this module imports nothing, as `dataclasses` slows a cold `seed` (see README).
"""


class _DataclassFields:
    """A record class's `__dataclass_fields__`, built by `dataclasses` itself on
    first read and then cached on the class. Only callers of the `dataclasses`
    functions read it, and they have imported `dataclasses` already."""

    def __get__(self, instance, owner):
        from dataclasses import MISSING, field, make_dataclass

        specs = [
            (name, owner.__annotations__[name],
             field(default=owner._defaults.get(name, MISSING), repr=name not in owner._hidden))
            for name in owner._fields
        ]
        owner.__dataclass_fields__ = make_dataclass(owner.__name__, specs).__dataclass_fields__
        return owner.__dataclass_fields__


class Record:
    """Base class of a frozen record; `hidden` names fields its repr leaves out."""

    def __init_subclass__(cls, hidden=()):
        cls.__dataclass_fields__ = _DataclassFields()
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
        cls._hidden = frozenset(hidden)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        given = len(args) + len(kwargs)
        if args:
            kwargs.update(zip(cls._fields, args))
        # A count that falls short is a bad call: fewer names than arguments
        # (too many positional, or one repeated by keyword), fewer values than
        # names (an unknown name) or than fields (a missing argument).
        named = len(kwargs)
        if named < len(cls._fields):
            kwargs = {**cls._defaults, **kwargs}
        values = {name: kwargs[name] for name in cls._fields if name in kwargs}
        if given != named or not len(kwargs) == len(values) == len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {', '.join(cls._fields)}, got {given} arguments")
        object.__setattr__(self, "__dict__", values)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the fields; a subclass with a rule overrides this."""

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        shown = (f"{name}={value!r}" for name, value in vars(self).items() if name not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def _replace(self, **changes):
        """A copy with some fields changed, validated as a new record is."""
        return type(self)(**{**vars(self), **changes})

    __replace__ = _replace

    def _asdict(self) -> dict:
        """The fields by name, each record among them converted the same way."""
        return {
            name: value._asdict() if isinstance(value, Record) else value
            for name, value in vars(self).items()
        }
