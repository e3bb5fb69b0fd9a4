"""Frozen records: the package's one idiom for immutable result types.

A subclass declares its fields as annotations, in order, defaults as class
attributes, and validates in `__post_init__`. A record is built by keyword,
compares and hashes by value within its class, and refuses assignment and
deletion; this module imports nothing, as `dataclasses` slows a cold `seed`
(see README).
"""


class Record:
    """Base class of a frozen record; `hidden` names fields its repr leaves out."""

    def __init_subclass__(cls, hidden=()):
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
        # Every field in order, with its default or None: a record's values
        # are this template overwritten by keyword, so they keep this order.
        cls._template = {name: vars(cls).get(name) for name in cls._fields}
        cls._required = frozenset(name for name in cls._fields if name not in vars(cls))
        cls._hidden = frozenset(hidden)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        values = {**cls._template, **kwargs}
        # An unknown name adds a value; a missing one leaves kwargs short.
        if args or len(values) != len(cls._fields) or not kwargs.keys() >= cls._required:
            raise TypeError(f"{cls.__name__}() takes keyword arguments {', '.join(cls._fields)}")
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

    def _asdict(self) -> dict:
        """The fields by name, each record among them converted the same way."""
        return {
            name: value._asdict() if isinstance(value, Record) else value
            for name, value in vars(self).items()
        }
