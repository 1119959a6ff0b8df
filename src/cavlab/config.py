"""Settings objects: one type rule for every setting.

A settings dataclass derives from `Config`, which checks each field against
its annotation and then runs the subclass's range checks in `check`.
"""

from __future__ import annotations

import functools
import typing


class ConfigError(ValueError):
    """Invalid configuration value or unknown configuration key."""


def _read(name: str, value, kind):
    """`value` as a `kind` setting: a bool is no int, an int is a float, a list is read
    as a tuple and a JSON object as the nested Config. Raises ConfigError naming `name`."""
    args = typing.get_args(kind)
    if type(None) in args:  # Optional[X]
        if value is None:
            return None
        kind, args = args[0], typing.get_args(args[0])
    if typing.get_origin(kind) is tuple:  # tuple[X, ...]
        if isinstance(value, (list, tuple)):
            return tuple(_read(name, v, args[0]) for v in value)
        kind = list  # as the JSON side names it, in the message below
    elif issubclass(kind, Config) and isinstance(value, dict):
        return kind.from_dict(value)
    elif isinstance(value, (int, float) if kind is float else kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")


def check_types(values: dict, kinds: dict) -> dict:
    """The settings named in `kinds`, each read from `values` as its kind (a missing one is a KeyError)."""
    return {name: _read(name, values[name], kind) for name, kind in kinds.items()}


_kinds = functools.cache(typing.get_type_hints)  # a settings dataclass's fields are its annotations


class Config:
    """Base of the settings dataclasses: type checks from the annotations, then `check`."""

    def __post_init__(self):
        for name, value in check_types(vars(self), _kinds(type(self))).items():
            object.__setattr__(self, name, value)
        self.check()

    def check(self) -> None:
        """The subclass's range checks; they raise ValueError."""

    @classmethod
    def from_dict(cls, d: dict):
        """The config a JSON object describes; an unknown key raises ConfigError."""
        unknown = set(d) - set(_kinds(cls))
        if unknown:
            raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
        return cls(**d)
