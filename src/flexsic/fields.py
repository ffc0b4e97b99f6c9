"""One schema for every way into a config dataclass: its type hints.

ScenarioSpec, ChannelProfile, SubcarrierGrid and ArrayGeometry call
conform_fields first in __post_init__, and spec_from_dict reads a config
file through from_fields, so a spec built in Python meets a config file's
rules. conform checks a value against its hint and returns it in the
hint's form: an int takes no bool and no float; a float or complex must be
finite, and a plain int given for a float stays as it was given; a numpy
scalar becomes the Python number it holds; a list becomes a tuple of the
declared length; a dict's int keys may be digits, as JSON writes them; a
complex takes an [re, im] pair; a dataclass takes a dict of its fields. A
value that fits no rule raises a ValueError that names the field. Value
rules, such as a positive size, stay in each __post_init__.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import numbers
import typing

import numpy as np

_KINDS = {int: numbers.Integral, float: numbers.Real, complex: numbers.Complex}


@functools.cache
def _type_hints(cls) -> dict:
    """typing.get_type_hints of a dataclass, evaluated once per class."""
    return typing.get_type_hints(cls)


def conform(key: str, value, hint):
    """value in the form of type hint; a ValueError names key if it does not fit."""
    # the fast path: the grid and both arrays are built once per scenario
    if type(value) is hint and (hint is int or hint is str):
        return value
    if isinstance(value, np.generic):
        value = value.item()
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if type(None) in args:  # an optional field, X | None
        return None if value is None else conform(key, value, args[0])
    if dataclasses.is_dataclass(hint) and isinstance(value, dict):
        return from_fields(hint, value, key, prefix=f"{key}.")
    if origin is dict and isinstance(value, dict):
        keys = [int(k) if isinstance(k, str) and k.isdecimal() else k for k in value]
        return {
            conform(key, k, args[0]): conform(key, v, args[1])
            for k, v in zip(keys, value.values())
        }
    if hint is complex and isinstance(value, (list, tuple)):  # a [re, im] pair
        return complex(*conform(key, value, tuple[float, float]))
    if origin is tuple and isinstance(value, (list, tuple)):
        items = args[:1] * len(value) if args[-1:] == (Ellipsis,) else args
        if len(value) != len(items):
            raise ValueError(f"{key} must hold {len(items)} values, got {len(value)}")
        return tuple(conform(key, v, h) for v, h in zip(value, items))
    kind = _KINDS.get(hint, hint)
    if origin is None and isinstance(value, kind) and not isinstance(value, bool):
        # json.load reads NaN and Infinity
        if hint in (float, complex) and not cmath.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")
        return complex(value) if hint is complex else value
    if hint is int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    raise ValueError(f"{key} must be {hint.__name__ if origin is None else hint}, got {value!r}")


def conform_fields(obj) -> None:
    """Conform each field of dataclass obj to its type hint, writing back each changed value."""
    for name, hint in _type_hints(type(obj)).items():
        value = getattr(obj, name)
        formed = conform(name, value, hint)
        if formed is not value:
            object.__setattr__(obj, name, formed)


def from_fields(cls, data: dict, what: str, prefix: str = ""):
    """cls built from a dict of its fields, each conformed as prefix + key; others are refused."""
    hints = _type_hints(cls)
    unknown = sorted(str(k) for k in data if k not in hints)
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")
    return cls(**{k: conform(prefix + k, v, hints[k]) for k, v in data.items()})
