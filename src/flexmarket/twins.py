"""Twins: values equal in every field but their names.

Two actors, or two loads of one retailer, are twins when they agree in
every dataclass field other than ``name``, their loads' or units' fields
included, down to the bits of each number.  Twins solve alike, so the
simulator solves twin actors once per stage and a retailer plans twin
loads as one tank.  This is the one twin rule of the package.
"""

from __future__ import annotations

import dataclasses

import numpy as np


def twin_groups(values) -> list[int]:
    """Each value's group: the index of the first value that is its twin."""
    first: dict[tuple, int] = {}
    return [first.setdefault(twin_key(value), k) for k, value in enumerate(values)]


def twin_key(value):
    """A key equal for two values exactly when they agree in every dataclass
    field but ``name``, down to the bits of each number."""
    if dataclasses.is_dataclass(value):
        return (type(value).__qualname__,) + tuple(
            twin_key(getattr(value, f.name)) for f in dataclasses.fields(value) if f.name != "name"
        )
    if isinstance(value, (list, tuple)):
        return tuple(map(twin_key, value))
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    # repr tells -0.0 from 0.0 and every float from its neighbours
    return (type(value).__qualname__, repr(value))
