"""Ranges of a class's fields, written once on the fields themselves.

A `bounded` field takes a finite real number (not a bool) inside its bounds,
or None if that is its default; an `entries` field a square matrix with
off-diagonal entries in an open interval.  The class's `__post_init__` calls
`check_fields`, and `scenario.validate` reads the same `rules`.
"""

import math
from dataclasses import MISSING, field, fields
from functools import cache
from numbers import Real

import numpy as np

REAL = (float, int, Real)  # numpy scalars too; float and int skip Real's slow check


def bounded(default=MISSING, *, gt=None, ge=None):
    """A field whose value is a finite number > gt and >= ge, or its default None."""
    return field(default=default, metadata={"bound": (gt, ge, default is None)})


def entries(lo: float, hi: float):
    """A square matrix field whose off-diagonal entries lie in (lo, hi)."""
    return field(metadata={"entries": (lo, hi)})


def problem(value, gt=None, ge=None, le=None, nullable=False, kind=REAL):
    """What is wrong with value as a `kind` number (REAL, JSON's (int, float), int) in range, or None."""
    if value is None and nullable:
        return None
    if isinstance(value, bool) or not isinstance(value, kind):
        return "must be an integer" if kind is int else "must be a number"
    if kind is not int and not math.isfinite(value):
        return "must be finite"
    if gt is not None and not value > gt:
        return f"must be > {gt}"
    if ge is not None and not value >= ge:
        return f"must be >= {ge}"
    if le is not None and not value <= le:
        return f"must be <= {le}"
    return None


@cache
def rules(cls):
    """cls's init fields: (required names, {bounded: (gt, ge, nullable)}, {entries: (lo, hi)}, defaults)."""
    init = [fld for fld in fields(cls) if fld.init]
    return (
        [fld.name for fld in init if fld.default is MISSING],
        {fld.name: fld.metadata["bound"] for fld in init if "bound" in fld.metadata},
        {fld.name: fld.metadata["entries"] for fld in init if "entries" in fld.metadata},
        {fld.name: fld.default for fld in init if fld.default is not MISSING},
    )


def problems(cls, values, path="", kind=REAL) -> list[str]:
    """`{path}{name}: {problem}` for each bounded field of cls that values maps out of range."""
    return [f"{path}{name}: {text}" for name, (gt, ge, nullable) in rules(cls)[1].items()
            if name in values and (text := problem(values[name], gt, ge, None, nullable, kind))]


def matrix_problem(m: np.ndarray, lo: float, hi: float):
    """What is wrong with m as a square matrix of off-diagonal entries in (lo, hi), or None."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return "must be a square matrix"
    off = m[~np.eye(len(m), dtype=bool)]
    if not ((off > lo) & (off < hi)).all():
        return f"off-diagonal entries must lie in ({lo}, {hi})"
    return None


def check_fields(obj) -> None:
    """Raise ValueError naming obj's first field out of range; make `entries` read-only floats."""
    for text in problems(type(obj), vars(obj)):
        raise ValueError(text)
    for name, (lo, hi) in rules(type(obj))[2].items():
        m = np.array(getattr(obj, name), dtype=float)
        text = matrix_problem(m, lo, hi)
        if text is not None:
            raise ValueError(f"{name}: {text}")
        m.setflags(write=False)
        object.__setattr__(obj, name, m)
