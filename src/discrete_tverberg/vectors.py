"""Small exact-arithmetic vector helpers shared across the package.

Points and directions are plain tuples of ``fractions.Fraction``; keeping
them as bare tuples makes lexicographic comparison and equality plain
tuple operations.  Hashing them is not cheap: a 2-tuple of Fractions
hashes in about 1.4-2.3 us against about 0.1 us for a 2-tuple of ints
(CPython 3.11 on a 2-vCPU x86 host), so the hot paths deduplicate the
integer rows the points scale to (:func:`int_scaled`, or a lattice map)
instead of the points.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from itertools import repeat
from math import lcm
from operator import add, mul
from typing import Iterable, Sequence

Vec = tuple  # tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def require_int(value, what: str) -> int:
    """``value`` if it is an int and not a bool, else ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def vec(coords: Iterable) -> Vec:
    return tuple(map(frac, coords))


def vsub(a: Vec, b: Vec) -> Vec:
    """a - b; ValueError when the lengths differ."""
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vdot(a: Vec, b: Vec) -> Fraction:
    """a . b; ValueError when the lengths differ."""
    return sum((x * y for x, y in zip(a, b, strict=True)), ZERO)


def column_dots(u: Sequence[int], cols: Sequence) -> Iterable:
    """u.p for every point p, from the points' columns ``cols`` (as
    ``zip(*points)`` gives them), by C-level ``map``: zero entries of u are
    skipped and a column whose entry is 1 is taken as it is.  u must not be
    0.  The result is an iterable to read once."""
    terms = [col if c == 1 else map(mul, col, repeat(c)) for c, col in zip(u, cols) if c]
    return reduce(partial(map, add), terms)


def is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


def common_denominator(points: Sequence[Vec]) -> int:
    return lcm(*[c.denominator for p in points for c in p])


def int_scaled(points: Sequence[Vec]) -> tuple[list[tuple[int, ...]], int]:
    """Scale a batch of rational points by their common denominator.

    Returns integer tuples together with the scale factor D, so that
    scaled = D * original.  Convexity predicates are invariant under the
    uniform scaling, which lets hot loops run on machine-friendly ints.
    At D = 1 the integers are the numerators.
    """
    d = common_denominator(points)
    if d == 1:
        return [tuple([c.numerator for c in p]) for p in points], 1
    return [tuple([c.numerator * (d // c.denominator) for c in p]) for p in points], d
