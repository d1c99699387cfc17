"""Small exact-arithmetic vector helpers shared across the package.

Points and directions are plain tuples of ``fractions.Fraction``; keeping
them as bare tuples makes lexicographic comparison, hashing and
deduplication free, which the rest of the package leans on heavily.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
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


def vec(coords: Iterable) -> Vec:
    return tuple(frac(c) for c in coords)


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vdot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), ZERO)


def is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


def common_denominator(points: Sequence[Vec]) -> int:
    d = 1
    for p in points:
        for c in p:
            d = lcm(d, c.denominator)
    return d


def int_scaled(points: Sequence[Vec]) -> tuple[list[tuple[int, ...]], int]:
    """Scale a batch of rational points by their common denominator.

    Returns integer tuples together with the scale factor D, so that
    scaled = D * original.  Convexity predicates are invariant under the
    uniform scaling, which lets hot loops run on machine-friendly ints.
    """
    d = common_denominator(points)
    out = [tuple(c.numerator * (d // c.denominator) for c in p) for p in points]
    return out, d

