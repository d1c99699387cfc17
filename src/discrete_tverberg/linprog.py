"""Exact linear feasibility over rationals.

Solves equality systems ``A x = b, x >= 0`` by a dense phase-1 simplex with
Bland's pivoting rule (smallest eligible column enters, smallest basis index
breaks ratio ties).  Bland's rule guarantees finite termination with no
genericity assumptions, which matters here because the geometry this backs
is routinely degenerate (collinear lattice points, repeated coordinates).

Only :func:`solve_feasibility` coerces (floats are refused);
:class:`ExactSimplex` takes ints or Fractions as given and scales the
columns and the right-hand side once by their common denominator.  Each
tableau row, the phase-1 reduced costs included, holds ``det`` times its
rational value, ``det`` being the determinant of the current basis.  A
pivot is one fraction-free Gauss-Jordan step, :func:`pivot` (Bareiss
1968), whose pivot entry becomes the new ``det``.  Simplex pivot entries
are positive, so ``det`` stays positive: the entering test reads the signs
of integers and the ratio test compares cross-multiplied integers.  The
scaling leaves the phase-1 duals, the ratios and every sign the simplex
reads unchanged, so it makes the pivots of the rational tableau of the
unscaled system and returns the same solutions and Farkas vectors; only
:meth:`ExactSimplex.solution`, :meth:`ExactSimplex.support` and
:meth:`ExactSimplex.farkas` build Fractions, and ``support`` builds them
only for the positive entries, whose signs it reads off the integer
tableau.

Every answer doubles as a certificate:

* feasible: a basic solution vector, so at most ``rank`` entries are
  nonzero and the basic columns are linearly independent;
* infeasible: a Farkas vector ``y`` with ``y . A_j <= 0`` for every column
  and ``y . b > 0``, checkable by plain rational arithmetic.

Artificial columns never re-enter the basis once they leave.  That cannot
produce a wrong verdict: a "feasible" exit carries an explicit solution,
and an "infeasible" exit carries a Farkas vector whose validity follows
from the terminal reduced costs alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .vectors import ZERO, int_scaled, vec


@dataclass
class FeasibilityResult:
    feasible: bool
    solution: Optional[list]  # per structural column, when feasible
    farkas: Optional[list]    # per row, when infeasible


def pivot(rows: list, r: int, c: int, det: int) -> int:
    """One fraction-free Gauss-Jordan step on integer rows over ``det``.

    Every row but r becomes ``(row * p - row[c] * rows[r]) // det`` with
    p = ``rows[r][c]``, which clears column c; the division is exact
    (Sylvester's identity).  Returns p, the rows' new common denominator.
    """
    prow = rows[r]
    p = prow[c]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = [(a * p - f * b) // det for a, b in zip(row, prow)]
        elif p != det:
            rows[i] = [a * p // det for a in row]
    return p


class ExactSimplex:
    """Phase-1 tableau for ``min sum(artificials)`` over ``Ax + Is = b``.

    ``columns`` is column-major: columns[j][i] is the coefficient of
    variable j in row i.  ``rows[:m]`` are the constraint rows and
    ``rows[m]`` the reduced costs with minus the objective last, all over
    the denominator ``det``.
    """

    def __init__(self, columns: Sequence[Sequence], rhs: Sequence):
        m = len(rhs)
        n = len(columns)
        self.m = m
        self.n = n
        *cols, b = int_scaled([*columns, rhs])[0]
        self.row_sign = [-1 if v < 0 else 1 for v in b]
        rows = []
        for i, s in enumerate(self.row_sign):
            row = [s * col[i] for col in cols]
            row.extend(1 if t == i else 0 for t in range(m))
            row.append(s * b[i])
            rows.append(row)
        cost = [0] * n + [1] * m + [0]
        rows.append([cj - sum(row[j] for row in rows) for j, cj in enumerate(cost)])
        self.rows = rows
        self.det = 1
        self.basis = [n + i for i in range(m)]

    def _pivot(self, row: int, col: int) -> None:
        self.det = pivot(self.rows, row, col, self.det)
        self.basis[row] = col

    def _ratio_row(self, col: int) -> Optional[int]:
        best_row = None
        for i in range(self.m):
            c = self.rows[i][col]
            if c > 0:
                v = self.rows[i][-1]
                if best_row is not None:
                    # v / c against best_v / best_c, both denominators > 0
                    lhs, rhs = v * best_c, best_v * c
                    if lhs > rhs or (lhs == rhs and self.basis[i] > self.basis[best_row]):
                        continue
                best_row, best_v, best_c = i, v, c
        return best_row

    def solve(self) -> bool:
        """Run phase 1 to termination; True iff the system is feasible."""
        n = self.n
        while True:
            red = self.rows[-1]
            enter = next((j for j in range(n) if red[j] < 0), -1)  # Bland
            if enter < 0:
                break
            row = self._ratio_row(enter)
            if row is None:
                # Phase-1 objective is bounded below by zero, so an
                # unbounded ray is impossible.
                raise AssertionError("phase-1 ratio test found no pivot row")
            self._pivot(row, enter)
        return self.rows[-1][-1] == 0

    def solution(self) -> list:
        x = [ZERO] * self.n
        for i, j in enumerate(self.basis):
            if j < self.n:
                x[j] = Fraction(self.rows[i][-1], self.det)
        return x

    def support(self) -> list:
        """The positive entries of :meth:`solution` as ``(column, Fraction)``
        pairs in column order, read off the integer tableau (``det`` > 0)."""
        return sorted(
            (j, Fraction(row[-1], self.det))
            for row, j in zip(self.rows, self.basis) if j < self.n and row[-1] > 0
        )

    def farkas(self) -> list:
        # y_i = 1 - reduced_cost(artificial_i), then undo the row flips.
        red, det = self.rows[-1], self.det
        return [s * Fraction(det - red[self.n + i], det) for i, s in enumerate(self.row_sign)]

    def force_into_basis(self, col: int) -> bool:
        """Pivot a structural column into the basis of a feasible tableau.

        Keeps feasibility (min-ratio step).  Returns False when the column
        has no positive tableau entry, which cannot happen for systems
        whose feasible region is bounded, and when a positive step would
        lift an artificial that phase 1 left basic at level 0 (a negative
        entry in its row) off zero, which would break ``Ax = b``.  Both are
        reported rather than assumed.
        """
        if col in self.basis:
            return True
        row = self._ratio_row(col)
        if row is None:
            return False
        if self.rows[row][-1] and any(
            self.rows[i][col] < 0 for i, j in enumerate(self.basis) if j >= self.n
        ):
            return False
        self._pivot(row, col)
        return True


def solve_feasibility(columns: Sequence[Sequence], rhs: Sequence) -> FeasibilityResult:
    tab = ExactSimplex([vec(col) for col in columns], vec(rhs))
    if tab.solve():
        return FeasibilityResult(True, tab.solution(), None)
    return FeasibilityResult(False, None, tab.farkas())
