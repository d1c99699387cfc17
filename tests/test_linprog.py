from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from discrete_tverberg.linprog import ExactSimplex, FeasibilityResult, solve_feasibility

F = Fraction
ZERO, ONE = F(0), F(1)


def assert_certificate(cols, rhs, res):
    """The answer proves itself: Ax = b with x >= 0, or a Farkas vector."""
    if res.feasible:
        x = res.solution
        assert all(v >= 0 for v in x)
        assert [sum(x[j] * c[i] for j, c in enumerate(cols)) for i in range(len(rhs))] == list(rhs)
    else:
        y = res.farkas
        assert all(sum(a * b for a, b in zip(y, c)) <= 0 for c in cols)
        assert sum(a * b for a, b in zip(y, rhs)) > 0


def test_feasible_axis_aligned():
    res = solve_feasibility([(1, 0), (0, 1)], (2, 3))
    assert res.feasible
    assert res.solution == [F(2), F(3)]


def test_zero_rhs_is_trivially_feasible():
    res = solve_feasibility([(1, 2), (3, 4)], (0, 0))
    assert res.feasible
    assert all(x == 0 for x in res.solution)


def test_infeasible_gives_farkas_certificate():
    cols = [(1, 0), (2, 0)]
    rhs = (0, 1)
    res = solve_feasibility(cols, rhs)
    assert not res.feasible
    y = res.farkas
    # y proves infeasibility: nonpositive on every column, positive on rhs
    for col in cols:
        assert sum(a * b for a, b in zip(y, col)) <= 0
    assert sum(a * b for a, b in zip(y, rhs)) > 0


def test_convex_combination_row():
    # x >= 0 with x0*(0,1) + x1*(1,1) = (t,1): encodes t in conv{0,1}
    inside = solve_feasibility([(0, 1), (1, 1)], (F(1, 2), 1))
    assert inside.feasible
    assert inside.solution == [F(1, 2), F(1, 2)]
    outside = solve_feasibility([(0, 1), (1, 1)], (2, 1))
    assert not outside.feasible


def test_negative_rhs_handled_by_row_signs():
    res = solve_feasibility([(-1, 0), (0, -1)], (-5, -7))
    assert res.feasible
    assert res.solution == [F(5), F(7)]


def test_exact_rational_solution():
    res = solve_feasibility([(3,), (7,)], (F(1, 3),))
    assert res.feasible
    x = res.solution
    assert 3 * x[0] + 7 * x[1] == F(1, 3)


def test_force_into_basis():
    # rhs is interior to the cone, so an optimal basis exists containing
    # any chosen column; forcing column 0 in must keep the system solved
    cols = [(1, 1), (1, 0), (0, 1)]
    rhs = (2, 2)
    lp = ExactSimplex(cols, rhs)
    assert lp.solve()
    assert lp.force_into_basis(0)
    x = lp.solution()
    assert x[0] > 0
    combo = [sum(x[j] * cols[j][i] for j in range(3)) for i in range(2)]
    assert combo == [F(2), F(2)]


def test_force_into_basis_keeps_artificials_at_zero():
    # phase 1 ends with artificials basic at level 0; column 1 has a
    # negative entry in one of their rows, so a positive step into it
    # would lift that artificial off zero
    cols = [(1, 0, 0, 0), (1, 0, 0, -1), (0, 0, 0, 0)]
    lp = ExactSimplex(cols, (1, 0, 0, 0))
    assert lp.solve()
    assert not lp.force_into_basis(1)
    assert lp.solution() == [1, 0, 0]
    # with b = 0 the step is 0, and the same column may enter
    lp = ExactSimplex(cols, (0, 0, 0, 0))
    assert lp.solve()
    assert lp.force_into_basis(1)
    assert lp.solution() == [0, 0, 0] and 1 in lp.basis


def test_degenerate_redundant_columns_terminate():
    cols = [(1, 0), (1, 0), (1, 0), (0, 1)]
    res = solve_feasibility(cols, (1, 1))
    assert res.feasible
    total0 = res.solution[0] + res.solution[1] + res.solution[2]
    assert total0 == 1 and res.solution[3] == 1


@pytest.mark.parametrize("cols, rhs, feasible", [
    # 2**53 + 1 is not a float: int / int ratios would pick the wrong row
    ([(1, 1), (0, 1)], (2**53 + 1, 2**53), False),
    ([(1, 1), (1, 0)], (2**53 + 1, 2**53), True),
])
def test_large_int_entries_stay_exact(cols, rhs, feasible):
    res = solve_feasibility(cols, rhs)
    assert res.feasible == feasible
    assert_certificate(cols, rhs, res)


def test_float_input_is_refused():
    with pytest.raises(TypeError):
        solve_feasibility([(1.5, 0)], (1, 0))


# ---------------------------------------------------------------------------
# reference: the rational phase-1 tableau the integer one must pivot like


class FractionSimplex:
    """Phase-1 tableau on Fractions with the same Bland rule."""

    def __init__(self, columns, rhs):
        m = len(rhs)
        n = len(columns)
        self.m = m
        self.n = n
        sign = [-1 if rhs[i] < 0 else 1 for i in range(m)]
        self.row_sign = sign
        self.rows = []
        for i in range(m):
            row = [sign[i] * columns[j][i] for j in range(n)]
            row.extend(ONE if t == i else ZERO for t in range(m))
            row.append(sign[i] * rhs[i])
            self.rows.append(row)
        self.basis = [n + i for i in range(m)]
        ncols = n + m
        reduced = []
        for j in range(ncols):
            s = ZERO
            for i in range(m):
                s += self.rows[i][j]
            cost = ZERO if j < n else ONE
            reduced.append(cost - s)
        self.reduced = reduced

    def objective(self) -> Fraction:
        total = ZERO
        for i in range(self.m):
            if self.basis[i] >= self.n:
                total += self.rows[i][-1]
        return total

    def _pivot(self, row: int, col: int) -> None:
        rows = self.rows
        prow = rows[row]
        piv = prow[col]
        if piv != 1:
            inv = ONE / piv
            prow = [v * inv for v in prow]
            rows[row] = prow
        for i in range(self.m):
            if i == row:
                continue
            f = rows[i][col]
            if f:
                target = rows[i]
                rows[i] = [a - f * b for a, b in zip(target, prow)]
        f = self.reduced[col]
        if f:
            red = self.reduced
            for j in range(len(red)):
                if prow[j]:
                    red[j] -= f * prow[j]
        self.basis[row] = col

    def _ratio_row(self, col: int) -> Optional[int]:
        best_row = None
        best_ratio = None
        for i in range(self.m):
            c = self.rows[i][col]
            if c > 0:
                ratio = self.rows[i][-1] / c
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < self.basis[best_row])):
                    best_ratio = ratio
                    best_row = i
        return best_row

    def solve(self) -> bool:
        n = self.n
        red = self.reduced
        while True:
            enter = -1
            for j in range(n):
                if red[j] < 0:
                    enter = j
                    break
            if enter < 0:
                break
            row = self._ratio_row(enter)
            assert row is not None
            self._pivot(row, enter)
        return self.objective() == 0

    def solution(self) -> list:
        x = [ZERO] * self.n
        for i in range(self.m):
            if self.basis[i] < self.n:
                x[self.basis[i]] = self.rows[i][-1]
        return x

    def farkas(self) -> list:
        return [self.row_sign[i] * (ONE - self.reduced[self.n + i]) for i in range(self.m)]

    def force_into_basis(self, col: int) -> bool:
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


ENTRIES = st.one_of(
    st.just(ZERO),
    st.integers(-3, 3).map(F),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def systems(draw):
    """Fraction systems with m <= 5 rows and n <= 10 columns: repeated
    columns, zero rows, and right-hand sides that are nonnegative
    combinations of few columns (feasible, often degenerate) or free."""
    m = draw(st.integers(0, 5))
    n = draw(st.integers(0, 8))
    cols = [tuple(draw(ENTRIES) for _ in range(m)) for _ in range(n)]
    if cols:
        cols += draw(st.lists(st.sampled_from(cols), max_size=2))
    if m and draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        cols = [c[:i] + (ZERO,) + c[i + 1:] for c in cols]
    if cols and draw(st.booleans()):
        x = [draw(st.sampled_from([ZERO, ZERO, ONE, F(1, 2), F(3)])) for _ in cols]
        rhs = tuple(sum((x[j] * c[i] for j, c in enumerate(cols)), ZERO) for i in range(m))
    else:
        rhs = tuple(draw(ENTRIES) for _ in range(m))
    return cols, rhs


@settings(max_examples=400, deadline=None)
@given(systems(), st.data())
def test_integer_tableau_pivots_like_fraction_tableau(system, data):
    cols, rhs = system
    tab, ref = ExactSimplex(cols, rhs), FractionSimplex(cols, rhs)
    feasible = tab.solve()
    assert feasible == ref.solve()
    assert tab.basis == ref.basis
    assert_certificate(cols, rhs, solve_feasibility(cols, rhs))
    if not feasible:
        assert tab.farkas() == ref.farkas()
        return
    assert tab.solution() == ref.solution()
    if cols:
        j = data.draw(st.integers(0, len(cols) - 1))
        assert tab.force_into_basis(j) == ref.force_into_basis(j)
        assert tab.basis == ref.basis
        assert tab.solution() == ref.solution()
        assert_certificate(cols, rhs, FeasibilityResult(True, tab.solution(), None))
