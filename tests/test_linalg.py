"""Fraction-free elimination cross-checked against a dense Fraction oracle."""

import copy
import math
import random
from fractions import Fraction
from typing import Iterable

import pytest

from bsideal.linalg import IntRow, clear_row, nullspace, rref, rref_rational, solve


def dense_rref(rows, ncols):
    """Textbook Gauss-Jordan over Fraction, returns reduced dense rows."""
    mat = [[Fraction(r.get(j, 0)) for j in range(ncols)] for r in rows]
    piv = 0
    pivots = []
    for col in range(ncols):
        hit = next((i for i in range(piv, len(mat)) if mat[i][col] != 0), None)
        if hit is None:
            continue
        mat[piv], mat[hit] = mat[hit], mat[piv]
        inv = mat[piv][col]
        mat[piv] = [v / inv for v in mat[piv]]
        for i in range(len(mat)):
            if i != piv and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b if b else a for a, b in zip(mat[i], mat[piv])]
        pivots.append(col)
        piv += 1
    return mat[:piv], pivots


def rand_rows(rng, nrows, ncols, density=0.6):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                v = rng.randint(-5, 5)
                if v:
                    row[j] = v
        rows.append(row)
    return rows


def sparse_rows(rng, ncols):
    """Sparse rows with duplicate, scaled, dependent and empty rows mixed in."""
    rows = rand_rows(rng, rng.randint(ncols // 2, ncols + 10), ncols, density=0.08)
    for _ in range(rng.randint(3, 8)):
        kind = rng.choice(("duplicate", "scaled", "dependent", "empty"))
        r1, r2 = rng.choice(rows), rng.choice(rows)
        if kind == "duplicate":
            new = dict(r1)
        elif kind == "scaled":
            c = Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 7)))
            new = {j: c * v for j, v in r1.items()}
        elif kind == "dependent":
            c1, c2 = rng.randint(-3, 3), rng.randint(-3, 3)
            new = {j: c1 * r1.get(j, 0) + c2 * r2.get(j, 0) for j in set(r1) | set(r2)}
            new = {j: v for j, v in new.items() if v}
        else:
            new = {}
        rows.insert(rng.randint(0, len(rows)), new)
    return rows


def monic_dense(col, row, ncols):
    lead = Fraction(row[col])
    return [Fraction(row.get(j, 0)) / lead for j in range(ncols)]


def dense_nullspace(rows, ncols):
    """Kernel basis from the dense oracle: 1 at a free column, 0 at the others."""
    reduced, pivots = dense_rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = {f: Fraction(1)}
        for p, row in zip(pivots, reduced):
            if row[f]:
                vec[p] = -row[f]
        basis.append(vec)
    return basis


def test_clear_row():
    row = {0: Fraction(1, 2), 3: Fraction(-2, 3)}
    assert clear_row(row) == {0: 3, 3: -4}
    assert clear_row({}) == {}


def test_rref_matches_dense_oracle():
    rng = random.Random(405)
    for _ in range(40):
        ncols = rng.randint(1, 6)
        rows = rand_rows(rng, rng.randint(1, 6), ncols)
        got = rref(rows)
        want, want_pivots = dense_rref(rows, ncols)
        assert [c for c, _ in got] == want_pivots
        # same row space in reduced form: normalize got rows to monic dense
        for (col, row), dense in zip(got, want):
            lead = Fraction(row[col])
            assert [Fraction(row.get(j, 0)) / lead for j in range(ncols)] == dense


def test_rref_matches_dense_oracle_large_sparse():
    rng = random.Random(408)
    for _ in range(12):
        ncols = rng.randint(30, 60)
        rows = sparse_rows(rng, ncols)
        got = rref(rows)
        want, want_pivots = dense_rref(rows, ncols)
        assert [c for c, _ in got] == want_pivots
        for (col, row), dense in zip(got, want):
            assert row[col] > 0
            assert monic_dense(col, row, ncols) == dense


def test_solve_matches_dense_oracle_large_sparse():
    rng = random.Random(409)
    for trial in range(12):
        ncols = rng.randint(30, 60)
        a_rows = sparse_rows(rng, ncols)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
        aug = []
        for row in a_rows:
            rhs = sum(v * x[j] for j, v in row.items())
            aug.append({**row, ncols: rhs} if rhs else dict(row))
        if trial % 2:
            # a row whose left side is a combination of others but whose
            # right side disagrees makes the system inconsistent
            aug.append({**a_rows[0], ncols: aug[0].get(ncols, 0) + 1})
        want, pivots = dense_rref(aug, ncols + 1)
        if trial % 2:
            assert ncols in pivots
            assert solve(aug, ncols) is None
            continue
        # consistent: the right-hand side is no pivot, and the particular
        # solution is the reduced right-hand side with free variables at 0
        assert ncols not in pivots
        want_x = [Fraction(0)] * ncols
        for p, row in zip(pivots, want):
            want_x[p] = row[ncols]
        assert solve(aug, ncols) == want_x


def test_nullspace_large_sparse_matches_dense_oracle():
    rng = random.Random(410)
    for _ in range(12):
        ncols = rng.randint(30, 60)
        rows = sparse_rows(rng, ncols)
        assert nullspace(rows, ncols) == dense_nullspace(rows, ncols)


def test_nullspace_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(411)
    for _ in range(6):
        ncols = rng.randint(30, 60)
        rows = sparse_rows(rng, ncols)
        mat = sympy.Matrix(
            [[sympy.Rational(str(Fraction(r.get(j, 0)))) for j in range(ncols)] for r in rows]
        )
        want = [
            {j: Fraction(int(v.p), int(v.q)) for j, v in enumerate(vec) if v}
            for vec in mat.nullspace()
        ]
        assert nullspace(rows, ncols) == want


def test_nullspace_annihilates():
    rng = random.Random(406)
    for _ in range(40):
        ncols = rng.randint(1, 6)
        rows = rand_rows(rng, rng.randint(1, 6), ncols)
        basis = nullspace(rows, ncols)
        rank = len(dense_rref(rows, ncols)[0])
        assert len(basis) == ncols - rank
        for vec in basis:
            for row in rows:
                dot = sum(Fraction(v) * vec.get(j, 0) for j, v in row.items())
                assert dot == 0


def test_solve_consistent_and_inconsistent():
    # x + y = 3, x - y = 1
    rows = [{0: 1, 1: 1, 2: 3}, {0: 1, 1: -1, 2: 1}]
    sol = solve(rows, 2)
    assert sol == [Fraction(2), Fraction(1)]
    # x + y = 1, x + y = 2
    rows = [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 2: 2}]
    assert solve(rows, 2) is None


def test_solve_random_systems():
    rng = random.Random(407)
    for _ in range(30):
        ncols = rng.randint(1, 5)
        a_rows = rand_rows(rng, rng.randint(1, 5), ncols)
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
        aug = []
        for row in a_rows:
            rhs = sum(Fraction(v) * x[j] for j, v in row.items())
            r = dict(row)
            if rhs:
                r[ncols] = rhs
            aug.append(r)
        sol = solve(aug, ncols)
        assert sol is not None
        for row in a_rows:
            want = sum(Fraction(v) * x[j] for j, v in row.items())
            got = sum(Fraction(v) * sol[j] for j, v in row.items())
            assert got == want


def test_rref_when_a_row_regains_a_column():
    # The last row loses column 2 when column 0 is eliminated and gets it
    # back when column 1 is, so the column index lists it under column 2
    # twice; it must still be updated once there.
    rows = [{0: 1, 2: 1}, {1: 1, 2: 1}, {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}]
    assert rref(rows) == [
        (0, {0: 1, 3: 1, 4: 1}),
        (1, {1: 1, 3: 1, 4: 1}),
        (2, {2: 1, 3: -1, 4: -1}),
    ]
    assert rref(rows) == reference_rref(rows)
    assert nullspace(rows, 5) == [
        {3: 1, 0: -1, 1: -1, 2: 1},
        {4: 1, 0: -1, 1: -1, 2: 1},
    ]


def test_rref_rational_monic():
    rows = [{0: Fraction(2), 1: Fraction(4)}, {0: Fraction(1), 1: Fraction(3)}]
    red = rref_rational(rows)
    assert red == [(0, {0: Fraction(1)}), (1, {1: Fraction(1)})]


# Reference: the elimination that makes every updated row primitive.  rref,
# which removes a row's content only when it places the row, must give the
# same rows, and nullspace the same basis.  Kept as first written, but for
# the name of rref.

def _normalize(row: IntRow) -> IntRow:
    """Primitive form, leading entry positive, of a row with no zero entries."""
    if not row:
        return row
    g = math.gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {j: v // g for j, v in row.items()}


def _eliminate(row: IntRow, piv: IntRow, col: int) -> IntRow:
    """Fraction-free update: piv[col]*row - row[col]*piv, made primitive."""
    b = row.get(col, 0)
    if not b:
        return row
    a = piv[col]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    out = {j: a * v for j, v in row.items()} if a != 1 else dict(row)
    for j, v in piv.items():
        s = out.get(j, 0) - b * v
        if s:
            out[j] = s
        else:
            del out[j]
    return _normalize(out)


def reference_rref(rows: Iterable[dict[int, Fraction | int]]) -> list[tuple[int, IntRow]]:
    """Fully reduced echelon form: one row per pivot, spanning the input rows.

    Returns (pivot_column, row) pairs sorted by pivot column; every row is
    primitive with positive pivot.

    The forward pass visits columns in ascending order, takes the shortest
    working row holding the column as pivot row (the earliest on a tie) and
    eliminates the column from the other working rows that hold it, found
    through a column index.  Placed rows are left alone until one
    back-substitution pass in descending pivot order.
    """
    work: dict[int, IntRow] = {}
    # column -> ids of working rows that held it when listed; a row that
    # lost the column since is skipped when the column comes up
    holders: dict[int, list[int]] = {}
    for i, r in enumerate(rows):
        nr = _normalize(clear_row(r))
        if nr:
            work[i] = nr
            for j in nr:
                holders.setdefault(j, []).append(i)
    placed: list[tuple[int, IntRow]] = []
    for col in sorted(holders):
        held = {i for i in holders.pop(col) if col in work.get(i, ())}
        if not held:
            continue
        best = min(held, key=lambda i: (len(work[i]), i))
        piv = work.pop(best)
        held.discard(best)
        for i in held:
            old = work[i]
            new = _eliminate(old, piv, col)
            for j in new.keys() - old.keys():
                holders[j].append(i)
            if new:
                work[i] = new
            else:
                del work[i]
        placed.append((col, piv))
    # Every placed row is zero in the earlier pivot columns, so reducing in
    # descending pivot order never brings a pivot column back.
    above: dict[int, list[int]] = {c: [] for c, _ in placed}
    for k, (c, r) in enumerate(placed):
        for j in r:
            if j != c and j in above:
                above[j].append(k)
    for col, piv in reversed(placed):
        for k in above[col]:
            c, r = placed[k]
            placed[k] = (c, _eliminate(r, piv, col))
    return placed


def reference_nullspace(rows, ncols):
    """Kernel basis read off reference_rref, one vector per free column."""
    reduced = reference_rref(rows)
    pivots = {p for p, _ in reduced}
    return [
        {f: Fraction(1), **{p: Fraction(-r[f], r[p]) for p, r in reduced if f in r}}
        for f in range(ncols)
        if f not in pivots
    ]


def check_against_reference(system):
    ncols, rows = system
    before = copy.deepcopy(rows)
    assert rref(rows) == reference_rref(rows)
    assert nullspace(rows, ncols) == reference_nullspace(rows, ncols)
    # rref updates its own copies of the rows in place, never the caller's
    assert rows == before


def test_rref_matches_reference_on_sparse_systems():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    entries = st.integers(-9, 9) | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))

    @st.composite
    def sparse_systems(draw):
        """Sparse rows over int and Fraction, with zero and duplicate rows mixed in."""
        ncols = draw(st.integers(1, 12))
        rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entries, max_size=4), max_size=14))
        for _ in range(draw(st.integers(0, 3))):
            new = dict(draw(st.sampled_from(rows))) if rows and draw(st.booleans()) else {}
            rows.insert(draw(st.integers(0, len(rows))), new)
        return ncols, rows

    settings(max_examples=300, deadline=None)(given(sparse_systems())(check_against_reference))()


def test_rref_matches_reference_on_long_rows():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def long_row_systems(draw):
        """One to three dense rows and a chain of two-entry rows, one starting at
        every column but the last: the short rows are the pivots, so each dense
        row is updated at nearly every column."""
        ncols = draw(st.integers(4, 24))
        nonzero = st.integers(1, 9).flatmap(lambda v: st.sampled_from((v, -v)))
        rows = [{j: draw(nonzero) for j in range(ncols)} for _ in range(draw(st.integers(1, 3)))]
        for j in range(ncols - 1):
            rows.append({j: draw(nonzero), draw(st.integers(j + 1, ncols - 1)): draw(nonzero)})
        return ncols, draw(st.permutations(rows))

    settings(max_examples=100, deadline=None)(given(long_row_systems())(check_against_reference))()
