"""Exact sparse linear algebra over the rationals.

Rows are dicts mapping column index to coefficient.  Elimination runs
fraction-free on integer rows (cross-multiplied updates) so intermediate
values stay integral; rational answers appear only when solutions are
read off.  Working rows are updated in place, and a working row's
content is removed once, when it is placed as a pivot, not after every
update.  The forward pass `_echelon` is the one elimination.  `nullspace`
back-substitutes over its echelon rows only the kernel vectors asked for,
`solve` reads a particular solution off the one kernel vector of the
augmented column, and `rref` reads the reduced rows off the whole kernel
basis.  Pivot selection is deterministic, so reduced forms, nullspace
bases, and particular solutions are reproducible.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable

IntRow = dict[int, int]
FracRow = dict[int, Fraction]


def clear_row(row: dict[int, Fraction | int]) -> IntRow:
    """Scale one equation so all coefficients are coprime integers.

    Always a new dict, which `_echelon` then updates in place.  A row that is
    already all int (every assembled row over an integral F) skips the pass
    that clears denominators; zeros are dropped while the content is
    divided out.
    """
    if any(type(c) is not int for c in row.values()):
        lcm = math.lcm(*(c.denominator for c in row.values()))
        row = {j: c.numerator * (lcm // c.denominator) for j, c in row.items()}
    g = math.gcd(*row.values())
    return {j: v // g for j, v in row.items() if v} if g else {}


def _normalize(row: IntRow) -> IntRow:
    """Primitive form, leading entry positive, of a nonempty row with no
    zero entries."""
    g = math.gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {j: v // g for j, v in row.items()}


def _eliminate(row: IntRow, piv: IntRow, col: int) -> list[int]:
    """Fraction-free update row <- a*row - b*piv, a/b = piv[col]/row[col]
    reduced, made in place on a row that holds col.

    Returns the columns the update added to row.  The row keeps its
    content: `_echelon` removes it when it places the row.
    """
    a, b = piv[col], row.pop(col)
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for j in row:
            row[j] *= a
    added = []
    for j, v in piv.items():
        if j in row:
            s = row[j] - b * v
            if s:
                row[j] = s
            else:
                del row[j]
        elif j != col:
            row[j] = -b * v
            added.append(j)
    return added


def _echelon(rows: Iterable[dict[int, Fraction | int]]) -> list[tuple[int, IntRow]]:
    """The forward pass: echelon rows spanning the input rows, one per pivot.

    Returns (pivot_column, row) pairs sorted by pivot column; every row is
    primitive with positive pivot and holds no column below its pivot.

    The pass visits columns in ascending order, takes the shortest
    working row holding the column as pivot row (the earliest on a tie) and
    eliminates the column from the other working rows that hold it, found
    through a column index.  Each update is made in place on the working
    row, which is the new dict `clear_row` made of an input row, so the
    caller's rows are never changed; the columns it adds are listed under
    that row.  A row's content is removed once, when it is placed, not
    after each update.  Scaling a row does not change its length, so
    neither the pivot choices nor the placed rows depend on when content
    is removed.
    """
    work: dict[int, IntRow] = {}
    # column -> ids of working rows that held it when listed; a row that
    # lost the column since is skipped when the column comes up
    holders: dict[int, list[int]] = {}
    for i, r in enumerate(rows):
        nr = clear_row(r)
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
        piv = _normalize(work.pop(best))
        held.discard(best)
        for i in held:
            row = work[i]
            for j in _eliminate(row, piv, col):
                holders[j].append(i)
            if not row:
                del work[i]
        placed.append((col, piv))
    return placed


def _kernel(placed: list[tuple[int, IntRow]], ncols: int, start: int) -> list[FracRow]:
    """The kernel vectors of the free columns f with start <= f < ncols,
    read off echelon rows by integer back-substitution.

    The vector v of f is 1 at f and 0 at every other free column.  A row
    with pivot above f holds only columns above f, where v is 0, so only
    the rows with pivot p below f set entries: taken in descending p, each
    sets v_p = -S/row[p], S being the row's sum over the entries already
    set.  v is kept integral, scaled by row[p]/gcd(S, row[p]) where
    needed, so v[f] is its common denominator, and Fractions are made only
    for the entries returned.  The keys are f, then the nonzero pivot
    entries in ascending order.
    """
    pivots = [p for p, _ in placed]
    taken = set(pivots)
    basis = []
    for f in range(start, ncols):
        if f in taken:
            continue
        v = {f: 1}
        for p, r in reversed(placed[:bisect_left(pivots, f)]):
            s = 0
            for j, c in r.items():
                if j in v:
                    s += c * v[j]
            if s:
                lead = r[p]
                g = math.gcd(s, lead)
                if g != lead:
                    m = lead // g
                    for j in v:
                        v[j] *= m
                v[p] = -s // g
        d = v[f]
        basis.append({f: Fraction(1), **{p: Fraction(v[p], d) for p in list(v)[:0:-1]}})
    return basis


def rref(rows: Iterable[dict[int, Fraction | int]]) -> list[tuple[int, IntRow]]:
    """Fully reduced echelon form: one row per pivot, spanning the input rows.

    Returns (pivot_column, row) pairs sorted by pivot column; every row is
    primitive with positive pivot.  The reduced row of pivot p is
    e_p - sum v_f[p] e_f over the kernel vectors v_f of the free columns,
    so it is read off the whole kernel basis of the echelon rows.
    """
    placed = _echelon(rows)
    reduced = {p: {p: Fraction(1)} for p, _ in placed}
    ncols = 1 + max((max(r) for _, r in placed), default=-1)
    for vec in _kernel(placed, ncols, 0):
        f, *ps = vec
        for p in ps:
            reduced[p][f] = -vec[p]
    return [(p, clear_row(r)) for p, r in reduced.items()]


def nullspace(
    rows: Iterable[dict[int, Fraction | int]], ncols: int, start: int = 0
) -> list[FracRow]:
    """Basis of the right nullspace, one vector per free column, ascending;
    only the vectors of the free columns from start on are built.

    Every row holds columns below ncols only.  The vector of free column f
    is 1 at f and 0 at the other free columns; its other entries sit at
    pivot columns below f, in ascending order after f.
    """
    return _kernel(_echelon(rows), ncols, start)


def solve(
    aug_rows: Iterable[dict[int, Fraction | int]], ncols: int
) -> list[Fraction] | None:
    """Particular solution of an augmented system, free variables set to 0.

    Each row encodes sum(row[j]*x_j for j < ncols) == row.get(ncols, 0), so
    (x, -1) is a kernel vector of the augmented rows.  The basis vector of
    free column ncols, negated, is that solution with every other free
    column at 0.  Returns None when inconsistent: then ncols is a pivot.
    """
    basis = nullspace(aug_rows, ncols + 1, ncols)
    if not basis:
        return None
    vec = basis[0]
    return [-vec.get(j, Fraction(0)) for j in range(ncols)]


def rref_rational(rows: Iterable[dict[int, Fraction | int]]) -> list[tuple[int, FracRow]]:
    """Reduced echelon rows scaled monic (pivot coefficient 1)."""
    return [
        (c, {j: Fraction(v, r[c]) for j, v in r.items()}) for c, r in rref(rows)
    ]
