"""Exact sparse linear algebra over the rationals.

Rows are dicts mapping column index to coefficient.  Elimination runs
fraction-free on integer rows (cross-multiplied updates) so intermediate
values stay integral; rational answers appear only when solutions are
read off.  Working rows are updated in place, and a working row's
content is removed once, when it is placed as a pivot, not after every
update.  `rref` is the one elimination:
`nullspace` reads its basis off the reduced rows, and `solve` reads a
particular solution off the nullspace of the augmented rows.  Pivot
selection is deterministic, so reduced forms, nullspace bases, and
particular solutions are reproducible.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

IntRow = dict[int, int]
FracRow = dict[int, Fraction]


def clear_row(row: dict[int, Fraction | int]) -> IntRow:
    """Scale one equation so all coefficients are coprime integers.

    Always a new dict, which `rref` then updates in place.  A row that is
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
    content: `rref` removes it when it places the row, and after each
    back-substitution update.
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


def rref(rows: Iterable[dict[int, Fraction | int]]) -> list[tuple[int, IntRow]]:
    """Fully reduced echelon form: one row per pivot, spanning the input rows.

    Returns (pivot_column, row) pairs sorted by pivot column; every row is
    primitive with positive pivot.

    The forward pass visits columns in ascending order, takes the shortest
    working row holding the column as pivot row (the earliest on a tie) and
    eliminates the column from the other working rows that hold it, found
    through a column index.  Each update is made in place on the working
    row, which is the new dict `clear_row` made of an input row, so the
    caller's rows are never changed; the columns it adds are listed under
    that row.  A row's content is removed once, when it is placed, not
    after each update.  Scaling a row does not change its
    length, so neither the pivot choices nor the primitive reduced rows
    depend on when content is removed.  Placed rows are left alone until
    one back-substitution pass in descending pivot order, which updates
    each placed row in place and then makes it primitive again.
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
    # Every placed row is zero in the earlier pivot columns, so reducing in
    # descending pivot order never brings a pivot column back, nor takes
    # one away: each row listed in above[col] still holds col.
    above: dict[int, list[int]] = {c: [] for c, _ in placed}
    for k, (c, r) in enumerate(placed):
        for j in r:
            if j != c and j in above:
                above[j].append(k)
    for col, piv in reversed(placed):
        for k in above[col]:
            c, r = placed[k]
            _eliminate(r, piv, col)
            placed[k] = (c, _normalize(r))
    return placed


def nullspace(
    rows: Iterable[dict[int, Fraction | int]], ncols: int
) -> list[FracRow]:
    """Basis of the right nullspace, one vector per free column, ascending.

    Every row holds columns below ncols only.  The vector of free column f
    is 1 at f and -row[f]/row[p] at the pivot p of each reduced row holding
    f, so one walk over the reduced rows reads the whole basis; its other
    entries sit at pivot columns below f.
    """
    reduced = rref(rows)
    pivots = {p for p, _ in reduced}
    basis = {f: {f: Fraction(1)} for f in range(ncols) if f not in pivots}
    for p, r in reduced:
        lead = r[p]
        for f, v in r.items():
            if f != p:
                basis[f][p] = Fraction(-v, lead)
    return list(basis.values())


def solve(
    aug_rows: Iterable[dict[int, Fraction | int]], ncols: int
) -> list[Fraction] | None:
    """Particular solution of an augmented system, free variables set to 0.

    Each row encodes sum(row[j]*x_j for j < ncols) == row.get(ncols, 0), so
    (x, -1) is a kernel vector of the augmented rows.  The basis vector of
    free column ncols, negated, is that solution with every other free
    column at 0.  Returns None when inconsistent: then ncols is a pivot.
    """
    basis = nullspace(aug_rows, ncols + 1)
    vec = next((v for v in basis if ncols in v), None)
    if vec is None:
        return None
    return [-vec.get(j, Fraction(0)) for j in range(ncols)]


def rref_rational(rows: Iterable[dict[int, Fraction | int]]) -> list[tuple[int, FracRow]]:
    """Reduced echelon rows scaled monic (pivot coefficient 1)."""
    return [
        (c, {j: Fraction(v, r[c]) for j, v in r.items()}) for c, r in rref(rows)
    ]
