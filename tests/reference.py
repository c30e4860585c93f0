"""Reference helpers the tests share, kept out of src/ because the
library needs none of them."""

from __future__ import annotations

from typing import Sequence, Tuple


def det_int(m: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def leading_minors(m: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    return tuple(det_int([row[: k + 1] for row in m[: k + 1]]) for k in range(len(m)))
