"""Symmetric tridiagonal operators: storage, matvec, and the Thomas solver.

The matvec and solver below are deliberately plain Python loops.  They sit on
the per-step hot path of the integrators, and the complexity benchmark
(acceptance check 10) checks that one integration step costs O(M) wall time;
loop kernels keep the cost proportional to the system size even for the small
M used there, where vectorised calls would be dominated by fixed dispatch
overhead.  Each loop carries its neighbours in locals instead of indexing them
again: the matvec carries the left coefficient and the left and centre values
into the next row and reads only a[i], b[i] and x[i+1]; the elimination and
the back-substitution carry the last unknown they wrote.  Each result is built
with one ``np.fromiter(list, _F64, n)``: one copy into a fresh, writable
array, into which the midpoint step adds in place.  The kernels pass numpy the
dtype object ``_F64`` rather than ``float``, which it would convert on every
call.

An operator's bands are read-only, so the loops' inputs derived from them are
built once per operator, on its first matvec or solve, and reused: the bands
as Python float lists, and the Thomas factorization (pivots and eliminated
superdiagonal).  Each call then converts only the vector it is given.  It
does the arithmetic of factoring and solving afresh, in the same order, so
its result is bit-identical to doing that.  The cached lists share one float
object among equal entries: the integrators' bands and pivots repeat a few
values with the mesh period, so a cached list costs one pointer per entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_F64 = np.dtype(np.float64)

__all__ = ["TridiagonalOperator", "SingularSystemError", "tridiag_matvec", "thomas_solve"]


class SingularSystemError(ValueError):
    """Zero pivot met during elimination; the system has no unique solution."""


def _shared_floats(values) -> list:
    """``values`` as Python floats, equal entries sharing one object.

    Entries are matched by bit pattern, so 0.0 and -0.0 (which compare and
    hash equal) stay distinct.
    """
    bits, index = np.unique(np.asarray(values, dtype=np.float64).view(np.int64),
                            return_inverse=True)
    pool = bits.view(np.float64).tolist()
    return [pool[i] for i in index.tolist()]


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Square symmetric tridiagonal matrix.

    ``off[i]`` is entry (i+1, i) and entry (i, i+1), ``diag[i]`` entry
    (i, i); off has length ``size - 1``.  The bands are stored as read-only
    float64 copies of the arguments.
    """

    off: np.ndarray
    diag: np.ndarray
    size: int = field(init=False, repr=False)

    def __post_init__(self):
        off, diag = (np.array(b, dtype=np.float64) for b in (self.off, self.diag))
        if len(off) != len(diag) - 1:
            raise ValueError("band lengths must be size-1, size")
        for name, band in (("off", off), ("diag", diag)):
            band.flags.writeable = False
            object.__setattr__(self, name, band)
        object.__setattr__(self, "size", len(diag))

    @cached_property
    def _bands(self) -> tuple[list, list]:
        """(off, diag) as lists for the matvec loop."""
        return _shared_floats(self.off), _shared_floats(self.diag)

    @cached_property
    def _factors(self) -> tuple[list, list, list]:
        """(off, pivots, eliminated superdiagonal) as lists for the solve
        loops: the Thomas factorization, without pivoting, of ``_bands``;
        the off-diagonal list is ``_bands``' own.

        A zero pivot raises SingularSystemError, and nothing is cached, so
        every solve with a singular operator raises.
        """
        a, b = self._bands
        n = self.size
        piv = [0.0] * n
        cp = [0.0] * n
        pivot = b[0]
        if pivot == 0.0:
            raise SingularSystemError("zero pivot at row 0")
        piv[0] = pivot
        cp[0] = a[0] / pivot if n > 1 else 0.0
        for i in range(1, n):
            pivot = b[i] - a[i - 1] * cp[i - 1]
            if pivot == 0.0:
                raise SingularSystemError(f"zero pivot at row {i}")
            piv[i] = pivot
            if i < n - 1:
                cp[i] = a[i] / pivot
        return a, _shared_floats(piv), _shared_floats(cp)

    def to_dense(self) -> np.ndarray:
        """Dense copy, for tests and small-system diagnostics."""
        dense = np.diag(self.diag)
        dense[np.arange(1, self.size), np.arange(self.size - 1)] = self.off
        dense[np.arange(self.size - 1), np.arange(1, self.size)] = self.off
        return dense


def tridiag_matvec(op: TridiagonalOperator, v) -> np.ndarray:
    v = np.asarray(v, _F64)
    n = op.size
    if v.shape != (n,):
        raise ValueError(f"vector must have shape ({n},), got {v.shape}")
    if n == 1:
        return np.array([op.diag[0] * v[0]])
    a, b = op._bands
    x = v.tolist()
    y = [0.0] * n
    # carried: left coefficient a[i-1], left value x[i-1], centre value x[i]
    al, xl, xc = a[0], x[0], x[1]
    y[0] = b[0] * xl + al * xc
    for i in range(1, n - 1):
        ar, xr = a[i], x[i + 1]
        y[i] = al * xl + b[i] * xc + ar * xr
        al, xl, xc = ar, xc, xr
    y[n - 1] = al * xl + b[n - 1] * xc
    return np.fromiter(y, _F64, n)


def thomas_solve(op: TridiagonalOperator, rhs) -> np.ndarray:
    """Solve op @ x = rhs by the Thomas algorithm (no pivoting).

    Safe without pivoting for the diagonally dominant systems built here;
    raises SingularSystemError on an exactly zero pivot.
    """
    rhs = np.asarray(rhs, _F64)
    n = op.size
    if rhs.shape != (n,):
        raise ValueError(f"rhs must have shape ({n},), got {rhs.shape}")
    a, piv, cp = op._factors
    x = rhs.tolist()  # eliminated in place, then back-substituted in place
    prev = x[0] = x[0] / piv[0]  # carried: the last unknown written
    for i in range(1, n):
        prev = x[i] = (x[i] - a[i - 1] * prev) / piv[i]
    for i in range(n - 2, -1, -1):
        prev = x[i] = x[i] - cp[i] * prev
    return np.fromiter(x, _F64, n)
