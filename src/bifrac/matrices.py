"""Exact rational linear algebra for small dense matrices.

One Gauss-Jordan elimination over Fraction entries does every job:
the rank is its pivot count, and the normal forms are built from its
reduced row echelon form and its record of row operations.  Pivots are always the first nonzero entry in column
order: with exact arithmetic no magnitude heuristics are needed and
the output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

from .exponents import BifracError, parse_rational


class RankDeficientStackError(BifracError):
    """Stacked matrix does not have full column rank."""


@dataclass(frozen=True)
class RationalMatrix:
    rows: int
    cols: int
    entries: tuple  # row-major Fractions, length rows*cols

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows * self.cols:
            raise BifracError("entry count does not match shape")

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "RationalMatrix":
        """The matrix of a list (or tuple) of rows, each a list (or
        tuple) of exact rationals; a string is not read as a row."""
        if not (isinstance(data, (list, tuple))
                and all(isinstance(row, (list, tuple)) for row in data)):
            raise BifracError(f"expected a list of rows, got {data!r}")
        rows = len(data)
        cols = len(data[0]) if rows else 0
        ent = []
        for row in data:
            if len(row) != cols:
                raise BifracError("ragged rows")
            ent.extend(parse_rational(v) for v in row)
        return cls(rows, cols, tuple(ent))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        ent = [Fraction(1) if i == j else Fraction(0)
               for i in range(n) for j in range(n)]
        return cls(n, n, tuple(ent))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, (Fraction(0),) * (rows * cols))

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> List[Fraction]:
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def to_lists(self) -> List[List[Fraction]]:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "RationalMatrix":
        ent = [self[i, j] for j in range(self.cols) for i in range(self.rows)]
        return RationalMatrix(self.cols, self.rows, tuple(ent))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise BifracError("shape mismatch in product")
        ent = []
        for i in range(self.rows):
            for j in range(other.cols):
                ent.append(sum((self[i, k] * other[k, j]
                                for k in range(self.cols)), Fraction(0)))
        return RationalMatrix(self.rows, other.cols, tuple(ent))

    def stack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.cols:
            raise BifracError("column count mismatch in stack")
        return RationalMatrix(self.rows + other.rows, self.cols,
                              self.entries + other.entries)

    def to_float(self):
        import numpy as np
        return np.array([[float(v) for v in self.row(i)]
                         for i in range(self.rows)], dtype=float)

    def __str__(self) -> str:
        return "[" + "; ".join(
            " ".join(str(v) for v in self.row(i)) for i in range(self.rows)
        ) + "]"


def rank(M: RationalMatrix) -> int:
    """Exact rank: the pivot count of the Gauss-Jordan elimination."""
    return len(_gauss_jordan(M)[2])


def signature(D1: RationalMatrix, D2: RationalMatrix) -> tuple:
    """Rank signature (n1, n2, m, r1, r2, stacked_rank) of a matrix pair.

    The bilinear characterization depends on (D1, D2) only through
    these six integers.
    """
    stacked = rank(D1.stack(D2))
    return D1.rows, D2.rows, D1.cols, rank(D1), rank(D2), stacked


def _gauss_jordan(M: RationalMatrix):
    """Return (R, P) with P @ M = R in reduced row echelon form.

    P is the invertible record of the row operations; pivot columns
    are returned as well.
    """
    a = M.to_lists()
    p = RationalMatrix.identity(M.rows).to_lists()
    n_rows, n_cols = M.rows, M.cols
    pivots: List[int] = []
    r = 0
    for col in range(n_cols):
        piv = next((i for i in range(r, n_rows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p[r], p[piv] = p[piv], p[r]
        inv = 1 / a[r][col]
        a[r] = [v * inv for v in a[r]]
        p[r] = [v * inv for v in p[r]]
        for i in range(n_rows):
            if i == r or a[i][col] == 0:
                continue
            f = a[i][col]
            a[i] = [u - f * v for u, v in zip(a[i], a[r])]
            p[i] = [u - f * v for u, v in zip(p[i], p[r])]
        pivots.append(col)
        r += 1
    return (RationalMatrix.from_rows(a) if n_rows else M,
            RationalMatrix.from_rows(p),
            pivots)


@dataclass(frozen=True)
class SingleNormalForm:
    """P (n x n), Q (m x m) invertible with P D Q = [[I_r, 0], [0, 0]]."""

    P: RationalMatrix
    Q: RationalMatrix
    r: int

    def reconstructs(self, D: RationalMatrix) -> bool:
        want = _block_identity(D.rows, D.cols, list(range(self.r)))
        return (self.P @ D @ self.Q).entries == want.entries


def _block_identity(rows: int, cols: int, id_cols: Sequence[int]) -> RationalMatrix:
    """rows x cols matrix whose i-th row has a 1 in column id_cols[i]."""
    ent = [[Fraction(0)] * cols for _ in range(rows)]
    for i, j in enumerate(id_cols):
        ent[i][j] = Fraction(1)
    return RationalMatrix.from_rows(ent) if rows else RationalMatrix.zero(rows, cols)


def _permutation(order: Sequence[int]) -> RationalMatrix:
    """Permutation matrix E such that column k of M @ E is column
    order[k] of M."""
    m = len(order)
    return RationalMatrix.from_rows(
        [[Fraction(1) if order[k] == i else Fraction(0) for k in range(m)]
         for i in range(m)])


def single_normal_form(D: RationalMatrix) -> SingleNormalForm:
    """Rank factorization P D Q = block identity of rank r = rank(D)."""
    rref, P, pivots = _gauss_jordan(D)
    r = len(pivots)
    m = D.cols
    # Column permutation bringing pivot columns to the front.
    perm = _permutation(list(pivots) + [j for j in range(m)
                                        if j not in pivots])
    u = rref @ perm  # top-left r x r is now I_r
    # Clear the top-right block by column elimination.
    elim = RationalMatrix.identity(m).to_lists()
    for i in range(r):
        for j in range(r, m):
            elim[i][j] = -u[i, j]
    Q = perm @ RationalMatrix.from_rows(elim)
    form = SingleNormalForm(P=P, Q=Q, r=r)
    if not form.reconstructs(D):
        raise RuntimeError("single normal form does not reduce D")
    return form


@dataclass(frozen=True)
class JointNormalForm:
    """Simultaneous reduction of an (n1 x m, n2 x m) pair.

    P1 D1 Q = identity of size r1 in the FIRST r1 columns, zeros
    elsewhere; P2 D2 Q = identity of size r2 in the LAST r2 columns.
    Column blocks have widths (m - r2, r1 + r2 - m, m - r1).
    """

    P1: RationalMatrix
    P2: RationalMatrix
    Q: RationalMatrix
    r1: int
    r2: int
    m: int

    @property
    def block_widths(self):
        return (self.m - self.r2, self.r1 + self.r2 - self.m, self.m - self.r1)

    def reconstructs(self, D1: RationalMatrix, D2: RationalMatrix) -> bool:
        want1 = _block_identity(D1.rows, self.m, list(range(self.r1)))
        want2 = _block_identity(D2.rows, self.m,
                                list(range(self.m - self.r2, self.m)))
        return ((self.P1 @ D1 @ self.Q).entries == want1.entries
                and (self.P2 @ D2 @ self.Q).entries == want2.entries)


def joint_normal_form(D1: RationalMatrix, D2: RationalMatrix) -> JointNormalForm:
    """Joint block reduction of a matrix pair with full-rank stack.

    Requires rank of the stacked (n1+n2) x m matrix to equal m.  The
    columns of D2 completing the independent set are the
    lexicographically first admissible choice, so the output is
    deterministic.
    """
    _, _, m, r1, r2, stacked = signature(D1, D2)
    if stacked != m:
        raise RankDeficientStackError("stacked rank < m")

    # Q1 zeroes the last m - r1 columns of D1, so those columns of
    # E = D2 Q1 are independent.  Gauss-Jordan on E's columns in the
    # order (last m - r1 | first r1) takes them as the first pivots,
    # then the lexicographically first completion from the first r1;
    # its RREF writes every other column in terms of the pivots.
    q1 = single_normal_form(D1).Q
    last = list(range(r1, m))
    cols = last + list(range(r1))
    rref, _, pivots = _gauss_jordan(D2 @ q1 @ _permutation(cols))
    indep = [cols[k] for k in pivots]
    chosen = indep[m - r1:]
    if indep[:m - r1] != last or len(chosen) != r1 + r2 - m:
        raise RuntimeError("no column completion of the expected size")
    dependent = [j for j in range(r1) if j not in chosen]  # m - r2 of them

    # Column elimination: replace each dependent column by its residual
    # against the independent set (zero in the D2 block), then permute
    # to (dependent | chosen | last).
    elim = RationalMatrix.identity(m).to_lists()
    for j in dependent:
        for row, k in enumerate(indep):
            elim[k][j] = -rref[row, cols.index(j)]
    q2 = RationalMatrix.from_rows(elim) @ _permutation(dependent + chosen
                                                       + last)
    Q = q1 @ q2

    # Row reductions: both D_i Q now have full-column-rank live blocks.
    g1 = D1 @ Q
    rref1, P1, piv1 = _gauss_jordan(g1)
    g2 = D2 @ Q
    rref2, p2_raw, piv2 = _gauss_jordan(g2)
    if piv1 != list(range(r1)) or piv2 != list(range(m - r2, m)):
        raise RuntimeError("column reduction left misplaced pivots")
    form = JointNormalForm(P1=P1, P2=p2_raw, Q=Q, r1=r1, r2=r2, m=m)
    if not form.reconstructs(D1, D2):
        raise RuntimeError("joint normal form does not reduce (D1, D2)")
    return form
