"""Exact integer linear algebra on small dense matrices.

All arithmetic is done with arbitrary-precision Python integers; no
floating point is used anywhere.  Matrix entries routinely exceed 64 bits
in witnesses and solution orbits, so there is deliberately no fixed-width
fast path.

The module provides:

* ``IntMatrix``, an immutable dense matrix (``from_rows`` and the
  parsers take int entries only; nothing is truncated);
* exact determinants and unimodular inverses;
* ``_power_sum`` and ``_power``, the one source of matrix powers and geometric
  sums (``IntMatrix.__pow__`` and the group laws read their bounded cache);
* ``unit_root_split``, the eigenvalue case of a 3x3 unimodular matrix:
  the multiplicities of 1 and -1 in its characteristic polynomial and the
  quadratic factor left over (irrational eigenvalues are never
  materialised; a 2x2 case is read off det and trace);
* finite-order detection;
* ``system2_orbit``, every solution of the quadratic system as one orbit
  +-Q0 eps^k, or a proof that there is none, and ``least_solution``, the
  least solution in the one order solutions are reported in that passes
  a lifting test invariant under Q -> QA, and ``lifting_solver``, the
  double extension's lifting test, read mod 2.

There is no general Smith normal form: each lattice question the package
asks has one fixed shape and is answered where it is asked (the kernel of
one row here; the eigenvector of 1 and the Tahara invariant in ``spectra``;
N Z^k, k <= 4, in a pivoted basis with its box in ``twisted.HermiteBox``).
``tests/snf_reference.py`` keeps the Smith form as their cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import json
import math
import operator
from typing import Callable, Sequence


class DimensionError(ValueError):
    """Operand shapes do not match the operation."""


class MatrixParseError(ValueError):
    """Malformed matrix text; carries the offending token and position."""

    def __init__(self, message, token=None, position=None):
        super().__init__(message)
        self.token = token
        self.position = position


# ---------------------------------------------------------------------------
# IntMatrix


@dataclass(frozen=True)
class IntMatrix:
    """Dense row-major matrix of arbitrary-precision integers."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DimensionError("matrix dimensions must be positive")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                "expected %d entries, got %d" % (self.rows * self.cols, len(self.entries))
            )

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        if r == 0:
            raise DimensionError("matrix needs at least one row")
        c = len(rows[0])
        for i, row in enumerate(rows):
            if len(row) != c:
                raise DimensionError("row %d has %d entries, expected %d" % (i + 1, len(row), c))
        entries = tuple(e for row in rows for e in row)
        # bool is an int subclass, and a float or a string must not be truncated
        if not all(type(e) is int for e in entries):
            raise TypeError("matrix entries must be integers")
        return cls(r, c, entries)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]]) -> "IntMatrix":
        c = len(cols)
        if c == 0:
            raise DimensionError("matrix needs at least one column")
        r = len(cols[0])
        return cls.from_rows([[cols[j][i] for j in range(c)] for i in range(r)])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    # -- indexing ------------------------------------------------------------

    def __getitem__(self, idx: tuple[int, int]) -> int:
        i, j = idx
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def _require_square(self, op: str):
        if not self.is_square:
            raise DimensionError("%s requires a square matrix, got %dx%d" % (op, self.rows, self.cols))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def _same_shape(self, other: "IntMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("shape mismatch: %dx%d vs %dx%d" % (self.rows, self.cols, other.rows, other.cols))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError("cannot multiply %dx%d by %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.entries[k * other.cols + j] for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(k * a for a in self.entries))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise DimensionError("vector length %d does not match %d columns" % (len(vec), self.cols))
        return tuple(sum(self.row(i)[k] * vec[k] for k in range(self.cols)) for i in range(self.rows))

    def __pow__(self, k: int) -> "IntMatrix":
        """M^k through the shared power cache; k < 0 needs M unimodular."""
        self._require_square("power")
        return IntMatrix(self.rows, self.rows, _power(self.entries, k))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(self[i, j] for j in range(self.cols) for i in range(self.rows)))

    def trace(self) -> int:
        self._require_square("trace")
        return sum(self[i, i] for i in range(self.rows))

    def det(self) -> int:
        """1x1 and 2x2 read off the entries; larger sizes by Bareiss."""
        self._require_square("determinant")
        if self.rows == 1:
            return self.entries[0]
        if self.rows == 2:
            a, b, c, d = self.entries
            return a * d - b * c
        return _det(self.to_rows())

    @property
    def is_unimodular(self) -> bool:
        return self.is_square and self.det() in (1, -1)

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact integer inverse; only defined when det is +-1."""
        d = self.det()
        if d not in (1, -1):
            raise ValueError("matrix with determinant %d has no integer inverse" % d)
        adj = self._adjugate()
        return adj if d == 1 else -adj

    def _adjugate(self) -> "IntMatrix":
        n = self.rows
        if n == 1:
            return IntMatrix(1, 1, (1,))
        cof = []
        rows = self.to_rows()
        for i in range(n):
            for j in range(n):
                minor = [r[:j] + r[j + 1 :] for k, r in enumerate(rows) if k != i]
                cof.append((-1) ** (i + j) * _det(minor))
        # adjugate is the transposed cofactor matrix
        return IntMatrix(n, n, tuple(cof[j * n + i] for i in range(n) for j in range(n)))

    # -- text / JSON ---------------------------------------------------------

    def to_text(self) -> str:
        return ";".join(",".join(str(e) for e in self.row(i)) for i in range(self.rows))

    def __str__(self) -> str:
        return self.to_text()


def _det(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of a list-of-lists copy."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Powers and geometric sums


def _power_and_sum(entries: tuple[int, ...], k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(A^k, S_k) as row-major entries of the square matrix A with these
    entries, where S_k = I + A + ... + A^(k-1).  For k < 0 the identity
    A^k - I = (A - I) S_k is kept, so S_k = -(A^-1 + ... + A^k); this
    needs A unimodular.

    One binary walk, high bit first, computes both in O(log |k|) products:
    (A^j, S_j) -> (A^2j, S_j + A^j S_j), then -> (A^(j+1), S_j + A^j) on a
    set bit.
    """
    n = math.isqrt(len(entries))
    base = entries if k >= 0 else IntMatrix(n, n, entries).inverse_unimodular().entries
    power = IntMatrix.identity(n).entries
    total = (0,) * (n * n)
    for bit in bin(abs(k))[2:]:
        total = tuple(map(operator.add, total, _entries_mul(n, power, total)))
        power = _entries_mul(n, power, power)
        if bit == "1":
            total = tuple(map(operator.add, total, power))
            power = _entries_mul(n, power, base)
    if k < 0:
        # S_k = -(A^-1 + ... + A^k) = -A^-1 (I + A^-1 + ... + A^(k+1))
        total = tuple(-v for v in _entries_mul(n, base, total))
    return power, total


def _entries_mul(n: int, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    if n == 2:
        a, b, c, d = x
        e, f, g, h = y
        return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    rows = [x[i * n:(i + 1) * n] for i in range(n)]
    cols = [y[j::n] for j in range(n)]
    return tuple(sum(map(operator.mul, r, c)) for r in rows for c in cols)


@lru_cache(maxsize=1024)
def _entries_order(entries: tuple[int, ...]) -> int | None:
    """The least d in 1..6 with A^d = I, else None, for A with these entries;
    one cache for ``finite_order`` and ``_power_sum``."""
    n = math.isqrt(len(entries))
    power = ident = IntMatrix.identity(n).entries
    for d in range(1, 7):
        power = _entries_mul(n, power, entries)
        if power == ident:
            return d
    return None


# Walks (A^k, S_k) keyed by A's entries tuple and k; an action of finite
# order d reduces k modulo d first, so it holds only the keys 0..d.  The
# size is fixed: witness exponents reach 10^13, and a long-lived caller
# would otherwise keep an entry for every exponent it met.
POWER_CACHE_SIZE = 4096
_walk = lru_cache(maxsize=POWER_CACHE_SIZE)(_power_and_sum)


def _power_sum(a: tuple, k: int) -> tuple:
    """(A^k, S_k) for A with entries a, the one source of matrix powers.
    With A^d = I and k = q d + r, 0 <= r < d: A^k = A^r and S_k = q S_d + S_r,
    exact for every k as S_(x+y) = S_x + A^x S_y."""
    d = _entries_order(a)
    if d is None or 0 <= k <= d:
        return _walk(a, k)
    q, r = divmod(k, d)
    power, s_r = _walk(a, r)
    return power, tuple([q * x + y for x, y in zip(_walk(a, d)[1], s_r)])


def _power(a: tuple, k: int) -> tuple:
    """A^k alone, read off the same cache: with A^d = I it is A^(k mod d),
    so a finite-order action never rebuilds q S_d + S_r for a power."""
    d = _entries_order(a)
    return _walk(a, k if d is None else k % d)[0]


# ---------------------------------------------------------------------------
# Parsing


def _strict_int(value, field: str) -> int:
    # bool is an int subclass; a float or a string must not be truncated
    if type(value) is not int:
        raise ValueError("%s must be an integer, got %r" % (field, value))
    return value


MINUS_SIGN = "−"  # tolerated in input, normalised to ASCII '-'


def parse_matrix(text: str) -> IntMatrix:
    """Parse "a,b;c,d" or a JSON array of arrays into an IntMatrix.

    Ragged rows are rejected; parse failures name the offending token and
    its position.
    """
    s = text.strip().replace(MINUS_SIGN, "-")
    if s.startswith("["):
        try:
            data = json.loads(s)
        except json.JSONDecodeError as exc:
            raise MatrixParseError("invalid JSON matrix at position %d: %s" % (exc.pos, exc.msg), position=exc.pos)
        except RecursionError:
            raise MatrixParseError("JSON matrix is nested too deeply") from None
        return matrix_from_json(data)
    if not s:
        raise MatrixParseError("empty matrix text")
    rows = []
    width = None
    for i, row_text in enumerate(s.split(";")):
        row = []
        for j, tok in enumerate(row_text.split(",")):
            tok = tok.strip()
            try:
                row.append(int(tok))
            except ValueError:
                raise MatrixParseError(
                    "row %d, entry %d: invalid integer %r" % (i + 1, j + 1, tok), token=tok, position=(i + 1, j + 1)
                ) from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise MatrixParseError("row %d has %d entries, expected %d" % (i + 1, len(row), width))
        rows.append(row)
    return IntMatrix.from_rows(rows)


def matrix_from_json(data) -> IntMatrix:
    """The matrix of a decoded JSON array of arrays of integers; anything
    else (a float, a string or a boolean entry included) raises
    MatrixParseError naming the row and entry."""
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise MatrixParseError("JSON matrix must be a non-empty array of arrays")
    width = len(data[0])
    for i, r in enumerate(data):
        if len(r) != width:
            raise MatrixParseError("row %d has %d entries, expected %d" % (i + 1, len(r), width))
        for j, e in enumerate(r):
            if type(e) is not int:
                raise MatrixParseError("row %d, entry %d: not an integer: %r" % (i + 1, j + 1, e), token=repr(e))
    return IntMatrix.from_rows(data)


def parse_vector(text: str) -> tuple[int, ...]:
    m = parse_matrix(text)
    if m.rows != 1:
        raise MatrixParseError("expected a single row vector, got %d rows" % m.rows)
    return m.row(0)


# ---------------------------------------------------------------------------
# Finite order and eigenvalues


def finite_order(m: IntMatrix) -> int | None:
    """Order of M if M^d = I for some d in 1..6, else None.

    In GL2(Z) and GL3(Z) every finite element order lies in {1,2,3,4,6},
    so the direct check is complete for dim <= 3.
    """
    m._require_square("finite order")
    if m.rows > 3:
        raise DimensionError("finite order check is only valid for dim <= 3")
    if m.det() not in (1, -1):
        raise ValueError("finite order requires a unimodular matrix")
    return _entries_order(m.entries)


def unit_root_split(m: IntMatrix) -> tuple[int, int, tuple[int, int] | None]:
    """(ones, minus_ones, residual) for a 3x3 matrix M with det +-1.

    det(xI - M) = (x - 1)^ones (x + 1)^minus_ones q(x): x - 1 and x + 1
    are divided out while they divide, and residual is (c0, c1) when q is
    a monic quadratic x^2 + c1 x + c0.  It is None when q = 1 or when q is
    the whole cubic (ones = minus_ones = 0).  The only rational roots of a
    unimodular characteristic polynomial are +-1, so a quadratic q has
    c1^2 - 4 c0 != 0: negative for a complex pair of eigenvalues, positive
    for a real irrational one.
    """
    if (m.rows, m.cols) != (3, 3):
        raise DimensionError("the unit-root split is for 3x3 matrices, got %dx%d" % (m.rows, m.cols))
    d = m.det()
    if d not in (1, -1):
        raise ValueError("the unit-root split requires determinant +-1, got %d" % d)
    s2 = sum(m[i, i] * m[j, j] - m[i, j] * m[j, i] for i, j in ((0, 1), (0, 2), (1, 2)))
    coeffs = [-d, s2, -m.trace(), 1]  # ascending
    counts = {1: 0, -1: 0}
    for root in (1, -1):
        while len(coeffs) > 1 and sum(c * root ** i for i, c in enumerate(coeffs)) == 0:
            # synthetic division by x - root, from the leading coefficient down
            quotient = [coeffs[-1]]
            for c in reversed(coeffs[1:-1]):
                quotient.append(c + root * quotient[-1])
            coeffs = quotient[::-1]
            counts[root] += 1
    return counts[1], counts[-1], (coeffs[0], coeffs[1]) if len(coeffs) == 3 else None


# ---------------------------------------------------------------------------
# The quadratic system: one solution orbit


def system2_orbit(a: IntMatrix) -> tuple[IntMatrix, IntMatrix] | None:
    """Every solution Q = (m, n; p, -m) of -m^2 - np = 1, (a-d)m + bp + cn = 0
    for a hyperbolic A of determinant 1, as one orbit: None when there is
    none, else (Q0, eps) with the solutions exactly +-Q0 eps^k, where eps
    in SL_2(Z) commutes with A and some eps^j is +-A^(+-1).

    The solutions represent 1 by f = -m^2 - np on the lattice
    ker (a-d, c, b) of rank 2, an indefinite form of non-square
    discriminant D >= 5.  Its rho-reduction ends in one cycle of reduced
    forms (Buchmann-Vollmer, Binary Quadratic Forms, 2007, ch. 6).  As
    1 < sqrt(D) / 2, f represents 1 iff a form in the cycle begins with 1;
    the transform up to it sends e1 to Q0, and one more turn of the cycle,
    the fundamental automorph of f, sends Q0 to Q0 eps.
    """
    aa, bb, cc, dd = a.entries
    # a saturated basis of the kernel of the row (x, y, z) = (a-d, c, b):
    # with g = gcd(y, z) = s y + t z and h = gcd(x, g), the vectors
    # (0, z/g, -y/g) and (g/h, -(x/h) s, -(x/h) t); g != 0, as a hyperbolic
    # A is not diagonal
    x, (g, s, t) = aa - dd, _bezout(cc, bb)
    h = math.gcd(x, g)
    u, v = (0, bb // g, -cc // g), (g // h, -(x // h) * s, -(x // h) * t)
    # f(x, y) = fa x^2 + fb xy + fc y^2 on x u + y v
    fa, fc = -u[0] * u[0] - u[1] * u[2], -v[0] * v[0] - v[1] * v[2]
    fb = -2 * u[0] * v[0] - u[1] * v[2] - u[2] * v[1]
    disc = fb * fb - 4 * fa * fc
    root = math.isqrt(disc)  # floor(sqrt(D)), as D is not a square

    def rho(form, t):
        # (a, b, c) -> (c, r, (r^2 - D) / 4c) by (x, y) -> (-y, x + s y), with
        # -|c| < r <= |c| when |c| > sqrt(D), else sqrt(D) - 2|c| < r < sqrt(D)
        _, fb, fc = form
        ac = abs(fc)
        r = (ac - 1 - fb) % (2 * ac) - ac + 1 if ac > root else root - (root + fb) % (2 * ac)
        s = (r + fb) // (2 * fc)
        t00, t01, t10, t11 = t
        return (fc, r, (r * r - disc) // (4 * fc)), (t01, s * t01 - t00, t11, s * t11 - t10)

    def block(t):  # the solution at t e1
        m, n, p = (t[0] * x + t[2] * y for x, y in zip(u, v))
        return IntMatrix(2, 2, (m, n, p, -m))

    form, t = (fa, fb, fc), (1, 0, 0, 1)
    # reduced: |sqrt(D) - 2|a|| < b < sqrt(D)
    while not (0 < form[1] <= root and 2 * abs(form[0]) - form[1] <= root < 2 * abs(form[0]) + form[1]):
        form, t = rho(form, t)
    cycle = form
    while form[0] != 1:
        form, t = rho(form, t)
        if form == cycle:
            return None
    q0, first = block(t), form
    form, t = rho(form, t)
    while form != first:
        form, t = rho(form, t)
    return q0, -q0 * block(t)  # Q0^-1 = -Q0, as Q0^2 = -I


def _bezout(y: int, z: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(y, z) = s y + t z, by the extended Euclid."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while z:
        q, r = divmod(y, z)
        y, z, s0, s1, t0, t1 = z, r, s1, s0 - q * s1, t1, t0 - q * t1
    return (y, s0, t0) if y >= 0 else (-y, -s0, -t0)


def least_solution(
    a: IntMatrix,
    orbit: tuple[IntMatrix, IntMatrix],
    lifts: Callable[[IntMatrix], object | None] = lambda q: (),
) -> tuple[IntMatrix, object] | None:
    """The least solution Q = (m, n; p, -m) such that ``lifts(Q)`` is not
    None, with that value; None when there is none.  Solutions are ordered
    by |m|, then negative m first, then (n, p) ascending.

    ``lifts`` must be invariant under Q -> QA, so each class {Q A^t} of
    the 2j solutions +-Q0 eps^k, 0 <= k < j, takes one call, where
    ``orbit`` = (Q0, eps) and eps^j = +-A^(+-1).  Along a class
    m(t + 1) + m(t - 1) = tr(A) m(t) with |tr A| >= 3, so |m| falls, then
    rises, with at most one tie at the bottom.
    """
    q, eps = orbit
    power, found, steps = eps, [], (a, a.inverse_unimodular())
    while True:
        for rep in (q, -q):
            if lifts(rep) is not None:
                found.append(rep)
                for step in steps:
                    cur = rep
                    while abs((nxt := cur * step)[0, 0]) <= abs(cur[0, 0]):
                        found.append(cur := nxt)
        if abs(power.trace()) >= abs(a.trace()):
            break
        q, power = q * eps, power * eps
    best = min(found, key=lambda q: (abs(q[0, 0]), q[0, 0] > 0, q[0, 1], q[1, 0]), default=None)
    return None if best is None else (best, lifts(best))


def lifting_solver(a: IntMatrix, n0: Sequence[int]) -> Callable[[IntMatrix], tuple[int, ...] | None]:
    """The lifting equation of the double extension with action A and
    inner twist n0: for a block M, the coefficients (m0, z0) of
    (I + A M) n0 = 2A m0 + (I - A) z0, or None when no integral solution
    exists.  As 2A Z^2 = 2Z^2, this asks whether t = (I + A M) n0 lies in
    (I - A) z0 + 2Z^2 for some z0 in {0,1}^2, so it reads M mod 2: z0 is
    the first of (0,0), (0,1), (1,0), (1,1) that works, and then
    m0 = A^-1 (t - (I - A) z0) / 2.  For a solution M of the quadratic
    system, A M A = M, so M -> MA adds (I - A) M n0 to t and does not
    change whether M lifts."""
    ainv, shift = a.inverse_unimodular(), IntMatrix.identity(2) - a
    shifts = [(z0, shift.apply(z0)) for z0 in ((0, 0), (0, 1), (1, 0), (1, 1))]

    def solve(m: IntMatrix) -> tuple[int, ...] | None:
        # t = (I + A M) n0 as n0 + A (M n0)
        t = [u + v for u, v in zip(n0, a.apply(m.apply(n0)))]
        for z0, s in shifts:
            r = [x - y for x, y in zip(t, s)]
            if r[0] % 2 == r[1] % 2 == 0:
                return ainv.apply([x // 2 for x in r]) + z0
        return None

    return solve
