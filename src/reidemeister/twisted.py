"""Reidemeister-number formulas as exact operations.

The basic quantity is the number of twisted conjugacy classes of an
automorphism.  On a lattice Z^n an automorphism is an integer matrix M
and the count is |det(I - M)| when nonzero, infinite otherwise
(``r_abelian``).  The formula routes multiply such counts across a
central layer, and sum them across a quotient with one sum,
``r_class_sum``: the sum of R(B M) over the classes of Z^k / N Z^k, B
the matrix a class induces on the lattice.  That is the addition formula
over a free abelian quotient; divided by the order of a finite holonomy
group, it is the averaging formula.

The formula routes in ``groups`` choose N, the actions and M.  A route
runs only on a verified automorphism, so the hypotheses of the sum (M
intertwines the actions, so each term is a class function) hold already
and are not checked again here.  The sum runs over the box of
``HermiteBox``, which the class labels of ``groups`` reduce into.  The
index of the image of I - M, which |det(I - M)| counts, and the sum over
an explicit transversal are recomputed from Smith form divisors only in
the tests (``tests/snf_reference.py``).
"""

from __future__ import annotations

from itertools import product
import math
from typing import Sequence

from .exactlin import IntMatrix, _Value, _bezout, _entries_order, _strict_int


class RNumber(_Value):
    """A Reidemeister number: a positive integer or infinity (value None).

    Arithmetic absorbs infinity: adding or multiplying with an infinite
    count stays infinite.
    """

    __slots__ = _fields = ("value",)

    def __init__(self, value: int | None):
        if value is not None and _strict_int(value, "a Reidemeister number") < 1:
            raise ValueError("finite Reidemeister numbers are >= 1")
        object.__setattr__(self, "value", value)

    def __add__(self, other: "RNumber") -> "RNumber":
        if self.value is None or other.value is None:
            return INFINITE
        return RNumber(self.value + other.value)

    def __mul__(self, other: "RNumber") -> "RNumber":
        if self.value is None or other.value is None:
            return INFINITE
        return RNumber(self.value * other.value)

    def div_exact(self, k: int) -> "RNumber":
        if self.value is None:
            return self
        if self.value % k:
            raise ArithmeticError("%d is not divisible by %d" % (self.value, k))
        return RNumber(self.value // k)

    def to_json(self) -> int | str:
        return "infinity" if self.value is None else self.value

    def __repr__(self) -> str:
        return "R(oo)" if self.value is None else "R(%d)" % self.value


INFINITE = RNumber(None)


def r_abelian(m: IntMatrix) -> RNumber:
    """Reidemeister number of multiplication by M on Z^n: |det(I - M)| or infinity."""
    m._require_square("abelian Reidemeister number")
    d = _one_minus(m).det()
    return INFINITE if d == 0 else RNumber(abs(d))


def _one_minus(m: IntMatrix) -> IntMatrix:
    """I - M for a square M, built as one matrix."""
    n = m.rows
    return IntMatrix(n, n, tuple(int(i % (n + 1) == 0) - x for i, x in enumerate(m.entries)))


class HermiteBox:
    """N Z^k, k <= 4, in a pivoted basis: pivot i vanishes before
    coordinate i and has there d_i > 0, the gcd over the lattice vectors
    that vanish before i (d_i = 0 when none does).  Each coset v + N Z^k
    meets the box 0 <= r_i < d_i (r_i free where d_i = 0) once.  ``point``
    subtracts pivots in coordinate order to reach it; ``reduce`` also
    reads the lift w, v = r + N w, which a twist needs and a label does
    not.  Each keeps its answers while the box lives.  The sides multiply
    to |det N| when det N != 0."""

    def __init__(self, n: IntMatrix):
        k = n.rows
        # a generator is N u followed by -u, so walking (v, 0) down to
        # (r, w) leaves v = r + N w
        gens = [[*n.column(j), *(-int(i == j) for i in range(k))] for j in range(k)]
        diagonal, pivots, self._zero, self._points, self._reduced = [], [], (0,) * k, {}, {}
        for i in range(k):
            pivot, rest = None, []
            for v in gens:
                if not v[i]:
                    rest.append(v)
                elif pivot is None:
                    pivot = v if v[i] > 0 else [-x for x in v]
                else:  # one vector with the gcd of the two i-th coordinates, one with 0 there
                    g, s, t = _bezout(pivot[i], v[i])
                    a, b = pivot[i] // g, v[i] // g
                    pivot, v = [s * x + t * y for x, y in zip(pivot, v)], [b * x - a * y for x, y in zip(pivot, v)]
                    rest.append(v)
            gens = rest
            diagonal.append(pivot[i] if pivot else 0)
            if pivot:
                pivots.append((i, tuple(pivot)))
        self._pivots = tuple(pivots)
        self.diagonal = tuple(diagonal)
        self.singular = 0 in diagonal

    def _walk(self, x: Sequence[int]) -> Sequence[int]:
        # Pivot i vanishes before coordinate i, yet a step over coordinates
        # i on alone (a slice assignment) measured no faster at k <= 4 than
        # the whole-vector step.  zip stops at the end of x, so a box point
        # walks the first k coordinates of each pivot, and a lift all 2k.
        for i, vec in self._pivots:
            q = x[i] // vec[i]
            if q:
                x = [a - q * b for a, b in zip(x, vec)]
        return x

    def point(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """The box point of v + N Z^k."""
        r = self._points.get(v)
        if r is None:
            r = self._points[v] = tuple(self._walk(v))
        return r

    def reduce(self, v: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(r, w): r the box point of v + N Z^k, and v = r + N w."""
        if v not in self._reduced:
            x, k = self._walk(v + self._zero), len(v)
            self._reduced[v] = tuple(x[:k]), tuple(x[k:])
        return self._reduced[v]


def r_class_sum(shift: IntMatrix, actions: Sequence[IntMatrix], m: IntMatrix) -> RNumber:
    """Sum of R(B_1^e_1 ... B_k^e_k M) over the classes e of Z^k / N Z^k,
    N = shift, k = 1 or 2; infinite when det N = 0.

    The transversal is the box of ``HermiteBox(N)``, 0 <= e_i < d_i.  A
    term reads e_i only mod ord B_i, so each residue is counted once with
    its multiplicity; an action of no order <= 6 takes its box side as
    order, which changes the cost, not the sum.
    Precondition: the terms are class functions, which holds when M
    intertwines the actions, as the layers of a verified automorphism do;
    on other input another transversal may give another sum.
    """
    sides = HermiteBox(shift).diagonal
    if 0 in sides:  # det N = 0
        return INFINITE
    orders = [_entries_order(b.entries) or side for b, side in zip(actions, sides)]
    total = 0
    for exps in product(*(range(min(side, k)) for side, k in zip(sides, orders))):
        a = m
        for b, e in zip(actions[::-1], exps[::-1]):
            if e:
                a = b ** e * a
        d = _one_minus(a).det()  # R(a) = |d|, infinite when d = 0
        if not d:
            return INFINITE
        total += abs(d) * math.prod((side - e + k - 1) // k for side, k, e in zip(sides, orders, exps))
    return RNumber(total)
