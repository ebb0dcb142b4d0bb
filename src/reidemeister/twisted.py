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

from dataclasses import dataclass
from functools import reduce
from itertools import product
import math
import operator
from typing import Sequence

from .exactlin import IntMatrix, _bezout, _entries_order, _strict_int


@dataclass(frozen=True)
class RNumber:
    """A Reidemeister number: a positive integer or infinity (value None).

    Arithmetic absorbs infinity: adding or multiplying with an infinite
    count stays infinite.
    """

    value: int | None

    def __post_init__(self):
        if self.value is not None and _strict_int(self.value, "a Reidemeister number") < 1:
            raise ValueError("finite Reidemeister numbers are >= 1")

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
    d = (IntMatrix.identity(m.rows) - m).det()
    return INFINITE if d == 0 else RNumber(abs(d))


class HermiteBox:
    """N Z^k, k <= 4, in a pivoted basis: pivot i vanishes before
    coordinate i and has there d_i > 0, the gcd over the lattice vectors
    that vanish before i (d_i = 0 when none does).  Each coset v + N Z^k
    meets the box 0 <= r_i < d_i (r_i free where d_i = 0) once; ``reduce``
    subtracts pivots in coordinate order to reach it, and keeps its answers
    while the box lives.  The sides multiply to |det N| when det N != 0."""

    def __init__(self, n: IntMatrix):
        k = n.rows
        # a generator is N u followed by u
        gens = [[*n.column(j), *(int(i == j) for i in range(k))] for j in range(k)]
        diagonal, self._pivots, self._reduced = [], [], {}
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
                self._pivots.append((i, pivot[:k], pivot[k:]))
        self.diagonal = tuple(diagonal)
        self.singular = 0 in diagonal

    def reduce(self, v: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(r, w): r the box point of v + N Z^k, and v = r + N w."""
        if v not in self._reduced:
            r, w = v, (0,) * len(v)
            for i, vec, pre in self._pivots:
                q = r[i] // vec[i]
                if q:
                    r, w = [x - q * y for x, y in zip(r, vec)], [x + q * y for x, y in zip(w, pre)]
            self._reduced[v] = tuple(r), tuple(w)
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
    terms = []
    for exps in product(*(range(min(side, k)) for side, k in zip(sides, orders))):
        a = m
        for b, e in zip(actions[::-1], exps[::-1]):
            if e:
                a = b ** e * a
        count = math.prod((side - e + k - 1) // k for side, k, e in zip(sides, orders, exps))
        terms.append(RNumber(count) * r_abelian(a))
    return reduce(operator.add, terms)
