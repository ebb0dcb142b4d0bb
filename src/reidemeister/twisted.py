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
and are not checked again here.  The index of the image of I - M, which
|det(I - M)| counts, and the sum over an explicit transversal are
recomputed from Smith form divisors only in the tests
(``tests/snf_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
import math
import operator
from typing import Sequence

from .exactlin import IntMatrix, _entries_order, _strict_int


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


def r_class_sum(shift: IntMatrix, actions: Sequence[IntMatrix], m: IntMatrix) -> RNumber:
    """Sum of R(B_1^e_1 ... B_k^e_k M) over the classes e of Z^k / N Z^k,
    N = shift, k = 1 or 2; infinite when det N = 0.

    N Z^k has the Hermite basis (g, *), (0, h), g the gcd of N's first
    row and h = |det N| / g, so the box 0 <= e_1 < g, 0 <= e_2 < h is a
    transversal.  A term reads e_i only mod ord B_i, so each residue is
    counted once with its multiplicity; an action of no order <= 6 takes
    its box side as order, which changes the cost, not the sum.
    Precondition: the terms are class functions, which holds when M
    intertwines the actions, as the layers of a verified automorphism do;
    on other input another transversal may give another sum.
    """
    det = abs(shift.det())
    if det == 0:
        return INFINITE
    g = math.gcd(*shift.row(0))
    sides = (g, det // g)[:shift.rows]
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
