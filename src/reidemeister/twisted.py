"""Reidemeister-number formulas as exact operations.

The basic quantity is the number of twisted conjugacy classes of an
automorphism.  On a lattice Z^n an automorphism is an integer matrix M
and the count is |det(I - M)| when nonzero, infinite otherwise.  The
formula routes multiply such counts across a central layer, and sum
them across a quotient with one sum:

* ``r_addition``  -- the sum of R(A M) over the matrices A induced by
  representatives of the quotient classes,
* ``r_averaging`` -- that sum over a finite holonomy group, divided by
  its order.

The formula routes in ``groups`` choose the matrices.  A route runs
only on a verified automorphism, so the hypotheses of its sum (such as
M A = A^-1 M for the two-step sum of Z^n x| Z) hold already and are not
checked again here.  The index of the image of I - M, which
|det(I - M)| counts, is recomputed from Smith form divisors only in the
tests (``tests/snf_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exactlin import IntMatrix


@dataclass(frozen=True)
class RNumber:
    """A Reidemeister number: a positive integer or infinity (value None).

    Arithmetic absorbs infinity: adding or multiplying with an infinite
    count stays infinite.
    """

    value: int | None

    def __post_init__(self):
        if self.value is not None and self.value < 1:
            raise ValueError("finite Reidemeister numbers are >= 1")

    @classmethod
    def finite(cls, n: int) -> "RNumber":
        return cls(int(n))

    @classmethod
    def infinite(cls) -> "RNumber":
        return cls(None)

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __add__(self, other: "RNumber") -> "RNumber":
        if self.value is None or other.value is None:
            return RNumber.infinite()
        return RNumber(self.value + other.value)

    def __mul__(self, other: "RNumber") -> "RNumber":
        if self.value is None or other.value is None:
            return RNumber.infinite()
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


INFINITE = RNumber.infinite()


def r_abelian(m: IntMatrix) -> RNumber:
    """Reidemeister number of multiplication by M on Z^n: |det(I - M)| or infinity."""
    m._require_square("abelian Reidemeister number")
    d = (IntMatrix.identity(m.rows) - m).det()
    return INFINITE if d == 0 else RNumber(abs(d))


def r_addition(matrices: Sequence[IntMatrix], m: IntMatrix) -> RNumber:
    """Sum of R(A M) over the matrices A, one per quotient class.

    The matrices are those the class representatives induce on the
    lattice, one per class of a finite quotient, so there is at least one.
    """
    if not matrices:
        raise ValueError("empty representative set")
    total = r_abelian(matrices[0] * m)
    for a in matrices[1:]:
        total = total + r_abelian(a * m)
    return total


def r_averaging(holonomy: Sequence[IntMatrix], m: IntMatrix) -> RNumber:
    """(1 / |F|) * sum of R(A M) over the finite holonomy group F.

    A finite sum that is not divisible by |F| can only come from
    inadmissible input, so that case raises instead of rounding.
    """
    return r_addition(holonomy, m).div_exact(len(holonomy))
