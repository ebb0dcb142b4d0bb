"""The bounded search for the quadratic system, kept as the reference that
``exactlin.system2_orbit`` and ``exactlin.least_solution`` are tested
against.

``_system2_rows`` finds every solution of -m^2 - np = 1,
(a-d)m + bp + cn = 0 with |m| <= bound, with one integer square root per
m.  ``_system2_solutions`` lists them in the one order a solution is
reported in, by ``spectra`` and by ``groups._witness_phi_eight`` alike
(m walks 0, -1, 1, -2, 2, ..., and (n, p) ascends per m);
``_system2_rows`` lists each row's pairs in the order of the divisor
enumeration it is checked against (ascending |n|, positive n first).
"""

import math
from typing import Iterator

from reidemeister.exactlin import IntMatrix


def _search_m_order(bound: int) -> Iterator[int]:
    """0, -1, 1, -2, 2, ..., -bound, bound."""
    yield 0
    for m in range(1, bound + 1):
        yield -m
        yield m


def _system2_rows(a: IntMatrix, bound: int) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Every solution with |m| <= bound, as (m, pairs) for each m in
    ``_search_m_order(bound)`` that has one; pairs lists the (n, p) in
    ascending |n|, positive n first.

    With k = 1 + m^2, np = -k makes n a nonzero divisor of k, and n times
    the linear equation gives c n^2 + (a-d) m n - b k = 0.  For c != 0 the
    discriminant is (tr^2 - 4 det) m^2 + 4bc, so one integer square root
    per m finds the candidate roots; each candidate is checked exactly
    against both equations.  Only a scalar action (b = c = 0, a = d)
    leaves n free, and then every factorisation of k solves.
    """
    aa, bb, cc, dd = a.entries
    e = aa - dd
    disc_0 = 4 * bb * cc
    disc_m2 = e * e + disc_0
    two_c = 2 * cc
    for m in _search_m_order(bound):
        k = 1 + m * m
        em = e * m
        if cc:
            disc = disc_m2 * m * m + disc_0
            if disc < 0:
                continue
            s = math.isqrt(disc)
            if s * s != disc:
                continue
            roots = {num // two_c for num in (s - em, -s - em) if num % two_c == 0}
        elif em:
            roots = {bb * k // em} if bb * k % em == 0 else ()
        elif bb:
            continue
        else:
            roots = {n for d in range(1, math.isqrt(k) + 1) if k % d == 0 for n in (d, -d, k // d, -k // d)}
        pairs = []
        for n in sorted(roots, key=lambda n: (abs(n), n < 0)):
            if n and k % n == 0:
                p = -k // n
                if em + bb * p + cc * n == 0:
                    pairs.append((n, p))
        if pairs:
            yield m, pairs


def _system2_solutions(a: IntMatrix, bound: int) -> Iterator[tuple[int, int, int]]:
    """All solutions (m, n, p) with |m| <= bound, in the order of
    ``exactlin.least_solution``: m as in ``_search_m_order``, then (n, p)
    ascending."""
    for m, pairs in _system2_rows(a, bound):
        for n, p in sorted(pairs):
            yield m, n, p
