"""The solution orbit of the quadratic system against the bounded search.

``exactlin.system2_orbit`` gives every solution of -m^2 - np = 1,
(a-d)m + bp + cn = 0 as +-Q0 eps^k; ``tests/system2_reference.py`` keeps
the bounded search with one integer square root per m, and that search is
checked in turn against the plain divisor enumeration below: every
divisor d of 1 + m^2 (trial division) gives the two candidates
(d, -(1 + m^2)/d) and (-d, (1 + m^2)/d), kept when the linear equation
holds.  ``_system2_rows`` keeps that enumeration's order (ascending |n|,
positive n first); the order solutions are reported in is
``_system2_solutions``'s.
"""

from functools import lru_cache
from itertools import product
import math
import random

from hypothesis import assume, given, settings, strategies as st

from reidemeister.exactlin import IntMatrix, system2_orbit
from reidemeister.spectra import decide_system2
from system2_reference import _search_m_order, _system2_rows, _system2_solutions


@lru_cache(maxsize=None)
def _divisors(k):
    small, large = [], []
    d = 1
    while d * d <= k:
        if k % d == 0:
            small.append(d)
            if d * d != k:
                large.append(k // d)
        d += 1
    return tuple(small + large[::-1])


def reference_pairs(a, m):
    aa, bb, cc, dd = a.entries
    k = 1 + m * m
    pairs = []
    for d in _divisors(k):
        for n, p in ((d, -(k // d)), (-d, k // d)):
            if (aa - dd) * m + bb * p + cc * n == 0:
                pairs.append((n, p))
    return pairs


def reference_rows(a, bound):
    for m in _search_m_order(bound):
        pairs = reference_pairs(a, m)
        if pairs:
            yield m, pairs


def assert_rows_match(a, bound):
    rows = list(_system2_rows(a, bound))
    expected = list(reference_rows(a, bound))
    assert rows == expected, a  # the divisor enumeration's order
    assert [(m, sorted(pairs)) for m, pairs in rows] == [(m, sorted(pairs)) for m, pairs in expected]


def unimodular_box(limit):
    for entries in product(range(-limit, limit + 1), repeat=4):
        if entries[0] * entries[3] - entries[1] * entries[2] in (1, -1):
            yield IntMatrix(2, 2, entries)


def is_hyperbolic_det_one(a):
    return a.det() == 1 and abs(a.trace()) > 2


def test_rows_match_reference_on_hyperbolic_box():
    box = [a for a in unimodular_box(6) if is_hyperbolic_det_one(a)]
    assert len(box) == 216
    for a in box:
        assert_rows_match(a, 300)


def test_rows_match_reference_on_every_other_unimodular_action():
    # the reference covers any unimodular action, including det -1,
    # parabolic, elliptic and scalar ones (the scalar branch enumerates divisors)
    others = [a for a in unimodular_box(4) if not is_hyperbolic_det_one(a)]
    assert IntMatrix.identity(2) in others and -IntMatrix.identity(2) in others
    for a in others:
        assert_rows_match(a, 60)


def random_hyperbolic(rng, limit):
    """A hyperbolic det-1 matrix with entries in [-limit, limit]: a random
    coprime first column (a, c), then d = a^-1 mod c and b = (ad - 1)/c."""
    while True:
        a, c = rng.randint(-limit, limit), rng.choice((1, -1)) * rng.randint(1, limit)
        if math.gcd(a, c) != 1:
            continue
        d0 = pow(a, -1, abs(c))
        step = abs(c)
        candidates = [
            IntMatrix(2, 2, (a, (a * d - 1) // c, c, d))
            for d in range(d0 - (limit // step + 1) * step, limit + 1, step)
            if abs(d) <= limit and abs(a * d - 1) <= limit * step
        ]
        candidates = [m for m in candidates if is_hyperbolic_det_one(m)]
        if candidates:
            return rng.choice(candidates)


def test_rows_match_reference_on_random_hyperbolic_matrices():
    rng = random.Random(40)
    for _ in range(150):
        assert_rows_match(random_hyperbolic(rng, 40), 300)


def test_rows_match_reference_at_large_m():
    rng = random.Random(10_000)
    wel = IntMatrix.from_rows([[2, 1], [1, 1]])
    for a in (wel, IntMatrix.from_rows([[3, 2], [4, 3]]), IntMatrix.from_rows([[5, 2], [2, 1]])):
        rows = dict(_system2_rows(a, 10_000))
        assert max(rows) > 2_000  # solutions far out, not only near m = 0
        sampled = rng.sample(range(-10_000, 10_001), 60) + list(rows)
        for m in sampled:
            assert rows.get(m, []) == reference_pairs(a, m), (a, m)


def test_solutions_sort_each_row():
    wel = IntMatrix.from_rows([[2, 1], [1, 1]])
    expected = [(m, n, p) for m, pairs in reference_rows(wel, 200) for n, p in sorted(pairs)]
    assert list(_system2_solutions(wel, 200)) == expected


# products of T^k = (1, k; 0, 1) and S = (0, -1; 1, 0), times (1, 0; 0, -1)
# for determinant -1, reach every unimodular 2x2 matrix
_T_POWERS = st.lists(st.integers(-4, 4), min_size=1, max_size=4)


def _unimodular(powers, flip):
    a = IntMatrix.from_rows([[1, 0], [0, -1]]) if flip else IntMatrix.identity(2)
    s = IntMatrix.from_rows([[0, -1], [1, 0]])
    for k in powers:
        a = a * IntMatrix.from_rows([[1, k], [0, 1]]) * s
    return a


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(powers=_T_POWERS, flip=st.booleans(), m=st.integers(-10_000, 10_000))
def test_rows_match_reference_property(powers, flip, m):
    a = _unimodular(powers, flip)
    assert_rows_match(a, 20)
    if a.entries[1] or a.entries[2]:  # a scalar action pays trial division per m
        assert dict(_system2_rows(a, abs(m))).get(m, []) == reference_pairs(a, m)


# ---------------------------------------------------------------------------
# the solution orbit


def orbit_solutions(a, bound):
    """The solutions +-Q0 eps^k with |m| <= bound.  Along each of the two
    chains |m| falls, then rises for good, as |tr eps| >= 3."""
    orbit = system2_orbit(a)
    if orbit is None:
        return set()
    q0, eps = orbit
    out = set()
    for start in (q0, -q0):
        for step in (eps, eps.inverse_unimodular()):
            q = start
            while True:
                if abs(q[0, 0]) <= bound:
                    out.add((q[0, 0], q[0, 1], q[1, 0]))
                nxt = q * step
                if abs(nxt[0, 0]) > max(abs(q[0, 0]), bound):
                    break
                q = nxt
    return out


def assert_orbit_matches(a, bound):
    orbit = system2_orbit(a)
    expected = {(m, n, p) for m, pairs in _system2_rows(a, bound) for n, p in pairs}
    assert orbit_solutions(a, bound) == expected, a
    if orbit is not None:
        q0, eps = orbit
        assert q0 * q0 == -IntMatrix.identity(2) and a * q0 * a == q0
        assert eps.det() == 1 and eps * a == a * eps
        power = eps
        while abs(power.trace()) < abs(a.trace()):
            power = power * eps
        ainv = a.inverse_unimodular()
        assert power in (a, -a, ainv, -ainv), a


def assert_decisions_match(a, bounds):
    for bound in bounds:
        first = next(_system2_solutions(a, bound), None)
        decision = decide_system2(a, bound)
        if first is None:
            assert decision.outcome == "none-up-to-bound", (a, bound)
        else:
            assert decision.outcome == "witness", (a, bound)
            assert (decision.witness.m, decision.witness.n, decision.witness.p) == first, (a, bound)


def test_orbit_matches_the_search_on_the_hyperbolic_box():
    box = [a for a in unimodular_box(8) if is_hyperbolic_det_one(a)]
    assert len(box) == 456
    for a in box:
        assert_orbit_matches(a, 3000)
    assert sum(system2_orbit(a) is not None for a in box) == 80


def test_decide_system2_matches_the_search_on_the_hyperbolic_box():
    for a in unimodular_box(8):
        if is_hyperbolic_det_one(a):
            assert_decisions_match(a, (1, 3, 50, 3000))


_WORDS = st.lists(st.integers(-9, 9), min_size=2, max_size=8)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(powers=_WORDS)
def test_orbit_matches_the_search_on_random_words(powers):
    # products of T^k S reach every matrix of SL_2(Z); entries up to about 10^4
    a = _unimodular(powers, False)
    assume(is_hyperbolic_det_one(a) and max(map(abs, a.entries)) <= 10_000)
    assert_orbit_matches(a, 2000)
    assert_decisions_match(a, (1, 50, 2000))
