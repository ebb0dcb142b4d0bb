"""The classification ladder: from a group description to its spectrum.

Each classifier walks a case analysis on the eigenvalues of the acting
matrix and returns a ``SpectrumResult``: the spectrum descriptor plus a
derivation trace of rule identifiers, so a result can be audited without
re-reading the code.  A 2x2 case is read off (det, trace); a 3x3 case off
``exactlin.unit_root_split``, the multiplicities of 1 and -1 and the
quadratic factor left over.

The hyperbolic Z^3 block and the double extension share one exact
eight-class decision, ``_eight_class_decision``, over the solution orbit
of ``exactlin.system2_orbit``; each passes in its own lifting test, and
``decide_system2`` passes one every solution meets.  The
answer is {8, oo} with the least lifting solution as witness,
``*:parity-obstruction`` when no solution lifts, or
``system2:proven-empty`` when there is none.  Only ``decide_system2``
reads a bound: a least solution beyond it is ``none-up-to-bound``, which
the z2 ladder reports as ``undecided``.

The mixed-eigenvalue Heisenberg case and the double extension with an
action of finite order (+-I, orders 3, 4, 6) are extensions of Z^2 by
Z^2.  One change of the quotient generators turns each into a double
extension with a parabolic action or into Z^3 x|_M Z, and the rule it
lands on is read off in O(1): the parity of n / gcd(n, c), the parity of
n0, or the order of A.  Their traces keep the rule ids of that route
(``ext:canonicalized`` and what follows); ``tests/canonical_reference.py``
keeps the route itself as the reference the rules are tested against.

Each spectrum is written once, in ``RULES``, under the terminal rule id
that proves it.  Every classifier returns ``_rule(trace, evidence)``,
which reads it off the trace's last id, and each table row
(``TABLE_ROWS``) names the rule ids that end there.  ``classify_nilpotent``
and the unipotent rows of the ladders end in ``nilpotent:<name>``.
``classify_nilpotent`` recognises a family by its ``json_tag``, so this
module does not import ``groups``.  An input outside a classifier's
hypotheses raises ``exactlin.HypothesisError``, re-exported here; a
unimodular action, an int pair and the Heisenberg floor are checked by
the ``exactlin`` validators that ``groups`` calls too, with one text each.
The three-step group Z^3 x|_J Z, J the Jordan block of eigenvalue 1, is
``groups.THREE_STEP``; ``THREE_STEP`` here is the same object, looked up
on first use.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

from .exactlin import (
    HypothesisError,
    IntMatrix,
    finite_order,
    least_solution,
    lifting_solver,
    system2_orbit,
    unit_root_split,
    _Value,
    _entries_order,
    _heisenberg_parameter,
    _int_pair,
    _one_minus,
    _power_sum,
    _strict_int,
    _unimodular,
)


# ---------------------------------------------------------------------------
# Spectrum descriptors


class SpectrumDescriptor(_Value):
    """Canonical encoding of a Reidemeister spectrum.

    kind is one of r_infinity | finite | multiples | full | undecided;
    infinity is implied present in every kind.
    """

    __slots__ = _fields = ("kind", "values", "c", "candidates", "bound")
    _defaults = dict.fromkeys(_fields[1:])

    # the constructors pass every field by position, the base's fast path
    @classmethod
    def r_infinity(cls) -> "SpectrumDescriptor":
        return cls("r_infinity", None, None, None, None)

    @classmethod
    def finite(cls, values: Sequence[int]) -> "SpectrumDescriptor":
        vals = tuple(sorted(set(_strict_int(v, "an entry of field 'values'") for v in values)))
        if not vals or vals[0] < 1:
            raise ValueError("finite spectra need a nonempty set of positive values")
        return cls("finite", vals, None, None, None)

    @classmethod
    def multiples(cls, c: int) -> "SpectrumDescriptor":
        if _strict_int(c, "field 'c'") < 2:
            raise ValueError("multiples spectra need c >= 2")
        return cls("multiples", None, c, None, None)

    @classmethod
    def full(cls) -> "SpectrumDescriptor":
        return cls("full", None, None, None, None)

    @classmethod
    def undecided(cls, candidates: Sequence["SpectrumDescriptor"], bound: int) -> "SpectrumDescriptor":
        cands = tuple(candidates)
        if len(cands) != 2:
            raise ValueError("undecided spectra record exactly two candidates")
        return cls("undecided", None, None, cands, _strict_int(bound, "field 'bound'"))

    def to_json_dict(self) -> dict:
        """The fields that are set, values as a list and candidates as their JSON."""
        data = {}
        for f in self._fields:
            value = getattr(self, f)
            if value is not None:
                data[f] = value
        if self.values is not None:
            data["values"] = list(self.values)
        if self.candidates is not None:
            data["candidates"] = [c.to_json_dict() for c in self.candidates]
        return data

    def render(self) -> str:
        if self.kind == "r_infinity":
            return "{oo}"
        if self.kind == "finite":
            return "{%s,oo}" % ",".join(str(v) for v in self.values)
        if self.kind == "multiples":
            return "%dN u {oo}" % self.c
        if self.kind == "full":
            return "N u {oo}"
        if self.kind == "undecided":
            return "undecided(%s | %s, bound %d)" % (
                self.candidates[0].render(),
                self.candidates[1].render(),
                self.bound,
            )
        raise ValueError("unknown spectrum kind %r" % self.kind)


class SpectrumResult(_Value):
    __slots__ = _fields = ("spectrum", "trace", "evidence")

    def __init__(self, spectrum: SpectrumDescriptor, trace: tuple[str, ...], evidence: Mapping | None = None):
        if not trace:
            raise ValueError("classifier results must carry a nonempty trace")
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "trace", trace)
        object.__setattr__(self, "evidence", evidence)


# Each terminal rule id and the spectrum it proves.  ``system2:exhausted``
# is the one terminal id not here: its undecided spectrum carries the bound.
RULES: dict[str, SpectrumDescriptor] = {
    "nilpotent:rank-one": SpectrumDescriptor.finite([2]),
    "nilpotent:lattice": SpectrumDescriptor.full(),
    "nilpotent:heisenberg": SpectrumDescriptor.multiples(2),
    "nilpotent:heisenberg-times-z": SpectrumDescriptor.multiples(4),
    "nilpotent:three-step": SpectrumDescriptor.r_infinity(),
    "z2:minus-identity": SpectrumDescriptor.multiples(2),
    "z2:repeated-minus-one": SpectrumDescriptor.r_infinity(),
    "z2:eigenvalues-one-and-minus-one": SpectrumDescriptor.r_infinity(),
    "z2:hyperbolic-det-minus-one": SpectrumDescriptor.r_infinity(),
    "system2:complex-empty": SpectrumDescriptor.r_infinity(),
    "system2:witness": SpectrumDescriptor.finite([4]),
    "system2:proven-empty": SpectrumDescriptor.r_infinity(),
    "z3:minus-identity": SpectrumDescriptor.multiples(2),
    "z3:no-eigenvalue-one": SpectrumDescriptor.r_infinity(),
    "z3:eigenvalue-one-multiplicity-two": SpectrumDescriptor.r_infinity(),
    "z3:minus-one-unipotent-block": SpectrumDescriptor.r_infinity(),
    "tahara:delta-zero": SpectrumDescriptor.multiples(2),
    "tahara:delta-one": SpectrumDescriptor.multiples(4),
    # the order-three block: 6N whatever the delta invariant
    "tahara:delta-0": SpectrumDescriptor.multiples(6),
    "tahara:delta-1": SpectrumDescriptor.multiples(6),
    "z3:block-order-four-or-six": SpectrumDescriptor.r_infinity(),
    "z3:hyperbolic-block-det-minus-one": SpectrumDescriptor.r_infinity(),
    "z3:eight-witness": SpectrumDescriptor.finite([8]),
    "z3:parity-obstruction": SpectrumDescriptor.r_infinity(),
    "ext:order-two-action": SpectrumDescriptor.r_infinity(),
    "ext:repeated-eigenvalue": SpectrumDescriptor.r_infinity(),
    "ext:hyperbolic-det-minus-one": SpectrumDescriptor.r_infinity(),
    "ext:lifting-witness": SpectrumDescriptor.finite([8]),
    "ext:parity-obstruction": SpectrumDescriptor.r_infinity(),
    "hn:no-eigenvalue-one": SpectrumDescriptor.r_infinity(),
    "hn:lifting-unconstrained": SpectrumDescriptor.multiples(4),
    "hn:lifting-parity": SpectrumDescriptor.multiples(8),
}


def _rule(trace: list[str], evidence=None) -> SpectrumResult:
    """The result whose spectrum is the one its last rule id proves."""
    return SpectrumResult(RULES[trace[-1]], tuple(trace), evidence)


# ---------------------------------------------------------------------------
# The quadratic system for Z^2 x|_A Z


class System2Witness(_Value):
    """A solution (m, n, p) of -m^2 - np = 1, (a-d)m + bp + cn = 0."""

    __slots__ = _fields = ("m", "n", "p")

    def __init__(self, m: int, n: int, p: int):
        if -m * m - n * p != 1:
            raise ValueError("witness fails -m^2 - np = 1")
        super().__init__(m, n, p)

    @property
    def matrix(self) -> IntMatrix:
        return IntMatrix.from_rows([[self.m, self.n], [self.p, -self.m]])

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "p": self.p, "matrix": self.matrix.to_rows()}


class System2Decision(_Value):
    # outcome: "witness" | "none-up-to-bound" | "proven-empty"
    __slots__ = _fields = ("outcome", "witness")


def _system2_require(a: IntMatrix):
    if a.rows != 2 or a.cols != 2:
        raise HypothesisError("the quadratic system is defined for 2x2 matrices")
    if a.det() != 1:
        raise HypothesisError("determinant must be 1; determinant -1 forces the infinite spectrum")
    if a.trace() in (2, -2):
        raise HypothesisError("eigenvalue +-1 is outside the hyperbolic case")


def decide_system2(a: IntMatrix, bound: int) -> System2Decision:
    """Decide the quadratic system for A up to the given |m| bound.

    Non-real eigenvalues prove the system empty.  Otherwise the least
    solution, the eight-class decision with no lifting test
    (``_eight_class_decision``), is reported when its |m| is at most the
    bound; else the outcome is ``none-up-to-bound``, which is true also
    when there is no solution.
    """
    _system2_require(a)
    if _strict_int(bound, "the bound") < 1:
        raise ValueError("bound must be >= 1")
    if abs(a.trace()) < 2:
        return System2Decision("proven-empty", None)
    outcome, found, _ = _eight_class_decision(a, lambda q: ())
    if outcome == "eight" and abs(found.m) <= bound:
        return System2Decision("witness", found)
    return System2Decision("none-up-to-bound", None)


# ---------------------------------------------------------------------------
# dimension 3: Z^2 x|_A Z


def classify_z2_semidirect(a: IntMatrix, bound: int) -> SpectrumResult:
    """Spectrum of Z^2 x|_A Z by the eigenvalue case ladder."""
    d, tr = _unimodular(a, 2, "the acting matrix"), a.trace()
    ident = IntMatrix.identity(2)

    if (d, tr) == (1, 2):
        if a == ident:
            return _rule(["z2:abelian", "nilpotent:lattice"])
        # A - I has rank 1, so its first elementary divisor is the gcd of its entries
        return _rule(
            ["z2:unipotent", "nilpotent:heisenberg"], {"heisenberg_parameter": math.gcd(*(a - ident).entries)}
        )
    if (d, tr) == (1, -2):
        if a == -ident:
            return _rule(["z2:minus-identity"])
        return _rule(["z2:repeated-minus-one"])
    if (d, tr) == (-1, 0):
        return _rule(["z2:eigenvalues-one-and-minus-one"])
    if tr * tr < 4 * d:
        return _rule(["z2:complex-eigenvalues", "system2:complex-empty"])
    # real eigenvalues different from +-1
    if d == -1:
        return _rule(["z2:hyperbolic-det-minus-one"])
    decision = decide_system2(a, bound)
    if decision.outcome == "witness":
        return _rule(["z2:hyperbolic", "system2:witness"], {"witness": decision.witness.to_json_dict()})
    candidates = (RULES["system2:proven-empty"], RULES["system2:witness"])
    return SpectrumResult(SpectrumDescriptor.undecided(candidates, bound), ("z2:hyperbolic", "system2:exhausted"))


# ---------------------------------------------------------------------------
# Tahara delta invariant


def tahara_delta(a: IntMatrix) -> int:
    """The 0/1 invariant of the order-2 and order-3 canonical forms.

    delta = 0 exactly when the fixed lattice of the eigenvalue 1 and the
    saturated invariant complement span all of Z^3 (index 1); otherwise
    delta = 1.  Requires a simple eigenvalue 1 and a complementary block
    of finite order d = 2 or 3.

    delta = 0 iff d divides every entry of S_d = I + A + ... + A^(d-1).
    By the classification of Z[C_d]-lattices for d prime (Reiner,
    Integral representations of cyclic groups of prime order, Proc. AMS
    1957), Z^3 is either Z + L with L the complement (index 1) or
    contains a summand Z[C_d] (index d).  S_d acts as d on Z and as 0 on
    L, and on Z[C_d] it is the all-ones matrix, so only the second case
    has an entry of S_d prime to d, in any basis.
    """
    _unimodular(a, 3, "the acting matrix")
    if unit_root_split(a)[0] != 1:
        raise HypothesisError("eigenvalue 1 must be simple")
    order = finite_order(a)
    if order not in (2, 3):
        raise HypothesisError("the complementary block must have order 2 or 3")
    return 0 if all(x % order == 0 for x in _power_sum(a.entries, order)[1]) else 1


# ---------------------------------------------------------------------------
# dimension 4: Z^3 x|_A Z, hyperbolic block decision


class Z3EightDecision(_Value):
    # outcome: "eight" | "r-infinity" | "proven-empty"
    __slots__ = _fields = ("outcome", "witness", "n_row", "obstruction_modulus")
    _defaults = {"obstruction_modulus": None}


def _eight_class_decision(
    a: IntMatrix, lifts: Callable[[IntMatrix], tuple[int, ...] | None]
) -> tuple[str, System2Witness | None, tuple[int, ...] | None]:
    """Does some solution Q of the quadratic system for A lift?  ``lifts(Q)``
    is the lifting data of Q, or None.  Returns ("eight", witness, data)
    for the least lifting solution, else ("r-infinity", None, None), or
    ("proven-empty", None, None) when there is no solution."""
    orbit = system2_orbit(a)
    if orbit is None:
        return "proven-empty", None, None
    found = least_solution(a, orbit, lifts)
    if found is None:
        return "r-infinity", None, None
    return "eight", System2Witness(*found[0].entries[:3]), found[1]


def _z3_lifting_test(
    a_prime: IntMatrix, c_row: tuple[int, int]
) -> tuple[Callable[[IntMatrix], tuple[int, ...] | None], int]:
    """The lifting test of the z3 block (1, C; 0, A') and its modulus.

    The test gives the row C (I - Q A') (I - A')^-1 when integral, else
    None.  It depends only on Q modulo det(I - A'), which divides the
    modulus lcm(8, |det(I - A')|), and it is invariant under Q -> QA', as
    C Q A' (I - A') (I - A')^-1 = C Q A' is integral.
    """
    shift = _one_minus(a_prime)
    det_shift = shift.det()
    a0, a1, a2, a3 = a_prime.entries
    j0, j1, j2, j3 = shift._adjugate().entries
    c0, c1 = c_row

    def integral_row(q: IntMatrix) -> tuple[int, ...] | None:
        # the row C Q, then C (I - Q A'), then times the adjugate, which
        # gives det(I - A') times the answer
        q0, q1, q2, q3 = q.entries
        s0, s1 = c0 * q0 + c1 * q2, c0 * q1 + c1 * q3
        r0, r1 = c0 - s0 * a0 - s1 * a2, c1 - s0 * a1 - s1 * a3
        x, y = r0 * j0 + r1 * j2, r0 * j1 + r1 * j3
        if x % det_shift or y % det_shift:
            return None
        return (x // det_shift, y // det_shift)

    return integral_row, math.lcm(8, abs(det_shift))


def decide_z3_eight(a_prime: IntMatrix, c_row: Sequence[int]) -> Z3EightDecision:
    """Decide between eight classes and the infinite spectrum for the
    block form (1, C; 0, A') with hyperbolic A' of determinant 1.

    An automorphism with eight classes exists iff some Q solving
    A' Q A' = Q makes C (I - Q A') (I - A')^-1 integral; the decision is
    exact (``_eight_class_decision``).
    """
    _system2_require(a_prime)
    if abs(a_prime.trace()) < 2:
        raise HypothesisError("the block must have real eigenvalues different from +-1")
    lifts, modulus = _z3_lifting_test(a_prime, _int_pair(c_row, "the coupling row"))
    outcome, wit, n_row = _eight_class_decision(a_prime, lifts)
    return Z3EightDecision(outcome, wit, n_row, modulus if outcome == "r-infinity" else None)


def _simple_one_block(a: IntMatrix) -> tuple[IntMatrix, tuple[int, int]]:
    """Change basis so A takes the form (1, C; 0, A'); returns (A', C).

    The first basis vector is the primitive eigenvector v of 1: A - I has
    rank 2, so v is the cross product of two independent rows, divided by
    its gcd and signed so its first nonzero entry is positive.  Row Euclid
    on v (the smallest nonzero entry as pivot, floor quotients) gives a
    unimodular U with U v = e1, and the basis is the columns of U^-1; a
    block form has v = e1 and U = I, so it maps to itself.
    """
    r0, r1, r2 = _one_minus(a).to_rows()
    for x, y in ((r0, r1), (r0, r2), (r1, r2)):
        v = [x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]]
        if any(v):
            break
    g = math.gcd(*v) * (1 if next(e for e in v if e) > 0 else -1)
    v = [e // g for e in v]
    u = IntMatrix.identity(3).to_rows()
    pivot = min((i for i in range(3) if v[i]), key=lambda i: abs(v[i]))
    v[0], v[pivot], u[0], u[pivot] = v[pivot], v[0], u[pivot], u[0]
    if v[0] < 0:
        v[0], u[0] = -v[0], [-e for e in u[0]]
    while any(v[1:]):
        for i in (1, 2):
            if v[i]:
                q = v[i] // v[0]
                v[i], u[i] = v[i] - q * v[0], [e - q * f for e, f in zip(u[i], u[0])]
                if v[i]:
                    v[0], v[i], u[0], u[i] = v[i], v[0], u[i], u[0]
    u = IntMatrix.from_rows(u)
    b = u * a * u.inverse_unimodular()
    return IntMatrix(2, 2, (b[1, 1], b[1, 2], b[2, 1], b[2, 2])), (b[0, 1], b[0, 2])


def _order_two_block(delta: int, trace: list[str]) -> SpectrumResult:
    """A simple eigenvalue 1 and a block of order 2: 2N when the Tahara
    delta is 0, else 4N."""
    return _rule(trace + ["z3:order-two-block", ("tahara:delta-zero", "tahara:delta-one")[delta]], {"delta": delta})


def classify_z3_semidirect(a: IntMatrix, bound: int | None = None) -> SpectrumResult:
    """Spectrum of Z^3 x|_A Z by the eigenvalue case ladder.  The bound
    is unused: the hyperbolic block is decided exactly."""
    _unimodular(a, 3, "the acting matrix")
    ident = IntMatrix.identity(3)
    mult_one, mult_minus_one, residual = unit_root_split(a)

    if mult_one == 0:
        if a == -ident:
            return _rule(["z3:minus-identity"])
        return _rule(["z3:no-eigenvalue-one"])

    if mult_one == 3:
        if a == ident:
            return _rule(["z3:abelian", "nilpotent:lattice"])
        shift = _one_minus(a)
        if not any((shift * shift).entries):
            return _rule(["z3:unipotent-two-step", "nilpotent:heisenberg-times-z"])
        return _rule(["z3:unipotent-three-step", "nilpotent:three-step"])

    if mult_one == 2:
        return _rule(["z3:eigenvalue-one-multiplicity-two"])

    # simple eigenvalue 1
    if mult_minus_one == 2:
        if finite_order(a) == 2:
            return _order_two_block(tahara_delta(a), [])
        return _rule(["z3:minus-one-unipotent-block"])

    c0, c1 = residual
    if c1 * c1 < 4 * c0:  # complex pair: a block of order 3, 4 or 6
        if c1 == 1:  # block trace -1, order 3
            delta = tahara_delta(a)
            return _rule(["z3:order-three-block", "tahara:delta-%d" % delta], {"delta": delta})
        return _rule(["z3:block-order-four-or-six"])

    # hyperbolic residual block
    if c0 == -1:
        return _rule(["z3:hyperbolic-block-det-minus-one"])
    a_prime, c_row = _simple_one_block(a)
    decision = decide_z3_eight(a_prime, c_row)
    if decision.outcome == "eight":
        return _rule(
            ["z3:hyperbolic-block", "z3:eight-witness"],
            {"witness": decision.witness.to_json_dict(), "coupling_row": list(c_row)},
        )
    if decision.outcome == "r-infinity":
        return _rule(
            ["z3:hyperbolic-block", "z3:parity-obstruction"], {"obstruction_modulus": decision.obstruction_modulus}
        )
    return _rule(["z3:hyperbolic-block", "system2:proven-empty"])


# ---------------------------------------------------------------------------
# dimension 4: the double extension (Z^2 x|_{-I} Z) x|_psi Z


def classify_z2_minusI_ext(a: IntMatrix, n0: Sequence[int], bound: int | None = None) -> SpectrumResult:
    """Spectrum of (Z^2 x|_{-I} Z) x|_psi Z with psi acting by A and
    twisting the inner generator by n0.  The bound is unused: the
    hyperbolic case is decided exactly."""
    _unimodular(a, 2, "the outer action")
    return _ext_decision(a, _int_pair(n0, "n0"))[0]


def _ext_decision(
    a: IntMatrix, n0: tuple[int, int]
) -> tuple[SpectrumResult, tuple[System2Witness, tuple[int, ...]] | None]:
    """The double extension's result for a unimodular 2x2 A and two
    integers n0, as ``groups.Z2MinusIExt`` has checked them, and on
    ``ext:lifting-witness`` the least lifting block with its lifting
    coefficients (m0, z0) as values, else None.  The ``phi_eight`` witness
    reads its block off this decision, not off the evidence."""
    order = _entries_order(a.entries)
    if order == 2 and a != -IntMatrix.identity(2):
        return _rule(["ext:order-two-action"]), None
    if order is not None:
        # +-I and orders 3, 4, 6: a change of the quotient generators makes
        # the inner action trivial, leaving Z^3 x|_M Z with M = (A', n0'; 0, 1)
        trace = ["ext:finite-order-action", "ext:canonicalized", "ext:trivial-inner-action"]
        if order > 2:
            # y -> x^(order/2) y, after x -> x y for order 3: A' has order 4 or 6
            return _rule(trace + ["z3:block-order-four-or-six"]), None
        # swap x and y (A = I) or y -> x y (A = -I): A' = -I and n0' = +-n0;
        # M fixes the line through (n0', 2), whose primitive vector spans
        # Z^3 with Z^2 x 0 (delta 0) exactly when n0' lies in 2Z^2
        return _order_two_block(0 if n0[0] % 2 == n0[1] % 2 == 0 else 1, trace), None
    d, tr = a.det(), a.trace()
    if d == 1 and abs(tr) == 2:
        return _rule(["ext:repeated-eigenvalue"]), None
    if d == -1:
        return _rule(["ext:hyperbolic-det-minus-one"]), None

    # hyperbolic, det 1: im(2A) = 2Z^2, so whether a block M lifts depends
    # only on M mod 2 (``lifting_solver``), and the system constrains
    # (m, n, p) mod 8
    outcome, wit, coeffs = _eight_class_decision(a, lifting_solver(a, n0))
    if outcome == "eight":
        evidence = {"witness": wit.to_json_dict(), "m0": list(coeffs[:2]), "z0": list(coeffs[2:])}
        return _rule(["ext:hyperbolic", "ext:lifting-witness"], evidence), (wit, coeffs)
    if outcome == "r-infinity":
        return _rule(["ext:hyperbolic", "ext:parity-obstruction"], {"obstruction_modulus": 8}), None
    return _rule(["ext:hyperbolic", "system2:proven-empty"]), None


# ---------------------------------------------------------------------------
# dimension 4: H_n x|_psi Z


def classify_hn_semidirect(
    n: int,
    action: IntMatrix | tuple[int, int],
    bound: int,
    central_twists: tuple[int, int] = (0, 0),
) -> SpectrumResult:
    """Spectrum of H_n x|_psi Z.

    ``action`` is either the pair (k, l) of central twists for the
    inverting action psi(x) = x^-1 z^k, psi(y) = y^-1 z^l, or the 2x2
    matrix induced on H_n / Z(H_n) (with optional central twists).  A
    pair already gives the twists, so it takes no ``central_twists``.
    The bound is unused: every case is decided by its rule.
    """
    _heisenberg_parameter(n, "the Heisenberg parameter")
    twists = _int_pair(central_twists, "the central twists")
    if not isinstance(action, IntMatrix):
        if any(twists):
            raise HypothesisError("a (k, l) action gives the central twists itself; give them once")
        return _classify_hn_twists(n, *_int_pair(action, "the central twists"))
    a, ident = action, IntMatrix.identity(2)
    d, tr = _unimodular(a, 2, "the induced action"), a.trace()
    if a == -ident:
        return _classify_hn_twists(n, *twists)
    if (d, tr) == (1, 2):
        return _rule(["hn:unipotent-action", "nilpotent:heisenberg-times-z" if a == ident else "nilpotent:three-step"])
    if (d, tr) == (-1, 0):
        return _classify_hn_mixed(n, a, *twists)
    return _rule(["hn:no-eigenvalue-one"])


def _classify_hn_twists(n: int, k: int, l: int) -> SpectrumResult:
    if n % 2 == 1 or (k % 2 == 0 and l % 2 == 0):
        return _rule(["hn:inverting-action", "hn:lifting-unconstrained"])
    return _rule(["hn:inverting-action", "hn:lifting-parity"])


def _classify_hn_mixed(n: int, a: IntMatrix, cx: int, cy: int) -> SpectrumResult:
    """Eigenvalues {1, -1}: always {oo}, read off the parity of n / gcd(n, c).

    Every unimodular A with integer twists defines psi, since
    [psi x, psi y] = z^(n det A) = psi(z)^n.  Let v lift the primitive
    (-1)-eigenvector of A to H_n, c be the z-exponent of psi(v) v, and w
    complete v to a basis.  The group is an extension of Z^2 = <w, t> by
    Z^2 = <v, z>: w acts by (1, 0; +-n, 1) and t by -(1, 0; -c, 1).  Their
    torsion direction, the primitive (i, j) with i (+-n) = j c, has
    j = +-n / gcd(n, c); taking w^i t^j as the second generator makes its
    action (-1)^j I and the first +-(I + gamma N) with gamma != 0.  So odd j
    gives a double extension with a parabolic action, and even j gives
    Z^3 x|_M Z with a non-diagonal -1 block.
    """
    p, q, r, _ = a.entries
    # A^2 = I, so each column of A - I is a (-1)-eigenvector
    v1, v2 = (q, -p - 1) if (q, p + 1) != (0, 0) else (p - 1, r)
    g = math.gcd(v1, v2)
    v1, v2 = v1 // g, v2 // g
    # psi(v) v = z^c with c = v1 cx + v2 cy plus commutator terms, each a
    # multiple of n, and gcd(n, c) depends only on c mod n
    c = v1 * cx + v2 * cy
    trace = ["hn:mixed-eigenvalues", "ext:canonicalized"]
    if n // math.gcd(n, c) % 2:
        return _rule(trace + ["ext:repeated-eigenvalue"])
    return _rule(trace + ["ext:trivial-inner-action", "z3:minus-one-unipotent-block"])


# ---------------------------------------------------------------------------
# nilpotent families


def __getattr__(name: str):
    # groups.THREE_STEP, bound here on first use: importing spectra does not load groups
    if name != "THREE_STEP":
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from .groups import THREE_STEP
    globals()[name] = THREE_STEP
    return THREE_STEP


def classify_nilpotent(family) -> SpectrumResult:
    """Spectrum of a nilpotent family: lattices, Heisenberg groups, their
    product with a line, and Z^n x|_A Z (n <= 3) with A unipotent, named by
    the least s with (A - I)^s = 0 (s = 3 for ``groups.THREE_STEP``).  The
    family is recognised by its ``json_tag``."""
    tag = getattr(family, "json_tag", None)
    if tag == "free-abelian" and family.n == 1:
        return _rule(["nilpotent:rank-one"])
    # the Heisenberg tags name their spectra; a free abelian group is a lattice
    name = "lattice" if tag == "free-abelian" else tag
    if tag == "zn-semidirect-z":
        steps = {1: ("lattice",), 2: ("lattice", "heisenberg"), 3: ("lattice", "heisenberg-times-z", "three-step")}
        shifted = power = _one_minus(family.action)
        for step in steps.get(family.n, ()):
            if not any(power.entries):
                name = step
                break
            power = power * shifted
    if "nilpotent:%s" % name not in RULES:
        raise HypothesisError("not a nilpotent family: %r" % (family,))
    return _rule(["nilpotent:" + name])


# ---------------------------------------------------------------------------
# Conclusion tables


# Each table row: its eigenvalue case and the terminal rule ids that end there
TABLE_ROWS: dict[str, tuple[tuple[str, str], ...]] = {
    "z2-semidirect": (
        ("repeated eigenvalue -1, A = -I", "z2:minus-identity"),
        ("repeated eigenvalue -1, A != -I", "z2:repeated-minus-one"),
        ("eigenvalues 1 and -1", "z2:eigenvalues-one-and-minus-one"),
        ("real eigenvalues != +-1, det A = 1", "system2:proven-empty system2:witness"),
        ("real eigenvalues != +-1, det A = -1", "z2:hyperbolic-det-minus-one"),
        ("non-real eigenvalues", "system2:complex-empty"),
    ),
    "z3-semidirect": (
        ("1 not an eigenvalue, A = -I", "z3:minus-identity"),
        ("1 not an eigenvalue, A != -I", "z3:no-eigenvalue-one"),
        ("eigenvalues 1, 1, -1 (repeated 1)", "z3:eigenvalue-one-multiplicity-two"),
        ("simple 1, unipotent -1 block (n != 0)", "z3:minus-one-unipotent-block"),
        ("simple 1, order-2 block, delta = 0", "tahara:delta-zero"),
        ("simple 1, order-2 block, delta = 1", "tahara:delta-one"),
        ("simple 1, hyperbolic block, det = 1", "z3:parity-obstruction system2:proven-empty z3:eight-witness"),
        ("simple 1, hyperbolic block, det = -1", "z3:hyperbolic-block-det-minus-one"),
        ("simple 1, block of order 4 or 6", "z3:block-order-four-or-six"),
        ("simple 1, block of order 3", "tahara:delta-0 tahara:delta-1"),
    ),
    "double-extension": (
        ("A = +-I, n0 in 2Z^2 (delta = 0)", "tahara:delta-zero"),
        ("A = +-I, n0 not in 2Z^2 (delta = 1)", "tahara:delta-one"),
        ("repeated eigenvalue 1 or -1, A != +-I", "ext:repeated-eigenvalue"),
        ("finite order 3, 4 or 6", "z3:block-order-four-or-six"),
        ("real eigenvalues, det A = -1", "ext:order-two-action ext:hyperbolic-det-minus-one"),
        ("real eigenvalues != +-1, det A = 1", "ext:parity-obstruction system2:proven-empty ext:lifting-witness"),
    ),
    "heisenberg-semidirect": (
        ("A = I", "nilpotent:heisenberg-times-z"),
        ("unipotent A != I", "nilpotent:three-step"),
        ("eigenvalues 1 and -1", "ext:repeated-eigenvalue z3:minus-one-unipotent-block"),
        ("A != -I and 1 not an eigenvalue", "hn:no-eigenvalue-one"),
        ("inverting action, k and l even or n odd", "hn:lifting-unconstrained"),
        ("inverting action, k or l odd and n even", "hn:lifting-parity"),
    ),
}


def conclusion_tables() -> dict:
    """The classification tables for the four semidirect families, keyed
    by eigenvalue case: each row lists the spectra of its rules."""
    return {
        table: [{"case": case, "spectrum": list(dict.fromkeys(RULES[i] for i in ids.split()))} for case, ids in rows]
        for table, rows in TABLE_ROWS.items()
    }
