"""The classification ladder: from a group description to its spectrum.

Each classifier walks a case analysis on the eigenvalues of the acting
matrix and returns a ``SpectrumResult``: the spectrum descriptor plus a
derivation trace of rule identifiers, so a result can be audited without
re-reading the code.  A 2x2 case is read off (det, trace); a 3x3 case off
``exactlin.unit_root_split``, the multiplicities of 1 and -1 and the
quadratic factor left over.

Bounded searches never masquerade as proofs.  A hyperbolic case that
exhausts its search bound comes back ``undecided`` unless a genuine
obstruction applies: non-real eigenvalues, determinant -1, or the
residue-class (parity) obstruction, which enumerates the finitely many
residue classes that solutions of the quadratic system can occupy and
checks that the integrality constraint fails on every one of them.
The hyperbolic Z^3 block and the double extension share one eight-class
decision, ``_eight_class_search``, which holds the search limits and the
residue obstruction; each case passes in its own lifting test.  The
obstruction runs before the search, and the search tests each residue
class once, since a lifting test depends only on the residue.

Extensions of Z^2 by Z^2 (``ExtensionPresentation``) use the one group
law of ``groups``, the one ``Z2MinusIExt`` uses with B = -I.  Both the
mixed-eigenvalue Heisenberg case and the double extension with an action
of finite order (+-I, orders 3, 4, 6) reach their spectra through one
canonical route, ``_classify_canonical``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
import math
from typing import Callable, Iterator, Mapping, Sequence

from .exactlin import (
    IntMatrix,
    centralizer_exponent,
    eigenlattice,
    finite_order,
    kernel_lattice,
    smith_normal_form,
    unit_root_split,
    _system2_rows,
)
from .groups import (
    AutomorphismSpec,
    FreeAbelian,
    Heisenberg,
    HeisenbergTimesZ,
    lifting_solver,
    verify_automorphism,
    _strict_int,
    _z2_by_z2_inv,
    _z2_by_z2_mul,
)


class HypothesisError(ValueError):
    """The input violates the case hypotheses of the requested decision."""


RESIDUE_MODULUS_GATE = 24  # largest modulus the residue obstruction will enumerate
ORBIT_DEPTH = 8  # powers of A mixed into the witness orbit during searches
WITNESS_ENUM_LIMIT = 200  # solutions drawn from the quadratic system per search


# ---------------------------------------------------------------------------
# Spectrum descriptors


@dataclass(frozen=True)
class SpectrumDescriptor:
    """Canonical encoding of a Reidemeister spectrum.

    kind is one of r_infinity | finite | multiples | full | undecided;
    infinity is implied present in every kind.
    """

    kind: str
    values: tuple[int, ...] | None = None
    c: int | None = None
    candidates: tuple["SpectrumDescriptor", ...] | None = None
    bound: int | None = None

    @classmethod
    def r_infinity(cls) -> "SpectrumDescriptor":
        return cls("r_infinity")

    @classmethod
    def finite(cls, values: Sequence[int]) -> "SpectrumDescriptor":
        vals = tuple(sorted(set(int(v) for v in values)))
        if not vals or vals[0] < 1:
            raise ValueError("finite spectra need a nonempty set of positive values")
        return cls("finite", values=vals)

    @classmethod
    def multiples(cls, c: int) -> "SpectrumDescriptor":
        if c < 2:
            raise ValueError("multiples spectra need c >= 2")
        return cls("multiples", c=c)

    @classmethod
    def full(cls) -> "SpectrumDescriptor":
        return cls("full")

    @classmethod
    def undecided(cls, candidates: Sequence["SpectrumDescriptor"], bound: int) -> "SpectrumDescriptor":
        cands = tuple(candidates)
        if len(cands) != 2:
            raise ValueError("undecided spectra record exactly two candidates")
        return cls("undecided", candidates=cands, bound=bound)

    def to_json_dict(self) -> dict:
        if self.kind == "r_infinity":
            return {"kind": "r_infinity"}
        if self.kind == "finite":
            return {"kind": "finite", "values": list(self.values)}
        if self.kind == "multiples":
            return {"kind": "multiples", "c": self.c}
        if self.kind == "full":
            return {"kind": "full"}
        if self.kind == "undecided":
            return {
                "kind": "undecided",
                "candidates": [c.to_json_dict() for c in self.candidates],
                "bound": self.bound,
            }
        raise ValueError("unknown spectrum kind %r" % self.kind)

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


@dataclass(frozen=True)
class SpectrumResult:
    spectrum: SpectrumDescriptor
    trace: tuple[str, ...]
    evidence: Mapping | None = None

    def __post_init__(self):
        if not self.trace:
            raise ValueError("classifier results must carry a nonempty trace")


def _result(spectrum, trace, evidence=None) -> SpectrumResult:
    return SpectrumResult(spectrum, tuple(trace), evidence)


def _undecided_or(value: int, bound: int) -> SpectrumDescriptor:
    """Undecided between {oo} and {value, oo}."""
    return SpectrumDescriptor.undecided((SpectrumDescriptor.r_infinity(), SpectrumDescriptor.finite([value])), bound)


# ---------------------------------------------------------------------------
# The quadratic system for Z^2 x|_A Z


@dataclass(frozen=True)
class System2Witness:
    """A solution (m, n, p) of -m^2 - np = 1, (a-d)m + bp + cn = 0."""

    m: int
    n: int
    p: int

    def __post_init__(self):
        if -self.m * self.m - self.n * self.p != 1:
            raise ValueError("witness fails -m^2 - np = 1")

    @property
    def matrix(self) -> IntMatrix:
        return IntMatrix.from_rows([[self.m, self.n], [self.p, -self.m]])

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "p": self.p, "matrix": self.matrix.to_rows()}


@dataclass(frozen=True)
class System2Decision:
    outcome: str  # "witness" | "none-up-to-bound" | "proven-empty"
    witness: System2Witness | None
    bound: int


def _system2_require(a: IntMatrix):
    if a.rows != 2 or a.cols != 2:
        raise HypothesisError("the quadratic system is defined for 2x2 matrices")
    if a.det() != 1:
        raise HypothesisError("determinant must be 1; determinant -1 forces the infinite spectrum")
    if a.trace() in (2, -2):
        raise HypothesisError("eigenvalue +-1 is outside the hyperbolic case")


def _system2_solutions(a: IntMatrix, bound: int) -> Iterator[System2Witness]:
    """All solutions with |m| <= bound, in deterministic order: m walks
    0, -1, 1, -2, 2, ... and (n, p) ascends lexicographically per m."""
    for m, pairs in _system2_rows(a, bound):
        for n, p in sorted(pairs):
            yield System2Witness(m, n, p)


def decide_system2(a: IntMatrix, bound: int) -> System2Decision:
    """Decide the quadratic system for A up to the given |m| bound.

    Non-real eigenvalues prove the system empty without a search; a real
    search is complete in m up to the bound, solving one quadratic for n
    per m (``exactlin._system2_rows``).  The first solution in the
    deterministic order is the one reported.
    """
    _system2_require(a)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    tr = a.trace()
    if tr * tr - 4 < 0:
        return System2Decision("proven-empty", None, bound)
    for wit in _system2_solutions(a, bound):
        return System2Decision("witness", wit, bound)
    return System2Decision("none-up-to-bound", None, bound)


@lru_cache(maxsize=RESIDUE_MODULUS_GATE)
def _quotient_pairs(modulus: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per residue r, the pairs (n, p) mod modulus with n p = r, in
    ascending (n, p); it depends on the modulus alone."""
    pairs = [[] for _ in range(modulus)]
    for n in range(modulus):
        for p in range(modulus):
            pairs[n * p % modulus].append((n, p))
    return tuple(map(tuple, pairs))


def _feasible_residues(a: IntMatrix, modulus: int) -> list[tuple[int, int, int]]:
    """Residues (m, n, p) mod modulus compatible with both equations.

    Every integral solution reduces into this set, so a property failing
    on all of it fails for every solution; that is the whole content of
    the residue obstruction.
    """
    aa, bb, cc, dd = a.entries
    # p enters both equations linearly: -m^2 - 1 = n p picks the pairs
    pairs = _quotient_pairs(modulus)
    out = []
    for m in range(modulus):
        em = (aa - dd) * m
        out.extend((m, n, p) for n, p in pairs[(-m * m - 1) % modulus] if (em + cc * n + bb * p) % modulus == 0)
    return out


# ---------------------------------------------------------------------------
# dimension 3: Z^2 x|_A Z


def classify_z2_semidirect(a: IntMatrix, bound: int) -> SpectrumResult:
    """Spectrum of Z^2 x|_A Z by the eigenvalue case ladder."""
    if a.rows != 2 or not a.is_square:
        raise HypothesisError("expected a 2x2 matrix")
    d, tr = a.det(), a.trace()
    if d not in (1, -1):
        raise HypothesisError("the acting matrix must be unimodular")
    ident = IntMatrix.identity(2)

    if (d, tr) == (1, 2):
        if a == ident:
            return _result(SpectrumDescriptor.full(), ["z2:abelian", "nilpotent:lattice"])
        divisors = smith_normal_form(a - ident).elementary_divisors
        n = next(d for d in divisors if d)
        return _result(
            SpectrumDescriptor.multiples(2),
            ["z2:unipotent", "nilpotent:heisenberg"],
            {"heisenberg_parameter": n},
        )
    if (d, tr) == (1, -2):
        if a == -ident:
            return _result(SpectrumDescriptor.multiples(2), ["z2:minus-identity"])
        return _result(SpectrumDescriptor.r_infinity(), ["z2:repeated-minus-one"])
    if (d, tr) == (-1, 0):
        return _result(SpectrumDescriptor.r_infinity(), ["z2:eigenvalues-one-and-minus-one"])
    if tr * tr < 4 * d:
        return _result(
            SpectrumDescriptor.r_infinity(), ["z2:complex-eigenvalues", "system2:complex-empty"]
        )
    # real eigenvalues different from +-1
    if d == -1:
        return _result(SpectrumDescriptor.r_infinity(), ["z2:hyperbolic-det-minus-one"])
    decision = decide_system2(a, bound)
    if decision.outcome == "witness":
        return _result(
            SpectrumDescriptor.finite([4]),
            ["z2:hyperbolic", "system2:witness"],
            {"witness": decision.witness.to_json_dict()},
        )
    if decision.outcome == "proven-empty":
        return _result(SpectrumDescriptor.r_infinity(), ["z2:hyperbolic", "system2:proven-empty"])
    return _result(_undecided_or(4, bound), ["z2:hyperbolic", "system2:exhausted"])


# ---------------------------------------------------------------------------
# Tahara delta invariant


def tahara_delta(a: IntMatrix) -> int:
    """The 0/1 invariant of the order-2 and order-3 canonical forms.

    delta = 0 exactly when the fixed lattice of the eigenvalue 1 and the
    saturated invariant complement span all of Z^3 (index 1); otherwise
    delta = 1.  Requires a simple eigenvalue 1 and a complementary block
    of finite order 2 or 3.
    """
    if a.rows != 3 or a.cols != 3:
        raise HypothesisError("the delta invariant lives on 3x3 matrices")
    if not a.is_unimodular:
        raise HypothesisError("the matrix must be unimodular")
    if unit_root_split(a)[0] != 1:
        raise HypothesisError("eigenvalue 1 must be simple")
    order = finite_order(a)
    if order not in (2, 3):
        raise HypothesisError("the complementary block must have order 2 or 3")
    ident = IntMatrix.identity(3)
    w1 = eigenlattice(a, 1)
    if order == 2:
        complement = kernel_lattice(a + ident)
    else:
        complement = kernel_lattice(a * a + a + ident)
    if w1.rank != 1 or complement.rank != 2:
        raise HypothesisError("unexpected eigenlattice ranks for a canonical finite-order form")
    cols = [w1.basis[0], complement.basis[0], complement.basis[1]]
    index = abs(IntMatrix.from_columns(cols).det())
    return 0 if index == 1 else 1


# ---------------------------------------------------------------------------
# dimension 4: Z^3 x|_A Z, hyperbolic block decision


@dataclass(frozen=True)
class Z3EightDecision:
    outcome: str  # "eight" | "r-infinity" | "undecided"
    witness: System2Witness | None
    n_row: tuple[int, int] | None
    bound: int
    obstruction_modulus: int | None = None


_ORBIT_EXPONENTS = tuple(jj for j in range(1, ORBIT_DEPTH + 1) for jj in (j, -j))


def _orbit_of(q: tuple[int, ...], a: IntMatrix, powers: list[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    # plain witness first, then powers of A by growing distance, all as
    # row-major entries; ``powers`` keeps the A^j already built for the
    # other witnesses of one search
    q0, q1, q2, q3 = q
    yield q
    yield (-q0, -q1, -q2, -q3)
    for i, jj in enumerate(_ORBIT_EXPONENTS):
        if i == len(powers):
            powers.append((a ** jj).entries)
        w, x, y, z = powers[i]
        b0, b1, b2, b3 = w * q0 + x * q2, w * q1 + x * q3, y * q0 + z * q2, y * q1 + z * q3
        yield (b0, b1, b2, b3)
        yield (-b0, -b1, -b2, -b3)


def _eight_class_search(
    a: IntMatrix, bound: int, lifts: Callable[[IntMatrix], tuple[int, ...] | None], modulus: int
) -> tuple[str, System2Witness | None, tuple[int, ...] | None]:
    """The eight-class decision shared by the z3 block and the double
    extension: does some solution Q of the quadratic system for A lift?

    ``lifts(Q)`` returns the lifting data of Q, or None when Q does not
    lift; it must depend only on Q modulo ``modulus``, so one call decides
    a whole residue class.  Under the gate the residue obstruction comes
    first: when no feasible residue class of solutions lifts, no solution
    does, and the answer is ("r-infinity", None, None) without a search.
    Otherwise the search walks the first WITNESS_ENUM_LIMIT solutions with
    |m| <= bound, each with its orbit, tests each residue class once, and
    returns ("eight", witness, data) for the first Q that lifts; else
    ("undecided", None, None).
    """
    failed = set()  # residues mod ``modulus`` known not to lift
    if modulus <= RESIDUE_MODULUS_GATE:
        feasible = _feasible_residues(a, modulus)
        failed = {(m, n, p) for m, n, p in feasible if lifts(IntMatrix(2, 2, (m, n, p, -m))) is None}
        if len(failed) == len(feasible):
            return "r-infinity", None, None
    powers: list[tuple[int, ...]] = []
    for wit in islice(_system2_solutions(a, bound), WITNESS_ENUM_LIMIT):
        for q in _orbit_of((wit.m, wit.n, wit.p, -wit.m), a, powers):
            residue = (q[0] % modulus, q[1] % modulus, q[2] % modulus)
            if residue in failed:
                continue
            data = lifts(IntMatrix(2, 2, q))
            if data is not None:
                return "eight", System2Witness(q[0], q[1], q[2]), data
            failed.add(residue)
    return "undecided", None, None


def _z3_lifting_test(
    a_prime: IntMatrix, c_row: tuple[int, int]
) -> tuple[Callable[[IntMatrix], tuple[int, ...] | None], int]:
    """The lifting test of the z3 block (1, C; 0, A') and its modulus.

    The test gives the row C (I - Q A') (I - A')^-1 when integral, else
    None.  It depends only on Q modulo det(I - A'), which divides the
    modulus lcm(8, |det(I - A')|).
    """
    shift = IntMatrix.identity(2) - a_prime
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


def decide_z3_eight(a_prime: IntMatrix, c_row: Sequence[int], bound: int) -> Z3EightDecision:
    """Decide between eight classes and the infinite spectrum for the
    block form (1, C; 0, A') with hyperbolic A' of determinant 1.

    An automorphism with eight classes exists iff some Q solving
    A' Q A' = Q makes C (I - Q A') (I - A')^-1 integral.  Emptiness is
    only claimed via the residue obstruction, never from bounded failure;
    otherwise the search runs over bounded solutions and their
    +-A'-power orbit.
    """
    _system2_require(a_prime)
    if abs(a_prime.trace()) < 2:
        raise HypothesisError("the block must have real eigenvalues different from +-1")
    c_row = tuple(_strict_int(v, "an entry of the coupling row") for v in c_row)
    if len(c_row) != 2:
        raise HypothesisError("the coupling row must have two entries")
    lifts, modulus = _z3_lifting_test(a_prime, c_row)
    outcome, wit, n_row = _eight_class_search(a_prime, bound, lifts, modulus)
    return Z3EightDecision(outcome, wit, n_row, bound, modulus if outcome == "r-infinity" else None)


def _simple_one_block(a: IntMatrix) -> tuple[IntMatrix, tuple[int, int]]:
    """Change basis so A takes the form (1, C; 0, A'); returns (A', C).

    The first basis vector is the primitive eigenvector of 1, extended to
    a unimodular basis through the Smith transform of the column.
    """
    w1 = eigenlattice(a, 1)
    if w1.rank != 1:
        raise HypothesisError("eigenvalue 1 must be simple")
    v = w1.basis[0]
    col = IntMatrix.from_columns([v])
    snf = smith_normal_form(col)
    # U v = e1 for a primitive column, so U^-1 has v as first column
    p = snf.U.inverse_unimodular()
    if snf.D.column(0) != (1, 0, 0):
        raise HypothesisError("eigenvector is not primitive")
    b = snf.U * a * p
    a_prime = IntMatrix.from_rows([[b[1, 1], b[1, 2]], [b[2, 1], b[2, 2]]])
    c_row = (b[0, 1], b[0, 2])
    if (b[1, 0], b[2, 0]) != (0, 0) or b[0, 0] != 1:
        raise AssertionError("basis change failed to produce the block form")
    return a_prime, c_row


def classify_z3_semidirect(a: IntMatrix, bound: int) -> SpectrumResult:
    """Spectrum of Z^3 x|_A Z by the eigenvalue case ladder."""
    if a.rows != 3 or not a.is_square:
        raise HypothesisError("expected a 3x3 matrix")
    if a.det() not in (1, -1):
        raise HypothesisError("the acting matrix must be unimodular")
    ident = IntMatrix.identity(3)
    mult_one, mult_minus_one, residual = unit_root_split(a)

    if mult_one == 0:
        if a == -ident:
            return _result(SpectrumDescriptor.multiples(2), ["z3:minus-identity"])
        return _result(SpectrumDescriptor.r_infinity(), ["z3:no-eigenvalue-one"])

    if mult_one == 3:
        if a == ident:
            return _result(SpectrumDescriptor.full(), ["z3:abelian", "nilpotent:lattice"])
        shifted = a - ident
        if shifted * shifted == IntMatrix.zero(3, 3):
            return _result(
                SpectrumDescriptor.multiples(4),
                ["z3:unipotent-two-step", "nilpotent:heisenberg-times-z"],
            )
        return _result(
            SpectrumDescriptor.r_infinity(), ["z3:unipotent-three-step", "nilpotent:three-step"]
        )

    if mult_one == 2:
        return _result(SpectrumDescriptor.r_infinity(), ["z3:eigenvalue-one-multiplicity-two"])

    # simple eigenvalue 1
    if mult_minus_one == 2:
        if finite_order(a) == 2:
            delta = tahara_delta(a)
            if delta == 0:
                return _result(
                    SpectrumDescriptor.multiples(2),
                    ["z3:order-two-block", "tahara:delta-zero"],
                    {"delta": 0},
                )
            return _result(
                SpectrumDescriptor.multiples(4),
                ["z3:order-two-block", "tahara:delta-one"],
                {"delta": 1},
            )
        return _result(SpectrumDescriptor.r_infinity(), ["z3:minus-one-unipotent-block"])

    c0, c1 = residual
    if c1 * c1 < 4 * c0:  # complex pair: a block of order 3, 4 or 6
        if c1 == 1:  # block trace -1, order 3
            delta = tahara_delta(a)
            return _result(
                SpectrumDescriptor.multiples(6),
                ["z3:order-three-block", "tahara:delta-%d" % delta],
                {"delta": delta},
            )
        return _result(SpectrumDescriptor.r_infinity(), ["z3:block-order-four-or-six"])

    # hyperbolic residual block
    if c0 == -1:
        return _result(SpectrumDescriptor.r_infinity(), ["z3:hyperbolic-block-det-minus-one"])
    a_prime, c_row = _simple_one_block(a)
    decision = decide_z3_eight(a_prime, c_row, bound)
    if decision.outcome == "eight":
        return _result(
            SpectrumDescriptor.finite([8]),
            ["z3:hyperbolic-block", "z3:eight-witness"],
            {"witness": decision.witness.to_json_dict(), "coupling_row": list(c_row)},
        )
    if decision.outcome == "r-infinity":
        return _result(
            SpectrumDescriptor.r_infinity(),
            ["z3:hyperbolic-block", "z3:parity-obstruction"],
            {"obstruction_modulus": decision.obstruction_modulus},
        )
    return _result(_undecided_or(8, bound), ["z3:hyperbolic-block", "z3:search-exhausted"])


# ---------------------------------------------------------------------------
# Extensions of Z^2 by Z^2: presentation data and canonicalization


@dataclass(frozen=True)
class Substitution:
    """A unimodular change of the quotient generators.

    ``matrix`` rows express the new generators in the old ones:
    x' = x^T[0,0] y^T[0,1], y' = x^T[1,0] y^T[1,1].
    """

    matrix: IntMatrix
    label: str

    def __post_init__(self):
        if not self.matrix.is_unimodular or self.matrix.rows != 2:
            raise ValueError("substitutions must be unimodular 2x2")


@dataclass(frozen=True)
class ExtensionPresentation:
    """Data of an extension of Z^2 by Z^2.

    The quotient generators x, y act on the kernel by ``action_x`` and
    ``action_y``; ``n0`` is the kernel part of the commutator of the
    chosen lifts, [lift(x), lift(y)].
    """

    action_x: IntMatrix
    action_y: IntMatrix
    n0: tuple[int, int]
    change_log: tuple[Substitution, ...] = ()

    def __post_init__(self):
        a, b = self.action_x, self.action_y
        if a.rows != 2 or b.rows != 2 or not a.is_unimodular or not b.is_unimodular:
            raise ValueError("actions must be unimodular 2x2 matrices")
        if a * b != b * a:
            raise ValueError("the two actions must commute")
        object.__setattr__(self, "n0", tuple(_strict_int(v, "an entry of n0") for v in self.n0))

    # elements (z1, z2, k, l) = z t^k u^l with t = lift(y), u = lift(x),
    # under the one Z^2-by-Z^2 law of ``groups``
    def multiply(self, g: tuple, h: tuple) -> tuple:
        return _z2_by_z2_mul(self.action_x.entries, self.action_y.entries, self.n0, g, h)

    def inverse(self, g: tuple) -> tuple:
        return _z2_by_z2_inv(self.action_x.entries, self.action_y.entries, self.n0, g)


def apply_substitution(pres: ExtensionPresentation, sub: Substitution) -> ExtensionPresentation:
    """Rewrite the presentation in the substituted quotient generators."""
    t = sub.matrix
    a, b = pres.action_x, pres.action_y
    new_a = a ** t[0, 0] * b ** t[0, 1]
    new_b = a ** t[1, 0] * b ** t[1, 1]
    # the plain-word lift u^i t^j of x^i y^j, in normal form
    u_new = pres.multiply((0, 0, 0, t[0, 0]), (0, 0, t[0, 1], 0))
    t_new = pres.multiply((0, 0, 0, t[1, 0]), (0, 0, t[1, 1], 0))
    mul, inv = pres.multiply, pres.inverse
    comm = mul(mul(u_new, t_new), mul(inv(u_new), inv(t_new)))
    if comm[2] or comm[3]:
        raise AssertionError("commutator of lifted generators left the kernel")
    return ExtensionPresentation(new_a, new_b, (comm[0], comm[1]), pres.change_log + (sub,))


def canonicalize_z2_by_z2(pres: ExtensionPresentation) -> ExtensionPresentation:
    """Drive the quotient generators into one of the canonical situations:

    1. action_y = I;
    2. action_y = -I with action_x of infinite order;
    3. action_y = -I with action_x != +-I of order 2.

    Every substitution is appended to the change log, so replaying the
    log on the input reproduces the output exactly.
    """
    ident = IntMatrix.identity(2)
    current = pres
    for _ in range(20):
        a, b = current.action_x, current.action_y
        if b == ident:
            return current
        if b == -ident:
            order = None if a in (ident, -ident) else finite_order(a)
            if a == ident:
                rows, label = [[0, 1], [1, 0]], "swap x and y"
            elif a == -ident:
                rows, label = [[1, 0], [1, 1]], "y -> x y"
            elif order is None or order == 2:
                return current
            elif order == 3:
                rows, label = [[1, 1], [0, 1]], "x -> x y"
            else:  # order 4 or 6: a^(order/2) = -I
                rows, label = [[1, 0], [order // 2, 1]], "y -> x^%d y" % (order // 2)
        elif a in (ident, -ident):
            rows, label = [[0, 1], [1, 0]], "swap x and y"
        elif finite_order(a) is not None:
            # commuting with a finite-order matrix != +-I forces B = +-A^k
            k = centralizer_exponent(a, b)
            if k is None:
                raise ValueError("commuting pair violates the finite centralizer structure")
            rows, label = [[1, 0], [-k, 1]], "y -> x^-%d y" % k
        elif finite_order(b) is not None:
            # a finite-order B != +-I would force A into a finite
            # centralizer, contradicting its infinite order
            raise ValueError("commuting pair violates the finite centralizer structure")
        else:
            i, j = _find_torsion_direction(a, b)
            g, s, t = _xgcd(i, j)
            # rows (t, -s) and (i, j) have determinant ti + sj = 1
            rows, label = [[t, -s], [i, j]], "y -> x^%d y^%d" % (i, j)
        current = apply_substitution(current, Substitution(IntMatrix.from_rows(rows), label))
    raise AssertionError("canonicalization did not terminate")


def _find_torsion_direction(a: IntMatrix, b: IntMatrix) -> tuple[int, int]:
    """The primitive (i, j) with A^i B^j = +-I and i < 0.

    A and B commute and have infinite order, so both are +-eps^x, +-eps^y
    for one generator eps of their centralizer modulo +-I, and the pairs
    (i, j) with A^i B^j = +-I form the rank-1 lattice (y, -x) Z.  Euclid
    on (x, y) reaches it without knowing eps: the size of +-eps^k grows
    strictly with |k| away from +-I, so multiplying the larger element by
    the smaller one or its inverse, whichever is smaller, subtracts the
    smaller exponent from the larger.  Exponent vectors stay a basis of
    Z^2, so the one reaching +-I is primitive.
    """
    ident = IntMatrix.identity(2)
    minus = -ident
    size = _hyperbolic_size if a.det() == -1 or abs(a.trace()) > 2 else _parabolic_size
    big, e_big = a, (1, 0)
    small, e_small = b, (0, 1)
    while True:
        for m, (i, j) in ((big, e_big), (small, e_small)):
            if m == ident or m == minus:
                return (i, j) if i < 0 else (-i, -j)
        if size(big) < size(small):
            big, e_big, small, e_small = small, e_small, big, e_big
        inv = small.inverse_unimodular()
        plus, minus_step = big * small, big * inv
        if size(plus) < size(minus_step):
            big, e_big = plus, (e_big[0] + e_small[0], e_big[1] + e_small[1])
        else:
            big, e_big = minus_step, (e_big[0] - e_small[0], e_big[1] - e_small[1])


def _hyperbolic_size(m: IntMatrix) -> int:
    return abs(m.trace())


def _parabolic_size(m: IntMatrix) -> int:
    # +-(I + kN) has 2M - tr(M) I = +-2kN
    tr = m.trace()
    return max(abs(2 * m[i, j] - (tr if i == j else 0)) for i in range(2) for j in range(2))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, s, t with g = s*a + t*b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# ---------------------------------------------------------------------------
# dimension 4: the double extension (Z^2 x|_{-I} Z) x|_psi Z


def classify_z2_minusI_ext(a: IntMatrix, n0: Sequence[int], bound: int) -> SpectrumResult:
    """Spectrum of (Z^2 x|_{-I} Z) x|_psi Z with psi acting by A and
    twisting the inner generator by n0."""
    n0 = tuple(_strict_int(v, "an entry of n0") for v in n0)
    if len(n0) != 2:
        raise HypothesisError("n0 must have exactly two entries, got %d" % len(n0))
    if a.rows != 2 or not a.is_unimodular:
        raise HypothesisError("the outer action must be a unimodular 2x2 matrix")
    order = finite_order(a)
    minus = -IntMatrix.identity(2)
    if order == 2 and a != minus:
        return _result(SpectrumDescriptor.r_infinity(), ["ext:order-two-action"])
    if order is not None:
        # +-I and orders 3, 4, 6: canonicalization trivializes the inner action
        return _classify_canonical(ExtensionPresentation(a, minus, n0), bound, ["ext:finite-order-action"])
    d, tr = a.det(), a.trace()
    if d == 1 and abs(tr) == 2:
        return _result(SpectrumDescriptor.r_infinity(), ["ext:repeated-eigenvalue"])
    if d == -1:
        return _result(SpectrumDescriptor.r_infinity(), ["ext:hyperbolic-det-minus-one"])

    # hyperbolic, det 1: im(2A) = 2Z^2, so whether a block M lifts depends
    # only on M mod 2, and the system constrains (m, n, p) mod 8
    outcome, wit, coeffs = _eight_class_search(a, bound, lifting_solver(a, n0), 8)
    if outcome == "eight":
        return _result(
            SpectrumDescriptor.finite([8]),
            ["ext:hyperbolic", "ext:lifting-witness"],
            {"witness": wit.to_json_dict(), "m0": list(coeffs[:2]), "z0": list(coeffs[2:])},
        )
    if outcome == "r-infinity":
        return _result(
            SpectrumDescriptor.r_infinity(),
            ["ext:hyperbolic", "ext:parity-obstruction"],
            {"obstruction_modulus": 8},
        )
    return _result(_undecided_or(8, bound), ["ext:hyperbolic", "ext:search-exhausted"])


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
    matrix induced on H_n / Z(H_n) (with optional central twists).
    """
    if _strict_int(n, "the Heisenberg parameter") < 1:
        raise HypothesisError("the Heisenberg parameter must be >= 1")
    ident = IntMatrix.identity(2)
    if not isinstance(action, IntMatrix):
        k, l = (_strict_int(v, "a central twist") for v in action)
        return _classify_hn_twists(n, k, l)
    a = action
    if a.rows != 2 or not a.is_unimodular:
        raise HypothesisError("the induced action must be a unimodular 2x2 matrix")
    cx, cy = (_strict_int(v, "a central twist") for v in central_twists)
    if a == -ident:
        return _classify_hn_twists(n, cx, cy)
    d, tr = a.det(), a.trace()
    if (d, tr) == (1, 2):
        if a == ident:
            return _result(
                SpectrumDescriptor.multiples(4),
                ["hn:unipotent-action", "nilpotent:heisenberg-times-z"],
            )
        return _result(
            SpectrumDescriptor.r_infinity(), ["hn:unipotent-action", "nilpotent:three-step"]
        )
    if (d, tr) == (-1, 0):
        return _classify_hn_mixed(n, a, cx, cy, bound)
    return _result(SpectrumDescriptor.r_infinity(), ["hn:no-eigenvalue-one"])


def _classify_hn_twists(n: int, k: int, l: int) -> SpectrumResult:
    if n % 2 == 1 or (k % 2 == 0 and l % 2 == 0):
        return _result(SpectrumDescriptor.multiples(4), ["hn:inverting-action", "hn:lifting-unconstrained"])
    return _result(SpectrumDescriptor.multiples(8), ["hn:inverting-action", "hn:lifting-parity"])


def _classify_hn_mixed(n: int, a: IntMatrix, cx: int, cy: int, bound: int) -> SpectrumResult:
    """Eigenvalues {1, -1}: realize the group as an extension of Z^2 by
    Z^2 and route through the canonicalized presentation."""
    heis = Heisenberg(n)
    # det A = -1 in this branch
    images = {"x": (a[0, 0], a[1, 0], cx), "y": (a[0, 1], a[1, 1], cy), "z": (0, 0, a.det())}
    psi = AutomorphismSpec.from_images(heis, images)
    report = verify_automorphism(psi)
    if not report:
        raise HypothesisError("the action data does not define an automorphism: %s" % report.failure)

    v_bar = eigenlattice(a, -1).basis[0]
    g, s, t = _xgcd(v_bar[0], v_bar[1])
    if g != 1:
        raise AssertionError("eigenlattice basis is not primitive")
    v = heis.element((v_bar[0], v_bar[1], 0))
    # w completes v to a basis with det [[v1, w1], [v2, w2]] = 1
    w = heis.element((-t, s, 0))
    z = heis.generator("z")

    def coords(g_elt) -> tuple[int, int]:
        ge = g_elt.exponents
        # kernel coordinates relative to the basis (v, z)
        i = ge[0] // v_bar[0] if v_bar[0] else ge[1] // v_bar[1]
        if (i * v_bar[0], i * v_bar[1]) != (ge[0], ge[1]):
            raise AssertionError("element does not lie in the rank-2 kernel")
        rest = g_elt * (v ** i).inverse()
        return (i, rest.exponents[2])

    a_ext = IntMatrix.from_columns([coords(w * v * w.inverse()), coords(w * z * w.inverse())])
    b_ext = IntMatrix.from_columns([coords(psi.apply(v)), coords(psi.apply(z))])
    n0_ext = coords(w * psi.apply(w).inverse())

    pres = ExtensionPresentation(a_ext, b_ext, n0_ext)
    return _classify_canonical(pres, bound, ["hn:mixed-eigenvalues"])


def _classify_canonical(pres: ExtensionPresentation, bound: int, trace: list[str]) -> SpectrumResult:
    """Classify an extension of Z^2 by Z^2 through its canonical
    presentation: a trivial inner action makes it Z^3 x|_M Z with M =
    (A, n0; 0, 1); otherwise the inner action is -I and it is a double
    extension."""
    canon = canonicalize_z2_by_z2(pres)
    trace = trace + ["ext:canonicalized"]
    a, n0 = canon.action_x, canon.n0
    if canon.action_y == IntMatrix.identity(2):
        m3 = IntMatrix.from_rows([[a[0, 0], a[0, 1], n0[0]], [a[1, 0], a[1, 1], n0[1]], [0, 0, 1]])
        routed = classify_z3_semidirect(m3, bound)
        trace.append("ext:trivial-inner-action")
    else:
        routed = classify_z2_minusI_ext(a, n0, bound)
    return _result(routed.spectrum, trace + list(routed.trace), routed.evidence)


# ---------------------------------------------------------------------------
# nilpotent families


THREE_STEP = "three-step"

_NILPOTENT_SPECTRA = {
    THREE_STEP: (SpectrumDescriptor.r_infinity(), "nilpotent:three-step"),
    FreeAbelian: (SpectrumDescriptor.full(), "nilpotent:lattice"),
    Heisenberg: (SpectrumDescriptor.multiples(2), "nilpotent:heisenberg"),
    HeisenbergTimesZ: (SpectrumDescriptor.multiples(4), "nilpotent:heisenberg-times-z"),
}


def classify_nilpotent(family) -> SpectrumResult:
    """Spectrum of a nilpotent family: lattices, Heisenberg groups, their
    product with a line, and the three-step marker."""
    if family == FreeAbelian(1):
        return _result(SpectrumDescriptor.finite([2]), ["nilpotent:rank-one"])
    entry = _NILPOTENT_SPECTRA.get(THREE_STEP if family == THREE_STEP else type(family))
    if entry is None:
        raise HypothesisError("not a nilpotent family: %r" % (family,))
    return _result(entry[0], [entry[1]])


# ---------------------------------------------------------------------------
# Conclusion tables


def conclusion_tables() -> dict:
    """The classification tables for the four semidirect families, keyed
    by eigenvalue case."""
    inf = SpectrumDescriptor.r_infinity()
    mult, fin = SpectrumDescriptor.multiples, SpectrumDescriptor.finite

    return {
        "z2-semidirect": [
            {"case": "repeated eigenvalue -1, A = -I", "spectrum": [mult(2)]},
            {"case": "repeated eigenvalue -1, A != -I", "spectrum": [inf]},
            {"case": "eigenvalues 1 and -1", "spectrum": [inf]},
            {"case": "real eigenvalues != +-1, det A = 1", "spectrum": [inf, fin([4])]},
            {"case": "real eigenvalues != +-1, det A = -1", "spectrum": [inf]},
            {"case": "non-real eigenvalues", "spectrum": [inf]},
        ],
        "z3-semidirect": [
            {"case": "1 not an eigenvalue, A = -I", "spectrum": [mult(2)]},
            {"case": "1 not an eigenvalue, A != -I", "spectrum": [inf]},
            {"case": "eigenvalues 1, 1, -1 (repeated 1)", "spectrum": [inf]},
            {"case": "simple 1, unipotent -1 block (n != 0)", "spectrum": [inf]},
            {"case": "simple 1, order-2 block, delta = 0", "spectrum": [mult(2)]},
            {"case": "simple 1, order-2 block, delta = 1", "spectrum": [mult(4)]},
            {"case": "simple 1, hyperbolic block, det = 1", "spectrum": [inf, fin([8])]},
            {"case": "simple 1, hyperbolic block, det = -1", "spectrum": [inf]},
            {"case": "simple 1, block of order 4 or 6", "spectrum": [inf]},
            {"case": "simple 1, block of order 3", "spectrum": [mult(6)]},
        ],
        "double-extension": [
            {"case": "A = +-I, n0 in 2Z^2 (delta = 0)", "spectrum": [mult(2)]},
            {"case": "A = +-I, n0 not in 2Z^2 (delta = 1)", "spectrum": [mult(4)]},
            {"case": "repeated eigenvalue 1 or -1, A != +-I", "spectrum": [inf]},
            {"case": "finite order 3, 4 or 6", "spectrum": [inf]},
            {"case": "real eigenvalues, det A = -1", "spectrum": [inf]},
            {"case": "real eigenvalues != +-1, det A = 1", "spectrum": [inf, fin([8])]},
        ],
        "heisenberg-semidirect": [
            {"case": "A != -I and 1 not an eigenvalue", "spectrum": [inf]},
            {"case": "inverting action, k and l even or n odd", "spectrum": [mult(4)]},
            {"case": "inverting action, k or l odd and n even", "spectrum": [mult(8)]},
        ],
    }
