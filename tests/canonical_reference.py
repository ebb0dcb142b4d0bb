"""The Z^2-by-Z^2 canonical route, kept as the reference for the
closed-form rules of ``spectra``.

An extension of Z^2 by Z^2 is given by the actions of the two quotient
generators on the kernel and the kernel part n0 of the commutator of
their lifts.  ``canonicalize_z2_by_z2`` changes the quotient generators
until the second action is I (then the group is Z^3 x|_M Z with
M = (A, n0; 0, 1)) or -I with a first action of infinite order or a
non-scalar involution (then it is a double extension).  The mixed
eigenvalue case of H_n x|_psi Z and the double extension with an action
of finite order used to be classified this way; ``spectra`` now emits
the rules this route always lands on.  This is slow but short enough to
audit by eye.
"""

from __future__ import annotations

from dataclasses import dataclass

from reidemeister.exactlin import DimensionError, IntMatrix, finite_order, _strict_int
from reidemeister.groups import (
    AutomorphismSpec,
    Heisenberg,
    verify_automorphism,
    _z2_by_z2_mul,
)
from reidemeister.spectra import SpectrumResult, classify_z2_minusI_ext, classify_z3_semidirect
from snf_reference import eigenlattice


def centralizer_exponent(m: IntMatrix, x: IntMatrix) -> int | None:
    """The least k >= 0 with X = +-M^k, or None; M must have finite order
    and M != +-I.

    For finite-order M != +-I in GL2(Z), the centralizer is exactly the
    finite set {+-M^k}, so one walk over k < order decides membership.
    """
    if m.rows != 2 or x.rows != 2 or not m.is_square or not x.is_square:
        raise DimensionError("centralizer-span check is for 2x2 matrices")
    ident = IntMatrix.identity(2)
    if m == ident or m == -ident:
        raise ValueError("M must differ from +-I")
    order = finite_order(m)
    if order is None:
        raise ValueError("M must have finite order")
    return next((k for k in range(order) if x in (m ** k, -(m ** k))), None)


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
        # g h lies in the kernel for h = t^-k u^-l, and then g^-1 = h (g h)^-1
        h = (0, 0, -g[2], -g[3])
        c = self.multiply(g, h)
        return self.multiply(h, (-c[0], -c[1], 0, 0))


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
    return SpectrumResult(routed.spectrum, tuple(trace + list(routed.trace)), routed.evidence)


def reference_double_ext_finite_order(a: IntMatrix, n0: tuple[int, int], bound: int) -> SpectrumResult:
    """The double extension with A = +-I or A of order 3, 4 or 6."""
    return _classify_canonical(ExtensionPresentation(a, -IntMatrix.identity(2), n0), bound, ["ext:finite-order-action"])


def reference_hn_mixed(n: int, a: IntMatrix, cx: int, cy: int, bound: int) -> SpectrumResult:
    """H_n x|_psi Z with eigenvalues {1, -1}: realize the group as an
    extension of Z^2 by Z^2 with kernel <v, z> and route through the
    canonicalized presentation."""
    heis = Heisenberg(n)
    images = {"x": (a[0, 0], a[1, 0], cx), "y": (a[0, 1], a[1, 1], cy), "z": (0, 0, a.det())}
    psi = AutomorphismSpec.from_images(heis, images)
    report = verify_automorphism(psi)
    if not report:
        raise AssertionError("the action data does not define an automorphism: %s" % report.failure)

    v_bar = eigenlattice(a, -1).basis[0]
    g, s, t = _xgcd(v_bar[0], v_bar[1])
    if g != 1:
        raise AssertionError("eigenlattice basis is not primitive")
    mul, inv = heis.multiply, heis.inverse
    v = heis.element((v_bar[0], v_bar[1], 0))
    # w completes v to a basis with det [[v1, w1], [v2, w2]] = 1
    w = heis.element((-t, s, 0))
    z = heis.generators()[2]

    def coords(ge) -> tuple[int, int]:
        # kernel coordinates relative to the basis (v, z)
        i = ge[0] // v_bar[0] if v_bar[0] else ge[1] // v_bar[1]
        if (i * v_bar[0], i * v_bar[1]) != (ge[0], ge[1]):
            raise AssertionError("element does not lie in the rank-2 kernel")
        rest = mul(ge, inv(heis.power(v, i)))
        return (i, rest[2])

    def conj_w(g):
        return mul(mul(w, g), inv(w))

    a_ext = IntMatrix.from_columns([coords(conj_w(v)), coords(conj_w(z))])
    b_ext = IntMatrix.from_columns([coords(psi.apply(v)), coords(psi.apply(z))])
    n0_ext = coords(mul(w, inv(psi.apply(w))))
    return _classify_canonical(ExtensionPresentation(a_ext, b_ext, n0_ext), bound, ["hn:mixed-eigenvalues"])
