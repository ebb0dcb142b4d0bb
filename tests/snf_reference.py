"""The general Smith normal form, kept as the independent reference for
the closed forms of the package.

``exactlin.system2_orbit`` reads the kernel of one row, ``spectra`` the
primitive eigenvector of 1 and the Tahara invariant of a 3x3 action, and
``twisted.r_class_sum`` the classes of Z^2 / (I - Q) Z^2 on a Hermite
box, each in closed form.  Here each is recomputed from the Smith form
U M V = D with recorded transforms: ``kernel_lattice`` and ``eigenlattice`` as columns
of V, ``coset_representatives`` as U^-1 applied to the box of the
elementary divisors, ``r_abelian_via_cosets`` as their product,
``tahara_index`` as the index of the two eigenlattices and
``ext_rnumber_via_cosets`` as the class sum over the coset transversal.
The pivoting is general, and its entries grow on large inputs, so only
the tests call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
import operator

from reidemeister.exactlin import IntMatrix
from reidemeister.groups import AutomorphismSpec
from reidemeister.twisted import INFINITE, RNumber, r_abelian


@dataclass(frozen=True)
class SNFResult:
    """U * M * V = D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    elementary_divisors: tuple[int, ...]


def smith_normal_form(m: IntMatrix) -> SNFResult:
    """Smith normal form with deterministic pivoting.

    Pivot choice: smallest nonzero absolute value in the remaining
    submatrix, ties broken by row index then column index.  Diagonal
    entries are normalised non-negative, divisibility d1 | d2 | ... holds
    and zero divisors come last.
    """
    rows, cols = m.rows, m.cols
    a = m.to_rows()
    u = IntMatrix.identity(rows).to_rows()
    v = IntMatrix.identity(cols).to_rows()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, q):
        # row_dst += q * row_src
        for k in range(cols):
            a[dst][k] += q * a[src][k]
        for k in range(rows):
            u[dst][k] += q * u[src][k]

    def add_col(src, dst, q):
        for r in a:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]

    def negate_row(i):
        for k in range(cols):
            a[i][k] = -a[i][k]
        for k in range(rows):
            u[i][k] = -u[i][k]

    def pick_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                val = abs(a[i][j])
                if val and (best is None or val < best[0]):
                    best = (val, i, j)
        return best

    t = 0
    limit = min(rows, cols)
    while t < limit:
        picked = pick_pivot(t)
        if picked is None:
            break
        _, pi, pj = picked
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if a[t][t] < 0:
            negate_row(t)
        # Clear row t and column t; a smaller remainder becomes the new pivot.
        while True:
            progressed = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        progressed = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        progressed = True
            if not progressed:
                break
        # Enforce divisibility of all later entries by the pivot.
        bad = None
        piv = a[t][t]
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % piv:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1

    dmat = IntMatrix.from_rows(a)
    divisors = tuple(a[i][i] for i in range(limit))
    return SNFResult(IntMatrix.from_rows(u), dmat, IntMatrix.from_rows(v), divisors)


@dataclass(frozen=True)
class LatticeBasis:
    """Basis of a saturated sublattice of Z^ambient_dim (possibly empty)."""

    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


def kernel_lattice(m: IntMatrix) -> LatticeBasis:
    """Saturated basis of the integer kernel {v : M v = 0}.

    The kernel basis consists of the columns of V at zero-divisor
    positions; since V is unimodular this basis is automatically
    saturated.
    """
    snf = smith_normal_form(m)
    limit = min(m.rows, m.cols)
    basis = []
    for j in range(m.cols):
        if j >= limit or snf.elementary_divisors[j] == 0:
            basis.append(snf.V.column(j))
    return LatticeBasis(m.cols, tuple(basis))


def eigenlattice(a: IntMatrix, eps: int) -> LatticeBasis:
    """Saturated basis of W_eps = {z in Z^n : A z = eps z} for eps = +-1."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if not a.is_unimodular:
        raise ValueError("eigenlattice requires a unimodular matrix")
    return kernel_lattice(a - IntMatrix.identity(a.rows).scale(eps))


def coset_representatives(m: IntMatrix) -> list[tuple[int, ...]] | None:
    """Representatives of Z^n / (image of M), or None when the index is infinite.

    With U M V = D, the image of M is U^-1 (D Z^n), so U^-1 applied to the
    box {0 <= x_i < d_i} is a transversal.
    """
    snf = smith_normal_form(m)
    if any(d == 0 for d in snf.elementary_divisors):
        return None
    uinv = snf.U.inverse_unimodular()
    reps: list[tuple[int, ...]] = []

    def rec(prefix: list[int], i: int):
        if i == len(snf.elementary_divisors):
            reps.append(uinv.apply(prefix))
            return
        for val in range(snf.elementary_divisors[i]):
            rec(prefix + [val], i + 1)

    rec([], 0)
    return reps


def r_abelian_via_cosets(m: IntMatrix) -> RNumber:
    """Index of the image of (I - M) in Z^n via the elementary divisors."""
    divisors = smith_normal_form(IntMatrix.identity(m.rows) - m).elementary_divisors
    if any(d == 0 for d in divisors):
        return INFINITE
    index = 1
    for d in divisors:
        index *= d
    return RNumber(index)


def tahara_index(a: IntMatrix) -> int:
    """The index in Z^3 of the fixed lattice of an order-2 or order-3 action
    plus its saturated invariant complement: 1 or the order."""
    ident = IntMatrix.identity(3)
    w1 = eigenlattice(a, 1)
    complement = kernel_lattice(a + ident if a * a == ident else a * a + a + ident)
    if w1.rank != 1 or complement.rank != 2:
        raise ValueError("unexpected eigenlattice ranks for a canonical finite-order form")
    return abs(IntMatrix.from_columns([w1.basis[0], *complement.basis]).det())


def ext_rnumber_via_cosets(spec: AutomorphismSpec) -> RNumber:
    """R of a verified double-extension automorphism, summed over the coset
    transversal of Z^2 / (I - Q) Z^2: the class of t^e u^f acts on the
    lattice by (-I)^e A^f."""
    family = spec.family
    reps = coset_representatives(IntMatrix.identity(2) - family.quotient_matrix(spec))
    if reps is None:
        return INFINITE
    m = family.fitting_matrix(spec)
    return reduce(operator.add, [r_abelian((family.action ** f).scale((-1) ** (e % 2)) * m) for e, f in reps])
