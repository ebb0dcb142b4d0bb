"""The four workloads: seeded inputs, the call each request makes, and the
benchmark's own check of every answer.

Each workload object builds its inputs from the seed alone and hands the
library (or the CLI) only those inputs.  ``make_pass(i)`` returns the
requests of pass ``i``; a run repeats whole passes in a closed loop with
one client, so every share (undecided, failed) is exact per pass.
``check`` judges a result with plain integer arithmetic and hard-coded
tables, never by asking the library, and returns ``(status, reason)`` with
status ``ok``, ``undecided`` (an honest refusal) or ``failed``.

``known_defect(req, result, error)`` names the library defect recorded at
the baseline (README.md) that a failed request shows, or returns None.  It
matches the exact inputs and the exact wrong answer or exception, so any
other failure, or a new input hitting the same code path, stays unexplained.
A request that shows a known defect still counts as failed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
import json
import os
from pathlib import Path
import random
import subprocess
import sys

from reidemeister import exactlin as E
from reidemeister import groups as G
from reidemeister import spectra as S

OK, UNDECIDED, FAILED = "ok", "undecided", "failed"

# Baseline defects (README.md, "Defects recorded at the baseline").
TARGET_DEFECT = "target-identity-tail"  # witness(FreeAbelian(n >= 3), "target", a) counts infinity
HN_DEFECT = "hn-canonicalization-exhausted"  # classify_hn_semidirect raises on these (n, A, twists)
HN_EXHAUSTED_MESSAGE = "canonicalization search exhausted; no torsion direction found"
HN_EXHAUSTED = frozenset(
    (4, a, twists)
    for a, twist_list in (
        (((-2, 3), (-1, 2)), ((-2, -1), (-2, 1), (-1, -2), (-1, 0))),
        (((2, -1), (3, -2)), ((-2, -1), (-1, -2), (0, -1), (1, -2))),
    )
    for twists in twist_list
)


@dataclass(frozen=True)
class Request:
    part: str  # the slice of the workload this request belongs to
    kind: str  # which call to make
    data: tuple  # the generated inputs


# ---------------------------------------------------------------------------
# Plain integer helpers (independent of the library)


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def matvec(a, v):
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def trace2(m):
    return m[0][0] + m[1][1]


def det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def random_conjugator(rng: random.Random, n: int, steps: int = 3):
    """A unimodular P and its inverse, as a product of elementary matrices."""
    p, p_inv = identity(n), identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        e, e_inv = identity(n), identity(n)
        e[i][j], e_inv[i][j] = s, -s
        p, p_inv = matmul(p, e), matmul(e_inv, p_inv)
    return p, p_inv


def unimodular_box(limit: int):
    """Every 2x2 integer matrix with entries in [-limit, limit] and det +-1."""
    out = []
    for a, b, c, d in product(range(-limit, limit + 1), repeat=4):
        if a * d - b * c in (1, -1):
            out.append(((a, b), (c, d)))
    return out


# descriptors as the library serializes them
INF = {"kind": "r_infinity"}
FULL = {"kind": "full"}


def fin(*values):
    return {"kind": "finite", "values": list(values)}


def mult(c):
    return {"kind": "multiples", "c": c}


def undecided(candidate, bound):
    return {"kind": "undecided", "candidates": [INF, candidate], "bound": bound}


# ---------------------------------------------------------------------------
# Conclusion tables, from the benchmark's own eigenvalue case analysis.
# Each returns the allowed descriptors; a hyperbolic case also allows the
# honest "undecided" between its two candidates.


def z2_allowed(a, b, c, d, bound):
    tr, dt = a + d, a * d - b * c
    if dt == 1 and tr == 2:
        return [FULL] if (a, b, c, d) == (1, 0, 0, 1) else [mult(2)]
    if dt == 1 and tr == -2:
        return [mult(2)] if (a, b, c, d) == (-1, 0, 0, -1) else [INF]
    if dt == -1 or abs(tr) < 2:
        return [INF]
    return [INF, fin(4), undecided(fin(4), bound)]


def char_poly3(m):
    """Coefficients [1, c2, c1, c0] of det(xI - M) for a 3x3 matrix."""
    tr = m[0][0] + m[1][1] + m[2][2]
    minors = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
    return [1, -tr, minors, -det3(m)]


def deflate_one(coeffs):
    """Multiplicity of the root 1 and the residual polynomial."""
    mult_one = 0
    while len(coeffs) > 1 and sum(coeffs) == 0:
        out = [coeffs[0]]
        for c in coeffs[1:-1]:
            out.append(c + out[-1])
        coeffs = out
        mult_one += 1
    return mult_one, coeffs


def z3_allowed(m, bound):
    ident, neg = identity(3), [[-v for v in row] for row in identity(3)]
    mult_one, residual = deflate_one(char_poly3(m))
    if mult_one == 0:
        return [mult(2)] if m == neg else [INF]
    if mult_one == 3:
        if m == ident:
            return [FULL]
        shifted = [[m[i][j] - ident[i][j] for j in range(3)] for i in range(3)]
        return [mult(4)] if matmul(shifted, shifted) == [[0] * 3] * 3 else [INF]
    if mult_one == 2:
        return [INF]
    _, c1, c0 = residual
    if (c1, c0) == (2, 1):  # block eigenvalue -1 twice
        return [mult(2), mult(4)] if matmul(m, m) == ident else [INF]
    if c1 * c1 - 4 * c0 < 0:  # non-real block eigenvalues; trace -1 means order 3
        return [mult(6)] if -c1 == -1 else [INF]
    if c0 == -1:
        return [INF]
    return [INF, fin(8), undecided(fin(8), bound)]


def ext_allowed(a, b, c, d, bound):
    tr, dt = a + d, a * d - b * c
    if dt == -1 or abs(tr) == 2:
        return [INF]
    return [INF, fin(8), undecided(fin(8), bound)]


def hn_twist_allowed(n, k, l):
    return [mult(4)] if n % 2 == 1 or (k % 2 == 0 and l % 2 == 0) else [mult(8)]


def nilpotent_allowed(tag, n):
    if tag == "free-abelian":
        return [fin(2)] if n == 1 else [FULL]
    return {"heisenberg": [mult(2)], "heisenberg-times-z": [mult(4)], "three-step": [INF]}[tag]


def system2_holds(a, b, c, d, w) -> bool:
    m, n, p = w["m"], w["n"], w["p"]
    return -m * m - n * p == 1 and (a - d) * m + b * p + c * n == 0


def classify_status(spectrum: dict, allowed: list) -> tuple[str, str | None]:
    if spectrum not in allowed:
        return FAILED, "descriptor %s not allowed (%s)" % (json.dumps(spectrum), json.dumps(allowed))
    if spectrum["kind"] == "undecided":
        return UNDECIDED, None
    return OK, None


# ---------------------------------------------------------------------------
# Witness closed forms (the paper's counts for each named witness family)


def witness_count(family_key: tuple, wid: str, param: int) -> int:
    tag = family_key[0]
    if wid == "phi_m":
        return 4 * param if tag == "heisenberg-times-z" else 2 * param
    if wid == "target":
        return param
    if wid == "negation":
        return 2 ** family_key[1]
    if wid == "M_m":  # M_m on -I_n: m + (m + 1 - (-1)^n)
        return 2 * param if family_key[1] % 2 == 0 else 2 * param + 2
    if wid == "phi_alpha":
        return {"t2-1": 4, "t2-0": 2, "t3-0": 6, "t3-1": 6}[family_key[1]] * param
    if wid == "M_r":
        return 4 * param
    if wid == "phi_eight":
        return 8
    raise ValueError(wid)


WEL = ((2, 3), (3, 5))
NIET = ((5, 2), (2, 1))


def build_family(key: tuple):
    tag = key[0]
    if tag == "heisenberg":
        return G.Heisenberg(key[1])
    if tag == "heisenberg-times-z":
        return G.HeisenbergTimesZ(key[1])
    if tag == "free-abelian":
        return G.FreeAbelian(key[1])
    if tag == "minus-identity":
        return G.ZnSemidirectZ(-E.IntMatrix.identity(key[1]))
    if tag == "tahara":
        form = {"t2-1": G.tahara_form_order2(1), "t2-0": G.tahara_form_order2(0),
                "t3-0": G.tahara_form_order3(0), "t3-1": G.tahara_form_order3(1)}[key[1]]
        return G.ZnSemidirectZ(form)
    if tag == "hn":
        return G.HnSemidirectZ(*key[1:])
    if tag == "double-ext":
        return G.Z2MinusIExt(E.IntMatrix.from_rows(key[1]), key[2])
    raise ValueError(tag)


# ---------------------------------------------------------------------------
# spectra-sweep


class SpectraSweep:
    """The seeded classification scan a library user runs, in process.

    The z2 box is fixed: every unimodular 2x2 matrix in [-6,6]^4.  The
    seeded parts have fixed sizes per stratum (hyperbolic or not), so the
    work per pass barely moves with the seed.  All at one bound, far below
    the CLI default, so a pass stays a few seconds.
    """

    name = "spectra-sweep"
    window_passes = 1  # statistics window: about 1100 requests

    def __init__(self, seed: int, tiny: bool = False):
        self.bound = 30 if tiny else 300
        rng = random.Random(seed)
        box = unimodular_box(2 if tiny else 6)
        step = 10 if tiny else 3  # every step-th matrix of each stratum
        hyper = [m for m in box if det2(m) == 1 and abs(trace2(m)) > 2]
        other = [m for m in box if m not in hyper]
        # actions of finite order 3, 4, 6 and +-I lie outside the double extension
        ext_other = [m for m in other if not (det2(m) == 1 and abs(trace2(m)) < 2)
                     and m not in (((1, 0), (0, 1)), ((-1, 0), (0, -1)))]
        reqs = [Request("z2-box", "z2", (m,)) for m in box]
        # the matrices are fixed; the seed draws the coupling rows, the
        # conjugators, n0 and the twists, so each pass keeps its mix of cases
        for i, a_prime in enumerate(hyper[::step] + other[:: 2 * step]):
            c_row = (rng.randint(-3, 3), rng.randint(-3, 3))
            block = [[1, c_row[0], c_row[1]], [0, *a_prime[0]], [0, *a_prime[1]]]
            if i % 2:
                reqs.append(Request("z3", "z3", (tuple(map(tuple, block)), a_prime, c_row)))
            else:
                p, p_inv = random_conjugator(rng, 3)
                conj = matmul(matmul(p, block), p_inv)
                reqs.append(Request("z3", "z3", (tuple(map(tuple, conj)), None, None)))
        for a in hyper[::step] + ext_other[:: 3 * step]:
            reqs.append(Request("double-ext", "ext", (a, (rng.randint(-3, 3), rng.randint(-3, 3)))))
        # Heisenberg semidirect products: central twists, and matrices
        # with eigenvalues 1 and -1 (routed through Z^2-by-Z^2 canonicalization)
        mixed = [m for m in unimodular_box(3) if trace2(m) == 0 and det2(m) == -1]
        for i, a in enumerate(mixed[: 4 if tiny else None]):
            n = 1 + i % 4
            reqs.append(Request("hn", "hn-twists", (n, rng.randint(-3, 3), rng.randint(-3, 3))))
            reqs.append(Request("hn", "hn-matrix", (n, a, (rng.randint(-2, 2), rng.randint(-2, 2)))))
        for tag in ("free-abelian", "heisenberg", "heisenberg-times-z"):
            for n in range(1, 5):
                reqs.append(Request("nilpotent", "nilpotent", (tag, n)))
        reqs.append(Request("nilpotent", "nilpotent", ("three-step", 0)))
        rng.shuffle(reqs)
        self.corpus = reqs

    def stamp(self) -> dict:
        return {"bound": self.bound, "requests_per_pass": len(self.corpus)}

    def make_pass(self, index: int) -> list[Request]:
        return self.corpus

    def warmup(self) -> None:
        for req in self.corpus[:20]:
            self.execute(req)

    def execute(self, req: Request):
        kind, data, bound = req.kind, req.data, self.bound
        if kind == "z2":
            return S.classify_z2_semidirect(E.IntMatrix.from_rows(data[0]), bound)
        if kind == "z3":
            return S.classify_z3_semidirect(E.IntMatrix.from_rows(data[0]), bound)
        if kind == "ext":
            return S.classify_z2_minusI_ext(E.IntMatrix.from_rows(data[0]), data[1], bound)
        if kind == "hn-twists":
            n, k, l = data
            return S.classify_hn_semidirect(n, (k, l), bound)
        if kind == "hn-matrix":
            n, a, twists = data
            return S.classify_hn_semidirect(n, E.IntMatrix.from_rows(a), bound, twists)
        tag, n = data
        family = S.THREE_STEP if tag == "three-step" else build_family((tag, n))
        return S.classify_nilpotent(family)

    def check(self, req: Request, result) -> tuple[str, str | None]:
        spectrum = result.spectrum.to_json_dict()
        evidence = dict(result.evidence or {})
        kind, data, bound = req.kind, req.data, self.bound
        if kind == "z2":
            (a, b), (c, d) = data[0]
            status = classify_status(spectrum, z2_allowed(a, b, c, d, bound))
            if status[0] == OK and spectrum == fin(4) and not system2_holds(a, b, c, d, evidence["witness"]):
                return FAILED, "z2 witness fails the quadratic system"
            return status
        if kind == "z3":
            status = classify_status(spectrum, z3_allowed([list(r) for r in data[0]], bound))
            if status[0] == OK and spectrum == fin(8):
                return self._check_z3_witness(evidence, data)
            if status[0] == OK and spectrum in (mult(2), mult(4)) and "delta" in evidence:
                if spectrum != mult(4 if evidence["delta"] else 2):
                    return FAILED, "order-two block: descriptor disagrees with the reported delta"
            return status
        if kind == "ext":
            (a, b), (c, d) = data[0]
            status = classify_status(spectrum, ext_allowed(a, b, c, d, bound))
            if status[0] == OK and spectrum == fin(8):
                return self._check_ext_witness(evidence, data)
            return status
        if kind == "hn-twists":
            return classify_status(spectrum, hn_twist_allowed(*data))
        if kind == "hn-matrix":
            # eigenvalues 1 and -1 route to the double extension or to a
            # Z^3 x| Z whose block carries the eigenvalue -1
            if result.trace[0] != "hn:mixed-eigenvalues":
                return FAILED, "mixed-eigenvalue action took the rule %s" % result.trace[0]
            return classify_status(spectrum, [INF, fin(8), undecided(fin(8), bound), mult(2), mult(4)])
        return classify_status(spectrum, nilpotent_allowed(*data))

    @staticmethod
    def known_defect(req: Request, result, error: Exception | None) -> str | None:
        if (req.kind == "hn-matrix" and req.data in HN_EXHAUSTED and type(error) is ValueError
                and str(error) == HN_EXHAUSTED_MESSAGE):
            return HN_DEFECT
        return None

    @staticmethod
    def _check_z3_witness(evidence, data) -> tuple[str, str | None]:
        w = evidence["witness"]
        m, n, p = w["m"], w["n"], w["p"]
        if -m * m - n * p != 1:
            return FAILED, "z3 witness fails -m^2 - np = 1"
        _, a_prime, c_row = data
        if a_prime is None:
            return OK, None  # conjugated input: the library's block basis is not ours
        (a, b), (c, d) = a_prime
        if tuple(evidence["coupling_row"]) != c_row or not system2_holds(a, b, c, d, w):
            return FAILED, "z3 witness does not solve the block's system"
        # C (I - Q A') (I - A')^-1 must be integral: test via the adjugate
        q = [[m, n], [p, -m]]
        qa = matmul(q, [list(a_prime[0]), list(a_prime[1])])
        row = [c_row[0] * (1 - qa[0][0]) - c_row[1] * qa[1][0], -c_row[0] * qa[0][1] + c_row[1] * (1 - qa[1][1])]
        shifted = [[1 - a, -b], [-c, 1 - d]]
        dt = det2(shifted)
        adj = [[shifted[1][1], -shifted[0][1]], [-shifted[1][0], shifted[0][0]]]
        combo = [row[0] * adj[0][j] + row[1] * adj[1][j] for j in range(2)]
        if any(v % dt for v in combo):
            return FAILED, "z3 coupling row is not integral for the witness"
        return OK, None

    @staticmethod
    def _check_ext_witness(evidence, data) -> tuple[str, str | None]:
        (a, b), (c, d) = data[0]
        n0 = data[1]
        w = evidence["witness"]
        if not system2_holds(a, b, c, d, w):
            return FAILED, "double-extension witness fails the quadratic system"
        big_a = [[a, b], [c, d]]
        m_mat = [[w["m"], w["n"]], [w["p"], -w["m"]]]
        am = matmul(big_a, m_mat)
        lhs = matvec([[1 + am[0][0], am[0][1]], [am[1][0], 1 + am[1][1]]], n0)
        two_a_m0 = matvec([[2 * a, 2 * b], [2 * c, 2 * d]], evidence["m0"])
        shift_z0 = matvec([[1 - a, -b], [-c, 1 - d]], evidence["z0"])
        if lhs != [two_a_m0[i] + shift_z0[i] for i in range(2)]:
            return FAILED, "(I + A M) n0 != 2A m0 + (I - A) z0"
        return OK, None


# ---------------------------------------------------------------------------
# oracle-balls


# (part, family key maker, witness id, parameter range, radius).  Parameter
# ranges stay where the ball certificate's verdict does not depend on the
# parameter, so the undecided share is fixed per pass.  An odd number of
# slots puts the median on one request rather than between two.
ORACLE_SLOTS = (
    ("matrix", lambda r: ("minus-identity", 2), "M_m", (1, 8), 4),
    ("matrix", lambda r: ("minus-identity", 2), "M_m", (1, 7), 3),
    ("matrix", lambda r: ("minus-identity", 3), "M_m", (1, 4), 2),
    ("matrix", lambda r: ("tahara", "t3-0"), "phi_alpha", (1, 2), 2),
    ("matrix", lambda r: ("tahara", "t2-1"), "phi_alpha", (1, 4), 2),
    ("matrix", lambda r: ("double-ext", WEL, (r.randint(-3, 3), r.randint(-3, 3))), "phi_eight", (1, 1), 2),
    ("closed", lambda r: ("heisenberg", r.randint(1, 3)), "phi_m", (1, 5), 4),
    ("closed", lambda r: ("heisenberg", r.randint(1, 3)), "phi_m", (1, 5), 3),
    ("closed", lambda r: ("heisenberg", r.randint(1, 3)), "phi_m", (1, 4), 2),
    ("closed", lambda r: ("heisenberg-times-z", r.randint(1, 2)), "phi_m", (1, 4), 3),
    ("closed", lambda r: ("heisenberg-times-z", r.randint(1, 2)), "phi_m", (1, 4), 2),
    ("closed", lambda r: ("hn", 1, r.randint(0, 1), r.randint(0, 1)), "M_r", (1, 2), 3),
    ("closed", lambda r: ("hn", 1, r.randint(0, 1), r.randint(0, 1)), "M_r", (1, 2), 2),
)
TINY_ORACLE_SLOTS = (
    ("matrix", lambda r: ("minus-identity", 2), "M_m", (1, 3), 2),
    ("closed", lambda r: ("heisenberg", r.randint(1, 3)), "phi_m", (1, 3), 2),
)


class OracleBalls:
    """Union-find labelings over exponent balls, in process.

    Matrix-backed families (the group law goes through matrix powers and
    ``IntMatrix.apply``) sit beside closed-form ones, reported as separate
    parts, so a change to the matrix path shows on one part only.
    """

    name = "oracle-balls"
    window_passes = 2  # statistics window: 26 requests

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.corpus = []
        for part, key_of, wid, (lo, hi), radius in TINY_ORACLE_SLOTS if tiny else ORACLE_SLOTS:
            self.corpus.append(Request(part, wid, (key_of(rng), rng.randint(lo, hi), radius)))

    def stamp(self) -> dict:
        return {"requests_per_pass": len(self.corpus)}

    def make_pass(self, index: int) -> list[Request]:
        return self.corpus

    def warmup(self) -> None:
        # a radius-1 labeling on each group-law path: cheap, and fills the caches
        for part in ("matrix", "closed"):
            req = next(r for r in self.corpus if r.part == part)
            key, param, _ = req.data
            G.label_classes(G.witness(build_family(key), req.kind, param), 1)

    def execute(self, req: Request):
        key, param, radius = req.data
        return G.label_classes(G.witness(build_family(key), req.kind, param), radius)

    def check(self, req: Request, labeling) -> tuple[str, str | None]:
        key, param, _ = req.data
        if not labeling.complete:
            return UNDECIDED, None
        expected = witness_count(key, req.kind, param)
        if labeling.class_count != expected:
            return FAILED, "%s %s(%d): %d classes, formula %d" % (key, req.kind, param, labeling.class_count, expected)
        return OK, None

    @staticmethod
    def known_defect(req: Request, result, error: Exception | None) -> str | None:
        return None


# ---------------------------------------------------------------------------
# rnumber-witness


RNUMBER_PAIRS = ("htz-phi_m", "heis-phi_m", "target", "negation", "M_m", "phi_alpha", "M_r", "phi_eight")


class RnumberWitness:
    """Seeded witness requests over every (family, witness id) pair.

    Parameters run from 1 to 10^12, spread evenly over their number of digits.
    Pass ``i`` shifts every parameter by ``2 i``: the work per request stays
    the same (and so does the parity some witnesses need), while no cache
    key repeats, so caches keyed by exponent grow as they would for a
    long-lived caller.  Free-abelian ``target`` requests cycle through
    ranks 2, 3, 4.
    """

    name = "rnumber-witness"
    window_passes = 11  # statistics window: 1056 requests

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        per_pair = 3 if tiny else 12
        self.base = [self._draw(rng, pair, i, 12 * i // per_pair) for i in range(per_pair) for pair in RNUMBER_PAIRS]

    def stamp(self) -> dict:
        return {"requests_per_pass": len(self.base)}

    def make_pass(self, index: int) -> list[Request]:
        return [Request(r.part, r.kind, (r.data[0], r.data[1] + 2 * index)) for r in self.base]

    @staticmethod
    def _draw(rng: random.Random, pair: str, i: int, digits: int) -> Request:
        # the family parameters and the parameter's number of digits follow
        # i, so every pass has the same mix of families and sizes (the cost
        # of some witnesses grows with the parameter); the seed draws the
        # parameter within its decade, and the twists
        param = rng.randrange(10**digits, 10 ** (digits + 1))
        if pair == "htz-phi_m":
            key, wid = ("heisenberg-times-z", 1 + i % 4), "phi_m"
        elif pair == "heis-phi_m":
            key, wid = ("heisenberg", 1 + i % 4), "phi_m"
        elif pair == "target":
            key, wid = ("free-abelian", 2 + i % 3), "target"
        elif pair == "negation":
            key, wid = ("free-abelian", 1 + i % 4), "negation"
        elif pair == "M_m":
            key, wid = ("minus-identity", 2 + i % 2), "M_m"
        elif pair == "phi_alpha":
            key, wid = ("tahara", ("t2-1", "t2-0", "t3-0", "t3-1")[i % 4]), "phi_alpha"
        elif pair == "M_r":
            key, wid = ("hn", 1 + i % 4, rng.randint(-3, 3), rng.randint(-3, 3)), "M_r"
            if key[1] % 2 == 0 and (key[2] % 2 or key[3] % 2):
                param += param % 2  # the witness needs an even trace here
        else:
            a = (WEL, NIET)[i % 2]
            n0 = (rng.randint(-5, 5), rng.randint(-5, 5))
            if a == NIET and sum(n0) % 2:
                n0 = (n0[0] + 1, n0[1])  # NIET lifts only for even n0 sums
            key, wid = ("double-ext", a, n0), "phi_eight"
        return Request(key[0], wid, (key, param))

    def warmup(self) -> None:
        # one request per pair, shifted far from any timed pass
        for req in self.make_pass(10**6)[: len(RNUMBER_PAIRS)]:
            self.execute(req)

    def execute(self, req: Request):
        key, param = req.data
        spec = G.witness(build_family(key), req.kind, param)
        data = spec.to_json_dict()
        again = G.AutomorphismSpec.from_json_dict(data)
        report = G.verify_automorphism(again)
        if not report:
            return data, again, None, report.failure
        return data, again, G.rnumber(replace(again, verified=True)), None

    def check(self, req: Request, result) -> tuple[str, str | None]:
        key, param = req.data
        data, again, value, failure = result
        if failure is not None:
            return FAILED, "round-tripped spec fails verification: %s" % failure
        if again.to_json_dict() != data:
            return FAILED, "JSON round trip changed the spec"
        expected = witness_count(key, req.kind, param)
        if value.to_json() != expected:
            return FAILED, "%s %s %s(%d): rnumber %s, closed form %d" % (
                key[0], ",".join(map(str, key[1:])), req.kind, param, value.to_json(), expected)
        return OK, None

    @staticmethod
    def known_defect(req: Request, result, error: Exception | None) -> str | None:
        key, _ = req.data
        if (error is None and req.kind == "target" and key[0] == "free-abelian" and key[1] >= 3
                and result[3] is None and result[2].to_json() == "infinity"):
            return TARGET_DEFECT
        return None


# ---------------------------------------------------------------------------
# cli-readme


PHI_JSON = {
    "family": {"tag": "heisenberg-times-z", "n": 1},
    "images": {"x": [0, 1, 0, 0], "y": [1, 2, 0, 0], "z": [0, 0, -1, 0], "u": [0, 0, 0, -1]},
}

# (arguments, documented exit code, check of the parsed JSON output or None).
# These mirror the CLI section of the README, plus the undecided example
# from the ROADMAP; the file for --spec-json is written by the benchmark.
CLI_EXAMPLES = (
    (["spectrum", "--family", "z2-semidirect", "--matrix", "2,3;3,5"], 0,
     lambda out: out["result"]["spectrum"] == fin(4) and system2_holds(2, 3, 3, 5, out["result"]["evidence"]["witness"])),
    (["spectrum", "--family", "z3-semidirect", "--matrix", "1,0,1;0,5,2;0,2,1"], 0,
     lambda out: out["result"]["spectrum"] == INF and "z3:parity-obstruction" in out["trace"]),
    (["spectrum", "--family", "double-ext", "--matrix", "5,2;2,1", "--n0", "1,0"], 0,
     lambda out: out["result"]["spectrum"] in ext_allowed(5, 2, 2, 1, out["bound"])[:2]),
    (["spectrum", "--family", "hn-semidirect", "--n", "2", "--k", "1", "--l", "0"], 0,
     lambda out: [out["result"]["spectrum"]] == hn_twist_allowed(2, 1, 0)),
    (["spectrum", "--family", "heisenberg-times-z", "--n", "1"], 0,
     lambda out: [out["result"]["spectrum"]] == nilpotent_allowed("heisenberg-times-z", 1)),
    (["spectrum", "--family", "three-step"], 0,
     lambda out: [out["result"]["spectrum"]] == nilpotent_allowed("three-step", 0)),
    (["rnumber", "--family", "heisenberg-times-z", "--n", "1", "--witness", "phi_m", "--param", "3"], 0,
     lambda out: out["result"]["rnumber"] == 12),
    (["rnumber", "--spec-json", "{phi_json}"], 0,
     lambda out: out["result"]["rnumber"] == witness_count(("heisenberg-times-z", 1), "phi_m", 2)),
    (["decide", "--matrix", "2,3;3,5"], 0,
     lambda out: out["result"]["outcome"] == "witness"
     and (out["result"]["witness"]["m"], out["result"]["witness"]["n"], out["result"]["witness"]["p"]) == (0, -1, 1)),
    (["tables", "--format", "text"], 0, None),
    (["oracle", "--family", "z2-semidirect", "--matrix=-1,0;0,-1", "--witness", "M_m", "--param", "2", "--radius", "3"], 0,
     lambda out: (out["result"]["classes"], out["result"]["complete"], out["result"]["formula"]) == (4, True, 4)),
    (["spectrum", "--family", "z2-semidirect", "--matrix=-6,1;-1,0"], 2,
     lambda out: out["result"]["spectrum"] == undecided(fin(4), out["bound"])),
)
TINY_CLI_EXAMPLES = (0, 5, 6, 8)
TABLE_HEADINGS = ("== z2-semidirect ==", "== z3-semidirect ==", "== double-extension ==", "== heisenberg-semidirect ==")


class CliReadme:
    """Every README CLI example as a fresh interpreter, one at a time.

    The only workload that pays interpreter start, package import, argparse
    and JSON output on every answer.  The seed only orders the examples.
    """

    name = "cli-readme"
    window_passes = 2  # statistics window: 24 requests

    def __init__(self, seed: int, tiny: bool = False, root: Path | None = None, work: Path | None = None):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("TWISTED_BOUND", None)  # the examples run at the documented default bound
        phi_path = work / "phi.json"
        phi_path.write_text(json.dumps(PHI_JSON))
        indices = list(TINY_CLI_EXAMPLES if tiny else range(len(CLI_EXAMPLES)))
        random.Random(seed).shuffle(indices)
        self.corpus = []
        for i in indices:
            args, code, _ = CLI_EXAMPLES[i]
            args = tuple(a.replace("{phi_json}", str(phi_path)) for a in args)
            self.corpus.append(Request(args[0], "cli", (args, code, i)))
        self.trace_dir = None  # set for the traced pass: requests then run the traced entry script

    def stamp(self) -> dict:
        return {"requests_per_pass": len(self.corpus), "cli_bound": "default"}

    def make_pass(self, index: int) -> list[Request]:
        return self.corpus

    def warmup(self) -> None:
        subprocess.run([sys.executable, "-m", "reidemeister.cli", "--version"], env=self.env,
                       cwd=self.root, capture_output=True, check=True)

    def command(self, args) -> list[str]:
        if self.trace_dir is None:
            return [sys.executable, "-m", "reidemeister.cli", *args]
        entry = Path(__file__).with_name("cli_entry.py")
        return [sys.executable, str(entry), str(self.trace_dir / "request.json"), *args]

    def execute(self, req: Request):
        proc = subprocess.run(self.command(req.data[0]), env=self.env, cwd=self.root, capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, req: Request, result) -> tuple[str, str | None]:
        args, code, index = req.data
        returncode, stdout, stderr = result
        if returncode != code:
            return FAILED, "%s: exit %d, documented %d (%s)" % (" ".join(args), returncode, code, stderr.strip()[-200:])
        verify = CLI_EXAMPLES[index][2]
        if verify is None:
            if not all(h in stdout for h in TABLE_HEADINGS):
                return FAILED, "tables output lacks a table heading"
        else:
            try:
                out = json.loads(stdout)
                good = verify(out)
            except (ValueError, KeyError, TypeError) as exc:
                return FAILED, "%s: unparsable output (%s)" % (" ".join(args), exc)
            if not good:
                return FAILED, "%s: result differs from the README: %s" % (" ".join(args), stdout.strip()[:300])
        return (UNDECIDED if code == 2 else OK), None

    @staticmethod
    def known_defect(req: Request, result, error: Exception | None) -> str | None:
        return None


WORKLOADS = {cls.name: cls for cls in (CliReadme, SpectraSweep, OracleBalls, RnumberWitness)}
