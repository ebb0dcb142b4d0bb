"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines and timings.
"""

import random
import time
from itertools import product

from reidemeister.exactlin import IntMatrix, parse_matrix, unit_root_split
from reidemeister.groups import (
    FreeAbelian,
    Heisenberg,
    HeisenbergTimesZ,
    HnSemidirectZ,
    Z2MinusIExt,
    ZnSemidirectZ,
    label_classes,
    rnumber,
    tahara_form_order2,
    tahara_form_order3,
    witness,
)
from reidemeister.spectra import (
    SpectrumDescriptor,
    classify_z2_minusI_ext,
    classify_z2_semidirect,
    classify_z3_semidirect,
    decide_system2,
    decide_z3_eight,
)
from reidemeister.twisted import RNumber, r_abelian
from canonical_reference import ExtensionPresentation, apply_substitution, canonicalize_z2_by_z2
from conftest import random_unimodular
from snf_reference import r_abelian_via_cosets

I2 = IntMatrix.identity(2)
WEL = parse_matrix("2,3;3,5")
NIET = parse_matrix("5,2;2,1")


def _report(name, started):
    print("ACCEPTANCE %s: PASS (%.1fs)" % (name, time.time() - started))


def test_dim3_table_enumeration():
    """Every unimodular 2x2 matrix with entries in [-3,3] lands on its table row."""
    started = time.time()
    bound = 60
    checked = 0
    hyperbolic_decided = 0
    for entries in product(range(-3, 4), repeat=4):
        a, b, c, d = entries
        det = a * d - b * c
        if det not in (1, -1):
            continue
        m = IntMatrix(2, 2, entries)
        tr = a + d
        result = classify_z2_semidirect(m, bound)
        spectrum = result.spectrum
        checked += 1
        if det == 1 and tr == 2:
            if m == I2:
                assert spectrum == SpectrumDescriptor.full()
            else:
                assert spectrum == SpectrumDescriptor.multiples(2)
        elif det == 1 and tr == -2:
            if m == -I2:
                assert spectrum == SpectrumDescriptor.multiples(2)
            else:
                assert spectrum == SpectrumDescriptor.r_infinity()
        elif det == -1 and tr == 0:
            assert spectrum == SpectrumDescriptor.r_infinity()
        elif det == -1:
            assert spectrum == SpectrumDescriptor.r_infinity()
        elif abs(tr) < 2:
            assert spectrum == SpectrumDescriptor.r_infinity()
        else:
            # hyperbolic with det 1: {4,oo} with a checked witness, a proven
            # {oo}, or an explicit undecided -- never a silent guess
            if spectrum.kind == "finite":
                assert spectrum == SpectrumDescriptor.finite([4])
                wit = result.evidence["witness"]
                wm, wn, wp = wit["m"], wit["n"], wit["p"]
                assert -wm * wm - wn * wp == 1
                assert (a - d) * wm + b * wp + c * wn == 0
                hyperbolic_decided += 1
            elif spectrum.kind == "undecided":
                assert spectrum.bound == bound
            else:
                assert spectrum == SpectrumDescriptor.r_infinity()
                assert "system2:proven-empty" in result.trace
    elapsed = time.time() - started
    assert checked == 232  # all unimodular matrices with entries in [-3,3]
    assert hyperbolic_decided > 0
    assert elapsed < 60.0
    _report("dim3-table-enumeration (%d matrices)" % checked, started)


def test_witness_rnumber_exactness():
    started = time.time()
    for n in (1, 2, 3):
        fam = HeisenbergTimesZ(n)
        for m in range(1, 21):
            assert rnumber(witness(fam, "phi_m", m)) == RNumber.finite(4 * m)
    flip = ZnSemidirectZ(-I2)
    for m in range(1, 21):
        assert rnumber(witness(flip, "M_m", m)) == RNumber.finite(2 * m)
    tahara1 = ZnSemidirectZ(tahara_form_order2(1))
    tahara0 = ZnSemidirectZ(tahara_form_order2(0))
    order3 = ZnSemidirectZ(tahara_form_order3(1))
    order3b = ZnSemidirectZ(tahara_form_order3(0))
    for alpha in range(1, 21):
        assert rnumber(witness(tahara1, "phi_alpha", alpha)) == RNumber.finite(4 * alpha)
        assert rnumber(witness(tahara0, "phi_alpha", alpha)) == RNumber.finite(2 * alpha)
        assert rnumber(witness(order3, "phi_alpha", alpha)) == RNumber.finite(6 * alpha)
        assert rnumber(witness(order3b, "phi_alpha", alpha)) == RNumber.finite(6 * alpha)
    elapsed = time.time() - started
    assert elapsed < 10.0
    _report("witness-rnumber-exactness", started)


def test_solvable_example_always_lifts():
    started = time.time()
    decision = decide_system2(WEL, 100)
    assert decision.outcome == "witness"
    assert decision.witness.matrix == parse_matrix("0,-1;1,0")
    assert classify_z2_semidirect(WEL, 100).spectrum == SpectrumDescriptor.finite([4])
    for n0 in product(range(-5, 6), repeat=2):
        res = classify_z2_minusI_ext(WEL, n0, 100)
        assert res.spectrum == SpectrumDescriptor.finite([8])
    _report("double-extension-always-eight", started)


def test_parity_example_flips_with_offset():
    started = time.time()
    for n0 in product(range(-5, 6), repeat=2):
        res = classify_z2_minusI_ext(NIET, n0, 100)
        if (n0[0] + n0[1]) % 2:
            assert res.spectrum == SpectrumDescriptor.r_infinity()
            assert "ext:parity-obstruction" in res.trace
        else:
            assert res.spectrum == SpectrumDescriptor.finite([8])
    _report("double-extension-parity-flip", started)


def test_block_contrast_reproduction():
    started = time.time()
    blocked = parse_matrix("1,0,1;0,5,2;0,2,1")
    res = classify_z3_semidirect(blocked, 100)
    assert res.spectrum == SpectrumDescriptor.r_infinity()
    assert "z3:parity-obstruction" in res.trace
    assert classify_z2_semidirect(NIET, 100).spectrum == SpectrumDescriptor.finite([4])
    _report("rank3-vs-rank2-contrast", started)


def test_hyperbolic_eight_class_decisions_are_exact():
    """No z3 block or double extension with a hyperbolic det-1 action in
    [-6,6]^4 and c_row or n0 in [-2,2]^2 comes back undecided."""
    started = time.time()
    hyperbolic = [
        IntMatrix(2, 2, e) for e in product(range(-6, 7), repeat=4) if e[0] * e[3] - e[1] * e[2] == 1 and abs(e[0] + e[3]) > 2
    ]
    z3, ext = {}, {}
    for a in hyperbolic:
        for v in product(range(-2, 3), repeat=2):
            outcome = decide_z3_eight(a, v).outcome
            z3[outcome] = z3.get(outcome, 0) + 1
            res = classify_z2_minusI_ext(a, v, 1)
            assert res.spectrum in (SpectrumDescriptor.finite([8]), SpectrumDescriptor.r_infinity())
            ext[res.trace[-1]] = ext.get(res.trace[-1], 0) + 1
    assert len(hyperbolic) * 25 * 2 == 10_800
    assert z3 == {"eight": 688, "r-infinity": 712, "proven-empty": 4000}
    assert ext == {"ext:lifting-witness": 1224, "ext:parity-obstruction": 176, "system2:proven-empty": 4000}
    _report("hyperbolic-eight-class-decisions (10800, none undecided)", started)


def test_oracle_equivalence():
    started = time.time()
    rng = random.Random(97)

    # formula path vs Smith-form coset index, including infinite cases
    infinite_seen = 0
    for n in (2, 3):
        for _ in range(100):
            m = random_unimodular(rng, n, 5)
            left = r_abelian(m)
            assert left == r_abelian_via_cosets(m)
            if not left.is_finite:
                infinite_seen += 1
    assert infinite_seen > 0

    # labeling oracle vs formula route on the witness corpus; where the
    # ball certifies completeness the counts must agree exactly, and the
    # fast-growing hyperbolic cases must never certify falsely
    corpus = [
        (witness(ZnSemidirectZ(-I2), "M_m", 1), 3),
        (witness(ZnSemidirectZ(-I2), "M_m", 2), 3),
        (witness(ZnSemidirectZ(-I2), "M_m", 3), 4),
        (witness(ZnSemidirectZ(-IntMatrix.identity(3)), "M_m", 1), 3),
        (witness(HeisenbergTimesZ(1), "phi_m", 1), 4),
        (witness(Heisenberg(1), "phi_m", 1), 3),
        (witness(Heisenberg(2), "phi_m", 2), 4),
        (witness(ZnSemidirectZ(tahara_form_order2(0)), "phi_alpha", 1), 4),
        (witness(ZnSemidirectZ(tahara_form_order3(0)), "phi_alpha", 1), 4),
        (witness(HnSemidirectZ(1, 0, 0), "M_r", 1), 3),
        (witness(FreeAbelian(2), "target", 5), 4),
        (witness(FreeAbelian(1), "negation", 1), 2),
        # honest incompleteness: twists jump too far for a desk-scale ball
        (witness(ZnSemidirectZ(tahara_form_order2(1)), "phi_alpha", 1), 3),
        (witness(Z2MinusIExt(WEL, (0, 0)), "phi_eight", 1), 3),
    ]
    certified = 0
    for spec, radius in corpus:
        labeling = label_classes(spec, radius)
        value = rnumber(spec)
        if labeling.complete:
            assert value.is_finite and labeling.class_count == value.value
            certified += 1
    assert certified >= 10
    elapsed = time.time() - started
    assert elapsed < 120.0
    _report("oracle-equivalence (%d certified)" % certified, started)


def test_property_suites():
    started = time.time()
    rng = random.Random(4242)

    # twisted invariance of ball labels: 1000 checks across three specs
    checks = 0
    specs = [
        (witness(ZnSemidirectZ(-I2), "M_m", 2), 4),
        (witness(HeisenbergTimesZ(1), "phi_m", 1), 4),
        (witness(Heisenberg(2), "phi_m", 1), 4),
    ]
    for spec, radius in specs:
        labeling = label_classes(spec, radius)
        fam = spec.family
        gens = fam.generators()
        while_count = 0
        for _ in range(1200):
            if checks >= 1000 and while_count > 300:
                break
            while_count += 1
            g = fam.element([rng.randint(-radius, radius) for _ in range(fam.slots)])
            z = rng.choice(gens)
            if rng.random() < 0.5:
                z = fam.inverse(z)
            h = fam.multiply(fam.multiply(z, g), fam.inverse(spec.apply(z)))
            if g in labeling.labels and h in labeling.labels:
                assert labeling.labels[g] == labeling.labels[h]
                checks += 1
    assert checks >= 1000

    # conjugation invariance of the abelian count
    for n in (2, 3):
        for _ in range(50):
            m = random_unimodular(rng, n, 4)
            p = random_unimodular(rng, n, 2)
            assert r_abelian(p * m * p.inverse_unimodular()) == r_abelian(m)

    # conjugation invariance of the unit-root split and the classifiers
    for _ in range(40):
        m = random_unimodular(rng, 3, 3)
        p = random_unimodular(rng, 3, 1)
        assert unit_root_split(p * m * p.inverse_unimodular()) == unit_root_split(m)
    for a in (WEL, -I2, parse_matrix("1,1;-1,0"), parse_matrix("1,3;0,1")):
        base = classify_z2_semidirect(a, 40).spectrum
        for _ in range(10):
            p = random_unimodular(rng, 2, 2)
            assert classify_z2_semidirect(p * a * p.inverse_unimodular(), 40).spectrum == base
    for a in (tahara_form_order2(1), tahara_form_order3(0), parse_matrix("1,0,1;0,5,2;0,2,1")):
        base = classify_z3_semidirect(a, 40).spectrum
        for _ in range(6):
            p = random_unimodular(rng, 3, 1)
            assert classify_z3_semidirect(p * a * p.inverse_unimodular(), 40).spectrum == base

    # conjugate-to-inverse witnesses always put det(A) among the eigenvalues
    small_unimodular = []
    for entries in product((-1, 0, 1), repeat=9):
        m = IntMatrix(3, 3, entries)
        if m.det() in (1, -1):
            small_unimodular.append(m)
    pool = [
        tahara_form_order2(1),
        tahara_form_order3(0),
        parse_matrix("-1,0,0;0,2,1;0,1,1"),
        parse_matrix("1,0,1;0,5,2;0,2,1"),
        parse_matrix("0,0,1;1,0,0;0,1,1"),  # no eigenvalue +-1
    ]
    found = 0
    for a in pool:
        a_inv = a.inverse_unimodular()
        ones, minus_ones, _ = unit_root_split(a)
        for m in small_unimodular:
            if m * a == a_inv * m:
                assert (ones if a.det() == 1 else minus_ones) > 0
                found += 1
    assert found > 0

    # canonicalization replay: the logged substitutions reproduce the output
    presentations = [
        ExtensionPresentation(-I2, -I2, (1, 2)),
        ExtensionPresentation(parse_matrix("0,-1;1,0"), -(parse_matrix("0,-1;1,0") ** 3), (0, 1)),
        ExtensionPresentation(parse_matrix("0,-1;1,-1"), -I2, (1, 0)),
        ExtensionPresentation(parse_matrix("1,1;0,1"), parse_matrix("1,3;0,1"), (2, -1)),
    ]
    for pres in presentations:
        out = canonicalize_z2_by_z2(pres)
        state = pres
        for sub in out.change_log:
            assert sub.matrix.is_unimodular
            state = apply_substitution(state, sub)
        assert (state.action_x, state.action_y, state.n0) == (out.action_x, out.action_y, out.n0)

    _report("property-suites", started)
