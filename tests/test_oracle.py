"""The series labels against the two-pass reference and as twisted-class
invariants, and two normal-form facts of the group laws: left
multiplication by z g1 z^-1 translates exponent tuples, and g g_n adds
one to the last slot."""

from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from reidemeister.exactlin import IntMatrix, parse_matrix
from reidemeister.groups import (
    FAMILIES,
    AutomorphismSpec,
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
    verify_automorphism,
    witness,
)
from oracle_reference import reference_label_classes

I2 = IntMatrix.identity(2)
I3 = IntMatrix.identity(3)
WEL = parse_matrix("2,3;3,5")

# the corpus of test_acceptance.test_oracle_equivalence: (family, witness, param, radius)
ACCEPTANCE_CORPUS = [
    (ZnSemidirectZ(-I2), "M_m", 1, 3),
    (ZnSemidirectZ(-I2), "M_m", 2, 3),
    (ZnSemidirectZ(-I2), "M_m", 3, 4),
    (ZnSemidirectZ(-I3), "M_m", 1, 3),
    (HeisenbergTimesZ(1), "phi_m", 1, 4),
    (Heisenberg(1), "phi_m", 1, 3),
    (Heisenberg(2), "phi_m", 2, 4),
    (ZnSemidirectZ(tahara_form_order2(0)), "phi_alpha", 1, 4),
    (ZnSemidirectZ(tahara_form_order3(0)), "phi_alpha", 1, 4),
    (HnSemidirectZ(1, 0, 0), "M_r", 1, 3),
    (FreeAbelian(2), "target", 5, 4),
    (FreeAbelian(1), "negation", 1, 2),
    (ZnSemidirectZ(tahara_form_order2(1)), "phi_alpha", 1, 3),
    (Z2MinusIExt(WEL, (0, 0)), "phi_eight", 1, 3),
]

# one labeling of each shape (family, witness, radius) of the benchmark's
# oracle-balls workload, at the top of its parameter range
ORACLE_SHAPES = [
    (ZnSemidirectZ(-I2), "M_m", 8, 4),
    (ZnSemidirectZ(-I2), "M_m", 7, 3),
    (ZnSemidirectZ(-I3), "M_m", 4, 2),
    (ZnSemidirectZ(tahara_form_order3(0)), "phi_alpha", 2, 2),
    (ZnSemidirectZ(tahara_form_order2(1)), "phi_alpha", 4, 2),
    (Z2MinusIExt(WEL, (2, -3)), "phi_eight", 1, 2),
    (Heisenberg(3), "phi_m", 5, 4),
    (Heisenberg(2), "phi_m", 5, 3),
    (Heisenberg(1), "phi_m", 4, 2),
    (HeisenbergTimesZ(2), "phi_m", 4, 3),
    (HeisenbergTimesZ(1), "phi_m", 4, 2),
    (HnSemidirectZ(1, 1, 0), "M_r", 2, 3),
    (HnSemidirectZ(1, 1, 1), "M_r", 2, 2),
]


def _assert_labels_refined_by_reference(spec, radius):
    # the reference only joins sites along twists, so each of its classes
    # lies in one label; where its heuristic says complete, they agree
    new = label_classes(spec, radius)
    old = reference_label_classes(spec, radius)
    assert list(new.labels) == list(old.labels)
    pairs = set(zip(old.labels.values(), new.labels.values()))
    assert len(pairs) == old.class_count
    if old.complete:
        assert list(new.labels.items()) == list(old.labels.items())
    value = rnumber(spec).value
    assert new.complete == (value is not None and new.class_count == value)
    assert new.ball_radius == radius
    return new


@pytest.mark.parametrize(
    "family, wid, param, radius",
    ACCEPTANCE_CORPUS + ORACLE_SHAPES,
    ids=lambda v: v.json_tag if hasattr(v, "json_tag") else str(v),
)
def test_label_classes_matches_two_pass_reference(family, wid, param, radius):
    # every ball of the corpus meets all R classes
    assert _assert_labels_refined_by_reference(witness(family, wid, param), radius).complete


def _hyperbolic_flip(a: IntMatrix = WEL) -> AutomorphismSpec:
    # J A J^-1 = A^-1 for J = [[0,-1],[1,0]] and symmetric A, so
    # e_i -> J e_i, t -> t^-1 is an automorphism of Z^2 x|_A Z
    spec = AutomorphismSpec.from_images(
        ZnSemidirectZ(a), {"e1": (0, 1, 0), "e2": (-1, 0, 0), "t": (0, 0, -1)}
    )
    assert verify_automorphism(spec)
    return replace(spec, verified=True)


# one spec per group law, with every branch of each: matrix-backed actions
# of finite and infinite order (the Tahara forms take the holonomy branch),
# steps that flip sign, an odd and an even n
AFFINITY_SPECS = {
    "free-abelian-1": witness(FreeAbelian(1), "negation", 1),
    "free-abelian-4": witness(FreeAbelian(4), "target", 3),
    "heisenberg": witness(Heisenberg(2), "phi_m", 3),
    "heisenberg-times-z": witness(HeisenbergTimesZ(1), "phi_m", 2),
    "hn-odd-n": witness(HnSemidirectZ(1, 1, 0), "M_r", 2),
    "hn-even-n": witness(HnSemidirectZ(2, 1, 1), "M_r", 2),
    "minus-I2": witness(ZnSemidirectZ(-I2), "M_m", 3),
    "minus-I3": witness(ZnSemidirectZ(-I3), "M_m", 2),
    "tahara-order2": witness(ZnSemidirectZ(tahara_form_order2(1)), "phi_alpha", 2),
    "tahara-order3": witness(ZnSemidirectZ(tahara_form_order3(1)), "phi_alpha", 2),
    "hyperbolic": _hyperbolic_flip(),
    "double-ext": witness(Z2MinusIExt(WEL, (1, -2)), "phi_eight", 1),
}


def test_every_family_has_an_affinity_spec():
    assert {spec.family.json_tag for spec in AFFINITY_SPECS.values()} == set(FAMILIES)


@pytest.mark.parametrize("spec", AFFINITY_SPECS.values(), ids=AFFINITY_SPECS.keys())
def test_twists_are_affine_in_slot_zero(spec):
    # along a row (slot 0 varying, the rest fixed) every twist
    # g -> z g phi(z)^-1 steps by one vector, u = z g1 z^-1, as left
    # multiplication by u adds u to exponent tuples
    fam = spec.family
    mul, gens = fam.multiply, fam.generators()
    outer = 4
    for z, phi_z in zip(gens, spec.images):
        w = fam.inverse(phi_z)
        steps = set()
        for rest in product(range(-outer, outer + 1), repeat=fam.slots - 1):
            row = [mul(mul(z, (k,) + rest), w) for k in range(-outer, outer + 1)]
            steps.update(tuple(b - a for a, b in zip(t0, t1)) for t0, t1 in zip(row, row[1:]))
        assert steps == {mul(mul(z, gens[0]), fam.inverse(z))}


@pytest.mark.parametrize("spec", AFFINITY_SPECS.values(), ids=AFFINITY_SPECS.keys())
def test_last_generator_adds_one_to_the_last_slot(spec):
    # the normal forms are in slot order, so g g_n is g with its last
    # exponent raised by one
    fam = spec.family
    last = fam.generators()[-1]
    for g in product(range(-3, 4), repeat=fam.slots):
        assert fam.multiply(g, last) == g[:-1] + (g[-1] + 1,)


# balls at the edges of the reference: one slot, four abelian slots, and
# twists that step backwards along slot 0 (t acts by -I2, or by the
# hyperbolic A^-1 of WEL)
EDGE_BALLS = {
    "free-abelian-1": (witness(FreeAbelian(1), "negation", 1), 5),
    "free-abelian-4": (witness(FreeAbelian(4), "target", 2), 2),
    "minus-I2-flip": (witness(ZnSemidirectZ(-I2), "M_m", 5), 3),
    "hyperbolic-flip": (_hyperbolic_flip(WEL.inverse_unimodular()), 2),
}


@pytest.mark.parametrize("spec, radius", EDGE_BALLS.values(), ids=EDGE_BALLS.keys())
def test_edge_balls_are_refined_by_reference(spec, radius):
    _assert_labels_refined_by_reference(spec, radius)


# (family, witness id, parameter range, largest radius): the radius stops
# where the reference oracle would take more than a fraction of a second
PROPERTY_CASES = [
    (FreeAbelian(1), "negation", (1, 1), 3),
    (FreeAbelian(2), "target", (1, 6), 3),
    (Heisenberg(1), "phi_m", (1, 6), 3),
    (Heisenberg(3), "phi_m", (1, 6), 3),
    (ZnSemidirectZ(-I2), "M_m", (1, 6), 3),
    (HeisenbergTimesZ(1), "phi_m", (1, 4), 2),
    (HnSemidirectZ(1, 1, 0), "M_r", (1, 3), 2),
    (ZnSemidirectZ(tahara_form_order3(0)), "phi_alpha", (1, 3), 1),
    (Z2MinusIExt(WEL, (1, 1)), "phi_eight", (1, 1), 1),
]


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_label_classes_property_against_reference(data):
    family, wid, (lo, hi), max_radius = data.draw(st.sampled_from(PROPERTY_CASES))
    param = data.draw(st.integers(lo, hi))
    radius = data.draw(st.integers(1, max_radius))
    _assert_labels_refined_by_reference(witness(family, wid, param), radius)


def _identity(family) -> AutomorphismSpec:
    return AutomorphismSpec(family, tuple(family.generators()), verified=True)


# every family and branch of AFFINITY_SPECS, and three specs with R = oo:
# two identities, whose top layer is singular, and a lattice map whose one
# layer is singular
INVARIANCE_SPECS = {
    **AFFINITY_SPECS,
    "identity-hn": _identity(HnSemidirectZ(2, 1, 3)),
    "identity-double-ext": _identity(Z2MinusIExt(WEL, (1, 0))),
    "far-translation": replace(
        AutomorphismSpec.from_images(FreeAbelian(2), {"e1": (1, 10**12), "e2": (0, 1)}), verified=True
    ),
}
LABELERS = {name: spec.family.class_labeler(spec) for name, spec in INVARIANCE_SPECS.items()}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_labels_are_twisted_class_invariants(data):
    name = data.draw(st.sampled_from(sorted(INVARIANCE_SPECS)))
    spec, label = INVARIANCE_SPECS[name], LABELERS[name]
    fam = spec.family
    g = fam.element(data.draw(st.tuples(*[st.integers(-6, 6)] * fam.slots)))
    z = fam.element(data.draw(st.tuples(*[st.integers(-3, 3)] * fam.slots)))
    h = fam.multiply(fam.multiply(z, g), fam.inverse(spec.apply(z)))
    assert label(h) == label(g)
