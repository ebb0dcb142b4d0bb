"""The ball oracle against its two-pass reference, the two normal-form
facts its row walk relies on (a fixed step per twist along slot 0, and
g g_n adding one to the last slot), its refusal of a family without them,
its cost in group products, and its union-find merge loop against a
breadth-first search."""

from collections import deque
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from reidemeister.exactlin import IntMatrix, _power_sum, parse_matrix
from reidemeister.groups import (
    FAMILIES,
    AutomorphismSpec,
    FreeAbelian,
    GroupFamily,
    Heisenberg,
    HeisenbergTimesZ,
    HnSemidirectZ,
    Z2MinusIExt,
    ZnSemidirectZ,
    _merge,
    _point_at_roots,
    label_classes,
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


def _assert_same_labeling(spec, radius):
    new = label_classes(spec, radius)
    old = reference_label_classes(spec, radius)
    assert list(new.labels.items()) == list(old.labels.items())
    assert new.complete == old.complete
    assert new.ball_radius == old.ball_radius == radius


@pytest.mark.parametrize(
    "family, wid, param, radius",
    ACCEPTANCE_CORPUS + ORACLE_SHAPES,
    ids=lambda v: v.json_tag if hasattr(v, "json_tag") else str(v),
)
def test_label_classes_matches_two_pass_reference(family, wid, param, radius):
    _assert_same_labeling(witness(family, wid, param), radius)


def _hyperbolic_flip(a: IntMatrix = WEL) -> AutomorphismSpec:
    # J A J^-1 = A^-1 for J = [[0,-1],[1,0]] and symmetric A, so
    # e_i -> J e_i, t -> t^-1 is an automorphism of Z^2 x|_A Z
    spec = AutomorphismSpec.from_images(
        ZnSemidirectZ(a), {"e1": (0, 1, 0), "e2": (-1, 0, 0), "t": (0, 0, -1)}
    )
    assert verify_automorphism(spec)
    return replace(spec, verified=True)


# one spec per group law, with every branch of each: matrix-backed actions
# of finite and infinite order, steps that flip sign, an odd and an even n
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
    # label_classes steps every row (slot 0 varying, the rest fixed) by one
    # vector per twist g -> z g phi(z)^-1, u = z g1 z^-1, so T(g + e0) - T(g)
    # must be that same vector on every row of the outer ball of a
    # radius-2 labeling
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
    # label_classes chains each row's start from the row before it, which
    # needs g g_n to be g with its last exponent raised by one
    fam = spec.family
    last = fam.generators()[-1]
    for g in product(range(-3, 4), repeat=fam.slots):
        assert fam.multiply(g, last) == g[:-1] + (g[-1] + 1,)


class _SlotZeroT(GroupFamily):
    """Z^2 x|_A Z for A = WEL with t in slot 0: t^k v t^k' v' = t^(k+k')
    (A^-k' v + v').  Its normal forms are in slot order, but e1 t e1^-1 =
    t (A^-1 e1 - e1) does not multiply on the left by a translation."""

    json_tag = "slot-zero-t"
    generator_names = ("t", "e1", "e2")

    def multiply(self, a, b):
        p = _power_sum(WEL.inverse_unimodular().entries, b[0])[0]
        return (a[0] + b[0], p[0] * a[1] + p[1] * a[2] + b[1], p[2] * a[1] + p[3] * a[2] + b[2])


def test_row_walk_refuses_a_family_whose_step_is_not_fixed():
    fam = _SlotZeroT()
    assert fam.multiply((0, 1, 0), (1, 0, 0)) == (1, 5, -3)  # e1 t = t A^-1 e1
    identity = AutomorphismSpec(fam, tuple(fam.generators()), verified=True)
    with pytest.raises(ValueError, match="on slot-zero-t, .* is no translation"):
        label_classes(identity, 1)


@pytest.mark.parametrize(
    "family, wid, param",
    [
        (ZnSemidirectZ(-I3), "M_m", 2),
        (Z2MinusIExt(WEL, (1, -2)), "phi_eight", 1),
        (HeisenbergTimesZ(1), "phi_m", 2),
        (HnSemidirectZ(1, 1, 0), "M_r", 2),
    ],
    ids=lambda v: v.json_tag if hasattr(v, "json_tag") else str(v),
)
def test_row_walk_makes_one_product_per_twist_and_row(family, wid, param, monkeypatch):
    spec = witness(family, wid, param)
    law, calls = type(family).multiply, [0]

    def counted(self, a, b):
        calls[0] += 1
        return law(self, a, b)

    monkeypatch.setattr(type(family), "multiply", counted)
    radius, slots = 3, family.slots
    label_classes(spec, radius)
    side = 2 * radius + 5
    rows = side ** (slots - 1)
    # per twist: a chained start per row, and 2 more products on each of the
    # rows / side rows where the last slot wraps (the full twist and its
    # check); phi(z)^-1 takes at most slots - 1 products, u and the chain
    # factor 2 each
    assert calls[0] <= slots * (rows + 2 * rows // side + slots - 1 + 4)


# edge cases of the row walk: one slot (each row is the whole ball, its
# rest the empty tuple), four abelian slots, and images that step
# negatively along a row: t acts by -I2, or by the hyperbolic A^-1 of WEL
ROW_WALK_CASES = {
    "free-abelian-1": (witness(FreeAbelian(1), "negation", 1), 5, False),
    "free-abelian-4": (witness(FreeAbelian(4), "target", 2), 2, False),
    "minus-I2-flip": (witness(ZnSemidirectZ(-I2), "M_m", 5), 3, True),
    "hyperbolic-flip": (_hyperbolic_flip(WEL.inverse_unimodular()), 2, True),
}


@pytest.mark.parametrize("spec, radius, steps_back", ROW_WALK_CASES.values(), ids=ROW_WALK_CASES.keys())
def test_row_walk_edge_cases_match_reference(spec, radius, steps_back):
    fam = spec.family
    origin, unit = (0,) * fam.slots, (1,) + (0,) * (fam.slots - 1)
    steps = []
    for gen in fam.generators():
        z, w = gen, fam.inverse(spec.apply(gen))
        start, second = (fam.multiply(fam.multiply(z, g), w) for g in (origin, unit))
        steps.extend(b - a for a, b in zip(start, second))
    assert (min(steps) < 0) == steps_back
    _assert_same_labeling(spec, radius)


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
    _assert_same_labeling(witness(family, wid, param), radius)


def _bfs_components(size, edges):
    # the reference partition: each site's component, named by its least site
    neighbours = [[] for _ in range(size)]
    for x, y in edges:
        neighbours[x].append(y)
        neighbours[y].append(x)
    component = [None] * size
    for root in range(size):
        if component[root] is None:
            component[root], queue = root, deque([root])
            while queue:
                for y in neighbours[queue.popleft()]:
                    if component[y] is None:
                        component[y] = root
                        queue.append(y)
    return component


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_merge_and_one_forward_pass_give_the_components(data):
    size = data.draw(st.integers(1, 300))
    site = st.integers(0, size - 1)
    edges = data.draw(st.lists(st.tuples(site, site), max_size=2 * size))
    loops = data.draw(st.lists(site, max_size=5))  # self-loops
    repeats = data.draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []
    edges += [(x, x) for x in loops] + repeats + [(y, x) for x, y in repeats]
    parent = list(range(size))
    # merged in two batches, each batch's components checked after its forward pass
    half = len(edges) // 2
    for done, batch in ((half, edges[:half]), (len(edges), edges[half:])):
        _merge(parent, [x for x, _ in batch], [y for _, y in batch])
        assert all(p <= i for i, p in enumerate(parent))
        _point_at_roots(parent)
        assert all(parent[p] == p for p in parent)  # every site points at a root
        assert parent == _bfs_components(size, edges[:done])
