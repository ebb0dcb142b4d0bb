from functools import lru_cache
from itertools import combinations, product
import json

from hypothesis import assume, given, settings, strategies as st
import pytest

from reidemeister.exactlin import IntMatrix, finite_order, parse_matrix
from reidemeister import groups
from reidemeister.groups import (
    AutomorphismSpec,
    FreeAbelian,
    Heisenberg,
    HeisenbergTimesZ,
    HnSemidirectZ,
    UnknownWitnessError,
    VerificationResult,
    Z2MinusIExt,
    ZnSemidirectZ,
    FAMILIES,
    family_from_json,
    label_classes,
    minus_i_block_matrix,
    rnumber,
    rnumber_with_trace,
    tahara_form_order2,
    tahara_form_order3,
    verify_automorphism,
    witness,
    _WITNESS_BUILDERS,
)
from reidemeister.twisted import INFINITE, RNumber
from dataclasses import replace
from canonical_reference import _z2_by_z2_mul
from snf_reference import ext_rnumber_via_cosets
from verify_reference import _word_product, presentation, reference_verify

I2 = IntMatrix.identity(2)
FIB = parse_matrix("2,3;3,5")

ALL_FAMILIES = [
    FreeAbelian(2),
    FreeAbelian(3),
    Heisenberg(1),
    Heisenberg(3),
    HeisenbergTimesZ(2),
    ZnSemidirectZ(FIB),
    ZnSemidirectZ(tahara_form_order2(1)),
    Z2MinusIExt(FIB, (1, 0)),
    Z2MinusIExt(parse_matrix("0,-1;1,0"), (1, 0)),
    Z2MinusIExt(-I2, (1, 0)),
    HnSemidirectZ(2, 1, 3),
    ZnSemidirectZ(tahara_form_order2(0)),
    ZnSemidirectZ(tahara_form_order3(0)),
    ZnSemidirectZ(tahara_form_order3(1)),
    ZnSemidirectZ(-IntMatrix.identity(3)),
    ZnSemidirectZ(parse_matrix("0,0,1;1,0,1;0,1,0")),  # char poly x^3 - x - 1, infinite order
    HeisenbergTimesZ(1),
    HeisenbergTimesZ(3),
    # the closed-form law of H_n x| Z for n odd and even, k and l odd and even
    HnSemidirectZ(1, 0, 0),
    HnSemidirectZ(3, 1, 2),
    HnSemidirectZ(2, 0, 1),
    HnSemidirectZ(4, 2, 0),
]
HUGE = 10 ** 13


def huge_slots(fam):
    """The slots of the generators that act by a matrix of finite order:
    their exponents may be near 10^13, where a product reduces them modulo
    the order instead of walking them."""
    if isinstance(fam, ZnSemidirectZ):
        return (fam.n,) if finite_order(fam.action) else ()
    if isinstance(fam, Z2MinusIExt):
        return (2, 3) if finite_order(fam.action) else (2,)
    return ()


def random_element(rng, fam, limit=6, huge=False):
    exps = [rng.randint(-limit, limit) for _ in range(fam.slots)]
    for i in huge_slots(fam) if huge else ():
        exps[i] += rng.choice((HUGE, -HUGE))
    return fam.element(exps)


def test_heisenberg_collection_example():
    h = Heisenberg(4)
    x, y, z = h.generators()
    assert h.multiply(y, x) == (1, 1, 4)  # y x collects to x y z^n
    assert h.multiply(x, y) == (1, 1, 0)


def test_semidirect_action_example():
    fam = ZnSemidirectZ(FIB)
    e1, _, t = fam.generators()
    assert fam.multiply(fam.multiply(t, e1), fam.inverse(t)) == (2, 3, 0)  # first column of the action


def test_group_axioms_random(rng):
    for fam in ALL_FAMILIES:
        mul, identity = fam.multiply, (0,) * fam.slots
        for i in range(120):
            # g, h and k take turns carrying t-exponents near 10^13 where the
            # action has finite order
            g = random_element(rng, fam, huge=i % 3 == 0)
            h = random_element(rng, fam, huge=i % 3 == 1)
            k = random_element(rng, fam, huge=i % 3 == 2)
            assert mul(mul(g, h), k) == mul(g, mul(h, k))
            assert mul(g, fam.inverse(g)) == identity
            assert mul(fam.inverse(g), g) == identity
            assert mul(g, identity) == g


def test_double_extension_law_is_the_general_law_at_minus_identity(rng):
    # the reference keeps the law for any commuting pair (A, B); groups writes only B = -I
    assert not hasattr(groups, "_z2_by_z2_mul")
    boxes = map(IntMatrix.from_rows, product(product(range(-2, 3), repeat=2), repeat=2))
    actions = [m for m in boxes if m.det() in (1, -1)]
    for action, n0 in product(actions, product(range(-2, 3), repeat=2)):
        fam = Z2MinusIExt(action, n0)
        for _ in range(4):
            g, h = (tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(2))
            assert fam.multiply(g, h) == _z2_by_z2_mul(action.entries, (-1, 0, 0, -1), n0, g, h)


def test_powers_match_repeated_multiplication(rng):
    for fam in ALL_FAMILIES:
        for huge in (False, True):
            g = random_element(rng, fam, 3, huge)
            acc = (0,) * fam.slots
            for k in range(7):
                assert fam.power(g, k) == acc
                acc = fam.multiply(acc, g)
            assert fam.power(g, -3) == fam.inverse(fam.power(g, 3))
            assert fam.power(g, -1) == fam.inverse(g)


def test_verify_phi_m():
    spec = AutomorphismSpec.from_images(
        HeisenbergTimesZ(2),
        {"x": (0, 1, 0, 0), "y": (1, 4, 0, 0), "z": (0, 0, -1, 0), "u": (0, 0, 0, -1)},
    )
    assert verify_automorphism(spec).ok


def test_verify_rejects_center_doubling():
    spec = AutomorphismSpec.from_images(
        Heisenberg(3), {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 2)}
    )
    assert verify_automorphism(spec) == VerificationResult(False, "center exponent of z is not +-1")


def test_verify_rejects_non_unimodular_layer():
    spec = AutomorphismSpec.from_images(
        FreeAbelian(2), {"e1": (2, 0), "e2": (0, 1)}
    )
    report = verify_automorphism(spec)
    assert not report.ok and "unimodular" in report.failure


def test_verify_phi_alpha_order2():
    fam = ZnSemidirectZ(tahara_form_order2(1))
    spec = AutomorphismSpec.from_images(
        fam, {"e1": (-1, 0, 0, 4), "e2": (-1, -1, 2, 0), "e3": (0, 1, -1, 2), "t": (0, 0, 1, -1)}
    )
    assert verify_automorphism(spec).ok


def test_verify_reports_broken_semidirect_relation():
    fam = ZnSemidirectZ(FIB)
    spec = AutomorphismSpec.from_images(
        fam, {"e1": (1, 0, 0), "e2": (0, 1, 0), "t": (0, 0, -1)}
    )
    report = verify_automorphism(spec)
    assert not report.ok and "t e" in report.failure


# every witness builder on families that admit parameters 1, 7 and 10^12 + 3
WITNESS_CORPUS = {
    (HeisenbergTimesZ, "phi_m"): (HeisenbergTimesZ(1), HeisenbergTimesZ(2)),
    (Heisenberg, "phi_m"): (Heisenberg(1), Heisenberg(3)),
    (FreeAbelian, "target"): (FreeAbelian(2), FreeAbelian(3), FreeAbelian(4)),
    (FreeAbelian, "negation"): (FreeAbelian(1), FreeAbelian(3)),
    (ZnSemidirectZ, "M_m"): (ZnSemidirectZ(-I2), ZnSemidirectZ(-IntMatrix.identity(3))),
    (ZnSemidirectZ, "phi_alpha"): tuple(
        ZnSemidirectZ(form(delta)) for form in (tahara_form_order2, tahara_form_order3) for delta in (0, 1)
    ),
    (HnSemidirectZ, "M_r"): (HnSemidirectZ(3, 2, 5), HnSemidirectZ(2, 0, 2), HnSemidirectZ(1, 1, 1)),
    (Z2MinusIExt, "phi_eight"): (Z2MinusIExt(FIB, (2, -1)), Z2MinusIExt(I2, (1, 0)), Z2MinusIExt(-I2, (0, 0))),
}


def _perturbations(spec):
    """The spec itself, then every spec with one image exponent moved by +-1."""
    yield spec
    for i, img in enumerate(spec.images):
        for j in range(len(img)):
            for step in (1, -1):
                exps = list(img)
                exps[j] += step
                images = spec.images[:i] + (spec.family.element(exps),) + spec.images[i + 1:]
                yield replace(spec, images=images)


def test_verification_agrees_with_the_reference_word_evaluation():
    assert set(WITNESS_CORPUS) == set(_WITNESS_BUILDERS)
    rejected = 0
    for key, families in WITNESS_CORPUS.items():
        for fam in families:
            for param in (1, 7, 10 ** 12 + 3):
                spec = _WITNESS_BUILDERS[key](fam, param)
                for candidate in _perturbations(spec):
                    report = verify_automorphism(candidate)
                    assert report == reference_verify(candidate), (key, fam, param, candidate.images)
                    rejected += not report.ok
                assert verify_automorphism(spec).ok
    assert rejected > 1000


def test_verification_agrees_with_the_reference_on_random_images(rng):
    # the perturbations above are mostly rejections; images in [-2, 2]
    # that keep most slots of the identity map reach both sides of every
    # family: accepted specs, and specs that pass the layers and break a
    # relation
    def exponent(k, slot):
        if rng.random() < 0.8:
            return rng.choice((1, -1)) if slot == k else 0
        return rng.randint(-2, 2)

    for fam in ALL_FAMILIES:
        accepted = broken = 0
        for _ in range(300):
            images = tuple(fam.element([exponent(k, s) for s in range(fam.slots)]) for k in range(fam.slots))
            spec = AutomorphismSpec(fam, images)
            report = verify_automorphism(spec)
            assert report == reference_verify(spec), (fam, images)
            accepted += report.ok
            broken += not report.ok and report.failure.startswith("relation violated")
        # an abelian law satisfies every commutation relation
        assert accepted and (broken or isinstance(fam, FreeAbelian)), fam


# every class in FAMILIES, with Z^n x|_A Z for A = I (one layer), A of
# finite order and A of infinite order
SERIES_FAMILIES = ALL_FAMILIES + [
    ZnSemidirectZ(I2),
    ZnSemidirectZ(IntMatrix.identity(3)),
    ZnSemidirectZ(parse_matrix("1,1;0,1")),
]


def test_each_series_is_read_off_the_group_law():
    # the layers partition the slots; conjugation by a generator or its
    # inverse keeps a layer's generators in that layer and the layers below,
    # and modulo those fixes them, except that the top generators act on
    # the layer below by ``actions``; with ``actions`` None every layer is
    # central modulo the layers below.  A layer of kind "abelian" or
    # "central" and the layers below it generate an abelian or a central
    # subgroup: their generators commute pairwise, or with every generator
    # and its inverse (verify_automorphism skips the relations this proves)
    assert {type(fam) for fam in SERIES_FAMILIES} == set(FAMILIES.values())
    kinds = {fam.json_tag: set() for fam in SERIES_FAMILIES}
    for fam in SERIES_FAMILIES:
        layers = [slots for _, slots, _ in fam.layers]
        assert sorted(s for slots in layers for s in slots) == list(range(fam.slots)), fam
        assert all(slots == tuple(range(slots[0], slots[-1] + 1)) for slots in layers), fam
        top, gens = layers[-1], fam.generators()
        assert fam.actions is None or len(fam.actions) == len(top), fam
        for i, slots in enumerate(layers):
            above = [s for later in layers[i + 1:] for s in later]
            acted = fam.actions is not None and i == len(layers) - 2
            for g, sign in product(range(fam.slots), (1, -1)):
                z = gens[g] if sign == 1 else fam.inverse(gens[g])
                for col, s in enumerate(slots):
                    conj = fam.multiply(fam.multiply(z, gens[s]), fam.inverse(z))
                    assert not any(conj[j] for j in above), (fam, g, sign, s)
                    expected = tuple(int(j == s) for j in slots)
                    if acted and g in top:
                        b = fam.actions[top.index(g)]
                        expected = (b if sign == 1 else b.inverse_unimodular()).column(col)
                    assert tuple(conj[j] for j in slots) == expected, (fam, g, sign, s)
        below, everything = [], gens + [fam.inverse(g) for g in gens]
        for name, slots, kind in fam.layers:
            assert kind in (None, "abelian", "central"), (fam, name)
            kinds[fam.json_tag].add((name, kind))
            below += slots
            partners = {"abelian": [gens[s] for s in below], "central": everything, None: []}[kind]
            for s, h in product(below, partners):
                assert fam.multiply(gens[s], h) == fam.multiply(h, gens[s]), (fam, name, s, h)
    # the lattice is abelian, the center central, and nothing else is flagged
    assert kinds == {
        "free-abelian": {("lattice", "abelian")},
        "heisenberg": {("center", "central"), ("quotient", None)},
        "heisenberg-times-z": {("center", "central"), ("quotient", None)},
        "zn-semidirect-z": {("lattice", "abelian"), ("quotient", None)},
        "z2-minusi-ext": {("lattice", "abelian"), ("quotient", None)},
        "hn-semidirect-z": {("center", "central"), ("Heisenberg", None), ("quotient", None)},
    }


def _evaluated_relations(spec, monkeypatch):
    """The pairs (i, j) whose relation verify_automorphism evaluates: each
    evaluation multiplies g_j g_i, then phi(g_j) phi(g_i)."""
    fam, calls = spec.family, []
    law = type(fam).multiply

    def recording(self, a, b):
        calls.append((a, b))
        return law(self, a, b)

    monkeypatch.setattr(type(fam), "multiply", recording)
    report = verify_automorphism(spec)
    monkeypatch.undo()
    gens, images = fam.generators(), spec.images
    pairs = [
        (i, j) for i, j in combinations(range(fam.slots), 2)
        for k in range(len(calls) - 1) if calls[k:k + 2] == [(gens[j], gens[i]), (images[j], images[i])]
    ]
    return report, sorted(set(pairs))


def _skipped_by_hand(fam):
    """How many relations an in-layer spec of the family skips: those of
    two lattice generators, or with a central generator."""
    if isinstance(fam, ZnSemidirectZ) and fam.action != IntMatrix.identity(fam.n):
        return fam.n * (fam.n - 1) // 2
    every = fam.slots * (fam.slots - 1) // 2  # free abelian, and Z^n x|_I Z
    return {Heisenberg: 2, HeisenbergTimesZ: 5, Z2MinusIExt: 1, HnSemidirectZ: 3}.get(type(fam), every)


def test_verification_skips_exactly_the_relations_the_series_proves(monkeypatch):
    in_layer = [AutomorphismSpec(fam, tuple(fam.generators())) for fam in SERIES_FAMILIES]
    for (cls, name), families in WITNESS_CORPUS.items():
        for fam in families:
            spec = _WITNESS_BUILDERS[cls, name](fam, 7)
            if name != "phi_alpha":
                in_layer.append(spec)
    for spec in in_layer:
        fam = spec.family
        central = {s for _, slots, kind in fam.layers[:1] if kind == "central" for s in slots}
        lattice = {s for _, slots, kind in fam.layers[:1] if kind == "abelian" for s in slots}
        expected = [
            (i, j) for i, j in combinations(range(fam.slots), 2)
            if not ({i, j} <= lattice or central & {i, j})
        ]
        report, pairs = _evaluated_relations(spec, monkeypatch)
        assert report.ok and pairs == expected, (fam, spec.images, pairs)
        assert fam.slots * (fam.slots - 1) // 2 - len(pairs) == _skipped_by_hand(fam), fam


def test_verification_checks_every_relation_of_a_map_leaving_the_lattice(monkeypatch):
    # phi_alpha on each Tahara form moves a lattice generator off the
    # lattice, so it passes the layers through the holonomy branch; M_m on
    # -I keeps the lattice, which is characteristic there
    for fam in WITNESS_CORPUS[ZnSemidirectZ, "phi_alpha"]:
        for alpha in (1, 7, 10 ** 12 + 3):
            spec = witness(fam, "phi_alpha", alpha)
            assert any(img[fam.n] for img in spec.images[:fam.n]), (fam, alpha)
            report, pairs = _evaluated_relations(spec, monkeypatch)
            assert report.ok and pairs == list(combinations(range(fam.slots), 2)), (fam, alpha, pairs)
    for fam in WITNESS_CORPUS[ZnSemidirectZ, "M_m"]:
        spec = witness(fam, "M_m", 7)
        assert not any(img[fam.n] for img in spec.images[:fam.n]), fam


def test_the_trivial_endomorphism_is_refused():
    for fam in SERIES_FAMILIES:
        report = verify_automorphism(AutomorphismSpec(fam, ((0,) * fam.slots,) * fam.slots))
        assert not report.ok and not report.failure.startswith("relation violated"), fam


def test_a_relation_respecting_endomorphism_is_refused_by_its_lattice_block():
    # e1, e2 -> 1, t -> e2^-1 u^-1, u -> 1 respects every relation of the
    # presentation; only the lattice layer tells it is no automorphism
    fam = Z2MinusIExt(parse_matrix("2,1;1,1"), (1, 0))
    spec = AutomorphismSpec(fam, ((0, 0, 0, 0), (0, 0, 0, 0), (0, -1, 0, -1), (0, 0, 0, 0)))
    for (j, i), word in presentation(fam).items():
        assert _word_product(spec, ((j, 1), (i, 1))) == _word_product(spec, word)
    assert verify_automorphism(spec) == VerificationResult(False, "lattice matrix is not unimodular")


# automorphisms of Z^n x|_A Z that leave the lattice, each with its
# inverse; verify_automorphism refuses both as "images leave the lattice
# subgroup" (ROADMAP item 6)
LATTICE_LEAVING = {
    # on H_1 written as Z^2 x| Z: e1 -> e1^-1, e2 -> t, t -> e2, an involution
    "unipotent-swap": (
        ZnSemidirectZ(parse_matrix("1,1;0,1")),
        ((-1, 0, 0), (0, 0, 1), (0, 1, 0)),
        ((-1, 0, 0), (0, 0, 1), (0, 1, 0)),
    ),
    # eigenvalue 1 twice: e2 -> e2 t^2, inverse e2 -> e2 t^-2
    "eigenvalue-one-twice": (
        ZnSemidirectZ(parse_matrix("1,1,0;0,1,0;0,0,-1")),
        ((1, 0, 0, 0), (0, 1, 0, 2), (0, 0, 1, 0), (0, 0, 0, 1)),
        ((1, 0, 0, 0), (0, 1, 0, -2), (0, 0, 1, 0), (0, 0, 0, 1)),
    ),
}


@pytest.mark.parametrize("fam, images, inverse", LATTICE_LEAVING.values(), ids=LATTICE_LEAVING.keys())
def test_lattice_leaving_maps_are_automorphisms(fam, images, inverse):
    # independently of verify_automorphism: both maps satisfy every relation
    # of the hand-written presentation, and each undoes the other
    spec, back = AutomorphismSpec(fam, images), AutomorphismSpec(fam, inverse)
    for phi in (spec, back):
        for (j, i), word in presentation(fam).items():
            assert _word_product(phi, ((j, 1), (i, 1))) == _word_product(phi, word)
    for g in fam.generators():
        assert back.apply(spec.apply(g)) == g == spec.apply(back.apply(g))
    assert any(img[fam.n] for img in images[:fam.n])  # an e_i image leaves the lattice


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the lattice check refuses automorphisms leaving the lattice")
@pytest.mark.parametrize("fam, images, inverse", LATTICE_LEAVING.values(), ids=LATTICE_LEAVING.keys())
def test_verify_accepts_automorphisms_that_leave_the_lattice(fam, images, inverse):
    assert verify_automorphism(AutomorphismSpec(fam, images)) == VerificationResult(True)


def test_finite_order_witnesses_never_walk_past_the_order(monkeypatch):
    # counts walks, not time: witness -> verify_automorphism -> rnumber at
    # parameter 10^12 must reduce every exponent of a finite-order action
    from reidemeister import exactlin

    walked = []

    def recording(walk):
        def record(a, k):
            walked.append(k)
            return walk(a, k)
        return record

    # the cached walks of the group laws, and any uncached one
    monkeypatch.setattr(exactlin, "_walk", recording(exactlin._walk))
    monkeypatch.setattr(exactlin, "_power_and_sum", recording(exactlin._power_and_sum))
    cases = [(fam, "phi_alpha") for fam in WITNESS_CORPUS[ZnSemidirectZ, "phi_alpha"]]
    cases += [(fam, "M_m") for fam in WITNESS_CORPUS[ZnSemidirectZ, "M_m"]]
    for fam, name in cases:
        walked.clear()
        spec = witness(fam, name, 10 ** 12)
        assert verify_automorphism(spec).ok
        rnumber(spec)
        assert walked and max(map(abs, walked)) <= finite_order(fam.action), (fam, name)


def test_apply_is_a_homomorphism(rng):
    for fam in ALL_FAMILIES[:6]:
        spec = None
        if isinstance(fam, Heisenberg):
            spec = witness(fam, "phi_m", 2)
        elif isinstance(fam, HeisenbergTimesZ):
            spec = witness(fam, "phi_m", 3)
        if spec is None:
            continue
        for _ in range(60):
            g = random_element(rng, fam, 4)
            h = random_element(rng, fam, 4)
            assert spec.apply(fam.multiply(g, h)) == fam.multiply(spec.apply(g), spec.apply(h))


def test_witness_contract_closed_forms():
    for n in (1, 2):
        fam = HeisenbergTimesZ(n)
        for m in (1, 4, 20):
            assert rnumber(witness(fam, "phi_m", m)) == RNumber(4 * m)
    fam = Heisenberg(3)
    for m in (1, 7):
        assert rnumber(witness(fam, "phi_m", m)) == RNumber(2 * m)
    fam = ZnSemidirectZ(-I2)
    for m in (1, 5, 20):
        assert rnumber(witness(fam, "M_m", m)) == RNumber(2 * m)
    fam = ZnSemidirectZ(-IntMatrix.identity(3))
    for m in (1, 5):
        assert rnumber(witness(fam, "M_m", m)) == RNumber(2 * (m + 1))
    for m in (1, 6):
        assert rnumber(witness(ZnSemidirectZ(tahara_form_order2(1)), "phi_alpha", m)) == RNumber(4 * m)
        assert rnumber(witness(ZnSemidirectZ(tahara_form_order2(0)), "phi_alpha", m)) == RNumber(2 * m)
        assert rnumber(witness(ZnSemidirectZ(tahara_form_order3(0)), "phi_alpha", m)) == RNumber(6 * m)
        assert rnumber(witness(ZnSemidirectZ(tahara_form_order3(1)), "phi_alpha", m)) == RNumber(6 * m)
    for r in (1, 3):
        assert rnumber(witness(HnSemidirectZ(3, 2, 5), "M_r", r)) == RNumber(4 * r)
    for r in (2, 6):
        assert rnumber(witness(HnSemidirectZ(2, 1, 1), "M_r", r)) == RNumber(4 * r)
    assert rnumber(witness(Z2MinusIExt(FIB, (2, -1)), "phi_eight", 1)) == RNumber(8)
    assert rnumber(witness(FreeAbelian(2), "target", 9)) == RNumber(9)
    for n in (3, 4):
        for alpha in (1, 2, 7, 10 ** 12):
            assert rnumber(witness(FreeAbelian(n), "target", alpha)) == RNumber(alpha)
    assert rnumber(witness(FreeAbelian(1), "negation", 1)) == RNumber(2)


def test_witness_huge_parameter_no_overflow():
    spec = witness(HeisenbergTimesZ(1), "phi_m", 10 ** 6)
    assert rnumber(spec) == RNumber(4 * 10 ** 6)


def test_witness_errors():
    with pytest.raises(UnknownWitnessError):
        witness(Heisenberg(1), "no-such", 1)
    with pytest.raises(ValueError):
        witness(Heisenberg(1), "phi_m", 0)
    with pytest.raises(UnknownWitnessError):
        witness(ZnSemidirectZ(FIB), "M_m", 1)  # needs the -I action
    with pytest.raises(UnknownWitnessError):
        witness(HnSemidirectZ(2, 1, 0), "M_r", 3)  # odd trace impossible here


def test_rnumber_requires_verified_spec():
    fam = FreeAbelian(2)
    spec = AutomorphismSpec.from_images(fam, {"e1": (0, 1), "e2": (-1, 0)})
    with pytest.raises(ValueError):
        rnumber(spec)
    assert rnumber(replace(spec, verified=True)) == RNumber(2)


def test_rnumber_traces():
    _, trace = rnumber_with_trace(witness(HeisenbergTimesZ(1), "phi_m", 1))
    assert trace == ("rnumber:center-times-quotient",)
    _, trace = rnumber_with_trace(witness(ZnSemidirectZ(tahara_form_order2(1)), "phi_alpha", 1))
    assert trace == ("rnumber:holonomy-averaging",)
    _, trace = rnumber_with_trace(witness(ZnSemidirectZ(-I2), "M_m", 1))
    assert trace == ("rnumber:two-step-addition",)


def test_rnumber_identity_quotient_is_infinite():
    fam = ZnSemidirectZ(FIB)
    spec = AutomorphismSpec.from_images(
        fam, {"e1": (2, 3, 0), "e2": (3, 5, 0), "t": (0, 0, 1)}
    )
    report = verify_automorphism(spec)
    assert report.ok
    assert rnumber_with_trace(replace(spec, verified=True)) == (INFINITE, ("rnumber:identity-quotient",))


def test_double_ext_class_count_agrees_with_the_coset_transversal():
    # a slice of the verified automorphisms with A in {+-I, orders 3, 4, 6,
    # (2,1;1,1)}, n0 in {(0,0), (1,0)}, a lattice block in [-1,1]^4, a
    # quotient matrix Q in [-3,3]^4 with det(I - Q) != 0 and the first
    # translations in {0,1}^4 that verify: the Hermite box counted by class
    # gives the sum over the Smith form transversal
    blocks = [IntMatrix(2, 2, e) for e in product(range(-1, 2), repeat=4) if e[0] * e[3] - e[1] * e[2] in (1, -1)]
    quotients = [IntMatrix(2, 2, e) for e in product(range(-3, 4), repeat=4)]
    quotients = [q for q in quotients if q.is_unimodular and (I2 - q).det()][::5]
    verified = finite = 0
    for text in ("1,0;0,1", "-1,0;0,-1", "0,-1;1,-1", "0,-1;1,0", "1,-1;1,0", "2,1;1,1"):
        a = parse_matrix(text)
        for n0, m, q in product(((0, 0), (1, 0)), blocks, quotients):
            (q0, q1), (q2, q3) = q.to_rows()
            # t -> t^q0 u^q2 must act on the lattice by -I, u -> t^q1 u^q3 by M A M^-1
            if (a ** q2).scale((-1) ** q0) != -I2 or (a ** q3).scale((-1) ** q1) * m != m * a:
                continue
            for z0, m0 in product(product((0, 1), repeat=2), repeat=2):
                images = {"e1": m.column(0) + (0, 0), "e2": m.column(1) + (0, 0), "t": z0 + (q0, q2), "u": m0 + (q1, q3)}
                spec = AutomorphismSpec.from_images(Z2MinusIExt(a, n0), images)
                if verify_automorphism(spec):
                    spec = replace(spec, verified=True)
                    r = rnumber(spec)
                    assert r == ext_rnumber_via_cosets(spec), (a, n0, m, q, z0, m0)
                    verified, finite = verified + 1, finite + (r != INFINITE)
                    break
    assert (verified, finite) == (798, 288)


def test_minus_i_block_matrix_shape():
    m = minus_i_block_matrix(3, 4)
    assert m.to_rows() == [[0, 0, 1], [1, 0, 0], [0, 1, 4]]


def test_label_classes_identity_on_line_never_completes():
    fam = FreeAbelian(1)
    spec = replace(
        AutomorphismSpec.from_images(fam, {"e1": (1,)}), verified=True
    )
    counts = []
    for radius in (1, 2, 3):
        labeling = label_classes(spec, radius)
        assert not labeling.complete
        counts.append(labeling.class_count)
    assert counts == sorted(counts) and counts[0] < counts[-1]


def test_label_classes_minus_identity_four_classes():
    fam = FreeAbelian(2)
    spec = replace(
        AutomorphismSpec.from_images(fam, {"e1": (-1, 0), "e2": (0, -1)}), verified=True
    )
    labeling = label_classes(spec, 3)
    assert labeling.complete and labeling.class_count == 4
    assert labeling.class_count == rnumber(spec).value


def test_label_classes_matches_formula_for_phi_m():
    spec = witness(HeisenbergTimesZ(1), "phi_m", 1)
    labeling = label_classes(spec, 6)
    assert labeling.complete
    assert labeling.class_count == 4


# (family, witness id, parameter range, radius) of the invariance test
INVARIANCE_CASES = [
    (ZnSemidirectZ(-I2), "M_m", (1, 6), 4),
    (HnSemidirectZ(1, 1, 0), "M_r", (1, 3), 2),
    (HeisenbergTimesZ(1), "phi_m", (1, 4), 2),
    (Z2MinusIExt(FIB, (1, 1)), "phi_eight", (1, 1), 2),
]


@lru_cache(maxsize=None)
def _invariance_labeling(case: int, param: int):
    family, wid, _, radius = INVARIANCE_CASES[case]
    spec = witness(family, wid, param)
    return spec, label_classes(spec, radius)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_label_classes_twisted_invariance(data):
    # the oracle merges along the twists by the generators only; the twist
    # by z^-1 is the inverse map, so g and z^-1 g phi(z) share a label too
    case = data.draw(st.integers(0, len(INVARIANCE_CASES) - 1))
    family, _, (lo, hi), radius = INVARIANCE_CASES[case]
    spec, labeling = _invariance_labeling(case, data.draw(st.integers(lo, hi)))
    g = family.element(data.draw(st.tuples(*[st.integers(-radius, radius)] * family.slots)))
    gen = data.draw(st.sampled_from(family.generators()))
    z = family.inverse(gen) if data.draw(st.booleans()) else gen
    h = family.multiply(family.multiply(z, g), family.inverse(spec.apply(z)))
    assume(h in labeling.labels)
    assert labeling.labels[g] == labeling.labels[h]


def test_label_classes_requires_verified():
    spec = AutomorphismSpec.from_images(FreeAbelian(1), {"e1": (-1,)})
    with pytest.raises(ValueError):
        label_classes(spec, 2)
    with pytest.raises(ValueError):
        label_classes(replace(spec, verified=True), 0)


def test_spec_json_roundtrip():
    spec = witness(Z2MinusIExt(FIB, (1, 1)), "phi_eight", 1)
    data = json.loads(json.dumps(spec.to_json_dict()))
    back = AutomorphismSpec.from_json_dict(data)
    assert back.images == spec.images
    assert back.family == spec.family
    assert family_from_json({"tag": "heisenberg", "n": 2}) == Heisenberg(2)
    with pytest.raises(ValueError):
        family_from_json({"tag": "mystery"})


def test_spec_refuses_an_image_for_a_generator_the_family_lacks():
    data = {"family": {"tag": "free-abelian", "n": 2}, "images": {"e1": [0, 1], "e2": [-1, 3], "e3": [5, 5]}}
    with pytest.raises(ValueError, match="'e3'"):
        AutomorphismSpec.from_json_dict(data)
    with pytest.raises(ValueError, match="'t'"):
        AutomorphismSpec.from_images(Heisenberg(1), {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1), "t": (0, 0, 0)})


def test_family_registry_json_roundtrip():
    samples = {
        "free-abelian": FreeAbelian(3),
        "heisenberg": Heisenberg(2),
        "heisenberg-times-z": HeisenbergTimesZ(1),
        "zn-semidirect-z": ZnSemidirectZ(tahara_form_order3(1)),
        "z2-minusi-ext": Z2MinusIExt(FIB, (1, -2)),
        "hn-semidirect-z": HnSemidirectZ(2, 1, 3),
    }
    assert set(FAMILIES) == set(samples)
    for tag, fam in samples.items():
        assert FAMILIES[tag] is type(fam)
        data = json.loads(json.dumps(fam.to_json_dict()))
        assert data["tag"] == tag
        assert family_from_json(data) == fam


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"tag": "zn-semidirect-z"},
        {"tag": "z2-minusi-ext", "matrix": [[2, 3], [3, 5]]},
        {"tag": "z2-minusi-ext", "matrix": [[2, 3], [3, 5]], "n0": 5},
        {"tag": "heisenberg", "n": [1]},
        {"tag": ["heisenberg"], "n": 1},
    ],
)
def test_family_from_json_rejects_malformed_input(data):
    with pytest.raises(ValueError):
        family_from_json(data)


@pytest.mark.parametrize(
    "build",
    [
        lambda: FreeAbelian(2.0),
        lambda: FreeAbelian(True),
        lambda: Heisenberg(1.5),
        lambda: HeisenbergTimesZ("1"),
        lambda: HnSemidirectZ(1, 0.5, 0),
        lambda: HnSemidirectZ(2, 0, 1.0),
        lambda: HnSemidirectZ(2.5, 0, 0),
    ],
    ids=["free-abelian-float", "free-abelian-bool", "heisenberg-float", "heisenberg-times-z-str", "hn-k", "hn-l", "hn-n"],
)
def test_integer_families_refuse_non_integer_parameters(build):
    # a float parameter used to construct and then compute with the float
    with pytest.raises(ValueError, match="must be an integer"):
        build()


def test_free_abelian_rank_is_capped_at_the_hirsch_length_in_scope():
    assert FreeAbelian(4).slots == 4
    for n in (5, 10 ** 6):
        with pytest.raises(ValueError, match="exceeds MAX_RANK = 4"):
            FreeAbelian(n)
    with pytest.raises(ValueError, match="MAX_RANK"):
        family_from_json({"tag": "free-abelian", "n": 5})


def test_zn_semidirect_z_is_capped_at_the_hirsch_length_in_scope():
    assert ZnSemidirectZ(-IntMatrix.identity(3)).slots == 4
    for n in (4, 32):
        with pytest.raises(ValueError, match="Hirsch length %d, above MAX_RANK = 4" % (n + 1)):
            ZnSemidirectZ(IntMatrix.identity(n))
    with pytest.raises(ValueError, match="MAX_RANK"):
        family_from_json({"tag": "zn-semidirect-z", "matrix": IntMatrix.identity(4).to_rows()})


def test_spec_refuses_an_image_of_the_wrong_length():
    with pytest.raises(ValueError, match="expected 3 exponents in each image, got 2"):
        AutomorphismSpec(Heisenberg(1), ((0, 1, 0), (1, 0), (0, 0, 1)))


def test_apply_refuses_a_tuple_of_the_wrong_length():
    spec = witness(Heisenberg(2), "phi_m", 3)
    assert spec.apply((1, 0, 0)) == spec.images[0]
    for g in ((1,), (1, 0), (1, 0, 0, 5)):
        with pytest.raises(ValueError, match="expected 3 exponents, got %d" % len(g)):
            spec.apply(g)


def test_power_walks_high_bit_first_on_the_family_law(monkeypatch):
    # power multiplies through the family's own multiply, so a traced
    # subclass law sees every product
    fam, g, calls = Heisenberg(1), (1, 2, 3), []
    law = Heisenberg.multiply

    def counted(self, a, b):
        calls.append((a, b))
        return law(self, a, b)

    monkeypatch.setattr(Heisenberg, "multiply", counted)
    assert fam.power(g, 1) == g and not calls
    assert fam.power(g, 0) == (0, 0, 0) and not calls
    fam.power(g, 13)  # 0b1101: three squarings, two products by g
    assert len(calls) == 5
