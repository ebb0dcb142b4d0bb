from functools import lru_cache
from itertools import combinations, product
import json
import math

from hypothesis import assume, given, settings, strategies as st
import pytest

from reidemeister.exactlin import HypothesisError, IntMatrix, finite_order, parse_matrix
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
    THREE_STEP,
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
from conftest import random_unimodular
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


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_phi_m_images_on_both_heisenberg_families(m):
    # the images each family's phi_m builder wrote out before they shared one
    heis = {"x": (0, 1, 0), "y": (1, m, 0), "z": (0, 0, -1)}
    htz = {"x": (0, 1, 0, 0), "y": (1, m, 0, 0), "z": (0, 0, -1, 0), "u": (0, 0, 0, -1)}
    for fam, images in ((Heisenberg(2), heis), (HeisenbergTimesZ(3), htz)):
        assert witness(fam, "phi_m", m) == AutomorphismSpec(fam, AutomorphismSpec.from_images(fam, images).images, True)


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
        groups._verify_value.cache_clear()  # a memo hit evaluates no relation
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
            groups._verify_value.cache_clear()  # witness() has verified this value
            report, pairs = _evaluated_relations(spec, monkeypatch)
            assert report.ok and pairs == list(combinations(range(fam.slots), 2)), (fam, alpha, pairs)
    for fam in WITNESS_CORPUS[ZnSemidirectZ, "M_m"]:
        spec = witness(fam, "M_m", 7)
        assert not any(img[fam.n] for img in spec.images[:fam.n]), fam


# The verification memo: a report is kept per spec value (family, images).


def _cold(spec):
    """The report of the full check: the memo is emptied first."""
    groups._verify_value.cache_clear()
    return verify_automorphism(spec)


def _memo_counts():
    info = groups._verify_value.cache_info()
    return info.hits, info.misses


def test_a_round_tripped_witness_hits_the_report_of_the_original():
    for (_, name), families in WITNESS_CORPUS.items():
        for fam in families:
            groups._verify_value.cache_clear()
            spec = witness(fam, name, 7)
            again = AutomorphismSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
            assert again.family is not spec.family and again.images == spec.images
            assert _memo_counts() == (0, 1), fam
            assert verify_automorphism(again) == verify_automorphism(spec) == VerificationResult(True)
            assert _memo_counts() == (2, 1), fam


def test_specs_differing_only_in_a_family_field_get_their_own_verdicts():
    cases = [
        (witness(Z2MinusIExt(FIB, (2, -1)), "phi_eight", 1), Z2MinusIExt(FIB, (0, 0))),
        (witness(HnSemidirectZ(3, 2, 5), "M_r", 3), HnSemidirectZ(3, 1, 5)),
        (witness(ZnSemidirectZ(-I2), "M_m", 3), ZnSemidirectZ(I2)),
        (witness(ZnSemidirectZ(-I2), "M_m", 3), ZnSemidirectZ(parse_matrix("0,-1;1,0"))),
    ]
    verdicts = []
    for spec, other in cases:
        assert verify_automorphism(spec).ok  # in the memo
        moved = AutomorphismSpec(other, spec.images)
        warm = verify_automorphism(moved)
        assert warm == _cold(moved), other
        verdicts.append(warm.ok)
    # the double extension with n0 = 0 and H_3 x| Z with k = 1 fail where
    # their siblings pass; the identity action passes too
    assert verdicts == [False, False, True, False]


def test_a_failing_report_hits_with_its_failure_text():
    fam = ZnSemidirectZ(tahara_form_order2(0))
    spec = witness(fam, "phi_alpha", 3)
    failing = [
        (AutomorphismSpec(fam, ((3, 0, 0, 2),) + spec.images[1:]), "translation-lattice matrix is not unimodular"),
        (AutomorphismSpec(fam, ((1, 0, 0, 1),) + spec.images[1:]), "image does not lie in the translation lattice"),
        (AutomorphismSpec(FreeAbelian(2), ((0, 0), (0, 0))), "lattice matrix is not unimodular"),
        (AutomorphismSpec(ZnSemidirectZ(FIB), ((1, 0, 0), (0, 1, 0), (0, 0, -1))),
         "relation violated: t e1 = <e1^2 e2^3 t^1>"),
    ]
    for bad, failure in failing:
        cold = _cold(bad)
        twin = AutomorphismSpec(bad.family, tuple(tuple(img) for img in bad.images))
        warm = verify_automorphism(twin)
        assert cold == VerificationResult(False, failure) and _memo_counts() == (1, 1), bad
        assert warm == cold and warm.failure == cold.failure


def test_a_spec_with_list_images_verifies_and_counts():
    for fam, name in [(Heisenberg(3), "phi_m"), (ZnSemidirectZ(tahara_form_order3(1)), "phi_alpha")]:
        spec = witness(fam, name, 4)
        listed = AutomorphismSpec(fam, [list(img) for img in spec.images])
        assert verify_automorphism(listed) == _cold(listed) == VerificationResult(True)
        assert rnumber(replace(listed, verified=True)) == rnumber(spec)


def test_a_spec_with_an_exponent_that_is_not_an_int_is_refused_before_the_memo():
    # 2.0 == 2 and True == 1, so a memo lookup would answer these specs
    # with the report of an int spec; e1 -> 0.5 e1, e2 -> 2 e2 is no
    # automorphism of Z^2 at all
    spec = witness(ZnSemidirectZ(tahara_form_order3(1)), "phi_alpha", 2)
    specs = [
        (AutomorphismSpec(spec.family, tuple(tuple(map(float, img)) for img in spec.images)), r"-?\d+\.0"),
        (AutomorphismSpec(FreeAbelian(2), ((0.5, 0), (0, 2))), r"0\.5"),
        (AutomorphismSpec(FreeAbelian(2), ((True, 0), (0, 1))), "True"),
    ]
    before = _memo_counts(), groups._holonomy_reading.cache_info()
    for bad, exponent in specs:
        with pytest.raises(ValueError, match="^an exponent must be an integer, got %s$" % exponent):
            verify_automorphism(bad)
    assert (_memo_counts(), groups._holonomy_reading.cache_info()) == before


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_warm_report_equals_a_cold_one(data):
    # witnesses, and witnesses with one exponent moved, over every family;
    # values repeat within a draw, so the warm reports include memo hits
    specs = []
    for _ in range(data.draw(st.integers(1, 6))):
        cls, name = data.draw(st.sampled_from(list(WITNESS_CORPUS)))
        fam = data.draw(st.sampled_from(WITNESS_CORPUS[cls, name]))
        spec = _WITNESS_BUILDERS[cls, name](fam, data.draw(st.integers(1, 10 ** 6)))
        if data.draw(st.booleans()):
            i, j = data.draw(st.integers(0, fam.slots - 1)), data.draw(st.integers(0, fam.slots - 1))
            img = list(spec.images[i])
            img[j] += data.draw(st.sampled_from((-2, -1, 1, 2)))
            spec = replace(spec, images=spec.images[:i] + (tuple(img),) + spec.images[i + 1:])
        specs += [spec] * data.draw(st.integers(1, 2))
    warm = [verify_automorphism(spec) for spec in specs]
    assert warm == [_cold(spec) for spec in specs]


def test_the_holonomy_branch_is_read_once_per_spec_value():
    for fam in WITNESS_CORPUS[ZnSemidirectZ, "phi_alpha"]:
        groups._holonomy_reading.cache_clear()
        spec = witness(fam, "phi_alpha", 3)
        again = replace(AutomorphismSpec.from_json_dict(spec.to_json_dict()), verified=True)
        rnumber(again)
        label_classes(spec, 1)
        info = groups._holonomy_reading.cache_info()
        assert (info.misses, info.currsize) == (1, 1), fam


def test_phi_eight_decides_each_double_extension_once(monkeypatch):
    from reidemeister import spectra

    decide, calls = spectra._ext_decision, []

    def recording(a, n0):
        calls.append((a, n0))
        return decide(a, n0)

    monkeypatch.setattr(spectra, "_ext_decision", recording)
    groups._ext_decision.cache_clear()
    families = WITNESS_CORPUS[Z2MinusIExt, "phi_eight"]
    for param in (1, 2, 10 ** 12):
        for fam in families:
            witness(Z2MinusIExt(fam.action, fam.n0), "phi_eight", param)  # an equal family, built anew
    with pytest.raises(UnknownWitnessError):
        witness(Z2MinusIExt(parse_matrix("0,1;1,0"), (0, 0)), "phi_eight", 1)
    assert calls == [(fam.action, fam.n0) for fam in families] + [(parse_matrix("0,1;1,0"), (0, 0))]


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


def test_maps_moving_t_into_the_lattice_of_an_identity_action_stay_on_the_lattice():
    # with A = I the group is free abelian and its one layer is the whole
    # lattice, so a map mixing t and the e_i is a lattice map: I has finite
    # order 1, yet there is no holonomy branch and no translation lattice
    cases = [
        # e1 -> t, t -> e1^-1 on Z^2, and e1 -> t, e2 -> e1, t -> e2^-1 on Z^3: M^2 = -I, M^3 = -I
        (ZnSemidirectZ(IntMatrix.identity(1)), ((0, 1), (-1, 0)), 2),
        (ZnSemidirectZ(I2), ((0, 0, 1), (1, 0, 0), (0, -1, 0)), 2),
    ]
    for fam, images, count in cases:
        spec = AutomorphismSpec(fam, images)
        assert verify_automorphism(spec) == VerificationResult(True), fam
        spec = replace(spec, verified=True)
        assert rnumber_with_trace(spec) == (RNumber(count), ("rnumber:lattice",)), fam
        assert label_classes(spec, 2).class_count == count, fam
    spec = AutomorphismSpec(ZnSemidirectZ(I2), ((0, 0, 2), (0, 1, 0), (1, 0, 0)))  # e1 -> t^2, t -> e1
    assert verify_automorphism(spec) == VerificationResult(False, "lattice matrix is not unimodular")


@pytest.mark.parametrize(
    "e1, failure",
    [
        # T = (1, 1; 0, 3) on <t^2, e1>: an endomorphism, not onto
        ((3, 0, 0, 2), "translation-lattice matrix is not unimodular"),
        # t^1 is not in <t^2, e1, e2, e3>
        ((1, 0, 0, 1), "image does not lie in the translation lattice"),
        ((1, 0, 0, 2), None),
    ],
    ids=["not-unimodular", "outside", "unimodular"],
)
def test_holonomy_branch_failures(e1, failure):
    # A = diag(1, -1, -1) has order 2; e1 -> e1^a t^k with the other
    # generators fixed respects every relation when k is even
    fam = ZnSemidirectZ(tahara_form_order2(0))
    spec = AutomorphismSpec(fam, (e1,) + tuple(fam.generators()[1:]))
    assert verify_automorphism(spec) == VerificationResult(failure is None, failure)


def test_a_unimodular_translation_matrix_forces_q_prime_to_the_order(rng):
    # phi(t) = v t^q gives phi(t)^d = (sum_{j<d} A^(qj) v) t^(qd), whose
    # coordinates are divisible by g = gcd(q, d): why ZnSemidirectZ does not
    # check that phi is bijective on Z / d once T is unimodular
    actions = [
        a
        for n in (1, 2, 3)
        for a in (IntMatrix(n, n, e) for e in product((-1, 0, 1), repeat=n * n))
        if a.is_unimodular and a != IntMatrix.identity(n) and finite_order(a)
    ]
    unimodular, shared = {}, 0
    for _ in range(3000):
        fam = ZnSemidirectZ(rng.choice(actions))
        n, d = fam.n, finite_order(fam.action)
        m = random_unimodular(rng, n, 1)
        k = [rng.randint(-1, 1) for _ in range(n)]
        k[rng.randrange(n)] = rng.choice((1, -1))  # an e_i image leaves the lattice
        q = rng.randint(-2 * d, 2 * d)
        t_image = tuple(rng.randint(-2, 2) for _ in range(n)) + (q,)
        spec = AutomorphismSpec(fam, tuple(m.column(i) + (d * k[i],) for i in range(n)) + (t_image,))
        order, _, lattice, q_read = fam._holonomy(spec)
        assert (order, q_read) == (d, q)
        if math.gcd(q, d) > 1:
            assert not lattice.is_unimodular, (fam, spec.images)
            shared += 1
        else:
            unimodular[d] = unimodular.get(d, 0) + lattice.is_unimodular
    # each order of a finite-order action of rank <= 3 drew unimodular T
    assert shared > 1000 and set(unimodular) == {2, 3, 4, 6} and min(unimodular.values()) >= 10, unimodular


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


@pytest.mark.parametrize("fam", [HnSemidirectZ(2, 0, 1), HnSemidirectZ(2, 2, -3), HnSemidirectZ(4, 0, 1)], ids=repr)
def test_m_r_with_even_n_and_only_l_odd(fam):
    # the quotient block (r+1, r/2; -2, -1) of the even-n, odd-l branch
    for r in (2, 4, 10):
        spec = witness(fam, "M_r", r)
        assert fam.layer_matrices(spec)[1] == IntMatrix.from_rows([[r + 1, r // 2], [-2, -1]])
        assert verify_automorphism(spec) and reference_verify(spec)
        assert rnumber(spec) == RNumber(4 * r)
        labeling = label_classes(spec, 2)
        assert labeling.complete and labeling.class_count == 4 * r


@pytest.mark.parametrize("param", [True, 2.5, 2.0, "3"])
@pytest.mark.parametrize(
    "fam, name",
    [(ZnSemidirectZ(tahara_form_order3(1)), "phi_alpha"), (Z2MinusIExt(FIB, (2, -1)), "phi_eight"),
     (FreeAbelian(2), "negation")],
)
def test_witness_refuses_a_parameter_that_is_not_an_int(fam, name, param, monkeypatch):
    # True once counted as 1 and 2.0 as 2, "3" raised a bare TypeError and
    # 2.5 failed in the builder; each is refused before any builder runs
    def refuse(*args):
        raise AssertionError("the builder ran")

    monkeypatch.setitem(_WITNESS_BUILDERS, (type(fam), name), refuse)
    before = groups._verify_value.cache_info()
    with pytest.raises(ValueError, match="^the witness parameter must be an integer, got %r$" % (param,)):
        witness(fam, name, param)
    assert groups._verify_value.cache_info() == before


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


# the JSON bytes of one family of each tag and of THREE_STEP: a key renamed
# or reordered changes them, where a round trip would not notice
JSON_BYTES = [
    (FreeAbelian(3), '{"tag": "free-abelian", "n": 3}'),
    (Heisenberg(2), '{"tag": "heisenberg", "n": 2}'),
    (HeisenbergTimesZ(1), '{"tag": "heisenberg-times-z", "n": 1}'),
    (ZnSemidirectZ(tahara_form_order3(1)), '{"tag": "zn-semidirect-z", "matrix": [[1, 0, 1], [0, 0, -1], [0, 1, -1]]}'),
    (Z2MinusIExt(FIB, (1, -2)), '{"tag": "z2-minusi-ext", "matrix": [[2, 3], [3, 5]], "n0": [1, -2]}'),
    (HnSemidirectZ(2, 1, 3), '{"tag": "hn-semidirect-z", "n": 2, "k": 1, "l": 3}'),
    (THREE_STEP, '{"tag": "zn-semidirect-z", "matrix": [[1, 1, 0], [0, 1, 1], [0, 0, 1]]}'),
]


def test_family_json_bytes_are_pinned():
    assert {fam.json_tag for fam, _ in JSON_BYTES} == set(FAMILIES)
    for fam, text in JSON_BYTES:
        assert json.dumps(fam.to_json_dict()) == text
        assert family_from_json(json.loads(text)) == fam


@pytest.mark.parametrize("key", ["imagez", "verified"])
def test_spec_json_refuses_a_top_level_key_it_lacks(key):
    # a dropped "verified" or misspelt key would decode as the plain spec
    data = witness(FreeAbelian(2), "negation", 1).to_json_dict()
    with pytest.raises(ValueError, match="^automorphism JSON has no key %r$" % key):
        AutomorphismSpec.from_json_dict({**data, key: True})


@pytest.mark.parametrize(
    "make",
    [lambda: ZnSemidirectZ([[1]]), lambda: Z2MinusIExt([[2, 1], [1, 1]], (0, 0))],
    ids=["zn-semidirect-z", "z2-minusi-ext"],
)
def test_an_action_that_is_not_an_int_matrix_is_refused_naming_the_field(make):
    with pytest.raises(ValueError, match=r"^field 'action' must be an IntMatrix, got \[\["):
        make()


def test_family_json_refuses_a_key_the_family_lacks():
    # a key of another family must not be dropped: a "matrix" on the -I
    # family hn-semidirect-z would answer for the -I group
    for fam, _ in JSON_BYTES:
        data = fam.to_json_dict()
        for key in ("n", "k", "l", "matrix", "n0", "action", ""):
            if key not in data:
                with pytest.raises(ValueError, match="^family %r has no field %r$" % (fam.json_tag, key)):
                    family_from_json({**data, key: 1})


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


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize(
    "build, message",
    [
        (FreeAbelian, "rank must be >= 1"),
        (Heisenberg, "Heisenberg parameter must be >= 1"),
        (HeisenbergTimesZ, "Heisenberg parameter must be >= 1"),
        (lambda n: HnSemidirectZ(n, 0, 0), "Heisenberg parameter must be >= 1"),
    ],
    ids=["free-abelian", "heisenberg", "heisenberg-times-z", "hn-semidirect-z"],
)
def test_families_refuse_a_parameter_below_one(build, message, n):
    # Heisenberg(0) would be Z^3 under a Heisenberg law, and count R = 2
    with pytest.raises(ValueError, match="^%s$" % message):
        build(n)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ZnSemidirectZ(parse_matrix("2,0;0,1")), "the acting matrix must be unimodular"),
        (lambda: Z2MinusIExt(parse_matrix("2,0;0,1"), (0, 0)), "the outer action must be unimodular"),
    ],
    ids=["zn-semidirect-z", "z2-minusi-ext"],
)
def test_matrix_families_refuse_an_action_that_is_not_unimodular(build, message):
    with pytest.raises(HypothesisError, match="^%s$" % message):
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
