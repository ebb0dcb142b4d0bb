from itertools import product
import time

from hypothesis import given, settings, strategies as st
import pytest

from reidemeister.exactlin import IntMatrix, lifting_solver, parse_matrix, system2_orbit, unit_root_split
from reidemeister import spectra
from reidemeister.groups import (
    AutomorphismSpec,
    UnknownWitnessError,
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
from reidemeister.spectra import (
    HypothesisError,
    RULES,
    SpectrumDescriptor,
    TABLE_ROWS,
    THREE_STEP,
    classify_hn_semidirect,
    classify_nilpotent,
    classify_z2_minusI_ext,
    classify_z2_semidirect,
    classify_z3_semidirect,
    conclusion_tables,
    decide_system2,
    decide_z3_eight,
    tahara_delta,
    _z3_lifting_test,
)
from reidemeister.twisted import RNumber
from canonical_reference import (
    ExtensionPresentation,
    Substitution,
    apply_substitution,
    canonicalize_z2_by_z2,
    reference_double_ext_finite_order,
    reference_hn_mixed,
    _find_torsion_direction,
)
from conftest import random_det_one, random_unimodular, unimodular_matrices
from power_reference import reference_power
from snf_reference import smith_normal_form, tahara_index
from system2_reference import _system2_solutions
from test_answer_digest import _result_json, answers, ladders

I2 = IntMatrix.identity(2)
I3 = IntMatrix.identity(3)
FIB = parse_matrix("2,3;3,5")
NIET = parse_matrix("5,2;2,1")
ROT4 = parse_matrix("0,-1;1,0")

R_INF = SpectrumDescriptor.r_infinity()
FOUR = SpectrumDescriptor.finite([4])
EIGHT = SpectrumDescriptor.finite([8])


# ---------------------------------------------------------------------------
# decide_system2


def test_system2_known_witness():
    decision = decide_system2(FIB, 100)
    assert decision.outcome == "witness"
    assert (decision.witness.m, decision.witness.n, decision.witness.p) == (0, -1, 1)
    assert decision.witness.matrix == ROT4


def test_system2_second_example_has_witness():
    decision = decide_system2(NIET, 100)
    assert decision.outcome == "witness"


def test_system2_complex_is_proven_empty():
    assert decide_system2(ROT4, 100).outcome == "proven-empty"


def test_system2_rejects_bad_hypotheses():
    with pytest.raises(HypothesisError):
        decide_system2(parse_matrix("1,1;1,0"), 10)  # det -1
    with pytest.raises(HypothesisError):
        decide_system2(parse_matrix("1,1;0,1"), 10)  # eigenvalue 1


def test_system2_witness_invariants():
    for a in (FIB, NIET, parse_matrix("1,1;1,2"), parse_matrix("3,2;4,3")):
        decision = decide_system2(a, 50)
        if decision.outcome != "witness":
            continue
        m = decision.witness.matrix
        assert m.det() == 1 and m.trace() == 0
        assert m * m == -I2
        assert m * a == a.inverse_unimodular() * m


def test_system2_matches_brute_force(rng):
    bound = 30
    tested = 0
    while tested < 100:
        a = random_det_one(rng, 2, 6)
        if a.trace() in (2, -2):
            continue
        tested += 1
        decision = decide_system2(a, bound)
        aa, bb, cc, dd = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
        brute = None
        for m in range(-bound, bound + 1):
            if brute:
                break
            for n in range(-bound, bound + 1):
                if brute:
                    break
                for p in range(-bound, bound + 1):
                    if -m * m - n * p == 1 and (aa - dd) * m + bb * p + cc * n == 0:
                        brute = (m, n, p)
                        break
        if brute is not None:
            assert decision.outcome == "witness"
        else:
            assert decision.outcome in ("none-up-to-bound", "proven-empty")


# ---------------------------------------------------------------------------
# classify_z2_semidirect


def test_z2_table_rows():
    assert classify_z2_semidirect(-I2, 50).spectrum == SpectrumDescriptor.multiples(2)
    assert classify_z2_semidirect(I2, 50).spectrum == SpectrumDescriptor.full()
    assert classify_z2_semidirect(parse_matrix("-1,3;0,-1"), 50).spectrum == R_INF
    assert classify_z2_semidirect(parse_matrix("1,2;0,-1"), 50).spectrum == R_INF
    assert classify_z2_semidirect(parse_matrix("1,1;-1,0"), 50).spectrum == R_INF  # order 6
    assert classify_z2_semidirect(parse_matrix("1,1;1,0"), 50).spectrum == R_INF  # det -1
    assert classify_z2_semidirect(FIB, 50).spectrum == FOUR
    unipotent = parse_matrix("1,3;0,1")
    res = classify_z2_semidirect(unipotent, 50)
    assert res.spectrum == SpectrumDescriptor.multiples(2)
    assert res.evidence["heisenberg_parameter"] == 3


_Z2_SAMPLES = [FIB, NIET, -I2, I2, ROT4, parse_matrix("1,2;0,-1"), parse_matrix("1,3;0,1")]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(a=st.sampled_from(_Z2_SAMPLES), p=unimodular_matrices(2))
def test_z2_classifier_conjugation_invariant(a, p):
    conj = p * a * p.inverse_unimodular()
    assert classify_z2_semidirect(conj, 50).spectrum == classify_z2_semidirect(a, 50).spectrum


# ---------------------------------------------------------------------------
# tahara delta


def test_tahara_delta_canonical_forms():
    assert tahara_delta(tahara_form_order2(0)) == 0
    assert tahara_delta(tahara_form_order2(1)) == 1
    assert tahara_delta(tahara_form_order3(0)) == 0
    assert tahara_delta(tahara_form_order3(1)) == 1


_TAHARA_FORMS = [tahara_form_order2(0), tahara_form_order2(1), tahara_form_order3(0), tahara_form_order3(1)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(form=st.sampled_from(_TAHARA_FORMS), p=unimodular_matrices(3, 6), q=unimodular_matrices(3, 24))
def test_tahara_delta_conjugation_invariant(form, p, q):
    assert tahara_delta(p * form * p.inverse_unimodular()) == tahara_delta(form)
    assert tahara_delta(q * form * q.inverse_unimodular()) == tahara_delta(form)


def test_tahara_delta_agrees_with_the_eigenlattice_index():
    # every order-2 or order-3 matrix in [-1,1]^9 with a simple eigenvalue 1:
    # delta is 0 exactly when the eigenlattices span Z^3
    box = [IntMatrix(3, 3, entries) for entries in product((-1, 0, 1), repeat=9)]
    forms = [a for a in box if a.det() == 1 and a != I3 and (a * a == I3 or a * a * a == I3)]
    assert len(forms) == 389
    assert all(unit_root_split(a)[0] == 1 for a in forms)
    for a in forms:
        assert tahara_delta(a) == (0 if tahara_index(a) == 1 else 1), a


def test_tahara_forms_not_conjugate_small_window():
    # brute-force check over unimodular conjugators with entries in [-1, 1]:
    # nothing maps the split form to the non-split one
    d0, d1 = tahara_form_order2(0), tahara_form_order2(1)
    import itertools

    for entries in itertools.product((-1, 0, 1), repeat=9):
        p = IntMatrix(3, 3, entries)
        if p.det() in (1, -1):
            if p * d0 == d1 * p:
                raise AssertionError("forms conjugated by %s" % (p,))


def test_tahara_delta_hypothesis_errors():
    with pytest.raises(HypothesisError):
        tahara_delta(I3)  # eigenvalue 1 not simple
    with pytest.raises(HypothesisError):
        tahara_delta(parse_matrix("1,0,0;0,5,2;0,2,1"))  # infinite order block


# ---------------------------------------------------------------------------
# decide_z3_eight


def test_z3_eight_parity_obstruction():
    decision = decide_z3_eight(NIET, (0, 1))
    assert decision.outcome == "r-infinity"
    assert decision.obstruction_modulus == 8


def test_z3_eight_zero_row_always_integral():
    decision = decide_z3_eight(NIET, (0, 0))
    assert decision.outcome == "eight"


def test_z3_eight_rejects_det_minus_one():
    with pytest.raises(HypothesisError):
        decide_z3_eight(parse_matrix("1,1;1,0"), (0, 1))


def test_z3_eight_witness_builds_a_real_automorphism():
    # turn a positive decision into a genuine automorphism of the rank-3
    # group and confirm its count by the formula route
    from dataclasses import replace
    from reidemeister.groups import AutomorphismSpec, verify_automorphism

    a_prime = parse_matrix("1,1;1,2")
    c_row = (1, 2)
    decision = decide_z3_eight(a_prime, c_row)
    assert decision.outcome == "eight"
    q = decision.witness.matrix
    n_row = tuple(-v for v in decision.n_row)
    a_full = parse_matrix("1,%d,%d;0,1,1;0,1,2" % c_row)
    fam = ZnSemidirectZ(a_full)
    spec = AutomorphismSpec.from_images(
        fam,
        {
            "e1": (-1, 0, 0, 0),
            "e2": (n_row[0], q[0, 0], q[1, 0], 0),
            "e3": (n_row[1], q[0, 1], q[1, 1], 0),
            "t": (0, 0, 0, -1),
        },
    )
    assert verify_automorphism(spec).ok
    assert rnumber(replace(spec, verified=True)) == RNumber(8)
    assert classify_z3_semidirect(a_full, 50).spectrum == EIGHT


# ---------------------------------------------------------------------------
# classify_z3_semidirect


def test_z3_table_rows():
    assert classify_z3_semidirect(-I3, 50).spectrum == SpectrumDescriptor.multiples(2)
    assert classify_z3_semidirect(I3, 50).spectrum == SpectrumDescriptor.full()
    no_one = parse_matrix("-1,0,0;0,2,3;0,3,5")
    assert classify_z3_semidirect(no_one, 50).spectrum == R_INF
    two_step = parse_matrix("1,1,0;0,1,0;0,0,1")
    assert classify_z3_semidirect(two_step, 50).spectrum == SpectrumDescriptor.multiples(4)
    three_step = parse_matrix("1,1,0;0,1,1;0,0,1")
    assert classify_z3_semidirect(three_step, 50).spectrum == R_INF
    mult_two = parse_matrix("1,1,0;0,1,1;0,0,-1")
    assert classify_z3_semidirect(mult_two, 50).spectrum == R_INF
    minus_unip = parse_matrix("1,0,0;0,-1,1;0,0,-1")
    assert classify_z3_semidirect(minus_unip, 50).spectrum == R_INF
    assert classify_z3_semidirect(tahara_form_order2(0), 50).spectrum == SpectrumDescriptor.multiples(2)
    assert classify_z3_semidirect(tahara_form_order2(1), 50).spectrum == SpectrumDescriptor.multiples(4)
    assert classify_z3_semidirect(tahara_form_order3(0), 50).spectrum == SpectrumDescriptor.multiples(6)
    assert classify_z3_semidirect(tahara_form_order3(1), 50).spectrum == SpectrumDescriptor.multiples(6)
    order4 = parse_matrix("1,0,0;0,0,-1;0,1,0")
    assert classify_z3_semidirect(order4, 50).spectrum == R_INF
    hyper_det_minus = parse_matrix("1,0,0;0,1,1;0,1,0")
    assert classify_z3_semidirect(hyper_det_minus, 50).spectrum == R_INF
    split_eight = parse_matrix("1,0,0;0,5,2;0,2,1")
    assert classify_z3_semidirect(split_eight, 50).spectrum == EIGHT


def test_z3_contrast_with_block_classification():
    blocked = parse_matrix("1,0,1;0,5,2;0,2,1")
    res = classify_z3_semidirect(blocked, 100)
    assert res.spectrum == R_INF
    assert "z3:parity-obstruction" in res.trace
    assert classify_z2_semidirect(NIET, 100).spectrum == FOUR


_Z3_SAMPLES = [
    tahara_form_order2(1),
    tahara_form_order3(0),
    parse_matrix("1,0,1;0,5,2;0,2,1"),
    parse_matrix("1,1,0;0,1,0;0,0,1"),
    -I3,
]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(a=st.sampled_from(_Z3_SAMPLES), p=unimodular_matrices(3))
def test_z3_classifier_conjugation_invariant(a, p):
    conj = p * a * p.inverse_unimodular()
    assert classify_z3_semidirect(conj, 50).spectrum == classify_z3_semidirect(a, 50).spectrum


def test_a_block_form_keeps_its_coupling_row_and_witness():
    # (1, C; 0, A') is already in block form: the basis change leaves it,
    # and the answer is the block decision for (A', C) itself
    hyperbolic = [IntMatrix(2, 2, e) for e in product(range(-4, 5), repeat=4) if e[0] * e[3] - e[1] * e[2] == 1]
    hyperbolic = [a for a in hyperbolic if abs(a.trace()) > 2]
    outcomes = {"eight": 0, "r-infinity": 0, "proven-empty": 0}
    for a_prime in hyperbolic:
        for c_row in product(range(-2, 3), repeat=2):
            block = IntMatrix(3, 3, (1, *c_row, 0, *a_prime.row(0), 0, *a_prime.row(1)))
            assert spectra._simple_one_block(block) == (a_prime, c_row)
            res, decision = classify_z3_semidirect(block, 1), decide_z3_eight(a_prime, c_row)
            outcomes[decision.outcome] += 1
            if decision.outcome == "eight":
                assert res.evidence == {"witness": decision.witness.to_json_dict(), "coupling_row": list(c_row)}
            elif decision.outcome == "r-infinity":
                assert res.trace[-1] == "z3:parity-obstruction"
                assert res.evidence == {"obstruction_modulus": decision.obstruction_modulus}
            else:
                assert res.trace[-1] == "system2:proven-empty"
    assert sum(outcomes.values()) == 72 * 25 and all(outcomes.values())


# ---------------------------------------------------------------------------
# canonicalization of Z^2-by-Z^2 data (the reference route in canonical_reference)


def assert_canonical_situation(pres: ExtensionPresentation):
    from reidemeister.exactlin import finite_order

    if pres.action_y == I2:
        return
    assert pres.action_y == -I2
    order = finite_order(pres.action_x)
    assert order is None or (order == 2 and pres.action_x not in (I2, -I2))


def replay(original: ExtensionPresentation, result: ExtensionPresentation):
    state = original
    for sub in result.change_log:
        state = apply_substitution(state, sub)
    assert state.action_x == result.action_x
    assert state.action_y == result.action_y
    assert state.n0 == result.n0


def test_canonicalize_minus_minus():
    pres = ExtensionPresentation(-I2, -I2, (1, 2))
    out = canonicalize_z2_by_z2(pres)
    assert out.action_y == I2
    assert [s.label for s in out.change_log] == ["y -> x y"]
    replay(pres, out)


def test_canonicalize_order_four_pair():
    a = ROT4
    b = -(a ** 3)
    pres = ExtensionPresentation(a, b, (0, 1))
    out = canonicalize_z2_by_z2(pres)
    assert_canonical_situation(out)
    assert out.action_y == I2  # order-4 pairs always land in the trivial situation
    replay(pres, out)


def test_canonicalize_already_trivial():
    pres = ExtensionPresentation(FIB, I2, (3, -2))
    out = canonicalize_z2_by_z2(pres)
    assert out == pres and out.change_log == ()


def test_canonicalize_infinite_order_keeps_minus():
    pres = ExtensionPresentation(FIB, -I2, (1, 0))
    out = canonicalize_z2_by_z2(pres)
    assert out.action_y == -I2 and out.action_x == FIB
    assert out.change_log == ()


def test_canonicalize_order_two_situation():
    a = parse_matrix("1,2;0,-1")
    pres = ExtensionPresentation(a, -I2, (1, 1))
    out = canonicalize_z2_by_z2(pres)
    assert out.action_y == -I2 and out.action_x == a
    assert_canonical_situation(out)


def test_canonicalize_two_infinite_orders():
    a = parse_matrix("1,1;0,1")
    b = parse_matrix("1,3;0,1")
    pres = ExtensionPresentation(a, b, (0, 1))
    out = canonicalize_z2_by_z2(pres)
    assert_canonical_situation(out)
    replay(pres, out)


def test_canonicalize_order3_ladder():
    a = parse_matrix("0,-1;1,-1")  # order 3
    pres = ExtensionPresentation(a, -I2, (1, 0))
    out = canonicalize_z2_by_z2(pres)
    assert out.action_y == I2
    replay(pres, out)


def test_canonicalize_rejects_noncommuting():
    with pytest.raises(ValueError):
        ExtensionPresentation(FIB, ROT4, (0, 0))


def test_substitution_formulas_match_hand_derivation():
    # y -> x^k y multiplies the y-action by the k-th power of the x-action
    # and applies that power to the commutator twist
    pres = ExtensionPresentation(FIB, -I2, (1, 2))
    sub = Substitution(parse_matrix("1,0;2,1"), "y -> x^2 y")
    out = apply_substitution(pres, sub)
    assert out.action_x == FIB
    assert out.action_y == (FIB ** 2) * -I2
    assert out.n0 == tuple((FIB ** 2).apply((1, 2)))
    # x -> x y leaves the commutator alone
    sub2 = Substitution(parse_matrix("1,1;0,1"), "x -> x y")
    out2 = apply_substitution(pres, sub2)
    assert out2.action_x == FIB * -I2
    assert out2.n0 == (1, 2)


def test_substitution_requires_unimodular():
    with pytest.raises(ValueError):
        Substitution(parse_matrix("2,0;0,1"), "bad")


def test_extension_arithmetic_group_axioms(rng):
    # the reference's law for any commuting pair, applied with each presentation's pair
    presentations = [
        ExtensionPresentation(FIB, FIB ** 2, (1, -2)),
        ExtensionPresentation(parse_matrix("1,1;0,1"), parse_matrix("1,3;0,1"), (0, 1)),
        ExtensionPresentation(parse_matrix("0,-1;1,-1"), -I2, (2, 1)),
        ExtensionPresentation(NIET, -NIET, (1, 1)),
        ExtensionPresentation(ROT4, -I2, (1, -1)),
        ExtensionPresentation(parse_matrix("-1,-1;1,0"), -I2, (0, 1)),
        ExtensionPresentation(I2, -I2, (1, 0)),
    ]
    ident = (0, 0, 0, 0)
    for pres in presentations:
        mul, inv = pres.multiply, pres.inverse
        for _ in range(60):
            g, h, k = (
                tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(3)
            )
            assert mul(mul(g, h), k) == mul(g, mul(h, k))
            assert mul(g, inv(g)) == ident
            assert mul(inv(g), g) == ident
        # the defining conjugations hold for the plain generators
        t, u = (0, 0, 1, 0), (0, 0, 0, 1)
        z1 = (1, 0, 0, 0)
        assert mul(mul(u, z1), inv(u)) == tuple(pres.action_x.column(0)) + (0, 0)
        assert mul(mul(t, z1), inv(t)) == tuple(pres.action_y.column(0)) + (0, 0)
        assert mul(mul(u, t), mul(inv(u), inv(t))) == (pres.n0[0], pres.n0[1], 0, 0)


def test_plain_word_is_one_product_in_normal_form():
    # u^x t^y by repeated multiplication equals (0,0,0,x) * (0,0,y,0)
    for pres in (
        ExtensionPresentation(FIB, FIB ** 2, (1, -2)),
        ExtensionPresentation(ROT4, -I2, (1, -1)),
        ExtensionPresentation(parse_matrix("1,0;4,1"), -parse_matrix("1,0;31,1"), (2, 3)),
    ):
        u, t = (0, 0, 0, 1), (0, 0, 1, 0)
        for x, y in product(range(-4, 5), repeat=2):
            word = (0, 0, 0, 0)
            for step, count in ((u, x), (t, y)):
                step = step if count >= 0 else pres.inverse(step)
                for _ in range(abs(count)):
                    word = pres.multiply(word, step)
            assert word == pres.multiply((0, 0, 0, x), (0, 0, y, 0))


def test_power_cache_stays_within_its_bound():
    from reidemeister.exactlin import POWER_CACHE_SIZE, _walk

    # a hyperbolic action walks every exponent it meets; its entries grow
    # like Fibonacci numbers, the slowest growth of any hyperbolic action
    a = parse_matrix("1,1;1,0")
    fam = ZnSemidirectZ(a)
    v = (1, 2)
    _walk.cache_clear()
    for k in range(POWER_CACHE_SIZE + 500):
        # t^k (1, 2) = A^k (1, 2) t^k, one new cache key per k
        assert fam.multiply((0, 0, k), (1, 2, 0)) == v + (k,)
        assert _walk.cache_info().currsize <= POWER_CACHE_SIZE
        v = a.apply(v)
    assert _walk.cache_info().currsize == POWER_CACHE_SIZE
    _walk.cache_clear()


FINITE_ORDER_ACTIONS = (
    -I2,
    ROT4,
    parse_matrix("0,-1;1,-1"),  # order 3
    parse_matrix("0,-1;1,1"),  # order 6
    tahara_form_order2(0),
    tahara_form_order2(1),
    tahara_form_order3(0),
    tahara_form_order3(1),
)


def test_power_cache_matches_matrix_powers_and_sums(rng):
    from reidemeister.exactlin import _power_and_sum, _power_sum

    small = (-9, -2, -1, 0, 1, 2, 7, 40)
    cases = [(a, small) for a in (FIB, random_unimodular(rng, 3, 2), random_unimodular(rng, 3, 2))]
    # a finite-order action reduces the exponent: compare with the unreduced walk
    huge = tuple(s * (10 ** 13 + j) for s in (1, -1) for j in range(-20, 21))
    cases += [(a, tuple(range(-30, 31)) + huge) for a in FINITE_ORDER_ACTIONS]
    for a, exponents in cases:
        ident = IntMatrix.identity(a.rows)
        for k in exponents:
            power, total = _power_sum(a.entries, k)
            assert (power, total) == _power_and_sum(a.entries, k), (a, k)
            assert power == reference_power(a, k).entries
            # the defining identity of the geometric sum
            assert (a - ident) * IntMatrix(a.rows, a.rows, total) == a ** k - ident


def test_finite_order_actions_keep_order_plus_one_walks():
    from reidemeister.exactlin import _power_sum, _walk, finite_order

    exponents = list(range(-2000, 2001)) + [s * (10 ** 13 + j) for s in (1, -1) for j in range(-1000, 1001)]
    for a in FINITE_ORDER_ACTIONS:
        _walk.cache_clear()
        for k in exponents:
            _power_sum(a.entries, k)
        assert _walk.cache_info().currsize <= finite_order(a) + 1, a
    _walk.cache_clear()


def test_torsion_direction_beyond_small_exponents():
    # A = I + 4N, B = -(I + 31N): A^i B^j = +-I exactly when 4i + 31j = 0
    a = parse_matrix("1,0;4,1")
    b = -parse_matrix("1,0;31,1")
    assert _find_torsion_direction(a, b) == (-31, 4)
    # hyperbolic: A = FIB^2, B = -FIB^-3 gives 2i - 3j = 0
    assert _find_torsion_direction(FIB ** 2, -(FIB ** -3)) == (-3, -2)


def test_hn_inputs_needing_large_torsion_directions():
    # the canonical route of these mixed-eigenvalue actions goes through a
    # commuting pair whose torsion direction lies far from the origin
    for a, twist_list in (
        (parse_matrix("-2,3;-1,2"), ((-2, -1), (-2, 1), (-1, -2), (-1, 0))),
        (parse_matrix("2,-1;3,-2"), ((-2, -1), (-1, -2), (0, -1), (1, -2))),
    ):
        for twists in twist_list:
            res = classify_hn_semidirect(4, a, 300, twists)
            assert res.spectrum == R_INF
            assert res.trace[-1] == "z3:minus-one-unipotent-block"


# ---------------------------------------------------------------------------
# classify_z2_minusI_ext


def test_double_ext_always_eight_for_fib():
    for n0 in ((0, 0), (1, 0), (-3, 2), (5, 5)):
        res = classify_z2_minusI_ext(FIB, n0, 50)
        assert res.spectrum == EIGHT


def test_double_ext_parity_flip():
    assert classify_z2_minusI_ext(NIET, (1, 0), 50).spectrum == R_INF
    assert classify_z2_minusI_ext(NIET, (1, 1), 50).spectrum == EIGHT
    res = classify_z2_minusI_ext(NIET, (3, 0), 50)
    assert res.spectrum == R_INF and "ext:parity-obstruction" in res.trace


def test_double_ext_other_branches():
    order2 = parse_matrix("1,2;0,-1")
    assert classify_z2_minusI_ext(order2, (0, 0), 50).spectrum == R_INF
    repeated = parse_matrix("1,1;0,1")
    assert classify_z2_minusI_ext(repeated, (1, 0), 50).spectrum == R_INF
    repeated_minus = parse_matrix("-1,1;0,-1")
    assert classify_z2_minusI_ext(repeated_minus, (1, 0), 50).spectrum == R_INF
    det_minus = parse_matrix("1,1;1,0")
    assert classify_z2_minusI_ext(det_minus, (1, 0), 50).spectrum == R_INF
    # +-I and finite order 3, 4, 6 reduce to Z^3 x| Z
    assert classify_z2_minusI_ext(I2, (0, 0), 50).spectrum == SpectrumDescriptor.multiples(2)
    assert classify_z2_minusI_ext(-I2, (1, 0), 50).spectrum == SpectrumDescriptor.multiples(4)
    rot = classify_z2_minusI_ext(ROT4, (0, 0), 50)
    assert rot.spectrum == R_INF and rot.trace[-1] == "z3:block-order-four-or-six"


_ORDER_THREE = parse_matrix("0,-1;1,-1")
_ORDER_SIX = parse_matrix("1,-1;1,0")


@pytest.mark.parametrize("n0", [(0, 0), (1, 0), (0, 1), (1, 1), (2, -1)])
def test_finite_order_double_ext_agrees_with_phi_eight(n0):
    for a in (ROT4, _ORDER_THREE, _ORDER_SIX, -ROT4, -_ORDER_THREE):
        res = classify_z2_minusI_ext(a, n0, 50)
        assert res.spectrum == R_INF
        assert res.trace[:3] == ("ext:finite-order-action", "ext:canonicalized", "ext:trivial-inner-action")
        assert res.trace[-1] == "z3:block-order-four-or-six"
        with pytest.raises(UnknownWitnessError, match="z3:block-order-four-or-six"):
            witness(Z2MinusIExt(a, n0), "phi_eight", 1)
    for a in (I2, -I2):
        res = classify_z2_minusI_ext(a, n0, 50)
        assert res.spectrum in (SpectrumDescriptor.multiples(2), SpectrumDescriptor.multiples(4))
        assert res.trace[-1] == ("tahara:delta-zero", "tahara:delta-one")[res.evidence["delta"]]
        spec = witness(Z2MinusIExt(a, n0), "phi_eight", 1)
        value = rnumber(spec).value
        assert value == 8 and value % res.spectrum.c == 0
        # the block is the least lifting solution in the spectrum's order
        m, n, p = _first_lifting(a, lifting_solver(a, n0), 1)[0]
        assert (spec.image_of("e1")[:2], spec.image_of("e2")[:2]) == ((m, p), (n, -m))


# every hyperbolic det-1 matrix with entries of absolute value <= 8
_HYPERBOLIC_8 = [
    IntMatrix.from_rows([[a, b], [c, d]])
    for a, b, c, d in product(range(-8, 9), repeat=4)
    if a * d - b * c == 1 and abs(a + d) > 2
]
_SMALL_VECTOR = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


def _solves_system2(a: IntMatrix, m: int, n: int, p: int) -> bool:
    return -m * m - n * p == 1 and (a[0, 0] - a[1, 1]) * m + a[0, 1] * p + a[1, 0] * n == 0


def _span2_obstructs(a: IntMatrix, n0) -> bool:
    """The mod-2 criterion: no residue class mod 8 of the quadratic system
    has (I + A M) n0 in the mod-2 span of the columns of I - A."""
    cols = [tuple(v % 2 for v in (I2 - a).column(j)) for j in range(2)]
    span2 = {
        ((x * cols[0][0] + y * cols[1][0]) % 2, (x * cols[0][1] + y * cols[1][1]) % 2)
        for x, y in product(range(2), repeat=2)
    }
    for m, n, p in product(range(8), repeat=3):
        if (-m * m - n * p - 1) % 8 or ((a[0, 0] - a[1, 1]) * m + a[0, 1] * p + a[1, 0] * n) % 8:
            continue
        target = (I2 + a * IntMatrix.from_rows([[m, n], [p, -m]])).apply(n0)
        if tuple(v % 2 for v in target) in span2:
            return False
    return True


def _first_lifting(a: IntMatrix, lifts, bound: int = 300):
    """The first solution with |m| <= bound that lifts, in the order of the
    bounded search, or None; and whether the search met any solution."""
    solutions = list(_system2_solutions(a, bound))
    first = next((s for s in solutions if lifts(IntMatrix(2, 2, (*s, -s[0]))) is not None), None)
    return first, bool(solutions)


def _assert_agrees_with_the_search(a, lifts, outcome, witness):
    # the exact decision against the bounded search: an eight answer is the
    # search's first lifting solution once its |m| is within the bound; a
    # proof of {oo} leaves the search nothing that lifts, and a proof of
    # emptiness nothing at all
    first, any_solution = _first_lifting(a, lifts)
    if outcome == "eight":
        assert first == witness or (first is None and abs(witness[0]) > 300)
    else:
        assert first is None
        assert outcome == "r-infinity" or not any_solution


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(a=st.sampled_from(_HYPERBOLIC_8), n0=_SMALL_VECTOR, c_row=_SMALL_VECTOR)
def test_eight_class_decisions_property(a, n0, c_row):
    res = classify_z2_minusI_ext(a, n0, 100)
    outcome, witness = "r-infinity", None
    if res.spectrum == EIGHT:
        w, m0, z0 = res.evidence["witness"], res.evidence["m0"], res.evidence["z0"]
        assert _solves_system2(a, w["m"], w["n"], w["p"])
        lhs = (I2 + a * IntMatrix.from_rows(w["matrix"])).apply(n0)
        rhs = [u + v for u, v in zip((a + a).apply(m0), (I2 - a).apply(z0))]
        assert list(lhs) == rhs
        outcome, witness = "eight", (w["m"], w["n"], w["p"])
    else:
        assert res.spectrum == R_INF
        assert res.trace[-1] in ("ext:parity-obstruction", "system2:proven-empty")
        outcome = "r-infinity" if res.trace[-1] == "ext:parity-obstruction" else "proven-empty"
    assert (res.trace[-1] == "system2:proven-empty") == (system2_orbit(a) is None)
    if _span2_obstructs(a, n0):
        assert outcome != "eight"
    _assert_agrees_with_the_search(a, lifting_solver(a, n0), outcome, witness)

    decision = decide_z3_eight(a, c_row)
    witness = None
    if decision.outcome == "eight":
        w = decision.witness
        assert _solves_system2(a, w.m, w.n, w.p)
        # n_row = C (I - Q A') (I - A')^-1, checked without dividing
        assert IntMatrix.from_rows([decision.n_row]) * (I2 - a) == IntMatrix.from_rows([c_row]) * (
            I2 - w.matrix * a
        )
        witness = (w.m, w.n, w.p)
    assert (decision.obstruction_modulus is not None) == (decision.outcome == "r-infinity")
    _assert_agrees_with_the_search(a, _z3_lifting_test(a, c_row)[0], decision.outcome, witness)


_SMALL_MATRIX = st.tuples(*[st.integers(-50, 50)] * 4).map(lambda v: IntMatrix(2, 2, v))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=st.sampled_from(_HYPERBOLIC_8), vec=_SMALL_VECTOR, q=_SMALL_MATRIX, e=_SMALL_MATRIX)
def test_lifting_tests_depend_only_on_the_residue(a, vec, q, e):
    # so a parity obstruction names a modulus its lifting test reads: the
    # double extension reads Q mod 2, which divides its reported 8
    for lifts, modulus in (_z3_lifting_test(a, vec), (lifting_solver(a, vec), 2)):
        assert (lifts(q) is None) == (lifts(q + e.scale(modulus)) is None)


_SOLVABLE_8 = [a for a in _HYPERBOLIC_8 if system2_orbit(a) is not None]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=st.sampled_from(_SOLVABLE_8), vec=_SMALL_VECTOR, k=st.integers(-3, 3), sign=st.sampled_from((1, -1)))
def test_lifting_tests_are_invariant_under_right_multiplication_by_a(a, vec, k, sign):
    # the contract of the eight-class decision: Q and QA lift together, so
    # one A-period of the solution orbit decides every solution
    q0, eps = system2_orbit(a)
    q = (q0 * (eps ** k)).scale(sign)
    for lifts in (_z3_lifting_test(a, vec)[0], lifting_solver(a, vec)):
        assert (lifts(q) is None) == (lifts(q * a) is None) == (lifts(q * a.inverse_unimodular()) is None)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=st.one_of(st.sampled_from(_HYPERBOLIC_8), unimodular_matrices(2)), n0=_SMALL_VECTOR, p=unimodular_matrices(2))
def test_double_ext_spectrum_is_invariant_under_a_change_of_basis(a, n0, p):
    # P is an isomorphism of the lattice, taking (A, n0) to (P A P^-1, P n0);
    # the rule that decides depends only on the isomorphism class as well
    res = classify_z2_minusI_ext(a, n0, 1)
    moved = classify_z2_minusI_ext(p * a * p.inverse_unimodular(), p.apply(n0), 1)
    assert (moved.spectrum, moved.trace) == (res.spectrum, res.trace), (a, n0, p)


_HYPERBOLIC_6 = [a for a in _HYPERBOLIC_8 if max(map(abs, a.entries)) <= 6]


def test_phi_eight_equals_the_spectrum_evidence_on_the_hyperbolic_box():
    # one solution order: the block and both translations of phi_eight are
    # the spectrum's witness, m0 and z0
    eights = 0
    for a in _HYPERBOLIC_6:
        for n0 in product(range(-2, 3), repeat=2):
            res = classify_z2_minusI_ext(a, n0, 1)
            if res.spectrum != EIGHT:
                continue
            spec = witness(Z2MinusIExt(a, n0), "phi_eight", 1)
            block = IntMatrix.from_columns([spec.image_of(g)[:2] for g in ("e1", "e2")])
            assert block.to_rows() == res.evidence["witness"]["matrix"], (a, n0)
            assert list(spec.image_of("u")[:2]) == res.evidence["m0"], (a, n0)
            assert list(spec.image_of("t")[:2]) == res.evidence["z0"], (a, n0)
            eights += 1
    assert (len(_HYPERBOLIC_6), eights) == (216, 1224)


def _smith_membership(a: IntMatrix):
    """The reference lifting test: whether (I + A M) n0 lies in the lattice
    spanned by the columns of [2A | I - A], read off its Smith form U G V = D
    as U (I + A M) n0 divisible by each elementary divisor."""
    gens = IntMatrix(2, 4, (a + a).row(0) + (I2 - a).row(0) + (a + a).row(1) + (I2 - a).row(1))
    snf = smith_normal_form(gens)

    def member(n0, m: IntMatrix) -> bool:
        s = snf.U.apply((I2 + a * m).apply(n0))
        return all(x % d == 0 if d else x == 0 for x, d in zip(s, snf.elementary_divisors))

    return member


def test_lifting_solver_agrees_with_the_smith_form_membership():
    blocks = [IntMatrix(2, 2, e) for e in product(range(-1, 2), repeat=4)]
    actions = [m for m in _box(1) if m.det() in (1, -1)] + _HYPERBOLIC_8[::25]
    for a in actions:
        member = _smith_membership(a)
        for n0 in product(range(-1, 2), repeat=2):
            lifts = lifting_solver(a, n0)
            for m in blocks:
                found = lifts(m)
                assert (found is not None) == member(n0, m), (a, n0, m)
                if found is not None:
                    m0, z0 = found[:2], found[2:]
                    assert set(z0) <= {0, 1}
                    rhs = tuple(u + v for u, v in zip((a + a).apply(m0), (I2 - a).apply(z0)))
                    assert (I2 + a * m).apply(n0) == rhs, (a, n0, m)


def test_readme_obstructions_never_search():
    # the README's obstruction examples are answered without a bound
    for bound in (1, 10_000):
        ext = classify_z2_minusI_ext(NIET, (1, 0), bound)
        z3 = classify_z3_semidirect(parse_matrix("1,0,1;0,5,2;0,2,1"), bound)
        assert ext.trace[-1] == "ext:parity-obstruction" and ext.evidence == {"obstruction_modulus": 8}
        assert z3.trace[-1] == "z3:parity-obstruction" and z3.evidence == {"obstruction_modulus": 8}


def _huge_word(powers):
    # a product of T^k S, of trace at least 10^30 in absolute value
    s = IntMatrix.from_rows([[0, -1], [1, 0]])
    a = IntMatrix.identity(2)
    for i in range(400):
        if abs(a.trace()) >= 10**30:
            return a
        a = a * IntMatrix.from_rows([[1, powers[i % len(powers)]], [0, 1]]) * s
    raise AssertionError("the word never reached trace 10^30")


_Z3_CONJUGATOR = parse_matrix("1,1,0;0,1,1;1,1,1")
_BIG_STEPS = st.lists(st.integers(3, 9).flatmap(lambda k: st.sampled_from((k, -k))), min_size=1, max_size=4)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(powers=_BIG_STEPS, v=st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
def test_eight_class_decisions_at_trace_ten_to_the_thirty(powers, v):
    """The z3 block, the double extension and phi_eight decide in O(log |tr A|)."""
    a = _huge_word(powers)
    started = time.perf_counter()
    decision = decide_z3_eight(a, v)
    assert time.perf_counter() - started < 0.1
    # the same block behind a change of basis: the eigenvector of 1 and
    # its basis completion take O(log |tr A|) steps
    block = IntMatrix(3, 3, (1, *v, 0, *a.row(0), 0, *a.row(1)))
    started = time.perf_counter()
    z3 = classify_z3_semidirect(_Z3_CONJUGATOR * block * _Z3_CONJUGATOR.inverse_unimodular(), 1)
    assert time.perf_counter() - started < 0.1
    assert z3.spectrum == (EIGHT if decision.outcome == "eight" else R_INF)
    started = time.perf_counter()
    res = classify_z2_minusI_ext(a, v, 1)
    assert time.perf_counter() - started < 0.1
    if res.spectrum == EIGHT:
        started = time.perf_counter()
        witness(Z2MinusIExt(a, v), "phi_eight", 1)
        assert time.perf_counter() - started < 0.1


@pytest.mark.parametrize("a_prime, modulus", [("-3,-1;1,0", 40), ("-5,-3;-3,-2", 72)])
def test_decision_tests_each_class_of_one_period_once(monkeypatch, a_prime, modulus):
    # large moduli once left the search undecided; the orbit decides with
    # one lifting test per class of one A-period, 2j of them for eps^j = +-A
    a_prime = parse_matrix(a_prime)
    tested = []
    lifting_test = spectra._z3_lifting_test

    def recording(a, c_row):
        lifts, n = lifting_test(a, c_row)
        return (lambda q: tested.append(q) or lifts(q)), n

    monkeypatch.setattr(spectra, "_z3_lifting_test", recording)
    decision = decide_z3_eight(a_prime, (-2, -2))
    assert decision.outcome == "r-infinity" and decision.obstruction_modulus == modulus
    q0, eps = system2_orbit(a_prime)
    period = next(j for j in range(1, 10) if abs((eps ** j).trace()) >= abs(a_prime.trace()))
    assert len(tested) == len(set(tested)) == 2 * period


# ---------------------------------------------------------------------------
# classify_hn_semidirect


def test_hn_twist_table():
    assert classify_hn_semidirect(3, (1, 0), 50).spectrum == SpectrumDescriptor.multiples(4)
    assert classify_hn_semidirect(3, (4, 7), 50).spectrum == SpectrumDescriptor.multiples(4)
    assert classify_hn_semidirect(2, (0, 0), 50).spectrum == SpectrumDescriptor.multiples(4)
    assert classify_hn_semidirect(2, (2, 4), 50).spectrum == SpectrumDescriptor.multiples(4)
    assert classify_hn_semidirect(2, (1, 0), 50).spectrum == SpectrumDescriptor.multiples(8)
    assert classify_hn_semidirect(4, (1, 1), 50).spectrum == SpectrumDescriptor.multiples(8)


def test_hn_matrix_routes():
    assert classify_hn_semidirect(2, FIB, 50).spectrum == R_INF
    assert classify_hn_semidirect(2, ROT4, 50).spectrum == R_INF
    assert classify_hn_semidirect(1, -I2, 50, (1, 0)).spectrum == SpectrumDescriptor.multiples(4)
    assert classify_hn_semidirect(2, -I2, 50, (1, 0)).spectrum == SpectrumDescriptor.multiples(8)
    assert classify_hn_semidirect(2, I2, 50).spectrum == SpectrumDescriptor.multiples(4)
    unipotent = parse_matrix("1,1;0,1")
    assert classify_hn_semidirect(2, unipotent, 50).spectrum == R_INF


def test_hn_mixed_eigenvalues_routes_through_extension():
    for n, a, twists in (
        (2, parse_matrix("1,2;0,-1"), (0, 0)),
        (1, parse_matrix("1,0;0,-1"), (1, 0)),
        (3, parse_matrix("1,2;0,-1"), (2, 1)),
    ):
        res = classify_hn_semidirect(n, a, 50, twists)
        assert "ext:canonicalized" in res.trace
        assert res.spectrum.kind in ("r_infinity", "finite", "undecided")


def _box(limit: int) -> list[IntMatrix]:
    return [IntMatrix(2, 2, e) for e in product(range(-limit, limit + 1), repeat=4)]


_UNIMODULAR_6 = [m for m in _box(6) if m.det() in (1, -1)]
_MIXED_8 = [m for m in _box(8) if m.det() == -1 and m.trace() == 0]
# +-I and the actions of order 3, 4 and 6
_FINITE_ORDER_6 = [m for m in _UNIMODULAR_6 if m in (I2, -I2) or (m.det() == 1 and abs(m.trace()) < 2)]


def _same_result(res, ref) -> bool:
    return (res.spectrum, res.trace, res.evidence) == (ref.spectrum, ref.trace, ref.evidence)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 8),
    a=st.sampled_from(_UNIMODULAR_6),
    twists=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
)
def test_heisenberg_action_data_always_defines_an_automorphism(n, a, twists):
    # [psi x, psi y] = z^(n det A) = psi(z)^n, so the mixed-eigenvalue rule
    # needs no verification of its own
    images = {"x": (a[0, 0], a[1, 0], twists[0]), "y": (a[0, 1], a[1, 1], twists[1]), "z": (0, 0, a.det())}
    assert verify_automorphism(AutomorphismSpec.from_images(Heisenberg(n), images)).ok


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 12),
    a=st.sampled_from(_MIXED_8),
    twists=st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
)
def test_hn_mixed_rule_matches_the_canonical_route(n, a, twists):
    res = classify_hn_semidirect(n, a, 100, twists)
    assert _same_result(res, reference_hn_mixed(n, a, *twists, 100))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(a=st.sampled_from(_FINITE_ORDER_6), n0=st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
def test_finite_order_double_ext_matches_the_canonical_route(a, n0):
    res = classify_z2_minusI_ext(a, n0, 100)
    assert _same_result(res, reference_double_ext_finite_order(a, n0, 100))


@pytest.mark.parametrize("twists", [(1,), (1, 0, 3)], ids=["one-entry", "three-entries"])
def test_twist_pairs_need_exactly_two_entries(twists):
    message = "central twists must have exactly two entries, got %d" % len(twists)
    with pytest.raises(HypothesisError, match=message):
        classify_hn_semidirect(2, twists, 50)
    for a in (-I2, parse_matrix("1,2;0,-1"), FIB):
        with pytest.raises(HypothesisError, match=message):
            classify_hn_semidirect(2, a, 50, twists)


def test_a_twist_pair_action_takes_no_second_twists():
    # the twists once dropped silently: this is H_2 x| Z with -I and twists
    # (1, 0), whose spectrum is 8N, not the 4N of the pair (0, 0)
    with pytest.raises(HypothesisError, match="give them once"):
        classify_hn_semidirect(2, (0, 0), 100, (1, 0))
    assert classify_hn_semidirect(2, (0, 0), 100, (0, 0)).spectrum == SpectrumDescriptor.multiples(4)


@pytest.mark.parametrize(
    "call",
    [
        lambda: classify_hn_semidirect(2, (1.9, 0), 50),
        lambda: classify_hn_semidirect(2, (0, True), 50),
        lambda: classify_hn_semidirect(2.0, (1, 0), 50),
        lambda: classify_hn_semidirect(2, -I2, 50, (0.5, 0)),
        lambda: classify_hn_semidirect(2, parse_matrix("1,2;0,-1"), 50, (0, "1")),
        lambda: classify_z2_minusI_ext(FIB, (1.9, 0), 50),
        lambda: decide_z3_eight(FIB, (0.5, 1)),
        lambda: ExtensionPresentation(I2, -I2, (1.5, 0)),
    ],
    ids=["hn-k", "hn-l-bool", "hn-n", "hn-minus-identity-twist", "hn-mixed-twist", "ext-n0", "z3-c-row", "presentation-n0"],
)
def test_entry_points_refuse_non_integers(call):
    # each of these used to truncate the value with int() and answer
    with pytest.raises(ValueError, match="must be an integer"):
        call()


# ---------------------------------------------------------------------------
# nilpotent spectra and descriptors


def test_nilpotent_spectra():
    assert classify_nilpotent(FreeAbelian(1)).spectrum == SpectrumDescriptor.finite([2])
    assert classify_nilpotent(FreeAbelian(4)).spectrum == SpectrumDescriptor.full()
    assert classify_nilpotent(Heisenberg(7)).spectrum == SpectrumDescriptor.multiples(2)
    assert classify_nilpotent(HeisenbergTimesZ(2)).spectrum == SpectrumDescriptor.multiples(4)
    assert classify_nilpotent(THREE_STEP).spectrum == R_INF
    with pytest.raises(HypothesisError):
        classify_nilpotent(ZnSemidirectZ(FIB))


def test_three_step_is_the_jordan_block_group():
    assert THREE_STEP == ZnSemidirectZ(parse_matrix("1,1,0;0,1,1;0,0,1"))
    assert classify_nilpotent(THREE_STEP).trace == ("nilpotent:three-step",)
    with pytest.raises(HypothesisError):
        classify_nilpotent(ZnSemidirectZ(-I3))


@pytest.mark.parametrize(
    "text",
    ["1", "1,0;0,1", "1,3;0,1", "1,0,0;0,1,0;0,0,1", "1,0,2;0,1,0;0,0,1", "1,1,0;0,1,1;0,0,1", "1,2,3;0,1,-1;0,0,1"],
)
def test_nilpotent_groups_of_a_unipotent_action_agree_with_the_ladders(text):
    # classify_nilpotent and the unipotent rows of the z2 and z3 ladders read
    # one table: the same spectrum under the same nilpotent rule id
    a = parse_matrix(text)
    res = classify_nilpotent(ZnSemidirectZ(a))
    if a.rows == 1:
        assert (res.spectrum, res.trace) == (SpectrumDescriptor.full(), ("nilpotent:lattice",))
        return
    ladder = (classify_z2_semidirect if a.rows == 2 else classify_z3_semidirect)(a, 50)
    assert (res.spectrum, res.trace) == (ladder.spectrum, ladder.trace[-1:])


def test_descriptor_json_shapes():
    assert SpectrumDescriptor.multiples(4).to_json_dict() == {"kind": "multiples", "c": 4}
    assert SpectrumDescriptor.finite([8]).to_json_dict() == {"kind": "finite", "values": [8]}
    assert SpectrumDescriptor.r_infinity().to_json_dict() == {"kind": "r_infinity"}
    assert SpectrumDescriptor.full().to_json_dict() == {"kind": "full"}
    und = SpectrumDescriptor.undecided((R_INF, FOUR), 10_000)
    assert und.to_json_dict() == {
        "kind": "undecided",
        "candidates": [{"kind": "r_infinity"}, {"kind": "finite", "values": [4]}],
        "bound": 10_000,
    }
    with pytest.raises(ValueError):
        SpectrumDescriptor.multiples(1)
    with pytest.raises(ValueError):
        SpectrumDescriptor.finite([])
    with pytest.raises(ValueError):
        SpectrumDescriptor.undecided((R_INF,), 5)


def test_every_rule_id_has_one_spectrum_and_a_table_row():
    # both digest corpora, the nilpotent families and the two z3 rules no
    # corpus reaches: each result's spectrum is the one RULES gives its rule
    results = [_result_json(classify_nilpotent(f)) for f in
               (FreeAbelian(1), FreeAbelian(3), Heisenberg(2), HeisenbergTimesZ(1), THREE_STEP)]
    results += [_result_json(classify_z3_semidirect(parse_matrix(m)))
                for m in ("1,-2,-2;0,2,1;0,1,1", "1,0,1;0,5,2;0,2,1")]
    for corpus in (answers(), ladders()):
        results += [res for part in corpus.values() for res in part.values() if "trace" in res]
    reached = set()
    for res in results:
        rule = res["trace"][-1]
        reached.add(rule)
        if rule != "system2:exhausted":
            assert res["spectrum"] == RULES[rule].to_json_dict(), res
    assert set(RULES) <= reached
    tables = conclusion_tables()
    assert set(tables) == set(TABLE_ROWS) == {"z2-semidirect", "z3-semidirect", "double-extension",
                                              "heisenberg-semidirect"}
    in_rows = set()
    for name, rows in TABLE_ROWS.items():
        for (case, ids), row in zip(rows, tables[name], strict=True):
            assert ids.split() and set(ids.split()) <= set(RULES) and row["case"] == case
            in_rows.update(ids.split())
    assert {rule for rule in RULES if not rule.startswith("nilpotent:")} <= in_rows


def test_double_extension_table_rows_match_the_classifier():
    # one or more representative actions per row of the double-extension table
    representatives = {
        "A = +-I, n0 in 2Z^2 (delta = 0)": [(I2, (0, 0)), (-I2, (2, 0)), (I2, (-2, 4))],
        "A = +-I, n0 not in 2Z^2 (delta = 1)": [(I2, (1, 0)), (-I2, (0, 1)), (-I2, (3, -1))],
        "repeated eigenvalue 1 or -1, A != +-I": [(parse_matrix("1,1;0,1"), (1, 0)), (parse_matrix("-1,1;0,-1"), (0, 0))],
        "finite order 3, 4 or 6": [(parse_matrix(m), (1, 0)) for m in ("0,-1;1,-1", "0,-1;1,0", "0,-1;1,1")],
        "real eigenvalues, det A = -1": [(parse_matrix("1,1;1,0"), (1, 0)), (parse_matrix("1,0;0,-1"), (0, 1))],
        "real eigenvalues != +-1, det A = 1": [(FIB, (2, -1)), (NIET, (1, 0))],
    }
    rows = conclusion_tables()["double-extension"]
    assert [row["case"] for row in rows] == list(representatives)
    for row in rows:
        for a, n0 in representatives[row["case"]]:
            assert classify_z2_minusI_ext(a, n0, 100).spectrum in row["spectrum"], (row["case"], a, n0)


def test_hn_table_rows_match_the_classifier():
    # representative (n, action[, twists]) per row of the Heisenberg table
    representatives = {
        "A = I": [(1, I2), (4, I2, (1, -2))],
        "unipotent A != I": [(2, parse_matrix("1,1;0,1")), (3, parse_matrix("1,0;-2,1"), (1, 1))],
        "eigenvalues 1 and -1": [(1, parse_matrix("1,0;0,-1"), (1, 0)), (4, parse_matrix("-2,3;-1,2"), (-2, -1))],
        "A != -I and 1 not an eigenvalue": [(2, FIB), (2, ROT4, (1, 0)), (3, parse_matrix("-1,1;0,-1"), (0, 1))],
        "inverting action, k and l even or n odd": [(3, (1, 0)), (2, (2, 4)), (1, -I2, (1, 1))],
        "inverting action, k or l odd and n even": [(2, (1, 0)), (4, -I2, (1, 1))],
    }
    rows = conclusion_tables()["heisenberg-semidirect"]
    assert [row["case"] for row in rows] == list(representatives)
    for row in rows:
        for n, action, *twists in representatives[row["case"]]:
            res = classify_hn_semidirect(n, action, 100, *twists)
            assert res.spectrum in row["spectrum"], (row["case"], n, action, twists)


# ---------------------------------------------------------------------------
# realization: every multiples-classification is witnessed


def test_multiples_realized_by_witness_corpus():
    cases = []
    res = classify_z2_semidirect(-I2, 20)
    cases.append((res.spectrum.c, lambda a: rnumber(witness(ZnSemidirectZ(-I2), "M_m", a))))
    res = classify_z2_semidirect(parse_matrix("1,3;0,1"), 20)
    cases.append((res.spectrum.c, lambda a: rnumber(witness(Heisenberg(3), "phi_m", a))))
    res = classify_z3_semidirect(tahara_form_order2(1), 20)
    cases.append((res.spectrum.c, lambda a: rnumber(witness(ZnSemidirectZ(tahara_form_order2(1)), "phi_alpha", a))))
    res = classify_z3_semidirect(tahara_form_order2(0), 20)
    cases.append((res.spectrum.c, lambda a: rnumber(witness(ZnSemidirectZ(tahara_form_order2(0)), "phi_alpha", a))))
    res = classify_z3_semidirect(tahara_form_order3(1), 20)
    cases.append((res.spectrum.c, lambda a: rnumber(witness(ZnSemidirectZ(tahara_form_order3(1)), "phi_alpha", a))))
    res = classify_hn_semidirect(3, (1, 2), 20)
    cases.append((res.spectrum.c, lambda a: rnumber(witness(HnSemidirectZ(3, 1, 2), "M_r", a))))
    res = classify_hn_semidirect(2, (1, 0), 20)
    cases.append((res.spectrum.c, lambda a: rnumber(witness(HnSemidirectZ(2, 1, 0), "M_r", 2 * a))))
    for c, realize in cases:
        for alpha in range(1, 21):
            value = realize(alpha)
            assert value == RNumber(c * alpha)

    # the rank-3 flip realizes every even value: 2(m+1) for m >= 1 plus a
    # companion block with char poly x^3 - x - 1 for the value 2
    res = classify_z3_semidirect(-I3, 20)
    assert res.spectrum == SpectrumDescriptor.multiples(2)
    fam = ZnSemidirectZ(-I3)
    for alpha in range(2, 21):
        assert rnumber(witness(fam, "M_m", alpha - 1)) == RNumber(2 * alpha)
    companion = AutomorphismSpec.from_images(
        fam, {"e1": (0, 1, 0, 0), "e2": (0, 0, 1, 0), "e3": (1, 1, 0, 0), "t": (0, 0, 0, -1)}
    )
    assert verify_automorphism(companion).ok
    from dataclasses import replace

    assert rnumber(replace(companion, verified=True)) == RNumber(2)


def test_r_infinity_cases_never_certify_finite():
    # identity automorphisms twist by ordinary conjugacy: infinitely many classes
    from dataclasses import replace

    samples = [
        ZnSemidirectZ(parse_matrix("1,2;0,-1")),
        HnSemidirectZ(2, 1, 3),
    ]
    for fam in samples:
        images = {}
        for i, name in enumerate(fam.generator_names):
            vec = [0] * fam.slots
            vec[i] = 1
            images[name] = tuple(vec)
        spec = AutomorphismSpec.from_images(fam, images)
        assert verify_automorphism(spec).ok
        spec = replace(spec, verified=True)
        labeling = label_classes(spec, 3)
        assert not labeling.complete
