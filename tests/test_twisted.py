from dataclasses import replace
from itertools import product
import math

from hypothesis import given, settings, strategies as st
import pytest

from reidemeister.exactlin import IntMatrix, parse_matrix
from reidemeister.groups import (
    AutomorphismSpec,
    ZnSemidirectZ,
    rnumber_with_trace,
    tahara_form_order2,
    tahara_form_order3,
    verify_automorphism,
    witness,
)
from reidemeister.twisted import INFINITE, HermiteBox, RNumber, r_abelian, r_class_sum
from conftest import random_unimodular, unimodular_matrices
from snf_reference import r_abelian_via_cosets

I2 = IntMatrix.identity(2)
FIB = parse_matrix("2,3;3,5")
ROT4 = parse_matrix("0,-1;1,0")


def _shift(d):
    return IntMatrix(1, 1, (d,))


def test_rnumber_arithmetic():
    four = RNumber(4)
    assert (INFINITE + four) == INFINITE
    assert (four + four).value == 8
    assert (INFINITE * four) == INFINITE
    assert (four * RNumber(3)).value == 12
    assert four.div_exact(2).value == 2
    with pytest.raises(ArithmeticError):
        RNumber(3).div_exact(2)
    with pytest.raises(ValueError):
        RNumber(0)
    assert four.to_json() == 4 and INFINITE.to_json() == "infinity"
    # a value that is not an int is refused, never truncated or kept as is
    for value in (2.5, "7", True, 3.0):
        with pytest.raises(ValueError, match="must be an integer"):
            RNumber(value)


def test_r_abelian_examples():
    assert r_abelian(I2) == INFINITE
    assert r_abelian(-I2) == RNumber(4)
    assert r_abelian(parse_matrix("0,1;1,1")) == RNumber(1)


def test_r_abelian_agrees_with_coset_oracle(rng):
    for n in (2, 3):
        for _ in range(40):
            m = random_unimodular(rng, n, 5)
            assert r_abelian(m) == r_abelian_via_cosets(m)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.sampled_from((2, 3)))
def test_r_abelian_conjugation_invariant(data, n):
    m = data.draw(unimodular_matrices(n, 8))
    p = data.draw(unimodular_matrices(n))
    assert r_abelian(p * m * p.inverse_unimodular()) == r_abelian(m)


def test_r_class_sum_examples():
    assert r_class_sum(_shift(1), (-I2,), -I2) == RNumber(4)
    m1 = parse_matrix("0,1;1,1")
    assert r_class_sum(_shift(2), (-I2,), m1) == RNumber(2)
    assert r_class_sum(_shift(-2), (-I2,), m1) == RNumber(2)
    assert r_class_sum(_shift(2), (FIB,), ROT4) == RNumber(4)  # FIB has infinite order
    assert r_class_sum(_shift(2), (-I2,), I2) == INFINITE
    assert r_class_sum(_shift(0), (-I2,), m1) == INFINITE
    assert r_class_sum(IntMatrix.zero(2, 2), (-I2, I2), m1) == INFINITE
    # an action of infinite order takes its box side as order: R(-I) + R(-FIB) + R(-FIB^2)
    assert r_class_sum(_shift(3), (FIB,), -I2) == RNumber(4 + 9 + 49)
    # the terms are R(B_1^e_1 B_2^e_2 M): ROT4 FIB M counts 6, FIB ROT4 M would count 12
    assert r_class_sum(IntMatrix(2, 2, (2, 0, 0, 2)), (ROT4, FIB), parse_matrix("-1,-1;1,0")) == RNumber(3 + 4 + 4 + 6)


def test_r_semidirect_examples():
    # the two-step sum R(M) + R(AM) of Z^n x| Z with the quotient inverted
    m3 = parse_matrix("0,1;1,3")
    assert r_class_sum(_shift(2), (-I2,), m3) == RNumber(6)
    assert r_class_sum(_shift(2), (FIB,), ROT4) == RNumber(4)
    assert r_class_sum(_shift(2), (-I2,), I2) == INFINITE
    # over 6 classes an order-2 action repeats each term three times
    assert r_class_sum(_shift(6), (-I2,), m3) == RNumber(18)


def _flip_spec(a, m):
    # e_i -> M e_i, t -> t^-1: an automorphism of Z^2 x|_A Z when it verifies
    fam = ZnSemidirectZ(a)
    images = {"e1": m.column(0) + (0,), "e2": m.column(1) + (0,), "t": (0, 0, -1)}
    spec = AutomorphismSpec.from_images(fam, images)
    return replace(spec, verified=True) if verify_automorphism(spec).ok else None


def test_two_step_route_matches_the_coset_oracle(rng):
    # -I verifies with every M; the infinite-order actions only with the M
    # in [-2,2]^4 that satisfy M A = A^-1 M, and take the class sum's fallback
    ms = [parse_matrix("0,1;1,1"), parse_matrix("0,1;1,5"), I2]
    ms += [random_unimodular(rng, 2, 4) for _ in range(20)]
    cases = [(-I2, m) for m in ms]
    box = [IntMatrix(2, 2, e) for e in product(range(-2, 3), repeat=4)]
    for a in (parse_matrix("2,1;1,1"), FIB):
        flips = [(a, m) for m in box if m.is_unimodular and _flip_spec(a, m)]
        assert len(flips) == 10, a
        cases += flips
    assert rnumber_with_trace(_flip_spec(parse_matrix("2,1;1,1"), parse_matrix("-1,-1;2,1")))[0] == RNumber(4)
    for a, m in cases:
        expected = r_abelian_via_cosets(m) + r_abelian_via_cosets(a * m)
        assert rnumber_with_trace(_flip_spec(a, m)) == (expected, ("rnumber:two-step-addition",)), (a, m)


def test_class_sum_trivial_holonomy():
    assert r_class_sum(_shift(1), (I2,), -I2).div_exact(1) == r_abelian(-I2)


def _diag_one(form):
    # diag(1, A): the holonomy generator in translation coordinates
    n = form.rows
    return IntMatrix.from_rows([[1] + [0] * n] + [[0, *form.row(i)] for i in range(n)])


def _averaged_witness(form, alpha):
    fam = ZnSemidirectZ(form)
    spec = witness(fam, "phi_alpha", alpha)
    d = 2 if form in (tahara_form_order2(0), tahara_form_order2(1)) else 3
    mt = fam._holonomy(spec)[2]  # the matrix on the translation lattice <t^d, e1..en>
    return r_class_sum(_shift(d), (_diag_one(form),), mt).div_exact(d)


def test_class_sum_on_block_embeddings():
    assert _averaged_witness(tahara_form_order2(1), 1) == RNumber(4)
    assert _averaged_witness(tahara_form_order3(1), 1) == RNumber(6)
    assert _averaged_witness(tahara_form_order2(0), 3) == RNumber(6)


def test_block_embedding_counts_factor():
    # each holonomy translate of the 4x4 block matrix counts as the center
    # block times the quotient block
    for form, d in ((tahara_form_order2(1), 2), (tahara_form_order3(0), 3)):
        fam = ZnSemidirectZ(form)
        spec = witness(fam, "phi_alpha", 2)
        mt = fam._holonomy(spec)[2]
        a_tilde = _diag_one(form)
        n_block = IntMatrix.from_rows([[mt[0, 0], mt[0, 1]], [mt[1, 0], mt[1, 1]]])
        m_block = IntMatrix.from_rows([[mt[2, 2], mt[2, 3]], [mt[3, 2], mt[3, 3]]])
        a_prime = IntMatrix.from_rows([[form[1, 1], form[1, 2]], [form[2, 1], form[2, 2]]])
        for i in range(d):
            lhs = r_abelian((a_tilde ** i) * mt)
            rhs = r_abelian(n_block) * r_abelian((a_prime ** i) * m_block)
            assert lhs == rhs


def test_class_sum_divisibility_is_loud():
    with pytest.raises(ArithmeticError):  # terms 1 and 2 over 2 classes, sum 3 odd
        r_class_sum(_shift(2), (parse_matrix("0,1;1,0"),), parse_matrix("2,1;1,1")).div_exact(2)


def _draw_box_matrix(data) -> IntMatrix:
    # N with k <= 4, singular N included: a column that is a multiple of another, or N = 0
    k = data.draw(st.integers(1, 4))
    row = st.lists(st.integers(-4, 4), min_size=k, max_size=k)
    rows = data.draw(st.lists(row, min_size=k, max_size=k))
    if data.draw(st.booleans()):
        factor = data.draw(st.integers(-2, 2))
        for r in rows:
            r[-1] = factor * r[0]
    return IntMatrix.from_rows(rows)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_hermite_box_holds_one_point_of_each_coset(data):
    n = _draw_box_matrix(data)
    k, box = n.rows, HermiteBox(n)
    det = n.det()
    assert box.singular == (det == 0)
    if det:
        assert abs(det) == math.prod(box.diagonal)
    vector = st.tuples(*[st.integers(-40, 40)] * k)
    v, u = data.draw(vector), data.draw(vector)
    r, w = box.reduce(v)
    assert box.point(v) == r
    assert tuple(map(sum, zip(r, n.apply(w)))) == v
    assert all(0 <= x < d for x, d in zip(r, box.diagonal) if d)
    assert box.reduce(tuple(map(sum, zip(v, n.apply(u)))))[0] == r


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_box_point_of_a_sum_reads_only_the_box_point_of_a_summand(data):
    # the oracle's rows rest on it: the box point of beta + L b is that of
    # p + L b, p the box point of beta
    n = _draw_box_matrix(data)
    box, vector = HermiteBox(n), st.tuples(*[st.integers(-40, 40)] * n.rows)
    v, w = data.draw(vector), data.draw(vector)
    assert box.point(tuple(map(sum, zip(box.point(v), w)))) == box.point(tuple(map(sum, zip(v, w))))
