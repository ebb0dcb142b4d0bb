from dataclasses import replace

from hypothesis import given, settings, strategies as st
import pytest

from reidemeister.exactlin import IntMatrix, parse_matrix
from reidemeister.groups import (
    AutomorphismSpec,
    ZnSemidirectZ,
    holonomy_embedding,
    rnumber_with_trace,
    tahara_form_order2,
    tahara_form_order3,
    translation_matrix,
    verify_automorphism,
    witness,
)
from reidemeister.twisted import (
    RNumber,
    r_abelian,
    r_addition,
    r_averaging,
)
from conftest import random_unimodular, unimodular_matrices
from snf_reference import r_abelian_via_cosets

I2 = IntMatrix.identity(2)
FIB = parse_matrix("2,3;3,5")
ROT4 = parse_matrix("0,-1;1,0")


def test_rnumber_arithmetic():
    inf = RNumber.infinite()
    four = RNumber.finite(4)
    assert (inf + four) == inf
    assert (four + four).value == 8
    assert (inf * four) == inf
    assert (four * RNumber.finite(3)).value == 12
    assert four.div_exact(2).value == 2
    with pytest.raises(ArithmeticError):
        RNumber.finite(3).div_exact(2)
    with pytest.raises(ValueError):
        RNumber.finite(0)
    assert four.to_json() == 4 and inf.to_json() == "infinity"


def test_r_abelian_examples():
    assert r_abelian(I2) == RNumber.infinite()
    assert r_abelian(-I2) == RNumber.finite(4)
    assert r_abelian(parse_matrix("0,1;1,1")) == RNumber.finite(1)


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


def test_r_addition_examples():
    assert r_addition([I2], -I2) == RNumber.finite(4)
    m1 = parse_matrix("0,1;1,1")
    assert r_addition([I2, -I2], m1) == RNumber.finite(2)
    assert r_addition([I2, FIB], ROT4) == RNumber.finite(4)
    assert r_addition([I2, -I2], I2) == RNumber.infinite()
    with pytest.raises(ValueError):
        r_addition([], I2)


def test_r_semidirect_examples():
    # the two-step sum R(M) + R(AM) of Z^n x| Z with the quotient inverted
    m3 = parse_matrix("0,1;1,3")
    assert r_addition((I2, -I2), m3) == RNumber.finite(6)
    assert r_addition((I2, FIB), ROT4) == RNumber.finite(4)
    assert r_addition((I2, -I2), I2) == RNumber.infinite()


def _flip_spec(m):
    # e_i -> M e_i, t -> t^-1: an automorphism of Z^2 x|_{-I} Z for every M
    fam = ZnSemidirectZ(-I2)
    images = {"e1": m.column(0) + (0,), "e2": m.column(1) + (0,), "t": (0, 0, -1)}
    spec = AutomorphismSpec.from_images(fam, images)
    assert verify_automorphism(spec).ok
    return replace(spec, verified=True)


def test_two_step_route_matches_the_coset_oracle(rng):
    ms = [parse_matrix("0,1;1,1"), parse_matrix("0,1;1,5"), I2]
    ms += [random_unimodular(rng, 2, 4) for _ in range(20)]
    for m in ms:
        expected = r_abelian_via_cosets(m) + r_abelian_via_cosets(-m)
        assert rnumber_with_trace(_flip_spec(m)) == (expected, ("rnumber:two-step-addition",)), m


def test_r_averaging_trivial_holonomy():
    assert r_averaging([IntMatrix.identity(2)], -I2) == r_abelian(-I2)


def _averaged_witness(form, alpha):
    fam = ZnSemidirectZ(form)
    spec = witness(fam, "phi_alpha", alpha)
    d = 2 if form in (tahara_form_order2(0), tahara_form_order2(1)) else 3
    mt = translation_matrix(spec, d)
    h = holonomy_embedding(form)
    return r_averaging([h ** i for i in range(d)], mt)


def test_r_averaging_on_block_embeddings():
    assert _averaged_witness(tahara_form_order2(1), 1) == RNumber.finite(4)
    assert _averaged_witness(tahara_form_order3(1), 1) == RNumber.finite(6)
    assert _averaged_witness(tahara_form_order2(0), 3) == RNumber.finite(6)


def test_block_embedding_counts_factor():
    # each holonomy translate of the 4x4 block matrix counts as the center
    # block times the quotient block
    for form, d in ((tahara_form_order2(1), 2), (tahara_form_order3(0), 3)):
        fam = ZnSemidirectZ(form)
        spec = witness(fam, "phi_alpha", 2)
        mt = translation_matrix(spec, d)
        a_tilde = holonomy_embedding(form)
        n_block = IntMatrix.from_rows([[mt[0, 0], mt[0, 1]], [mt[1, 0], mt[1, 1]]])
        m_block = IntMatrix.from_rows([[mt[2, 2], mt[2, 3]], [mt[3, 2], mt[3, 3]]])
        a_prime = IntMatrix.from_rows([[form[1, 1], form[1, 2]], [form[2, 1], form[2, 2]]])
        for i in range(d):
            lhs = r_abelian((a_tilde ** i) * mt)
            rhs = r_abelian(n_block) * r_abelian((a_prime ** i) * m_block)
            assert lhs == rhs


def test_r_averaging_divisibility_is_loud():
    with pytest.raises(ArithmeticError):
        r_averaging([I2, parse_matrix("0,1;1,0")], parse_matrix("2,1;1,1"))  # terms 1 and 2, sum 3 odd
