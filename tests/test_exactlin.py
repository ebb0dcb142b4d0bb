import ast
from itertools import permutations, product
import math
from pathlib import Path
import random
import re

from hypothesis import given, settings, strategies as st
import pytest

from reidemeister import exactlin, spectra
from reidemeister.exactlin import (
    DimensionError,
    HypothesisError,
    IntMatrix,
    MatrixParseError,
    finite_order,
    parse_matrix,
    unit_root_split,
    _bezout,
    _det,
    _heisenberg_parameter,
    _int_pair,
    _one_minus,
    _power,
    _power_sum,
    _unimodular,
)
from canonical_reference import centralizer_exponent
from snf_reference import coset_representatives, eigenlattice, kernel_lattice, smith_normal_form
from conftest import _compose, random_matrix, random_unimodular
from power_reference import reference_power, reference_power_sum

I2 = IntMatrix.identity(2)
I3 = IntMatrix.identity(3)
FIB = parse_matrix("2,3;3,5")
ROT4 = parse_matrix("0,-1;1,0")


def brute_det(m: IntMatrix) -> int:
    # independent oracle: Leibniz expansion over permutations
    n = m.rows
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= m[i, perm[i]]
        total += term
    return total


def test_det_examples():
    assert I2.det() == 1
    assert FIB.det() == 1  # 2*5 - 3*3 computed by hand
    assert ROT4.det() == 1


def test_det_matches_permutation_expansion(rng):
    for n in (2, 3, 4):
        for _ in range(50):
            m = random_matrix(rng, n, 9)
            assert m.det() == brute_det(m)


# entries small, or within a few units of +-10^40, where a 2x2 product
# needs exact big-integer arithmetic
_DET_ENTRIES = st.one_of(
    st.integers(-3, 3), st.integers(10 ** 40 - 3, 10 ** 40 + 3), st.integers(-10 ** 40 - 3, -10 ** 40 + 3)
)


@st.composite
def _det_matrices(draw):
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return IntMatrix(n, n, tuple(draw(st.lists(_DET_ENTRIES, min_size=n * n, max_size=n * n))))
    # a unimodular one: signs times row operations with multipliers near 10^40
    ops = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _DET_ENTRIES), max_size=3)
    return _compose(n, draw(st.tuples(*[st.sampled_from((1, -1))] * n)), draw(ops))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_det_matrices())
def test_det_reads_small_sizes_off_the_entries_as_bareiss_does(m):
    # det against _det on the row copy (Bareiss from 3x3 on) and the
    # permutation expansion
    d = _det(m.to_rows())
    assert m.det() == d == brute_det(m)
    assert m.is_unimodular == (d in (1, -1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_minus_is_identity_minus_the_matrix(n):
    rng = random.Random(n)
    for m in [IntMatrix.identity(n), -IntMatrix.identity(n)] + [random_matrix(rng, n, 10 ** 20) for _ in range(20)]:
        assert _one_minus(m) == IntMatrix.identity(n) - m


def test_det_rejects_non_square():
    with pytest.raises(DimensionError):
        IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]).det()


def test_matrix_algebra_basics():
    assert (FIB * FIB.inverse_unimodular()) == I2
    assert FIB ** 0 == I2
    assert FIB ** -1 == FIB.inverse_unimodular()
    assert (FIB + (-FIB)) == IntMatrix.zero(2, 2)
    assert FIB.transpose().transpose() == FIB
    assert FIB.apply((1, 0)) == (2, 3)


def brute_product(x: IntMatrix, y: IntMatrix) -> tuple[int, ...]:
    # independent oracle: the triple loop over rows, columns and the inner index
    out = []
    for i in range(x.rows):
        for j in range(y.cols):
            total = 0
            for t in range(x.cols):
                total += x[i, t] * y[t, j]
            out.append(total)
    return tuple(out)


def _entry_tuple(data, n):
    return tuple(data.draw(st.lists(_DET_ENTRIES, min_size=n, max_size=n)))


@pytest.mark.parametrize("r, k, c", list(product(range(1, 5), repeat=3)))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_product_and_apply_match_the_triple_loop_on_every_shape(r, k, c, data):
    x = IntMatrix(r, k, _entry_tuple(data, r * k))
    y = IntMatrix(k, c, _entry_tuple(data, k * c))
    expected = brute_product(x, y)
    assert x * y == IntMatrix(r, c, expected)
    for j in range(c):
        assert x.apply(y.column(j)) == x.apply(list(y.column(j))) == expected[j::c]
    with pytest.raises(DimensionError):
        x * IntMatrix.zero(k + 1, c)
    with pytest.raises(DimensionError):
        x.apply((0,) * (k + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_matrix_times_its_adjugate_is_the_determinant(n, data):
    m = IntMatrix(n, n, _entry_tuple(data, n * n))
    scalar = IntMatrix.identity(n).scale(m.det())
    assert m * m._adjugate() == m._adjugate() * m == scalar


def test_products_apply_and_powers_reach_the_one_product_kernel(monkeypatch):
    # a second product loop in IntMatrix would leave one of these at 0
    calls, kernel = [0], exactlin._entries_mul

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(exactlin, "_entries_mul", counted)
    a = parse_matrix("2,1,0;1,1,4;0,3,1")
    for use in (lambda: a * a, lambda: a.apply((1, 2, 3)), lambda: a ** 5):
        exactlin._walk.cache_clear()
        exactlin._entries_order.cache_clear()
        calls[0] = 0
        use()
        assert calls[0] >= 1


def test_power_sum_identity(rng):
    for _ in range(25):
        a = random_unimodular(rng, 2, 3)
        for k in (-7, -2, -1, 0, 1, 2, 5, 12):
            s = IntMatrix(2, 2, _power_sum(a.entries, k)[1])
            assert (a - I2) * s == a ** k - I2


def test_power_matches_the_reference_loop(rng):
    exponents = (-7, -2, -1, 0, 1, 2, 5, 12)
    cases = [parse_matrix("-1"), parse_matrix("1")]
    cases += [FIB, ROT4, random_unimodular(rng, 2, 3)]
    cases += [random_unimodular(rng, 3, 2) for _ in range(4)] + [I3]
    for a in cases:
        for k in exponents:
            expected = reference_power(a, k)
            assert a ** k == expected, (a, k)
            power, total = _power_sum(a.entries, k)
            assert power == expected.entries, (a, k)
            assert total == reference_power_sum(a, k).entries, (a, k)
    # a matrix that is not unimodular has powers and sums only at k >= 0
    for a in (parse_matrix("3"), parse_matrix("2,1;1,3"), parse_matrix("0,0;0,0"), parse_matrix("1,2,0;0,1,0;0,0,3")):
        for k in range(6):
            assert a ** k == reference_power(a, k), (a, k)
            assert _power_sum(a.entries, k) == (reference_power(a, k).entries, reference_power_sum(a, k).entries)
        for k in (-1, -3):
            with pytest.raises(ValueError):
                a ** k
            with pytest.raises(ValueError):
                _power_sum(a.entries, k)


def test_power_alone_matches_the_reference_loop():
    # actions of order 1, 2, 3, 4 and 6, then the hyperbolic FIB, whose
    # 10^12-th power has too many digits to write down
    finite = {
        1: [I2, parse_matrix("1")],
        2: [-I2, parse_matrix("0,1;1,0"), parse_matrix("-1,0,0;0,1,0;0,0,-1")],
        3: [parse_matrix("0,-1;1,-1"), parse_matrix("0,0,1;1,0,0;0,1,0")],
        4: [ROT4],
        6: [parse_matrix("1,-1;1,0")],
    }
    huge = 10**12 + 1
    for order, actions in finite.items():
        for a in actions:
            assert finite_order(a) == order, a
            for k in [*range(-13, 14), huge, -huge]:
                assert _power(a.entries, k) == reference_power(a, k).entries, (a, k)
    for k in range(-13, 14):
        assert _power(FIB.entries, k) == reference_power(FIB, k).entries, k


def test_snf_examples():
    two_i = I2 + I2
    assert smith_normal_form(two_i).elementary_divisors == (2, 2)
    assert smith_normal_form(IntMatrix.zero(2, 2)).elementary_divisors == (0, 0)
    # I - [[0,1],[1,1]] reduced by hand gives unit divisors
    m = parse_matrix("1,-1;-1,0")
    assert smith_normal_form(m).elementary_divisors == (1, 1)


def test_snf_invariants(rng):
    for n in (2, 3):
        for _ in range(60):
            m = random_matrix(rng, n, 9)
            snf = smith_normal_form(m)
            assert snf.U * m * snf.V == snf.D
            assert snf.U.det() in (1, -1)
            assert snf.V.det() in (1, -1)
            divs = snf.elementary_divisors
            assert all(d >= 0 for d in divs)
            nonzero = [d for d in divs if d]
            assert list(divs[: len(nonzero)]) == nonzero  # zeros last
            for a, b in zip(nonzero, nonzero[1:]):
                assert b % a == 0
            d = m.det()
            if d:
                prod = 1
                for v in nonzero:
                    prod *= v
                assert len(nonzero) == n and prod == abs(d)


def test_snf_rect_shapes(rng):
    for rows, cols in ((2, 4), (3, 2), (1, 3)):
        for _ in range(20):
            m = IntMatrix(rows, cols, tuple(rng.randint(-5, 5) for _ in range(rows * cols)))
            snf = smith_normal_form(m)
            assert snf.U * m * snf.V == snf.D


def test_snf_deterministic():
    m = parse_matrix("6,4;8,10")
    first = smith_normal_form(m)
    second = smith_normal_form(m)
    assert first == second


def test_unit_root_split_examples():
    # (x - 1)(x + 1)^2 = x^3 + x^2 - x - 1: nothing is left over
    assert unit_root_split(parse_matrix("1,0,1;0,-1,0;0,0,-1")) == (1, 2, None)
    # x^2 + x + 1, the order-3 block
    assert unit_root_split(parse_matrix("1,0,0;0,0,-1;0,1,-1")) == (1, 0, (1, 1))
    # x^2 - 6x + 1, a hyperbolic block
    assert unit_root_split(parse_matrix("1,0,0;0,5,2;0,2,1")) == (1, 0, (1, -6))
    assert unit_root_split(I3) == (3, 0, None)
    assert unit_root_split(-I3) == (0, 3, None)
    # x^3 - x^2 - 1 has no root +-1 and no quadratic factor
    assert unit_root_split(parse_matrix("0,0,1;1,0,0;0,1,1")) == (0, 0, None)


def test_unit_root_split_rejects_bad_input():
    with pytest.raises(ValueError):
        unit_root_split(parse_matrix("2,0,0;0,1,0;0,0,1"))
    with pytest.raises(DimensionError):
        unit_root_split(FIB)
    with pytest.raises(DimensionError):
        unit_root_split(IntMatrix.identity(4))


def test_unit_root_split_expands_to_the_characteristic_polynomial(rng):
    # (x - 1)^ones (x + 1)^minus_ones (x^2 + c1 x + c0) against det(xI - M)
    # at four points, which pins a monic cubic; with nothing split off, the
    # cubic has no root +-1.  A quadratic left over has no rational root, as
    # +-1 are the only ones and are divided out, so c1^2 != 4 c0: the
    # complex-pair test of classify_z3_semidirect may read < or <=
    cubics = quadratics = 0
    for _ in range(80):
        m = random_unimodular(rng, 3, 2)
        ones, minus_ones, residual = unit_root_split(m)
        if (ones, minus_ones, residual) == (0, 0, None):
            cubics += 1
            assert (I3 - m).det() != 0 and (-I3 - m).det() != 0
        else:
            assert ones + minus_ones + (2 if residual else 0) == 3
            for x in range(4):
                value = (x - 1) ** ones * (x + 1) ** minus_ones
                if residual:
                    value *= x * x + residual[1] * x + residual[0]
                assert value == (I3.scale(x) - m).det()
        if residual:
            quadratics += 1
            assert residual[1] ** 2 != 4 * residual[0]
        p = random_unimodular(rng, 3, 1)
        assert unit_root_split(p * m * p.inverse_unimodular()) == (ones, minus_ones, residual)
    assert 0 < cubics < 80 and quadratics > 0


def test_unit_root_split_reads_the_principal_minors_as_det_does(rng):
    # unit_root_split writes the 2x2 principal minors out; the cubic
    # x^3 - tr x^2 + s2 x - det with s2 their sum through IntMatrix.det must
    # be the product it splits into, and have no root +-1 when none is split
    for _ in range(300):
        m = random_unimodular(rng, 3, 3)
        s2 = sum(IntMatrix.from_rows([[m[i, i], m[i, j]], [m[j, i], m[j, j]]]).det() for i, j in ((0, 1), (0, 2), (1, 2)))
        cubic = [-m.det(), s2, -m.trace(), 1]  # ascending
        ones, minus_ones, residual = unit_root_split(m)
        if (ones, minus_ones, residual) == (0, 0, None):
            assert all(sum(c * x**i for i, c in enumerate(cubic)) for x in (1, -1))
            continue
        product = [1]
        for factor in [[-1, 1]] * ones + [[1, 1]] * minus_ones + ([[*residual, 1]] if residual else []):
            product = [sum(product[k] * factor[i - k] for k in range(len(product)) if 0 <= i - k < len(factor))
                       for i in range(len(product) + len(factor) - 1)]
        assert product == cubic


def test_eigenlattice_examples():
    full = eigenlattice(-I2, -1)
    assert full.rank == 2
    r = eigenlattice(parse_matrix("1,2;0,-1"), 1)
    assert r.basis == ((1, 0),)
    assert eigenlattice(FIB, 1).basis == ()


def test_eigenlattice_saturated_and_exact(rng):
    for _ in range(40):
        a = random_unimodular(rng, 2, 3)
        for eps in (1, -1):
            lat = eigenlattice(a, eps)
            for v in lat.basis:
                assert a.apply(v) == tuple(eps * x for x in v)
            if lat.basis:
                basis_matrix = IntMatrix.from_columns(lat.basis)
                divs = smith_normal_form(basis_matrix).elementary_divisors
                assert all(d == 1 for d in divs)


def test_finite_order_examples():
    assert finite_order(I2) == 1
    assert finite_order(parse_matrix("0,-1;1,-1")) == 3  # order-3 block
    assert finite_order(parse_matrix("1,1;0,1")) is None
    assert finite_order(-I3) == 2
    with pytest.raises(DimensionError):
        finite_order(IntMatrix.identity(4))
    with pytest.raises(HypothesisError, match="^the matrix must be unimodular$"):
        finite_order(parse_matrix("2,0;0,1"))


def test_finite_order_power_property(rng):
    for _ in range(60):
        m = random_unimodular(rng, 2, 2)
        d = finite_order(m)
        if d is not None:
            assert m ** d == I2
            for e in range(1, d):
                assert m ** e != I2


def test_in_centralizer_span():
    m4 = ROT4
    assert centralizer_exponent(m4, -(m4 ** 3)) is not None
    m3 = parse_matrix("0,-1;1,-1")
    assert centralizer_exponent(m3, parse_matrix("1,1;0,1")) is None
    assert centralizer_exponent(m3, I2) is not None
    with pytest.raises(ValueError):
        centralizer_exponent(I2, m3)
    with pytest.raises(ValueError):
        centralizer_exponent(parse_matrix("1,1;0,1"), m3)


def test_kernel_lattice(rng):
    for _ in range(30):
        m = random_matrix(rng, 3, 3)
        lat = kernel_lattice(m)
        for v in lat.basis:
            assert m.apply(v) == (0, 0, 0)


def test_coset_representatives():
    reps = coset_representatives(I2 + I2)  # index 4
    assert reps is not None and len(reps) == 4
    assert len({tuple(r % 2 for r in rep) for rep in reps}) == 4
    assert coset_representatives(IntMatrix.zero(2, 2)) is None


def test_bezout_coefficients():
    values = [0, 1, -1, 2, -3, 6, -10, 15, 10**30 + 7]
    for y in values:
        for z in values:
            g, s, t = _bezout(y, z)
            assert g == math.gcd(y, z) and s * y + t * z == g, (y, z)


def test_parse_matrix_text_and_json():
    assert parse_matrix("2,3;3,5") == FIB
    assert parse_matrix("[[2,3],[3,5]]") == FIB
    assert parse_matrix(" 2 , 3 ; 3 , 5 ") == FIB
    # unicode minus sign is tolerated
    assert parse_matrix("−1,0;0,−1") == -I2


def test_parse_matrix_errors_name_position():
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix("2,x;3,5")
    assert "row 1, entry 2" in str(exc.value)
    assert exc.value.token == "x"
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix("1,2;3")
    assert "row 2" in str(exc.value)
    with pytest.raises(MatrixParseError):
        parse_matrix("[[1,2],[3]]")
    with pytest.raises(MatrixParseError):
        parse_matrix("")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _unimodular(IntMatrix(2, 3, (1,) * 6), 2, "the action"), HypothesisError,
         "the action must be a 2x2 matrix, got 2x3"),
        (lambda: _int_pair(5, "n0"), HypothesisError, "n0 must be an array of two integers, got 5"),
        (lambda: _int_pair(iter((1, 2)), "n0"), HypothesisError, "n0 must be an array of two integers, got <"),
        (lambda: _int_pair((True, 2), "n0"), ValueError, "an entry of n0 must be an integer, got True"),
        (lambda: _heisenberg_parameter(1.0, "field 'n'"), ValueError, "field 'n' must be an integer, got 1.0"),
    ],
    ids=["not-square", "pair-not-array", "pair-iterator", "pair-bool", "floor-float"],
)
def test_the_shared_validators_refuse_with_one_text_each(call, error, message):
    # the classifier and family tests pin the other texts, through the callers
    with pytest.raises(error, match="^" + re.escape(message)):
        call()


def test_the_shared_validators_return_what_they_accept():
    assert (_unimodular(FIB, 2, "the action"), _unimodular(parse_matrix("0,1;1,0"), 2, "the action")) == (1, -1)
    assert _int_pair([3, -4], "n0") == _int_pair((3, -4), "n0") == (3, -4)


def test_only_the_shared_validators_raise_the_shared_hypotheses():
    # each of the three hypotheses that groups and spectra share is refused
    # by one function: no other raise in the package carries its text
    phrases = ("unimodular", "two entries", "Heisenberg parameter must")
    raisers = set()
    for path in sorted((Path(__file__).parents[1] / "src" / "reidemeister").glob("*.py")):
        tree = ast.parse(path.read_text())
        # each node's innermost function; a module-level raise is under None
        owner = {id(node): fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                texts = [c.value for c in ast.walk(node.exc) if isinstance(c, ast.Constant) and isinstance(c.value, str)]
                if any(phrase in text for text in texts for phrase in phrases):
                    raisers.add((path.stem, owner.get(id(node))))
    assert raisers == {("exactlin", "_unimodular"), ("exactlin", "_int_pair"), ("exactlin", "_heisenberg_parameter")}
    assert spectra.HypothesisError is HypothesisError and issubclass(HypothesisError, ValueError)
