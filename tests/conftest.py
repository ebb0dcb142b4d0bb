import random

from hypothesis import strategies as st
import pytest

from reidemeister.exactlin import IntMatrix


def random_matrix(rng: random.Random, n: int, limit: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(rng.randint(-limit, limit) for _ in range(n * n)))


def random_unimodular(rng: random.Random, n: int, limit: int) -> IntMatrix:
    """Rejection-sample a matrix with determinant +-1 and entries in [-limit, limit]."""
    while True:
        m = random_matrix(rng, n, limit)
        if m.det() in (1, -1):
            return m


def random_det_one(rng: random.Random, n: int, limit: int) -> IntMatrix:
    while True:
        m = random_matrix(rng, n, limit)
        if m.det() == 1:
            return m


def _compose(n: int, signs: tuple[int, ...], ops: list[tuple[int, int, int]]) -> IntMatrix:
    m = IntMatrix(n, n, tuple(signs[i] if i == j else 0 for i in range(n) for j in range(n)))
    for i, j, k in ops:
        if i != j:
            # add k times row j to row i
            m = IntMatrix(n, n, tuple(k * m[j, c] + m[i, c] if r == i else m[r, c] for r in range(n) for c in range(n)))
    return m


def unimodular_matrices(n: int, steps: int = 4):
    """Hypothesis strategy: a diagonal sign matrix times up to ``steps``
    elementary row operations with multipliers in [-2, 2], so every draw
    is unimodular, of either determinant."""
    ops = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2)), max_size=steps)
    return st.builds(_compose, st.just(n), st.tuples(*[st.sampled_from((1, -1))] * n), ops)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240831)
