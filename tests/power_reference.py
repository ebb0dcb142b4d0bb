"""Plain matrix powers and geometric sums, kept as the reference for
``exactlin._power_sum``, the power cache that ``IntMatrix.__pow__`` and
the group laws read.

The power is the square-and-multiply loop; the sum adds the powers one
by one.  Both are slow but short enough to audit by eye.
"""

from reidemeister.exactlin import IntMatrix


def reference_power(a: IntMatrix, k: int) -> IntMatrix:
    """A^k; k < 0 needs A unimodular."""
    if k < 0:
        return reference_power(a.inverse_unimodular(), -k)
    result = IntMatrix.identity(a.rows)
    base = a
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def reference_power_sum(a: IntMatrix, k: int) -> IntMatrix:
    """I + A + ... + A^(k-1), and -(A^-1 + ... + A^k) for k < 0."""
    total = IntMatrix.zero(a.rows, a.rows)
    for j in range(k) if k >= 0 else range(k, 0):
        total = total + reference_power(a, j)
    return total if k >= 0 else -total
