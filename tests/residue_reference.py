"""The plain triple loop, kept as the reference for
``spectra._feasible_residues``.

It tries every (m, n, p) in [0, N)^3 against both equations of the
quadratic system, -m^2 - np = 1 and (a - d) m + b p + c n = 0, read
modulo N.  This is slow but short enough to audit by eye.
"""

from reidemeister.exactlin import IntMatrix


def reference_feasible_residues(a: IntMatrix, modulus: int) -> set[tuple[int, int, int]]:
    aa, bb, cc, dd = a.entries
    return {
        (m, n, p)
        for m in range(modulus)
        for n in range(modulus)
        for p in range(modulus)
        if (-m * m - n * p - 1) % modulus == 0 and ((aa - dd) * m + bb * p + cc * n) % modulus == 0
    }
