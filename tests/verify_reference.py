"""Hand-written presentations and word evaluation on exponent tuples,
kept as the reference for ``verify_automorphism``.

The library reads each relation g_j g_i = NF(g_j g_i), i < j, off the
family's ``multiply``; here every right-hand side is written out by hand
from the family's definition, as a word of (generator index, exponent)
letters in slot order.  Each word is a product of powers of the image
tuples that starts from the identity, and each power is the plain binary
power that squares past its last set bit, not the family's ``power``.
This is slow but short enough to audit by eye.
"""

from itertools import combinations

from reidemeister.groups import (
    AutomorphismSpec,
    FreeAbelian,
    GroupFamily,
    Heisenberg,
    HeisenbergTimesZ,
    HnSemidirectZ,
    VerificationResult,
    Z2MinusIExt,
    ZnSemidirectZ,
)


def _commuting(i, j):
    return (j, i), ((i, 1), (j, 1))


def _heisenberg(n):
    # z central, y x = x y z^n
    x, y, z = 0, 1, 2
    return [_commuting(x, z), _commuting(y, z), ((y, x), ((x, 1), (y, 1), (z, n)))]


def _action(conj, gens, a):
    # conj g_i = (column i of A over gens) conj
    return [
        ((conj, gen), tuple((g, e) for g, e in zip(gens, a.column(i))) + ((conj, 1),))
        for i, gen in enumerate(gens)
    ]


def presentation(family):
    """{(j, i): the word g_j g_i equals} for every i < j."""
    if isinstance(family, FreeAbelian):
        rels = [_commuting(i, j) for i, j in combinations(range(family.n), 2)]
    elif isinstance(family, Heisenberg):
        rels = _heisenberg(family.n)
    elif isinstance(family, HeisenbergTimesZ):
        rels = _heisenberg(family.n) + [_commuting(g, 3) for g in range(3)]  # u central
    elif isinstance(family, ZnSemidirectZ):
        n = family.n
        rels = [_commuting(i, j) for i, j in combinations(range(n), 2)]
        rels += _action(n, range(n), family.action)  # t v t^-1 = A v
    elif isinstance(family, Z2MinusIExt):
        e1, e2, t, u = 0, 1, 2, 3
        rels = [
            _commuting(e1, e2),
            ((t, e1), ((e1, -1), (t, 1))),  # t v t^-1 = -v
            ((t, e2), ((e2, -1), (t, 1))),
        ]
        rels += _action(u, (e1, e2), family.action)  # u v u^-1 = A v
        rels.append(((u, t), ((e1, family.n0[0]), (e2, family.n0[1]), (t, 1), (u, 1))))  # u t u^-1 = n0 t
    elif isinstance(family, HnSemidirectZ):
        x, y, z, t = 0, 1, 2, 3
        rels = _heisenberg(family.n) + [
            ((t, x), ((x, -1), (z, family.k), (t, 1))),  # t x t^-1 = x^-1 z^k
            ((t, y), ((y, -1), (z, family.l), (t, 1))),  # t y t^-1 = y^-1 z^l
            ((t, z), ((z, 1), (t, 1))),
        ]
    else:
        raise TypeError("no reference presentation for %r" % (family,))
    return dict(rels)


def _power(family: GroupFamily, g: tuple, k: int) -> tuple:
    base = g if k >= 0 else family.inverse(g)
    k = abs(k)
    result = (0,) * family.slots
    while k:
        if k & 1:
            result = family.multiply(result, base)
        base = family.multiply(base, base)
        k >>= 1
    return result


def _word_product(spec: AutomorphismSpec, word) -> tuple:
    family = spec.family
    result = (0,) * family.slots
    for idx, exp in word:
        result = family.multiply(result, _power(family, spec.images[idx], exp))
    return result


def _render(names, word) -> str:
    return "<%s>" % " ".join("%s^%d" % (names[g], e) for g, e in word if e)


def reference_verify(spec: AutomorphismSpec) -> VerificationResult:
    """The layer check, else the first violated relation, pairs (i, j)
    in lexicographic order."""
    try:
        failure = spec.family.layer_failure(spec)
    except ValueError as exc:
        failure = str(exc)
    if failure:
        return VerificationResult(False, failure)
    names, rels = spec.family.generator_names, presentation(spec.family)
    for i, j in combinations(range(spec.family.slots), 2):
        rhs = rels[j, i]
        if _word_product(spec, ((j, 1), (i, 1))) != _word_product(spec, rhs):
            return VerificationResult(False, "relation violated: %s %s = %s" % (names[j], names[i], _render(names, rhs)))
    return VerificationResult(True)
