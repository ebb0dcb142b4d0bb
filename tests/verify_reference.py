"""The GroupElement word evaluation, kept as the reference for
``verify_automorphism``.

Each relation word is a product of GroupElement powers that starts from
the identity, and each power is the plain binary power that squares past
its last set bit.  This is slow but short enough to audit by eye.
"""

from reidemeister.groups import AutomorphismSpec, GroupElement, VerificationResult


def _power(g: GroupElement, k: int) -> GroupElement:
    base = g if k >= 0 else g.inverse()
    k = abs(k)
    result = g.family.identity
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def _word_product(spec: AutomorphismSpec, word) -> GroupElement:
    result = spec.family.identity
    for idx, exp in word:
        result = result * _power(spec.images[idx], exp)
    return result


def reference_verify(spec: AutomorphismSpec) -> VerificationResult:
    """The layer check, else the first violated relation."""
    try:
        failure = spec.family.layer_failure(spec)
    except ValueError as exc:
        failure = str(exc)
    if failure:
        return VerificationResult(False, failure)
    for name, lhs, rhs in spec.family.relations():
        if _word_product(spec, lhs) != _word_product(spec, rhs):
            return VerificationResult(False, "relation violated: %s" % name)
    return VerificationResult(True)
