"""One hash over a fixed corpus of classifier answers.

A change that claims to keep every answer the same is checked here: the
sha256 of a sorted-key JSON dump of the answers must equal the committed
value in ``golden/answers.sha256``.  The corpus, all at bound 100:

* every unimodular 2x2 matrix in [-4,4]^4, through ``classify_z2_semidirect``;
* every hyperbolic det-1 A in that box with n0 in [-2,2]^2, through
  ``classify_z2_minusI_ext``;
* the same A with c_row in [-2,2]^2, through ``decide_z3_eight``.

When a change is meant to alter one of these answers, regenerate the
hash with ``PYTHONPATH=src python tests/test_answer_digest.py`` and say why
in the change.
"""

from __future__ import annotations

import hashlib
from itertools import product
import json
from pathlib import Path

from reidemeister.exactlin import IntMatrix
from reidemeister.spectra import classify_z2_minusI_ext, classify_z2_semidirect, decide_z3_eight

DIGEST_FILE = Path(__file__).parent / "golden" / "answers.sha256"
BOUND = 100


def _result_json(res) -> dict:
    return {"spectrum": res.spectrum.to_json_dict(), "trace": list(res.trace), "evidence": res.evidence}


def _decision_json(dec) -> dict:
    return {
        "outcome": dec.outcome,
        "witness": dec.witness.to_json_dict() if dec.witness else None,
        "n_row": list(dec.n_row) if dec.n_row else None,
        "bound": dec.bound,
        "obstruction_modulus": dec.obstruction_modulus,
    }


def answers() -> dict:
    box = [IntMatrix.from_rows([[a, b], [c, d]]) for a, b, c, d in product(range(-4, 5), repeat=4)]
    unimodular = [m for m in box if m.det() in (1, -1)]
    hyperbolic = [m for m in unimodular if m.det() == 1 and abs(m.trace()) > 2]
    small = list(product(range(-2, 3), repeat=2))
    return {
        "z2": {m.to_text(): _result_json(classify_z2_semidirect(m, BOUND)) for m in unimodular},
        "double-ext": {
            "%s|%d,%d" % (m.to_text(), *n0): _result_json(classify_z2_minusI_ext(m, n0, BOUND))
            for m in hyperbolic
            for n0 in small
        },
        "z3-eight": {
            "%s|%d,%d" % (m.to_text(), *c): _decision_json(decide_z3_eight(m, c, BOUND))
            for m in hyperbolic
            for c in small
        },
    }


def digest() -> str:
    text = json.dumps(answers(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_answers_match_committed_digest():
    assert digest() == DIGEST_FILE.read_text().split()[0]


if __name__ == "__main__":
    DIGEST_FILE.write_text(digest() + "\n")
    print(DIGEST_FILE.read_text(), end="")
