"""Two hashes over fixed corpora of classifier answers.

A change that claims to keep every answer the same is checked here: the
sha256 of a sorted-key JSON dump of the answers must equal the committed
value.  Every classifier runs at bound 100; only the z2 answers read it,
as the z3 block and the double extension are decided exactly.

``golden/answers.sha256``:

* every unimodular 2x2 matrix in [-4,4]^4, through ``classify_z2_semidirect``;
* every hyperbolic det-1 A in that box with n0 in [-2,2]^2, through
  ``classify_z2_minusI_ext``;
* the same A with c_row in [-2,2]^2, through ``decide_z3_eight``.

``golden/ladders.sha256`` pins the eigenvalue ladders of the other
classifiers; a refusal is recorded as its exception class and message:

* every unimodular 3x3 matrix in [-1,1]^9, through ``classify_z3_semidirect``;
* every det +-1 matrix in [-2,2]^4 with n0 in [-1,1]^2, through
  ``classify_z2_minusI_ext``;
* the same matrices with n = 1..4 and central twists in [-1,1]^2, through
  ``classify_hn_semidirect``.

When a change is meant to alter one of these answers, diff the JSON dumps
of ``answers()`` and ``ladders()`` before and after it, regenerate both
hashes with ``PYTHONPATH=src python tests/test_answer_digest.py``, and say
why in the change.
"""

from __future__ import annotations

import hashlib
from itertools import product
import json
from pathlib import Path

from reidemeister.exactlin import IntMatrix
from reidemeister.spectra import (
    classify_hn_semidirect,
    classify_z2_minusI_ext,
    classify_z2_semidirect,
    classify_z3_semidirect,
    decide_z3_eight,
)

DIGEST_FILE = Path(__file__).parent / "golden" / "answers.sha256"
LADDER_FILE = Path(__file__).parent / "golden" / "ladders.sha256"
BOUND = 100


def _result_json(res) -> dict:
    return {"spectrum": res.spectrum.to_json_dict(), "trace": list(res.trace), "evidence": res.evidence}


def _decision_json(dec) -> dict:
    return {
        "outcome": dec.outcome,
        "witness": dec.witness.to_json_dict() if dec.witness else None,
        "n_row": list(dec.n_row) if dec.n_row else None,
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
            "%s|%d,%d" % (m.to_text(), *c): _decision_json(decide_z3_eight(m, c))
            for m in hyperbolic
            for c in small
        },
    }


def _outcome_json(call) -> dict:
    try:
        return _result_json(call())
    except ValueError as exc:
        return {"error": "%s: %s" % (type(exc).__name__, exc)}


def ladders() -> dict:
    cube = (IntMatrix(3, 3, e) for e in product(range(-1, 2), repeat=9))
    box = [IntMatrix.from_rows([[a, b], [c, d]]) for a, b, c, d in product(range(-2, 3), repeat=4)]
    unimodular = [m for m in box if m.det() in (1, -1)]
    small = list(product(range(-1, 2), repeat=2))
    return {
        "z3": {
            m.to_text(): _outcome_json(lambda: classify_z3_semidirect(m, BOUND))
            for m in cube
            if m.det() in (1, -1)
        },
        "double-ext": {
            "%s|%d,%d" % (m.to_text(), *n0): _outcome_json(lambda: classify_z2_minusI_ext(m, n0, BOUND))
            for m in unimodular
            for n0 in small
        },
        "hn": {
            "%d|%s|%d,%d" % (n, m.to_text(), *tw): _outcome_json(lambda: classify_hn_semidirect(n, m, BOUND, tw))
            for n in range(1, 5)
            for m in unimodular
            for tw in small
        },
    }


def _digest(corpus: dict) -> str:
    text = json.dumps(corpus, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digest() -> str:
    return _digest(answers())


def ladder_digest() -> str:
    return _digest(ladders())


def test_answers_match_committed_digest():
    assert digest() == DIGEST_FILE.read_text().split()[0]


def test_ladders_match_committed_digest():
    assert ladder_digest() == LADDER_FILE.read_text().split()[0]


if __name__ == "__main__":
    for path, compute in ((DIGEST_FILE, digest), (LADDER_FILE, ladder_digest)):
        path.write_text(compute() + "\n")
        print(path.name, path.read_text(), end="")
