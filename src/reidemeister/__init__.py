"""Exact Reidemeister numbers and spectra for solvmanifold fundamental
groups of Hirsch length at most 4."""

__version__ = "0.1.0"

from .exactlin import (
    IntMatrix,
    finite_order,
    parse_matrix,
    unit_root_split,
)
from .twisted import (
    RNumber,
    r_abelian,
    r_addition,
    r_averaging,
)
from .groups import (
    AutomorphismSpec,
    ClassLabeling,
    FreeAbelian,
    GroupElement,
    Heisenberg,
    HeisenbergTimesZ,
    HnSemidirectZ,
    Z2MinusIExt,
    ZnSemidirectZ,
    label_classes,
    rnumber,
    verify_automorphism,
    witness,
)
from .spectra import (
    SpectrumDescriptor,
    SpectrumResult,
    System2Witness,
    classify_hn_semidirect,
    classify_nilpotent,
    classify_z2_minusI_ext,
    classify_z2_semidirect,
    classify_z3_semidirect,
    decide_system2,
    decide_z3_eight,
    tahara_delta,
)
