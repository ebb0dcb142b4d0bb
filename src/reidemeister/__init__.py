"""Exact Reidemeister numbers and spectra for solvmanifold fundamental
groups of Hirsch length at most 4.  The public names are looked up on
first use (PEP 562), so ``import reidemeister`` loads no submodule.
A group element is its exponent tuple; the families of ``groups``
compute on those tuples, and there is no element class to export.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it
_MODULE_OF = {
    name: module
    for module, names in {
        "exactlin": "IntMatrix finite_order parse_matrix unit_root_split",
        "twisted": "RNumber r_abelian r_addition r_averaging",
        "groups": "AutomorphismSpec ClassLabeling FreeAbelian Heisenberg HeisenbergTimesZ HnSemidirectZ"
        " Z2MinusIExt ZnSemidirectZ label_classes rnumber verify_automorphism witness",
        "spectra": "SpectrumDescriptor SpectrumResult System2Witness classify_hn_semidirect classify_nilpotent"
        " classify_z2_minusI_ext classify_z2_semidirect classify_z3_semidirect decide_system2 decide_z3_eight"
        " tahara_delta",
    }.items()
    for name in names.split()
}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF.values():  # so ``reidemeister.groups`` works after ``import reidemeister``
        return import_module("." + name, __name__)
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(import_module("." + _MODULE_OF[name], __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
