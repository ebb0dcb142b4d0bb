"""Which layers a request loads, and the lazy package surface.

Each CLI subcommand imports only the modules it uses, so most requests
never pay for ``groups`` (and ``twisted``) or for ``spectra``; of the
witnesses, only ``phi_eight`` loads ``spectra``.  The module-set tests
run each benchmarked CLI request (every README example plus the
hyperbolic z2 matrix -6,1;-1,0) and a ``phi_eight`` request in a fresh
interpreter through ``cli.run`` and compare the ``reidemeister.*``
modules it leaves in ``sys.modules``, and whether ``dataclasses`` and
``inspect`` are among them; they guard against a stray top-level import.
"""

from __future__ import annotations

import ast
import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

import reidemeister
from reidemeister.groups import HeisenbergTimesZ, witness

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

PKG = {"reidemeister"}
CLI = PKG | {"reidemeister.cli", "reidemeister.exactlin"}
SPECTRA_ONLY = CLI | {"reidemeister.spectra"}
GROUPS_ONLY = CLI | {"reidemeister.groups", "reidemeister.twisted"}
EVERYTHING = SPECTRA_ONLY | GROUPS_ONLY

# (argv, exit code, the reidemeister modules loaded afterwards)
REQUESTS = [
    (["spectrum", "--family", "z2-semidirect", "--matrix", "2,3;3,5"], 0, SPECTRA_ONLY),
    (["spectrum", "--family", "z3-semidirect", "--matrix", "1,0,1;0,5,2;0,2,1"], 0, SPECTRA_ONLY),
    (["spectrum", "--family", "double-ext", "--matrix", "5,2;2,1", "--n0", "1,0"], 0, SPECTRA_ONLY),
    (["spectrum", "--family", "hn-semidirect", "--n", "2", "--k", "1", "--l", "0"], 0, SPECTRA_ONLY),
    (["spectrum", "--family", "z2-semidirect", "--matrix=-6,1;-1,0"], 2, SPECTRA_ONLY),
    (["decide", "--matrix", "2,3;3,5"], 0, SPECTRA_ONLY),
    (["tables", "--format", "text"], 0, SPECTRA_ONLY),
    (["rnumber", "--family", "heisenberg-times-z", "--n", "1", "--witness", "phi_m", "--param", "3"], 0, GROUPS_ONLY),
    (["rnumber", "--spec-json", "{phi_json}"], 0, GROUPS_ONLY),
    # phi_eight reads its block off the spectrum's evidence
    (["rnumber", "--family", "double-ext", "--matrix", "2,3;3,5", "--n0", "0,0", "--witness", "phi_eight",
      "--param", "1"], 0, EVERYTHING),
    (["oracle", "--family", "z2-semidirect", "--matrix=-1,0;0,-1", "--witness", "M_m", "--param", "2",
      "--radius", "3"], 0, GROUPS_ONLY),
    # a nilpotent spectrum classifies a group object, so it needs both layers
    (["spectrum", "--family", "heisenberg-times-z", "--n", "1"], 0, EVERYTHING),
    (["spectrum", "--family", "three-step"], 0, EVERYTHING),
    (["--version"], 0, CLI),
]

RUN = """
import io, json, sys
from reidemeister import cli
code = cli.run(json.loads(sys.argv[1]), io.StringIO(), io.StringIO())
print(json.dumps([
    code,
    sorted(m for m in sys.modules if m.split(".")[0] == "reidemeister"),
    [m for m in ("dataclasses", "inspect") if m in sys.modules],
]))
"""


def _fresh(script: str, *args: str) -> list:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("argv, code, modules", REQUESTS, ids=[" ".join(argv) for argv, _, _ in REQUESTS])
def test_a_request_loads_only_its_layers(argv, code, modules, tmp_path):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(witness(HeisenbergTimesZ(1), "phi_m", 2).to_json_dict()))
    argv = [str(phi) if a == "{phi_json}" else a for a in argv]
    # AutomorphismSpec is the one dataclass (callers ``replace`` it), so
    # exactly the requests that load groups load dataclasses, and inspect
    stdlib = ["dataclasses", "inspect"] if "reidemeister.groups" in modules else []
    assert _fresh(RUN, json.dumps(argv)) == [code, sorted(modules), stdlib]


def test_importing_the_package_loads_no_submodule():
    script = "import json, sys, reidemeister; print(json.dumps([m for m in sys.modules if m.startswith('reidemeister')]))"
    assert _fresh(script) == sorted(PKG)


# ---------------------------------------------------------------------------
# the lazy package surface

EXPORTS = {
    "exactlin": ["IntMatrix", "finite_order", "parse_matrix", "unit_root_split"],
    "twisted": ["RNumber", "r_abelian", "r_class_sum"],
    "groups": [
        "AutomorphismSpec", "ClassLabeling", "FreeAbelian", "Heisenberg", "HeisenbergTimesZ", "HnSemidirectZ",
        "Z2MinusIExt", "ZnSemidirectZ", "label_classes", "rnumber", "verify_automorphism", "witness",
    ],
    "spectra": [
        "SpectrumDescriptor", "SpectrumResult", "System2Witness", "classify_hn_semidirect", "classify_nilpotent",
        "classify_z2_minusI_ext", "classify_z2_semidirect", "classify_z3_semidirect", "decide_system2",
        "decide_z3_eight", "tahara_delta",
    ],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_every_export_is_the_object_of_its_module(module, name):
    value = getattr(reidemeister, name)
    source = sys.modules["reidemeister." + module]
    assert value is getattr(source, name)
    assert name in reidemeister.__all__ and name in dir(reidemeister)


def test_all_lists_exactly_the_exports_and_star_import_works():
    assert sorted(reidemeister.__all__) == sorted(name for _, name in NAMES)
    namespace: dict = {}
    exec("from reidemeister import *", namespace)
    assert {name: namespace[name] for _, name in NAMES} == {name: getattr(reidemeister, name) for _, name in NAMES}


def test_submodules_stay_attributes_of_the_package():
    for module in EXPORTS:
        assert getattr(reidemeister, module) is sys.modules["reidemeister." + module]


def test_an_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="no_such_name"):
        reidemeister.no_such_name


def test_three_step_is_one_object_bound_in_spectra_on_first_use():
    from reidemeister import groups, spectra

    assert spectra.THREE_STEP is groups.THREE_STEP
    assert vars(spectra)["THREE_STEP"] is groups.THREE_STEP  # later lookups are plain dict hits
    with pytest.raises(AttributeError, match="no_such_name"):
        spectra.no_such_name


def test_every_module_parses_at_the_declared_python_floor():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    modules = sorted((ROOT / "src" / "reidemeister").glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_only_groups_imports_dataclasses_or_inspect():
    # the import tests above cannot see a module loaded after groups, which
    # has already paid for dataclasses (AutomorphismSpec); a NamedTuple or
    # namedtuple class costs each request the exec of its methods too
    importers, named_tuples = set(), set()
    for path in (ROOT / "src" / "reidemeister").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            aliases = [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom) else []
            if {getattr(node, "id", None), getattr(node, "attr", None), *aliases} & {"NamedTuple", "namedtuple"}:
                named_tuples.add(path.stem)
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] in ("dataclasses", "inspect") for name in names):
                importers.add(path.stem)
    assert importers == {"groups"}
    assert not named_tuples, named_tuples


def test_every_module_level_cache_is_bounded():
    # a long-lived caller meets a new key per witness parameter or matrix,
    # so a cache kept for the life of the process must have a size
    import importlib
    import inspect

    sizes = {}
    for path in sorted((ROOT / "src" / "reidemeister").glob("*.py")):
        module = importlib.import_module("reidemeister" if path.stem == "__init__" else "reidemeister." + path.stem)
        owners = [(path.stem, module)] + [
            ("%s.%s" % (path.stem, name), cls) for name, cls in vars(module).items()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
        ]
        for prefix, owner in owners:
            for name in vars(owner):
                cached = getattr(owner, name)
                if callable(getattr(cached, "cache_info", None)):
                    sizes["%s.%s" % (prefix, name)] = cached.cache_info().maxsize
    expected = {
        "exactlin._walk", "exactlin._entries_order", "groups._series_shape",
        "groups._verify_value", "groups._holonomy_reading", "groups._ext_decision",
    }
    assert expected <= set(sizes), sizes
    assert all(size is not None for size in sizes.values()), sizes
