"""The benchmark's per-layer metrics still name code that exists.

``perfbench/tracing.py`` wraps the library by name (``Tracer.install``), and
a metric whose function or method is gone reads 0 on every run without
failing anything.  This test installs the tracer as a traced run does, feeds
``layer_metrics`` a summary in which every installed span and counter fired,
and checks which metrics still read 0.
"""

from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the span or counter names whose metrics read 0 because nothing installs
# them: five functions gone from the library (``unit_root_split`` and
# ``r_class_sum`` replace two of them), and ``GroupFamily.inverse``, which
# the tracer looks for on the subclasses only.  ROADMAP item 1 points each
# metric at its replacement or drops it, and empties this set.
UNRESOLVED = {
    "exactlin.eigenvalue_profile",
    "exactlin.smith_normal_form",
    "exactlin.lattice_membership",
    "twisted.r_averaging",
    "spectra.canonicalize_z2_by_z2",
    "groups.inverse",
}


def _tracing():
    spec = spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _EveryTally(dict):
    """Tallies come from hooks and the runner, not from install: all read 1."""

    def get(self, key, default=None):
        return 1


def test_only_the_known_metrics_name_nothing_the_tracer_installs():
    tracing = _tracing()
    counters = set()

    class Recorder(tracing.Tracer):
        def counter(self, name, fn):
            counters.add(name)
            return super().counter(name, fn)

    tracer = Recorder()
    tracer.install()
    try:
        spans = {name: [1, 1.0, 1.0] for name in tracer.names}
    finally:
        tracer.uninstall()
    summary = {"spans": spans, "counts": dict.fromkeys(counters, 1), "tallies": _EveryTally()}
    zero = {name for name, value in tracing.layer_metrics(summary).items() if not value}
    assert {name.rsplit(".", 1)[0] for name in zero} == UNRESOLVED, sorted(zero)
