"""Command-line front end.

Subcommands: rnumber, spectrum, decide, tables, oracle.  Results go to
stdout wrapped in an envelope (result payload, derivation trace, tool
version, search bound); diagnostics go to stderr.  Exit codes: 0 for a
decided result, 2 when a z2-semidirect spectrum or ``decide`` finds no
solution within the bound or an oracle ball misses a twisted class, 1 on
input errors (argument errors included, as one ``error:`` line) and
internal failures.  The bound affects only those two answers; --bound
sets it (default DEFAULT_BOUND) and is refused above MAX_BOUND.

Each ``--family`` slug builds one group from its flags (``FAMILY_TABLE``):
``spectrum`` classifies it, ``rnumber`` and ``oracle`` take witnesses on
it.  ``hn-semidirect`` reads ``--matrix`` (default -I) and ``--k``/``--l``
(default 0), and has automorphisms only for the inverting action -I.

Only ``exactlin`` is imported up front; ``groups`` and ``spectra`` are
imported where a subcommand uses them, so ``decide``, ``tables`` and
``spectrum`` on z2, z3, double-ext and hn-semidirect never load
``groups``, and ``rnumber`` and ``oracle`` never load ``spectra``.
"""

from __future__ import annotations

import argparse
from contextlib import redirect_stdout
from dataclasses import replace as _dc_replace
import json
import sys
from typing import Callable, NamedTuple

from . import __version__
from .exactlin import IntMatrix, MatrixParseError, parse_matrix, parse_vector

DEFAULT_BOUND = 10_000
# largest accepted bound on |m| for the z2 spectrum and decide
MAX_BOUND = 10**6

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors end in one ``error:`` line and exit
    code 1 like every other input error; subparsers inherit the class."""

    def error(self, message):
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="reidemeister",
        description="Exact Reidemeister numbers and spectra for solvmanifold fundamental groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--bound", type=int, default=DEFAULT_BOUND,
                        help="bound on |m| for z2-semidirect and decide (default %d)" % DEFAULT_BOUND)

    fam = argparse.ArgumentParser(add_help=False)
    fam.add_argument("--family", help="family slug (see README); not needed with --spec-json")
    fam.add_argument("--matrix", help="acting matrix, rows separated by ';', entries by ','")
    fam.add_argument("--n0", help="inner twist vector for the double extension, e.g. '1,0'")
    fam.add_argument("--n", type=int, help="rank / Heisenberg parameter")
    fam.add_argument("--k", type=int, default=0, help="central twist of x for hn-semidirect (default 0)")
    fam.add_argument("--l", type=int, default=0, help="central twist of y for hn-semidirect (default 0)")

    p = sub.add_parser("rnumber", parents=[common, fam], help="Reidemeister number of one automorphism")
    p.add_argument("--witness", help="witness id (phi_m, M_m, phi_alpha, M_r, phi_eight, target, negation)")
    p.add_argument("--param", type=int, help="witness parameter")
    p.add_argument("--spec-json", help="path to an automorphism JSON file ('-' for stdin)")

    sub.add_parser("spectrum", parents=[common, fam], help="Reidemeister spectrum of a group")

    p = sub.add_parser("decide", parents=[common], help="decide the quadratic system for a 2x2 matrix")
    p.add_argument("--matrix", required=True)

    sub.add_parser("tables", parents=[common], help="emit the classification tables")

    p = sub.add_parser("oracle", parents=[common, fam], help="twisted-conjugacy labeling over a bounded ball")
    p.add_argument("--witness", help="witness id")
    p.add_argument("--param", type=int, help="witness parameter")
    p.add_argument("--spec-json", help="path to an automorphism JSON file ('-' for stdin)")
    p.add_argument("--radius", type=int, required=True)
    return parser


def _resolve_bound(args) -> int:
    value = args.bound
    if value < 1:
        raise CliError("bound must be >= 1")
    if value > MAX_BOUND:
        raise CliError("--bound %d exceeds the search bound cap MAX_BOUND = %d" % (value, MAX_BOUND))
    return value


def _need(args, attr, message):
    value = getattr(args, attr, None)
    if value is None:
        raise CliError(message)
    return value


def _matrix_arg(args, dim=None) -> IntMatrix:
    text = _need(args, "matrix", "--matrix is required for this family")
    m = parse_matrix(text)
    if dim is not None and (m.rows, m.cols) != (dim, dim):
        raise CliError("expected a %dx%d matrix, got %dx%d" % (dim, dim, m.rows, m.cols))
    return m


def _n_arg(args) -> int:
    return _need(args, "n", "--n is required for %s" % args.family)


def _n0_arg(args) -> tuple[int, ...]:
    return parse_vector(_need(args, "n0", "--n0 is required for double-ext"))


def _hn_action(args) -> IntMatrix:
    return _matrix_arg(args, 2) if args.matrix is not None else -IntMatrix.identity(2)


def _hn_family(groups, args):
    if _hn_action(args) != -IntMatrix.identity(2):
        raise CliError("hn-semidirect automorphisms need the inverting action --matrix=-1,0;0,-1")
    return groups.HnSemidirectZ(_n_arg(args), args.k, args.l)


class CliFamily(NamedTuple):
    """One row of the CLI family table: ``build(args)`` makes the group
    family that ``--witness`` acts on, and ``classify(args, bound)``
    computes the spectrum of that group.  ``make(groups, args)`` and
    ``spectrum(spectra, args, bound)`` are handed their module, imported
    only when the row is used; a row without ``spectrum`` is nilpotent."""

    make: Callable
    spectrum: Callable | None = None

    def build(self, args):
        from . import groups
        return self.make(groups, args)

    def classify(self, args, bound):
        from . import spectra
        if self.spectrum is None:
            return spectra.classify_nilpotent(self.build(args))
        return self.spectrum(spectra, args, bound)


FAMILY_TABLE = {
    "z2-semidirect": CliFamily(
        lambda groups, args: groups.ZnSemidirectZ(_matrix_arg(args, 2)),
        lambda spectra, args, bound: spectra.classify_z2_semidirect(_matrix_arg(args, 2), bound),
    ),
    "z3-semidirect": CliFamily(
        lambda groups, args: groups.ZnSemidirectZ(_matrix_arg(args, 3)),
        lambda spectra, args, bound: spectra.classify_z3_semidirect(_matrix_arg(args, 3), bound),
    ),
    "double-ext": CliFamily(
        lambda groups, args: groups.Z2MinusIExt(_matrix_arg(args, 2), _n0_arg(args)),
        lambda spectra, args, bound: spectra.classify_z2_minusI_ext(_matrix_arg(args, 2), _n0_arg(args), bound),
    ),
    "hn-semidirect": CliFamily(
        _hn_family,
        lambda spectra, args, bound: spectra.classify_hn_semidirect(
            _n_arg(args), _hn_action(args), bound, (args.k, args.l)
        ),
    ),
    "free-abelian": CliFamily(lambda groups, args: groups.FreeAbelian(_n_arg(args))),
    "heisenberg": CliFamily(lambda groups, args: groups.Heisenberg(_n_arg(args))),
    "heisenberg-times-z": CliFamily(lambda groups, args: groups.HeisenbergTimesZ(_n_arg(args))),
    "three-step": CliFamily(lambda groups, args: groups.THREE_STEP),
}


def _family_row(args) -> CliFamily:
    slug = _need(args, "family", "--family is required")
    row = FAMILY_TABLE.get(slug)
    if row is None:
        raise CliError("unknown family %r" % slug)
    return row


def _spec_from_args(args):
    from . import groups
    if getattr(args, "spec_json", None):
        try:
            if args.spec_json == "-":
                data = json.load(sys.stdin)
            else:
                with open(args.spec_json) as handle:
                    data = json.load(handle)
        except RecursionError:
            raise CliError("automorphism JSON is nested too deeply") from None
        spec = groups.AutomorphismSpec.from_json_dict(data)
        report = groups.verify_automorphism(spec)
        if not report:
            raise CliError("automorphism verification failed: %s" % report.failure)
        return _dc_replace(spec, verified=True)
    name = _need(args, "witness", "either --spec-json or --witness/--param is required")
    param = _need(args, "param", "--param is required with --witness")
    return groups.witness(_family_row(args).build(args), name, param)


def _envelope(result, trace, bound) -> dict:
    return {"result": result, "trace": list(trace), "version": __version__, "bound": bound}


def _emit(envelope: dict, fmt: str, out) -> None:
    if fmt == "json":
        # a spectrum descriptor is the one value JSON cannot encode by itself
        out.write(json.dumps(envelope, sort_keys=True, separators=(",", ":"), default=lambda d: d.to_json_dict()))
        out.write("\n")
        return
    out.write(_render_text(envelope))


def _render_text(envelope: dict) -> str:
    lines = []
    result = envelope["result"]
    if "tables" in result:
        for table_name in sorted(result["tables"]):
            lines.append("== %s ==" % table_name)
            for row in result["tables"][table_name]:
                cell = " or ".join(d.render() for d in row["spectrum"])
                lines.append("  %-48s %s" % (row["case"], cell))
            lines.append("")
    else:
        for key in sorted(result):
            value = result[key]
            if key == "spectrum":
                value = value.render()
            lines.append("%s: %s" % (key, _plain(value)))
    lines.append("trace: %s" % " > ".join(envelope["trace"]))
    lines.append("bound: %s" % envelope["bound"])
    return "\n".join(lines) + "\n"


def _plain(value) -> str:
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def run(argv, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        with redirect_stdout(stdout):  # --help and --version
            args = build_parser().parse_args(argv)
        bound = _resolve_bound(args)
        if args.command == "rnumber":
            from . import groups
            value, trace = groups.rnumber_with_trace(_spec_from_args(args))
            _emit(_envelope({"rnumber": value.to_json()}, trace, bound), args.format, stdout)
            return EXIT_OK
        if args.command == "spectrum":
            res = _family_row(args).classify(args, bound)
            payload = {"spectrum": res.spectrum}
            if res.evidence:
                payload["evidence"] = dict(res.evidence)
            _emit(_envelope(payload, res.trace, bound), args.format, stdout)
            return EXIT_UNDECIDED if res.spectrum.kind == "undecided" else EXIT_OK
        if args.command == "decide":
            from . import spectra
            decision = spectra.decide_system2(parse_matrix(args.matrix), bound)
            payload = {"outcome": decision.outcome}
            trace = ["system2:%s" % decision.outcome]
            if decision.witness is not None:
                payload["witness"] = decision.witness.to_json_dict()
            _emit(_envelope(payload, trace, bound), args.format, stdout)
            return EXIT_UNDECIDED if decision.outcome == "none-up-to-bound" else EXIT_OK
        if args.command == "tables":
            from . import spectra
            tables = spectra.conclusion_tables()
            _emit(_envelope({"tables": tables}, ["tables:classification"], bound), args.format, stdout)
            return EXIT_OK
        if args.command == "oracle":
            from . import groups
            spec = _spec_from_args(args)
            labeling = groups.label_classes(spec, args.radius)
            value, _ = groups.rnumber_with_trace(spec)
            payload = {
                "classes": labeling.class_count,
                "complete": labeling.complete,
                "radius": labeling.ball_radius,
                "formula": value.to_json(),
            }
            _emit(_envelope(payload, ["oracle:series-labels"], bound), args.format, stdout)
            return EXIT_OK if labeling.complete else EXIT_UNDECIDED
        raise CliError("unknown command %r" % args.command)
    except SystemExit as exc:
        # only --help and --version exit here; a parse error raises CliError
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    except (CliError, MatrixParseError, ValueError, OSError) as exc:
        stderr.write("error: %s\n" % exc)
        return EXIT_ERROR
    except AssertionError as exc:
        # a failed internal consistency check (witness verification, the
        # block basis change of a z3 matrix) is reported, never a traceback
        stderr.write("error: internal error: %s\n" % exc)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
