"""Command line interface.

Exit codes: 0 success (and, for analyze, verdict holds; for semismall,
all strata pass), 1 bad input of any kind, usage errors included, 2
group order bound exceeded, 3 negative mathematical outcome (obstructed
verdict, or a semismallness failure).  Bad input is a usage error, a
file that cannot be read or decoded as UTF-8, or a BadInput, the one
class every module's input errors derive from; main() catches nothing
else.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys

from . import _deferred
from .errors import (
    DEFAULT_INPUT_TOL, DEFAULT_MAX_ORDER, DEFAULT_PAIR_TOL, BadInput,
    OrderBoundExceeded,
)
from .jsonin import load_json, refuse_unknown_keys

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_ORDER_BOUND = 2
EXIT_NEGATIVE = 3


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with the bad-input
    code, not argparse's 2, which here means the order bound; its
    subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, "%s: error: %s\n" % (self.prog, message))


def _read_file(path) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_output(text, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


# The exact stack, and `spectrum` with numpy, load on the first call of
# the command that runs them, so that no other command, --help or usage
# error compiles them.  These names stay attributes of this module,
# looked up by the handlers at each call, because they are the tracer's
# patch sites: a tracer that replaces one here sees every call.  A
# handler reads its input file before it imports the exact stack, so a
# file that cannot be read costs no compile.
parse_group_spec = _deferred("parse_group_spec")
report_to_json = _deferred("report_to_json")
report_to_text = _deferred("report_to_text")
serialize_group_spec = _deferred("serialize_group_spec")
double = _deferred("double")
build_lattice = _deferred("build_lattice")
get_entry = _deferred("get_entry")
symplectic_eigenvalues = _deferred("symplectic_eigenvalues")


def _cmd_analyze(args) -> int:
    text = _read_file(args.spec)
    from .reflections import VERDICT_HOLDS
    from .specio import analyze, make_group

    doc = parse_group_spec(text)
    if doc.symplectic_form is None:
        raise BadInput(
            "analysis needs a symplectic form to preserve; add one to the "
            "input document, or double the linear action first"
        )
    group = make_group(doc, args.max_order)
    report = analyze(group, with_strata=args.strata)
    rendered = report_to_json(report) if args.json else report_to_text(report)
    sys.stdout.write(rendered)
    return EXIT_OK if report.verdict == VERDICT_HOLDS else EXIT_NEGATIVE


def _cmd_semismall(args) -> int:
    text = _read_file(args.spec)
    from .specio import make_group
    from .stratification import parse_fiber_data, semismall_check

    group = make_group(parse_group_spec(text), args.max_order)
    fibers = parse_fiber_data(_read_file(args.fibers))
    lattice = build_lattice(group)
    result = semismall_check(lattice, fibers)
    for check in result.checks:
        print(
            "stratum %d: codim %d, fiber %d -> %s"
            % (
                check.stratum_index,
                check.codim,
                check.fiber_dim,
                "ok" if check.ok else "FAIL",
            )
        )
    print("semismall: %s" % ("yes" if result.passed else "no"))
    return EXIT_OK if result.passed else EXIT_NEGATIVE


def _cmd_double(args) -> int:
    text = _read_file(args.spec)
    from .specio import MAX_DIMENSION, make_group, spec_from_group

    doc = parse_group_spec(text)
    if doc.symplectic_form is not None:
        raise BadInput(
            "doubling takes a plain linear action; remove the "
            "symplectic form from the input document"
        )
    if 2 * doc.dimension > MAX_DIMENSION:
        raise BadInput(
            "doubling dimension %d gives %d, over the maximum %d"
            % (doc.dimension, 2 * doc.dimension, MAX_DIMENSION)
        )
    group = make_group(doc, args.max_order)
    doubled = double(group)
    out = serialize_group_spec(spec_from_group(doc.name + "_doubled", doubled))
    _write_output(out, args.output)
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.catalog_command == "list":
        from .catalog import CATALOG

        for entry in CATALOG:
            print(
                "%-28s dim %2d  order %7d  %-24s %s"
                % (
                    entry.name,
                    entry.dimension,
                    entry.expected_order,
                    entry.expected_verdict,
                    entry.summary,
                )
            )
        return EXIT_OK
    from .specio import spec_from_group

    entry = get_entry(args.name)
    group = entry.build()
    out = serialize_group_spec(spec_from_group(entry.name, group))
    _write_output(out, args.output)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    payload = load_json(_read_file(args.theta), BadInput)
    if not isinstance(payload, dict) or "theta" not in payload:
        raise BadInput('spectrum input needs a "theta" matrix')
    refuse_unknown_keys(payload, ("theta", "metric"), BadInput)
    # before numpy's first import, OpenBLAS gets one thread unless
    # OPENBLAS_NUM_THREADS says otherwise: one small SVD never uses a
    # thread pool, and starting one costs more than the SVD
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    values = symplectic_eigenvalues(
        payload["theta"],
        payload.get("metric"),
        input_tol=args.input_tol,
        pair_tol=args.pair_tol,
    )
    for v in values:
        print("%.12g" % v)
    return EXIT_OK


def _positive_int(text) -> int:
    # argparse's own message for a non-integer; 0 and below are usage errors too
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError("%d is not a positive integer" % value)
    return value


def _add_max_order(parser) -> None:
    parser.add_argument(
        "--max-order",
        type=_positive_int,
        default=DEFAULT_MAX_ORDER,
        metavar="N",
        help="bound on the group order before giving up (default %d)"
        % DEFAULT_MAX_ORDER,
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="sympref",
        description=(
            "Exact reflection analysis of finite symplectic matrix groups"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "analyze", help="decide whether symplectic reflections generate"
    )
    p.add_argument("spec", help="group specification JSON file")
    p.add_argument(
        "--json", action="store_true", help="JSON report (default: text)"
    )
    p.add_argument(
        "--strata", action="store_true", help="include the stratum orbits"
    )
    _add_max_order(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser(
        "semismall", help="check semismallness of supplied fiber dimensions"
    )
    p.add_argument("spec", help="group specification JSON file")
    p.add_argument("fibers", help="fiber dimension JSON file")
    _add_max_order(p)
    p.set_defaults(handler=_cmd_semismall)

    p = sub.add_parser(
        "double", help="double a linear action onto the dual pairing space"
    )
    p.add_argument("spec", help="group specification JSON file (no form)")
    p.add_argument("-o", "--output", help="write the doubled spec here")
    _add_max_order(p)
    p.set_defaults(handler=_cmd_double)

    p = sub.add_parser("catalog", help="named example groups")
    catalog_sub = p.add_subparsers(dest="catalog_command", required=True)
    lp = catalog_sub.add_parser("list", help="list the catalog")
    lp.set_defaults(handler=_cmd_catalog)
    ep = catalog_sub.add_parser("emit", help="emit a catalog group as JSON")
    ep.add_argument("name", help="catalog entry name")
    ep.add_argument("-o", "--output", help="write the emitted group file here")
    ep.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser(
        "spectrum", help="symplectic eigenvalues of an antisymmetric form"
    )
    p.add_argument("theta", help='JSON file {"theta": [[...]], "metric": optional}')
    p.add_argument(
        "--input-tol",
        type=float,
        default=DEFAULT_INPUT_TOL,
        help="relative symmetry tolerance (default %g)" % DEFAULT_INPUT_TOL,
    )
    p.add_argument(
        "--pair-tol",
        type=float,
        default=DEFAULT_PAIR_TOL,
        help="relative pairing tolerance (default %g)" % DEFAULT_PAIR_TOL,
    )
    p.set_defaults(handler=_cmd_spectrum)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except OrderBoundExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ORDER_BOUND
    except (BadInput, OSError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT


def _watched() -> bool:
    """Whether a tracer or profiler watches this process; from Python
    3.12 on, cProfile and coverage may use sys.monitoring instead."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6)
    )


def _flushed() -> bool:
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except (OSError, ValueError):
            return False
    return True


def cli() -> None:
    """The command line: run main() and exit with its code.

    A finished command skips interpreter teardown, the finalization of
    every module and the freeing of every object: it runs the atexit
    handlers (which also clears them), flushes stdout and stderr, and
    leaves with os._exit.  It exits through sys.exit as usual when a
    tracer or profiler watches the process, or when a flush fails, so
    that the interpreter reports the failed flush and exits 120.  An
    exception from main(), SystemExit from usage errors and --help
    included, propagates unchanged."""
    code = main()
    if not _watched():
        atexit._run_exitfuncs()
        if _flushed():
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    cli()
