"""Each command imports only what it runs.  No command loads numpy:
`spectrum` runs on the standard library alone, even where numpy cannot
be imported (numpy's import alone cost more than most commands' own
work).  The catalog, and `dataclasses`, which its entries use, are for
`catalog` alone: start-up dominates most commands, and `dataclasses`
brings `inspect`, `ast`, `dis` and `tokenize` with it.  `stratification`
is for the commands that build a lattice: `analyze --strata` and
`semismall`; the subspace algebra, `Subspace`, lives there, so the other
commands do not compile it.  `spectrum` itself is for `spectrum` alone,
so the other commands do not compile it.  The exact stack (`cyclotomic`,
`linalg`, `groups`, `reflections`, `specio`, and `fractions` with them)
is for the commands that run it: `import sympref.cli`, `spectrum`,
--help, usage errors and a spec file that cannot be read do not compile
it.  `argparse`, with `gettext` and `locale`, is for --help, usage
errors and command lines outside the plain form alone: `import
sympref.cli` and every plain command line do not load it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sympref
from sympref.catalog import get_entry
from sympref.specio import serialize_group_spec, spec_from_group

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "sympref").glob("*.py"))

# the modules whose loading the tests watch
WATCHED = ("numpy", "dataclasses", "sympref.catalog")


def report(modules):
    """Code that prints which of modules are loaded."""
    return "print(' '.join(m for m in %r if m in sys.modules))\n" % (tuple(modules),)


REPORT = report(WATCHED)

# runs the command line as `python -m sympref.cli` does, with its exit
# code, and reports which watched modules were loaded; the report is an
# atexit handler, since a finished command leaves by os._exit
RUN_CLI = (
    "import atexit, runpy, sys\n"
    "def report():\n"
    "    " + REPORT +
    "atexit.register(report)\n"
    "sys.argv = ['sympref'] + sys.argv[1:]\n"
    "runpy.run_module('sympref.cli', run_name='__main__', alter_sys=True)\n"
)

LINEAR_SWAP = {
    "name": "swap",
    "dimension": 2,
    "symplectic_form": None,
    "generators": [[[0, 1], [1, 0]]],
}


def loaded_modules(code, *args, cwd, returncode=0):
    """The watched modules that running code loaded; it must exit with
    returncode."""
    proc = run_python(code, *args, cwd=cwd)
    assert proc.returncode == returncode, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def run_python(code, *args, cwd):
    """A fresh interpreter's run of code, on the package under test,
    wherever the test process found it."""
    path = [str(Path(sympref.__file__).resolve().parents[1])]
    path += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=60,
    )


def write_inputs(tmp_path):
    (tmp_path / "s2.json").write_text(
        serialize_group_spec(spec_from_group("s2", get_entry("symmetric_n2").build()))
    )
    (tmp_path / "fibers.json").write_text('{"fibers": {"0": 0, "1": 1}}')
    (tmp_path / "swap.json").write_text(json.dumps(LINEAR_SWAP))
    (tmp_path / "theta.json").write_text('{"theta": [[0, 2], [-2, 0]]}')


@pytest.mark.parametrize("module", ["sympref", "sympref.cli"])
def test_import_does_not_load_numpy(tmp_path, module):
    code = "import sys, %s\n%s" % (module, REPORT)
    assert "numpy" not in loaded_modules(code, cwd=tmp_path)


@pytest.mark.parametrize("module", ["sympref", "sympref.cli"])
def test_import_loads_neither_dataclasses_nor_the_catalog(tmp_path, module):
    code = "import sys, %s\n%s" % (module, REPORT)
    assert loaded_modules(code, cwd=tmp_path) == set()


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["catalog", "emit", "symmetric_n2"], False),
        (["analyze", "--strata", "s2.json"], False),
        (["semismall", "s2.json", "fibers.json"], False),
        (["double", "swap.json"], False),
        (["spectrum", "theta.json"], False),
    ],
)
def test_only_spectrum_loads_numpy(tmp_path, argv, loads):
    write_inputs(tmp_path)
    assert ("numpy" in loaded_modules(RUN_CLI, *argv, cwd=tmp_path)) is loads


@pytest.mark.parametrize(
    "payload, shown",
    [
        ({"theta": [[0, 2], [-2, 0]]}, "2"),
        ({"theta": [[0, 1], [-1, 0]], "metric": [[4, 0], [0, 4]]}, "0.25"),
    ],
    ids=["plain", "metric"],
)
def test_spectrum_runs_where_numpy_cannot_be_imported(tmp_path, payload, shown):
    (tmp_path / "theta.json").write_text(json.dumps(payload))
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None  # so that importing numpy fails\n"
        "from sympref.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = run_python(code, "spectrum", "theta.json", cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (0, shown + "\n"), proc.stderr


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["analyze", "s2.json"], False),
        (["analyze", "--strata", "s2.json"], False),
        (["analyze", "--json", "--strata", "s2.json"], False),
        (["semismall", "s2.json", "fibers.json"], False),
        (["double", "swap.json"], False),
        (["catalog", "list"], True),
        (["catalog", "emit", "symmetric_n2"], True),
    ],
)
def test_only_catalog_loads_the_catalog_and_dataclasses(tmp_path, argv, loads):
    write_inputs(tmp_path)
    found = loaded_modules(RUN_CLI, *argv, cwd=tmp_path) - {"numpy"}
    assert found == ({"dataclasses", "sympref.catalog"} if loads else set())


def reporting(*modules):
    """The command line run of RUN_CLI, reporting which of modules were
    loaded."""
    return RUN_CLI.replace(REPORT, report(modules))


LATTICE = "sympref.stratification"
# also "Subspace" when linalg's namespace binds it: the class lives with
# the lattice, `kernel` binds it in no module's namespace, and a
# module-level `from .linalg import Subspace` would load the lattice
RUN_CLI_LATTICE = RUN_CLI.replace(REPORT, (
    "linalg = vars(sys.modules.get('sympref.linalg', sys)); "
    "print(*[m for m in (%r,) if m in sys.modules], "
    "*[n for n in ('Subspace',) if n in linalg])\n"
) % LATTICE)


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["analyze", "s2.json"], False),
        (["analyze", "--json", "s2.json"], False),
        (["double", "swap.json"], False),
        (["spectrum", "theta.json"], False),
        (["catalog", "emit", "symmetric_n2"], False),
        (["analyze", "--strata", "s2.json"], True),
        (["semismall", "s2.json", "fibers.json"], True),
    ],
)
def test_only_the_lattice_commands_load_stratification(tmp_path, argv, loads):
    write_inputs(tmp_path)
    assert RUN_CLI_LATTICE != RUN_CLI
    found = loaded_modules(RUN_CLI_LATTICE, *argv, cwd=tmp_path)
    assert found == ({LATTICE} if loads else set())


def test_subspace_is_one_class_under_every_name():
    from sympref import linalg, stratification

    assert linalg.Subspace is stratification.Subspace is sympref.Subspace
    with pytest.raises(AttributeError, match="no_such_name"):
        linalg.no_such_name


def test_kernel_imports_subspace_when_called(tmp_path):
    code = (
        "import sys\n"
        "from sympref.linalg import ExactMatrix\n"
        "assert %r not in sys.modules\n"
        "space = ExactMatrix.from_rows([[1, 1]]).kernel()\n"
        "from sympref import linalg, stratification\n"
        "assert type(space) is stratification.Subspace is linalg.Subspace\n"
        "assert space.dim == 1\n"
        "print('ok')\n"
    ) % LATTICE
    assert loaded_modules(code, cwd=tmp_path) == {"ok"}


SPECTRUM = "sympref.spectrum"
RUN_CLI_SPECTRUM = reporting(SPECTRUM)


def test_import_does_not_load_spectrum(tmp_path):
    code = "import sys, sympref.cli\n" + report((SPECTRUM,))
    assert loaded_modules(code, cwd=tmp_path) == set()


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["analyze", "s2.json"], False),
        (["analyze", "--strata", "s2.json"], False),
        (["semismall", "s2.json", "fibers.json"], False),
        (["double", "swap.json"], False),
        (["catalog", "emit", "symmetric_n2"], False),
        (["spectrum", "theta.json"], True),
    ],
)
def test_only_spectrum_loads_spectrum(tmp_path, argv, loads):
    write_inputs(tmp_path)
    assert (SPECTRUM in loaded_modules(RUN_CLI_SPECTRUM, *argv, cwd=tmp_path)) is loads


EXACT_STACK = (
    "sympref.cyclotomic", "sympref.linalg", "sympref.groups",
    "sympref.reflections", "sympref.specio", "fractions",
)
ARGPARSE = ("argparse", "gettext", "locale")
RUN_CLI_EXACT = reporting(*EXACT_STACK, *ARGPARSE)
# the command lines below that argparse reads: help and usage errors
NOT_PLAIN = (["--help"], ["analyze", "--help"], ["frob"],
             ["analyze", "--max-order", "0", "s2.json"])


@pytest.mark.parametrize("module", ["sympref", "sympref.cli"])
def test_import_does_not_load_the_exact_stack(tmp_path, module):
    code = "import sys, %s\n%s" % (module, report(EXACT_STACK))
    assert loaded_modules(code, cwd=tmp_path) == set()


@pytest.mark.parametrize("module", ["sympref", "sympref.cli"])
def test_import_does_not_load_argparse(tmp_path, module):
    code = "import sys, %s\n%s" % (module, report(ARGPARSE))
    assert loaded_modules(code, cwd=tmp_path) == set()


@pytest.mark.parametrize(
    "argv, returncode, loads",
    [
        (["spectrum", "theta.json"], 0, False),
        (["--help"], 0, False),
        (["analyze", "--help"], 0, False),
        (["frob"], 1, False),
        (["analyze", "--max-order", "0", "s2.json"], 1, False),
        (["analyze", "s2.json"], 0, True),
        (["double", "swap.json"], 0, True),
        (["semismall", "s2.json", "fibers.json"], 0, True),
        (["catalog", "emit", "symmetric_n2"], 0, True),
        # a spec that cannot be read is reported before the stack loads
        (["analyze", "missing.json"], 1, False),
        (["double", "missing.json"], 1, False),
        (["semismall", "missing.json", "f.json"], 1, False),
    ],
)
def test_only_the_exact_commands_load_the_exact_stack(tmp_path, argv, returncode, loads):
    write_inputs(tmp_path)
    found = loaded_modules(RUN_CLI_EXACT, *argv, cwd=tmp_path, returncode=returncode)
    assert found - set(ARGPARSE) == (set(EXACT_STACK) if loads else set())
    assert found & set(ARGPARSE) == (set(ARGPARSE) if argv in NOT_PLAIN else set())


def test_every_module_sees_one_class_per_error(tmp_path):
    from sympref import cli, cyclotomic, errors, groups, spectrum

    assert cyclotomic.BadInput is spectrum.BadInput is sympref.BadInput
    assert sympref.BadInput is errors.BadInput is vars(cli)["BadInput"]
    assert groups.OrderBoundExceeded is errors.OrderBoundExceeded
    assert groups.OrderBoundExceeded is vars(cli)["OrderBoundExceeded"]
    assert groups.DEFAULT_MAX_ORDER == errors.DEFAULT_MAX_ORDER
    # the order bound that the closure in groups raises is exit code 2
    write_inputs(tmp_path)
    spec = str(tmp_path / "s2.json")
    assert cli.main(["analyze", "--max-order", "1", spec]) == cli.EXIT_ORDER_BOUND


def test_cli_max_order_default_is_the_library_default(capsys):
    from sympref import cli, groups

    for argv in (["analyze", "s.json"], ["semismall", "s.json", "f.json"],
                 ["double", "s.json"]):
        assert cli.build_parser().parse_args(argv).max_order == groups.DEFAULT_MAX_ORDER
    with pytest.raises(SystemExit):
        cli.main(["analyze", "--help"])
    shown = " ".join(capsys.readouterr().out.split())
    assert "giving up (default %d)" % groups.DEFAULT_MAX_ORDER in shown


def test_cli_tolerance_defaults_are_the_library_defaults():
    # both read `errors`, so the command line need not load `spectrum`
    from sympref import cli, spectrum

    args = cli.build_parser().parse_args(["spectrum", "theta.json"])
    assert (args.input_tol, args.pair_tol) == (
        spectrum.DEFAULT_INPUT_TOL, spectrum.DEFAULT_PAIR_TOL,
    )
    assert (cli.DEFAULT_INPUT_TOL, cli.DEFAULT_PAIR_TOL) == (
        spectrum.DEFAULT_INPUT_TOL, spectrum.DEFAULT_PAIR_TOL,
    )


def _numpy_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(n == "numpy" or n.startswith("numpy.") for n in names):
            yield node


def test_no_source_file_imports_numpy():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        found += ["%s:%d" % (path.name, node.lineno) for node in _numpy_imports(tree)]
    assert SOURCES
    assert found == []
