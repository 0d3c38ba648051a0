"""How a `python -m sympref.cli` process ends.

A finished command runs the atexit handlers, flushes stdout and stderr
and leaves with os._exit, skipping interpreter teardown.  Wherever that
could be seen it exits as before: when a flush fails, under a tracer or
profiler, and when main() raised."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sympref.catalog import get_entry
from sympref.cli import main
from sympref.specio import serialize_group_spec, spec_from_group

LINEAR_SWAP = {
    "name": "swap",
    "dimension": 2,
    "symplectic_form": None,
    "generators": [[[0, 1], [1, 0]]],
}

# closes under no order bound: its trace is 2, the dimension
SHEAR = {
    "name": "shear",
    "dimension": 2,
    "symplectic_form": "standard",
    "generators": [[["1", "1"], ["0", "1"]]],
}

# -1 on four dimensions fixes only 0, so it is no symplectic reflection
NEGATION = {
    "name": "negation",
    "dimension": 4,
    "symplectic_form": "standard",
    "generators": [[[-1 if i == j else 0 for j in range(4)] for i in range(4)]],
}


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# an object whose finalizer prints, if the interpreter tears down
TEARDOWN = (
    "import sys\n"
    "class Teardown:\n"
    "    def __del__(self):\n"
    "        print('teardown')\n"
    "alive = Teardown()\n"
    "sys.argv = ['sympref', 'analyze', 's2.json']\n"
)


def cli(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "sympref.cli", *argv],
        capture_output=True, text=True, timeout=60, **kwargs,
    )


@pytest.fixture
def inputs(tmp_path):
    (tmp_path / "s2.json").write_text(
        serialize_group_spec(spec_from_group("s2", get_entry("symmetric_n2").build()))
    )
    for name, doc in (("swap", LINEAR_SWAP), ("shear", SHEAR), ("neg", NEGATION)):
        (tmp_path / (name + ".json")).write_text(json.dumps(doc))
    (tmp_path / "bad.json").write_text("{")
    return tmp_path


def into_a_closed_pipe(argv, cwd):
    """Run argv with stdout a pipe whose reader has gone, block-buffered
    as it is by default; the exit code and stderr."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, *argv], stdout=write, stderr=subprocess.PIPE,
            cwd=cwd, env=env, timeout=60,
        )
    finally:
        os.close(write)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize(
    "argv", [["catalog", "list"], ["analyze", "--json", "s2.json"]]
)
def test_a_failed_flush_is_reported_as_the_interpreter_does(inputs, argv):
    # the output waits in stdout's buffer; the interpreter's own report of
    # a flush into a closed pipe, and its exit code 120, are the oracle
    expected = into_a_closed_pipe(["-c", "print('x')"], inputs)
    assert expected[0] == 120 and b"BrokenPipeError" in expected[1]
    assert into_a_closed_pipe(["-m", "sympref.cli", *argv], inputs) == expected


def test_the_installed_script_skips_teardown(inputs):
    # the wrapper setuptools writes for [project.scripts] is sys.exit(f())
    module, function = re.search(
        r'^sympref = "([\w.]+):(\w+)"$', PYPROJECT.read_text(), re.M
    ).groups()
    code = TEARDOWN + "from %s import %s as f\nsys.exit(f())\n" % (module, function)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=inputs, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("group order: ")
    assert "teardown" not in proc.stdout


def test_atexit_handlers_registered_before_the_command_run(inputs):
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'handler ran')\n"
        "sys.argv = ['sympref', 'analyze', 's2.json']\n"
        "runpy.run_module('sympref.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=inputs, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("group order: ")
    assert proc.stdout.endswith("\nhandler ran\n")


def test_a_profiled_run_still_prints_the_profile():
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "sympref.cli", "catalog", "list"],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "symmetric_n2" in proc.stdout
    assert "function calls" in proc.stdout and "Ordered by:" in proc.stdout


@pytest.mark.parametrize(
    "argv, code",
    [
        (["analyze", "s2.json"], 0),
        (["analyze", "--json", "--strata", "s2.json"], 0),
        (["analyze"], 1),
        (["analyze", "bad.json"], 1),
        (["analyze", "--max-order", "64", "shear.json"], 2),
        (["analyze", "neg.json"], 3),
        (["--help"], 0),
    ],
)
def test_exit_codes_and_output_are_those_of_main(inputs, capsys, monkeypatch, argv, code):
    proc = cli(*argv, cwd=inputs)
    monkeypatch.chdir(inputs)
    try:
        assert main(argv) == code
    except SystemExit as exc:  # usage errors and --help
        assert exc.code == code
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, *capsys.readouterr())


def test_double_writes_the_whole_file(inputs):
    proc = cli("double", "swap.json", "-o", "out.json", cwd=inputs)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert main(["double", str(inputs / "swap.json"), "-o", str(inputs / "ref.json")]) == 0
    assert (inputs / "out.json").read_text() == (inputs / "ref.json").read_text()
