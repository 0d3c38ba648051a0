"""Report-byte guard: every recorded benchmark output, replayed in process.

perfbench/reference/reports.json holds the CLI's output on each group
specification in perfbench/data/specs.json, recorded by
perfbench/record.py.  A report byte that changes is a behaviour change,
so every analyze (with and without --strata) and double output must
come out byte for byte.  Both files are only read here.

The larger specs under bench/specs/ are checked the same way, against
the sha256 of their `analyze --json --strata` report that
bench/large.py holds, all but doubled E6, which takes seconds.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from sympref.cli import main
from sympref.reflections import VERDICT_HOLDS

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SPECS = json.loads((PERFBENCH / "data" / "specs.json").read_text(encoding="utf-8"))
REPORTS = json.loads(
    (PERFBENCH / "reference" / "reports.json").read_text(encoding="utf-8")
)
FLAGS = {
    "analyze": ["analyze", "--json"],
    "strata": ["analyze", "--json", "--strata"],
    "double": ["double"],
}


def test_every_spec_has_its_references():
    names = {**SPECS["catalog"], **SPECS["extra"]}
    linear = {n for n in names if n.startswith("linear_")}
    assert set(REPORTS) == set(FLAGS)
    assert set(REPORTS["double"]) == linear
    assert set(REPORTS["analyze"]) == set(REPORTS["strata"]) == set(names) - linear


@pytest.mark.parametrize(
    "kind, name", [(k, n) for k in sorted(REPORTS) for n in sorted(REPORTS[k])]
)
def test_replayed_output_matches_the_reference(tmp_path, capsys, kind, name):
    doc = SPECS["catalog"].get(name) or SPECS["extra"][name]
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    code = main(FLAGS[kind] + [str(path)])
    out = capsys.readouterr().out
    assert out == REPORTS[kind][name]
    if kind == "double":
        assert code == 0
    else:
        assert code == (0 if json.loads(out)["verdict"] == VERDICT_HOLDS else 3)


def load_large():
    spec = importlib.util.spec_from_file_location("large", ROOT / "bench" / "large.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LARGE = load_large()


@pytest.mark.parametrize("name", [n for n in LARGE.REFERENCE if n != LARGE.E6])
def test_large_report_matches_its_hash(capsys, name):
    path = LARGE.SPECS / (name + ".json")
    code = main(["analyze", "--json", "--strata", str(path)])
    out = capsys.readouterr().out
    assert code in (0, 3)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LARGE.REFERENCE[name]
