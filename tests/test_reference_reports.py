"""Report-byte guard: every recorded benchmark output, replayed in process.

perfbench/reference/reports.json holds the CLI's output on each group
specification in perfbench/data/specs.json, recorded by
perfbench/record.py.  A report byte that changes is a behaviour change,
so every analyze (with and without --strata) and double output must
come out byte for byte.  Both files are only read here.
"""

import json
from pathlib import Path

import pytest

from sympref.cli import main
from sympref.reflections import VERDICT_HOLDS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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
