"""Record the benchmark's input library and reference outputs.

    python3 perfbench/record.py

Writes `data/specs.json` (catalog-basis group specifications) and
`reference/reports.json` (CLI outputs on those specifications) from the
checkout's own `src/`.  The recorded files are the fixed point every
later run is checked against, so re-record only on purpose: a report
byte that changes is a behaviour change.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import oracle
import workloads

ROOT = workloads.BENCH.parent
SRC = ROOT / "src"

# Groups outside the catalog, built with the library's own builders.
EXTRA = {
    "weyl_d4_doubled": lambda c: c.build_weyl_doubled("D", 4),
    "weyl_b3_doubled": lambda c: c.build_weyl_doubled("B", 3),
    "imprimitive_4_1_3": lambda c: c.build_imprimitive_doubled(4, 1, 3),
    "linear_weyl_a3": lambda c: c.build_weyl("A", 3),
    "linear_weyl_b3": lambda c: c.build_weyl("B", 3),
    "linear_weyl_g2": lambda c: c.build_weyl("G2"),
    "linear_imprimitive_3_1_2": lambda c: c.build_imprimitive(3, 1, 2),
    "linear_imprimitive_3_3_3": lambda c: c.build_imprimitive(3, 3, 3),
}


def cli(*argv: str) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "sympref.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )
    return proc.returncode, proc.stdout


def checked(name: str, exit_code: int, *argv: str) -> str:
    code, out = cli(*argv)
    if code != exit_code:
        raise SystemExit("%s: exit code %d, expected %d" % (name, code, exit_code))
    return out


def main() -> int:
    sys.path.insert(0, str(SRC))
    from sympref import catalog
    from sympref.specio import serialize_group_spec, spec_from_group

    library = {"catalog": {}, "extra": {}}
    for name in catalog.entry_names():
        code, out = cli("catalog", "emit", name)
        doc = json.loads(out)
        if code != 0 or workloads.render(doc) != out:
            raise SystemExit("catalog emit %s did not round-trip" % name)
        library["catalog"][name] = doc
    for name, builder in EXTRA.items():
        group = builder(catalog)
        library["extra"][name] = json.loads(serialize_group_spec(spec_from_group(name, group)))
    workloads.SPECS_FILE.parent.mkdir(exist_ok=True)
    workloads.SPECS_FILE.write_text(json.dumps(library) + "\n", encoding="utf-8")
    workloads.specs.cache_clear()

    workdir = workloads.BENCH / "_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    reports = {"analyze": {}, "strata": {}, "double": {}}
    try:
        for name in [*library["catalog"], *library["extra"]]:
            path = workdir / (name + ".json")
            path.write_text(workloads.render(workloads.spec(name)), encoding="utf-8")
            if name.startswith("linear_"):
                reports["double"][name] = checked(name, 0, "double", str(path))
                continue
            exit_code = oracle.EXIT_FOR_VERDICT[oracle.expected(name)["verdict"]]
            for kind, flags in (("analyze", []), ("strata", ["--strata"])):
                out = checked(name, exit_code, "analyze", "--json", str(path), *flags)
                problem = oracle.check_report(name, json.loads(out))
                if problem:
                    raise SystemExit(problem)
                reports[kind][name] = out
            print(name, "recorded", flush=True)
    finally:
        shutil.rmtree(workdir)
    workloads.REFERENCE_FILE.parent.mkdir(exist_ok=True)
    workloads.REFERENCE_FILE.write_text(
        json.dumps(reports, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
