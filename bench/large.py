"""Large cases of `sympref analyze --json --strata`, each a fresh process.

    python3 bench/large.py                       # every case, this checkout
    python3 bench/large.py --skip-e6             # a quick run, under a minute
    python3 bench/large.py --src OTHER/src --json out.json

Each case is a spec checked in under bench/specs/, written once with the
library (`serialize_group_spec(spec_from_group(name, group))`).  A small
helper process starts the case and reports its wall time and its own
peak RSS from wait4.  The helper matters: a child's ru_maxrss starts at
its parent's high-water mark, and the helper's is small.  Right before
each case, perfbench's reference job (`REFERENCE_JOB` in
perfbench/run.py, about 0.1 s) runs the same way, and the case's time is
also given as a multiple of it, because the host's speed changes by up
to 1.8x.  The case's stdout goes to a file, and its sha256 is checked
against the reference hashes below.

A second process per case parses the spec, then times the closure
(`make_group`) and `build_lattice` in process, each alone.

The --src tree is put first on PYTHONPATH, so one checkout's runner can
measure another checkout's `src/`.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPECS = HERE / "specs"

# sha256 of `analyze --json --strata` stdout, as made at 7ef1bd1 (the
# F4, B5 and E6 hashes are also in ROADMAP.md) and, for the two planar
# cases, at 2fc98c1; the report is fixed by the group alone, so every
# later tree must give the same bytes
REFERENCE = {
    "symmetric_on_planes_5": "d36305a6e0e7807b96f27550573179498e663b97af23c5c516f374e49e83102a",
    "weyl_f4_doubled": "48874440a82b0b63c83979154f5109edc1c18dec25a2418619177aa5e1978e17",
    "imprimitive_4_1_4_doubled": "f0e9dfa4876a939e9048ac38dffab62bb5bf945e64a27db4d43f27f1b04f779e",
    "weyl_b5_doubled": "f68debeafd5ec51664a3b28739d13352a36353484c87314ee9d3eca09a046c5c",
    "weyl_e6_doubled": "b20a7ba55b5c440fd2eea385d4464745134598a37aed6417702432b0c51030e8",
    "sl2_binary_icosahedral_times_s5": "fa960ae19b6a2e100cab023f669edb4f2e2fade4c09d364513ffff1f60e90d8e",
    "sl2_binary_dihedral_3_wreath_s3": "d04924b1c0a00afb84ced0ff7710115b5d4f0bf61f134d56295bdcdb1e312c92",
}
E6 = "weyl_e6_doubled"

# Runs argv with stdout to a file; prints the wall time, exit code and
# the child's own peak RSS and CPU time, as one JSON line.
HELPER = """\
import json, os, sys, time
argv, out = json.loads(sys.argv[1]), sys.argv[2]
with open(out, "wb") as sink:
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, sink.fileno(), 1)])
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
print(json.dumps({"wall_s": wall, "exit_code": os.waitstatus_to_exitcode(status),
                  "peak_rss_mb": usage.ru_maxrss / 1024.0,
                  "cpu_s": usage.ru_utime + usage.ru_stime}))
"""

# Times make_group and build_lattice on a parsed spec in process.
LATTICE = """\
import json, sys, time
from sympref.specio import make_group, parse_group_spec
from sympref.stratification import build_lattice
spec = parse_group_spec(open(sys.argv[1]).read())
start = time.perf_counter()
group = make_group(spec, 100000)
closed = time.perf_counter()
lattice = build_lattice(group)
print(json.dumps({"closure_s": closed - start,
                  "lattice_s": time.perf_counter() - closed, "order": group.order,
                  "strata": len(lattice.strata), "orbits": len(lattice.orbits)}))
"""


def reference_job() -> str:
    """perfbench's reference job, read from its source without running it."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "REFERENCE_JOB" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise SystemExit("perfbench/run.py defines no REFERENCE_JOB")


def helped(argv, env, workdir) -> tuple[dict, bytes]:
    """Run argv from the helper; its measurements and the stdout bytes."""
    out = Path(workdir) / "stdout"
    proc = subprocess.run(
        [sys.executable, "-c", HELPER, json.dumps(argv), str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout), out.read_bytes()


def run_case(name, env, workdir, ref_code) -> dict:
    spec = str(SPECS / (name + ".json"))
    ref, _ = helped([sys.executable, "-c", ref_code], env, workdir)
    cli, stdout = helped(
        [sys.executable, "-m", "sympref.cli", "analyze", "--json", "--strata", spec],
        env, workdir,
    )
    sha = hashlib.sha256(stdout).hexdigest()
    ref2, _ = helped([sys.executable, "-c", ref_code], env, workdir)
    lattice, _ = helped([sys.executable, "-c", LATTICE, spec], env, workdir)
    lattice_out = json.loads((Path(workdir) / "stdout").read_text())
    return {
        "name": name,
        "order": lattice_out["order"],
        "strata": lattice_out["strata"],
        "orbits": lattice_out["orbits"],
        "exit_code": cli["exit_code"],
        "wall_s": round(cli["wall_s"], 3),
        "cpu_s": round(cli["cpu_s"], 3),
        "ref_s": round(ref["wall_s"], 4),
        "wall_rel": round(cli["wall_s"] / ref["wall_s"], 2),
        "peak_rss_mb": round(cli["peak_rss_mb"], 1),
        "sha256": sha,
        "sha256_ok": sha == REFERENCE[name],
        "closure_s": round(lattice_out["closure_s"], 3),
        "lattice_s": round(lattice_out["lattice_s"], 3),
        "lattice_ref_s": round(ref2["wall_s"], 4),
        "lattice_rel": round(lattice_out["lattice_s"] / ref2["wall_s"], 2),
        "lattice_exit_code": lattice["exit_code"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the src/ directory of the tree under test")
    parser.add_argument("--skip-e6", action="store_true",
                        help="leave out doubled E6, the slowest case "
                             "(about 6 s on a 2-core Xeon)")
    parser.add_argument("--json", help="also write the results to this file")
    args = parser.parse_args(argv)

    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    names = [n for n in REFERENCE if not (args.skip_e6 and n == E6)]
    ref_code = reference_job()
    results = []
    with tempfile.TemporaryDirectory() as workdir:
        for name in names:
            results.append(run_case(name, env, workdir, ref_code))
            r = results[-1]
            print(
                "%-31s %6.2f s  %7.1f ref  %6.1f MB  closure %6.3f s  "
                "lattice %7.3f s  %s"
                % (name, r["wall_s"], r["wall_rel"], r["peak_rss_mb"],
                   r["closure_s"], r["lattice_s"],
                   "sha256 ok" if r["sha256_ok"] else "SHA256 DIFFERS"),
                flush=True,
            )
    summary = {
        "python": sys.version.split()[0],
        "ref_s_median": statistics.median(r["ref_s"] for r in results),
        "cases": results,
    }
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    bad = [r["name"] for r in results
           if not r["sha256_ok"] or r["exit_code"] not in (0, 3) or r["lattice_exit_code"]]
    if bad:
        print("failed: %s" % ", ".join(bad), file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
