"""Traced in-process run: per-layer spans and counts, measured from outside.

Every case runs in this interpreter through `sympref.cli.main(argv)`.
The public functions and methods of the layers are wrapped where their
callers look them up (`specio.census`, not `reflections.census`), and
each wrapper records a span: name, start, end, parent span and case.
The scalar `cyclotomic` calls are far too many and too short to time one
by one, so they are only counted, in a pass of their own.  A third,
untraced pass gives the time the spans are compared against.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from workloads import Case, judge


def import_sympref(src: Path):
    """Import the package under test from the checkout's `src/`."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import sympref.cli
    import sympref.cyclotomic
    import sympref.groups
    import sympref.linalg
    import sympref.reflections
    import sympref.specio
    import sympref.stratification

    return sympref


class Tracer:
    """Spans kept in memory: (name, start, end, parent, case, note).

    Records are tuples, so that the collector can stop tracking them.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.case = -1

    def wrap(self, name, fn, note=None):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.case, None)
            if note is not None:
                spans[index] = (name, start, end, parent, tracer.case, note(args, result))
            return result

        return traced


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self.saved = []

    def set(self, target, attr, value):
        self.saved.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def restore(self):
        while self.saved:
            target, attr, value = self.saved.pop()
            setattr(target, attr, value)


def _fixed_space_note(args, result):
    return args[0].key()


def _strata_note(args, result):
    return len(result.strata)


def _product_note(args, result):
    return args[1], args[2]


def _install_spans(pkg, tracer: Tracer, patches: Patches) -> None:
    cli, specio, reflections = pkg.cli, pkg.specio, pkg.reflections
    linalg, groups = pkg.linalg, pkg.groups
    sites = [
        (cli, "main", "cli.main", None),
        (cli, "parse_group_spec", "specio.parse", None),
        (cli, "report_to_json", "specio.render", None),
        (cli, "report_to_text", "specio.render", None),
        (cli, "serialize_group_spec", "specio.serialize", None),
        (cli, "symplectic_eigenvalues", "spectrum.eigen", None),
        (cli, "build_lattice", "stratification.lattice", _strata_note),
        (cli, "double", "reflections.double", None),
        (specio, "census", "reflections.census", None),
        (specio, "conjugacy_classes", "groups.classes", None),
        (specio, "build_lattice", "stratification.lattice", _strata_note),
        (reflections, "fixed_space", "linalg.fixed_space", _fixed_space_note),
        (pkg.stratification, "fixed_space", "linalg.fixed_space", _fixed_space_note),
        (reflections, "generated_subgroup", "groups.subgroup", None),
        (reflections, "is_normal", "groups.normal", None),
        (groups, "is_symplectic", "linalg.is_symplectic", None),
        (linalg.ExactMatrix, "__mul__", "linalg.matmul", None),
        (linalg.ExactMatrix, "kernel", "linalg.kernel", None),
        (linalg.Subspace, "intersect", "linalg.intersect", None),
        (linalg.Subspace, "is_subspace_of", "linalg.subspace_test", None),
        (groups.FiniteMatrixGroup, "product_index", "groups.product_index", _product_note),
    ]
    for target, attr, name, note in sites:
        patches.set(target, attr, tracer.wrap(name, vars(target)[attr], note))
    closure = vars(groups.FiniteMatrixGroup)["closure"]
    patches.set(
        groups.FiniteMatrixGroup, "closure",
        classmethod(tracer.wrap("groups.closure", closure.__func__, lambda a, r: r.order)),
    )
    get_entry = cli.get_entry

    def traced_get_entry(name):
        entry = get_entry(name)
        return dataclasses.replace(entry, build=tracer.wrap("catalog.build", entry.build))

    patches.set(cli, "get_entry", traced_get_entry)


def _install_counters(pkg, tally: Counter, patches: Patches) -> None:
    number = pkg.cyclotomic.CyclotomicNumber
    for attr, slot in (
        ("__init__", "construct"), ("__mul__", "mul"), ("__rmul__", "mul"), ("inverse", "inverse"),
    ):
        fn = vars(number)[attr]

        def counted(*args, _fn=fn, _slot=slot, **kwargs):
            tally[_slot] += 1
            return _fn(*args, **kwargs)

        patches.set(number, attr, counted)


def _clear_caches() -> None:
    """Empty every memo in the package, as a fresh process has them."""
    for name, module in list(sys.modules.items()):
        if name == "sympref" or name.startswith("sympref."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_pass(pkg, cases: list[Case], failures: list[str], on_case=None) -> float:
    """Run every case once through `cli.main`; returns the summed case time."""
    total = 0.0
    for index, case in enumerate(cases):
        _clear_caches()
        gc.collect()
        if on_case is not None:
            on_case(index)
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = pkg.cli.main(list(case.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            failures.append("%s: crashed\n%s" % (case.name, traceback.format_exc()))
            continue
        finally:
            total += time.perf_counter() - start
        problem = judge(case, code, out.getvalue())
        if problem:
            failures.append(problem)
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def span_metrics(spans: list[tuple]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics derived from one traced pass."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, case, note in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, busy, own = Counter(), defaultdict(float), defaultdict(float)
    for i, (name, start, end, parent, case, note) in enumerate(spans):
        calls[name] += 1
        busy[name] += end - start
        own[name] += end - start - child_time[i]

    def parent_name(span):
        return spans[span[3]][0] if span[3] >= 0 else None

    closure_products = sum(
        1 for s in spans if s[0] == "linalg.matmul" and parent_name(s) == "groups.closure"
    )
    closure_new = sum(s[5] - 1 for s in spans if s[0] == "groups.closure")
    fixed = [s for s in spans if s[0] == "linalg.fixed_space"]
    fixed_distinct = len({(s[4], s[5]) for s in fixed})
    products = {(s[4], s[5]) for s in spans if s[0] == "groups.product_index"}
    lattice_ids = {i for i, s in enumerate(spans) if s[0] == "stratification.lattice"}
    strata = sum(spans[i][5] for i in lattice_ids)
    lattice_intersections = sum(
        1 for s in spans if s[0] == "linalg.intersect" and s[3] in lattice_ids
    )
    return {
        "linalg.matmul_calls": (calls["linalg.matmul"], "count"),
        "linalg.matmul_s": (busy["linalg.matmul"], "s"),
        "linalg.fixed_space_calls": (calls["linalg.fixed_space"], "count"),
        "linalg.fixed_space_s": (busy["linalg.fixed_space"], "s"),
        "linalg.fixed_space_distinct_ratio": (_ratio(fixed_distinct, len(fixed)), "ratio"),
        "linalg.intersect_calls": (calls["linalg.intersect"], "count"),
        "linalg.intersect_s": (busy["linalg.intersect"], "s"),
        "linalg.subspace_test_calls": (calls["linalg.subspace_test"], "count"),
        "linalg.subspace_test_s": (busy["linalg.subspace_test"], "s"),
        "linalg.kernel_calls": (calls["linalg.kernel"], "count"),
        "groups.closure_s": (busy["groups.closure"], "s"),
        "groups.closure_products": (closure_products, "count"),
        "groups.closure_yield": (_ratio(closure_new, closure_products), "ratio"),
        "groups.classes_s": (busy["groups.classes"], "s"),
        "groups.subgroup_s": (busy["groups.subgroup"], "s"),
        "groups.normal_s": (busy["groups.normal"], "s"),
        "groups.product_index_calls": (calls["groups.product_index"], "count"),
        "groups.product_index_distinct_ratio": (
            _ratio(len(products), calls["groups.product_index"]), "ratio",
        ),
        "reflections.census_s": (busy["reflections.census"], "s"),
        "reflections.double_s": (busy["reflections.double"], "s"),
        "stratification.lattice_s": (busy["stratification.lattice"], "s"),
        "stratification.lattice_self_s": (own["stratification.lattice"], "s"),
        "stratification.strata": (strata, "count"),
        "stratification.intersect_yield": (
            _ratio(strata, lattice_intersections), "ratio",
        ),
        "specio.parse_s": (busy["specio.parse"], "s"),
        "specio.render_s": (busy["specio.render"], "s"),
        "specio.serialize_s": (busy["specio.serialize"], "s"),
        "spectrum.eigen_s": (busy["spectrum.eigen"], "s"),
        "catalog.build_s": (busy["catalog.build"], "s"),
        "cli.main_self_s": (own["cli.main"], "s"),
    }


def write_spans(spans: list[tuple], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        for name, start, end, parent, case, _ in spans:
            out.write(json.dumps([name, start, end, parent, case]) + "\n")


def traced_run(pkg, cases: list[Case], spans_path: Path):
    """Untraced, traced and counting passes over the cases.

    Returns (metrics, attempted, failures).
    """
    failures: list[str] = []
    untraced = run_pass(pkg, cases, failures)

    tracer, patches = Tracer(), Patches()
    _install_spans(pkg, tracer, patches)
    try:
        traced = run_pass(pkg, cases, failures, on_case=lambda i: setattr(tracer, "case", i))
    finally:
        patches.restore()
    metrics = span_metrics(tracer.spans)
    write_spans(tracer.spans, spans_path)

    tally: Counter = Counter()
    _install_counters(pkg, tally, patches)
    try:
        run_pass(pkg, cases, failures)
    finally:
        patches.restore()
    metrics.update({
        "cyclotomic.mul_calls": (tally["mul"], "count"),
        "cyclotomic.inverse_calls": (tally["inverse"], "count"),
        "cyclotomic.construct_calls": (tally["construct"], "count"),
        "trace.untraced_wall_s": (untraced, "s"),
        "trace.traced_wall_s": (traced, "s"),
        "trace.overhead_ratio": (_ratio(traced, untraced), "ratio"),
    })
    return metrics, 3 * len(cases), failures
