"""Closed-form oracles for every group the benchmark runs.

Nothing here comes from the code under test: group orders, verdicts and
symplectic reflection counts follow from the classical formulas for each
family, and the stratum counts of the symmetric family from set
partitions.  `perfbench/test_perfbench.py` checks this table against the
catalog's own `expected_order` and `expected_verdict`.
"""

from __future__ import annotations

import math
import re

HOLDS = "NecessaryConditionHolds"
OBSTRUCTED = "NoSymplecticResolution"
EXIT_FOR_VERDICT = {HOLDS: 0, OBSTRUCTED: 3}

# Weyl group orders and positive root counts (= reflection counts).
_WEYL_FIXED = {"f4": (1152, 24), "g2": (12, 6)}


def weyl(family: str, rank: int) -> tuple[int, int]:
    """(|W|, number of reflections) for a Weyl group."""
    if family + str(rank) in _WEYL_FIXED:
        return _WEYL_FIXED[family + str(rank)]
    if family == "a":
        return math.factorial(rank + 1), rank * (rank + 1) // 2
    if family in ("b", "c"):
        return 2 ** rank * math.factorial(rank), rank * rank
    if family == "d":
        return 2 ** (rank - 1) * math.factorial(rank), rank * (rank - 1)
    raise KeyError(family)


def imprimitive(m: int, p: int, n: int) -> tuple[int, int]:
    """(|G(m,p,n)|, number of reflections)."""
    order = m ** n * math.factorial(n) // p
    return order, m * n * (n - 1) // 2 + n * (m // p - 1)


def bell(n: int) -> int:
    """Number of set partitions of n letters."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def partitions(n: int) -> int:
    """Number of integer partitions of n."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


_SL2 = {
    "binary_tetrahedral": 24,
    "binary_octahedral": 48,
    "binary_icosahedral": 120,
}


def expected(name: str) -> dict:
    """Oracle values for a group named as in the catalog.

    Keys: order, reflections, verdict, and for the symmetric family
    strata (Bell(n)) and orbits (p(n)).
    """
    if m := re.fullmatch(r"symmetric_n(\d)", name):
        n = int(m.group(1))
        return {
            "order": math.factorial(n),
            "reflections": n * (n - 1) // 2,
            "verdict": HOLDS,
            "strata": bell(n),
            "orbits": partitions(n),
        }
    if m := re.fullmatch(r"weyl_([a-g])(\d)_doubled", name):
        order, refl = weyl(m.group(1), int(m.group(2)))
        return {"order": order, "reflections": refl, "verdict": HOLDS}
    if m := re.fullmatch(r"imprimitive_(\d)_(\d)_(\d)", name):
        order, refl = imprimitive(*map(int, m.groups()))
        return {"order": order, "reflections": refl, "verdict": HOLDS}
    if m := re.fullmatch(r"sl2_(cyclic|binary_dihedral)_(\d+)", name):
        k = int(m.group(2))
        order = k if m.group(1) == "cyclic" else 4 * k
        # in the plane every nontrivial element fixes only 0
        return {"order": order, "reflections": order - 1, "verdict": HOLDS}
    if m := re.fullmatch(r"sl2_(\w+)", name):
        order = _SL2[m.group(1)]
        return {"order": order, "reflections": order - 1, "verdict": HOLDS}
    if re.fullmatch(r"negation_c\d", name):
        return {"order": 2, "reflections": 0, "verdict": OBSTRUCTED}
    raise KeyError("no oracle for %r" % name)


def check_report(name: str, report: dict) -> str | None:
    """Compare an `analyze --json` report with the closed-form oracle."""
    want = expected(name)
    got = {
        "order": report.get("group_order"),
        "reflections": report.get("reflection_count"),
        "verdict": report.get("verdict"),
    }
    for key, value in got.items():
        if value != want[key]:
            return "%s: %s is %r, oracle says %r" % (name, key, value, want[key])
    strata = report.get("strata")
    if strata is not None and "strata" in want:
        count = sum(s["orbit_size"] for s in strata)
        if (count, len(strata)) != (want["strata"], want["orbits"]):
            return "%s: %d strata in %d orbits, oracle says %d in %d" % (
                name, count, len(strata), want["strata"], want["orbits"],
            )
    return None
