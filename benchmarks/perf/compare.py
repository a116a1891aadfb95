"""Compare two sets of benchmark records.

    python3 benchmarks/perf/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two same-code
sets), ``B`` the candidate. Each file is what ``run.py --out`` wrote:
one record or a list of them, any number of runs per workload. One
row per (workload, metric): both medians, their ratio B/A, the bound
``BENCHMARK.json`` fixes, each side's run-to-run spread, a verdict.

- ``worse``: B's median is worse than A's by more than the bound.
- ``unresolved``: a side's spread (interquartile range / median, known
  from four runs up) is wider than the bound, so the runs cannot tell
  — unless every run of B reads better than every run of A.
- ``ok``: neither.

The exact counts of a run (``modeled_cycles``, ``code_instr``,
``machine.instructions``) are compared with bound 0. Per-layer metrics
of traced records have no bound and are listed without a verdict.
Exits non-zero when any row is ``worse``."""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional, Tuple

import metrics as definitions
import stats

#: metric -> (better, bound); None bound = informational.
_RULES: Dict[str, Tuple[str, Optional[float]]] = {
    **{m.name: (m.better, None) for m in definitions.PER_LAYER},
    **{m.name: (m.better, m.bound) for m in definitions.END_TO_END},
}
_EXACT = ("modeled_cycles", "code_instr", "machine.instructions")

Values = Dict[Tuple[str, str], List[float]]


def load(path: str) -> Values:
    """(workload, metric) -> one value per run, in file order."""
    with open(path) as handle:
        records = json.load(handle)
    if isinstance(records, dict):
        records = [records]
    values: Values = {}
    for record in records:
        workload = record["workload"]
        for name, metric in record["metrics"].items():
            values.setdefault((workload, name), []).append(metric["value"])
        for name, count in record.get("counts", {}).items():
            values.setdefault((workload, name), []).append(count)
    return values


def verdict(
    base: List[float], candidate: List[float], better: str,
    bound: Optional[float],
) -> str:
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    a, b = statistics.median(base), statistics.median(candidate)
    worsening = sign * (b - a) / abs(a) if a else sign * (b - a)
    spreads = [
        stats.spread(side) for side in (base, candidate) if len(side) >= 4
    ]
    if spreads and max(spreads) > bound:
        all_better = (
            max(candidate) < min(base) if better == "lower"
            else min(candidate) > max(base)
        )
        return "ok" if all_better else "unresolved"
    return "worse" if worsening > bound else "ok"


def rows(base: Values, candidate: Values) -> List[dict]:
    table = []
    for key in base:
        if key not in candidate:
            continue
        workload, name = key
        better, bound = _RULES.get(name, ("lower", None))
        if name in _EXACT:
            bound = 0.0
        a, b = base[key], candidate[key]
        table.append({
            "workload": workload,
            "metric": name,
            "a": statistics.median(a),
            "b": statistics.median(b),
            "bound": bound,
            "spread_a": stats.spread(a) if len(a) >= 4 else None,
            "spread_b": stats.spread(b) if len(b) >= 4 else None,
            "verdict": verdict(a, b, better, bound),
        })
    return table


def render(table: List[dict]) -> str:
    def share(value: Optional[float]) -> str:
        return "     -" if value is None else f"{100 * value:5.1f}%"

    lines = [
        f"{'workload':<16} {'metric':<44} {'A':>12} {'B':>12} "
        f"{'B/A':>7} {'bound':>6} {'sprd A':>6} {'sprd B':>6}  verdict"
    ]
    for row in table:
        ratio = row["b"] / row["a"] if row["a"] else float("nan")
        lines.append(
            f"{row['workload']:<16} {row['metric']:<44} "
            f"{row['a']:>12.6g} {row['b']:>12.6g} {ratio:>7.3f} "
            f"{share(row['bound'])} {share(row['spread_a'])} "
            f"{share(row['spread_b'])}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    table = rows(load(argv[0]), load(argv[1]))
    print(render(table))
    worse = [row for row in table if row["verdict"] == "worse"]
    unresolved = [row for row in table if row["verdict"] == "unresolved"]
    print(
        f"{len(table)} rows: {len(worse)} worse, "
        f"{len(unresolved)} unresolved (B/A is B's median over A's)"
    )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
