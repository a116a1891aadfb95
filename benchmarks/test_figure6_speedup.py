"""Figure 6 reproduction: per-application speedup of vectorized
execution (dynamic warp formation, max warp size 4) over the scalar
baseline.

Paper shape: average 1.45x; ~1.0x for the memory-bound sync-heavy apps
(BoxFilter, ScalarProd, SobolQRNG); 2.25x BinomialOptions; 3.9x cp;
slowdowns for MersenneTwister, mri-q and mri-fhd.
"""

import pytest

from repro.bench import run_figure6
from repro.bench.paper_reference import (
    FIGURE6_AVERAGE,
    FIGURE6_SLOWDOWNS,
)
from repro.bench.reporting import format_figure6

from conftest import publish


@pytest.fixture(scope="module")
def figure6(runner):
    return run_figure6(runner)


def test_figure6_speedups(benchmark, figure6, runner, results_dir):
    from repro.workloads import get_workload
    from repro.bench.harness import VECTORIZED

    benchmark.pedantic(
        lambda: get_workload("Template").run_on(
            runner.config(VECTORIZED), scale=0.25
        ),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "figure6", format_figure6(figure6))

    speedups = figure6.speedups
    # The figure is drawn over the paper's applications; the
    # divergence-stress extensions (workloads/branchy.py) are reported
    # with it, averaged apart, and held to their own, weaker bound below.
    paper = {
        name: speed for name, speed in speedups.items()
        if get_workload(name).suite == "paper"
    }

    # The paper-suite average lands in the paper's band (paper: 1.45x).
    assert figure6.average == pytest.approx(FIGURE6_AVERAGE, abs=0.35)

    # The paper's slowdown applications slow down here too.
    for name in FIGURE6_SLOWDOWNS:
        assert speedups[name] < 1.0, name

    # cp is the best real application (paper: 3.9x).
    best_app, best_speed = figure6.best
    assert best_speed > 2.5

    # Compute-bound uniform apps beat the memory-bound class.
    assert speedups["BlackScholes"] > speedups["ScalarProd"]
    assert speedups["MonteCarlo"] > speedups["BoxFilter"]

    # Nothing degenerates: every app of the paper within [0.3x, 5x].
    for name, speed in paper.items():
        assert 0.3 < speed < 5.0, name
    # The extensions diverge by construction and lose to scalar under
    # dynamic formation (Bisect 0.28x) until a policy picks the width
    # per kernel: ROADMAP item 5.
    for name in speedups.keys() - paper.keys():
        assert speedups[name] > 0.2, name
