"""Ablation studies for the design choices DESIGN.md calls out.

- **Max warp size sweep** (§6.1's closing observation: "detect cases
  when diverging branches are so frequent that scalar execution is
  optimal"): divergence-heavy apps prefer narrower maxima; uniform
  compute-bound apps prefer the machine width.
- **Reconvergence yields**: disabling the scalar specialization's
  branch yields removes warp re-formation after divergence.
- **Cross-CTA warp formation** (Fig. 2 draws from several CTAs):
  widens warps for tiny CTAs.
- **Cleanup pipeline**: the traditional optimizations (§5.1) earn
  their place by shrinking the vectorized kernels.
- **Control-flow melding** (DARM): melding divergent arms never fires
  where the pass's own cost model predicts a loss.
"""

import pytest

from repro import Device, ExecutionConfig
from repro.bench.figures import run_meld_ablation
from repro.bench.reporting import format_meld_ablation
from repro.workloads import get_workload

from conftest import publish

SCALE = 0.5


def cycles_for(workload_name, config, scale=SCALE):
    workload = get_workload(workload_name)
    return workload.run_on(config, scale=scale).elapsed_cycles


@pytest.fixture(scope="module")
def warp_size_sweep():
    apps = ("MersenneTwister", "cp", "BlackScholes")
    sweep = {}
    for app in apps:
        for max_ws in (1, 2, 4):
            sizes = tuple(s for s in (1, 2, 4) if s <= max_ws)
            config = ExecutionConfig(
                warp_sizes=sizes,
                scalar_yields_at_branches=(
                    False if max_ws == 1 else None
                ),
            )
            sweep[(app, max_ws)] = cycles_for(app, config)
    return sweep


def test_ablation_max_warp_size(benchmark, warp_size_sweep,
                                results_dir):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = ["Ablation: max warp size sweep (cycles)", "-" * 60]
    for (app, max_ws), cycles in sorted(warp_size_sweep.items()):
        lines.append(f"  {app:<20} max_ws={max_ws}  {cycles:>12,}")
    publish(results_dir, "ablation_warpsize", "\n".join(lines))

    # Divergence-heavy: scalar execution is optimal (§6.1).
    mt = {
        ws: warp_size_sweep[("MersenneTwister", ws)] for ws in (1, 2, 4)
    }
    assert mt[1] < mt[4]

    # Compute-bound uniform: wider is strictly better.
    for app in ("cp", "BlackScholes"):
        series = {ws: warp_size_sweep[(app, ws)] for ws in (1, 2, 4)}
        assert series[4] < series[2] < series[1], app


def test_ablation_reconvergence_yields(benchmark, results_dir):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    with_yields = ExecutionConfig(
        warp_sizes=(1, 2, 4), scalar_yields_at_branches=True
    )
    without_yields = ExecutionConfig(
        warp_sizes=(1, 2, 4), scalar_yields_at_branches=False
    )
    workload = get_workload("MersenneTwister")
    run_with = workload.run_on(with_yields, scale=SCALE)
    run_without = workload.run_on(without_yields, scale=SCALE)
    text = (
        "Ablation: scalar-specialization branch yields "
        "(MersenneTwister)\n" + "-" * 60 + "\n"
        f"  with re-formation    avg warp "
        f"{run_with.statistics.average_warp_size:.2f}, "
        f"{run_with.elapsed_cycles:,} cycles\n"
        f"  without re-formation avg warp "
        f"{run_without.statistics.average_warp_size:.2f}, "
        f"{run_without.elapsed_cycles:,} cycles"
    )
    publish(results_dir, "ablation_reconvergence", text)

    # Re-formation costs extra yields: every scalar branch returns to
    # the execution manager looking for partners...
    assert (
        run_with.statistics.divergent_yields
        > run_without.statistics.divergent_yields
    )
    # ...and therefore more warp executions overall.
    assert (
        run_with.statistics.warp_executions
        > run_without.statistics.warp_executions
    )


def test_ablation_cross_cta_formation(benchmark, results_dir):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    same = ExecutionConfig(warp_sizes=(1, 2, 4))
    cross = ExecutionConfig(
        warp_sizes=(1, 2, 4), allow_cross_cta_warps=True
    )
    # SimpleVoteIntrinsics uses 2-thread CTAs: the formation scope is
    # exactly what limits its warp width.
    # scale=4 gives 16 two-thread CTAs: four per execution manager,
    # so cross-CTA formation has partners to find.
    workload = get_workload("SimpleVoteIntrinsics")
    run_same = workload.run_on(same, scale=4.0)
    run_cross = workload.run_on(cross, scale=4.0, check=False)
    text = (
        "Ablation: cross-CTA warp formation "
        "(SimpleVoteIntrinsics, 2-thread CTAs)\n" + "-" * 60 + "\n"
        f"  same-CTA  avg warp "
        f"{run_same.statistics.average_warp_size:.2f}\n"
        f"  cross-CTA avg warp "
        f"{run_cross.statistics.average_warp_size:.2f}"
    )
    publish(results_dir, "ablation_cross_cta", text)
    assert (
        run_cross.statistics.average_warp_size
        > run_same.statistics.average_warp_size
    )


def test_ablation_cleanup_pipeline(benchmark, results_dir):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for app in ("BlackScholes", "Nbody", "Reduction"):
        workload = get_workload(app)
        counts = {}
        for label, optimize in (("raw", False), ("optimized", True)):
            device = Device(
                config=ExecutionConfig(
                    warp_sizes=(1, 2, 4), optimize=optimize
                )
            )
            workload.prepare(device)
            kernel_name = next(
                iter(device.modules[0].kernels)
            )
            counts[label] = device.cache.instruction_count(
                kernel_name, 4
            )
        rows.append((app, counts["raw"], counts["optimized"]))
    lines = [
        "Ablation: cleanup pipeline static instruction counts (ws=4)",
        "-" * 60,
    ]
    for app, raw, optimized in rows:
        lines.append(
            f"  {app:<16} raw={raw:>5}  optimized={optimized:>5}  "
            f"({1 - optimized / raw:.1%} removed)"
        )
    publish(results_dir, "ablation_cleanups", "\n".join(lines))
    for app, raw, optimized in rows:
        assert optimized <= raw, app


def test_ablation_vector_memory(benchmark, results_dir):
    """The paper's §4 future work, evaluated: affine analysis promotes
    contiguous replicated loads/stores to single vector accesses."""
    from repro import static_tie_config

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    plain = static_tie_config(4)
    vmem = static_tie_config(4, vector_memory=True)
    rows = []
    for app in ("Template", "BlackScholes", "DwtHaar1D", "Nbody",
                "MersenneTwister"):
        workload = get_workload(app)
        base = workload.run_on(plain, scale=SCALE)
        optimized = workload.run_on(vmem, scale=SCALE)
        assert optimized.correct
        rows.append(
            (app, base.elapsed_cycles / optimized.elapsed_cycles)
        )
    lines = [
        "Ablation: affine vector memory (static+TIE baseline)",
        "-" * 60,
    ]
    for app, gain in rows:
        lines.append(f"  {app:<20} x{gain:.2f}")
    publish(results_dir, "ablation_vector_memory", "\n".join(lines))

    gains = dict(rows)
    # Streaming kernels with contiguous gid-indexed accesses benefit.
    assert gains["Template"] > 1.1
    assert gains["BlackScholes"] > 1.1
    # Nothing regresses meaningfully.
    for app, gain in rows:
        assert gain > 0.95, app


def test_ablation_melding(benchmark, results_dir, monkeypatch):
    # The off leg must stay off: REPRO_MELD=1 overrides every config.
    monkeypatch.delenv("REPRO_MELD", raising=False)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    ablation = run_meld_ablation(scale=SCALE)
    publish(results_dir, "meld_ablation", format_meld_ablation(ablation))

    # DARM's claim: a region is melded only where the profitability
    # model predicts a saving.
    assert ablation.mispredicted == []
    # Melding pays on the diamonds and triangles it takes.
    assert ablation.improved_count >= len(ablation.rows) // 2
