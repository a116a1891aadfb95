"""Control-flow melding pass tests: region detection (diamonds and
triangles), alignment, profitability, config/cache-key plumbing,
statistics surfacing, meld-on/off differential conformance across
backends, and the census of what melds in the 43 apps."""

from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from repro import Device, ExecutionConfig, vectorized_config
from repro.frontend import translate_kernel
from repro.ir import CondBranch, verify_function
from repro.machine.descriptor import sandybridge
from repro.ptx import parse
from repro.runtime.config import apply_meld_env
from repro.transforms import meld_function
from repro.workloads import all_workloads, get_workload
from tests.conftest import COLLATZ_PTX, collatz_steps, sequential_only

HEADER = ".version 2.3\n.target sim\n"


def scalar_of(source, name="k"):
    return translate_kernel(parse(HEADER + source).kernel(name))


#: Divergent diamond with similar pure arms (the DARM motivating case).
DIAMOND = """
.entry k (.param .u64 out)
{
  .reg .u32 %r<8>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
  mov.u32 %r1, %tid.x;
  and.b32 %r2, %r1, 1;
  setp.eq.u32 %p1, %r2, 0;
  @%p1 bra EVEN;
  mul.lo.u32 %r3, %r1, 3;
  add.u32 %r3, %r3, 1;
  bra JOIN;
EVEN:
  mul.lo.u32 %r3, %r1, 5;
  add.u32 %r3, %r3, 7;
JOIN:
  mul.wide.u32 %rd1, %r1, 4;
  ld.param.u64 %rd2, [out];
  add.u64 %rd3, %rd2, %rd1;
  st.global.u32 [%rd3], %r3;
  exit;
}
"""

#: Same diamond shape, but the predicate derives from a kernel
#: parameter — provably uniform, never a divergence source.
UNIFORM_DIAMOND = """
.entry k (.param .u64 out, .param .u32 flag)
{
  .reg .u32 %r<8>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
  mov.u32 %r1, %tid.x;
  ld.param.u32 %r2, [flag];
  setp.eq.u32 %p1, %r2, 0;
  @%p1 bra EVEN;
  mul.lo.u32 %r3, %r1, 3;
  add.u32 %r3, %r3, 1;
  bra JOIN;
EVEN:
  mul.lo.u32 %r3, %r1, 5;
  add.u32 %r3, %r3, 7;
JOIN:
  mul.wide.u32 %rd1, %r1, 4;
  ld.param.u64 %rd2, [out];
  add.u64 %rd3, %rd2, %rd1;
  st.global.u32 [%rd3], %r3;
  exit;
}
"""

#: A store in only one arm: no partner to align with, so melding the
#: region would execute the store speculatively on the wrong path.
LONE_STORE = """
.entry k (.param .u64 out)
{
  .reg .u32 %r<8>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
  mov.u32 %r1, %tid.x;
  and.b32 %r2, %r1, 1;
  setp.eq.u32 %p1, %r2, 0;
  mul.wide.u32 %rd1, %r1, 4;
  ld.param.u64 %rd2, [out];
  add.u64 %rd3, %rd2, %rd1;
  @%p1 bra EVEN;
  mul.lo.u32 %r3, %r1, 3;
  st.global.u32 [%rd3], %r3;
  bra JOIN;
EVEN:
  add.u32 %r4, %r1, 7;
JOIN:
  exit;
}
"""

#: ``%clock`` in an arm: a context read is neither speculable nor
#: alignable (its value depends on *when* it executes).
CLOCK_ARM = """
.entry k (.param .u64 out)
{
  .reg .u32 %r<8>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
  mov.u32 %r1, %tid.x;
  and.b32 %r2, %r1, 1;
  setp.eq.u32 %p1, %r2, 0;
  @%p1 bra EVEN;
  mov.u32 %r3, %clock;
  bra JOIN;
EVEN:
  add.u32 %r3, %r1, 7;
JOIN:
  mul.wide.u32 %rd1, %r1, 4;
  ld.param.u64 %rd2, [out];
  add.u64 %rd3, %rd2, %rd1;
  st.global.u32 [%rd3], %r3;
  exit;
}
"""

#: Triangle: the taken successor is the join, the other arm is pure.
#: Nothing pairs with an empty arm, so the arm runs speculatively.
TRIANGLE = """
.entry k (.param .u64 out)
{
  .reg .u32 %r<8>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
  mov.u32 %r1, %tid.x;
  mov.u32 %r3, 7;
  and.b32 %r2, %r1, 1;
  setp.eq.u32 %p1, %r2, 0;
  @%p1 bra JOIN;
  add.u32 %r3, %r1, 100;
JOIN:
  mul.wide.u32 %rd1, %r1, 4;
  ld.param.u64 %rd2, [out];
  add.u64 %rd3, %rd2, %rd1;
  st.global.u32 [%rd3], %r3;
  exit;
}
"""

#: A triangle guarding a store: the store has no partner in the empty
#: arm and would run on the path that skips it.
TRIANGLE_STORE = """
.entry k (.param .u64 out)
{
  .reg .u32 %r<8>;
  .reg .u64 %rd<4>;
  .reg .pred %p<2>;
  mov.u32 %r1, %tid.x;
  and.b32 %r2, %r1, 1;
  setp.eq.u32 %p1, %r2, 0;
  mul.wide.u32 %rd1, %r1, 4;
  ld.param.u64 %rd2, [out];
  add.u64 %rd3, %rd2, %rd1;
  @%p1 bra JOIN;
  st.global.u32 [%rd3], %r1;
JOIN:
  exit;
}
"""

#: A loop whose exit is divergent: the back edge closes no region.
LOOP_EXIT = """
.entry k ()
{
  .reg .u32 %r<4>;
  .reg .pred %p<2>;
  mov.u32 %r1, 0;
  mov.u32 %r2, %tid.x;
LOOP:
  add.u32 %r1, %r1, 1;
  setp.lt.u32 %p1, %r1, %r2;
  @%p1 bra LOOP;
  exit;
}
"""

#: A diamond in a 3-trip loop whose arms each define a register the
#: other does not, and which nothing before the loop defines. Both are
#: live at the join: an earlier iteration's value must survive the
#: iterations that take the other arm.
LOOP_CARRIED = """
.entry k (.param .u64 out)
{
  .reg .u32 %r<8>;
  .reg .u64 %rd<4>;
  .reg .pred %p<3>;
  mov.u32 %r1, %tid.x;
  mov.u32 %r4, 0;
LOOP:
  add.u32 %r2, %r1, %r4;
  and.b32 %r3, %r2, 1;
  setp.eq.u32 %p1, %r3, 0;
  @%p1 bra EVEN;
  add.u32 %r6, %r4, 200;
  bra JOIN;
EVEN:
  add.u32 %r5, %r4, 100;
JOIN:
  add.u32 %r4, %r4, 1;
  setp.lt.u32 %p2, %r4, 3;
  @%p2 bra LOOP;
  mul.wide.u32 %rd1, %r1, 8;
  ld.param.u64 %rd2, [out];
  add.u64 %rd3, %rd2, %rd1;
  st.global.u32 [%rd3], %r5;
  st.global.u32 [%rd3+4], %r6;
  exit;
}
"""


# ---------------------------------------------------------------------------
# Pass-level unit tests
# ---------------------------------------------------------------------------


def test_diamond_melds_to_straight_line():
    function = scalar_of(DIAMOND)
    report = meld_function(function, sandybridge(), warp_size=4)
    assert report.melded_regions == 1
    assert report.rejected_regions == 0
    for block in function.ordered_blocks():
        assert not isinstance(block.terminator, CondBranch)
    verify_function(function)


def test_warp_size_one_never_melds():
    function = scalar_of(DIAMOND)
    report = meld_function(function, sandybridge(), warp_size=1)
    assert report.melded_regions == 0
    assert all(d.reason == "unprofitable" for d in report.decisions)
    # the divergent estimate degenerates to branch + one arm: there is
    # no divergence to pay for at width 1, so melding cannot win
    assert any(
        isinstance(block.terminator, CondBranch)
        for block in function.ordered_blocks()
    )


def test_uniform_branch_is_not_a_candidate():
    function = scalar_of(UNIFORM_DIAMOND)
    report = meld_function(function, sandybridge(), warp_size=4)
    assert report.melded_regions == 0
    assert report.decisions == []


def test_unaligned_store_rejects_region():
    function = scalar_of(LONE_STORE)
    report = meld_function(function, sandybridge(), warp_size=4)
    assert report.melded_regions == 0
    assert [d.reason for d in report.decisions] == ["unaligned-memory-op"]
    verify_function(function)


def test_triangle_melds_to_straight_line():
    function = scalar_of(TRIANGLE)
    report = meld_function(function, sandybridge(), warp_size=4)
    assert [d.reason for d in report.decisions] == ["profitable"]
    (decision,) = report.decisions
    assert decision.taken == decision.join == "JOIN"
    assert decision.aligned_pairs == 0
    for block in function.ordered_blocks():
        assert not isinstance(block.terminator, CondBranch)
    verify_function(function)


def test_triangle_store_rejects_region():
    function = scalar_of(TRIANGLE_STORE)
    report = meld_function(function, sandybridge(), warp_size=4)
    assert report.melded_regions == 0
    assert [d.reason for d in report.decisions] == ["unaligned-memory-op"]
    verify_function(function)


def test_arm_size_limit():
    function = scalar_of(DIAMOND)
    report = meld_function(
        function, sandybridge(), warp_size=4, max_arm_instructions=1
    )
    assert report.decisions == []
    assert any(
        isinstance(block.terminator, CondBranch)
        for block in function.ordered_blocks()
    )


def test_loop_exit_branch_is_not_a_region():
    function = scalar_of(LOOP_EXIT)
    report = meld_function(function, sandybridge(), warp_size=4)
    assert report.decisions == []
    assert any(
        isinstance(block.terminator, CondBranch)
        for block in function.ordered_blocks()
    )


def test_context_read_rejects_region():
    function = scalar_of(CLOCK_ARM)
    report = meld_function(function, sandybridge(), warp_size=4)
    assert report.melded_regions == 0
    assert [d.reason for d in report.decisions] == [
        "unsupported-instruction"
    ]


def test_decisions_respect_profitability_model():
    for source, warp_size in ((DIAMOND, 4), (DIAMOND, 1)):
        function = scalar_of(source)
        report = meld_function(function, sandybridge(), warp_size)
        for decision in report.decisions:
            if decision.melded:
                assert (
                    decision.est_melded_cycles
                    < decision.est_divergent_cycles
                )
            elif decision.reason == "unprofitable":
                assert (
                    decision.est_melded_cycles
                    >= decision.est_divergent_cycles
                )


def test_collatz_loop_diamond_melds():
    function = translate_kernel(parse(COLLATZ_PTX).kernel("collatz"))
    report = meld_function(function, sandybridge(), warp_size=4)
    assert report.melded_regions == 1
    assert report.predicted_saving > 0
    verify_function(function)


# ---------------------------------------------------------------------------
# Config / cache-key / env plumbing
# ---------------------------------------------------------------------------


def test_cache_key_stable_with_meld_off():
    off = ExecutionConfig(meld=False).cache_key()
    on = ExecutionConfig(meld=True).cache_key()
    assert off != on
    assert ("meld",) in on
    assert all(entry != ("meld",) for entry in off)
    # meld-off digests are byte-identical to pre-meld releases: the
    # flag appends to the key instead of occupying a fixed slot
    assert on[:-1] == off


def test_repro_meld_env_enables(monkeypatch):
    monkeypatch.setenv("REPRO_MELD", "1")
    assert apply_meld_env(ExecutionConfig()).meld is True
    assert Device().config.meld is True
    monkeypatch.setenv("REPRO_MELD", "off")
    assert apply_meld_env(ExecutionConfig()).meld is False
    monkeypatch.delenv("REPRO_MELD")
    assert apply_meld_env(ExecutionConfig()).meld is False


# ---------------------------------------------------------------------------
# Statistics surfacing + differential conformance
# ---------------------------------------------------------------------------


def _run_collatz(config):
    device = Device(config=config)
    device.register_module(COLLATZ_PTX)
    device.warm()
    rng = np.random.default_rng(7)
    data = rng.integers(1, 400, size=64, dtype=np.uint32)
    source = device.upload(data)
    destination = device.malloc(64 * 4)
    result = device.launch(
        "collatz",
        grid=(2, 1, 1),
        block=(32, 1, 1),
        args=[source, destination, 64],
    )
    values = destination.read(np.uint32, 64)
    expected = np.array(
        [collatz_steps(int(v)) for v in data], dtype=np.uint32
    )
    assert np.array_equal(values, expected)
    return values, result.statistics


def test_launch_statistics_surface_meld_decisions(monkeypatch):
    monkeypatch.delenv("REPRO_MELD", raising=False)
    _, stats_off = _run_collatz(vectorized_config(4))
    _, stats_on = _run_collatz(replace(vectorized_config(4), meld=True))
    assert stats_off.melded_regions == 0
    assert "melding" not in stats_off.report()
    assert stats_on.melded_regions == 1
    assert stats_on.meld_predicted_saving > 0
    assert "melding" in stats_on.report()
    assert stats_on.divergent_yields < stats_off.divergent_yields
    assert stats_on.total_cycles < stats_off.total_cycles


def test_meld_halves_collatz_divergence(monkeypatch):
    monkeypatch.delenv("REPRO_MELD", raising=False)
    n = 256
    values = np.random.default_rng(0).integers(1, 2000, n).astype(np.uint32)

    def yields(config):
        device = Device(config=config)
        device.register_module(COLLATZ_PTX)
        source = device.upload(values)
        destination = device.malloc(n * 4)
        result = device.launch(
            "collatz", grid=(4, 1, 1), block=(64, 1, 1),
            args=[source, destination, n],
        )
        return result.statistics.divergent_yields

    plain = yields(vectorized_config(4))
    melded = yields(replace(vectorized_config(4), meld=True))
    assert melded < plain / 2


@pytest.mark.parametrize("leg", ["batching", "sequential", "dispatch"])
def test_meld_differential_per_backend(leg, monkeypatch):
    """Melding preserves guest results bit-for-bit on every execution
    path — the one executor batching a CTA of 8 warps, the same with
    every batch refused, the reference oracle — and the modeled
    statistics of a fixed meld setting are identical across them."""
    monkeypatch.delenv("REPRO_MELD", raising=False)
    base = vectorized_config(4)
    if leg == "dispatch":
        base = replace(base, backend="reference")
    with sequential_only() if leg == "sequential" else nullcontext():
        off_values, off_stats = _run_collatz(base)
        on_values, on_stats = _run_collatz(replace(base, meld=True))
    for statistics in (off_stats, on_stats):
        assert statistics.batched_warps == (8 if leg == "batching" else 0)
    assert np.array_equal(off_values, on_values)
    assert on_stats.divergent_yields <= off_stats.divergent_yields
    # and against the reference interpreter:
    reference = replace(base, backend="reference")
    _, reference_off = _run_collatz(reference)
    _, reference_on = _run_collatz(replace(reference, meld=True))
    for mine, reference in (
        (off_stats, reference_off),
        (on_stats, reference_on),
    ):
        assert mine.total_cycles == reference.total_cycles
        assert mine.yields_by_status == reference.yields_by_status
        assert mine.instructions == reference.instructions


def _run_k(source, config, words):
    device = Device(config=config)
    device.register_module(HEADER + source)
    out = device.upload(np.zeros(words, dtype=np.uint32))
    result = device.launch("k", grid=(1, 1, 1), block=(8, 1, 1), args=[out])
    return out.read(np.uint32, words), result.statistics


@pytest.mark.parametrize(
    "source, words", [(DIAMOND, 8), (TRIANGLE, 8), (LOOP_CARRIED, 16)],
    ids=["diamond", "triangle", "loop-carried"],
)
@pytest.mark.parametrize("backend", ["interpreter", "reference"])
def test_melded_region_keeps_results(source, words, backend, monkeypatch):
    monkeypatch.delenv("REPRO_MELD", raising=False)
    base = replace(vectorized_config(4), backend=backend)
    plain, plain_stats = _run_k(source, base, words)
    melded, melded_stats = _run_k(source, replace(base, meld=True), words)
    assert plain_stats.melded_regions == 0
    assert melded_stats.melded_regions == 1
    assert melded_stats.divergent_yields < plain_stats.divergent_yields
    assert np.array_equal(plain, melded)


# ---------------------------------------------------------------------------
# The 43 apps
# ---------------------------------------------------------------------------

#: What melds at width 4: six diamonds, and the triangles of mri-q and
#: mri-fhd (the sample loop's guarded accumulation).
MELDED_KERNELS = {
    "absDiff", "bisectSqrt", "collatzSteps", "gradClamp", "payoff",
    "sharedToggle", "mriQ", "mriFhd",
}


def test_whole_suite_census_and_correct_with_meld():
    melded = set()
    for workload in all_workloads():
        device = Device(config=ExecutionConfig(meld=True))
        workload.prepare(device)
        run = workload.execute(device, scale=0.25, check=True)
        assert run.correct, workload.name
        for kernel, _ in device.cache.cached_specializations():
            report = device.cache.meld_report(kernel)
            if report.melded_regions:
                melded.add(kernel)
            for decision in report.decisions:
                if decision.melded:
                    assert (
                        decision.est_melded_cycles
                        < decision.est_divergent_cycles
                    )
    assert melded == MELDED_KERNELS


def test_meld_gains_on_the_suite(monkeypatch):
    """Yield-on-diverge against conditional data flow (§7): melding
    mri-q's triangle removes every divergent yield of the app, and
    convergent or unmeldable apps do not lose."""
    monkeypatch.delenv("REPRO_MELD", raising=False)
    gains = {}
    for app in ("MersenneTwister", "Eigenvalues", "BlackScholes", "mri-q"):
        workload = get_workload(app)
        plain = workload.run_on(ExecutionConfig(), scale=0.5)
        melded = workload.run_on(ExecutionConfig(meld=True), scale=0.5)
        gains[app] = plain.elapsed_cycles / melded.elapsed_cycles
        if app == "mri-q":
            assert plain.statistics.divergent_yields > 0
            assert melded.statistics.divergent_yields == 0
    assert gains.pop("mri-q") >= 1.8
    for app, gain in gains.items():
        assert gain >= 0.95, app
