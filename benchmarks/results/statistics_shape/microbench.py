"""Per-call cost of what the statistics declaration prints, runnable on
the parent commit and on the change:

    PYTHONPATH=src python benchmarks/results/statistics_shape/microbench.py

- ``LaunchStatistics.merge`` of a launch's statistics into a total;
- ``CacheStatistics.snapshot()`` + ``delta()`` around a launch, on a
  cache holding the 43 apps' 132 specializations (what every launch
  pays once);
- the per-warp accounting step: entry, execution-manager charge, the
  executed counters, the yield — with the warp's execution and the
  yield's scheduling consequences stubbed out, so only the accounting
  is timed. The change has it as ``ExecutionManager._run_warp``; the
  parent spells it inline in its window loop, copied here. Since the
  manager tallies a window's statistics (and handles a branch yield
  inline), the step stubs the interpreter's ``execute`` and the ready
  pool's ``push`` and flushes the tally before the counts are checked.
"""

from time import perf_counter

from repro import Device
from repro.runtime.context import ThreadContext, Warp
from repro.runtime.statistics import LaunchStatistics
from repro.workloads.registry import all_workloads


def best(function, number, repeats=9):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(number):
            function()
        times.append(perf_counter() - start)
    return min(times) / number * 1e6


def parent_step(manager, window, warp, executable, restored):
    """The parent's window-loop tail (``bb70fa9``), verbatim."""
    stats = manager.stats
    size = len(warp.contexts)
    stats.record_entry(manager.worker_id, size, restored)
    stats.em_cycles += (
        manager.machine.em_event_cost
        + manager.machine.em_per_thread_cost * size
    )
    if manager.trace is not None:
        raise AssertionError
    status = manager._execute_warp(window, warp, executable)
    manager._absorb_execution(manager._warp_state.stats)
    stats.record_yield(status)
    if manager.trace is not None:
        raise AssertionError
    manager._handle_yield(window, status, warp)
    if window.watched:
        manager._check_watchdog(window)


class _Ready:
    def push(self, *args):
        pass


class _Window:
    watched = False
    kernel_name = "k"
    param_base = 0
    ready = _Ready()
    tally = LaunchStatistics()


def main():
    device = Device()
    for workload in all_workloads():
        device.register_module(workload.module_source())
    device.warm()
    cache = device.cache.statistics
    print(f"{len(cache.compile_seconds)} specializations")

    def around_a_launch():
        cache.delta(cache.snapshot())

    print(f"snapshot+delta   {best(around_a_launch, 2_000):8.3f} us")

    launch = LaunchStatistics()
    for size in (1, 2, 4):
        launch.warp_size_histogram[size] = 7
    launch.yields_by_status.update({1: 3, 2: 4, 3: 5})
    launch.worker_cycles.update({0: 10, 1: 11, 2: 12, 3: 13})
    launch.cache = cache.delta(cache.snapshot())
    total = LaunchStatistics()
    total.merge(launch)
    print(f"merge            {best(lambda: total.merge(launch), 20_000):8.3f} us")

    manager = device.launcher.managers[0]
    manager.stats = LaunchStatistics()
    state = manager._warp_state
    contexts = [
        ThreadContext(
            tid=(lane, 0, 0), ntid=(4, 1, 1), ctaid=(0, 0, 0),
            nctaid=(1, 1, 1), shared_base=0, local_base=0,
            resume_point=0, linear_ctaid=0,
        )
        for lane in range(4)
    ]
    warp = Warp(contexts=contexts, warp_id=0)

    def executed(*args, **kwargs):  # a warp ran: 40 instructions
        executed_stats = state.stats
        executed_stats.reset()
        executed_stats.kernel_cycles = 100
        executed_stats.yield_cycles = 20
        executed_stats.instructions = 40
        executed_stats.flops = 8
        return 1

    if hasattr(manager, "_execute_warp"):
        manager._execute_warp = executed
        manager._handle_yield = lambda *args: None
    else:
        manager.interpreter.execute = executed
    window = _Window()
    if hasattr(manager, "_run_warp"):
        step = lambda: manager._run_warp(window, warp, None, 2)  # noqa: E731
    else:
        step = lambda: parent_step(manager, window, warp, None, 2)  # noqa: E731
    print(f"per-warp step    {best(step, 200_000):8.3f} us")
    if hasattr(manager, "_flush"):
        manager._flush(window)
    assert manager.stats.instructions % 40 == 0
    assert manager.stats.warp_executions * 40 == manager.stats.instructions


if __name__ == "__main__":
    main()
