"""DevicePool: worker sharding, weighted fair queueing, quotas,
per-tenant statistics, and cross-tenant fault isolation."""

import re

import numpy as np
import pytest

from repro import DevicePool, KernelTrap, QuotaExceeded, format_trap
from repro.errors import LaunchError
from repro.runtime.pool import WeightedFairQueue
from tests.conftest import VECADD_PTX, scale_reader_ptx

N = 8

#: Private module of the trapping tenant (registered after the pool's
#: workers warm, so its translation binds the armed fault site).
CHAOS_PTX = VECADD_PTX.replace("vecAdd", "chaosAdd")


@pytest.fixture(scope="module")
def pool():
    with DevicePool(workers=2, modules=[VECADD_PTX]) as pool:
        pool.ready(timeout=300.0)
        yield pool


def _session_buffers(session):
    a = session.upload(np.arange(N, dtype=np.float32))
    b = session.upload(np.arange(N, dtype=np.float32))
    c = session.malloc(4 * N)
    return a, b, c


class TestWeightedFairQueue:
    def test_weighted_interleaving_is_proportional(self):
        """Stride scheduling: weights 2:1 serve a,b,a,a,b,a,a,b,a."""
        queue = WeightedFairQueue()
        queue.add("a", weight=2.0)
        queue.add("b", weight=1.0)
        for index in range(6):
            queue.push("a", f"a{index}")
        for index in range(3):
            queue.push("b", f"b{index}")
        order = []
        while True:
            entry = queue.pop()
            if entry is None:
                break
            order.append(entry[0])
        assert order == ["a", "b", "a", "a", "b", "a", "a", "b", "a"]

    def test_latecomer_not_starved_and_banked_credit_dropped(self):
        """A tenant going idle (or joining late) re-enters at the
        current virtual clock: prompt service, but no banked
        catch-up burst — with banked credit (pass stuck at 0) the
        late tenant's first four pops would ALL be its own."""
        queue = WeightedFairQueue()
        queue.add("old", weight=1.0)
        queue.add("late", weight=1.0)
        for index in range(8):
            queue.push("old", index)
        for _ in range(4):
            assert queue.pop()[0] == "old"
        for index in range(4):
            queue.push("late", index)
        order = [queue.pop()[0] for _ in range(8)]
        assert order == [
            "late", "late", "old", "late", "old", "late", "old", "old",
        ]

    def test_duplicate_tenant_rejected(self):
        queue = WeightedFairQueue()
        queue.add("a")
        with pytest.raises(ValueError, match="already queued"):
            queue.add("a")

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            WeightedFairQueue().add("a", weight=0)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, weight):
        """NaN slips past ``weight <= 0``; an infinite weight strides
        by zero and is served ahead of every co-tenant."""
        with pytest.raises(ValueError, match="positive and finite"):
            WeightedFairQueue().add("a", weight=weight)


class TestSessions:
    def test_tenants_spread_across_workers(self, pool):
        # The pool is module-scoped and other tests create sessions
        # too, so assert the placement *invariant* (every new tenant
        # lands on the least-populated worker) rather than a fixed
        # worker split that only holds when this test runs first.
        def populations():
            counts = {index: 0 for index in range(pool.workers)}
            for session in pool.sessions():
                counts[session.worker_index] += 1
            return counts

        existing = {s.tenant for s in pool.sessions()}
        before = populations()
        alice = pool.session("alice", weight=2.0)
        if "alice" not in existing:
            assert alice.worker_index == min(
                before, key=lambda index: (before[index], index)
            )
        between = populations()
        bob = pool.session("bob")
        if "bob" not in existing:
            assert bob.worker_index == min(
                between, key=lambda index: (between[index], index)
            )
        if not existing and len(set(before.values())) == 1:
            # a balanced pool spreads a fresh pair across workers
            assert alice.worker_index != bob.worker_index
        assert pool.session("alice") is alice

    def test_memory_roundtrip_and_launch(self, pool):
        session = pool.session("alice")
        a, b, c = _session_buffers(session)
        result = session.launch("vecAdd", 1, N, [a, b, c, N])
        assert result.statistics.instructions > 0
        assert np.allclose(
            session.read(c, np.float32, N), np.arange(N) * 2
        )
        session.write(b, np.ones(N, dtype=np.float32))
        session.launch("vecAdd", 1, N, [a, b, c, N])
        assert np.allclose(
            session.read(c, np.float32, N), np.arange(N) + 1
        )
        session.free(c)

    def test_per_tenant_fifo_and_statistics(self, pool):
        session = pool.session("fifo-tenant")
        a, b, c = _session_buffers(session)
        futures = [
            session.launch_async("vecAdd", 1, N, [a, b, c, N])
            for _ in range(4)
        ]
        session.synchronize(timeout=120)
        assert all(future.done() for future in futures)
        stats = session.statistics()
        assert stats.completed == 4
        assert stats.failed == 0
        assert stats.statistics.instructions > 0

    def test_cross_tenant_allocation_rejected(self, pool):
        alice = pool.session("alice")
        bob = pool.session("bob")
        theirs = bob.upload(np.ones(N, dtype=np.float32))
        mine = alice.malloc(4 * N)
        with pytest.raises(LaunchError, match="belongs to tenant"):
            alice.launch_async(
                "vecAdd", 1, N, [theirs, theirs, mine, N]
            )

    def test_a_refused_weight_leaves_no_session(self, pool):
        """The fair queue refuses the weight before the tenant is
        registered, so a retry with a good weight gets a working
        session."""
        with pytest.raises(ValueError, match="positive and finite"):
            pool.session("reweighed", weight=0)
        session = pool.session("reweighed")
        a, b, c = _session_buffers(session)
        session.launch("vecAdd", 1, N, [a, b, c, N])
        assert np.allclose(session.read(c, np.float32, N), np.arange(N) * 2)

    @pytest.mark.parametrize("field, call", [
        ("size", lambda session, a: session.malloc(3.5)),
        ("size", lambda session, a: session.malloc(True)),
        ("size", lambda session, a: session.malloc("8")),
        ("label", lambda session, a: session.malloc(8, label=5)),
        ("count", lambda session, a: session.read(a, "f4", 2.5)),
        ("dtype", lambda session, a: session.read(a, "U1", 1)),
        ("data", lambda session, a: session.upload(np.array(["ab"]))),
        ("allocation", lambda session, a: session.free(1)),
        ("source", lambda session, a: session.register_module(5)),
        ("kernel", lambda session, a: session.launch(5, 1, N, [])),
        ("args", lambda session, a: session.launch("vecAdd", 1, 1, 5)),
        ("args", lambda session, a: session.launch("vecAdd", 1, 1, ["x"])),
    ])
    def test_the_pool_api_refuses_what_http_refuses(
        self, pool, request, field, call
    ):
        """Each field of a tenant op is checked once, in the session,
        for the in-process API and HTTP alike: a bad one is refused
        naming the field, before a handle is issued, a launch counted
        or anything journaled."""
        session = pool.session(request.node.name, durability="journal")
        a = session.upload(np.arange(4, dtype=np.float32))
        journal = list(session._journal)
        with pytest.raises((ValueError, LaunchError), match=field):
            call(session, a)
        assert session._next_local == a.handle + 1
        assert session._journal == journal
        assert session.stats.submitted == session.pending == 0
        assert list(session.read(a, np.float32, 4)) == [0, 1, 2, 3]

    def test_an_array_parameter_and_a_bool_pass_through_the_pool(
        self, pool, request
    ):
        """A launch argument may be a sequence of numbers (an array
        parameter, here ``taps[3]``) or a bool (packed as an integer),
        as on a Device: marshalling them is Device.launch's."""
        from tests.test_api_device import PARAM_ECHO_PTX

        session = pool.session(request.node.name)
        session.register_module(PARAM_ECHO_PTX)
        out = session.malloc(32)
        session.launch(
            "echoParams", 1, 1, [out, True, -17, 2.5, 0, [0.5, 1.0, 1.5]]
        )
        raw = session.read(out, np.uint32, 8)
        assert raw[0] == 1 and raw[1] == np.uint32(np.int32(-17).view("u4"))
        assert session.read(out, np.float32, 8)[6] == 3.0
        with pytest.raises(LaunchError, match="3 elements, got 2"):
            session.launch("echoParams", 1, 1, [out, 1, 2, 3.0, 0, [1, 2]])
        with pytest.raises(LaunchError, match=r"args\[5\]"):
            session.launch("echoParams", 1, 1, [out, 1, 2, 3.0, 0, ["x"]])

    def test_two_tenants_on_one_worker_each_hold_handle_one(self, pool):
        """The worker keys each tenant's buffers by the session's own
        handles: both tenants' first buffer is handle 1."""
        first = pool.session("ones-first", worker=0)
        second = pool.session("ones-second", worker=0)
        mine = first.upload(np.full(N, 1.0, dtype=np.float32))
        theirs = second.upload(np.full(N, 2.0, dtype=np.float32))
        assert mine.handle == theirs.handle == 1
        assert np.array_equal(first.read(mine, np.float32, N), np.full(N, 1.0))
        assert np.array_equal(
            second.read(theirs, np.float32, N), np.full(N, 2.0)
        )

    def test_a_tenant_cannot_reach_past_its_buffer(self, pool):
        """Two tenants pinned to one worker share its arena: a host
        copy through A's buffer is bounded by that buffer, so A can
        neither read B's bytes nor overwrite them."""
        owner = pool.session("bounds-a", worker=0)
        neighbour = pool.session("bounds-b", worker=0)
        a = owner.malloc(16)
        b = neighbour.upload(np.array([7, 8, 9, 10], dtype=np.float32))
        with pytest.raises(LaunchError, match="read of 32 bytes"):
            owner.read(a, np.float32, 8)
        with pytest.raises(LaunchError, match="write of 32 bytes"):
            owner.write(a, np.full(8, -1.0, dtype=np.float32))
        assert list(neighbour.read(b, np.float32, 4)) == [7, 8, 9, 10]
        owner.write(a, np.full(4, -1.0, dtype=np.float32))
        assert list(owner.read(a, np.float32, 4)) == [-1] * 4

    def test_pool_level_report_aggregates_tenants(self, pool):
        session = pool.session("alice")
        a, b, c = _session_buffers(session)
        session.launch("vecAdd", 1, N, [a, b, c, N])
        report = pool.report()
        assert "alice" in report
        assert "aggregate:" in report
        instructions = sum(
            tenant.stats.statistics.instructions for tenant in pool.sessions()
        )
        assert instructions >= session.stats.statistics.instructions > 0
        assert f"instructions={instructions} " in report
        assert len(pool.worker_reports()) == pool.workers

    def test_register_module_after_start(self, pool):
        kernels = pool.register_module(
            VECADD_PTX.replace("vecAdd", "lateAdd")
        )
        assert kernels == ["lateAdd"]
        session = pool.session("late-module")
        a, b, c = _session_buffers(session)
        session.launch("lateAdd", 1, N, [a, b, c, N])
        assert np.allclose(
            session.read(c, np.float32, N), np.arange(N) * 2
        )


class TestQuotas:
    def test_lifetime_launch_quota(self, pool):
        session = pool.session("quota-lifetime", max_launches=2)
        a, b, c = _session_buffers(session)
        for _ in range(2):
            session.launch("vecAdd", 1, N, [a, b, c, N])
        with pytest.raises(QuotaExceeded, match="lifetime"):
            session.launch("vecAdd", 1, N, [a, b, c, N])
        assert session.stats.rejected == 1

    def test_pending_quota(self, pool):
        session = pool.session("quota-pending", max_pending=1)
        a, b, c = _session_buffers(session)
        # Hold the one pending slot artificially.
        with session._condition:
            session._pending = 1
        try:
            with pytest.raises(QuotaExceeded, match="outstanding"):
                session.launch_async("vecAdd", 1, N, [a, b, c, N])
        finally:
            with session._condition:
                session._pending = 0
        session.launch("vecAdd", 1, N, [a, b, c, N])

    @pytest.mark.parametrize("name, value", [
        ("max_pending", "5"),
        ("max_pending", -1),
        ("max_pending", 0),
        ("max_pending", True),
        ("max_pending", 1.5),
        ("max_launches", "5"),
        ("max_launches", -1),
        ("max_launches", False),
        ("worker", "0"),
        ("worker", True),
        ("worker", 0.0),
        ("checkpoint_interval", "32"),
        ("checkpoint_interval", 1.5),
    ])
    def test_a_malformed_session_parameter_leaves_no_session(
        self, pool, name, value
    ):
        """A quota, worker index or checkpoint interval that is not an
        int in range is refused before the session is stored: it
        could otherwise turn every later launch of the tenant into a
        TypeError or a rejection."""
        tenant = f"malformed-{name}-{value!r}"
        with pytest.raises(ValueError, match=name):
            pool.session(tenant, **{name: value})
        assert tenant not in {session.tenant for session in pool.sessions()}
        session = pool.session(tenant)
        a, b, c = _session_buffers(session)
        session.launch("vecAdd", 1, N, [a, b, c, N])
        assert np.allclose(session.read(c, np.float32, N), np.arange(N) * 2)

    def test_quota_is_launch_error_subclass(self):
        assert issubclass(QuotaExceeded, LaunchError)

    @pytest.mark.parametrize(
        "deadline", ["soon", -1.0, float("nan"), float("inf"), True]
    )
    def test_a_malformed_deadline_counts_nothing(self, pool, deadline):
        """A deadline the queue cannot read is refused before the
        launch is counted, so nothing is left pending for
        synchronize() to wait on."""
        session = pool.session(f"deadline-{deadline}")
        a, b, c = _session_buffers(session)
        with pytest.raises(ValueError, match="deadline"):
            session.launch_async(
                "vecAdd", 1, N, [a, b, c, N], deadline=deadline
            )
        assert session.pending == 0
        assert session.stats.submitted == 0
        session.synchronize(timeout=5.0)
        session.launch_async(
            "vecAdd", 1, N, [a, b, c, N], deadline=60
        ).result(timeout=120)


class TestFaultIsolation:
    def test_trapping_tenant_never_blocks_or_corrupts_others(self, pool):
        """The acceptance scenario: chaos tenant pinned to worker 0
        stores through a null output pointer; a same-worker healthy
        tenant and a cross-worker tenant keep launching correct
        results."""
        same = pool.session("healthy-same", worker=0)
        other = pool.session("healthy-other", worker=1)
        sa, sb, sc = _session_buffers(same)
        oa, ob, oc = _session_buffers(other)
        # The healthy tenants run before and after the chaos tenant's
        # trap.
        same.launch("vecAdd", 1, N, [sa, sb, sc, N])
        other.launch("vecAdd", 1, N, [oa, ob, oc, N])

        chaos = pool.session("chaos", worker=0)
        chaos.register_module(CHAOS_PTX)
        ca, cb, cc = _session_buffers(chaos)
        future = chaos.launch_async("chaosAdd", 1, N, [ca, cb, 0, N])
        error = future.exception(timeout=120)
        assert isinstance(error, KernelTrap)
        # Structured payload survived the process boundary.
        assert error.info is not None
        assert error.info.kernel == "chaosAdd"
        assert error.statistics is not None
        assert error.remote_report
        assert "chaosAdd" in error.remote_report
        report = format_trap(error)
        assert "chaosAdd" in report
        assert "cta" in report.lower()
        assert chaos.stats.traps >= 1
        assert chaos.stats.trap_reports

        # Sticky per-tenant: chaos fails fast until reset.
        with pytest.raises(LaunchError, match="failed state"):
            chaos.launch_async("chaosAdd", 1, N, [ca, cb, cc, N])

        # Same-worker tenant unaffected (worker auto-recovered).
        same.launch("vecAdd", 1, N, [sa, sb, sc, N])
        assert np.allclose(same.read(sc, np.float32, N), np.arange(N) * 2)
        # Cross-worker tenant unaffected.
        other.launch("vecAdd", 1, N, [oa, ob, oc, N])
        assert np.allclose(
            other.read(oc, np.float32, N), np.arange(N) * 2
        )
        chaos.reset()
        assert chaos.last_error is None
        chaos.launch("chaosAdd", 1, N, [ca, cb, cc, N])
        assert np.allclose(
            chaos.read(cc, np.float32, N), np.arange(N) * 2
        )

    def test_launches_queued_behind_a_trap_fail_fast(self, pool):
        """Launches already queued when an earlier one of the tenant
        traps fail with a LaunchError at dispatch; none runs or hangs.
        Holding the worker's queue condition while submitting keeps
        the dispatcher from taking the trap before the rest are in."""
        chaos = pool.session("chaos-queued", worker=0)
        chaos.register_module(CHAOS_PTX)
        ca, cb, cc = _session_buffers(chaos)
        with pool._conditions[chaos.worker_index]:
            trap = chaos.launch_async("chaosAdd", 1, N, [ca, cb, 0, N])
            behind = [
                chaos.launch_async("vecAdd", 1, N, [ca, cb, cc, N])
                for _ in range(3)
            ]
        assert isinstance(trap.exception(timeout=120), KernelTrap)
        for future in behind:
            error = future.exception(timeout=120)
            assert type(error) is LaunchError
            assert "failed state" in str(error)
        assert chaos.stats.traps == 1
        assert chaos.stats.failed == 4
        assert chaos.stats.completed == 0
        chaos.reset()

    def test_a_cotenants_module_does_not_retarget_a_kernel(self):
        """Two tenants of one worker register modules that each declare
        ``scale``: the second never points the first's kernel at its
        own, and registering the first text again adds no module and
        drops no code."""
        alice_ptx = scale_reader_ptx("readA", 3.0)
        with DevicePool(workers=1) as pool:
            alice, bob = pool.session("alice"), pool.session("bob")
            alice.register_module(alice_ptx)
            out = alice.malloc(4 * N)
            alice.launch("readA", 1, N, [out])
            bob.register_module(scale_reader_ptx("readB", 7.0))
            alice.launch("readA", 1, N, [out])
            assert list(alice.read(out, np.float32, N)) == [3.0] * N
            for _ in range(3):
                alice.register_module(alice_ptx)
            alice.launch("readA", 1, N, [out])
            report = pool.worker_reports()[0]
            assert "modules=2 " in report
            assert "invalidations=0 " in report


class TestWarmStart:
    def test_warm_pool_with_persistent_cache(self, tmp_path, monkeypatch):
        """REPRO_CACHE=1 + warm=True: a second pool against the same
        cache directory warm-starts from disk (hits reported by the
        worker devices)."""
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with DevicePool(workers=1, modules=[VECADD_PTX], warm=True) as pool:
            pool.ready(timeout=300.0)
            first_report = pool.worker_reports()[0]
        with DevicePool(workers=1, modules=[VECADD_PTX], warm=True) as pool:
            pool.ready(timeout=300.0)
            session = pool.session("warm")
            a, b, c = _session_buffers(session)
            session.launch("vecAdd", 1, N, [a, b, c, N])
            assert np.allclose(
                session.read(c, np.float32, N), np.arange(N) * 2
            )
            second_report = pool.worker_reports()[0]
        match = re.search(r"disk hits=(\d+)", second_report)
        assert match and int(match.group(1)) > 0, (
            first_report, second_report,
        )


class TestLifecycle:
    def test_shutdown_fails_queued_launches(self):
        pool = DevicePool(workers=1, modules=[VECADD_PTX])
        pool.ready(timeout=300.0)
        session = pool.session("doomed")
        a, b, c = _session_buffers(session)
        future = session.launch_async("vecAdd", 1, N, [a, b, c, N])
        pool.shutdown()
        error = future.exception(timeout=60)
        if error is not None:
            assert isinstance(error, LaunchError)
        with pytest.raises(LaunchError):
            session.launch_async("vecAdd", 1, N, [a, b, c, N])

    def test_dead_worker_raises_launch_error(self):
        pool = DevicePool(workers=1, modules=[VECADD_PTX])
        pool.ready(timeout=300.0)
        session = pool.session("orphan")
        a, b, c = _session_buffers(session)
        pool._workers[0].process.terminate()
        pool._workers[0].process.join(10)
        try:
            with pytest.raises(LaunchError, match="worker 0"):
                session.read(a, np.float32, N)
        finally:
            pool.shutdown()
