"""Self-healing DevicePool: reply correlation, interruptible waits,
shutdown escalation, crash/hang/pipe chaos, warm respawn with epoch
semantics, a booting worker judged by its own rule, retry, respawn
off, deadlines, and service-level load shedding + graceful drain.
(The worker slot's transition table itself is driven without
processes in tests/test_pool_lifecycle.py.)"""

import os
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    DeadlineExpired,
    DeviceLost,
    LaunchError,
    ServiceUnavailable,
)
from repro.runtime.pool import DevicePool, TenantSession
from repro.runtime.service import (
    KernelServer,
    ServeClient,
    _reconnect_backoff,
)
from repro.runtime.traps import format_device_lost
from repro.testing.fault_injection import FaultInjector
from tests.conftest import VECADD_PTX

N = 8

#: Victim module registered through the *session* (tenant-private), so
#: respawn must replay it from the parent's journal.
PRIVATE_PTX = VECADD_PTX.replace("vecAdd", "privAdd")

#: A kernel with no pointer arguments: a launch of it names nothing a
#: respawn could make stale.
NOOP_PTX = r"""
.version 2.3
.target sim

.entry poolNoop (.param .u32 n)
{
  .reg .u32 %r<2>;
  ld.param.u32 %r1, [n];
  exit;
}
"""


def _buffers(session):
    a = session.upload(np.arange(N, dtype=np.float32))
    b = session.upload(np.arange(N, dtype=np.float32))
    c = session.malloc(4 * N)
    return a, b, c


def _hold_lost(pool, index=0):
    """Kill worker ``index`` and keep its slot ``lost``: the supervisor
    declares the loss but never reaps it. Returns the slot."""
    worker = pool._workers[index]
    worker.reap = lambda timeout=5.0: None
    worker.process.kill()
    deadline = time.monotonic() + 30.0
    while worker.state != "lost" and time.monotonic() < deadline:
        time.sleep(0.01)
    assert worker.state == "lost"
    return worker


def _wait_recovered(pool, index=0, epoch=1, timeout=60.0):
    """Poll until worker ``index`` is live again (it has replied) at
    ``epoch``; returns the final WorkerHealth."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        health = pool.health()[index]
        if health.state == "live" and health.epoch >= epoch:
            return health
        time.sleep(0.02)
    return pool.health()[index]


class TestReplyCorrelation:
    def test_stale_reply_is_discarded_not_misattributed(self):
        """Regression: a reply left in the pipe by a timed-out call
        must never be returned to the next caller."""
        with DevicePool(workers=1, supervise=False) as pool:
            worker = pool._workers[0]
            with pytest.raises(LaunchError, match="timed out"):
                worker.call("chaos_hang", duration=0.4, timeout=0.05)
            # The hang's reply arrives first; it must be dropped and
            # the ping's own (correlated) reply returned.
            reply = worker.call("ping", timeout=30.0)
            assert reply["pid"] == worker.process.pid

    def test_shutdown_interrupts_waiting_call(self):
        """The worker lock covers only send/bookkeeping: a caller
        blocked on a slow request cannot block shutdown, and shutdown
        resolves the waiter with DeviceLost."""
        pool = DevicePool(workers=1, supervise=False)
        worker = pool._workers[0]
        errors = []

        def slow():
            try:
                worker.call("chaos_hang", duration=30.0)
            except LaunchError as error:
                errors.append(error)

        thread = threading.Thread(target=slow)
        thread.start()
        time.sleep(0.3)  # let the request reach the worker
        start = time.monotonic()
        pool.shutdown()
        assert time.monotonic() - start < 20.0
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert errors and isinstance(errors[0], DeviceLost)

    def test_shutdown_escalates_terminate_to_kill(self):
        """A worker that ignores SIGTERM is killed, and teardown never
        raises (guarded close)."""
        pool = DevicePool(workers=1, supervise=False)
        worker = pool._workers[0]
        worker.call("chaos_ignore_term", timeout=30.0)
        pid = worker.process.pid
        worker.fire("loss", "test: sigterm ignored")
        worker.reap(timeout=1.0)
        with pytest.raises(OSError):
            os.kill(pid, 0)
        pool.shutdown()  # double teardown stays silent


class TestCrashRecovery:
    def test_kill_respawn_epoch_journal_and_isolation(self):
        """The acceptance drill: kill worker 0 mid-launch; in-flight
        work resolves to DeviceLost at the dead epoch, the supervisor
        respawns the worker (replaying the tenant-private module
        journal), stale allocations fail fast, and the co-tenant on
        worker 1 is untouched. (Its launches are two warps: nothing
        here is ever batched, so there is one execution path to drill;
        tests/test_durability.py replays launches that do batch.)"""
        with DevicePool(
            workers=2, modules=[VECADD_PTX], circuit_cooldown=0.2
        ) as pool:
            pool.ready(timeout=300.0)
            victim = pool.session("victim", worker=0)
            healthy = pool.session("healthy", worker=1)
            victim.register_module(PRIVATE_PTX)
            va, vb, vc = _buffers(victim)
            ha, hb, hc = _buffers(healthy)
            victim.launch("privAdd", 1, N, [va, vb, vc, N])

            injector = FaultInjector(pool, seed=0)
            injector.arm(
                "kill_worker", probability=1.0, worker=0, op="launch"
            )
            future = victim.launch_async(
                "privAdd", 1, N, [va, vb, vc, N]
            )
            error = future.exception(timeout=120.0)
            injector.restore()

            assert isinstance(error, DeviceLost)
            assert error.worker == 0
            assert error.epoch == 0
            assert error.delivered is True
            assert "worker 0" in str(error)
            report = format_device_lost(error)
            assert "device lost: worker 0" in report
            assert "never retried automatically" in report
            assert victim.stats.device_lost >= 1

            health = _wait_recovered(pool, index=0, epoch=1)
            assert health.alive and health.epoch == 1
            assert health.respawns == 1
            assert "worker health:" in pool.report()

            # Allocations from the dead epoch fail fast.
            with pytest.raises(DeviceLost, match="epoch"):
                victim.read(vc, np.float32, N)
            with pytest.raises(DeviceLost, match="re-allocate"):
                victim.write(va, np.ones(N, dtype=np.float32))

            # An infrastructure loss is not a sticky tenant fault:
            # fresh buffers + the journal-replayed private module work
            # on the respawned worker without a reset().
            a2, b2, c2 = _buffers(victim)
            victim.launch("privAdd", 1, N, [a2, b2, c2, N])
            assert np.allclose(
                victim.read(c2, np.float32, N), np.arange(N) * 2
            )

            # Co-tenant on worker 1: same epoch, same buffers, zero
            # failures.
            assert pool.health()[1].epoch == 0
            healthy.launch("vecAdd", 1, N, [ha, hb, hc, N])
            assert np.allclose(
                healthy.read(hc, np.float32, N), np.arange(N) * 2
            )
            assert healthy.stats.failed == 0

    def test_hung_worker_detected_and_recycled(self):
        """Stuck-call supervision: a wedged worker is declared hung
        past hang_timeout, the in-flight launch fails with DeviceLost,
        and the slot is respawned."""
        with DevicePool(
            workers=1,
            modules=[NOOP_PTX],
            hang_timeout=0.5,
            circuit_cooldown=0.2,
        ) as pool:
            pool.ready(timeout=300.0)
            session = pool.session("wedged")
            injector = FaultInjector(pool, seed=0)
            injector.arm(
                "hang_worker", probability=1.0, worker=0,
                op="launch", duration=30.0,
            )
            future = session.launch_async("poolNoop", 1, N, [N])
            error = future.exception(timeout=120.0)
            injector.restore()
            assert isinstance(error, DeviceLost)
            assert "hung" in error.cause
            health = _wait_recovered(pool)
            assert health.alive and health.respawns >= 1
            session.launch("poolNoop", 1, N, [N])

    def test_booting_worker_is_not_judged_by_the_stuck_call_rule(self):
        """A hang timeout far below the worker's boot time (about half
        a second): the ``ready`` call waits out the boot in
        ``starting``, which only the probe timeout bounds, so it is
        never declared hung (the flake of the test above, pinned)."""
        with DevicePool(
            workers=1, modules=[NOOP_PTX], hang_timeout=0.1
        ) as pool:
            pool.ready(timeout=300.0)
            (health,) = pool.health()
            assert health.respawns == 0
            assert health.state == "live" and health.epoch == 0

    def test_a_call_sent_while_booting_is_not_judged_by_the_boot(self):
        """``starting`` measures only the boot: a call sent before the
        worker booted is a live worker's call — it may run past the
        probe timeout, and its hang timeout counts from the boot (the
        boot plus the call outlast it)."""
        with DevicePool(
            workers=1, modules=[NOOP_PTX],
            probe_timeout=3.0, hang_timeout=3.75,
        ) as pool:
            worker = pool._workers[0]
            worker.call("chaos_hang", duration=3.5, timeout=60.0)
            (health,) = pool.health()
            assert health.respawns == 0 and health.state == "live"

    def test_respawn_off_fails_a_journaled_launch_fast(self):
        """With respawn off a lost slot closes for good: a durable
        session's launch resolves to DeviceLost at once instead of
        staying parked until shutdown, and a memory op does not wait
        out the restore timeout."""
        with DevicePool(
            workers=1, modules=[VECADD_PTX], respawn=False
        ) as pool:
            pool.ready(timeout=300.0)
            session = pool.session("orphan", durability="journal")
            a, b, c = _buffers(session)
            pool._workers[0].process.kill()
            start = time.monotonic()
            future = session.launch_async("vecAdd", 1, N, [a, b, c, N])
            error = future.exception(timeout=5.0)
            assert isinstance(error, DeviceLost)
            assert error.worker == 0 and error.epoch == 0
            with pytest.raises(DeviceLost):
                session.read(c, np.float32, N)
            assert time.monotonic() - start < 5.0
            while (
                pool.health()[0].state != "closed"
                and time.monotonic() - start < 10.0
            ):
                time.sleep(0.01)
            (health,) = pool.health()
            assert health.state == "closed" and not health.alive
            assert health.respawns == 0

    def test_drop_pipe_is_undelivered_loss(self):
        """A send onto a broken pipe never reached the worker: the
        loss carries delivered=False."""
        with DevicePool(
            workers=1, modules=[NOOP_PTX], circuit_cooldown=0.2
        ) as pool:
            pool.ready(timeout=300.0)
            session = pool.session("dropped")
            injector = FaultInjector(pool, seed=0)
            injector.arm(
                "drop_pipe", probability=1.0, worker=0, op="launch"
            )
            future = session.launch_async("poolNoop", 1, N, [N])
            error = future.exception(timeout=120.0)
            injector.restore()
            assert isinstance(error, DeviceLost)
            assert error.delivered is False
            _wait_recovered(pool)
            session.launch("poolNoop", 1, N, [N])


class TestOneWayThroughALoss:
    """Durability is the one way a launch caught by a worker loss is
    re-dispatched; a non-durable session's launch fails with its
    loss, and the caller reads ``delivered``."""

    def test_undelivered_buffer_launch_restored_to_success(self):
        """drop_pipe fails the dispatch of a three-buffer launch before
        the request leaves the parent; the journal session parks it,
        the restore rebuilds the buffers on the respawned worker, and
        the launch completes there with the right output."""
        with DevicePool(
            workers=1, modules=[VECADD_PTX], circuit_cooldown=0.2
        ) as pool:
            pool.ready(timeout=300.0)
            session = pool.session("restorer", durability="journal")
            a, b, c = _buffers(session)
            injector = FaultInjector(pool, seed=0)
            injector.arm(
                "drop_pipe", probability=1.0, worker=0, op="launch"
            )
            future = session.launch_async("vecAdd", 1, N, [a, b, c, N])
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if injector.fired.get("drop_pipe"):
                    break
                time.sleep(0.005)
            injector.restore()  # one-shot: let the re-dispatch through
            result = future.result(timeout=120.0)
            assert result.restored is True
            assert session.stats.restored_launches == 1
            assert session.stats.device_lost == session.stats.failed == 0
            assert np.allclose(
                session.read(c, np.float32, N), np.arange(N) * 2
            )

    def test_a_non_durable_buffer_launch_fails_with_its_loss(self):
        """Without durability nothing re-dispatches: the same launch
        resolves to its undelivered DeviceLost, nothing parks, and the
        buffers it named are stale on the respawned worker."""
        with DevicePool(
            workers=1, modules=[VECADD_PTX], circuit_cooldown=0.2
        ) as pool:
            pool.ready(timeout=300.0)
            session = pool.session("plain")
            a, b, c = _buffers(session)
            injector = FaultInjector(pool, seed=0)
            injector.arm(
                "drop_pipe", probability=1.0, worker=0, op="launch"
            )
            future = session.launch_async("vecAdd", 1, N, [a, b, c, N])
            error = future.exception(timeout=120.0)
            injector.restore()
            assert isinstance(error, DeviceLost)
            assert error.delivered is False
            assert not session._parked
            assert session.stats.device_lost == 1
            _wait_recovered(pool)
            with pytest.raises(DeviceLost, match="re-allocate") as stale:
                session.read(c, np.float32, N)
            assert stale.value.cause == "stale allocation epoch"
            with pytest.raises(DeviceLost, match="re-allocate"):
                session.launch_async("vecAdd", 1, N, [a, b, c, N])

    def test_a_parked_launch_waits_no_longer_than_its_deadline(self):
        """The slot is held ``lost`` (never reaped): a durable
        session's launch parks, and the supervisor fails it once its
        deadline passes instead of leaving it parked."""
        with DevicePool(workers=1, modules=[VECADD_PTX]) as pool:
            pool.ready(timeout=300.0)
            session = pool.session("patient", durability="journal")
            a, b, c = _buffers(session)
            worker = _hold_lost(pool)
            start = time.monotonic()
            future = session.launch_async(
                "vecAdd", 1, N, [a, b, c, N], deadline=0.5
            )
            error = future.exception(timeout=30.0)
            assert isinstance(error, DeadlineExpired)
            assert time.monotonic() - start < 3.0
            assert session.stats.expired == 1
            assert session.stats.restored_launches == 0
            assert worker.state == "lost" and not session._parked

    def test_without_supervision_nothing_parks(self):
        """Nothing brings a lost slot back in an unsupervised pool, so
        a durable session's launch caught by the loss fails with it at
        once, and its memory op does not wait for a restore."""
        with DevicePool(
            workers=1, modules=[VECADD_PTX], supervise=False
        ) as pool:
            pool.ready(timeout=300.0)
            durable = pool.session("kept", durability="journal")
            a, b, c = _buffers(durable)
            process = pool._workers[0].process
            process.kill()
            process.join(30.0)  # the send then fails: undelivered
            start = time.monotonic()
            future = durable.launch_async(
                "vecAdd", 1, N, [a, b, c, N], deadline=0.5
            )
            error = future.exception(timeout=30.0)
            assert isinstance(error, DeviceLost)
            assert error.delivered is False
            with pytest.raises(DeviceLost):
                durable.read(c, np.float32, N)
            assert time.monotonic() - start < 3.0
            assert not durable._parked


class TestPoolWideRegistration:
    def test_a_lost_worker_does_not_stop_a_registration(self):
        """Worker 0 is dead when a pool-wide module arrives: worker 1
        still takes it, and both slots journal it, so a respawn of
        worker 0 registers it too. A source no worker takes is an
        error, journaled nowhere."""
        with DevicePool(workers=2, supervise=False) as pool:
            pool.ready(timeout=300.0)
            process = pool._workers[0].process
            process.kill()
            process.join(30.0)
            assert pool.register_module(NOOP_PTX) == ["poolNoop"]
            journals = [list(worker.journal) for worker in pool._workers]
            assert journals == [[NOOP_PTX], [NOOP_PTX]]
            session = pool.session("survivor", worker=1)
            session.launch("poolNoop", 1, N, [N])
            bad = ".version 2.3\n.target sim\n.entry k () {\n  bogus;\n}"
            with pytest.raises(LaunchError, match="unknown opcode"):
                pool.register_module(bad)
            assert all(bad not in worker.journal for worker in pool._workers)


class TestDeadlines:
    def test_queued_launch_expires_before_dispatch(self):
        """A wedged worker holds the queue; a deadline-bearing launch
        behind it expires with DeadlineExpired instead of running
        late. The launch never ran: guest memory untouched."""
        with DevicePool(workers=1, modules=[NOOP_PTX]) as pool:
            pool.ready(timeout=300.0)
            session = pool.session("deadline")
            injector = FaultInjector(pool, seed=0)
            injector.arm(
                "hang_worker", probability=1.0, worker=0,
                op="launch", duration=1.0,
            )
            first = session.launch_async("poolNoop", 1, N, [N])
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if injector.fired.get("hang_worker"):
                    break
                time.sleep(0.005)
            injector.restore()
            second = session.launch_async(
                "poolNoop", 1, N, [N], deadline=0.1
            )
            error = second.exception(timeout=120.0)
            assert isinstance(error, DeadlineExpired)
            assert first.exception(timeout=120.0) is None
            assert session.stats.expired == 1


class TestServiceResilience:
    def test_admission_control_sheds_503_with_retry_after(self):
        pool = DevicePool(workers=1, modules=[VECADD_PTX])
        pool.ready(timeout=300.0)
        server = KernelServer(pool, max_queue_depth=0)
        server.start_background()
        try:
            client = ServeClient(
                server.host, server.port, tenant="shed"
            )
            with pytest.raises(ServiceUnavailable) as info:
                client.launch("vecAdd", 1, N, [])
            assert info.value.retry_after == 1.0
            health = client.health()
            assert health["ok"] is True and not health["draining"]
            assert health["workers"][0]["state"] == "live"
            client.close()
        finally:
            server.shutdown(drain=False)

    def test_reconnect_backoff_grows_and_jitter_bounded(self):
        import random

        rng = random.Random(0)
        first = _reconnect_backoff(1, rng)
        second = _reconnect_backoff(2, rng)
        assert 0.1 <= first <= 0.15
        assert 0.2 <= second <= 0.3

    def test_per_tenant_queue_bound(self):
        pool = DevicePool(workers=1, modules=[VECADD_PTX])
        pool.ready(timeout=300.0)
        server = KernelServer(pool, max_tenant_queue=0)
        server.start_background()
        try:
            client = ServeClient(
                server.host, server.port, tenant="bounded"
            )
            with pytest.raises(ServiceUnavailable, match="bounded"):
                client.launch("vecAdd", 1, N, [])
            client.close()
        finally:
            server.shutdown(drain=False)

    def test_admission_and_the_launch_are_one_step(self, monkeypatch):
        """Two concurrent launches of one tenant against
        max_tenant_queue=1: the bound is read and the pending count
        raised under one lock, so exactly one is admitted and the other
        is shed. The sleep widens the window between the two; the
        worker is held busy so the admitted launch stays pending."""
        launch_async = TenantSession.launch_async

        def slow_launch_async(self, *args, **kwargs):
            time.sleep(0.2)
            return launch_async(self, *args, **kwargs)

        monkeypatch.setattr(TenantSession, "launch_async", slow_launch_async)
        pool = DevicePool(workers=1, modules=[NOOP_PTX])
        pool.ready(timeout=300.0)
        server = KernelServer(pool, max_tenant_queue=1)
        server.start_background()
        injector = FaultInjector(pool, seed=0)
        injector.arm(
            "hang_worker", probability=1.0, worker=0,
            op="launch", duration=2.0,
        )
        clients = [
            ServeClient(server.host, server.port, tenant="racer")
            for _ in range(2)
        ]
        barrier = threading.Barrier(len(clients))
        outcomes = []

        def launch(client):
            barrier.wait(timeout=30)
            try:
                client.launch("poolNoop", 1, N, [N])
                outcomes.append("admitted")
            except ServiceUnavailable:
                outcomes.append("shed")

        try:
            threads = [
                threading.Thread(target=launch, args=(client,))
                for client in clients
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert sorted(outcomes) == ["admitted", "shed"]
        finally:
            injector.restore()
            for client in clients:
                client.close()
            server.shutdown(drain=False)

    def test_graceful_drain_flushes_then_sheds(self):
        pool = DevicePool(workers=1, modules=[VECADD_PTX])
        pool.ready(timeout=300.0)
        server = KernelServer(pool)
        server.start_background()
        try:
            client = ServeClient(
                server.host, server.port, tenant="drainee"
            )
            a = client.upload(np.arange(N, dtype=np.float32))
            b = client.upload(np.arange(N, dtype=np.float32))
            c = client.malloc(4 * N)
            launch = client.launch(
                "vecAdd", 1, N,
                [{"allocation": a}, {"allocation": b},
                 {"allocation": c}, N],
            )
            server.drain(timeout=120.0)
            assert server.draining
            # New launches shed; in-flight results still collectable.
            with pytest.raises(ServiceUnavailable, match="draining"):
                client.launch("vecAdd", 1, N, [])
            reply = client.collect(launch)
            assert reply["ok"] is True
            assert client.health()["draining"] is True
            assert np.allclose(
                client.read(c, np.float32, N), np.arange(N) * 2
            )
            client.close()
        finally:
            server.shutdown(drain=False)


class TestExports:
    def test_resilience_api_exported(self):
        import repro

        for name in (
            "DeviceLost",
            "DeadlineExpired",
            "ServiceUnavailable",
            "WorkerHealth",
            "format_device_lost",
        ):
            assert hasattr(repro, name), name
