"""Durable tenant sessions: operation journaling, checkpoints that
compact the journal in the parent's memory, transparent restore after
DeviceLost, restore-crash retry, a failed replay, the liveness/
readiness health split, and ServeClient idempotent-request retry."""

import ast
import inspect
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.errors import DeviceLost, LaunchError
from repro.runtime.pool import DevicePool, TenantSession
from repro.runtime.service import KernelServer, ServeClient
from repro.testing.fault_injection import FaultInjector
from tests.conftest import VECADD_PTX

N = 8

PRIVATE_PTX = VECADD_PTX.replace("vecAdd", "durAdd")


def _buffers(session):
    a = session.upload(np.arange(N, dtype=np.float32))
    b = session.upload(np.ones(N, dtype=np.float32))
    c = session.malloc(4 * N)
    return a, b, c


def _vecadd(session, a, b, c, kernel="vecAdd"):
    return session.launch(kernel, (1, 1, 1), (N, 1, 1), [a, b, c, N])


def _expected():
    return np.arange(N, dtype=np.float32) + 1


def _wait_recovered(pool, index=0, epoch=1, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        health = pool.health()[index]
        if health.state == "live" and health.epoch >= epoch:
            return health
        time.sleep(0.02)
    return pool.health()[index]


class TestModuleJournalDedupe:
    def test_register_journal_is_per_unique_module(self):
        with DevicePool(workers=1, modules=[VECADD_PTX]) as pool:
            worker = pool._workers[0]
            assert len(worker.journal) == 1
            session = pool.session("dedupe")
            session.register_module(VECADD_PTX)
            session.register_module(VECADD_PTX)
            assert len(worker.journal) == 1
            session.register_module(PRIVATE_PTX)
            session.register_module(PRIVATE_PTX)
            assert len(worker.journal) == 2

    def test_rejected_register_is_not_journaled(self):
        bad = ".version 2.3\n.target sim\n.entry k () {\n  bogus;\n}"
        with DevicePool(workers=1) as pool:
            pool.ready(timeout=300.0)
            session = pool.session("durable", durability="journal")
            with pytest.raises(LaunchError, match="unknown opcode") as info:
                session.register_module(bad)
            assert not isinstance(info.value, DeviceLost)
            assert bad not in pool._workers[0].journal
            assert session.stats.restores == 0
            assert session.register_module(PRIVATE_PTX) == ["durAdd"]
            assert list(pool._workers[0].journal) == [PRIVATE_PTX]


class TestJournalRestore:
    @pytest.mark.parametrize("durability", ["journal", "checkpoint"])
    def test_kill_then_bit_identical_reads(self, durability, tmp_path):
        with DevicePool(
            workers=1, modules=[VECADD_PTX],
            state_dir=str(tmp_path),
        ) as pool:
            pool.ready(timeout=300.0)
            session = pool.session("victim", durability=durability)
            a, b, c = _buffers(session)
            _vecadd(session, a, b, c)
            before = session.read(c, np.float32, N)
            pool._workers[0].process.kill()
            # The very next read must restore transparently and give
            # back the pre-kill bytes through the original handles.
            after = session.read(c, np.float32, N)
            assert np.array_equal(after, before)
            assert np.array_equal(after, _expected())
            assert session.stats.restores == 1
            # The recovery SLO: respawn + replay of three buffers.
            assert 0.0 < session.stats.restore_seconds <= 15.0
            health = _wait_recovered(pool)
            assert health.restores == 1
            assert health.last_restore_seconds is not None
            # The restored tenant keeps working.
            _vecadd(session, a, b, c)
            assert np.array_equal(
                session.read(c, np.float32, N), _expected()
            )

    def test_inflight_launches_redispatch_with_restored_flag(self):
        with DevicePool(workers=1, modules=[VECADD_PTX]) as pool:
            pool.ready(timeout=300.0)
            session = pool.session("victim", durability="journal")
            a, b, c = _buffers(session)
            with FaultInjector(pool, seed=0) as injector:
                injector.arm(
                    "kill_worker", probability=1.0, worker=0,
                    op="launch", kernel="vecAdd",
                )
                futures = [
                    session.launch_async(
                        "vecAdd", (1, 1, 1), (N, 1, 1), [a, b, c, N]
                    )
                    for _ in range(4)
                ]
                while not injector.fired.get("kill_worker"):
                    time.sleep(0.005)
                injector.restore()
                results = [f.result(timeout=300.0) for f in futures]
            assert any(result.restored for result in results)
            assert session.stats.restored_launches >= 1
            assert session.stats.device_lost == 0
            assert np.array_equal(
                session.read(c, np.float32, N), _expected()
            )

    def test_register_caught_by_a_loss_is_retried_and_journaled(self):
        with DevicePool(workers=1) as pool:
            pool.ready(timeout=300.0)
            session = pool.session("victim", durability="journal")
            with FaultInjector(pool, seed=0) as injector:
                injector.arm(
                    "kill_worker", probability=1.0, worker=0, op="register"
                )
                registered = []
                thread = threading.Thread(
                    target=lambda: registered.append(
                        session.register_module(PRIVATE_PTX)
                    )
                )
                thread.start()
                while not injector.fired.get("kill_worker"):
                    time.sleep(0.005)
                injector.restore()
                thread.join(timeout=300.0)
            assert registered == [["durAdd"]]
            assert PRIVATE_PTX in pool._workers[0].journal
            assert session.stats.restores == 1
            a, b, c = _buffers(session)
            _vecadd(session, a, b, c, kernel="durAdd")
            assert np.array_equal(
                session.read(c, np.float32, N), _expected()
            )
            # A session that surfaces losses still sees this one.
            plain = pool.session("plain")
            with FaultInjector(pool, seed=0) as injector:
                injector.arm(
                    "kill_worker", probability=1.0, worker=0, op="register"
                )
                with pytest.raises(DeviceLost):
                    plain.register_module(VECADD_PTX)

    def test_co_tenant_on_other_worker_unaffected(self):
        with DevicePool(workers=2, modules=[VECADD_PTX]) as pool:
            pool.ready(timeout=300.0)
            victim = pool.session(
                "victim", durability="journal", worker=0
            )
            bystander = pool.session("bystander", worker=1)
            va, vb, vc = _buffers(victim)
            ba, bb, bc = _buffers(bystander)
            _vecadd(bystander, ba, bb, bc)
            pool._workers[0].process.kill()
            assert np.array_equal(
                victim.read(vc, np.float32, N),
                np.zeros(N, dtype=np.float32),
            )
            # The bystander's worker never died: same epoch, no
            # restore, handles still hot.
            _vecadd(bystander, ba, bb, bc)
            assert np.array_equal(
                bystander.read(bc, np.float32, N), _expected()
            )
            assert bystander.stats.restores == 0
            assert pool.health()[1].epoch == 0

    def test_free_is_journaled(self):
        with DevicePool(workers=1, modules=[VECADD_PTX]) as pool:
            pool.ready(timeout=300.0)
            session = pool.session("freer", durability="journal")
            a, b, c = _buffers(session)
            session.free(b)
            with pytest.raises(LaunchError, match="freed"):
                _vecadd(session, a, b, c)
            pool._workers[0].process.kill()
            # Restore replays the free too: the handle stays dead.
            assert np.array_equal(
                session.read(a, np.float32, N),
                np.arange(N, dtype=np.float32),
            )
            with pytest.raises(LaunchError, match="freed"):
                session.read(b, np.float32, N)

    def test_durability_none_keeps_fail_fast_epochs(self):
        with DevicePool(workers=1, modules=[VECADD_PTX]) as pool:
            pool.ready(timeout=300.0)
            session = pool.session("plain")  # durability="none"
            a, b, c = _buffers(session)
            assert session.durability == "none"
            pool._workers[0].process.kill()
            _wait_recovered(pool)
            # Pre-kill allocations are stale: fail fast, no restore.
            with pytest.raises((LaunchError, DeviceLost)):
                _vecadd(session, a, b, c)
            assert session.stats.restores == 0


class TestCheckpointRestore:
    def test_checkpoint_plus_journal_tail_replay(self, tmp_path):
        with DevicePool(
            workers=1, modules=[VECADD_PTX],
            state_dir=str(tmp_path),
        ) as pool:
            pool.ready(timeout=300.0)
            session = pool.session(
                "ckpt", durability="checkpoint",
                checkpoint_interval=1000,
            )
            a, b, c = _buffers(session)
            _vecadd(session, a, b, c)
            assert session.checkpoint() is not None
            # Ops after the checkpoint live only in the journal tail.
            d = session.upload(np.full(N, 5.0, dtype=np.float32))
            _vecadd(session, a, d, c)
            pool._workers[0].process.kill()
            out = session.read(c, np.float32, N)
            assert np.array_equal(
                out, np.arange(N, dtype=np.float32) + 5
            )
            assert session.stats.restores == 1
            # The tail (upload + launch) was replayed, not
            # re-materialized from the snapshot.
            assert session.stats.replayed_ops >= 2
            assert session.stats.checkpoints >= 1
            assert session.stats.checkpoint_bytes > 0

    def test_replay_on_an_empty_admission_record_restores_equal_bytes(
        self, tmp_path, monkeypatch
    ):
        # Which warps run batched depends on what earlier batches of
        # the kernel did *on that worker*. A respawned worker starts
        # with no record, so the journal tail replays onto different
        # batching than the launches first ran with — and must leave
        # the same bytes (and, for the next launch, the same modeled
        # statistics).
        from repro import Device
        from tests.test_array_backend import ZIGZAG_PTX

        # The kernel as written, here and in the workers (which
        # inherit the environment): melded, its batches never abort;
        # sanitized, none is formed.
        for variable in ("REPRO_MELD", "REPRO_SANITIZE"):
            monkeypatch.delenv(variable, raising=False)
        from tests.test_interpreter_lowering import _modeled_statistics

        shape = ((4, 1, 1), (64, 1, 1))
        count = 4 * 64

        def history(launches):
            """Batching of ``launches`` zigzag launches on a compiled
            in-process Device with no record."""
            device = Device()
            device.register_module(ZIGZAG_PTX)
            device.warm()
            dst = device.malloc(4 * count)
            return [
                device.launch("zigzag", *shape, args=[dst, 4]).statistics
                for _ in range(launches)
            ]

        with DevicePool(
            workers=1, modules=[ZIGZAG_PTX], warm=True,
            state_dir=str(tmp_path),
        ) as pool:
            pool.ready(timeout=300.0)
            session = pool.session(
                "zigzag", durability="checkpoint", checkpoint_interval=1000
            )
            buffers = [session.malloc(4 * count) for _ in range(5)]
            ran = [
                session.launch("zigzag", *shape, [buffer, 4]).statistics
                for buffer in buffers[:3]
            ]
            assert session.checkpoint() is not None
            ran += [
                session.launch("zigzag", *shape, [buffer, 4]).statistics
                for buffer in buffers[3:]
            ]
            before = [
                session.read(buffer, np.uint32, count) for buffer in buffers
            ]
            pool._workers[0].process.kill()
            after = [
                session.read(buffer, np.uint32, count) for buffer in buffers
            ]
            assert session.stats.restores == 1
            assert session.stats.replayed_ops >= 2
            for restored, original in zip(after, before):
                assert np.array_equal(restored, original)
            again = session.launch(
                "zigzag", *shape, [buffers[0], 4]
            ).statistics
            assert np.array_equal(
                session.read(buffers[0], np.uint32, count), before[0]
            )
        uninterrupted = history(6)
        for statistics, expected in zip(ran + [again], uninterrupted):
            assert _modeled_statistics(statistics) == (
                _modeled_statistics(expected)
            )
        batching = lambda s: (s.batched_warps, s.batch_fallbacks)  # noqa: E731
        assert [batching(s) for s in ran] == [
            batching(s) for s in uninterrupted[:5]
        ]
        # the sixth launch ran as the third on the respawned worker's
        # record (the two replayed launches of the tail came first)
        assert batching(again) == batching(history(3)[2])
        assert batching(again) != batching(uninterrupted[5])

    def test_auto_checkpoint_fires_on_interval(self, tmp_path):
        with DevicePool(
            workers=1, modules=[VECADD_PTX],
            state_dir=str(tmp_path),
        ) as pool:
            pool.ready(timeout=300.0)
            session = pool.session(
                "auto", durability="checkpoint", checkpoint_interval=2
            )
            a, b, c = _buffers(session)
            for _ in range(4):
                _vecadd(session, a, b, c)
            deadline = time.monotonic() + 30.0
            while (
                session.stats.checkpoints < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert session.stats.checkpoints >= 2
            # The last checkpoint left the journal one upload per
            # live buffer.
            assert [entry[:2] for entry in session._journal] == [
                ("upload", a.handle), ("upload", b.handle),
                ("upload", c.handle),
            ]

    def test_journal_mode_cannot_checkpoint(self):
        with DevicePool(workers=1, modules=[VECADD_PTX]) as pool:
            session = pool.session("nj", durability="journal")
            with pytest.raises(LaunchError, match="checkpoint"):
                session.checkpoint()

    def test_kill_during_restore_retries_to_convergence(
        self, tmp_path
    ):
        with DevicePool(
            workers=1, modules=[VECADD_PTX],
            state_dir=str(tmp_path),
        ) as pool:
            pool.ready(timeout=300.0)
            session = pool.session(
                "twice", durability="checkpoint",
                checkpoint_interval=1000,
            )
            a, b, c = _buffers(session)
            _vecadd(session, a, b, c)
            assert session.checkpoint() is not None
            with FaultInjector(pool, seed=0) as injector:
                injector.arm(
                    "kill_during_restore", probability=1.0,
                    worker=0, after_steps=1, times=1,
                )
                pool._workers[0].process.kill()
                out = session.read(c, np.float32, N)
                assert injector.fired.get("kill_during_restore") == 1
            assert np.array_equal(out, _expected())
            # Two respawns: the original kill and the mid-restore one.
            health = _wait_recovered(pool, epoch=2)
            assert health.respawns >= 2
            assert session.stats.restores == 1
            assert session.stats.restore_failures == 0

    def test_a_failed_restore_leaves_stale_handles_and_a_usable_session(
        self, tmp_path
    ):
        """Two checkpoints compact the journal; a replay that fails
        (here every restore step raises) cannot rebuild the tenant.
        The launch parked across the loss fails with ``restore
        failed``, a pre-loss handle is stale (never bytes of a partial
        replay), and a new buffer works."""
        with DevicePool(
            workers=1, modules=[VECADD_PTX],
            state_dir=str(tmp_path),
        ) as pool:
            pool.ready(timeout=300.0)
            session = pool.session(
                "unrestorable", durability="checkpoint",
                checkpoint_interval=1000,
            )
            a, b, c = _buffers(session)
            _vecadd(session, a, b, c)
            assert session.checkpoint() is not None
            _vecadd(session, a, b, c)
            assert session.checkpoint() is not None
            assert [entry[0] for entry in session._journal] == (
                ["upload"] * 3
            )

            def replay_error(worker, op):
                raise RuntimeError("injected replay error")

            pool._hook_restore_step = replay_error
            # Hold the slot lost so the launch parks before the restore.
            worker = pool._workers[0]
            worker.reap = lambda timeout=5.0: None
            worker.process.kill()
            deadline = time.monotonic() + 30.0
            while worker.state != "lost" and time.monotonic() < deadline:
                time.sleep(0.01)
            future = session.launch_async(
                "vecAdd", (1, 1, 1), (N, 1, 1), [a, b, c, N]
            )
            while not session._parked and time.monotonic() < deadline:
                time.sleep(0.01)
            assert session._parked
            del worker.reap  # the supervisor reaps, respawns, restores
            error = future.exception(timeout=120.0)
            assert isinstance(error, DeviceLost)
            assert error.cause == "restore failed"
            assert "replay error" in str(error)
            assert session.stats.restore_failures == 1
            assert session.stats.restores == 0
            with pytest.raises(DeviceLost) as stale:
                session.read(c, np.float32, N)
            assert stale.value.cause == "stale allocation epoch"
            fresh = session.upload(np.full(N, 3.0, dtype=np.float32))
            assert np.array_equal(
                session.read(fresh, np.float32, N),
                np.full(N, 3.0, dtype=np.float32),
            )

    def test_restore_races_concurrent_co_tenant_launch(self):
        """A co-tenant on the SAME worker keeps submitting while the
        victim's restore runs: both must converge with correct
        numerics and no surfaced DeviceLost."""
        with DevicePool(workers=1, modules=[VECADD_PTX]) as pool:
            pool.ready(timeout=300.0)
            victim = pool.session(
                "racer-victim", durability="journal", worker=0
            )
            rival = pool.session(
                "racer-rival", durability="journal", worker=0
            )
            va, vb, vc = _buffers(victim)
            ra, rb, rc = _buffers(rival)
            failures = []

            def hammer():
                try:
                    for _ in range(6):
                        _vecadd(rival, ra, rb, rc)
                except Exception as error:  # pragma: no cover
                    failures.append(error)

            thread = threading.Thread(target=hammer)
            thread.start()
            pool._workers[0].process.kill()
            out = victim.read(vc, np.float32, N)
            thread.join(timeout=300.0)
            assert not thread.is_alive()
            assert not failures, failures
            assert np.array_equal(
                out, np.zeros(N, dtype=np.float32)
            )
            assert np.array_equal(
                rival.read(rc, np.float32, N), _expected()
            )
            assert victim.stats.restores == 1
            assert rival.stats.restores == 1

    def test_restore_under_sanitized_workers(
        self, tmp_path, monkeypatch
    ):
        """Restored allocations get fresh redzones/shadow state: the
        replayed tenant stays sanitizer-clean after restore."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with DevicePool(
            workers=1, modules=[VECADD_PTX],
            state_dir=str(tmp_path),
        ) as pool:
            pool.ready(timeout=300.0)
            session = pool.session(
                "sanitized", durability="checkpoint",
                checkpoint_interval=1000,
            )
            a, b, c = _buffers(session)
            _vecadd(session, a, b, c)
            assert session.checkpoint() is not None
            pool._workers[0].process.kill()
            assert np.array_equal(
                session.read(c, np.float32, N), _expected()
            )
            # Launching on the restored (checked) arena still works
            # and stays finding-free.
            result = _vecadd(session, a, b, c)
            assert not result.statistics.sanitizer
            assert session.stats.restores == 1

    def test_launch_writes_restored_buffer_where_it_lies_now(
        self, tmp_path, monkeypatch
    ):
        """A checkpoint restore re-creates only the live buffers, in
        handle order, so they can land at new addresses: after
        ``free(b)`` the restored ``c`` sits where ``b`` was. A launch
        naming ``c`` must write the bytes ``c`` occupies now, not the
        range its handle was issued with — the sanitizer would see a
        store into freed or foreign bytes."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        words = 64
        with DevicePool(
            workers=1, modules=[VECADD_PTX],
            state_dir=str(tmp_path),
        ) as pool:
            pool.ready(timeout=300.0)
            session = pool.session(
                "moved", durability="checkpoint",
                checkpoint_interval=1000,
            )
            a = session.upload(np.arange(words, dtype=np.float32))
            b = session.upload(np.ones(words, dtype=np.float32))
            c = session.upload(np.full(words, 2.0, dtype=np.float32))
            session.free(b)
            assert session.checkpoint() is not None
            pool._workers[0].process.kill()
            assert np.array_equal(
                session.read(c, np.float32, words),
                np.full(words, 2.0, dtype=np.float32),
            )
            assert session.stats.restores == 1
            result = session.launch(
                "vecAdd", (1, 1, 1), (words, 1, 1), [a, a, c, words],
            )
            assert not result.statistics.sanitizer
            assert np.array_equal(
                session.read(c, np.float32, words),
                np.arange(words, dtype=np.float32) * 2,
            )


    def test_a_checkpoint_compacts_the_journal_to_one_upload_per_live_buffer(
        self,
    ):
        with DevicePool(workers=1, modules=[VECADD_PTX]) as pool:
            pool.ready(timeout=300.0)
            session = pool.session(
                "compact", durability="checkpoint",
                checkpoint_interval=1000,
            )
            a, b, c = _buffers(session)
            freed = session.upload(np.full(N, 7.0, dtype=np.float32))
            _vecadd(session, a, b, c)
            session.write(b, np.full(N, 4.0, dtype=np.float32))
            session.free(freed)
            before = [
                session.read(buffer, np.uint8, 4 * N)
                for buffer in (a, b, c)
            ]
            assert session.checkpoint() == 1
            assert [
                (kind, handle, label)
                for kind, handle, _, label in session._journal
            ] == [
                ("upload", a.handle, None),
                ("upload", b.handle, None),
                ("upload", c.handle, None),
            ]
            assert [entry[2].tobytes() for entry in session._journal] == [
                data.tobytes() for data in before
            ]
            assert session.stats.checkpoint_bytes == 3 * 4 * N
            pool._workers[0].process.kill()
            after = [
                session.read(buffer, np.uint8, 4 * N)
                for buffer in (a, b, c)
            ]
            assert session.stats.restores == 1
            assert session.stats.replayed_ops == 3
            for restored, original in zip(after, before):
                assert np.array_equal(restored, original)
            with pytest.raises(LaunchError, match="freed"):
                session.read(freed, np.float32, N)

    def test_a_snapshot_caught_by_a_loss_leaves_the_journal_untouched(self):
        with DevicePool(workers=1, modules=[VECADD_PTX]) as pool:
            pool.ready(timeout=300.0)
            session = pool.session(
                "caught", durability="checkpoint",
                checkpoint_interval=1000,
            )
            a, b, c = _buffers(session)
            _vecadd(session, a, b, c)
            before = session.read(c, np.float32, N)
            journal = list(session._journal)
            with FaultInjector(pool, seed=0) as injector:
                injector.arm(
                    "kill_worker", probability=1.0, worker=0,
                    op="snapshot",
                )
                assert session.checkpoint() is None
                assert injector.fired.get("kill_worker") == 1
            assert session.stats.checkpoint_errors == 1
            assert session.stats.checkpoints == 0
            assert session._journal == journal
            after = session.read(c, np.float32, N)
            assert np.array_equal(after, before)
            assert np.array_equal(after, _expected())
            assert session.stats.restores == 1
            assert session.stats.replayed_ops == len(journal)


def test_a_new_pool_never_restores_an_earlier_pools_checkpoint(tmp_path):
    """A checkpoint is this pool's memory, not a file under
    ``state_dir``: a later pool given the same directory restores its
    own tenant's bytes, never the bytes an earlier pool checkpointed
    for a tenant of the same name."""
    with DevicePool(
        workers=1, modules=[VECADD_PTX], state_dir=str(tmp_path)
    ) as first:
        first.ready(timeout=300.0)
        session = first.session("alice", durability="checkpoint")
        session.upload(np.full(N, 1.0, dtype=np.float32))
        assert session.checkpoint() is not None
    with DevicePool(
        workers=1, modules=[VECADD_PTX], state_dir=str(tmp_path)
    ) as second:
        second.ready(timeout=300.0)
        session = second.session("alice", durability="checkpoint")
        buffer = session.upload(np.full(N, 2.0, dtype=np.float32))
        second._workers[0].process.kill()
        assert np.array_equal(
            session.read(buffer, np.float32, N),
            np.full(N, 2.0, dtype=np.float32),
        )
        assert session.stats.restores == 1


def _call_sites(function, method):
    """String first-arguments of every ``<x>.<method>(...)`` call in
    ``function``'s source."""
    return [
        node.args[0].value
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == method
        and node.args
        and isinstance(node.args[0], ast.Constant)
    ]


class TestOneStatePath:
    """Every durability mode runs the same handle table and the same
    op applier; the mode only decides journaling, epoch catch-up and
    loss absorption."""

    @pytest.mark.parametrize(
        "durability", ["none", "journal", "checkpoint"]
    )
    def test_same_ops_same_answers_in_every_mode(
        self, durability, tmp_path
    ):
        with DevicePool(
            workers=1, modules=[VECADD_PTX],
            state_dir=str(tmp_path),
        ) as pool:
            pool.ready(timeout=300.0)
            # A co-tenant allocates first, so worker handles and
            # tenant-local handles cannot coincide by accident.
            other = pool.session("other")
            foreign = other.upload(np.zeros(N, dtype=np.float32))
            other.upload(np.zeros(N, dtype=np.float32))
            session = pool.session("subject", durability=durability)
            a, b, c = (
                session.upload(np.full(N, value, dtype=np.float32))
                for value in (1.0, 2.0, 0.0)
            )
            assert [a.handle, b.handle, c.handle] == [1, 2, 3]
            session.write(b, np.arange(N, dtype=np.float32))
            result = _vecadd(session, a, b, c)
            assert result.restored is False
            assert np.array_equal(
                session.read(c, np.float32, N), _expected()
            )
            session.free(b)
            with pytest.raises(LaunchError, match="freed") as info:
                session.read(b, np.float32, N)
            assert not isinstance(info.value, DeviceLost)
            with pytest.raises(LaunchError, match="freed"):
                session.free(b)
            with pytest.raises(LaunchError, match="freed"):
                _vecadd(session, a, b, c)
            with pytest.raises(LaunchError, match="belongs to tenant"):
                session.read(foreign, np.float32, N)
            with pytest.raises(LaunchError, match="belongs to tenant"):
                _vecadd(session, a, foreign, c)
            # None of the rejected ops disturbed the live buffers,
            # and the next handle continues the tenant's own count.
            assert np.array_equal(
                session.read(c, np.float32, N), _expected()
            )
            assert session.malloc(4 * N).handle == 4
            assert session.stats.restores == 0

    def test_each_op_and_the_handle_translation_are_written_once(self):
        """Pin the structure: within TenantSession every RPC op name
        reaches ``.call(`` from at most one site, and the session
        translates no handle — the one ``__handle__`` marker it builds
        (``_marker``) holds the handle it issued, which the worker keys
        the tenant's buffers by — so replay cannot drift from the live
        path again, and the session keeps no per-buffer record."""
        source = textwrap.dedent(inspect.getsource(TenantSession))
        tree = ast.parse(source)
        called = _call_sites(tree, "call")
        for op in ("malloc", "upload", "write", "free", "launch"):
            assert called.count(op) <= 1, (op, called)
        builders = [
            function.name
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            and any(
                isinstance(node, ast.Dict)
                and any(
                    isinstance(key, ast.Constant) and key.value == "__handle__"
                    for key in node.keys
                )
                for node in ast.walk(function)
            )
        ]
        assert builders == ["_marker"]
        assert "_slots" not in source and "_slot(" not in source


class TestServeDurability:
    @pytest.fixture()
    def server(self, tmp_path):
        pool = DevicePool(
            workers=1, modules=[VECADD_PTX],
            state_dir=str(tmp_path),
        )
        pool.ready(timeout=300.0)
        server = KernelServer(
            pool, durability="checkpoint", checkpoint_interval=4
        )
        server.start_background()
        yield server
        server.shutdown(drain=False)

    def test_http_restore_with_restored_flag(self, server):
        client = ServeClient(server.host, server.port, "http-victim")
        a = client.upload(np.arange(N, dtype=np.float32))
        b = client.upload(np.ones(N, dtype=np.float32))
        c = client.malloc(4 * N)
        args = [{"allocation": a}, {"allocation": b},
                {"allocation": c}, N]
        reply = client.run("vecAdd", 1, N, args)
        assert reply["restored"] is False
        server.pool._workers[0].process.kill()
        out = client.read(c, np.float32, N)
        assert np.array_equal(out, _expected())
        # The payload is the tenant record's as_dict(): the counters
        # only the text report used to show are keys of it.
        stats = client.stats()["tenants"]["http-victim"]
        assert stats["restores"] == 1
        assert stats["device_lost"] == 0  # the restore absorbed the loss
        assert stats["restore_failures"] == stats["checkpoint_errors"] == 0
        assert stats["timeouts"] == stats["expired"] == 0
        assert stats["replayed_ops"] >= 0 and stats["checkpoints"] >= 0
        assert stats["instructions"] == stats["statistics"]["instructions"]
        (worker,) = client.health()["workers"]
        assert worker["restores"] == 1 and worker["epoch"] == 1
        assert worker["failures"] == 0 and worker["in_flight"] == 0
        reply = client.run("vecAdd", 1, N, args)
        assert reply["ok"] is True
        client.close()

    def test_session_durability_override(self, server):
        client = ServeClient(
            server.host, server.port, "http-plain",
            durability="none",
        )
        session = server.pool.session("http-plain")
        assert session.durability == "none"
        client.close()

    def test_collect_is_idempotent(self, server):
        client = ServeClient(server.host, server.port, "http-idem")
        launch = client.launch("vecAdd", 1, N, [])
        first = client.collect(launch)
        second = client.collect(launch)
        assert first == second
        client.close()

    def test_liveness_stays_200_while_ready_goes_503(self, server):
        client = ServeClient(server.host, server.port, "http-lb")
        assert client.health()["ok"] is True
        assert client.ready()["ready"] is True
        server.drain(timeout=60.0)
        # Liveness: still 200 (the raise-for-status path would throw
        # on a 503). Readiness: 503 payload with the reason.
        assert client.health()["draining"] is True
        ready = client.ready()
        assert ready["ready"] is False and ready["draining"] is True
        client.close()

    def test_client_retries_idempotent_requests(self, server):
        client = ServeClient(server.host, server.port, "http-retry")
        c = client.upload(np.arange(N, dtype=np.float32))
        real = client._transport
        dropped = {"count": 0}

        def flaky(method, path, payload, headers):
            if path == "/v1/read" and dropped["count"] < 2:
                dropped["count"] += 1
                client._conn.close()
                raise ConnectionResetError("injected reset")
            return real(method, path, payload, headers)

        client._transport = flaky
        out = client.read(c, np.float32, N)
        assert dropped["count"] == 2
        assert np.array_equal(
            out, np.arange(N, dtype=np.float32)
        )
        client.close()

    def test_client_never_resends_mutations(self, server):
        client = ServeClient(server.host, server.port, "http-mut")

        def always_down(method, path, payload, headers):
            raise ConnectionResetError("injected reset")

        client._transport = always_down
        with pytest.raises(ConnectionResetError):
            client.malloc(4 * N)
        client.close()


class TestExports:
    def test_durability_api_exported(self):
        import repro

        assert "StateStore" not in repro.__all__
        health = repro.WorkerHealth(
            worker=0, alive=True, state="closed", epoch=1,
            restores=2, last_restore_seconds=0.5,
        )
        assert "restores=2" in health.describe()
