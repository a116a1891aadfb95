"""Launch futures: the one async launch path, the pool's.

``TenantSession.launch_async`` returns a ``LaunchFuture`` that must
keep the synchronous path's semantics: FIFO order within a tenant, a
trap arriving through the future with full ``format_trap`` attribution
and partial statistics, sticky-error fail-fast until ``reset()``, and
``reset()`` restoring the tenant to launch-ready. The first class
checks the future itself, without a pool."""

import threading

import numpy as np
import pytest

import repro
from repro import Device, DevicePool, KernelTrap, LaunchFuture, format_trap
from repro.errors import LaunchError
from tests.conftest import VECADD_PTX

#: vecAdd variant whose unguarded store hits address zero: traps
#: deterministically on every backend without fault injection.
NULL_STORE_PTX = r"""
.version 2.3
.target sim

.entry nullStore (.param .u64 out, .param .u32 n)
{
  .reg .u32 %r<4>;
  .reg .u64 %rd<3>;
  .reg .f32 %f<2>;

  mov.u32 %r1, %tid.x;
  mov.u64 %rd1, 0;
  cvt.rn.f32.u32 %f1, %r1;
  st.global.f32 [%rd1], %f1;
  exit;
}
"""

#: In-place scale-and-bias over one buffer — non-commutative chain
#: steps make FIFO-order violations visible in the final values.
SCALE_BIAS_PTX = r"""
.version 2.3
.target sim

.entry scaleBias (.param .u64 data, .param .f32 scale,
                  .param .f32 bias, .param .u32 n)
{
  .reg .u32 %r<6>;
  .reg .u64 %rd<4>;
  .reg .f32 %f<4>;
  .reg .pred %p<2>;

  mov.u32 %r1, %tid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %ctaid.x;
  mad.lo.u32 %r4, %r3, %r2, %r1;
  ld.param.u32 %r5, [n];
  setp.ge.u32 %p1, %r4, %r5;
  @%p1 bra DONE;
  mul.wide.u32 %rd1, %r4, 4;
  ld.param.u64 %rd2, [data];
  add.u64 %rd3, %rd2, %rd1;
  ld.global.f32 %f1, [%rd3];
  ld.param.f32 %f2, [scale];
  fma.rn.f32 %f3, %f1, %f2, 0.0;
  ld.param.f32 %f2, [bias];
  add.f32 %f3, %f3, %f2;
  st.global.f32 [%rd3], %f3;
DONE:
  exit;
}
"""

N = 8
MODULES = [VECADD_PTX, SCALE_BIAS_PTX, NULL_STORE_PTX]


@pytest.fixture(scope="module")
def pool():
    with DevicePool(workers=1, modules=MODULES) as pool:
        pool.ready(timeout=300.0)
        yield pool


def _buffers(session):
    a = session.upload(np.arange(N, dtype=np.float32))
    b = session.upload(np.arange(N, dtype=np.float32))
    c = session.malloc(4 * N)
    return a, b, c


def _scale_bias(session, data, scale, bias):
    return session.launch_async(
        "scaleBias", (1, 1, 1), (N, 1, 1), [data, scale, bias, N]
    )


class TestTheFuture:
    def test_a_fresh_future_is_pending_and_times_out(self):
        future = LaunchFuture("vecAdd")
        assert not future.done()
        assert "pending" in repr(future)
        with pytest.raises(LaunchError, match="timed out.*'vecAdd'"):
            future.result(timeout=0.01)
        with pytest.raises(LaunchError, match="timed out"):
            future.exception(timeout=0.01)

    def test_a_resolved_future_hands_back_its_result(self):
        future = LaunchFuture("vecAdd")
        result = object()  # the future hands back what it is given
        future._resolve(result)
        assert future.done()
        assert future.result(timeout=0) is result
        assert future.exception(timeout=0) is None
        assert "completed" in repr(future)

    def test_a_failed_future_reraises_its_error(self):
        future = LaunchFuture("nullStore")
        error = LaunchError("boom")
        future._fail(error)
        assert future.done()
        assert future.exception(timeout=0) is error
        with pytest.raises(LaunchError) as raised:
            future.result(timeout=0)
        assert raised.value is error
        assert "failed: LaunchError" in repr(future)

    def test_a_waiter_in_another_thread_is_released(self):
        future = LaunchFuture("vecAdd")
        result = object()
        seen = []
        waiter = threading.Thread(
            target=lambda: seen.append(future.result(timeout=60))
        )
        waiter.start()
        future._resolve(result)
        waiter.join(60)
        assert not waiter.is_alive()
        assert seen == [result]

    def test_the_future_is_exported_and_streams_are_not(self):
        assert repro.LaunchFuture is LaunchFuture
        for name in ("Stream", "Event"):
            assert not hasattr(repro, name)
            assert not hasattr(repro.api, name)
        assert not hasattr(Device, "launch_async")
        assert not hasattr(Device, "synchronize")


class TestPoolFutures:
    def test_result_matches_synchronous_launch(self, pool):
        device = Device()
        device.register_module(VECADD_PTX)
        da = device.upload(np.arange(N, dtype=np.float32))
        db = device.upload(np.arange(N, dtype=np.float32))
        dc = device.malloc(4 * N)
        sync_result = device.launch("vecAdd", 1, N, [da, db, dc, N])

        session = pool.session("future-result")
        a, b, c = _buffers(session)
        future = session.launch_async("vecAdd", 1, N, [a, b, c, N])
        assert isinstance(future, LaunchFuture)
        result = future.result(timeout=120)
        assert future.done()
        assert result.kernel_name == "vecAdd"
        assert result.statistics.instructions == (
            sync_result.statistics.instructions
        )
        assert np.allclose(
            session.read(c, np.float32, N), np.arange(N) * 2
        )

    def test_exception_returns_none_on_success(self, pool):
        session = pool.session("future-no-error")
        a, b, c = _buffers(session)
        future = session.launch_async("vecAdd", 1, N, [a, b, c, N])
        assert future.exception(timeout=120) is None

    def test_submit_validates_dimensions(self, pool):
        session = pool.session("future-dimensions")
        a, b, c = _buffers(session)
        with pytest.raises(LaunchError, match="grid has 4 dimensions"):
            session.launch_async("vecAdd", (1, 1, 1, 1), N, [a, b, c, N])
        assert session.statistics().submitted == 0
        assert session.pending == 0

    def test_fifo_order_within_a_session(self, pool):
        """A non-commutative chain (x2, x2, +1s, x2 over x0=1 -> 10)
        only produces the right values when executed in FIFO order."""
        session = pool.session("future-fifo")
        data = session.upload(np.ones(N, dtype=np.float32))
        ones = session.upload(np.ones(N, dtype=np.float32))
        futures = [
            _scale_bias(session, data, 2.0, 0.0),
            _scale_bias(session, data, 2.0, 0.0),
            session.launch_async(
                "vecAdd", (1, 1, 1), (N, 1, 1), [data, ones, data, N]
            ),
            _scale_bias(session, data, 2.0, 0.0),
        ]
        for future in futures:
            future.result(timeout=120)
        assert np.allclose(session.read(data, np.float32, N), 10.0)

    def test_sync_launch_runs_after_queued_async_work(self, pool):
        """A synchronous launch queues behind the tenant's earlier
        async launches: (1 x2 x2) x1 +1 = 5."""
        session = pool.session("future-sync-after-async")
        data = session.upload(np.ones(N, dtype=np.float32))
        for _ in range(2):
            _scale_bias(session, data, 2.0, 0.0)
        session.launch(
            "scaleBias", (1, 1, 1), (N, 1, 1), [data, 1.0, 1.0, N]
        )
        assert np.allclose(session.read(data, np.float32, N), 5.0)

    def test_synchronize_drains_the_session(self, pool):
        session = pool.session("future-synchronize")
        a, b, c = _buffers(session)
        futures = [
            session.launch_async("vecAdd", 1, N, [a, b, c, N])
            for _ in range(4)
        ]
        session.synchronize(timeout=120)
        assert session.pending == 0
        assert all(future.done() for future in futures)
        assert np.allclose(
            session.read(c, np.float32, N), np.arange(N) * 2
        )


class TestFutureStickyErrors:
    def test_trap_surfaces_through_future_with_attribution(self, pool):
        session = pool.session("future-trap")
        out = session.malloc(4 * N)
        future = session.launch_async(
            "nullStore", (1, 1, 1), (4, 1, 1), [out, N]
        )
        error = future.exception(timeout=120)
        assert isinstance(error, KernelTrap)
        with pytest.raises(KernelTrap):
            future.result()
        # Full trap attribution, exactly like the synchronous path.
        assert error.info is not None
        assert error.info.kernel == "nullStore"
        report = format_trap(error)
        assert "nullStore" in report
        assert "cta" in report.lower()
        # Partial statistics ride on the trap.
        assert error.statistics is not None
        session.reset()

    def test_trap_sets_sticky_error_and_submit_fails_fast(self, pool):
        session = pool.session("future-sticky")
        a, b, c = _buffers(session)
        trap = session.launch_async(
            "nullStore", (1, 1, 1), (4, 1, 1), [c, N]
        )
        assert isinstance(trap.exception(timeout=120), KernelTrap)
        assert isinstance(session.last_error, KernelTrap)
        submitted = session.statistics().submitted
        with pytest.raises(LaunchError, match="failed state"):
            session.launch_async("vecAdd", 1, N, [a, b, c, N])
        assert session.statistics().submitted == submitted
        session.reset()

    def test_reset_restores_the_session_to_launch_ready(self, pool):
        session = pool.session("future-reset")
        a, b, c = _buffers(session)
        session.launch_async(
            "nullStore", (1, 1, 1), (4, 1, 1), [c, N]
        ).exception(timeout=120)
        assert session.last_error is not None
        session.reset()
        assert session.last_error is None
        future = session.launch_async("vecAdd", 1, N, [a, b, c, N])
        future.result(timeout=120)
        assert np.allclose(
            session.read(c, np.float32, N), np.arange(N) * 2
        )
