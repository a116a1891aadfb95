"""The ``serve_small`` workload: two closed-loop HTTP clients against
an in-process ``KernelServer`` over a one-worker ``DevicePool``.

The launches are tiny (vecAdd over 64 elements), so what a request
costs is the serving stack — HTTP/JSON in ``runtime.service``, the
RPC, fair queue and journal in ``runtime.pool``, checkpoints in
``runtime.state_store``, argument marshalling in ``api.device`` — not
guest execution. One tenant runs with ``durability="none"``, the other
with ``"checkpoint"``, so journalled writes and periodic checkpoints
sit beside plain reads. An op is one client request, timed by the
client around the ``ServeClient`` call."""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from repro import Device, DevicePool
from repro.runtime.service import KernelServer, ServeClient

import layers
import stats
from inproc import OpResult
from spans import Tracer

VECADD_PTX = r"""
.version 2.3
.target sim

.entry vecAdd (.param .u64 a, .param .u64 b, .param .u64 c, .param .u32 n)
{
  .reg .u32 %r<6>;
  .reg .u64 %rd<8>;
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
  ld.param.u64 %rd2, [a];
  ld.param.u64 %rd3, [b];
  ld.param.u64 %rd4, [c];
  add.u64 %rd5, %rd2, %rd1;
  add.u64 %rd6, %rd3, %rd1;
  add.u64 %rd7, %rd4, %rd1;
  ld.global.f32 %f1, [%rd5];
  ld.global.f32 %f2, [%rd6];
  add.f32 %f3, %f1, %f2;
  st.global.f32 [%rd7], %f3;
DONE:
  exit;
}
"""

#: Elements per buffer (what ``write``/``read`` move) and per launch.
BUFFER_N = 1024
LAUNCH_N = 64
_BLOCK = 32
_GRID = LAUNCH_N // _BLOCK
#: Requests of each kind in one client pass, in this order:
#: write, run x 6, read.
WEIGHTS = {"write": 1, "run": 6, "read": 1}
#: HTTP round trips one request of each kind makes (``run`` is
#: launch + collect).
ROUND_TRIPS = {"write": 1, "run": 2, "read": 1}
#: tenant -> session durability.
TENANTS = {"plain": "none", "durable": "checkpoint"}
CHECKPOINT_INTERVAL = 32
#: Direct launches per probe of the traced run's pool/device timings.
_PROBE_LAUNCHES = 40
#: Per-pass time metric -> the span names whose self time it sums.
_LAYERS = {
    "runtime.service.http_ms": tuple(
        f"runtime.service.{kind}" for kind in WEIGHTS
    ),
    "runtime.pool.session_ms": (
        "runtime.pool.write", "runtime.pool.read",
        "runtime.pool.launch", "runtime.pool.wait",
    ),
}


class _Client:
    """One tenant's client, its three device buffers and its inputs."""

    def __init__(self, server: KernelServer, tenant: str, seed: int, index: int):
        self.tenant = tenant
        self.rng = np.random.default_rng([seed, index])
        self.http = ServeClient(
            server.host, server.port, tenant, durability=TENANTS[tenant]
        )
        self.b_host = self.rng.random(BUFFER_N, dtype=np.float32)
        self.a = self.http.malloc(4 * BUFFER_N)
        self.b = self.http.upload(self.b_host)
        self.c = self.http.malloc(4 * BUFFER_N)
        self.requests = 0
        #: modeled cycles of the launches of the latest pass
        self.cycles = 0

    def _request(self, tracer, kind: str, call, *args) -> OpResult:
        op = f"{self.tenant}:{self.requests}"
        self.requests += 1
        if tracer is not None:
            tracer.set_op(op)
        error = reply = None
        start = perf_counter()
        try:
            reply = call(*args)
        except Exception as failure:
            error = f"{type(failure).__name__}: {failure}"
        return OpResult(
            kind, perf_counter() - start, error, op=op, reply=reply
        )

    def run_pass(self, tracer: Optional[Tracer] = None) -> List[OpResult]:
        http = self.http
        a_host = self.rng.random(BUFFER_N, dtype=np.float32)
        results = [self._request(tracer, "write", http.write, self.a, a_host)]
        arguments = [
            {"allocation": self.a}, {"allocation": self.b},
            {"allocation": self.c}, LAUNCH_N,
        ]
        cycles = 0
        for _ in range(WEIGHTS["run"]):
            launched = self._request(
                tracer, "run", http.run, "vecAdd", _GRID, _BLOCK, arguments
            )
            if launched.error is None:
                launched.cycles = launched.reply["cycles"]
                launched.instructions = launched.reply["instructions"]
                cycles += launched.cycles
            results.append(launched)
        self.cycles = cycles
        read = self._request(
            tracer, "read", http.read, self.c, np.float32, BUFFER_N
        )
        if read.error is None:
            expected = np.zeros(BUFFER_N, dtype=np.float32)
            expected[:LAUNCH_N] = a_host[:LAUNCH_N] + self.b_host[:LAUNCH_N]
            if not np.array_equal(read.reply, expected):
                read.error = "read back values differ from the numpy reference"
        results.append(read)
        return results


class ServeSmall:
    kinds = sorted(WEIGHTS)
    weights = WEIGHTS

    def __init__(self, seed: int, state_dir: str):
        self.seed = seed
        self.state_dir = state_dir
        self.tracer: Optional[Tracer] = None
        self.pool: Optional[DevicePool] = None
        self.server: Optional[KernelServer] = None
        self.clients: List[_Client] = []
        self._code_instr: Optional[int] = None

    def set_up(self) -> None:
        self.pool = DevicePool(
            workers=1, modules=[VECADD_PTX], warm=True,
            state_dir=self.state_dir,
        )
        try:
            self.pool.ready(timeout=120)
            self.server = KernelServer(
                self.pool, port=0, checkpoint_interval=CHECKPOINT_INTERVAL
            )
            self.server.start_background()
            self.clients = [
                _Client(self.server, tenant, self.seed, index)
                for index, tenant in enumerate(TENANTS)
            ]
            for client in self.clients:
                failed = [r for r in client.run_pass() if r.error]
                if failed:
                    raise RuntimeError(
                        f"warm-up {failed[0].kind} request of tenant "
                        f"{client.tenant} failed: {failed[0].error}"
                    )
        except BaseException:
            self.tear_down()
            raise

    def tear_down(self) -> None:
        for client in self.clients:
            client.http.close()
        self.clients = []
        if self.server is not None:
            self.server.shutdown()  # drains, then stops the pool's worker
        elif self.pool is not None:
            self.pool.shutdown()
        self.server = self.pool = None

    def measure(self, seconds: float, min_passes: int, rng=None):
        """Both clients loop over passes, each sending its next request
        only when the previous one has completed, until ``seconds``
        have elapsed and each has made ``min_passes``. Returns
        ``(results, passes, wall_seconds)``."""
        collected: List[List[OpResult]] = [[] for _ in self.clients]
        passes = [0 for _ in self.clients]
        spans: List[tuple] = []

        def loop(index: int) -> None:
            client = self.clients[index]
            # A connection that was idle answers its next request on
            # the kernel's quick-ACK path (4 ms where every later
            # round trip takes 44): an unrecorded pass puts the client
            # into the state it then stays in.
            client.run_pass()
            start = perf_counter()
            while (
                perf_counter() - start < seconds
                or passes[index] < min_passes
            ):
                collected[index].extend(client.run_pass(self.tracer))
                passes[index] += 1
            spans.append((start, perf_counter()))

        threads = [
            threading.Thread(target=loop, args=(index,), name=f"client-{index}")
            for index in range(len(self.clients))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = max(end for _, end in spans) - min(start for start, _ in spans)
        return [r for results in collected for r in results], sum(passes), wall

    def speed(self):
        """No correction: a request's time is set by the kernel's
        timers and two processes, not by how fast one core runs."""
        return 1.0, 1.0

    def ops_per_s(self, summary, completed: int, wall: float) -> float:
        """Requests both clients completed per second of wall time."""
        return completed / wall

    def finish(self) -> List[OpResult]:
        return []

    def counts(self) -> Dict[str, int]:
        """Modeled cycles of the six launches of one client pass (the
        ``cycles`` of each collect): the tenants run the same launches,
        so they must agree."""
        cycles = {client.cycles for client in self.clients}
        if len(cycles) != 1:
            raise AssertionError(f"tenants disagree on modeled cycles: {cycles}")
        counts = {"modeled_cycles": cycles.pop()}
        if self._code_instr is not None:
            counts["code_instr"] = self._code_instr
        return counts

    # -- traced run ----------------------------------------------------------

    def start_trace(self, tracer: Tracer, untraced: List[OpResult]) -> None:
        """Spans around each client request, and — on the server side
        of the same process — around the ``TenantSession`` calls the
        HTTP handler makes for it, adopted as children of the request
        by tenant (a closed-loop client has one request in flight)."""
        self._direct_ms = self._direct_launch_ms()
        self._untraced = untraced
        self.tracer = tracer
        for client in self.clients:
            tenant = client.tenant
            for kind in WEIGHTS:
                tracer.patch(
                    client.http, kind, f"runtime.service.{kind}",
                    publish=tenant,
                )
            session = self.pool.session(tenant)
            for attribute in ("write", "read"):
                tracer.patch(
                    session, attribute, f"runtime.pool.{attribute}",
                    adopt=tenant,
                )
            tracer.replace(
                session, "launch_async",
                _traced_launch(tracer, session.launch_async, tenant),
            )
            if TENANTS[tenant] == "checkpoint":
                # Runs on the pool's dispatcher thread after a launch
                # completes, beside the client's next request rather
                # than inside it: a root span of its own.
                tracer.patch(
                    session, "checkpoint", "runtime.state_store.checkpoint"
                )

    def stop_trace(self) -> None:
        self.tracer.unpatch()
        self.tracer = None

    def layer_metrics(self, results: List[OpResult]) -> Dict[str, float]:
        tracer = self.tracer
        samples: Dict[str, List[float]] = {kind: [] for kind in WEIGHTS}
        for result in results:
            if result.error is None:
                samples[result.kind].append(result.seconds)
        metrics = {
            f"runtime.service.{kind}_ms_p50": 1e3 * stats.median(times)
            for kind, times in samples.items()
        }
        # What a client saw with tracing off, every request pooled.
        pooled = [r.seconds for r in self._untraced if r.error is None]
        metrics["runtime.service.request_ms_p50"] = 1e3 * stats.median(pooled)
        metrics["runtime.service.request_ms_p95"] = (
            1e3 * stats.tail_percentile(pooled)[1]
        )
        # One client pass on an undisturbed core, split into the time
        # inside TenantSession calls and the HTTP/JSON around them.
        split, _, _ = layers.quiet_pass(tracer, results, _LAYERS, WEIGHTS)
        metrics.update(split)
        spans = tracer.spans
        kind_of = {f"runtime.service.{kind}": kind for kind in WEIGHTS}
        metrics["runtime.service.http_overhead_ms"] = 1e3 * stats.median([
            own / ROUND_TRIPS[kind_of[span[stats.NAME]]]
            for span, own in zip(spans, stats.span_self_seconds(spans))
            if span[stats.NAME] in kind_of
        ])
        checkpoints = [
            span[stats.END] - span[stats.START] for span in spans
            if span[stats.NAME] == "runtime.state_store.checkpoint"
        ]
        durable_passes = sum(
            1 for result in results
            if result.kind == "write" and result.op.startswith("durable:")
        )
        metrics["runtime.state_store.checkpoints"] = (
            len(checkpoints) / durable_passes
        )
        metrics["runtime.state_store.checkpoint_ms"] = (
            1e3 * sum(checkpoints) / len(checkpoints) if checkpoints else 0.0
        )
        direct = self._direct_ms
        metrics["runtime.pool.launch_ms_p50"] = direct["plain"]
        metrics["runtime.pool.durable_launch_ms_p50"] = direct["durable"]
        metrics["api.device.ref_launch_ms"] = direct["device"]
        metrics["runtime.pool.rpc_overhead_ms"] = (
            direct["plain"] - direct["device"]
        )
        return metrics

    def _direct_launch_ms(self) -> Dict[str, float]:
        """Median time of the benchmark's launch made three ways with
        no HTTP in between: ``TenantSession.launch`` on each tenant,
        and ``Device.launch`` on a warm in-process Device — the base
        the pool's RPC overhead is measured against."""
        a_host = np.arange(BUFFER_N, dtype=np.float32)
        medians = {}
        for tenant in TENANTS:
            session = self.pool.session(tenant)
            buffers = [
                session.upload(a_host), session.upload(a_host),
                session.malloc(4 * BUFFER_N),
            ]
            medians[tenant] = _median_ms(
                lambda: session.launch(
                    "vecAdd", _GRID, _BLOCK, buffers + [LAUNCH_N]
                )
            )
            for buffer in buffers:
                session.free(buffer)
        device = Device()
        device.register_module(VECADD_PTX)
        device.warm()
        buffers = [
            device.upload(a_host), device.upload(a_host),
            device.malloc(4 * BUFFER_N),
        ]
        medians["device"] = _median_ms(
            lambda: device.launch("vecAdd", _GRID, _BLOCK, buffers + [LAUNCH_N])
        )
        # The pool's worker compiled the same module with the same
        # configuration; its cache is out of reach in another process.
        self._code_instr = sum(device.cache.statistics.instruction_counts.values())
        return medians


def _traced_launch(tracer: Tracer, launch_async, tenant: str):
    traced = tracer.wrap(launch_async, "runtime.pool.launch", adopt=tenant)

    def launch(*args, **kwargs):
        future = traced(*args, **kwargs)
        # The handler of the client's collect request waits here.
        future.exception = tracer.wrap(
            future.exception, "runtime.pool.wait", adopt=tenant
        )
        return future

    return launch


def _median_ms(launch) -> float:
    launch()
    times = []
    for _ in range(_PROBE_LAUNCHES):
        start = perf_counter()
        launch()
        times.append(perf_counter() - start)
    return 1e3 * stats.median(times)
