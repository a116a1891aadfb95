"""HTTP front-end for the :class:`~repro.runtime.pool.DevicePool`.

``python -m repro.serve`` starts a :class:`KernelServer`: a small
JSON-over-HTTP service through which concurrent clients register PTX
modules, allocate and fill device buffers, submit launches, and
collect results. Each client identifies itself by a tenant name; the
pool pins the tenant to a worker process and schedules its launches
through the weighted fair queue, so one client's trapping kernel
never blocks or corrupts another client's work.

Endpoints (all bodies JSON):

===============  ====  ====================================================
path             verb  action
===============  ====  ====================================================
``/v1/session``  POST  create/fetch a tenant session (weight, quotas)
``/v1/register`` POST  register a PTX module (tenant-private)
``/v1/malloc``   POST  allocate ``size`` bytes → allocation id
``/v1/upload``   POST  allocate + write ``data`` (list + dtype)
``/v1/write``    POST  overwrite an allocation with ``data``
``/v1/read``     POST  read ``count`` items of ``dtype`` → list
``/v1/free``     POST  release an allocation
``/v1/launch``   POST  queue an async launch → launch id
``/v1/collect``  POST  wait for a launch id → result or structured error
``/v1/reset``    POST  clear the tenant's sticky fault
``/v1/stats``    GET   pool-level report + per-tenant counters
``/v1/health``   GET   liveness: supervision snapshot, always 200
``/v1/ready``    GET   readiness: 503 while draining / breaker open
===============  ====  ====================================================

An allocation id is the tenant session's own handle, so ids are per
tenant (each tenant's first buffer is 1) and the server keeps no
allocation table: an id names the requesting tenant's buffer or none.
Launch ids are the server's, kept per tenant until collected.

``/v1/session`` accepts an optional ``durability`` field
(``"none"`` | ``"journal"`` | ``"checkpoint"``, default the server's
``--durability``): durable tenants get the pool's state journaling /
checkpoint layer, so a worker crash is restored transparently and
re-dispatched collects carry ``"restored": true`` instead of a
``DeviceLost`` error payload.

Health is split for load balancers: ``/v1/health`` is *liveness* —
it always answers 200 while the process serves HTTP, reporting the
supervision snapshot. ``/v1/ready`` is *readiness* — it answers 503
with ``ready: false`` while the pool drains or any worker slot is
``broken`` (respawns suspended until a cooldown — the payload's
``breaker_open``), so balancers stop routing new work but keep the
process alive to finish what it has.

Errors map onto status codes: quota rejections are 429, launch/usage
errors 400, contained kernel faults arrive as ``ok: false`` collect
payloads (the *request* succeeded; the *launch* trapped) carrying the
rendered trap report and partial statistics.

Overload safety: launch admission is bounded — when the tenant's or
the server's total outstanding-launch depth reaches its limit, or the
server is draining for shutdown, ``/v1/launch`` sheds the request
with **503** and a ``Retry-After`` header instead of queueing without
bound (:class:`~repro.errors.ServiceUnavailable` client-side).
Launches accept a ``deadline`` (seconds of queue wait) after which
they fail with ``DeadlineExpired`` rather than running late.
:meth:`KernelServer.shutdown` drains gracefully by default: new
launches are shed, queued work flushes, then the workers stop.
"""

from __future__ import annotations

import itertools
import json
import random
import socket
import threading
import time
from collections import OrderedDict
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import (
    DeviceLost,
    LaunchError,
    QuotaExceeded,
    ReproError,
    ServiceUnavailable,
)
from ..testing.fault_injection import fault_seed
from .pool import (
    RETRY_AFTER,
    DevicePool,
    RemoteAllocation,
    TenantSession,
)


class _ServiceState:
    """Mutable server state shared across handler threads."""

    def __init__(
        self,
        pool: DevicePool,
        max_queue_depth: Optional[int] = None,
        max_tenant_queue: Optional[int] = None,
        default_deadline: Optional[float] = None,
        durability: str = "none",
        checkpoint_interval: int = 32,
    ):
        self.pool = pool
        self.max_queue_depth = max_queue_depth
        self.max_tenant_queue = max_tenant_queue
        self.default_deadline = default_deadline
        #: default session durability for tenants that don't pick one
        self.durability = durability
        self.checkpoint_interval = checkpoint_interval
        #: Guards ``futures`` and ``collected``.
        self.lock = threading.Lock()
        #: Held across admit() and the launch_async() that raises the
        #: counts it read.
        self.admission = threading.Lock()
        #: (tenant, launch id) -> the future of a launch not collected
        self.futures: Dict[Tuple[str, int], object] = {}
        #: recently-collected payloads, keyed like ``futures`` — kept so
        #: a client whose collect *response* was lost to a connection
        #: reset can retry the same id and get the same answer instead
        #: of "unknown launch id" (bounded LRU)
        self.collected: "OrderedDict[Tuple[str, int], dict]" = (
            OrderedDict()
        )
        self.collected_limit = 256
        self.launch_ids = itertools.count(1)

    def admit(self, session: TenantSession) -> None:
        """Launch admission control: shed (503 + Retry-After) instead
        of queueing without bound. (A draining pool sheds on its
        own.)"""
        if (
            self.max_tenant_queue is not None
            and session.pending >= self.max_tenant_queue
        ):
            raise ServiceUnavailable(
                f"tenant {session.tenant!r} has {session.pending} "
                f"launches queued (limit {self.max_tenant_queue}); "
                f"back off and retry",
                retry_after=RETRY_AFTER,
            )
        if self.max_queue_depth is not None:
            depth = sum(s.pending for s in self.pool.sessions())
            if depth >= self.max_queue_depth:
                raise ServiceUnavailable(
                    f"server has {depth} launches queued (limit "
                    f"{self.max_queue_depth}); back off and retry",
                    retry_after=RETRY_AFTER,
                )

    def session(self, body: dict) -> TenantSession:
        tenant = body.get("tenant")
        if not tenant:
            raise LaunchError("request body must name a tenant")
        return self.pool.session(
            str(tenant),
            weight=float(body.get("weight", 1.0)),
            max_pending=body.get("max_pending"),
            max_launches=body.get("max_launches"),
            worker=body.get("worker"),
            durability=str(body.get("durability") or self.durability),
            checkpoint_interval=body.get(
                "checkpoint_interval", self.checkpoint_interval
            ),
        )


def _allocation(body: dict, session: TenantSession) -> RemoteAllocation:
    """The session's buffer that ``body`` names by its id."""
    handle = body.get("allocation")
    if not isinstance(handle, int):
        raise LaunchError(f"unknown allocation id {handle!r}")
    return RemoteAllocation(session.tenant, handle)


def _error_payload(error: BaseException) -> dict:
    payload = {
        "type": type(error).__name__,
        "message": str(error),
    }
    report = getattr(error, "remote_report", None)
    if report:
        payload["report"] = report
    statistics = getattr(error, "statistics", None)
    if statistics is not None:
        payload["instructions"] = statistics.instructions
    if isinstance(error, DeviceLost):
        payload["worker"] = error.worker
        payload["cause"] = error.cause
        payload["epoch"] = error.epoch
        payload["delivered"] = error.delivered
    return payload


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # A reply is two writes, headers then body. On the stdlib's
    # unbuffered wfile with Nagle on that is write-write-read: the
    # body segment waits for the ACK of the header segment, which the
    # client's delayed-ACK timer sends ~40 ms later. Buffer the reply
    # so handle_one_request's flush hands both to the socket at once,
    # and turn Nagle off so a body larger than the buffer (written
    # through, after the headers are flushed) does not stall either.
    wbufsize = -1
    disable_nagle_algorithm = True
    state: _ServiceState = None  # patched onto the subclass per server

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # keep the server silent; stats go through /v1/stats

    def _reply(
        self, status: int, payload: dict, headers: Optional[dict] = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length < 0:
            # rfile.read(-1) would wait for the client to hang up.
            raise LaunchError(f"negative Content-Length {length}")
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as error:
            raise LaunchError(f"request body is not JSON: {error}")
        if not isinstance(body, dict):
            raise LaunchError("request body must be a JSON object")
        return body

    # -- dispatch ----------------------------------------------------------

    def do_GET(self):  # noqa: N802 - stdlib naming
        pool = self.state.pool
        if self.path == "/v1/stats":
            # (``instructions``: what the entries carried before they
            # carried the whole launch statistics)
            tenants = {
                tenant: {
                    **stats.as_dict(),
                    "instructions": stats.statistics.instructions,
                }
                for tenant, stats in pool.statistics().items()
            }
            self._reply(
                200,
                {
                    "workers": pool.workers,
                    "tenants": tenants,
                    "report": pool.report(),
                },
            )
            return
        workers = [health.as_dict() for health in pool.health()]
        draining = pool.state != "serving"
        if self.path == "/v1/health":
            # Liveness: the process is serving HTTP — always 200. A
            # lost worker is the supervisor's problem (it respawns),
            # not a reason for an orchestrator to kill the server.
            self._reply(
                200,
                {
                    "ok": all(entry["alive"] for entry in workers),
                    "draining": draining,
                    "workers": workers,
                },
            )
            return
        if self.path != "/v1/ready":
            self._reply(404, {"error": f"unknown path {self.path}"})
            return
        # Readiness: should a load balancer route new work here?
        # Not while draining (launches shed with 503 anyway) and
        # not while any slot is broken (respawns suspended — the
        # pool cannot heal until the cooldown elapses).
        breaker_open = any(entry["state"] == "broken" for entry in workers)
        ready = not draining and not breaker_open
        self._reply(
            200 if ready else 503,
            {
                "ready": ready,
                "draining": draining,
                "breaker_open": breaker_open,
                "workers": workers,
            },
        )

    def do_POST(self):  # noqa: N802 - stdlib naming
        try:
            body = self._read_body()
            handler = {
                "/v1/session": self._post_session,
                "/v1/register": self._post_register,
                "/v1/malloc": self._post_malloc,
                "/v1/upload": self._post_upload,
                "/v1/write": self._post_write,
                "/v1/read": self._post_read,
                "/v1/free": self._post_free,
                "/v1/launch": self._post_launch,
                "/v1/collect": self._post_collect,
                "/v1/reset": self._post_reset,
            }.get(self.path)
            if handler is None:
                self._reply(404, {"error": f"unknown path {self.path}"})
                return
            self._reply(200, handler(body))
        except ServiceUnavailable as error:
            retry_after = error.retry_after or RETRY_AFTER
            self._reply(
                503,
                {"error": _error_payload(error)},
                headers={"Retry-After": f"{retry_after:g}"},
            )
        except QuotaExceeded as error:
            self._reply(429, {"error": _error_payload(error)})
        except (LaunchError, ReproError, ValueError, KeyError) as error:
            self._reply(400, {"error": _error_payload(error)})
        except Exception as error:  # pragma: no cover - defensive
            self._reply(500, {"error": _error_payload(error)})

    # -- endpoints ---------------------------------------------------------

    def _post_session(self, body: dict) -> dict:
        session = self.state.session(body)
        return {
            "tenant": session.tenant,
            "worker": session.worker_index,
            "weight": session.weight,
        }

    def _post_register(self, body: dict) -> dict:
        session = self.state.session(body)
        kernels = session.register_module(body["source"])
        return {"kernels": kernels}

    def _post_malloc(self, body: dict) -> dict:
        session = self.state.session(body)
        allocation = session.malloc(int(body["size"]), label=body.get("label"))
        return {"allocation": allocation.handle}

    def _post_upload(self, body: dict) -> dict:
        session = self.state.session(body)
        array = np.asarray(
            body["data"], dtype=np.dtype(body.get("dtype", "f4"))
        )
        allocation = session.upload(array, label=body.get("label"))
        return {"allocation": allocation.handle}

    def _post_write(self, body: dict) -> dict:
        session = self.state.session(body)
        session.write(
            _allocation(body, session),
            np.asarray(
                body["data"], dtype=np.dtype(body.get("dtype", "f4"))
            ),
        )
        return {"ok": True}

    def _post_read(self, body: dict) -> dict:
        session = self.state.session(body)
        values = session.read(
            _allocation(body, session),
            np.dtype(body["dtype"]),
            int(body["count"]),
        )
        return {"data": np.asarray(values).tolist()}

    def _post_free(self, body: dict) -> dict:
        session = self.state.session(body)
        session.free(_allocation(body, session))
        return {"ok": True}

    def _post_launch(self, body: dict) -> dict:
        session = self.state.session(body)
        args = [
            _allocation(value, session)
            if isinstance(value, dict) and "allocation" in value
            else value
            for value in body.get("args", ())
        ]
        with self.state.admission:
            self.state.admit(session)
            deadline = body.get("deadline", self.state.default_deadline)
            future = session.launch_async(
                body["kernel"],
                body.get("grid", 1),
                body.get("block", 1),
                args,
                deadline=deadline,
            )
        launch = next(self.state.launch_ids)
        with self.state.lock:
            self.state.futures[session.tenant, launch] = future
        return {"launch": launch}

    def _post_collect(self, body: dict) -> dict:
        """Wait for a launch and answer it. The entry is removed only
        once answered, so a wait that times out, or an id of another
        tenant's launch (never this tenant's key), changes nothing."""
        session = self.state.session(body)
        key = (session.tenant, body.get("launch"))
        with self.state.lock:
            future = self.state.futures.get(key)
            # Collect is idempotent: a client that lost the *response*
            # to a connection reset retries the same launch id and
            # gets the cached payload back.
            cached = self.state.collected.get(key)
        if future is None:
            if cached is not None:
                return cached
            raise LaunchError(f"unknown launch id {key[1]!r}")
        error = future.exception(timeout=body.get("timeout", 60.0))
        if error is not None:
            payload = {"ok": False, "error": _error_payload(error)}
        else:
            result = future.result()
            payload = {
                "ok": True,
                "kernel": result.kernel_name,
                "instructions": result.statistics.instructions,
                "cycles": result.statistics.total_cycles,
                "restored": bool(getattr(result, "restored", False)),
            }
        with self.state.lock:
            self.state.futures.pop(key, None)
            self.state.collected[key] = payload
            while len(self.state.collected) > self.state.collected_limit:
                self.state.collected.popitem(last=False)
        return payload

    def _post_reset(self, body: dict) -> dict:
        self.state.session(body).reset()
        return {"ok": True}


class _Server(ThreadingHTTPServer):
    # socketserver's listen backlog is 5: a burst of connecting
    # clients overflows the accept queue and the losers wait out SYN
    # retransmits (1 s, 3 s, ...) before they are served.
    request_queue_size = 128


class KernelServer:
    """Threaded HTTP server in front of a DevicePool.

    ::

        pool = DevicePool(workers=2, modules=[PTX])
        server = KernelServer(pool, port=0)
        server.start_background()
        ... ServeClient(server.host, server.port) ...
        server.shutdown()
    """

    def __init__(
        self,
        pool: DevicePool,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue_depth: Optional[int] = None,
        max_tenant_queue: Optional[int] = None,
        default_deadline: Optional[float] = None,
        durability: str = "none",
        checkpoint_interval: int = 32,
    ):
        self.pool = pool
        self._state = _ServiceState(
            pool,
            max_queue_depth=max_queue_depth,
            max_tenant_queue=max_tenant_queue,
            default_deadline=default_deadline,
            durability=durability,
            checkpoint_interval=checkpoint_interval,
        )
        handler = type("BoundHandler", (_Handler,), {"state": self._state})
        self._httpd = _Server((host, port), handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    def serve_forever(self) -> None:
        self._httpd.serve_forever(poll_interval=0.1)

    def start_background(self) -> None:
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()

    @property
    def draining(self) -> bool:
        return self.pool.state != "serving"

    def drain(self, timeout: Optional[float] = None) -> None:
        """Stop admitting launches (new ones shed with 503) and block
        until every already-queued launch has completed
        (:meth:`DevicePool.drain`). Collects, reads, and stats keep
        working throughout, so clients can harvest in-flight results
        during the drain."""
        self.pool.drain(timeout)

    def shutdown(
        self,
        shutdown_pool: bool = True,
        drain: bool = True,
        drain_timeout: Optional[float] = 30.0,
    ) -> None:
        """Graceful by default: shed new launches, flush the queues,
        stop accepting connections, then stop the workers. Pass
        ``drain=False`` for an immediate stop (queued launches fail
        with ``LaunchError``)."""
        if drain:
            try:
                self.drain(timeout=drain_timeout)
            except LaunchError:
                pass  # flush timed out; fall through to hard stop
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._httpd.server_close()
        if shutdown_pool:
            self.pool.shutdown()


#: POST paths a ServeClient may safely re-send after a connection
#: reset: they either don't mutate server state (read, session fetch)
#: or are idempotent by construction (collect caches its payload per
#: launch id server-side). Launch/malloc/upload are NOT here — a
#: resend could double-apply them.
_IDEMPOTENT_PATHS = frozenset({"/v1/session", "/v1/read", "/v1/collect"})

#: Attempts a ServeClient makes at an idempotent request whose
#: connection failed, and the delay before the first resend (doubled
#: for each one after).
_RECONNECT_ATTEMPTS = 4
_RECONNECT_DELAY = 0.1


def _reconnect_backoff(attempt: int, rng: random.Random) -> float:
    """Delay before resend number ``attempt`` (1-based): doubling from
    ``_RECONNECT_DELAY``, stretched by up to half again from ``rng``."""
    return _RECONNECT_DELAY * 2 ** (attempt - 1) * (1.0 + 0.5 * rng.random())


class ServeClient:
    """Minimal blocking client of a :class:`KernelServer` (stdlib
    ``http.client``, HTTP/1.1 keep-alive — one TCP connection per
    client).

    Idempotent requests (GETs, ``/v1/read``, ``/v1/collect`` polls,
    ``/v1/session``) that hit a connection reset/refused — typical
    while a server restarts or a respawn window drops keep-alive
    connections — are resent after :func:`_reconnect_backoff` instead
    of surfacing the raw socket error. Mutating requests (launch,
    malloc, upload, ...) are never resent."""

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str,
        weight: float = 1.0,
        max_pending: Optional[int] = None,
        max_launches: Optional[int] = None,
        worker: Optional[int] = None,
        timeout: float = 120.0,
        durability: Optional[str] = None,
    ):
        self.tenant = tenant
        self._conn = HTTPConnection(host, port, timeout=timeout)
        # Jitter seeded from the fault seed, so a CI seed reproduces,
        # and the tenant, so clients one server restart cut off do not
        # resend in lockstep.
        self._rng = random.Random(f"{fault_seed()}:{tenant}")
        self._session_body = {
            "tenant": tenant,
            "weight": weight,
            "max_pending": max_pending,
            "max_launches": max_launches,
        }
        if durability is not None:
            self._session_body["durability"] = durability
        body = dict(self._session_body)
        if worker is not None:
            body["worker"] = worker
        self.worker = self._post("/v1/session", body)["worker"]

    # -- plumbing ----------------------------------------------------------

    def _transport(
        self, method: str, path: str, payload: Optional[bytes]
    ):
        """One request/response over the keep-alive connection;
        returns ``(response, raw_body)``. Connection-level failures
        close the socket (the next attempt reconnects) and re-raise."""
        try:
            headers = {}
            if payload is not None:
                headers["Content-Type"] = "application/json"
            self._conn.request(
                method, path, body=payload, headers=headers
            )
            response = self._conn.getresponse()
            return response, response.read()
        except (ConnectionError, socket.timeout, OSError):
            self._conn.close()
            raise

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict],
        raise_for_status: bool = True,
    ) -> dict:
        payload = (
            None if body is None
            else json.dumps(body).encode("utf-8")
        )
        idempotent = method == "GET" or path in _IDEMPOTENT_PATHS
        attempt = 0
        while True:
            attempt += 1
            try:
                response, raw = self._transport(method, path, payload)
                break
            except (ConnectionError, socket.timeout, OSError):
                if not idempotent or attempt >= _RECONNECT_ATTEMPTS:
                    raise
                time.sleep(_reconnect_backoff(attempt, self._rng))
        reply = json.loads(raw)
        if not raise_for_status:
            return reply
        if response.status == 429:
            raise QuotaExceeded(reply["error"]["message"])
        if response.status == 503:
            header = response.getheader("Retry-After")
            raise ServiceUnavailable(
                reply["error"]["message"],
                retry_after=None if header is None else float(header),
            )
        if response.status != 200:
            error = reply.get("error", {})
            raise LaunchError(
                f"{error.get('type', 'ServeError')}: "
                f"{error.get('message', raw[:200])}"
            )
        return reply

    def _post(self, path: str, body: dict) -> dict:
        return self._request("POST", path, body)

    def _get(self, path: str) -> dict:
        return self._request("GET", path, None)

    def _tenant_body(self, **extra) -> dict:
        body = dict(self._session_body)
        body.update(extra)
        return body

    # -- API ---------------------------------------------------------------

    def register(self, source: str) -> list:
        return self._post(
            "/v1/register", self._tenant_body(source=source)
        )["kernels"]

    def malloc(self, size: int, label: Optional[str] = None) -> int:
        return self._post(
            "/v1/malloc", self._tenant_body(size=size, label=label)
        )["allocation"]

    def upload(self, array, dtype: Optional[str] = None) -> int:
        array = np.asarray(array)
        return self._post(
            "/v1/upload",
            self._tenant_body(
                data=array.tolist(), dtype=dtype or array.dtype.str
            ),
        )["allocation"]

    def write(self, allocation: int, array, dtype=None) -> None:
        array = np.asarray(array)
        self._post(
            "/v1/write",
            self._tenant_body(
                allocation=allocation,
                data=array.tolist(),
                dtype=dtype or array.dtype.str,
            ),
        )

    def read(self, allocation: int, dtype, count: int) -> np.ndarray:
        reply = self._post(
            "/v1/read",
            self._tenant_body(
                allocation=allocation,
                dtype=np.dtype(dtype).str,
                count=count,
            ),
        )
        return np.asarray(reply["data"], dtype=np.dtype(dtype))

    def free(self, allocation: int) -> None:
        self._post("/v1/free", self._tenant_body(allocation=allocation))

    def launch(self, kernel: str, grid, block, args=()) -> int:
        """Queue a launch; returns an id for :meth:`collect`.
        Allocation ids must be wrapped: ``{"allocation": id}``."""
        encoded = []
        for value in args:
            if isinstance(value, dict):
                encoded.append(value)
            elif isinstance(value, (int, float)):
                encoded.append(value)
            else:
                raise LaunchError(
                    f"cannot encode launch argument {value!r}; pass "
                    f"numbers or {{'allocation': id}} references"
                )
        return self._post(
            "/v1/launch",
            self._tenant_body(
                kernel=kernel, grid=grid, block=block, args=encoded
            ),
        )["launch"]

    def collect(self, launch: int, timeout: float = 60.0) -> dict:
        """Wait for a queued launch. Returns the endpoint payload:
        ``{"ok": True, ...}`` or ``{"ok": False, "error": {...}}``."""
        return self._post(
            "/v1/collect",
            self._tenant_body(launch=launch, timeout=timeout),
        )

    def run(self, kernel: str, grid, block, args=()) -> dict:
        """launch + collect; raises LaunchError if the launch failed."""
        reply = self.collect(self.launch(kernel, grid, block, args))
        if not reply["ok"]:
            error = reply["error"]
            raise LaunchError(f"{error['type']}: {error['message']}")
        return reply

    def reset(self) -> None:
        self._post("/v1/reset", self._tenant_body())

    def stats(self) -> dict:
        return self._get("/v1/stats")

    def health(self) -> dict:
        """Liveness: the supervision snapshot. Always 200 while the
        server process is up."""
        return self._get("/v1/health")

    def ready(self) -> dict:
        """Readiness: ``{"ready": bool, ...}``. A draining or
        breaker-open server answers 503, but the payload is returned
        either way (it carries the reason)."""
        return self._request("GET", "/v1/ready", None,
                             raise_for_status=False)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
