"""HTTP front-end for the :class:`~repro.runtime.pool.DevicePool`.

``python -m repro.serve`` starts a :class:`KernelServer`: a small
JSON-over-HTTP service through which concurrent clients register PTX
modules, allocate and fill device buffers, submit launches, and
collect results. Each client identifies itself by a tenant name; the
pool pins the tenant to a worker process and schedules its launches
through the weighted fair queue, so one client's trapping kernel
never blocks or corrupts another client's work.

Endpoints:

===============  ====  ====================================================
path             verb  action
===============  ====  ====================================================
``/v1/session``  POST  create/fetch a tenant session (weight, quotas)
``/v1/register`` POST  register a PTX module on the tenant's worker
``/v1/malloc``   POST  allocate ``size`` bytes → allocation id
``/v1/upload``   POST  allocate + write ``data`` of ``dtype``
``/v1/write``    POST  overwrite an allocation with ``data``
``/v1/read``     POST  read ``count`` items of ``dtype``
``/v1/free``     POST  release an allocation
``/v1/launch``   POST  queue an async launch → launch id
``/v1/collect``  POST  wait for a launch id → result or structured error
``/v1/run``      POST  launch + collect in one request
``/v1/reset``    POST  clear the tenant's sticky fault
``/v1/stats``    GET   pool-level report + per-tenant counters
``/v1/health``   GET   liveness: supervision snapshot, always 200
``/v1/ready``    GET   readiness: 503 while draining / breaker open
===============  ====  ====================================================

``/v1/register`` through ``/v1/free``, and ``/v1/reset``, are the
pool's tenant ops (:data:`~repro.runtime.pool.OPS`): one handler
serves them all, calling the session method each op names with the
body's fields, which the session checks. Bodies are JSON, or for an
upload or write the buffer's raw bytes (``application/octet-stream``)
with the JSON fields in the ``X-Repro-Fields`` header. A read with
``Accept: application/octet-stream`` gets raw bytes back, else
``{"data": [...]}``. :class:`ServeClient` always sends raw bytes and
runs a launch in one ``/v1/run`` request.

An allocation id is the tenant session's own handle, so ids are per
tenant (each tenant's first buffer is 1) and the server keeps no
allocation table: an id names the requesting tenant's buffer or none.
Launch ids are the server's, kept per tenant until collected.

``/v1/session`` takes an optional ``durability`` (default the server's
``--durability``): a durable tenant's launches ride out a worker loss
and collect ``"restored": true``. Errors map onto statuses: 429 for a
quota, 503 with ``Retry-After`` when admission sheds a launch (a
queue at its limit, or a draining server), 400 for a bad request, 404
for an unknown path, each with an error object; a contained kernel
fault is an ``ok: false`` collect payload carrying its trap report.
DESIGN.md "Service resilience" has the rest: launch deadlines,
graceful drain, liveness and readiness.
"""

from __future__ import annotations

import itertools
import json
import random
import socket
import threading
import time
from collections import OrderedDict
from functools import partial
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
    OPS,
    RETRY_AFTER,
    DevicePool,
    RemoteAllocation,
    TenantSession,
    _check_dtype,
    _check_seconds,
)

#: The header that carries an octet-stream request's JSON fields.
FIELDS_HEADER = "X-Repro-Fields"
_OCTETS = "application/octet-stream"

#: The POST path of each tenant op.
_OP_PATHS = {f"/v1/{name}": name for name in OPS}


def _array(body: dict) -> np.ndarray:
    """The contents an upload or write carries, as its ``dtype``: the
    raw bytes of an octet-stream body, or a JSON ``data`` list."""
    dtype = np.dtype(_check_dtype("dtype", body.get("dtype", "f4")))
    data = body["data"]
    if not isinstance(data, bytes):
        try:
            return np.asarray(data, dtype=dtype)
        except TypeError as error:
            raise ValueError(f"data is not a list of numbers: {error}")
    if len(data) % dtype.itemsize:
        raise LaunchError(
            f"a body of {len(data)} bytes is not a whole number of "
            f"{dtype.str} items"
        )
    return np.frombuffer(data, dtype=dtype)


#: What the wire takes for a launch's fields when a body leaves one out.
_DEFAULTS = {"grid": 1, "block": 1, "args": []}


def _field(session: TenantSession, body: dict, field: str):
    """Field ``field`` of a tenant op off the wire, for the session to
    check: an ``allocation`` id names the tenant's buffer, as does a
    launch argument ``{"allocation": id}``; ``data`` is :func:`_array`'s."""
    if field == "data":
        return _array(body)
    value = body.get(field, _DEFAULTS.get(field))
    if field == "allocation":
        return RemoteAllocation(session.tenant, value)
    if field == "args" and isinstance(value, list):
        return [
            _field(session, item, "allocation") if isinstance(item, dict)
            else item
            for item in value
        ]
    return value


def _json_object(text, what: str) -> dict:
    try:
        body = json.loads(text)
    except json.JSONDecodeError as error:
        raise LaunchError(f"{what} is not JSON: {error}")
    if not isinstance(body, dict):
        raise LaunchError(f"{what} must be a JSON object")
    return body


def _error_payload(error: BaseException) -> dict:
    payload = {"type": type(error).__name__, "message": str(error)}
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
    launch = getattr(error, "launch", None)
    if launch is not None:
        payload["launch"] = launch
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
    state: "KernelServer" = None  # patched onto the subclass per server

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # keep the server silent; stats go through /v1/stats

    def _reply(self, status: int, payload, headers: Optional[dict] = None):
        """Send ``payload``, a dict as JSON or bytes as they are."""
        kind, body = (
            (_OCTETS, payload) if isinstance(payload, bytes)
            else ("application/json", json.dumps(payload).encode("utf-8"))
        )
        self.send_response(status)
        self.send_header("Content-Type", kind)
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
        raw = self.rfile.read(length) if length else b""
        if self.headers.get_content_type() != _OCTETS:
            return _json_object(raw, "request body") if raw else {}
        # A buffer's raw bytes: the request's fields ride in a header.
        fields = self.headers.get(FIELDS_HEADER)
        if fields is None:
            raise LaunchError(f"an {_OCTETS} body needs {FIELDS_HEADER}")
        body = _json_object(fields, f"the {FIELDS_HEADER} header")
        body["data"] = raw
        return body

    # -- dispatch ----------------------------------------------------------

    def do_GET(self):  # noqa: N802 - stdlib naming
        pool = self.state.pool
        workers = [health.as_dict() for health in pool.health()]
        draining = pool.state != "serving"
        # Readiness: should a load balancer route new work here? Not
        # while draining (launches shed with 503 anyway) and not while
        # any slot is broken (respawns suspended — the pool cannot heal
        # until the cooldown elapses).
        breaker_open = any(entry["state"] == "broken" for entry in workers)
        ready = not draining and not breaker_open
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
            self._reply(200, {
                "workers": pool.workers, "tenants": tenants,
                "report": pool.report(),
            })
        elif self.path == "/v1/health":
            # Liveness: the process is serving HTTP — always 200. A
            # lost worker is the supervisor's problem (it respawns),
            # not a reason for an orchestrator to kill the server.
            self._reply(200, {
                "ok": all(entry["alive"] for entry in workers),
                "draining": draining, "workers": workers,
            })
        elif self.path == "/v1/ready":
            self._reply(200 if ready else 503, {
                "ready": ready, "draining": draining,
                "breaker_open": breaker_open, "workers": workers,
            })
        else:
            self._not_found()

    def _not_found(self) -> None:
        error = LaunchError(f"unknown path {self.path}")
        self._reply(404, {"error": _error_payload(error)})

    def do_POST(self):  # noqa: N802 - stdlib naming
        try:
            body = self._read_body()
            handler = {
                "/v1/session": self._post_session,
                "/v1/launch": lambda body: {"launch": self._launch(body)[1]},
                "/v1/collect": self._post_collect,
                "/v1/run": self._post_run,
            }.get(self.path)
            if handler is None and self.path in _OP_PATHS:
                handler = partial(self._post_op, _OP_PATHS[self.path])
            if handler is None:
                self._not_found()
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

    def _post_op(self, name: str, body: dict):
        """A tenant op that is one session call (:data:`OPS`): its
        method, called on the session instance, takes the body's
        fields (:func:`_field`) in the op's order, and the reply
        carries what it returns under the op's reply key."""
        session = self.state.session(body)
        op = OPS[name]
        result = getattr(session, op.method)(*(
            _field(session, body, field) for field in op.fields
            if field != "handle"  # the session issues it
        ))
        if op.reply is None:
            return {"ok": True}
        if op.reply == "allocation":
            return {"allocation": result.handle}
        if op.reply != "data":
            return {op.reply: result}
        if _OCTETS in self.headers.get("Accept", ""):
            return result.tobytes()
        return {"data": result.tolist()}

    def _launch(self, body: dict) -> Tuple[str, int]:
        """Submit a launch; its future waits under the returned key."""
        session = self.state.session(body)
        with self.state.admission:
            self.state.admit(session)
            future = session.launch_async(
                *(_field(session, body, field)
                  for field in OPS["launch"].fields),
                deadline=body.get("deadline", self.state.default_deadline),
            )
        key = (session.tenant, next(self.state.launch_ids))
        with self.state.lock:
            self.state.futures[key] = future
        return key

    def _post_collect(self, body: dict) -> dict:
        session = self.state.session(body)
        key = (session.tenant, body.get("launch"))
        timeout = _check_seconds("timeout", body.get("timeout", 60.0))
        return self._collect(key, timeout)

    def _post_run(self, body: dict) -> dict:
        """``/v1/launch`` and ``/v1/collect`` in one request. A wait
        that times out leaves the launch running: the 400 names its
        id, and ``/v1/collect`` of that id finishes it."""
        # Refused before anything is queued.
        timeout = _check_seconds("timeout", body.get("timeout", 60.0))
        key = self._launch(body)
        try:
            return self._collect(key, timeout)
        except LaunchError as error:
            pending = LaunchError(f"{error}; collect launch {key[1]}")
            pending.launch = key[1]
            raise pending from error

    def _collect(self, key: Tuple[str, int], timeout: float) -> dict:
        """Wait for a launch and answer it. The entry is removed only
        once answered, so a wait that times out, or an id of another
        tenant's launch (never this tenant's key), changes nothing."""
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
        error = future.exception(timeout=timeout)
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
        handler = type("BoundHandler", (_Handler,), {"state": self})
        self._httpd = _Server((host, port), handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

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
        """The tenant session ``body`` names: its fields go to
        :meth:`DevicePool.session` as they are, which checks them."""
        return self.pool.session(
            body.get("tenant"),
            weight=body.get("weight", 1.0),
            max_pending=body.get("max_pending"),
            max_launches=body.get("max_launches"),
            worker=body.get("worker"),
            durability=body.get("durability") or self.durability,
            checkpoint_interval=body.get(
                "checkpoint_interval", self.checkpoint_interval
            ),
        )

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
#: reset: a session fetch, a collect (its payload is cached per launch
#: id server-side) and the tenant ops that mutate nothing (a read). A
#: run and the ops that mutate are not: a resend could apply them twice.
_RESENDABLE = frozenset({"/v1/session", "/v1/collect"}) | {
    path for path, name in _OP_PATHS.items() if not OPS[name].mutates
}

#: Attempts a ServeClient makes at an idempotent request whose
#: connection failed, and the delay before the first resend (doubled
#: for each one after).
_RECONNECT_ATTEMPTS = 4
_RECONNECT_DELAY = 0.1


def _reconnect_backoff(attempt: int, rng: random.Random) -> float:
    """Delay before resend number ``attempt`` (1-based): doubling from
    ``_RECONNECT_DELAY``, stretched by up to half again from ``rng``."""
    return _RECONNECT_DELAY * 2 ** (attempt - 1) * (1.0 + 0.5 * rng.random())


def _raise_for(response, reply: dict) -> None:
    """Raise a non-200 reply as the client's exception."""
    error = reply.get("error", {})
    if response.status == 429:
        raise QuotaExceeded(error["message"])
    if response.status == 503:
        header = response.getheader("Retry-After")
        raise ServiceUnavailable(
            error["message"],
            retry_after=None if header is None else float(header),
        )
    raise LaunchError(
        f"{error.get('type', 'ServeError')}: "
        f"{error.get('message', str(reply)[:200])}"
    )


class ServeClient:
    """Minimal blocking client of a :class:`KernelServer` (stdlib
    ``http.client``, one HTTP/1.1 keep-alive connection per client).

    An idempotent request (a GET, or a POST to a path in
    :data:`_RESENDABLE`) that hits a connection reset/refused, as while
    a server restarts, is resent after :func:`_reconnect_backoff`;
    mutating requests (launch, run, malloc, reset, ...) are never
    resent. Buffers move as raw bytes; :meth:`run` is one request."""

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
        self.worker = self._post(
            "/v1/session", self._tenant_body(worker=worker)
        )["worker"]

    # -- plumbing ----------------------------------------------------------

    def _transport(
        self, method: str, path: str, payload: Optional[bytes], headers: dict
    ):
        """One request/response over the keep-alive connection;
        returns ``(response, raw_body)``. Connection-level failures
        close the socket (the next attempt reconnects) and re-raise."""
        try:
            self._conn.request(method, path, body=payload, headers=headers)
            response = self._conn.getresponse()
            return response, response.read()
        except (ConnectionError, socket.timeout, OSError):
            self._conn.close()
            raise

    def _request(self, method: str, path: str, body: Optional[dict],
                 raise_for_status: bool = True, data=None, octets=False):
        """Send ``body`` as JSON — or, given ``data``, ``data``'s raw
        bytes with ``body`` in the fields header. Returns the JSON
        reply, or with ``octets`` the raw bytes of the reply."""
        headers = {"Accept": _OCTETS} if octets else {}
        payload = None if body is None else json.dumps(body)
        if data is not None:
            headers[FIELDS_HEADER] = payload
            headers["Content-Type"], payload = _OCTETS, data.tobytes()
        elif payload is not None:
            headers["Content-Type"] = "application/json"
            payload = payload.encode("utf-8")
        idempotent = method == "GET" or path in _RESENDABLE
        attempt = 0
        while True:
            attempt += 1
            try:
                response, raw = self._transport(method, path, payload, headers)
                break
            except (ConnectionError, socket.timeout, OSError):
                if not idempotent or attempt >= _RECONNECT_ATTEMPTS:
                    raise
                time.sleep(_reconnect_backoff(attempt, self._rng))
        if raise_for_status and response.status != 200:
            _raise_for(response, json.loads(raw))
        return raw if octets else json.loads(raw)

    def _post(self, path: str, body: dict, data=None) -> dict:
        return self._request("POST", path, body, data=data)

    def _tenant_body(self, **extra) -> dict:
        return {**self._session_body, **extra}

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
        array = np.ascontiguousarray(array, dtype=dtype)
        return self._post(
            "/v1/upload", self._tenant_body(dtype=array.dtype.str), array
        )["allocation"]

    def write(self, allocation: int, array, dtype=None) -> None:
        array = np.ascontiguousarray(array, dtype=dtype)
        body = self._tenant_body(allocation=allocation, dtype=array.dtype.str)
        self._post("/v1/write", body, array)

    def read(self, allocation: int, dtype, count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        body = self._tenant_body(
            allocation=allocation, dtype=dtype.str, count=count
        )
        raw = self._request("POST", "/v1/read", body, octets=True)
        return np.frombuffer(bytearray(raw), dtype=dtype)

    def free(self, allocation: int) -> None:
        self._post("/v1/free", self._tenant_body(allocation=allocation))

    def _launch_body(self, kernel: str, grid, block, args) -> dict:
        for value in args:
            if not isinstance(value, (dict, list, int, float)):
                raise LaunchError(
                    f"cannot encode launch argument {value!r}; pass "
                    f"numbers or {{'allocation': id}} references"
                )
        return self._tenant_body(
            kernel=kernel, grid=grid, block=block, args=list(args)
        )

    def launch(self, kernel: str, grid, block, args=()) -> int:
        """Queue a launch; returns an id for :meth:`collect`.
        Allocation ids must be wrapped: ``{"allocation": id}``."""
        return self._post(
            "/v1/launch", self._launch_body(kernel, grid, block, args)
        )["launch"]

    def collect(self, launch: int, timeout: float = 60.0) -> dict:
        """Wait for a queued launch. Returns the endpoint payload:
        ``{"ok": True, ...}`` or ``{"ok": False, "error": {...}}``."""
        return self._post(
            "/v1/collect",
            self._tenant_body(launch=launch, timeout=timeout),
        )

    def run(self, kernel: str, grid, block, args=()) -> dict:
        """Launch and wait in one request (``/v1/run``); raises
        LaunchError if the launch failed."""
        reply = self._post(
            "/v1/run", self._launch_body(kernel, grid, block, args)
        )
        if not reply["ok"]:
            error = reply["error"]
            raise LaunchError(f"{error['type']}: {error['message']}")
        return reply

    def reset(self) -> None:
        self._post("/v1/reset", self._tenant_body())

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats", None)

    def health(self) -> dict:
        """Liveness: the supervision snapshot. Always 200 while the
        server process is up."""
        return self._request("GET", "/v1/health", None)

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
