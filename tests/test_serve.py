"""The HTTP serving front-end (`python -m repro.serve`)."""

import json
import socket
import statistics
import threading
import time
from functools import partial
from http.client import HTTPConnection

import numpy as np
import pytest

from repro import DevicePool, QuotaExceeded
from repro.errors import LaunchError
from repro.runtime.pool import TenantSession
from repro.runtime.service import (
    FIELDS_HEADER,
    KernelServer,
    ServeClient,
    _reconnect_backoff,
)
from tests.conftest import VECADD_PTX

N = 8
CHAOS_PTX = VECADD_PTX.replace("vecAdd", "chaosAdd")


@pytest.fixture(scope="module")
def server():
    pool = DevicePool(workers=2, modules=[VECADD_PTX])
    pool.ready(timeout=300.0)
    server = KernelServer(pool, port=0)
    server.start_background()
    yield server
    server.shutdown()


def _post_raw(server, path, body):
    """POST ``body`` as JSON, bypassing ServeClient's checks; returns
    ``(status, reply)``."""
    connection = HTTPConnection(server.host, server.port)
    try:
        connection.request(
            "POST", path,
            body=json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _post_octets(server, path, fields, data):
    """POST ``data`` as an octet-stream body with ``fields`` (a JSON
    string, or None for no header); returns ``(status, reply)``."""
    headers = {"Content-Type": "application/octet-stream"}
    if fields is not None:
        headers[FIELDS_HEADER] = fields
    connection = HTTPConnection(server.host, server.port)
    try:
        connection.request("POST", path, body=data, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class _JsonOnlyClient:
    """A client frozen at the server's JSON-only forms: buffers move
    as lists of values both ways, and a launch is /v1/launch then
    /v1/collect. One keep-alive connection."""

    def __init__(self, server, tenant, **session):
        self.connection = HTTPConnection(server.host, server.port)
        self.fields = {"tenant": tenant, **session}

    def post(self, path, **fields):
        self.connection.request(
            "POST", path,
            body=json.dumps({**self.fields, **fields}),
            headers={"Content-Type": "application/json"},
        )
        response = self.connection.getresponse()
        reply = json.loads(response.read())
        assert response.status == 200, reply
        return reply

    def upload(self, array):
        return self.post(
            "/v1/upload", data=array.tolist(), dtype=array.dtype.str
        )["allocation"]

    def write(self, allocation, array):
        self.post(
            "/v1/write", allocation=allocation,
            data=array.tolist(), dtype=array.dtype.str,
        )

    def read(self, allocation, dtype, count):
        dtype = np.dtype(dtype)
        reply = self.post(
            "/v1/read", allocation=allocation, dtype=dtype.str, count=count
        )
        return np.asarray(reply["data"], dtype=dtype)

    def run(self, kernel, grid, block, args):
        launch = self.post(
            "/v1/launch", kernel=kernel, grid=grid, block=block, args=args
        )["launch"]
        return self.post("/v1/collect", launch=launch, timeout=60.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.connection.close()


def _vecadd_roundtrip(client):
    a = client.upload(np.arange(N, dtype=np.float32))
    b = client.upload(np.arange(N, dtype=np.float32))
    c = client.malloc(4 * N)
    reply = client.run(
        "vecAdd", 1, N,
        [{"allocation": a}, {"allocation": b}, {"allocation": c}, N],
    )
    assert reply["ok"] and reply["kernel"] == "vecAdd"
    assert reply["instructions"] > 0
    return client.read(c, np.float32, N)


class TestServeRoundtrip:
    def test_register_malloc_launch_collect(self, server):
        with ServeClient(server.host, server.port, "rt") as client:
            out = _vecadd_roundtrip(client)
            assert np.allclose(out, np.arange(N) * 2)

    def test_write_and_free(self, server):
        with ServeClient(server.host, server.port, "rt2") as client:
            buffer = client.malloc(4 * N)
            client.write(
                buffer, np.full(N, 5.0, dtype=np.float32)
            )
            assert np.allclose(
                client.read(buffer, np.float32, N), 5.0
            )
            client.free(buffer)

    def test_stats_endpoint(self, server):
        # Run a launch in this test's own session first: the server
        # fixture is module-scoped and test order is not guaranteed,
        # so the completed count cannot lean on an earlier test.
        with ServeClient(server.host, server.port, "rt-stats") as client:
            _vecadd_roundtrip(client)
            stats = client.stats()
        assert stats["workers"] == 2
        assert "rt-stats" in stats["tenants"]
        assert stats["tenants"]["rt-stats"]["completed"] >= 1
        assert "device pool" in stats["report"]

    def test_four_concurrent_clients(self, server):
        results = {}
        errors = []

        def run(name):
            try:
                with ServeClient(
                    server.host, server.port, name
                ) as client:
                    results[name] = _vecadd_roundtrip(client)
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append((name, error))

        threads = [
            threading.Thread(target=run, args=(f"conc-{index}",))
            for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 4
        for out in results.values():
            assert np.allclose(out, np.arange(N) * 2)

    def test_reconnect_jitter_is_per_tenant_and_seeded(
        self, server, monkeypatch
    ):
        """Clients one server restart cut off must not resend in
        lockstep; one tenant under one fault seed draws the same
        delays every run."""
        monkeypatch.setenv("REPRO_FAULT_SEED", "3")

        def delays(tenant):
            with ServeClient(server.host, server.port, tenant) as client:
                return [
                    _reconnect_backoff(attempt, client._rng)
                    for attempt in (1, 2)
                ]

        assert delays("jitter-a") == delays("jitter-a")
        assert delays("jitter-a")[0] != delays("jitter-b")[0]

    def test_burst_of_connecting_clients(self, server):
        """32 clients connecting in the same instant all get through
        the accept queue: one that overflows the listen backlog waits
        out a SYN retransmit, 1 s at the least."""
        clients = 32
        barrier = threading.Barrier(clients)
        seconds = {}
        errors = []

        def connect(name):
            try:
                barrier.wait(timeout=30)
                start = time.perf_counter()
                ServeClient(server.host, server.port, name).close()
                seconds[name] = time.perf_counter() - start
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append((name, error))

        threads = [
            threading.Thread(target=connect, args=(f"burst-{index}",))
            for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        slow = {n: s for n, s in seconds.items() if s >= 1.0}
        assert not slow


class TestServeLatency:
    def test_round_trips_do_not_wait_on_delayed_ack(self, server):
        """No reply may sit in the server's socket until the client's
        delayed-ACK timer (40 ms) fires: every kind of round trip —
        200 replies small and large, raw bytes and JSON, a 400, a
        GET — has a median far under it on one keep-alive connection.
        A run is one round trip; launch + collect is two."""
        rounds = 20
        with ServeClient(
            server.host, server.port, "latency"
        ) as client, _JsonOnlyClient(server, "latency") as legacy:
            small = np.arange(16, dtype=np.float32)
            large = np.arange(1024, dtype=np.float32)
            small_buffer = client.upload(small)
            large_buffer = client.upload(large)
            out = client.malloc(small.nbytes)
            args = [
                {"allocation": small_buffer},
                {"allocation": small_buffer},
                {"allocation": out},
                small.size,
            ]

            def unknown_allocation():
                with pytest.raises(LaunchError, match="allocation"):
                    client.read(987654, np.float32, 1)

            f32 = np.float32
            # name -> (call, HTTP round trips the call makes)
            calls = {
                "health": (client.health, 1),
                "ready": (client.ready, 1),
                "error 400": (unknown_allocation, 1),
                "run": (lambda: client.run("vecAdd", 1, small.size, args), 1),
                "launch+collect": (lambda: client.collect(
                    client.launch("vecAdd", 1, small.size, args)), 2),
            }
            for n, buffer, values in (
                (16, small_buffer, small), (1024, large_buffer, large)
            ):
                calls.update({
                    f"write {n}": (partial(client.write, buffer, values), 1),
                    f"read {n}": (partial(client.read, buffer, f32, n), 1),
                    f"json write {n}": (
                        partial(legacy.write, buffer, values), 1),
                    f"json read {n}": (
                        partial(legacy.read, buffer, f32, n), 1),
                })
            medians = {}
            for name, (call, round_trips) in calls.items():
                samples = []
                for _ in range(rounds):
                    start = time.perf_counter()
                    call()
                    samples.append(
                        (time.perf_counter() - start) / round_trips
                    )
                medians[name] = statistics.median(samples) * 1e3
        slow = {n: ms for n, ms in medians.items() if ms >= 20.0}
        assert not slow, f"round-trip medians in ms: {medians}"


class TestServeErrors:
    def test_unknown_kernel_is_client_error(self, server):
        with ServeClient(server.host, server.port, "err") as client:
            launch = client.launch("noSuchKernel", 1, N, [])
            reply = client.collect(launch)
            assert not reply["ok"]

    def test_bad_dimensions_rejected_at_submit(self, server):
        with ServeClient(server.host, server.port, "err") as client:
            with pytest.raises(LaunchError, match="dimensions"):
                client.launch("vecAdd", [1, 1, 1, 1], N, [])
            with pytest.raises(LaunchError, match=r"grid\.x must be an int"):
                client.launch("vecAdd", "12", N, [])
            with pytest.raises(LaunchError, match=r"block\.x must be an int"):
                client.launch("vecAdd", 1, [2.5], [])

    def test_unknown_allocation_rejected(self, server):
        with ServeClient(server.host, server.port, "err") as client:
            with pytest.raises(LaunchError, match="allocation"):
                client.read(987654, np.float32, N)

    def test_read_past_the_buffer_is_400(self, server):
        """A read or write is bounded by the buffer, not by the
        worker's arena that other tenants share: past it is a 400."""
        with ServeClient(server.host, server.port, "bounds") as client:
            a = client.malloc(16)
            connection = HTTPConnection(server.host, server.port)
            try:
                connection.request(
                    "POST", "/v1/read",
                    body=json.dumps({
                        "tenant": "bounds", "allocation": a,
                        "dtype": "<f4", "count": 8,
                    }),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                reply = json.loads(response.read())
            finally:
                connection.close()
            assert response.status == 400
            assert reply["error"]["type"] == "LaunchError"
            assert "read of 32 bytes" in reply["error"]["message"]
            with pytest.raises(LaunchError, match="write of 32 bytes"):
                client.write(a, np.full(8, -1.0, dtype=np.float32))

    def test_quota_maps_to_429(self, server):
        with ServeClient(
            server.host, server.port, "quota-http", max_launches=1
        ) as client:
            a = client.upload(np.arange(N, dtype=np.float32))
            c = client.malloc(4 * N)
            args = [
                {"allocation": a}, {"allocation": a},
                {"allocation": c}, N,
            ]
            client.run("vecAdd", 1, N, args)
            with pytest.raises(QuotaExceeded):
                client.launch("vecAdd", 1, N, args)

    def test_cross_tenant_allocation_rejected(self, server):
        """Allocation ids are per tenant: the id of another tenant's
        buffer names the thief's own buffer of that id, or none."""
        with ServeClient(server.host, server.port, "owner") as owner:
            owner.upload(np.arange(N, dtype=np.float32))
            theirs = owner.upload(np.arange(N, dtype=np.float32))
            with ServeClient(
                server.host, server.port, "thief"
            ) as thief:
                mine = thief.upload(np.full(N, 7.0, dtype=np.float32))
                assert mine == 1
                assert np.array_equal(
                    thief.read(1, np.float32, N),
                    np.full(N, 7.0, dtype=np.float32),
                )
                with pytest.raises(LaunchError, match="never existed"):
                    thief.read(theirs, np.float32, N)

    def test_two_tenants_on_one_worker_each_hold_id_one(self, server):
        """Each tenant's first buffer is id 1, and each reads its own
        bytes through it, though both live in one worker's arena."""
        clients = [
            ServeClient(server.host, server.port, tenant, worker=0)
            for tenant in ("ones-a", "ones-b")
        ]
        try:
            for value, client in enumerate(clients):
                assert client.upload(np.full(N, value, np.float32)) == 1
            for value, client in enumerate(clients):
                assert np.array_equal(
                    client.read(1, np.float32, N), np.full(N, value)
                )
        finally:
            for client in clients:
                client.close()

    @pytest.mark.parametrize("weight", [0, -1.0, "nan", "inf"])
    def test_a_refused_weight_leaves_no_session(self, server, weight):
        """A weight the fair queue refuses is a 400, and leaves no
        half-made session behind: a retry with a good weight works."""
        tenant = f"weight-{weight}"
        status, reply = _post_raw(
            server, "/v1/session", {"tenant": tenant, "weight": weight}
        )
        assert status == 400
        assert "positive and finite" in reply["error"]["message"]
        with ServeClient(server.host, server.port, tenant) as client:
            assert np.allclose(_vecadd_roundtrip(client), np.arange(N) * 2)

    @pytest.mark.parametrize("field, value", [
        ("max_pending", "5"),
        ("max_pending", -1),
        ("max_launches", -1),
        ("max_launches", "1"),
        ("worker", "0"),
        ("worker", True),
        ("checkpoint_interval", 0),
        ("tenant", ["a"]),
        ("tenant", 7),
        ("weight", "2"),
    ])
    def test_a_malformed_session_parameter_is_400_and_leaves_no_session(
        self, server, field, value
    ):
        """A session parameter the pool cannot use is a 400 naming it,
        and leaves no session behind: a retry without it works."""
        tenant = f"param-{field}-{value!r}"
        status, reply = _post_raw(
            server, "/v1/session", {"tenant": tenant, field: value}
        )
        assert status == 400
        assert field in reply["error"]["message"]
        assert tenant not in {s.tenant for s in server.pool.sessions()}
        with ServeClient(server.host, server.port, tenant) as client:
            assert np.allclose(_vecadd_roundtrip(client), np.arange(N) * 2)

    @pytest.mark.parametrize("deadline", ["soon", -1.0])
    def test_a_malformed_deadline_is_400_and_leaks_no_launch(
        self, server, deadline
    ):
        """A deadline the queue cannot read is refused before the
        launch is counted: nothing stays pending for synchronize(),
        drain() or the server's queue bound."""
        tenant = f"deadline-{deadline}"
        with ServeClient(server.host, server.port, tenant) as client:
            status, reply = _post_raw(server, "/v1/launch", {
                "tenant": tenant, "kernel": "vecAdd", "grid": 1,
                "block": N, "args": [], "deadline": deadline,
            })
            assert status == 400
            assert "deadline" in reply["error"]["message"]
            session = {s.tenant: s for s in server.pool.sessions()}[tenant]
            assert session.pending == 0
            assert session.stats.submitted == 0
            session.synchronize(timeout=5.0)
            assert np.allclose(_vecadd_roundtrip(client), np.arange(N) * 2)

    @pytest.mark.parametrize("path", ["/v1/inject", "/v1/disarm"])
    def test_no_request_arms_a_fault(self, server, path):
        """A tenant gets memory copies and launches, nothing that arms
        a fault site on a worker device other tenants share."""
        status, _ = _post_raw(
            server, path, {"tenant": "armer", "site": "use_after_free"}
        )
        assert status == 404
        for name in ("inject_fault", "disarm_faults"):
            assert not hasattr(ServeClient, name)
            assert not hasattr(TenantSession, name)

    @pytest.mark.parametrize("method", ["GET", "POST"])
    def test_an_unknown_path_is_a_launch_error_naming_it(
        self, server, method
    ):
        """A 404 carries the error object every other error reply
        carries, so the client raises it as a LaunchError."""
        with ServeClient(server.host, server.port, "lost") as client:
            with pytest.raises(LaunchError, match="unknown path /v1/nope"):
                client._request(method, "/v1/nope", {})

    def test_a_negative_content_length_is_400(self, server):
        """A body length of -1 would read until the client hangs up
        while the client waits for the reply."""
        with socket.create_connection(
            (server.host, server.port), timeout=1.0
        ) as raw:
            raw.sendall(
                b"POST /v1/session HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: -1\r\n\r\n"
            )
            reply = raw.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400")

    @pytest.mark.parametrize("path, fields, named", [
        ("/v1/read", {"dtype": "V4", "count": 1}, "dtype"),
        ("/v1/read", {"dtype": "c8", "count": 1}, "dtype"),
        ("/v1/read", {"dtype": "<f4", "count": "3"}, "count"),
        ("/v1/write", {"dtype": "U2", "data": ["ab"]}, "dtype"),
        ("/v1/upload", {"dtype": "U2", "data": ["ab"]}, "dtype"),
        ("/v1/write", {"dtype": "<f4", "data": {"a": 1}}, "data"),
        ("/v1/malloc", {"size": 2.7}, "size"),
        ("/v1/malloc", {"size": True}, "size"),
        ("/v1/collect", {"timeout": "soon"}, "timeout"),
        ("/v1/collect", {"timeout": -1.0}, "timeout"),
        ("/v1/collect", {"timeout": True}, "timeout"),
        ("/v1/run", {"timeout": "soon"}, "timeout"),
        ("/v1/run", {"timeout": float("inf")}, "timeout"),
        ("/v1/malloc", {"size": 8, "label": 5}, "label"),
        ("/v1/register", {"source": 5}, "source"),
        ("/v1/launch", {"kernel": 5}, "kernel"),
        ("/v1/launch", {"args": 5}, "args"),
        ("/v1/launch", {"args": ["x"]}, "args"),
        ("/v1/run", {"args": 5}, "args"),
    ])
    def test_a_malformed_buffer_or_wait_field_is_400(
        self, server, path, fields, named
    ):
        """A dtype guest memory cannot hold, a size or count that is
        not an int, or a wait that is not a finite number of seconds
        is a 400 naming the field: never a 500, never truncated. A
        refused collect keeps its launch; a refused run queues none."""
        tenant = "fields"
        with ServeClient(server.host, server.port, tenant) as client:
            buffer = client.upload(np.arange(4, dtype=np.float32))
            launch = client.launch("vecAdd", 1, 1, [])
            session = {s.tenant: s for s in server.pool.sessions()}[tenant]
            submitted = session.stats.submitted
            status, reply = _post_raw(server, path, {
                "tenant": tenant, "allocation": buffer, "launch": launch,
                "kernel": "vecAdd", "grid": 1, "block": 1, "args": [],
                **fields,
            })
            assert status == 400
            assert named in reply["error"]["message"]
            assert session.stats.submitted == submitted
            assert "ok" in client.collect(launch)

    @pytest.mark.parametrize("fields, size, message", [
        ({"dtype": "<f4"}, 6, "not a whole number of <f4 items"),
        (None, 4, f"needs {FIELDS_HEADER}"),
        ("{not json", 4, f"{FIELDS_HEADER} header is not JSON"),
        ("[1, 2]", 4, f"{FIELDS_HEADER} header must be a JSON object"),
        ({"dtype": "<f4"}, 32, "write of 32 bytes does not fit"),
    ])
    def test_a_misframed_octet_stream_write_is_400(
        self, server, fields, size, message
    ):
        with ServeClient(server.host, server.port, "framing") as client:
            buffer = client.malloc(16)
            if isinstance(fields, dict):
                fields = json.dumps({
                    "tenant": "framing", "allocation": buffer, **fields
                })
            status, reply = _post_octets(
                server, "/v1/write", fields, b"\x01" * size
            )
            assert status == 400
            assert message in reply["error"]["message"]
            assert client.read(buffer, np.uint8, 16).tobytes() == bytes(16)

    def test_a_run_that_times_out_keeps_its_launch(self, server):
        """The 400 of a run whose wait ran out names the launch, and
        /v1/collect of that id still finishes it."""
        with ServeClient(server.host, server.port, "run-late") as client:
            a = client.upload(np.arange(N, dtype=np.float32))
            c = client.malloc(4 * N)
            status, reply = _post_raw(server, "/v1/run", {
                "tenant": "run-late", "kernel": "vecAdd", "grid": 1,
                "block": N, "timeout": 0,
                "args": [{"allocation": a}, {"allocation": a},
                         {"allocation": c}, N],
            })
            assert status == 400
            launch = reply["error"]["launch"]
            assert f"collect launch {launch}" in reply["error"]["message"]
            assert client.collect(launch)["ok"]
            assert np.array_equal(
                client.read(c, np.float32, N), np.arange(N) * 2
            )


class TestServeWire:
    def test_run_is_one_request_and_buffers_move_as_bytes(self, server):
        with ServeClient(server.host, server.port, "wire") as client:
            real = client._transport
            sent = []

            def recording(method, path, payload, headers):
                response, raw = real(method, path, payload, headers)
                sent.append((
                    path, headers.get("Content-Type"), payload,
                    response.getheader("Content-Type"),
                ))
                return response, raw

            client._transport = recording
            values = np.arange(N, dtype=np.float32)
            a = client.upload(values)
            client.write(a, values)
            out = client.read(a, np.float32, N)
            assert out.flags.writeable and np.array_equal(out, values)
            octets = "application/octet-stream"
            assert [entry[:2] for entry in sent[:2]] == [
                ("/v1/upload", octets), ("/v1/write", octets)
            ]
            assert sent[0][2] == sent[1][2] == values.tobytes()
            assert sent[2][0] == "/v1/read" and sent[2][3] == octets
            assert b'"data"' not in sent[2][2]
            c = client.malloc(4 * N)
            del sent[:]
            client.run("vecAdd", 1, N, [
                {"allocation": a}, {"allocation": a}, {"allocation": c}, N
            ])
            assert [entry[0] for entry in sent] == ["/v1/run"]
            with pytest.raises(LaunchError, match="cannot encode"):
                client.run("vecAdd", 1, N, [np.int32(N)])

            def reset(method, path, payload, headers):
                sent.append(path)
                raise ConnectionResetError("injected reset")

            client._transport = reset
            del sent[:]
            with pytest.raises(ConnectionResetError):
                client.run("vecAdd", 1, N, [])
            assert sent == ["/v1/run"]  # a run mutates: never resent
            del sent[:]
            with pytest.raises(ConnectionResetError):
                client.reset()
            assert sent == ["/v1/reset"]  # nor does a reset


class TestOldClient:
    """A client that speaks only the JSON forms keeps working, and sees
    the bytes and payloads the raw-bytes client sees."""

    def test_json_only_client_against_the_new_server(self, server):
        rng = np.random.default_rng(0)
        values = rng.random(N, dtype=np.float32)
        with _JsonOnlyClient(server, "legacy") as old, ServeClient(
            server.host, server.port, "legacy"
        ) as new:
            a, b = old.upload(values), new.upload(values)
            for buffer in (a, b):
                for client in (old, new):
                    out = client.read(buffer, np.float32, N)
                    assert out.tobytes() == values.tobytes()
            c = new.malloc(4 * N)
            args = [{"allocation": a}, {"allocation": b},
                    {"allocation": c}, N]
            assert old.run("vecAdd", 1, N, args) == new.run(
                "vecAdd", 1, N, args
            )
            assert (
                old.read(c, np.float32, N).tobytes()
                == new.read(c, np.float32, N).tobytes()
                == (values + values).tobytes()
            )
            old.write(c, values * 3)
            assert new.read(c, np.float32, N).tobytes() == (
                values * 3
            ).tobytes()
            for dtype in (np.bool_, np.uint8, np.int32, np.float64):
                typed = (rng.random(N) * 100).astype(dtype)
                for writer, reader in ((old, new), (new, old)):
                    buffer = writer.upload(typed)
                    assert reader.read(buffer, dtype, N).tobytes() == (
                        typed.tobytes()
                    )

    def test_a_raw_write_replays_after_a_worker_loss(self):
        """A durable tenant's journal keeps a raw-bytes write: after a
        worker loss the JSON path reads back the same bytes."""
        pool = DevicePool(workers=1, modules=[VECADD_PTX])
        pool.ready(timeout=300.0)
        server = KernelServer(pool, port=0, durability="journal")
        server.start_background()
        values = np.random.default_rng(1).random(N, dtype=np.float32)
        try:
            with _JsonOnlyClient(server, "journaled") as old, ServeClient(
                server.host, server.port, "journaled"
            ) as new:
                buffer = new.malloc(values.nbytes)
                new.write(buffer, values)
                pool._workers[0].process.kill()
                out = old.read(buffer, np.float32, N)
                assert out.tobytes() == values.tobytes()
                assert new.stats()["tenants"]["journaled"]["restores"] == 1
        finally:
            server.shutdown(drain=False)


class TestServeFaultIsolation:
    def test_trapping_client_isolated_over_http(self, server):
        """A client whose kernel traps gets a structured error reply;
        other clients' launches keep completing correctly."""
        healthy = ServeClient(server.host, server.port, "iso-healthy")
        try:
            assert np.allclose(
                _vecadd_roundtrip(healthy), np.arange(N) * 2
            )
            with ServeClient(
                server.host, server.port, "iso-chaos",
                worker=healthy.worker,
            ) as chaos:
                chaos.register(CHAOS_PTX)
                a = chaos.upload(np.ones(N, dtype=np.float32))
                # A null output pointer: a real trap at address 0.
                reply = chaos.collect(chaos.launch(
                    "chaosAdd", 1, N,
                    [{"allocation": a}, {"allocation": a}, 0, N],
                ))
                assert not reply["ok"]
                assert reply["error"]["type"] == "KernelTrap"
                assert "chaosAdd" in reply["error"]["report"]
                chaos.reset()
            # Same-worker healthy client unaffected.
            assert np.allclose(
                _vecadd_roundtrip(healthy), np.arange(N) * 2
            )
        finally:
            healthy.close()

