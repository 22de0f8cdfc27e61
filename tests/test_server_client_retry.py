"""Client overloaded-retry behaviour (opt-in ``retries=``).

A scripted stdlib TCP server makes the admission-control dance
deterministic: reject the first N attempts with ``overloaded`` (carrying
a ``retry_after_ms`` hint), then answer.  A second test saturates a real
:class:`SpatialQueryService` queue and checks a retrying client rides
out the burst while a non-retrying one surfaces the rejection.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.api import SpatialCollection
from repro.datasets import generate_uniform_rects
from repro.server import ServerConfig, SpatialQueryService
from repro.server.client import (
    OverloadedError,
    ShuttingDownError,
    SpatialClient,
)


class ScriptedServer:
    """Accepts one connection; rejects ``n_overloads`` requests, then serves."""

    def __init__(self, n_overloads, retry_after_ms=5, final_code=None):
        self.n_overloads = n_overloads
        self.retry_after_ms = retry_after_ms
        self.final_code = final_code  # None = success frame
        self.seen_ids = []
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        conn, _ = self._sock.accept()
        with conn, conn.makefile("rb") as rfile:
            rejected = 0
            while True:
                line = rfile.readline()
                if not line:
                    return
                req = json.loads(line)
                self.seen_ids.append(req["id"])
                if rejected < self.n_overloads:
                    rejected += 1
                    frame = {
                        "id": req["id"],
                        "ok": False,
                        "error": {
                            "code": "overloaded",
                            "message": "scripted rejection",
                            "retry_after_ms": self.retry_after_ms,
                        },
                    }
                elif self.final_code is not None:
                    frame = {
                        "id": req["id"],
                        "ok": False,
                        "error": {
                            "code": self.final_code,
                            "message": "scripted",
                        },
                    }
                else:
                    frame = {"id": req["id"], "ok": True, "result": {"pong": True}}
                conn.sendall((json.dumps(frame) + "\n").encode())

    def close(self):
        self._sock.close()
        self._thread.join(timeout=5)


class TestScriptedRetries:
    def test_default_raises_on_first_overload(self):
        srv = ScriptedServer(n_overloads=1)
        try:
            with SpatialClient("127.0.0.1", srv.port, timeout=5) as cli:
                with pytest.raises(OverloadedError) as exc:
                    cli.call("ping")
                assert exc.value.retry_after_ms == 5
                assert cli.last_retries == 0
        finally:
            srv.close()

    def test_retries_ride_out_overloads_with_fresh_ids(self):
        srv = ScriptedServer(n_overloads=2)
        try:
            with SpatialClient(
                "127.0.0.1", srv.port, timeout=5, retries=3
            ) as cli:
                t0 = time.monotonic()
                assert cli.call("ping") == {"pong": True}
                assert cli.last_retries == 2
                # each attempt is a brand-new request id
                assert srv.seen_ids == [1, 2, 3]
                # jittered backoff stays within the hint (plus slack)
                assert time.monotonic() - t0 < 1.0
        finally:
            srv.close()

    def test_exhausted_retries_raise(self):
        srv = ScriptedServer(n_overloads=10)
        try:
            with SpatialClient(
                "127.0.0.1", srv.port, timeout=5, retries=2
            ) as cli:
                with pytest.raises(OverloadedError):
                    cli.call("ping")
                assert cli.last_retries == 2
                assert srv.seen_ids == [1, 2, 3]
        finally:
            srv.close()

    def test_shutting_down_is_never_retried(self):
        srv = ScriptedServer(n_overloads=0, final_code="shutting_down")
        try:
            with SpatialClient(
                "127.0.0.1", srv.port, timeout=5, retries=5
            ) as cli:
                with pytest.raises(ShuttingDownError):
                    cli.call("ping")
                assert srv.seen_ids == [1]
        finally:
            srv.close()

    def test_backoff_bounded_by_cap_and_hint(self):
        cli = SpatialClient.__new__(SpatialClient)  # no connection needed
        cli.max_retry_wait_s = 0.05
        for _ in range(50):
            assert 0.0 <= cli._backoff_s(10_000) <= 0.05
            assert 0.0 <= cli._backoff_s(1) <= 0.001
            assert 0.0 <= cli._backoff_s(None) <= 0.02


class TestSaturatedService:
    def test_retrying_client_rides_out_a_saturated_queue(self):
        data = generate_uniform_rects(400, area=1e-5, seed=17)
        col = SpatialCollection.from_dataset(data, partitions_per_dim=16)
        config = ServerConfig(queue_depth=2, max_batch=1)

        started = threading.Event()
        stop = threading.Event()
        box = {}

        def serve():
            async def main():
                service = SpatialQueryService(col.index, col.data, config)
                await service.start()
                box["addr"] = service.address
                started.set()
                while not stop.is_set():
                    await asyncio.sleep(0.01)
                await service.shutdown()

            asyncio.run(main())

        t = threading.Thread(target=serve)
        t.start()
        stop_flood = threading.Event()

        def flood(host, port):
            # a sustained pipelined firehose: keep ~24 requests in
            # flight against the 2-deep queue until told to stop, so
            # the bare/retrying clients race a *saturated* server
            # rather than the tail of a one-shot burst
            cli = SpatialClient(host, port, timeout=10)
            try:
                inflight = 0
                while not stop_flood.is_set():
                    while inflight < 24:
                        cli.send_raw(
                            "count", {"xl": 0, "yl": 0, "xu": 1, "yu": 1}
                        )
                        inflight += 1
                    for _ in range(12):
                        cli.recv_raw()
                        inflight -= 1
            finally:
                cli.close()

        try:
            assert started.wait(5.0)
            host, port = box["addr"]
            flood_t = threading.Thread(target=flood, args=(host, port))
            flood_t.start()
            try:
                # without retries the rejection surfaces...
                overloaded = 0
                with SpatialClient(host, port, timeout=10) as bare:
                    for _ in range(50):
                        try:
                            bare.ping()
                        except OverloadedError as exc:
                            assert exc.retry_after_ms is not None
                            overloaded += 1
                            if overloaded >= 3:
                                break
                        time.sleep(0.005)
                assert overloaded > 0, "queue never saturated; tune the flood"
                # ...while a retrying client lands every request
                with SpatialClient(
                    host, port, timeout=10, retries=400
                ) as cli:
                    for _ in range(5):
                        assert cli.ping()["pong"] is True
            finally:
                stop_flood.set()
                flood_t.join(timeout=10)
        finally:
            stop.set()
            t.join()
