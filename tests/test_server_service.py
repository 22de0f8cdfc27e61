"""Service behaviour: wire parity, micro-batching, backpressure, drain.

In-process tests drive a :class:`SpatialQueryService` inside one asyncio
loop; the end-to-end tests spawn ``python -m repro --serve`` and talk to
it with the stdlib client, including SIGTERM drain and ``--index`` boot.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys

import pytest

from repro.api import SpatialCollection
from repro.datasets import generate_uniform_rects
from repro.server import ServerConfig, SpatialQueryService
from repro.server.batcher import MicroBatcher, PendingRequest
from repro.server.protocol import Request
from repro.server.client import (
    OverloadedError,
    ServerError,
    SpatialClient,
)

from conftest import ids_set

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_collection(n=1200, seed=13):
    data = generate_uniform_rects(n, area=1e-5, seed=seed)
    return SpatialCollection.from_dataset(data, partitions_per_dim=16)


async def send(writer, req_id, verb, args=None):
    frame = {"id": req_id, "verb": verb}
    if args:
        frame["args"] = args
    writer.write((json.dumps(frame) + "\n").encode())
    await writer.drain()


async def recv(reader):
    line = await asyncio.wait_for(reader.readline(), 10.0)
    assert line, "server closed the connection unexpectedly"
    return json.loads(line)


async def call(reader, writer, req_id, verb, args=None):
    await send(writer, req_id, verb, args)
    frame = await recv(reader)
    assert frame["id"] == req_id
    return frame


def service_test(coro_fn, config=None, collection=None):
    """Run ``coro_fn(service, reader, writer)`` against a live service."""
    col = collection if collection is not None else make_collection()

    async def main():
        service = SpatialQueryService(
            col.index, col.data, config or ServerConfig()
        )
        await service.start()
        host, port = service.address
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await coro_fn(service, reader, writer)
        finally:
            writer.close()
            await service.shutdown()

    asyncio.run(main())


class TestWireParity:
    def test_all_query_verbs_match_in_process(self):
        col = make_collection()

        async def scenario(service, reader, writer):
            w = (0.3, 0.3, 0.5, 0.5)
            frame = await call(
                reader, writer, 1, "window",
                dict(zip(("xl", "yl", "xu", "yu"), w)),
            )
            assert frame["ok"]
            assert ids_set(frame["result"]["ids"]) == ids_set(col.window(*w))

            frame = await call(
                reader, writer, 2, "window",
                {**dict(zip(("xl", "yl", "xu", "yu"), w)),
                 "predicate": "within"},
            )
            assert ids_set(frame["result"]["ids"]) == ids_set(
                col.window(*w, predicate="within")
            )

            frame = await call(
                reader, writer, 3, "disk",
                {"cx": 0.5, "cy": 0.5, "radius": 0.08},
            )
            assert ids_set(frame["result"]["ids"]) == ids_set(
                col.disk(0.5, 0.5, 0.08)
            )

            frame = await call(
                reader, writer, 4, "knn", {"cx": 0.5, "cy": 0.5, "k": 9}
            )
            assert frame["result"]["ids"] == col.knn(0.5, 0.5, 9).tolist()

            frame = await call(
                reader, writer, 5, "count",
                dict(zip(("xl", "yl", "xu", "yu"), w)),
            )
            assert frame["result"]["count"] == col.count(*w)

            frame = await call(reader, writer, 6, "describe")
            local = col.describe()
            assert frame["result"]["objects"] == local["objects"]
            assert frame["result"]["replicas"] == local["replicas"]
            assert frame["result"]["class_counts"] == local["class_counts"]

            frame = await call(
                reader, writer, 7, "explain",
                {"kind": "window", **dict(zip(("xl", "yl", "xu", "yu"), w))},
            )
            local_plan = col.window(*w, explain=True).as_dict()
            assert frame["result"]["kind"] == local_plan["kind"]
            assert frame["result"]["result_count"] == local_plan["result_count"]
            assert frame["result"]["index"] == local_plan["index"]

            frame = await call(reader, writer, 8, "ping")
            assert frame["result"]["pong"] is True

        service_test(scenario, collection=col)

    def test_insert_delete_read_your_writes(self):
        async def scenario(service, reader, writer):
            probe = {"xl": 0.40, "yl": 0.40, "xu": 0.43, "yu": 0.43}
            frame = await call(
                reader, writer, 1, "insert",
                {"xl": 0.41, "yl": 0.41, "xu": 0.42, "yu": 0.42},
            )
            assert frame["ok"]
            new_id = frame["result"]["id"]
            assert frame["result"]["snapshot"] == 1
            frame = await call(reader, writer, 2, "window", probe)
            assert new_id in frame["result"]["ids"]
            frame = await call(reader, writer, 3, "delete", {"id": new_id})
            assert frame["result"]["found"] is True
            frame = await call(reader, writer, 4, "window", probe)
            assert new_id not in frame["result"]["ids"]
            frame = await call(reader, writer, 5, "delete", {"id": new_id})
            assert frame["result"]["found"] is False

        service_test(scenario)

    def test_structured_errors_over_the_wire(self):
        async def scenario(service, reader, writer):
            writer.write(b"this is not json\n")
            await writer.drain()
            frame = await recv(reader)
            assert frame["ok"] is False
            assert frame["error"]["code"] == "bad_request"
            assert frame["id"] is None

            frame = await call(reader, writer, 2, "window",
                               {"xl": 0.5, "yl": 0.5, "xu": 0.1, "yu": 0.6})
            assert frame["error"]["code"] == "invalid_query"

            await send(writer, 3, "teleport")
            frame = await recv(reader)
            assert frame["error"]["code"] == "unknown_verb"

            frame = await call(reader, writer, 4, "knn",
                               {"cx": 0.5, "cy": 0.5, "k": 0})
            assert frame["error"]["code"] == "invalid_query"

            # the connection survives all of the above
            frame = await call(reader, writer, 5, "ping")
            assert frame["ok"]

        service_test(scenario)


class TestBatchingAndBackpressure:
    def test_pipelined_requests_coalesce_into_batches(self):
        async def scenario(service, reader, writer):
            n = 24
            payload = b"".join(
                (json.dumps({
                    "id": i, "verb": "window",
                    "args": {"xl": 0.2, "yl": 0.2, "xu": 0.4, "yu": 0.4},
                }) + "\n").encode()
                for i in range(n)
            )
            writer.write(payload)
            await writer.drain()
            frames = [await recv(reader) for _ in range(n)]
            assert all(f["ok"] for f in frames)
            sizes = {f["server"]["batch_size"] for f in frames}
            assert max(sizes) > 1, "no micro-batch formed"
            # identical queries in one batch → identical results
            first = frames[0]["result"]["ids"]
            assert all(f["result"]["ids"] == first for f in frames)
            summary = service.registry.histogram("server.batch_size").summary()
            assert summary["max"] > 1

        service_test(
            scenario,
            config=ServerConfig(max_batch=32),
        )

    def test_overload_rejects_with_retry_hint(self):
        async def scenario(service, reader, writer):
            n = 40
            payload = b"".join(
                (json.dumps({
                    "id": i, "verb": "window",
                    "args": {"xl": 0.1, "yl": 0.1, "xu": 0.6, "yu": 0.6},
                }) + "\n").encode()
                for i in range(n)
            )
            writer.write(payload)
            await writer.drain()
            frames = [await recv(reader) for _ in range(n)]
            rejected = [f for f in frames if not f["ok"]]
            accepted = [f for f in frames if f["ok"]]
            assert rejected, "bounded queue never rejected"
            assert accepted, "everything was rejected"
            for f in rejected:
                assert f["error"]["code"] == "overloaded"
                assert f["error"]["retry_after_ms"] >= 1
            assert service.registry.counter("server.rejected").value == len(
                rejected
            )

        service_test(
            scenario,
            config=ServerConfig(queue_depth=4, max_batch=2),
        )

    def test_draining_server_answers_shutting_down(self):
        async def scenario(service, reader, writer):
            service._draining = True
            frame = await call(reader, writer, 1, "ping")
            assert frame["ok"] is False
            assert frame["error"]["code"] == "shutting_down"
            service._draining = False

        service_test(scenario)

    def test_error_frames_echo_client_trace(self):
        """Every error branch echoes ``trace`` — the repro-verify RV205
        regression: drain and overload rejections used to drop it."""

        async def scenario(service, reader, writer):
            service._draining = True
            writer.write(
                (json.dumps({"id": 1, "verb": "ping", "trace": "tr-drain"})
                 + "\n").encode()
            )
            await writer.drain()
            frame = await recv(reader)
            assert frame["error"]["code"] == "shutting_down"
            assert frame["trace"] == "tr-drain"
            service._draining = False

        service_test(scenario)

    def test_overload_rejections_echo_client_trace(self):
        async def scenario(service, reader, writer):
            n = 40
            payload = b"".join(
                (json.dumps({
                    "id": i, "verb": "window", "trace": f"tr-{i}",
                    "args": {"xl": 0.1, "yl": 0.1, "xu": 0.6, "yu": 0.6},
                }) + "\n").encode()
                for i in range(n)
            )
            writer.write(payload)
            await writer.drain()
            frames = [await recv(reader) for _ in range(n)]
            rejected = [f for f in frames if not f["ok"]]
            assert rejected, "bounded queue never rejected"
            for f in rejected:
                assert f["error"]["code"] == "overloaded"
                assert f["trace"] == f"tr-{f['id']}"

        service_test(
            scenario,
            config=ServerConfig(queue_depth=4, max_batch=2),
        )

    def test_stats_verb_exposes_server_metrics(self):
        async def scenario(service, reader, writer):
            for i in range(3):
                await call(reader, writer, i, "window",
                           {"xl": 0.2, "yl": 0.2, "xu": 0.3, "yu": 0.3})
            frame = await call(reader, writer, 99, "stats")
            metrics = frame["result"]["metrics"]
            assert metrics["server.requests"] >= 4
            assert metrics["server.requests.window"] == 3
            assert metrics["server.latency_ms.count"] >= 3
            assert metrics["server.connections"] == 1
            assert "server.batch_size.count" in metrics
            assert any(k.startswith("server.") for k in frame["result"]["spans"])

        service_test(scenario)


class TestMicroBatcher:
    def _pending(self, i):
        return PendingRequest(Request(i, "ping", {}), conn=None)

    def test_batch_is_first_plus_already_queued(self):
        async def scenario():
            batcher = MicroBatcher(queue_depth=8, max_batch=3)
            for i in range(5):
                assert batcher.try_submit(self._pending(i))
            first = await batcher.next_batch()
            second = await batcher.next_batch()
            assert [p.request.id for p in first] == [0, 1, 2]
            assert [p.request.id for p in second] == [3, 4]

        asyncio.run(scenario())

    def test_close_on_full_queue_still_ends_the_drain(self):
        """close() cannot enqueue its sentinel into a full queue; the
        drain must still end once the queue is empty instead of blocking
        until shutdown's timeout cancels it."""

        async def scenario():
            batcher = MicroBatcher(queue_depth=4, max_batch=2)
            for i in range(4):
                assert batcher.try_submit(self._pending(i))
            batcher.close()
            assert not batcher.try_submit(self._pending(99))
            drained = []
            while True:
                batch = await asyncio.wait_for(batcher.next_batch(), 0.1)
                if batch is None:
                    break
                drained += [p.request.id for p in batch]
            assert drained == [0, 1, 2, 3]

        asyncio.run(scenario())


class TestEndToEndSubprocess:
    def _spawn(self, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(REPO_ROOT, "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--serve", "127.0.0.1:0", *extra],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        line = proc.stdout.readline()
        m = re.search(r"serving on ([\d.]+):(\d+)", line)
        assert m, f"no announce line; stderr: {proc.stderr.read()}"
        return proc, m.group(1), int(m.group(2))

    def test_serve_matches_in_process_and_drains_on_sigterm(self):
        proc, host, port = self._spawn("--n", "1500", "--seed", "5")
        try:
            col = SpatialCollection.from_dataset(
                generate_uniform_rects(1500, area=1e-6, seed=5),
                partitions_per_dim=64,
            )
            with SpatialClient(host, port) as cli:
                assert cli.ping()["pong"] is True
                w = (0.2, 0.2, 0.45, 0.45)
                assert sorted(cli.window(*w)) == sorted(
                    col.window(*w).tolist()
                )
                assert sorted(cli.disk(0.5, 0.5, 0.1)) == sorted(
                    col.disk(0.5, 0.5, 0.1).tolist()
                )
                assert cli.knn(0.5, 0.5, 7) == col.knn(0.5, 0.5, 7).tolist()
                assert cli.count(*w) == col.count(*w)
                nid = cli.insert(0.31, 0.31, 0.32, 0.32)
                assert nid == len(col)
                assert nid in cli.window(0.30, 0.30, 0.33, 0.33)
                assert cli.delete(nid) is True
                plan = cli.explain("window", xl=w[0], yl=w[1], xu=w[2], yu=w[3])
                assert plan["kind"].startswith("window")
                stats = cli.stats()
                assert stats["metrics"]["server.requests"] > 0
        finally:
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=15)
        assert proc.returncode == 0, err
        assert "drained and stopped" in out

    def test_serve_from_saved_index(self, tmp_path):
        col = make_collection(n=900, seed=21)
        path = str(tmp_path / "prebuilt.npz")
        col.save(path)
        proc, host, port = self._spawn("--index", path)
        try:
            with SpatialClient(host, port) as cli:
                d = cli.describe()
                assert d["objects"] == 900
                w = (0.25, 0.25, 0.5, 0.5)
                assert sorted(cli.window(*w)) == sorted(
                    col.window(*w).tolist()
                )
        finally:
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=15)
        assert proc.returncode == 0, err


class TestClientErrors:
    def test_client_maps_overloaded(self):
        col = make_collection(n=200)

        async def scenario(service, reader, writer):
            pass

        # exercise the sync client against a live service in a thread
        import threading

        started = threading.Event()
        stop = threading.Event()
        box = {}

        def serve():
            async def main():
                service = SpatialQueryService(
                    col.index, col.data, ServerConfig()
                )
                await service.start()
                box["addr"] = service.address
                started.set()
                while not stop.is_set():
                    await asyncio.sleep(0.01)
                await service.shutdown()

            asyncio.run(main())

        t = threading.Thread(target=serve)
        t.start()
        try:
            assert started.wait(5.0)
            host, port = box["addr"]
            with SpatialClient(host, port) as cli:
                assert cli.ping()["pong"] is True
                with pytest.raises(ServerError) as exc:
                    cli.call("window", {"xl": 1, "yl": 1, "xu": 0, "yu": 0})
                assert exc.value.code == "invalid_query"
                assert not isinstance(exc.value, OverloadedError)
        finally:
            stop.set()
            t.join()
