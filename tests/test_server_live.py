"""Live serving telemetry: traces on the wire, admin verbs, exposition.

In-process tests drive a telemetry-enabled :class:`SpatialQueryService`
inside one asyncio loop; the end-to-end test boots ``python -m repro
--serve`` in a subprocess and checks the acceptance path — traced
queries round-trip with per-phase timings, ``stats``/``heatmap``/
``slowlog`` return well-formed payloads, the hottest tile matches the
deliberately hammered window, and the Prometheus endpoint scrapes.
"""

import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys
import urllib.request

import pytest

from repro.api import SpatialCollection
from repro.datasets import generate_uniform_rects
from repro.obs.metrics import MetricsRegistry
from repro.server import ServerConfig, SpatialQueryService
from repro.server.admin import MetricsHTTPServer
from repro.server.client import ClientError, ClientTimeoutError, SpatialClient

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the wire-envelope phase taxonomy for batched read requests.
PHASE_KEYS = {
    "queue_ms",
    "coalesce_ms",
    "snapshot_pin_ms",
    "kernel_ms",
    "refine_ms",
}


def make_collection(n=1200, seed=13):
    data = generate_uniform_rects(n, area=1e-5, seed=seed)
    return SpatialCollection.from_dataset(data, partitions_per_dim=16)


async def call(reader, writer, req_id, verb, args=None, trace=None):
    frame = {"id": req_id, "verb": verb}
    if args:
        frame["args"] = args
    if trace is not None:
        frame["trace"] = trace
    writer.write((json.dumps(frame) + "\n").encode())
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), 10.0)
    assert line, "server closed the connection unexpectedly"
    out = json.loads(line)
    assert out["id"] == req_id
    return out


def live_service_test(coro_fn, config=None, collection=None):
    """Run ``coro_fn(service, reader, writer)`` against a live service.

    Defaults to every-request telemetry retention (``trace_sample=1``)
    and every-batch heat accounting (``heat_sample=1``) so assertions
    are deterministic.
    """
    col = collection if collection is not None else make_collection()
    cfg = config or ServerConfig(heat_sample=1, trace_sample=1)

    async def main():
        service = SpatialQueryService(col.index, col.data, cfg)
        await service.start()
        host, port = service.address
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await coro_fn(service, reader, writer)
        finally:
            writer.close()
            await service.shutdown()

    asyncio.run(main())


WINDOW = {"xl": 0.30, "yl": 0.30, "xu": 0.34, "yu": 0.34}


class TestTracePropagation:
    def test_client_trace_round_trips_with_phases(self):
        async def scenario(service, reader, writer):
            frame = await call(
                reader, writer, 1, "window", WINDOW, trace="abc-123"
            )
            assert frame["ok"] is True
            assert frame["trace"] == "abc-123"
            phases = frame["server"]["phases"]
            assert set(phases) == PHASE_KEYS
            assert all(v >= 0.0 for v in phases.values())
            assert frame["server"]["batch_size"] >= 1
            # client-traced requests are always retained in the ring
            rec = service.telemetry.traces.last(1)[0]
            assert rec["trace"] == "abc-123"
            assert rec["verb"] == "window"
            assert rec["latency_ms"] > 0.0
            # the retained record additionally carries serialize_ms
            assert "serialize_ms" in rec["phases"]

        live_service_test(scenario)

    def test_untraced_request_gets_server_assigned_id(self):
        async def scenario(service, reader, writer):
            frame = await call(reader, writer, 1, "window", WINDOW)
            assert frame["ok"] is True
            assert re.fullmatch(r"t-[0-9a-f]{6,}", frame["trace"])
            # lean envelope: no phase breakdown unless the client traced
            assert "phases" not in frame["server"]

        live_service_test(scenario)

    def test_error_frames_echo_trace(self):
        async def scenario(service, reader, writer):
            frame = await call(
                reader,
                writer,
                1,
                "window",
                {"xl": 0.5, "yl": 0.5, "xu": 0.1, "yu": 0.1},
                trace="bad-win",
            )
            assert frame["ok"] is False
            assert frame["error"]["code"] == "invalid_query"
            assert frame["trace"] == "bad-win"

        live_service_test(scenario)

    def test_write_verbs_are_traced(self):
        async def scenario(service, reader, writer):
            frame = await call(
                reader,
                writer,
                1,
                "insert",
                {"xl": 0.1, "yl": 0.1, "xu": 0.11, "yu": 0.11},
                trace="w-1",
            )
            assert frame["ok"] is True
            assert frame["trace"] == "w-1"
            rec = service.telemetry.traces.last(1)[0]
            assert rec["verb"] == "insert"
            assert {"queue_ms", "kernel_ms"} <= set(rec["phases"])

        live_service_test(scenario)

    def test_oversized_trace_rejected(self):
        async def scenario(service, reader, writer):
            # malformed frames answer with id null (decode failed whole)
            writer.write(
                (
                    json.dumps(
                        {"id": 1, "verb": "ping", "trace": "x" * 200}
                    )
                    + "\n"
                ).encode()
            )
            await writer.drain()
            frame = json.loads(await asyncio.wait_for(reader.readline(), 10.0))
            assert frame["ok"] is False
            assert frame["id"] is None
            assert frame["error"]["code"] == "bad_request"
            assert "'trace' longer than" in frame["error"]["message"]

        live_service_test(scenario)

    def test_telemetry_off_keeps_envelope_lean(self):
        cfg = ServerConfig(telemetry=False)

        async def scenario(service, reader, writer):
            assert service.telemetry is None
            frame = await call(reader, writer, 1, "window", WINDOW)
            assert frame["ok"] is True
            assert "trace" not in frame

        live_service_test(scenario, config=cfg)


class TestAdminVerbs:
    def test_heatmap_tracks_hammered_tile(self):
        col = make_collection()

        async def scenario(service, reader, writer):
            for i in range(12):
                frame = await call(reader, writer, i, "window", WINDOW)
                assert frame["ok"] is True
            frame = await call(reader, writer, 99, "heatmap", {"top": 5})
            snap = frame["result"]
            assert snap["nx"] == snap["ny"] == 16
            assert snap["tiles_hot"] > 0
            assert snap["total_visits"] > 0
            hot = snap["tiles"][0]
            # the hottest tile must lie under the hammered window
            grid = col.index.grid
            lo_x = grid.tile_ix(WINDOW["xl"])
            lo_y = grid.tile_iy(WINDOW["yl"])
            hi_x = grid.tile_ix(WINDOW["xu"])
            hi_y = grid.tile_iy(WINDOW["yu"])
            assert lo_x <= hot["ix"] <= hi_x
            assert lo_y <= hot["iy"] <= hi_y
            assert hot["scans"] > 0

        live_service_test(scenario, collection=col)

    def test_traces_verb_lists_newest_first(self):
        async def scenario(service, reader, writer):
            for i in range(5):
                await call(reader, writer, i, "window", WINDOW, trace=f"t{i}")
            frame = await call(reader, writer, 99, "traces", {"limit": 3})
            result = frame["result"]
            assert result["capacity"] == service.config.trace_ring
            assert result["total"] >= 5
            got = [r["trace"] for r in result["entries"]]
            # newest first; the traces request itself is not yet retained
            assert got[0] == "t4"
            assert len(got) == 3

        live_service_test(scenario)

    def test_slowlog_captures_and_lazily_explains(self):
        cfg = ServerConfig(heat_sample=1, trace_sample=1, slowlog_ms=0.0)

        async def scenario(service, reader, writer):
            await call(reader, writer, 1, "window", WINDOW, trace="slow-1")
            assert service.telemetry.slowlog.total >= 1
            # captured entry holds no plan until the log is read
            assert service.telemetry.slowlog.entries(1)[0]["explain"] is None
            frame = await call(
                reader, writer, 2, "slowlog", {"limit": 10, "explain": True}
            )
            result = frame["result"]
            assert result["threshold_ms"] == 0.0
            assert result["total"] >= 1
            entry = next(
                e for e in result["entries"] if e["trace"] == "slow-1"
            )
            assert entry["latency_ms"] >= 0.0
            assert entry["explain"] is not None
            assert entry["explain"]["kind"].startswith("window")
            # ... and the plan is cached on the ring entry
            cached = next(
                e
                for e in service.telemetry.slowlog.entries(50)
                if e["trace"] == "slow-1"
            )
            assert cached["explain"] is not None

        live_service_test(scenario, config=cfg)

    def test_slowlog_explain_false_skips_plans(self):
        cfg = ServerConfig(heat_sample=1, trace_sample=1, slowlog_ms=0.0)

        async def scenario(service, reader, writer):
            await call(reader, writer, 1, "ping")
            frame = await call(
                reader, writer, 2, "slowlog", {"limit": 10, "explain": False}
            )
            for entry in frame["result"]["entries"]:
                assert entry["explain"] is None

        live_service_test(scenario, config=cfg)

    def test_admin_verbs_fail_cleanly_when_telemetry_off(self):
        cfg = ServerConfig(telemetry=False)

        async def scenario(service, reader, writer):
            for verb in ("heatmap", "slowlog", "traces"):
                frame = await call(reader, writer, 1, verb)
                assert frame["ok"] is False
                assert frame["error"]["code"] == "invalid_query"
                assert "telemetry is disabled" in frame["error"]["message"]

        live_service_test(scenario, config=cfg)

    def test_stats_reports_telemetry_state(self):
        async def scenario(service, reader, writer):
            await call(reader, writer, 1, "window", WINDOW)
            frame = await call(reader, writer, 2, "stats")
            result = frame["result"]
            assert result["telemetry"] is True
            assert result["uptime_s"] >= 0.0
            assert result["config"]["trace_sample"] == 1
            assert set(result["config"]) == {
                "queue_depth", "max_batch", "slowlog_ms",
                "heat_sample", "trace_sample",
            }
            metrics = result["metrics"]
            assert metrics["server.latency_ms.window.count"] >= 1
            assert "server.live.traces_retained" in metrics

        live_service_test(scenario)


class TestPrometheusExposition:
    """Satellite: the text exporter and the scrapeable HTTP endpoint."""

    @staticmethod
    def parse_exposition(text):
        """Round-trip parse: {name or name{labels}: float value}."""
        samples = {}
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            key, value = line.rsplit(" ", 1)
            samples[key] = float(value)
        return samples

    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("server.requests").inc(7)
        reg.gauge("server.queue_depth").set(3)
        hist = reg.histogram("server.latency_ms.window")
        for v in [1.0, 2.0, 3.0, 4.0, 100.0]:
            hist.observe(v)
        return reg

    def test_name_sanitisation(self):
        from repro.obs.export import to_prometheus_text

        reg = MetricsRegistry()
        reg.counter("server.latency-ms.p99@5m").inc()
        text = to_prometheus_text(reg)
        name = "repro_server_latency_ms_p99_5m"
        assert f"# TYPE {name} counter" in text
        assert f"{name} 1" in text
        # every exported sample name must be prometheus-legal
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            bare = line.split(" ")[0].split("{")[0]
            assert re.fullmatch(r"[a-zA-Z_:][a-zA-Z0-9_:]*", bare), bare

    def test_histogram_renders_as_summary(self):
        from repro.obs.export import to_prometheus_text

        text = to_prometheus_text(self._registry())
        samples = self.parse_exposition(text)
        base = "repro_server_latency_ms_window"
        assert samples[f"{base}_count"] == 5.0
        assert samples[f"{base}_sum"] == pytest.approx(110.0)
        assert samples[f'{base}{{quantile="0.5"}}'] == pytest.approx(
            3.0, abs=1.0
        )
        assert samples[f'{base}{{quantile="0.99"}}'] <= 100.0
        assert f"# TYPE {base} summary" in text

    def test_http_endpoint_round_trips(self):
        server = MetricsHTTPServer(self._registry(), port=0)
        server.start()
        try:
            host, port = server.address
            body = urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=5
            )
            assert body.status == 200
            assert "text/plain" in body.headers["Content-Type"]
            samples = self.parse_exposition(body.read().decode())
            assert samples["repro_server_requests"] == 7.0
            assert samples["repro_server_queue_depth"] == 3.0
            health = urllib.request.urlopen(
                f"http://{host}:{port}/healthz", timeout=5
            )
            assert health.read() == b"ok\n"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://{host}:{port}/nope", timeout=5
                )
        finally:
            server.stop()

    def test_stop_is_idempotent(self):
        server = MetricsHTTPServer(MetricsRegistry(), port=0)
        server.start()
        server.stop()
        server.stop()


class TestClientTimeout:
    """Satellite: the client raises a structured timeout, never hangs."""

    def test_recv_timeout_against_silent_server(self):
        # a socket that accepts connections but never answers
        lst = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        lst.bind(("127.0.0.1", 0))
        lst.listen(1)
        host, port = lst.getsockname()
        try:
            cli = SpatialClient(host, port, timeout=0.3)
            try:
                with pytest.raises(ClientTimeoutError) as err:
                    cli.ping()
                assert err.value.op == "recv"
                assert err.value.timeout == 0.3
                assert "timed out after 0.3s" in str(err.value)
                # a timeout is a ClientError, so callers catching the
                # transport-error base class keep working
                assert isinstance(err.value, ClientError)
            finally:
                cli.close()
        finally:
            lst.close()

    def test_connect_timeout_maps(self, monkeypatch):
        def never_connects(addr, timeout=None):
            raise TimeoutError("timed out")

        monkeypatch.setattr(
            "repro.server.client.socket.create_connection", never_connects
        )
        with pytest.raises(ClientTimeoutError) as err:
            SpatialClient("203.0.113.1", 9, timeout=0.2)
        assert err.value.op == "connect"
        assert err.value.timeout == 0.2


class TestEndToEndLive:
    """The acceptance-criteria subprocess test."""

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

    def test_traced_serving_end_to_end(self):
        proc, host, port = self._spawn(
            "--n", "20000", "--seed", "5", "--metrics-port", "0",
            "--slowlog-ms", "0.0",
        )
        try:
            mline = proc.stdout.readline()
            mm = re.search(r"metrics on http://([\d.]+):(\d+)/metrics", mline)
            assert mm, f"no metrics announce line, got {mline!r}"
            metrics_url = f"http://{mm.group(1)}:{mm.group(2)}/metrics"

            # grid is 64x64 over [0,1]^2: hammer tiles (32..33, 32..33)
            hot_window = (0.502, 0.502, 0.52, 0.52)
            with SpatialClient(host, port) as cli:
                for _ in range(40):
                    cli.window(*hot_window)
                result = cli.call(
                    "window",
                    dict(zip(("xl", "yl", "xu", "yu"), hot_window)),
                    trace="e2e-trace-1",
                )
                assert "ids" in result and "count" in result
                # trace id round-trips with per-phase timings
                assert cli.last_trace == "e2e-trace-1"
                phases = cli.last_server["phases"]
                assert set(phases) == PHASE_KEYS
                assert all(v >= 0.0 for v in phases.values())

                stats = cli.stats()
                assert stats["telemetry"] is True
                assert stats["metrics"]["server.requests"] >= 41

                heat = cli.heatmap(top=5)
                assert heat["nx"] == heat["ny"] == 64
                hot = heat["tiles"][0]
                # the hottest tile is one of the hammered window's tiles
                assert 32 <= hot["ix"] <= 33
                assert 32 <= hot["iy"] <= 33
                assert hot["scans"] > 0

                slow = cli.slowlog(limit=5)
                assert slow["threshold_ms"] == 0.0
                assert slow["total"] >= 1
                entry = slow["entries"][0]
                assert {"trace", "verb", "latency_ms", "phases"} <= set(entry)

                traces = cli.traces(limit=5)
                assert traces["total"] >= 1
                assert traces["entries"][0]["trace"]

            text = urllib.request.urlopen(metrics_url, timeout=5).read()
            samples = TestPrometheusExposition.parse_exposition(
                text.decode()
            )
            assert samples["repro_server_requests"] >= 41
            assert (
                samples['repro_server_latency_ms_window{quantile="0.5"}'] > 0
            )
        finally:
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=15)
        assert proc.returncode == 0, err

    def test_index_boot_time_recorded(self, tmp_path):
        col = make_collection(n=900, seed=21)
        path = str(tmp_path / "prebuilt.npz")
        col.save(path)
        proc, host, port = self._spawn("--index", path)
        try:
            with SpatialClient(host, port) as cli:
                metrics = cli.stats()["metrics"]
                assert metrics["server.boot.read_ms"] > 0.0
                assert metrics["server.boot.build_ms"] > 0.0
                assert (
                    metrics["server.boot.total_ms"]
                    >= metrics["server.boot.read_ms"]
                )
        finally:
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=15)
        assert proc.returncode == 0, err

    def test_telemetry_off_serves_and_refuses_admin(self):
        proc, host, port = self._spawn("--n", "1000", "--telemetry", "off")
        try:
            with SpatialClient(host, port) as cli:
                assert cli.ping()["pong"] is True
                assert cli.last_trace is None
                assert cli.stats()["telemetry"] is False
                from repro.server.client import ServerError

                with pytest.raises(ServerError):
                    cli.heatmap()
        finally:
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=15)
        assert proc.returncode == 0, err


class TestTopShardSection:
    def test_render_includes_per_shard_rows(self):
        from repro.server.admin import _render

        stats = {
            "snapshot": 3,
            "uptime_s": 12.0,
            "telemetry": True,
            "metrics": {
                "server.requests": 40.0,
                "server.errors.degraded": 2.0,
                "server.shard.epoch_mismatch": 0.0,
                "server.shard.0.requests": 25.0,
                "server.shard.0.batches": 9.0,
                "server.shard.1.requests": 15.0,
                "server.shard.1.batches": 7.0,
            },
            "shards": {
                "count": 2,
                "local_epoch": 3,
                "epochs": [3, 3],
                "dead": [1],
                "bands": [[0, 600], [600, 1024]],
                "pids": [4001, 4002],
            },
        }
        out = _render(stats, None, 5.0, "x:1", top_k=5)
        assert "shards=2" in out
        assert "local_epoch=3" in out
        assert "degraded=2" in out
        lines = out.splitlines()
        row0 = next(ln for ln in lines if ln.strip().startswith("0 "))
        row1 = next(ln for ln in lines if ln.strip().startswith("1 "))
        assert "live" in row0 and "[0,600)" in row0 and "25" in row0
        assert "DEAD" in row1 and "[600,1024)" in row1 and "4002" in row1

    def test_render_omits_section_without_shards(self):
        from repro.server.admin import _render

        out = _render(
            {"snapshot": 1, "telemetry": False, "metrics": {}},
            None,
            None,
            "x:1",
            top_k=5,
        )
        assert "shards=" not in out
