"""Sharded serving end-to-end: subprocess router + workers vs a twin.

Spawns ``python -m repro --serve --shards 2`` next to an identical
single-process server and checks scatter-gather parity on every verb,
replicated writes (uniform epoch vector), wire-trace propagation across
the router->worker hop, dead-worker degradation, SIGTERM drain, and —
the part that leaks in real deployments — that no ``/dev/shm`` segment
survives either a clean drain or a SIGKILL'd router.
"""

import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.server.client import ServerError, SpatialClient

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory"
)


def _shm_entries():
    return {e for e in os.listdir("/dev/shm") if e.startswith("psm_")}


def _spawn(*extra, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    if env_extra:
        env.update(env_extra)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "--serve",
            "127.0.0.1:0",
            "--n",
            "8000",
            "--seed",
            "11",
            "--partitions",
            "32",
            *extra,
        ],
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


def _reap(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=10)
    proc.stdout.close()
    proc.stderr.close()


class TestShardedEndToEnd:
    def test_two_shard_router_full_lifecycle(self):
        shm_before = _shm_entries()
        single, h1, p1 = _spawn()
        sharded, h2, p2 = _spawn("--shards", "2")
        try:
            with SpatialClient(h1, p1) as c1, SpatialClient(h2, p2) as c2:
                self._check_parity(c1, c2, trials=25)
                self._check_writes(c1, c2)
                self._check_trace_hop(c2)
                self._check_hostile_inputs((h1, p1), (h2, p2))
                self._check_dead_worker(c1, c2)
            sharded.send_signal(signal.SIGTERM)
            single.send_signal(signal.SIGTERM)
            assert sharded.wait(timeout=15) == 0, sharded.stderr.read()
            assert single.wait(timeout=15) == 0
        finally:
            _reap(sharded)
            _reap(single)
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and _shm_entries() - shm_before:
            time.sleep(0.1)
        assert not _shm_entries() - shm_before, "leaked shm after drain"

    def _check_parity(self, c1, c2, trials):
        rng = np.random.default_rng(3)
        for i in range(trials):
            xs = sorted(rng.uniform(0, 0.05, 2) + rng.uniform(0, 0.9))
            ys = sorted(rng.uniform(0, 0.05, 2) + rng.uniform(0, 0.9))
            w = (xs[0], ys[0], xs[1], ys[1])
            assert sorted(c1.window(*w)) == sorted(c2.window(*w)), i
            assert sorted(
                c1.window(*w, predicate="within")
            ) == sorted(c2.window(*w, predicate="within")), i
            assert c1.count(*w) == c2.count(*w), i
            cx, cy = rng.uniform(0, 1), rng.uniform(0, 1)
            r = rng.uniform(0.005, 0.08)
            assert sorted(c1.disk(cx, cy, r)) == sorted(c2.disk(cx, cy, r))
            assert c1.knn(cx, cy, 8) == c2.knn(cx, cy, 8), i

    def _check_writes(self, c1, c2):
        nid1 = c1.insert(0.5, 0.5, 0.5005, 0.5005)
        nid2 = c2.insert(0.5, 0.5, 0.5005, 0.5005)
        assert nid1 == nid2
        assert nid2 in c2.window(0.4999, 0.4999, 0.5006, 0.5006)
        assert c2.delete(nid2) is True
        assert nid2 not in c2.window(0.4999, 0.4999, 0.5006, 0.5006)
        c1.delete(nid1)
        sh = c2.stats()["shards"]
        assert sh["count"] == 2
        assert sh["dead"] == []
        # deterministic replication: every worker sits at the router's
        # version with no cross-process coordination
        assert sh["epochs"] == [sh["local_epoch"]] * 2 == [2, 2]
        rng = np.random.default_rng(4)
        for _ in range(10):
            xs = sorted(rng.uniform(0, 1, 2))
            ys = sorted(rng.uniform(0, 1, 2))
            w = (xs[0], ys[0], xs[1], ys[1])
            assert sorted(c1.window(*w)) == sorted(c2.window(*w))

    def _check_trace_hop(self, c2):
        c2.call(
            "window",
            {"xl": 0.1, "yl": 0.1, "xu": 0.6, "yu": 0.6},
            trace="e2e-trace-1",
        )
        assert c2.last_trace == "e2e-trace-1"
        phases = c2.last_server["phases"]
        assert "shard" in phases and "scatter_ms" in phases
        hits = [
            t
            for t in c2.traces(limit=10)["entries"]
            if t.get("trace") == "e2e-trace-1"
        ]
        assert hits and hits[0].get("shards"), hits

    def _check_hostile_inputs(self, *addrs):
        # Regression: a non-finite knn point crashed the router's routing
        # step, leaving the whole batch unanswered (client timeout).
        t0 = time.monotonic()
        clients = [SpatialClient(h, p, timeout=5.0) for h, p in addrs]
        try:
            for cli in clients:
                for cx in (float("nan"), float("inf"), -float("inf")):
                    with pytest.raises(ServerError) as exc:
                        cli.knn(cx, 0.5, 3)
                    assert exc.value.code == "invalid_query", exc.value
            # A tile lookup overflowing on a huge finite window fails the
            # router's scatter task, which must still answer, not hang.
            for cli in clients:
                try:
                    cli.window(0.0, 0.0, 1e308, 1e308)
                except ServerError as exc:
                    assert exc.code == "internal", exc
            assert time.monotonic() - t0 < 5.0
            # a finite point far outside the domain still has k answers
            answers = [cli.knn(5.0, 0.5, 10) for cli in clients]
        finally:
            for cli in clients:
                cli.close()
        assert len(answers[0]) == 10 and answers[0] == answers[1]

    def _check_dead_worker(self, c1, c2):
        pids = c2.stats()["shards"]["pids"]
        os.kill(pids[0], signal.SIGKILL)
        time.sleep(0.3)
        rng = np.random.default_rng(5)
        t0 = time.monotonic()
        degraded = False
        for _ in range(50):
            xs = sorted(rng.uniform(0, 1, 2))
            ys = sorted(rng.uniform(0, 1, 2))
            try:
                c2.window(xs[0], ys[0], xs[1], ys[1])
            except ServerError as exc:
                assert exc.code == "degraded", exc
                # the link's cause of death is quoted, not swallowed
                assert "connection closed" in str(exc), exc
                degraded = True
                break
        assert degraded, "killed worker never produced a degraded error"
        assert time.monotonic() - t0 < 10, "degradation took too long"
        assert c2.stats()["shards"]["dead"] == [0]
        # knn reroutes to the surviving worker and stays correct
        assert c2.knn(0.5, 0.5, 5) == c1.knn(0.5, 0.5, 5)

    def test_large_result_does_not_kill_workers(self):
        """Regression: a ``batch_r`` line over asyncio's default 64 KiB
        stream limit raised in the router's read loop, was swallowed,
        and left the worker marked dead for good."""
        single, h1, p1 = _spawn("--n", "30000")
        sharded, h2, p2 = _spawn("--n", "30000", "--shards", "2")
        try:
            with SpatialClient(h1, p1) as c1, SpatialClient(h2, p2) as c2:
                whole = (0.0, 0.0, 1.0, 1.0)
                got = c2.window(*whole)  # ~100 KiB of ids per shard frame
                assert len(got) >= 20000
                assert sorted(got) == sorted(c1.window(*whole))
                shards = c2.stats()["shards"]
                assert shards["dead"] == [] and shards["count"] == 2
                assert c2.count(*whole) == len(got)  # and still serving
        finally:
            _reap(sharded)
            _reap(single)

    def test_sanitizer_on_sharded_path(self):
        shm_before = _shm_entries()
        proc, host, port = _spawn(
            "--shards",
            "2",
            env_extra={"REPRO_SANITIZE": "1", "REPRO_SANITIZE_SAMPLE": "1"},
        )
        try:
            rng = np.random.default_rng(9)
            with SpatialClient(host, port) as cli:
                for _ in range(15):
                    xs = sorted(rng.uniform(0, 1, 2))
                    ys = sorted(rng.uniform(0, 1, 2))
                    cli.window(xs[0], ys[0], xs[1], ys[1])
                    cli.disk(
                        rng.uniform(0, 1),
                        rng.uniform(0, 1),
                        rng.uniform(0.01, 0.1),
                    )
                cli.insert(0.4, 0.4, 0.401, 0.401)
                for _ in range(5):
                    xs = sorted(rng.uniform(0, 1, 2))
                    ys = sorted(rng.uniform(0, 1, 2))
                    cli.window(
                        xs[0], ys[0], xs[1], ys[1], predicate="within"
                    )
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0, proc.stderr.read()
        finally:
            _reap(proc)
        assert not _shm_entries() - shm_before

    def test_router_sigkill_leaves_no_shm(self):
        # hard-crash path: the router never runs its unlink, so cleanup
        # falls to CPython's resource_tracker sidecar
        shm_before = _shm_entries()
        proc, host, port = _spawn("--shards", "2")
        try:
            with SpatialClient(host, port) as cli:
                pids = cli.stats()["shards"]["pids"]
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if not _shm_entries() - shm_before and not any(
                    _alive(pid) for pid in pids
                ):
                    break
                time.sleep(0.2)
            assert not _shm_entries() - shm_before, "router crash leaked shm"
            # orphaned workers notice the dead TCP link and exit
            assert not any(_alive(pid) for pid in pids), "orphaned workers"
        finally:
            _reap(proc)


class TestFileArenaServing:
    def test_shards_map_the_index_file_instead_of_shm(self, tmp_path):
        """Booting ``--serve --index <columnar> --shards K`` publishes the
        base as a file arena: workers mmap the archive itself, so no
        ``/dev/shm`` segment exists while the pristine base serves."""
        from repro.core import TwoLayerGrid
        from repro.core.persistence import save_collection
        from repro.datasets import generate_uniform_rects

        data = generate_uniform_rects(8000, area=1e-4, seed=11)
        index = TwoLayerGrid.build(data, partitions_per_dim=32)
        archive = str(tmp_path / "served.idx")
        save_collection(index, data, archive)

        shm_before = _shm_entries()
        sharded, h2, p2 = _spawn("--index", archive, "--shards", "2")
        single, h1, p1 = _spawn("--index", archive)
        try:
            with SpatialClient(h1, p1) as c1, SpatialClient(h2, p2) as c2:
                rng = np.random.default_rng(7)
                for _ in range(15):
                    xs = sorted(rng.uniform(0, 1, 2))
                    ys = sorted(rng.uniform(0, 1, 2))
                    w = (xs[0], ys[0], xs[1], ys[1])
                    assert sorted(c1.window(*w)) == sorted(c2.window(*w))
                    assert c1.count(*w) == c2.count(*w)
                    cx, cy = rng.uniform(0, 1), rng.uniform(0, 1)
                    r = rng.uniform(0.01, 0.1)
                    assert sorted(c1.disk(cx, cy, r)) == sorted(
                        c2.disk(cx, cy, r)
                    )
                # the read-only base needs no shm segment at all
                assert not _shm_entries() - shm_before, (
                    "file-arena boot created an shm segment"
                )
                assert c2.stats()["shards"]["count"] == 2
                # writes still work on top of the mapped base
                nid = c2.insert(0.5, 0.5, 0.5005, 0.5005)
                assert nid == len(data)
                assert nid in c2.window(0.4999, 0.4999, 0.5006, 0.5006)
            sharded.send_signal(signal.SIGTERM)
            single.send_signal(signal.SIGTERM)
            assert sharded.wait(timeout=15) == 0, sharded.stderr.read()
            assert single.wait(timeout=15) == 0
        finally:
            _reap(sharded)
            _reap(single)
        assert not _shm_entries() - shm_before, "leaked shm after drain"
        assert os.path.exists(archive), "serving must not consume the file"


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
