"""Real-subprocess fault tolerance: the sim invariants survive kill -9.

The sim suite (``test_cluster_sim.py``) is the exhaustive source of
truth for the failure-handling invariants; this suite re-asserts the
same guarantees against *real* worker processes -- actual fork/exec,
actual pipes, an actual SIGKILL landing mid-batch -- so the framing
layer, the crash detector and the failover path are proven against the
operating system, not just the simulator.

Everything here is ``slow``-marked: spawning interpreters and waiting
out heartbeats costs real seconds.
"""

import asyncio
import os
import signal

import pytest

from repro.serve import ClusterPolicy, poisson_trace

from harness import cluster_specs, make_fault_cluster, run_cluster_trace

pytestmark = [pytest.mark.serving, pytest.mark.integration, pytest.mark.slow]

#: Two models keep the per-worker engine rebuild (and so the spawn
#: handshake) cheap while still exercising cross-model routing.
MODELS = {k: v for k, v in list(cluster_specs().items())[:2]}
TRACE = poisson_trace(
    models=list(MODELS), num_requests=12, rate_rps=120_000, seed=5
)
N = len(TRACE)


def _sim_payloads():
    run = run_cluster_trace(make_fault_cluster(MODELS, num_workers=2), TRACE)
    run.assert_invariants(N)
    return run.payloads()


async def _submit_all(cluster):
    return [
        asyncio.ensure_future(cluster.submit(e.model, arrival_us=e.t_us))
        for e in sorted(TRACE, key=lambda e: e.t_us)
    ]


async def _wait_for_inflight(cluster, worker, timeout_s=30.0):
    """Poll until ``worker`` has a batch call pending on its pipe."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    st = cluster._workers[worker]
    while loop.time() < deadline:
        if st.transport is not None and st.transport._pending:
            return
        await asyncio.sleep(0.01)  # repro: allow-wall-clock -- polling a real subprocess
    raise AssertionError(f"{worker} never took a batch in flight")


class TestProcessRoundTrip:
    def test_process_mode_matches_sim_byte_for_byte(self, tmp_path):
        """Fault-free: real workers price over the shared store and
        return exactly the bytes the simulated cluster computes."""
        cluster = make_fault_cluster(
            MODELS, num_workers=2, mode="process",
            cache_dir=tmp_path / "plans",
        )

        async def run():
            await cluster.start()
            loaded = [
                st.transport.ready.get("plans_loaded", 0)
                for st in cluster._workers.values()
            ]
            futures = await _submit_all(cluster)
            results = await asyncio.gather(*futures)
            await cluster.stop()
            return results, loaded

        results, loaded = asyncio.run(run())
        assert sorted(r.payload for r in results) == _sim_payloads()
        assert len({r.request_id for r in results}) == N
        m = cluster.metrics
        assert m.dropped_requests == 0
        assert m.reordered_dispatches == 0
        assert m.total_worker_crashes == 0
        # Workers started warm from the coordinator-prewarmed store:
        # every (model, candidate batch) plan was already persisted.
        expected = len(MODELS) * len(cluster.candidate_batches)
        assert all(n == expected for n in loaded), (loaded, expected)


class TestKillMidBatch:
    def test_sigkill_mid_batch_fails_over_byte_identically(self, tmp_path):
        """The acceptance scenario: wedge worker-0, SIGKILL it with a
        batch in flight, and require every request to complete exactly
        once on the survivor with byte-identical results."""
        cluster = make_fault_cluster(
            MODELS, num_workers=2, mode="process",
            cache_dir=tmp_path / "plans",
        )

        async def run():
            await cluster.start()
            await cluster.set_slow("worker-0", 30.0)
            futures = await _submit_all(cluster)
            await _wait_for_inflight(cluster, "worker-0")
            pid = cluster.worker_pids()["worker-0"]
            os.kill(pid, signal.SIGKILL)
            results = await asyncio.gather(*futures)
            await cluster.stop()
            return results

        results = asyncio.run(run())
        assert sorted(r.payload for r in results) == _sim_payloads()
        assert len({r.request_id for r in results}) == N
        assert any(r.attempts > 1 for r in results)
        m = cluster.metrics
        assert m.total_worker_crashes == 1
        assert m.worker_crashes == {"worker-0": 1}
        assert m.failovers >= 1
        assert m.retries >= 1
        assert m.dropped_requests == 0
        assert m.reordered_dispatches == 0

    def test_killed_worker_restarts_with_fresh_pid(self, tmp_path):
        cluster = make_fault_cluster(
            MODELS, num_workers=2, mode="process",
            cache_dir=tmp_path / "plans",
        )

        async def run():
            await cluster.start()
            first = cluster.worker_pids()["worker-0"]
            await cluster.set_slow("worker-0", 30.0)
            futures = await _submit_all(cluster)
            await _wait_for_inflight(cluster, "worker-0")
            cluster.kill_worker("worker-0")
            await asyncio.gather(*futures)
            # The restart task runs concurrently with completion; give
            # it a bounded moment to finish the respawn handshake.
            deadline = asyncio.get_running_loop().time() + 30.0
            while asyncio.get_running_loop().time() < deadline:
                pids = cluster.worker_pids()
                if pids.get("worker-0", first) != first:
                    break
                await asyncio.sleep(0.05)  # repro: allow-wall-clock -- waiting out a real respawn
            second = cluster.worker_pids().get("worker-0")
            await cluster.stop()
            return first, second

        first, second = asyncio.run(run())
        assert second is not None and second != first
        assert cluster.metrics.total_worker_restarts == 1


class TestHeartbeat:
    def test_wedged_worker_is_declared_dead_by_heartbeat(self, tmp_path):
        """A worker that stops answering (wedged, not exited) is killed
        by the heartbeat monitor and its work fails over."""
        cluster = make_fault_cluster(
            MODELS, num_workers=2, mode="process",
            cache_dir=tmp_path / "plans",
            policy=ClusterPolicy(
                heartbeat_interval_s=0.05,
                heartbeat_timeout_s=0.5,
                max_restarts=0,
            ),
        )

        async def run():
            await cluster.start()
            await cluster.set_slow("worker-0", 60.0)
            futures = await _submit_all(cluster)
            results = await asyncio.gather(*futures)
            await cluster.stop()
            return results

        results = asyncio.run(run())
        assert sorted(r.payload for r in results) == _sim_payloads()
        m = cluster.metrics
        assert m.total_heartbeat_timeouts >= 1
        assert m.total_worker_crashes >= 1
        assert m.dropped_requests == 0
        assert m.reordered_dispatches == 0


class TestGracefulDrain:
    def test_stop_completes_all_in_flight(self, tmp_path):
        """stop() issued immediately after submission drains every
        request -- graceful shutdown never sheds accepted work."""
        cluster = make_fault_cluster(
            MODELS, num_workers=2, mode="process",
            cache_dir=tmp_path / "plans",
        )

        async def run():
            await cluster.start()
            futures = await _submit_all(cluster)
            # Let every submit coroutine actually enqueue (stop() stops
            # accepting immediately), then drain mid-batch.
            while cluster.metrics.total_requests < N:
                await asyncio.sleep(0)
            await cluster.stop()
            return await asyncio.gather(*futures)

        results = asyncio.run(run())
        assert sorted(r.payload for r in results) == _sim_payloads()
        assert cluster.metrics.dropped_requests == 0
        assert cluster.queue_depth == 0
