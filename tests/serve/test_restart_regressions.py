"""Regressions around the process-mode respawn path.

Found by ``repro.analysis``: when respawning a crashed subprocess
worker failed, the dead worker's old transport was never closed
(leaking the crashed subprocess and its reader/heartbeat tasks) and
the spawn error itself vanished.  These tests drive the failure path
directly on the worker executor -- ``respawn`` of a process-mode
cluster's worker with a monkeypatched ``_spawn`` -- on a cluster that
is never started, so no real subprocess is needed.
"""

import asyncio

import pytest

from harness import RecordingTracer, make_fault_cluster

pytestmark = pytest.mark.serving


class FakeTransport:
    """Stands in for a dead worker's _WorkerProcess."""

    def __init__(self):
        self.closed = 0

    async def close(self):
        self.closed += 1


def _failing_spawn(exc):
    async def spawn():
        raise exc

    return spawn


def _worker(cluster, spawn_error):
    """worker-0 of an unstarted cluster, its respawn doomed to fail."""
    cluster._cond = asyncio.Condition()
    worker = cluster._workers["worker-0"]
    worker._spawn = _failing_spawn(spawn_error)
    return worker


class TestFailedRespawn:
    def test_old_transport_closed_when_spawn_fails(self):
        cluster = make_fault_cluster(num_workers=2, mode="process")
        old = FakeTransport()

        async def run():
            worker = _worker(cluster, OSError("spawn refused"))
            worker.transport = old
            await worker.respawn(worker.generation)

        asyncio.run(run())
        assert old.closed == 1

    def test_spawn_failure_surfaces_as_failover_event(self):
        tracer = RecordingTracer()
        cluster = make_fault_cluster(
            num_workers=2, mode="process", tracer=tracer
        )

        async def run():
            worker = _worker(cluster, OSError("spawn refused"))
            worker.transport = FakeTransport()
            await worker.respawn(worker.generation)

        asyncio.run(run())
        events = [
            s for s in tracer.events_in("failover")
            if s.name == "restart-failed:worker-0"
        ]
        assert len(events) == 1
        assert "OSError" in events[0].attributes["error"]
        assert "spawn refused" in events[0].attributes["error"]

    def test_spawn_failure_with_no_old_transport_is_quiet(self):
        # A worker that never spawned has no transport; the failure path
        # must not trip over the None.
        cluster = make_fault_cluster(num_workers=2, mode="process")

        async def run():
            worker = _worker(cluster, RuntimeError("boom"))
            assert worker.transport is None
            await worker.respawn(worker.generation)

        asyncio.run(run())

    def test_worker_stays_dead_but_waiters_are_notified(self):
        cluster = make_fault_cluster(num_workers=2, mode="process")

        async def run():
            worker = _worker(cluster, OSError("spawn refused"))
            worker.alive = False
            worker.transport = FakeTransport()

            notified = asyncio.Event()

            async def waiter():
                async with cluster._cond:
                    await cluster._cond.wait()
                    notified.set()

            task = asyncio.create_task(waiter())
            await asyncio.sleep(0)  # let the waiter take the condition
            await worker.respawn(worker.generation)
            await asyncio.wait_for(notified.wait(), timeout=1)
            await task
            return worker.alive

        assert asyncio.run(run()) is False
