"""The unified drain contract (``begin_drain`` / ``draining``).

Regression for the asymmetry the HTTP gateway exposed: the server had
internal stop logic but no *external* drain hook, and the coordinator
had none at all -- so a front end could not refuse new work while
letting in-flight requests finish.  A cluster is an ``InferenceServer``,
so one contract holds on both deployments, and every test here runs on
each:

* ``begin_drain()`` flips ``draining`` and makes every subsequent
  ``submit`` raise :class:`~repro.serve.ServerDraining` -- loudly, not
  by hanging or by silently dropping;
* work submitted *before* the drain runs to completion with normal
  results;
* ``draining`` also reports True for a stopped backend (a front end
  needs one predicate for "do not accept work");
* a later ``start()`` clears the state -- drain is a phase, not a
  one-way door.

Everything runs on the simulated clock (``time_scale=0``): the tests
interleave with the workers via plain event-loop yields, never wall
sleeps.
"""

import asyncio

import pytest

from harness import make_fault_cluster, make_server
from repro.serve import ServerDraining

pytestmark = pytest.mark.serving


async def yield_loop(times: int = 10) -> None:
    """Give queued submissions a few event-loop turns to be admitted."""
    for _ in range(times):
        await asyncio.sleep(0)


#: Both deployments honour one contract: (factory, model to submit).
BACKENDS = {
    "server": (make_server, "resnet-loose"),
    "cluster": (lambda: make_fault_cluster(num_workers=2), "hot-0"),
}


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    make, model = BACKENDS[request.param]
    return make(), model


class TestDrain:
    def test_submit_after_drain_raises_inflight_completes(self, backend):
        server, model = backend

        async def _t():
            await server.start()
            assert not server.draining
            inflight = [
                asyncio.ensure_future(server.submit(model))
                for _ in range(4)
            ]
            await yield_loop()  # all four admitted onto the queue
            server.begin_drain()
            assert server.draining
            with pytest.raises(ServerDraining, match="draining"):
                await server.submit(model)
            results = await asyncio.gather(*inflight)
            assert all(r.model == model for r in results)
            assert len({r.request_id for r in results}) == 4  # exactly-once
            assert all(r.finish_us >= r.arrival_us for r in results)
            await server.stop()

        asyncio.run(_t())

    def test_unknown_model_still_beats_draining(self, backend):
        # The 404-shaped error must not be masked by the 503-shaped one.
        server, _ = backend

        async def _t():
            await server.start()
            server.begin_drain()
            with pytest.raises(KeyError, match="unknown model"):
                await server.submit("nope")
            await server.stop()

        asyncio.run(_t())

    def test_stopped_server_reports_draining(self, backend):
        server, _ = backend

        async def _t():
            assert server.draining  # never started = not accepting
            await server.start()
            assert not server.draining
            await server.stop()
            assert server.draining

        asyncio.run(_t())

    def test_restart_clears_drain(self, backend):
        server, model = backend

        async def _t():
            await server.start()
            server.begin_drain()
            await server.stop()
            await server.start()
            assert not server.draining
            result = await server.submit(model)
            assert result.model == model
            await server.stop()

        asyncio.run(_t())
