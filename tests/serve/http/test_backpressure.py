"""Backpressure regression: a slow WS reader must stay O(limit).

The failure mode this pins down: a client that submits fast but reads
slowly (or not at all) must not grow the server-side send queue past
``send_queue_limit`` frames, and must not stall any other client.  The
gateway's mechanism is deferral -- the per-client reader coroutine
parks on the bounded queue before its next socket read -- and the
counters added for it (``ws_send_queue_high_water``,
``ws_backpressure_waits``) are what make the bound assertable from the
outside.

The responses are padded (via the ``echo`` passthrough) to ~256 KiB
each so the total stream is far larger than what loopback TCP buffers
can silently absorb: with the client not reading, ``writer.drain()``
genuinely blocks, the queue genuinely fills, and the reader genuinely
defers.  The slow client's receive buffer is fixed small before it
connects: left to autotune, it can grow past the whole stream on a host
whose ``tcp_rmem`` maximum is large (32 MiB is common), and then the
gateway never has to defer at all.
"""

import asyncio

import pytest

from harness import make_server
from wsutil import WSClient, gateway_over

pytestmark = pytest.mark.serving

#: Small bound so the test fills it quickly.
LIMIT = 4

#: Submissions from the slow client; at ~256 KiB per response this is
#: ~8 MiB of results -- far past loopback socket buffering.
SLOW_SUBMITS = 32

#: The slow client's fixed receive buffer (the kernel doubles it).
SLOW_RCVBUF = 64 * 1024

PADDING = "x" * (256 * 1024)


class TestSlowReader:
    def test_send_queue_stays_bounded_and_others_unstalled(self):
        async def _t():
            async with gateway_over(
                make_server(), send_queue_limit=LIMIT
            ) as gw:
                slow = WSClient(seed=21)
                await slow.connect(gw.port, rcvbuf=SLOW_RCVBUF)
                fast = WSClient(seed=22)
                await fast.connect(gw.port)

                async def slow_writer():
                    # Push all submissions without ever reading a reply.
                    # drain() may itself block once the gateway defers
                    # reads, which is fine -- that is the point.
                    for i in range(SLOW_SUBMITS):
                        await slow.send_json({
                            "model": "resnet-loose",
                            "tag": f"slow-{i}",
                            "echo": PADDING,
                        })

                writer_task = asyncio.ensure_future(slow_writer())

                # While the slow client's results pile up, a concurrent
                # well-behaved client must see normal service.
                fast_results = []
                for i in range(8):
                    await fast.send_json(
                        {"model": "alexnet-tight", "tag": f"fast-{i}"}
                    )
                    fast_results.append(await fast.recv_json())
                assert [r["tag"] for r in fast_results] == [
                    f"fast-{i}" for i in range(8)
                ]

                # The slow client now reads everything it provoked:
                # nothing was dropped, nothing reordered across the
                # deferrals, every payload survived intact.
                slow_results = [
                    await slow.recv_json() for _ in range(SLOW_SUBMITS)
                ]
                await writer_task
                assert sorted(r["tag"] for r in slow_results) == sorted(
                    f"slow-{i}" for i in range(SLOW_SUBMITS)
                )
                assert all(r["echo"] == PADDING for r in slow_results)
                finishes = [
                    r["timing"]["finish_us"] for r in slow_results
                ]
                assert finishes == sorted(finishes)

                await slow.send_close()
                await fast.send_close()
                await slow.shutdown()
                await fast.shutdown()
                snap = gw.metrics.snapshot()

            # The regression assertions: the queue hit its bound (the
            # scenario actually exercised backpressure) yet never grew
            # past it, and the reader deferred at least once.
            assert snap["ws_send_queue_high_water"] <= LIMIT
            assert snap["ws_backpressure_waits"] > 0
            assert snap["ws_messages_streamed"] == SLOW_SUBMITS + 8
            return snap

        snap = run_with_timeout(_t())
        # Paranoia: the whole scenario must finish promptly -- a stall
        # (the other regression this guards) would have tripped the
        # timeout, not an assertion.
        assert snap["ws_connections"] == 2

    def test_queue_bound_validation(self):
        from repro.serve.http import HttpGateway

        with pytest.raises(ValueError, match="send_queue_limit"):
            HttpGateway(make_server(), send_queue_limit=0)


def run_with_timeout(coro, seconds: float = 60.0):
    """Run under a hard timeout so a backpressure stall fails loudly."""

    async def _guarded():
        return await asyncio.wait_for(coro, timeout=seconds)

    return asyncio.run(_guarded())


class TestBoundedQueueUnit:
    """Direct unit coverage of the queue the gateway leans on."""

    def test_put_parks_until_get_frees_a_slot(self):
        from repro.serve.http.gateway import _BoundedSendQueue

        from repro.serve import ServerMetrics

        async def _t():
            metrics = ServerMetrics()
            queue = _BoundedSendQueue(2, metrics)
            await queue.put(b"a")
            await queue.put(b"b")
            assert queue.full
            putter = asyncio.ensure_future(queue.put(b"c"))
            await asyncio.sleep(0)
            assert not putter.done()  # parked at the bound
            assert await queue.get() == b"a"
            await putter
            assert [await queue.get(), await queue.get()] == [b"b", b"c"]
            snap = metrics.snapshot()
            assert snap["ws_backpressure_waits"] == 1
            assert snap["ws_send_queue_high_water"] == 2

        asyncio.run(_t())

    def test_shutdown_unblocks_everyone_and_flushes(self):
        from repro.serve.http.gateway import _BoundedSendQueue

        from repro.serve import ServerMetrics

        async def _t():
            queue = _BoundedSendQueue(1, ServerMetrics())
            await queue.put(b"a")
            putter = asyncio.ensure_future(queue.put(b"dropped"))
            await asyncio.sleep(0)
            await queue.shutdown()
            await putter  # released, frame discarded post-close
            assert await queue.get() == b"a"  # pending frames still flush
            assert await queue.get() is None  # then closed
            waiter = asyncio.ensure_future(queue.wait_not_full())
            await asyncio.sleep(0)
            assert waiter.done()  # closed queue never parks a waiter
            await waiter

        asyncio.run(_t())
