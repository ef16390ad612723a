"""Serving metrics: per-backend counters and latency percentiles.

Everything here is about *simulated* time -- the microseconds the cost
model assigns to batches -- because that is the quantity the paper's
latency tables report and the SLO is defined against.  Wall-clock time of
the asyncio machinery is incidental and never recorded.

The registry aggregates:

* per-worker request/batch counts, batch occupancy (requests actually
  coalesced / batch size the plan was compiled for) and queue depth at
  dispatch;
* per-worker p50/p95 of the simulated per-request latency (queue wait +
  batch service, over a sliding window of the most recent requests so a
  long-running server's memory stays bounded) and SLO miss counts;
* scheduler policy counters: per-model admission rejections and
  deferrals, the high-water queue depth, per-request deadline misses
  (finish past arrival + SLO), and precision-autoswitch activity
  (switched batches, switch rate, mean modeled accuracy given up);
* cold-start counters: plans compiled off-loop by worker loops after
  traffic arrived (and the wall-clock stall those dispatches absorbed),
  plus plans pre-compiled by ``start(prewarm=True)`` -- the one
  deliberate exception to the simulated-time rule, because compile
  stall is a wall-clock property of the process, not of the model;
* placement telemetry: per-model arrival-rate windows (the demand
  signal replication decisions consume), replica-count gauges, per
  pipeline-stage service counters, rebalance counters, and two
  invariant guards -- ``dropped_requests`` and ``reordered_dispatches``
  -- that must stay zero through any number of placement swaps;
* fault-tolerance counters from the cluster layer
  (:mod:`repro.serve.cluster`): request retries, batch failovers,
  per-worker crash / restart tallies, and damaged plan-store lines
  recovered at load;
* plan-cache (incl. persistence) and autotune-cache hit rates, pulled
  in at report time.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..kernels.autotune import AutotuneCacheStats
from ..kernels.autotune import cache_stats as autotune_cache_stats
from .plan_cache import PlanCache

__all__ = [
    "percentile",
    "WorkerMetrics",
    "StageMetrics",
    "ServerMetrics",
    "METRICS_SCHEMA_VERSION",
]

#: Version stamped into every :meth:`ServerMetrics.snapshot` so report
#: tooling can detect shape drift instead of mis-keying silently.  The
#: unstamped pre-observability shape counts as version 1; version 2
#: added the stamp itself plus the queue high-water mark; version 3
#: added the cluster fault-tolerance counters (retries, failovers,
#: worker crashes/restarts, worker timeouts, recovered store lines);
#: version 4 added the HTTP/WebSocket gateway counters
#: (connections, requests, bad requests, 503s, WS connections/messages,
#: backpressure waits, send-queue high water); version 5 added the
#: active kernel-backend identity (``kernel_backend``,
#: ``kernel_backend_compiled``, ``kernel_backend_capabilities``);
#: version 6 removed those three again, because serving prices plans
#: and never runs a kernel; version 7 removed the worker-timeout
#: count, which only the subprocess worker (since deleted) ever set.
#: Bump on any key addition, removal, or meaning change.
METRICS_SCHEMA_VERSION = 7

#: Sliding-window length for per-request latency percentiles.
DEFAULT_LATENCY_WINDOW = 10_000

#: Arrival stamps retained per model for the rate windows.
DEFAULT_ARRIVAL_WINDOW = 4_096


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile of an unsorted sample.

    ``q`` is in [0, 100].  Returns 0.0 for an empty sample so freshly
    started servers can render a report without special-casing.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    data = list(values)
    if not data:
        return 0.0
    return float(np.percentile(data, q))


@dataclass
class WorkerMetrics:
    """Counters of one (backend, device) worker.

    Scalar counters cover the full lifetime; ``request_latencies_us``
    holds only the last ``window`` requests (percentiles are over that
    sliding window) so memory stays bounded under sustained load.
    """

    worker: str
    window: int = DEFAULT_LATENCY_WINDOW
    requests: int = 0
    batches: int = 0
    slo_misses: int = 0
    deadline_misses: int = 0
    switched_batches: int = 0
    accuracy_delta_sum: float = 0.0
    occupancy_sum: float = 0.0
    queue_depth_sum: int = 0
    service_us_sum: float = 0.0
    request_latencies_us: deque[float] = field(init=False)
    batch_sizes: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.request_latencies_us = deque(maxlen=self.window)

    @property
    def mean_occupancy(self) -> float:
        return self.occupancy_sum / self.batches if self.batches else 0.0

    @property
    def mean_queue_depth(self) -> float:
        return self.queue_depth_sum / self.batches if self.batches else 0.0

    @property
    def p50_latency_us(self) -> float:
        return percentile(self.request_latencies_us, 50)

    @property
    def p95_latency_us(self) -> float:
        return percentile(self.request_latencies_us, 95)

    @property
    def simulated_throughput_rps(self) -> float:
        """Requests over busy time -- the worker's service-rate ceiling."""
        if not self.service_us_sum:
            return 0.0
        return self.requests / (self.service_us_sum * 1e-6)


@dataclass
class StageMetrics:
    """Service counters of one pipeline stage on one worker."""

    model: str
    stage: int
    worker: str
    batches: int = 0
    requests: int = 0
    service_us_sum: float = 0.0

    @property
    def mean_service_us(self) -> float:
        return self.service_us_sum / self.batches if self.batches else 0.0


class ServerMetrics:
    """Aggregated serving counters, keyed by worker name.

    The autotune cache is process-global; call :meth:`mark_autotune_baseline`
    (the server does this on first ``start()``) so the report shows the
    delta attributable to this server's traffic rather than whole-process
    counters.  The baseline is marked once per server lifetime: a
    ``stop()``/``start()`` cycle must keep accumulating, not silently
    zero the history.
    """

    def __init__(self) -> None:
        self.workers: dict[str, WorkerMetrics] = {}
        self.rejected: dict[str, int] = {}
        self.deferred: dict[str, int] = {}
        self.max_queue_depth_seen: int = 0
        #: Plans compiled off-loop by worker loops after traffic arrived.
        self.cold_compiles: int = 0
        #: Worker-loop iterations that hit a cold key and went async.
        self.cold_dispatches: int = 0
        #: Wall-clock microseconds those dispatches waited on compilation
        #: (the event loop kept running; only the cold batch stalled).
        self.compile_stall_us: float = 0.0
        #: Plans compiled by ``start(prewarm=True)`` before traffic.
        self.prewarmed_plans: int = 0
        #: Wall-clock microseconds the prewarm pass took.
        self.prewarm_us: float = 0.0
        #: Per-model arrival stamps (simulated us), newest last -- the
        #: windowed demand signal placement decisions consume.
        self.arrivals: dict[str, deque[float]] = {}
        #: Pipeline-stage service counters, keyed (model, stage, worker).
        self.stages: dict[tuple[str, int, str], StageMetrics] = {}
        #: Placement epoch of the live assignment (0 = initial).
        self.placement_epoch: int = 0
        #: Rebalances that actually swapped the placement.
        self.rebalances: int = 0
        #: Replica slots added / removed across all rebalances.
        self.replica_adds: int = 0
        self.replica_removes: int = 0
        #: Replica-count gauge per model, refreshed at each swap.
        self.replica_counts: dict[str, int] = {}
        #: Invariant guards: both must stay zero through any number of
        #: placement swaps (CI fails the placement experiment otherwise).
        self.dropped_requests: int = 0
        self.reordered_dispatches: int = 0
        #: Fault-tolerance counters (the cluster layer): request
        #: re-dispatches after a worker failure, batches failed over to
        #: a surviving replica, per-worker crash / restart tallies, and
        #: damaged plan-store lines skipped at load.
        self.retries: int = 0
        self.failovers: int = 0
        self.worker_crashes: dict[str, int] = {}
        self.worker_restarts: dict[str, int] = {}
        self.store_recovered_lines: int = 0
        #: HTTP/WebSocket gateway counters (:mod:`repro.serve.http`):
        #: connections accepted, HTTP requests served, malformed
        #: requests answered 400, requests/connections refused 503
        #: while draining, WebSocket upgrades, results streamed over
        #: WebSockets, times a WS reader deferred because a client's
        #: bounded send queue was full, and the largest send-queue
        #: depth any client ever reached (must stay <= the configured
        #: bound -- the backpressure regression test pins this).
        self.gateway_connections: int = 0
        self.gateway_http_requests: int = 0
        self.gateway_bad_requests: int = 0
        self.gateway_unavailable: int = 0
        self.ws_connections: int = 0
        self.ws_messages_streamed: int = 0
        self.ws_backpressure_waits: int = 0
        self.ws_send_queue_high_water: int = 0
        #: Highest dispatched arrival stamp per model (reorder guard).
        self._dispatch_watermark: dict[str, float] = {}
        self._autotune_baseline: AutotuneCacheStats | None = None

    # ------------------------------------------------------------------
    # admission / queue counters (server-level, keyed by model)
    # ------------------------------------------------------------------
    def record_rejection(self, model: str) -> None:
        """One request shed by the admission policy."""
        self.rejected[model] = self.rejected.get(model, 0) + 1

    def record_deferral(self, model: str) -> None:
        """One request parked by the admission policy's defer mode."""
        self.deferred[model] = self.deferred.get(model, 0) + 1

    def record_queue_depth(self, depth: int) -> None:
        """Track the high-water mark of the admitted queue."""
        if depth > self.max_queue_depth_seen:
            self.max_queue_depth_seen = depth

    # ------------------------------------------------------------------
    # cold-start counters (server-level)
    # ------------------------------------------------------------------
    def record_cold_compile(self, plans: int, stall_us: float) -> None:
        """One worker-loop dispatch that found cold keys: ``plans`` were
        compiled off-loop while ``stall_us`` of wall time passed before
        that batch could dispatch (other queues kept being served)."""
        self.cold_compiles += plans
        self.cold_dispatches += 1
        self.compile_stall_us += stall_us

    def record_prewarm(self, plans: int, elapsed_us: float) -> None:
        """One ``start(prewarm=True)`` pass that compiled ``plans``."""
        self.prewarmed_plans += plans
        self.prewarm_us += elapsed_us

    # ------------------------------------------------------------------
    # placement telemetry (server-level)
    # ------------------------------------------------------------------
    def record_arrival(
        self, model: str, arrival_us: float,
        window: int = DEFAULT_ARRIVAL_WINDOW,
    ) -> None:
        """One request arrival (before admission -- sheds count as demand)."""
        q = self.arrivals.get(model)
        if q is None:
            q = self.arrivals[model] = deque(maxlen=window)
        q.append(arrival_us)

    def arrival_stats(
        self, model: str, now_us: float, window_us: float
    ) -> tuple[int, float]:
        """(count, rate in rps) of arrivals in ``(now - window, now]``.

        Stamps are nondecreasing for trace-driven traffic but a client
        may submit out of order; the window scan sorts defensively so
        the rate stays exact either way.
        """
        q = self.arrivals.get(model)
        if not q:
            return 0, 0.0
        stamps = sorted(q)
        lo = bisect.bisect_right(stamps, now_us - window_us)
        hi = bisect.bisect_right(stamps, now_us)
        count = hi - lo
        return count, count / (window_us * 1e-6)

    def record_stage(
        self, model: str, stage: int, worker: str,
        service_us: float, requests: int,
    ) -> None:
        """One pipeline-stage batch served on ``worker``."""
        key = (model, stage, worker)
        s = self.stages.get(key)
        if s is None:
            s = self.stages[key] = StageMetrics(
                model=model, stage=stage, worker=worker
            )
        s.batches += 1
        s.requests += requests
        s.service_us_sum += service_us

    def record_rebalance(
        self, epoch: int, adds: int, removes: int,
        replica_counts: dict[str, int],
    ) -> None:
        """One placement swap: the new epoch and its replica gauge."""
        self.placement_epoch = epoch
        self.rebalances += 1
        self.replica_adds += adds
        self.replica_removes += removes
        self.replica_counts = dict(replica_counts)

    def record_dispatch(
        self, model: str, first_arrival_us: float, last_arrival_us: float
    ) -> None:
        """One batch leaving a model queue, in pop order.

        Guards the placement invariant: dispatch order per model must
        follow arrival order even while replicas come and go.  A batch
        whose head precedes an already-dispatched arrival is a reorder
        -- unless the client submitted retroactively, which
        :meth:`note_out_of_order_submit` excuses.
        """
        watermark = self._dispatch_watermark.get(model)
        if watermark is not None and first_arrival_us < watermark:
            self.reordered_dispatches += 1
        self._dispatch_watermark[model] = max(
            watermark if watermark is not None else last_arrival_us,
            last_arrival_us,
        )

    def note_out_of_order_submit(self, model: str, arrival_us: float) -> None:
        """A client submitted an arrival stamp behind the queue tail.

        Serving that request later is the *client's* reordering, not the
        server's, so the reorder watermark rewinds to excuse it.
        """
        watermark = self._dispatch_watermark.get(model)
        if watermark is not None and arrival_us < watermark:
            self._dispatch_watermark[model] = arrival_us

    def record_dropped(self, count: int) -> None:
        """Requests left unresolved at drain -- must never happen."""
        self.dropped_requests += count

    # ------------------------------------------------------------------
    # fault tolerance (the cluster layer)
    # ------------------------------------------------------------------
    def record_failover(self, worker: str, requests: int) -> None:
        """One lost batch re-routed off ``worker``: ``requests`` of its
        in-flight requests were requeued for retry on a surviving
        replica (each counts one retry)."""
        self.failovers += 1
        self.retries += requests

    def record_worker_crash(self, worker: str) -> None:
        """One worker crashed."""
        self.worker_crashes[worker] = self.worker_crashes.get(worker, 0) + 1

    def record_worker_restart(self, worker: str) -> None:
        """One crashed worker restarted."""
        self.worker_restarts[worker] = (
            self.worker_restarts.get(worker, 0) + 1
        )

    def record_store_recovery(self, lines: int) -> None:
        """Damaged plan-store lines skipped (and survived) at load."""
        self.store_recovered_lines += lines

    # ------------------------------------------------------------------
    # HTTP/WebSocket gateway (repro.serve.http)
    # ------------------------------------------------------------------
    def record_gateway_connection(self) -> None:
        """One TCP connection accepted by the gateway."""
        self.gateway_connections += 1

    def record_gateway_request(self) -> None:
        """One HTTP request parsed and routed (any status)."""
        self.gateway_http_requests += 1

    def record_gateway_bad_request(self) -> None:
        """One malformed request answered 400 (connection survived
        or was closed cleanly -- never a gateway crash)."""
        self.gateway_bad_requests += 1

    def record_gateway_unavailable(self) -> None:
        """One request or connection refused 503 while draining."""
        self.gateway_unavailable += 1

    def record_ws_connection(self) -> None:
        """One successful WebSocket upgrade on ``/v1/stream``."""
        self.ws_connections += 1

    def record_ws_streamed(self) -> None:
        """One result message streamed to a WebSocket client."""
        self.ws_messages_streamed += 1

    def record_ws_backpressure_wait(self) -> None:
        """One deferral: a client's send queue was at its bound, so
        the gateway stopped reading that client until it drained."""
        self.ws_backpressure_waits += 1

    def record_ws_send_queue_depth(self, depth: int) -> None:
        """Track the high-water mark of any client's send queue."""
        if depth > self.ws_send_queue_high_water:
            self.ws_send_queue_high_water = depth

    @property
    def total_worker_crashes(self) -> int:
        return sum(self.worker_crashes.values())

    @property
    def total_worker_restarts(self) -> int:
        return sum(self.worker_restarts.values())

    @property
    def total_rejected(self) -> int:
        return sum(self.rejected.values())

    @property
    def total_deferred(self) -> int:
        return sum(self.deferred.values())

    @property
    def total_stage_batches(self) -> int:
        return sum(s.batches for s in self.stages.values())

    def snapshot(self) -> dict[str, float]:
        """Scalar lifetime counters, for delta assertions across restarts.

        Includes the admission policy's rejection/deferral totals and a
        ``schema`` stamp (:data:`METRICS_SCHEMA_VERSION`) so downstream
        report tooling can detect shape drift before keying into it.
        """
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "requests": self.total_requests,
            "batches": self.total_batches,
            "rejected": self.total_rejected,
            "deferred": self.total_deferred,
            "max_queue_depth": self.max_queue_depth_seen,
            "deadline_misses": self.total_deadline_misses,
            "switched_batches": self.total_switched_batches,
            "cold_compiles": self.cold_compiles,
            "cold_dispatches": self.cold_dispatches,
            "prewarmed_plans": self.prewarmed_plans,
            "rebalances": self.rebalances,
            "replica_adds": self.replica_adds,
            "replica_removes": self.replica_removes,
            "stage_batches": self.total_stage_batches,
            "dropped_requests": self.dropped_requests,
            "reordered_dispatches": self.reordered_dispatches,
            "retries": self.retries,
            "failovers": self.failovers,
            "worker_crashes": self.total_worker_crashes,
            "worker_restarts": self.total_worker_restarts,
            "store_recovered_lines": self.store_recovered_lines,
            "gateway_connections": self.gateway_connections,
            "gateway_http_requests": self.gateway_http_requests,
            "gateway_bad_requests": self.gateway_bad_requests,
            "gateway_unavailable": self.gateway_unavailable,
            "ws_connections": self.ws_connections,
            "ws_messages_streamed": self.ws_messages_streamed,
            "ws_backpressure_waits": self.ws_backpressure_waits,
            "ws_send_queue_high_water": self.ws_send_queue_high_water,
            "autotune_hits": self.autotune_stats().hits,
        }

    @property
    def has_autotune_baseline(self) -> bool:
        return self._autotune_baseline is not None

    def mark_autotune_baseline(self) -> None:
        """Snapshot the global autotune counters as this server's zero."""
        self._autotune_baseline = autotune_cache_stats()

    def autotune_stats(self) -> AutotuneCacheStats:
        """Autotune counters since the baseline (global if never marked)."""
        now = autotune_cache_stats()
        base = self._autotune_baseline
        if base is None:
            return now
        return AutotuneCacheStats(
            hits=max(0, now.hits - base.hits),
            misses=max(0, now.misses - base.misses),
            entries=now.entries,
        )

    def worker(self, name: str) -> WorkerMetrics:
        if name not in self.workers:
            self.workers[name] = WorkerMetrics(worker=name)
        return self.workers[name]

    def record_batch(
        self,
        worker: str,
        *,
        batch_size: int,
        requests: int,
        queue_depth: int,
        service_us: float,
        request_latencies_us: list[float],
        meets_slo: bool,
        deadline_misses: int = 0,
        switched: bool = False,
        accuracy_delta: float = 0.0,
    ) -> None:
        w = self.worker(worker)
        w.batches += 1
        w.requests += requests
        w.batch_sizes[batch_size] = w.batch_sizes.get(batch_size, 0) + 1
        w.occupancy_sum += requests / batch_size
        w.queue_depth_sum += queue_depth
        w.service_us_sum += service_us
        w.request_latencies_us.extend(request_latencies_us)
        if not meets_slo:
            w.slo_misses += 1
        w.deadline_misses += deadline_misses
        if switched:
            w.switched_batches += 1
            w.accuracy_delta_sum += accuracy_delta

    # ------------------------------------------------------------------
    @property
    def total_requests(self) -> int:
        return sum(w.requests for w in self.workers.values())

    @property
    def total_batches(self) -> int:
        return sum(w.batches for w in self.workers.values())

    @property
    def total_deadline_misses(self) -> int:
        return sum(w.deadline_misses for w in self.workers.values())

    @property
    def total_switched_batches(self) -> int:
        return sum(w.switched_batches for w in self.workers.values())

    @property
    def switch_rate(self) -> float:
        """Fraction of dispatched batches served at a downgraded pair."""
        batches = self.total_batches
        return self.total_switched_batches / batches if batches else 0.0

    @property
    def mean_accuracy_delta(self) -> float:
        """Mean modeled accuracy given up per *switched* batch."""
        switched = self.total_switched_batches
        if not switched:
            return 0.0
        total = sum(w.accuracy_delta_sum for w in self.workers.values())
        return total / switched

    def batch_size_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for w in self.workers.values():
            for b, n in w.batch_sizes.items():
                hist[b] = hist.get(b, 0) + n
        return dict(sorted(hist.items()))

    def report(self, plan_cache: PlanCache | None = None) -> str:
        """Human-readable metrics summary (simulated milliseconds)."""
        lines = [
            f"requests served : {self.total_requests}",
            f"batches         : {self.total_batches}",
            f"batch sizes     : "
            + (", ".join(
                f"{b}x{n}" for b, n in self.batch_size_histogram().items()
            ) or "-"),
        ]
        lines.append(
            f"admission       : rejected {self.total_rejected}, "
            f"deferred {self.total_deferred}, "
            f"max queue depth {self.max_queue_depth_seen}"
        )
        lines.append(
            f"autoswitch      : {self.total_switched_batches}/"
            f"{self.total_batches} batches switched "
            f"(rate {self.switch_rate:.3f}), "
            f"mean accuracy delta {self.mean_accuracy_delta:.4f}"
        )
        lines.append(f"deadline misses : {self.total_deadline_misses}")
        lines.append(
            f"placement       : epoch {self.placement_epoch}, "
            f"{self.rebalances} rebalances "
            f"(+{self.replica_adds}/-{self.replica_removes} replicas), "
            f"dropped {self.dropped_requests}, "
            f"reordered {self.reordered_dispatches}"
        )
        if self.replica_counts:
            gauge = ", ".join(
                f"{m}x{n}" for m, n in sorted(self.replica_counts.items())
            )
            lines.append(f"replicas        : {gauge}")
        lines.append(
            f"fault tolerance : {self.total_worker_crashes} crashes, "
            f"{self.total_worker_restarts} restarts, "
            f"{self.failovers} failovers, {self.retries} retries, "
            f"{self.store_recovered_lines} recovered store lines"
        )
        if self.gateway_connections or self.ws_connections:
            lines.append(
                f"gateway         : {self.gateway_connections} conns, "
                f"{self.gateway_http_requests} http reqs "
                f"({self.gateway_bad_requests} bad, "
                f"{self.gateway_unavailable} unavailable), "
                f"{self.ws_connections} ws conns, "
                f"{self.ws_messages_streamed} streamed, "
                f"{self.ws_backpressure_waits} backpressure waits "
                f"(send-queue high water "
                f"{self.ws_send_queue_high_water})"
            )
        for key in sorted(self.stages):
            s = self.stages[key]
            lines.append(
                f"  stage {s.model}[{s.stage}]@{s.worker}: "
                f"{s.requests} reqs / {s.batches} batches, "
                f"mean {s.mean_service_us / 1e3:.3f} ms"
            )
        lines.append(
            f"cold start      : {self.cold_compiles} off-loop compiles over "
            f"{self.cold_dispatches} cold dispatches "
            f"({self.compile_stall_us / 1e3:.1f} ms wall), "
            f"{self.prewarmed_plans} prewarmed plans "
            f"({self.prewarm_us / 1e3:.1f} ms wall)"
        )
        for name in sorted(self.workers):
            w = self.workers[name]
            lines.append(
                f"  {name}: {w.requests} reqs / {w.batches} batches, "
                f"p50 {w.p50_latency_us / 1e3:.3f} ms, "
                f"p95 {w.p95_latency_us / 1e3:.3f} ms, "
                f"occupancy {w.mean_occupancy:.2f}, "
                f"mean queue {w.mean_queue_depth:.1f}, "
                f"slo-miss batches {w.slo_misses}"
            )
        if plan_cache is not None:
            s = plan_cache.stats()
            lines.append(
                f"plan cache      : hit rate {s.hit_rate:.3f} "
                f"({s.hits}/{s.lookups} lookups, {s.entries} plans, "
                f"{s.evictions} evictions)"
            )
            lines.append(
                f"plan compiles   : {s.compiles} "
                f"({s.inloop_compiles} in-loop, "
                f"{s.offloaded_compiles} off-loop, "
                f"{s.coalesced} coalesced waits, "
                f"{s.compile_us / 1e3:.1f} ms wall); "
                f"persisted {s.persisted_entries} loaded / "
                f"{s.persisted_hits} hits"
            )
        a = self.autotune_stats()
        since = " since start" if self._autotune_baseline is not None else ""
        lines.append(
            f"autotune cache  : hit rate {a.hit_rate:.3f} "
            f"({a.hits}/{a.lookups} lookups{since}, {a.entries} entries)"
        )
        return "\n".join(lines)
