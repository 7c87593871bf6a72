"""The transactional ledger server: batching engine + admission + SLOs.

:class:`LedgerService` is a long-running server over the simulated GPU: it
owns one device, one STM runtime (any registered variant) and one sharded
balance array, accepts a stream of account-transfer transactions from an
arrival source, and executes them in batched kernel launches.  Time is the
*simulated* cycle clock: client arrivals, queueing delay, batch deadlines
and kernel execution all advance the same axis, so a run's throughput and
latency percentiles are exact, deterministic functions of (seed, variant,
load) — re-running a sweep reproduces its summary artifact byte for byte.

The serving loop models a standard async batching RPC server:

* arrivals are *ingested* at their arrival cycle — first through the
  :class:`~repro.service.admission.TokenBucket` (admission control on
  offered load), then into the
  :class:`~repro.service.admission.BoundedQueue` (backpressure: a full
  queue sheds the transaction and counts it);
* a batch launches when the queue reaches ``batch_size`` (size trigger)
  or when the oldest queued transaction has waited ``batch_deadline``
  cycles (deadline trigger — bounds tail latency at low load);
* a launch occupies the device for its simulated kernel cycles plus a
  fixed ``launch_overhead``; arrivals during the launch window queue up
  behind it (that queueing delay is the open-loop latency signal);
* every transaction in a launched batch retries inside the STM runtime
  until it commits, so ``committed`` counts transactions and the
  runtime's abort counters count wasted attempts.

Per-transaction timestamps (arrival, enqueue, launch, commit — simulated
cycles; plus wall-clock capture of the launch window) land on
:class:`TxRecord`; :class:`ServiceOutcome` folds them into the summary
the sweep driver writes out.
"""

import time

from repro.common.rng import Xorshift32, thread_seed
from repro.gpu import make_device
from repro.harness import configs
from repro.service.admission import BoundedQueue, TokenBucket
from repro.service.arrivals import make_arrivals
from repro.service.latency import summarize
from repro.stm import StmConfig, make_runtime
from repro.workloads.ledger import (
    ACCOUNTS_REGION,
    ZipfSampler,
    batch_kernel,
    sample_transfer,
    verify_ledger,
)


class ServiceConfig:
    """Tuning knobs of the serving loop; plain picklable data.

    Rates are transactions per 1000 simulated cycles ("per kcycle");
    ``admission_rate=None`` disables the token bucket (every arrival goes
    straight to the queue).  ``launch_overhead`` models fixed driver/launch
    latency per batch in cycles.
    """

    __slots__ = (
        "batch_size",
        "batch_deadline",
        "queue_capacity",
        "admission_rate",
        "admission_burst",
        "block_threads",
        "launch_overhead",
        "num_locks",
    )

    def __init__(self, batch_size=64, batch_deadline=1000, queue_capacity=512,
                 admission_rate=None, admission_burst=32, block_threads=32,
                 launch_overhead=200, num_locks=configs.DEFAULT_NUM_LOCKS):
        self.batch_size = batch_size
        self.batch_deadline = batch_deadline
        self.queue_capacity = queue_capacity
        self.admission_rate = admission_rate
        self.admission_burst = admission_burst
        self.block_threads = block_threads
        self.launch_overhead = launch_overhead
        self.num_locks = num_locks

    @classmethod
    def from_dict(cls, data):
        config = cls()
        for slot, value in (data or {}).items():
            if slot not in cls.__slots__:
                raise ValueError("unknown ServiceConfig field %r" % slot)
            setattr(config, slot, value)
        return config


class TxRecord:
    """One transaction's life through the server, timestamped twice over:
    simulated cycles (deterministic; feeds the summary) and wall-clock
    seconds of its launch window (diagnostic only — never part of the
    bit-identical artifact)."""

    __slots__ = (
        "tx_id", "client", "transfer",
        "arrival_cycle", "enqueue_cycle", "launch_cycle", "commit_cycle",
        "wall_launch", "wall_commit", "dropped",
    )

    def __init__(self, tx_id, transfer, arrival_cycle, client=None):
        self.tx_id = tx_id
        self.client = client
        self.transfer = transfer
        self.arrival_cycle = arrival_cycle
        self.enqueue_cycle = None
        self.launch_cycle = None
        self.commit_cycle = None
        self.wall_launch = None
        self.wall_commit = None
        #: None while in flight; "admission" / "queue_full" when shed
        self.dropped = None

    @property
    def latency(self):
        """Arrival-to-commit cycles, or ``None`` for a shed transaction."""
        if self.commit_cycle is None:
            return None
        return self.commit_cycle - self.arrival_cycle


class OpenLoopSource:
    """Precomputed open-loop arrivals: Poisson or bursty, seeded.

    Transfers are sampled from one stream, arrival cycles from another
    (both derived from ``seed``), so changing the arrival process does
    not perturb the transfer population and vice versa.
    """

    def __init__(self, kind, seed, rate_per_kcycle, horizon_cycles,
                 sampler, max_amount=4):
        cycles = make_arrivals(kind, thread_seed(seed, 1),
                               rate_per_kcycle, horizon_cycles)
        payload_rng = Xorshift32(thread_seed(seed, 2))
        self.pending = [
            TxRecord(i, sample_transfer(payload_rng, sampler, max_amount), cycle)
            for i, cycle in enumerate(cycles)
        ]
        self._next = 0

    def next_cycle(self):
        """Cycle of the next pending arrival, or ``None`` when exhausted."""
        if self._next >= len(self.pending):
            return None
        return self.pending[self._next].arrival_cycle

    def take_until(self, now):
        """All arrivals with cycle <= ``now``, in arrival order."""
        taken = []
        pending = self.pending
        i = self._next
        while i < len(pending) and pending[i].arrival_cycle <= now:
            taken.append(pending[i])
            i += 1
        self._next = i
        return taken

    def on_commit(self, record, now):
        """Open-loop clients never wait: commits schedule nothing."""


class ClosedLoopSource:
    """Closed-loop comparison mode: ``clients`` emit one transaction at a
    time, each issuing its next ``think_mean`` cycles (exponential) after
    its previous one commits.  Offered load is therefore bounded by
    service speed — the methodological contrast to the open-loop modes
    (see docs/service.md)."""

    def __init__(self, clients, seed, think_mean_cycles, horizon_cycles,
                 sampler, max_amount=4):
        import heapq
        import math as _math

        self._heapq = heapq
        self.horizon = horizon_cycles
        self.sampler = sampler
        self.max_amount = max_amount
        self.rngs = [Xorshift32(thread_seed(seed, 3 + k)) for k in range(clients)]
        self.think_mean = think_mean_cycles
        self._log = _math.log
        self.heap = []
        self.generated = 0
        for client in range(clients):
            self._schedule(client, 0)

    def _think(self, client):
        u = (self.rngs[client].next_u32() + 1) / 4294967296.0
        return max(1, int(round(-self.think_mean * self._log(u))))

    def _schedule(self, client, after_cycle):
        cycle = after_cycle + self._think(client)
        if cycle >= self.horizon:
            return
        transfer = sample_transfer(self.rngs[client], self.sampler, self.max_amount)
        record = TxRecord(self.generated, transfer, cycle, client=client)
        self.generated += 1
        self._heapq.heappush(self.heap, (cycle, record.tx_id, record))

    def next_cycle(self):
        return self.heap[0][0] if self.heap else None

    def take_until(self, now):
        taken = []
        heap = self.heap
        while heap and heap[0][0] <= now:
            taken.append(self._heapq.heappop(heap)[2])
        return taken

    def on_commit(self, record, now):
        if record.client is not None:
            self._schedule(record.client, now)


class ServiceOutcome:
    """Everything one service cell produced; picklable.

    :meth:`as_summary` is the *deterministic* projection — simulated-time
    metrics only — that the sweep artifact is built from.  Wall-clock
    diagnostics stay on the object (``wall_seconds``) and in the metric
    registry, never in the summary.
    """

    __slots__ = (
        "variant", "arrival", "load", "skew", "seed", "duration_cycles",
        "offered", "admitted", "shed_admission", "shed_queue_full",
        "committed", "commits", "aborts", "abort_rate",
        "batches", "max_queue_depth", "final_cycle", "busy_cycles",
        "latency", "queue_wait", "service_time",
        "stm_stats", "wall_seconds",
    )

    def __init__(self):
        for slot in self.__slots__:
            setattr(self, slot, None)

    def as_summary(self):
        """The deterministic summary block of this cell (JSON-able)."""
        kcycles = self.duration_cycles / 1000.0
        served_kcycles = max(self.final_cycle, 1) / 1000.0
        return {
            "variant": self.variant,
            "arrival": self.arrival,
            "load": self.load,
            "skew": self.skew,
            "seed": self.seed,
            "duration_cycles": self.duration_cycles,
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": {
                "admission": self.shed_admission,
                "queue_full": self.shed_queue_full,
            },
            "committed": self.committed,
            "aborted_attempts": self.aborts,
            "abort_rate": round(self.abort_rate, 6),
            "throughput_offered_per_kcycle": round(self.offered / kcycles, 6),
            "goodput_per_kcycle": round(self.committed / served_kcycles, 6),
            "batches": self.batches,
            "max_queue_depth": self.max_queue_depth,
            "final_cycle": self.final_cycle,
            "device_utilization": round(
                self.busy_cycles / max(self.final_cycle, 1), 6
            ),
            "latency_cycles": self.latency,
            "queue_wait_cycles": self.queue_wait,
            "service_time_cycles": self.service_time,
        }


class LedgerService:
    """One ledger server instance: device + STM runtime + balance array."""

    def __init__(self, variant, num_accounts=4096, skew=0.8, max_amount=4,
                 initial_balance=100, gpu_config=None, service_config=None,
                 stm_overrides=None, telemetry=None):
        self.variant = variant
        self.num_accounts = num_accounts
        self.skew = skew
        self.max_amount = max_amount
        self.initial_balance = initial_balance
        self.service_config = service_config or ServiceConfig()
        self.telemetry = telemetry
        self.sampler = ZipfSampler(num_accounts, skew)
        self.device = make_device(gpu_config or configs.bench_gpu(), telemetry=telemetry)
        self.accounts = self.device.mem.alloc(
            num_accounts, ACCOUNTS_REGION, fill=initial_balance
        )
        overrides = dict(stm_overrides or {})
        overrides.setdefault("num_locks", self.service_config.num_locks)
        overrides.setdefault("shared_data_size", num_accounts)
        self.runtime = make_runtime(variant, self.device, StmConfig(**overrides))
        if telemetry is not None and self.runtime.tracer is None:
            self.runtime.tracer = telemetry

    # ------------------------------------------------------------------
    def open_loop_source(self, kind, seed, rate_per_kcycle, horizon_cycles):
        return OpenLoopSource(
            kind, seed, rate_per_kcycle, horizon_cycles,
            self.sampler, self.max_amount,
        )

    def closed_loop_source(self, clients, seed, think_mean_cycles,
                           horizon_cycles):
        return ClosedLoopSource(
            clients, seed, think_mean_cycles, horizon_cycles,
            self.sampler, self.max_amount,
        )

    # ------------------------------------------------------------------
    def _ingest(self, record, bucket, queue, outcome):
        outcome.offered += 1
        cycle = record.arrival_cycle
        if bucket is not None and not bucket.try_take(cycle):
            record.dropped = "admission"
            outcome.shed_admission += 1
            return
        record.enqueue_cycle = cycle
        if not queue.offer(record):
            record.dropped = "queue_full"
            record.enqueue_cycle = None
            outcome.shed_queue_full += 1
            return
        outcome.admitted += 1

    def _launch_batch(self, batch, now):
        """One kernel launch over ``batch``; returns its simulated cycles."""
        config = self.service_config
        block = min(len(batch), config.block_threads)
        grid = -(-len(batch) // block)
        kernel = batch_kernel(self.accounts, [r.transfer for r in batch])
        wall_start = time.perf_counter()
        result = self.device.launch(kernel, grid, block,
                                    attach=self.runtime.attach)
        wall_end = time.perf_counter()
        for record in batch:
            record.launch_cycle = now
            record.wall_launch = wall_start
            record.wall_commit = wall_end
        return result.cycles + config.launch_overhead

    def run(self, source, duration_cycles, verify=True):
        """Serve ``source`` to exhaustion (arrivals bounded by the source's
        horizon; the queue is always drained), then verify the ledger
        invariants and return a :class:`ServiceOutcome`."""
        config = self.service_config
        queue = BoundedQueue(config.queue_capacity)
        bucket = None
        if config.admission_rate is not None:
            bucket = TokenBucket(config.admission_rate, config.admission_burst)

        outcome = ServiceOutcome()
        outcome.variant = self.variant
        outcome.skew = self.skew
        outcome.duration_cycles = duration_cycles
        outcome.offered = outcome.admitted = 0
        outcome.shed_admission = outcome.shed_queue_full = 0
        outcome.committed = 0
        outcome.batches = 0
        outcome.busy_cycles = 0

        latencies = []
        queue_waits = []
        service_times = []
        now = 0
        wall_start = time.perf_counter()
        while True:
            for record in source.take_until(now):
                self._ingest(record, bucket, queue, outcome)
            head = queue.head()
            if head is not None and (
                len(queue) >= config.batch_size
                or now - head.enqueue_cycle >= config.batch_deadline
            ):
                batch = queue.drain(config.batch_size)
                cycles = self._launch_batch(batch, now)
                outcome.batches += 1
                outcome.busy_cycles += cycles
                now += cycles
                for record in batch:
                    record.commit_cycle = now
                    latencies.append(record.commit_cycle - record.arrival_cycle)
                    queue_waits.append(record.launch_cycle - record.arrival_cycle)
                    service_times.append(record.commit_cycle - record.launch_cycle)
                    outcome.committed += 1
                    source.on_commit(record, now)
                continue
            # idle: jump to the next event — an arrival or the oldest
            # queued transaction's batch deadline, whichever is first
            candidates = []
            next_arrival = source.next_cycle()
            if next_arrival is not None:
                candidates.append(next_arrival)
            if head is not None:
                candidates.append(head.enqueue_cycle + config.batch_deadline)
            if not candidates:
                break
            now = min(candidates)
        outcome.wall_seconds = time.perf_counter() - wall_start

        stats = self.runtime.stats
        outcome.commits = stats["commits"]
        outcome.aborts = stats["aborts"]
        outcome.abort_rate = self.runtime.abort_rate()
        outcome.stm_stats = stats.as_dict()
        outcome.max_queue_depth = queue.max_depth
        outcome.final_cycle = now
        outcome.latency = summarize(latencies)
        outcome.queue_wait = summarize(queue_waits)
        outcome.service_time = summarize(service_times)

        if verify:
            verify_ledger(
                self.device.mem, self.accounts, self.num_accounts,
                self.initial_balance * self.num_accounts,
            )
            if outcome.commits != outcome.committed:
                raise AssertionError(
                    "service commit accounting drifted: runtime committed %d, "
                    "server recorded %d" % (outcome.commits, outcome.committed)
                )
            if self.device.launch_count != outcome.batches:
                raise AssertionError(
                    "launch accounting drifted: device ran %d launch(es), "
                    "server batched %d" % (self.device.launch_count, outcome.batches)
                )
        self._publish(outcome, latencies)
        return outcome

    def _publish(self, outcome, latencies):
        """Service counters/histograms into the telemetry registry."""
        tel = self.telemetry
        if tel is None:
            return
        registry = tel.registry
        registry.add("service.offered", outcome.offered)
        registry.add("service.admitted", outcome.admitted)
        registry.add("service.shed.admission", outcome.shed_admission)
        registry.add("service.shed.queue_full", outcome.shed_queue_full)
        registry.add("service.committed", outcome.committed)
        registry.add("service.batches", outcome.batches)
        registry.set_gauge("service.max_queue_depth", outcome.max_queue_depth)
        registry.set_gauge("service.final_cycle", outcome.final_cycle)
        registry.set_gauge("service.wall_seconds", round(outcome.wall_seconds, 6))
        for latency in latencies:
            registry.observe("service.latency_cycles", latency)
        self.runtime.publish_metrics(registry)
        tel.publish_memory(self.device.mem)
