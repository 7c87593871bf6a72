"""LG — the *ledger* workload: contended account transfers.

The service layer's driving workload (and a registry workload in its own
right): a sharded balance array over which transactions move funds between
accounts.  Contention is configurable through a Zipfian account sampler —
``skew=0`` gives uniform traffic, larger skews concentrate transfers on a
few hot accounts, which is exactly the contended-write regime the paper's
STM variants differ on (and the one the STAMP ports never exercise).

Two invariants form the oracle:

* **conservation** — the sum of all balances equals the initial funding
  (transfers move units, they never mint or burn them);
* **solvency** — no balance ever verifies negative: a transfer whose
  source cannot cover the amount commits as a no-op instead of
  overdrafting.

Both the closed-loop :class:`LedgerWorkload` (registry name ``lg``) and
the open-loop service (:mod:`repro.service`) build their kernels from the
same :func:`transfer_body` / :func:`batch_kernel` helpers, so a latency
experiment and a batch experiment execute bit-identical transaction
bodies.
"""

import math
from bisect import bisect_right

from repro.common.rng import Xorshift32, thread_seed
from repro.stm.api import run_transaction
from repro.workloads.base import KernelSpec, Workload

#: region name of the shared balance array (fault plans target it by name)
ACCOUNTS_REGION = "lg_accounts"


class ZipfSampler:
    """Deterministic bounded-Zipf sampler over ``n`` account indices.

    Account ``i`` is drawn with probability proportional to
    ``1 / (i + 1) ** skew`` — index 0 is the hottest account.  ``skew=0``
    degenerates to the uniform distribution.  Sampling consumes exactly
    one draw from the caller's :class:`~repro.common.rng.Xorshift32`, so
    access streams stay reproducible per (seed, thread) pair.
    """

    __slots__ = ("n", "skew", "_cdf")

    def __init__(self, n, skew=0.0):
        if n < 1:
            raise ValueError("ZipfSampler needs at least one account")
        if skew < 0:
            raise ValueError("skew must be >= 0, got %r" % skew)
        self.n = n
        self.skew = skew
        self._cdf = None
        if skew > 0:
            weights = [1.0 / math.pow(i + 1, skew) for i in range(n)]
            total = math.fsum(weights)
            cdf = []
            acc = 0.0
            for w in weights:
                acc += w
                cdf.append(acc / total)
            cdf[-1] = 1.0
            self._cdf = cdf

    def sample(self, rng):
        """One account index, consuming one ``rng`` draw."""
        if self._cdf is None:
            return rng.randrange(self.n)
        u = rng.next_u32() / 4294967296.0
        return min(bisect_right(self._cdf, u), self.n - 1)


class TransferRequest:
    """One account-transfer transaction: plain data, picklable.

    The service layer adds its queue/launch/commit timestamps on top
    (see :class:`repro.service.server.TxRecord`); the closed-loop
    workload only needs the payload.
    """

    __slots__ = ("src", "dst", "amount")

    def __init__(self, src, dst, amount):
        self.src = src
        self.dst = dst
        self.amount = amount


def sample_transfer(rng, sampler, max_amount):
    """Draw one transfer: Zipfian src/dst (forced distinct), bounded amount."""
    n = sampler.n
    src = sampler.sample(rng)
    dst = sampler.sample(rng)
    if dst == src:
        dst = (src + 1 + rng.randrange(n - 1)) % n if n > 1 else src
    return TransferRequest(src, dst, 1 + rng.randrange(max_amount))


def transfer_body(accounts, req):
    """The transactional body of one transfer (shared with the service).

    Reads both balances, then moves ``req.amount`` units — unless the
    source cannot cover it, in which case the transaction commits without
    writing (the solvency invariant is enforced *inside* the transaction,
    where the read is consistent).
    """

    def body(stm):
        src_addr = accounts + req.src
        dst_addr = accounts + req.dst
        src_bal = yield from stm.tx_read(src_addr)
        if not stm.is_opaque:
            return False
        dst_bal = yield from stm.tx_read(dst_addr)
        if not stm.is_opaque:
            return False
        if src_bal >= req.amount:
            yield from stm.tx_write(src_addr, src_bal - req.amount)
            yield from stm.tx_write(dst_addr, dst_bal + req.amount)
        return True

    return body


def batch_kernel(accounts, batch):
    """A kernel executing one drained batch: thread ``i`` runs ``batch[i]``.

    Threads beyond the batch length retire immediately — the launch
    geometry rounds up to whole blocks, and a partially-filled tail warp
    is exactly what a real batched RPC server launches.
    """
    size = len(batch)

    def lg_batch(tc):
        idx = tc.tid
        if idx >= size:
            return
        yield from run_transaction(tc, transfer_body(accounts, batch[idx]))

    return lg_batch


def verify_ledger(mem, accounts, num_accounts, expected_total):
    """Assert conservation + solvency over the final balance array."""
    balances = mem.snapshot(accounts, num_accounts)
    total = sum(balances)
    if total != expected_total:
        raise AssertionError(
            "ledger conservation violated: balances sum to %d, funded %d"
            % (total, expected_total)
        )
    for index, balance in enumerate(balances):
        if balance < 0:
            raise AssertionError(
                "ledger solvency violated: account %d is overdrawn (%d)"
                % (index, balance)
            )


class LedgerWorkload(Workload):
    """Closed-loop batched account transfers with Zipfian contention."""

    name = "lg"
    title = "ledger"

    def __init__(
        self,
        num_accounts=1024,
        grid=8,
        block=128,
        txs_per_thread=2,
        skew=0.8,
        max_amount=4,
        initial_balance=100,
        seed=2026,
    ):
        if num_accounts < 2:
            raise ValueError("num_accounts must be >= 2")
        self.num_accounts = num_accounts
        self.grid = grid
        self.block = block
        self.txs_per_thread = txs_per_thread
        self.skew = skew
        self.max_amount = max_amount
        self.initial_balance = initial_balance
        self.seed = seed
        self.accounts = None
        self.sampler = ZipfSampler(num_accounts, skew)

    def setup(self, device):
        self.accounts = device.mem.alloc(
            self.num_accounts, ACCOUNTS_REGION, fill=self.initial_balance
        )

    @property
    def shared_data_size(self):
        return self.num_accounts

    def expected_commits(self):
        return self.grid * self.block * self.txs_per_thread

    def kernels(self):
        accounts = self.accounts
        sampler = self.sampler
        txs = self.txs_per_thread
        max_amount = self.max_amount
        seed = self.seed

        def lg(tc):
            rng = Xorshift32(thread_seed(seed, tc.tid))
            for _ in range(txs):
                req = sample_transfer(rng, sampler, max_amount)
                yield from run_transaction(tc, transfer_body(accounts, req))

        return [KernelSpec("lg", lg, self.grid, self.block)]

    def verify(self, device, runtime):
        verify_ledger(
            device.mem,
            self.accounts,
            self.num_accounts,
            self.initial_balance * self.num_accounts,
        )
        if runtime.stats["commits"] != self.expected_commits():
            raise AssertionError(
                "LG commit count %d != expected %d"
                % (runtime.stats["commits"], self.expected_commits())
            )
