"""MG — the *multi-GPU ledger* workload: cross-device account transfers.

The ledger workload (``lg``) with the account array sharded across the
devices of a multi-GPU topology: every account lives on the device the
home-device function assigns its address to, each thread draws its
transfer *sources* from its own device's accounts, and a configurable
``remote_frac`` of transfers pick their *destination* on another device —
the cross-shard commit path, where lock acquires and write-backs cross
the inter-device link.  ``shard_skew`` Zipf-skews which remote device is
targeted (0 = uniform over the other devices), reusing the same
:class:`~repro.workloads.ledger.ZipfSampler` that skews account choice.

On a single-device launcher the workload degenerates to a plain
Zipf-contended ledger (no remote draws), so it runs under every harness
path — including the all-workloads determinism matrix — without a
multi-GPU launcher.

The oracle is the ledger oracle: conservation + solvency over the final
balance array, plus an exact commit count.
"""

from repro.common.rng import Xorshift32, thread_seed
from repro.stm.api import run_transaction
from repro.workloads.base import KernelSpec, Workload
from repro.workloads.ledger import (
    TransferRequest,
    ZipfSampler,
    transfer_body,
    verify_ledger,
)

#: region name of the sharded balance array (fault plans target it by name)
MG_ACCOUNTS_REGION = "mg_accounts"


class MultiGpuLedger(Workload):
    """Cross-device account transfers over a sharded balance array."""

    name = "mg"
    title = "multi-gpu ledger"

    def __init__(
        self,
        num_accounts=2048,
        grid=8,
        block=32,
        txs_per_thread=2,
        skew=0.6,
        shard_skew=0.0,
        remote_frac=0.3,
        max_amount=4,
        initial_balance=100,
        seed=2026,
    ):
        if num_accounts < 2:
            raise ValueError("num_accounts must be >= 2")
        if not 0.0 <= remote_frac <= 1.0:
            raise ValueError("remote_frac must be in [0, 1], got %r" % remote_frac)
        self.num_accounts = num_accounts
        self.grid = grid
        self.block = block
        self.txs_per_thread = txs_per_thread
        self.skew = skew
        self.shard_skew = shard_skew
        self.remote_frac = remote_frac
        self.max_amount = max_amount
        self.initial_balance = initial_balance
        self.seed = seed
        self.accounts = None
        # filled by setup(): per-device account-index buckets + samplers
        self.buckets = None
        self.samplers = None
        self.shard_sampler = None
        self.devices = 1

    def setup(self, device):
        self.accounts = device.mem.alloc(
            self.num_accounts, MG_ACCOUNTS_REGION, fill=self.initial_balance
        )
        topology = getattr(device, "topology", None)
        if topology is None:
            self.devices = 1
            self.buckets = [list(range(self.num_accounts))]
        else:
            self.devices = topology.devices
            buckets = [[] for _ in range(topology.devices)]
            accounts = self.accounts
            for index in range(self.num_accounts):
                buckets[topology.home_of(accounts + index)].append(index)
            self.buckets = buckets
            for dev, bucket in enumerate(buckets):
                if len(bucket) < 2:
                    # a transfer inside this shard could not pick distinct
                    # src/dst accounts; src==dst would double-spend the
                    # stale read and mint money
                    raise ValueError(
                        "device %d homes only %d of %d accounts: grow "
                        "num_accounts or shrink device_interleave_words"
                        % (dev, len(bucket), self.num_accounts)
                    )
        self.samplers = [
            ZipfSampler(len(bucket), self.skew) for bucket in self.buckets
        ]
        self.shard_sampler = (
            ZipfSampler(self.devices - 1, self.shard_skew)
            if self.devices > 1
            else None
        )

    @property
    def shared_data_size(self):
        return self.num_accounts

    def expected_commits(self):
        return self.grid * self.block * self.txs_per_thread

    def kernels(self):
        accounts = self.accounts
        buckets = self.buckets
        samplers = self.samplers
        shard_sampler = self.shard_sampler
        devices = self.devices
        txs = self.txs_per_thread
        max_amount = self.max_amount
        seed = self.seed
        # one u32 draw decides local vs remote; compare against the
        # integer threshold so the decision is exact and bit-stable
        remote_threshold = int(round(self.remote_frac * 4294967296.0))

        def mg(tc):
            dev = tc.config.device_of(tc.block.index)
            local_bucket = buckets[dev]
            local_sampler = samplers[dev]
            counters = tc.counters
            rng = Xorshift32(thread_seed(seed, tc.tid))
            for _ in range(txs):
                src_pos = local_sampler.sample(rng)
                src = local_bucket[src_pos]
                remote = (
                    devices > 1 and rng.next_u32() < remote_threshold
                )
                if remote:
                    target = (dev + 1 + shard_sampler.sample(rng)) % devices
                    dst = buckets[target][samplers[target].sample(rng)]
                    counters.add("mg.tx.remote")
                else:
                    dst_pos = local_sampler.sample(rng)
                    if dst_pos == src_pos:
                        dst_pos = (dst_pos + 1) % len(local_bucket)
                    dst = local_bucket[dst_pos]
                    counters.add("mg.tx.local")
                req = TransferRequest(src, dst, 1 + rng.randrange(max_amount))
                yield from run_transaction(tc, transfer_body(accounts, req))

        return [KernelSpec("mg", mg, self.grid, self.block)]

    def verify(self, device, runtime):
        verify_ledger(
            device.mem,
            self.accounts,
            self.num_accounts,
            self.initial_balance * self.num_accounts,
        )
        if runtime.stats["commits"] != self.expected_commits():
            raise AssertionError(
                "MG commit count %d != expected %d"
                % (runtime.stats["commits"], self.expected_commits())
            )
