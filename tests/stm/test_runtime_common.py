"""Behaviour every runtime must share: atomicity, strict serializability,
read-your-own-writes, clean metadata at kernel end."""

import pytest

from repro.stm.oracle import check_history
from tests.stm.helpers import (
    ALL_VARIANTS,
    TM_VARIANTS,
    counter_kernel,
    make_stm_device,
    transfer_kernel,
)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
class TestAtomicity:
    def test_transfers_conserve_sum(self, variant):
        device, runtime, data, _ = make_stm_device(variant, data_size=64, fill=100)
        kernel = transfer_kernel(data, 64, txs_per_thread=3, moves_per_tx=2, seed=11)
        device.launch(kernel, 2, 8, attach=runtime.attach)
        assert sum(device.mem.snapshot(data, 64)) == 64 * 100

    def test_counter_increments_all_land(self, variant):
        device, runtime, data, _ = make_stm_device(variant, data_size=4)
        device.launch(counter_kernel(data, 4), 2, 8, attach=runtime.attach)
        assert device.mem.read(data) == 100 + 2 * 8 * 4

    def test_history_strictly_serializable(self, variant):
        device, runtime, data, initial = make_stm_device(variant, data_size=32)
        kernel = transfer_kernel(data, 32, txs_per_thread=2, moves_per_tx=2, seed=3)
        device.launch(kernel, 2, 8, attach=runtime.attach)
        checked = check_history(runtime.history, initial, device.mem)
        assert checked == runtime.stats["commits"] == 2 * 8 * 2

    def test_writer_versions_unique(self, variant):
        device, runtime, data, _ = make_stm_device(variant, data_size=32)
        kernel = transfer_kernel(data, 32, txs_per_thread=2, moves_per_tx=1, seed=5)
        device.launch(kernel, 1, 8, attach=runtime.attach)
        versions = [record.version for record in runtime.history
                    if record.writes]
        assert len(versions) == len(set(versions))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
class TestSemantics:
    def test_read_your_own_write(self, variant):
        device, runtime, data, _ = make_stm_device(variant, data_size=8)
        observed = {}

        def kernel(tc):
            def body(stm):
                yield from stm.tx_write(data + tc.tid, 777 + tc.tid)
                value = yield from stm.tx_read(data + tc.tid)
                if not stm.is_opaque:
                    return False
                observed[tc.tid] = value
                return True

            from repro.stm import run_transaction

            yield from run_transaction(tc, body, max_restarts=1000)

        device.launch(kernel, 1, 4, attach=runtime.attach)
        assert observed == {tid: 777 + tid for tid in range(4)}
        assert device.mem.snapshot(data, 4) == [777, 778, 779, 780]

    def test_read_only_transaction_commits(self, variant):
        device, runtime, data, _ = make_stm_device(variant, data_size=8)
        seen = {}

        def kernel(tc):
            def body(stm):
                value = yield from stm.tx_read(data + 1)
                if not stm.is_opaque:
                    return False
                seen[tc.tid] = value
                return True

            from repro.stm import run_transaction

            yield from run_transaction(tc, body, max_restarts=1000)

        device.launch(kernel, 1, 4, attach=runtime.attach)
        assert all(value == 100 for value in seen.values())
        assert runtime.stats["commits"] == 4

    def test_stats_track_reads_and_writes(self, variant):
        device, runtime, data, _ = make_stm_device(variant, data_size=16)
        kernel = transfer_kernel(data, 16, txs_per_thread=1, moves_per_tx=1, seed=2)
        device.launch(kernel, 1, 4, attach=runtime.attach)
        assert runtime.stats["tx_reads"] >= 2 * 4  # 2 reads per attempt
        assert runtime.stats["tx_writes"] >= 2 * 4
        assert runtime.stats["begins"] >= runtime.stats["commits"]


@pytest.mark.parametrize("variant", TM_VARIANTS)
class TestTmOnly:
    def test_aborted_attempts_counted(self, variant):
        """Contended single-counter increments must produce some aborts or
        retries on optimistic runtimes; the stats must stay consistent."""
        device, runtime, data, _ = make_stm_device(variant, data_size=4)
        device.launch(counter_kernel(data, 6), 2, 8, attach=runtime.attach)
        commits = runtime.stats["commits"]
        aborts = runtime.stats["aborts"]
        assert commits == 2 * 8 * 6
        assert runtime.stats["begins"] == commits + aborts

    def test_abort_rate_bounds(self, variant):
        device, runtime, data, _ = make_stm_device(variant, data_size=4)
        device.launch(counter_kernel(data, 3), 1, 8, attach=runtime.attach)
        assert 0.0 <= runtime.abort_rate() < 1.0


class TestCglSpecifics:
    def test_cgl_never_aborts(self):
        device, runtime, data, _ = make_stm_device("cgl", data_size=16)
        kernel = transfer_kernel(data, 16, txs_per_thread=2, moves_per_tx=2, seed=9)
        device.launch(kernel, 2, 8, attach=runtime.attach)
        assert runtime.stats["aborts"] == 0
        assert runtime.stats["commits"] == 2 * 8 * 2

    def test_cgl_tx_abort_after_write_is_an_error(self):
        device, runtime, data, _ = make_stm_device("cgl", data_size=4)

        def kernel(tc):
            stm = tc.stm
            yield from stm.tx_begin()
            yield from stm.tx_write(data, 1)
            with pytest.raises(RuntimeError, match="rolled back"):
                yield from stm.tx_abort()
            yield from stm.tx_commit()

        device.launch(kernel, 1, 1, attach=runtime.attach)

    def test_cgl_giveup_before_write_releases_lock(self):
        device, runtime, data, _ = make_stm_device("cgl", data_size=4)

        def kernel(tc):
            stm = tc.stm
            yield from stm.tx_begin()
            yield from stm.tx_read(data)
            yield from stm.tx_abort()

        device.launch(kernel, 1, 1, attach=runtime.attach)
        assert device.mem.read(runtime.lock_addr) == 0
        assert runtime.stats["aborts.giveup"] == 1
