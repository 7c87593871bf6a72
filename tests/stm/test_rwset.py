"""Read-/write-set containers and the coalesced-log cost policy."""

from repro.gpu import Device
from repro.gpu.config import small_config
from repro.gpu.events import Phase
from repro.stm.rwset import LogCosting, ReadSet, WriteSet


def run_one_thread(kernel):
    dev = Device(small_config(warp_size=1, num_sms=1))
    base = dev.mem.alloc(16)
    result = dev.launch(kernel, 1, 1, args=(base,))
    return dev, result


class TestReadSet:
    def test_append_and_iterate(self):
        def kernel(tc, base):
            costing = LogCosting(coalesced=True)
            reads = ReadSet(costing)
            reads.append(tc, base, 10)
            reads.append(tc, base + 1, 11)
            yield
            assert list(reads) == [(base, 10), (base + 1, 11)]

        run_one_thread(kernel)

    def test_duplicate_addresses_kept(self):
        """The read-set is a log: re-reads append again (Algorithm 3)."""

        def kernel(tc, base):
            reads = ReadSet(LogCosting(True))
            reads.append(tc, base, 1)
            reads.append(tc, base, 2)
            yield
            assert list(reads) == [(base, 1), (base, 2)]

        run_one_thread(kernel)

    def test_clear(self):
        def kernel(tc, base):
            reads = ReadSet(LogCosting(True))
            reads.append(tc, base, 1)
            reads.clear()
            yield
            assert list(reads) == []

        run_one_thread(kernel)


class TestWriteSet:
    def test_last_writer_wins(self):
        def kernel(tc, base):
            writes = WriteSet(LogCosting(True))
            writes.put(tc, base, 1)
            writes.put(tc, base, 2)
            yield
            assert writes.get(base) == 2
            assert len(writes) == 1
            assert base in writes

        run_one_thread(kernel)

    def test_get_absent_returns_none(self):
        def kernel(tc, base):
            writes = WriteSet(LogCosting(True))
            yield
            assert writes.get(base) is None
            assert base not in writes

        run_one_thread(kernel)


class TestCoalescedCosting:
    def test_coalesced_appends_cheaper_than_scattered(self):
        def make_kernel(coalesced):
            def kernel(tc, base):
                costing = LogCosting(coalesced)
                reads = ReadSet(costing)
                for i in range(8):
                    reads.append(tc, base + i, i)
                    yield

            return kernel

        _dev_a, coalesced_result = run_one_thread(make_kernel(True))
        _dev_b, scattered_result = run_one_thread(make_kernel(False))
        assert coalesced_result.cycles < scattered_result.cycles
        assert (
            coalesced_result.phases.as_dict()[Phase.BUFFERING]
            < scattered_result.phases.as_dict()[Phase.BUFFERING]
        )

