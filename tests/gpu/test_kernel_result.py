"""KernelResult aggregation."""

from repro.gpu import Device
from repro.gpu.config import small_config
from repro.gpu.events import Phase


class TestKernelResult:
    def test_tx_time_fraction_zero_without_transactions(self):
        dev = Device(small_config(warp_size=2))

        def kernel(tc):
            tc.work(10)
            yield

        result = dev.launch(kernel, 1, 2)
        assert result.tx_time_fraction() == 0.0

    def test_tx_time_fraction_partial(self):
        dev = Device(small_config(warp_size=1))

        def kernel(tc):
            tc.work(30, Phase.NATIVE)
            yield
            tc.tx_window_begin()
            tc.work(10, Phase.COMMIT)
            yield
            tc.tx_window_commit()

        result = dev.launch(kernel, 1, 1)
        assert abs(result.tx_time_fraction() - 0.25) < 1e-12

    def test_threads_counted(self):
        dev = Device(small_config(warp_size=4))

        def kernel(tc):
            yield

        result = dev.launch(kernel, 3, 8)
        assert result.threads == 24

    def test_empty_result_tx_fraction_safe(self):
        from repro.gpu.kernel import KernelResult

        result = KernelResult("k", cycles=1, sm_cycles=[1], steps=1)
        assert result.tx_time_fraction() == 0.0
