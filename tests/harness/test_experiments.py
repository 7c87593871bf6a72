"""Experiment figures: quick-mode smoke tests, renderer checks on synthetic
results, grids pinned without simulating, and reduces over stored cells
(full-geometry runs live in benchmarks/)."""

import pytest

from repro.expdb.recorder import sweep_run_key
from repro.gpu.events import Phase
from repro.harness import experiments
from repro.harness.experiments import FIGURES, run_figure, runs_of
from repro.harness.journal import SweepJournal, spec_fingerprint


class TestQuickRuns:
    @pytest.mark.slow
    def test_fig5_quick(self):
        result = run_figure("fig5", quick=True)
        labels = [label for label, _ in result.rows]
        assert labels == ["GN-1", "GN-2", "LB", "KM"]
        rendered = result.render()
        assert "Figure 5" in rendered
        for _, fractions in result.rows:
            assert abs(sum(fractions.values()) - 1.0) < 1e-9

    @pytest.mark.slow
    def test_table1_quick(self):
        result = run_figure("table1", quick=True)
        workloads = {row["workload"] for row in result.rows}
        assert workloads == {"ra", "ht", "eb", "lb", "gn", "km"}
        kernels = [row["kernel"] for row in result.rows]
        assert "gn-1" in kernels and "gn-2" in kernels
        assert "Table 1" in result.render()

    @pytest.mark.slow
    def test_ablations_quick(self):
        result = run_figure("ablations", quick=True)
        assert result.sorting["unsorted_livelocks"]
        assert result.sorting["sorted_commits"] == 2
        assert "LIVELOCK" in result.render()


class TestRenderers:
    def test_fig2_result_renders_crashes(self):
        result = experiments.Fig2Result()
        for workload in experiments.FIG2_WORKLOADS:
            result.speedups[workload] = {
                variant: None if variant == "egpgv" else 2.0
                for variant in experiments.FIG2_VARIANTS
            }
        rendered = result.render()
        assert "crash" in rendered
        assert "2.00x" in rendered

    def test_fig3_result_normalizes(self):
        result = experiments.Fig3Result("ra", [32, 64])
        result.cycles["hv-sorting"] = [1000, 500]
        result.cycles["egpgv"] = [1000, None]
        assert result.normalized("hv-sorting") == [1.0, 2.0]
        assert result.normalized("egpgv") == [1.0, None]
        assert "crash" in result.render()

    def test_fig4_result_renders_grid(self):
        result = experiments.Fig4Result([1024], [256], [64])
        result.points[(1024, 256, 64, "hv")] = (2.0, 0.1)
        result.points[(1024, 256, 64, "tbv")] = (1.5, 0.4)
        rendered = result.render()
        assert "Figure 4(a)" in rendered
        assert "2.00x" in rendered
        assert "40%" in rendered

    def test_fig5_result_renders_phases(self):
        result = experiments.Fig5Result()
        result.rows.append(("GN-1", {Phase.NATIVE: 0.5, Phase.COMMIT: 0.5}))
        rendered = result.render()
        assert "50.0%" in rendered

    def test_table2_result_renders(self):
        result = experiments.Table2Result()
        result.rows.append(("ra", 8, 32, 12345))
        rendered = result.render()
        assert "12345" in rendered


class TestGracefulDegradation:
    def test_fig2_gap_cells_render_failed(self):
        from repro.harness.parallel import JobFailure

        result = experiments.Fig2Result()
        for workload in experiments.FIG2_WORKLOADS:
            result.speedups[workload] = {
                variant: experiments.GAP if variant == "vbv" else 2.0
                for variant in experiments.FIG2_VARIANTS
            }
        result.failures = [
            JobFailure(("ra", "vbv"), "livelock", "LivelockError",
                       "watchdog tripped", attempts=1)
        ]
        rendered = result.render()
        assert "FAILED" in rendered
        assert "1 job(s) failed" in rendered
        assert "livelock" in rendered

    def test_failures_note_empty_on_clean_sweep(self):
        assert experiments._failures_note([]) == ""

    def test_runs_of_maps_failed_jobs_to_none(self):
        from repro.harness.parallel import JobFailure, JobResult
        from repro.harness.sweep import failures_of

        ok = JobResult("good", run="payload")
        bad = JobResult("bad", error="Boom: exploded")
        bad.failure = JobFailure("bad", "error", "Boom", "exploded")
        assert runs_of([ok, bad]) == {"good": "payload", "bad": None}
        assert list(runs_of([bad, ok])) == ["bad", "good"]
        assert [f.key for f in failures_of([ok, bad])] == ["bad"]

    def test_table2_workload_with_every_cell_failed_is_a_failed_row(self):
        result = experiments.table2_reduce(
            {("ra", 8, 32): None, ("ra", 16, 32): None})
        assert result.rows == [("ra", "-", "-", "FAILED")]

    @pytest.mark.slow
    def test_fig5_survives_an_all_failed_sweep(self, tmp_path):
        # an injected error fails every job; the figure still renders —
        # with gaps and a failure footer — instead of raising away the
        # whole sweep
        from tests.harness.misbehave import Event, Misbehaving

        executor = Misbehaving(tmp_path, {
            spec.key: Event("error") for spec in experiments.fig5_grid(True)})
        result = run_figure("fig5", quick=True, executor=executor)
        assert result.rows == []
        assert len(result.failures) == 3
        rendered = result.render()
        assert "Figure 5" in rendered
        assert "3 job(s) failed" in rendered


#: (figure, quick) -> (cells, sweep_run_key of the grid's spec
#: fingerprints); any change to a cell of any figure at either scale —
#: workload parameters, variant, lock table, overrides, order — moves it
GRID_RUN_KEYS = {
    ("fig2", True): (35, "6ac157ec6b682fc03966a70332f39817"
                         "e2c00a9c53e8689c2019968854863df7"),
    ("fig2", False): (35, "3a3a47eab0887aa48c4bd950266d52b5"
                          "be3bc9196b25942769ba92e7d119d7d2"),
    ("fig3", True): (18, "da67ac359785b8a8bdf393bd918786f9"
                         "1a2fbb7caaa91109e4dcf9c46e6dcd92"),
    ("fig3", False): (30, "31240d75d31e9b31cd7ff6fa62448efc"
                          "4a58398a53a1f3beb514d9a8ee89e0b9"),
    ("fig4", True): (10, "df0b0f3ed55332dbef6bba7ac428b0d0"
                         "e5a51dd24bba3fda320c61b9a345ce1c"),
    ("fig4", False): (56, "d50722dae53c872de92e9c3d5ca80825"
                          "6ebc6f05b9b4102473340160251690bb"),
    ("fig5", True): (3, "cb421bc046d2bc34fcefa832aaaa8c5b"
                        "2ef6a4e4c8345786d3803b000b71f3be"),
    ("fig5", False): (3, "91b6f324af26309e12f86f5464cf2dab"
                         "7c383c76fa484b2d155d0d02f69f280a"),
    ("table1", True): (6, "32645e1b7285bf512fa268ad8c7b9611"
                          "635b607725402d6ef2a9ecf80ab239b1"),
    ("table1", False): (6, "9bd2e4021dff2f8faaea66fb25d028d1"
                           "7ed096ca5bab4213991aed33869b687c"),
    ("table2", True): (10, "8f26db36447edab13a509b22ab95b041"
                           "25d00b6ea9f559784de1697795625fff"),
    ("table2", False): (18, "4e7fefcfb65e6eb7173ca9a7cc5d7bf9"
                            "3e9a41c4cebd347a02d4e65c0e0c262e"),
    ("ablations", True): (9, "a798b8ba2c9bb93b056af3d49535a93e"
                             "c684d0dc0c7501dd94eed1053fe5f47d"),
    ("ablations", False): (9, "a798b8ba2c9bb93b056af3d49535a93e"
                              "c684d0dc0c7501dd94eed1053fe5f47d"),
}


class TestGrids:
    def test_every_figure_is_pinned_at_both_scales(self):
        assert set(GRID_RUN_KEYS) == {
            (name, quick) for name in FIGURES for quick in (True, False)}

    @pytest.mark.parametrize("name,quick", sorted(GRID_RUN_KEYS))
    def test_grid_is_pinned(self, name, quick):
        specs = FIGURES[name].grid(quick)
        run_key = sweep_run_key(name, [spec_fingerprint(s) for s in specs])
        assert (len(specs), run_key) == GRID_RUN_KEYS[name, quick]


class TestReduceFromStoredCells:
    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["fig5", "table1"])
    def test_reduce_renders_journaled_cells_without_simulating(
            self, name, tmp_path, monkeypatch):
        journal = str(tmp_path / ("%s.journal" % name))
        fresh = run_figure(name, quick=True, journal=journal).render()
        stored = SweepJournal(journal).load()

        def must_not_simulate(*args, **kwargs):
            raise AssertionError("a reduce must not build or run a workload")

        import repro.harness.parallel
        import repro.harness.runner
        import repro.workloads

        for module, attr in ((repro.harness.parallel, "run_workload"),
                             (repro.harness.parallel, "make_workload"),
                             (repro.harness.runner, "run_workload"),
                             (repro.workloads, "make_workload")):
            monkeypatch.setattr(module, attr, must_not_simulate)
        figure = FIGURES[name]
        runs = runs_of(stored[spec_fingerprint(spec)]
                       for spec in figure.grid(True))
        assert figure.reduce(runs).render() == fresh
