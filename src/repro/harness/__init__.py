"""Evaluation harness: runs workload x runtime combinations and regenerates
every table and figure of the paper's evaluation section (see DESIGN.md's
experiment index).

Every sweep — the figures and the service, multi-device, byzantine and
mutant campaigns — is a grid of :class:`~repro.harness.parallel.Cell` s
through :mod:`repro.harness.sweep` (one cell protocol, one ``run_sweep``,
one artifact writer, one CLI front-end) over the pool of
:mod:`repro.harness.parallel` and, when asked, the supervisor and
journal of :mod:`repro.harness.supervisor`/:mod:`repro.harness.journal`.
"""

from repro.harness.runner import RunResult, run_workload

__all__ = ["RunResult", "run_workload"]
