"""Counter and phase-breakdown container tests."""

from repro.common.stats import Counters, PhaseCycles


class TestCounters:
    def test_default_zero(self):
        c = Counters()
        assert c["x"] == 0

    def test_add_and_get(self):
        c = Counters()
        c.add("commits")
        c.add("commits", 4)
        assert c["commits"] == 5

    def test_merge(self):
        a = Counters()
        b = Counters()
        a.add("x", 2)
        b.add("x", 3)
        b.add("y", 1)
        a.merge(b)
        assert a["x"] == 5
        assert a["y"] == 1

    def test_as_dict_is_copy(self):
        c = Counters()
        c.add("x")
        d = c.as_dict()
        d["x"] = 99
        assert c["x"] == 1

    def test_as_dict_order_ignores_first_touch(self):
        """Serialised bags must not depend on which counter a run happened
        to bump first (a site that flushes once per spin episode inserts
        its key later than one counting per probe)."""
        early, late = Counters(), Counters()
        for name in ("begin_waits", "commits", "aborts"):
            early.add(name)
        for name in ("commits", "aborts", "begin_waits"):
            late.add(name)
        assert list(early.as_dict()) == list(late.as_dict()) == sorted(early.as_dict())


def _phases(**cycles):
    """A breakdown holding ``cycles``; thread contexts charge through the
    same ``cycles`` map."""
    phases = PhaseCycles()
    phases.cycles.update(cycles)
    return phases


class TestPhaseCycles:
    def test_add_total(self):
        assert _phases(native=10, commit=30).total() == 40

    def test_fractions(self):
        p = _phases(native=25, commit=75)
        fr = p.fractions()
        assert fr == {"native": 0.25, "commit": 0.75}

    def test_fractions_empty(self):
        assert PhaseCycles().fractions() == {}

    def test_merge(self):
        a = _phases(native=1)
        a.merge(_phases(native=2, locks=3))
        assert a.as_dict() == {"native": 3, "locks": 3}
