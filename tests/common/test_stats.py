"""Counter and phase-breakdown container tests."""

from repro.common.stats import Counters, PhaseCycles


class TestCounters:
    def test_default_zero(self):
        c = Counters()
        assert c.get("x") == 0
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

    def test_repr_sorted(self):
        c = Counters()
        c.add("b")
        c.add("a")
        assert repr(c) == "Counters(a=1, b=1)"


class TestPhaseCycles:
    def test_add_total(self):
        p = PhaseCycles()
        p.add("native", 10)
        p.add("commit", 30)
        assert p.total() == 40

    def test_fractions(self):
        p = PhaseCycles()
        p.add("native", 25)
        p.add("commit", 75)
        fr = p.fractions()
        assert fr == {"native": 0.25, "commit": 0.75}

    def test_fractions_empty(self):
        assert PhaseCycles().fractions() == {}

    def test_merge(self):
        a = PhaseCycles()
        b = PhaseCycles()
        a.add("native", 1)
        b.add("native", 2)
        b.add("locks", 3)
        a.merge(b)
        assert a.as_dict() == {"native": 3, "locks": 3}

    def test_negative_adjustment(self):
        """Abort reclassification subtracts from phases."""
        p = PhaseCycles()
        p.add("commit", 10)
        p.add("commit", -10)
        p.add("aborted", 10)
        assert p.as_dict()["commit"] == 0
        assert p.as_dict()["aborted"] == 10
