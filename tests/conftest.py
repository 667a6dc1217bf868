"""Fixtures shared by the test modules."""

import pytest

from eigenbond import pricer


@pytest.fixture
def single_crossing_scans(monkeypatch):
    """Follow every break-even search with the 64-point sign scan behind the
    one-root-per-date policy (a call region over the whole interval is
    scanned by the engine itself)."""
    find = pricer._RootFinder.find

    def scanned(self, kind, strike, hint=None):
        state = find(self, kind, strike, hint=hint)
        if not (kind == "call" and state == self.search_hi):
            self.scan_single_crossing(strike, state is not None)
        return state

    monkeypatch.setattr(pricer._RootFinder, "find", scanned)
