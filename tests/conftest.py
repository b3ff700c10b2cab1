"""Shared test plumbing: acceptance-criterion result lines, hypothesis profile,
and an ``eigh`` call counter.

The acceptance tests register one line per criterion; the terminal summary
prints them all at the end of the run so every criterion shows an explicit
pass/fail verdict regardless of capture settings.
"""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

_ACCEPTANCE_LINES = []


def record_criterion(number: int, label: str, passed: bool, detail: str = "") -> bool:
    suffix = f"  [{detail}]" if detail else ""
    line = f"criterion {number:>2} ({label}): {'PASS' if passed else 'FAIL'}{suffix}"
    _ACCEPTANCE_LINES.append((number, line))
    print(line)
    return passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for _, line in sorted(set(_ACCEPTANCE_LINES)):
            terminalreporter.write_line(line)


@pytest.fixture
def eigh_calls(monkeypatch):
    """List that gains one entry per ``np.linalg.eigh`` call made in the test."""
    calls = []
    eigh = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls
