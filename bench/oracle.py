"""Output oracle: which operations of one benchmark pass failed.

An operation is one sweep cell (one CSV row) of ``dfsim run`` and one check
of ``dfsim verify``.  A verify check fails when its line reads FAIL.  A
sweep cell fails when any of these holds:

* ``|signal_exact - theory| > 1e-10``;
* the cell is protected and ``signal_exact`` or ``theory`` differs from 1
  by more than 1e-10;
* ``|signal_mc| > 1 + 1e-12``;
* ``signal_mc`` is not what the shots can give (see ``mc_consistent``);

and every cell the sweep should have written but did not counts as failed.

Every shot of these plans reads exactly +1 or -1 (the damage audit proves
each noise point leaves the ideal deviation unchanged or negated), so
``signal_mc`` is ``1 - 2k/shots`` for a whole number ``k`` of negated
shots, and ``k`` is binomial with ``P(negated) = (1 - signal_exact)/2``.
The check is an exact two-sided binomial test at the false-alarm rate of a
5-sigma normal deviation.  The normal bound
``|signal_mc - signal_exact| <= 5 sqrt((1 - s^2)/shots)`` is not used: at
few shots the count is far from normal, and at 2 shots a single negated
shot already lies beyond it whenever s > 0.96, although that happens with
probability up to 4%.  On the fine-grid workload that bound would fail
about 0.3 correct cells per pass.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

CSV_HEADER = ["e", "step", "mode", "algorithm", "signal_exact", "signal_mc", "mc_stderr", "theory", "n"]

EXACT_TOL = 1e-10
FLOOR = 1e-12
#: Two-sided tail probability of a normal deviation beyond 5 sigma.
ALPHA = math.erfc(5 / math.sqrt(2))
#: Slack on the implied count of negated shots, far above rounding error.
COUNT_TOL = 1e-6


@dataclass(frozen=True)
class Verdict:
    attempted: int
    failed: int
    first_failure: str = ""


def binomial_two_sided(k: int, n: int, p: float) -> float:
    """P(|K - np| >= |k - np|) for K ~ Binomial(n, p)."""
    p = min(max(p, 0.0), 1.0)
    if p in (0.0, 1.0):
        return 1.0 if k == round(n * p) else 0.0
    ks = np.arange(n + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    log_pmf = log_fact[n] - log_fact - log_fact[::-1] + ks * math.log(p) + (n - ks) * math.log1p(-p)
    far = np.abs(ks - n * p) >= abs(k - n * p) - 1e-9
    return float(np.exp(log_pmf[far]).sum())


def mc_consistent(signal_mc: float, signal_exact: float, shots: int) -> bool:
    """Whether ``signal_mc`` is a plausible mean of ``shots`` +-1 shot signals."""
    negated = (1.0 - signal_mc) * shots / 2.0
    k = round(negated)
    if abs(negated - k) > COUNT_TOL or not 0 <= k <= shots:
        return False
    return binomial_two_sided(k, shots, (1.0 - signal_exact) / 2.0) >= ALPHA


def cell_failure(row: dict[str, str], shots: int) -> str:
    """Why one sweep row fails, or "" when it passes."""
    try:
        exact = float(row["signal_exact"])
        mc = float(row["signal_mc"])
        theory = float(row["theory"])
    except (KeyError, TypeError, ValueError):
        return f"unreadable row {row}"
    if abs(exact - theory) > EXACT_TOL:
        return f"signal_exact {exact!r} != theory {theory!r}"
    if row["mode"] == "protected" and max(abs(exact - 1.0), abs(theory - 1.0)) > EXACT_TOL:
        return f"protected signal {exact!r} / theory {theory!r} != 1"
    if abs(mc) > 1.0 + FLOOR:
        return f"|signal_mc| = {abs(mc)!r} > 1"
    if not mc_consistent(mc, exact, shots):
        return f"signal_mc {mc!r} outside shot noise of {exact!r} at {shots} shots"
    return ""


def check_sweep(text: str, cells: int, shots: int) -> Verdict:
    """Check a ``dfsim run`` CSV that should hold ``cells`` rows of ``shots`` shots."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != CSV_HEADER:
        return Verdict(cells, cells, f"header {reader.fieldnames}")
    rows = list(reader)
    bad = [r for r in (cell_failure(row, shots) for row in rows) if r]
    failed = min(cells, len(bad) + abs(len(rows) - cells))
    if len(rows) != cells:
        return Verdict(cells, failed, f"{len(rows)} rows for {cells} cells")
    return Verdict(cells, failed, bad[0] if bad else "")


def check_verify(text: str) -> Verdict:
    """Check a ``dfsim verify`` report: one PASS or FAIL line per check."""
    status = [line.split(" ", 1) for line in text.splitlines() if line.startswith(("PASS ", "FAIL "))]
    if not status:
        return Verdict(1, 1, "no check lines")
    failures = [rest for word, rest in status if word == "FAIL"]
    return Verdict(len(status), len(failures), failures[0] if failures else "")
