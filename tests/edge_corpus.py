"""The hard-edge corpus: named two-class problems at the numeric edges of
the bounds, each checked against a Bayes error recomputed at 50 digits.

    python tests/edge_corpus.py     print each case and what is wrong with it

A case passes when `divbound bounds --format machine` on its problem exits
0 with nothing on stderr and no nan value, and every applicable bound lies
on its side of the 50-digit P_e under the sandwich rule of bound reports
(bounds._sandwich_violated).  tests/test_outcomes.py runs every case.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import tempfile
from pathlib import Path

from mpmath import fsum, mp, mpf

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from divbound.bounds import _sandwich_violated, _slack  # noqa: E402
from divbound.cli import main  # noqa: E402

mp.dps = 50

# name: (priors, cond1, cond2), as a problem file writes them
CASES = {
    # P_e just below 1/2 with equal conditionals, where f* is flat: the
    # inversions stop below P_e (toussaint_inversion at 0.4999997615814209),
    # on the certified side
    "below-root": ("0.4999998 0.5000002", "0.5 0.5", "0.5 0.5"),
}


def oracle_pe(priors: str, cond1: str, cond2: str):
    """sum_i min(pi_1 c1_i, pi_2 c2_i) at 50 digits, each row from its
    exact doubles divided by their exact sum."""

    def row(text: str) -> list:
        values = [mpf(float(v)) for v in text.split()]
        total = fsum(values)
        return [v / total for v in values]

    (pi_1, pi_2), c1, c2 = row(priors), row(cond1), row(cond2)
    return fsum(min(pi_1 * a, pi_2 * b) for a, b in zip(c1, c2))


def findings(name: str) -> list:
    """What is wrong with the case's bound report; empty when it passes."""
    priors, cond1, cond2 = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.txt"
        path.write_text(f"priors: {priors}\ncond1: {cond1}\ncond2: {cond2}\n", encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["bounds", "--problem", str(path), "--format", "machine"])
    found = [f"exit {code}"] if code else []
    if err.getvalue():
        found.append(f"stderr {err.getvalue()!r}")
    pe = float(oracle_pe(priors, cond1, cond2))
    for line in out.getvalue().splitlines()[1:]:
        bound, kind, text, applicable, _note = line.split("\t")
        value = float(text)
        if math.isnan(value):
            found.append(f"{bound} is nan")
        elif applicable == "true" and kind != "exact":
            slack = _slack(kind, value, pe)
            if _sandwich_violated(slack, pe):
                found.append(f"{bound} = {text}: slack {slack!r} against P_e {pe!r}")
    return found


if __name__ == "__main__":
    for case in CASES:
        print(case, "; ".join(findings(case)) or "ok", sep="\t")
