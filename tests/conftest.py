import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))  # for oracle_reference

import divbound
from divbound import STRICT, validate

settings.register_profile(
    "divbound",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("divbound")


def make_pair(rng: np.random.Generator, n: int):
    """Strict random pair: normalised exponentials of standard normals."""
    out = []
    for _ in range(2):
        w = np.exp(rng.standard_normal(n))
        out.append(validate(w / w.sum(), STRICT))
    return out[0], out[1]


def column_entries(rows, j: int):
    """The BoundEntry of problem j in each of report_rows' rows, its note
    looked up from its code."""
    from divbound.bounds import NOTES, BoundEntry

    return tuple(
        BoundEntry(name, kind, values[j].item(), applicable[j].item(), NOTES[codes[j]])
        for name, kind, values, applicable, codes in rows
    )


def set_cpus(monkeypatch, count: int):
    """Make `count` CPUs usable, for row_sum's helper threads and verify's workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def canonical_pair():
    """The worked example pair used throughout the frozen-value tests."""
    return validate([0.5, 0.5]), validate([0.25, 0.75])


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session", autouse=True)
def subprocesses_import_this_divbound():
    """CLI subprocesses import the divbound the tests import, wherever it is."""
    here = str(Path(divbound.__file__).resolve().parent.parent)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")])))
        yield
