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
def passes(monkeypatch):
    """The cell passes made while the test runs, in order, each as (the
    module that defines its term, the number of rows of terms it summed).
    It records row_sum where measures, generators and bounds look it up,
    and kernel.FlatRows.row_sum.  A term that returns one array sums 1 row;
    one that yields rows gets a leading entry per row in the sums."""
    from divbound import bounds, generators, kernel, measures

    made = []

    def recording(row_sum, at):  # at: the index of the term in row_sum's arguments
        def recorded(*args):
            sums = row_sum(*args)
            term, p = args[at : at + 2]
            # the sums of one row of terms: a float for a vector, and one
            # per pair for an (m, n) block or the buffers of a FlatRows layout
            one_row = 1 if at else p.ndim - 1
            rows = len(sums) if np.ndim(sums) > one_row else 1
            made.append((term.__module__.rpartition(".")[2], rows))
            return sums

        return recorded

    for module in (measures, generators, bounds):
        monkeypatch.setattr(module, "row_sum", recording(module.row_sum, 0))
    monkeypatch.setattr(kernel.FlatRows, "row_sum", recording(kernel.FlatRows.row_sum, 1))
    return made


def catalog_passes():
    """The passes that one pair, or one block of pairs, makes for its two
    chains, its catalog measures and its catalog Csiszar sums: one for the
    seven base sums, one for the six family members of the catalog (each at
    a regular order) and one for the Csiszar table."""
    from divbound.generators import CATALOG_KEYS
    from divbound.measures import BASE_TAGS

    families = [key for key in CATALOG_KEYS if key.s is not None]
    return [
        ("measures", len(BASE_TAGS)),
        ("measures", len(families)),
        ("generators", len(CATALOG_KEYS)),
    ]


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
