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


def own_average_sums(px, a2, g, reduce):
    """The averaging sums of one generator g on its own, as reduce sums
    them (kernel.row_sum or a FlatRows.row_sum): px * f*(a2), with f* from
    star() inside (0, 1) and f_inf at the endpoints, sharing nothing with
    another generator.  An independent form of px * star_extended(g, a2)."""
    from divbound.generators import star

    def term(px, a2):
        row = np.full(a2.shape, g.f_infinity)
        inner = (a2 != 0.0) & (a2 != 1.0)
        row[inner] = star(g, a2[inner])
        return px * row

    return reduce(term, px, a2)


def assert_one_pass_is_each_own(px, a2, gens, reduce):
    """posterior_averages of gens in one pass equals, bit for bit, each
    generator's own_average_sums and its px * star_extended(g, a2) sums;
    and the cell pass inside (0, 1) is each generator's own, as
    assert_cell_rows_are_each_own checks it."""
    from divbound.bounds import posterior_averages
    from divbound.generators import star_extended

    averages = posterior_averages(px, a2, gens, reduce)
    assert list(averages) == list(dict.fromkeys(g.key for g in gens))
    for g in gens:
        own = own_average_sums(px, a2, g, reduce)
        alone = reduce(lambda px, a2: px * star_extended(g, a2), px, a2)
        got = np.asarray(averages[g.key])
        assert got.tobytes() == np.asarray(own).tobytes() == np.asarray(alone).tobytes(), g.key
    x = a2[(a2 != 0.0) & (a2 != 1.0)]
    assert_cell_rows_are_each_own(1.0 - x, x, gens)


def _counted_generators(mp, keys, cells):
    """(generators, calls, shared, seen): the generators of keys, made by a
    fresh _build cache whose base and family bodies are wrapped to count
    their calls on `cells` points (not a mirrored call on fewer) by name (a
    base's tag, a family member's key) in `calls`, to collect in `shared`
    each list of shared terms handed to an xi form, and in `seen` a weak
    reference to each array they are called on.  Each wrapper's name is
    its .name; the process's own cache is untouched."""
    import collections
    import functools
    import operator
    import weakref

    from divbound import generators
    from divbound.measures import MeasureId

    calls, shared, seen = collections.Counter(), [], []

    def counting(fn, name):
        def counted(u, *share):
            calls[name] += np.size(u) == cells
            shared.extend(share)
            seen.append(weakref.ref(u))
            return fn(u, *share)

        counted.name = name
        return counted

    def family(tag, make):
        return lambda s, power=operator.pow: counting(make(s, power), f"{tag}:{s!r}")

    bases = {tag: (counting(fn, tag), f_inf) for tag, (fn, f_inf) in generators._BASE_SPECS.items()}
    mp.setattr(generators, "_BASE_SPECS", bases)
    mp.setattr(generators, "_FAMILY_FNS", {t: family(t, m) for t, m in generators._FAMILY_FNS.items()})
    mp.setattr(generators, "_build", functools.lru_cache(maxsize=None)(generators._build.__wrapped__))
    return [generators.generator(MeasureId.parse(key)) for key in keys], calls, shared, seen


def assert_cell_rows_are_each_own(p, q, gens):
    """One generators._cell_rows pass over gens on one leaf of cells: each
    row is _csiszar_term of its generator alone, bit for bit; the pass
    evaluates each distinct function once on the cells (a difference's
    bases included, counted through wrapped base and family bodies; a
    mirrored cell is evaluated again); and once the pass is done, the list
    of terms the xi orders share is empty and, with no garbage collection,
    every array it evaluated a function on is freed."""
    import gc

    from divbound import generators
    from divbound.measures import _DIFF_COMBOS

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for g, row in zip(gens, generators._cell_rows(p, q, gens), strict=True):
            assert row.tobytes() == generators._csiszar_term(p, q, g.fn).tobytes(), g.key
        with pytest.MonkeyPatch.context() as mp:
            counted, calls, shared, seen = _counted_generators(mp, [g.key for g in gens], p.size)
            gc.disable()
            try:
                assert sum(1 for _ in generators._cell_rows(p, q, counted)) == len(gens)
            finally:
                gc.enable()
            bases = {tag: fn for tag, (fn, _) in generators._BASE_SPECS.items()}
    names = {
        fn.name
        for g in counted
        for fn in ([bases[t] for _, t in _DIFF_COMBOS[g.key]] if g.key in _DIFF_COMBOS else [g.fn])
    }
    assert calls == dict.fromkeys(names, 1)
    assert not any(shared)
    assert seen and not any(ref() is not None for ref in seen)


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
