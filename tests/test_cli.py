import os
import subprocess
import sys

import numpy as np
import pytest

import golden as golden_files
import oracle_reference as oracle
from divbound import bounds as bounds_mod
from divbound import cli
from divbound import verify as verify_mod
from divbound.cli import main
from divbound.distributions import validate
from divbound.formats import S_GRID_MAX_POINTS, fmt_real
from divbound.measures import measure_value


@pytest.fixture
def files(tmp_path):
    p = tmp_path / "p.txt"
    q = tmp_path / "q.txt"
    prob = tmp_path / "prob.txt"
    p.write_text("# P\n0.5 0.5\n")
    q.write_text("0.25 0.75\n")
    prob.write_text("label: flip\npriors: 0.5 0.5\ncond1: 0.8 0.2\ncond2: 0.2 0.8\n")
    return {"p": str(p), "q": str(q), "prob": str(prob), "dir": tmp_path}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeasureCommand:
    def test_machine_output_round_trips_exactly(self, capsys, files):
        code, out, _ = run(
            capsys,
            ["measure", "--p", files["p"], "--q", files["q"], "--measure", "xi:0.5", "--format", "machine"],
        )
        assert code == 0
        header, row = out.splitlines()
        assert header == "measure\ts\tvalue"
        tag, s, value = row.split("\t")
        assert (tag, s) == ("xi", "0.5")
        lib = measure_value("xi:0.5", validate([0.5, 0.5]), validate([0.25, 0.75]))
        assert float(value) == lib

    def test_identical_vectors_give_zero(self, capsys, files):
        code, out, _ = run(
            capsys,
            ["measure", "--p", files["p"], "--q", files["p"], "--measure", "J", "--format", "machine"],
        )
        assert code == 0
        assert out.splitlines()[1].split("\t")[2] == "0.0"

    def test_validation_failure_exits_3(self, capsys, files, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.5 0.4\n")
        code, _, err = run(
            capsys, ["measure", "--p", str(bad), "--q", files["q"], "--measure", "J"]
        )
        assert code == 3
        assert "validation" in err

    def test_parse_failure_exits_2(self, capsys, files, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.5 zebra\n")
        code, _, err = run(
            capsys, ["measure", "--p", str(bad), "--q", files["q"], "--measure", "J"]
        )
        assert code == 2

    def test_missing_file_exits_2(self, capsys, files):
        code, _, _ = run(
            capsys,
            ["measure", "--p", "/does/not/exist", "--q", files["q"], "--measure", "J"],
        )
        assert code == 2

    def test_unknown_measure_exits_2(self, capsys, files):
        code, _, err = run(
            capsys, ["measure", "--p", files["p"], "--q", files["q"], "--measure", "wat"]
        )
        assert code == 2
        assert "usage" in err

    def test_unknown_family_exits_2(self, capsys, files):
        code, out, err = run(
            capsys, ["measure", "--p", files["p"], "--q", files["q"], "--measure", "theta:1"]
        )
        assert (code, out, err) == (
            2, "", "usage error: unknown family 'theta' in measure spec 'theta:1'\n"
        )

    def test_flagged_infinity_prints_inf(self, capsys, files, tmp_path):
        z = tmp_path / "z.txt"
        z.write_text("0.0 1.0\n")
        code, out, _ = run(
            capsys,
            [
                "measure", "--p", str(z), "--q", files["q"],
                "--measure", "J", "--mode", "permissive", "--format", "machine",
            ],
        )
        assert code == 0
        assert out.splitlines()[1].split("\t")[2] == "inf"

    def test_negative_entry_is_echoed_as_a_float(self, capsys, files, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.5 -0.5 1.0\n")
        code, out, err = run(
            capsys, ["measure", "--p", str(bad), "--q", files["q"], "--measure", "J"]
        )
        assert (code, out, err) == (3, "", "validation error: entry 1 is negative (-0.5)\n")

    def test_strict_mode_rejects_zeros(self, capsys, files, tmp_path):
        z = tmp_path / "z.txt"
        z.write_text("0.0 1.0\n")
        code, _, _ = run(
            capsys, ["measure", "--p", str(z), "--q", files["q"], "--measure", "J"]
        )
        assert code == 3


class TestBoundsCommand:
    def test_flip_problem_report(self, capsys, files):
        code, out, err = run(
            capsys,
            ["bounds", "--problem", files["prob"], "--s-grid=-1,0,0.5", "--format", "machine"],
        )
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "name\tkind\tvalue\tapplicable\tnote"
        cells = {row.split("\t")[0]: row.split("\t") for row in lines[1:]}
        assert float(cells["bayes_error"][2]) == pytest.approx(0.2, abs=1e-15)
        assert float(cells["toussaint_inversion"][2]) == pytest.approx(0.2, abs=1e-9)
        assert float(cells["xi_upper(s=-1.0)"][2]) == pytest.approx(0.32, rel=1e-12)
        assert cells["zeta_upper(s=0.0)"][3] == "false"

    def test_identical_conditionals(self, capsys, tmp_path):
        f = tmp_path / "prob.txt"
        f.write_text("priors: 0.7 0.3\ncond1: 0.4 0.6\ncond2: 0.4 0.6\n")
        code, out, _ = run(capsys, ["bounds", "--problem", str(f), "--format", "machine"])
        assert code == 0
        exact = [r for r in out.splitlines() if r.startswith("bayes_error")][0]
        assert float(exact.split("\t")[2]) == pytest.approx(0.3, abs=1e-15)

    def test_invalid_problem_exits_3(self, capsys, tmp_path):
        f = tmp_path / "prob.txt"
        f.write_text("priors: 0.7 0.4\ncond1: 0.4 0.6\ncond2: 0.4 0.6\n")
        code, _, _ = run(capsys, ["bounds", "--problem", str(f)])
        assert code == 3

    def test_negative_conditional_is_echoed_as_a_float(self, capsys, tmp_path):
        f = tmp_path / "prob.txt"
        f.write_text("priors: 0.5 0.5\ncond1: 0.4 0.6\ncond2: 1.2 -0.2\n")
        code, out, err = run(capsys, ["bounds", "--problem", str(f)])
        assert (code, out, err) == (3, "", "validation error: entry 1 is negative (-0.2)\n")

    def test_non_finite_priors_exit_3(self, capsys, tmp_path):
        f = tmp_path / "prob.txt"
        f.write_text("priors: nan nan\ncond1: 0.4 0.6\ncond2: 0.4 0.6\n")
        code, out, err = run(capsys, ["bounds", "--problem", str(f)])
        assert (code, out, err) == (3, "", "validation error: priors must be finite\n")

    @pytest.mark.filterwarnings("error")
    def test_overflowed_posterior_ratio_exits_0_quietly(self, capsys, tmp_path):
        # at a2 ~ 2e-310, (1 - a)/a overflows: f* is the mirrored cell there,
        # so every average is a number and the sandwich holds (exit 0)
        f = tmp_path / "prob.txt"
        f.write_text("priors: 0.5 0.5\ncond1: 0.5 0.5\ncond2: 1.0 1e-310\n")
        code, out, err = run(capsys, ["bounds", "--problem", str(f)])
        assert (code, err) == (0, "")
        assert "nan" not in out

    def test_bad_grid_list_exits_2(self, capsys, files):
        code, out, err = run(capsys, ["bounds", "--problem", files["prob"], "--s-grid=0.5,abc"])
        assert (code, out, err) == (2, "", "parse error: --s-grid: bad grid list '0.5,abc'\n")

    def test_grid_past_the_point_limit_exits_2(self, capsys, files):
        grid = f"0:1:{S_GRID_MAX_POINTS + 1}"
        code, out, err = run(capsys, ["bounds", "--problem", files["prob"], f"--s-grid={grid}"])
        want = f"parse error: --s-grid: range spec needs n in [2, 65536], got {S_GRID_MAX_POINTS + 1}\n"
        assert (code, out, err) == (2, "", want)

    @pytest.mark.parametrize(
        "grid,err",
        [
            ("-inf:1:3", "parse error: --s-grid: range spec needs finite ends, got '-inf:1:3'"),
            ("0:inf:3", "parse error: --s-grid: range spec needs finite ends, got '0:inf:3'"),
            ("inf,0.5", "usage error: order parameter must be finite, got inf"),
        ],
    )
    def test_infinite_grid_order_exits_2(self, capsys, files, grid, err):
        # the error names the value given, not a nan made from it
        got = run(capsys, ["bounds", "--problem", files["prob"], f"--s-grid={grid}"])
        assert got == (2, "", err + "\n")

    def test_sandwich_violation_exits_1(self, capsys, monkeypatch, files):
        # a negative tolerance counts every applicable bound as a violation
        argv = ["bounds", "--problem", files["prob"], "--format", "machine"]
        code, plain, err = run(capsys, argv)
        assert (code, err) == (0, "")
        monkeypatch.setattr(bounds_mod, "SANDWICH_TOL", -1.0)
        flip = bounds_mod.TwoClassProblem.from_arrays((0.5, 0.5), [0.8, 0.2], [0.2, 0.8])
        report = bounds_mod.bound_report(flip)
        violations = report.sandwich_violations()
        assert [name for name, _ in violations] == [e.name for e in report.entries if e.applicable]
        code, out, err = run(capsys, argv)
        assert (code, out) == (cli.EXIT_VIOLATION, plain)
        assert err == "".join(
            f"sandwich violation: {name} slack={fmt_real(slack)}\n" for name, slack in violations
        )


class TestSweepCommand:
    def test_xi_sweep_has_frozen_upper_at_zero(self, capsys, files):
        code, out, _ = run(
            capsys,
            ["sweep", "--problem", files["prob"], "--family", "xi", "--s-grid=-1:0.9:20", "--format", "machine"],
        )
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        at_zero = [r for r in rows if r[0] == "0.0"]
        assert len(at_zero) == 1
        prob = bounds_mod.TwoClassProblem.from_arrays((0.5, 0.5), [0.8, 0.2], [0.2, 0.8])
        assert float(at_zero[0][3]) == bounds_mod.upper_bound_xi(prob, 0.0)

    def test_zeta_sweep_marks_limit_rows_na(self, capsys, files):
        code, out, _ = run(
            capsys,
            ["sweep", "--problem", files["prob"], "--family", "zeta", "--s-grid=0:1:3", "--format", "machine"],
        )
        assert code == 0
        rows = {r.split("\t")[0]: r.split("\t") for r in out.splitlines()[1:]}
        assert rows["0.0"][3] == "n/a"
        assert rows["1.0"][3] == "n/a"
        assert rows["0.5"][3] != "n/a"

    def test_degenerate_lower_column_constant_half(self, capsys, tmp_path):
        f = tmp_path / "prob.txt"
        f.write_text("priors: 0.5 0.5\ncond1: 0.4 0.6\ncond2: 0.4 0.6\n")
        code, out, _ = run(
            capsys,
            ["sweep", "--problem", str(f), "--family", "xi", "--s-grid=-1:0.5:4", "--format", "machine"],
        )
        assert code == 0
        for row in out.splitlines()[1:]:
            assert row.split("\t")[2] == "0.5"

    def test_sweep_requires_range_spec(self, capsys, files):
        code, _, err = run(
            capsys,
            ["sweep", "--problem", files["prob"], "--family", "xi", "--s-grid=-1,0,1"],
        )
        assert code == 2


def test_bounds_and_sweep_match_golden_file():
    # captured from the per-problem report assembly that report_rows
    # replaced.  numpy's log, exp and power loops give other bits at other
    # SIMD levels, so like the verify golden files these digits may depend
    # on the host: they were taken on x86 with AVX512, and also match with
    # NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"
    golden = golden_files.DATA / "bounds_sweep_machine.txt"
    transcript = golden_files.bounds_sweep_transcript()
    assert transcript == golden.read_text(encoding="utf-8"), golden_files.numpy_runtime()


def test_measure_matches_golden_file():
    # the absolute bits of every catalog measure and of the family orders
    # whose powers overflow; like the other golden files these digits may
    # depend on numpy's SIMD level (taken on x86 with AVX512)
    golden = golden_files.DATA / "measure_machine.txt"
    transcript = golden_files.measure_transcript()
    assert transcript == golden.read_text(encoding="utf-8"), golden_files.numpy_runtime()


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, err = run(
            capsys, ["verify", "--trials", "30", "--seed", "5", "--format", "machine"]
        )
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "suite\tchecks\tfailures\tworst"
        assert len(lines) == 7
        assert all(line.split("\t")[2] == "0" for line in lines[1:])

    def test_deterministic_output(self, capsys):
        argv = ["verify", "--trials", "30", "--seed", "5", "--format", "machine"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_zero_trials_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["verify", "--trials", "0"])
        assert code == 2

    def test_n_max_below_two_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["verify", "--n-max", "1"])
        assert (code, out, err) == (2, "", "usage error: n-max must be in [2, 1048576], got 1\n")

    def test_corruption_hook_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv("DIVBOUND_VERIFY_CORRUPT", "1")
        code, _, err = run(capsys, ["verify", "--trials", "5", "--seed", "3"])
        assert code == 1
        assert "eq7_chain" in err

    def test_machine_output_matches_golden_file(self):
        # captured from the one-trial-at-a-time suites; the blocked engine
        # must reproduce it byte for byte
        name = "verify_10000_seed42_machine.txt"
        run = golden_files.run_verify(golden_files.VERIFY_ARGVS[name])
        assert run.returncode == 0, run.stderr
        assert run.stdout == (golden_files.DATA / name).read_bytes(), golden_files.numpy_runtime()

    def test_long_rows_match_golden_file(self):
        # rows of up to 300 cells, past the 128 cells numpy sums with eight
        # accumulators; captured before the suites were laid out flat
        name = "verify_3000_nmax300_seed5_machine.txt"
        run = golden_files.run_verify(golden_files.VERIFY_ARGVS[name])
        assert run.returncode == 0, run.stderr
        assert run.stdout == (golden_files.DATA / name).read_bytes(), golden_files.numpy_runtime()

    def test_invalid_drawn_row_in_a_worker_exits_4(self, capsys, monkeypatch):
        # unnormalised draws fail the block check in every drawn suite: an
        # internal error, as exit 3 is for user input; from the workers, the
        # first suite's error is shown, as on one CPU
        monkeypatch.setattr(verify_mod, "_softmax_rows", lambda z, rows=None: np.exp(z))
        argv = ["verify", "--trials", "20", "--seed", "5"]
        first = (
            "internal error: RuntimeError: drawn trials 0 to 19: a row is not a positive "
            "distribution summing to 1 within 1e-12"
        )
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            code, out, err = run(capsys, argv)
            assert (code, out, err.splitlines()[0]) == (cli.EXIT_INTERNAL, "", first)

    def test_import_loads_no_process_pool(self):
        code = (
            "import sys, divbound.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr

    def test_parallel_verify_loads_no_process_pool(self):
        # the workers are forked with os.fork, not through multiprocessing
        code = (
            "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
            "from divbound import cli, verify; "
            "assert verify._worker_count() == 2; "
            "code = cli.main(['verify', '--trials', '100', '--format', 'machine']); "
            "print(code, [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert (run.returncode, run.stdout.splitlines()[-1]) == (0, "0 []"), run.stderr

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("DIVBOUND_SEED", "5")
        _, out_env, _ = run(capsys, ["verify", "--trials", "30", "--format", "machine"])
        monkeypatch.delenv("DIVBOUND_SEED")
        _, out_explicit, _ = run(
            capsys, ["verify", "--trials", "30", "--seed", "5", "--format", "machine"]
        )
        assert out_env == out_explicit

    @pytest.mark.parametrize("value", ["abc", "4.5", "", "-1"])
    def test_bad_seed_env_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("DIVBOUND_SEED", value)
        code, out, err = run(capsys, ["verify", "--trials", "5"])
        assert code == cli.EXIT_USAGE == 2
        assert out == ""
        assert err == f"usage error: DIVBOUND_SEED must be an integer >= 0, got {value!r}\n"

    def test_negative_seed_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["verify", "--trials", "5", "--seed", "-1"])
        assert (code, out, err) == (2, "", "usage error: seed must be >= 0, got -1\n")


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unexpected_exception_exits_4(self, capsys, monkeypatch, files):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._HANDLERS, "measure", boom)
        code, _, err = run(
            capsys, ["measure", "--p", files["p"], "--q", files["q"], "--measure", "J"]
        )
        assert code == cli.EXIT_INTERNAL == 4
        assert err.startswith("internal error: RuntimeError: boom\nTraceback")


# A posterior within 2e-13 of 1 overflows every float power at |s| >= 30.
OVERFLOW_PROBLEM = "priors: 0.5 0.5\ncond1: 0.9999999999999 0.0000000000001\ncond2: 0.5 0.5\n"
# A posterior within 2e-13 of 0, where the direct xi generator form is inf*0.
NEAR_ZERO_PROBLEM = "priors: 0.5 0.5\ncond1: 0.5 0.5\ncond2: 0.0000000000001 0.9999999999999\n"


@pytest.mark.filterwarnings("error")
class TestExtremeOrders:
    """|s| up to 60 at posteriors near 0 or 1: inf and notes, no warning or traceback."""

    @pytest.fixture
    def problem(self, tmp_path):
        def write(text):
            f = tmp_path / "prob.txt"
            f.write_text(text)
            return str(f)

        return write

    @pytest.mark.parametrize(
        "family,text",
        [("zeta", OVERFLOW_PROBLEM), ("xi", OVERFLOW_PROBLEM), ("xi", NEAR_ZERO_PROBLEM)],
    )
    def test_sweep(self, capsys, problem, family, text):
        code, out, err = run(
            capsys,
            ["sweep", "--problem", problem(text), "--family", family,
             "--s-grid=-60:60:5", "--format", "machine"],
        )
        assert (code, err) == (0, "")
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert [r[0] for r in rows] == ["-60.0", "-30.0", "0.0", "30.0", "60.0"]
        assert "nan" not in out
        for _s, averaged, lower, _upper in rows:
            if averaged == "inf":
                assert lower == "0.0"
            else:
                assert 0.0 < float(lower) <= 0.5
        assert rows[-1][1] == "inf"  # s = 60 overflows in both families

    def test_bounds(self, capsys, problem):
        code, out, err = run(
            capsys,
            ["bounds", "--problem", problem(OVERFLOW_PROBLEM), "--s-grid=-60,0.5",
             "--format", "machine"],
        )
        assert (code, err) == (0, "")
        assert "nan" not in out
        cells = {row.split("\t")[0]: row.split("\t") for row in out.splitlines()[1:]}
        _, _, value, applicable, note = cells["zeta_lower(s=-60.0)"]
        assert (value, applicable) == ("0.0", "true")
        assert "vacuous" in note
        assert cells["zeta_upper(s=-60.0)"][4] == "zeta upper bound requires 0 < s < 1 strictly"

    @pytest.mark.parametrize("spec", ["zeta:-60", "xi:60"])
    def test_measure_overflow_prints_inf(self, capsys, tmp_path, spec):
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        p.write_text("0.9999999999999 0.0000000000001\n")
        q.write_text("0.5 0.5\n")
        code, out, err = run(
            capsys,
            ["measure", "--p", str(p), "--q", str(q), "--measure", spec, "--format", "machine"],
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1].split("\t")[2] == "inf"

    @pytest.mark.parametrize("spec", ["zeta:2e154", "xi:2e154", "zeta:1e308", "xi:-1e308"])
    def test_measure_order_product_overflow_prints_inf(self, capsys, tmp_path, spec):
        # s(s-1) overflows to inf at these orders; inf/inf would print nan
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        p.write_text("0.3 0.7\n")
        q.write_text("0.6 0.4\n")
        code, out, err = run(
            capsys,
            ["measure", "--p", str(p), "--q", str(q), "--measure", spec, "--format", "machine"],
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1].split("\t")[2] == "inf"

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--s-grid=-1100"],
            ["bounds", "--s-grid=2e154"],
            ["bounds", "--s-grid=-2e154"],
            ["sweep", "--family", "xi", "--s-grid=-2000:-1000:3"],
            ["sweep", "--family", "zeta", "--s-grid=-2000:-1000:3"],
        ],
    )
    def test_orders_past_the_double_range(self, capsys, problem, argv):
        # 2^(-s) overflows below s = -1024 and s(s-1) above |s| = 1.34e154
        text = "priors: 0.5 0.5\ncond1: 0.3 0.7\ncond2: 0.6 0.4\n"
        code, out, err = run(
            capsys, argv[:1] + ["--problem", problem(text)] + argv[1:] + ["--format", "machine"]
        )
        assert (code, err) == (0, "")
        assert "nan" not in out
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        if argv[0] == "bounds":
            lower = [r for r in rows if r[0].startswith(("zeta_lower", "xi_lower"))]
            for _name, _kind, value, applicable, note in lower:
                assert applicable == "true" and 0.0 <= float(value) <= 0.35
            assert any("vacuous" in r[4] for r in lower)
        else:
            for _s, averaged, lower, _upper in rows:
                assert float(averaged) > 0.0 and 0.0 <= float(lower) <= 0.35

    @pytest.mark.parametrize(
        "text,grid",
        [
            ("priors: 0.5 0.5\ncond1: 0.001 0.999\ncond2: 0.5 0.5\n", "-1040,-1045"),
            ("priors: 0.5 0.5\ncond1: 0.3 0.7\ncond2: 0.6 0.4\n", "-1045"),
        ],
    )
    def test_xi_upper_where_the_average_or_twice_f_inf_overflows(self, capsys, problem, text, grid):
        # printed 0.0 or nan below P_e and exited 1
        code, out, err = run(
            capsys, ["bounds", "--problem", problem(text), f"--s-grid={grid}", "--format", "machine"]
        )
        assert (code, err) == (0, "")
        assert "nan" not in out
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        pe = float(rows[0][2])
        for name, kind, value, applicable, note in rows:
            if name.startswith("xi_upper"):
                assert applicable == "true" and float(value) >= pe
                assert float(value) == 0.5 or note == ""

    def test_xi_sweep_where_the_generator_powers_overflow(self, capsys, problem):
        # averaged printed inf, with the vacuous bounds 0 and 1/2
        priors, cond1, cond2 = (0.5, 0.5), (0.001, 0.999), (0.5, 0.5)
        text = "priors: 0.5 0.5\ncond1: 0.001 0.999\ncond2: 0.5 0.5\n"
        code, out, err = run(
            capsys,
            ["sweep", "--problem", problem(text), "--family", "xi", "--s-grid=-1044:-1026:7",
             "--format", "machine"],
        )
        assert (code, err) == (0, "")
        pe = 0.2505
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert [float(r[0]) for r in rows] == [-1044.0 + 3.0 * i for i in range(7)]
        for s, averaged, lower, upper in rows:
            want = float(oracle.averaged_family("xi", float(s), priors, cond1, cond2))
            assert float(averaged) == pytest.approx(want, rel=1e-10)
            assert 0.0 < float(lower) <= pe
            assert pe <= float(upper) <= 0.5

    def test_xi_sweep_where_f_overflows_near_a_zero_posterior(self, capsys, problem):
        # x f((1-x)/x) overflows at the posterior 1e-13 although f*(x) does
        # not: averaged printed inf, with the vacuous bounds 0 and 1/2
        priors, cond1, cond2 = (0.5, 0.5), (0.5, 0.5), (0.0000000000001, 0.9999999999999)
        code, out, err = run(
            capsys,
            ["sweep", "--problem", problem(NEAR_ZERO_PROBLEM), "--family", "xi",
             "--s-grid=-1044:-1000:5", "--format", "machine"],
        )
        assert (code, err) == (0, "")
        pe = 0.5 * 0.0000000000001 + 0.5 * 0.5
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert [float(r[0]) for r in rows] == [-1044.0 + 11.0 * i for i in range(5)]
        for s, averaged, lower, upper in rows:
            want = float(oracle.averaged_family("xi", float(s), priors, cond1, cond2))
            assert float(averaged) == pytest.approx(want, rel=1e-10)
            assert 0.0 < float(lower) <= pe
            assert pe <= float(upper) <= 0.5

    def test_xi_upper_note_past_the_double_range(self, capsys, problem):
        text = "priors: 0.5 0.5\ncond1: 0.3 0.7\ncond2: 0.6 0.4\n"
        code, out, err = run(
            capsys, ["bounds", "--problem", problem(text), "--s-grid=-1100,2", "--format", "machine"]
        )
        assert (code, err) == (0, "")
        cells = {row.split("\t")[0]: row.split("\t") for row in out.splitlines()[1:]}
        assert cells["xi_upper(s=-1100.0)"][3:] == [
            "false", "xi upper bound needs f_inf, which exceeds the double range"
        ]
        assert cells["xi_upper(s=2.0)"][3:] == ["false", "xi upper bound requires s < 1"]

    def test_sweep_grid_wider_than_the_double_range(self, capsys, problem):
        # b - a overflows: the grid was nan and the CLI exited 2
        text = "priors: 0.5 0.5\ncond1: 0.3 0.7\ncond2: 0.6 0.4\n"
        code, out, err = run(
            capsys,
            ["sweep", "--problem", problem(text), "--family", "zeta",
             "--s-grid=-1e308:1e308:3", "--format", "machine"],
        )
        assert (code, err) == (0, "")
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert [r[0] for r in rows] == ["-1e+308", "0.0", "1e+308"]
        assert "nan" not in out

    @pytest.mark.parametrize("spec", ["xi:60", "xi:-60", "zeta:60"])
    def test_measure_small_masses_match_oracle(self, capsys, tmp_path, spec):
        # the direct power form is inf * 0 = nan here; the value must not be
        p_text, q_text = "0.0000000001 0.9999999999", "0.0000000002 0.9999999998"
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        p.write_text(p_text + "\n")
        q.write_text(q_text + "\n")
        code, out, err = run(
            capsys,
            ["measure", "--p", str(p), "--q", str(q), "--measure", spec, "--format", "machine"],
        )
        assert (code, err) == (0, "")
        tag, s = spec.split(":")
        P, Q = ([float(v) for v in text.split()] for text in (p_text, q_text))
        want = float(getattr(oracle, tag)(float(s), P, Q))
        assert float(out.splitlines()[1].split("\t")[2]) == pytest.approx(want, rel=1e-12)
