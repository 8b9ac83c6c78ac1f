import math

import pytest
from hypothesis import given, strategies as st

from divbound.formats import (
    S_GRID_MAX_POINTS,
    ParseFailure,
    fmt_real,
    parse_problem_text,
    parse_s_grid,
    parse_vector_text,
    render_rows,
)


class TestRealSerialization:
    def test_special_values(self):
        assert fmt_real(math.inf) == "inf"
        assert fmt_real(-math.inf) == "-inf"
        assert fmt_real(math.nan) == "nan"
        assert math.isinf(float(fmt_real(math.inf)))

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip_exact(self, x):
        assert float(fmt_real(x)) == x

    def test_shortest_representation(self):
        assert fmt_real(0.1) == "0.1"
        assert fmt_real(0.2) == "0.2"


class TestVectorParsing:
    def test_comments_and_whitespace(self):
        text = "# heading\n0.5 0.25  # trailing\n\n0.25\n"
        assert parse_vector_text(text) == [0.5, 0.25, 0.25]

    def test_bad_token_addressed(self):
        with pytest.raises(ParseFailure, match=r"vec.txt:2"):
            parse_vector_text("0.5\n0.x5\n", source="vec.txt")

    def test_empty_rejected(self):
        with pytest.raises(ParseFailure):
            parse_vector_text("# nothing\n")


class TestProblemParsing:
    GOOD = "label: demo\npriors: 0.5 0.5\ncond1: 0.8 0.2\ncond2: 0.2 0.8\n"

    def test_good_file(self):
        fields = parse_problem_text(self.GOOD)
        assert fields["label"] == "demo"
        assert fields["priors"] == [0.5, 0.5]
        assert fields["cond1"] == [0.8, 0.2]

    def test_missing_field(self):
        with pytest.raises(ParseFailure, match="cond2"):
            parse_problem_text("priors: 0.5 0.5\ncond1: 1.0\n")

    def test_duplicate_field(self):
        with pytest.raises(ParseFailure, match="duplicate"):
            parse_problem_text(self.GOOD + "priors: 0.4 0.6\n")

    def test_unknown_field_addressed(self):
        with pytest.raises(ParseFailure, match=r"p.txt:1"):
            parse_problem_text("wat: 1\n" + self.GOOD, source="p.txt")

    def test_bad_number(self):
        with pytest.raises(ParseFailure, match="cond1"):
            parse_problem_text("priors: 0.5 0.5\ncond1: a b\ncond2: 0.5 0.5\n")

    def test_priors_arity(self):
        with pytest.raises(ParseFailure, match="priors"):
            parse_problem_text("priors: 0.5\ncond1: 1.0\ncond2: 1.0\n")


class TestSGrid:
    def test_list_form(self):
        assert parse_s_grid("-1,0,0.5,2") == [-1.0, 0.0, 0.5, 2.0]

    def test_range_form_inclusive(self):
        grid = parse_s_grid("-1:1:5")
        assert grid == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_snapping_to_limit_points(self):
        grid = parse_s_grid("0.0000001:1.0000003:2")
        assert grid == [0.0, 1.0]

    def test_range_wider_than_the_double_range(self):
        # b - a overflows: interpolating between the ends keeps every point finite
        assert parse_s_grid("-1e308:1e308:3") == [-1e308, 0.0, 1e308]
        grid = parse_s_grid("-1.7e308:1.7e308:7")
        assert grid[0] == -1.7e308 and grid[-1] == 1.7e308
        assert all(math.isfinite(s) for s in grid) and grid == sorted(grid)

    @pytest.mark.parametrize("spec", ["-1060:-1000:4", "-1100:0.5:12", "-2e154:2e154:5", "0:1e308:3"])
    def test_range_keeps_its_bits_where_the_width_is_finite(self, spec):
        a, b, n = (float(t) for t in spec.split(":"))
        step = (b - a) / (n - 1)
        assert parse_s_grid(spec) == [a + i * step for i in range(int(n))]

    def test_range_errors(self):
        for bad in ("1:0:5", "0:1:1", "0:1", "a:b:3"):
            with pytest.raises(ParseFailure):
                parse_s_grid(bad)

    @pytest.mark.parametrize("spec", ["-inf:1:3", "0:inf:3", "-inf:inf:2", "-1e400:0:3"])
    def test_range_with_an_infinite_end(self, spec):
        with pytest.raises(ParseFailure) as info:
            parse_s_grid(spec)
        assert str(info.value) == f"--s-grid: range spec needs finite ends, got {spec!r}"

    def test_empty_list(self):
        with pytest.raises(ParseFailure):
            parse_s_grid(" , ")

    def test_point_count_limit(self):
        # the limit itself is a grid; one point more is a parse failure
        assert S_GRID_MAX_POINTS == 65536
        assert len(parse_s_grid(f"0:1:{S_GRID_MAX_POINTS}")) == S_GRID_MAX_POINTS
        with pytest.raises(ParseFailure) as info:
            parse_s_grid(f"0:1:{S_GRID_MAX_POINTS + 1}")
        assert str(info.value) == "--s-grid: range spec needs n in [2, 65536], got 65537"


class TestRendering:
    def test_machine_format(self):
        out = render_rows(("a", "b"), [("1", "2"), ("3", "4")], "machine")
        assert out == "a\tb\n1\t2\n3\t4\n"

    def test_table_format_aligned(self):
        out = render_rows(("name", "v"), [("long-name", "1")], "table")
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "---" in lines[1]
        assert lines[2].startswith("long-name")

    def test_unknown_format(self):
        with pytest.raises(ParseFailure):
            render_rows(("a",), [], "yaml")
