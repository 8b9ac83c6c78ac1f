"""tests/bench_layers.py, kept runnable: each layer once at toy sizes, and
the tool's own run of one cheap layer."""

import json

import pytest

import bench_layers


@pytest.mark.parametrize("name", list(bench_layers.LAYERS))
def test_each_layer_runs_at_toy_size(name):
    maker, _, toy = bench_layers.LAYERS[name]
    maker(*toy)()


def test_the_layers_are_the_listed_ones():
    assert len(bench_layers.LAYERS) == 18
    assert {"table_pass_n2^20", "report_stage_1_k4096", "sweep_xi_stage_2_k4096",
            "verify_sandwich"} <= set(bench_layers.LAYERS)


def test_a_run_writes_medians_quartiles_and_the_environment(tmp_path):
    out = tmp_path / "bench.json"
    assert bench_layers.main(["report_stage_1_k4", "--out", str(out)]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    (layer,) = result["layers"].values()
    assert layer["repeats"] == bench_layers.REPEATS
    assert 0.0 < layer["q1_s"] <= layer["median_s"] <= layer["q3_s"]
    assert {"cpu_count", "affinity", "python", "numpy", "libc", "numpy_cpu_dispatch"} <= set(
        result["environment"]
    )
    assert 0.0 < bench_layers.import_seconds() < 60.0
    with pytest.raises(SystemExit):
        bench_layers.main(["report_stage_1_k4", "--out", str(out), "--repeats", "3"])
