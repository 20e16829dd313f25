from __future__ import annotations

import statistics

import pytest

from sealog.bench import BenchConfig, bench_grid, gen_synthetic, write_synthetic_file
from sealog.errors import InvalidParameter


def test_gen_deterministic_under_seed():
    a = gen_synthetic(1000, 115.08, 5.73, seed=7)
    b = gen_synthetic(1000, 115.08, 5.73, seed=7)
    assert a == b
    assert gen_synthetic(10, seed=8) != gen_synthetic(10, seed=9)


def test_gen_length_statistics_match_target():
    lines = gen_synthetic(100_000, 115.08, 5.73, seed=3)
    mean = statistics.mean(len(line) for line in lines)
    assert abs(mean - 115.08) / 115.08 < 0.02


def test_gen_alert_log_profile():
    lines = gen_synthetic(50_000, 165.27, 38.21, seed=5)
    mean = statistics.mean(len(line) for line in lines)
    sd = statistics.pstdev(len(line) for line in lines)
    assert abs(mean - 165.27) / 165.27 < 0.02
    assert abs(sd - 38.21) / 38.21 < 0.05


def test_gen_lines_are_printable_and_bounded():
    lines = gen_synthetic(2000, 115.08, 5.73, seed=1)
    for line in lines:
        assert 1 <= len(line) <= 64 * 1024
        assert all(0x20 <= byte < 0x7F for byte in line)


def test_gen_rejects_bad_mean():
    with pytest.raises(InvalidParameter):
        gen_synthetic(10, mean_length=0)


def test_write_synthetic_file(tmp_path):
    path = tmp_path / "synthetic.log"
    write_synthetic_file(path, 100, seed=2)
    lines = path.read_bytes().splitlines()
    assert len(lines) == 100
    assert lines == gen_synthetic(100, seed=2)


def test_config_validation():
    with pytest.raises(InvalidParameter):
        BenchConfig(repetitions=2)
    with pytest.raises(InvalidParameter):
        BenchConfig(m_values=(0, 10))


@pytest.fixture(scope="module")
def small_grid_report():
    # Trimmed grid keeps the unit suite fast; the acceptance suite runs the
    # spec-sized grid.
    config = BenchConfig(
        entries=600,
        m_values=(10, 50),
        c_values=(1, 3),
        storage_m_values=(10, 50, 100, 250),
        repetitions=3,
    )
    return bench_grid(config)


def test_grid_cells_all_populated(small_grid_report):
    report = small_grid_report
    assert set(report.block_create) == {10, 50}
    assert set(report.block_verify) == {10, 50}
    assert set(report.group_throughput) == {1, 3}
    assert all(len(v) == 3 for v in report.group_throughput.values())
    assert set(report.sealed_bytes_per_block) == {10, 50, 100, 250}
    assert report.overhead["ratio"] > 0
    assert report.memory_peaks


def test_storage_growth_is_linear(small_grid_report):
    fit = small_grid_report.storage_fit
    assert fit["r_squared"] >= 0.999
    # our format is exactly 292 bytes per record plus a constant envelope
    assert abs(fit["slope"] - 292.0) < 1.0


def test_report_is_json_serializable(small_grid_report):
    import json

    doc = json.dumps(small_grid_report.to_dict())
    assert "storage_fit" in doc
