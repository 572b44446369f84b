"""Tests for the perf-trajectory distiller (``benchmarks/record.py``)."""

from __future__ import annotations

import json
import platform

import numpy as np

from benchmarks.record import distill, main
from repro.nn import blas


def _raw_report():
    return {
        "machine_info": {"machine": "x86_64", "cpu": {"count": 4}},
        "benchmarks": [
            {
                "name": "test_zeta",
                "stats": {"median": 0.25},
                "extra_info": {},
            },
            {
                "name": "test_alpha",
                "stats": {"median": 1.5},
                "extra_info": {"param_dim": 1_000_000, "rows": [{"x": 1}]},
            },
        ],
    }


class TestDistill:
    def test_rows_are_sorted_and_minimal(self):
        records = distill(_raw_report())
        assert records == [
            {"op": "test_alpha", "median": 1.5, "param_dim": 1_000_000},
            {"op": "test_zeta", "median": 0.25, "param_dim": None},
        ]

    def test_empty_report_distills_to_nothing(self):
        assert distill({"benchmarks": []}) == []

    def test_ledger_bytes_survive_distillation(self):
        raw = _raw_report()
        raw["benchmarks"][0]["extra_info"]["ledger_bytes"] = 123_456
        records = distill(raw)
        by_op = {r["op"]: r for r in records}
        assert by_op["test_zeta"]["ledger_bytes"] == 123_456
        # Benches without a ledger stay minimal — no null-padded key.
        assert "ledger_bytes" not in by_op["test_alpha"]


class TestMain:
    def test_writes_bench_record(self, tmp_path, capsys):
        report = tmp_path / "raw.json"
        report.write_text(json.dumps(_raw_report()))
        out = tmp_path / "BENCH_7.json"
        assert main([str(report), "--pr", "7", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["pr"] == 7
        assert payload["cpu_count"] == 4
        assert payload["machine"] == "x86_64"
        assert [r["op"] for r in payload["records"]] == ["test_alpha", "test_zeta"]
        assert "Wrote" in capsys.readouterr().out

    def test_record_carries_the_blas_fingerprint(self, tmp_path):
        report = tmp_path / "raw.json"
        report.write_text(json.dumps(_raw_report()))
        out = tmp_path / "BENCH_7.json"
        assert main([str(report), "--pr", "7", "--out", str(out)]) == 0
        fingerprint = json.loads(out.read_text())["fingerprint"]
        assert fingerprint == blas.fingerprint()
        assert fingerprint["python"] == platform.python_version()
        assert fingerprint["numpy"] == np.__version__
        assert set(fingerprint) == {
            "python", "numpy", "blas_config", "blas_threads",
            "training_scope_active",
        }
        assert fingerprint["training_scope_active"] is False
        if fingerprint["blas_config"] is not None:
            assert fingerprint["blas_config"].startswith("OpenBLAS")
            assert fingerprint["blas_threads"] >= 1
        else:
            assert fingerprint["blas_threads"] is None

    def test_default_output_name_carries_pr(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report = tmp_path / "raw.json"
        report.write_text(json.dumps(_raw_report()))
        assert main([str(report), "--pr", "12"]) == 0
        assert json.loads((tmp_path / "BENCH_12.json").read_text())["pr"] == 12

    def test_empty_report_fails(self, tmp_path, capsys):
        report = tmp_path / "raw.json"
        report.write_text(json.dumps({"benchmarks": []}))
        assert main([str(report), "--pr", "4"]) == 2
        assert "no benchmarks" in capsys.readouterr().err


class TestCompare:
    def _baseline(self):
        return {
            "pr": 4,
            "cpu_count": 4,
            "records": [
                {"op": "test_alpha", "median": 1.0, "param_dim": 100},
                {"op": "test_gone", "median": 0.5, "param_dim": None},
            ],
        }

    def _fresh_report(self, alpha_median):
        return {
            "machine_info": {},
            "benchmarks": [
                {"name": "test_alpha", "stats": {"median": alpha_median}, "extra_info": {}},
                {"name": "test_new", "stats": {"median": 2.0}, "extra_info": {}},
            ],
        }

    def test_compare_rows_and_regressions(self):
        from benchmarks.record import compare, distill

        rows, regressions = compare(
            distill(self._fresh_report(1.5)), self._baseline()["records"], 0.25
        )
        by_op = {row["op"]: row for row in rows}
        assert by_op["test_alpha"]["delta"] == "+50.0%"
        assert by_op["test_new"]["delta"] == "new"
        assert by_op["test_gone"]["delta"] == "removed"
        assert regressions == ["test_alpha: +50.0% vs baseline"]

    def test_within_threshold_is_not_a_regression(self):
        from benchmarks.record import compare, distill

        _rows, regressions = compare(
            distill(self._fresh_report(1.2)), self._baseline()["records"], 0.25
        )
        assert regressions == []

    def test_compare_mode_warns_but_exits_zero(self, tmp_path, capsys):
        from benchmarks.record import main

        report = tmp_path / "raw.json"
        report.write_text(json.dumps(self._fresh_report(2.0)))
        baseline = tmp_path / "BENCH_4.json"
        baseline.write_text(json.dumps(self._baseline()))
        assert main(["compare", str(report), "--against", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "WARNING: perf regression test_alpha" in out
        assert "removed" in out and "new" in out

    def test_warn_pct_default_is_25(self, tmp_path, capsys):
        from benchmarks.record import main

        report = tmp_path / "raw.json"
        report.write_text(json.dumps(self._fresh_report(1.2)))
        baseline = tmp_path / "BENCH_4.json"
        baseline.write_text(json.dumps(self._baseline()))
        assert main(["compare", str(report), "--against", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "WARNING" not in out
        assert "No regressions above 25%." in out

    def test_warn_pct_tightens_the_gate(self, tmp_path, capsys):
        from benchmarks.record import main

        report = tmp_path / "raw.json"
        report.write_text(json.dumps(self._fresh_report(1.2)))
        baseline = tmp_path / "BENCH_4.json"
        baseline.write_text(json.dumps(self._baseline()))
        rc = main(
            ["compare", str(report), "--against", str(baseline), "--warn-pct", "10"]
        )
        assert rc == 0
        assert "WARNING: perf regression test_alpha" in capsys.readouterr().out

    def test_deprecated_threshold_wins_over_warn_pct(self, tmp_path, capsys):
        from benchmarks.record import main

        report = tmp_path / "raw.json"
        report.write_text(json.dumps(self._fresh_report(1.2)))
        baseline = tmp_path / "BENCH_4.json"
        baseline.write_text(json.dumps(self._baseline()))
        rc = main(
            ["compare", str(report), "--against", str(baseline),
             "--warn-pct", "50", "--threshold", "0.1"]
        )
        assert rc == 0
        assert "WARNING: perf regression test_alpha" in capsys.readouterr().out

    def test_compare_against_latest_committed(self, tmp_path, capsys, monkeypatch):
        from benchmarks import record
        from benchmarks.record import main

        report = tmp_path / "raw.json"
        report.write_text(json.dumps(self._fresh_report(1.0)))
        (tmp_path / "BENCH_3.json").write_text(json.dumps({"records": [], "cpu_count": 1}))
        (tmp_path / "BENCH_11.json").write_text(json.dumps(self._baseline()))
        found = record.latest_committed_record(tmp_path)
        assert found[0] == 11
        assert main(["compare", str(report), "--against", str(tmp_path / "BENCH_11.json")]) == 0
        assert "No regressions" in capsys.readouterr().out


class TestCompareGracefulDegrade:
    """``compare`` must degrade to a notice + exit 0 when there is nothing
    usable to compare against — CI runs it unconditionally, so a thin or
    missing trajectory must never fail the build."""

    def _fresh(self, tmp_path):
        report = tmp_path / "raw.json"
        report.write_text(
            json.dumps(
                {
                    "machine_info": {},
                    "benchmarks": [
                        {"name": "test_a", "stats": {"median": 1.0}, "extra_info": {}}
                    ],
                }
            )
        )
        return report

    def test_missing_against_file_skips_cleanly(self, tmp_path, capsys):
        report = self._fresh(tmp_path)
        missing = tmp_path / "BENCH_99.json"
        assert main(["compare", str(report), "--against", str(missing)]) == 0
        out = capsys.readouterr().out
        assert "does not exist" in out and "skipping" in out

    def test_empty_records_baseline_skips_cleanly(self, tmp_path, capsys):
        report = self._fresh(tmp_path)
        for payload in ({"records": []}, {"pr": 3, "cpu_count": 1}):
            baseline = tmp_path / "BENCH_3.json"
            baseline.write_text(json.dumps(payload))
            assert main(["compare", str(report), "--against", str(baseline)]) == 0
            out = capsys.readouterr().out
            assert "records no benchmarks" in out and "skipping" in out

    def test_no_committed_trajectory_skips_cleanly(self, tmp_path, capsys, monkeypatch):
        from benchmarks import record

        report = self._fresh(tmp_path)
        monkeypatch.setattr(record, "latest_committed_record", lambda root: None)
        assert main(["compare", str(report)]) == 0
        assert "no committed BENCH" in capsys.readouterr().out
