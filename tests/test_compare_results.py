"""benchmarks/compare_results.py — perf-trajectory regression diffing."""

import importlib.util
import json
import os

import pytest

_MODULE_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "compare_results.py"
)
_spec = importlib.util.spec_from_file_location("compare_results", _MODULE_PATH)
compare_results = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_results)


def payload(rates):
    return {
        "trajectory": [
            {"scenario": name, "offered_load": "max", "instances_per_sec": rate}
            for name, rate in rates.items()
        ]
    }


class TestComparePayloads:
    def test_no_regression_within_threshold(self):
        base = payload({"served": 1000.0, "batched": 2000.0})
        cur = payload({"served": 850.0, "batched": 2100.0})  # -15%, +5%
        assert compare_results.compare_payloads(base, cur) == []

    def test_regression_past_threshold_warns(self):
        base = payload({"served": 1000.0})
        cur = payload({"served": 700.0})  # -30%
        warnings = compare_results.compare_payloads(base, cur)
        assert len(warnings) == 1
        assert "regression" in warnings[0] and "served" in warnings[0]
        assert "30%" in warnings[0]

    def test_missing_scenario_warns(self):
        base = payload({"served": 1000.0, "gone": 500.0})
        cur = payload({"served": 1000.0})
        warnings = compare_results.compare_payloads(base, cur)
        assert len(warnings) == 1 and "missing" in warnings[0]

    def test_custom_threshold(self):
        base = payload({"served": 1000.0})
        cur = payload({"served": 940.0})  # -6%
        assert compare_results.compare_payloads(base, cur, threshold=0.2) == []
        assert len(compare_results.compare_payloads(base, cur, threshold=0.05)) == 1

    def test_scenario_identity_includes_shape_keys(self):
        row = {"scenario": "poisson", "offered_load": "200/s", "shards": 4,
               "instances_per_sec": 10.0}
        key = compare_results._scenario_key(row)
        assert "poisson" in key and "offered_load=200/s" in key and "shards=4" in key

    def test_legacy_flush_deadline_baselines_still_compare(self):
        # Baselines archived while serving had a flush deadline carry it
        # as a column; the key ignores it, so their rows meet today's.
        base = {"trajectory": [
            {"scenario": "served-full-load", "offered_load": "max",
             "flush_deadline": 0.05, "batch_fill_ratio": 1.0,
             "instances_per_sec": 1000.0},
        ]}
        cur = {"trajectory": [
            {"scenario": "served-full-load", "offered_load": "max",
             "batch_fill_ratio": 1.0, "instances_per_sec": 980.0},
        ]}
        key = "served-full-load|offered_load=max"
        assert compare_results.extract_rates(base) == {key: 1000.0}
        assert compare_results.compare_payloads(base, cur) == []
        slower = {"trajectory": [dict(cur["trajectory"][0], instances_per_sec=500.0)]}
        [warning] = compare_results.compare_payloads(base, slower)
        assert "regression" in warning

    def test_rows_without_rate_are_ignored(self):
        base = {"trajectory": [{"scenario": "ref", "instances_per_sec": 0.0},
                               {"scenario": "no-rate"}]}
        assert compare_results.extract_rates(base) == {}


def matrix_payload(cells):
    """An E27-shaped payload: rows live under ``matrix``, keyed by the
    scenario name plus the execution-regime columns."""
    return {
        "matrix": [
            {
                "scenario": scenario,
                "model": "sequential",
                "backend": backend,
                "shards": shards,
                "instances_per_sec": rate,
            }
            for (scenario, backend, shards), rate in cells.items()
        ]
    }


class TestCompareMatrixPayloads:
    def test_matrix_rows_are_extracted(self):
        rates = compare_results.extract_rates(
            matrix_payload({("disjoint-loss", "auto", 0): 500.0})
        )
        assert rates == {
            "disjoint-loss|model=sequential|backend=auto|shards=0": 500.0
        }

    def test_same_scenario_different_cells_are_distinct(self):
        base = matrix_payload({
            ("disjoint-loss", "auto", 0): 1000.0,
            ("disjoint-loss", "auto", 2): 1000.0,
        })
        cur = matrix_payload({
            ("disjoint-loss", "auto", 0): 1000.0,
            ("disjoint-loss", "auto", 2): 500.0,  # only the sharded cell
        })
        warnings = compare_results.compare_payloads(base, cur)
        assert len(warnings) == 1
        assert "shards=2" in warnings[0] and "regression" in warnings[0]

    def test_per_cell_regression_warns(self):
        base = matrix_payload({("churn-heavy", "auto", 0): 2000.0})
        cur = matrix_payload({("churn-heavy", "auto", 0): 1000.0})
        warnings = compare_results.compare_payloads(base, cur)
        assert len(warnings) == 1 and "churn-heavy" in warnings[0]

    def test_mixed_trajectory_and_matrix(self):
        base = payload({"served": 1000.0})
        base["matrix"] = matrix_payload({("zipf-skew", "auto", 0): 800.0})["matrix"]
        cur = payload({"served": 1000.0})
        cur["matrix"] = matrix_payload({("zipf-skew", "auto", 0): 300.0})["matrix"]
        warnings = compare_results.compare_payloads(base, cur)
        assert len(warnings) == 1 and "zipf-skew" in warnings[0]

    def test_default_experiments_include_e27(self):
        assert "E27" in compare_results.DEFAULT_EXPERIMENTS


def fill_payload(fills):
    return {
        "trajectory": [
            {"scenario": name, "batch_fill_ratio": fill}
            for name, fill in fills.items()
        ]
    }


class TestFillColumn:
    def test_fills_are_extracted(self):
        fills = compare_results.extract_fills(
            fill_payload({"served-full-load": 0.95})
        )
        assert fills == {"served-full-load|batch_fill_ratio": 0.95}

    def test_fill_drop_past_threshold_warns(self):
        base = fill_payload({"served": 1.0})
        cur = fill_payload({"served": 0.5})  # the fragmentation regression
        warnings = compare_results.compare_payloads(base, cur)
        assert len(warnings) == 1
        assert "fill-ratio regression" in warnings[0] and "served" in warnings[0]

    def test_fill_drop_within_threshold_is_quiet(self):
        base = fill_payload({"served": 1.0})
        cur = fill_payload({"served": 0.85})  # -15% < 20%
        assert compare_results.compare_payloads(base, cur) == []

    def test_fill_missing_from_current_is_not_flagged(self):
        # older current runs may predate the column
        base = fill_payload({"served": 1.0})
        assert compare_results.compare_payloads(base, {"trajectory": []}) == []

    def test_legacy_ragged_columns_are_not_diffed(self):
        # Baselines archived before the CSR plane became `classes` still
        # carry the E23 ragged_fill column and the E24 ragged_trickle
        # block; neither is compared any more.
        base = {
            "trajectory": [{"family": "ragged/mixed-nu", "ragged_fill": 1.0}],
            "ragged_trickle": {"ragged_rate": 4000.0, "speedup": 2.5},
        }
        cur = {
            "trajectory": [{"family": "ragged/mixed-nu", "ragged_fill": 0.1}],
            "ragged_trickle": {"ragged_rate": 100.0, "speedup": 0.1},
        }
        assert compare_results.extract_fills(base) == {}
        assert compare_results.compare_payloads(base, cur) == []

    def test_family_rows_get_stable_identities(self):
        # E23 trajectory rows key by family + model/backend cells
        row = {"family": "mixed-nu/N2048", "model": "parallel",
               "backend": "classes", "batch_fill_ratio": 1.0}
        fills = compare_results.extract_fills({"trajectory": [row]})
        [key] = fills
        assert "mixed-nu/N2048" in key
        assert "model=parallel" in key and "backend=classes" in key


def span_payload(p99s):
    """A payload shaped like the traced E24/E26 smokes' ``"spans"`` key."""
    return {
        "spans": {
            name: {"count": 10, "p50_s": p99 / 2.0, "p99_s": p99}
            for name, p99 in p99s.items()
        }
    }


class TestCompareSpanPayloads:
    def test_span_p99s_are_extracted(self):
        extracted = compare_results.extract_span_p99s(
            span_payload({"execute": 0.004, "build": 0.001})
        )
        assert extracted == {"execute": 0.004, "build": 0.001}

    def test_malformed_span_entries_are_ignored(self):
        assert compare_results.extract_span_p99s(
            {"spans": {"execute": "oops", "build": {"p99_s": 0.0},
                       "marshal": {"count": 3}}}
        ) == {}
        assert compare_results.extract_span_p99s({}) == {}

    def test_p99_growth_past_threshold_warns(self):
        base = span_payload({"execute": 0.010})
        cur = span_payload({"execute": 0.015})  # +50%
        warnings = compare_results.compare_payloads(base, cur)
        assert len(warnings) == 1
        assert "span p99 regression" in warnings[0]
        assert "execute" in warnings[0] and "+50%" in warnings[0]

    def test_growth_within_threshold_is_quiet(self):
        base = span_payload({"execute": 0.010, "build": 0.002})
        cur = span_payload({"execute": 0.011, "build": 0.002})  # +10%
        assert compare_results.compare_payloads(base, cur) == []

    def test_faster_spans_never_warn(self):
        base = span_payload({"execute": 0.010})
        cur = span_payload({"execute": 0.001})
        assert compare_results.compare_payloads(base, cur) == []

    def test_phase_missing_from_current_is_not_flagged(self):
        # Traced smokes are optional per run — absence is not a regression.
        base = span_payload({"execute": 0.010, "marshal": 0.003})
        cur = span_payload({"execute": 0.010})
        assert compare_results.compare_payloads(base, cur) == []

    def test_span_threshold_reuses_rate_threshold(self):
        base = span_payload({"execute": 0.010})
        cur = span_payload({"execute": 0.0112})  # +12%
        assert compare_results.compare_payloads(base, cur, threshold=0.2) == []
        warnings = compare_results.compare_payloads(base, cur, threshold=0.05)
        assert len(warnings) == 1 and "span p99" in warnings[0]

    def test_rate_and_span_regressions_both_reported(self):
        base = payload({"served": 1000.0})
        base.update(span_payload({"execute": 0.010}))
        cur = payload({"served": 500.0})
        cur.update(span_payload({"execute": 0.030}))
        warnings = compare_results.compare_payloads(base, cur)
        assert len(warnings) == 2
        assert any("throughput regression" in w for w in warnings)
        assert any("span p99 regression" in w for w in warnings)


class TestCompareDirectories:
    @pytest.fixture
    def dirs(self, tmp_path):
        baseline = tmp_path / "baseline"
        current = tmp_path / "current"
        baseline.mkdir()
        current.mkdir()
        return str(baseline), str(current)

    def _write(self, directory, experiment_id, rates):
        with open(os.path.join(directory, f"{experiment_id}.json"), "w") as fh:
            json.dump(payload(rates), fh)

    def test_diffs_only_shared_experiments(self, dirs):
        baseline, current = dirs
        self._write(baseline, "E26", {"sharded": 1000.0})
        self._write(current, "E26", {"sharded": 500.0})
        self._write(current, "E24", {"served": 100.0})  # no baseline: skipped
        warnings = compare_results.compare_directories(baseline, current)
        assert len(warnings) == 1 and warnings[0].startswith("[E26]")

    def test_main_clean_exit(self, dirs, capsys):
        baseline, current = dirs
        self._write(baseline, "E26", {"sharded": 1000.0})
        self._write(current, "E26", {"sharded": 990.0})
        code = compare_results.main(["--baseline", baseline, "--current", current])
        assert code == 0
        assert "no throughput regressions" in capsys.readouterr().out

    def test_main_warns_but_exits_zero(self, dirs, capsys):
        baseline, current = dirs
        self._write(baseline, "E26", {"sharded": 1000.0})
        self._write(current, "E26", {"sharded": 100.0})
        code = compare_results.main(["--baseline", baseline, "--current", current])
        assert code == 0
        assert "WARNING" in capsys.readouterr().err

    def test_main_strict_fails(self, dirs):
        baseline, current = dirs
        self._write(baseline, "E26", {"sharded": 1000.0})
        self._write(current, "E26", {"sharded": 100.0})
        code = compare_results.main(
            ["--baseline", baseline, "--current", current, "--strict"]
        )
        assert code == 1


def analysis_report(counts):
    return {
        "version": 1,
        "files_checked": 200,
        "total": sum(counts.values()),
        "counts": dict(counts),
        "findings": [],
        "parse_errors": [],
    }


class TestCompareAnalysisReports:
    """Finding-count diffing of the make-analyze artifact."""

    def test_equal_counts_stay_quiet(self):
        report = analysis_report({"REP001": 2})
        assert compare_results.compare_analysis_reports(report, report) == []

    def test_growth_warns_per_rule(self):
        warnings = compare_results.compare_analysis_reports(
            analysis_report({"REP001": 2}),
            analysis_report({"REP001": 5, "REP003": 1}),
        )
        assert len(warnings) == 2
        assert "REP001: 2 -> 5" in warnings[0]
        assert "REP003: 0 -> 1" in warnings[1]

    def test_shrinkage_is_progress_not_warning(self):
        warnings = compare_results.compare_analysis_reports(
            analysis_report({"REP001": 5}),
            analysis_report({"REP001": 1}),
        )
        assert warnings == []

    def test_directories_pick_up_the_report(self, tmp_path):
        baseline = tmp_path / "baseline"
        current = tmp_path / "current"
        baseline.mkdir()
        current.mkdir()
        (baseline / "analysis_report.json").write_text(
            json.dumps(analysis_report({})), encoding="utf-8"
        )
        (current / "analysis_report.json").write_text(
            json.dumps(analysis_report({"REP008": 3})), encoding="utf-8"
        )
        warnings = compare_results.compare_directories(str(baseline), str(current))
        assert warnings == ["[analysis] analysis finding growth in REP008: 0 -> 3"]

    def test_missing_report_skips_silently(self, tmp_path):
        baseline = tmp_path / "baseline"
        current = tmp_path / "current"
        baseline.mkdir()
        current.mkdir()
        (current / "analysis_report.json").write_text(
            json.dumps(analysis_report({"REP008": 3})), encoding="utf-8"
        )
        assert compare_results.compare_directories(str(baseline), str(current)) == []
