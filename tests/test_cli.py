"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


def _row(table: str, metric: str) -> str:
    """The value cell of one ``metric | value`` table row."""
    for line in table.splitlines():
        name, sep, value = line.partition("|")
        if sep and name.strip() == metric:
            return value.strip()
    raise AssertionError(f"no {metric!r} row in:\n{table}")


class TestCli:
    def test_no_command_prints_help(self, capsys):
        code = main([])
        assert code == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_demo(self, capsys):
        code = main(["demo"])
        out = capsys.readouterr().out
        assert code == 0
        assert "certificate: VALID" in out

    def test_sample_sequential(self, capsys):
        code = main(["sample", "--universe", "16", "--total", "20",
                     "--machines", "2", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fidelity" in out

    def test_sample_parallel(self, capsys):
        code = main(["sample", "--model", "parallel", "--universe", "16",
                     "--total", "20", "--machines", "2", "--seed", "3"])
        assert code == 0
        assert "parallel" in capsys.readouterr().out

    def test_sample_classes_backend(self, capsys):
        code = main(["sample", "--backend", "classes", "--universe", "16",
                     "--total", "20", "--machines", "2", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "classes" in out

    def test_sample_classes_backend_parallel(self, capsys):
        code = main(["sample", "--model", "parallel", "--backend", "classes",
                     "--universe", "16", "--total", "20", "--machines", "2",
                     "--seed", "3"])
        assert code == 0
        assert "classes" in capsys.readouterr().out

    def test_sample_rejects_model_incompatible_backend(self, capsys):
        code = main(["sample", "--model", "sequential", "--backend", "dense",
                     "--universe", "16", "--total", "20", "--machines", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "does not support" in err and "subspace" in err

    def test_estimate(self, capsys):
        code = main(["estimate", "--universe", "32", "--total", "4",
                     "--bits", "7", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "M̂" in out or "est." in out

    def test_experiments_listing(self, capsys):
        code = main(["experiments"])
        out = capsys.readouterr().out
        assert code == 0
        assert "E01" in out and "E18" in out

    def test_sample_batched(self, capsys):
        code = main(["sample", "--batch", "8", "--universe", "64", "--total", "24",
                     "--machines", "2", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "8/8" in out and "instances/s" in out

    def test_sample_batched_parallel_with_jobs(self, capsys):
        code = main(["sample", "--batch", "6", "--jobs", "2", "--model", "parallel",
                     "--universe", "32", "--total", "12", "--machines", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "6/6" in out

    def test_sample_batched_runs_stacked_dense_backend(self, capsys):
        """--backend subspace batches on the (B, N, 2) stacked-dense path."""
        code = main(["sample", "--batch", "4", "--backend", "subspace",
                     "--universe", "16", "--total", "8", "--machines", "2"])
        assert code == 0
        assert "4/4" in capsys.readouterr().out

    def test_sample_batched_unstackable_backend_runs_per_instance(self, capsys):
        """--batch routes like any bulk call: a backend with no stacked
        implementation runs per instance, and the table says so."""
        code = main(["sample", "--batch", "4", "--backend", "oracles",
                     "--universe", "16", "--total", "8", "--machines", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4/4" in out
        assert _row(out, "strategy") == "instance"

    def test_sample_batched_reports_stacked_strategy(self, capsys):
        code = main(["sample", "--batch", "3", "--universe", "16",
                     "--total", "8", "--machines", "2"])
        assert code == 0
        assert _row(capsys.readouterr().out, "strategy") == "stacked"

    def test_sample_batched_rejects_nonpositive_count(self, capsys):
        code = main(["sample", "--batch", "-1", "--universe", "16",
                     "--total", "8", "--machines", "2"])
        assert code == 2
        assert "positive instance count" in capsys.readouterr().err

    def test_sample_batched_rejects_nonpositive_jobs(self, capsys):
        code = main(["sample", "--batch", "4", "--jobs", "0", "--universe", "16",
                     "--total", "8", "--machines", "2"])
        assert code == 2
        assert "positive worker count" in capsys.readouterr().err


class TestServeCli:
    def test_serve_smoke(self, capsys):
        code = main(["serve", "--max-requests", "8", "--universe", "64",
                     "--total", "24", "--machines", "2", "--batch-size", "4",
                     "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "8/8" in out  # every request exact
        assert "throughput" in out
        assert "p99 latency" in out

    def test_serve_parallel_model(self, capsys):
        code = main(["serve", "--model", "parallel", "--max-requests", "4",
                     "--universe", "64", "--total", "24", "--machines", "2",
                     "--batch-size", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "parallel rounds" in out

    def test_serve_has_no_flush_deadline_flag(self, capsys):
        """Dispatch is work-conserving; the deadline option is gone."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--max-requests", "4", "--flush-deadline", "0.01"])
        assert excinfo.value.code == 2
        assert "--flush-deadline" in capsys.readouterr().err

    def test_serve_rejects_nonpositive_count(self, capsys):
        code = main(["serve", "--max-requests", "0"])
        assert code == 2
        assert "max-requests" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_serve_rejects_nonpositive_workers(self, capsys, workers):
        """A worker count below 1 is an error, not a silent clamp to 1."""
        code = main(["serve", "--max-requests", "2", "--rate", "0",
                     "--universe", "16", "--total", "8", "--machines", "2",
                     "--workers", workers])
        assert code == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_serve_rejects_nonpositive_shards(self, capsys):
        code = main(["serve", "--max-requests", "4", "--shards", "0"])
        assert code == 2
        assert "shards" in capsys.readouterr().err

    def test_serve_sharded_tier(self, capsys):
        code = main(["serve", "--max-requests", "8", "--universe", "64",
                     "--total", "24", "--machines", "2", "--batch-size", "4",
                     "--seed", "3", "--shards", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "8/8" in out
        assert "shards" in out
        assert "shm batches" in out
        assert "shm fallbacks" in out
        assert "worker restarts" in out
        assert "requeued batches" in out
        assert "flight dumps" in out

    # -- tracing (--trace artifacts and the stats renderer) -----------------------

    def test_sample_trace_writes_spans_and_metrics(self, capsys, tmp_path):
        import json

        from repro.obs.trace import tracing_enabled

        path = tmp_path / "trace.jsonl"
        code = main(["sample", "--universe", "32", "--total", "24",
                     "--machines", "2", "--batch", "4", "--seed", "2",
                     "--trace", str(path)])
        capsys.readouterr()
        assert code == 0
        assert not tracing_enabled()  # main() disabled it on the way out
        records = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = {record["kind"] for record in records}
        assert kinds == {"span", "metrics"}
        names = {r["name"] for r in records if r["kind"] == "span"}
        assert {"plan", "request", "build", "execute"} <= names
        assert records[-1]["kind"] == "metrics"
        # The registry is process-global and cumulative, so other tests'
        # traffic may be included — but this run's 4 instances are.
        assert records[-1]["metrics"]["engine.instances"] >= 4

    def test_serve_trace_captures_shard_worker_spans(self, capsys, tmp_path):
        import json
        import os

        path = tmp_path / "serve.jsonl"
        code = main(["serve", "--max-requests", "6", "--universe", "64",
                     "--total", "24", "--machines", "2", "--batch-size", "4",
                     "--seed", "3", "--shards", "2",
                     "--trace", str(path)])
        capsys.readouterr()
        assert code == 0
        spans = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if json.loads(line)["kind"] == "span"
        ]
        assert {s["name"] for s in spans} >= {"dispatch", "build", "execute"}
        assert any(s["pid"] != os.getpid() for s in spans)

    def test_stats_renders_a_trace_artifact(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code = main(["sample", "--universe", "32", "--total", "24",
                     "--machines", "2", "--batch", "4", "--seed", "2",
                     "--trace", str(path)])
        capsys.readouterr()
        assert code == 0
        code = main(["stats", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "spans" in out and "phase" in out
        assert "execute" in out
        assert "metrics snapshot" in out
        assert "engine.instances" in out

    def test_stats_rejects_missing_or_empty_input(self, capsys, tmp_path):
        code = main(["stats", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "error" in capsys.readouterr().err
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(["stats", str(empty)])
        assert code == 2
        assert "no span or metrics" in capsys.readouterr().err

    # -- workloads and scenarios (the adversarial-scenario engine) ----------------

    def test_sample_workload_flag(self, capsys):
        code = main(["sample", "--workload", "sparse", "--universe", "32",
                     "--total", "8", "--machines", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "exact" in out

    def test_sample_rejects_unknown_workload(self, capsys):
        with pytest.raises(SystemExit):
            main(["sample", "--workload", "pareto"])

    def test_scenarios_listing(self, capsys):
        code = main(["scenarios"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("replicated-loss", "disjoint-loss", "chaos-kill-revive"):
            assert name in out

    def test_sample_scenario(self, capsys):
        code = main(["sample", "--scenario", "disjoint-loss", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "disjoint-loss" in out
        assert "fault mask" in out

    def test_sample_rejects_unknown_scenario(self, capsys):
        code = main(["sample", "--scenario", "not-a-scenario"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_serve_scenario_trace(self, capsys):
        code = main(["serve", "--scenario", "chaos-kill-revive",
                     "--max-requests", "8", "--batch-size", "4",
                     "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "8/8" in out

    def test_serve_workload_flag(self, capsys):
        code = main(["serve", "--workload", "uniform", "--max-requests", "4",
                     "--universe", "32", "--total", "16", "--machines", "2",
                     "--batch-size", "4"])
        assert code == 0
        assert "4/4" in capsys.readouterr().out


class TestLintCommand:
    """`python -m repro lint` — the CI gate surface."""

    def _tree(self, tmp_path, dirty=True):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        body = 'raise ValueError("bad")\n' if dirty else "x = 1\n"
        (pkg / "mod.py").write_text(body, encoding="utf-8")
        return tmp_path / "src"

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        code = main(["lint", str(self._tree(tmp_path, dirty=False))])
        assert code == 0
        assert "clean: 0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        code = main(["lint", str(self._tree(tmp_path))])
        out = capsys.readouterr().out
        assert code == 1
        assert "REP008" in out
        assert "1 finding(s)" in out

    def test_json_format(self, tmp_path, capsys):
        import json as json_mod

        code = main(["lint", str(self._tree(tmp_path)), "--format", "json"])
        payload = json_mod.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["counts"] == {"REP008": 1}

    def test_output_file(self, tmp_path, capsys):
        import json as json_mod

        report_path = tmp_path / "out" / "analysis_report.json"
        code = main(["lint", str(self._tree(tmp_path, dirty=False)),
                     "--format", "json", "--output", str(report_path)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        payload = json_mod.loads(report_path.read_text(encoding="utf-8"))
        assert payload["total"] == 0

    def test_select_subset(self, tmp_path, capsys):
        code = main(["lint", str(self._tree(tmp_path)), "--select", "REP001"])
        assert code == 0  # REP008 violation invisible to a REP001-only run
        capsys.readouterr()

    def test_select_unknown_rule_exits_two(self, tmp_path, capsys):
        code = main(["lint", str(self._tree(tmp_path)), "--select", "REP555"])
        assert code == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        code = main(["lint", str(tmp_path / "absent")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        code = main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        for rule_id in ("REP001", "REP008", "REP902"):
            assert rule_id in out
        assert "no-unseeded-rng" in out

    def test_repo_tree_is_clean(self, capsys):
        """The acceptance gate: the shipped tree has zero findings."""
        import pathlib

        repo = pathlib.Path(__file__).resolve().parents[1]
        paths = [str(repo / d)
                 for d in ("src", "tests", "benchmarks", "examples")
                 if (repo / d).exists()]
        code = main(["lint", *paths])
        capsys.readouterr()
        assert code == 0
