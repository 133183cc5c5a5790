"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "e1" in out and "e13" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "e7" in capsys.readouterr().out


class TestRun:
    def test_bare_experiment_id_implies_run(self, capsys):
        assert main(["e1", "--quick", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1" in out
        assert "finished in" in out

    def test_explicit_run_subcommand(self, capsys):
        assert main(["run", "e3", "--quick"]) == 0
        assert "Theorem 2" in capsys.readouterr().out

    def test_markdown_mode(self, capsys):
        assert main(["e1", "--quick", "--markdown"]) == 0
        assert capsys.readouterr().out.lstrip().startswith("|")

    def test_unknown_experiment_raises(self):
        with pytest.raises(SystemExit):
            # not an experiment id and not a subcommand -> argparse error
            main(["e42", "--quick"])

    def test_json_output(self, tmp_path, capsys):
        import json

        out = tmp_path / "tables.json"
        assert main(["run", "e1", "--quick", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["kind"] == "experiment_tables"
        assert "e1" in doc["body"]["tables"]
        assert doc["body"]["tables"]["e1"]["rows"]


class TestTrace:
    def test_trace_out_and_summarize_reproduce_hottest_edge(
        self, tmp_path, capsys
    ):
        from repro.io import load_trace

        path = tmp_path / "e1-trace.json"
        assert main([
            "run", "e1", "--quick", "--seed", "3",
            "--trace-out", str(path),
        ]) == 0
        capsys.readouterr()
        trace = load_trace(path)
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        (u, v), n = trace.hottest_edge
        assert f"hottest edge: ({u}, {v}) x {n}" in out
        assert "events:" in out and "counters:" in out

    def test_trace_export_csv(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        csv_path = tmp_path / "t.csv"
        assert main([
            "run", "e1", "--quick", "--trace-out", str(path),
        ]) == 0
        assert main([
            "trace", "export", str(path), "--csv", str(csv_path),
        ]) == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "kind,time,detail"
        assert len(lines) > 1

    def test_multi_target_traces_get_distinct_files(self, tmp_path, capsys):
        base = tmp_path / "trace.json"
        assert main([
            "run", "e1", "e3", "--quick", "--trace-out", str(base),
        ]) == 0
        assert (tmp_path / "trace-e1.json").exists()
        assert (tmp_path / "trace-e3.json").exists()


class TestSchedule:
    def test_clique_schedule(self, capsys):
        rc = main([
            "schedule", "--topology", "clique", "--size", "16",
            "--objects", "8", "--k", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scheduler=clique" in out
        assert "makespan=" in out

    def test_cluster_with_size2_and_explicit_scheduler(self, capsys):
        rc = main([
            "schedule", "--topology", "cluster", "--size", "3",
            "--size2", "4", "--objects", "6", "--scheduler", "sequential",
        ])
        assert rc == 0
        assert "scheduler=sequential" in capsys.readouterr().out

    def test_save_and_validate_round_trip(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        assert main([
            "schedule", "--topology", "grid", "--size", "4",
            "--objects", "4", "--save", str(path),
        ]) == 0
        assert path.exists()
        assert main(["validate", str(path)]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_validate_json_verdict(self, tmp_path, capsys):
        import json

        path = tmp_path / "s.json"
        verdict = tmp_path / "verdict.json"
        assert main([
            "schedule", "--topology", "grid", "--size", "4",
            "--objects", "4", "--save", str(path),
        ]) == 0
        assert main(["validate", str(path), "--json", str(verdict)]) == 0
        doc = json.loads(verdict.read_text())
        assert doc["kind"] == "validation"
        assert doc["body"]["valid"] is True
        assert doc["body"]["makespan"] >= 1

    def test_gantt_output(self, capsys):
        assert main([
            "schedule", "--topology", "line", "--size", "12",
            "--objects", "4", "--gantt",
        ]) == 0
        assert "gantt:" in capsys.readouterr().out

    def test_unknown_topology_raises(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown topology"):
            main(["schedule", "--topology", "moebius", "--size", "4"])

    def test_zipf_and_hot_workloads(self, capsys):
        for workload in ("zipf", "hot"):
            assert main([
                "schedule", "--topology", "clique", "--size", "10",
                "--objects", "5", "--workload", workload,
            ]) == 0


class TestFigures:
    def test_all_six_figures_printed(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for fig in ("Fig 1", "Fig 2", "Fig 3", "Fig 4", "Fig 5", "Fig 6"):
            assert fig in out
        assert "boustrophedon" in out


class TestReport:
    def test_report_subcommand(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["report", "-o", str(out), "e1"]) == 0
        text = out.read_text()
        assert "Reproduction report" in text
        assert "Fig 1" in text and "Fig 6" in text
        assert "Theorem 1" in text
        assert "| workload |" in text  # markdown table

    def test_report_default_covers_quick_suite(self, tmp_path):
        from repro.experiments.report import generate_report

        out = generate_report(tmp_path / "r.md", quick=True,
                              experiments=["e7", "e8"])
        text = out.read_text()
        assert "Theorem 6" in text
        assert text.count("###") >= 8  # 6 figures + 2 tables


class TestSweepCommand:
    def test_sweep_writes_report(self, tmp_path, capsys):
        from repro.cli import main
        from repro.experiments.sweep import SweepReport

        out = tmp_path / "sweep.json"
        assert main([
            "sweep", "e3", "--seeds", "1", "2",
            "--workers", "2", "--quick", "--json", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "2 cells" in printed and "workers=2" in printed
        report = SweepReport.from_json(out.read_text())
        assert report.seeds == (1, 2) and report.workers == 2


class TestSchedulersCommand:
    def test_lists_registry(self, capsys):
        from repro.cli import main

        assert main(["schedulers"]) == 0
        printed = capsys.readouterr().out
        for name in ("greedy", "clique", "line", "grid", "cluster", "star",
                     "sequential", "random-order", "tsp-order"):
            assert name in printed
        assert "bound:" in printed
        # the routed families come from TOPOLOGY_INFO's default_algo
        greedy_row = next(
            line for line in printed.splitlines() if line.startswith("greedy ")
        )
        assert "lb-grid" in greedy_row and "lb-tree" in greedy_row


class TestTopologiesCommand:
    def test_lists_every_registered_family(self, capsys):
        from repro.cli import main
        from repro.network import TOPOLOGY_INFO

        assert main(["topologies"]) == 0
        printed = capsys.readouterr().out
        for name in TOPOLOGY_INFO:
            assert name in printed
        assert "algo=" in printed
        assert "shards" in printed  # parameter schema is rendered

    def test_schedule_accepts_sharded_topologies(self, capsys):
        from repro.cli import main

        assert main([
            "schedule", "--topology", "shard-cluster", "--size", "3",
            "--size2", "4", "--objects", "9", "--k", "2", "--seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "sharded" in out


class TestClusterAssignFlag:
    def test_shard_assignment_runs_with_parity(self, capsys):
        from repro.cli import main

        assert main([
            "cluster", "--topology", "shard-cluster", "--size", "3",
            "--size2", "4", "--workers", "2", "--windows", "8",
            "--rate", "0.8", "--objects", "12", "--assign", "shard",
            "--seed", "3", "--parity",
        ]) == 0
        out = capsys.readouterr().out
        assert "parity with fault-free run: OK" in out
        assert "cross-shard" in out


class TestServiceCommand:
    def test_service_runs_and_reports(self, capsys):
        rc = main([
            "service", "--topology", "grid", "--size", "4",
            "--rate", "0.5", "--windows", "20", "--seed", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "service[batch]" in out
        assert "committed" in out

    def test_service_json_round_trips(self, tmp_path, capsys):
        from repro.io import load_report
        from repro.service import ServiceReport

        out = tmp_path / "svc.json"
        rc = main([
            "service", "--topology", "clique", "--size", "8",
            "--stream", "adversarial", "--rate", "0.4", "--burst", "3",
            "--windows", "15", "--json", str(out),
        ])
        assert rc == 0
        rep = load_report(out)
        assert isinstance(rep, ServiceReport)
        assert rep.accounted
