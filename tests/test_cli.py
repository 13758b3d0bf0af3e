"""CLI tests (argument parsing and end-to-end subcommands)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_parses_multi_workload(self):
        args = build_parser().parse_args(
            ["run", "--workload", "gcc", "go", "--features", "SMT"]
        )
        assert args.workload == ["gcc", "go"]
        assert args.features == "SMT"

    def test_run_rejects_unknown_machine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "gcc", "--machine", "mega"])

    def test_run_parses_cycle_and_confidence_flags(self):
        args = build_parser().parse_args(
            ["run", "--workload", "gcc", "--max-cycles", "5000",
             "--confidence-threshold", "4"]
        )
        assert args.max_cycles == 5000 and args.confidence_threshold == 4

    def test_run_parses_exec_flags(self):
        args = build_parser().parse_args(
            ["run", "--workload", "gcc", "--cache-dir", "/tmp/c", "--no-cache"]
        )
        assert args.cache_dir == "/tmp/c" and args.no_cache

    def test_campaign_parses(self):
        args = build_parser().parse_args(
            ["campaign", "paper", "--jobs", "2", "--num-mixes", "1"]
        )
        assert args.command == "campaign"
        assert args.names == ["paper"] and args.jobs == 2

    def test_analyze_parses(self):
        args = build_parser().parse_args(
            ["analyze", "--workload", "compress", "--window", "8",
             "--check", "--features", "REC/RS", "--detail"]
        )
        assert args.command == "analyze"
        assert args.workload == ["compress"] and args.window == 8
        assert args.check and args.features == "REC/RS" and args.detail

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestEndToEnd:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "compress" in out and "REC/RS/RU" in out

    def test_run_command(self, capsys):
        rc = main(["run", "--workload", "vortex", "--commit-target", "300"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "IPC=" in out and "vortex" in out

    def test_asm_command(self, tmp_path, capsys):
        path = tmp_path / "prog.s"
        path.write_text("main: movi r1, 5\naddi r1, r1, 2\nhalt\n")
        assert main(["asm", str(path), "--run"]) == 0
        out = capsys.readouterr().out
        assert "movi" in out
        assert "r1 = 7" in out


class TestTraceAndProfile:
    def test_trace_command(self, capsys):
        rc = main([
            "trace", "--workload", "compress", "--commit-target", "250",
            "--events", "5", "--pipeview", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "event totals:" in out
        assert "cycles" in out  # pipeview header

    def test_profile_branches_command(self, capsys):
        rc = main(["profile-branches", "--workload", "vortex"])
        assert rc == 0
        assert "accuracy" in capsys.readouterr().out

    def test_run_json(self, capsys):
        import json
        rc = main(["run", "--workload", "vortex", "--commit-target", "250", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["committed"] >= 250
        assert payload["cached"] is False


class TestAnalyzeCli:
    def test_analyze_text(self, capsys):
        assert main(["analyze", "--workload", "compress"]) == 0
        out = capsys.readouterr().out
        assert "compress" in out and "merge-cov=" in out

    def test_analyze_all_kernels_with_detail(self, capsys):
        assert main(["analyze", "--detail"]) == 0
        out = capsys.readouterr().out
        # detail view includes the per-site branch table
        assert "reconv=" in out and "li" in out and "tomcatv" in out

    def test_analyze_json(self, capsys):
        import json
        rc = main(["analyze", "--workload", "vortex", "--window", "8", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        static = payload["vortex"]["static"]
        assert static["cond_sites"] > 0
        assert static["reuse_window"] == 8
        assert 0.0 <= static["merge_coverage_pct"] <= 100.0
        assert "check" not in payload["vortex"]

    def test_analyze_check_clean(self, capsys):
        rc = main([
            "analyze", "--workload", "compress", "--check",
            "--commit-target", "400",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "check: merges=" in out
        assert "cross-check: 0 violation(s)" in out

    def test_analyze_check_json(self, capsys):
        import json
        rc = main([
            "analyze", "--workload", "vortex", "--check",
            "--commit-target", "400", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        check = payload["vortex"]["check"]
        assert check["ok"] is True and check["violations"] == []
        assert check["merges_checked"] > 0

    def test_analyze_unknown_workload(self, capsys):
        assert main(["analyze", "--workload", "nope"]) == 2


class TestOrchestrationCli:
    def test_run_cache_warm_second_invocation(self, tmp_path, capsys):
        argv = ["run", "--workload", "vortex", "--commit-target", "250",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "[cached]" not in capsys.readouterr().out
        assert main(argv) == 0
        assert "[cached]" in capsys.readouterr().out

    def test_run_no_cache_overrides_cache_dir(self, tmp_path, capsys):
        argv = ["run", "--workload", "vortex", "--commit-target", "250",
                "--cache-dir", str(tmp_path), "--no-cache"]
        assert main(argv) == 0
        assert not any(tmp_path.iterdir())

    def test_campaign_end_to_end(self, tmp_path, capsys):
        argv = [
            "campaign", "fig3", "--jobs", "2", "--commit-target", "200",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert "## Figure 3" in out and "| program |" in out and "compress" in out
        assert "[campaign:" in err and "[campaign:" not in out
        # Warm re-run: every job must be a cache hit (zero simulations).
        assert main(argv) == 0
        assert "48 cached" in capsys.readouterr().err  # 8 kernels x 6 variants

    def test_campaign_unknown_name(self, capsys):
        assert main(["campaign", "fig99"]) == 2


class TestRefusals:
    """A window, cycle budget, mix count, worker count or batch size below
    1 (argparse's exit 2), or a kernel the suite does not have, exits 2
    before anything simulates, as the service refuses such a spec at
    submit."""

    @pytest.mark.parametrize("argv", [
        ["run", "--workload", "compress", "--commit-target", "0"],
        ["run", "--workload", "compress", "--commit-target", "-5"],
        ["run", "--workload", "compress", "--max-cycles", "0"],
        ["campaign", "fig3", "--commit-target", "0"],
        ["campaign", "fig4", "--num-mixes", "0"],
        ["campaign", "fig3", "--batch-size", "0"],
        ["campaign", "fig3", "--jobs", "0"],
        ["analyze", "--workload", "compress", "--check", "--commit-target", "0"],
        ["trace", "--workload", "compress", "--commit-target", "0"],
        ["submit", "--workload", "compress", "--commit-target", "0"],
        ["submit", "--workload", "compress", "--max-cycles", "0"],
        ["run", "--workload", "nosuch"],
        ["trace", "--workload", "nosuch"],
        ["profile-branches", "--workload", "nosuch"],
    ], ids="_".join)
    def test_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # the default --cache-dir stays empty
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        if "nosuch" in argv:
            assert "unknown workload(s) ['nosuch']" in err and "compress" in err
        else:
            assert "must be >= 1" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["campaign", "fig3", "--timeout", "0"],
        ["campaign", "fig3", "--timeout", "-1"],
        ["serve", "--lease-ttl", "0"],
        ["serve", "--lease-ttl", "-1"],
        ["serve", "--worker", "http://head:8752", "--poll", "0"],
        ["serve", "--worker", "http://head:8752", "--poll", "-1"],
    ], ids="_".join)
    def test_time_budget_not_above_zero_exits_2(self, argv, capsys):
        """A zero or negative timeout fails every attempt, a lease TTL
        expires every lease and a poll interval kills the worker at its
        first sleep; only the parse runs here, so nothing is served."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["campaign", "fig3", "--jobs", "1", "--timeout", "30"],
        ["run", "--workload", "compress", "--jobs", "2"],
    ], ids="_".join)
    def test_a_flag_one_process_cannot_honour_exits_2(self, argv, tmp_path,
                                                     monkeypatch, capsys):
        """Only a worker process can be stopped when it overruns
        ``--timeout``, and one point never uses a second worker: a serial
        campaign with a timeout, or ``run --jobs``, is refused before
        anything simulates or is cached."""
        monkeypatch.chdir(tmp_path)  # the default --cache-dir stays empty
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert "jobs" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_positive_time_budgets_parse(self):
        assert build_parser().parse_args(
            ["campaign", "fig3", "--timeout", "2.5"]).timeout == 2.5
        args = build_parser().parse_args(
            ["serve", "--lease-ttl", "30", "--poll", "0.1"])
        assert (args.lease_ttl, args.poll) == (30.0, 0.1)


class TestServiceCli:
    def test_serve_parses(self):
        args = build_parser().parse_args(
            ["serve", "--store", "/tmp/s", "--port", "9000",
             "--local-workers", "0", "--no-resume"]
        )
        assert args.command == "serve"
        assert args.store == "/tmp/s" and args.port == 9000
        assert args.local_workers == 0 and args.no_resume
        assert build_parser().parse_args(["serve"]).local_workers == 1

    def test_serve_worker_mode_parses(self):
        args = build_parser().parse_args(
            ["serve", "--worker", "http://head:8752", "--lease-size", "2",
             "--max-idle", "30"]
        )
        assert args.worker == "http://head:8752"
        assert args.lease_size == 2 and args.max_idle == 30.0

    def test_serve_rejects_batch_size(self, capsys):
        """A remote worker runs each lease of ``--lease-size`` tasks as
        one slice; there is no second knob for it."""
        for argv in (["serve", "--batch-size", "4"],
                     ["serve", "--worker", "http://head:8752", "--batch-size", "4"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
            assert "--batch-size" in capsys.readouterr().err

    def test_submit_parses_grid_flags(self):
        args = build_parser().parse_args(
            ["submit", "--workload", "compress", "go",
             "--grid", "active_list_size=32,64", "--follow"]
        )
        assert args.spec is None
        assert args.workload == ["compress", "go"]
        assert args.grid == ["active_list_size=32,64"] and args.follow

    def test_submit_rejects_unknown_machine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["submit", "--workload", "go", "--machine", "mega"]
            )

    def test_status_and_fetch_parse(self):
        status_args = build_parser().parse_args(["status", "c000001", "--json"])
        assert status_args.campaign == "c000001" and status_args.json
        assert build_parser().parse_args(["status"]).campaign is None
        fetch_args = build_parser().parse_args(
            ["fetch", "c000001.0003", "-o", "out.json"]
        )
        assert fetch_args.id == "c000001.0003" and fetch_args.output == "out.json"

    def test_grid_value_coercion(self):
        from repro.cli import _grid_from_args

        grid = _grid_from_args(
            ["active_list_size=32,64", "x=1.5", "y=true,false", "z=name"]
        )
        assert grid == {"active_list_size": [32, 64], "x": [1.5],
                        "y": [True, False], "z": ["name"]}
        with pytest.raises(SystemExit):
            _grid_from_args(["justafield"])

    def test_submit_without_spec_or_workload(self, capsys):
        assert main(["submit", "--server", "http://127.0.0.1:1"]) == 2

    def test_submit_status_fetch_against_live_server(self, tmp_path, capsys):
        import json

        from repro.service import CampaignServer

        server = CampaignServer(tmp_path / "store", port=0, local_workers=2).start()
        try:
            rc = main([
                "submit", "--server", server.url,
                "--workload", "compress", "go",
                "--grid", "active_list_size=32",
                "--commit-target", "150", "--follow",
            ])
            assert rc == 0
            out = capsys.readouterr().out
            assert "campaign c000001: 2 job(s)" in out
            assert "campaign c000001: done" in out

            assert main(["status", "c000001", "--server", server.url]) == 0
            out = capsys.readouterr().out
            assert "[done] 2/2 jobs" in out

            # Bare `status` dumps server metrics.
            assert main(["status", "--server", server.url]) == 0
            metrics = json.loads(capsys.readouterr().out)
            assert metrics["jobs"]["jobs_done"] == 2

            out_path = tmp_path / "results.json"
            rc = main(["fetch", "c000001", "--server", server.url,
                       "-o", str(out_path)])
            assert rc == 0
            assert "wrote" in capsys.readouterr().out
            documents = json.loads(out_path.read_text())
            assert len(documents) == 2
            assert {d["job_id"] for d in documents} == {
                "c000001.0000", "c000001.0001"
            }

            rc = main(["fetch", "c000001.0001", "--server", server.url])
            assert rc == 0
            (document,) = json.loads(capsys.readouterr().out)
            assert document["spec"]["workload"] == ["go"]
        finally:
            server.stop()

    def test_submit_connection_refused_fails_cleanly(self, capsys):
        rc = main(["submit", "--server", "http://127.0.0.1:1",
                   "--workload", "compress"])
        assert rc == 1


class TestLintCli:
    """The lint front end: ``--explain`` and ``--rules``."""

    @pytest.fixture
    def at_repo_root(self, monkeypatch):
        import pathlib

        monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)

    def test_explain_single_rule(self, capsys):
        assert main(["lint", "--explain", "SHR005"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("SHR005:")
        assert "suppression: # shr-ok: <reason>" in out

    def test_explain_family_prefix(self, capsys):
        assert main(["lint", "--explain", "DET"]) == 0
        out = capsys.readouterr().out
        for n in range(1, 6):
            assert f"DET00{n}:" in out
        assert out.count("suppression: # det-ok: <reason>") == 5

    def test_explain_all(self, capsys):
        assert main(["lint", "--explain", "all"]) == 0
        out = capsys.readouterr().out
        assert "DET001:" in out and "SHR005:" in out

    def test_explain_unknown_rule_exits_2(self, capsys):
        assert main(["lint", "--explain", "NOPE999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules_shows_the_registry(self, capsys):
        """``--explain all`` lists the whole registry in code order."""
        assert main(["lint", "--explain", "all"]) == 0
        lines = capsys.readouterr().out.splitlines()
        codes = [line.split(":")[0] for line in lines if not line.startswith(" ")]
        assert codes == [f"DET00{n}" for n in range(1, 6)] + ["SHR005"]

    def test_rules_keeps_each_profile_targets_paths(self, at_repo_root, capsys):
        """``--rules DET001`` lints DET001 where the default profile does,
        not over every path any profile names (which would flag the
        CLI's legitimate wall-clock reads)."""
        import json

        assert main(["lint", "--rules", "DET001", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"ok": True, "findings": []}

    def test_overlapping_paths_lint_each_file_once(self, tmp_path, capsys):
        import json

        sub = tmp_path / "pkg" / "sub"
        sub.mkdir(parents=True)
        (sub / "clock.py").write_text("import time\nSTART = time.time()\n")
        argv = ["lint", str(tmp_path / "pkg"), str(sub), "--rules", "DET001"]
        assert main(argv + ["--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["line"] for f in payload["findings"]] == [2]

    def test_rules_accepts_comma_separated_codes(self, at_repo_root, capsys):
        assert main(["lint", "--rules", "DET001,DET005"]) == 0
        capsys.readouterr()
        assert main(["lint", "--rules", "DET001,NOPE999"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_rules_leaves_the_paths_after_it(self, at_repo_root, tmp_path, capsys):
        """``--rules`` takes one value, so the paths after it are linted
        rather than read as rule codes."""
        assert main(["lint", "--rules", "SHR005", "src/repro/service"]) == 0
        clock = tmp_path / "clock.py"
        clock.write_text("import time\nSTART = time.time()\nLOG = []\n"
                         "def note(x, seen=[]):\n    LOG.append(x)\n")
        assert main(["lint", "--rules", "DET001", str(clock)]) == 1
        out = capsys.readouterr().out
        assert out.split() == [f"{clock}:2:", "DET001", "wall-clock", "read",
                               "time.time()"]
