"""Command-line interface tests."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_advise_args(self):
        args = build_parser().parse_args(
            ["advise", "mux", "4", "--delay", "300", "--cost", "power"]
        )
        assert args.macro == "mux"
        assert args.width == 4
        assert args.delay == 300.0
        assert args.cost == "power"

    def test_size_requires_topology(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["size", "mux", "4"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mux/strong_mutex_passgate" in out
        assert "adder/dual_rail_domino_cla" in out

    def test_advise_success(self, capsys):
        code = main(["advise", "mux", "4", "--delay", "400", "--load", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "best:" in out

    def test_advise_cache_line_counts_negative_hits_and_replays(
        self, capsys, tmp_path
    ):
        cache = str(tmp_path / "cache.jsonl")
        code = main([
            "advise", "mux", "4", "--delay", "400", "--load", "30",
            "--certify", "--cache", cache,
        ])
        assert code == 0
        [line] = [
            l for l in capsys.readouterr().out.splitlines()
            if l.startswith("cache:")
        ]
        stats = dict(
            kv.split("=") for kv in line[len("cache:"):].strip().split(", ")
        )
        assert stats["negative_hits"] == "0"
        assert stats["screen_replays"] == "0"

    def test_advise_impossible_budget_nonzero_exit(self, capsys):
        code = main(["advise", "mux", "4", "--delay", "3"])
        assert code == 1

    def test_size_prints_widths(self, capsys):
        code = main([
            "size", "mux", "4", "--delay", "400", "--load", "30",
            "--topology", "mux/strong_mutex_passgate",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged=True" in out
        assert "N2" in out

    def test_export_prints_spice(self, capsys):
        code = main([
            "export", "mux", "4", "--delay", "400", "--load", "30",
            "--topology", "mux/strong_mutex_passgate",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert ".SUBCKT" in out
        assert ".ENDS" in out

    def test_savings_protocol(self, capsys):
        code = main([
            "savings", "mux", "6", "--load", "40",
            "--topology", "mux/strong_mutex_passgate",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "width saving" in out
        assert "timing met      : yes" in out

    def test_pareto(self, capsys):
        code = main([
            "pareto", "mux", "8", "--delay", "360", "--load", "30",
            "--weights", "0,2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "w_clk" in out

    def test_curve(self, capsys):
        code = main([
            "curve", "mux", "4", "--delay", "300", "--load", "30",
            "--topology", "mux/strong_mutex_passgate",
            "--scales", "1.0,1.5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "budget ps" in out
        assert "yes" in out


class TestLintCommand:
    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("ERC001", "ERC101", "CST101", "GP204"):
            assert rule_id in out
        assert "error" in out and "warning" in out

    def test_requires_macro_without_list_rules(self, capsys):
        assert main(["lint"]) == 2

    def test_clean_macro_exits_zero(self, capsys):
        assert main(["lint", "mux", "4"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_single_topology_with_gp_and_coverage(self, capsys):
        code = main([
            "lint", "mux", "4",
            "--topology", "mux/strong_mutex_passgate",
            "--gp", "--coverage",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert ":gp:" in out or "gp:" in out
        assert "pruning" in out

    def test_json_output(self, capsys):
        import json

        code = main([
            "lint", "mux", "4",
            "--topology", "mux/strong_mutex_passgate", "--json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        reports = json.loads(out)
        assert all(r["ok"] for r in reports)
        assert reports[0]["subject"]

    def test_inapplicable_spec_exits_two(self, capsys):
        code = main([
            "lint", "comparator", "7",
            "--topology", "comparator/xorsum2",
        ])
        assert code == 2

    def test_waivers_file(self, tmp_path, capsys):
        waiver_file = tmp_path / "lint.waive"
        waiver_file.write_text("ERC004  *  # known dual-rail stubs\n")
        code = main([
            "lint", "adder", "16", "--waivers", str(waiver_file),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "waived" in out


class TestLintDataflow:
    def test_dataflow_prints_interval_verdicts(self, capsys):
        code = main([
            "lint", "mux", "4",
            "--topology", "mux/strong_mutex_passgate", "--dataflow",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "interval STA" in out

    def test_dataflow_impossible_delay_proves_infeasible(self, capsys):
        code = main([
            "lint", "mux", "4",
            "--topology", "mux/strong_mutex_passgate",
            "--dataflow", "--delay", "1",
        ])
        out = capsys.readouterr().out
        assert code == 1  # DFA303 errors: findings exit code
        assert "provably-infeasible" in out

    def test_dataflow_json_carries_verdicts(self, capsys):
        import json

        code = main([
            "lint", "mux", "4",
            "--topology", "mux/strong_mutex_passgate",
            "--dataflow", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        verdicts = payload[-1]["interval_sta"]
        assert verdicts[0]["verdict"] in ("provably-feasible", "unknown")
        assert verdicts[0]["circuit"]

    def test_sarif_output_is_valid_sarif(self, capsys):
        import json

        code = main([
            "lint", "mux", "4",
            "--topology", "mux/strong_mutex_passgate",
            "--dataflow", "--sarif", "--delay", "1",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["version"] == "2.1.0"
        assert any(
            r["ruleId"] == "DFA303" for r in doc["runs"][0]["results"]
        )

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "2 = usage error" in out


class TestPerfCommand:
    """The performance observatory CLI: report, export, watch."""

    def _traced_run(self, tmp_path, extra=()):
        trace_file = str(tmp_path / "run.jsonl")
        ledger_file = str(tmp_path / "ledger.jsonl")
        code = main([
            "size", "mux", "4", "--delay", "400", "--load", "30",
            "--topology", "mux/strong_mutex_passgate",
            "--trace", trace_file, "--ledger", ledger_file, *extra,
        ])
        assert code == 0
        return trace_file, ledger_file

    def test_report_on_trace_reconciles(self, tmp_path, capsys):
        trace_file, _ = self._traced_run(tmp_path)
        capsys.readouterr()
        assert main(["perf", "report", trace_file]) == 0
        out = capsys.readouterr().out
        assert "self-time attribution" in out
        assert "gp_solve" in out
        assert "reconciled" in out
        # the acceptance criterion: totals reconcile to within 1%
        import re

        match = re.search(r"\((\d+\.\d)% reconciled\)", out)
        assert match, out
        assert abs(float(match.group(1)) - 100.0) <= 1.0

    def test_report_on_ledger(self, tmp_path, capsys):
        _, ledger_file = self._traced_run(tmp_path)
        capsys.readouterr()
        assert main(["perf", "report", ledger_file]) == 0
        out = capsys.readouterr().out
        assert "run ledger" in out
        assert "size" in out

    def test_report_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("nonsense\n")
        assert main(["perf", "report", str(bad)]) == 2

    def test_export_flame_graphs(self, tmp_path, capsys):
        import json

        trace_file, _ = self._traced_run(tmp_path)
        chrome = tmp_path / "chrome.json"
        speedscope = tmp_path / "speedscope.json"
        capsys.readouterr()
        assert main([
            "perf", "export", trace_file,
            "--chrome", str(chrome), "--speedscope", str(speedscope),
        ]) == 0
        chrome_doc = json.loads(chrome.read_text())
        assert any(e["ph"] == "X" for e in chrome_doc["traceEvents"])
        scope_doc = json.loads(speedscope.read_text())
        assert scope_doc["profiles"][0]["events"]

    def test_export_requires_a_format(self, tmp_path, capsys):
        trace_file, _ = self._traced_run(tmp_path)
        capsys.readouterr()
        assert main(["perf", "export", trace_file]) == 2

    def test_stream_flag_matches_trace(self, tmp_path, capsys):
        stream_file = str(tmp_path / "stream.jsonl")
        trace_file, _ = self._traced_run(
            tmp_path, extra=["--stream", stream_file]
        )
        with open(trace_file, "rb") as f1, open(stream_file, "rb") as f2:
            assert f1.read() == f2.read()

    def test_watch_renders_stream(self, tmp_path, capsys):
        stream_file = str(tmp_path / "stream.jsonl")
        self._traced_run(tmp_path, extra=["--stream", stream_file])
        capsys.readouterr()
        assert main(["perf", "watch", stream_file]) == 0
        out = capsys.readouterr().out
        assert "-- trace stream" in out
        assert "gp_solve" in out

    def test_ledger_appends_across_runs(self, tmp_path, capsys):
        import json

        _, ledger_file = self._traced_run(tmp_path)
        # second run appends to the same file
        code = main([
            "size", "mux", "4", "--delay", "400", "--load", "30",
            "--topology", "mux/strong_mutex_passgate",
            "--ledger", ledger_file,
        ])
        assert code == 0
        with open(ledger_file) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        assert sum(1 for r in records if r["kind"] == "size") >= 2


class TestLintHierCommand:
    def test_hier_cold_then_warm(self, tmp_path, capsys):
        contracts = str(tmp_path / "contracts.jsonl")
        assert main(["lint", "--hier", "--contracts", contracts]) == 0
        cold = capsys.readouterr().out
        assert "derived" in cold
        assert main([
            "lint", "--hier", "--contracts", contracts, "--changed-only",
        ]) == 0
        warm = capsys.readouterr().out
        assert "4 reused / 0 derived" in warm
        # findings identical between passes (stats line differs)
        strip = lambda text: [
            line for line in text.splitlines() if "CTR" in line
        ]
        assert strip(warm) == strip(cold)

    def test_hier_verify_contracts(self, capsys):
        assert main(["lint", "--hier", "--verify-contracts", "2"]) == 0
        out = capsys.readouterr().out
        assert "CTR505" not in out  # clean audit

    def test_hier_json_carries_stats(self, tmp_path, capsys):
        import json

        contracts = str(tmp_path / "contracts.jsonl")
        code = main([
            "lint", "--hier", "--contracts", contracts, "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[-1]["hier"]["contracts_derived"] == 4
        assert payload[0]["schema_version"] >= 1

    def test_cache_files_hold_one_line_per_key(self, tmp_path, capsys):
        import json

        flat, hier, contracts = (
            str(tmp_path / name)
            for name in ("flat.jsonl", "hier.jsonl", "contracts.jsonl")
        )
        main(["lint", "mux", "4", "--rule-cache", flat])
        assert main([
            "lint", "--hier", "--contracts", contracts, "--rule-cache", hier,
        ]) == 0
        capsys.readouterr()
        for path in (flat, hier, contracts):
            with open(path) as fh:
                keys = [json.loads(line)["key"] for line in fh]
            assert keys and len(keys) == len(set(keys)), path

    def test_changed_only_flat_requires_rule_cache(self, capsys):
        assert main(["lint", "mux", "4", "--changed-only"]) == 2

    def test_flat_rule_cache_cold_then_warm(self, tmp_path, capsys):
        cache = str(tmp_path / "rules.jsonl")
        assert main([
            "lint", "mux", "4", "--topology", "mux/strong_mutex_passgate",
            "--rule-cache", cache,
        ]) == 0
        cold = capsys.readouterr().out
        assert "0/18 replayed" in cold or "replayed" in cold
        assert main([
            "lint", "mux", "4", "--topology", "mux/strong_mutex_passgate",
            "--rule-cache", cache, "--changed-only",
        ]) == 0
        warm = capsys.readouterr().out
        assert "(100%)" in warm


class TestListRulesGrouping:
    """--list-rules groups the catalogue by rule family."""

    def test_family_headers_present_in_order(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        headers = [
            line for line in out.splitlines() if line.startswith("-- ")
        ]
        prefixes = [h.split(":")[0].removeprefix("-- ") for h in headers]
        assert prefixes == [
            "ERC", "CST", "GP", "DFA", "SVC", "CTR", "NSA", "OPT"
        ]

    def test_rules_listed_under_their_family(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        family = None
        placed = {}
        for line in lines:
            if line.startswith("-- "):
                family = line.split(":")[0].removeprefix("-- ")
            elif line[:3].isalpha() and family:
                placed[line.split()[0]] = family
        for rule_id in ("ERC001", "NSA601", "CTR506", "SVC401"):
            assert placed[rule_id] == rule_id.rstrip("0123456789")

    def test_per_rule_line_format_is_preserved(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        [line] = [
            ln for ln in out.splitlines() if ln.startswith("NSA601")
        ]
        assert line.split()[:3] == ["NSA601", "warning", "electrical"]


class TestLintElectrical:
    def test_flag_runs_nsa_group(self, capsys):
        assert main([
            "lint", "mux", "4", "--electrical",
            "--topology", "mux/unsplit_domino",
        ]) == 0
        out = capsys.readouterr().out
        assert "NSA601" in out
        assert "charge-sharing dip" in out

    def test_without_flag_nsa_stays_quiet(self, capsys):
        assert main([
            "lint", "mux", "4", "--topology", "mux/unsplit_domino",
        ]) == 0
        out = capsys.readouterr().out
        assert "NSA6" not in out
