"""End-to-end tests of the command-line front end and its reports."""

import hashlib
import json
import time

import pytest

from liegauge import cli
from liegauge.report import RunReport, canonical_json, inputs_digest

FIXTURES = "fixtures"


# -- report plumbing -----------------------------------------------------------


class TestRunReport:
    def test_round_trip_is_lossless(self):
        report = RunReport(
            command="demo",
            inputs_digest=inputs_digest({"command": "demo"}),
            results={"alpha": ["1", "2"], "nested": {"ok": True}},
            verdict="warn",
            warnings=[{"id": "W1", "message": "m"}],
        )
        again = RunReport.from_json(report.to_json())
        assert again == report

    def test_canonical_json_is_sorted_and_tight(self):
        text = canonical_json({"b": 1, "a": [1.5, "x"]})
        assert text == '{"a":[1.5,"x"],"b":1}'

    def test_digest_is_stable(self):
        a = inputs_digest({"command": "relcoh", "pair": "sl3/so3"})
        b = inputs_digest({"pair": "sl3/so3", "command": "relcoh"})
        assert a == b
        assert a.startswith("sha256:")

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ValueError, match="verdict"):
            RunReport("x", "sha256:0", {}, "maybe")

    def test_exit_codes(self):
        ok = RunReport("x", "d", {}, "pass")
        warned = RunReport("x", "d", {}, "warn")
        bad = RunReport("x", "d", {}, "fail")
        assert (ok.exit_code(), warned.exit_code(), bad.exit_code()) == (
            0, 0, 1)


# -- anomaly subcommand --------------------------------------------------------


class TestAnomalyCommand:
    def test_adjoint_fixture_passes(self):
        report = cli.cmd_anomaly(f"{FIXTURES}/adjoint_sl3.json")
        assert report.verdict == "pass"
        assert report.results["anomaly_free"] is True
        rows = report.results["quadratic_form"]["rows"]
        assert all(set(row.split()) == {"0"} for row in rows)
        assert "equivariant extension exists" in report.results["statements"]

    def test_left_only_fixture_fails_exactly(self):
        report = cli.cmd_anomaly(f"{FIXTURES}/left_only_sl3.json")
        assert report.verdict == "fail"
        rows = report.results["quadratic_form"]["rows"]
        assert rows[0].split()[0] == "2"
        assert report.results["quadratic_form"]["normalization"] == (
            "1/2 * pi^-1")
        assert "no equivariant extension exists" in (
            report.results["statements"])

    def test_rank_one_domain_warns_but_passes(self):
        report = cli.cmd_anomaly(f"{FIXTURES}/block_dup_sl2_in_sl4.json")
        assert report.results["anomaly_free"] is True
        assert [w["id"] for w in report.warnings] == ["W5"]
        assert report.verdict == "warn"
        assert report.exit_code() == 0

    def test_exit_codes_through_main(self, capsys):
        assert cli.main(["anomaly", f"{FIXTURES}/adjoint_sl3.json"]) == 0
        assert cli.main(["anomaly", f"{FIXTURES}/left_only_sl3.json"]) == 1
        capsys.readouterr()

    def test_malformed_matrix_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "domain": "sl2",
            "target_size": 2,
            "T_L": [[[1, 0], [0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]],
            "T_R": [[[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]],
        }))
        assert cli.main(["anomaly", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "T_L" in err

    def test_missing_file_exits_2(self, capsys):
        assert cli.main(["anomaly", "no/such/file.json"]) == 2
        capsys.readouterr()


# -- symbolic suite subcommand -------------------------------------------------


class TestWzwVerifyCommand:
    def test_all_identities_pass_with_documented_warnings(self):
        report = cli.cmd_wzw_verify()
        assert report.results["all_residuals_zero"] is True
        idents = report.results["identities"]
        assert len(idents) >= 10
        assert all(row["ok"] for row in idents)
        assert all(row["residual"] == "0" for row in idents)
        assert {w["id"] for w in report.warnings} == {"W1", "W2", "W3"}
        assert report.verdict == "warn"
        assert report.exit_code() == 0


# -- cohomology subcommands ----------------------------------------------------


class TestRelcohCommand:
    def test_symmetric_pair_betti_line(self):
        report = cli.cmd_relcoh("sl3/so3")
        assert report.results["betti_line"] == "1 0 0 0 0 1"
        assert report.results["symmetric"] is True
        assert report.verdict == "pass"

    def test_plain_complex_of_a_compact_form(self):
        report = cli.cmd_relcoh("su2")
        assert report.results["betti_line"] == "1 0 0 1"

    def test_pair_parse_errors(self, capsys):
        assert cli.main(["relcoh", "--pair", "a/b/c"]) == 2
        assert cli.main(["relcoh", "--pair", "sp4/so3"]) == 2
        capsys.readouterr()


class TestInvariantsCommand:
    def test_rank_one_dimensions(self):
        report = cli.cmd_invariants("sl2", 4)
        assert report.results["dimension_line"] == "1 0 1 0 1"
        assert report.verdict == "pass"

    def test_negative_degree_rejected(self, capsys):
        assert cli.main(["invariants", "--algebra", "sl2",
                         "--max-degree", "-1"]) == 2
        capsys.readouterr()


class TestSeriesCommand:
    def test_rank_four_family_matches_target(self):
        report = cli.cmd_series(5, 40)
        assert report.results["match"] is True
        assert report.results["survivor_degrees"] == ["4", "8"]
        assert report.verdict == "pass"

    def test_even_rank_is_invalid_input(self, capsys):
        assert cli.main(["series", "--n", "4", "--truncate", "20"]) == 2
        capsys.readouterr()


# -- operator checks subcommand -------------------------------------------------


class TestGetzlerCheckCommand:
    def test_small_run_passes_with_convention_warning(self):
        report = cli.cmd_getzler_check(arity=1, samples=5)
        assert report.verdict == "warn"
        assert [w["id"] for w in report.warnings] == ["W4"]
        squares = report.results["total_square"]
        assert [s["arity"] for s in squares] == ["0", "1"]
        for s in squares:
            assert s["ok"]
            assert s["max_residual"] <= s["tolerance"]
            assert s["reduction_ratio"] >= 3.0
        assert report.results["cartan_inclusion"][
            "coboundary_residual"] == 0.0
        assert report.exit_code() == 0

    def test_unknown_group_is_invalid_input(self, capsys):
        assert cli.main(["getzler-check", "--group", "so3"]) == 2
        assert cli.main(["getzler-check", "--samples", "0"]) == 2
        capsys.readouterr()
        for step in ("nan", "inf", "-inf", "0"):
            start = time.perf_counter()
            assert cli.main(["getzler-check", "--step", step]) == 2
            assert time.perf_counter() - start < 1.0
            assert "step" in capsys.readouterr().err


# -- output determinism ---------------------------------------------------------


class TestOutputContract:
    def test_structured_output_is_byte_identical(self, capsys):
        args = ["getzler-check", "--arity", "1", "--samples", "5",
                "--output", "structured"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        # bytes of a reference build: a change in the order of float sums
        # anywhere in the getzler layer changes them
        assert hashlib.sha256(first.encode()).hexdigest() == (
            "84f432b936c38b34f06d176077134c1522c1bbb87dfec89324db2dbaf4cd3c33")
        parsed = json.loads(first)
        assert set(parsed) == {"command", "inputs_digest", "results",
                               "verdict", "warnings"}

    def test_structured_output_round_trips(self, capsys):
        assert cli.main(["relcoh", "--pair", "sl2/so2",
                         "--output", "structured"]) == 0
        out = capsys.readouterr().out
        report = RunReport.from_json(out)
        assert report.to_json() == out.strip()
        assert report.results["betti_line"] == "1 0 1"

    def test_text_output_contains_the_verdict_line(self, capsys):
        assert cli.main(["series", "--n", "3", "--truncate", "20"]) == 0
        out = capsys.readouterr().out
        assert "verdict: pass" in out
        assert "match: True" in out

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()

    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()
