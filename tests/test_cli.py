"""End-to-end tests of the command-line front end and its reports."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from liegauge import cli
from liegauge.report import RunReport, canonical_json, inputs_digest

FIXTURES = "fixtures"
# the sl2 basis (h, e, f) as file-format matrices
SL2_IMAGES = [[["1", "0"], ["0", "-1"]], [["0", "1"], ["0", "0"]],
              [["0", "0"], ["1", "0"]]]
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


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

    @pytest.mark.parametrize("field, change", [
        # a string, which bool() would read as true
        ("special_linear_target", {"special_linear_target": "false"}),
        ("target_size", {"target_size": True}),
        ("matrix_size", {"domain": {"name": "sl2", "matrix_size": True,
                                    "basis": SL2_IMAGES}}),
        # a JSON true is not the scalar 1
        ("T_L[0]", {"T_L": [[[True, "0"], ["0", "-1"]]] + SL2_IMAGES[1:]}),
    ])
    def test_json_boolean_is_not_a_number(self, tmp_path, capsys, field,
                                          change):
        path = tmp_path / "embedding.json"
        path.write_text(json.dumps({
            "domain": "sl2", "target_size": 2,
            "T_L": SL2_IMAGES, "T_R": SL2_IMAGES, **change}))
        start = time.perf_counter()
        assert cli.main(["anomaly", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "error:" in err and field in err


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
        # an empty side of the "/" is an error, not the plain complex
        for label in ("sl3/", "/so3", " sl3 / "):
            start = time.perf_counter()
            assert cli.main(["relcoh", "--pair", label]) == 2
            assert time.perf_counter() - start < 1.0
            err = capsys.readouterr().err
            assert "pair must look like" in err and repr(label) in err

    def test_wedge_ceiling_fails_up_front(self, capsys):
        # sl5's plain complex needs C(24, 5) = 42504 subsets in degree 5,
        # over the 20000 ceiling; degree 4 alone used to take seconds
        start = time.perf_counter()
        assert cli.main(["relcoh", "--pair", "sl5"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "wedge degree 5" in err
        assert "ceiling 20000" in err

    def test_differential_ceiling_fails_up_front(self, capsys):
        # sl4's plain complex passes the wedge ceiling (C(15, 7) = 6435),
        # but its dense differential from degree 3 has C(15, 3) * C(15, 4)
        # = 621075 entries; building them used to exhaust memory
        start = time.perf_counter()
        assert cli.main(["relcoh", "--pair", "sl4"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "wedge degree 3" in err
        assert "ceiling 100000" in err


class TestInvariantsCommand:
    def test_rank_one_dimensions(self):
        report = cli.cmd_invariants("sl2", 4)
        assert report.results["dimension_line"] == "1 0 1 0 1"
        assert report.verdict == "pass"

    def test_negative_degree_rejected(self, capsys):
        assert cli.main(["invariants", "--algebra", "sl2",
                         "--max-degree", "-1"]) == 2
        capsys.readouterr()

    def test_max_degree_over_the_ceiling_fails_up_front(self, capsys):
        # Sym^5 of sl4's dual has 11628 monomials, over the 5000 ceiling;
        # degrees 0-4 alone would take most of a minute
        start = time.perf_counter()
        assert cli.main(["invariants", "--algebra", "sl4",
                         "--max-degree", "5"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "max degree 5" in err
        assert "ceiling 5000" in err


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

    @pytest.mark.parametrize("argv, code, digest", [
        (["--arity", "2", "--samples", "10"], 0,
         "0de9d2228fecb849e2736a9d324fdcc19b5c12c4717f9a50c8472b94bf2fece7"),
        # a known failure: its bytes and its exit code are pinned too
        (["--arity", "0", "--samples", "3", "--seed", "20"], 1,
         "193b06ee249c74917445013f3e8acea4644b70b6043db14940d3cf126164658e"),
    ])
    def test_getzler_reports_keep_their_bytes(self, capsys, argv, code,
                                              digest):
        assert cli.main(["getzler-check", *argv,
                         "--output", "structured"]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_getzler_check_pins_blas_threads(self):
        # in a fresh interpreter with the thread variables unset, the
        # command sets them to 1 before numpy loads; a value already set
        # is kept, and the report bytes are the same either way
        script = ("import os, sys\n"
                  "from liegauge import cli\n"
                  "assert 'numpy' not in sys.modules\n"
                  "code = cli.main(['getzler-check', '--arity', '0',\n"
                  "                 '--samples', '2', '--output',\n"
                  "                 'structured'])\n"
                  f"print(*(os.environ[v] for v in {BLAS_VARS!r}))\n"
                  "sys.exit(code)\n")
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))

        def run(extra):
            done = subprocess.run([sys.executable, "-c", script],
                                  env={**env, **extra}, capture_output=True,
                                  text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            report, threads = done.stdout.splitlines()
            return report, threads

        pinned, threads = run({})
        assert threads == "1 1 1"
        unpinned, threads = run({v: "2" for v in BLAS_VARS})
        assert threads == "2 2 2"
        assert pinned == unpinned

    @pytest.mark.parametrize("argv, code, digest", [
        (["anomaly", f"{FIXTURES}/adjoint_sl3.json"], 0,
         "cf17a95197abee2ee6134fd21934d4e883c91fac60f0452982a2c16ae16c7549"),
        (["anomaly", f"{FIXTURES}/left_only_sl3.json"], 1,
         "5a7745c6e4cc0ba611165fc0bef254065c44ce692318eab56a711ba9eacae81f"),
        (["relcoh", "--pair", "sl3/so3"], 0,
         "f94dc9e792a6f23107bb77d63a8e53c1f646552c02e3f87ac3a4478be0438fe9"),
        (["invariants", "--algebra", "sl2", "--max-degree", "4"], 0,
         "c6c12efe33591141e52facf482c7775f4848616c53089dbe1c95369638fd1152"),
    ])
    def test_exact_reports_keep_their_bytes(self, capsys, argv, code,
                                            digest):
        # bytes of a reference build; the anomaly digest hashes the
        # fixture's content, not its path
        assert cli.main(argv + ["--output", "structured"]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    def test_parser_is_built_once_and_reused(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        # a failed parse leaves the shared parser as it was
        assert cli.main(["invariants", "--algebra", "sl2"]) == 2
        assert cli.main(["invariants", "--algebra", "sl2",
                         "--max-degree", "2", "--output", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["results"][
            "dimension_line"] == "1 0 1"
