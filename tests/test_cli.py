"""End-to-end tests of the command-line front end and its reports."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from liegauge import cli, series
from liegauge.report import RunReport, canonical_json, inputs_digest
from liegauge.series import check_series_size

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

    def test_label_domain_image_count_fails_before_building(self, tmp_path,
                                                            capsys):
        # three images for sl120, whose 14399-element basis is never built
        path = tmp_path / "embedding.json"
        path.write_text(json.dumps({
            "domain": "sl120", "target_size": 2,
            "T_L": SL2_IMAGES, "T_R": SL2_IMAGES}))
        start = time.perf_counter()
        assert cli.main(["anomaly", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "need 14399 images per side, got 3 left and 3 right" in err

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

    def test_oversized_label_fails_before_building(self, capsys):
        # sl120 has dimension 14399 by its closed form; building its basis
        # of 120 x 120 matrices used to take most of a minute before the
        # wedge ceiling was checked
        start = time.perf_counter()
        assert cli.main(["relcoh", "--pair", "sl120"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "wedge degree 2" in err and "ceiling 20000" in err
        assert cli.main(["relcoh", "--pair", "sl1"]) == 2
        assert "sl(n) requires n >= 2" in capsys.readouterr().err

    def test_oversized_pair_fails_before_building(self, capsys):
        # dim g - dim k is the complement dimension: 135 for sl16/so16 and
        # 464 for sl30/so30; both used to build the algebras first
        for label, message in (("sl16/so16", "wedge degree 3 needs 400995"),
                               ("sl30/so30", "wedge degree 2 needs 107416")):
            start = time.perf_counter()
            assert cli.main(["relcoh", "--pair", label]) == 2
            assert time.perf_counter() - start < 1.0
            assert message in capsys.readouterr().err
        # labels of two matrix sizes name no pair, so no ceiling applies;
        # sl120/so2 used to build sl120 before saying so
        for label, message in (
                ("sl30/so2", "subalgebra matrices must match the ambient"),
                ("sl120/so2", "subalgebra matrices must match the ambient"),
                ("sl3/so2", "subalgebra matrices must match the ambient"),
                ("sl3/gl3", "subalgebra basis does not lie in the span"),
                ("so3/sl3", "subalgebra basis does not lie in the span")):
            start = time.perf_counter()
            assert cli.main(["relcoh", "--pair", label]) == 2
            assert time.perf_counter() - start < 1.0
            assert message in capsys.readouterr().err

    def test_differential_ceiling_fails_up_front(self, capsys):
        # sl4's plain complex passes the wedge ceiling (C(15, 7) = 6435),
        # but the dense image matrix of its differential from degree 3,
        # which is ranked, has C(15, 3) * C(15, 4) = 621075 entries;
        # building it used to exhaust memory
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


    def test_oversized_label_fails_before_building(self, capsys):
        start = time.perf_counter()
        assert cli.main(["invariants", "--algebra", "sl120",
                         "--max-degree", "2"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "max degree 2" in err and "ceiling 5000" in err
        assert cli.main(["invariants", "--algebra", "sl1",
                         "--max-degree", "2"]) == 2
        assert "sl(n) requires n >= 2" in capsys.readouterr().err


class TestSeriesCommand:
    def test_rank_four_family_matches_target(self):
        report = cli.cmd_series(5, 40)
        assert report.results["match"] is True
        assert report.results["survivor_degrees"] == ["4", "8"]
        assert report.verdict == "pass"

    def test_mismatched_routes_fail_the_match(self, monkeypatch, capsys):
        # only the Koszul division multiplies by 1 - t^d; skipping that
        # factor must fail the comparison with the survivor algebra
        times_binomial = series._times_binomial

        def broken(a, d, sign):
            if sign == 1:
                times_binomial(a, d, sign)

        monkeypatch.setattr(series, "_times_binomial", broken)
        assert cli.main(["series", "--n", "5", "--truncate", "40",
                         "--output", "structured"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["match"] is False
        assert report["verdict"] == "fail"

    def test_negative_quotient_fails_the_match(self, monkeypatch, capsys):
        # applying each 1 - t^d factor twice drives quotient coefficients
        # below zero; that is a wrong division, reported as a mismatch
        # (exit 1), not rejected as invalid input (exit 2)
        times_binomial = series._times_binomial

        def doubled(a, d, sign):
            times_binomial(a, d, sign)
            if sign == -1:
                times_binomial(a, d, sign)

        monkeypatch.setattr(series, "_times_binomial", doubled)
        assert cli.main(["series", "--n", "5", "--truncate", "40",
                         "--output", "structured"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["match"] is False
        assert any(c.startswith("-")
                   for c in report["results"]["cancelled_page"])

    def test_even_rank_is_invalid_input(self, capsys):
        assert cli.main(["series", "--n", "4", "--truncate", "20"]) == 2
        capsys.readouterr()

    def test_long_truncation_runs_in_linear_time(self, capsys):
        # the bytes of the reference build, whose dense products took 44 s
        start = time.perf_counter()
        assert cli.main(["series", "--n", "5", "--truncate", "8000",
                         "--output", "structured"]) == 0
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "694ebd40c3bc524a63a3763622e95bcd2228123d96675fb3614e35431600f3b2")

    def test_truncation_over_the_ceiling_fails_up_front(self, capsys):
        # used to die with a MemoryError traceback and exit 1
        start = time.perf_counter()
        assert cli.main(["series", "--n", "5",
                         "--truncate", "1000000000"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "truncate 1000000000" in err and "ceiling" in err
        # n = 5 has six first-page generators: 7 * 285710 + 4 * 6 updates
        # fit
        check_series_size(5, 285710)
        with pytest.raises(ValueError, match="truncate 285711"):
            check_series_size(5, 285711)

    def test_many_generators_fail_up_front(self, capsys):
        # generators above the truncation are still listed: this used to
        # pass the check and then build lists of about 10^8 degrees
        start = time.perf_counter()
        assert cli.main(["series", "--n", "100000001",
                         "--truncate", "10"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "n = 100000001" in err and "ceiling" in err


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
        capsys.readouterr()
        # each bad count names its own field and value, and nothing else
        for argv, field, other in ((["--samples", "0"], "samples", "arity"),
                                   (["--arity", "-1"], "arity", "samples")):
            assert cli.main(["getzler-check", *argv]) == 2
            err = capsys.readouterr().err
            assert f"{field} must be" in err and f"got {argv[1]}" in err
            assert other not in err
        for step in ("nan", "inf", "-inf", "0"):
            start = time.perf_counter()
            assert cli.main(["getzler-check", "--step", step]) == 2
            assert time.perf_counter() - start < 1.0
            assert "step" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_residuals_fail_with_valid_json(self, capsys):
        # exp(+-1e3 A) overflows, so d_G^2 and the Leibniz difference have
        # NaN coefficients: their checks fail, and the report carries the
        # residuals as strings, where JSON has no NaN
        assert cli.main(["getzler-check", "--arity", "1", "--samples", "2",
                         "--step", "1e3", "--output", "structured"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "fail"
        results = report["results"]
        assert results["leibniz"] == {"max_residual": "nan", "ok": False,
                                      "tolerance": 1e-4}
        for square in results["total_square"]:
            assert not square["ok"]
            assert square["max_residual"] == "nan"
        # finite residuals stay floats
        assert results["associativity"]["ok"]
        assert isinstance(results["associativity"]["max_residual"], float)
        assert [cli._json_float(x) for x in
                (math.inf, -math.inf, 0.5)] == ["inf", "-inf", 0.5]


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

    def test_module_entry_point_matches_the_cli_module(self):
        # `python3 -m liegauge` runs the same command line as
        # `python3 -m liegauge.cli`: same exit code, same bytes
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["series", "--n", "3", "--truncate", "12", "--output",
                "structured"]
        runs = [subprocess.run([sys.executable, "-m", module, *argv],
                               env=env, capture_output=True, text=True,
                               timeout=120)
                for module in ("liegauge", "liegauge.cli")]
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout
        assert json.loads(runs[0].stdout)["command"] == "series"

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
        (["anomaly", f"{FIXTURES}/left_only_sl2.json"], 1,
         "5a7cea2ec073c945f8265ed8141b18398d919dce3a23f12676f47bb6028eed52"),
        (["anomaly", f"{FIXTURES}/block_dup_sl2_in_sl4.json"], 0,
         "f629b2052a684ac60af5707fc73c1543c8257e99b20f386b34dc3265072591c6"),
        (["wzw-verify"], 0,
         "15a2daeb5dd065d6dd885fc132322f415b60657cab198ca5c4c76e0d474b10fe"),
        (["relcoh", "--pair", "sl2/so2"], 0,
         "6eed019f187206d5982a85f67969acd3bf0f00e4368c73a0f734cf877c644258"),
        (["relcoh", "--pair", "su2"], 0,
         "0318c93dcb57019eec356d055a1fdcaabd0489622c0d81824a931c5817522344"),
        (["series", "--n", "5", "--truncate", "40"], 0,
         "309e57a88caa89f4810b4bc27bd503339e19d64f2d198789148e7370a2983027"),
    ])
    def test_exact_reports_keep_their_bytes(self, capsys, argv, code,
                                            digest):
        # bytes of a reference build, the ten README commands; the anomaly
        # digest hashes the fixture's content, not its path.  Each command
        # runs twice in one process, so state left by a first run cannot
        # change the bytes.
        for _ in range(2):
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
