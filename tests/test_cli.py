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

from liegauge import cli, lgio, relcoh, series
from liegauge.exact import GaussianRational
from liegauge.report import RunReport, canonical_json, inputs_digest
from liegauge.series import check_series_size
from liegauge.wzw import identities, ops
from liegauge.wzw.words import DG, GINV

FIXTURES = "fixtures"
# the sl2 basis (h, e, f) as file-format matrices
SL2_IMAGES = [[["1", "0"], ["0", "-1"]], [["0", "1"], ["0", "0"]],
              [["0", "0"], ["1", "0"]]]


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
        again = RunReport(**json.loads(report.to_json()))
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

    def test_anomaly_reads_a_pipe(self, capsys):
        # the file is read once, so a pipe, which can be read only once,
        # gives the same exit code and bytes as the file path
        path = f"{FIXTURES}/adjoint_sl3.json"
        assert cli.main(["anomaly", path, "--output", "structured"]) == 0
        want = capsys.readouterr().out
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        with open(path, "rb") as fh:
            data = fh.read()
        done = subprocess.run(
            [sys.executable, "-m", "liegauge", "anomaly", "/dev/stdin",
             "--output", "structured"],
            input=data, env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.decode() == want

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

    def test_a_declared_scalar_field_does_not_decide_an_sl_statement(
            self, tmp_path, capsys):
        # su(3) is 8 traceless 3 x 3 matrices, the shape of sl(3, R), but
        # its entries are not real: declared "rational" it is rejected,
        # declared "gaussian" it gets no special linear statement
        def literal(x):
            if isinstance(x, GaussianRational):
                return [str(x.re), str(x.im)]
            return str(x)
        basis = [[literal(x) for x in b.entries()]
                 for b in lgio.classical("su", 3).basis]
        path = tmp_path / "embedding.json"
        for scalar, code in (("rational", 2), ("gaussian", 1)):
            path.write_text(json.dumps({
                "domain": {"name": "su3", "matrix_size": 3,
                           "scalar": scalar, "basis": basis},
                "target_size": 3, "T_L": basis,
                "T_R": [["0"] * 9] * 8}))
            assert cli.main(["anomaly", str(path)]) == code
            out, err = capsys.readouterr()
            if code == 2:
                assert "error:" in err and "scalar" in err
            else:
                assert "anomalous" in out
                assert "extension" not in out


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

    def test_every_call_proves_the_identities_afresh(self, capsys,
                                                     monkeypatch):
        argv = ["wzw-verify", "--output", "structured"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        # d(g^-1) = +g^-1 dg g^-1 is the wrong sign: a suite that reused
        # a derived answer from the first call would still pass
        monkeypatch.setitem(ops._D_RULES, GINV, [(1, (GINV, DG, GINV))])
        assert cli.main(argv) == 1
        rows = json.loads(capsys.readouterr().out)["results"]["identities"]
        failing = {row["name"] for row in rows if not row["ok"]}
        assert {"d(mu^3) + mu^4 = 0", "L_b(lam_a) - lam_([a,b]) = 0",
                "iota_a(omega) - d(lam_a) = 0"} <= failing
        monkeypatch.undo()
        assert cli.main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() \
            == "15a2daeb5dd065d6dd885fc132322f415b60657cab198ca5c4c76e0d474b10fe"

    def test_a_repeated_call_builds_no_named_form(self, capsys, monkeypatch):
        builds = []
        for name in ("wzw_form", "lambda_form", "lambda_commutator",
                     "quadratic_expected_constant"):
            def counting(*args, _name=name, _real=getattr(identities, name)):
                builds.append(_name)
                return _real(*args)
            monkeypatch.setattr(identities, name, counting)
        identities._fixed_forms.cache_clear()
        assert cli.main(["wzw-verify"]) == 0
        first = capsys.readouterr().out
        assert set(builds) == {"wzw_form", "lambda_form",
                               "lambda_commutator",
                               "quadratic_expected_constant"}
        builds.clear()
        assert cli.main(["wzw-verify"]) == 0
        assert capsys.readouterr().out == first
        assert builds == []
        assert identities._fixed_forms.cache_info().currsize == 1

    def test_each_derivation_runs_once_per_call(self, capsys, monkeypatch):
        calls = []
        derive = ops._derive

        def counting(expr, rules, **kwargs):
            calls.append((expr, str(rules)))
            return derive(expr, rules, **kwargs)

        monkeypatch.setattr(ops, "_derive", counting)
        for _ in range(2):
            calls.clear()
            assert cli.main(["wzw-verify"]) == 0
            # 20 distinct (expression, rule) pairs, each derived once;
            # without sharing a call derived 30 times
            assert len(calls) == len(set(calls)) == 20
        capsys.readouterr()


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

    def test_pair_parse_errors(self, capsys, monkeypatch):
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
        # a size takes both parentheses or neither, and a bad label fails
        # before any basis is built.  The refusal replaces the cached entry
        # points themselves, so a cache hit raises as a miss would.
        def refuse(*args):
            raise AssertionError("a basis was built")

        monkeypatch.setattr(cli, "classical", refuse)
        monkeypatch.setattr(cli, "_classical_pair", refuse)
        for pair, bad in (("sl(3/so3)", "sl(3"), ("sl3/so3)", "so3)"),
                          ("sl(3", "sl(3"), ("so3)", "so3)"),
                          ("sl(3/so(3)", "sl(3")):
            start = time.perf_counter()
            assert cli.main(["relcoh", "--pair", pair]) == 2
            assert time.perf_counter() - start < 1.0
            err = capsys.readouterr().err
            assert "unknown algebra label" in err and repr(bad) in err
        for bad in ("sl(3", "so3)"):
            assert cli.main(["invariants", "--algebra", bad,
                             "--max-degree", "2"]) == 2
            err = capsys.readouterr().err
            assert "unknown algebra label" in err and repr(bad) in err

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

    @pytest.mark.parametrize("label", ["sl3/su3", "sl2/su2", "gl2/su2",
                                       "gl3/su3"])
    def test_compact_form_is_not_a_real_subalgebra(self, capsys, label):
        # su(n) has Gaussian coordinates in a real algebra, so it lies in
        # no real span; gl2/su2 used to print Betti numbers 1 1
        assert cli.main(["relcoh", "--pair", label]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "subalgebra basis does not lie in the span" in captured.err

    def test_differential_ceiling_fails_up_front(self, capsys):
        # sl4's plain complex passes the wedge ceiling (C(15, 7) = 6435),
        # but its differential from degree 3 has C(15, 3) * C(15, 4) =
        # 621075 entries if dense; the images of the invariant cochains
        # are ranked as sparse rows, and a complex this large is refused
        # before any invariant work
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

    def test_printed_first_page_is_the_one_divided(self, monkeypatch,
                                                    capsys):
        # a first page missing the degree-4 generator must fail the match:
        # the verdict divides the page the report prints, not a copy
        def short_page(n, truncate):
            return series.series_graded_algebra([5, 9], [6, 8, 10], truncate)

        monkeypatch.setattr(cli, "e1_page_series", short_page)
        assert cli.main(["series", "--n", "5", "--truncate", "40",
                         "--output", "structured"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["match"] is False
        assert report["verdict"] == "fail"
        assert report["results"]["first_page"] == [
            str(c) for c in short_page(5, 40).coeffs]

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

    def test_out_of_range_step_is_invalid_input(self, capsys):
        # exp(+-1e3 A) overflows, and so does the division by a subnormal
        # step: steps above 1 or with an infinite reciprocal exit 2, naming
        # the step, before any sampling
        for step in ("1e3", "150", "1.5", "1e-310"):
            start = time.perf_counter()
            assert cli.main(["getzler-check", "--arity", "1", "--samples",
                             "2", "--step", step, "--output",
                             "structured"]) == 2
            assert time.perf_counter() - start < 1.0
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error: step must be" in captured.err
            assert f"got {float(step)}" in captured.err

    def test_non_finite_residuals_fail_with_valid_json(self, capsys,
                                                       monkeypatch):
        # NaN and infinite residuals fail their checks, and the report
        # carries them as strings, where JSON has no NaN
        from liegauge.getzler import checks

        monkeypatch.setattr(checks, "square_residual", lambda *a: math.nan)
        leibniz = checks.leibniz_check
        monkeypatch.setattr(checks, "leibniz_check", lambda **kw: {
            **leibniz(**kw), "residual": math.inf, "ok": False})
        assert cli.main(["getzler-check", "--arity", "1", "--samples", "2",
                         "--output", "structured"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "fail"
        results = report["results"]
        assert results["leibniz"] == {"max_residual": "inf", "ok": False,
                                      "tolerance": 1e-4}
        for square in results["total_square"]:
            assert not square["ok"]
            assert square["max_residual"] == "nan"
            assert square["reduction_ratio"] == "nan"
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
            "ff19b336b83658ca1c853817951318cef2e3e5d5519690b7519571a474c0e1db")
        parsed = json.loads(first)
        assert set(parsed) == {"command", "inputs_digest", "results",
                               "verdict", "warnings"}

    @pytest.mark.parametrize("argv, code, digest", [
        (["--arity", "2", "--samples", "10"], 0,
         "83bb68ea3fb72a867d9618ba7609b7531251dd99e96a8d8aca3bc85c8653b2b1"),
        # a known failure: its bytes and its exit code are pinned too
        (["--arity", "0", "--samples", "3", "--seed", "20"], 1,
         "dc79e17c730834c248d4767aa30796ae3090c1ad9c50e196dfe4be05ee9b2cc6"),
    ], ids=["arity2-passes", "arity0-seed20-fails"])
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

    def test_the_numeric_path_runs_without_scipy_or_numpy(self):
        # with a finder that refuses scipy and numpy, every module imports
        # but `__main__` (which runs the command line), and getzler-check
        # runs: no array library, and so no BLAS, is involved
        script = ("import importlib, pkgutil, sys\n"
                  "class Refuse:\n"
                  "    def find_spec(self, name, path=None, target=None):\n"
                  "        if name.partition('.')[0] in ('scipy', 'numpy'):\n"
                  "            raise ImportError(name + ' is refused')\n"
                  "sys.meta_path.insert(0, Refuse())\n"
                  "import liegauge\n"
                  "for m in pkgutil.walk_packages(liegauge.__path__,\n"
                  "                               'liegauge.'):\n"
                  "    if m.name != 'liegauge.__main__':\n"
                  "        importlib.import_module(m.name)\n"
                  "from liegauge import cli\n"
                  "code = cli.main(['getzler-check', '--arity', '0',\n"
                  "                 '--samples', '2', '--output',\n"
                  "                 'structured'])\n"
                  "assert not {'scipy', 'numpy'} & set(sys.modules)\n"
                  "sys.exit(code)\n")
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["command"] == "getzler-check"

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
        (["relcoh", "--pair", "sl3"], 0,
         "cd7f6aade4b69c37d701f2607ff2dd8281b4e0e0fc359cd59942ec6857f58ea6"),
        (["relcoh", "--pair", "gl2"], 0,
         "ac06b6658536aa9037dddb042583b2f8a63e153994eca44d8be2d55145fea155"),
        (["relcoh", "--pair", "so4"], 0,
         "f64bf304dc60b308df1890f5226f0be08db60880df829ab64c9d42da373b70f9"),
        (["relcoh", "--pair", "sl4/so4"], 0,
         "8e72c96b10b88b3691a0c13e5112c8bfe8165e651d06813017920a28c221e4e4"),
        (["relcoh", "--pair", "su3/so3"], 0,
         "7f37c65def9e2a5450010fc9f262169f79772d3c01e4fb9834da7cda8d4b64b0"),
        (["invariants", "--algebra", "sl3", "--max-degree", "4"], 0,
         "038d3d19e2b8a70591479faf4bca898b34c8d72e09d1d2c4cf37dabc820ee025"),
        (["invariants", "--algebra", "su3", "--max-degree", "3"], 0,
         "ac5e2ccf50ba8663ddca53d80032d164b7bc480abfa9312573f5c22248ef2be2"),
        (["invariants", "--algebra", "so5", "--max-degree", "4"], 0,
         "ee915376fd5e0d21a5d23007ce0245e6bb395da16d3c8f2a226d99519f68aeb4"),
        (["relcoh", "--pair", "su2/so2"], 0,
         "2685d3bd62cc5e6609fc37ef525f67594408863395b23acf9eb46149f6a4112d"),
    ])
    def test_exact_reports_keep_their_bytes(self, capsys, argv, code,
                                            digest):
        # bytes of a reference build: the ten README commands, then plain
        # complexes that build the differential, the even and Gaussian
        # pairs, Sym^d past degree 2, and the compact Cartan pair su2/so2;
        # the anomaly digest hashes the fixture's content, not its path.
        # Each command runs twice in one process, so state left by a first
        # run cannot change the bytes.
        for _ in range(2):
            assert cli.main(argv + ["--output", "structured"]) == code
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, code, digest", [
        (["anomaly", f"{FIXTURES}/adjoint_sl3.json"], 0,
         "72c980ea935696e72a1c5f60a1a4227d2889394c68e478ffc52f8fe2eff4afdc"),
        (["anomaly", f"{FIXTURES}/left_only_sl3.json"], 1,
         "3fe7c8285fe06fad86cbef26071c6e012c0e5cbc99d4faa322ce88b44da21eb0"),
        (["anomaly", f"{FIXTURES}/left_only_sl2.json"], 1,
         "3a0956d2ea8fc107c69ad41256a0f6dd85cd0ff8942b27ae57139ad2af9f4a43"),
        (["anomaly", f"{FIXTURES}/block_dup_sl2_in_sl4.json"], 0,
         "e62509da8d6bd1df57b918f1c0aee171ff51b250bbbdb5a396d77d16469252cd"),
        (["wzw-verify"], 0,
         "b30b4b88a306df5c44f1419b481bc1c2266c0012b3b911fe3f54545346837fd9"),
        (["relcoh", "--pair", "sl3/so3"], 0,
         "c90c21f14decbc4e1754e9efa18eec58ac4fb1241f3ef7d1a041bfcdf7b0333d"),
        (["relcoh", "--pair", "sl2/so2"], 0,
         "19725e90156e6e281e93b7901a93b0b834e61811d8e3d21b404a31569106794b"),
        (["relcoh", "--pair", "su2"], 0,
         "24628c37ddf98d961bcd2bf4f2b1ea8fdd182ae46df1595a13c8d2d2d606f75f"),
        (["invariants", "--algebra", "sl2", "--max-degree", "4"], 0,
         "0306b063427388b516aae7c424c491e13e3fc57b9a71bce26d5940efaa233f40"),
        (["series", "--n", "5", "--truncate", "40"], 0,
         "aa3f98f6eb230988762d12601792095b829835d69e166db35819e47f378b98e5"),
    ])
    def test_text_reports_keep_their_bytes(self, capsys, argv, code, digest):
        # default text output of the ten README commands other than
        # getzler-check, from a reference build; text mode prints the
        # residual and detail strings of every wzw-verify row
        for _ in range(2):
            assert cli.main(argv) == code
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest, peak_mib", [
        (["invariants", "--algebra", "sl4", "--max-degree", "4"],
         "352fb6931c4e93f5d177b28dfeaabbaca49e8272ff2ed973f060c59c2597d5b5",
         50),
        (["relcoh", "--pair", "sl5/so5"],
         "0ae15f8af1a02d3d73ad75684c9edadd57e24d05a0facfdd9e461634d6a5e424",
         342),
    ], ids=["sl4-degree-4", "sl5/so5"])
    def test_large_reports_keep_their_bytes_in_bounded_memory(
            self, argv, digest, peak_mib):
        # structured bytes of a reference build for the two largest exact
        # commands, each run once in a fresh interpreter that prints the
        # peak resident set of its own address space (VmHWM, in KiB).  Not
        # ru_maxrss: Linux carries the spawning process's peak into it at
        # exec, so this test process's memory would count
        script = ("import re, sys\n"
                  "from liegauge import cli\n"
                  "code = cli.main(sys.argv[1:])\n"
                  "sys.stdout.flush()\n"
                  "with open('/proc/self/status') as f:\n"
                  "    print(re.search(r'VmHWM:\\s*(\\d+) kB', f.read())[1],\n"
                  "          file=sys.stderr)\n"
                  "sys.exit(code)\n")
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script, *argv, "--output", "structured"],
            env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert hashlib.sha256(done.stdout).hexdigest() == digest
        assert int(done.stderr.split()[-1]) < peak_mib * 1024

    def test_structured_output_round_trips(self, capsys):
        assert cli.main(["relcoh", "--pair", "sl2/so2",
                         "--output", "structured"]) == 0
        out = capsys.readouterr().out
        report = RunReport(**json.loads(out))
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


# -- structure data built once per process -------------------------------------


class TestStructureCache:
    @pytest.mark.parametrize("argv", [
        ["relcoh", "--pair", "sl3/so3"],
        ["invariants", "--algebra", "sl3", "--max-degree", "2"],
        ["anomaly", f"{FIXTURES}/adjoint_sl3.json"],
    ])
    def test_a_repeated_call_builds_no_solver(self, capsys, solver_builds,
                                              argv):
        lgio.classical.cache_clear()
        cli._classical_pair.cache_clear()
        argv = argv + ["--output", "structured"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert solver_builds
        solver_builds.clear()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first
        assert solver_builds == []

    def test_labels_of_one_algebra_share_an_entry(self, capsys):
        lgio.classical.cache_clear()
        cli._classical_pair.cache_clear()
        for label in ("sl3", "SL(3)", "sl(3)"):
            assert cli.main(["invariants", "--algebra", label,
                             "--max-degree", "2"]) == 0
        assert lgio.classical.cache_info().currsize == 1
        assert lgio.classical(*lgio.parse_label("SL(3)")) is \
            lgio.classical(*lgio.parse_label("sl3"))
        for label in ("sl3/so3", "SL(3)/SO(3)"):
            assert cli.main(["relcoh", "--pair", label]) == 0
        assert cli._classical_pair.cache_info().currsize == 1
        capsys.readouterr()

    def test_a_failing_pair_is_not_cached(self, capsys):
        pairs = cli._classical_pair.cache_info().currsize
        errors = []
        for _ in range(2):
            assert cli.main(["relcoh", "--pair", "so3/sl3"]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "subalgebra basis does not lie in the span" in errors[0]
        assert cli._classical_pair.cache_info().currsize == pairs

    def test_a_shared_pair_is_immutable(self):
        pair = cli._classical_pair(("sl", 3), ("so", 3))
        cbar = pair.projected_constants
        assert type(cbar) is tuple
        assert all(type(row) is tuple for row in cbar)
        with pytest.raises(TypeError):
            cbar[0][1] = (1,) * pair.p_dim
        for q in range(pair.p_dim + 1):
            ops = pair.subalgebra_action(q)
            assert len(ops) == pair.k_dim
            assert type(ops) is tuple
            assert all(type(op) is tuple for op in ops)
            assert type(pair.differential(q)) is tuple
        with pytest.raises(TypeError):
            pair.subalgebra_action(2)[0][0] = (0, 0, 1)
        with pytest.raises(TypeError):
            pair.subalgebra_action(2)[0] = ()
        with pytest.raises(TypeError):
            pair.differential(2)[0] = (0, 0, 1)

    def test_a_shared_algebras_operators_are_immutable(self):
        ops = lgio.classical("sl", 2).coadjoint_derivations(4)
        assert type(ops) is tuple
        assert all(type(op) is tuple for op in ops)
        with pytest.raises(TypeError):
            ops[0][0] = (0, 0, 1)
        with pytest.raises(TypeError):
            ops[0] = ()

    def test_a_pair_builds_its_subalgebra_images_once(self, capsys,
                                                      monkeypatch):
        built = []
        images = relcoh.coadjoint_images

        def counting(c, offset):
            built.append(offset)
            return images(c, offset)

        monkeypatch.setattr(relcoh, "coadjoint_images", counting)
        cli._classical_pair.cache_clear()
        argv = ["relcoh", "--pair", "sl3/so3", "--output", "structured"]
        for _ in range(2):
            assert cli.main(argv) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()
                                  ).hexdigest() == (
                "f94dc9e792a6f23107bb77d63a8e53c1f646552c02e3f87ac3a4478be0438fe9")
        # one build on the first call, none on the second
        assert built == [3]

    @pytest.mark.parametrize("argv, digest", [
        (["relcoh", "--pair", "sl3/so3"],
         "f94dc9e792a6f23107bb77d63a8e53c1f646552c02e3f87ac3a4478be0438fe9"),
        (["relcoh", "--pair", "su2"],
         "0318c93dcb57019eec356d055a1fdcaabd0489622c0d81824a931c5817522344"),
        (["invariants", "--algebra", "sl2", "--max-degree", "4"],
         "c6c12efe33591141e52facf482c7775f4848616c53089dbe1c95369638fd1152"),
    ], ids=["sl3/so3", "su2", "sl2-degree-4"])
    def test_a_repeated_call_builds_no_operators(self, capsys, monkeypatch,
                                                 argv, digest):
        from liegauge import liealg
        builds, kernels = [], []
        build, kernel = liealg.graded_derivations, liealg.joint_kernel

        def counting_build(images, n, degree, alternating):
            builds.append(degree)
            return build(images, n, degree, alternating)

        def counting_kernel(dim, ops):
            kernels.append(dim)
            return kernel(dim, ops)

        for module in (liealg, relcoh):
            monkeypatch.setattr(module, "graded_derivations", counting_build)
            monkeypatch.setattr(module, "joint_kernel", counting_kernel)
        lgio.classical.cache_clear()
        cli._classical_pair.cache_clear()
        runs = []
        for _ in range(2):
            builds.clear()
            kernels.clear()
            assert cli.main(argv + ["--output", "structured"]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest
            runs.append((len(builds), list(kernels)))
        assert runs[0][0] > 0 and runs[0][1]
        # every kernel is computed again; no operator is built again.  The
        # first sl3/so3 call also builds the pair, whose complement is the
        # kernel of the Killing pairing on g (dim 8), before the wedges
        assert runs[1][0] == 0
        if argv[2] == "sl3/so3":
            assert runs[0][1] == [8] + runs[1][1]
        else:
            assert runs[0][1] == runs[1][1]
