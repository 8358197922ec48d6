"""CLI behavior: golden outputs, exit codes, all six modes."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import time
from datetime import timedelta
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from opkit.cli import main
from opkit.poly import (CERTIFICATE_BITS_CAP, DEGREE_CAP, _coefficient_bits,
                        parse_polynomial)

from conftest import run_counts

ROOT = Path(__file__).resolve().parent.parent
DEMO_JOB = ROOT / "src" / "opkit" / "data" / "demo_job.json"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_job(tmp_path, data, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def demo_job_dict():
    return json.loads(DEMO_JOB.read_text())


# Enumerated symmetry basis on the two-variable truncated derivative.
SYMMETRY_ENUMERATED_JOB = {
    "variables": ["x", "y"],
    "factors": ["x", "x+1"],
    "instance": {"kind": "truncated_derivative", "max_degree": 3},
}

# One explicit S on the diagonal instance of (x+1)(x+2).
SYMMETRY_EXPLICIT_JOB = {
    "variables": ["x"],
    "lambdas": ["1", "2"],
    "instance": {"kind": "matrices",
                 "generators": [[["-1", "0"], ["0", "-2"]]]},
    "symmetry": [["2", "0"], ["0", "5"]],
}


# (D+1)^2 u = f with D u = g on the 3-dimensional truncated derivative D;
# f and g are derived from u = (1, 2, 3).
CONSISTENT_SYSTEM_JOB = {
    "variables": ["x"],
    "factors": ["x+1", "x+1"],
    "constraints": ["x"],
    "instance": {"kind": "matrices",
                 "generators": [[["0", "1", "0"],
                                 ["0", "0", "2"],
                                 ["0", "0", "0"]]]},
    "f": ["11", "14", "3"],
    "g": [["2", "6", "0"]],
}


class TestGolden:
    def test_plan_matches_golden(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--job", str(DEMO_JOB))
        assert code == 0
        assert out == (GOLDEN / "demo_plan.json").read_text()

    def test_certify_matches_golden(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--job", str(DEMO_JOB))
        assert code == 0
        assert out == (GOLDEN / "demo_certify.json").read_text()

    def test_reduce_symbolic_matches_golden(self, capsys, tmp_path):
        job = demo_job_dict()
        del job["instance"]
        del job["f"]
        path = write_job(tmp_path, job)
        code, out, _ = run_cli(capsys, "reduce", "--job", path)
        assert code == 0
        assert out == (GOLDEN / "demo_reduce_symbolic.json").read_text()

    @pytest.mark.parametrize("job, golden", [
        (SYMMETRY_ENUMERATED_JOB, "symmetry_enumerated.json"),
        (SYMMETRY_EXPLICIT_JOB, "symmetry_explicit.json"),
    ], ids=["enumerated", "explicit"])
    def test_symmetry_matches_golden(self, capsys, tmp_path, job, golden):
        code, out, _ = run_cli(capsys, "symmetry", "--job",
                               write_job(tmp_path, job))
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    def test_byte_stable_across_runs(self, capsys):
        _, first, _ = run_cli(capsys, "certify", "--job", str(DEMO_JOB))
        _, second, _ = run_cli(capsys, "certify", "--job", str(DEMO_JOB))
        assert first == second

    def test_golden_certificates_all_verified(self):
        report = json.loads((GOLDEN / "demo_certify.json").read_text())
        assert report["alpha_certificate"]["verified"]
        assert all(d["verified"] for d in report["dual_certificates"])
        assert report["alpha"] == [[0], [1, 2], [1, 3], [2, 3]]
        assert report["beta_min"] == [[0, 1], [0, 2], [0, 3], [1, 2, 3]]
        assert report["components"] == [[0], [1, 2, 3]]


class TestMembershipReuse:
    def test_demo_certify_searches_each_ideal_once(self, capsys,
                                                   buchberger_runs):
        code, _, _ = run_cli(capsys, "certify", "--job", str(DEMO_JOB))
        assert code == 0
        probes = [gens for track, gens in buchberger_runs if not track]
        tracked = [gens for track, gens in buchberger_runs if track]
        # L, its 4 co-atoms, and the 4 singletons and 6 pairs below them:
        # every nonempty subset once.  One tracked run per beta_min member.
        assert len(probes) == len(set(probes)) == 15
        assert len(tracked) == len(set(tracked)) == 4
        assert set(tracked) <= set(probes)

    def test_demo_plan_builds_no_certificate(self, capsys, buchberger_runs):
        # plan prints no certificate, so it makes the same 15 probes as
        # certify and none of certify's 4 tracked runs.
        code, _, _ = run_cli(capsys, "plan", "--job", str(DEMO_JOB))
        assert code == 0
        assert run_counts(buchberger_runs) == (15, 0)
        buchberger_runs.clear()
        code, _, _ = run_cli(capsys, "certify", "--job", str(DEMO_JOB))
        assert code == 0
        assert run_counts(buchberger_runs) == (15, 4)


class TestMembershipCap:
    """The membership search at and past l = MEMBERSHIP_GROUND_CAP (12)."""

    def test_plan_past_the_cap_is_3_before_any_search(self, capsys, tmp_path,
                                                      buchberger_runs):
        # 150 quadrics: the search refuses l = 149 before its first probe,
        # so none of the 11,175 pair searches of the coincidence graph runs.
        path = write_job(tmp_path, {
            "variables": ["x", "y", "z"],
            "factors": [f"x^2+{k}*y*z+{k + 1}*z^2-{k + 2}" for k in range(150)],
        })
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "plan", "--job", path)
        assert code == 3
        assert "membership search capped" in err
        assert buchberger_runs == []
        assert time.perf_counter() - start < 2

    def test_certify_at_the_cap_within_budget(self, capsys, tmp_path,
                                              buchberger_runs):
        # The 13 atoms prod_{j != i} (x - j): only the whole family
        # generates 1.  L and its 13 co-atoms settle the search, in about
        # 0.2 s on a 2-CPU x86-64 VM (a walk over all 8191 subsets takes
        # 3.2 s).  Budget: 2 s.
        path = write_job(tmp_path, {
            "variables": ["x"],
            "factors": ["*".join(f"(x-{j})" for j in range(13) if j != i)
                        for i in range(13)],
        })
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "certify", "--job", path)
        assert code == 0
        assert json.loads(out)["beta_min"] == [list(range(13))]
        assert run_counts(buchberger_runs) == (14, 1)
        assert time.perf_counter() - start < 2

    def test_plan_at_the_cap_with_no_unit_subset_within_budget(
            self, capsys, tmp_path, buchberger_runs):
        # 13 lines through the origin: L is not a unit, so no subset is.
        # About 0.1 s on a 2-CPU x86-64 VM (1 s when every subset is
        # probed).  Budget: 2 s.
        path = write_job(tmp_path, {
            "variables": ["x", "y"],
            "factors": [f"x+{k}*y" for k in range(13)],
        })
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "plan", "--job", path)
        assert code == 0
        report = json.loads(out)
        assert report["beta_min"] == [] and len(report["coincidence_edges"]) == 78
        assert run_counts(buchberger_runs) == (1, 0)
        assert time.perf_counter() - start < 2


def count_identity_checks(monkeypatch):
    """The kind of every exact identity check, in order: each
    ``verify_certificate`` call by certificate type, and each
    ``BezoutCertificate.verify`` call."""
    import opkit.certify
    import opkit.cli
    from opkit.groebner import BezoutCertificate
    calls = []
    verify = opkit.certify.verify_certificate
    bezout_verify = BezoutCertificate.verify

    def counted(cert, factors):
        calls.append(type(cert).__name__)
        return verify(cert, factors)

    def counted_bezout(cert, generators):
        calls.append("BezoutCertificate")
        return bezout_verify(cert, generators)

    for module in (opkit.certify, opkit.cli):
        monkeypatch.setattr(module, "verify_certificate", counted)
    monkeypatch.setattr(BezoutCertificate, "verify", counted_bezout)
    return calls


class TestVerifyOnce:
    # The demo's dual certificate is its four Bezout identities, each
    # checked where the tracked run builds it; the alpha certificate is
    # checked once as a whole.
    @pytest.mark.parametrize("job, checks", [
        (demo_job_dict(), ["BezoutCertificate"] * 4 + ["Certificate"]),
        ({"variables": ["x"], "lambdas": ["1", "2", "5"]}, ["Certificate"]),
    ], ids=["demo", "lambdas"])
    def test_certify_checks_each_certificate_once(self, capsys, tmp_path,
                                                  monkeypatch, job, checks):
        calls = count_identity_checks(monkeypatch)
        code, out, _ = run_cli(capsys, "certify", "--job",
                               write_job(tmp_path, job))
        assert code == 0
        assert json.loads(out)["alpha_certificate"]["verified"] is True
        assert calls == checks

    def test_reduce_checks_the_certificate_once_more(self, capsys, tmp_path,
                                                    monkeypatch):
        calls = count_identity_checks(monkeypatch)
        path = str(DEMO_JOB)
        code, _, _ = run_cli(capsys, "certify", "--job", path)
        certify = ["BezoutCertificate"] * 4 + ["Certificate"]
        assert code == 0 and calls == certify
        code, out, _ = run_cli(capsys, "reduce", "--job", path)
        assert code == 0
        assert json.loads(out)["solution_sets_equal"] is True
        # certify's checks, then one at the boundary of split
        assert calls[len(certify):] == certify + ["Certificate"]

    def test_symmetry_eliminates_p_once(self, capsys, tmp_path, monkeypatch):
        # A job runs the same four eliminations whatever its basis size:
        # P, the right division [P^T | I], and one canonical span basis per
        # side of the generation check.  The golden job has 27 basis
        # elements, the dimension-10 job 91.
        import opkit.backend
        from opkit.backend import instantiate
        from conftest import dense_rows
        dim10 = {"variables": ["x"], "factors": ["x", "x+1"],
                 "instance": {"kind": "truncated_derivative",
                              "max_degree": 10}}
        rref = opkit.backend._sparse_rref
        for job, k, degree, size in ((SYMMETRY_ENUMERATED_JOB, 2, 3, 27),
                                     (dim10, 1, 10, 91)):
            factors = [opkit.parse_polynomial(s, job["variables"])
                       for s in job["factors"]]
            inst = opkit.make_truncated_derivative_instance(k, degree)
            p_full = instantiate(factors[0] * factors[1], inst)
            n = inst.dimension
            p_rows = dense_rows(p_full)
            transposed = [list(col) + [p_full._den * (j == i)
                                       for j in range(n)]
                          for i, col in enumerate(zip(*p_rows))]
            eliminations = []

            p_maps, division_maps = (
                [{j: v for j, v in enumerate(r) if v} for r in dense]
                for dense in (p_rows, transposed))

            def counted(rows):
                rows = [dict(r) for r in rows]
                eliminations.append("P" if rows == p_maps
                                    else "division" if rows == division_maps
                                    else "span")
                return rref(rows)

            monkeypatch.setattr(opkit.backend, "_sparse_rref", counted)
            code, out, _ = run_cli(capsys, "symmetry", "--job",
                                   write_job(tmp_path, job))
            monkeypatch.setattr(opkit.backend, "_sparse_rref", rref)
            assert code == 0
            assert json.loads(out)["symmetry_space_dimension"] == size
            assert sorted(eliminations) == ["P", "division", "span", "span"]

    def test_symmetry_checks_each_identity_once(self, capsys, tmp_path,
                                                monkeypatch):
        import opkit
        import opkit.certify
        import opkit.symmetry
        from opkit.backend import instantiate
        from opkit.symmetry import (FormalSymmetry, GeneralizedSymmetry,
                                    enumerate_formal_symmetries)
        from conftest import induced_kernel_map
        calls = {"verify": 0, "formal": 0, "generalized": 0, "solve": 0,
                 "span": 0}
        sandwiches = []
        check = opkit.symmetry._check_sandwiches
        monkeypatch.setattr(
            opkit.symmetry, "_check_sandwiches",
            lambda failure, *sides: sandwiches.append(failure)
            or check(failure, *sides))

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(opkit.certify, "verify_certificate", counted(
            "verify", opkit.certify.verify_certificate))
        monkeypatch.setattr(FormalSymmetry, "holds_for", counted(
            "formal", FormalSymmetry.holds_for))
        monkeypatch.setattr(GeneralizedSymmetry, "holds_for", counted(
            "generalized", GeneralizedSymmetry.holds_for))
        for name, module in list(sys.modules.items()):
            if name.startswith("opkit") and hasattr(module, "solve_affine"):
                monkeypatch.setattr(module, "solve_affine", counted(
                    "solve", module.solve_affine))
        monkeypatch.setattr(opkit.cli, "block_span", counted(
            "span", opkit.cli.block_span))
        path = write_job(tmp_path, SYMMETRY_ENUMERATED_JOB)
        code, _, _ = run_cli(capsys, "certify", "--job", path)
        assert code == 0
        certify_checks = calls["verify"]
        code, out, _ = run_cli(capsys, "symmetry", "--job", path)
        assert code == 0
        report = json.loads(out)
        m = report["symmetry_space_dimension"]
        pairs = len(report["factors"]) ** 2
        assert calls["verify"] == 2 * certify_checks + 1
        # The m basis elements pass as one stack, so each identity of a
        # pair (i, j) is one check that covers all m blocks: the slice
        # identity, then the fold identity, each a comparison of two
        # sandwiches; no slice or fold is formed, so none is checked whole.
        assert m == 27
        assert sandwiches == [opkit.symmetry._SLICE_FAILED,
                              opkit.symmetry._FOLD_FAILED] * pairs
        assert calls["formal"] == calls["generalized"] == 0
        assert calls["solve"] == 0
        assert calls["span"] == 2  # one canonical basis per side
        # an induced map reads coordinates off the kernel too
        factors = [opkit.parse_polynomial(s, ["x", "y"])
                   for s in report["factors"]]
        inst = opkit.make_truncated_derivative_instance(2, 3)
        p_full = instantiate(factors[0] * factors[1], inst)
        for S in enumerate_formal_symmetries(p_full)[:3]:
            assert induced_kernel_map(S, p_full) is not None
        assert calls["solve"] == 0


class TestExitCodes:
    def test_parse_error_is_2(self, capsys, tmp_path):
        path = write_job(tmp_path, {"variables": ["x"], "factors": ["x +"]})
        code, _, err = run_cli(capsys, "plan", "--job", path)
        assert code == 2
        assert "input error" in err

    def test_missing_job_file_is_2(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--job", "/no/such/file.json")
        assert code == 2

    @pytest.mark.parametrize("mode, depth, key", [
        ("plan", 100_000, "unused"),      # past the decoder's stack
        ("symmetry", 5_000, "instance"),
        ("symmetry", 500, "instance"),    # decoded, then refused
        ("plan", 32, "unused"),           # 33 levels with the job object
    ])
    def test_deeply_nested_json_is_2(self, capsys, tmp_path, mode, depth,
                                     key):
        deep = "[" * depth + "]" * depth
        value = (f'{{"kind": "matrices", "generators": [{deep}]}}'
                 if key == "instance" else deep)
        path = tmp_path / "job.json"
        path.write_text('{"variables": ["x"], "factors": ["x", "x+1"], '
                        f'"{key}": {value}}}')
        code, out, err = run_cli(capsys, mode, "--job", str(path))
        assert code == 2 and out == ""
        assert "job file nests arrays and objects more than 32 deep" in err

    def test_nesting_at_the_job_cap_is_read(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text('{"variables": ["x"], "factors": ["x", "x+1"], '
                        '"unused": ' + "[" * 31 + "]" * 31 + "}")
        code, out, _ = run_cli(capsys, "plan", "--job", str(path))
        assert code == 0 and json.loads(out)["ok"] is True

    def test_deeply_nested_parentheses_are_2(self, capsys, tmp_path):
        path = write_job(tmp_path, {
            "variables": ["x"],
            "factors": ["(" * 400 + "x" + ")" * 400, "x+1"],
        })
        code, out, err = run_cli(capsys, "plan", "--job", path)
        assert code == 2 and out == ""
        assert "parentheses nest deeper than 100 (at position 100)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["ß", "x²", "", "1x", "x y", "_"])
    def test_variables_must_be_names(self, capsys, tmp_path, name):
        path = write_job(tmp_path, {"variables": [name], "factors": ["1"]})
        code, out, err = run_cli(capsys, "plan", "--job", path)
        assert code == 2 and out == ""
        assert "'variables' must be a nonempty list of names" in err

    def test_resource_cap_is_3(self, capsys, tmp_path):
        path = write_job(tmp_path, {
            "variables": ["x"],
            "factors": [f"x+{i}" for i in range(14)],
        })
        code, _, err = run_cli(capsys, "plan", "--job", path)
        assert code == 3
        assert "resource" in err

    @pytest.mark.parametrize("cap", ["-5", "0", "abc"])
    def test_term_cap_must_be_a_positive_integer(self, capsys, monkeypatch,
                                                 cap):
        monkeypatch.setenv("OPKIT_TERM_CAP", cap)
        code, out, err = run_cli(capsys, "certify", "--job", str(DEMO_JOB))
        assert code == 2 and out == ""
        assert f"OPKIT_TERM_CAP must be a positive integer, got '{cap}'" in err
        assert "Traceback" not in err

    def test_cofactor_expansion_past_the_term_cap_is_3(self, capsys,
                                                       monkeypatch):
        # The demo's Buchberger runs fit a cap of 8; dual_to_alpha's
        # expansion of their cofactors needs 9.
        monkeypatch.setenv("OPKIT_TERM_CAP", "8")
        code, out, err = run_cli(capsys, "certify", "--job", str(DEMO_JOB))
        assert code == 3 and out == ""
        assert "cofactor expansion exceeded the term cap (8)" in err

    def test_huge_power_is_3_within_budget(self, capsys, tmp_path):
        # Refused after a few small squarings, in about 1 s on a 2-CPU
        # x86-64 VM.  Budget: 10 s.
        path = write_job(tmp_path, {
            "variables": ["x", "y"],
            "factors": ["(x+y+1)^3000", "x", "y+1"],
        })
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "certify", "--job", path)
        assert code == 3
        assert "forms" in err and "OPKIT_TERM_CAP" in err
        assert time.perf_counter() - start < 10

    def test_symmetry_past_the_cap_is_3_before_dense_work(self, capsys,
                                                          tmp_path):
        # Dimension 406 is the two-variable truncated derivative at
        # max_degree 28.  The symmetry command refuses it before any
        # instantiation or elimination, in about 0.03 s on a 2-CPU x86-64
        # VM; a job field cannot lift the cap.  Budget: 1 s.
        path = write_job(tmp_path, {
            **SYMMETRY_ENUMERATED_JOB,
            "instance": {"kind": "truncated_derivative", "max_degree": 28},
            "symmetry_cap": 1000})
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "symmetry", "--job", path)
        assert code == 3
        assert "capped at dimension 12, got 406" in err
        assert time.perf_counter() - start < 1

    def test_large_kernel_at_the_cap_within_budget(self, capsys, tmp_path):
        # (x)(x+1)(x+2) vanishes on diag(0 x 4, -1 x 4, -2 x 4), so at
        # dimension 12 P = 0 and all 144 matrices are formal symmetries;
        # the generation check eliminates 144 induced maps of 144 entries
        # each.  About 0.05 s on a 2-CPU x86-64 VM (0.25 s with dense
        # elimination).  Budget: 1 s.
        values = ["0"] * 4 + ["-1"] * 4 + ["-2"] * 4
        path = write_job(tmp_path, {
            "variables": ["x"], "lambdas": ["0", "1", "2"],
            "instance": {"kind": "matrices", "generators": [
                [[v if i == j else "0" for j in range(12)]
                 for i, v in enumerate(values)]]}})
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "symmetry", "--job", path)
        assert time.perf_counter() - start < 1
        assert code == 0
        report = json.loads(out)
        assert report["symmetry_space_dimension"] == 144
        assert report["generation"]["equal"] is True

    def test_explicit_symmetry_past_the_cap_is_3(self, capsys, tmp_path):
        # The same cap holds for an explicit S: the identity at dimension
        # 406 is refused before its grid is read or P is instantiated.
        # Without the cap, an explicit job took 16.6 s at dimension 190 on
        # a 2-CPU x86-64 VM, growing about cubically.  Budget: 1 s.
        n = 406
        identity = [["1" if i == j else "0" for j in range(n)]
                    for i in range(n)]
        path = write_job(tmp_path, {
            **SYMMETRY_ENUMERATED_JOB,
            "instance": {"kind": "truncated_derivative", "max_degree": 28},
            "symmetry": identity})
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "symmetry", "--job", path)
        assert code == 3
        assert "capped at dimension 12, got 406" in err
        assert time.perf_counter() - start < 1

    def test_lex_value_growth_is_3_within_budget(self, capsys, tmp_path):
        # In lex, Buchberger's values on these factors keep 30 to 65 terms
        # while their coefficients grow past 26,000 bits in 20 s.  A value
        # coefficient passes the 14000-bit cap, and the job exits 3, in
        # 1.6 to 2.4 s on a 2-CPU x86-64 VM.  Budget: 10 s.
        path = write_job(tmp_path, {"variables": ["x", "y", "z"], "factors": [
            "x^2*y^2 + 3/2*x^2*z^2 + 5/4*y^2*z + 3/2*x + 10",
            "-x^2*y*z^2 + 5*x^2*y*z + 3/4*x*y - z^2 + 4",
            "-3/4*x^2*y^2*z + x*z^2 + x*y"]})
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "plan", "--order", "lex", "--job", path)
        assert code == 3
        assert "a Buchberger value" in err and "certificate cap 14000" in err
        assert time.perf_counter() - start < 10

    def test_solution_past_the_cap_is_3(self, capsys, tmp_path):
        # Generator entries within the job cap can give a solution past the
        # print cap: for [[1, 2^4094], [2^4094, 0]] and factors x, x+1 the
        # solution of P u = (1, 2) needs 16372 bits.  Without
        # the cap, printing it exits 1 with a traceback.
        big = 2**4094
        path = write_job(tmp_path, {
            "variables": ["x"], "factors": ["x", "x+1"],
            "instance": {"kind": "matrices",
                         "generators": [[[1, big], [big, 0]]]},
            "f": ["1", "2"]})
        code, _, err = run_cli(capsys, "reduce", "--job", path)
        assert code == 3
        assert ("the recombined solution has a 16372-bit coefficient, more "
                "than the certificate cap 14000") in err

    def test_failed_verification_is_4(self, capsys, tmp_path):
        path = write_job(tmp_path, {
            "variables": ["x"],
            "factors": ["x", "x+1"],
            "certificate": {"alpha": [[0], [1]], "cofactors": ["1", "1"]},
        })
        code, out, _ = run_cli(capsys, "verify", "--job", path)
        assert code == 4
        report = json.loads(out)
        assert report["ok"] is False

    @pytest.mark.parametrize("mode, fields", [
        ("verify", {"certificate": [1]}),
        ("verify", {"dual_certificate": [1]}),
        ("reduce", {"instance": {"kind": "matrices", "generators": [
            [["1/0", "0"], ["0", "1"]]]}, "f": ["1", "0"]}),
        ("reduce", {"instance": {"kind": "matrices", "generators": [
            [[1.5, "0"], ["0", "1"]]]}, "f": ["1", "0"]}),
        ("reduce", {"instance": {"kind": "matrices", "generators": [5]},
                    "f": ["1", "0"]}),
        ("symmetry", {"instance": {"kind": "matrices", "generators": [
            [["1/0", "0"], ["0", "1"]]]}}),
        ("symmetry", {"instance": {"kind": "matrices", "generators": [
            [["0", "0"], ["0", "-1"]]]}, "symmetry": [[0.5, "0"], ["0", "1"]]}),
        ("symmetry", {"instance": {"kind": "matrices", "generators": [
            [["0", "0"], ["0", "-1"]]]}, "symmetry": [["1"]]}),
        ("reduce", {"instance": {"kind": "truncated_derivative",
                                 "max_degree": True}, "f": "random-in-range"}),
        *[(mode, {"factors": [5]}) for mode in
          ("plan", "certify", "reduce", "verify", "symmetry", "system")],
        ("system", {"constraints": [3]}),
        ("verify", {"certificate": {"alpha": [[0], [1]], "cofactors": [1, 2]}}),
        ("verify", {"dual_certificate": {"beta": [[0, 1]],
                                         "cofactors": [[1, 2]]}}),
        ("system", {"constraints": ["x"], "instance": {
            "kind": "matrices", "generators": [[["0", "1"], ["0", "0"]]]},
            "f": ["1", "0"], "g": [5]}),
        ("certify", {"factors": None, "lambdas": 5}),
    ])
    def test_malformed_field_is_2(self, capsys, tmp_path, mode, fields):
        job = {"variables": ["x"], "factors": ["x", "x+1"], **fields}
        # a field set to None is left out of the job
        path = write_job(tmp_path, {k: v for k, v in job.items()
                                    if v is not None})
        code, _, err = run_cli(capsys, mode, "--job", path)
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("entry, code, message", [
        ('"' + "7" * 3000 + '"', 3, "3000 digits"),
        ('"1/' + "3" * 3000 + '"', 3, "3000 digits"),
        ("7" * 5000, 3, "5000 digits"),
        ("-" + "7" * 5000, 3, "5000 digits"),
        ('"1e4000000"', 2, "bad rational"),
        ('"1.5"', 2, "bad rational"),
        ('"1/0"', 2, "bad rational"),
    ], ids=["long-string", "long-denominator", "long-json-integer",
            "long-negative-json-integer", "exponent", "decimal",
            "zero-denominator"])
    def test_job_rational_size_within_budget(self, capsys, tmp_path, entry,
                                             code, message):
        # Refused before conversion in well under 0.1 s on a 2-CPU x86-64
        # VM.  Budget: 2 s.  Without the caps, the 3,000-digit entry makes
        # an f that exits 1 when printed, the 5,000-digit JSON integer
        # exits 1 inside json.load, and "1e4000000" builds a 4-million-digit
        # integer.
        path = tmp_path / "job.json"
        path.write_text(
            '{"variables": ["x"], "factors": ["x", "x+1"], "instance": '
            '{"kind": "matrices", "generators": [[[' + entry + ', "0"], '
            '["0", "-1"]]]}, "f": "random-in-range"}')
        start = time.perf_counter()
        got, _, err = run_cli(capsys, "reduce", "--job", str(path))
        assert (got, message in err) == (code, True)
        assert time.perf_counter() - start < 2

    def test_huge_degree_is_3_within_budget(self, capsys, tmp_path):
        # Refused by the parser's degree cap before x^100000000 is formed,
        # in under 0.01 s on a 2-CPU x86-64 VM.  Budget: 2 s.  Without the
        # cap, Buchberger reduces x^N by x+1 one degree per step.
        path = write_job(tmp_path, {
            "variables": ["x", "y"],
            "factors": ["x^100000000+y", "x+1"],
        })
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "certify", "--job", path)
        assert code == 3
        assert "total degree" in err
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize("factor, code, message", [
        ("2²", 2, "unexpected character"),
        ("x+٣", 2, "unexpected character"),
        ("7" * 5000, 3, "5000 digits"),
        ("1/" + "3" * 5000, 3, "5000 digits"),
        ("+".join(f"1/{p}" for p in range(2, 4000)
                  if all(p % q for q in range(2, int(p ** 0.5) + 1))),
         3, "-bit coefficient"),
    ], ids=["superscript", "arabic-indic", "long-literal",
            "long-denominator", "long-sum"])
    def test_literal_digits(self, capsys, tmp_path, factor, code, message):
        path = write_job(tmp_path, {"variables": ["x"],
                                    "factors": [factor, "x"]})
        got, _, err = run_cli(capsys, "certify", "--job", path)
        assert got == code
        assert message in err

    def test_huge_coefficient_is_3_within_budget(self, capsys, tmp_path):
        # Refused by the parser's coefficient cap from the bit length of 2,
        # before 2^10000000 is formed, in under 0.01 s on a 2-CPU x86-64
        # VM.  Budget: 2 s.
        # Without the cap, printing the factor fails on its digit count.
        path = write_job(tmp_path, {"variables": ["x"],
                                    "factors": ["2^10000000", "x"]})
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "certify", "--job", path)
        assert code == 3
        assert "-bit coefficient" in err and "4096" in err
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize("field", ["factors", "lambdas"])
    def test_certificate_bits_cap_is_3_within_budget(self, capsys, tmp_path,
                                                     field):
        # Four constants of 3900 to 4000 bits, each within the parser's cap,
        # and 0: the certificate of the factors x + c needs 16000-bit
        # coefficients.  Refused in dual_to_alpha (factors) or in the
        # partial fractions (lambdas) in about 0.2 s on a 2-CPU x86-64 VM.
        # Budget: 2 s.  Without the cap, printing the certificate fails on
        # its digit count.
        constants = [2**4000 + 1, 3**2500, 5**1700, 0, 7**1400]
        values = ([f"x+{c}" for c in constants] if field == "factors"
                  else [str(c) for c in constants])
        path = write_job(tmp_path, {"variables": ["x"], field: values})
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "certify", "--job", path)
        assert code == 3
        assert "certificate cap 14000" in err and "Traceback" not in err
        assert time.perf_counter() - start < 2

    def test_demo_stays_far_under_the_certificate_bits_cap(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--job", str(DEMO_JOB))
        assert (code, out) == (0, (GOLDEN / "demo_certify.json").read_text())
        report = json.loads(out)
        cofactors = [item["Q"] for d in report["dual_certificates"]
                     for item in d["cofactors"]]
        cofactors += [item["Q"] for item in
                      report["alpha_certificate"]["cofactors"]]
        bits = max(_coefficient_bits(parse_polynomial(q, ["x", "y"]).terms
                                     .values()) for q in cofactors)
        assert bits * 100 < CERTIFICATE_BITS_CAP

    @pytest.mark.parametrize("field, family", [
        ("dual_certificate", [[0, 1.7]]),
        ("dual_certificate", [[0, True]]),
        ("dual_certificate", [[0, "1"]]),
        ("dual_certificate", ["01"]),
        ("certificate", [[0], [1.0]]),
        ("certificate", [[False], [1]]),
        ("certificate", [[0], ["1"]]),
    ])
    def test_non_integer_index_is_2(self, capsys, tmp_path, field, family):
        key = "beta" if field == "dual_certificate" else "alpha"
        cofactors = ([["1", "-1"]] if field == "dual_certificate"
                     else ["1", "-1"])
        path = write_job(tmp_path, {
            "variables": ["x"], "factors": ["x", "x+1"],
            field: {key: family, "cofactors": cofactors}})
        code, _, err = run_cli(capsys, "verify", "--job", path)
        assert code == 2
        assert "integer indices" in err or "index lists" in err

    def test_no_decomposition_is_4(self, capsys, tmp_path):
        path = write_job(tmp_path, {"variables": ["x"], "factors": ["x"]})
        code, _, err = run_cli(capsys, "certify", "--job", path)
        assert code == 4
        assert "no decomposition" in err


# Job rationals as the parser meets them: exact ones (integers, small and
# near the 4096-bit cap, and "a/b" strings), and values that are not exact
# rationals or pass the cap.
EXACT_RATIONALS = st.one_of(
    st.integers(-9, 9),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)),
    st.integers(2**4094, 2**4095),
)
FUZZ_RATIONALS = st.one_of(
    EXACT_RATIONALS,
    st.integers(2**4096, 2**4097),
    st.sampled_from(["1/0", " 5 ", "1e3", "0.5", "1//2", "", "x"]),
    st.booleans(), st.floats(), st.none(),
    st.lists(st.integers(0, 1), max_size=2),
)


@st.composite
def fuzz_grid(draw, entries, n=None):
    """A row list: square of side n when n is given, else any shape."""
    rows = draw(st.integers(0, 3)) if n is None else n
    width = draw(st.integers(0, 3)) if n is None else n
    ragged = n is None and draw(st.booleans())
    return [draw(st.lists(entries, min_size=0 if ragged else width,
                          max_size=3 if ragged else width))
            for _ in range(rows)]


@st.composite
def fuzz_generators(draw, k):
    """Generator lists: square grids of one side (commuting or not), scalar
    diagonals (they commute), any shape, or a value that is no list.  The
    entries are all exact in about half of the draws, and the list has one
    generator per variable (k) in about half."""
    entries = draw(st.sampled_from([EXACT_RATIONALS, FUZZ_RATIONALS]))
    n = draw(st.integers(1, 3))
    count = draw(st.one_of(st.just(k), st.integers(0, 3)))
    kind = draw(st.sampled_from(["square", "diagonal", "any", "other"]))
    if kind == "square":
        return [draw(fuzz_grid(entries, n)) for _ in range(count)]
    if kind == "diagonal":
        return [[[draw(entries) if i == j else 0 for j in range(n)]
                 for i in range(n)] for _ in range(count)]
    if kind == "any":
        return [draw(fuzz_grid(entries)) for _ in range(count)]
    return draw(st.one_of(entries, fuzz_grid(entries)))


@st.composite
def fuzz_instance(draw, k):
    """An instance block for k variables: either kind with good and bad
    fields, or an unknown kind, an object without a kind or a non-object."""
    kind = draw(st.sampled_from(["truncated_derivative", "matrices", "other"]))
    if kind == "truncated_derivative":
        return {"kind": kind, "max_degree": draw(st.one_of(
            st.integers(1, 3), st.one_of(
                st.integers(-1, 0), st.integers(2001, 10**40),
                st.just(2**4096 - 1), st.floats(), st.booleans(),
                st.sampled_from(["2", None]))))}
    if kind == "matrices":
        return {"kind": kind, "generators": draw(fuzz_generators(k))}
    return draw(st.one_of(
        st.fixed_dictionaries({"kind": st.one_of(
            st.sampled_from(["sphere", "Matrices", ""]), st.integers(0, 2),
            st.none(), st.lists(st.just("matrices"), max_size=1))}),
        st.dictionaries(st.sampled_from(["max_degree", "generators", "n"]),
                        FUZZ_RATIONALS, max_size=2),
        FUZZ_RATIONALS))


class TestInstanceFuzz:
    """Any ``instance`` block keeps the exit-code contract: 0, 2, 3 or 4,
    never a traceback."""

    @given(st.sampled_from(["reduce", "symmetry"]),
           st.sampled_from([["x"], ["x", "y"]]), st.data(),
           st.one_of(st.just("random-in-range"),
                     st.sampled_from([["1", "2"], None])))
    @settings(max_examples=150, deadline=timedelta(seconds=10),
              derandomize=True)
    def test_exit_code_contract(self, mode, variables, data, f):
        job = {"variables": variables, "factors": ["x", "x+1"],
               "instance": data.draw(fuzz_instance(len(variables)))}
        if f is not None:
            job["f"] = f
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "job.json"
            path.write_text(json.dumps(job))
            out, err = io.StringIO(), io.StringIO()
            with (contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(err)):
                code = main([mode, "--job", str(path)])
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()


# FUZZ_RATIONALS within the 4096-bit job-rational cap, whose refusal is
# exit code 3 and is tested on its own.
MALFORMED_ENTRIES = st.one_of(
    EXACT_RATIONALS,
    st.sampled_from(["1/0", " 5 ", "1e3", "0.5", "1//2", "", "x"]),
    st.booleans(), st.floats(), st.none(),
    st.lists(st.integers(0, 1), max_size=2),
)


@st.composite
def explicit_symmetry_job(draw):
    """A symmetry job for factors x, x+1 on one upper triangular generator
    of side n <= 4 with eigenvalues in {0, -1, 2} (0 drawn twice as often,
    so P = x (x + 1) is mostly singular), and an explicit grid: a rational
    combination of the enumerated basis (a symmetry), any rational square
    grid (mostly not one), or a malformed grid."""
    n = draw(st.integers(1, 4))
    upper = [[draw(st.sampled_from([0, 0, -1, 2])) if i == j
              else draw(st.integers(-2, 2)) if i < j else 0
              for j in range(n)] for i in range(n)]
    kind = draw(st.sampled_from(["symmetry", "grid", "malformed"]))
    if kind == "symmetry":
        from opkit.backend import Matrix
        from opkit.symmetry import enumerate_formal_symmetries
        x = Matrix(upper)
        p = x * (x + Matrix.identity(n))
        grid = Matrix.zeros(n, n)
        for s in enumerate_formal_symmetries(p):
            c = draw(st.fractions(min_value=-3, max_value=3,
                                  max_denominator=4))
            grid = grid + s.scale(c)
        grid = grid.to_strings()
    elif kind == "grid":
        grid = draw(fuzz_grid(st.fractions(-3, 3, max_denominator=4).map(str),
                              n))
    else:
        grid = draw(st.one_of(fuzz_grid(MALFORMED_ENTRIES),
                              fuzz_grid(EXACT_RATIONALS, n + 1),
                              MALFORMED_ENTRIES.filter(
                                  lambda v: v is not None)))
    return {"variables": ["x"], "factors": ["x", "x+1"],
            "instance": {"kind": "matrices",
                         "generators": [[[str(v) for v in row]
                                         for row in upper]]},
            "symmetry": grid}


class TestExplicitSymmetryFuzz:
    """An explicit ``symmetry`` grid keeps the exit-code contract: 0, 2 or
    4, never a traceback; every exit-0 witness matches the reference."""

    @given(explicit_symmetry_job())
    @settings(max_examples=120, deadline=timedelta(seconds=10),
              derandomize=True)
    def test_exit_code_contract_and_witness(self, job):
        from opkit.backend import Matrix
        from conftest import solve_right_factor_reference
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "job.json"
            path.write_text(json.dumps(job))
            out, err = io.StringIO(), io.StringIO()
            with (contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(err)):
                code = main(["symmetry", "--job", str(path)])
        assert code in (0, 2, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0:
            entry = json.loads(out.getvalue())["decompositions"][0]
            x = Matrix(job["instance"]["generators"][0])
            P = x * (x + Matrix.identity(x.rows))
            S, S_prime = Matrix(entry["S"]), Matrix(entry["S_prime"])
            assert P * S == S_prime * P
            assert S_prime == solve_right_factor_reference(P, P * S)


# Vectors as a job states them: of the right length (1 to 3 for the small
# instances drawn below) or not, with exact or malformed entries, or a
# value that is no list.
FUZZ_VECTORS = st.one_of(
    st.lists(EXACT_RATIONALS, max_size=4),
    st.lists(FUZZ_RATIONALS, max_size=4),
    st.sampled_from(["random-in-range", "1", {}]),
)
# Constraint lists: expressions in x and y, good and bad (one past
# DEGREE_CAP), or no list.
FUZZ_CONSTRAINTS = st.one_of(
    st.lists(st.one_of(st.sampled_from(["x", "x+2", "y", "x*y-1", "2", "0",
                                        "x^", "", "z", "x^10001"]),
                       st.integers(-2, 2), st.none(), st.booleans()),
             max_size=3),
    st.sampled_from(["x", {}]),
)


@st.composite
def fuzz_data_job(draw):
    """A reduce, system or symmetry job with every data field drawn: f, g,
    constraints, instance and symmetry, each well formed or not, present
    or absent.  Vectors and grids are often of the side n of the drawn
    truncated-derivative instance, and f = 0 with g = 0 is integrable."""
    variables = draw(st.sampled_from([["x"], ["x", "y"]]))
    k = len(variables)
    job = {"variables": variables, "factors": draw(st.sampled_from(
        [["x", "x+1"], ["x+1", "x+2", "x"]] if k == 1
        else [["x", "x+1"], ["x+y", "x+y+1"]]))}
    degree = draw(st.integers(1, 3))
    n = comb(degree - 1 + k, k)
    vector = st.one_of(st.just([0] * n),
                       st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                       FUZZ_VECTORS)
    fields = {
        "instance": st.one_of(
            st.just({"kind": "truncated_derivative", "max_degree": degree}),
            fuzz_instance(k)),
        "f": st.one_of(st.just("random-in-range"), vector),
        "g": st.one_of(st.lists(vector, min_size=1, max_size=2),
                       FUZZ_VECTORS),
        "constraints": st.one_of(
            st.lists(st.sampled_from(["x", "x+2", "x*y-1"]), min_size=1,
                     max_size=2),
            FUZZ_CONSTRAINTS),
        "symmetry": st.one_of(fuzz_grid(st.integers(-2, 2), n),
                              fuzz_grid(MALFORMED_ENTRIES)),
    }
    for key, values in fields.items():
        if draw(st.sampled_from([True, True, True, False])):
            job[key] = draw(values)
    return job


class TestJobDataFuzz:
    """The data fields of reduce, system and symmetry jobs (f, g,
    constraints, instance and symmetry) keep the exit-code contract: 0, 2,
    3 or 4, never a traceback."""

    @given(st.sampled_from(["reduce", "system", "symmetry"]), fuzz_data_job())
    @settings(max_examples=150, deadline=timedelta(seconds=10),
              derandomize=True)
    def test_exit_code_contract(self, mode, job):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "job.json"
            path.write_text(json.dumps(job))
            out, err = io.StringIO(), io.StringIO()
            with (contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(err)):
                code = main([mode, "--job", str(path)])
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()


# Values that are no string: numbers, bools, null and nested lists.
NOT_STRINGS = st.one_of(
    st.integers(-9, 9), st.floats(), st.booleans(), st.none(),
    st.lists(st.lists(st.sampled_from(["x", 1]), max_size=2), max_size=2),
)
# Strings no expression can name as a variable.
ODD_NAMES = st.sampled_from(["", "1", "x y", "x^2", "y_1 "])
# Exponents: mostly small, sometimes at or just past DEGREE_CAP.
EXPONENTS = st.one_of(st.integers(0, 3),
                      st.sampled_from([1, DEGREE_CAP, DEGREE_CAP + 1]))


def rarely(draw) -> bool:
    """True in about one draw in six: picks the malformed branch."""
    return draw(st.sampled_from([False] * 5 + [True]))


@st.composite
def fuzz_variables(draw):
    """Mostly one to three of x, y, z, sometimes with a repeat or an odd
    name, or an empty list or a value that is no list."""
    if rarely(draw):
        return draw(st.one_of(st.just([]), NOT_STRINGS))
    names = draw(st.lists(st.sampled_from(["x", "y", "z"]), min_size=1,
                          max_size=3, unique=True))
    if rarely(draw):
        names.append(draw(st.one_of(st.sampled_from(names), ODD_NAMES,
                                    NOT_STRINGS)))
    return names


@st.composite
def fuzz_factor(draw, names):
    """Mostly an expression over the job's names and ``w`` (never a
    variable) of up to three terms, with coefficients such as ``3/2``,
    ``0`` and ``1/0``; sometimes a value that is no string."""
    if rarely(draw):
        return draw(NOT_STRINGS)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coefficient = (draw(st.sampled_from(["0*", "1/0*", "x*y*"]))
                       if rarely(draw) else
                       draw(st.sampled_from(["", "2*", "-3/2*"])))
        variables = names + ["w"] if rarely(draw) else names
        powers = [f"{name}^{draw(EXPONENTS)}" for name in draw(
            st.lists(st.sampled_from(variables), max_size=2))]
        terms.append(coefficient + ("*".join(powers) or "1"))
    return " + ".join(terms)


@st.composite
def fuzz_lambda(draw):
    """Mostly a small exact rational (repeats included), sometimes a
    malformed one or one past the job-rational cap."""
    if rarely(draw):
        return draw(st.one_of(FUZZ_RATIONALS, NOT_STRINGS))
    return draw(st.sampled_from([0, 1, -2, "1/2", "-3/4"]))


@st.composite
def fuzz_factor_job(draw):
    """A job's ``variables`` with ``factors`` (most often), ``lambdas``,
    both or neither, each well formed or not."""
    field = ("both", "neither")[draw(st.integers(0, 1))] if rarely(draw) \
        else draw(st.sampled_from(["factors", "factors", "lambdas"]))
    job = {}
    if not (rarely(draw) and rarely(draw)):
        job["variables"] = (["x"] if field == "lambdas" and not rarely(draw)
                            else draw(fuzz_variables()))
    variables = job.get("variables")
    names = ([v for v in variables if isinstance(v, str)]
             if isinstance(variables, list) else []) or ["x"]
    if field in ("factors", "both"):
        job["factors"] = (draw(NOT_STRINGS) if rarely(draw) else draw(
            st.lists(fuzz_factor(names), min_size=1, max_size=4)))
    if field in ("lambdas", "both"):
        job["lambdas"] = (draw(st.one_of(FUZZ_RATIONALS, st.just([])))
                          if rarely(draw) else draw(
                              st.lists(fuzz_lambda(), min_size=1, max_size=4)))
    return job


class TestFactorFuzz:
    """Any ``variables``, ``factors`` and ``lambdas`` keep the exit-code
    contract in plan and certify mode: 0, 2, 3 or 4, never a traceback."""

    # The 300 jobs take about 1.4 s on a 2-CPU x86-64 VM.  Budget: 3 s.
    @given(st.sampled_from(["plan", "certify"]), fuzz_factor_job())
    @settings(max_examples=300, deadline=timedelta(seconds=10),
              derandomize=True)
    def test_exit_code_contract(self, mode, job):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "job.json"
            path.write_text(json.dumps(job))
            out, err = io.StringIO(), io.StringIO()
            with (contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(err)):
                code = main([mode, "--job", str(path)])
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()


# Index entries: mostly in range for up to three factors, sometimes out of
# range (negative or huge) or no integer at all.
FUZZ_INDICES = st.one_of(
    st.integers(0, 2), st.integers(0, 2),
    st.sampled_from([-1, 3, 10**30, True, False, 0.0, 1.5, "0", None, [0]]),
)
# Cofactor expressions: small ones that may or may not verify, ones with
# huge exponents or literals, malformed text, and values that are no string.
FUZZ_COFACTORS = st.one_of(
    st.sampled_from(["1", "-1", "0", "x", "-x", "x+1", "1/2", "2*x - 3/4",
                     "y"]),
    st.builds("x^{}".format, st.sampled_from(
        [DEGREE_CAP, DEGREE_CAP + 1, 10**40])),
    st.builds("{}*x".format, st.sampled_from([2**4094, 2**4097,
                                              "1" + "0" * 5000])),
    st.sampled_from(["1/0", "x^-1", "x^1.5", "", "x +", "(x+1", "1e3",
                     "x^99999999999999999999"]),
    NOT_STRINGS,
)


@st.composite
def fuzz_index_family(draw):
    """An index family: mostly a list of index lists, with duplicate
    members and indices, empty sets and out-of-range or malformed indices;
    sometimes a value that is no list of lists."""
    if rarely(draw):
        return draw(st.one_of(NOT_STRINGS, FUZZ_INDICES,
                              st.lists(FUZZ_INDICES, max_size=2)))
    family = draw(st.lists(st.lists(FUZZ_INDICES, max_size=3), max_size=3))
    if family and rarely(draw):
        family.append(list(draw(st.sampled_from(family))))
    return family


@st.composite
def fuzz_certificate(draw, dual):
    """A ``certificate`` (or, when dual, a ``dual_certificate``) object:
    mostly a family with one cofactor per member (one per index of each
    member for the dual), sometimes with counts that do not match, keys
    missing or misspelt, or a value that is no object."""
    if rarely(draw):
        return draw(st.one_of(NOT_STRINGS, FUZZ_COFACTORS,
                              st.lists(FUZZ_COFACTORS, max_size=2)))
    family = draw(fuzz_index_family())
    key = "beta" if dual else "alpha"
    members = family if isinstance(family, list) else []
    if dual:
        cofactors = [draw(st.lists(FUZZ_COFACTORS, min_size=len(J),
                                   max_size=len(J)))
                     if isinstance(J, list) and not rarely(draw)
                     else draw(st.one_of(FUZZ_COFACTORS,
                                         st.lists(FUZZ_COFACTORS, max_size=2)))
                     for J in members]
    else:
        cofactors = [draw(FUZZ_COFACTORS) for _ in members]
    if rarely(draw):
        cofactors = draw(st.one_of(
            st.just(cofactors[:-1]), st.just(cofactors + ["1"]),
            NOT_STRINGS, st.lists(st.lists(FUZZ_COFACTORS, max_size=2),
                                  max_size=2)))
    out = {key: family, "cofactors": cofactors}
    if rarely(draw):
        out.pop(draw(st.sampled_from([key, "cofactors"])))
        out[draw(st.sampled_from(["Alpha", "beta", "alpha", "cofactor"]))] = \
            family
    return out


class TestVerifyFuzz:
    """Any ``certificate`` and ``dual_certificate`` keep the exit-code
    contract in verify mode: 0, 2, 3 or 4, never a traceback."""

    # The 300 jobs take about 1 s on a 2-CPU x86-64 VM.  Budget: 3 s.
    @given(st.sampled_from([(["x"], ["x", "x+1"]),
                            (["x"], ["x", "x+1", "x+2"]),
                            (["x", "y"], ["x", "y", "x+y+1"])]),
           st.sampled_from(["certificate", "dual", "both", "neither"]),
           st.data())
    @settings(max_examples=300, deadline=timedelta(seconds=10),
              derandomize=True)
    def test_exit_code_contract(self, problem, fields, data):
        variables, factors = problem
        job = {"variables": variables, "factors": factors}
        if fields in ("certificate", "both"):
            job["certificate"] = data.draw(fuzz_certificate(dual=False))
        if fields in ("dual", "both"):
            job["dual_certificate"] = data.draw(fuzz_certificate(dual=True))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "job.json"
            path.write_text(json.dumps(job))
            out, err = io.StringIO(), io.StringIO()
            with (contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(err)):
                code = main(["verify", "--job", str(path)])
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestPlan:
    def test_invertible_constant_factor_shortcut(self, capsys, tmp_path):
        # a nonzero constant factor is invertible: the empty index set
        # appears in alpha and the cofactor is the exact inverse
        path = write_job(tmp_path, {"variables": ["x"], "factors": ["2"]})
        code, out, _ = run_cli(capsys, "certify", "--job", path)
        assert code == 0
        report = json.loads(out)
        assert report["beta_min"] == [[0]]
        assert report["alpha_certificate"]["alpha"] == [[]]
        assert report["alpha_certificate"]["cofactors"][0]["Q"] == "1/2"
        assert report["alpha_certificate"]["verified"] is True

    def test_single_factor_reports_unavailable(self, capsys, tmp_path):
        path = write_job(tmp_path, {"variables": ["x"], "factors": ["x"]})
        code, out, _ = run_cli(capsys, "plan", "--job", path)
        assert code == 0
        report = json.loads(out)
        assert report["decomposition_available"] is False
        assert report["alpha"] is None
        assert report["beta_min"] == []

    def test_two_coprime_factors(self, capsys, tmp_path):
        path = write_job(tmp_path, {"variables": ["x"], "factors": ["x", "x+1"]})
        code, out, _ = run_cli(capsys, "plan", "--job", path)
        report = json.loads(out)
        assert report["alpha"] == [[0], [1]]


class TestVerifyMode:
    def test_known_certificates_verify(self, capsys, tmp_path):
        path = write_job(tmp_path, {
            "variables": ["x", "y"],
            "factors": ["x+1", "x*y+y+1", "x", "x^2+x*y+x+y-1"],
            "dual_certificate": {
                "beta": [[0, 1], [0, 2], [0, 3], [1, 2, 3]],
                "cofactors": [["-y", "1"],
                              ["-(x-1)", "x"],
                              ["x+y", "-1"],
                              ["1/2", "1/2*(x+1)", "-1/2"]],
            },
        })
        code, out, _ = run_cli(capsys, "verify", "--job", path)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["checks"][0]["residual"] == "0"

    def test_alpha_certificate_roundtrip(self, capsys, tmp_path):
        # feed the certify output back through verify
        code, out, _ = run_cli(capsys, "certify", "--job", str(DEMO_JOB))
        cert = json.loads(out)["alpha_certificate"]
        path = write_job(tmp_path, {
            "variables": ["x", "y"],
            "factors": ["x+1", "x*y+y+1", "x", "x^2+x*y+x+y-1"],
            "certificate": {
                "alpha": cert["alpha"],
                "cofactors": [c["Q"] for c in cert["cofactors"]],
            },
        })
        code, out, _ = run_cli(capsys, "verify", "--job", path)
        assert code == 0
        assert json.loads(out)["ok"] is True


class TestReduceMode:
    def test_demo_reduce_with_instance(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "--job", str(DEMO_JOB),
                               "--seed", "1")
        assert code == 0
        report = json.loads(out)
        assert report["f_in_range"] is True
        assert report["recombined_solves"] is True
        assert report["solution_sets_equal"] is True
        assert len(report["subproblem_solutions"]) == 4

    def test_seeded_runs_are_stable(self, capsys):
        _, a, _ = run_cli(capsys, "reduce", "--job", str(DEMO_JOB), "--seed", "5")
        _, b, _ = run_cli(capsys, "reduce", "--job", str(DEMO_JOB), "--seed", "5")
        assert a == b

    def test_out_of_range_f_reported(self, capsys, tmp_path):
        # D = diag(0, 1): x has range spanned by e1; f = e0 is outside
        path = write_job(tmp_path, {
            "variables": ["x"],
            "factors": ["x", "x+1"],
            "instance": {"kind": "matrices",
                         "generators": [[["0", "0"], ["0", "1"]]]},
            "f": ["1", "0"],
        })
        code, out, _ = run_cli(capsys, "reduce", "--job", path)
        assert code == 0
        report = json.loads(out)
        assert report["f_in_range"] is False
        assert report["solution_sets_equal"] is None

    def test_univariate_lambdas_route(self, capsys, tmp_path):
        path = write_job(tmp_path, {
            "variables": ["x"],
            "lambdas": ["1", "2"],
            "instance": {"kind": "matrices",
                         "generators": [[["-1", "0"], ["0", "-2"]]]},
            "f": "random-in-range",
        })
        code, out, _ = run_cli(capsys, "reduce", "--job", path, "--seed", "2")
        assert code == 0
        report = json.loads(out)
        assert report["lambdas"] == ["1", "2"]
        assert report["alpha_certificate"]["verified"] is True
        assert report["solution_sets_equal"] is True


class TestSymmetryMode:
    def test_diagonal_instance(self, capsys, tmp_path):
        path = write_job(tmp_path, {
            "variables": ["x"],
            "lambdas": ["1", "2"],
            "instance": {"kind": "matrices",
                         "generators": [[["-1", "0"], ["0", "-2"]]]},
        })
        code, out, _ = run_cli(capsys, "symmetry", "--job", path)
        assert code == 0
        report = json.loads(out)
        assert report["operator_kernel_dim"] == 2
        assert report["generation"]["equal"] is True
        assert all(d["identities_hold"] for d in report["decompositions"])

    def test_explicit_symmetry_matrix(self, capsys, tmp_path):
        path = write_job(tmp_path, {
            "variables": ["x"],
            "lambdas": ["1", "2"],
            "instance": {"kind": "matrices",
                         "generators": [[["-1", "0"], ["0", "-2"]]]},
            "symmetry": [["2", "0"], ["0", "5"]],
        })
        code, out, _ = run_cli(capsys, "symmetry", "--job", path)
        assert code == 0
        report = json.loads(out)
        assert report["decompositions"][0]["reconstructions_hold"]

    @staticmethod
    def count_products(capsys, tmp_path, monkeypatch, job):
        """Run the symmetry job, counting the calls of kernels.mat_mul and
        kernels.stack_mul, their multiply-adds (for each entry (k, x) of a
        row of the left operand, the length of the row of the right operand
        that it scales) and the row counts of the right operands; returns
        the counts and the basis size."""
        import opkit.kernels
        counts = {"mat_mul": 0, "stack_mul": 0, "madds": 0,
                  "right_rows": []}

        def counted(name):
            kernel = getattr(opkit.kernels, name)

            def wrapper(a, b, *rest):
                # Entry (k, x) scales row k % len(b) of b in both kernels.
                counts[name] += 1
                counts["madds"] += sum(len(b[k % len(b)]) for row in a
                                       for k, _ in row)
                counts["right_rows"].append(len(b))
                return kernel(a, b, *rest)
            return wrapper

        for name in ("mat_mul", "stack_mul"):
            monkeypatch.setattr(opkit.kernels, name, counted(name))
        code, out, _ = run_cli(capsys, "symmetry", "--job",
                               write_job(tmp_path, job, "counted.json"))
        monkeypatch.undo()
        assert code == 0
        return counts, json.loads(out)["symmetry_space_dimension"]

    @staticmethod
    def truncated_derivative_job(max_degree):
        """The enumerated job for factors x, x+1 on the one-variable
        truncated derivative of dimension max_degree."""
        return {"variables": ["x"], "factors": ["x", "x+1"],
                "instance": {"kind": "truncated_derivative",
                             "max_degree": max_degree}}

    def test_products_at_the_cap_are_sparse(self, capsys, tmp_path,
                                            monkeypatch):
        # The enumerated job at dimension 12, the symmetry cap, passes its
        # 133 basis elements, each with one nonzero entry, as one stack: a
        # fixed number of products whatever the basis size (one product per
        # element took about 6,900).  The products by I_N (x) R are
        # stack_mul calls, which read R's own rows, so the multiply-adds are
        # those of the sparse blocks: 40,907 (37 mat_mul and 24 stack_mul
        # calls), against 44,307 when each slice and fold was formed and
        # checked; dense 12x12 products would do about 9.6 million.
        counts, size = self.count_products(
            capsys, tmp_path, monkeypatch, self.truncated_derivative_job(12))
        assert size == 133
        assert counts["mat_mul"] + counts["stack_mul"] <= 80
        assert counts["madds"] <= 41_000

    def test_dense_job_checks_each_pair_as_sandwiches(self, capsys, tmp_path,
                                                      monkeypatch):
        # A dense job of the symmetry benchmark's shape (n = 4, a kernel of
        # dimension 2, 12 basis elements, two factors): each pair's slice
        # and fold identities are four products by I_N (x) R on left
        # products shared across j, 9,128 multiply-adds in all, where
        # forming, folding and checking each slice took 19,216.
        job = {"variables": ["x"], "factors": ["x + 4", "x + 7"],
               "instance": {"kind": "matrices", "generators": [[
                   ["-2", "-4", "-6", "-2"], ["1", "12", "21", "11"],
                   ["-4", "-16", "-24", "-12"], ["5", "8", "9", "3"]]]}}
        counts, size = self.count_products(capsys, tmp_path, monkeypatch,
                                           job)
        assert size == 12
        assert counts["madds"] <= 10_000

    def test_product_counts_do_not_grow_with_the_basis(self, capsys,
                                                       tmp_path, monkeypatch):
        # At dimension 6 and at 12 (31 and 133 basis elements) the job makes
        # the same calls of each product kernel, and no right operand has
        # more than n rows: I_N (x) R is never formed.
        small, small_size = self.count_products(
            capsys, tmp_path, monkeypatch, self.truncated_derivative_job(6))
        large, large_size = self.count_products(
            capsys, tmp_path, monkeypatch, self.truncated_derivative_job(12))
        assert (small_size, large_size) == (31, 133)
        assert max(small["right_rows"]) <= 6
        assert max(large["right_rows"]) <= 12
        assert small["stack_mul"] > 0
        assert ((small["mat_mul"], small["stack_mul"])
                == (large["mat_mul"], large["stack_mul"]))

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    @pytest.mark.parametrize("target", ["witness", "slice", "fold"])
    def test_each_block_identity_is_checked(self, capsys, tmp_path,
                                            monkeypatch, target, position):
        # One entry of one element's witness is changed inside the stack,
        # or one entry of the left side of the slice identity of (0, 0)
        # (P_0 Pr_0 S, before its right factor Pr_0) or of the fold
        # identity of that slice (P Pr_0 S, before Pr_0^2).  The identity
        # of that block alone then fails where it is checked, and the job
        # exits 4.
        from opkit.backend import Factorization, Matrix
        from opkit.symmetry import Splitting
        count, n = 27, 6
        k = {"first": 0, "middle": count // 2, "last": count - 1}[position]

        def bump(m, r, c):
            return m + Matrix([[int((a, b) == (r, c)) for b in range(m.cols)]
                               for a in range(m.rows)])

        def nonzero_row(m):
            return next(r for r, row in enumerate(m.row_list()) if any(row))

        if target == "witness":
            right_divide = Factorization.right_divide

            def perturbed(self, C):
                # Row c of P is nonzero, so S' (I (x) P) changes in block k.
                c = nonzero_row(self.P)
                return bump(right_divide(self, C), 0, k * n + c)

            monkeypatch.setattr(Factorization, "right_divide", perturbed)
            message = "symmetry witness failed its check"
        else:
            left = Splitting._left

            def perturbed(self, i, sym):
                sides = left(self, i, sym)
                if i != 0:
                    return sides
                # Row c of the right factor is nonzero, so the left side
                # of the identity changes in block k.
                right = (self.projectors[0] if target == "slice"
                         else self._table[0].fold_right)
                changed = bump(getattr(sides, target), 0,
                               k * n + nonzero_row(right))
                return sides._replace(**{target: changed})

            monkeypatch.setattr(Splitting, "_left", perturbed)
            message = {"slice": "generalized symmetry identity failed",
                       "fold": "reconstructed symmetry failed"}[target]
        code, out, err = run_cli(capsys, "symmetry", "--job",
                                 write_job(tmp_path, SYMMETRY_ENUMERATED_JOB))
        assert code == 4 and out == ""
        assert f"internal error: {message}" in err

    def test_explicit_job_matches_single_element_slices(self, capsys,
                                                        tmp_path):
        # An explicit S is the stack of one element: its reported witness,
        # slices and slice witnesses are Pr_i S Pr_j and Q_i S' Pr_j P^j by
        # plain products on S, and those of Splitting.slice on S, for three
        # factors.
        import opkit
        from opkit.backend import Matrix
        from opkit.symmetry import (FormalSymmetry, Splitting,
                                    enumerate_formal_symmetries,
                                    is_formal_symmetry)
        from conftest import same_matrix, slice_reference
        job = {"variables": ["x"], "lambdas": ["1", "2", "-1/2"],
               "instance": {"kind": "matrices", "generators": [[
                   ["-1", "1", "0", "0"], ["0", "-1", "0", "0"],
                   ["0", "0", "-2", "0"], ["0", "0", "0", "1/2"]]]}}
        spec = opkit.UnivariateSpec.of([Fraction(1), Fraction(2),
                                        Fraction(-1, 2)])
        factors = opkit.univariate_factors(spec)
        inst = opkit.OperatorInstance.of(
            [Matrix(job["instance"]["generators"][0])])
        splitting = Splitting.of(opkit.univariate_certificate(spec),
                                 factors, inst)
        P = splitting.P
        S = Matrix.zeros(4, 4)
        for c, element in enumerate(enumerate_formal_symmetries(P)):
            S = S + element.scale(Fraction(c % 5 - 2, 1 + c % 3))
        job["symmetry"] = S.to_strings()
        code, out, _ = run_cli(capsys, "symmetry", "--job",
                               write_job(tmp_path, job))
        assert code == 0
        entry = json.loads(out)["decompositions"][0]
        sym = FormalSymmetry(S, is_formal_symmetry(S, P))
        assert entry["S"] == S.to_strings()
        assert entry["S_prime"] == sym.S_prime.to_strings()
        assert [(g["i"], g["j"]) for g in entry["generalized"]] == [
            (i, j) for i in range(3) for j in range(3)]
        for g in entry["generalized"]:
            one = splitting.slice(sym, g["i"], g["j"])
            assert g["S_ij"] == one.S_ij.to_strings()
            assert g["S_prime_ij"] == one.S_prime_ij.to_strings()
            want = slice_reference(splitting, S, sym.S_prime, g["i"], g["j"])
            assert same_matrix(one.S_ij, want[0])
            assert same_matrix(one.S_prime_ij, want[1])
        assert sum(not Matrix(g["S_ij"]).is_zero()
                   for g in entry["generalized"]) >= 3


class TestSystemMode:
    def test_consistent_system(self, capsys, tmp_path):
        path = write_job(tmp_path, CONSISTENT_SYSTEM_JOB)
        code, out, _ = run_cli(capsys, "system", "--job", path)
        assert code == 0
        report = json.loads(out)
        assert report["certificate_found"] is True
        assert report["certificate"]["verified"] is True
        assert report["integrability"]["ok"] is True
        assert report["round_trips"]["recombined_solves_system"] is True
        assert report["round_trips"]["FB_is_identity_on_parts"] is True

    def test_consistent_system_checks_each_identity_once(self, capsys,
                                                         tmp_path, monkeypatch):
        import opkit.cli
        import opkit.reducer
        from opkit.groebner import BezoutCertificate
        calls = {"verify_system_certificate": 0, "integrability_violations": 0,
                 "BezoutCertificate.verify": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("verify_system_certificate", "integrability_violations"):
            wrapper = counted(name, getattr(opkit.reducer, name))
            for module in (opkit.reducer, opkit.cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        monkeypatch.setattr(BezoutCertificate, "verify", counted(
            "BezoutCertificate.verify", BezoutCertificate.verify))
        code, out, _ = run_cli(capsys, "system", "--job",
                               write_job(tmp_path, CONSISTENT_SYSTEM_JOB))
        assert code == 0
        assert json.loads(out)["certificate"]["verified"] is True
        # The system identity is the Bezout identity of its search, checked
        # where the tracked run builds it.
        assert calls == {"verify_system_certificate": 0,
                         "integrability_violations": 1,
                         "BezoutCertificate.verify": 1}

    def test_inconsistent_data_is_4(self, capsys, tmp_path):
        path = write_job(tmp_path, {
            "variables": ["x"],
            "factors": ["x+1", "x+1"],
            "constraints": ["x"],
            "instance": {"kind": "matrices",
                         "generators": [[["0", "1", "0"],
                                         ["0", "0", "2"],
                                         ["0", "0", "0"]]]},
            "f": ["11", "14", "3"],
            "g": [["9", "9", "9"]],
        })
        code, out, _ = run_cli(capsys, "system", "--job", path)
        assert code == 4
        report = json.loads(out)
        assert report["integrability"]["ok"] is False

    def test_absent_certificate_is_4(self, capsys, tmp_path):
        path = write_job(tmp_path, {
            "variables": ["x"],
            "factors": ["x+1", "x+1"],
            "constraints": ["(x+1)^2"],
        })
        code, out, _ = run_cli(capsys, "system", "--job", path)
        assert code == 4
        assert json.loads(out)["certificate_found"] is False


class TestHuman:
    def test_human_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--job", str(DEMO_JOB), "--human")
        assert code == 0
        assert out.startswith("mode: plan")
        assert "decomposition_available: True" in out


class TestRepeatedCalls:
    def test_shared_argument_parser_keeps_nothing_between_calls(self, capsys):
        # main parses every call with one parser built at import, so each
        # call must give what it gives when made first, whatever came before.
        job = str(DEMO_JOB)
        calls = [("plan", "--job", job, "--human"),
                 ("plan", "--job", job, "--order", "lex"),
                 ("reduce", "--job", job, "--seed", "3"),
                 ("reduce", "--job", job, "--seed", "4"),
                 ("no-such-mode", "--job", job),
                 ("plan", "--job", job)]

        def call(args):
            try:
                code = main(list(args))
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        first = [call(args) for args in calls]
        assert [call(args) for args in reversed(calls)][::-1] == first
        human, lex, seed3, seed4, unknown, plain = first
        assert human[0] == 0 and human[1].startswith("mode: plan")
        assert json.loads(lex[1])["order"] == "lex"
        assert json.loads(seed3[1])["f"] != json.loads(seed4[1])["f"]
        assert unknown[0] == ("SystemExit", 2)
        assert "invalid choice: 'no-such-mode'" in unknown[2]
        assert plain[0] == 0 and json.loads(plain[1])["order"] == "grevlex"


class TestConsoleScript:
    def test_entry_point_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "opkit.cli", "plan", "--job", str(DEMO_JOB)],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert json.loads(result.stdout)["ok"] is True
