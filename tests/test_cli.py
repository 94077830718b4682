"""End-to-end command-line behavior, run in process via main(argv)."""

import importlib
import json
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from conftest import REF_ALPHA, REF_D1, REF_D2, REF_XA_AWS, REF_XA_DWS, ref_scenario
import subguard
from subguard import solve_dws
from subguard.cli import main

REF_VALUE = (13.0 - 2.0 * np.sqrt(10.0)) / 6.0

simulate_module = importlib.import_module("subguard.simulate")
kind_module = importlib.import_module("subguard.kind")
degree_module = importlib.import_module("subguard.degree")
cli_module = importlib.import_module("subguard.cli")


def scenario_doc(x_a=REF_XA_DWS, hyperplane=None, alpha=REF_ALPHA, n=3,
                 d1=REF_D1, d2=REF_D2):
    return {
        "n": n,
        "alpha": alpha,
        "hyperplane": hyperplane or {"K": [0.0] * (n - 1) + [1.0], "b": 0.0},
        "defenders": [list(d1), list(d2)],
        "attacker": list(x_a),
    }


def padded_doc(n, x_a=REF_XA_DWS):
    """The reference scenario with n - 3 leading zero lateral coordinates."""
    pad = (0.0,) * (n - 3)
    return scenario_doc(n=n, x_a=pad + tuple(x_a), d1=pad + REF_D1, d2=pad + REF_D2)


@pytest.fixture
def write_doc(tmp_path):
    def _write(doc, name="scen.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return _write


@pytest.fixture
def ref_path(write_doc):
    return write_doc(scenario_doc())


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_reference_outcome(self, capsys, ref_path):
        code, out, err = run_cli(capsys, ["classify", "--scenario", ref_path])
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["outcome"] == "defenders_win"
        assert data["piece"] == "B3"
        assert data["form_value"] == pytest.approx(20.6806640625, abs=1e-12)

    def test_attacker_side(self, capsys, write_doc):
        path = write_doc(scenario_doc(x_a=REF_XA_AWS))
        code, out, _ = run_cli(capsys, ["classify", "--scenario", path])
        assert code == 0
        assert json.loads(out)["outcome"] == "attacker_wins"

    @pytest.mark.parametrize("scale, code", [(1e-150, 0), (1e150, 3)])
    def test_form_value_past_the_float_range(self, capsys, write_doc, scale, code):
        # the B3 form value grows as L^4: at 1e-150 it rounds to 0, and at
        # 1e150 it overflows, which is a named error, never an inf
        def scaled(p):
            return tuple(scale * v for v in p)
        path = write_doc(scenario_doc(d1=scaled(REF_D1), d2=scaled(REF_D2),
                                      x_a=scaled(REF_XA_DWS)))
        got, out, err = run_cli(capsys, ["classify", "--scenario", path])
        assert got == code
        if code == 0:
            assert json.loads(out) == {"outcome": "defenders_win", "piece": "B3",
                                       "form_value": 0}
        else:
            assert out == "" and json.loads(err)["error"] == "NumericalDegeneracyError"


class TestSolve:
    def test_reference_solution(self, capsys, ref_path):
        code, out, err = run_cli(capsys, ["solve", "--scenario", ref_path])
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["case"] == "one_effective"
        assert data["effective"] == [2]
        assert data["value"] == pytest.approx(REF_VALUE, abs=1e-12)
        np.testing.assert_allclose(
            data["otp"], [-0.5, 0.0, (13.0 - 2.0 * np.sqrt(10.0)) / 6.0],
            atol=1e-12)
        for key in ("d1", "d2", "a"):
            assert np.linalg.norm(data["headings"][key]) == pytest.approx(
                1.0, abs=1e-12)

    def test_aws_exits_3(self, capsys, write_doc):
        path = write_doc(scenario_doc(x_a=REF_XA_AWS))
        code, out, err = run_cli(capsys, ["solve", "--scenario", path])
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "NotInDWSError"

    def test_world_frame_round_trip(self, capsys, write_doc):
        # same geometry expressed against a tilted, offset hyperplane
        k = np.array([0.0, 0.6, 0.8])
        b = 0.25
        e2 = np.array([1.0, 0.0, 0.0])
        e3 = np.array([0.0, -0.8, 0.6])

        def lift(p):
            return (b / k.dot(k)) * k + p[0] * e2 + p[1] * e3 + p[2] * k

        doc = scenario_doc(hyperplane={"K": k.tolist(), "b": b},
                           d1=lift(np.array(REF_D1)), d2=lift(np.array(REF_D2)),
                           x_a=lift(np.array(REF_XA_DWS)))
        path = write_doc(doc)
        code, out, _ = run_cli(capsys, ["solve", "--scenario", path])
        assert code == 0
        data = json.loads(out)
        assert data["value"] == pytest.approx(REF_VALUE, abs=1e-12)
        world = data["world"]
        sol = solve_dws(ref_scenario(REF_XA_DWS))
        np.testing.assert_allclose(world["otp"], lift(sol.otp), atol=1e-12)


class TestBarrier:
    def test_csv_mesh(self, capsys, ref_path):
        code, out, _ = run_cli(capsys, ["barrier", "--scenario", ref_path,
                                        "--grid-points", "11"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "z1,z2,z3,piece"
        assert len(lines) == 1 + 121
        for line in lines[1:]:
            z1, z2, z3, piece = line.split(",")
            assert np.isfinite(float(z3))
            assert piece in ("single", "B1", "B2", "B3")

    def test_json_mesh(self, capsys, ref_path):
        code, out, _ = run_cli(capsys, ["barrier", "--scenario", ref_path,
                                        "--grid-points", "7", "--format", "json"])
        assert code == 0
        records = json.loads(out)
        assert len(records) == 49
        assert all(len(r["points"]) == 3 for r in records)
        assert {r["piece"] for r in records} <= {"single", "B1", "B2", "B3"}


class TestSimulate:
    def test_smoke_capture(self, capsys, ref_path):
        code, out, _ = run_cli(capsys, ["simulate", "--scenario", ref_path,
                                        "--dt", "1e-2", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["event"] == "captured"
        assert data["captured_by"] == 2
        assert abs(data["samples"][-1]["xA"][-1] - REF_VALUE) < 2e-2

    def test_csv_trajectory(self, capsys, ref_path):
        code, out, _ = run_cli(capsys, ["simulate", "--scenario", ref_path,
                                        "--dt", "0.1"])
        assert code == 0
        assert out.startswith("t,")
        assert out.strip().split("\n")[-1].endswith("captured")

    def test_step_budget(self, capsys, ref_path, monkeypatch):
        # capture takes about 41 steps of 0.05 and 204 steps of 0.01
        monkeypatch.setattr(simulate_module, "SIMULATE_STEP_BUDGET", 100)
        code, out, _ = run_cli(capsys, ["simulate", "--scenario", ref_path,
                                        "--dt", "0.05"])
        assert code == 0
        assert out.strip().split("\n")[-1].endswith("captured")
        code, out, err = run_cli(capsys, ["simulate", "--scenario", ref_path,
                                          "--dt", "0.01"])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "BudgetExceededError"

    def test_step_budget_checked_before_stepping(self, capsys, ref_path):
        # capture near t = 2.04 needs about 2e6 steps of 1e-6, twice the
        # budget; the exact event time shows it before the first step
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["simulate", "--scenario", ref_path,
                                          "--dt", "1e-6"])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "BudgetExceededError"

    def test_capture_at_1e_154(self, capsys, write_doc):
        # headings near 1e-154 norm differences whose squares are subnormal
        scale = 1e-154

        def scaled(p):
            return tuple(scale * v for v in p)
        path = write_doc(scenario_doc(d1=scaled(REF_D1), d2=scaled(REF_D2),
                                      x_a=scaled(REF_XA_DWS)))
        code, out, err = run_cli(capsys, ["simulate", "--scenario", path, "--format", "json",
                                          "--dt", repr(1e-3 * scale), "--tmax", repr(20 * scale)])
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["event"] == "captured" and data["captured_by"] == 2
        assert abs(data["samples"][-1]["xA"][-1] / scale - REF_VALUE) < 1e-3

    def test_attacker_win_above_the_oracle_cap(self, capsys, write_doc):
        path = write_doc(padded_doc(7, REF_XA_AWS))
        code, out, err = run_cli(capsys, ["simulate", "--scenario", path])
        assert code == 0 and err == ""
        assert out.strip().split("\n")[-1].endswith("arrived")


class TestOracleCommandsAtN6:
    @pytest.mark.parametrize("cmd, x_a, last", [
        pytest.param("simulate", REF_XA_AWS, "arrived", id="simulate-aws"),
        pytest.param("verify", REF_XA_AWS, "attacker_wins", id="verify-aws"),
        pytest.param("verify", REF_XA_DWS, "degree_value", id="verify-dws"),
    ])
    def test_default_grid_fits_the_budget(self, capsys, write_doc, cmd, x_a, last):
        # the oracles search at most 3 lateral axes, so the default 21 points
        # per axis fit the budget at any n
        path = write_doc(padded_doc(6, x_a))
        code, out, err = run_cli(capsys, [cmd, "--scenario", path])
        assert code == 0 and err == ""
        if cmd == "verify":
            assert all(r["agree"] is True for r in json.loads(out))
        assert last in out.strip().split("\n")[-1]

    def test_21_grid_points(self, capsys, write_doc):
        path = write_doc(padded_doc(6))
        code, out, err = run_cli(capsys, ["verify", "--scenario", path,
                                          "--grid-points", "21"])
        assert code == 0 and err == ""
        assert all(r["agree"] is True for r in json.loads(out))


class TestVerify:
    def test_all_records_agree(self, capsys, ref_path):
        code, out, _ = run_cli(capsys, ["verify", "--scenario", ref_path,
                                        "--grid-points", "15"])
        assert code == 0
        records = json.loads(out)
        assert {r["instance"] for r in records} == {"kind", "degree_value"}
        assert all(r["agree"] is True for r in records)

    @pytest.mark.parametrize("m12", [1e-8, 3e-6])
    def test_nearly_level_defenders_solve_and_agree(self, capsys, write_doc, m12):
        # defenders whose heights differ by a hair still have a seam point
        path = write_doc(scenario_doc(d1=(-1.5, 0.0, 1.5), d2=(1.5, 0.0, 1.5 + m12)))
        code, out, err = run_cli(capsys, ["solve", "--scenario", path])
        assert code == 0 and err == ""
        assert json.loads(out)["effective"] == [1, 2]
        code, out, err = run_cli(capsys, ["verify", "--scenario", path])
        assert code == 0 and err == ""
        records = json.loads(out)
        assert [r["instance"] for r in records] == ["kind", "degree_value"]
        assert all(r["agree"] is True for r in records)

    @pytest.mark.parametrize("fixture", ["ref_dws", "ref_barrier"])
    def test_one_classification(self, capsys, request, monkeypatch, write_doc, fixture):
        path = write_doc(scenario_doc(x_a=tuple(request.getfixturevalue(fixture).x_a)))
        calls, original = [], kind_module._kind

        def counted(*args):
            calls.append(args)
            return original(*args)

        for module in (kind_module, degree_module, cli_module):
            monkeypatch.setattr(module, "_kind", counted)
        code, out, _ = run_cli(capsys, ["verify", "--scenario", path,
                                        "--grid-points", "15"])
        records = json.loads(out)
        assert code == 0 and len(records) == 2
        assert len(calls) == 1
        # on the barrier the oracle's "inconclusive" is the agreeing verdict
        assert all(r["agree"] is True for r in records)

    @pytest.mark.parametrize("n", [7, 64, 1024])
    def test_any_dimension(self, capsys, write_doc, n):
        path = write_doc(padded_doc(n))
        code, out, err = run_cli(capsys, ["verify", "--scenario", path])
        assert code == 0 and err == ""
        records = json.loads(out)
        assert [r["instance"] for r in records] == ["kind", "degree_value"]
        assert all(r["agree"] is True for r in records)

    def test_no_finite_grid_value_exits_3(self, capsys, write_doc):
        # the closed forms solve this state in its unit frame, but every
        # squared distance the oracles would take overflows
        path = write_doc(scenario_doc(d1=(-1e200, 0.0, 1e200), d2=(1e200, 0.0, 1.5e200),
                                      x_a=(0.0, 0.0, 2e200)))
        code, out, err = run_cli(capsys, ["verify", "--scenario", path])
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "NumericalDegeneracyError"

    @pytest.mark.parametrize("scale", [1e-13, 1e13])
    def test_agrees_at_any_scale(self, capsys, write_doc, scale):
        # the oracle's margin and the value threshold are fractions of the
        # state's size, so a clear defender win stays clear at any scale
        def scaled(p):
            return tuple(scale * v for v in p)
        path = write_doc(scenario_doc(d1=scaled(REF_D1), d2=scaled(REF_D2),
                                      x_a=scaled(REF_XA_DWS)))
        code, out, err = run_cli(capsys, ["verify", "--scenario", path])
        assert code == 0 and err == ""
        records = json.loads(out)
        assert records[0]["oracle"] == "defenders_win"
        assert [r["instance"] for r in records] == ["kind", "degree_value"]
        assert all(r["agree"] is True for r in records)

    def test_aws_verifies_kind_only(self, capsys, write_doc):
        path = write_doc(scenario_doc(x_a=REF_XA_AWS))
        code, out, _ = run_cli(capsys, ["verify", "--scenario", path,
                                        "--grid-points", "15"])
        assert code == 0
        records = json.loads(out)
        assert [r["instance"] for r in records] == ["kind"]
        assert records[0]["agree"] is True


class TestExtremeScales:
    """The README scenario scaled to both ends of the float range: either a
    strict-JSON answer or a named error, never a traceback or a NaN."""

    @staticmethod
    def strict_json(text):
        def reject(name):
            raise ValueError(f"{name} is not JSON")
        return json.loads(text, parse_constant=reject)

    @pytest.mark.parametrize("scale", [1e-300, 1e200])
    @pytest.mark.parametrize("cmd", ["classify", "solve", "simulate", "verify"])
    def test_answer_or_named_error(self, capsys, write_doc, cmd, scale):
        def scaled(p):
            return tuple(scale * v for v in p)
        path = write_doc(scenario_doc(d1=scaled(REF_D1), d2=scaled(REF_D2),
                                      x_a=scaled(REF_XA_DWS)))
        code, out, err = run_cli(capsys, [cmd, "--scenario", path, "--format", "json"])
        assert code in (0, 3)
        if code == 0:
            self.strict_json(out)
        else:
            assert out == "" and len(err.splitlines()) == 1
            name = json.loads(err)["error"]
            assert issubclass(getattr(subguard, name), subguard.SubguardError)


    @pytest.mark.parametrize("cmd", ["classify", "solve", "simulate", "verify"])
    def test_overflowing_offsets(self, capsys, write_doc, cmd):
        # finite coordinates whose difference overflows: one named error line
        path = write_doc(scenario_doc(d1=(-1e308, 0.0, 1.0), x_a=(1e308, 0.0, 2.0)))
        code, out, err = run_cli(capsys, [cmd, "--scenario", path])
        assert code == 3 and out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "NumericalDegeneracyError"


class TestFailureModes:
    def test_bad_alpha_exits_2(self, capsys, write_doc):
        path = write_doc(scenario_doc(alpha=1.2))
        code, out, err = run_cli(capsys, ["classify", "--scenario", path])
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "AssumptionViolation"
        assert payload["assumption"] == "Assumption 3"

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["classify", "--scenario",
                                        str(tmp_path / "nope.json")])
        assert code == 2
        assert json.loads(err)["error"] == "FileNotFoundError"

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["classify", "--scenario", str(path)])
        assert code == 2
        assert json.loads(err)["error"] == "ScenarioFormatError"

    def test_unknown_command_exits_2(self, ref_path):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--scenario", ref_path])
        assert exc.value.code == 2

    @pytest.mark.parametrize("cmd, points, n, error", [
        pytest.param("verify", "2", 3, "EmptyGridError", id="verify-2"),
        pytest.param("verify", "0", 3, "EmptyGridError", id="verify-0"),
        pytest.param("barrier", "0", 3, "EmptyGridError", id="barrier-0"),
        pytest.param("verify", "500", 3, "BudgetExceededError", id="verify-500"),
        pytest.param("barrier", "100000", 5, "BudgetExceededError",
                     id="barrier-100000-n5"),
        pytest.param("verify", "77", 6, "BudgetExceededError", id="verify-77-n6"),
    ])
    def test_bad_grid_points_exits_2(self, capsys, write_doc, cmd, points, n, error):
        path = write_doc(padded_doc(n))
        code, out, err = run_cli(capsys, [cmd, "--scenario", path,
                                          "--grid-points", points])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize("flag, value", [
        pytest.param("--dt", "nan", id="dt-nan"),
        pytest.param("--tmax", "nan", id="tmax-nan"),
        pytest.param("--tmax", "inf", id="tmax-inf"),
        pytest.param("--dt", "inf", id="dt-inf"),
        pytest.param("--dt", "1e-310", id="dt-1e-310-overflows-tmax-over-dt"),
    ])
    def test_non_finite_step_exits_2(self, capsys, ref_path, flag, value):
        code, out, err = run_cli(capsys, ["simulate", "--scenario", ref_path,
                                          flag, value])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ScenarioFormatError"

    @pytest.mark.parametrize("cmd", ["classify", "solve", "barrier", "simulate", "verify"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300"])
    def test_bad_tol_exits_2(self, capsys, ref_path, cmd, value):
        # a NaN band would put every state on the barrier, and a negative
        # one would call clear wins for the wrong side
        code, out, err = run_cli(capsys, [cmd, "--scenario", ref_path,
                                          f"--tol={value}"])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ScenarioFormatError"

    def test_zero_tol_accepted(self, capsys, ref_path):
        code, out, _ = run_cli(capsys, ["classify", "--scenario", ref_path, "--tol", "0"])
        assert code == 0
        assert json.loads(out)["outcome"] == "defenders_win"


class TestOutputPlumbing:
    def test_out_file_matches_stdout(self, capsys, ref_path, tmp_path):
        code, out, _ = run_cli(capsys, ["solve", "--scenario", ref_path])
        assert code == 0
        target = tmp_path / "sol.json"
        code2 = main(["solve", "--scenario", ref_path, "--out", str(target)])
        capsys.readouterr()
        assert code2 == 0
        assert target.read_text() == out

    def test_no_command_loads_scipy(self, write_doc):
        # the package depends on numpy alone: no command, verify and its
        # oracles included, may load scipy at any n
        paths = {name: write_doc(scenario_doc(x_a=x_a), name=f"{name}.json")
                 for name, x_a in (("dws", REF_XA_DWS), ("aws", REF_XA_AWS),
                                   ("barrier", (0.0, 0.0, float(np.sqrt(719.0 / 768.0)))))}
        code = textwrap.dedent(f"""
            import contextlib, io, sys
            import numpy as np
            import subguard
            from subguard import oracle
            from subguard.cli import main

            def scipy_loaded():
                return any(m.split(".")[0] == "scipy" for m in sys.modules)

            paths = {paths!r}
            loaded = [scipy_loaded()]
            runs = [(cmd, paths["dws"]) for cmd in ("classify", "solve", "barrier", "simulate")]
            runs += [("simulate", paths["aws"])]
            runs += [("verify", paths[name]) for name in ("dws", "aws", "barrier")]
            for cmd, path in runs:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main([cmd, "--scenario", path, "--grid-points", "5"]) == 0
                loaded.append(scipy_loaded())
            for n in (3, 5):
                pad = (0.0,) * (n - 3)
                d1, d2 = pad + (-1.5, 0.0, -1.0), pad + (1.5, 0.0, 1.5)
                dws = subguard.Scenario(
                    n=n, hyperplane=subguard.Hyperplane(K=(0.0,) * (n - 1) + (1.0,), b=0.0),
                    x_d1=d1, x_d2=d2, x_a=pad + (0.0, 0.0, 2.0), alpha=0.5)
                aws = subguard.Scenario(
                    n=n, hyperplane=dws.hyperplane, x_d1=d1, x_d2=d2,
                    x_a=pad + (0.0, 0.0, 0.5), alpha=0.5)
                assert oracle.oracle_kind(dws).label == "defenders_win"
                loaded.append(scipy_loaded())
                assert oracle.oracle_aws_target(aws).shape == (n,)
                loaded.append(scipy_loaded())
                oracle.oracle_min_boundary_height(dws)
                loaded.append(scipy_loaded())
                oracle.oracle_otp_dws(dws)
                loaded.append(scipy_loaded())
            oracle.oracle_otp_1v1(np.array([0.0, 0.0, 0.5]), np.array([1.5, 0.0, 1.5]), 0.5)
            loaded.append(scipy_loaded())
            print(loaded)
            """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(subguard.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src),
                              check=True)
        assert proc.stdout.strip() == repr([False] * 18)

    def test_deterministic_bytes(self, capsys, ref_path):
        _, first, _ = run_cli(capsys, ["verify", "--scenario", ref_path,
                                       "--grid-points", "15"])
        _, second, _ = run_cli(capsys, ["verify", "--scenario", ref_path,
                                        "--grid-points", "15"])
        assert first == second
