"""End-to-end command-line flows: exit codes, payload shapes, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from esarb import InstrumentQuote
from esarb.analytic import CompleteMarketDensity
from esarb.cli import main
from esarb.io import (
    SCHEMA_VERSION,
    garch_to_dict,
    mixture_to_dict,
    write_chain,
    write_density,
    write_json,
    write_returns,
)
from esarb.models import GarchModel, synthesize_chain

from test_models import make_mixture

STRIKES = [70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared fixture tree: fair and mispriced chains, models, densities."""
    root = tmp_path_factory.mktemp("cli")
    mix = make_mixture(spot=100.0, rate=0.02, maturity=1.0)
    paths = {
        "market": str(root / "market.json"),
        "mixture": str(root / "mixture.json"),
        "chain": str(root / "chain.csv"),
        "badchain": str(root / "badchain.csv"),
        "density": str(root / "density.csv"),
        "flat_density": str(root / "flat.csv"),
        "returns": str(root / "returns.csv"),
        "short_returns": str(root / "short.csv"),
        "markowitz": str(root / "markowitz.json"),
        "root": str(root),
    }
    write_json(paths["market"], {"schema": SCHEMA_VERSION, "spot": mix.spot,
                                 "rate": mix.rate, "maturity_years": mix.maturity})
    write_json(paths["mixture"], mixture_to_dict(mix))
    fair = synthesize_chain(mix, STRIKES, rel_spread=0.0, include_bond=True)
    write_chain(paths["chain"], fair)

    # buy call(70) cheap, short the stock, buy 70 bonds: payoff (70-S)+
    # at strictly negative cost, a true arbitrage at every level
    disc = math.exp(-mix.rate * mix.maturity)
    bad = fair + [
        InstrumentQuote("underlying", bid=mix.spot, ask=mix.spot),
        InstrumentQuote("call", strike=70.0, bid=0.0, ask=20.0),
    ]
    assert 20.0 < mix.spot - 70.0 * disc
    write_chain(paths["badchain"], bad)

    write_density(paths["density"],
                  CompleteMarketDensity("step", [1.0 / 3.0, 1.0], [2.0, 0.5]))
    write_density(paths["flat_density"],
                  CompleteMarketDensity("step", [1.0], [1.0]))

    truth = GarchModel(omega=1e-6, arch=0.08, garch_coef=0.90, steps=1,
                       init_var=1e-6 / 0.02)
    write_returns(paths["returns"],
                  truth.simulate_returns(5000, np.random.default_rng(13)))
    write_returns(paths["short_returns"], np.full(10, 1e-3))

    write_json(paths["markowitz"], {"schema": SCHEMA_VERSION,
                                    "mu": [0.4], "sigma": [[0.01]],
                                    "c": [0.1], "rf": 0.0})
    return paths


def run(argv):
    return main(argv)


class TestDetect:
    def test_fair_chain_no_arbitrage(self, work, tmp_path):
        out = str(tmp_path / "det.json")
        code = run(["detect", "--chain", work["chain"], "--market", work["market"],
                    "--model", work["mixture"], "--quadrature", "pl",
                    "--p", "0.2", "--out", out])
        assert code == 0
        payload = json.loads(Path(out).read_text())
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["arbitrage"] is False
        assert payload["min_es"] >= -1e-9

    def test_mispriced_chain_flags_at_any_p(self, work, tmp_path):
        for p in ("0.05", "0.5", "0.9"):
            out = str(tmp_path / f"det{p}.json")
            code = run(["detect", "--chain", work["badchain"], "--market",
                        work["market"], "--model", work["mixture"],
                        "--quadrature", "pl", "--p", p, "--out", out])
            assert code == 3
            payload = json.loads(Path(out).read_text())
            assert payload["arbitrage"] is True
            assert payload["min_es"] < 0
            assert {row["label"] for row in payload["portfolio"]}

    def test_missing_file_exits_1(self, work):
        code = run(["detect", "--chain", "/nonexistent/chain.csv", "--market",
                    work["market"], "--model", work["mixture"], "--p", "0.2"])
        assert code == 1

    def test_conflicting_sources_exit_1(self, work):
        code = run(["detect", "--chain", work["chain"], "--market", work["market"],
                    "--model", work["mixture"], "--density", work["density"],
                    "--p", "0.2"])
        assert code == 1

    def test_density_market_verdict_depends_on_p(self, work, tmp_path):
        code_lo = run(["detect", "--density", work["density"], "--p", "0.4",
                       "--out", str(tmp_path / "lo.json")])
        code_hi = run(["detect", "--density", work["density"], "--p", "0.6",
                       "--out", str(tmp_path / "hi.json")])
        assert code_lo == 0 and code_hi == 3

    def test_byte_identical_reruns(self, work, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        argv = ["detect", "--chain", work["chain"], "--market", work["market"],
                "--model", work["mixture"], "--quadrature", "mc", "--n", "5000",
                "--seed", "7", "--p", "0.3"]
        assert run(argv + ["--out", a]) == run(argv + ["--out", b])
        assert Path(a).read_bytes() == Path(b).read_bytes()


class TestMinP:
    def test_capped_density_threshold(self, work, tmp_path):
        out = str(tmp_path / "minp.json")
        code = run(["min-p", "--density", work["density"], "--tol", "1e-4",
                    "--out", out])
        assert code == 3
        payload = json.loads(Path(out).read_text())
        assert payload["status"] == "found"
        assert payload["p_star"] == pytest.approx(0.5, abs=2e-3)

    def test_true_arbitrage_saturates_bracket(self, work, tmp_path):
        out = str(tmp_path / "minp.json")
        code = run(["min-p", "--chain", work["badchain"], "--market",
                    work["market"], "--model", work["mixture"],
                    "--quadrature", "pl", "--out", out])
        assert code == 3
        payload = json.loads(Path(out).read_text())
        assert payload["status"] == "at or below bracket"
        assert payload["p_star"] == pytest.approx(1e-4)

    def test_fair_chain_reports_none(self, work, tmp_path):
        out = str(tmp_path / "minp.json")
        code = run(["min-p", "--chain", work["chain"], "--market", work["market"],
                    "--model", work["mixture"], "--quadrature", "pl",
                    "--out", out])
        assert code == 0
        payload = json.loads(Path(out).read_text())
        assert payload["status"] == "none in bracket"
        assert payload["p_star"] is None

    def test_two_run_spread_reported(self, work, tmp_path):
        out = str(tmp_path / "minp2.json")
        code = run(["min-p", "--density", work["density"], "--quadrature", "mc",
                    "--n", "40000", "--seed", "5", "--two-run",
                    "--bracket", "1e-4,0.7", "--out", out])
        assert code == 3
        payload = json.loads(Path(out).read_text())
        assert len(payload["runs"]) == 2
        r0, r1 = payload["runs"]
        assert payload["spread"] == pytest.approx(
            abs(r0["p_star"] - r1["p_star"]))
        assert payload["p_star"] == r0["p_star"]

    def test_bad_bracket_exits_1(self, work):
        code = run(["min-p", "--density", work["density"], "--bracket", "0.5"])
        assert code == 1


class TestAnalytic:
    def test_markowitz_gradient_vs_threshold(self, work, tmp_path):
        out = str(tmp_path / "an.json")
        code = run(["analytic", "markowitz", "--model", work["markowitz"],
                    "--p", "0.01", "--out", out])
        payload = json.loads(Path(out).read_text())
        assert payload["gradient"] == pytest.approx(3.0)
        assert payload["threshold"] == pytest.approx(2.665, abs=5e-4)
        assert payload["arbitrage"] is True and code == 3
        # same market, stricter tail: threshold rises above g
        out2 = str(tmp_path / "an2.json")
        code2 = run(["analytic", "markowitz", "--model", work["markowitz"],
                     "--p", "0.001", "--out", out2])
        payload2 = json.loads(Path(out2).read_text())
        assert payload2["arbitrage"] is False and code2 == 0

    def test_flat_density_never_flags(self, work, tmp_path):
        out = str(tmp_path / "flat.json")
        code = run(["analytic", "complete", "--density", work["flat_density"],
                    "--p", "0.3", "--out", out])
        assert code == 0
        payload = json.loads(Path(out).read_text())
        assert payload["arbitrage"] is False
        assert payload["sup_density"] == pytest.approx(1.0)

    def test_capped_density_boundary_attained(self, work, tmp_path):
        out = str(tmp_path / "cap.json")
        code = run(["analytic", "complete", "--density", work["density"],
                    "--p", "0.5", "--out", out])
        assert code == 3
        payload = json.loads(Path(out).read_text())
        assert payload["boundary"] is True
        # the criterion compares sup q against 1/p; both sit at 2 here
        assert payload["threshold"] == pytest.approx(2.0)
        assert payload["sup_density"] == pytest.approx(2.0)
        assert payload["plateau"] == pytest.approx(1.0 / 3.0)

    def test_markowitz_needs_model(self, work):
        assert run(["analytic", "markowitz", "--p", "0.01"]) == 1


class TestCalibrate:
    def test_mixture_round_trip(self, work, tmp_path):
        out = str(tmp_path / "fit.json")
        code = run(["calibrate", "mixture", "--chain", work["chain"],
                    "--market", work["market"], "--out", out])
        assert code == 0
        payload = json.loads(Path(out).read_text())
        assert payload["diagnostics"]["rmse"] < 1e-6 * 100.0
        assert payload["diagnostics"]["converged"] is True
        sds = sorted(payload["log_sds"])
        assert sds[0] == pytest.approx(0.15, rel=1e-3)
        assert sds[1] == pytest.approx(0.35, rel=1e-3)

    def test_garch_recovery(self, work, tmp_path):
        out = str(tmp_path / "gfit.json")
        code = run(["calibrate", "garch", "--returns", work["returns"],
                    "--out", out])
        assert code == 0
        payload = json.loads(Path(out).read_text())
        assert payload["arch"] + payload["garch_coef"] == pytest.approx(
            0.98, abs=0.05)
        assert payload["diagnostics"]["converged"] is True

    def test_too_few_observations_exit_1(self, work, capsys):
        code = run(["calibrate", "garch", "--returns", work["short_returns"]])
        assert code == 1
        assert "too few observations" in capsys.readouterr().err

    def test_too_few_quotes_exit_1(self, work, tmp_path, capsys):
        mix = make_mixture()
        path = str(tmp_path / "tiny.csv")
        write_chain(path, synthesize_chain(mix, [95.0, 105.0],
                                           include_bond=False))
        code = run(["calibrate", "mixture", "--chain", path,
                    "--market", work["market"]])
        assert code == 1
        assert "too few quotes" in capsys.readouterr().err


class TestUtilityScan:
    def detection_file(self, work, tmp_path, p="0.6"):
        det = str(tmp_path / "det.json")
        code = run(["detect", "--density", work["density"], "--p", p,
                    "--out", det])
        assert code == 3
        return det

    def test_scan_csv_shape_and_theorem_patterns(self, work, tmp_path):
        det = self.detection_file(work, tmp_path)
        out = str(tmp_path / "scan.csv")
        code = run(["utility-scan", "--density", work["density"], "--p", "0.6",
                    "--detection", det, "--out", out])
        assert code == 0
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0] == "lambda,spec,expected_utility,price,es_p"
        assert len(lines) == 1 + 6 * 3
        rows = [line.split(",", 1) for line in lines[1:]]
        by_spec = {}
        for line in lines[1:]:
            cells = next(__import__("csv").reader([line]))
            by_spec.setdefault(cells[1], []).append(float(cells[2]))
        trader = by_spec["limited_liability"]
        assert trader[-1] > trader[-2] > trader[-3]
        assert trader[-1] > 10.0 * trader[1]
        manager = by_spec["risk_manager_power(eta=2)"]
        assert manager[-1] < manager[-2] < manager[-3]

    def test_lambda_zero_row_is_base(self, work, tmp_path, capsys):
        det = self.detection_file(work, tmp_path)
        code = run(["utility-scan", "--density", work["density"], "--p", "0.6",
                    "--detection", det, "--lambdas", "0"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # header + one row per spec
        for line in lines[1:]:
            assert float(next(__import__("csv").reader([line]))[2]) == 0.0

    def test_stdout_matches_out_file(self, work, tmp_path, capfdbinary):
        det = self.detection_file(work, tmp_path)
        out = tmp_path / "scan.csv"
        args = ["utility-scan", "--density", work["density"], "--p", "0.6", "--detection", det]
        capfdbinary.readouterr()
        assert run(args) == 0
        printed = capfdbinary.readouterr().out
        assert run(args + ["--out", str(out)]) == 0
        assert printed and printed == out.read_bytes()

    def test_detection_without_arbitrage_exit_1(self, work, tmp_path, capsys):
        det = str(tmp_path / "noarb.json")
        code = run(["detect", "--density", work["density"], "--p", "0.4",
                    "--out", det])
        assert code == 0
        code = run(["utility-scan", "--density", work["density"], "--p", "0.4",
                    "--detection", det])
        assert code == 1
        assert "no arbitrage portfolio" in capsys.readouterr().err


class TestSimulate:
    def test_garch_series_deterministic(self, work, tmp_path):
        model = str(tmp_path / "g.json")
        write_json(model, garch_to_dict(GarchModel(
            omega=1e-6, arch=0.05, garch_coef=0.9, steps=1, init_var=2e-5)))
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run(["simulate", "--model", model, "--n", "100", "--seed", "9",
                    "--out", a]) == 0
        assert run(["simulate", "--model", model, "--n", "100", "--seed", "9",
                    "--out", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()
        assert len(Path(a).read_text().splitlines()) == 100

    def test_simulate_then_fit_round_trip(self, work, tmp_path):
        model = str(tmp_path / "g.json")
        write_json(model, garch_to_dict(GarchModel(
            omega=2e-6, arch=0.10, garch_coef=0.85, steps=1, init_var=4e-5)))
        rets = str(tmp_path / "r.csv")
        assert run(["simulate", "--model", model, "--n", "6000", "--seed", "3",
                    "--out", rets]) == 0
        fit = str(tmp_path / "fit.json")
        assert run(["calibrate", "garch", "--returns", rets, "--out", fit]) == 0
        payload = json.loads(Path(fit).read_text())
        assert payload["arch"] + payload["garch_coef"] == pytest.approx(
            0.95, abs=0.05)


class TestUsageErrors:
    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag_exits_1(self, work):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--chain", work["chain"]])
        assert exc.value.code == 1


def _malformed_case(work, tmp_path, case):
    """argv for one malformed input file, written under tmp_path."""
    bad = tmp_path / "bad"
    if case == "scenario row with one column":
        bad.write_text("point,weight\n1.0\n")
        return ["detect", "--scenarios", str(bad), "--chain", work["chain"],
                "--market", work["market"], "--p", "0.2"]
    if case == "density row with one column":
        bad.write_text("u,q\n1.0\n")
        return ["analytic", "complete", "--density", str(bad), "--p", "0.25"]
    if case == "null spot":
        write_json(str(bad), {"spot": None, "rate": 0.02, "maturity_years": 1.0})
        return ["detect", "--chain", work["chain"], "--market", str(bad),
                "--model", work["mixture"], "--quadrature", "pl", "--p", "0.2"]
    if case == "null rf":
        write_json(str(bad), {"mu": [0.4], "sigma": [[0.01]], "c": [0.1], "rf": None})
        return ["analytic", "markowitz", "--model", str(bad), "--p", "0.01"]
    payload = garch_to_dict(GarchModel(omega=1e-6, arch=0.05, garch_coef=0.9, steps=1,
                                       init_var=2e-5))
    write_json(str(bad), {**payload, "steps": 1.5})
    return ["simulate", "--model", str(bad), "--n", "10"]


class TestMalformedInputs:
    @pytest.mark.parametrize("case", [
        "scenario row with one column",
        "density row with one column",
        "null spot",
        "null rf",
        "fractional steps",
    ])
    def test_exits_1_with_error_line(self, work, tmp_path, capsys, case):
        assert run(_malformed_case(work, tmp_path, case)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert captured.out == ""
