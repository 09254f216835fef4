"""Round trips and formats for the JSON/CSV persistence layer."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from esarb import InstrumentQuote, ScenarioSet
from esarb.analytic import CompleteMarketDensity
from esarb.io import (
    SCHEMA_VERSION,
    dumps_json,
    garch_to_dict,
    mixture_to_dict,
    read_chain,
    read_density,
    read_market_params,
    read_model,
    read_returns,
    read_scenarios,
    write_chain,
    write_density,
    write_json,
    write_returns,
    write_scan_csv,
    write_scenarios,
)
from esarb.models import GarchModel
from esarb.utility import ScanRow

from test_models import make_mixture


class TestChainCsv:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "chain.csv")
        quotes = [
            InstrumentQuote("call", strike=100.0, bid=4.0, ask=5.5),
            InstrumentQuote("put", strike=90.0, bid=1.25, ask=1.5),
            InstrumentQuote("bond", bid=0.97, ask=0.98),
            InstrumentQuote("call", strike=120.0, bid=0.0, ask=math.inf),
        ]
        write_chain(path, quotes)
        back = read_chain(path)
        assert back == quotes

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_chain(str(tmp_path / "nope.csv"))

    def test_malformed_header(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("strike,price\n100,4\n")
        with pytest.raises(ValueError):
            read_chain(path)


class TestScenarioJson:
    def test_round_trip_bitwise(self, tmp_path):
        path = str(tmp_path / "scen.json")
        rng = np.random.default_rng(2)
        pts = np.sort(rng.uniform(0.0, 10.0, 40))
        w = rng.uniform(0.1, 1.0, 40)
        scen = ScenarioSet(pts, w / w.sum())
        write_scenarios(path, scen)
        back = read_scenarios(path)
        assert np.array_equal(back.points, scen.points)
        assert np.array_equal(back.weights, scen.weights)

    def test_csv_header(self, tmp_path):
        path = str(tmp_path / "scen.csv")
        write_scenarios(path, ScenarioSet([0.0, 1.0], [0.5, 0.5]))
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "point,weight"
        assert len(lines) == 3


class TestModelJson:
    def test_mixture_round_trip(self, tmp_path):
        path = str(tmp_path / "mix.json")
        mix = make_mixture()
        write_json(path, mixture_to_dict(mix))
        back = read_model(path)
        assert np.array_equal(back.weights, mix.weights)
        assert np.array_equal(back.log_means, mix.log_means)
        assert np.array_equal(back.log_sds, mix.log_sds)
        assert (back.spot, back.rate, back.maturity) == (
            mix.spot, mix.rate, mix.maturity)

    def test_garch_round_trip_sniffs_kind(self, tmp_path):
        path = str(tmp_path / "garch.json")
        model = GarchModel(omega=1e-6, arch=0.08, garch_coef=0.9,
                           steps=21, init_var=5e-5, drift=1e-4)
        write_json(path, garch_to_dict(model))
        back = read_model(path)
        assert isinstance(back, GarchModel)
        assert back == model

    def test_unknown_model_payload(self, tmp_path):
        path = str(tmp_path / "other.json")
        write_json(path, {"schema": SCHEMA_VERSION, "kind": "what"})
        with pytest.raises((KeyError, ValueError)):
            read_model(path)


class TestDensityCsv:
    def test_step_round_trip(self, tmp_path):
        path = str(tmp_path / "d.csv")
        dens = CompleteMarketDensity("step", [1.0 / 3.0, 1.0], [2.0, 0.5])
        write_density(path, dens)
        back = read_density(path)
        assert back.kind == "step"
        assert np.allclose(back.grid, dens.grid)
        assert np.allclose(back.values, dens.values)

    def test_linear_kind_inferred_from_leading_zero(self, tmp_path):
        path = str(tmp_path / "lin.csv")
        with open(path, "w") as fh:
            fh.write("u,q\n0.0,2.0\n1.0,0.0\n")
        back = read_density(path)
        assert back.kind == "linear"

    def test_header_enforced(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("x,y\n0.5,1\n1,1\n")
        with pytest.raises(ValueError, match="expected header"):
            read_density(path)


class TestReturnsCsv:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "r.csv")
        rets = np.array([0.01, -0.02, 0.003])
        write_returns(path, rets)
        assert np.array_equal(read_returns(path), rets)


class TestMarketParams:
    def test_read(self, tmp_path):
        path = str(tmp_path / "m.json")
        write_json(path, {"schema": SCHEMA_VERSION, "spot": 100.0,
                          "rate": 0.03, "maturity_years": 0.5})
        params = read_market_params(path)
        assert (params.spot, params.rate, params.maturity) == (100.0, 0.03, 0.5)

    def test_missing_key(self, tmp_path):
        path = str(tmp_path / "m.json")
        write_json(path, {"schema": SCHEMA_VERSION, "spot": 100.0})
        with pytest.raises(ValueError, match="missing keys"):
            read_market_params(path)


class TestJsonConventions:
    def test_dumps_sorted_and_stable(self):
        a = dumps_json({"b": 1, "a": [1.5, 2.0], "schema": SCHEMA_VERSION})
        b = dumps_json({"a": [1.5, 2.0], "schema": SCHEMA_VERSION, "b": 1})
        assert a == b
        assert a.index('"a"') < a.index('"b"')

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "out.json")
        write_json(path, {"schema": SCHEMA_VERSION, "x": 1})
        assert sorted(os.listdir(tmp_path)) == ["out.json"]

    def test_write_is_byte_stable(self, tmp_path):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        payload = {"schema": SCHEMA_VERSION, "v": [0.1, 0.2, 0.3]}
        write_json(p1, payload)
        write_json(p2, payload)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


class TestScanCsv:
    def test_header_and_rows(self, tmp_path):
        path = str(tmp_path / "scan.csv")
        rows = [
            ScanRow(0.0, "limited_liability", 0.5, 1.0, -0.25),
            ScanRow(10.0, "risk_manager_power(eta=2)", -3.0, 1.0, -2.5),
        ]
        write_scan_csv(path, rows)
        lines = Path(path).read_text().strip().splitlines()
        assert lines[0] == "lambda,spec,expected_utility,price,es_p"
        assert len(lines) == 3
        assert lines[1].startswith("0.0,limited_liability,")
