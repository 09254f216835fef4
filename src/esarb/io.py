"""File formats: CSV chains, scenario grids, densities, returns; JSON for
market parameters, models, Markowitz inputs and detection reports.

All writers are atomic (temp file in the target directory, then rename) and
deterministic: JSON is emitted with sorted keys so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .analytic import CompleteMarketDensity, MarkowitzMarket
from .detector import DetectionResult
from .market import InstrumentQuote, ScenarioSet
from .models import GarchFit, GarchModel, LognormalMixture, MixtureFit

SCHEMA_VERSION = 1


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".esarb-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dumps_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_json(path: str, payload: dict) -> None:
    _atomic_write(path, dumps_json(payload))


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _require(data: dict, keys, where: str):
    missing = [k for k in keys if k not in data]
    if missing:
        raise ValueError(f"{where}: missing keys {missing}")
    return [data[k] for k in keys]


def _numbers(data: dict, keys, where: str) -> list[float]:
    """The values at keys as floats; each must be a finite JSON number."""
    values = _require(data, keys, where)
    for key, value in zip(keys, values):
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and math.isfinite(value)):
            raise ValueError(f"{where}: {key} must be a finite number, got {value!r}")
    return [float(v) for v in values]


def _arrays(data: dict, keys, where: str) -> list[np.ndarray]:
    """The values at keys as float arrays; each must be a (nested) JSON
    array of numbers."""
    arrays = []
    for key, value in zip(keys, _require(data, keys, where)):
        try:
            arrays.append(np.asarray(value, dtype=float))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {key} must be an array of numbers, got {value!r}") from exc
    return arrays


def _csv_rows(path: str, header: list[str]) -> list[list[str]]:
    """Every non-blank data row of a CSV that must start with the given
    header and have one cell per header column."""
    rows = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        first = next(reader, None)
        if first is None or [h.strip() for h in first] != header:
            raise ValueError(f"{path}: expected header {','.join(header)}")
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{line_no}: expected {len(header)} columns")
            rows.append(row)
    return rows


def _float_table(path: str, header: list[str]) -> np.ndarray:
    """The data rows of a CSV of float columns as an (n, len(header)) array."""
    rows = [[float(cell) for cell in row] for row in _csv_rows(path, header)]
    return np.array(rows, dtype=float).reshape(len(rows), len(header))


def _csv_text(header: list[str], rows) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _float_csv_text(header: list[str], *columns) -> str:
    """CSV text of float columns, each value written exactly (repr)."""
    return _csv_text(header, ([repr(float(v)) for v in row] for row in zip(*columns)))


# ---------------------------------------------------------------- chain CSV

_CHAIN_HEADER = ["kind", "strike", "bid", "ask"]


def read_chain(path: str) -> list[InstrumentQuote]:
    """Chain CSV `kind,strike,bid,ask`; blank strike for bond/underlying,
    blank bid means 0 (no bid), blank ask means no offer (infinite)."""
    quotes: list[InstrumentQuote] = []
    for row in _csv_rows(path, _CHAIN_HEADER):
        kind = row[0].strip()
        strike = float(row[1]) if row[1].strip() else None
        bid = float(row[2]) if row[2].strip() else 0.0
        ask = float(row[3]) if row[3].strip() else math.inf
        quotes.append(InstrumentQuote(kind, strike, bid, ask))
    if not quotes:
        raise ValueError(f"{path}: no quotes")
    return quotes


def write_chain(path: str, quotes: list[InstrumentQuote]) -> None:
    rows = []
    for q in quotes:
        strike = "" if q.strike is None else repr(float(q.strike))
        ask = "" if math.isinf(q.ask) else repr(float(q.ask))
        rows.append([q.kind, strike, repr(float(q.bid)), ask])
    _atomic_write(path, _csv_text(_CHAIN_HEADER, rows))


# ------------------------------------------------------------- market JSON


@dataclass(frozen=True)
class MarketParams:
    spot: float
    rate: float
    maturity: float

    def __post_init__(self) -> None:
        if self.spot <= 0 or self.maturity <= 0:
            raise ValueError("spot and maturity_years must be positive")


def read_market_params(path: str) -> MarketParams:
    return MarketParams(*_numbers(read_json(path), ["spot", "rate", "maturity_years"], path))


# ------------------------------------------------------------ scenario CSV


def read_scenarios(path: str) -> ScenarioSet:
    table = _float_table(path, ["point", "weight"])
    return ScenarioSet(table[:, 0], table[:, 1])


def write_scenarios(path: str, scenarios: ScenarioSet) -> None:
    _atomic_write(path, _float_csv_text(["point", "weight"], scenarios.points, scenarios.weights))


# -------------------------------------------------------------- returns CSV


def read_returns(path: str) -> np.ndarray:
    values = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: not a number: {text!r}") from exc
    if not values:
        raise ValueError(f"{path}: empty returns file")
    return np.asarray(values)


def dumps_returns(returns) -> str:
    """One exact float (repr) per line."""
    return "".join(repr(float(r)) + "\n" for r in np.asarray(returns, dtype=float))


def write_returns(path: str, returns) -> None:
    _atomic_write(path, dumps_returns(returns))


# -------------------------------------------------------------- density CSV


def read_density(path: str) -> CompleteMarketDensity:
    """Density CSV `u,q` with u ascending. A first row at u = 0 marks a
    piecewise-linear table of nodes; otherwise rows are step cells keyed by
    right endpoint, the last of which must be 1."""
    table = _float_table(path, ["u", "q"])
    if not len(table):
        raise ValueError(f"{path}: empty density file")
    kind = "linear" if table[0, 0] == 0.0 else "step"
    return CompleteMarketDensity(kind, table[:, 0], table[:, 1])


def write_density(path: str, density: CompleteMarketDensity) -> None:
    _atomic_write(path, _float_csv_text(["u", "q"], density.grid, density.values))


# ----------------------------------------------------------- markowitz JSON


def read_markowitz(path: str) -> MarkowitzMarket:
    data = read_json(path)
    mu, sigma, c = _arrays(data, ["mu", "sigma", "c"], path)
    (rf,) = _numbers(data, ["rf"], path)
    return MarkowitzMarket(mu, sigma, c, rf)


# --------------------------------------------------------------- model JSON


def mixture_to_dict(mixture: LognormalMixture) -> dict:
    return {
        "weights": [float(v) for v in mixture.weights],
        "log_means": [float(v) for v in mixture.log_means],
        "log_sds": [float(v) for v in mixture.log_sds],
        "spot": mixture.spot,
        "rate": mixture.rate,
        "maturity_years": mixture.maturity,
    }


def garch_to_dict(model: GarchModel) -> dict:
    return {
        "omega": model.omega,
        "arch": model.arch,
        "garch_coef": model.garch_coef,
        "steps": model.steps,
        "init_var": model.init_var,
        "drift": model.drift,
    }


def fit_to_dict(fit: MixtureFit | GarchFit) -> dict:
    """Calibration report: the fitted model's JSON plus schema and diagnostics."""
    if isinstance(fit, MixtureFit):
        payload = mixture_to_dict(fit.mixture)
        payload["diagnostics"] = {"rmse": fit.rmse}
    else:
        payload = garch_to_dict(fit.model)
        payload["diagnostics"] = {"loglik": fit.loglik}
    payload["diagnostics"].update(converged=fit.converged, start_index=fit.start_index)
    payload["schema"] = SCHEMA_VERSION
    return payload


def read_model(path: str) -> LognormalMixture | GarchModel:
    """Model JSON: mixture (weights/log_means/log_sds/spot/rate/maturity_years)
    or GARCH (omega/arch/garch_coef/steps/init_var/drift), told apart by keys."""
    data = read_json(path)
    if "weights" in data:
        w, m, s = _arrays(data, ["weights", "log_means", "log_sds"], path)
        spot, rate, mat = _numbers(data, ["spot", "rate", "maturity_years"], path)
        return LognormalMixture(w, m, s, spot, rate, mat)
    if "omega" in data:
        # steps stays a float here so that GarchModel rejects a fractional value
        keys = ["omega", "arch", "garch_coef", "steps", "init_var", "drift"]
        return GarchModel(*_numbers({"drift": 0.0, **data}, keys, path))
    raise ValueError(f"{path}: not a mixture or garch model JSON")


# ----------------------------------------------------------- report payloads


def detection_to_dict(result: DetectionResult, labels: list[str]) -> dict:
    quantities = result.portfolio.quantities
    if len(labels) != len(quantities):
        raise ValueError("label count does not match portfolio length")
    confirmation = None
    if result.confirmation is not None:
        confirmation = {"max_expected_payoff": result.confirmation.max_expected_payoff}
    return {
        "schema": SCHEMA_VERSION,
        "p": result.level.p,
        "min_es": result.min_es,
        "arbitrage": result.arbitrage,
        "portfolio": [
            {"label": label, "qty": float(qty)} for label, qty in zip(labels, quantities)
        ],
        "alpha_star": result.alpha_star,
        "confirmation": confirmation,
    }


def read_arbitrage_portfolio(path: str) -> list[tuple[str, float]]:
    """The (label, quantity) rows of a stored detection's arbitrage
    portfolio, in their stored order (one per market leg, and two legs may
    share a label); each must be an object with a string label and a
    finite-number qty."""
    data = read_json(path)
    if not data.get("arbitrage"):
        raise ValueError("stored detection has no arbitrage portfolio")
    rows = data.get("portfolio", [])
    if not (isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
        raise ValueError(f"{path}: portfolio must be a list of objects")
    portfolio = []
    for row in rows:
        (label,) = _require(row, ["label"], path)
        if not isinstance(label, str):
            raise ValueError(f"{path}: label must be a string, got {label!r}")
        (qty,) = _numbers(row, ["qty"], path)
        portfolio.append((label, qty))
    return portfolio


def dumps_scan_csv(rows) -> str:
    return _csv_text(
        ["lambda", "spec", "expected_utility", "price", "es_p"],
        ([repr(r.lam), r.spec, repr(r.expected_utility), repr(r.price), repr(r.es_p)] for r in rows),
    )


def write_scan_csv(path: str, rows) -> None:
    _atomic_write(path, dumps_scan_csv(rows))
