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
from .models import GarchModel, LognormalMixture

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


# ---------------------------------------------------------------- chain CSV

_CHAIN_HEADER = ["kind", "strike", "bid", "ask"]


def read_chain(path: str) -> list[InstrumentQuote]:
    """Chain CSV `kind,strike,bid,ask`; blank strike for bond/underlying,
    blank bid means 0 (no bid), blank ask means no offer (infinite)."""
    quotes: list[InstrumentQuote] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != _CHAIN_HEADER:
            raise ValueError(f"{path}: expected header {','.join(_CHAIN_HEADER)}")
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 4:
                raise ValueError(f"{path}:{line_no}: expected 4 columns")
            kind = row[0].strip()
            strike = float(row[1]) if row[1].strip() else None
            bid = float(row[2]) if row[2].strip() else 0.0
            ask = float(row[3]) if row[3].strip() else math.inf
            quotes.append(InstrumentQuote(kind, strike, bid, ask))
    if not quotes:
        raise ValueError(f"{path}: no quotes")
    return quotes


def write_chain(path: str, quotes: list[InstrumentQuote]) -> None:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CHAIN_HEADER)
    for q in quotes:
        strike = "" if q.strike is None else repr(float(q.strike))
        ask = "" if math.isinf(q.ask) else repr(float(q.ask))
        writer.writerow([q.kind, strike, repr(float(q.bid)), ask])
    _atomic_write(path, buf.getvalue())


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
    data = read_json(path)
    spot, rate, maturity = _require(data, ["spot", "rate", "maturity_years"], path)
    return MarketParams(float(spot), float(rate), float(maturity))


# ------------------------------------------------------------ scenario CSV


def read_scenarios(path: str) -> ScenarioSet:
    points, weights = [], []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["point", "weight"]:
            raise ValueError(f"{path}: expected header point,weight")
        for row in reader:
            if not row or all(not cell.strip() for cell in row):
                continue
            points.append(float(row[0]))
            weights.append(float(row[1]))
    return ScenarioSet(np.asarray(points), np.asarray(weights))


def write_scenarios(path: str, scenarios: ScenarioSet) -> None:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["point", "weight"])
    for point, weight in zip(scenarios.points, scenarios.weights):
        writer.writerow([repr(float(point)), repr(float(weight))])
    _atomic_write(path, buf.getvalue())


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


def write_returns(path: str, returns) -> None:
    lines = "".join(repr(float(r)) + "\n" for r in np.asarray(returns, dtype=float))
    _atomic_write(path, lines)


# -------------------------------------------------------------- density CSV


def read_density(path: str, rate: float = 0.0, horizon: float = 1.0) -> CompleteMarketDensity:
    """Density CSV `u,q` with u ascending. A first row at u = 0 marks a
    piecewise-linear table of nodes; otherwise rows are step cells keyed by
    right endpoint, the last of which must be 1."""
    us, qs = [], []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["u", "q"]:
            raise ValueError(f"{path}: expected header u,q")
        for row in reader:
            if not row or all(not cell.strip() for cell in row):
                continue
            us.append(float(row[0]))
            qs.append(float(row[1]))
    if not us:
        raise ValueError(f"{path}: empty density file")
    kind = "linear" if us[0] == 0.0 else "step"
    return CompleteMarketDensity(kind, np.asarray(us), np.asarray(qs), rate=rate, horizon=horizon)


def write_density(path: str, density: CompleteMarketDensity) -> None:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["u", "q"])
    for u, q in zip(density.grid, density.values):
        writer.writerow([repr(float(u)), repr(float(q))])
    _atomic_write(path, buf.getvalue())


# ----------------------------------------------------------- markowitz JSON


def read_markowitz(path: str) -> MarkowitzMarket:
    data = read_json(path)
    mu, sigma, c, rf = _require(data, ["mu", "sigma", "c", "rf"], path)
    return MarkowitzMarket(np.asarray(mu, float), np.asarray(sigma, float), np.asarray(c, float), float(rf))


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


def read_model(path: str) -> LognormalMixture | GarchModel:
    """Model JSON: mixture (weights/log_means/log_sds/spot/rate/maturity_years)
    or GARCH (omega/arch/garch_coef/steps/init_var/drift), told apart by keys."""
    data = read_json(path)
    if "weights" in data:
        w, m, s, spot, rate, mat = _require(
            data, ["weights", "log_means", "log_sds", "spot", "rate", "maturity_years"], path
        )
        return LognormalMixture(np.asarray(w), np.asarray(m), np.asarray(s), float(spot), float(rate), float(mat))
    if "omega" in data:
        omega, arch, garch_coef, steps, init_var = _require(
            data, ["omega", "arch", "garch_coef", "steps", "init_var"], path
        )
        return GarchModel(
            float(omega), float(arch), float(garch_coef), int(steps), float(init_var),
            float(data.get("drift", 0.0)),
        )
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


def dumps_scan_csv(rows) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["lambda", "spec", "expected_utility", "price", "es_p"])
    for row in rows:
        writer.writerow(
            [repr(row.lam), row.spec, repr(row.expected_utility), repr(row.price), repr(row.es_p)]
        )
    return buf.getvalue()


def write_scan_csv(path: str, rows) -> None:
    _atomic_write(path, dumps_scan_csv(rows))
