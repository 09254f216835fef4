"""Command-line front end.

Commands: detect, min-p, analytic markowitz|complete, calibrate
mixture|garch, utility-scan, simulate. Markets come from one of three
sources: an explicit scenario CSV plus a quote chain, a probability model
plus a chain (discretized by Monte Carlo or the piecewise-linear-exact
rule), or a density-ratio table expanded into a synthetic digital market.

Exit codes: 0 success / no arbitrage, 3 arbitrage found, 2 optimizer or
solver non-convergence, 1 usage or input errors. All randomness flows from
--seed through named substreams; repeated runs write byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io as eio
from .analytic import (
    complete_market_arbitrage,
    density_market,
    density_market_mc,
    markowitz_arbitrage,
)
from .detector import SolverError, detect, min_p
from .market import MarketSnapshot, Portfolio, expand_quotes
from .models import (
    CalibrationError,
    GarchModel,
    LognormalMixture,
    calibrate_mixture,
    default_pl_grid,
    fit_garch,
    mc_quadrature,
    pl_quadrature,
)
from .seeding import substream
from .utility import UtilitySpec, scaling_scan

_DEFAULT_LAMBDAS = "0,1,10,100,1000,10000"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit 2; usage errors are 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _add_market_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--chain", help="quote chain CSV (kind,strike,bid,ask)")
    parser.add_argument("--market", help="market JSON (spot, rate, maturity_years)")
    parser.add_argument("--model", help="model JSON (mixture or garch)")
    parser.add_argument("--scenarios", help="scenario CSV (point,weight)")
    parser.add_argument("--density", help="density-ratio CSV (u,q); builds a digital market")
    parser.add_argument("--quadrature", choices=["mc", "pl"], default=None)
    parser.add_argument("--n", type=int, default=100_000, help="Monte Carlo draws")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--upper-bound", type=float, default=1.0, help="per-leg cap")


def _build_market(args, run_tag: str = "") -> MarketSnapshot:
    sources = [s for s in (args.scenarios, args.density, args.model) if s]
    if len(sources) != 1:
        raise ValueError("need exactly one of --scenarios, --model, --density")
    ub = args.upper_bound
    if args.scenarios:
        if not (args.chain and args.market):
            raise ValueError("--scenarios needs --chain and --market")
        params = eio.read_market_params(args.market)
        scen = eio.read_scenarios(args.scenarios)
        legs = expand_quotes(eio.read_chain(args.chain), scen, params.spot, params.rate, params.maturity)
        return MarketSnapshot(scen, tuple(legs), params.spot, params.rate, params.maturity, ub)
    if args.density:
        density = eio.read_density(args.density)
        if args.quadrature == "pl":
            raise ValueError("--density supports exact cells or --quadrature mc")
        if args.quadrature == "mc":
            rng = substream(args.seed, f"mc-density{run_tag}")
            return density_market_mc(density, args.n, rng, upper_bound=ub)
        return density_market(density, upper_bound=ub)
    if not (args.chain and args.market):
        raise ValueError("--model needs --chain and --market")
    params = eio.read_market_params(args.market)
    model = eio.read_model(args.model)
    quotes = eio.read_chain(args.chain)
    quadrature = args.quadrature or "mc"
    if quadrature == "pl":
        if not isinstance(model, LognormalMixture):
            raise ValueError("pl quadrature needs a mixture model")
        strikes = [q.strike for q in quotes if q.kind in ("call", "put")]
        scen = pl_quadrature(model, default_pl_grid(model, strikes))
    else:
        rng = substream(args.seed, f"mc-quadrature{run_tag}")
        scen = mc_quadrature(model, args.n, rng, spot=params.spot)
    legs = expand_quotes(quotes, scen, params.spot, params.rate, params.maturity)
    return MarketSnapshot(scen, tuple(legs), params.spot, params.rate, params.maturity, ub)


def _emit(args, payload: dict) -> None:
    if args.out:
        eio.write_json(args.out, payload)
    else:
        sys.stdout.write(eio.dumps_json(payload))


def _cmd_detect(args) -> int:
    market = _build_market(args)
    result = detect(market, args.p)
    _emit(args, eio.detection_to_dict(result, market.labels()))
    return 3 if result.arbitrage else 0


def _parse_bracket(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("--bracket expects lo,hi")
    return float(parts[0]), float(parts[1])


def _cmd_min_p(args) -> int:
    bracket = _parse_bracket(args.bracket)
    mc_based = args.quadrature == "mc" or (args.model and args.quadrature is None)
    runs = 2 if (args.two_run and mc_based) else 1
    reports = []
    for run in range(runs):
        market = _build_market(args, run_tag=f":run{run}" if runs > 1 else "")
        result = min_p(market, bracket=bracket, tol=args.tol)
        reports.append(result)
    main = reports[0]
    payload = {
        "schema": eio.SCHEMA_VERSION,
        "p_star": main.p_star,
        "status": main.status,
        "evaluations": main.evaluations,
    }
    if runs > 1:
        payload["runs"] = [
            {"p_star": r.p_star, "status": r.status, "evaluations": r.evaluations}
            for r in reports
        ]
        spread = None
        if all(r.p_star is not None for r in reports):
            spread = abs(reports[0].p_star - reports[1].p_star)
        payload["spread"] = spread
    _emit(args, payload)
    return 3 if main.p_star is not None else 0


def _cmd_analytic(args) -> int:
    if args.which == "markowitz":
        if not args.model:
            raise ValueError("analytic markowitz needs --model with mu/sigma/c/rf")
        verdict = markowitz_arbitrage(eio.read_markowitz(args.model), args.p)
        payload = {
            "schema": eio.SCHEMA_VERSION,
            "p": args.p,
            "arbitrage": verdict.arbitrage,
            "reason": verdict.reason,
            "gradient": verdict.gradient,
            "threshold": verdict.threshold,
        }
    else:
        if not args.density:
            raise ValueError("analytic complete needs --density")
        verdict = complete_market_arbitrage(eio.read_density(args.density), args.p)
        payload = {
            "schema": eio.SCHEMA_VERSION,
            "p": args.p,
            "arbitrage": verdict.arbitrage,
            "sup_density": verdict.sup_density,
            "threshold": verdict.threshold,
            "boundary": verdict.boundary,
            "plateau": verdict.plateau,
        }
    _emit(args, payload)
    return 3 if verdict.arbitrage else 0


def _cmd_calibrate(args) -> int:
    if args.which == "mixture":
        if not (args.chain and args.market):
            raise ValueError("calibrate mixture needs --chain and --market")
        params = eio.read_market_params(args.market)
        quotes = eio.read_chain(args.chain)
        try:
            fit = calibrate_mixture(quotes, params.spot, params.rate, params.maturity, seed=args.seed)
        except CalibrationError as exc:
            if exc.fit is not None and args.out:
                payload = eio.mixture_to_dict(exc.fit.mixture)
                payload["schema"] = eio.SCHEMA_VERSION
                payload["diagnostics"] = {"rmse": exc.fit.rmse, "converged": False}
                eio.write_json(args.out, payload)
            raise
        payload = eio.mixture_to_dict(fit.mixture)
        payload["schema"] = eio.SCHEMA_VERSION
        payload["diagnostics"] = {
            "rmse": fit.rmse,
            "converged": fit.converged,
            "start_index": fit.start_index,
        }
    else:
        if not args.returns:
            raise ValueError("calibrate garch needs --returns")
        returns = eio.read_returns(args.returns)
        try:
            fit = fit_garch(returns, steps_ahead=args.steps, seed=args.seed)
        except CalibrationError as exc:
            if exc.fit is not None and args.out:
                payload = eio.garch_to_dict(exc.fit.model)
                payload["schema"] = eio.SCHEMA_VERSION
                payload["diagnostics"] = {"loglik": exc.fit.loglik, "converged": False}
                eio.write_json(args.out, payload)
            raise
        payload = eio.garch_to_dict(fit.model)
        payload["schema"] = eio.SCHEMA_VERSION
        payload["diagnostics"] = {
            "loglik": fit.loglik,
            "converged": fit.converged,
            "start_index": fit.start_index,
        }
    _emit(args, payload)
    return 0


def _cmd_utility_scan(args) -> int:
    report = eio.read_json(args.detection)
    if not report.get("arbitrage"):
        raise ValueError("stored detection has no arbitrage portfolio")
    market = _build_market(args)
    by_label = {row["label"]: float(row["qty"]) for row in report.get("portfolio", [])}
    labels = market.labels()
    missing = [label for label in labels if label not in by_label]
    if missing or len(by_label) != len(labels):
        raise ValueError("portfolio labels do not match market legs")
    ray = Portfolio(np.array([by_label[label] for label in labels]), upper_bound=market.upper_bound)
    base = Portfolio(np.zeros(market.n_legs), upper_bound=market.upper_bound)
    lambdas = [float(x) for x in args.lambdas.split(",") if x.strip()]
    specs = [
        UtilitySpec.limited_liability(),
        UtilitySpec.s_shaped_power(1.0, 1.0, 1.0, 0.5),
        UtilitySpec.risk_manager_power(2.0),
    ]
    rows = scaling_scan(market, base, ray, lambdas, specs, args.p)
    if args.out:
        eio.write_scan_csv(args.out, rows)
    else:
        sys.stdout.write(eio.dumps_scan_csv(rows))
    return 0


def _cmd_simulate(args) -> int:
    model = eio.read_model(args.model)
    rng = substream(args.seed, "simulate")
    if isinstance(model, GarchModel):
        values = model.simulate_returns(args.n, rng)
    else:
        values = model.sample(args.n, rng)
    if args.out:
        eio.write_returns(args.out, values)
    else:
        for v in values:
            sys.stdout.write(repr(float(v)) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="esarb", description="ES_p-arbitrage detection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="run the LP detector at one level")
    _add_market_flags(p_detect)
    p_detect.add_argument("--p", type=float, required=True)
    p_detect.add_argument("--out")
    p_detect.set_defaults(func=_cmd_detect)

    p_minp = sub.add_parser("min-p", help="smallest arbitrage level, from the threshold LP")
    _add_market_flags(p_minp)
    p_minp.add_argument("--bracket", default="1e-4,0.5")
    p_minp.add_argument("--tol", type=float, default=1e-4)
    p_minp.add_argument("--two-run", action="store_true", help="repeat mc run with a second substream")
    p_minp.add_argument("--out")
    p_minp.set_defaults(func=_cmd_min_p)

    p_analytic = sub.add_parser("analytic", help="closed-form criteria")
    p_analytic.add_argument("which", choices=["markowitz", "complete"])
    p_analytic.add_argument("--model", help="markowitz JSON (mu, sigma, c, rf)")
    p_analytic.add_argument("--density", help="density CSV (u,q)")
    p_analytic.add_argument("--p", type=float, required=True)
    p_analytic.add_argument("--out")
    p_analytic.set_defaults(func=_cmd_analytic)

    p_cal = sub.add_parser("calibrate", help="fit a model to market data")
    p_cal.add_argument("which", choices=["mixture", "garch"])
    p_cal.add_argument("--chain")
    p_cal.add_argument("--market")
    p_cal.add_argument("--returns")
    p_cal.add_argument("--steps", type=int, default=1, help="garch simulation horizon")
    p_cal.add_argument("--seed", type=int, default=0)
    p_cal.add_argument("--out")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_scan = sub.add_parser("utility-scan", help="scaling scan along a stored arbitrage")
    _add_market_flags(p_scan)
    p_scan.add_argument("--detection", required=True, help="DetectionResult JSON")
    p_scan.add_argument("--p", type=float, required=True)
    p_scan.add_argument("--lambdas", default=_DEFAULT_LAMBDAS)
    p_scan.add_argument("--out")
    p_scan.set_defaults(func=_cmd_utility_scan)

    p_sim = sub.add_parser("simulate", help="draw returns or terminal prices from a model")
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CalibrationError, SolverError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
