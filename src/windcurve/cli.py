"""Command-line interface: generate, sweep, defaults, cp-table, validate.

All outputs are deterministic plot-ready CSV/JSON; no figures are rendered
here.  Exit codes: 0 success, 2 input validation failure, 3 internal numeric
failure.  Option values take precedence over config-file values, which take
precedence over built-in defaults.
"""

from __future__ import annotations

import json
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import click
import numpy as np

from . import __version__
from .cp_models import (DEFAULT_PARAMETERISATION, REGISTRY, cp_general_array,
                        get_parameterisation, lambda_grid, registry_to_json)
from .curve_engine import DEFAULT_DV, DEFAULT_RHO, DEFAULT_V_MAX, PowerCurve, grid_points
from .environment import DEFAULT_N_BANDS, EnvironmentConditions
from .errors import NoPositiveCp, NonFiniteResult, WindcurveError
from .synthesis import ENV_ORDERS, synthesize
from .turbine import (TurbineSpec, check_value, complete_spec, flat_record, load_json,
                      load_spec)
from .validation import (DEFAULT_TI_GRID, validate_directory,
                         write_report_json, write_summary_csv)

_INPUT_ERRORS = (WindcurveError, ValueError, OSError)
_NUMERIC_ERRORS = (NoPositiveCp, NonFiniteResult, ArithmeticError)


#: A run held flat, as config files and sidecars hold it: the default of every
#: key, in sidecar order (turbine, cp model, site, then the grid and bands).
_DEFAULT_RECORD = {**asdict(TurbineSpec()), "cp_model": DEFAULT_PARAMETERISATION,
                   **asdict(EnvironmentConditions()), "n_bands": DEFAULT_N_BANDS,
                   "v_max": DEFAULT_V_MAX, "dv": DEFAULT_DV, "env_order": ENV_ORDERS[0]}

#: Every key a flat run configuration may hold, in sidecar order.
CONFIG_KEYS = tuple(_DEFAULT_RECORD)


def _synthesize(flat: dict) -> tuple[PowerCurve, list[dict]]:
    """Synthesize the curve of a flat run record; absent keys take their defaults."""
    run = {**_DEFAULT_RECORD, **flat}

    def take(shape):
        return shape(**{f.name: run.pop(f.name) for f in fields(shape)})
    turbine, env = take(TurbineSpec), take(EnvironmentConditions)
    return synthesize(turbine, env, **run)


# Reference turbine (all else defaulted) and typical variation intervals used
# by sweeps.  Sweep values outside their interval draw a warning, not an error.
REFERENCE_CONFIG = dict(
    name="reference", rotor_diameter=80.0, rated_power=2000.0, cut_in=3.5,
    cut_out=25.0, omega_min=10.0, omega_max=30.0, cp_max=0.4615)

SWEEP_INTERVALS: dict[str, tuple[float, float]] = {
    "rotor_diameter": (40.0, 120.0),
    "rated_power": (1500.0, 2500.0),
    "cut_in": (0.0, 5.0),
    "cut_out": (20.0, 30.0),
    "omega_min": (0.0, 15.0),
    "omega_max": (15.0, 40.0),
    "cp_max": (0.3, 0.59),
    "ti": (0.0, 0.15),
    "rho": (1.15, 1.3),
    "shear_alpha": (0.0, 0.4),
    "veer_rate": (0.0, 0.75),
}
SWEEPABLE = tuple(SWEEP_INTERVALS) + ("cp_parameterisation",)

#: Most values one sweep runs; it holds every curve until the CSV is written.
MAX_SWEEP_VALUES = 1000

#: Most grid points one sweep holds over all its curves, 160 MB of grid and
#: power: 1000 values on a dv 0.01 grid hold 4e6.
MAX_SWEEP_POINTS = 10_000_000


def _fail(code: int, reason: str) -> None:
    click.echo(f"error: {reason}", err=True)
    sys.exit(code)


class _Guarded(click.Group):
    """Map every error, option parsing included, to its exit code and one error
    line.  Warnings are held back and shown only when the command succeeds."""

    def invoke(self, ctx: click.Context):
        with warnings.catch_warnings(record=True) as held:
            try:
                result = super().invoke(ctx)
            except _NUMERIC_ERRORS as exc:
                _fail(3, f"{type(exc).__name__}: {exc}")
            except _INPUT_ERRORS as exc:
                _fail(2, f"{type(exc).__name__}: {exc}")
            except click.ClickException as exc:
                _fail(2, exc.format_message())
        for w in held:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result


def _given(values: dict) -> dict:
    return {k: v for k, v in values.items() if v is not None}


def _load_config_file(path: str | None) -> dict:
    data = {} if path is None else flat_record(load_json(path))
    unknown = set(data) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return _given(data)


def _resolve_config(config_path: str | None, spec_path: str | None,
                    flag_values: dict) -> dict:
    """The given keys of a run, by precedence: flags > config file > spec file."""
    spec = asdict(load_spec(spec_path)) if spec_path is not None else {}
    return {**_given(spec), **_load_config_file(config_path), **_given(flag_values)}


_turbine_options = [
    click.option("--name", default=None, help="Turbine name for outputs."),
    click.option("--diameter", "rotor_diameter", type=float, default=None,
                 help="Rotor diameter in m (mandatory unless given via config/spec)."),
    click.option("--rated-power", "rated_power", type=float, default=None,
                 help="Rated electrical power in kW (mandatory)."),
    click.option("--cut-in", "cut_in", type=float, default=None,
                 help="Cut-in wind speed in m/s."),
    click.option("--cut-out", "cut_out", type=float, default=None,
                 help="Cut-out wind speed in m/s."),
    click.option("--omega-min", "omega_min", type=float, default=None,
                 help="Minimum rotor speed in rpm."),
    click.option("--omega-max", "omega_max", type=float, default=None,
                 help="Maximum rotor speed in rpm."),
    click.option("--cp-max", "cp_max", type=float, default=None,
                 help="Peak power coefficient (dimensionless, at most 16/27)."),
    click.option("--hub-height", "hub_height", type=float, default=None,
                 help="Hub height in m (needed for shear/veer)."),
]

_environment_options = [
    click.option("--cp-model", "cp_model", default=None,
                 help=f"Cp parameterisation ({', '.join(sorted(REGISTRY))})."),
    click.option("--ti", type=float, default=None,
                 help="Turbulence intensity as a fraction (0.1, not 10%)."),
    click.option("--rho", type=float, default=None, help="Air density in kg/m^3."),
    click.option("--shear-alpha", "shear_alpha", type=float, default=None,
                 help="Power-law wind-shear exponent."),
    click.option("--veer-rate", "veer_rate", type=float, default=None,
                 help="Wind veer in degrees per metre of height."),
    click.option("--n-bands", "n_bands", type=int, default=None,
                 help="Horizontal rotor bands for the rotor-equivalent speed."),
    click.option("--v-max", "v_max", type=float, default=None,
                 help="Upper end of the wind-speed grid in m/s."),
    click.option("--dv", type=float, default=None,
                 help="Wind-speed grid step in m/s."),
    click.option("--env-order", "env_order", default=None,
                 type=click.Choice(ENV_ORDERS),
                 help="Order in which shear/veer and TI are applied."),
]


def _add_options(options):
    def deco(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return deco


@click.group(cls=_Guarded)
@click.version_option(version=__version__)
def main() -> None:
    """Synthesize wind-turbine power curves from catalogue characteristics
    and site conditions."""


@main.command()
@_add_options(_turbine_options)
@_add_options(_environment_options)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON run configuration with flat keys (see README).")
@click.option("--spec", "spec_path", type=click.Path(exists=True), default=None,
              help="JSON turbine spec record.")
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="Output power-curve CSV; a .json sidecar is "
                   "written next to it.")
def generate(config_path: str | None, spec_path: str | None, out_path: str,
             **flags) -> None:
    """Generate one power curve and its JSON sidecar."""
    out = Path(out_path)
    sidecar = out.with_suffix(".json")
    if sidecar == out:
        raise ValueError(f"--out {out} is also the path of its .json sidecar")
    given = _resolve_config(config_path, spec_path, flags)
    curve, report = _synthesize(given)
    resolved = {**_DEFAULT_RECORD, **given, **{f["field"]: f["value"] for f in report}}
    curve.write_csv(out)
    sidecar.write_text(json.dumps({"config": resolved,
                                   "defaults_report": report,
                                   "model_version": __version__}, indent=2) + "\n")
    click.echo(f"wrote {out} and {sidecar}")


def _parse_sweep_values(param: str, values: str | None,
                        vrange: tuple[float, float, int] | None) -> list:
    if (values is None) == (vrange is None):
        raise ValueError("give exactly one of --values or --range")
    count = values.count(",") + 1 if vrange is None else vrange[2]
    if count > MAX_SWEEP_VALUES:
        raise ValueError(f"sweep of {count} values exceeds MAX_SWEEP_VALUES = {MAX_SWEEP_VALUES}")
    if param == "cp_parameterisation":
        if values is None:
            raise ValueError("cp_parameterisation sweeps need --values with model names")
        return [get_parameterisation(v).name for v in values.split(",")]
    if values is not None:
        return [float(v) for v in values.split(",")]
    lo, hi, count = vrange
    if count < 1:
        raise ValueError("--range count must be >= 1")
    return list(np.linspace(lo, hi, int(count)))


@main.command()
@click.option("--param", required=True, type=click.Choice(SWEEPABLE),
              help="Parameter varied around the reference configuration.")
@click.option("--values", default=None,
              help="Comma-separated explicit sweep values.")
@click.option("--range", "vrange", nargs=3, type=(float, float, int), default=None,
              help="MIN MAX COUNT evenly spaced sweep values.")
@_add_options(_turbine_options)
@_add_options(_environment_options)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_path", type=click.Path(), required=True,
              help="Long-format CSV param_value,wind_speed_ms,power_kw.")
def sweep(param: str, values: str | None, vrange, config_path: str | None,
          out_path: str, **flags) -> None:
    """Vary one parameter around the reference configuration."""
    sweep_values = _parse_sweep_values(param, values, vrange)
    base = {**REFERENCE_CONFIG, **_resolve_config(config_path, None, flags)}
    key = "cp_model" if param == "cp_parameterisation" else param
    run = {**_DEFAULT_RECORD, **base}
    for name in ("v_max", "dv"):
        check_value(name, run[name])
    points = len(sweep_values) * grid_points(run["v_max"], run["dv"])
    if not points <= MAX_SWEEP_POINTS:
        raise ValueError(f"sweep of {len(sweep_values)} curves holds {points:.6g} grid "
                         f"points, more than MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS}")

    # Synthesize every curve first: a failing value prints only its error, writes nothing.
    curves = [_synthesize({**base, key: v})[0] for v in sweep_values]
    interval = SWEEP_INTERVALS.get(param)
    if interval is not None:
        for v in sweep_values:
            if not interval[0] <= v <= interval[1]:
                click.echo(f"warning: {param}={v:g} outside the typical "
                           f"interval [{interval[0]:g}, {interval[1]:g}]", err=True)
    with Path(out_path).open("w", newline="") as fh:
        fh.write("param_value,wind_speed_ms,power_kw\n")
        for v, curve in zip(sweep_values, curves):
            label = v if param == "cp_parameterisation" else f"{v:.6g}"
            for w, p in zip(curve.wind_grid.tolist(), curve.power.tolist()):
                fh.write(f"{label},{w:.6g},{p:.6g}\n")
    click.echo(f"wrote {out_path} ({len(sweep_values)} curves)")


@main.command()
@_add_options(_turbine_options)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the completed spec JSON here instead of stdout.")
def defaults(out_path: str | None, **flags) -> None:
    """Complete a partial spec with the statistical defaults."""
    spec = TurbineSpec(**_given(flags))
    completed, report = complete_spec(spec)
    payload = json.dumps({"spec": asdict(completed), "defaults_report": report},
                         indent=2)
    if out_path is None:
        click.echo(payload)
    else:
        Path(out_path).write_text(payload + "\n")


@main.command(name="cp-table")
@click.option("--model", "models", multiple=True,
              help="Restrict to specific parameterisations (default: all six).")
@click.option("--lambda-min", type=float, default=0.5, show_default=True)
@click.option("--lambda-max", type=float, default=20.0, show_default=True)
@click.option("--step", type=float, default=0.05, show_default=True)
@click.option("--betas", default="0,1,3,5", show_default=True,
              help="Comma-separated pitch angles in degrees.")
@click.option("--registry-json", is_flag=True,
              help="Print the coefficient registry as JSON and exit.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Output CSV model,beta_deg,lambda,cp (default stdout).")
def cp_table(models: tuple[str, ...], lambda_min: float, lambda_max: float,
             step: float, betas: str, registry_json: bool,
             out_path: str | None) -> None:
    """Tabulate cp versus tip-speed ratio for several pitch angles."""
    if registry_json:
        click.echo(registry_to_json())
        return
    names = [get_parameterisation(m).name for m in models] or sorted(REGISTRY)
    beta_values = [float(b) for b in betas.split(",")]
    lams = lambda_grid(lambda_min, lambda_max, step)

    lines = ["model,beta_deg,lambda,cp"]
    for name in names:
        p = REGISTRY[name]
        for beta in beta_values:
            cps = cp_general_array(lams, beta, p)
            lines.extend(f"{name},{beta:.6g},{l:.6g},{c:.6g}"
                         for l, c in zip(lams, cps))
    text = "\n".join(lines) + "\n"
    if out_path is None:
        click.echo(text, nl=False)
    else:
        Path(out_path).write_text(text)


@main.command()
@click.option("--input-dir", type=click.Path(exists=True, file_okay=False),
              required=True,
              help="Directory of paired curve CSVs and spec JSONs.")
@click.option("--ti-grid", default=",".join(f"{t:g}" for t in DEFAULT_TI_GRID),
              show_default=True, help="Comma-separated TI candidates.")
@click.option("--rho", type=float, default=DEFAULT_RHO, show_default=True)
@click.option("--cp-model", "cp_model", default=DEFAULT_PARAMETERISATION,
              show_default=True)
@click.option("--out-json", type=click.Path(), default=None,
              help="Full report JSON (default: report.json in the input dir).")
@click.option("--out-csv", type=click.Path(), default=None,
              help="Summary CSV (default: summary.csv in the input dir).")
def validate(input_dir: str, ti_grid: str, rho: float, cp_model: str,
             out_json: str | None, out_csv: str | None) -> None:
    """Score measured curves against synthesized ones over a TI grid."""
    json_path = Path(out_json) if out_json else Path(input_dir) / "report.json"
    csv_path = Path(out_csv) if out_csv else Path(input_dir) / "summary.csv"
    if json_path == csv_path:
        raise ValueError(f"--out-json and --out-csv are both {json_path}")
    grid = [float(t) for t in ti_grid.split(",")]
    results = validate_directory(input_dir, grid, rho=rho, cp_model=cp_model)
    with json_path.open("w") as fh:
        write_report_json(results, fh)
    with csv_path.open("w", newline="") as fh:
        write_summary_csv(results, fh)
    for r in results:
        click.echo(f"{r.name}: best_ti={r.best_ti:g} rmse={r.rmse_best:.4g}"
                   f"{' BETZ' if r.betz_violation else ''}"
                   f"{' SHAPE' if r.shape_anomaly else ''}")
    click.echo(f"wrote {json_path} and {csv_path}")


if __name__ == "__main__":
    main()
