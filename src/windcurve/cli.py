"""Command-line interface: generate, sweep, defaults, cp-table, validate.

All outputs are deterministic plot-ready CSV/JSON; no figures are rendered
here.  Exit codes: 0 success, 2 input validation failure, 3 internal numeric
failure.  Option values take precedence over config-file values, which take
precedence over built-in defaults.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from .cp_models import (DEFAULT_PARAMETERISATION, MAX_LAMBDA_POINTS, REGISTRY,
                        cp_general_array, get_parameterisation, lambda_grid,
                        registry_to_json)
from .curve_engine import DEFAULT_DV, DEFAULT_RHO, DEFAULT_V_MAX, PowerCurve, grid_points, open_output
from .environment import EnvironmentConditions
from .errors import NoPositiveCp, NonFiniteResult, WindcurveError, check_value
from .synthesis import synthesize
from .turbine import TurbineSpec, complete_spec, flat_record, load_json, load_spec, naming
from .validation import (DEFAULT_TI_GRID, _curve_pairs, check_settings, ti_text,
                         validate_directory, write_report_json, write_summary_csv)

_INPUT_ERRORS = (WindcurveError, ValueError, OSError, Warning)
_NUMERIC_ERRORS = (NoPositiveCp, NonFiniteResult, ArithmeticError, RuntimeWarning)


#: A run held flat, as config files and sidecars hold it: the default of every
#: key, in sidecar order (turbine, cp model, site, then the grid).
_DEFAULT_RECORD = {**asdict(TurbineSpec()), "cp_model": DEFAULT_PARAMETERISATION,
                   **asdict(EnvironmentConditions()), "v_max": DEFAULT_V_MAX, "dv": DEFAULT_DV}

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
    cut_out=25.0, omega_min=10.0, omega_max=30.0, cp_max=0.4615, hub_height=100.0)

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

#: Most rows one cp table writes: all six models at the four default pitches
#: on a tip-speed-ratio grid of MAX_LAMBDA_POINTS.
MAX_CP_TABLE_ROWS = len(REGISTRY) * 4 * MAX_LAMBDA_POINTS


def _fail(code: int, reason: str) -> None:
    click.echo(f"error: {reason}", err=True)
    sys.exit(code)


class _Guarded(click.Group):
    """Map every error, option parsing included, to its exit code and one error
    line.  Warnings are held back and shown, one line each, only when the
    command succeeds; one that the filters raise is an error like any other."""

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
            click.echo(f"warning: {w.category.__name__}: {w.message}", err=True)
        return result


def _given(values: dict) -> dict:
    return {k: v for k, v in values.items() if v is not None}


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    record = load_json(path)
    with naming(path):
        data = flat_record(record)
        unknown = set(data) - set(CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    # A sidecar's bytes are those of the model that wrote it.
    version = record.get("model_version", __version__)
    if version != __version__:
        warnings.warn(f"{path}: written by windcurve {version}, this is {__version__}; "
                      "its CSV may not replay byte for byte")
    return _given(data)


@contextlib.contextmanager
def _text_out(out_path: str | None):
    """A function that writes text to the file out_path, opened by
    open_output, or to stdout through click.echo when there is none."""
    if out_path is None:
        yield lambda text: click.echo(text, nl=False)
    else:
        with open_output(out_path) as fh:
            yield fh.write


def _refuse_clashes(outputs, inputs) -> None:
    """Raise ValueError naming both options when an output, resolved, is one
    file with another output or an input, and the OSError that writing an
    output would raise when it is a directory or its parent is not one, so
    that no command writes one output and fails on the next.  outputs and
    inputs are (option, path) pairs; an input path may be None."""
    owner = {Path(p).resolve(): option for option, p in inputs if p is not None}
    for option, path in outputs:
        path = Path(path)
        real = path.resolve()
        if real in owner:
            raise ValueError(f"{owner[real]} and {option} both name {real}")
        owner[real] = option
        try:
            # the trailing slash stats the parent as a directory: ENOENT if it
            # is missing, ENOTDIR if it or one above it is a file
            os.stat(os.path.join(path.parent, ""))
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))


def _labelled(what: str, values, label) -> dict:
    """Each value under its label, label(value), which names its rows in a
    table.  Raise ValueError naming both values when two share a label."""
    first = {}
    for v in values:
        text = label(v)
        if text in first:
            raise ValueError(f"{what} {first[text]!r} and {v!r} share the label {text}")
        first[text] = v
    return first


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
    click.option("--v-max", "v_max", type=float, default=None,
                 help="Upper end of the wind-speed grid in m/s."),
    click.option("--dv", type=float, default=None,
                 help="Wind-speed grid step in m/s."),
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
    _refuse_clashes([("--out", out), ("the sidecar of --out", sidecar)],
                    [("--config", config_path), ("--spec", spec_path)])
    given = _resolve_config(config_path, spec_path, flags)
    curve, report = _synthesize(given)
    resolved = {**_DEFAULT_RECORD, **given, **{f["field"]: f["value"] for f in report}}
    curve.write_csv(out)
    with open_output(sidecar) as fh:
        fh.write(json.dumps({"config": resolved, "defaults_report": report,
                             "model_version": __version__}, indent=2) + "\n")
    click.echo(f"wrote {out} and {sidecar}")


def _parse_sweep_values(param: str, values: str | None,
                        vrange: tuple[float, float, int] | None) -> dict:
    """Each sweep value under the label of its rows: %.6g, or the model name."""
    if (values is None) == (vrange is None):
        raise ValueError("give exactly one of --values or --range")
    count = values.count(",") + 1 if vrange is None else vrange[2]
    if count > MAX_SWEEP_VALUES:
        raise ValueError(f"sweep of {count} values exceeds MAX_SWEEP_VALUES = {MAX_SWEEP_VALUES}")
    if param == "cp_parameterisation":
        if values is None:
            raise ValueError("cp_parameterisation sweeps need --values with model names")
        return _labelled("sweep values", values.split(","),
                         lambda v: get_parameterisation(v).name)
    if values is not None:
        numbers = [float(v) for v in values.split(",")]
    else:
        lo, hi, count = vrange
        if count < 1:
            raise ValueError("--range count must be >= 1")
        for v in (lo, hi):  # before np.linspace spreads a non-finite end or span
            check_value(param, v)
        if not math.isfinite(hi - lo):
            raise ValueError(f"--range {lo} to {hi} spans more than the largest float")
        numbers = np.linspace(lo, hi, int(count)).tolist()
    # + 0.0 makes -0 the value 0, so the two share the label 0.
    numbers = [v + 0.0 for v in numbers]
    for v in numbers:
        check_value(param, v)
    return _labelled("sweep values", numbers, "{:.6g}".format)


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
    _refuse_clashes([("--out", out_path)], [("--config", config_path)])
    sweep_values = _parse_sweep_values(param, values, vrange)
    if param in SWEEP_INTERVALS:
        lo, hi = SWEEP_INTERVALS[param]
        for label, v in sweep_values.items():
            if not lo <= v <= hi:
                warnings.warn(f"{param}={label} outside the typical interval [{lo:g}, {hi:g}]")
    base = {**REFERENCE_CONFIG, **_resolve_config(config_path, None, flags)}
    key = "cp_model" if param == "cp_parameterisation" else param
    run = {**_DEFAULT_RECORD, **base}
    points = len(sweep_values) * grid_points(run["v_max"], run["dv"])
    if not points <= MAX_SWEEP_POINTS:
        raise ValueError(f"sweep of {len(sweep_values)} curves holds {points:.6g} grid "
                         f"points, more than MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS}")

    # Synthesize every curve first: a failing value writes nothing.
    curves = [_synthesize({**base, key: v})[0] for v in sweep_values.values()]
    with open_output(out_path) as fh:
        fh.write("param_value,wind_speed_ms,power_kw\n")
        for label, curve in zip(sweep_values, curves):
            fh.writelines(f"{label},{row}\n" for row in curve.csv_rows())
    click.echo(f"wrote {out_path} ({len(sweep_values)} curves)")


@main.command()
@_add_options(_turbine_options)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the completed spec JSON here instead of stdout.")
def defaults(out_path: str | None, **flags) -> None:
    """Complete a partial spec with the statistical defaults."""
    spec = TurbineSpec(**_given(flags))
    completed, report = complete_spec(spec)
    with _text_out(out_path) as write:
        write(json.dumps({"spec": asdict(completed), "defaults_report": report},
                         indent=2) + "\n")


@main.command(name="cp-table")
@click.option("--model", "models", multiple=True,
              help="Restrict to specific parameterisations (default: all six).")
@click.option("--lambda-min", type=float, default=0.5, show_default=True)
@click.option("--lambda-max", type=float, default=20.0, show_default=True)
@click.option("--step", type=float, default=0.05, show_default=True)
@click.option("--betas", default="0,1,3,5", show_default=True,
              help="Comma-separated pitch angles in degrees.")
@click.option("--registry-json", is_flag=True,
              help="Write the coefficient registry as JSON in place of the table.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Output CSV model,beta_deg,lambda,cp (default stdout).")
def cp_table(models: tuple[str, ...], lambda_min: float, lambda_max: float,
             step: float, betas: str, registry_json: bool,
             out_path: str | None) -> None:
    """Tabulate cp versus tip-speed ratio for several pitch angles."""
    if registry_json:
        ctx = click.get_current_context()
        for option in ctx.command.params:
            if (option.name not in ("registry_json", "out_path")
                    and ctx.get_parameter_source(option.name) is ParameterSource.COMMANDLINE):
                raise ValueError(f"{option.opts[0]} has no effect with --registry-json")
        with _text_out(out_path) as write:
            write(registry_to_json() + "\n")
        return
    names = list(_labelled("--model", models, lambda m: get_parameterisation(m).name))
    names = names or sorted(REGISTRY)
    lams = lambda_grid(lambda_min, lambda_max, step)
    rows = len(names) * (betas.count(",") + 1) * len(lams)
    if rows > MAX_CP_TABLE_ROWS:
        raise ValueError(f"cp table of {rows} rows exceeds "
                         f"MAX_CP_TABLE_ROWS = {MAX_CP_TABLE_ROWS}")
    pitches = _labelled("--betas", [float(b) + 0.0 for b in betas.split(",")], "{:.6g}".format)
    # Every pitch is checked on one ratio before the first row is written.
    for name in names:
        for beta in pitches.values():
            cp_general_array(lams[:1], beta, REGISTRY[name])

    # Each (model, pitch) block is written as it is computed, from Python
    # floats, which format faster than numpy's and to the same text.
    ratios = lams.tolist()
    with _text_out(out_path) as write:
        write("model,beta_deg,lambda,cp\n")
        for name in names:
            for label, beta in pitches.items():
                cps = cp_general_array(lams, beta, REGISTRY[name])
                write("".join(f"{name},{label},{l:.6g},{c:.6g}\n"
                              for l, c in zip(ratios, cps.tolist())))


@main.command()
@click.option("--input-dir", type=click.Path(exists=True, file_okay=False),
              required=True,
              help="Directory of paired curve CSVs and spec JSONs.")
@click.option("--ti-grid", default=",".join(map(ti_text, DEFAULT_TI_GRID)),
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
    grid = [float(t) for t in ti_grid.split(",")]
    check_settings(grid, rho, cp_model)
    _refuse_clashes([("--out-json", json_path), ("--out-csv", csv_path)],
                    [("--input-dir", p) for pair in _curve_pairs(input_dir) for p in pair])
    results = validate_directory(input_dir, grid, rho=rho, cp_model=cp_model)
    with open_output(json_path) as fh:
        write_report_json(results, fh)
    with open_output(csv_path) as fh:
        write_summary_csv(results, fh)
    for r in results:
        click.echo(f"{r.name}: best_ti={ti_text(r.best_ti)} rmse={r.rmse_best:.4g}"
                   f"{' BETZ' if r.betz_violation else ''}"
                   f"{' SHAPE' if r.shape_anomaly else ''}")
    click.echo(f"wrote {json_path} and {csv_path}")


if __name__ == "__main__":
    main()
