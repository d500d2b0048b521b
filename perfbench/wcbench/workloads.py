"""Seeded workloads: op generation, execution on the clock, checks off it.

Each workload is an endless stream of ops cut into blocks of fixed
composition.  Block ``b`` is drawn from numpy's generator seeded with
``(seed, workload, b)``, so a seed fixes the op list however long a run
lasts, and every block carries the same mix.  Continuous inputs (rotor
diameter, turbulence intensity) are stratified within a block so that two
seeds load the program alike.  The program receives only the generated
inputs.
"""

from __future__ import annotations

import io
import json
import math
import os
import resource
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from windcurve import EnvironmentConditions, TurbineSpec, synthesis, validation

from .gate import BETZ_LIMIT, OMEGA_MAX_FIT, OMEGA_MIN_FIT, Case, complete

CP_MODELS = ("slootweg2003", "heier2014", "thongam2009", "dekooning2013",
             "ochieng2014", "dai2016")
TI_GRID = (0.0, 0.025, 0.05, 0.075, 0.10)
DIAMETER_M = (20.0, 170.0)
SPECIFIC_POWER_W_M2 = (250.0, 450.0)
RHO = (1.1, 1.3)
SHEAR_ALPHA = (0.0, 0.4)
VEER_DEG_PER_M = (0.0, 0.75)
HUB_OVER_RADIUS = (1.2, 2.0)
SITE_TI = (0.02, 0.15)
FINE_DV = 0.01
DEFAULT_DV = 0.05

# The sweep reference turbine, as the README documents it.
REFERENCE_TURBINE = dict(name="reference", rotor_diameter=80.0, rated_power=2000.0,
                         cut_in=3.5, cut_out=25.0, omega_min=10.0, omega_max=30.0,
                         cp_max=0.4615)
SWEEP_POINTS = 17
CLI_TIMEOUT_S = 60.0
CLI_FLAGS = {"name": "--name", "rotor_diameter": "--diameter", "rated_power": "--rated-power",
             "cut_in": "--cut-in", "cut_out": "--cut-out", "omega_min": "--omega-min",
             "omega_max": "--omega-max", "cp_max": "--cp-max", "hub_height": "--hub-height"}
WARMUP_BLOCK = 2 ** 32 - 1


@dataclass
class Op:
    index: int
    kind: str
    case: Case | None = None
    argv: tuple = ()
    truth: dict = field(default_factory=dict)
    # Off-clock material for the checks, not part of the op's identity.
    files: dict = field(default_factory=dict, compare=False)
    planted: np.ndarray | None = field(default=None, compare=False, repr=False)


def _strata(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws from [lo, hi], one in each of n equal strata, shuffled."""
    return lo + (rng.permutation(n) + rng.random(n)) / n * (hi - lo)


def _turbine(rng, name: str, d: float, full: bool, hub: bool) -> dict:
    """Catalogue-like record: diameter and rated power, optionally the rest."""
    spec = {"name": name, "rotor_diameter": float(d),
            "rated_power": float(rng.uniform(*SPECIFIC_POWER_W_M2) * math.pi * d * d / 4e3)}
    if full:
        spec.update(cut_in=float(rng.uniform(2.5, 4.0)),
                    cut_out=float(rng.uniform(20.0, 30.0)),
                    omega_min=float(OMEGA_MIN_FIT[0] * d ** OMEGA_MIN_FIT[1]
                                    * rng.uniform(0.8, 1.1)),
                    omega_max=float(OMEGA_MAX_FIT[0] * d ** OMEGA_MAX_FIT[1]
                                    * rng.uniform(0.9, 1.2)),
                    cp_max=float(rng.uniform(0.38, 0.50)))
    if hub:
        spec["hub_height"] = float(d / 2.0 * rng.uniform(*HUB_OVER_RADIUS))
    return spec


def _site(rng, sheared: bool) -> dict:
    site = {"rho": float(rng.uniform(*RHO))}
    if sheared:
        site.update(shear_alpha=float(rng.uniform(*SHEAR_ALPHA)),
                    veer_rate=float(rng.uniform(*VEER_DEG_PER_M)))
    return site


def curve_bytes(curve) -> bytes:
    buf = io.StringIO()
    curve.write_csv(buf)
    return buf.getvalue().encode()


def _synthesize(case: Case):
    """The program's synthesis entry point, looked up at call time."""
    curve, _ = synthesis.synthesize(
        TurbineSpec(**case.spec),
        EnvironmentConditions(ti=case.ti, rho=case.rho, shear_alpha=case.shear_alpha,
                              veer_rate=case.veer_rate),
        cp_model=case.cp_model, dv=case.dv)
    return curve


class Workload:
    name = ""
    why = ""
    params: dict = {}
    block_size = 0
    stream_id = 0

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed
        self.workdir = workdir
        self.root = root
        workdir.mkdir(parents=True, exist_ok=True)

    def _rng(self, b: int):
        return np.random.default_rng([self.seed, self.stream_id, b])

    def block(self, b: int) -> list[Op]:
        return self._block(self._rng(b), b, b * self.block_size)

    def warmup(self) -> Op:
        """One op from a stream of its own, so no measured op repeats it."""
        return self._block(self._rng(WARMUP_BLOCK), -1, -self.block_size)[0]

    def _block(self, rng, b: int, first: int) -> list[Op]:
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out, gate) -> list[str]:
        raise NotImplementedError

    def digest(self, op: Op, out) -> bytes:
        """The op's output as bytes, to compare a traced run with an untraced one."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Synthesis(Workload):
    def execute(self, op: Op):
        return _synthesize(op.case)

    def check(self, op: Op, out, gate) -> list[str]:
        return gate.curve_problems(op.case, out.wind_grid, out.power)

    def digest(self, op: Op, out) -> bytes:
        return out.wind_grid.tobytes() + out.power.tobytes()


class FleetLaminar(_Synthesis):
    name = "fleet_laminar"
    why = ("TI=0 fleet synthesis: lambda_opt, ideal_curve and shear/veer do the work; "
           "apply_turbulence is bypassed by its TI=0 early return")
    stream_id = 1
    block_size = 24
    params = {"ops_per_block": 24,
              "block_mix": "full factorial of 6 cp sets x full/minimal spec x with/without shear+veer",
              "rotor_diameter_m": DIAMETER_M, "rotor_diameter_draw": "stratified per block",
              "specific_power_w_m2": SPECIFIC_POWER_W_M2, "rho": RHO,
              "shear_alpha": SHEAR_ALPHA, "veer_deg_per_m": VEER_DEG_PER_M,
              "hub_over_radius": HUB_OVER_RADIUS, "ti": 0.0, "dv": DEFAULT_DV}

    def _block(self, rng, b, first):
        mix = [(cp, full, sheared) for cp in CP_MODELS
               for full in (True, False) for sheared in (True, False)]
        diameters = _strata(rng, len(mix), *DIAMETER_M)
        ops = []
        for k, j in enumerate(rng.permutation(len(mix))):
            cp, full, sheared = mix[j]
            spec = _turbine(rng, f"fl{first + k}", diameters[k], full, sheared)
            ops.append(Op(first + k, "synthesize",
                          Case(spec, cp, ti=0.0, dv=DEFAULT_DV, **_site(rng, sheared))))
        return ops


class SiteTurbulent(_Synthesis):
    name = "site_turbulent"
    why = ("TI 0.02-0.15 on every op, every fifth on the fine 0.01 m/s grid: "
           "apply_turbulence dominates; p50 sits in the default-grid class, p90 in the fine one")
    stream_id = 2
    block_size = 20
    params = {"ops_per_block": 20, "fine_grid_every": 5, "dv": DEFAULT_DV,
              "fine_dv": FINE_DV, "ti": SITE_TI, "ti_draw": "stratified per grid class",
              "full_spec_share": 0.5, "sheared_share": 0.5,
              "cp_sets": "all six in rotation", "rotor_diameter_m": DIAMETER_M,
              "specific_power_w_m2": SPECIFIC_POWER_W_M2, "rho": RHO,
              "shear_alpha": SHEAR_ALPHA, "veer_deg_per_m": VEER_DEG_PER_M,
              "hub_over_radius": HUB_OVER_RADIUS}

    def _block(self, rng, b, first):
        n = self.block_size
        fine = [k % 5 == 4 for k in range(n)]
        ti_default = iter(_strata(rng, fine.count(False), *SITE_TI))
        ti_fine = iter(_strata(rng, fine.count(True), *SITE_TI))
        diameters = _strata(rng, n, *DIAMETER_M)
        full = rng.permutation([k % 2 == 0 for k in range(n)])
        sheared = rng.permutation([k % 2 == 1 for k in range(n)])
        ops = []
        for k in range(n):
            spec = _turbine(rng, f"st{first + k}", diameters[k], bool(full[k]), bool(sheared[k]))
            ti = float(next(ti_fine) if fine[k] else next(ti_default))
            ops.append(Op(first + k, "synthesize",
                          Case(spec, CP_MODELS[(first + k) % 6], ti=ti,
                               dv=FINE_DV if fine[k] else DEFAULT_DV,
                               **_site(rng, bool(sheared[k])))))
        return ops


class ValidateFleet(Workload):
    name = "validate_fleet"
    why = ("from_files + match_over_ti over 5 TIs on planted curves: one spec re-synthesized "
           "5x with only TI changing, plus the CSV read path; hoisting or caching shows here")
    stream_id = 3
    block_size = 10
    params = {"ops_per_block": 10, "ti_grid": TI_GRID,
              "planted": "each grid TI twice per block; 6 clean, 2 scaled past Betz, "
                         "2 zeroed over 0.6-0.9 x cut-out",
              "samples": "every 0.25 m/s from 0 to 30 m/s, 6 significant digits",
              "full_spec_share": 0.5, "cp_sets": "all six in rotation", "rho": 1.225,
              "rotor_diameter_m": DIAMETER_M, "specific_power_w_m2": SPECIFIC_POWER_W_M2}

    def _block(self, rng, b, first):
        n = self.block_size
        tis = rng.permutation([TI_GRID[k % len(TI_GRID)] for k in range(n)])
        kinds = rng.permutation(["clean"] * 6 + ["betz"] * 2 + ["shape"] * 2)
        full = rng.permutation([k % 2 == 0 for k in range(n)])
        diameters = _strata(rng, n, *DIAMETER_M)
        ops = []
        for k in range(n):
            spec = _turbine(rng, f"vf{first + k}", diameters[k], bool(full[k]), False)
            case = Case(spec, CP_MODELS[(first + k) % 6], ti=float(tis[k]))
            ops.append(self._plant(Op(first + k, "validate", case), str(kinds[k]), str(k)))
        return ops

    def warmup(self) -> Op:
        rng = self._rng(WARMUP_BLOCK)
        spec = _turbine(rng, "vf-warmup", float(rng.uniform(*DIAMETER_M)), True, False)
        return self._plant(Op(-1, "validate", Case(spec, CP_MODELS[0], ti=TI_GRID[2])),
                           "clean", "warmup")

    def _plant(self, op: Op, kind: str, slot: str) -> Op:
        """Write the op's measured curve and spec from a known truth."""
        case = op.case
        curve = _synthesize(case)
        idx = np.arange(0, int(round(30.0 / case.dv)) + 1, int(round(0.25 / case.dv)))
        wind, power = curve.wind_grid[idx], curve.power[idx].copy()
        d = case.spec["rotor_diameter"]
        if kind == "betz":
            power *= 1.3 * BETZ_LIMIT / _cp_extracted(wind, power, d)
        elif kind == "shape":
            cut_out = complete(case.spec).cut_out
            power[(wind >= 0.6 * cut_out) & (wind <= 0.9 * cut_out)] = 0.0
        rows = [f"{v:.6g},{p:.6g}" for v, p in zip(wind, power)]
        csv_path = self.workdir / f"m{slot}.csv"
        json_path = self.workdir / f"m{slot}.json"
        csv_path.write_text("wind_speed_ms,power_kw\n" + "\n".join(rows) + "\n")
        json_path.write_text(json.dumps(case.spec))
        written = np.array([[float(x) for x in r.split(",")] for r in rows])
        op.truth = {"kind": kind,
                    "betz": bool(_cp_extracted(written[:, 0], written[:, 1], d) > BETZ_LIMIT)}
        if kind == "clean":
            op.truth.update(best_ti=case.ti, shape=False)
        elif kind == "shape":
            op.truth["shape"] = True
        op.files = {"csv": csv_path, "json": json_path}
        op.planted = curve.power
        return op

    def execute(self, op: Op):
        m = validation.MeasuredCurve.from_files(op.files["csv"], op.files["json"])
        return validation.match_over_ti(m, TI_GRID, cp_model=op.case.cp_model)

    def check(self, op: Op, out, gate) -> list[str]:
        problems = [f"planted curve: {p}" for p in
                    gate.curve_problems(op.case, np.linspace(0.0, 40.0, len(op.planted)),
                                        op.planted)]
        got = {"betz": out.betz_violation, "shape": out.shape_anomaly, "best_ti": out.best_ti}
        for key, want in op.truth.items():
            if key != "kind" and got[key] != want:
                problems.append(f"{op.truth['kind']} curve: {key} is {got[key]!r}, planted {want!r}")
        return problems

    def digest(self, op: Op, out) -> bytes:
        return json.dumps(out.to_dict(), sort_keys=True).encode()


def _cp_extracted(wind, power, d) -> float:
    """Largest power coefficient the samples imply at the matcher's 1.225 kg/m^3."""
    area = math.pi * d * d / 4.0
    producing = wind > 0
    return float(np.max(power[producing] * 1000.0
                        / (0.5 * 1.225 * area * wind[producing] ** 3)))


def _flag(value: float) -> str:
    return repr(float(value))


class CliBatch(Workload):
    name = "cli_batch"
    why = ("windcurve CLI as subprocesses: generate with site flags, sidecar replay, "
           "17-point rotor_diameter sweep; the only workload timing import, config and CSV writing")
    stream_id = 4
    block_size = 3
    params = {"ops_per_block": 3, "block_mix": "generate, generate --config replay, sweep",
              "invocation": "python -m windcurve.cli with PYTHONPATH=src",
              "generate": "site flags: hub height, ti, rho, shear, veer, cp model; "
                          "full spec on even blocks",
              "ti": SITE_TI, "rho": RHO, "shear_alpha": SHEAR_ALPHA,
              "veer_deg_per_m": VEER_DEG_PER_M, "rotor_diameter_m": DIAMETER_M,
              "sweep": f"rotor_diameter over {SWEEP_POINTS} values from [40, 70] to [90, 120]",
              "sweep_rho": (1.15, 1.3)}

    def __init__(self, seed, workdir, root, in_process: bool = False):
        super().__init__(seed, workdir, root)
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.max_child_rss_kb = 0
        if in_process:
            from windcurve import cli
            self.cli = cli

    def _block(self, rng, b, first):
        w = self.workdir
        d = float(rng.uniform(*DIAMETER_M))
        spec = _turbine(rng, f"cb{first}", d, b % 2 == 0, True)
        case = Case(spec, CP_MODELS[b % 6], ti=float(rng.uniform(*SITE_TI)), **_site(rng, True))
        argv = ["generate"]
        for key, value in spec.items():
            argv += [CLI_FLAGS[key], value if key == "name" else _flag(value)]
        argv += ["--ti", _flag(case.ti), "--rho", _flag(case.rho),
                 "--shear-alpha", _flag(case.shear_alpha), "--veer-rate", _flag(case.veer_rate),
                 "--cp-model", case.cp_model, "--out", str(w / "gen.csv")]
        lo, hi = float(rng.uniform(40.0, 70.0)), float(rng.uniform(90.0, 120.0))
        rho = float(rng.uniform(1.15, 1.3))
        sweep_model = CP_MODELS[(b + 3) % 6]
        return [
            Op(first, "generate", case, tuple(argv), files={"out": w / "gen.csv"}),
            Op(first + 1, "replay", case,
               ("generate", "--config", str(w / "gen.json"), "--out", str(w / "replay.csv")),
               files={"out": w / "replay.csv", "original": w / "gen.csv"}),
            Op(first + 2, "sweep", None,
               ("sweep", "--param", "rotor_diameter", "--range", _flag(lo), _flag(hi),
                str(SWEEP_POINTS), "--rho", _flag(rho), "--cp-model", sweep_model,
                "--out", str(w / "sweep.csv")),
               truth={"range": (lo, hi), "rho": rho, "cp_model": sweep_model},
               files={"out": w / "sweep.csv"}),
        ]

    def execute(self, op: Op):
        if self.in_process:
            return self._in_process(op.argv)
        proc = subprocess.Popen([sys.executable, "-m", "windcurve.cli", *op.argv],
                                cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4 reaps the child and reports its own peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = proc.stderr.read().decode(errors="replace")
        proc.stdout.close()
        proc.stderr.close()
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        return proc.returncode, stderr

    def _in_process(self, argv):
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            try:
                self.cli.main(list(argv), standalone_mode=False)
            except SystemExit as exc:
                return exc.code, sink.getvalue()
        return 0, sink.getvalue()

    def check(self, op: Op, out, gate) -> list[str]:
        code, stderr = out
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-300:]}"]
        got = op.files["out"].read_bytes()
        if op.kind == "replay":
            if got != op.files["original"].read_bytes():
                return ["sidecar replay differs from the original CSV"]
            return []
        if op.kind == "generate":
            curve = _synthesize(op.case)
            problems = gate.curve_problems(op.case, curve.wind_grid, curve.power)
            if got != curve_bytes(curve):
                problems.append("CSV differs from the library's write_csv")
            return problems
        return self._check_sweep(op, got, gate)

    def _check_sweep(self, op: Op, got: bytes, gate) -> list[str]:
        problems = []
        lines = ["param_value,wind_speed_ms,power_kw"]
        for d in np.linspace(*op.truth["range"], SWEEP_POINTS):
            case = Case(dict(REFERENCE_TURBINE, rotor_diameter=float(d)),
                        op.truth["cp_model"], rho=op.truth["rho"])
            curve = _synthesize(case)
            problems += gate.curve_problems(case, curve.wind_grid, curve.power)
            label = f"{d:.6g}"
            lines += [f"{label},{row}" for row in curve_bytes(curve).decode().splitlines()[1:]]
        if got != ("\n".join(lines) + "\n").encode():
            problems.append("sweep CSV differs from the library's curves")
        return problems

    def digest(self, op: Op, out) -> bytes:
        return repr(out[0]).encode() + op.files["out"].read_bytes()

    def peak_rss_mb(self) -> float:
        """Peak of the CLI processes, the program a user runs in this workload."""
        return self.max_child_rss_kb / 1024.0


WORKLOADS = {w.name: w for w in (FleetLaminar, SiteTurbulent, ValidateFleet, CliBatch)}


def make(name: str, seed: int, workdir: Path, root: Path, **kwargs) -> Workload:
    return WORKLOADS[name](seed, workdir, root, **kwargs)
