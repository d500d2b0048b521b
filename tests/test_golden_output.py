"""Byte-identity guard for the CLI outputs.

The digests below are the sha256 of the CSVs and sidecars that ``generate``
and ``sweep`` wrote before the scalar/array formula pairs were merged into
single implementations, except the three turbulent generate cases, taken
again when the turbulence kernel began to decide its +-5 sigma edge exactly
in grid steps (rows whose edge lies on a grid point moved by up to 1e-4 kW).
The sidecar digests were taken again when ``n_bands`` and ``env_order`` left
the run record: each is the earlier sidecar with those two keys deleted,
re-serialised with ``json.dumps(..., indent=2) + "\n"``.
Any change to the bytes of these files, however small, fails here;
refactors of the numeric core must keep them.  A change that moves a digest
bumps ``__version__``, the ``model_version`` every sidecar records, and adds
the new tables' hash under it to TABLE_DIGESTS.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from windcurve import __version__
from windcurve.cli import main

MANDATORY = ["--diameter", "80", "--rated-power", "2000"]

# case -> (extra generate flags, sha256 of the CSV, sha256 of the sidecar)
GENERATE_CASES = {
    "defaults": (
        [],
        "c0deab0560bbbe2e0230c4467cb71c46a185188365131a20e7c8bb17ed6745ca",
        "475ddf07e31993f82b70e6d8e718b3cd27c467f5ba6e3c6c29563c5ef860ffc9"),
    "site": (
        ["--hub-height", "90", "--ti", "0.1", "--rho", "1.15",
         "--shear-alpha", "0.2", "--veer-rate", "0.3"],
        "962f043c1400efcbfcb9c8c28d219a19fc59a4a4711ef34aeaeb503d88cc5339",
        "e12b4df92d41aa63a2af94c16ed62589079e52302e6b191ed0fc57804d2e116a"),
    "fine_grid": (
        ["--dv", "0.01", "--ti", "0.05"],
        "ff66059ddcf921d3f54b5c0566a1944b323fdaed5aacd20b095b5daf74bb9821",
        "97fb40c25ac0d819a789538e90c8799f066b68e57ed5edb0fa01893546cdeb58"),
    # Named for the TI-first order and 37 bands it once also set; both are
    # gone, and the CSV digest is that of these flags alone.
    "ti_first_37_bands": (
        ["--hub-height", "70", "--ti", "0.08", "--shear-alpha", "0.14",
         "--veer-rate", "0.25"],
        "2a1650fd64de5c09a78315c9b2c2693142e79fbadd09386e2a67327b79140e30",
        "8e4aef8f5bed1fa46378c51434e54eef91b3c944c7547e2a4258924c09ebdfef"),
}

# case -> (sweep flags, sha256 of the long-format CSV)
SWEEP_CASES = {
    "rotor_diameter": (
        ["--param", "rotor_diameter", "--range", "40", "120", "17"],
        "06304a9e4df90e7b100b16860681fa31253f33a94b05b015e034cc8fa1ecb1a7"),
    "cp_parameterisation": (
        ["--param", "cp_parameterisation", "--values",
         "dai2016,heier2014,slootweg2003,thongam2009,dekooning2013,ochieng2014"],
        "75fe0dd66210e285032f90cfd5b306e1f7912b9bce832af0b43e25e63d1df134"),
    # laminar sheared curves, kappa below 1 (alpha 0.2, every veer) and above 1
    # (alpha 0.4), taken before the shear/veer stage read the curve at kappa * u
    "shear_alpha": (
        ["--param", "shear_alpha", "--values", "0,0.2,0.4"],
        "7c6b1d7a4ffc6858916dbec080f2029ada2ab8eebf6d7d257e22212e3b0e846c"),
    "veer_rate": (
        ["--param", "veer_rate", "--values", "0,0.3,0.75"],
        "962d0aa2c2a78d5a52e2486557a3dd34cc497bf291aae7f9c29c9e42ea65c84f"),
}


# version -> sha256 of the JSON of [GENERATE_CASES, SWEEP_CASES] at that version
TABLE_DIGESTS = {
    "0.1.0": "25c96ca497560eec3fe3b9e217026f5371d958f4f691c15053372c92dd426666",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_digest_tables_belong_to_this_version():
    # a digest taken again under the same version fails here
    tables = json.dumps([GENERATE_CASES, SWEEP_CASES], sort_keys=True).encode()
    assert TABLE_DIGESTS.get(__version__) == hashlib.sha256(tables).hexdigest()


@pytest.mark.parametrize("case", sorted(GENERATE_CASES))
def test_generate_bytes_unchanged(case, tmp_path):
    flags, csv_digest, sidecar_digest = GENERATE_CASES[case]
    out = tmp_path / f"{case}.csv"
    result = CliRunner().invoke(main, ["generate", *MANDATORY, *flags,
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert _sha256(out) == csv_digest
    assert _sha256(out.with_suffix(".json")) == sidecar_digest


@pytest.mark.parametrize("case", sorted(GENERATE_CASES))
def test_sidecar_of_the_earlier_format(case, tmp_path):
    # sidecars written while the band count and the stage order were run
    # settings hold them at their defaults: such a file is refused naming both
    # keys, and with the two keys deleted it replays the same CSV bytes
    flags, csv_digest, _ = GENERATE_CASES[case]
    out = tmp_path / "new.csv"
    assert CliRunner().invoke(main, ["generate", *MANDATORY, *flags,
                                     "--out", str(out)]).exit_code == 0
    record = json.loads(out.with_suffix(".json").read_text())
    earlier = tmp_path / "earlier.json"
    earlier.write_text(json.dumps({**record, "config": {
        **record["config"], "n_bands": 100, "env_order": "shear_veer,ti"}}, indent=2) + "\n")
    replay = tmp_path / "replay.csv"
    result = CliRunner().invoke(main, ["generate", "--config", str(earlier),
                                       "--out", str(replay)])
    assert result.exit_code == 2
    assert result.stderr == (f"error: ValueError: {earlier}: unknown config keys: "
                             "env_order, n_bands\n")
    assert not replay.exists()
    earlier.write_text(json.dumps(record, indent=2) + "\n")
    result = CliRunner().invoke(main, ["generate", "--config", str(earlier),
                                       "--out", str(replay)])
    assert result.exit_code == 0, result.output
    assert _sha256(replay) == csv_digest


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_bytes_unchanged(case, tmp_path):
    flags, csv_digest = SWEEP_CASES[case]
    out = tmp_path / f"{case}.csv"
    result = CliRunner().invoke(main, ["sweep", *flags, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert _sha256(out) == csv_digest
