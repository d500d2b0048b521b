"""Byte-identity guard for the CLI outputs.

The digests below are the sha256 of the CSVs and sidecars that ``generate``
and ``sweep`` wrote before the scalar/array formula pairs were merged into
single implementations.  Any change to the bytes of these files, however
small, fails here; refactors of the numeric core must keep them.
"""

import hashlib

import pytest
from click.testing import CliRunner

from windcurve.cli import main

MANDATORY = ["--diameter", "80", "--rated-power", "2000"]

# case -> (extra generate flags, sha256 of the CSV, sha256 of the sidecar)
GENERATE_CASES = {
    "defaults": (
        [],
        "c0deab0560bbbe2e0230c4467cb71c46a185188365131a20e7c8bb17ed6745ca",
        "704474eeb86d4f35a8f054a64db6124e792553661c74386758d8e82cb25f5780"),
    "site": (
        ["--hub-height", "90", "--ti", "0.1", "--rho", "1.15",
         "--shear-alpha", "0.2", "--veer-rate", "0.3"],
        "746e69ae1c53eb70a1f3dfd5681d7cdf9d5ca59b0fbc236980f4f5bc4ace8b5f",
        "bb989e69540f6debb13db4576c4e1bd81cd618996075a63e476f28dcc567ff3c"),
    "fine_grid": (
        ["--dv", "0.01", "--ti", "0.05"],
        "5a03017462b4b6943ab62402c76aa349d1ce938ca75c99a6b425861781189769",
        "fa0f91cc48964c2ec89df3660219c59e43020c53e8f7de470c12a43fcba21948"),
    "ti_first_37_bands": (
        ["--hub-height", "70", "--ti", "0.08", "--shear-alpha", "0.14",
         "--veer-rate", "0.25", "--env-order", "ti,shear_veer",
         "--n-bands", "37"],
        "4b2e69473f231e433fbc01d77816c7af617a7d4cbbd303e73ae77f9a4418d4e6",
        "cf04d0b5db0a3c0cab1ca437bd439d0889e87686da647ea5f5ad4d3f190d6ff8"),
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
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(GENERATE_CASES))
def test_generate_bytes_unchanged(case, tmp_path):
    flags, csv_digest, sidecar_digest = GENERATE_CASES[case]
    out = tmp_path / f"{case}.csv"
    result = CliRunner().invoke(main, ["generate", *MANDATORY, *flags,
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert _sha256(out) == csv_digest
    assert _sha256(out.with_suffix(".json")) == sidecar_digest


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_bytes_unchanged(case, tmp_path):
    flags, csv_digest = SWEEP_CASES[case]
    out = tmp_path / f"{case}.csv"
    result = CliRunner().invoke(main, ["sweep", *flags, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert _sha256(out) == csv_digest
