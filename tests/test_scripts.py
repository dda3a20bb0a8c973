"""Smoke tests of the experiment scripts at tiny sizes."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from squarepack.observables import autocorrelation_curve
from squarepack.sampler import Chain, ChainParams

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("sweeps, thinning, measurements", [(20, 5, 4), (5, 10, 1)])
def test_columnar_order_experiment_main(sweeps, thinning, measurements, tmp_path, capsys):
    script = load_script("columnar_order_experiment")
    out = tmp_path / "columnar.json"
    argv = ["--size", "8", "--sweeps", str(sweeps), "--thinning", str(thinning)]
    assert script.main(argv + ["--burn-in", "10", "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert json.loads(out.read_text()) == report
    assert report["spec"]["sweeps"] == sweeps
    fractions = report["phase_fractions"].values()
    assert sum(fractions) == pytest.approx(1.0)
    assert all(f * measurements == pytest.approx(round(f * measurements)) for f in fractions)
    for key in ("even_x", "odd_x"):
        assert 0 <= report[key]["mean"] <= 1
        assert (report[key]["stderr"] is None) == (measurements == 1)


def test_anisotropy_measure_xi_y_8x16():
    script = load_script("anisotropy_sweep")
    lam, seed, sweeps, thinning, burn_in, lag_max = 25.0, 3, 60, 5, 20, 8
    xi, err, curve = script.measure_xi_y(lam, 8, 16, seed, sweeps, thinning, burn_in, lag_max)
    assert sorted(curve) == [2, 4, 6]
    assert not math.isnan(xi)
    # the samples are those of a hand-written burn-in and thinning loop
    chain = Chain(
        ChainParams(
            width=8,
            height=16,
            lam=lam,
            seed=seed,
            sweeps=0,
            translation_move_fraction=0.1,
            initial="ver0",
        )
    )
    chain.sweep(burn_in)
    samples = [chain.sweep(thinning).configuration() for _ in range(sweeps // thinning)]
    assert curve == autocorrelation_curve(samples, "y", [2, 4, 6])
