"""Golden values: today's outputs pinned, so a rewrite of a numerical layer
shows how far it moves them.

Most values in data/golden.json were recorded with the Airy evaluator built
from a 44-term Maclaurin series and two Taylor ladders at spacing 0.5, before
the node table replaced them. Each family has its own tolerance,
set from the accuracy of that evaluator rather than from the drift measured
against it. The two fit families were recorded when extract_energy started
from the Airy zeros of the fringe maxima: a different start moves a fit
within the model's rounding floor (~1e-10), so they are re-recorded when the
start changes, and the noiseless fits must also stay within 1e-9 of the
truth (criterion 8's pipeline bound). E_fit_seeded pins a 1%-noise sweep,
one noise stream per point.

Re-record (only when an output is meant to change, and say so), all
families or the named ones:

    PYTHONPATH=src python tests/test_golden.py [family ...]
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from pdmicro import classical, detector, green, specfun, spectro, units
from pdmicro.green import SourceKind, SourceModel, SpacePoint

GOLDEN = Path(__file__).parent / "data" / "golden.json"

FIELD = 400.0
D = 0.5
PROFILE_UEV = (100.0, 237.3, 400.0)
PROFILE_SAMPLES = 600
PROFILE_STRIDE = 20
GREEN_UEV = 200.0
# (label, rho, z) in m, source at the origin; zeta = E/F = 5e-7 m at 200 ueV,
# so z = +1.5 um lies in the classically forbidden region above the source.
GREEN_POINTS = (
    ("nm", 3e-9, -4e-9),
    ("um", 2e-6, -5e-6),
    ("m", 4e-4, -0.5),
    ("tunnelling", 1e-7, 1.5e-6),
)
# (d in m, E / eps_F, rho / rho_max)
SEMI_POINTS = ((0.5, 10.0, 0.2), (0.5, 40.0, 0.6), (1e-5, 10.0, 0.4), (1e-5, 40.0, 0.9))

AIRY_NAMES = ("ai", "aip", "bi", "bip")

TOL_AIRY = 2e-13
TOL_PROFILE = 1e-13
TOL_GREEN = 1e-13
TOL_FIT = 1e-12
TOL_FIT_TRUTH = 1e-9
SEED = 42
NOISE_PERCENT = 1.0
BINDING_EV = 1.4612
TOL_SEMI = 1e-12


def _scales():
    return units.make_scales(FIELD)


def _airy_grid():
    # step 0.6: most points fall between the nodes of any 1/16 or 1/2 grid
    return np.linspace(-30.0, 30.0, 101)


def _profile(kind, ueV):
    scales = _scales()
    E = units.convert_energy(ueV, "ueV", "J")
    plane = detector.DetectorPlane(d=D, extent=1.25 * classical.rho_max(E, scales, D), n=16)
    return detector.radial_profile(E, SourceModel(kind, 1.0), scales, plane, PROFILE_SAMPLES)


def _c(z):
    return [z.real, z.imag]


def compute():
    """Every golden family, as JSON-ready lists."""
    scales = _scales()
    out = {"airy_scaled": {"x": _airy_grid().tolist()}}
    for name, col in zip(AIRY_NAMES, specfun.airy_scaled(_airy_grid())):
        out["airy_scaled"][name] = col.tolist()

    out["radial_profile"] = {
        f"{kind.name}@{ueV}": _profile(kind, ueV).j[::PROFILE_STRIDE].tolist()
        for kind in (SourceKind.S_WAVE, SourceKind.PZ_DIPOLE) for ueV in PROFILE_UEV
    }

    E = units.convert_energy(GREEN_UEV, "ueV", "J")
    out["green_energy"] = {}
    for label, rho, z in GREEN_POINTS:
        g = green.green_energy(SpacePoint(rho, z), SpacePoint(0.0, 0.0), E, scales)
        out["green_energy"][label] = {"value": _c(g.value), "grad_z": _c(g.grad_z),
                                      "grad_rho": _c(g.grad_rho)}

    out["E_fit"] = {}
    for ueV in PROFILE_UEV:
        E_fit, _ = spectro.extract_energy(_profile(SourceKind.S_WAVE, ueV), scales, D)
        out["E_fit"][str(ueV)] = E_fit

    E0 = BINDING_EV * units.EV
    e_true = [units.convert_energy(ueV, "ueV", "J") for ueV in PROFILE_UEV]
    plane = detector.DetectorPlane(d=D, extent=1.25 * classical.rho_max(max(e_true), scales, D),
                                   n=16)
    pts = spectro.run_sweep([E0 + e for e in e_true], E0, SourceModel(SourceKind.S_WAVE, 1.0),
                            scales, plane, n_samples=PROFILE_SAMPLES,
                            noise_percent=NOISE_PERCENT, seed=SEED)
    out["E_fit_seeded"] = {str(ueV): p.E_fit for ueV, p in zip(PROFILE_UEV, pts)}

    out["semiclassical_wave"] = []
    for d, u, frac in SEMI_POINTS:
        E = u * scales.energy_epsF
        p = SpacePoint(frac * classical.rho_max(E, scales, d), -d)
        out["semiclassical_wave"].append(_c(classical.semiclassical_wave(p, E, scales)))
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def current():
    return compute()


def _cplx(pair):
    return complex(pair[0], pair[1])


def test_airy_scaled(golden, current):
    ref, got = golden["airy_scaled"], current["airy_scaled"]
    x = np.array(ref["x"])
    assert np.array_equal(x, _airy_grid())
    for a, b in (("ai", "bi"), ("aip", "bip")):
        envelope = np.hypot(ref[a], ref[b])
        for name in (a, b):
            r = np.array(ref[name])
            # envelope-relative on x < 0, where Ai and Bi have zeros; relative on x >= 0
            scale = np.where(x < 0.0, envelope, np.abs(r))
            assert np.max(np.abs(np.array(got[name]) - r) / scale) <= TOL_AIRY, name


def test_radial_profile(golden, current):
    assert golden["radial_profile"].keys() == current["radial_profile"].keys()
    for key, ref in golden["radial_profile"].items():
        ref = np.array(ref)
        err = np.max(np.abs(np.array(current["radial_profile"][key]) - ref))
        assert err <= TOL_PROFILE * np.max(np.abs(ref)), key


def test_green_energy(golden, current):
    for label, _, _ in GREEN_POINTS:
        ref, got = golden["green_energy"][label], current["green_energy"][label]
        value = _cplx(ref["value"])
        assert abs(_cplx(got["value"]) - value) <= TOL_GREEN * abs(value), label
        grad = math.hypot(abs(_cplx(ref["grad_z"])), abs(_cplx(ref["grad_rho"])))
        for name in ("grad_z", "grad_rho"):
            assert abs(_cplx(got[name]) - _cplx(ref[name])) <= TOL_GREEN * grad, (label, name)


def test_noiseless_s_wave_fit(golden, current):
    assert golden["E_fit"].keys() == current["E_fit"].keys()
    for key, ref in golden["E_fit"].items():
        assert abs(current["E_fit"][key] - ref) <= TOL_FIT * ref, key
        truth = units.convert_energy(float(key), "ueV", "J")
        assert abs(current["E_fit"][key] - truth) <= TOL_FIT_TRUTH * truth, key


def test_seeded_noisy_s_wave_sweep(golden, current):
    assert golden["E_fit_seeded"].keys() == current["E_fit_seeded"].keys()
    for key, ref in golden["E_fit_seeded"].items():
        assert abs(current["E_fit_seeded"][key] - ref) <= TOL_FIT * ref, key


def test_semiclassical_wave(golden, current):
    got = current["semiclassical_wave"]
    assert len(got) == len(golden["semiclassical_wave"])
    for g, r in zip(got, golden["semiclassical_wave"]):
        assert abs(_cplx(g) - _cplx(r)) <= TOL_SEMI * abs(_cplx(r))


if __name__ == "__main__":
    fresh = compute()
    names = sys.argv[1:] or list(fresh)
    unknown = set(names) - set(fresh)
    if unknown:
        sys.exit(f"unknown families: {sorted(unknown)}; known: {list(fresh)}")
    data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    data.update({name: fresh[name] for name in names})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n")
