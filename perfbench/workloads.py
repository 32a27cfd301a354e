"""Workload generators and output checks for the pdmicro benchmark.

Each workload is a stream of `pdmicro` jobs: one subcommand plus a config
text drawn from the workload seed. The program sees only that text. The
generator does not import pdmicro, so a change to the program cannot change
the inputs; the field scale it needs is computed here from CODATA 2018.

Each check reads a finished job's artifacts and raises CheckFailed if they
are wrong. The checks use the acceptance criteria's bounds:

- map: PGM header and shape, and profile flux within criterion 4's 5e-3.
- einstein: slope and E0 within criterion 8's noisy bounds (5e-3, 2e-3).
- semiclassical: finite rows, and exact and semiclassical maxima equal in
  number and aligned within criterion 6's 2% of the fringe spacing.
"""

from __future__ import annotations

import hashlib
import os
import random

import numpy as np

FIELD_V_PER_M = 400.0
DISTANCE_M = 0.5
BINDING_EV = 1.4612
MAP_GRID_N = 512
EINSTEIN_POINTS = 8
EINSTEIN_SAMPLES = 600
SEMICLASSICAL_SAMPLES = 800

FLUX_TOL = 5e-3            # criterion 4
SLOPE_TOL = 5e-3           # criterion 8, 1% noise
E0_REL_TOL = 2e-3          # criterion 8, 1% noise
ALIGN_FRAC = 0.02          # criterion 6: share of the fringe spacing
SEMICLASSICAL_WINDOW = 0.8 # criterion 6 compares maxima up to 0.8 rho_max

# CODATA 2018, for the field energy scale eps_F = (hbar^2 (eF)^2 / 2m)^(1/3).
_HBAR = 1.054571817e-34
_M_E = 9.1093837015e-31
_E_CHARGE = 1.602176634e-19

SUBCOMMANDS = {
    "map": "map",
    "einstein": "fit-einstein",
    "semiclassical": "compare-semiclassical",
}


class CheckFailed(Exception):
    """A job's artifacts do not meet the workload's output check."""


def eps_f_ev(field_v_per_m: float = FIELD_V_PER_M) -> float:
    force = _E_CHARGE * field_v_per_m
    return (_HBAR**2 * force**2 / (2.0 * _M_E)) ** (1.0 / 3.0) / _E_CHARGE


def _stratified(rng: random.Random, lo: float, hi: float, strata: int = 10):
    """Endless energies uniform in [lo, hi), stratified over blocks of jobs.

    Each block of `strata` draws takes one value from each equal slice, in
    random order. Job time depends on the energy, so this keeps the energy
    mix, and with it the job-time medians, the same from seed to seed.
    """
    width = (hi - lo) / strata
    while True:
        for k in reversed(rng.sample(range(strata), strata)):
            yield lo + (k + rng.random()) * width


def _map_config(rng: random.Random, energies, index: int) -> str:
    return (f"field_V_per_m = {FIELD_V_PER_M!r}\n"
            f"distance_m = {DISTANCE_M!r}\n"
            f"energy_ueV = {next(energies)!r}\n"
            f"source_kind = {'s' if index % 2 == 0 else 'pz'}\n"
            f"grid_n = {MAP_GRID_N}\n")


def _einstein_config(rng: random.Random, energies, index: int) -> str:
    eps = eps_f_ev()
    photons = [BINDING_EV + rng.uniform(2.0, 20.0) * eps for _ in range(EINSTEIN_POINTS)]
    return (f"field_V_per_m = {FIELD_V_PER_M!r}\n"
            f"distance_m = {DISTANCE_M!r}\n"
            f"photon_eV = {', '.join(repr(h) for h in photons)}\n"
            f"binding_eV = {BINDING_EV!r}\n"
            f"noise_percent = 1.0\n"
            f"seed = {rng.randrange(2**31)}\n"
            f"profile_samples = {EINSTEIN_SAMPLES}\n")


def _semiclassical_config(rng: random.Random, energies, index: int) -> str:
    return (f"field_V_per_m = {FIELD_V_PER_M!r}\n"
            f"distance_m = {DISTANCE_M!r}\n"
            f"energy_ueV = {next(energies)!r}\n"
            f"source_kind = s\n"
            f"profile_samples = {SEMICLASSICAL_SAMPLES}\n")


_GENERATORS = {
    "map": _map_config,
    "einstein": _einstein_config,
    "semiclassical": _semiclassical_config,
}

WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int, n_jobs: int, workers: int) -> list[str]:
    """The first n_jobs config texts of the workload's stream for `seed`.

    The stream depends only on (workload, seed); `workers` is appended to
    every config and does not change the drawn values.
    """
    rng = random.Random(f"pdmicro-bench:{workload}:{seed}")
    energies = _stratified(rng, 100.0, 400.0)
    gen = _GENERATORS[workload]
    return [gen(rng, energies, i) + f"workers = {workers}\n" for i in range(n_jobs)]


def digest(configs) -> str:
    h = hashlib.sha256()
    for text in configs:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Output checks. Each returns a dict of check values recorded with the result.


def _read_csv(path):
    """(metadata dict, header, rows as float array) of a pdmicro CSV."""
    meta, header, rows = {}, None, []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                if sep:
                    meta[key.strip()] = value.strip()
            elif header is None:
                header = line
            elif line:
                rows.append([float(v) for v in line.split(",")])
    return meta, header, np.array(rows, dtype=np.float64)


def _check_pgm(path, n):
    with open(path, "rb") as f:
        blob = f.read()
    head = f"P5\n{n} {n}\n65535\n".encode("ascii")
    if not blob.startswith(head):
        raise CheckFailed(f"bad PGM header {blob[:24]!r}, want {head!r}")
    levels = np.frombuffer(blob[len(head):], dtype=">u2")
    if levels.size != n * n:
        raise CheckFailed(f"PGM holds {levels.size} pixels, want {n * n}")
    if int(levels.max()) != 65535:
        raise CheckFailed(f"PGM peak level {int(levels.max())}, want 65535 (normalized map)")


def check_map(prefix: str) -> dict:
    from pdmicro import cli, detector
    from pdmicro.exceptions import PdmicroError

    _check_pgm(prefix + "_map.pgm", MAP_GRID_N)
    try:
        profile = cli.load_profile_csv(prefix + "_profile.csv")
        flux = detector.total_flux(profile)
    except (ValueError, PdmicroError) as exc:
        raise CheckFailed(f"profile unreadable: {exc}") from None
    if not abs(flux - 1.0) <= FLUX_TOL:
        raise CheckFailed(f"profile flux {flux!r} not within {FLUX_TOL} of 1")
    return {"flux_err": abs(flux - 1.0)}


def check_einstein(prefix: str) -> dict:
    meta, header, rows = _read_csv(prefix + "_einstein.csv")
    if header != "hnu_eV,E_true_eV,E_fit_eV,residual" or rows.shape != (EINSTEIN_POINTS, 4):
        raise CheckFailed(f"einstein CSV has header {header!r} and shape {rows.shape}")
    try:
        slope = float(meta["slope"])
        e0 = float(meta["E0_recovered_eV"])
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"einstein CSV metadata: {exc!r}") from None
    slope_err = abs(slope - 1.0)
    e0_rel_err = abs(e0 - BINDING_EV) / BINDING_EV
    if not (slope_err <= SLOPE_TOL and e0_rel_err <= E0_REL_TOL):
        raise CheckFailed(f"|slope-1| = {slope_err:.3e} (<= {SLOPE_TOL}), "
                          f"E0 rel err = {e0_rel_err:.3e} (<= {E0_REL_TOL})")
    return {"slope_err": slope_err, "e0_rel_err": e0_rel_err}


def _refined_maxima(rho, j):
    """Interior local maxima, placed by a parabola through three samples.

    Sub-sample placement matters: at 400 ueV 2% of the fringe spacing is
    smaller than the grid step, so whole-sample positions would measure the
    grid, not the semiclassical phase.
    """
    i = np.nonzero((j[1:-1] > j[:-2]) & (j[1:-1] > j[2:]))[0] + 1
    curv = j[i - 1] - 2.0 * j[i] + j[i + 1]
    return rho[i] + 0.5 * (rho[1] - rho[0]) * (j[i - 1] - j[i + 1]) / curv


def check_semiclassical(prefix: str) -> dict:
    meta, header, rows = _read_csv(prefix + "_compare.csv")
    if header != "rho_m,j_exact,j_semi,rel_err" or rows.shape != (SEMICLASSICAL_SAMPLES, 4):
        raise CheckFailed(f"compare CSV has header {header!r} and shape {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise CheckFailed("compare CSV has non-finite values")
    try:
        rmax = float(meta["rho_max_m"])
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"compare CSV metadata: {exc!r}") from None
    rho = rows[:, 0]
    m_ex = _refined_maxima(rho, rows[:, 1])
    m_sc = _refined_maxima(rho, rows[:, 2])
    cut = SEMICLASSICAL_WINDOW * rmax
    inner = m_ex[m_ex <= cut]
    spacing = float(np.diff(inner).mean()) if len(inner) > 1 else 0.0
    # The axis is a caustic of the cylindrical pattern, where the two-path
    # sum fails, so maxima within half a fringe of the profile start are
    # left out.
    keep = np.nonzero((m_ex >= rho[0] + 0.5 * spacing) & (m_ex <= cut))[0]
    if len(keep) < 2:
        raise CheckFailed(f"{len(keep)} exact maxima to compare inside {SEMICLASSICAL_WINDOW} rho_max")
    # Window edges sit halfway between exact maxima, so a maximum cannot
    # fall inside for one curve and outside for the other.
    a, b = keep[0], keep[-1]
    lo = 0.5 * (m_ex[a - 1] + m_ex[a]) if a > 0 else 1.5 * m_ex[a] - 0.5 * m_ex[a + 1]
    hi = 0.5 * (m_ex[b] + m_ex[b + 1]) if b + 1 < len(m_ex) else 1.5 * m_ex[b] - 0.5 * m_ex[b - 1]
    w_ex = m_ex[(m_ex >= lo) & (m_ex <= hi)]
    w_sc = m_sc[(m_sc >= lo) & (m_sc <= hi)]
    if len(w_ex) != len(w_sc):
        raise CheckFailed(f"{len(w_ex)} exact vs {len(w_sc)} semiclassical maxima")
    align = float(np.max(np.abs(w_ex - w_sc))) / spacing
    if not align <= ALIGN_FRAC:
        raise CheckFailed(f"maxima misaligned by {align:.3e} of the spacing (<= {ALIGN_FRAC})")
    return {"align_frac": align}


CHECKS = {
    "map": check_map,
    "einstein": check_einstein,
    "semiclassical": check_semiclassical,
}


def output_prefix(job_dir: str) -> str:
    prefix = os.path.join(job_dir, "out")
    if "#" in prefix or "\n" in prefix:
        raise ValueError(f"job directory {job_dir!r} cannot appear in a config value")
    return prefix
