"""Command-line interface: config parsing, subcommands, CSV/PGM serialization.

Config files are line-based `key = value` text with `#` comments. Every
artifact written is self-describing: CSV files start with `#` metadata
lines echoing the configuration (minus `workers`, so outputs stay
byte-identical across parallelism levels) and the derived field scales.
Floats are serialized with repr(), the shortest round-trip decimal form.

Exit codes: 0 success, 2 config error or an output that cannot be
written, 3 numerical failure, 4 fit non-convergence. On any error the
outputs already written are removed.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import classical, detector, spectro, units
from .exceptions import (ConfigError, FitConvergenceError, NumericsError, OutputError,
                         PdmicroError)
from .green import SourceKind, SourceModel, _closed_eval

__all__ = ["RunConfig", "parse_config", "run_subcommand", "main", "SUBCOMMANDS"]

SUBCOMMANDS = ("map", "profile", "total-current", "sweep", "fit-einstein",
               "compare-semiclassical")

_KEY_TYPES = {
    "field_V_per_m": float,
    "distance_m": float,
    "energy_ueV": float,
    "photon_eV": "float_list",
    "binding_eV": float,
    "source_kind": str,
    "grid_n": int,
    "grid_extent_m": float,
    "profile_samples": int,
    "seed": int,
    "noise_percent": float,
    "workers": int,
    "output_prefix": str,
}

_POSITIVE_KEYS = ("field_V_per_m", "distance_m", "energy_ueV", "binding_eV",
                  "grid_extent_m")

_REQUIRED = {
    "map": ("field_V_per_m", "distance_m", "energy_ueV"),
    "profile": ("field_V_per_m", "distance_m", "energy_ueV"),
    "total-current": ("field_V_per_m",),
    "sweep": ("field_V_per_m", "distance_m", "photon_eV", "binding_eV"),
    "fit-einstein": ("field_V_per_m", "distance_m", "photon_eV", "binding_eV"),
    "compare-semiclassical": ("field_V_per_m", "distance_m", "energy_ueV"),
}


@dataclass
class RunConfig:
    field_V_per_m: float | None = None
    distance_m: float | None = None
    energy_ueV: float | None = None
    photon_eV: list = field(default_factory=list)
    binding_eV: float | None = None
    source_kind: str = "s"
    grid_n: int = 128
    grid_extent_m: float | None = None
    profile_samples: int = 800
    seed: int = 42
    noise_percent: float = 0.0
    workers: int = 0            # 0 = one per CPU this process may use
    output_prefix: str = "pdmicro"

    def source(self) -> SourceModel:
        kind = {"s": SourceKind.S_WAVE, "pz": SourceKind.PZ_DIPOLE}.get(self.source_kind)
        if kind is None:
            raise ConfigError(f"source_kind must be 's' or 'pz', got {self.source_kind!r}")
        return SourceModel(kind, 1.0)


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines into a RunConfig.

    Unknown keys, bad syntax, type mismatches and non-positive physical
    values raise ConfigError naming the line and key.
    """
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        typ = _KEY_TYPES[key]
        try:
            if typ == "float_list":
                parsed = [float(v) for v in value.split(",") if v.strip()]
                if not parsed:
                    raise ValueError("empty list")
            elif typ is str:
                parsed = value
            else:
                parsed = typ(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: cannot parse {key} value {value!r}") from None
        setattr(cfg, key, parsed)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    for key in _POSITIVE_KEYS:
        v = getattr(cfg, key)
        if v is not None and not (math.isfinite(v) and v > 0.0):
            raise ConfigError(f"{key} must be positive and finite, got {v!r}")
    if cfg.energy_ueV is not None and cfg.photon_eV:
        raise ConfigError("provide exactly one of energy_ueV or photon_eV, not both")
    if any(h <= 0.0 for h in cfg.photon_eV):
        raise ConfigError("photon_eV entries must be positive")
    if cfg.grid_n < 16:
        raise ConfigError("grid_n must be >= 16")
    if cfg.profile_samples < 64:
        raise ConfigError("profile_samples must be >= 64")
    if cfg.noise_percent < 0.0:
        raise ConfigError("noise_percent must be >= 0")
    if cfg.workers < 0:
        raise ConfigError("workers must be >= 0 (0 or omitted: one per usable CPU)")
    if cfg.source_kind not in ("s", "pz"):
        raise ConfigError(f"source_kind must be 's' or 'pz', got {cfg.source_kind!r}")


def _require(cfg: RunConfig, name: str):
    for key in _REQUIRED[name]:
        v = getattr(cfg, key)
        if v is None or (key == "photon_eV" and not v):
            raise ConfigError(f"subcommand {name!r} requires config key {key!r}")


# ---------------------------------------------------------------------------
# Serialization helpers.


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


_ECHO_SKIP = {"workers"}   # excluded so output bytes are parallelism-independent


def _metadata_lines(cfg: RunConfig, scales, extra=()):
    lines = []
    for key in _KEY_TYPES:
        if key in _ECHO_SKIP:
            continue
        v = getattr(cfg, key)
        if v is None or (key == "photon_eV" and not v):
            continue
        if key == "photon_eV":
            v = ",".join(_fmt(h) for h in v)
        lines.append(f"# {key} = {_fmt(v)}")
    lines.append(f"# l_F_m = {_fmt(scales.length_lF)}")
    lines.append(f"# eps_F_J = {_fmt(scales.energy_epsF)}")
    lines.extend(extra)
    return lines


@contextlib.contextmanager
def _output(path, mode, created, **kwargs):
    """Open one artifact for writing, listed in `created` as soon as it exists.

    An OSError while opening or writing it becomes an OutputError.
    """
    try:
        with open(path, mode, **kwargs) as f:
            created.append(path)
            yield f
    except OSError as exc:
        raise OutputError(f"cannot write output: {exc}") from exc


def _write_csv(path, meta, header, rows, created):
    with _output(path, "w", created, encoding="utf-8", newline="\n") as f:
        for line in meta:
            f.write(line + "\n")
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def load_profile_csv(path) -> "detector.RadialProfile":
    """Read a profile CSV (as written by `profile`/`map`) back into a
    RadialProfile, recovering energy, distance and source from the metadata
    lines. External fringe data can be fitted through this entry point as
    long as it follows the same schema.
    """
    meta = {}
    rho, j = [], []
    header_seen = False
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, _, v = body.partition("=")
                    meta[k.strip()] = v.strip()
                continue
            if not header_seen:
                if line != "rho_m,j_norm":
                    raise ConfigError(f"unexpected profile header {line!r}")
                header_seen = True
                continue
            fields = line.split(",")
            if len(fields) != 2:
                raise ConfigError(f"profile CSV line {lineno}: expected 'rho_m,j_norm', "
                                  f"got {line!r}")
            for value, column in zip(fields, (rho, j)):
                try:
                    column.append(float(value))
                except ValueError:
                    raise ConfigError(f"profile CSV line {lineno}: cannot parse "
                                      f"{value.strip()!r} as a number") from None
    try:
        energy = units.convert_energy(float(meta["energy_ueV"]), "ueV", "J")
        d = float(meta["distance_m"])
        field = float(meta["field_V_per_m"])
        kind = {"s": SourceKind.S_WAVE, "pz": SourceKind.PZ_DIPOLE}[meta.get("source_kind", "s")]
    except KeyError as exc:
        raise ConfigError(f"profile CSV missing metadata: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"profile CSV metadata: {exc}") from None
    return detector.RadialProfile(
        rho=np.asarray(rho), j=np.asarray(j), E=energy, d=d,
        source=SourceModel(kind, 1.0), scales=units.make_scales(field),
    )


def _write_pgm(path, img01, created):
    """16-bit big-endian P5; img01 rows ordered bottom-up (y = -extent first)."""
    levels = np.clip(np.rint(img01 * 65535.0), 0, 65535).astype(">u2")
    levels = levels[::-1]    # top row = +extent edge
    with _output(path, "wb", created) as f:
        f.write(f"P5\n{levels.shape[1]} {levels.shape[0]}\n65535\n".encode("ascii"))
        f.write(levels.tobytes())


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_map(fn, items, workers):
    """fn over items, in order; at most one process per item."""
    processes = min(workers, len(items))
    if processes <= 1:
        return [fn(item) for item in items]
    import multiprocessing as mp
    with mp.Pool(processes=processes) as pool:
        return pool.map(fn, items)


def _sweep_worker(args):
    index, hnu, ctx = args
    return spectro._sweep_point(hnu, ctx["E0"], ctx["src"], ctx["scales"], ctx["plane"],
                                ctx["n_samples"], ctx["noise"], ctx["seed"], index)


# ---------------------------------------------------------------------------
# Subcommands.


def _scales_and_source(cfg):
    scales = units.make_scales(cfg.field_V_per_m)
    return scales, cfg.source()


def _energy_J(cfg):
    return units.convert_energy(cfg.energy_ueV, "ueV", "J")


def _run_map(cfg: RunConfig, created):
    scales, src = _scales_and_source(cfg)
    E = _energy_J(cfg)
    rmax = classical.rho_max(E, scales, cfg.distance_m)
    extent = cfg.grid_extent_m if cfg.grid_extent_m is not None else 1.2 * rmax
    plane = detector.DetectorPlane(d=cfg.distance_m, extent=extent, n=cfg.grid_n)

    img = detector.map_plane(E, src, scales, plane).j
    jmax = float(img.max())
    prof = detector.radial_profile(E, src, scales, plane, cfg.profile_samples)
    meta = _metadata_lines(cfg, scales, extra=[
        f"# rho_max_m = {_fmt(rmax)}",
        f"# j_max = {_fmt(jmax)}",
    ])
    _write_csv(cfg.output_prefix + "_profile.csv", meta, "rho_m,j_norm",
               zip(prof.rho, prof.j), created)
    img01 = img / jmax if jmax > 0.0 else img
    _write_pgm(cfg.output_prefix + "_map.pgm", img01, created)


def _run_profile(cfg: RunConfig, created):
    scales, src = _scales_and_source(cfg)
    E = _energy_J(cfg)
    rmax = classical.rho_max(E, scales, cfg.distance_m)
    extent = cfg.grid_extent_m if cfg.grid_extent_m is not None else 1.2 * rmax
    plane = detector.DetectorPlane(d=cfg.distance_m, extent=extent, n=max(cfg.grid_n, 16))
    prof = detector.radial_profile(E, src, scales, plane, cfg.profile_samples)
    meta = _metadata_lines(cfg, scales, extra=[f"# rho_max_m = {_fmt(rmax)}"])
    _write_csv(cfg.output_prefix + "_profile.csv", meta, "rho_m,j_norm",
               zip(prof.rho, prof.j), created)
    report = detector.count_fringes(prof, scales)
    fr_meta = meta + [f"# n_fringes = {report.n_fringes}"]
    _write_csv(cfg.output_prefix + "_fringes.csv", fr_meta, "maximum_index,rho_m",
               ((i, r) for i, r in enumerate(report.maxima_rho)), created)


def _run_total_current(cfg: RunConfig, created):
    scales, src = _scales_and_source(cfg)
    grid = np.arange(-5.0, 30.0 + 0.125, 0.25)
    rows = []
    for x in grid:
        E = x * scales.energy_epsF
        rows.append((x, spectro.golden_rule_current(E, src, scales)))
    meta = _metadata_lines(cfg, scales)
    _write_csv(cfg.output_prefix + "_total_current.csv", meta, "E_over_epsF,J_norm",
               rows, created)


def _sweep_points(cfg: RunConfig, scales, src):
    E0 = cfg.binding_eV * units.EV
    hnus = [h * units.EV for h in cfg.photon_eV]
    e_max = max(h - E0 for h in hnus)
    if e_max <= 0.0:
        raise ConfigError("all photon energies are below the binding energy")
    rmax = classical.rho_max(e_max, scales, cfg.distance_m)
    plane = detector.DetectorPlane(d=cfg.distance_m, extent=1.25 * rmax, n=16)
    workers = cfg.workers or _usable_cpus()
    ctx = {"E0": E0, "src": src, "scales": scales, "plane": plane,
           "n_samples": cfg.profile_samples, "noise": cfg.noise_percent, "seed": cfg.seed}
    return _pool_map(_sweep_worker, [(i, h, ctx) for i, h in enumerate(hnus)], workers)


def _sweep_rows(pts):
    return [(p.hnu / units.EV, p.E_true / units.EV, p.E_fit / units.EV, p.fit_residual)
            for p in pts]


def _run_sweep(cfg: RunConfig, created):
    scales, src = _scales_and_source(cfg)
    pts = _sweep_points(cfg, scales, src)
    meta = _metadata_lines(cfg, scales)
    _write_csv(cfg.output_prefix + "_sweep.csv", meta, "hnu_eV,E_true_eV,E_fit_eV,residual",
               _sweep_rows(pts), created)


def _run_fit_einstein(cfg: RunConfig, created):
    scales, src = _scales_and_source(cfg)
    pts = _sweep_points(cfg, scales, src)
    if sum(p.fitted for p in pts) < 2:
        raise FitConvergenceError(
            f"only {sum(p.fitted for p in pts)} of {len(pts)} sweep points produced a fit"
        )
    fit = spectro.einstein_fit(pts)
    meta = _metadata_lines(cfg, scales, extra=[
        f"# slope = {_fmt(fit.slope)}",
        f"# E0_recovered_eV = {_fmt(fit.E0_recovered / units.EV)}",
        f"# rms_residual_eV = {_fmt(fit.rms_residual / units.EV)}",
    ])
    _write_csv(cfg.output_prefix + "_einstein.csv", meta, "hnu_eV,E_true_eV,E_fit_eV,residual",
               _sweep_rows(pts), created)
    print(f"slope = {_fmt(fit.slope)}  E0_eV = {_fmt(fit.E0_recovered / units.EV)}  "
          f"rms_eV = {_fmt(fit.rms_residual / units.EV)}")


def _run_compare_semiclassical(cfg: RunConfig, created):
    scales, src = _scales_and_source(cfg)
    if src.kind is not SourceKind.S_WAVE:
        raise ConfigError("compare-semiclassical models the point source (source_kind = s)")
    E = _energy_J(cfg)
    d = cfg.distance_m
    rmax = classical.rho_max(E, scales, d)
    rhos = np.linspace(0.05, 1.0 - classical.CAUSTIC_BAND - 0.01, cfg.profile_samples) * rmax
    # the exact wave at every radius in one closed-form call, in field units
    # as green_energy converts them, so each value matches its scalar call
    l = scales.length_lF
    g = _closed_eval(rhos / l, np.full_like(rhos, -d) / l, 0.0, 0.0,
                     E / scales.energy_epsF, want=("g",))["g"]
    g_sc = classical.semiclassical_profile(rhos, d, E, scales)
    rows = []
    for rho, g_i, g_sc_i in zip(rhos, g, g_sc):
        j_ex = abs(complex(g_i) / l) ** 2
        j_sc = abs(complex(g_sc_i)) ** 2
        rows.append((rho, j_ex, j_sc, (j_sc - j_ex) / j_ex))
    meta = _metadata_lines(cfg, scales, extra=[f"# rho_max_m = {_fmt(rmax)}"])
    _write_csv(cfg.output_prefix + "_compare.csv", meta, "rho_m,j_exact,j_semi,rel_err",
               rows, created)


_RUNNERS = {
    "map": _run_map,
    "profile": _run_profile,
    "total-current": _run_total_current,
    "sweep": _run_sweep,
    "fit-einstein": _run_fit_einstein,
    "compare-semiclassical": _run_compare_semiclassical,
}


def run_subcommand(name: str, cfg: RunConfig) -> int:
    """Run one subcommand; on any error remove partial outputs and re-raise."""
    if name not in _RUNNERS:
        raise ConfigError(f"unknown subcommand {name!r}")
    _require(cfg, name)
    created = []
    try:
        _RUNNERS[name](cfg, created)
    except BaseException:
        for path in created:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdmicro",
        description="Photodetachment microscope simulator",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("config", help="path to a key = value config file")
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        return run_subcommand(args.subcommand, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FitConvergenceError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 4
    except NumericsError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        for key, value in getattr(exc, "diagnostics", {}).items():
            print(f"  {key} = {value}", file=sys.stderr)
        return 3
    except PdmicroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
