"""Command-line interface: config parsing, subcommands, CSV/PGM serialization.

Config files are line-based `key = value` text with `#` comments. Every
artifact written is self-describing: CSV files start with `#` metadata
lines echoing the configuration (minus `workers`, so outputs stay
byte-identical across parallelism levels) and the derived field scales.
Floats are serialized with repr(), the shortest round-trip decimal form.

The fields of `RunConfig` are the key table: each field's metadata says
how its value parses, which checks it must pass, which subcommands require
it and whether artifacts echo it. Adding a key is one table entry. Each
subcommand is a `compute` function that returns its artifacts and does no
file I/O; adding a subcommand is one such function plus its `_RUNNERS`
entry. `run_subcommand` publishes the artifacts only once all of them are
computed, each complete or not at all.

Exit codes: 0 success, 2 config error or an output that cannot be
written, 3 numerical failure, 4 fit non-convergence.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from . import classical, detector, spectro, units
from .exceptions import (ConfigError, FitConvergenceError, NumericsError, OutputError,
                         PdmicroError)
from .green import SourceKind, SourceModel, _closed_eval

__all__ = ["RunConfig", "parse_config", "run_subcommand", "main", "SUBCOMMANDS"]

SUBCOMMANDS = ("map", "profile", "total-current", "sweep", "fit-einstein",
               "compare-semiclassical")

_IMAGING = ("map", "profile", "compare-semiclassical")
_SWEEPING = ("sweep", "fit-einstein")
_SOURCES = {"s": SourceKind.S_WAVE, "pz": SourceKind.PZ_DIPOLE}


def _float_list(value: str) -> list:
    parsed = [float(v) for v in value.split(",") if v.strip()]
    if not parsed:
        raise ValueError("empty list")
    return parsed


def _key(default=None, parse=float, *, positive=False, low=None, why="", choices=None,
         need=(), echo=True):
    """One row of the key table. Every float value must be finite; `positive`
    values must also be > 0 and `low` values >= low (`why` ends that message);
    `need` names the subcommands that require the key."""
    return field(default=default, metadata={
        "parse": parse, "positive": positive, "low": low, "why": why,
        "choices": choices, "need": need, "echo": echo})


@dataclass
class RunConfig:
    field_V_per_m: float | None = _key(positive=True, need=SUBCOMMANDS)
    distance_m: float | None = _key(positive=True, need=_IMAGING + _SWEEPING)
    energy_ueV: float | None = _key(positive=True, need=_IMAGING)
    photon_eV: list | None = _key(parse=_float_list, positive=True, need=_SWEEPING)
    binding_eV: float | None = _key(positive=True, need=_SWEEPING)
    source_kind: str = _key("s", str, choices=_SOURCES)
    grid_n: int = _key(128, int, low=16)
    grid_extent_m: float | None = _key(positive=True)
    profile_samples: int = _key(800, int, low=64)
    seed: int = _key(42, int)
    noise_percent: float = _key(0.0, low=0.0)
    # 0 = one per CPU this process may use; not echoed, so output bytes are
    # parallelism-independent
    workers: int = _key(0, int, low=0, why=" (0 or omitted: one per usable CPU)", echo=False)
    output_prefix: str = _key("pdmicro", str)

    def source(self) -> SourceModel:
        return SourceModel(_SOURCES[self.source_kind], 1.0)


_KEYS = {f.name: f for f in fields(RunConfig)}


def _check(key, value, *, positive, low, why, choices, **_):
    for v in value if isinstance(value, list) else (value,):
        if positive and not (math.isfinite(v) and v > 0.0):
            raise ConfigError(f"{key} must be positive and finite, got {v!r}")
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigError(f"{key} must be finite, got {v!r}")
        if low is not None and v < low:
            raise ConfigError(f"{key} must be >= {low:g}{why}")
        if choices is not None and v not in choices:
            raise ConfigError(f"{key} must be {' or '.join(map(repr, choices))}, got {v!r}")


def _config(items) -> RunConfig:
    """A RunConfig from (line number, key, value text) items, checked
    against the key table."""
    cfg, seen = RunConfig(), {}
    for lineno, key, value in items:
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} was already set on line {seen[key]}")
        seen[key] = lineno
        try:
            setattr(cfg, key, _KEYS[key].metadata["parse"](value))
        except ValueError:
            raise ConfigError(f"line {lineno}: cannot parse {key} value {value!r}") from None
    for key, f in _KEYS.items():
        if getattr(cfg, key) is not None:
            _check(key, getattr(cfg, key), **f.metadata)
    if cfg.energy_ueV is not None and cfg.photon_eV is not None:
        raise ConfigError("provide exactly one of energy_ueV or photon_eV, not both")
    return cfg


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines into a RunConfig.

    Unknown or repeated keys, bad syntax, type mismatches, non-finite
    floats and out-of-range values raise ConfigError naming the line or key.
    """
    return _config(_lines(text))


def _require(cfg: RunConfig, name: str):
    for key, f in _KEYS.items():
        if name in f.metadata["need"] and getattr(cfg, key) is None:
            raise ConfigError(f"subcommand {name!r} requires config key {key!r}")


# ---------------------------------------------------------------------------
# Serialization.

# A CSV artifact: `#` metadata lines, a header line and rows of values.
Csv = namedtuple("Csv", "path meta header rows")
# A PGM artifact: the file's bytes.
Pgm = namedtuple("Pgm", "path data")


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, list):
        return ",".join(_fmt(v) for v in x)
    return str(x)


def _metadata_lines(cfg: RunConfig, **extra):
    lines = []
    for key, f in _KEYS.items():
        v = getattr(cfg, key)
        if v is not None and f.metadata["echo"]:
            lines.append(f"# {key} = {_fmt(v)}")
    scales = units.make_scales(cfg.field_V_per_m)
    extra = {"l_F_m": scales.length_lF, "eps_F_J": scales.energy_epsF, **extra}
    return lines + [f"# {key} = {_fmt(v)}" for key, v in extra.items()]


def _pgm_bytes(img01) -> bytes:
    """16-bit big-endian P5; img01 rows ordered bottom-up (y = -extent first)."""
    levels = np.clip(np.rint(img01 * 65535.0), 0, 65535).astype(">u2")
    levels = levels[::-1]    # top row = +extent edge
    return f"P5\n{levels.shape[1]} {levels.shape[0]}\n65535\n".encode("ascii") + levels.tobytes()


def _write_csv(path, meta, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in meta:
            f.write(line + "\n")
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _write_pgm(path, data):
    with open(path, "wb") as f:
        f.write(data)


def _publish(artifacts):
    """Write each artifact to a temporary file beside its target, then move
    them all into place with os.replace.

    On any error the temporaries and the files already moved into place are
    removed; an OSError becomes an OutputError naming the target.
    """
    temps, placed, target = [], [], None
    try:
        for a in artifacts:
            target = a.path
            head, tail = os.path.split(target)
            temps.append(os.path.join(head, f".{tail}.{os.getpid()}.tmp"))
            (_write_pgm if isinstance(a, Pgm) else _write_csv)(temps[-1], *a[1:])
        for tmp, a in zip(temps, artifacts):
            target = a.path
            os.replace(tmp, target)
            placed.append(target)
    except BaseException as exc:
        for path in temps + placed:
            try:
                os.unlink(path)
            except OSError:
                pass
        if not isinstance(exc, OSError):
            raise
        named = exc if exc.filename is None else OSError(exc.errno, exc.strerror, target)
        raise OutputError(f"cannot write output: {named}") from exc


def load_profile_csv(path) -> "detector.RadialProfile":
    """Read a profile CSV (as written by `profile`/`map`) back into a
    RadialProfile, recovering energy, distance and source from the metadata
    lines. External fringe data can be fitted through this entry point as
    long as it follows the same schema.

    Metadata lines naming config keys pass the same checks as a config
    file; other metadata lines (`l_F_m`, `rho_max_m`, ...) are ignored.
    """
    meta, rho, j = [], [], []
    header_seen = False
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, eq, value = line[1:].partition("=")
                if eq and key.strip() in _KEYS:
                    meta.append((lineno, key.strip(), value.strip()))
                continue
            if not header_seen:
                if line != "rho_m,j_norm":
                    raise ConfigError(f"unexpected profile header {line!r}")
                header_seen = True
                continue
            cells = line.split(",")
            if len(cells) != 2:
                raise ConfigError(f"profile CSV line {lineno}: expected 'rho_m,j_norm', "
                                  f"got {line!r}")
            for value, column in zip(cells, (rho, j)):
                try:
                    column.append(float(value))
                except ValueError:
                    raise ConfigError(f"profile CSV line {lineno}: cannot parse "
                                      f"{value.strip()!r} as a number") from None
    if not rho:
        raise ConfigError("profile CSV holds no 'rho_m,j_norm' rows")
    try:
        cfg = _config(meta)
        _require(cfg, "profile")
    except ConfigError as exc:
        raise ConfigError(f"profile CSV metadata: {exc}") from None
    return detector.RadialProfile(
        rho=np.asarray(rho), j=np.asarray(j), E=_energy_J(cfg), d=cfg.distance_m,
        source=cfg.source(), scales=units.make_scales(cfg.field_V_per_m),
    )


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
# Subcommands: each computes its artifacts (and fit-einstein its stdout
# line, as a str) without touching a file.


def _energy_J(cfg):
    return units.convert_energy(cfg.energy_ueV, "ueV", "J")


def _plane(cfg):
    """Scales, energy, classical radius and detector plane of map/profile."""
    scales = units.make_scales(cfg.field_V_per_m)
    E = _energy_J(cfg)
    rmax = classical.rho_max(E, scales, cfg.distance_m)
    extent = cfg.grid_extent_m if cfg.grid_extent_m is not None else 1.2 * rmax
    return scales, E, rmax, detector.DetectorPlane(d=cfg.distance_m, extent=extent, n=cfg.grid_n)


def _compute_map(cfg: RunConfig):
    scales, E, rmax, plane = _plane(cfg)
    img = detector.map_plane(E, cfg.source(), scales, plane).j
    jmax = float(img.max())
    prof = detector.radial_profile(E, cfg.source(), scales, plane, cfg.profile_samples)
    return [Csv(cfg.output_prefix + "_profile.csv",
                _metadata_lines(cfg, rho_max_m=rmax, j_max=jmax),
                "rho_m,j_norm", zip(prof.rho, prof.j)),
            Pgm(cfg.output_prefix + "_map.pgm", _pgm_bytes(img / jmax if jmax > 0.0 else img))]


def _compute_profile(cfg: RunConfig):
    scales, E, rmax, plane = _plane(cfg)
    prof = detector.radial_profile(E, cfg.source(), scales, plane, cfg.profile_samples)
    report = detector.count_fringes(prof, scales)
    meta = _metadata_lines(cfg, rho_max_m=rmax)
    return [Csv(cfg.output_prefix + "_profile.csv", meta, "rho_m,j_norm", zip(prof.rho, prof.j)),
            Csv(cfg.output_prefix + "_fringes.csv", meta + [f"# n_fringes = {report.n_fringes}"],
                "maximum_index,rho_m", enumerate(report.maxima_rho))]


def _compute_total_current(cfg: RunConfig):
    scales, src = units.make_scales(cfg.field_V_per_m), cfg.source()
    rows = [(x, spectro.golden_rule_current(x * scales.energy_epsF, src, scales))
            for x in np.arange(-5.0, 30.0 + 0.125, 0.25)]
    return [Csv(cfg.output_prefix + "_total_current.csv", _metadata_lines(cfg),
                "E_over_epsF,J_norm", rows)]


def _sweep_points(cfg: RunConfig):
    scales = units.make_scales(cfg.field_V_per_m)
    E0 = cfg.binding_eV * units.EV
    hnus = [h * units.EV for h in cfg.photon_eV]
    e_max = max(h - E0 for h in hnus)
    if e_max <= 0.0:
        raise ConfigError("all photon energies are below the binding energy")
    rmax = classical.rho_max(e_max, scales, cfg.distance_m)
    plane = detector.DetectorPlane(d=cfg.distance_m, extent=1.25 * rmax, n=16)
    workers = cfg.workers or _usable_cpus()
    ctx = {"E0": E0, "src": cfg.source(), "scales": scales, "plane": plane,
           "n_samples": cfg.profile_samples, "noise": cfg.noise_percent, "seed": cfg.seed}
    return _pool_map(_sweep_worker, [(i, h, ctx) for i, h in enumerate(hnus)], workers)


def _sweep_rows(pts):
    return [(p.hnu / units.EV, p.E_true / units.EV, p.E_fit / units.EV, p.fit_residual)
            for p in pts]


def _compute_sweep(cfg: RunConfig):
    return [Csv(cfg.output_prefix + "_sweep.csv", _metadata_lines(cfg),
                "hnu_eV,E_true_eV,E_fit_eV,residual", _sweep_rows(_sweep_points(cfg)))]


def _compute_fit_einstein(cfg: RunConfig):
    pts = _sweep_points(cfg)
    if sum(p.fitted for p in pts) < 2:
        raise FitConvergenceError(
            f"only {sum(p.fitted for p in pts)} of {len(pts)} sweep points produced a fit"
        )
    fit = spectro.einstein_fit(pts)
    slope, e0, rms = (_fmt(fit.slope), _fmt(fit.E0_recovered / units.EV),
                      _fmt(fit.rms_residual / units.EV))
    meta = _metadata_lines(cfg)
    meta += [f"# slope = {slope}", f"# E0_recovered_eV = {e0}", f"# rms_residual_eV = {rms}"]
    return [Csv(cfg.output_prefix + "_einstein.csv", meta, "hnu_eV,E_true_eV,E_fit_eV,residual",
                _sweep_rows(pts)),
            f"slope = {slope}  E0_eV = {e0}  rms_eV = {rms}"]


def _compute_compare_semiclassical(cfg: RunConfig):
    if cfg.source_kind != "s":
        raise ConfigError("compare-semiclassical models the point source (source_kind = s)")
    scales = units.make_scales(cfg.field_V_per_m)
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
    return [Csv(cfg.output_prefix + "_compare.csv", _metadata_lines(cfg, rho_max_m=rmax),
                "rho_m,j_exact,j_semi,rel_err", rows)]


_RUNNERS = {
    "map": _compute_map,
    "profile": _compute_profile,
    "total-current": _compute_total_current,
    "sweep": _compute_sweep,
    "fit-einstein": _compute_fit_einstein,
    "compare-semiclassical": _compute_compare_semiclassical,
}


def run_subcommand(name: str, cfg: RunConfig) -> int:
    """Compute every artifact of one subcommand, then publish them all.

    No file appears until every artifact is computed, and each appears
    complete or not at all: a failed run leaves the files of an earlier run
    with the same prefix as they were, unless publishing itself fails.
    """
    if name not in _RUNNERS:
        raise ConfigError(f"unknown subcommand {name!r}")
    _require(cfg, name)
    outputs = _RUNNERS[name](cfg)
    _publish([a for a in outputs if not isinstance(a, str)])
    for line in outputs:
        if isinstance(line, str):
            print(line)
    return 0


# (errors, stderr label, exit code) for main, the first match wins
_EXITS = ((ConfigError, "config error", 2), (OutputError, "error", 2),
          (FitConvergenceError, "fit error", 4), (NumericsError, "numerical error", 3),
          ((PdmicroError, ValueError), "error", 3))


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
        return run_subcommand(args.subcommand, parse_config(text))
    except (PdmicroError, ValueError) as exc:
        label, code = next((label, code) for kinds, label, code in _EXITS
                           if isinstance(exc, kinds))
        print(f"{label}: {exc}", file=sys.stderr)
        for key, value in getattr(exc, "diagnostics", {}).items():
            print(f"  {key} = {value}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
