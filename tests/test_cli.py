import os
import struct

import numpy as np
import pytest

from pdmicro import cli, units
from pdmicro.cli import SUBCOMMANDS, main, parse_config
from pdmicro.exceptions import ConfigError, QuadratureError

R1_PROFILE = """\
field_V_per_m = 400
distance_m = 0.5
energy_ueV = 200
source_kind = s
profile_samples = 700
output_prefix = {prefix}
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParseConfig:
    def test_happy_path(self):
        cfg = parse_config("field_V_per_m = 400\ndistance_m = 0.5\n"
                           "energy_ueV = 200\nsource_kind = s\n")
        assert cfg.field_V_per_m == 400.0
        assert cfg.distance_m == 0.5
        assert cfg.energy_ueV == 200.0
        assert cfg.source_kind == "s"

    def test_comments_and_blanks(self):
        cfg = parse_config("# a comment\n\nfield_V_per_m = 400  # inline\n")
        assert cfg.field_V_per_m == 400.0

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 1.*fielb_V_per_m"):
            parse_config("fielb_V_per_m = 400\n")

    def test_negative_value_names_key(self):
        with pytest.raises(ConfigError, match="field_V_per_m"):
            parse_config("field_V_per_m = -1\n")

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("field_V_per_m = 400\ngrid_n = many\n")

    def test_syntax_error(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("field_V_per_m 400\n")

    def test_photon_list(self):
        cfg = parse_config("photon_eV = 1.46, 1.47,1.48\n")
        assert cfg.photon_eV == [1.46, 1.47, 1.48]

    def test_missing_required_key(self):
        cfg = parse_config("field_V_per_m = 400\n")
        with pytest.raises(ConfigError, match="distance_m"):
            cli.run_subcommand("profile", cfg)
        cfg2 = parse_config("field_V_per_m = 400\ndistance_m = 0.5\n")
        with pytest.raises(ConfigError, match="energy_ueV"):
            cli.run_subcommand("profile", cfg2)

    @pytest.mark.parametrize("line", ["noise_percent = nan", "noise_percent = inf",
                                      "photon_eV = nan", "photon_eV = 1.5, inf"])
    def test_non_finite_float_names_key(self, line):
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=f"{key} must be .*finite, got .*(nan|inf)"):
            parse_config(f"field_V_per_m = 400\n{line}\n")

    @pytest.mark.parametrize("line", ["noise_percent = nan", "noise_percent = inf",
                                      "photon_eV = nan", "photon_eV = inf"])
    def test_non_finite_sweep_input_exits_2(self, tmp_path, monkeypatch, line):
        monkeypatch.chdir(tmp_path)
        cfg = ("field_V_per_m = 400\ndistance_m = 0.5\nbinding_eV = 1.4612\n"
               "profile_samples = 64\noutput_prefix = nf\n" + line + "\n")
        if not line.startswith("photon_eV"):
            cfg += "photon_eV = 1.46135,1.46145\n"
        assert main(["sweep", _write(tmp_path, "nf.cfg", cfg)]) == 2
        assert sorted(os.listdir(tmp_path)) == ["nf.cfg"]

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ConfigError, match="line 3: .*'field_V_per_m'.* line 1"):
            parse_config("field_V_per_m = 400\ndistance_m = 0.5\nfield_V_per_m = 500\n")


class TestSubcommands:
    def test_profile_outputs_and_schema(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = _write(tmp_path, "r1.cfg", R1_PROFILE.format(prefix="r1"))
        assert main(["profile", path]) == 0
        lines = (tmp_path / "r1_profile.csv").read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "rho_m,j_norm"
        assert any(l.startswith("# rho_max_m = ") for l in meta)
        assert any(l.startswith("# eps_F_J = ") for l in meta)
        assert not any("workers" in l for l in meta)
        # shortest round-trip float formatting
        rho0, j0 = body[1].split(",")
        assert float(rho0) == 0.0 and float(j0) > 0.0
        fr = (tmp_path / "r1_fringes.csv").read_text().splitlines()
        n_line = [l for l in fr if l.startswith("# n_fringes = ")][0]
        assert int(n_line.split("=")[1]) in (7, 8, 9)

    def test_fringe_csv_matches_in_process_count(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        from pdmicro import classical, detector
        from pdmicro.green import SourceKind, SourceModel
        path = _write(tmp_path, "r1.cfg", R1_PROFILE.format(prefix="r1"))
        assert main(["profile", path]) == 0
        fr = (tmp_path / "r1_fringes.csv").read_text().splitlines()
        n_csv = int([l for l in fr if l.startswith("# n_fringes")][0].split("=")[1])
        scales = units.make_scales(400.0)
        E = units.convert_energy(200.0, "ueV", "J")
        rmax = classical.rho_max(E, scales, 0.5)
        plane = detector.DetectorPlane(0.5, 1.2 * rmax, 16)
        prof = detector.radial_profile(E, SourceModel(SourceKind.S_WAVE, 1.0),
                                       scales, plane, 700)
        assert detector.count_fringes(prof, scales).n_fringes == n_csv

    def test_repeat_runs_bit_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = _write(tmp_path, "r1.cfg", R1_PROFILE.format(prefix="r1"))
        assert main(["profile", path]) == 0
        first = (tmp_path / "r1_profile.csv").read_bytes()
        assert main(["profile", path]) == 0
        assert (tmp_path / "r1_profile.csv").read_bytes() == first

    def test_map_pgm_structure_and_worker_independence(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        base = ("field_V_per_m = 400\ndistance_m = 0.5\nenergy_ueV = 200\n"
                "grid_n = 32\nprofile_samples = 256\noutput_prefix = m\n")
        p1 = _write(tmp_path, "w1.cfg", base + "workers = 1\n")
        assert main(["map", p1]) == 0
        img1 = (tmp_path / "m_map.pgm").read_bytes()
        csv1 = (tmp_path / "m_profile.csv").read_bytes()

        workers = os.cpu_count() or 2
        p2 = _write(tmp_path, "w2.cfg", base + f"workers = {workers}\n")
        assert main(["map", p2]) == 0
        assert (tmp_path / "m_map.pgm").read_bytes() == img1
        assert (tmp_path / "m_profile.csv").read_bytes() == csv1

        header, rest = img1.split(b"\n", 1)
        assert header == b"P5"
        dims, rest = rest.split(b"\n", 1)
        assert dims == b"32 32"
        maxval, pixels = rest.split(b"\n", 1)
        assert maxval == b"65535"
        assert len(pixels) == 32 * 32 * 2
        # big-endian samples, peak level hits the full scale somewhere
        levels = struct.unpack(">1024H", pixels)
        assert max(levels) == 65535

    def test_map_top_row_is_positive_extent(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # off-center energy pattern is symmetric; check orientation via the
        # node-registration asymmetry: row 0 of the PGM is y = +extent - step,
        # the LAST row is y = -extent which has no mirror partner
        from pdmicro import detector, units as u
        from pdmicro.green import SourceKind, SourceModel
        base = ("field_V_per_m = 400\ndistance_m = 0.5\nenergy_ueV = 200\n"
                "grid_n = 32\nprofile_samples = 256\noutput_prefix = t\n")
        path = _write(tmp_path, "t.cfg", base)
        assert main(["map", path]) == 0
        img = (tmp_path / "t_map.pgm").read_bytes()
        pixels = img.split(b"\n", 3)[3]
        arr = np.frombuffer(pixels, dtype=">u2").reshape(32, 32).astype(float)
        scales = u.make_scales(400.0)
        E = u.convert_energy(200.0, "ueV", "J")
        from pdmicro import classical
        rmax = classical.rho_max(E, scales, 0.5)
        plane = detector.DetectorPlane(0.5, 1.2 * rmax, 32)
        m = detector.map_plane(E, SourceModel(SourceKind.S_WAVE, 1.0), scales, plane)
        expect = np.clip(np.rint(m.j / m.j.max() * 65535.0), 0, 65535)[::-1]
        assert np.array_equal(arr, expect)

    def test_total_current_schema(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = _write(tmp_path, "tc.cfg", "field_V_per_m = 400\noutput_prefix = tc\n")
        assert main(["total-current", path]) == 0
        lines = (tmp_path / "tc_total_current.csv").read_text().splitlines()
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "E_over_epsF,J_norm"
        xs = np.array([float(l.split(",")[0]) for l in body[1:]])
        assert xs[0] == -5.0 and xs[-1] == 30.0
        js = np.array([float(l.split(",")[1]) for l in body[1:]])
        assert np.all(js > 0.0) and np.all(np.diff(js) > 0.0)

    def test_sweep_and_fit_einstein_end_to_end(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        scales = units.make_scales(400.0)
        E0 = 1.4612
        hnus = [float(E0 + u * scales.energy_epsF / units.EV) for u in np.linspace(2.0, 20.0, 10)]
        cfg = ("field_V_per_m = 400\ndistance_m = 0.5\n"
               f"photon_eV = {','.join(repr(h) for h in hnus)}\n"
               f"binding_eV = {E0}\nprofile_samples = 400\n"
               "workers = 2\noutput_prefix = e\n")
        path = _write(tmp_path, "e.cfg", cfg)
        assert main(["fit-einstein", path]) == 0
        out = capsys.readouterr().out
        assert "slope = " in out and "E0_eV = " in out
        lines = (tmp_path / "e_einstein.csv").read_text().splitlines()
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "hnu_eV,E_true_eV,E_fit_eV,residual"
        e0_line = [l for l in lines if l.startswith("# E0_recovered_eV")][0]
        e0_rec = float(e0_line.split("=")[1])
        assert abs(e0_rec - E0) / E0 <= 2e-3

    def test_pz_sweep_lands_in_the_true_basin(self, tmp_path, monkeypatch):
        # a scan alone lands these two in neighbouring basins (247.1 and
        # 233.0 ueV, exit 0)
        monkeypatch.chdir(tmp_path)
        cfg = ("field_V_per_m = 400\ndistance_m = 0.5\nphoton_eV = 1.46143,1.46145\n"
               "binding_eV = 1.4612\nsource_kind = pz\nprofile_samples = 600\n"
               "workers = 1\noutput_prefix = pz\n")
        assert main(["sweep", _write(tmp_path, "pz.cfg", cfg)]) == 0
        lines = (tmp_path / "pz_sweep.csv").read_text().splitlines()
        rows = [[float(v) for v in l.split(",")]
                for l in lines[lines.index("hnu_eV,E_true_eV,E_fit_eV,residual") + 1:]]
        assert [round(r[1] * 1e6, 6) for r in rows] == [230.0, 250.0]
        for _, e_true, e_fit, _ in rows:
            assert abs(e_fit / e_true - 1.0) <= 1e-8

    @pytest.mark.parametrize("workers", [1, 2])
    def test_noisy_sweep_equals_library_run_sweep(self, tmp_path, monkeypatch, workers):
        monkeypatch.chdir(tmp_path)
        from pdmicro import classical, detector, spectro
        from pdmicro.green import SourceKind, SourceModel
        scales = units.make_scales(400.0)
        E0 = 1.4612
        hnus = [float(E0 + u * scales.energy_epsF / units.EV) for u in (3.0, 7.0, 11.0, 15.0)]
        cfg = ("field_V_per_m = 400\ndistance_m = 0.5\n"
               f"photon_eV = {','.join(repr(h) for h in hnus)}\n"
               f"binding_eV = {E0}\nprofile_samples = 400\nnoise_percent = 1.0\n"
               f"seed = 42\nworkers = {workers}\noutput_prefix = n\n")
        assert main(["sweep", _write(tmp_path, "n.cfg", cfg)]) == 0
        lines = (tmp_path / "n_sweep.csv").read_text().splitlines()
        e_fit = [float(l.split(",")[2])
                 for l in lines[lines.index("hnu_eV,E_true_eV,E_fit_eV,residual") + 1:]]
        E0_J = E0 * units.EV
        hnus_J = [h * units.EV for h in hnus]
        plane = detector.DetectorPlane(
            d=0.5, extent=1.25 * classical.rho_max(max(hnus_J) - E0_J, scales, 0.5), n=16)
        pts = spectro.run_sweep(hnus_J, E0_J, SourceModel(SourceKind.S_WAVE, 1.0), scales,
                                plane, n_samples=400, noise_percent=1.0, seed=42)
        assert e_fit == [p.E_fit / units.EV for p in pts]

    def test_compare_semiclassical_schema(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = ("field_V_per_m = 400\ndistance_m = 0.5\nenergy_ueV = 200\n"
               "profile_samples = 80\noutput_prefix = c\n")
        path = _write(tmp_path, "c.cfg", cfg)
        assert main(["compare-semiclassical", path]) == 0
        lines = (tmp_path / "c_compare.csv").read_text().splitlines()
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "rho_m,j_exact,j_semi,rel_err"
        rels = np.array([float(l.split(",")[3]) for l in body[1:]])
        # pointwise error spikes at fringe minima; bulk agreement is tight
        assert np.median(np.abs(rels)) < 0.05
        assert np.max(np.abs(rels)) < 1.0


    def test_compare_semiclassical_equals_per_point_green_energy(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        from pdmicro import classical
        from pdmicro.green import SpacePoint, green_energy
        cfg = ("field_V_per_m = 400\ndistance_m = 0.5\nenergy_ueV = 250\n"
               "profile_samples = 64\noutput_prefix = c\n")
        assert main(["compare-semiclassical", _write(tmp_path, "c.cfg", cfg)]) == 0
        lines = (tmp_path / "c_compare.csv").read_text().splitlines()
        rows = [[float(v) for v in l.split(",")] for l in lines[lines.index(
            "rho_m,j_exact,j_semi,rel_err") + 1:]]
        assert len(rows) == 64
        scales = units.make_scales(400.0)
        E = units.convert_energy(250.0, "ueV", "J")
        for rho, j_ex, j_sc, rel in rows:
            p = SpacePoint(rho, -0.5)
            ref_ex = abs(green_energy(p, SpacePoint(0.0, 0.0), E, scales).value) ** 2
            ref_sc = abs(classical.semiclassical_wave(p, E, scales)) ** 2
            assert (j_ex, j_sc, rel) == (ref_ex, ref_sc, (ref_sc - ref_ex) / ref_ex)


class TestWorkerPool:
    @pytest.fixture()
    def pool_sizes(self, monkeypatch):
        """multiprocessing.Pool replaced by a serial stand-in that records its size."""
        import multiprocessing
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        return sizes

    def test_at_most_one_process_per_item(self, pool_sizes):
        assert cli._pool_map(abs, [-1, 2, -3], 8) == [1, 2, 3]
        assert cli._pool_map(abs, [-1, 2, -3, 4], 2) == [1, 2, 3, 4]
        assert pool_sizes == [3, 2]

    def test_one_item_or_worker_runs_serially(self, pool_sizes):
        assert cli._pool_map(abs, [-5], 4) == [5]
        assert cli._pool_map(abs, [-1, -2], 1) == [1, 2]
        assert cli._pool_map(abs, [], 4) == []
        assert pool_sizes == []

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
    def test_default_workers_are_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        seen = []
        monkeypatch.setattr(cli, "_pool_map",
                            lambda fn, items, workers: seen.append(workers) or [])
        cfg = parse_config("field_V_per_m = 400\ndistance_m = 0.5\n"
                           "photon_eV = 1.4613,1.4614\nbinding_eV = 1.4612\n")
        cli._sweep_points(cfg)
        cfg.workers = 2
        cli._sweep_points(cfg)
        assert seen == [3, 2]


class TestExitCodesAndCleanup:
    def test_config_error_exit_2(self, tmp_path):
        path = _write(tmp_path, "bad.cfg", "fielb_V_per_m = 400\n")
        assert main(["profile", path]) == 2
        path = _write(tmp_path, "bad2.cfg", "field_V_per_m = -1\n")
        assert main(["profile", path]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["profile", str(tmp_path / "nope.cfg")]) == 2

    def test_numerical_error_exit_3_and_partial_cleanup(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # 400 ueV needs ~180 samples inside rho_max; 64 trips the
        # undersampling guard after the profile CSV was already written
        cfg = ("field_V_per_m = 400\ndistance_m = 0.5\nenergy_ueV = 400\n"
               "profile_samples = 64\noutput_prefix = p\n")
        path = _write(tmp_path, "p.cfg", cfg)
        assert main(["profile", path]) == 3
        assert not (tmp_path / "p_profile.csv").exists()
        assert not (tmp_path / "p_fringes.csv").exists()

    def test_quadrature_diagnostics_reach_stderr(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)

        def failing_runner(cfg):
            raise QuadratureError("panels did not converge",
                                  {"panels": 4096, "growth": 2.5e+17})

        monkeypatch.setitem(cli._RUNNERS, "profile", failing_runner)
        path = _write(tmp_path, "r1.cfg", R1_PROFILE.format(prefix="q"))
        assert main(["profile", path]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical error: panels did not converge",
            "  panels = 4096",
            "  growth = 2.5e+17",
        ]

    def test_unwritable_output_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = ("field_V_per_m = 400\ndistance_m = 0.5\nenergy_ueV = 200\n"
               "profile_samples = 64\noutput_prefix = missing/c\n")
        assert main(["compare-semiclassical", _write(tmp_path, "c.cfg", cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["c.cfg"]

    def test_unwritable_second_output_removes_the_first(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        # map writes the profile CSV first; a directory in the PGM's place
        # makes the second write fail
        (tmp_path / "m_map.pgm").mkdir()
        cfg = ("field_V_per_m = 400\ndistance_m = 0.5\nenergy_ueV = 200\n"
               "grid_n = 16\nprofile_samples = 64\noutput_prefix = m\n")
        assert main(["map", _write(tmp_path, "m.cfg", cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write output: ")
        assert not (tmp_path / "m_profile.csv").exists()
        assert (tmp_path / "m_map.pgm").is_dir()

    def test_fit_failure_exit_4(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        scales = units.make_scales(400.0)
        # photon energies so close to threshold that no point is fittable
        h1 = 1.4612 + 0.1 * scales.energy_epsF / units.EV
        h2 = 1.4612 + 0.2 * scales.energy_epsF / units.EV
        cfg = ("field_V_per_m = 400\ndistance_m = 0.5\n"
               f"photon_eV = {h1!r},{h2!r}\nbinding_eV = 1.4612\n"
               "profile_samples = 128\noutput_prefix = f\n")
        path = _write(tmp_path, "f.cfg", cfg)
        assert main(["fit-einstein", path]) == 4
        assert not (tmp_path / "f_einstein.csv").exists()


class TestProfileRoundTrip:
    def test_csv_loads_back_and_fits(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = _write(tmp_path, "r1.cfg", R1_PROFILE.format(prefix="rt"))
        assert main(["profile", path]) == 0
        from pdmicro import spectro
        prof = cli.load_profile_csv(tmp_path / "rt_profile.csv")
        scales = units.make_scales(400.0)
        E = units.convert_energy(200.0, "ueV", "J")
        assert prof.d == 0.5 and abs(prof.E - E) / E < 1e-12
        e_fit, _ = spectro.extract_energy(prof, scales, prof.d)
        assert abs(e_fit - E) / E <= 5e-4

    @pytest.mark.parametrize("bad_row, named", [("0.0,abc", "'abc'"),
                                                 ("0.0 1.5", "'0.0 1.5'")])
    def test_malformed_row_is_a_config_error(self, tmp_path, monkeypatch, bad_row, named):
        monkeypatch.chdir(tmp_path)
        path = _write(tmp_path, "r1.cfg", R1_PROFILE.format(prefix="rt"))
        assert main(["profile", path]) == 0
        lines = (tmp_path / "rt_profile.csv").read_text().splitlines()
        lineno = len(lines) - 3
        lines[lineno - 1] = bad_row
        bad = tmp_path / "bad_profile.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=f"line {lineno}: .*{named}"):
            cli.load_profile_csv(bad)
        # a subcommand that reads the file reports it with the config exit code
        monkeypatch.setitem(cli._RUNNERS, "profile",
                            lambda cfg: cli.load_profile_csv(bad))
        assert main(["profile", path]) == 2

    def test_malformed_metadata_is_a_config_error(self, tmp_path):
        bad = tmp_path / "bad_profile.csv"
        bad.write_text("# field_V_per_m = 400\n# distance_m = 0.5\n# energy_ueV = abc\n"
                       "rho_m,j_norm\n0.0,1.0\n")
        with pytest.raises(ConfigError, match="metadata"):
            cli.load_profile_csv(bad)

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigError, match=">= 0"):
            parse_config("field_V_per_m = 400\nworkers = -1\n")

    def test_both_energy_keys_rejected(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config("field_V_per_m = 400\nenergy_ueV = 200\nphoton_eV = 1.5\n")

    META = ("# field_V_per_m = 400\n# distance_m = 0.5\n# energy_ueV = 200\n"
            "# source_kind = s\n# l_F_m = 1e-08\n# rho_max_m = 0.01\n")

    @pytest.mark.parametrize("line, named", [
        ("# source_kind = d", "source_kind must be 's' or 'pz', got 'd'"),
        ("# energy_ueV = -200", "energy_ueV must be positive"),
        ("# distance_m = nan", "distance_m must be positive and finite, got nan"),
        ("# field_V_per_m = 0", "field_V_per_m must be positive"),
        ("# distance_m = 0.25", "line 7: key 'distance_m' was already set on line 2"),
    ])
    def test_metadata_passes_the_config_checks(self, tmp_path, monkeypatch, line, named):
        key = line[2:].split(" =")[0]
        meta = self.META if "0.25" in line else "".join(
            l + "\n" for l in self.META.splitlines() if not l.startswith(f"# {key} "))
        bad = tmp_path / "bad_profile.csv"
        bad.write_text(meta + line + "\nrho_m,j_norm\n0.0,1.0\n0.001,0.5\n")
        with pytest.raises(ConfigError, match=f"metadata: .*{named}"):
            cli.load_profile_csv(bad)
        # a subcommand that reads the file reports it with the config exit code
        monkeypatch.chdir(tmp_path)
        monkeypatch.setitem(cli._RUNNERS, "profile", lambda cfg: cli.load_profile_csv(bad))
        path = _write(tmp_path, "r1.cfg", R1_PROFILE.format(prefix="rt"))
        assert main(["profile", path]) == 2

    @pytest.mark.parametrize("body", ["", "rho_m,j_norm\n"])
    def test_profile_without_rows_is_a_config_error(self, tmp_path, body):
        empty = tmp_path / "empty_profile.csv"
        empty.write_text(self.META + body)
        with pytest.raises(ConfigError, match="no 'rho_m,j_norm' rows"):
            cli.load_profile_csv(empty)


# one small config per subcommand, for the write-contract tests
_SMALL = {
    "map": "energy_ueV = 200\ngrid_n = 16\nprofile_samples = 64\n",
    "profile": "energy_ueV = 200\nprofile_samples = 300\n",
    "total-current": "",
    "sweep": "photon_eV = 1.46135,1.46145,1.46155\nbinding_eV = 1.4612\nprofile_samples = 300\n",
    "fit-einstein": ("photon_eV = 1.46135,1.46145,1.46155\nbinding_eV = 1.4612\n"
                     "profile_samples = 300\n"),
    "compare-semiclassical": "energy_ueV = 200\nprofile_samples = 64\n",
}


class TestWriteContract:
    def test_failed_rerun_leaves_earlier_outputs_untouched(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["profile", _write(tmp_path, "ok.cfg", R1_PROFILE.format(prefix="p"))]) == 0
        before = {f: (tmp_path / f).read_bytes() for f in ("p_profile.csv", "p_fringes.csv")}
        # undersampled: count_fringes fails after the profile is computed
        cfg = ("field_V_per_m = 400\ndistance_m = 0.5\nenergy_ueV = 400\n"
               "profile_samples = 64\noutput_prefix = p\n")
        assert main(["profile", _write(tmp_path, "bad.cfg", cfg)]) == 3
        assert sorted(os.listdir(tmp_path)) == ["bad.cfg", "ok.cfg", *sorted(before)]
        for name, blob in before.items():
            assert (tmp_path / name).read_bytes() == blob

    def test_oserror_in_second_artifact_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_csv = cli._write_csv
        calls = []

        def disk_fills_on_second(path, meta, header, rows):
            calls.append(path)
            if len(calls) == 1:
                return write_csv(path, meta, header, rows)
            with open(path, "w") as f:
                f.write(meta[0])
            raise OSError(28, "No space left on device", path)

        monkeypatch.setattr(cli, "_write_csv", disk_fills_on_second)
        assert main(["profile", _write(tmp_path, "p.cfg", R1_PROFILE.format(prefix="p"))]) == 2
        assert capsys.readouterr().err == (
            "error: cannot write output: [Errno 28] No space left on device: 'p_fringes.csv'\n")
        assert len(calls) == 2 and not any(os.path.basename(c).startswith("p_") for c in calls)
        assert sorted(os.listdir(tmp_path)) == ["p.cfg"]

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_compute_does_no_file_io(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        cfg = parse_config("field_V_per_m = 400\ndistance_m = 0.5\nworkers = 1\n"
                           "output_prefix = c\n" + _SMALL[name])
        outputs = cli._RUNNERS[name](cfg)
        assert outputs and all(isinstance(a, (cli.Csv, cli.Pgm, str)) for a in outputs)
        assert os.listdir(tmp_path) == []
