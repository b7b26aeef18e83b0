import json
import math

import pytest

from pbklab.cli import main
from pbklab.circle_spectral import SpectralConfig
from pbklab.cp1_geometry import ProjectivePoint
from pbklab.exact_kernels import partial_coeff
from pbklab.harness import (EXIT_CONFIG, EXIT_OK, ConfigError,
                            ExperimentConfig, format_number, make_rng,
                            run_diagonal_and_microsupport, run_error_scaling,
                            run_experiment, run_hilbert_selftest,
                            run_orbit_heatmap, run_two_proj, write_csv)


def read_rows(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    data = [ln for ln in lines if not ln.startswith("#")]
    header = data[0].split(",")
    rows = [ln.split(",") for ln in data[1:]]
    return lines, header, rows


# --- config ----------------------------------------------------------------

def test_config_json_round_trip():
    cfg = ExperimentConfig(experiment="two-proj", seed=99, e1=0.6,
                           u2=[0.0, 1.0, 0.0], k_list=[10, 20])
    restored = ExperimentConfig.from_json(cfg.to_json())
    assert restored == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys: frequency"):
        ExperimentConfig.from_json(json.dumps({"frequency": 3}))


def test_config_k_grid_geometric():
    cfg = ExperimentConfig(k_min=10, k_max=100, k_ratio=2.0)
    assert cfg.k_grid() == [10, 20, 40, 80, 100]
    cfg = ExperimentConfig(k_list=[4, 9])
    assert cfg.k_grid() == [4, 9]


def test_config_base_point_formats():
    assert ExperimentConfig().base_point() == ProjectivePoint(1, 1)
    cfg = ExperimentConfig(z0=[2.0, 1.0])
    assert cfg.base_point() == ProjectivePoint(2 + 1j, 1)
    cfg = ExperimentConfig(z0=[1.0, 0.0, 3.0, -1.0])
    assert cfg.base_point() == ProjectivePoint(1, 3 - 1j)
    with pytest.raises(ConfigError):
        ExperimentConfig(z0=[1.0]).base_point()


def test_format_number_round_trips():
    rng = make_rng(5)
    for _ in range(50):
        x = float(rng.standard_normal() * 10.0 ** int(rng.integers(-12, 12)))
        assert float(format_number(x)) == x


# --- CSV determinism ---------------------------------------------------------

def test_csv_identical_for_identical_config(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        cfg = ExperimentConfig(experiment="selftest-hilbert", dim=5,
                               trials=8, seed=123, out=str(p),
                               no_timestamp=True)
        report = run_hilbert_selftest(cfg)
        assert report.exit_code == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_csv_timestamp_header_toggle(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["x"], [(1.0,)], ["experiment: demo"], False)
    assert any(line.startswith("# timestamp:")
               for line in path.read_text().splitlines())
    write_csv(str(path), ["x"], [(1.0,)], ["experiment: demo"], True)
    assert not any(line.startswith("# timestamp:")
                   for line in path.read_text().splitlines())


# --- selftest ----------------------------------------------------------------

def test_selftest_passes_and_reports(tmp_path):
    cfg = ExperimentConfig(experiment="selftest-hilbert", dim=8, trials=25,
                           seed=42, out=str(tmp_path / "self.csv"),
                           no_timestamp=True)
    report = run_hilbert_selftest(cfg)
    assert report.exit_code == EXIT_OK
    assert report.summary["max_deviation"] <= 1e-9
    _, header, rows = read_rows(str(tmp_path / "self.csv"))
    assert header == ["trial", "dim", "energy", "nodes", "max_abs_deviation"]
    assert len(rows) == 25


def test_selftest_dimension_one_always_passes():
    cfg = ExperimentConfig(experiment="selftest-hilbert", dim=1, trials=10,
                           seed=1)
    assert run_hilbert_selftest(cfg).exit_code == EXIT_OK


def test_selftest_starved_nodes_exit_code_2():
    cfg = ExperimentConfig(experiment="selftest-hilbert", dim=8, trials=3,
                           seed=42, nodes=2)
    report = run_experiment(cfg)
    assert report.exit_code == EXIT_CONFIG
    assert "insufficient" in report.message


# --- heatmap -----------------------------------------------------------------

@pytest.mark.parametrize("kind", ["equivariant", "partial"])
def test_heatmap_ridge_on_unit_circle(tmp_path, kind):
    cfg = ExperimentConfig(experiment="heatmap", kind=kind, k=80, e=0.5,
                           grid_n=41, out=str(tmp_path / f"{kind}.csv"),
                           svg=str(tmp_path / f"{kind}.svg"),
                           no_timestamp=True)
    report = run_orbit_heatmap(cfg)
    assert report.exit_code == EXIT_OK
    assert (tmp_path / f"{kind}.svg").read_text().startswith("<svg")


def test_heatmap_small_k_matches_direct_calls(tmp_path):
    cfg = ExperimentConfig(experiment="heatmap", kind="partial", k=4, e=0.5,
                           grid_n=9, grid_min=-1.0, grid_max=1.0,
                           out=str(tmp_path / "g.csv"), no_timestamp=True)
    run_orbit_heatmap(cfg)
    _, header, rows = read_rows(str(tmp_path / "g.csv"))
    assert header == ["re_zeta", "im_zeta", "abs_value", "logmag"]
    spectral = SpectralConfig(4, 0.5)
    z = ProjectivePoint(1, 1)
    for re_s, im_s, absval, _ in rows:
        w = ProjectivePoint(complex(float(re_s), float(im_s)), 1)
        direct = partial_coeff(spectral, z, w).abs()
        assert abs(float(absval) - direct) <= 1e-14 * max(direct, 1.0)


# --- error scaling -------------------------------------------------------------

def test_error_scaling_partial_passes(tmp_path):
    cfg = ExperimentConfig(experiment="error-scaling", k_min=10, k_max=300,
                           k_ratio=1.6, e=0.5, t0=math.pi / 2,
                           out=str(tmp_path / "er.csv"),
                           svg=str(tmp_path / "er.svg"), no_timestamp=True)
    report = run_error_scaling(cfg)
    assert report.exit_code == EXIT_OK
    _, header, rows = read_rows(str(tmp_path / "er.csv"))
    assert header == ["k", "er", "log_k", "log_er", "ref_line"]
    for row in rows:
        k = int(row[0])
        assert abs(float(row[4]) - (-1.5 - 0.5 * math.log(k))) <= 1e-12


def test_error_scaling_equivariant_witness():
    cfg = ExperimentConfig(experiment="error-scaling", kind="equivariant",
                           k_list=[50, 100, 200, 400], e=0.5, t0=2.0)
    report = run_error_scaling(cfg)
    assert report.exit_code == EXIT_OK
    assert report.summary["max_over_median"] <= 5.0


def test_error_scaling_needs_three_points():
    cfg = ExperimentConfig(experiment="error-scaling", k_list=[10, 20])
    report = run_experiment(cfg)
    assert report.exit_code == EXIT_CONFIG


def test_error_scaling_rejects_stabilizer_t0():
    cfg = ExperimentConfig(experiment="error-scaling", t0=1e-9)
    report = run_experiment(cfg)
    assert report.exit_code == EXIT_CONFIG


# --- diagonal / microsupport ---------------------------------------------------

def test_diagonal_microsupport_runs(tmp_path):
    cfg = ExperimentConfig(experiment="diagonal-microsupport", k=400,
                           k_min=50, k_max=400, k_ratio=1.6,
                           out=str(tmp_path / "diag.csv"), no_timestamp=True)
    report = run_diagonal_and_microsupport(cfg)
    assert report.exit_code == EXIT_OK
    assert report.summary["above_dev"] <= 1e-6
    assert -0.65 <= report.summary["at_slope"] <= -0.35
    assert report.summary["below_r2"] >= 0.9
    assert report.summary["off_r2"] >= 0.9


# --- two projections -------------------------------------------------------------

def test_two_proj_disjoint_decay(tmp_path):
    cfg = ExperimentConfig(experiment="two-proj",
                           u2=[math.sin(2.2), 0.0, math.cos(2.2)],
                           k_list=[20, 40, 80, 160], seed=3,
                           out=str(tmp_path / "tp.csv"), no_timestamp=True)
    report = run_two_proj(cfg)
    assert report.exit_code == EXIT_OK
    assert report.summary["disjoint"] is True
    assert report.summary["slope"] < 0
    assert report.summary["r_squared"] >= 0.9
    assert report.summary["floored"] == 0


def test_two_proj_antipodal_caps_all_floored():
    # antipodal axes give exactly orthogonal ranges: every norm is rounding
    # noise, so every weight is counted at the resolution floor
    cfg = ExperimentConfig(experiment="two-proj", u2=[0.0, 0.0, -1.0],
                           k_list=[20, 40, 80])
    report = run_two_proj(cfg)
    assert report.exit_code == EXIT_OK
    assert report.summary["disjoint"] is True
    assert report.summary["floored"] == 3
    assert "3 of 3 norms at or below the 1e-12 resolution floor" \
        in report.message


def test_two_proj_identical_axes_norm_one():
    cfg = ExperimentConfig(experiment="two-proj", k_list=[10, 20, 30])
    report = run_two_proj(cfg)
    assert report.exit_code == EXIT_OK
    assert report.summary["disjoint"] is False
    assert report.summary["floor"] >= 1.0 - 1e-9


def test_two_proj_overlap_floor():
    cfg = ExperimentConfig(experiment="two-proj",
                           u2=[math.sin(0.8), 0.0, math.cos(0.8)],
                           k_list=[20, 40, 80])
    report = run_two_proj(cfg)
    assert report.exit_code == EXIT_OK
    assert report.summary["floor"] >= 0.5


def test_two_proj_rejects_tangent_caps():
    angle = 2 * math.acos(0.5)
    cfg = ExperimentConfig(experiment="two-proj",
                           u2=[math.sin(angle), 0.0, math.cos(angle)],
                           k_list=[10, 20, 30])
    report = run_experiment(cfg)
    assert report.exit_code == EXIT_CONFIG


@pytest.mark.parametrize("e1", [1.5, -0.2])
def test_two_proj_rejects_levels_outside_unit_interval(e1):
    report = run_experiment(ExperimentConfig(experiment="two-proj", e1=e1,
                                             k_list=[10]))
    assert report.exit_code == EXIT_CONFIG
    assert "cap levels must lie strictly inside (0, 1)" in report.message


# --- CLI ---------------------------------------------------------------------

def test_cli_selftest_roundtrip(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main(["selftest-hilbert", "--dim", "6", "--trials", "10",
                 "--seed", "42", "--out", str(out), "--no-timestamp"])
    assert code == 0
    assert out.exists()
    assert "max deviation" in capsys.readouterr().out


def test_cli_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment": "heatmap", "k": 12, "e": 0.5, "grid_n": 15,
        "kind": "equivariant", "no_timestamp": True,
        "out": str(tmp_path / "h.csv")}))
    assert main(["heatmap", "--config", str(cfg_path)]) == 0


def test_cli_flag_overrides_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "selftest-hilbert",
                                    "trials": 4, "dim": 3}))
    code = main(["selftest-hilbert", "--config", str(cfg_path),
                 "--trials", "2", "--seed", "1"])
    assert code == 0


def test_cli_unknown_config_key_exit_2(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"experiment": "heatmap", "zeta": 1}))
    assert main(["heatmap", "--config", str(cfg_path)]) == EXIT_CONFIG


def test_cli_wrong_subcommand_for_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "two-proj"}))
    assert main(["heatmap", "--config", str(cfg_path)]) == EXIT_CONFIG


def test_threshold_failure_exit_1():
    # a heatmap window far from the unit circle cannot satisfy the ridge
    # check, so the runner must report a threshold failure
    cfg = ExperimentConfig(experiment="heatmap", kind="partial", k=80,
                           e=0.5, grid_min=2.0, grid_max=3.0, grid_n=11)
    report = run_experiment(cfg)
    assert report.exit_code == 1


def test_error_scaling_equivariant_gaussian_offsets():
    cfg = ExperimentConfig(experiment="error-scaling", kind="equivariant",
                           k_list=[50, 100, 200, 400], e=0.5, t0=2.0,
                           a=1.0, b=0.5)
    report = run_error_scaling(cfg)
    assert report.exit_code == EXIT_OK
    assert report.summary["max_over_median"] <= 5.0


def test_run_experiment_unknown_name():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(experiment="nope"))
