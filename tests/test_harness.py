import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import pbklab
from pbklab import harness
from pbklab.cli import (COMMON_FLAGS, EXPERIMENT_FLAGS, FLAGS, VECTOR_FLAGS,
                        build_config, build_parser, main)
from pbklab.circle_spectral import SpectralConfig
from pbklab.cp1_geometry import ProjectivePoint
from pbklab.exact_kernels import equivariant_coeff, partial_coeff
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


def test_write_csv_rows_match_format_number(tmp_path):
    # each row's % template prints every value as format_number does; the
    # second row shares the first one's types, the third reverses them
    row = (3, np.int64(-7), True, 10 ** 30, 0.1, np.float64(2.0 / 3.0),
           math.inf, -math.inf, math.nan, -0.0, 5e-324, "above",
           np.float32(0.1), np.uint64(2 ** 64 - 1), np.bool_(True))
    same_types = (0, np.int64(2 ** 62), False, -10 ** 40, 1e300,
                  np.float64(-1e-300), 2.5, -2.5, 0.0, 1.0, -5e-324, "",
                  np.float32(-3.5), np.uint64(0), np.bool_(False))
    rows = [row, same_types, row[::-1]]
    path = tmp_path / "mixed.csv"
    write_csv(str(path), [f"c{i}" for i in range(len(row))], rows,
              ["experiment: demo"], True)
    lines = path.read_text().splitlines()
    assert lines[2:] == [",".join(map(format_number, r)) for r in rows]
    # the rule itself: integers in full, floats to 17 digits, others as str
    assert lines[2] == ("3,-7,1,1000000000000000000000000000000,"
                        "0.10000000000000001,0.66666666666666663,inf,-inf,"
                        "nan,-0,4.9406564584124654e-324,above,0.1,"
                        "18446744073709551615,True")


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
    nodes = [int(row[3]) for row in rows]
    assert report.summary["nodes"] == sum(nodes)
    assert report.summary["max_nodes"] == max(nodes)
    assert (f"{sum(nodes)} quadrature nodes (at most {max(nodes)} per "
            f"projector)") in report.message


def test_selftest_dimension_one_always_passes():
    cfg = ExperimentConfig(experiment="selftest-hilbert", dim=1, trials=10,
                           seed=1)
    assert run_hilbert_selftest(cfg).exit_code == EXIT_OK


@pytest.mark.parametrize("field", ["trials", "dim"])
@pytest.mark.parametrize("value", [0, -3])
def test_selftest_rejects_nonpositive_trials_and_dim(field, value, capsys):
    # a selftest over no trials, or over no matrices, checks nothing
    code = main(["selftest-hilbert", f"--{field}", str(value)])
    assert code == EXIT_CONFIG
    assert "trials >= 1 and dim >= 1" in capsys.readouterr().err


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


@pytest.mark.parametrize("fields, fragment", [
    ({"z0": [1.0, 0.0, 0.0, 0.0]}, "off the chart"),
    ({"grid_min": 0.5, "grid_max": 0.5}, "grid_min must be below grid_max"),
], ids=["off-chart-base-point", "empty-grid-window"])
def test_heatmap_rejects_bad_input_exit_2(fields, fragment):
    cfg = ExperimentConfig(experiment="heatmap", kind="partial", k=12, e=0.5,
                           grid_n=9, **fields)
    report = run_experiment(cfg)
    assert report.exit_code == EXIT_CONFIG
    assert fragment in report.message


@pytest.mark.parametrize("energy", ["inf", "nan"])
def test_cli_heatmap_rejects_non_finite_energy(energy, capsys):
    code = main(["heatmap", "--e", energy, "--k", "10"])
    assert code == EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("energy", ["inf", "nan"])
def test_cli_error_scaling_names_non_finite_energy(energy, capsys):
    # the level-set check on the base point must not speak first
    assert main(["error-scaling", "--e", energy]) == EXIT_CONFIG
    assert f"energy level {energy} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["diagonal-microsupport",
                                        "selftest-hilbert", "two-proj"])
def test_cli_rejects_energy_flag_where_unread(experiment, capsys):
    # these experiments never read the energy level, so --e would be
    # silently ignored; argparse exits 2 on the unknown (for two-proj:
    # ambiguous, --e1 or --e2) flag
    with pytest.raises(SystemExit) as exc:
        main([experiment, "--e", "nan", "--k", "50"])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert ("unrecognized arguments: --e nan" in err
            or "ambiguous option: --e could match --e1, --e2" in err)


# every flag an experiment never reads, with a value it would accept
UNREAD_FLAGS = (
    [(e, flag, "1") for e in ("selftest-hilbert", "heatmap",
                              "diagonal-microsupport", "two-proj")
     for flag in ("--t0", "--a", "--b")]
    + [(e, "--kind", "equivariant") for e in ("selftest-hilbert",
                                              "diagonal-microsupport",
                                              "two-proj")]
    + [(e, "--z0", "0.5,0.5") for e in ("selftest-hilbert", "two-proj")]
    + [(e, "--nodes", "500") for e in ("heatmap", "error-scaling",
                                       "diagonal-microsupport", "two-proj")]
    + [("selftest-hilbert", flag, "20")
       for flag in ("--k", "--k-min", "--k-max", "--k-ratio")]
    + [("error-scaling", "--k", "20")]
    + [("heatmap", flag, "20") for flag in ("--k-min", "--k-max",
                                            "--k-ratio")])


@pytest.mark.parametrize("experiment,flag,value", UNREAD_FLAGS,
                         ids=[f"{e}{f}" for e, f, _ in UNREAD_FLAGS])
def test_cli_rejects_flags_an_experiment_never_reads(experiment, flag,
                                                     value, capsys):
    # a flag the runner never reads would run silently at the default;
    # argparse exits 2 on it (unrecognized, or an ambiguous prefix)
    with pytest.raises(SystemExit) as exc:
        main([experiment, flag, value])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert (f"unrecognized arguments: {flag}" in err
            or f"ambiguous option: {flag} could match" in err)


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


@pytest.mark.parametrize("kind, digest", [
    ("partial",
     "e7eb92fe6339a905a3b1c2c7be40ae4d65d2e38fd4de92d7d52781ff08c3f64b"),
    ("equivariant",
     "61cd0e0d6ec91830c5a1c8c20b3d83e9484871b913d272c11a39a1b1479a7bbd"),
], ids=["partial", "equivariant"])
def test_heatmap_csv_bytes_match_per_point_calls(tmp_path, kind, digest):
    # bit for bit: the grid, which holds zeta = 0, rebuilt from one kernel
    # call per cell [zeta:1]; a base point off the real axis makes the map
    # change under zeta -> conj(zeta).  The SHA-256 pins both routes to the
    # bytes the per-cell LogComplex route wrote, so a drift shared by the
    # grid and the per-point calls fails too
    cfg = ExperimentConfig(experiment="heatmap", kind=kind, k=12, e=0.5,
                           grid_n=9, grid_min=-1.0, grid_max=1.0,
                           z0=[0.6, 0.3], out=str(tmp_path / "g.csv"),
                           no_timestamp=True)
    run_orbit_heatmap(cfg)
    spectral = SpectralConfig(12, 0.5)
    z = cfg.base_point()
    axis = np.linspace(-1.0, 1.0, 9)
    assert 0.0 in axis
    lines = ["re_zeta,im_zeta,abs_value,logmag"]
    for im in axis:
        for re in axis:
            w = ProjectivePoint(complex(re, im), 1)
            val = (equivariant_coeff(12, spectral.cut_index, z, w)
                   if kind == "equivariant" else partial_coeff(spectral, z, w))
            lines.append(",".join(map(format_number,
                                      (re, im, val.abs(), val.logmag))))
    text = (tmp_path / "g.csv").read_text()
    assert text.endswith("\n" + "\n".join(lines) + "\n")
    if kind == "equivariant":
        assert lines[41] == "0,0,0,-inf"
    assert hashlib.sha256((tmp_path / "g.csv").read_bytes()).hexdigest() \
        == digest


@pytest.mark.parametrize("experiment, z0", [
    ("heatmap", "nan,1"), ("error-scaling", "nan,1"),
    ("diagonal-microsupport", "inf,0"), ("heatmap", "1,0,-inf,0"),
])
def test_cli_rejects_non_finite_base_point(experiment, z0, capsys):
    # named as z0, not as a failed float-to-integer conversion deep in the
    # level window or as a non-finite spectral cut
    assert main([experiment, f"--z0={z0}"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "z0 entries must be finite" in err


@pytest.mark.parametrize("flag, value", [
    ("--grid-max", "inf"), ("--grid-max", "nan"), ("--grid-min", "-inf"),
    ("--grid-min", "nan"),
])
def test_cli_heatmap_rejects_non_finite_grid_bound(flag, value, capsys):
    # rejected before np.linspace, which would warn on an infinite bound
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["heatmap", f"{flag}={value}", "--k", "12",
                     "--grid-n", "9"])
    assert code == EXIT_CONFIG
    assert caught == []
    name = flag[2:].replace("-", "_")
    assert f"{name} must be finite, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, fragment", [
    (["heatmap", "--kind", "equivariant", "--e", "2", "--k", "12"],
     "ceil(kE) = 24 lies outside 0..12 at E = 2, k = 12"),
    (["heatmap", "--kind", "equivariant", "--e", "-0.25", "--k", "12"],
     "ceil(kE) = -3 lies outside 0..12 at E = -0.25, k = 12"),
    (["error-scaling", "--kind", "equivariant", "--e", "2", "--k-max",
      "100"], "ceil(kE) = 20 lies outside 0..10 at E = 2, k = 10"),
    (["error-scaling", "--kind", "equivariant", "--e", "-0.25"],
     "ceil(kE) = -2 lies outside 0..10 at E = -0.25, k = 10"),
], ids=["heatmap-above", "heatmap-below", "error-scaling-above",
        "error-scaling-below"])
def test_cli_equivariant_level_outside_levels(argv, fragment, capsys,
                                              monkeypatch):
    # the check names E, k and the level, and runs before any kernel call
    def no_kernel(*args):
        raise AssertionError("kernel called before the level check")
    monkeypatch.setattr(harness, "equivariant_coeff", no_kernel)
    assert main(argv) == EXIT_CONFIG
    assert f"equivariant level {fragment}" in capsys.readouterr().err


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


@pytest.mark.parametrize("k_list", [[50, 100, 200, 400],
                                    [50, 100, 200, 400, 800]])
def test_error_scaling_equivariant_median_matches_numpy(tmp_path, k_list):
    cfg = ExperimentConfig(experiment="error-scaling", kind="equivariant",
                           k_list=k_list, e=0.5, t0=2.0,
                           out=str(tmp_path / "w.csv"), no_timestamp=True)
    report = run_error_scaling(cfg)
    _, _, rows = read_rows(cfg.out)
    witnesses = [float(row[1]) for row in rows]
    assert report.summary["max_over_median"] == (
        max(witnesses) / float(np.median(witnesses)))


def test_error_scaling_equivariant_imports_no_numpy_ma():
    # np.median imports numpy.ma on its first call, a cost every process
    # running the experiment would pay
    src = os.path.dirname(os.path.dirname(pbklab.__file__))
    code = ("import sys\n"
            "from pbklab.harness import ExperimentConfig, run_error_scaling\n"
            "run_error_scaling(ExperimentConfig(experiment='error-scaling', "
            "kind='equivariant', k_list=[50, 100, 200, 400], t0=2.0))\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


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
    # noise, so every weight is counted at the fit's cut-off
    cfg = ExperimentConfig(experiment="two-proj", u2=[0.0, 0.0, -1.0],
                           k_list=[20, 40, 80])
    report = run_two_proj(cfg)
    assert report.exit_code == EXIT_OK
    assert report.summary["disjoint"] is True
    assert report.summary["floored"] == 3
    assert "3 of 3 norms at or below the 1e-12 fit cut-off" \
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


def test_two_proj_single_weight_k(tmp_path):
    # k_list first, then k, then the k_min..k_max sweep
    out = tmp_path / "tp.csv"
    cfg = ExperimentConfig(experiment="two-proj",
                           u2=[math.sin(0.8), 0.0, math.cos(0.8)], k=10,
                           out=str(out), no_timestamp=True)
    report = run_two_proj(cfg)
    assert report.exit_code == EXIT_OK
    assert [r[0] for r in read_rows(str(out))[2]] == ["10"]
    assert "0 of 1 norms" in report.message
    cfg.k_list = [20, 40]
    run_two_proj(cfg)
    assert [r[0] for r in read_rows(str(out))[2]] == ["20", "40"]
    # one weight cannot show a decay on disjoint caps, and says so
    report = run_two_proj(ExperimentConfig(
        experiment="two-proj", u2=[math.sin(2.2), 0.0, math.cos(2.2)], k=10))
    assert report.exit_code == 1
    assert "the decay fit needs 3 norms above the cut-off, got 1" \
        in report.message


@pytest.mark.parametrize("k", [0, -3])
def test_two_proj_rejects_nonpositive_k(k):
    report = run_experiment(ExperimentConfig(experiment="two-proj", k=k))
    assert report.exit_code == EXIT_CONFIG
    assert "k must be a positive integer" in report.message


# --- CLI ---------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["two-proj", "--u1", "-1,0,0", "--u2", "-0.5,0,-0.8660254037844386",
     "--k", "10"],
    ["heatmap", "--z0", "-0.5,0.3", "--k", "12", "--grid-n", "9"],
], ids=["two-proj", "heatmap"])
def test_cli_vector_flag_with_negative_first_component(tmp_path, argv):
    # '--u2 -0.5,...' means what '--u2=-0.5,...' means
    joined = []
    for arg in argv:
        if joined and joined[-1] in ("--u1", "--u2", "--z0"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    outs = [tmp_path / "spaced.csv", tmp_path / "joined.csv"]
    codes = [main(args + ["--out", str(out), "--no-timestamp"])
             for args, out in zip((argv, joined), outs)]
    assert codes[0] == codes[1] != EXIT_CONFIG
    assert outs[0].read_bytes() == outs[1].read_bytes()
    if argv[0] == "two-proj":
        assert "# axes: [-1.0, 0.0, 0.0] / [-0.5" in outs[0].read_text()


def test_cli_vector_flag_missing_value_still_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["heatmap", "--z0", "--k", "12"])
    assert exc.value.code == EXIT_CONFIG


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


BAD_CONFIG_VALUES = [
    ("e", "0.5"), ("seed", "a"), ("e", None), ("k", 10.5), ("k", True),
    ("grid_n", 9.0), ("no_timestamp", 1), ("kind", 3), ("out", 5),
    ("z0", [1, "a"]), ("z0", "1,0"), ("k_list", [10, True]),
    ("u1", None), ("trials", None)]


@pytest.mark.parametrize("key, value", BAD_CONFIG_VALUES,
                         ids=[f"{k}={json.dumps(v)}"
                              for k, v in BAD_CONFIG_VALUES])
def test_cli_config_value_of_wrong_type_exit_2(key, value, tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({key: value}))
    assert main(["heatmap", "--config", str(cfg_path), "--k", "10"]) \
        == EXIT_CONFIG
    assert f"config key '{key}'" in capsys.readouterr().err


def test_cli_valid_config_writes_the_csv_of_its_config(tmp_path):
    fields = {"experiment": "heatmap", "k": 10, "e": 0.5, "grid_n": 9,
              "grid_min": -1, "seed": 3, "z0": [1, 0.5], "k_list": None,
              "no_timestamp": True}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**fields,
                                    "out": str(tmp_path / "json.csv")}))
    assert main(["heatmap", "--config", str(cfg_path)]) == EXIT_OK
    direct = ExperimentConfig(**fields, out=str(tmp_path / "direct.csv"))
    assert run_experiment(direct).exit_code == EXIT_OK
    assert ((tmp_path / "json.csv").read_bytes()
            == (tmp_path / "direct.csv").read_bytes())


def _flag_argument(flag, i):
    """A command-line value for flag, distinct per i, and the config value
    it should give."""
    settings = FLAGS[flag]
    if settings.get("action") == "store_true":
        return [flag], True
    if flag in VECTOR_FLAGS:
        return [f"{flag}={i},0,1"], [float(i), 0.0, 1.0]
    if "choices" in settings:
        return [flag, settings["choices"][-1]], settings["choices"][-1]
    kind = settings.get("type", str)
    value = {int: i, float: i + 0.5}.get(kind, f"v{i}")
    return [flag, str(value)], value


@pytest.mark.parametrize("experiment", sorted(EXPERIMENT_FLAGS))
def test_every_registered_flag_reaches_its_config_field(experiment):
    flags = [f for f in COMMON_FLAGS + EXPERIMENT_FLAGS[experiment][1]
             if f != "--config"]
    argv, expected = [experiment], {}
    for i, flag in enumerate(flags, start=2):
        args, expected[flag[2:].replace("-", "_")] = _flag_argument(flag, i)
        argv += args
    config = build_config(build_parser().parse_args(argv))
    assert config.experiment == experiment
    assert {name: getattr(config, name) for name in expected} == expected


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
