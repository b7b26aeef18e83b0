import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import pbklab
from pbklab import harness
from pbklab.cli import build_config, build_parser, main
from pbklab.circle_spectral import SpectralConfig
from pbklab.cp1_geometry import ProjectivePoint
from pbklab.exact_kernels import equivariant_coeff, partial_coeff
from pbklab.harness import (EXIT_CONFIG, EXIT_OK, EXIT_THRESHOLD, READS,
                            ConfigError, ExperimentConfig, format_number,
                            make_rng, run_experiment, write_csv)


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


def test_config_k_grid_takes_as_many_steps_as_weights():
    # 10..11 at 1.05 takes ceil(ln 1.1 / ln 1.05) = 2 steps for 2 weights
    assert ExperimentConfig(k_min=10, k_max=11, k_ratio=1.05).k_grid() == [
        10, 11]
    assert ExperimentConfig(k_min=7, k_max=7, k_ratio=1.01).k_grid() == [7]


# a ratio so close to 1 that the sweep would take about 1.2e8 steps, once
# per factor, for at most 999,991 weights
CRAWLING_SWEEP = {"k_min": 10, "k_max": 10 ** 6, "k_ratio": 1.0000001}


@pytest.mark.parametrize("experiment", ["error-scaling",
                                        "diagonal-microsupport"])
def test_k_sweep_with_more_steps_than_weights_exit_2(experiment):
    report = run_experiment(ExperimentConfig(experiment=experiment,
                                             **CRAWLING_SWEEP))
    assert report.exit_code == EXIT_CONFIG
    assert ("k_ratio 1.0000001 takes 115129261 steps from k_min 10 to "
            "k_max 1000000, more than the 999991 weights between them"
            in report.message)


def test_cli_k_sweep_with_more_steps_than_weights_exit_2(capsys):
    code = main(["error-scaling", "--k-min", "10", "--k-max", "1000000",
                 "--k-ratio", "1.0000001"])
    assert code == EXIT_CONFIG
    assert ("more than the 999991 weights between them; raise k_ratio"
            in capsys.readouterr().err)


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
    # a list, and a generator of the same rows, read once as it is written
    for given in (rows, (r for r in rows)):
        write_csv(str(path), [f"c{i}" for i in range(len(row))], given,
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
        report = run_experiment(cfg)
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
    report = run_experiment(cfg)
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
    assert run_experiment(cfg).exit_code == EXIT_OK


@pytest.mark.parametrize("field", ["trials", "dim"])
@pytest.mark.parametrize("value", [0, -3])
def test_selftest_rejects_nonpositive_trials_and_dim(field, value, capsys):
    # a selftest over no trials, or over no matrices, checks nothing
    code = main(["selftest-hilbert", f"--{field}", str(value)])
    assert code == EXIT_CONFIG
    assert "trials >= 1 and dim >= 1" in capsys.readouterr().err


# --- heatmap -----------------------------------------------------------------

@pytest.mark.parametrize("kind", ["equivariant", "partial"])
def test_heatmap_ridge_on_unit_circle(tmp_path, kind):
    cfg = ExperimentConfig(experiment="heatmap", kind=kind, k=80, e=0.5,
                           grid_n=41, out=str(tmp_path / f"{kind}.csv"),
                           svg=str(tmp_path / f"{kind}.svg"),
                           no_timestamp=True)
    report = run_experiment(cfg)
    assert report.exit_code == EXIT_OK
    assert (tmp_path / f"{kind}.svg").read_text().startswith("<svg")


def test_heatmap_memory_does_not_grow_with_cells(tmp_path):
    # a 121^2 grid is held as two float arrays, 234 kB, and its CSV and SVG
    # lines are written as they are made; a Python object per cell would
    # take over 6 MB
    cfg = ExperimentConfig(experiment="heatmap", kind="partial", k=12, e=0.5,
                           grid_n=121, out=str(tmp_path / "g.csv"),
                           svg=str(tmp_path / "g.svg"), no_timestamp=True)
    assert run_experiment(cfg).exit_code == EXIT_OK    # warm caches
    tracemalloc.start()
    try:
        assert run_experiment(cfg).exit_code == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert len((tmp_path / "g.csv").read_text().splitlines()) == 6 + 121 ** 2


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
    assert (f"config key 'e' takes finite float, got {energy}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("energy", ["inf", "nan"])
def test_cli_error_scaling_names_non_finite_energy(energy, capsys):
    # the level-set check on the base point must not speak first
    assert main(["error-scaling", "--e", energy]) == EXIT_CONFIG
    assert (f"config key 'e' takes finite float, got {energy}"
            in capsys.readouterr().err)


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
    # a flag of no subcommand
    + [(e, "--nodes", "500") for e in ("heatmap", "error-scaling",
                                       "diagonal-microsupport", "two-proj",
                                       "selftest-hilbert")]
    + [("selftest-hilbert", flag, "20")
       for flag in ("--k", "--k-min", "--k-max", "--k-ratio")]
    + [(e, "--k", "20") for e in ("error-scaling", "two-proj")]
    + [("heatmap", flag, "20") for flag in ("--k-min", "--k-max",
                                            "--k-ratio")]
    + [(e, "--svg", "plot.svg") for e in ("selftest-hilbert",
                                          "diagonal-microsupport")])


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
    run_experiment(cfg)
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
    run_experiment(cfg)
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
    values = [float(v) for v in z0.split(",")]
    assert (f"config key 'z0' takes list[finite float] | None, got {values}"
            in capsys.readouterr().err)


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
    assert (f"config key '{name}' takes finite float, got {value}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["error-scaling", "--z0=1.7e308,1.7e308,1,0", "--k-max", "100"],
    ["diagonal-microsupport", "--z0=1.7e308,1.7e308,1,0"],
], ids=["error-scaling", "diagonal-microsupport"])
def test_cli_refuses_a_base_point_whose_modulus_overflows(argv, capsys):
    # z0 = 1.7e308 (1 + i) is finite, but abs() of it overflows: height
    # raised OverflowError, and the run exited 1 with a traceback
    assert main(argv) == EXIT_CONFIG
    assert ("homogeneous coordinates [(1.7e+308+1.7e+308j) : (1+0j)] have a "
            "modulus that overflows" in capsys.readouterr().err)


def test_cli_heatmap_rejects_a_grid_whose_modulus_overflows(capsys):
    # the grid's corner 1.3e308 (1 + i) has a modulus of 1.8e308, past the
    # largest double; abs() of it raised OverflowError, and the run exited
    # 1 with a traceback
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["heatmap", "--k", "10", "--grid-min=0",
                     "--grid-max=1.3e308", "--grid-n", "8"])
    assert code == EXIT_CONFIG
    assert caught == []
    assert ("chart coordinate (1.3e+308+1.3e+308j) has a modulus that "
            "overflows" in capsys.readouterr().err)


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
    report = run_experiment(cfg)
    assert report.exit_code == EXIT_OK
    _, header, rows = read_rows(str(tmp_path / "er.csv"))
    assert header == ["k", "er", "log_k", "log_er", "ref_line"]
    for row in rows:
        k = int(row[0])
        assert abs(float(row[4]) - (-1.5 - 0.5 * math.log(k))) <= 1e-12


def test_error_scaling_equivariant_witness():
    cfg = ExperimentConfig(experiment="error-scaling", kind="equivariant",
                           k_list=[50, 100, 200, 400], e=0.5, t0=2.0)
    report = run_experiment(cfg)
    assert report.exit_code == EXIT_OK
    assert report.summary["max_over_median"] <= 5.0


@pytest.mark.parametrize("k_list", [[50, 100, 200, 400],
                                    [50, 100, 200, 400, 800]])
def test_error_scaling_equivariant_median_matches_numpy(tmp_path, k_list):
    cfg = ExperimentConfig(experiment="error-scaling", kind="equivariant",
                           k_list=k_list, e=0.5, t0=2.0,
                           out=str(tmp_path / "w.csv"), no_timestamp=True)
    report = run_experiment(cfg)
    _, _, rows = read_rows(cfg.out)
    witnesses = [float(row[1]) for row in rows]
    assert report.summary["max_over_median"] == (
        max(witnesses) / float(np.median(witnesses)))


def test_error_scaling_equivariant_imports_no_numpy_ma():
    # np.median imports numpy.ma on its first call, a cost every process
    # running the experiment would pay
    src = os.path.dirname(os.path.dirname(pbklab.__file__))
    code = ("import sys\n"
            "from pbklab.harness import ExperimentConfig, run_experiment\n"
            "run_experiment(ExperimentConfig(experiment='error-scaling', "
            "kind='equivariant', k_list=[50, 100, 200, 400], t0=2.0))\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_error_scaling_equivariant_svg_exit_2(tmp_path, capsys):
    # the equivariant kind writes no plot, so a set svg would be ignored
    svg = tmp_path / "w.svg"
    assert main(["error-scaling", "--kind", "equivariant", "--svg",
                 str(svg)]) == EXIT_CONFIG
    assert "svg is set" in capsys.readouterr().err
    assert not svg.exists()


@pytest.mark.parametrize("kind", ["equivariant", "partial"])
def test_error_scaling_base_point_off_the_level_set_exit_2(kind, capsys):
    # [2:1] has height 4/5, not the level E = 1/2
    assert main(["error-scaling", "--kind", kind, "--z0", "2,0",
                 "--e", "0.5"]) == EXIT_CONFIG
    assert "off the level set E = 0.5" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--a", "--b"])
def test_error_scaling_partial_offsets_exit_2(flag, capsys):
    # the partial kind compares on the orbit itself
    assert main(["error-scaling", "--kind", "partial", flag, "1"]) \
        == EXIT_CONFIG
    assert "offsets a and b must be 0" in capsys.readouterr().err


def test_error_scaling_equivariant_runs_at_zero_time():
    # the single-eigenspace leading term is regular on the whole circle
    report = run_experiment(ExperimentConfig(
        experiment="error-scaling", kind="equivariant", t0=0.0))
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


def test_error_scaling_unknown_kind_exit_2(tmp_path, capsys):
    # a kind outside the field's choices used to run the partial sweep
    message = "config key 'kind' takes one of partial, equivariant, got 'foo'"
    report = run_experiment(ExperimentConfig(experiment="error-scaling",
                                             kind="foo"))
    assert report.exit_code == EXIT_CONFIG
    assert message in report.message
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"kind": "foo"}))
    out = tmp_path / "er.csv"
    assert main(["error-scaling", "--config", str(cfg_path), "--out",
                 str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        main(["error-scaling", "--kind", "foo"])
    assert exc.value.code == EXIT_CONFIG
    assert "invalid choice: 'foo'" in capsys.readouterr().err


def test_k_list_takes_integers_only(tmp_path, capsys):
    # fractions used to be truncated: 10.7, 20.2, 40.9 ran at 10, 20, 40
    fractions = [10.7, 20.2, 40.9]
    report = run_experiment(ExperimentConfig(experiment="error-scaling",
                                             k_list=fractions))
    assert report.exit_code == EXIT_CONFIG
    assert "config key 'k_list' takes list[int] | None" in report.message
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"k_list": fractions}))
    assert main(["error-scaling", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "config key 'k_list'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["error-scaling", "--k-list", "10.7,20.2,40.9"])
    assert exc.value.code == EXIT_CONFIG
    assert ("argument --k-list: cannot parse '10.7,20.2,40.9' as "
            "comma-separated ints") in capsys.readouterr().err


@pytest.mark.parametrize("experiment, fields, names", [
    ("two-proj", {"k_list": [20, 40], "k_max": 100}, ("k_list", "k_max")),
    ("error-scaling", {"k_list": [10, 20, 40], "k_min": 20},
     ("k_list", "k_min")),
    ("diagonal-microsupport", {"k_list": [10, 20, 40], "k_ratio": 2.0},
     ("k_list", "k_ratio")),
], ids=["two-proj", "error-scaling", "diagonal-microsupport"])
def test_weight_field_overridden_by_another_exit_2(experiment, fields, names):
    # a weight field another one overrides would be silently ignored
    report = run_experiment(ExperimentConfig(experiment=experiment, **fields))
    assert report.exit_code == EXIT_CONFIG
    assert "{} and {} are both set".format(*names) in report.message


# --- diagonal / microsupport ---------------------------------------------------

@pytest.mark.parametrize("fields, grid", [
    ({"k_list": [5, 8, 20, 40]}, "[5, 8, 20, 40] has 2"),
    ({"k_min": 10, "k_max": 11, "k_ratio": 1.05}, "[10, 11] has 2"),
], ids=["k-list", "sweep"])
def test_diagonal_microsupport_names_grid_below_the_k_floor(fields, grid):
    report = run_experiment(ExperimentConfig(
        experiment="diagonal-microsupport", k=50, **fields))
    assert report.exit_code == EXIT_CONFIG
    assert ("the fits need at least 3 weights k >= 10, but the k grid "
            + grid) in report.message


def test_diagonal_microsupport_runs(tmp_path):
    cfg = ExperimentConfig(experiment="diagonal-microsupport", k=400,
                           k_min=50, k_max=400, k_ratio=1.6,
                           out=str(tmp_path / "diag.csv"), no_timestamp=True)
    report = run_experiment(cfg)
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
    report = run_experiment(cfg)
    assert report.exit_code == EXIT_OK
    assert report.summary["disjoint"] is True
    assert report.summary["slope"] < 0
    assert report.summary["r_squared"] >= 0.9


@pytest.mark.parametrize("beta, k_list, max_width, full_blocks", [
    # disjoint: the block's 6, 11 and 21 columns at k = 20, 40 and 80 are
    # all needed; at 160 and 320 the corner takes 34 of 41 and 43 of 81
    (2.2, [20, 40, 80, 160, 320], 43, 3),
    (0.8, [20, 40, 80], 21, 3),  # overlapping caps: always the full block
    (0.0, [10, 20], 0, 0),  # identical caps: no block is built
])
def test_two_proj_reports_corner_widths(tmp_path, beta, k_list, max_width,
                                        full_blocks):
    out = tmp_path / "tp.csv"
    report = run_experiment(ExperimentConfig(
        experiment="two-proj", u2=[math.sin(beta), 0.0, math.cos(beta)],
        k_list=k_list, out=str(out)))
    assert report.exit_code == EXIT_OK
    assert report.summary["max_width"] == max_width
    assert report.summary["full_blocks"] == full_blocks
    # the widths reach the summary only, never the CSV
    assert read_rows(str(out))[1] == ["k", "norm", "log_norm"]


def test_two_proj_log_norm_past_the_norm_underflow(tmp_path):
    # beta = 2.2: the norm underflows to 0.0 by k = 60,000, and its log is
    # written all the same, below the one at k = 40,000
    out = tmp_path / "tp.csv"
    run_experiment(ExperimentConfig(
        experiment="two-proj", u2=[math.sin(2.2), 0.0, math.cos(2.2)],
        k_list=[40_000, 60_000], out=str(out)))
    (_, norm_40k, log_40k), (_, norm_60k, log_60k) = \
        [[float(v) for v in row] for row in read_rows(str(out))[2]]
    assert norm_40k > 0.0 and norm_60k == 0.0
    assert math.log(norm_40k) == log_40k
    assert -math.inf < log_60k < log_40k


@pytest.mark.parametrize("k_list, slope", [
    # the norm falls below 1e-12 from k = 1,700 and underflows to 0.0 past
    # k = 46,834; its log decays in a straight line all the same
    ([1000, 1500, 2000, 3000], -0.0161),
    ([20_000, 40_000, 60_000], -0.0158),
], ids=["k1000-3000", "k20000-60000"])
def test_two_proj_fits_the_log_norms_of_tiny_norms(k_list, slope):
    report = run_experiment(ExperimentConfig(
        experiment="two-proj", u2=[math.sin(2.2), 0.0, math.cos(2.2)],
        k_list=k_list))
    assert report.exit_code == EXIT_OK
    assert report.summary["slope"] == pytest.approx(slope, abs=5e-5)
    assert report.summary["r_squared"] >= 0.9999


def test_two_proj_antipodal_caps_fit_the_log_norms():
    # the axis (0, 0, -1) is read as the angle fl(pi), a hair short of the
    # antipode, where the product would vanish: the norms are tiny but not
    # zero, and their logs -365.3, -729.4 and -1457.3 (the last past the
    # norm's underflow) decay in a straight line
    cfg = ExperimentConfig(experiment="two-proj", u2=[0.0, 0.0, -1.0],
                           k_list=[20, 40, 80])
    report = run_experiment(cfg)
    assert report.exit_code == EXIT_OK
    assert report.summary["disjoint"] is True
    assert report.summary["slope"] == pytest.approx(-18.2, abs=0.05)
    assert "log-norm slope -18.1995 per unit k" in report.message


def test_two_proj_identical_axes_norm_one():
    cfg = ExperimentConfig(experiment="two-proj", k_list=[10, 20, 30])
    report = run_experiment(cfg)
    assert report.exit_code == EXIT_OK
    assert report.summary["disjoint"] is False
    assert report.summary["floor"] >= 1.0 - 1e-9


def test_two_proj_overlap_floor():
    cfg = ExperimentConfig(experiment="two-proj",
                           u2=[math.sin(0.8), 0.0, math.cos(0.8)],
                           k_list=[20, 40, 80])
    report = run_experiment(cfg)
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
    # one weight is a one-entry k_list; two-proj reads no k
    out = tmp_path / "tp.csv"
    cfg = ExperimentConfig(experiment="two-proj",
                           u2=[math.sin(0.8), 0.0, math.cos(0.8)],
                           k_list=[10], out=str(out), no_timestamp=True)
    report = run_experiment(cfg)
    assert report.exit_code == EXIT_OK
    assert [r[0] for r in read_rows(str(out))[2]] == ["10"]
    # one weight cannot show a decay on disjoint caps, and says so
    report = run_experiment(ExperimentConfig(
        experiment="two-proj", u2=[math.sin(2.2), 0.0, math.cos(2.2)],
        k_list=[10]))
    assert report.exit_code == EXIT_THRESHOLD
    assert ("the decay fit needs 3 weights with a nonzero norm, got 1"
            in report.message)


@pytest.mark.parametrize("k", [0, -3])
def test_two_proj_rejects_nonpositive_k(k):
    report = run_experiment(ExperimentConfig(experiment="two-proj",
                                             k_list=[k]))
    assert report.exit_code == EXIT_CONFIG
    assert "k values must be positive" in report.message


# --- CLI ---------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["two-proj", "--u1", "-1,0,0", "--u2", "-0.5,0,-0.8660254037844386",
     "--k-list", "10"],
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
    ("u1", None), ("trials", None), ("kind", "foo"), ("u1", [1, True, 0])]


@pytest.mark.parametrize("key, value", BAD_CONFIG_VALUES,
                         ids=[f"{k}={json.dumps(v)}"
                              for k, v in BAD_CONFIG_VALUES])
def test_cli_config_value_of_wrong_type_exit_2(key, value, tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({key: value}))
    assert main(["heatmap", "--config", str(cfg_path), "--k", "10"]) \
        == EXIT_CONFIG
    assert f"config key '{key}'" in capsys.readouterr().err
    # the same check on the config built in Python
    report = run_experiment(ExperimentConfig(
        **{"experiment": "heatmap", "k": 10, key: value}))
    assert report.exit_code == EXIT_CONFIG
    assert f"config key '{key}'" in report.message


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


# a config key the subcommand's runner never reads, with a value other
# than the field's default
UNREAD_CONFIG_KEYS = [
    ("selftest-hilbert", {"svg": "x.svg", "trials": 2, "dim": 3}, "svg"),
    ("selftest-hilbert", {"k_list": [10, 20]}, "k_list"),
    ("selftest-hilbert", {"e": 0.25}, "e"),
    ("heatmap", {"k_list": [10, 20]}, "k_list"),
    ("heatmap", {"u1": [1.0, 0.0, 0.0]}, "u1"),
    ("error-scaling", {"k": 20}, "k"),
    ("error-scaling", {"grid_n": 9}, "grid_n"),
    ("diagonal-microsupport", {"svg": "x.svg"}, "svg"),
    ("diagonal-microsupport", {"kind": "equivariant"}, "kind"),
    ("two-proj", {"e": 0.25}, "e"),
    ("two-proj", {"z0": [1.0, 0.0]}, "z0"),
]


@pytest.mark.parametrize("experiment, document, key", UNREAD_CONFIG_KEYS,
                         ids=[f"{e}-{k}" for e, _, k in UNREAD_CONFIG_KEYS])
def test_cli_config_key_its_runner_never_reads_exit_2(experiment, document,
                                                      key, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(document))
    message = f"config key '{key}' is set, but {experiment} never reads it"
    assert main([experiment, "--config", str(cfg_path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    report = run_experiment(ExperimentConfig(experiment=experiment,
                                             **document))
    assert report.exit_code == EXIT_CONFIG
    assert message in report.message


@pytest.mark.parametrize("experiment", sorted(READS))
def test_cli_config_at_defaults_passes_every_key(experiment, tmp_path):
    # a full document whose unread keys hold their defaults, as to_json
    # writes it, loads; so does k_list where the runner sweeps k
    fields = {"k_list": [10, 20]} if "k_list" in READS[experiment] else {}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(ExperimentConfig(experiment=experiment,
                                         **fields).to_json())
    config = build_config(build_parser().parse_args(
        [experiment, "--config", str(cfg_path)]))
    assert config == ExperimentConfig(experiment=experiment, **fields)


# a value of the right type other than the default, for every field
OFF_DEFAULT = {
    "seed": 3, "out": "x.csv", "svg": "x.svg", "no_timestamp": True, "k": 20,
    "k_min": 20, "k_max": 200, "k_ratio": 2.0, "k_list": [10, 20],
    "e": 0.25, "t0": 1.0, "a": 1.0, "b": 1.0, "z0": [1.0, 0.0],
    "kind": "equivariant", "grid_min": -1.0, "grid_max": 1.0,
    "grid_n": 9, "dim": 3, "trials": 2, "u1": [1.0, 0.0, 0.0],
    "u2": [1.0, 0.0, 0.0], "e1": 0.5, "e2": 0.5}
UNREAD_FIELDS = [(e, name) for e in sorted(READS) for name in OFF_DEFAULT
                 if name not in READS[e]]


def test_off_default_values_cover_every_field():
    defaults = ExperimentConfig()
    assert set(OFF_DEFAULT) | {"experiment"} == set(vars(defaults))
    for name, value in OFF_DEFAULT.items():
        assert value != getattr(defaults, name), name


@pytest.mark.parametrize("experiment", sorted(READS))
def test_every_registered_flag_reaches_its_config_field(experiment):
    # every field the experiment reads is a flag of its subcommand
    names = [n for n in READS[experiment] if n != "experiment"]
    argv = [experiment]
    for name in names:
        flag, value = "--" + name.replace("_", "-"), OFF_DEFAULT[name]
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv.append(f"{flag}={','.join(map(str, value))}")
        else:
            argv += [flag, str(value)]
    config = build_config(build_parser().parse_args(argv))
    assert config.experiment == experiment
    assert {n: getattr(config, n) for n in names} == \
        {n: OFF_DEFAULT[n] for n in names}


@pytest.mark.parametrize("experiment, name", UNREAD_FIELDS,
                         ids=[f"{e}-{n}" for e, n in UNREAD_FIELDS])
def test_every_unread_field_off_default_exits_2(experiment, name, tmp_path,
                                                capsys):
    # through run_experiment and through a --config file, before any work
    message = f"config key '{name}' is set, but {experiment} never reads it"
    report = run_experiment(ExperimentConfig(experiment=experiment,
                                             **{name: OFF_DEFAULT[name]}))
    assert report.exit_code == EXIT_CONFIG
    assert message in report.message
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({name: OFF_DEFAULT[name]}))
    assert main([experiment, "--config", str(cfg_path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


# every float and list-of-float field, on an experiment that reads it;
# error-scaling's offsets on the equivariant kind, which reads them
FLOAT_FIELDS = [
    ("heatmap", "e"), ("heatmap", "grid_min"), ("heatmap", "grid_max"),
    ("heatmap", "z0"), ("error-scaling", "k_ratio"), ("error-scaling", "t0"),
    ("error-scaling", "a"), ("error-scaling", "b"), ("two-proj", "e1"),
    ("two-proj", "e2"), ("two-proj", "u1"), ("two-proj", "u2")]
NON_FINITE_FIELDS = [(e, name, bad) for e, name in FLOAT_FIELDS
                     for bad in (math.nan, math.inf, -math.inf)]


def test_float_fields_cover_every_float_field():
    floats = {f.name for f in dataclasses.fields(ExperimentConfig)
              if "float" in f.type}
    assert {name for _, name in FLOAT_FIELDS} == floats
    assert all(name in READS[e] for e, name in FLOAT_FIELDS)


@pytest.mark.parametrize("experiment, name, bad", NON_FINITE_FIELDS,
                         ids=[f"{e}-{n}={b}" for e, n, b in NON_FINITE_FIELDS])
def test_non_finite_float_exits_2(experiment, name, bad, tmp_path, capsys):
    # one rule for every float, also where no library check follows:
    # equivariant error-scaling hands a and b to the probe unchecked
    value = ([bad] + OFF_DEFAULT[name][1:]
             if isinstance(OFF_DEFAULT[name], list) else bad)
    fields = {name: value}
    if name in ("a", "b"):
        fields["kind"] = "equivariant"
    field_type = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    message = (f"config key '{name}' takes "
               f"{field_type[name].replace('float', 'finite float')}, "
               f"got {value!r}")
    report = run_experiment(ExperimentConfig(experiment=experiment, **fields))
    assert report.exit_code == EXIT_CONFIG
    assert message in report.message
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(fields))
    assert main([experiment, "--config", str(cfg_path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


# the smallest run of each experiment, to reach its writes
SMALL_RUNS = {
    "selftest-hilbert": {"trials": 2, "dim": 3},
    "heatmap": {"k": 10, "grid_n": 9},
    "error-scaling": {"k_list": [10, 20, 40]},
    "diagonal-microsupport": {"k": 50, "k_list": [10, 20, 40]},
    "two-proj": {"k_list": [10]},
}
UNWRITABLE = [(e, "out") for e in SMALL_RUNS] + [
    (e, "svg") for e in ("heatmap", "error-scaling", "two-proj")]


@pytest.mark.parametrize("experiment, key", UNWRITABLE,
                         ids=[f"{e}-{k}" for e, k in UNWRITABLE])
def test_output_path_under_a_file_exits_2(experiment, key, tmp_path, capsys):
    # the directory the output needs is a regular file: exit 2, naming it
    blocker = tmp_path / "file"
    blocker.write_text("")
    fields = {**SMALL_RUNS[experiment], key: str(blocker / f"x.{key}")}
    report = run_experiment(ExperimentConfig(experiment=experiment, **fields))
    assert report.exit_code == EXIT_CONFIG
    assert f"File exists: '{blocker}'" in report.message
    assert report.csv_path is None
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(fields))
    assert main([experiment, "--config", str(cfg_path)]) == EXIT_CONFIG
    assert f"File exists: '{blocker}'" in capsys.readouterr().err


def test_unusable_svg_path_leaves_no_csv(tmp_path, capsys):
    # both paths are checked before the run, so the CSV is not written
    # when the SVG cannot be
    (tmp_path / "file").write_text("")
    out, svg = tmp_path / "h.csv", tmp_path / "file" / "h.svg"
    assert main(["heatmap", "--k", "10", "--grid-n", "9", "--out", str(out),
                 "--svg", str(svg)]) == EXIT_CONFIG
    assert f"config key 'svg' names '{svg}'" in capsys.readouterr().err
    assert not out.exists()


def test_refused_run_leaves_no_directory_it_made(tmp_path, capsys):
    # the runner refuses an svg for the equivariant kind after the output
    # directories are made; a path refused by the check after the out
    # path's directories are made: neither run leaves a directory behind
    svg = tmp_path / "e" / "sub" / "p.svg"
    assert main(["error-scaling", "--kind", "equivariant", "--k-list",
                 "10,20,40", "--svg", str(svg)]) == EXIT_CONFIG
    assert "svg is set, but this kind writes no plot" \
        in capsys.readouterr().err
    (tmp_path / "file").write_text("")
    out, svg = tmp_path / "d" / "new" / "h.csv", tmp_path / "file" / "h.svg"
    assert main(["heatmap", "--k", "10", "--grid-n", "9", "--out", str(out),
                 "--svg", str(svg)]) == EXIT_CONFIG
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("key", ["out", "svg"])
def test_output_path_that_is_a_directory_exits_2(key, tmp_path):
    report = run_experiment(ExperimentConfig(
        experiment="heatmap", k=10, grid_n=9, **{key: str(tmp_path)}))
    assert report.exit_code == EXIT_CONFIG
    assert (f"config key '{key}' names '{tmp_path}', which cannot be "
            f"written: it is a directory") in report.message


@pytest.mark.parametrize("flag, value, fragment", [
    ("--a", "3000", "probe offset a = 3000.0 at weight k = 10 asks the "
                    "gradient flow for e^948.683"),
    ("--b", "-3000", "probe offset b = -3000.0 at weight k = 10"),
    ("--a", "1000", "the remainder witness is 0 at 12 of 12 weights"),
], ids=["a-overflows", "b-underflows", "witness-underflows"])
def test_error_scaling_offset_beyond_float_range_exit_2(flag, value,
                                                        fragment, capsys):
    # e^(a/sqrt k) past e^700 is refused where the probe point is formed;
    # a smaller offset that still takes every witness to 0 leaves
    # max/median undefined
    report = run_experiment(ExperimentConfig(
        experiment="error-scaling", kind="equivariant", k_max=100,
        **{flag[2:]: float(value)}))
    assert report.exit_code == EXIT_CONFIG
    assert fragment in report.message
    assert main(["error-scaling", "--kind", "equivariant", "--k-max", "100",
                 flag, value]) == EXIT_CONFIG
    assert fragment in capsys.readouterr().err


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
    report = run_experiment(cfg)
    assert report.exit_code == EXIT_OK
    assert report.summary["max_over_median"] <= 5.0


def test_run_experiment_unknown_name(capsys):
    # a report with exit 2, like every other bad config, not a raise
    report = run_experiment(ExperimentConfig(experiment="nope"))
    assert report.exit_code == EXIT_CONFIG
    assert "unknown experiment 'nope'; choose one of selftest-hilbert" \
        in report.message
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == EXIT_CONFIG
    assert "invalid choice: 'nope'" in capsys.readouterr().err
