"""Experiment configuration, sweep runners, and CSV/SVG emission.

Every experiment is a pure function of an ExperimentConfig, and
run_experiment is the one way to run it: it checks the config, then
dispatches it to the experiment's runner.  Randomness comes from a
counter-based Philox generator keyed by the config seed, so identical
configs yield bit-identical CSV output (modulo the optional timestamp
header line).  Numeric columns are printed with 17 significant
digits, which round-trips IEEE doubles exactly.

Exit codes: 0 success, 1 an acceptance threshold failed, 2 configuration
or precondition error.
"""
from __future__ import annotations

import dataclasses
import datetime
import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .asymptotics import (LEVEL_SET_TOL, ScalingProbe, error_metric,
                          linear_fit, loglog_fit, predict_equivariant)
from .circle_spectral import (SpectralConfig, default_node_count,
                              random_integer_spectrum_operator,
                              spectral_projector_eig,
                              spectral_projector_quadrature)
from .cp1_geometry import ChartError, ProjectivePoint, height
from .exact_kernels import (bergman_coeff, equivariant_coeff, partial_coeff)
from .rotated_observables import (RotationAxis, caps_disjoint, caps_tangent,
                                  corner_width, projection_product_log_norm,
                                  projection_product_norm)

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    """Raised for malformed experiment configurations."""


def make_rng(seed: int) -> np.random.Generator:
    """The project RNG: counter-based Philox keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(int(seed) & 0xFFFFFFFFFFFFFFFF))


def _admits(annotation: str, value) -> bool:
    """Whether a value fits a field annotated `base` or `base | None`: an
    int field takes ints, a float field finite ints or floats, a list
    field a list of values its element type takes, and bool, which is an
    int to isinstance, only a bool field."""
    base, _, optional = annotation.partition(" | ")
    if value is None:
        return optional == "None"
    if base.startswith("list["):
        return isinstance(value, list) and all(
            _admits(base[5:-1], v) for v in value)
    if isinstance(value, bool):
        return base == "bool"
    if base == "float":
        # nan and +-inf fail the comparison, and so does an int beyond
        # the largest double
        return (isinstance(value, (int, float))
                and abs(value) <= sys.float_info.max)
    return isinstance(value, {"int": int, "str": str}.get(base, ()))


@dataclass
class ExperimentConfig:
    """Flat bundle of experiment parameters, JSON round-trippable.

    A field's metadata holds its command-line flag's help and choices."""

    experiment: str = ""
    seed: int = 7
    out: str | None = field(default=None, metadata={"help": "CSV output path"})
    svg: str | None = field(default=None,
                            metadata={"help": "SVG plot output path"})
    no_timestamp: bool = False
    # sweep geometry
    k: int | None = None
    k_min: int = 10
    k_max: int = 1000
    k_ratio: float = 1.25
    k_list: list[int] | None = field(default=None, metadata={
        "help": "comma-separated weights, in place of the k_min..k_max sweep"})
    e: float = 0.5
    t0: float = math.pi / 2.0
    a: float = 0.0
    b: float = 0.0
    z0: list[float] | None = field(default=None, metadata={
        "help": "comma-separated re,im (affine) or re0,im0,re1,im1 "
                "(homogeneous)"})
    kind: str = field(default="partial", metadata={
        "choices": ("partial", "equivariant")})
    # heatmap grid
    grid_min: float = -1.6
    grid_max: float = 1.6
    grid_n: int = 81
    # selftest
    dim: int = field(default=8, metadata={"help": "max matrix dimension"})
    trials: int = 100
    # two-projection experiment
    u1: list[float] = field(default_factory=lambda: [0.0, 0.0, 1.0],
                            metadata={"help": "comma-separated axis vector"})
    u2: list[float] = field(default_factory=lambda: [0.0, 0.0, 1.0],
                            metadata={"help": "comma-separated axis vector"})
    e1: float = 0.75
    e2: float = 0.75

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """The config a JSON object sets; run_experiment checks its values."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    def base_point(self) -> ProjectivePoint:
        if self.z0 is None:
            return ProjectivePoint(1.0, 1.0)
        vals = [float(v) for v in self.z0]
        if len(vals) == 2:
            return ProjectivePoint(complex(vals[0], vals[1]), 1.0)
        if len(vals) == 4:
            return ProjectivePoint(complex(vals[0], vals[1]),
                                   complex(vals[2], vals[3]))
        raise ConfigError("z0 must have 2 (affine) or 4 (homogeneous) entries")

    def k_grid(self) -> list[int]:
        """k_list if set, else the geometric k_min..k_max sweep."""
        if self.k_list:
            defaults = ExperimentConfig()
            for other in ("k_min", "k_max", "k_ratio"):
                if getattr(self, other) != getattr(defaults, other):
                    raise ConfigError(f"k_list and {other} are both set; "
                                      f"k_list would override {other}")
            if any(v < 1 for v in self.k_list):
                raise ConfigError("k values must be positive")
            return list(self.k_list)
        if self.k_min < 1 or self.k_max < self.k_min or self.k_ratio <= 1.0:
            raise ConfigError("need 1 <= k_min <= k_max and k_ratio > 1")
        # the sweep takes one step per factor k_ratio, and steps beyond one
        # per integer in k_min..k_max can only repeat a weight
        steps = math.ceil(math.log(self.k_max / self.k_min)
                          / math.log1p(self.k_ratio - 1.0))
        if steps > self.k_max - self.k_min + 1:
            raise ConfigError(
                f"k_ratio {self.k_ratio!r} takes {steps} steps from k_min "
                f"{self.k_min} to k_max {self.k_max}, more than the "
                f"{self.k_max - self.k_min + 1} weights between them; "
                f"raise k_ratio")
        ks = []
        value = float(self.k_min)
        while value <= self.k_max + 1e-9:
            candidate = int(round(value))
            if not ks or candidate > ks[-1]:
                ks.append(candidate)
            value *= self.k_ratio
        if ks[-1] != self.k_max:
            ks.append(self.k_max)
        return ks


@dataclass
class RunReport:
    exit_code: int
    message: str
    summary: dict
    csv_path: str | None = None


def _conversion(kind: type) -> str:
    """The % conversion for a value of this type: integers (numpy's and
    bool included) in full, floats (np.float64 included) to 17 significant
    digits, so they read back exactly, anything else as str."""
    if issubclass(kind, (int, np.integer)):
        return "%d"
    if issubclass(kind, float):
        return "%.17g"
    return "%s"


def format_number(value) -> str:
    return _conversion(type(value)) % (value,)


def write_csv(path: str, columns: list[str], rows: Iterable[tuple],
              meta: list[str], no_timestamp: bool) -> None:
    """The meta lines as comments, the header, then one line per row.

    rows may be any iterable; it is read once, and each row's line is
    written to the open file as it comes, so no line outlives its row.
    """
    # each row goes through one % template, built once per sequence of
    # value types
    templates: dict[tuple, str] = {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for entry in meta:
            fh.write(f"# {entry}\n")
        if not no_timestamp:
            stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
            fh.write(f"# timestamp: {stamp}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            kinds = tuple(map(type, row))
            template = templates.get(kinds)
            if template is None:
                template = templates[kinds] = (
                    ",".join(map(_conversion, kinds)) + "\n")
            fh.write(template % tuple(row))


def _emit_csv(config: ExperimentConfig, columns: list[str],
              rows: Iterable[tuple], meta: list[str]) -> None:
    """write_csv to config.out, when the config names one."""
    if config.out:
        write_csv(config.out, columns, rows, meta, config.no_timestamp)


# ---------------------------------------------------------------------------
# minimal self-contained SVG plotting
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H, _SVG_PAD = 640, 440, 56


def _svg_open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]


def svg_line_plot(path: str, xs, ys, title: str, xlabel: str, ylabel: str,
                  extra_ys=None, extra_label: str | None = None) -> None:
    """A single-series (plus optional reference series) line plot."""
    xs = list(map(float, xs))
    ys = list(map(float, ys))
    all_y = ys + (list(map(float, extra_ys)) if extra_ys is not None else [])
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return _SVG_PAD + (x - x_lo) / x_span * (_SVG_W - 2 * _SVG_PAD)

    def sy(y):
        return _SVG_H - _SVG_PAD - (y - y_lo) / y_span * (_SVG_H - 2 * _SVG_PAD)

    parts = _svg_open(title)
    parts.append(f'<rect x="{_SVG_PAD}" y="{_SVG_PAD}" '
                 f'width="{_SVG_W - 2 * _SVG_PAD}" '
                 f'height="{_SVG_H - 2 * _SVG_PAD}" fill="none" '
                 f'stroke="black" stroke-width="1"/>')
    series = [(ys, "#1f77b4")]
    if extra_ys is not None:
        series.append((list(map(float, extra_ys)), "#d62728"))
    for values, color in series:
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}"
                       for x, y in zip(xs, values))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
    parts.append(f'<text x="{_SVG_W // 2}" y="{_SVG_H - 12}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{_SVG_H // 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {_SVG_H // 2})">{ylabel}</text>')
    if extra_label:
        parts.append(f'<text x="{_SVG_W - _SVG_PAD}" y="40" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11" '
                     f'fill="#d62728">{extra_label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def svg_heatmap(path: str, grid: np.ndarray, extent: tuple, title: str) -> None:
    """Grayscale cell heatmap of a 2-D array (row 0 at the bottom), written
    to the open file one grid row of cells at a time."""
    grid = np.asarray(grid, dtype=float)
    # the extremes over the finite cells, without a copy of them
    finite = np.isfinite(grid)
    if finite.any():
        lo = float(grid.min(where=finite, initial=math.inf))
        hi = float(grid.max(where=finite, initial=-math.inf))
    else:
        lo, hi = 0.0, 1.0
    span = (hi - lo) or 1.0
    ny, nx = grid.shape
    cw = (_SVG_W - 2 * _SVG_PAD) / nx
    ch = (_SVG_H - 2 * _SVG_PAD) / ny
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(_svg_open(title)) + "\n")
        for iy in range(ny):
            y = _SVG_H - _SVG_PAD - (iy + 1) * ch
            for ix, v in enumerate(grid[iy].tolist()):
                if not math.isfinite(v):
                    continue
                shade = int(round(255 * (1.0 - (v - lo) / span)))
                x = _SVG_PAD + ix * cw
                fh.write(f'<rect x="{x:.2f}" y="{y:.2f}" '
                         f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" '
                         f'fill="rgb({shade},{shade},{shade})"/>\n')
        fh.write(f'<text x="{_SVG_PAD}" y="{_SVG_H - 12}" '
                 f'font-family="sans-serif" font-size="11">'
                 f'[{extent[0]:g}, {extent[1]:g}] x [{extent[2]:g}, '
                 f'{extent[3]:g}]</text>\n</svg>\n')


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _selftest_hilbert(config: ExperimentConfig) -> RunReport:
    """Quadrature projector vs eigen-oracle on random integer-spectrum trials."""
    if config.trials < 1 or config.dim < 1:
        raise ConfigError("selftest needs trials >= 1 and dim >= 1")
    rng = make_rng(config.seed)
    rows = []
    worst = 0.0
    worst_trial = -1
    for trial in range(config.trials):
        dim = int(rng.integers(1, config.dim + 1))
        op = random_integer_spectrum_operator(dim, rng)
        energy = float(rng.uniform(-5.0, 5.0))
        nodes = default_node_count(op, energy)
        quad = spectral_projector_quadrature(op, energy)
        oracle = spectral_projector_eig(op, energy)
        deviation = float(np.max(np.abs(quad - oracle)))
        rows.append((trial, dim, energy, nodes, deviation))
        if deviation > worst:
            worst = deviation
            worst_trial = trial
    _emit_csv(config,
              ["trial", "dim", "energy", "nodes", "max_abs_deviation"],
              rows,
              [f"experiment: selftest-hilbert", f"seed: {config.seed}",
               "columns: trial index, matrix dimension, energy level, "
               "quadrature nodes, max-norm deviation (dimensionless)"])
    ok = worst <= 1e-9
    total_nodes = sum(row[3] for row in rows)
    max_nodes = max((row[3] for row in rows), default=0)
    message = (f"max deviation {worst:.3e} over {config.trials} trials, "
               f"{total_nodes} quadrature nodes (at most {max_nodes} per "
               f"projector)"
               + ("" if ok else f"; trial {worst_trial} exceeded 1e-9"))
    return RunReport(EXIT_OK if ok else EXIT_THRESHOLD, message,
                     {"max_deviation": worst, "trials": config.trials,
                      "nodes": total_nodes, "max_nodes": max_nodes})


def _check_equivariant_level(cfg: SpectralConfig) -> None:
    """The equivariant kernel's level ceil(kE) must be one of 0..k."""
    level, k = cfg.cut_index, cfg.k
    if not 0 <= level <= k:
        raise ConfigError(f"equivariant level ceil(kE) = {level} lies outside "
                          f"0..{k} at E = {format_number(float(cfg.energy))}, "
                          f"k = {k}")


def _heatmap(config: ExperimentConfig) -> RunReport:
    """|kernel coefficient| over a chart grid; the ridge must sit on |zeta|=1."""
    k = int(config.k if config.k is not None else 80)
    cfg = SpectralConfig(k, config.e)
    z = config.base_point()
    if not z.in_chart:
        raise ChartError("heatmap base point z0 lies off the chart z1 != 0")
    if config.kind == "equivariant":
        _check_equivariant_level(cfg)
    n = int(config.grid_n)
    if n < 8:
        raise ConfigError("grid_n must be at least 8")
    if not config.grid_min < config.grid_max:
        raise ConfigError("grid_min must be below grid_max")
    axis = np.linspace(config.grid_min, config.grid_max, n)
    # each axis value is formatted once; write_csv prints strings as they are
    labels = list(map(format_number, axis.tolist()))
    # the grid is held as two float arrays, |K| and its log, never as one
    # Python object per cell
    values = np.empty((n, n))
    logmags = np.empty((n, n))
    # one kernel call per grid row, given as the chart coordinates of its
    # cells [zeta:1]
    for i in range(n):
        zetas = axis.astype(complex)
        zetas.imag = axis[i]
        if config.kind == "equivariant":
            logmags[i], _ = equivariant_coeff(k, cfg.cut_index, z, zetas)
        else:
            logmags[i], _ = partial_coeff(cfg, z, zetas)
        # |K| as LogComplex.abs gives it: math.exp(-inf) is the 0.0 of zero
        values[i] = list(map(math.exp, logmags[i].tolist()))
    peak = np.unravel_index(np.argmax(values), values.shape)
    peak_zeta = complex(axis[peak[1]], axis[peak[0]])
    cell = float(axis[1] - axis[0])
    ridge_dev = abs(abs(peak_zeta) - 1.0)
    # the kernel concentrates on a collar of width ~1/sqrt(k) around the
    # orbit circle (the finite-k diagonal peak is biased outward by that
    # much), so a grid finer than the collar cannot localize the argmax
    # more sharply than the collar itself
    ridge_ok = ridge_dev <= math.hypot(cell, cell) + 2.0 / math.sqrt(k)
    # the CSV rows, made one grid row at a time as write_csv reads them
    rows = chain.from_iterable(
        zip(labels, [im] * n, values[i].tolist(), logmags[i].tolist())
        for i, im in enumerate(labels))
    _emit_csv(config, ["re_zeta", "im_zeta", "abs_value", "logmag"],
              rows,
              [f"experiment: heatmap ({config.kind})", f"k: {k}",
               f"energy: {format_number(float(config.e))}",
               f"seed: {config.seed}",
               "columns: chart coordinate (re, im), |coefficient| "
               "(frame units), log magnitude"])
    if config.svg:
        svg_heatmap(config.svg, values,
                    (config.grid_min, config.grid_max,
                     config.grid_min, config.grid_max),
                    f"|K| heatmap, kind={config.kind}, k={k}, E={config.e:g}")
    message = (f"grid argmax at zeta={peak_zeta:.4f}, | |zeta|-1 | = "
               f"{ridge_dev:.4f} ({'on' if ridge_ok else 'OFF'} the unit "
               "circle ridge)")
    return RunReport(EXIT_OK if ridge_ok else EXIT_THRESHOLD, message,
                     {"peak_re": peak_zeta.real, "peak_im": peak_zeta.imag,
                      "ridge_deviation": ridge_dev})


def _error_scaling(config: ExperimentConfig) -> RunReport:
    """Decay of the leading-term error along a k sweep, with a log-log fit.

    Both kinds share one probe and one SpectralConfig per k."""
    ks = config.k_grid()
    if len(ks) < 3:
        raise ConfigError("error scaling needs at least 3 k values")
    energy = float(config.e)
    configs = [SpectralConfig(k, energy) for k in ks]
    probe = ScalingProbe(config.base_point(), config.a, config.b, config.t0)
    if config.kind == "equivariant":
        for cfg in configs:
            _check_equivariant_level(cfg)
        if config.svg:
            raise ConfigError("svg is set, but this kind writes no plot")
    h = height(probe.basepoint)
    if abs(h - energy) > LEVEL_SET_TOL:
        raise ConfigError(f"base point z0 lies at height {format_number(h)}, "
                          f"off the level set E = {format_number(energy)}")
    if config.kind == "equivariant":
        # remainder is k^-3/2 on the orbit (a = b = 0) and k^-1 once the
        # Gaussian offsets are on, so the witness power adapts
        power = 1.5 if config.a == 0.0 and config.b == 0.0 else 1.0
        rows = []
        for cfg in configs:
            k = cfg.k
            exact = equivariant_coeff(k, cfg.cut_index,
                                      *probe.points(k)).to_complex()
            lead = predict_equivariant(cfg, 1, probe).leading
            rows.append((k, abs(2.0 * math.pi / k * exact - lead) * k ** power))
        witnesses = [w for _, w in rows]
        # the median as np.median takes it, whose first call imports numpy.ma
        ordered, mid = sorted(witnesses), len(witnesses) // 2
        median = (ordered[mid] if len(ordered) % 2
                  else (ordered[mid - 1] + ordered[mid]) / 2)
        if median == 0.0:
            raise ConfigError(
                f"the remainder witness is 0 at {witnesses.count(0.0)} of "
                f"{len(ks)} weights, so max/median is undefined: the "
                f"offsets a, b put the kernel and its leading term below "
                f"float range")
        stat = max(witnesses) / median
        ok = stat <= 5.0
        _emit_csv(config, ["k", "witness"], rows,
                  ["experiment: error-scaling (equivariant remainder)",
                   f"energy: {format_number(energy)}",
                   f"t0: {format_number(float(config.t0))}",
                   f"probe offsets: a={format_number(float(config.a))}, "
                   f"b={format_number(float(config.b))}",
                   f"seed: {config.seed}",
                   f"columns: weight k, |scaled coeff - leading| * "
                   f"k^{power:g}"])
        message = (f"remainder witness max/median = {stat:.3f} over "
                   f"{len(ks)} weights")
        return RunReport(EXIT_OK if ok else EXIT_THRESHOLD, message,
                         {"max_over_median": stat})

    rows = []
    for cfg in configs:
        k = cfg.k
        er = error_metric(cfg, probe)
        rows.append((k, er, math.log(k), math.log(er),
                     -1.5 - 0.5 * math.log(k)))
    fit = loglog_fit([(float(r[0]), r[1]) for r in rows])
    ok = -0.65 <= fit.slope <= -0.35 and fit.r_squared >= 0.95
    _emit_csv(config, ["k", "er", "log_k", "log_er", "ref_line"],
              rows,
              ["experiment: error-scaling (partial leading term)",
               f"energy: {format_number(energy)}",
               f"t0: {format_number(float(config.t0))}",
               f"seed: {config.seed}",
               "columns: weight k, leading-term error (frame units), "
               "log k, log error, reference line -1.5 - 0.5 log k"])
    if config.svg:
        svg_line_plot(config.svg, [r[2] for r in rows], [r[3] for r in rows],
                      f"leading-term error decay, E={energy:g}, "
                      f"t0={config.t0:.3f}", "log k", "log Er",
                      extra_ys=[r[4] for r in rows],
                      extra_label="-1.5 - 0.5 log k")
    message = (f"slope {fit.slope:.4f}, r^2 {fit.r_squared:.4f} over "
               f"k in [{ks[0]}, {ks[-1]}]")
    return RunReport(EXIT_OK if ok else EXIT_THRESHOLD, message,
                     {"slope": fit.slope, "r_squared": fit.r_squared})


def _diagonal_microsupport(config: ExperimentConfig) -> RunReport:
    """Diagonal trichotomy of partial/full ratios plus off-orbit decay."""
    z = config.base_point()
    h = height(z)
    k_star = int(config.k if config.k is not None else 800)
    grid = config.k_grid()
    ks = [k for k in grid if k >= 10]
    if len(ks) < 3:
        raise ConfigError(f"the fits need at least 3 weights k >= 10, but "
                          f"the k grid {grid} has {len(ks)}")
    rows = []
    checks = {}

    # regime H > E: ratio at the single witness weight
    e_below = max(h - 0.2, 0.05)
    ratio_hi = (partial_coeff(SpectralConfig(k_star, e_below), z, z).abs()
                / bergman_coeff(k_star, z, z).abs())
    rows.append(("above", k_star, e_below, ratio_hi, abs(ratio_hi - 1.0)))
    checks["above_dev"] = abs(ratio_hi - 1.0)

    # regime H = E: (ratio - 1/2) decays like k^{-1/2}; even weights keep
    # the middle binomial atom inside the cut
    half_pts = []
    for k in ks:
        k_even = k + (k % 2)
        ratio = (partial_coeff(SpectralConfig(k_even, h), z, z).abs()
                 / bergman_coeff(k_even, z, z).abs())
        dev = ratio - 0.5
        rows.append(("at", k_even, h, ratio, dev))
        if dev > 0:
            half_pts.append((float(k_even), dev))
    fit_half = loglog_fit(half_pts)
    checks["at_slope"] = fit_half.slope

    # regime H < E: superpolynomial decay of the diagonal value
    e_above = min(h + 0.2, 0.95)
    log_vals = []
    for k in ks:
        val = partial_coeff(SpectralConfig(k, e_above), z, z)
        rows.append(("below", k, e_above, val.abs(), val.logmag))
        log_vals.append((k, val.logmag))
    fit_below = linear_fit(np.array([p[0] for p in log_vals]),
                           np.array([p[1] for p in log_vals]))
    checks["below_slope"] = fit_below.slope
    checks["below_r2"] = fit_below.r_squared

    # off-orbit pair: (z, w) with different heights
    w = ProjectivePoint(2.0, 1.0)
    off_vals = []
    for k in ks:
        val = partial_coeff(SpectralConfig(k, h), z, w)
        rows.append(("off-orbit", k, h, val.abs(), val.logmag))
        off_vals.append((k, val.logmag))
    fit_off = linear_fit(np.array([p[0] for p in off_vals]),
                         np.array([p[1] for p in off_vals]))
    checks["off_slope"] = fit_off.slope
    checks["off_r2"] = fit_off.r_squared

    ok = (checks["above_dev"] <= 1e-6
          and -0.65 <= checks["at_slope"] <= -0.35
          and checks["below_slope"] < 0 and checks["below_r2"] >= 0.9
          and checks["off_slope"] < 0 and checks["off_r2"] >= 0.9)
    _emit_csv(config, ["regime", "k", "energy", "value", "detail"],
              rows,
              ["experiment: diagonal-microsupport",
               f"base height: {format_number(h)}",
               f"seed: {config.seed}",
               "columns: regime, weight k, energy, ratio or |value|, "
               "deviation or log magnitude"])
    message = ("above-dev {above_dev:.2e}; at-slope {at_slope:.3f}; "
               "below-slope {below_slope:.4f} (r2 {below_r2:.3f}); "
               "off-orbit slope {off_slope:.4f} (r2 {off_r2:.3f})"
               .format(**checks))
    return RunReport(EXIT_OK if ok else EXIT_THRESHOLD, message, checks)


def _two_proj(config: ExperimentConfig) -> RunReport:
    """Norm of the product of two cap projections along a k sweep."""
    u1 = RotationAxis.from_vector(config.u1)
    u2 = RotationAxis.from_vector(config.u2)
    if caps_tangent(u1, config.e1, u2, config.e2):
        raise ConfigError("tangent cap configuration is excluded")
    disjoint = caps_disjoint(u1, config.e1, u2, config.e2)
    ks = config.k_grid()
    rows = []
    norms = []
    widths = []
    for k in ks:
        norm = projection_product_norm(k, u1, config.e1, u2, config.e2)
        # below the normal floats the norm has lost bits or underflowed,
        # and its log is taken again from the unrounded singular value
        rows.append((k, norm, math.log(norm) if norm >= sys.float_info.min
                     else projection_product_log_norm(k, u1, config.e1, u2,
                                                      config.e2)))
        norms.append(norm)
        widths.append(corner_width(k, u1, config.e1, u2, config.e2))
    _emit_csv(config, ["k", "norm", "log_norm"], rows,
              ["experiment: two-proj",
               f"axes: {list(u1.u)} / {list(u2.u)}",
               f"levels: {format_number(float(config.e1))}, "
               f"{format_number(float(config.e2))}",
               f"caps_disjoint: {disjoint}", f"seed: {config.seed}",
               "columns: weight k, operator norm of the projector "
               "product, its natural log"])
    # log_norm is finite past the norm's underflow; -inf only for a block
    # that is exactly zero
    finite = [(k, log) for k, _, log in rows if log > -math.inf]
    if config.svg and finite:
        svg_line_plot(config.svg, [p[0] for p in finite],
                      [p[1] for p in finite],
                      "projection product norm decay", "k", "log norm")
    # the most block columns one norm built and how many norms needed the
    # full block
    counts = {"max_width": max(w for w, _ in widths),
              "full_blocks": sum(w == n for w, n in widths)}
    if disjoint:
        if len(finite) < 3:
            message = (f"disjoint caps: the decay fit needs 3 weights with a "
                       f"nonzero norm, got {len(finite)}")
            return RunReport(EXIT_THRESHOLD, message,
                             {"disjoint": True, "max_norm": max(norms),
                              **counts})
        fit = linear_fit(np.array([p[0] for p in finite], dtype=float),
                         np.array([p[1] for p in finite]))
        ok = fit.slope < 0 and fit.r_squared >= 0.9
        message = (f"disjoint caps: log-norm slope {fit.slope:.4f} per unit "
                   f"k, r^2 {fit.r_squared:.4f}")
        return RunReport(EXIT_OK if ok else EXIT_THRESHOLD, message,
                         {"disjoint": True, "slope": fit.slope,
                          "r_squared": fit.r_squared, **counts})
    floor = min(norms)
    ok = floor >= 0.5
    message = f"overlapping caps: norm floor {floor:.4f} over the sweep"
    return RunReport(EXIT_OK if ok else EXIT_THRESHOLD, message,
                     {"disjoint": False, "floor": floor, **counts})


_RUNNERS = {
    "selftest-hilbert": _selftest_hilbert,
    "heatmap": _heatmap,
    "error-scaling": _error_scaling,
    "diagonal-microsupport": _diagonal_microsupport,
    "two-proj": _two_proj,
}
# the config fields each experiment's runner reads; every one of them is
# a command-line flag of its subcommand, and any other field set off its
# default is refused, since the run would silently ignore it
_COMMON = ("experiment", "out", "seed", "no_timestamp")
_K_SWEEP = ("k_min", "k_max", "k_ratio", "k_list")
READS = {
    "selftest-hilbert": _COMMON + ("dim", "trials"),
    "heatmap": _COMMON + ("svg", "k", "z0", "kind", "e", "grid_min",
                          "grid_max", "grid_n"),
    "error-scaling": _COMMON + ("svg", "z0", "kind", "e", "t0", "a", "b")
                     + _K_SWEEP,
    "diagonal-microsupport": _COMMON + ("k", "z0") + _K_SWEEP,
    "two-proj": _COMMON + ("svg", "u1", "u2", "e1", "e2") + _K_SWEEP,
}


def check_config(config: ExperimentConfig) -> None:
    """Raise on an unknown experiment, on a value of the wrong type (a
    non-finite float among them) or outside its field's choices, and on a
    field the experiment never reads set off its default."""
    if config.experiment not in READS:
        raise ConfigError(f"unknown experiment '{config.experiment}'; "
                          f"choose one of {', '.join(READS)}")
    reads, defaults = READS[config.experiment], ExperimentConfig()
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if not _admits(f.type, value):
            kind = f.type.replace("float", "finite float")
            raise ConfigError(f"config key '{f.name}' takes {kind}, "
                              f"got {value!r}")
        choices = f.metadata.get("choices")
        if choices and value not in choices:
            raise ConfigError(f"config key '{f.name}' takes one of "
                              f"{', '.join(choices)}, got {value!r}")
        if f.name not in reads and value != getattr(defaults, f.name):
            raise ConfigError(f"config key '{f.name}' is set, but "
                              f"{config.experiment} never reads it")


def _make_output_dirs(config: ExperimentConfig, made: list[str]) -> None:
    """Make the directories of the out and svg paths before either file
    is written, listing in made, parents first, each one that was
    missing; raise, naming the key, on a path that is a directory or
    whose directory cannot be made."""
    for key in ("out", "svg"):
        path = getattr(config, key)
        if not path:
            continue
        directory = os.path.dirname(os.path.abspath(path))
        missing = []
        parent = directory
        while not os.path.exists(parent):
            missing.append(parent)
            parent = os.path.dirname(parent)
        try:
            os.makedirs(directory, exist_ok=True)
            fault = "it is a directory" if os.path.isdir(path) else None
        except OSError as exc:
            fault = str(exc)
        made.extend(reversed(missing))
        if fault:
            raise ConfigError(f"config key '{key}' names '{path}', which "
                              f"cannot be written: {fault}")


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Check a config and run its experiment; the one entry point, since
    the runners trust their config.  A bad config, a failed precondition
    and an out or svg path that cannot be written return exit 2, and
    leave behind no directory the run made."""
    made = []
    try:
        check_config(config)
        _make_output_dirs(config, made)
        report = _RUNNERS[config.experiment](config)
    except (OSError, ValueError) as exc:
        for directory in reversed(made):
            try:
                os.rmdir(directory)
            except OSError:  # never made, or holds a file the run wrote
                pass
        return RunReport(EXIT_CONFIG, f"configuration error: {exc}", {})
    report.csv_path = config.out
    return report
