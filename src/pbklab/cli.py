"""Command-line front end for the experiment harness."""
from __future__ import annotations

import argparse
import sys

from .harness import (EXIT_CONFIG, ConfigError, ExperimentConfig,
                      run_experiment)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--k", type=int)
    sub.add_argument("--k-min", type=int, dest="k_min")
    sub.add_argument("--k-max", type=int, dest="k_max")
    sub.add_argument("--k-ratio", type=float, dest="k_ratio")
    sub.add_argument("--t0", type=float)
    sub.add_argument("--a", type=float)
    sub.add_argument("--b", type=float)
    sub.add_argument("--z0", help="comma-separated re,im (affine) or "
                                  "re0,im0,re1,im1 (homogeneous)")
    sub.add_argument("--nodes", type=int)
    sub.add_argument("--out", help="CSV output path")
    sub.add_argument("--svg", help="SVG plot output path")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--no-timestamp", action="store_true", default=None,
                     dest="no_timestamp")
    sub.add_argument("--kind", choices=["partial", "equivariant"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbklab",
        description="Exact and asymptotic kernel experiments on the "
                    "projective line")
    subs = parser.add_subparsers(dest="experiment", required=True)

    st = subs.add_parser("selftest-hilbert",
                         help="quadrature vs eigen spectral projectors")
    _add_common(st)
    st.add_argument("--dim", type=int, help="max matrix dimension")
    st.add_argument("--trials", type=int)

    # --e only where the experiment reads the energy level
    hm = subs.add_parser("heatmap", help="|coefficient| over a chart grid")
    _add_common(hm)
    hm.add_argument("--e", type=float)
    hm.add_argument("--grid-min", type=float, dest="grid_min")
    hm.add_argument("--grid-max", type=float, dest="grid_max")
    hm.add_argument("--grid-n", type=int, dest="grid_n")

    es = subs.add_parser("error-scaling",
                         help="leading-term error decay along a k sweep")
    _add_common(es)
    es.add_argument("--e", type=float)

    dm = subs.add_parser("diagonal-microsupport",
                         help="diagonal ratio trichotomy and off-orbit decay")
    _add_common(dm)

    tp = subs.add_parser("two-proj",
                         help="norm of a product of two cap projections")
    _add_common(tp)
    tp.add_argument("--u1", help="comma-separated axis vector")
    tp.add_argument("--u2", help="comma-separated axis vector")
    tp.add_argument("--e1", type=float)
    tp.add_argument("--e2", type=float)

    return parser


def _parse_vector(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse vector '{text}'") from exc


# the flags whose value is a comma-separated vector
VECTOR_FLAGS = ("--z0", "--u1", "--u2")


def _is_vector(text: str) -> bool:
    try:
        _parse_vector(text)
    except ConfigError:
        return False
    return True


def _attach_vector_values(argv: list[str]) -> list[str]:
    """argv with '--u2 -0.5,0,-0.8' spelled '--u2=-0.5,0,-0.8'.

    argparse reads an argument that starts with '-' as an option unless it
    is one plain negative number, so a vector whose first component is
    negative would not reach its flag.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in VECTOR_FLAGS and _is_vector(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_file(args.config)
        if config.experiment and config.experiment != args.experiment:
            raise ConfigError(
                f"config file is for '{config.experiment}' but the "
                f"'{args.experiment}' subcommand was invoked")
    else:
        config = ExperimentConfig()
    config.experiment = args.experiment
    for name in ("k", "k_min", "k_max", "k_ratio", "e", "t0", "a", "b",
                 "nodes", "out", "svg", "seed", "no_timestamp", "kind",
                 "grid_min", "grid_max", "grid_n", "dim", "trials",
                 "e1", "e2"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(config, name, value)
    if getattr(args, "z0", None) is not None:
        config.z0 = _parse_vector(args.z0)
    for axis_name in ("u1", "u2"):
        value = getattr(args, axis_name, None)
        if value is not None:
            setattr(config, axis_name, _parse_vector(value))
    return config


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_vector_values(argv))
    try:
        config = build_config(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report = run_experiment(config)
    stream = sys.stdout if report.exit_code == 0 else sys.stderr
    print(f"{config.experiment}: {report.message}", file=stream)
    if report.csv_path:
        print(f"wrote {report.csv_path}", file=stream)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
