"""Command-line front end for the experiment harness."""
from __future__ import annotations

import argparse
import sys

from .harness import (EXIT_CONFIG, ConfigError, ExperimentConfig,
                      run_experiment)


# every flag with its argparse settings; argparse names each destination
# after its flag, dashes turned into underscores
FLAGS = {
    "--config": dict(help="JSON config file"),
    "--out": dict(help="CSV output path"),
    "--svg": dict(help="SVG plot output path"),
    "--seed": dict(type=int),
    "--no-timestamp": dict(action="store_true", default=None),
    "--k": dict(type=int),
    "--k-min": dict(type=int),
    "--k-max": dict(type=int),
    "--k-ratio": dict(type=float),
    "--z0": dict(help="comma-separated re,im (affine) or "
                      "re0,im0,re1,im1 (homogeneous)"),
    "--kind": dict(choices=["partial", "equivariant"]),
    "--e": dict(type=float),
    "--t0": dict(type=float),
    "--a": dict(type=float),
    "--b": dict(type=float),
    "--nodes": dict(type=int),
    "--dim": dict(type=int, help="max matrix dimension"),
    "--trials": dict(type=int),
    "--grid-min": dict(type=float),
    "--grid-max": dict(type=float),
    "--grid-n": dict(type=int),
    "--u1": dict(help="comma-separated axis vector"),
    "--u2": dict(help="comma-separated axis vector"),
    "--e1": dict(type=float),
    "--e2": dict(type=float),
}

COMMON_FLAGS = ("--config", "--out", "--svg", "--seed", "--no-timestamp")
K_SWEEP = ("--k-min", "--k-max", "--k-ratio")

# each experiment's help and the flags its runner reads besides the common
# ones: a flag it would ignore exits 2 instead of running at the default
EXPERIMENT_FLAGS = {
    "selftest-hilbert": ("quadrature vs eigen spectral projectors",
                         ("--dim", "--trials", "--nodes")),
    "heatmap": ("|coefficient| over a chart grid",
                ("--k", "--z0", "--kind", "--e", "--grid-min", "--grid-max",
                 "--grid-n")),
    "error-scaling": ("leading-term error decay along a k sweep",
                      K_SWEEP + ("--z0", "--kind", "--e", "--t0", "--a",
                                 "--b")),
    "diagonal-microsupport": ("diagonal ratio trichotomy and off-orbit decay",
                              ("--k",) + K_SWEEP + ("--z0",)),
    "two-proj": ("norm of a product of two cap projections",
                 ("--k",) + K_SWEEP + ("--u1", "--u2", "--e1", "--e2")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbklab",
        description="Exact and asymptotic kernel experiments on the "
                    "projective line")
    subs = parser.add_subparsers(dest="experiment", required=True)
    for name, (help_text, flags) in EXPERIMENT_FLAGS.items():
        sub = subs.add_parser(name, help=help_text)
        for flag in COMMON_FLAGS + flags:
            sub.add_argument(flag, **FLAGS[flag])
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
    # every flag but --config sets the config field its destination names;
    # a subcommand's namespace holds only the flags it registers
    for flag in FLAGS:
        name = flag[2:].replace("-", "_")
        value = getattr(args, name, None)
        if value is not None and flag != "--config":
            setattr(config, name, _parse_vector(value)
                    if flag in VECTOR_FLAGS else value)
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
