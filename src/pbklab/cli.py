"""Command-line front end for the experiment harness: one subcommand per
experiment, with a flag for each config field it reads (harness.READS)."""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import (_RUNNERS, EXIT_CONFIG, READS, ConfigError,
                      ExperimentConfig, check_config, run_experiment)

_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
_TYPES = {"int": int, "float": float, "str": str}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _vector(element: type):
    """An argparse type: a comma-separated vector of `element`s."""
    def parse(text: str) -> list:
        try:
            return [element(v) for v in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"cannot parse '{text}' as comma-separated "
                f"{element.__name__}s") from None
    return parse


def _settings(f: dataclasses.Field) -> dict:
    """A field's argparse settings: bool a switch, list[...] a vector."""
    base = f.type.partition(" | ")[0]
    if base == "bool":
        settings = dict(action="store_true", default=None)
    elif base.startswith("list["):
        settings = dict(type=_vector(_TYPES[base[5:-1]]))
    else:
        settings = dict(type=_TYPES[base])
    return settings | dict(f.metadata)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbklab",
        description="Exact and asymptotic kernel experiments on the "
                    "projective line")
    subs = parser.add_subparsers(dest="experiment", required=True)
    for name, runner in _RUNNERS.items():
        sub = subs.add_parser(name, help=runner.__doc__.splitlines()[0])
        sub.add_argument("--config", help="JSON config file")
        # argparse names each destination after its flag, so after its field
        for field_name in READS[name]:
            if field_name != "experiment":
                sub.add_argument(_flag(field_name),
                                 **_settings(_FIELDS[field_name]))
    return parser


def _attach_vector_values(argv: list[str]) -> list[str]:
    """argv with '--u2 -0.5,0,-0.8' spelled '--u2=-0.5,0,-0.8'.

    argparse reads an argument that starts with '-' as an option unless it
    is one plain negative number, so a vector whose first component is
    negative would not reach its flag.  An argument that starts with '--'
    stays a flag.
    """
    vectors = {_flag(f.name) for f in _FIELDS.values()
               if f.type.startswith("list[")}
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in vectors and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The --config file's fields, overridden by the flags given inline."""
    config = ExperimentConfig()
    if args.config:
        config = ExperimentConfig.from_file(args.config)
        if config.experiment and config.experiment != args.experiment:
            raise ConfigError(
                f"config file is for '{config.experiment}' but the "
                f"'{args.experiment}' subcommand was invoked")
        # a bad value in the file exits 2, also where a flag overrides it
        config.experiment = args.experiment
        check_config(config)
    # a subcommand's namespace holds the experiment and its own flags only
    for name, value in vars(args).items():
        if value is not None and name != "config":
            setattr(config, name, value)
    return config


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_vector_values(argv))
    try:
        config = build_config(args)
    except (OSError, ValueError) as exc:
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
