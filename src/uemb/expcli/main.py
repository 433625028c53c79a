"""Command-line entry point for the experiment runners.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, parse_config
from .runners import RUNNERS

_SUBCOMMANDS = {
    "design-sim": "design_sim",
    "quant-sim": "quantization_sim",
    "scatter": "universal_scatter",
    "retrieve": "retrieval",
    "bounds": "bounds_sweep",
    "map-eval": "map_eval",
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="uemb",
        description="Randomized geometry-preserving embedding experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kind in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help="run the %s experiment" % kind)
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--out", required=True, help="output directory for CSV files")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    kind = _SUBCOMMANDS[args.command]
    try:
        cfg = parse_config(args.config)
        if cfg.kind != kind:
            raise ConfigError(
                "config kind %r does not match subcommand %r" % (cfg.kind, args.command)
            )
        if args.seed is not None:
            cfg.params["seed"] = args.seed
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
        result = RUNNERS[kind](cfg, args.out)
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print("runtime error: %s" % e, file=sys.stderr)
        return 3
    for f in result.get("files", []):
        print("wrote %s" % f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
