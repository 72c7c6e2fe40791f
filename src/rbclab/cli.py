"""Command-line entry point: run experiments, validate configs."""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, line_hint, load_config, validate_config
from .experiments import run_experiment


def _print_diagnostics(diagnostics, text: str, path: str):
    for msg in diagnostics:
        lineno = line_hint(text, msg.key)
        hint = f"{path}:{lineno}: " if lineno is not None else ""
        print(f"error: {hint}{msg}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rbclab",
        description="Spin systems with random boundary conditions: "
                    "scaling, window, metastate, csd, gauge-check and "
                    "oracle-vs-mc experiments from a JSON config.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment described by a config file")
    p_run.add_argument("config", help="path to a JSON config")
    p_run.add_argument("--workers", type=int, default=None,
                       help="worker processes (overrides the config; output "
                            "is byte-identical at any count)")
    p_run.add_argument("--output", default=None, metavar="DIR",
                       help="output directory (overrides the config)")
    p_run.add_argument("--master-seed", type=int, default=None,
                       help="master seed (overrides the config)")

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config", help="path to a JSON config")

    args = parser.parse_args(argv)

    try:
        data, text = load_config(args.config)
    except ConfigError as err:
        for msg in err.diagnostics:
            print(f"error: {args.config}: {msg}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: cannot read {args.config}: {err}", file=sys.stderr)
        return 2

    diagnostics = validate_config(data)
    if diagnostics:
        _print_diagnostics(diagnostics, text, args.config)
        return 2
    if args.command == "validate":
        print(f"{args.config}: ok "
              f"(experiment {data['experiment']})")
        return 0

    try:
        summary = run_experiment(data, output_dir=args.output,
                                 workers=args.workers,
                                 master_seed=args.master_seed)
    except (ConfigError, ValueError) as err:
        # setup-stage failures (sequence budget too small, size bounds, ...)
        print(f"error: {err}", file=sys.stderr)
        return 2

    print(f"wrote {summary['csv_path']} ({summary['n_rows']} rows)")
    print(f"wrote {summary['summary_path']}")
    for key, val in sorted(summary["results"].items()):
        if isinstance(val, (int, float, str)) and not isinstance(val, bool):
            print(f"  {key}: {val}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
