"""Command-line entry point.

    semichain run <config.json> [--output-dir DIR] [--seed N]
    semichain resume <checkpoint.bin> [--output-dir DIR]
    semichain validate <config.json>

Progress and diagnostics go to standard error; data files are written
to the output directory.
"""

import argparse
import gc
import sys

from .config import parse_config_text, validate_config
from .errors import ConfigError, SemichainError
from .runner import resume as _resume
from .runner import run as _run


def main(argv=None) -> int:
    """Run one command; returns the process exit code.

    The CLI owns its process, so it first freezes the import graph:
    ``gc.freeze`` moves every object the imports of numpy and the
    package made into the collector's permanent generation. Collections
    still run and still free cycles made after that, but the ones at
    interpreter exit no longer walk the import graph to tear it down.
    Only a process's first freeze is needed; a later call that froze
    again would pin the cycles earlier calls left for the collector.
    ``main`` itself returns normally, so callers in the same process
    keep their atexit handlers, stream flushes and exit code.
    """
    if not gc.get_freeze_count():
        gc.freeze()
    parser = argparse.ArgumentParser(
        prog="semichain",
        description="Semiclassical chain Monte Carlo and its fully "
                    "quantized cross-check")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run described by a config")
    p_run.add_argument("config", help="path to the JSON run config")
    p_run.add_argument("--output-dir", default="out",
                       help="directory for CSV, manifest and checkpoints")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config's RNG seed")

    p_res = sub.add_parser("resume", help="continue from a checkpoint")
    p_res.add_argument("checkpoint", help="path to checkpoint.bin")
    p_res.add_argument("--output-dir", default="out",
                       help="directory for CSV, manifest and checkpoints")

    p_val = sub.add_parser("validate", help="check a config and report "
                                            "every problem")
    p_val.add_argument("config", help="path to the JSON run config")

    args = parser.parse_args(argv)
    try:
        if args.command == "resume":
            _resume(args.checkpoint, args.output_dir)
            return 0
        with open(args.config, "rb") as f:
            raw = parse_config_text(f.read())
        if args.command == "run" and args.seed is not None \
                and isinstance(raw, dict):
            raw["seed"] = args.seed
        cfg = validate_config(raw)
        if args.command == "run":
            _run(cfg, args.output_dir)
        else:
            print(f"ok: {len(cfg.observables)} observables, engine="
                  f"{cfg.engine}, t_final={cfg.t_final}", file=sys.stderr)
        return 0
    except ConfigError as e:
        print("config errors:", file=sys.stderr)
        for problem in e.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2
    except OSError as e:  # a path that cannot be read or written
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SemichainError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
