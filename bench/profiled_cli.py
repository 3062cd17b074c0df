"""Run the finkern CLI under cProfile, keeping its exit code.

``python -m cProfile`` swallows ``SystemExit``, so every profiled CLI would
exit 0. This wrapper dumps the profile and then lets the CLI's own exit (or
uncaught exception) end the process.

Usage: python bench/profiled_cli.py OUT.prof SUBCOMMAND [ARGS...]
"""

import cProfile
import runpy
import sys


def main() -> None:
    out = sys.argv[1]
    sys.argv = ["finkern", *sys.argv[2:]]
    profile = cProfile.Profile()
    try:
        profile.runcall(runpy.run_module, "finkern.cli", run_name="__main__",
                        alter_sys=True)
    finally:
        profile.dump_stats(out)


if __name__ == "__main__":
    main()
