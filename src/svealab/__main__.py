"""The command-line launcher of both `python -m svealab` and the `svealab`
script.  cli imports numpy and scipy, so its import sits inside the interrupt
guard: Ctrl-C during start-up exits like one during a command, with one line
and no traceback."""

import sys


def run() -> int:
    try:
        from .cli import main
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130  # cli.EXIT_INTERRUPTED, which is not loaded yet
    return main()


if __name__ == "__main__":
    sys.exit(run())
