"""Run one ``prosep`` command with its public functions traced.

Usage: python traced_cli.py SPANS_JSON COMMAND [ARGS...]

Writes the spans to SPANS_JSON (see ``tracer.Tracer.dump``) and exits
with the command's own exit code.  ``prosep`` must be importable, e.g.
through PYTHONPATH.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import prosep.cli

    try:
        return tracer.root(f"cli.{argv[0]}", prosep.cli.main, argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
