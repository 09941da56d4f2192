"""Run one ``biblio`` command with tracing installed.

    python3 perfbench/cli_runner.py TRACE_OUT -- SUBCOMMAND [ARGS...]

Imports ``biblio.cli``, wraps the public functions of every biblio module,
calls ``biblio.cli.main(argv)`` and writes the spans and counters to
TRACE_OUT as JSON. Standard output and the exit code are the command's own.
"""
from __future__ import annotations

import json
import sys

import tracing


def main() -> int:
    out, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        print("usage: cli_runner.py TRACE_OUT -- SUBCOMMAND [ARGS...]", file=sys.stderr)
        return 2
    import biblio.cli

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        code = biblio.cli.main(argv)
    finally:
        uninstall()
        sys.stdout.flush()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({
            "spans": tracer.spans,
            "counts": tracer.counts,
            "render_s": tracer.render_s,
            "rendered_in": tracer.rendered_in,
            "gc_s": tracer.gc_s,
            "gc_collections": tracer.gc_collections,
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
