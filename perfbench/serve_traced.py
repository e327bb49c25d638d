"""Run ``ldprecover serve`` with the layer wrappers installed.

Usage: ``python -m perfbench.serve_traced SPANS.jsonl serve --protocol ...``

Installs :func:`perfbench.layers.install` on a tracer, then calls the
same entry point as ``ldprecover serve`` (:func:`repro.cli.main`).  On
SIGTERM it writes the recorded spans to ``SPANS.jsonl`` and exits 0.
"""

from __future__ import annotations

import os
import signal
import sys


def main(argv: list[str]) -> int:
    from perfbench import layers
    from perfbench.spans import Tracer
    from repro import cli

    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    layers.install(tracer)

    def flush(signum: int, frame: object) -> None:
        tracer.write_jsonl(spans_path)
        sys.stdout.flush()
        os._exit(0)

    signal.signal(signal.SIGTERM, flush)
    return cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
