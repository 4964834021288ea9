"""Run one ``sipba`` CLI command with every layer traced.

    python3 bench/traced_cli.py RUN_ID TRACE_DIR -- <sipba arguments>

Installs the wrappers from layers.py, calls ``sipba.cli.main`` in this
process, restores the package, then writes the spans (spans.npz) and the
per-layer metrics and the time the CLI returned (layers.json) to TRACE_DIR.
Exits with the CLI's exit code.
"""

import json
import os
import sys
import time

from layers import Recorder, install, layer_metrics
from tracer import Tracer


def main(argv):
    run_id, trace_dir, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py RUN_ID TRACE_DIR -- ARGS...")
    from sipba import cli

    tracer = Tracer(run_id)
    rec = Recorder()
    try:
        install(tracer, rec)
        code = cli.main(cli_args)
        # CLOCK_MONOTONIC is shared by all processes, so the parent can
        # subtract its spawn time from this
        done = time.monotonic()
    finally:
        tracer.restore()
    os.makedirs(trace_dir, exist_ok=True)
    tracer.write(os.path.join(trace_dir, "spans.npz"))
    result = {"run_id": run_id, "exit_code": code, "main_done": done,
              "spans": len(tracer.end),
              "metrics": layer_metrics(tracer.names, tracer.spans(), rec)}
    with open(os.path.join(trace_dir, "layers.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
