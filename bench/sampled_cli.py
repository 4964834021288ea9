"""Run one ``sipba`` CLI command with a machine-speed sampler in its thread.

    python3 bench/sampled_cli.py SAMPLES_JSON -- <sipba arguments>

Every PERIOD_S of wall time a timer signal interrupts the command and times
ITERATIONS of the reference loop (about 2% of the time). The samples are
written to SAMPLES_JSON when the command returns; they leave the program's
state and outputs untouched. Exits with the CLI's exit code.
"""

import json
import signal
import sys

import reference

PERIOD_S = 0.25
ITERATIONS = 300


def main(argv):
    path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: sampled_cli.py SAMPLES_JSON -- ARGS...")
    from sipba import cli

    samples = []

    def sample(signum, frame):
        samples.append(reference.seconds(ITERATIONS))

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        code = cli.main(cli_args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"iterations": ITERATIONS, "samples": samples}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
