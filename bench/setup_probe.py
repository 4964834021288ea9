"""Do the CLI's set-up for one config, print ``ready``, then time a reference.

    python3 bench/setup_probe.py CONFIG

Covers what a ``sipba`` command does before its first step: the import,
``load_config``, ``build_problem``, ``build_schedule``, seed resolution and
``initial_state`` for the first seed. The parent times spawn to ``ready``.
The probe then prints the iterations and seconds of the reference loop
(reference.py), which tell the parent how fast the machine ran just then.
"""

import sys

import numpy as np

import reference
from sipba import cli, initial_state

ITERATIONS = 8000


def main(path):
    cfg, _ = cli.load_config(path)
    bundle = cli.build_problem(cfg)
    cli.build_schedule(cfg)
    seed = cli.resolve_seeds(cfg)[0]
    x0, y0, z0 = bundle.sample_init(np.random.Generator(np.random.Philox(seed)))
    initial_state(bundle.problem, x0, y0, z0)
    print("ready", flush=True)
    print(ITERATIONS, repr(reference.seconds(ITERATIONS)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
