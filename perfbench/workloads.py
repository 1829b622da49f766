"""Seeded inputs and CLI argument lists of the benchmark workloads.

Seed 0 is the CLI's own model defaults.  Any other seed draws eta, mass and
gamma uniformly within +-10 % of those defaults; the same seed always gives
the same values.  The program sees only the resulting command line.
"""

from __future__ import annotations

import random

WORKLOADS = ("identity", "propagate", "tensors")

# Same values as the CLI defaults; seed 0 must reproduce them exactly.
DEFAULT_MODEL = {"eta": 0.1, "mass": 10.0, "gamma": 40.0}
SPREAD = 0.10

# propagate: the CLI default step and resolution, with the horizon cut from
# 2.0 to 0.1 (1000 steps) so that several runs fit in one measurement.
PROPAGATE = {"n": 4096, "dt": 1e-4, "t_end": 0.1, "n_samples": 11}
TENSORS = {"dimension": 3, "sizes": "64,72", "recipes": "smooth"}


def model_inputs(seed: int) -> dict:
    """eta, mass and gamma for one seed."""
    if seed == 0:
        return dict(DEFAULT_MODEL)
    rng = random.Random(seed)
    return {key: value * (1.0 + rng.uniform(-SPREAD, SPREAD)) for key, value in DEFAULT_MODEL.items()}


def _flags(values: dict) -> list:
    out = []
    for key, value in values.items():
        out += ["--" + key.replace("_", "-"), str(value)]
    return out


def cli_args(workload: str, seed: int) -> list:
    """Arguments of one cli.main run, without --out."""
    if workload == "identity":
        return ["verify-identity", *_flags(model_inputs(seed))]
    if workload == "propagate":
        return ["propagate", *_flags(PROPAGATE), *_flags(model_inputs(seed))]
    if workload == "tensors":
        return ["verify-tensors", *_flags(TENSORS)]
    raise ValueError(f"unknown workload {workload!r}")


def describe(workload: str, seed: int) -> str:
    """One line recording the seed and the inputs it produced."""
    if workload == "tensors":
        return f"workload tensors, seed {seed} (no seeded input)"
    values = " ".join(f"{k}={v!r}" for k, v in model_inputs(seed).items())
    return f"workload {workload}, seed {seed}: {values}"
