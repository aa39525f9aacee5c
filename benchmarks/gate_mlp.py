"""The small 2x2-grid MLP job shared by the sdc and observe gates.

Both gates run this exact job twice, once plain and once with the
feature under test (ABFT guards, a health monitor), and compare the two
runs.  Keeping the config and inputs in one place keeps their baselines
about the same run.
"""

import numpy as np

CONFIG = {
    "dims": [24, 16, 10],
    "pr": 2,
    "pc": 2,
    "batch": 16,
    "steps": 3,
    "seed": 0,
    "machine": "cori-knl",
}


def train(metrics=None, sdc=None):
    """One traced run of the job; returns ``(weights, losses, sim, engine)``."""
    from repro.dist.train import MLPParams, distributed_mlp_train
    from repro.simmpi.engine import SimEngine

    dims = tuple(CONFIG["dims"])
    rng = np.random.default_rng(CONFIG["seed"])
    x = rng.standard_normal((dims[0], 4 * CONFIG["batch"]))
    y = rng.integers(0, dims[-1], 4 * CONFIG["batch"])
    engine = SimEngine(
        CONFIG["pr"] * CONFIG["pc"], None, trace=True, metrics=metrics
    )
    weights, losses, sim = distributed_mlp_train(
        MLPParams.init(dims, seed=1), x, y, pr=CONFIG["pr"], pc=CONFIG["pc"],
        batch=CONFIG["batch"], steps=CONFIG["steps"], engine=engine, sdc=sdc,
    )
    return weights, losses, sim, engine
