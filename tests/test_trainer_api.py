"""The trainers' shared call contract.

Every trainer takes its engine settings from one prebuilt ``SimEngine``
(``engine=``) and rejects a batch or step count it cannot run before
any rank starts.
"""

import inspect

import numpy as np
import pytest

from repro.data.synthetic import synthetic_images
from repro.dist.elastic import elastic_mlp_train
from repro.dist.integrated import CNNParams, IntegratedCNNConfig, distributed_cnn_train
from repro.dist.summa2d import summa_train
from repro.dist.train import MLPParams, distributed_mlp_train
from repro.errors import ConfigurationError

TRAINERS = (distributed_mlp_train, distributed_cnn_train, summa_train, elastic_mlp_train)
ENGINE_SETTINGS = ("machine", "trace", "metrics", "faults", "timeout", "profile")


@pytest.mark.parametrize("trainer", TRAINERS, ids=lambda t: t.__name__)
def test_engine_is_the_only_engine_option(trainer):
    params = inspect.signature(trainer).parameters
    assert "engine" in params
    assert not set(ENGINE_SETTINGS) & set(params)


DIMS = (6, 8, 5)
RNG = np.random.default_rng(0)
X = RNG.standard_normal((DIMS[0], 16))
Y = RNG.integers(0, DIMS[-1], 16)
CNN = IntegratedCNNConfig(
    in_channels=1, height=8, width=8, conv_channels=(2,), conv_kernels=(3,),
    pool_after=(True,), fc_dims=(6, 3),
)
XI, YI = synthetic_images(16, 1, 8, 8, 3, seed=0)


def _mlp(**kw):
    return distributed_mlp_train(MLPParams.init(DIMS), X, Y, pr=2, pc=2, **kw)


def _cnn(**kw):
    return distributed_cnn_train(CNN, CNNParams.init(CNN), XI, YI, pr=2, pc=2, **kw)


def _elastic(**kw):
    return elastic_mlp_train(MLPParams.init(DIMS), X, Y, pr=2, pc=2, **kw)


@pytest.mark.parametrize("train", [_mlp, _cnn, _elastic], ids=["mlp", "cnn", "elastic"])
@pytest.mark.parametrize("batch,steps", [
    (0, 1), (-4, 1), (8.0, 1), ("8", 1), (4, -1), (4, 1.0),
])
def test_bad_batch_or_steps_rejected_before_the_run(train, batch, steps):
    with pytest.raises(ConfigurationError, match="batch must be an integer >= 1"):
        train(batch=batch, steps=steps)
