from dataclasses import dataclass

import numpy as np
import pytest

from stepalign.errors import ValidationError
from stepalign.optim import Adam, FlatParams

from oracles import DictAdam


@dataclass
class _Mixed(FlatParams):
    matrix: np.ndarray
    vector: np.ndarray
    cube: np.ndarray
    scalar: np.ndarray


def _mixed(rng) -> _Mixed:
    return _Mixed(matrix=rng.normal(size=(5, 3)), vector=rng.normal(size=4),
                  cube=rng.normal(size=(2, 3, 2)), scalar=rng.normal(size=()))


def test_views_share_one_buffer_in_field_order():
    params = _mixed(np.random.default_rng(0))
    assert params.flat.shape == (15 + 4 + 12 + 1,)
    params.flat[15:19] = 7.0
    np.testing.assert_array_equal(params.vector, 7.0)
    params.cube[1, 2, 1] = -3.0
    assert params.flat[15 + 4 + 11] == -3.0
    copy = params.copy()
    copy.flat[:] = 0.0
    assert params.cube[1, 2, 1] == -3.0
    zeros = params.zeros_like()
    assert zeros.cube.shape == (2, 3, 2)
    assert zeros.flat.tobytes() == np.zeros(32).tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_flat_step_equals_per_tensor_step_bit_for_bit(seed):
    # 50 steps of dense, all-zero and sparse gradients, the zero and
    # sparse ones starting at step 0, where the moments are still empty
    rng = np.random.default_rng(seed)
    params = _mixed(rng)
    reference = {name: t.copy() for name, t in params.as_dict().items()}
    flat_opt, dict_opt = Adam(params.flat.size, 3e-3), DictAdam(3e-3)
    for step in range(50):
        grads = {name: rng.normal(scale=10.0 ** rng.integers(-6, 2),
                                  size=t.shape)
                 for name, t in reference.items()}
        if step % 7 == 0:
            grads["matrix"][...] = 0.0
        if step % 3 == 0:
            grads["cube"] *= rng.random(size=grads["cube"].shape) < 0.2
        flat_grads = _Mixed(**grads)
        flat_opt.step(params.flat, flat_grads.flat)
        dict_opt.step(reference, grads)
        for name, tensor in reference.items():
            assert getattr(params, name).tobytes() == tensor.tobytes(), \
                (step, name)


@pytest.mark.parametrize("params_size, grads_size", [(6, 1), (1, 6), (5, 5)])
def test_step_rejects_mismatched_shapes(params_size, grads_size):
    opt = Adam(6)
    params = np.ones(params_size)
    with pytest.raises(ValidationError, match="Adam over 6 parameters"):
        opt.step(params, np.ones(grads_size))
    assert opt.t == 0
    np.testing.assert_array_equal(params, 1.0)
