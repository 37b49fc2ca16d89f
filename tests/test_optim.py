import math
from dataclasses import dataclass

import numpy as np
import pytest

from stepalign import optim
from stepalign.errors import NumericalError
from stepalign.optim import Adam, FlatParams, Training, compute_dtype, fit

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


def test_float32_cast_shares_the_layout_and_leaves_the_master():
    params = _mixed(np.random.default_rng(1))
    master = params.flat.copy()
    assert params.astype(np.float64) is params
    low = params.astype(np.float32)
    assert low.flat.tobytes() == master.astype(np.float32).tobytes()
    for name, tensor in params.as_dict().items():
        view = getattr(low, name)
        assert view.shape == tensor.shape, name
        assert np.shares_memory(view, low.flat), name
    assert params.flat.tobytes() == master.tobytes()
    # a copy or a gradient accumulator of a cast is float64 again
    assert low.copy().flat.tobytes() == low.flat.astype(np.float64).tobytes()
    assert low.zeros_like().flat.tobytes() == np.zeros(32).tobytes()


@pytest.mark.parametrize("dtypes, want", [
    ((np.float32,), np.float32), ((np.float32, np.float32), np.float32),
    ((np.float16,), np.float32), ((np.int16,), np.float32),
    ((np.float64,), np.float64), ((np.float32, np.float64), np.float64),
    ((np.int64,), np.float64), ((np.uint32, np.float32), np.float64),
], ids=lambda v: "-".join(np.dtype(d).name for d in v)
   if isinstance(v, tuple) else np.dtype(v).name)
def test_compute_dtype_is_float32_only_for_float32_or_narrower(dtypes, want):
    assert compute_dtype(*(np.zeros((2, 3), d) for d in dtypes)) == want


@pytest.mark.parametrize("seed", range(3))
def test_flat_step_equals_per_tensor_step_bit_for_bit(seed, monkeypatch):
    # 50 steps of dense, all-zero and sparse gradients, the zero and
    # sparse ones starting at step 0, where the moments are still empty
    monkeypatch.setattr(optim, "_LEARNING_RATE", 3e-3)
    rng = np.random.default_rng(seed)
    params = _mixed(rng)
    reference = {name: t.copy() for name, t in params.as_dict().items()}
    flat_opt, dict_opt = Adam(params.flat.size), DictAdam(3e-3)
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


def test_first_step_moves_each_parameter_by_the_learning_rate():
    # m_hat = g and v_hat = g^2 after one step, so each parameter moves by
    # 1e-3 * |g| / (|g| + 1e-8) against its gradient, a zero one not at all
    grads = np.array([2.0, -0.5, 0.0, 1e-3, -40.0])
    params = np.ones(grads.size)
    Adam(grads.size).step(params, grads)
    np.testing.assert_allclose(
        params, 1.0 - 1e-3 * grads / (np.abs(grads) + 1e-8), rtol=1e-14)


@dataclass
class _Toy(FlatParams):
    w: np.ndarray


_TOY_RATE = 0.1


def _fit(scores, epochs, losses=(1.0,), val_every=1, patience=math.inf):
    """``fit`` at learning rate ``_TOY_RATE`` on a two-entry toy whose
    gradient is all ones. Every epoch steps once per entry of ``losses``
    (a callable of the epoch, or one sequence for every epoch), and the
    validation rounds score ``scores`` in turn. Returns the training, the
    live parameters, the epochs whose batches were drawn and the
    parameters each round saw."""
    params = _Toy(w=np.zeros(2))
    scripted, drawn, seen = iter(scores), [], []

    def batches(epoch):
        drawn.append(epoch)
        for loss in (losses(epoch) if callable(losses) else losses):
            yield loss, np.ones(2)

    def score():
        seen.append(params.flat.copy())
        return next(scripted)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optim, "_LEARNING_RATE", _TOY_RATE)
        training = fit(Training(3, params.copy()), params, batches, score,
                       epochs, val_every, patience)
    return training, params, drawn, seen


def test_fit_ties_keep_the_earlier_epoch():
    training, params, _, seen = _fit([0.2, 0.5, 0.5, 0.4], epochs=4)
    assert (training.best_epoch, training.best_score) == (1, 0.5)
    assert [r.val_score for r in training.log] == [0.2, 0.5, 0.5, 0.4]
    assert training.params.flat.tobytes() == seen[1].tobytes()


@pytest.mark.parametrize("epochs, rounds", [
    (7, [0, 3, 6]), (8, [0, 3, 6, 7]), (1, [0]), (3, [0, 2])])
def test_fit_validates_every_val_every_epochs_and_the_last(epochs, rounds):
    training, _, drawn, _ = _fit([0.1] * len(rounds), epochs, val_every=3)
    assert [r.epoch for r in training.log] == rounds
    assert drawn == list(range(epochs))
    assert training.epochs_run == epochs


def test_fit_stops_at_the_first_round_reaching_patience():
    # rounds at epochs 0, 2, 4, ...; the best is epoch 2 until the round
    # at epoch 6, which is 4 epochs after it
    scores = [0.1, 0.3, 0.3, 0.2, 0.9, 0.9]
    training, _, drawn, _ = _fit(scores, epochs=20, val_every=2, patience=4)
    assert [r.epoch for r in training.log] == [0, 2, 4, 6]
    assert drawn == list(range(7))
    assert (training.best_epoch, training.best_score) == (2, 0.3)
    assert training.epochs_run == 7


def test_fit_round_that_improves_never_stops():
    training, _, drawn, _ = _fit([0.1, 0.2, 0.3, 0.4], epochs=4, patience=1)
    assert training.best_epoch == 3
    assert drawn == [0, 1, 2, 3]


def test_fit_logs_the_mean_batch_loss_and_steps_once_per_batch(monkeypatch):
    losses = {0: [1.0, 2.0, 4.5], 1: [0.25]}
    training, params, _, _ = _fit([0.1, 0.2], epochs=2,
                                  losses=losses.__getitem__)
    assert [r.loss for r in training.log] == [2.5, 0.25]
    monkeypatch.setattr(optim, "_LEARNING_RATE", _TOY_RATE)
    want, opt = np.zeros(2), Adam(2)
    for _ in range(4):
        opt.step(want, np.ones(2))
    assert params.flat.tobytes() == want.tobytes()


def test_fit_returns_a_copy_of_the_best_rounds_parameters():
    training, params, _, seen = _fit([0.3, 0.9, 0.1], epochs=3)
    assert training.best_epoch == 1
    assert training.params is not params
    assert training.params.w.tobytes() == seen[1].tobytes()
    assert params.flat.tobytes() == seen[2].tobytes() != seen[1].tobytes()


def test_training_starts_without_a_round():
    training = Training(0, _Toy(w=np.ones(2)))
    assert (training.best_epoch, training.best_score) == (-1, -1.0)
    assert (training.log, training.epochs_run) == ([], 0)


@pytest.mark.parametrize("loss", [math.nan, math.inf, -math.inf])
def test_fit_non_finite_loss_names_fold_and_epoch(loss):
    with pytest.raises(NumericalError,
                       match=r"^fold 3 epoch 2: non-finite training loss$"):
        _fit([0.1] * 3, epochs=5,
             losses=lambda epoch: [1.0, loss if epoch == 2 else 1.0])


def test_fit_names_fold_and_epoch_of_a_numerical_error_in_a_batch():
    def losses(epoch):
        if epoch == 1:
            raise NumericalError("slot matrix contains non-finite values")
        return [1.0]

    with pytest.raises(NumericalError, match=r"^fold 3 epoch 1: slot matrix"):
        _fit([0.1] * 3, epochs=3, losses=losses)


def test_fit_names_fold_and_epoch_of_a_numerical_error_in_validation():
    def score():
        raise NumericalError("slot matrix contains non-finite values")

    with pytest.raises(NumericalError, match=r"^fold 3 epoch 0: slot matrix"):
        fit(Training(3, _Toy(w=np.zeros(2))), _Toy(w=np.zeros(2)),
            lambda epoch: [(1.0, np.ones(2))], score, 2)
