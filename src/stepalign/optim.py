"""Adam over one flat float64 parameter buffer, the parameter layout
that gives each model such a buffer, and the training loop both trainers
run.

A model's parameter dataclass derives from ``FlatParams``: its tensors are
views into one contiguous buffer, ``flat``, in field order, so one
``Adam.step`` updates every tensor. The update is elementwise, so running
it over the whole buffer gives the same bits as running it per tensor.
The optimizer's moments and scratch space are allocated once, when it is
built, and a step allocates no array.

The float64 buffer holds the master parameters, as in mixed-precision
training (Micikevicius et al., "Mixed Precision Training", ICLR 2018).
Both models compute in the dtype of their features, which
``compute_dtype`` gives: float32 for a corpus and float64 for float64
arrays; features that are not real numbers raise ValidationError. A
model that computes in float32 reads ``astype(np.float32)``, a new cast
of the whole buffer in the same layout, and its gradients accumulate
into a float64 buffer, so Adam's moments and updates stay float64.

``fit`` is the loop of both trainers: Adam over the batches a trainer
yields, validation rounds logged in a ``Training`` record, and the best
round's parameters kept, as in early stopping (Prechelt, "Early Stopping
-- But When?", 1998).
"""

from __future__ import annotations

import copy
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import NumericalError, ValidationError, check_real


@dataclass
class EpochLog:
    """One validation round of a training: its epoch, that epoch's
    training loss and the val score after its step."""
    epoch: int
    loss: float
    val_score: float


def compute_dtype(*features: np.ndarray) -> np.dtype:
    """The dtype a model computes in for these feature arrays: float32
    when each holds float32 or narrower numbers, float64 otherwise. An
    array of bools, complex numbers, objects or strings raises
    ValidationError naming its dtype."""
    for array in features:
        check_real(array, "features")
    return np.result_type(np.float32, *features)


class FlatParams:
    """Base of a dataclass whose fields are tensors viewing one flat
    buffer, ``flat``, in field order. Building one copies the given
    tensors into one new float64 buffer, the master parameters, and
    rebinds each field to its view into it."""

    flat: np.ndarray

    def __post_init__(self) -> None:
        tensors = {name: np.asarray(t, dtype=np.float64)
                   for name, t in self.as_dict().items()}
        layout, start = [], 0
        for name, tensor in tensors.items():
            layout.append((name, start, start + tensor.size, tensor.shape))
            start += tensor.size
        self._layout = tuple(layout)
        self._bind(np.concatenate([t.ravel() for t in tensors.values()]))

    def _bind(self, flat: np.ndarray) -> None:
        """Rebind each field to its view into ``flat``."""
        for name, start, stop, shape in self._layout:
            setattr(self, name, flat[start:stop].reshape(shape))
        self.flat = flat

    def astype(self, dtype):
        """These parameters held in ``dtype``: ``self`` when they are, else
        a new cast of the whole buffer in the same layout. A ``copy`` or
        ``zeros_like`` of a cast is float64 again."""
        if self.flat.dtype == dtype:
            return self
        out = copy.copy(self)
        out._bind(self.flat.astype(dtype))
        return out

    @classmethod
    def tensor_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.tensor_names()}

    def copy(self):
        return type(self)(**self.as_dict())

    def zeros_like(self):
        """Same layout in float64, every entry +0.0: a gradient
        accumulator."""
        out = copy.copy(self)
        out._bind(np.zeros(self.flat.size))
        return out


_LEARNING_RATE, _BETA1, _BETA2, _EPS = 1e-3, 0.9, 0.999, 1e-8


class Adam:
    """Adam over a flat buffer of ``size`` float64 parameters, with the
    usual learning rate 1e-3, moment decays 0.9 and 0.999 and epsilon
    1e-8, which both trainers use."""

    def __init__(self, size: int):
        self.t = 0
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._step = np.empty(size)
        self._denom = np.empty(size)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Update ``params`` in place from ``grads``; both are flat buffers
        of the optimizer's size. The operations and their order are those
        of the textbook per-tensor update
        ``params -= lr * m_hat / (sqrt(v_hat) + eps)``."""
        if params.shape != self._m.shape or grads.shape != self._m.shape:
            raise ValidationError(
                f"Adam over {self._m.size} parameters got params of shape "
                f"{params.shape} and grads of shape {grads.shape}")
        self.t += 1
        b1, b2 = _BETA1, _BETA2
        m, v, step, denom = self._m, self._v, self._step, self._denom
        m *= b1
        np.multiply(grads, 1 - b1, out=step)
        m += step
        v *= b2
        np.multiply(grads, 1 - b2, out=step)
        step *= grads
        v += step
        np.divide(m, 1 - b1 ** self.t, out=step)
        step *= _LEARNING_RATE
        np.divide(v, 1 - b2 ** self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += _EPS
        step /= denom
        params -= step


@dataclass
class Training:
    """A fold's training: the parameters of its best validation round,
    that round's epoch and score, and every round's ``EpochLog``. Before
    the first round the best epoch is -1 and the score -1.0."""
    fold_id: int
    params: FlatParams
    best_epoch: int = -1
    best_score: float = -1.0
    log: list[EpochLog] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        """Epochs trained before training stopped; the last validation
        round is the last epoch run."""
        return self.log[-1].epoch + 1 if self.log else 0


def fit(training: Training, params: FlatParams,
        batches: Callable[[int], Iterable[tuple[float, np.ndarray]]],
        score: Callable[[], float], epochs: int, val_every: int = 1,
        patience: float = math.inf) -> Training:
    """Train ``params`` in place with Adam; return ``training`` holding
    the best validation round. Each epoch steps once per ``(loss, flat
    grads)`` pair of ``batches(epoch)``. Epochs that are a multiple of
    ``val_every``, and the last, end in a round that logs the mean of
    their losses and ``score()``; a strictly better score copies the
    parameters into ``training.params``. Training stops at the first
    round ``patience`` or more epochs after the best one. A non-finite
    loss, or a ``NumericalError`` in an epoch, raises ``NumericalError``
    naming the fold and the epoch."""
    opt = Adam(params.flat.size)
    for epoch in range(epochs):
        try:
            losses = []
            for loss, grads in batches(epoch):
                if not math.isfinite(loss):
                    raise NumericalError("non-finite training loss")
                opt.step(params.flat, grads)
                losses.append(loss)
            if epoch % val_every and epoch != epochs - 1:
                continue
            val_score = score()
        except NumericalError as exc:
            raise NumericalError(
                f"fold {training.fold_id} epoch {epoch}: {exc}") from None
        training.log.append(EpochLog(epoch=epoch, loss=float(np.mean(losses)),
                                     val_score=val_score))
        if val_score > training.best_score:
            training.best_score = val_score
            training.best_epoch = epoch
            training.params.flat[:] = params.flat
        if epoch - training.best_epoch >= patience:
            break
    return training


__all__ = ["Adam", "EpochLog", "FlatParams", "Training", "compute_dtype",
           "fit"]
