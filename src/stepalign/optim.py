"""Adam over one flat float64 parameter buffer, and the parameter layout
that gives each model such a buffer.

A model's parameter dataclass derives from ``FlatParams``: its tensors are
views into one contiguous buffer, ``flat``, in field order, so one
``Adam.step`` updates every tensor. The update is elementwise, so running
it over the whole buffer gives the same bits as running it per tensor.
The optimizer's moments and scratch space are allocated once, when it is
built, and a step allocates no array. Both trainers log each validation
round as an ``EpochLog``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError


@dataclass
class EpochLog:
    """One validation round of a training: its epoch, that epoch's
    training loss and the val score after its step."""
    epoch: int
    loss: float
    val_score: float


class FlatParams:
    """Base of a dataclass whose fields are float64 tensors. Building one
    copies the given tensors into one new flat buffer, ``flat``, and
    rebinds each field to its view into that buffer."""

    flat: np.ndarray

    def __post_init__(self) -> None:
        tensors = {name: np.asarray(t, dtype=np.float64)
                   for name, t in self.as_dict().items()}
        self.flat = np.empty(sum(t.size for t in tensors.values()))
        start = 0
        for name, tensor in tensors.items():
            view = self.flat[start:start + tensor.size].reshape(tensor.shape)
            view[...] = tensor
            setattr(self, name, view)
            start += tensor.size

    @classmethod
    def tensor_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.tensor_names()}

    def copy(self):
        return type(self)(**self.as_dict())

    def zeros_like(self):
        """Same layout, every entry +0.0: a gradient accumulator."""
        out = self.copy()
        out.flat.fill(0.0)
        return out


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam over a flat buffer of ``size`` float64 parameters, with the
    usual moment decays 0.9 and 0.999 and epsilon 1e-8."""

    def __init__(self, size: int, learning_rate: float = 1e-3):
        self.learning_rate = learning_rate
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
        step *= self.learning_rate
        np.divide(v, 1 - b2 ** self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += _EPS
        step /= denom
        params -= step


__all__ = ["Adam", "EpochLog", "FlatParams"]
