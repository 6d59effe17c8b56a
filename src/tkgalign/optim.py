"""RMSprop and finite-difference gradient verification."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .autodiff import Tensor, backward, leaf
from .errors import NonFiniteError

RMSPROP_DECAY = 0.9  # decay of the squared-gradient running average
RMSPROP_EPSILON = 1e-8  # eps added to its square root


class ParameterStore:
    """Named leaf tensors plus their optimizer state, updated in a fixed order.

    Iteration order is insertion order, which the trainer keeps deterministic
    so that runs with the same seed produce identical parameter trajectories.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = leaf(np.asarray(data), name=name)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self) -> list[tuple[str, Tensor]]:
        return list(self._params.items())

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def num_scalars(self) -> int:
        return sum(t.data.size for t in self._params.values())


@dataclass
class RmsPropState:
    """Squared-gradient running averages, one slot per parameter."""

    cache: dict[str, np.ndarray] = field(default_factory=dict)

    def step(self, store: ParameterStore, lr: float) -> None:
        """v <- decay*v + (1-decay)*g^2 ; theta <- theta - lr*g/(sqrt(v)+eps)."""
        for name, t in store.items():
            if t.grad is None:
                continue
            g = t.grad
            if not np.all(np.isfinite(g)):
                raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
            v = self.cache.get(name)
            if v is None:
                v = np.zeros_like(t.data)
                self.cache[name] = v
            v *= RMSPROP_DECAY
            v += (1.0 - RMSPROP_DECAY) * g * g
            t.data -= lr * g / (np.sqrt(v) + RMSPROP_EPSILON)


def gradient_check(
    loss_fn: Callable[[], Tensor],
    store: ParameterStore,
    step: float = 1e-5,
    coords_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> dict[str, float]:
    """Compare analytic gradients against centered finite differences.

    ``loss_fn`` must rebuild the scalar loss from the current parameter
    values on every call (the tape is not reusable). Returns the worst
    relative error per parameter, where relative error is
    ``|analytic - fd| / max(|analytic|, |fd|, floor)``. The floor scales
    with the loss magnitude (``1e-5 * max(1, |loss|)``): centered
    differences carry rounding noise of roughly ``eps * |loss| / step``, so
    coordinates whose true gradient is zero would otherwise report that
    noise as a large relative error. When ``coords_per_param`` is None every
    coordinate is checked; otherwise that many are sampled per parameter
    with ``rng``.
    """
    store.zero_grads()
    root = loss_fn()
    floor = 1e-5 * max(1.0, abs(float(root.data)))
    backward(root)
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in store.items()
    }
    store.zero_grads()

    worst: dict[str, float] = {}
    for name, t in store.items():
        flat = t.data.reshape(-1)
        n = flat.size
        if coords_per_param is None or coords_per_param >= n:
            coords = np.arange(n)
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=coords_per_param, replace=False)
        a_flat = analytic[name].reshape(-1)
        err = 0.0
        for c in coords:
            saved = flat[c]
            flat[c] = saved + step
            up = float(loss_fn().data)
            flat[c] = saved - step
            down = float(loss_fn().data)
            flat[c] = saved
            fd = (up - down) / (2.0 * step)
            a = float(a_flat[c])
            err = max(err, abs(a - fd) / max(abs(a), abs(fd), floor))
        worst[name] = err
    return worst
