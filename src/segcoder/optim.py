"""Adam optimizer with bias correction.

The moment decay rates and the denominator guard are the module constants
BETA1 = 0.9, BETA2 = 0.999 and EPS = 1e-8. The learning rate, the one
setting, comes from the training config (default 2e-4).
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    lr: float
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def init_adam(params, lr):
    """Fresh moment buffers matching each parameter's shape."""
    m = [np.zeros_like(p.data) for p in params]
    v = [np.zeros_like(p.data) for p in params]
    return AdamState(lr=lr, m=m, v=v)


def adam_step(params, grads, state):
    """One bias-corrected update; mutates params and state in place.

    ``grads`` may contain None for parameters untouched by the loss; those
    are treated as zero gradient.
    """
    if len(params) != len(state.m):
        raise ValueError(f"state holds {len(state.m)} buffers for {len(params)} params")
    state.t += 1
    update = kernels.active.adam_update
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.data.shape}")
        update(p.data, g, m, v, state.t, state.lr, BETA1, BETA2, EPS)
    return params, state


def step_with_grads(params, state):
    """adam_step using each tensor's accumulated .grad, then clears them."""
    grads = [p.grad for p in params]
    adam_step(params, grads, state)
    for p in params:
        p.zero_grad()
    return state


__all__ = ["AdamState", "init_adam", "adam_step", "step_with_grads"]
