"""Per-model adaptive miscoverage via pinball loss and scale-free OGD.

A level's whole SF-OGD state is two floats: the level ``alpha`` and the
running sum of squared gradients ``grad_sq``. Each update returns both.
"""

from __future__ import annotations

import math


def pinball_loss(alpha_bar: float, alpha: float, target_alpha: float) -> float:
    diff = alpha_bar - alpha
    return target_alpha * diff - min(0.0, diff)


def sfogd_update(alpha: float, grad_sq: float, alpha_bar: float, target_alpha: float,
                 eta: float) -> tuple:
    """One scale-free OGD step on the pinball loss; returns the new ``(alpha, grad_sq)``.

    Its gradient in ``alpha`` is ``err - target_alpha``, with ``err`` 1 on a miss
    (``alpha_bar < alpha``) and 0 on a cover; the boundary ``alpha_bar == alpha`` covers.
    """
    return sfogd_update_err(alpha, grad_sq, alpha_bar < alpha, target_alpha, eta)


def sfogd_update_err(alpha: float, grad_sq: float, err: int, target_alpha: float,
                     eta: float) -> tuple:
    """SF-OGD step driven by the miss indicator ``err``; returns the new ``(alpha, grad_sq)``.

    The step is ``eta`` over the root of the running sum of squared gradients.
    """
    g = float(err) - target_alpha
    grad_sq += g * g
    # |g| >= target_alpha > 0, so grad_sq > 0 whenever an update happens
    return alpha - eta * g / math.sqrt(grad_sq), grad_sq
