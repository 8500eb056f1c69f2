"""Independent straight-line reference loops for the MOCP, COMA and ACI baselines.

Like ``reference_gmocp``, these use plain python loops and none of the
package's vectorized helpers, so a trace comparison cross-checks the
implementation. Only the named RNG streams and the per-step draw order are
shared with the real policies:

  MOCP: one tie-break uniform per model (one for all when ``shared_u``), then
        one uniform for model selection;
  COMA: the same tie-break uniforms, then one uniform for the voting threshold;
  ACI:  one tie-break uniform.

Weights are kept as logs, as in the package: an update subtracts from ``log_w``,
and a draw or vote reads ``exp(lw - max(log_w))``, floored at the smallest positive
float.
"""

from __future__ import annotations

import math

from gmocp.rng import stream_rng
from reference_gmocp import _alpha_bar, _pick, _score, _threshold


def _draw_u(rng, n_models, shared_u):
    if shared_u:
        return [float(rng.random())] * n_models
    return [float(rng.random()) for _ in range(n_models)]


def _labels(p, u, threshold, xi, k_reg):
    return {lab for lab in range(len(p)) if _score(p, lab, u, xi, k_reg) <= threshold}


def _linear(log_w):
    top = max(log_w)
    return [max(math.exp(lw - top), math.ulp(0.0)) for lw in log_w]


def _sfogd(alpha, grad_sq, miss, target_alpha, eta):
    g = (1.0 if miss else 0.0) - target_alpha
    grad_sq += g * g
    return alpha - eta * g / math.sqrt(grad_sq), grad_sq


def reference_mocp(steps, n_models, xi, k_reg, target_alpha=0.1, eta=0.05, epsilon=0.5,
                   alpha_init=None, shared_u=False, track_alpha_bar=False, master_seed=0):
    """Replay MOCP over (probs, true_label) steps; (one dict per step, final state)."""
    rng_u = stream_rng(master_seed, "mocp/tiebreak")
    rng_model = stream_rng(master_seed, "mocp/model")
    alpha0 = target_alpha if alpha_init is None else alpha_init
    log_w, alphas, grad_sq = [0.0] * n_models, [alpha0] * n_models, [0.0] * n_models
    stores = [[] for _ in range(n_models)]
    trace = []

    for t, (probs, y) in enumerate(steps, start=1):
        u_vec = _draw_u(rng_u, n_models, shared_u)
        weights = _linear(log_w)
        total = sum(weights)
        chosen = _pick([w / total for w in weights], float(rng_model.random()))

        thr = _threshold(stores[chosen], alphas[chosen])
        labels = _labels(probs[chosen], u_vec[chosen], thr, xi, k_reg)
        err = 0 if y in labels else 1

        a_bars = [_alpha_bar(stores[m], _score(probs[m], y, u_vec[m], xi, k_reg))
                  for m in range(n_models)]
        for m in range(n_models):
            diff = a_bars[m] - alphas[m]
            loss = target_alpha * diff + max(0.0, -diff)
            if m == chosen:
                chosen_loss = loss
            log_w[m] -= epsilon * loss
            alphas[m], grad_sq[m] = _sfogd(alphas[m], grad_sq[m], a_bars[m] < alphas[m],
                                           target_alpha, eta)
        for m in range(n_models):
            stores[m].append(_score(probs[m], y, u_vec[m], xi, k_reg))
            stores[m].sort()

        trace.append({"t": t, "chosen_model": chosen, "set_size": len(labels), "err": err,
                      "node": -1, "subset": tuple(range(n_models)), "chosen_loss": chosen_loss,
                      "alpha_bars": tuple(a_bars) if track_alpha_bar else None,
                      "labels": frozenset(labels)})
    return trace, {"log_w": log_w, "alphas": alphas, "grad_sq": grad_sq}


def reference_coma(steps, n_models, xi, k_reg, target_alpha=0.1, eta=0.05, coma_gamma=0.01,
                   alpha_init=None, shared_u=False, master_seed=0):
    """Replay COMA over (probs, true_label) steps; (one dict per step, final state)."""
    rng_u = stream_rng(master_seed, "coma/tiebreak")
    rng_vote = stream_rng(master_seed, "coma/vote")
    alpha0 = target_alpha if alpha_init is None else alpha_init
    log_w, alpha, grad_sq = [0.0] * n_models, alpha0, 0.0
    stores = [[] for _ in range(n_models)]
    trace = []

    for t, (probs, y) in enumerate(steps, start=1):
        u_vec = _draw_u(rng_u, n_models, shared_u)
        vote_u = float(rng_vote.random())

        member = [_labels(probs[m], u_vec[m], _threshold(stores[m], alpha), xi, k_reg)
                  for m in range(n_models)]
        weights = _linear(log_w)
        total = sum(weights)
        labels = set()
        for lab in range(len(probs[0])):
            tally = sum(weights[m] / total for m in range(n_models) if lab in member[m])
            if tally > (1.0 + vote_u) / 2.0:
                labels.add(lab)
        err = 0 if y in labels else 1

        for m in range(n_models):
            log_w[m] -= coma_gamma * len(member[m])
            stores[m].append(_score(probs[m], y, u_vec[m], xi, k_reg))
            stores[m].sort()
        alpha, grad_sq = _sfogd(alpha, grad_sq, err, target_alpha, eta)

        trace.append({"t": t, "chosen_model": -1, "set_size": len(labels), "err": err,
                      "node": -1, "subset": tuple(range(n_models)), "chosen_loss": 0.0,
                      "alpha_bars": None, "labels": frozenset(labels)})
    return trace, {"log_w": log_w, "alphas": [alpha0] * n_models, "grad_sq": [0.0] * n_models,
                   "shared_alpha": alpha, "shared_grad_sq": grad_sq}


def reference_aci(steps, xi, k_reg, target_alpha=0.1, aci_lr=0.05, alpha_init=None,
                  master_seed=0):
    """Replay single-model ACI on the first model of (probs, true_label) steps; (one dict
    per step, final state). One tie-break uniform per step; the level moves by the
    fixed step ``aci_lr``."""
    rng_u = stream_rng(master_seed, "aci/tiebreak")
    alpha = target_alpha if alpha_init is None else alpha_init
    store = []
    trace = []

    for t, (probs, y) in enumerate(steps, start=1):
        u = float(rng_u.random())
        labels = _labels(probs[0], u, _threshold(store, alpha), xi, k_reg)
        err = 0 if y in labels else 1
        store.append(_score(probs[0], y, u, xi, k_reg))
        store.sort()
        alpha += aci_lr * (target_alpha - err)

        trace.append({"t": t, "chosen_model": 0, "set_size": len(labels), "err": err,
                      "node": -1, "subset": (0,), "chosen_loss": 0.0, "alpha_bars": None,
                      "labels": frozenset(labels)})
    return trace, {"log_w": [0.0], "alphas": [alpha], "grad_sq": [0.0]}
