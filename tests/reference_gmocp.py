"""Independent straight-line reference interpreter for the GMOCP step loop.

Deliberately written with plain python loops and none of the vectorized
helpers from the package, so a trace comparison actually cross-checks the
implementation. Only the named RNG streams and the per-step draw order are
shared with the real policy:

  1. one tie-break uniform per model (one for all when ``shared_u``),
  2. N uniforms per selective node (row by row),
  3. one uniform for node selection (J > 1 only),
  4. one uniform for model selection.

The exploration-mixed PMF is taken as ``(1 - eta_e) * (w / total) + eta_e / M``,
the documented formula's order of operations, so it rounds as the package's does.
"""

from __future__ import annotations

import math

from gmocp.rng import stream_rng


def _pick(pmf, draw):
    """First index whose cumulative mass exceeds the draw (clamped)."""
    acc = 0.0
    for i, p in enumerate(pmf):
        acc += p
        if draw < acc:
            return i
    return len(pmf) - 1


def _score(p, y, u, xi, k_reg):
    py = p[y]
    k_y = sum(1 for x in p if x >= py)
    rho = sum(x for x in p if x > py)
    return xi * math.sqrt(max(k_y - k_reg, 0)) + u * py + rho


def _threshold(sorted_scores, alpha):
    n = len(sorted_scores)
    k = math.ceil((n + 1) * (1.0 - alpha))
    if n == 0 or k > n:
        return math.inf
    if k <= 0:
        return -math.inf
    return sorted_scores[k - 1]


def _alpha_bar(sorted_scores, true_score):
    n = len(sorted_scores)
    if n == 0:
        return 1.0
    rank = n  # zero-based index of the first stored score >= true_score
    for i, s in enumerate(sorted_scores):
        if s >= true_score:
            rank = i
            break
    return 1.0 - rank / (n + 1)


def reference_trace(steps, n_models, xi, k_reg, n_labels, eta_e, n_selective,
                    max_links, target_alpha=0.1, eta=0.05, epsilon=0.5,
                    beta=0.0, master_seed=0, alpha_init=None, shared_u=False,
                    track_alpha_bar=False):
    """Replay the GMOCP loop over (probs, true_label) steps; one dict per step.

    ``eta_e`` is a per-node list of exploration coefficients. Each dict holds the
    state after its step: ``weights``, ``alphas`` and ``grad_sq``.
    """
    rng_u = stream_rng(master_seed, "gmocp/tiebreak")
    rng_graph = stream_rng(master_seed, "gmocp/graph")
    rng_node = stream_rng(master_seed, "gmocp/node")
    rng_model = stream_rng(master_seed, "gmocp/model")

    weights = [1.0] * n_models
    alphas = [target_alpha if alpha_init is None else alpha_init] * n_models
    grad_sq = [0.0] * n_models
    stores = [[] for _ in range(n_models)]
    scale = 2.0 ** math.floor(math.log2(n_selective))
    trace = []

    for t, (probs, y) in enumerate(steps, start=1):
        if shared_u:
            u_vec = [float(rng_u.random())] * n_models
        else:
            u_vec = [float(rng_u.random()) for _ in range(n_models)]

        total_w = sum(weights)
        pmfs = [
            [(1.0 - e) * (w / total_w) + e / n_models for w in weights]
            for e in eta_e
        ]
        rows = []
        for j in range(n_selective):
            members = set()
            for _ in range(max_links):
                members.add(_pick(pmfs[j], float(rng_graph.random())))
            rows.append(sorted(members))

        node_w = [sum(weights[m] for m in row) for row in rows]
        node_pmf = [w / sum(node_w) for w in node_w]
        node = 0 if n_selective == 1 else _pick(node_pmf, float(rng_node.random()))
        subset = rows[node]

        model_draw = float(rng_model.random())
        if len(subset) == 1:
            chosen = subset[0]
        else:
            sub_w = [weights[m] for m in subset]
            chosen = subset[_pick(sub_w, model_draw * sum(sub_w))]

        thr = _threshold(stores[chosen], alphas[chosen])
        labels = set()
        for lab in range(n_labels):
            if _score(probs[chosen], lab, u_vec[chosen], xi, k_reg) <= thr:
                labels.add(lab)
        err = 0 if y in labels else 1

        scores = [_score(probs[m], y, u_vec[m], xi, k_reg) for m in range(n_models)]
        a_bars = [_alpha_bar(stores[m], scores[m]) for m in range(n_models)]
        for m in subset:
            ab = a_bars[m]
            diff = ab - alphas[m]
            loss = target_alpha * diff + max(0.0, -diff)
            if m == chosen:
                chosen_loss = loss
            q = sum(
                node_pmf[j] * (1.0 - (1.0 - pmfs[j][m]) ** max_links)
                for j in range(n_selective)
            ) if n_selective > 1 else 1.0 - (1.0 - pmfs[0][m]) ** max_links
            exponent = (1.0 - beta) * (loss / q) / scale
            if beta > 0.0:
                if m == chosen:
                    size = len(labels)
                else:
                    thr_m = _threshold(stores[m], alphas[m])
                    size = sum(
                        1 for lab in range(n_labels)
                        if _score(probs[m], lab, u_vec[m], xi, k_reg) <= thr_m
                    )
                exponent += beta * size
            weights[m] *= math.exp(-epsilon * exponent)
            g = (1.0 if ab < alphas[m] else 0.0) - target_alpha
            grad_sq[m] += g * g
            alphas[m] -= eta * g / math.sqrt(grad_sq[m])

        for m in range(n_models):
            stores[m].append(scores[m])
            stores[m].sort()
        # weights only shrink from 1.0: doubling until the largest is >= 1
        # puts it in [1, 2) without changing any ratio
        while max(weights) < 1.0:
            weights = [2.0 * w for w in weights]

        trace.append({
            "t": t,
            "node": node,
            "subset": tuple(subset),
            "chosen": chosen,
            "set_size": len(labels),
            "labels": frozenset(labels),
            "err": err,
            "chosen_loss": chosen_loss,
            "alpha_bars": tuple(a_bars) if track_alpha_bar else None,
            "weights": list(weights),
            "alphas": list(alphas),
            "grad_sq": list(grad_sq),
        })
    return trace
