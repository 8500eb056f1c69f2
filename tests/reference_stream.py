"""Plain-loop stream generator: one ``stream_rng`` generator per row, as streams were made
before seed words were hashed per block. Its only use of the package is ``stream_rng``.

Step t (1-based) of seed s:
  - severity: 0 under "stationary"; under "sudden" 0 in even batches and 5 in odd ones;
    under "gradual" it cycles 0,1,2,3,4,5,4,3,2,1 per batch;
  - label: ``stream_rng(s, "stream-label", t).integers(K)``;
  - model m: ``z = stream_rng(s, "stream-model", t, m).standard_normal(K)``, logits
    ``z * noise * (1 + severity)``, plus the quality signal at the label, divided by the
    temperature; probabilities are their softmax after subtracting the largest logit.
"""

import numpy as np

from gmocp.rng import stream_rng

SIGNAL = {"high": 12.0, "medium": 7.0, "low": 1.0}


def severity(t, schedule, batch_size):
    batch = (t - 1) // batch_size
    if schedule == "stationary":
        return 0
    if schedule == "sudden":
        return 0 if batch % 2 == 0 else 5
    pos = batch % 10
    return pos if pos <= 5 else 10 - pos


def reference_step(cfg, t, master_seed):
    """(t, true_label, severity, [one probability vector per model])."""
    sev = severity(t, cfg.schedule, cfg.batch_size)
    label = int(stream_rng(master_seed, "stream-label", t).integers(cfg.n_labels))
    probs = []
    for m, profile in enumerate(cfg.model_profiles):
        logits = stream_rng(master_seed, "stream-model", t, m).standard_normal(cfg.n_labels)
        logits = logits * (profile.noise_scale * (1.0 + sev))
        logits[label] += SIGNAL[profile.quality]
        logits /= profile.temperature
        logits -= logits.max()
        p = np.exp(logits)
        p /= p.sum()
        probs.append(p)
    return t, label, sev, probs
