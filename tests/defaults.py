"""Model configs and models at the library's defaults, which ``ExperimentConfig`` holds."""

from dataclasses import replace

import numpy as np

import binadapt as ba

DEFAULTS = ba.ExperimentConfig()
SAE = DEFAULTS.sae_config()


def sae_cfg(**changes):
    """The default SAE config with the given fields changed."""
    return replace(SAE, **changes)


def bindann(sae=SAE, seed=0, lam=DEFAULTS.lambda0):
    """A Bin-DANN on ``sae`` built from ``seed``, its reversal coefficient set
    to ``lam``: by default the schedule's first value, as training sets it."""
    model = ba.build_bindann(sae, np.random.default_rng(seed))
    model.set_grl(lam)
    return model
