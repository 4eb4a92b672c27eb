"""Model configs at the library's defaults, which ``ExperimentConfig`` holds."""

from dataclasses import replace

import binadapt as ba

DEFAULTS = ba.ExperimentConfig()
SAE = DEFAULTS.sae_config()


def sae_cfg(**changes):
    """The default SAE config with the given fields changed."""
    return replace(SAE, **changes)


def bindann_cfg(sae=SAE, lambda0=DEFAULTS.lambda0):
    """A Bin-DANN config on ``sae`` with the default reversal schedule."""
    return ba.BinDannConfig(sae, lambda0, DEFAULTS.lambda_inc)
