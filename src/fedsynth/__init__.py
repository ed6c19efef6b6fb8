"""Deterministic federated-averaging simulator with synthetic-data sharing.

Clients holding non-IID shards synthesize privacy-reduced proxy samples by
matching CAM-weighted, prototype-hardened features of real samples; a
simulated server pools the proxies and redistributes them to regularize
local training.
"""

__version__ = "0.1.0"

from . import autodiff, config, data, engine, metrics, runner, synthesis
