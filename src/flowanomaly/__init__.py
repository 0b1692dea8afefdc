"""flowanomaly - detect and localize flow anomalies from endpoint records.

Per-segment transmission speeds are inferred from origin/destination records
alone; records whose observed transit time deviates far from expectation are
flagged, ranked by how many other flagged records contain them, and the
innermost contained records localize the congested segments.

The package root holds the names of the README's library example; everything
else is imported from its own module (core, routeinfer, models, anomaly,
evaluation, synth, recordio, errors, cli).
"""

from .anomaly import DetectConfig, filter_significant, rank_anomalies, score
from .models import fit_edge_model
from .synth import SynthConfig, generate_network, generate_records

__version__ = "0.1.0"

__all__ = [
    "DetectConfig",
    "SynthConfig",
    "filter_significant",
    "fit_edge_model",
    "generate_network",
    "generate_records",
    "rank_anomalies",
    "score",
]
