"""flowanomaly - detect and localize flow anomalies from endpoint records.

Per-segment transmission speeds are inferred from origin/destination records
alone; records whose observed transit time deviates far from expectation are
flagged, ranked by how many other flagged records contain them, and the
innermost contained records localize the congested segments.

The package root holds the names of the README's library example; everything
else is imported from its own module (core, routeinfer, models, anomaly,
evaluation, synth, recordio, errors, cli). The root imports a name's module on
first use, so importing the package, or one module of it, loads no other module.
"""

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .anomaly import DetectConfig, filter_significant, rank_anomalies, score
    from .models import fit_edge_model
    from .synth import SynthConfig, generate_network, generate_records

__version__ = "0.1.0"

# The exported names, each with the module that defines it.
_MODULE_OF = {
    "DetectConfig": "anomaly",
    "filter_significant": "anomaly",
    "rank_anomalies": "anomaly",
    "score": "anomaly",
    "fit_edge_model": "models",
    "SynthConfig": "synth",
    "generate_network": "synth",
    "generate_records": "synth",
}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """An exported name, from its module (PEP 562).

    Any other name raises AttributeError, so `from flowanomaly import synth`
    still imports the submodule.
    """
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
