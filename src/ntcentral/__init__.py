"""Central schemes for one-dimensional systems of nonlocal balance laws.

The package root exports the convergence-study entry points shown in the
README; everything else is reached through its module (``ntcentral.core``,
``ntcentral.schemes``, ``ntcentral.harness``, ``ntcentral.cli``, ...).
"""

from .harness import Experiment, SchemeSpec, convergence_study

__version__ = "0.1.0"

__all__ = [
    "convergence_study",
    "Experiment",
    "SchemeSpec",
]
