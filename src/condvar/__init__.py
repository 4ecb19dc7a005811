"""Conditional variance regularization toolkit.

Train classifiers whose predictions stay put when latent style factors
shift, by penalizing the within-group variance of predictions or losses
over observations that share a (label, id) pair, and quantify robustness
through worst-case losses over Mahalanobis-bounded style interventions.

The package re-exports the ``__all__`` of ``data``, ``models``,
``penalties``, ``robustness``, ``scm`` and ``training``, so each public
name is declared once, in its module; ``autodiff``, ``plotting`` and
``cli`` are imported by their module names.
"""

from .data import *
from .models import *
from .penalties import *
from .robustness import *
from .scm import *
from .training import *

__version__ = "0.1.0"
