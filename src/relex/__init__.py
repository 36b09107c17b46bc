"""Uncertainty quantification for relational explanations.

Pipeline: train a small GCN, explain node predictions with an edge-mask
explainer, generate symmetric counterfactual explanations through Boolean
low-rank factorization of the adjacency matrix, learn a factor graph over
those explanations, and score each explained relation by the change in
calibrated beliefs when the explanation is injected.  A McNemar retrain
protocol verifies the resulting rankings.

The package re-exports nothing, so importing one module loads only what
that module imports.  Import names from their modules, for example
``from relex.pipeline import run_verification``.
"""

__version__ = "0.1.0"
