"""Experiment drivers: one function per table/figure of the paper.

Each driver takes no argument and returns an :class:`ExperimentResult`
(title, headers, rows, notes); :data:`repro.experiments.drivers.DRIVERS`
lists them once.  ``repro experiments OUT_DIR`` runs that tuple and writes
the tables EXPERIMENTS.md quotes; ``tests/test_experiments.py`` asserts
each one's shape in tier-1.

Paper-published numbers are kept in :mod:`repro.experiments.paper` and are
printed next to measured values — reproduction compares shapes, not
absolute numbers (our substrate is a simulator, not the authors' testbed).
"""

from repro.experiments.common import ExperimentResult, default_setup

__all__ = ["ExperimentResult", "default_setup"]
