"""Data-driven output regulation toolkit for discrete-time MIMO linear plants.

Designs output-regulating feedback controllers for unknown plants from
input-output data corrupted by an unknown exosignal, and verifies every
design against a ground-truth oracle.  Import its modules (``from ddreg import cli``).
"""

__version__ = "0.1.0"
