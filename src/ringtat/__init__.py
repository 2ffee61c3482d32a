"""Simulation and reconstruction toolkit for circular integrating detectors.

Subpackages by responsibility:

* field      grids, speed fields, phantoms, covectors
* wave       time-domain acoustic solver with absorbing layer
* detector   circle-averaged measurement operator and its exact transpose
* recon      iterative inversion (Landweber, conjugate gradient)
* rays       geodesic tracing, detection events, visibility and masking
* selftest   built-in numerical checks, shared by the CLI and the tests
* cli        command-line front end
"""

__version__ = "0.1.0"
