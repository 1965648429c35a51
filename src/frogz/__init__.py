"""Finite-lifetime random-walk (frog) systems on the integers: exact
computations, survival/extinction classification, and Monte Carlo simulation.

Import from the submodules: `frogz.sequences`, `frogz.classify`,
`frogz.exact`, `frogz.mc`, and `frogz.cli` for the command line.
"""

__version__ = "0.1.0"
