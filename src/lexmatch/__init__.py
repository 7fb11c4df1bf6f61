"""Optimal matchings on trees and sparse random graphs.

A matching is *optimal* when it maximises (cardinality, total weight) in
lexicographic order.  This package computes such matchings exactly on
trees via two-level lexicographic message passing, solves the associated
distributional fixed-point systems numerically, and ships Monte Carlo
experiment drivers that validate the closed-form asymptotic densities
against brute-force oracles.

Modules
-------
genfn      offspring laws, generating functions, fixed points, regimes
randgraph  random graph/tree generation, weights, serialization
exact      brute-force and dynamic-programming ground-truth oracles
bp         lexicographic message passing on trees and truncated balls
rde        grid and population solvers for the message distribution
xharness   experiment drivers, statistics, result emission
cli        command-line front end
"""

__version__ = "0.1.0"
