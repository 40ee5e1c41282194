"""Bell-type inequalities from correlation polytopes and their quantum bounds.

The pipeline: enumerate truth-table vertices of a correlation polytope,
solve the hull problem for its facet inequalities, substitute measurement
projectors to obtain Bell operators, and read off the quantum bound from the
operator spectrum.  Monte Carlo sampling over random density matrices traces
the same bounds numerically.
"""

__version__ = "0.1.0"
