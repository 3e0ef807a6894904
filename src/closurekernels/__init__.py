"""Kernelization toolkit for graphs with small (weak) closure.

Library layout:

- graph: immutable dense-id graphs and basic set predicates
- closure: closure number, weak closure orderings, neighborhood classes
- combinatorics: matchings, the vertex cover LP, sunflowers
- reduction: the rule driver every kernel runs (`exhaust`) and `Decided`
- capvc / convc / induced_matching / domset: reduction rules, kernels, size
  bound reports and canonical decided instances
- ramsey: clique-or-independent-set thresholds and search
- oracles: brute-force exact solvers with validated witnesses
- generators: hard-instance constructions and random families
- instance_io / cli: the line-oriented instance format and the command line
"""

__version__ = "0.1.0"
