"""Kernelization toolkit for graphs with small (weak) closure.

Library layout:

- graph: immutable dense-id graphs, set predicates, false-twin classes,
  maximal cliques
- closure: closure number, weak closure orderings, neighborhood classes
- combinatorics: one maximum matching, the vertex cover LP on it, sunflowers
- reduction: `Instance` (`vertex_fields`, `fields()`, `without`),
  `IsInstance`, the rule driver every kernel runs (`exhaust`) and `Decided`
- capvc / convc / induced_matching / domset: reduction rules, kernels, size
  bound reports and canonical decided instances
- ramsey: clique-or-independent-set thresholds and search
- cliquesearch: the first k pairwise-compatible items, the one bitmask
  search of the oracles and the Ramsey fallback
- oracles: brute-force exact solvers and the cover and connectivity
  predicates; `solve_exact` dispatches and checks each witness once with
  `is_solution`
- generators: named small graphs, hard-instance constructions and random
  families
- instance_io: the line-oriented instance format
- cli: the command line's dispatcher; commands.<name>: each subcommand
- verify: the suites' shared core and registry; suites.<name>: each suite

Modules reach the heavier ones through `_lazy`, so a call compiles and runs
only the code of the modules its route uses.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name: str):
    """The package's submodule `name`, whose code runs on first attribute
    access (the LazyLoader recipe). A module already imported is returned
    as it is. Never follow it with `from .name import X`, which loads the
    module at once."""
    full = f"{__name__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        # what an eager import does, so `import closurekernels.verify`
        # after this one yields a usable `closurekernels.verify`
        setattr(sys.modules[__name__], name, module)
    return module
