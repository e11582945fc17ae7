"""Permutation polynomials of small Carlitz rank over finite fields.

Construction and expansion of Carlitz chains, exact weight formulas and
sharp lower bounds for rank-2 permutations, solution counting for the
underlying exponential-linear equations, and the weight / linear
complexity duality via Berlekamp-Massey.  Import the submodules
(ffperm.gf, polyring, carlitz, fastfield, counting, lincomp, verify, cli);
the package itself loads none of them.
"""

__version__ = "0.1.0"
