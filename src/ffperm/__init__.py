"""Permutation polynomials of small Carlitz rank over finite fields.

Construction and expansion of Carlitz chains, exact weight formulas and
sharp lower bounds for rank-2 permutations, solution counting for the
underlying exponential-linear equations, and the weight / linear
complexity duality via Berlekamp-Massey.
"""

from .errors import (BadChain, BadParam, BadRange, CompositeP, EmptySequence,
                     EvenCharacteristic, FFPermError, FieldTooLarge, GammaOne,
                     MixedFields, NonCoprimePeriods, NotPermutation,
                     ReducibleModulus, ZeroC, ZeroElement)
from .gf import (Fe, FieldCtx, format_field_spec, inv0, is_prime, lucas_binom,
                 make_field, order, parse_field_spec, primitive_element)
from .polyring import (Poly, ValueTable, degree, eval_table, evaluate,
                       interpolate, is_permutation, poly_from_json,
                       poly_to_json, reduce_mod_xq_x, weight)
from .carlitz import (Chain, INFINITY, MobiusMap, RankReport,
                      agreement_check, convergents, cor_rank2_bound,
                      degree_rank_check, example_fn, expand_chain, got_bounds,
                      rank1_weight, rank2_coeffs, rank2_piecewise_eval,
                      rank_upto2, sweep_rank1, sweep_rank2, thm_rank2_bound)
from .counting import (CountQuery, NuRow, conjecture_scan, count_exp_linear,
                       count_full, crt_match_count, nu_p, window_bound,
                       within_window_bound)
from .lincomp import berlekamp_massey, blahut_check

__version__ = "0.1.0"
