"""Exact rank-2 Drinfeld module arithmetic over F_q[t]: Taguchi duality,
finite v-sheaves, Tate-Drinfeld expansions, canonical subgroups, and the
wp-adic weight-congruence machinery for Drinfeld modular forms."""

from .errors import DomainError, InternalConsistencyError, PrecisionError
from .fields import (NEG_INF, AResidue, Fq, Poly, PolyRing, ResidueRing, fq,
                     is_irreducible, parse_apoly, poly_to_bracket,
                     poly_to_tstring, polyring, residue_field_with_theta,
                     wp_valuation)
from .series import SeriesRing, TruncSeries, newton_slopes
from .tau import DrinfeldAction, TauPoly
from .carlitz import (carlitz_action, carlitz_cyclotomic,
                      carlitz_phi, carlitz_torsion_poly, check_eisenstein)
from .modules import (DrinfeldRank2, WpFactorization, classify_reduction,
                      is_isogeny, is_morphism, wp_factorize)
from .sheaves import (VSheafData, dual_points, htt_evaluate, kernel_sheaf,
                      taguchi_dual_sheaf, vsheaf_validate)
from .tate import TateDrinfeld, lattice_inverse, td_instance
from .forms import (AuditVerdict, CongruenceDepth, FormExpansion, WeightChar,
                    coefficient_monomial, congruence_depth,
                    hasse_lift_expansion, lp, padic_limit_sequence,
                    reduce_mod_wp, series_wp_valuation,
                    weight_congruence_audit, weight_congruent, weight_embed)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
