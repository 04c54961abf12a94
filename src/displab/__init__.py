"""displab: exact counting of acyclic orderings of multidigraphs, companion
polynomials, and the second-order differential equations they satisfy."""

from .algebra import (Polynomial, RationalFunction, TruncatedSeries,
                      binomial, factorial, generalized_laguerre, laguerre,
                      multinomial, pochhammer)
from .companion import (CompanionResult, StaircaseData, TwoRowDecomposition,
                        catalan_polynomial, catalan_polynomial_r3,
                        companion_by_recurrence, companion_dual,
                        companion_from_counters, counters_along_path,
                        generalized_zigzag, staircase_companion,
                        staircase_data, two_row_companion,
                        two_row_decomposition)
from .counting import count, count_bruteforce, enumerate_dispositions
from .errors import (CapExceededError, DeconvolutionTailError, DisplabError,
                     ParseError, SizeLimitError)
from .extremal import SearchReport, iso_check, max_counter_search
from .families import (DispositionalSpec, make_dispositional, make_empty,
                       make_path, make_qary_level, make_rooted_tree,
                       make_staircase, make_star, make_two_row,
                       qary_level_counter, staircase_counter, tree_counter,
                       two_row_counter)
from .graph import Multidigraph, SimpleDigraph, normalize
from .nonstrict import nonstrict_bruteforce, nonstrict_count, order_polynomial
from .ode import (Ode2, ab_reduction, catalan_ode, laguerre_basis_decompose,
                  laguerre_equation, laguerrean, laguerrean_reflected,
                  reduce_to_QR, two_row_ode, verify_ode,
                  verify_ode_on_series)
from .orthogonality import (GramMatrix, gram, gram_projection,
                            laguerre_inner, maximality_witness,
                            moment_xi_djLn)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
