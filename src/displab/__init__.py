"""displab: exact counting of acyclic orderings of multidigraphs, companion
polynomials, and the second-order differential equations they satisfy.

Submodules load on first use: ``from displab import count`` imports only
``displab.counting`` and what it needs.
"""

import importlib

# public names, grouped by the submodule that defines them
_EXPORTS = {
    "algebra": ("Polynomial", "RationalFunction", "TruncatedSeries",
                "generalized_laguerre", "laguerre", "pochhammer"),
    "combinatorics": ("binomial", "multinomial"),
    "companion": ("CompanionResult", "StaircaseData", "TwoRowDecomposition",
                  "catalan_polynomial", "catalan_polynomial_r3",
                  "companion_by_recurrence", "companion_from_counters",
                  "generalized_zigzag", "staircase_companion",
                  "staircase_data", "two_row_companion",
                  "two_row_decomposition"),
    "counting": ("count", "count_bruteforce", "enumerate_dispositions"),
    "errors": ("DisplabError", "ParseError", "SizeLimitError"),
    "extremal": ("SearchReport", "iso_check", "max_counter_search"),
    "families": ("DispositionalSpec", "make_dispositional", "make_empty",
                 "make_path", "make_qary_level", "make_rooted_tree",
                 "make_staircase", "make_star", "make_two_row",
                 "staircase_counter", "two_row_counter"),
    "graph": ("SimpleDigraph",),
    "nonstrict": ("nonstrict_bruteforce", "nonstrict_count",
                  "order_polynomial"),
    "ode": ("Ode2", "catalan_ode", "laguerre_basis_decompose",
            "laguerre_equation", "laguerrean", "laguerrean_reflected",
            "reduce_to_QR", "two_row_ode", "verify_ode",
            "verify_ode_on_series"),
    "orthogonality": ("GramMatrix", "gram", "gram_projection",
                      "laguerre_inner", "maximality_witness",
                      "moment_xi_djLn"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
