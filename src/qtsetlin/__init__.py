"""
Exact-arithmetic q-deformed Tsetlin library chains on permutations, words and
complete flags over a prime field: transition matrices, closed-form
stationary distributions, eigenvalue catalogs, and the lumping maps tying the
three chains together.  All arithmetic is over the rationals; every identity
is checked exactly.

The names below are imported from their modules on first use (PEP 562), so
importing the package, or one module of it, loads no other layer.
"""

from importlib import import_module

_EXPORTS = {
    "exact": ("Matrix", "Rational", "format_rational", "parse_rational"),
    "hecke_chains": (
        "LinearOperator",
        "PermRates",
        "WordRates",
        "transition_matrix_perm",
        "transition_matrix_word",
    ),
    "flags": (
        "FlagRep",
        "Line",
        "enumerate_flags",
        "enumerate_lines",
        "rcayley_stationary",
        "transition_matrix_flags",
    ),
    "stationary": (
        "StationaryVector",
        "stationary_flags_formula",
        "stationary_oracle",
        "stationary_perm_formula",
        "stationary_word_formula",
    ),
    "spectra": (
        "EigenEntry",
        "eigen_catalog_flags",
        "eigen_catalog_perm",
        "eigen_catalog_word",
        "verify_annihilation",
        "verify_multiplicities",
    ),
    "lumping": ("check_commuting",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
