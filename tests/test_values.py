"""The public names of the package and the value semantics of its records.

`qtsetlin` resolves its exports on first use, and every value type is an
immutable record (`exact.record`) with the semantics of a frozen dataclass:
equal only to an instance of the same class with equal fields, hashed as
the tuple of its fields (so set and dict order, and the printed output,
follow the field values), shown as `Name(field=value, ...)`, and refusing
assignment.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

import qtsetlin
from qtsetlin.exact import Matrix
from qtsetlin.flags import FlagRep, Line, PartialFlag
from qtsetlin.hecke_chains import Chain, LinearOperator, PermRates, WordRates
from qtsetlin.lumping import IntertwinerMatrix
from qtsetlin.spectra import EigenEntry, MultiplicityReport
from qtsetlin.stationary import StationaryVector

EXPORTS = [
    "Matrix",
    "Rational",
    "format_rational",
    "parse_rational",
    "LinearOperator",
    "PermRates",
    "WordRates",
    "transition_matrix_perm",
    "transition_matrix_word",
    "FlagRep",
    "Line",
    "enumerate_flags",
    "enumerate_lines",
    "rcayley_stationary",
    "transition_matrix_flags",
    "StationaryVector",
    "stationary_flags_formula",
    "stationary_oracle",
    "stationary_perm_formula",
    "stationary_word_formula",
    "EigenEntry",
    "eigen_catalog_flags",
    "eigen_catalog_perm",
    "eigen_catalog_word",
    "verify_annihilation",
    "verify_multiplicities",
    "check_commuting",
]


def test_all_is_pinned_and_every_name_resolves():
    assert qtsetlin.__all__ == EXPORTS
    for name in EXPORTS:
        value = getattr(qtsetlin, name)
        module = value.__module__ if name != "Rational" else "qtsetlin.exact"
        assert getattr(__import__(module, fromlist=[name]), name) is value


def test_star_import_gives_exactly_the_exports():
    namespace = {}
    exec("from qtsetlin import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == sorted(EXPORTS)
    assert namespace["PermRates"] is PermRates


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        qtsetlin.nope
    assert not hasattr(qtsetlin, "stationary_formula")
    with pytest.raises(ImportError):
        exec("from qtsetlin import nope", {})


RATES = PermRates(2, (F(1, 2), F(1, 2)))

# (record, an equal record built apart, a record of the same class that
# differs in one field, its repr, its fields in order)
CASES = [
    (
        WordRates(3, (F(1, 3), F(2, 3)), (1, 2)),
        WordRates(F(3), (F(1, 3), F(2, 3)), [1, 2]),
        WordRates(3, (F(1, 3), F(2, 3)), (2, 1)),
        "WordRates(q=Fraction(3, 1), xbar=(Fraction(1, 3), Fraction(2, 3)), m=(1, 2))",
        "q xbar m",
    ),
    (
        RATES,
        PermRates(F(2), [F(1, 2), F(1, 2)]),
        PermRates(3, (F(1, 2), F(1, 2))),
        "PermRates(q=Fraction(2, 1), xbar=(Fraction(1, 2), Fraction(1, 2)), m=(1, 1))",
        "q xbar m",
    ),
    (
        LinearOperator(((1,),), Matrix([[F(1, 2)]])),
        LinearOperator(((1,),), Matrix([[F(2, 4)]])),
        LinearOperator(((1,),), Matrix([[F(1, 3)]])),
        "LinearOperator(states=((1,),), matrix=Matrix(1x1))",
        "states matrix",
    ),
    (Line(1, (0, 1)), Line(1, (0, 1)), Line(2, (0, 1)), "Line(lead=1, tail=(0, 1))", "lead tail"),
    (
        FlagRep(((1, 0), (0, 1)), 2),
        FlagRep(((1, 0), (0, 1)), 2),
        FlagRep(((1, 1), (0, 1)), 2),
        "FlagRep(cols=((1, 0), (0, 1)), p=2)",
        "cols p",
    ),
    (
        PartialFlag((((1, 0),),), 2, 2),
        PartialFlag((((1, 0),),), 2, 2),
        PartialFlag((((1, 0),),), 2, 3),
        "PartialFlag(chain=(((1, 0),),), n=2, p=2)",
        "chain n p",
    ),
    (
        IntertwinerMatrix(Matrix([[1]]), ((1,),), ((1,),), "projection"),
        IntertwinerMatrix(Matrix([[1]]), ((1,),), ((1,),), "projection"),
        IntertwinerMatrix(Matrix([[1]]), ((1,),), ((1,),), "inclusion"),
        "IntertwinerMatrix(matrix=Matrix(1x1), source_states=((1,),), target_states=((1,),), kind='projection')",
        "matrix source_states target_states kind",
    ),
    (
        EigenEntry((2, 1), F(1, 3), 0),
        EigenEntry(label=(2, 1), value=F(1, 3), multiplicity=0),
        EigenEntry((2, 1), F(1, 3), 1),
        "EigenEntry(label=(2, 1), value=Fraction(1, 3), multiplicity=0)",
        "label value multiplicity",
    ),
    (
        MultiplicityReport(((((1,),), F(1), 1, 1, True),), 1, 1, True),
        MultiplicityReport(((((1,),), F(1), 1, 1, True),), 1, 1, True),
        MultiplicityReport(((((1,),), F(1), 1, 1, True),), 1, 1, False),
        "MultiplicityReport(entries=((((1,),), Fraction(1, 1), 1, 1, True),), dimension=1, total_predicted=1, "
        "annihilates=True)",
        "entries dimension total_predicted annihilates",
    ),
    (
        StationaryVector(((1, 2), (2, 1)), (F(1, 3), F(2, 3))),
        StationaryVector(((1, 2), (2, 1)), (F(1, 3), F(2, 3))),
        StationaryVector(((1, 2), (2, 1)), (F(2, 3), F(1, 3))),
        "StationaryVector(states=((1, 2), (2, 1)), values=(Fraction(1, 3), Fraction(2, 3)))",
        "states values",
    ),
    (
        Chain("flag", RATES, 2),
        Chain("flag", PermRates(2, (F(1, 2), F(1, 2))), 2),
        Chain("perm", RATES),
        "Chain(space='flag', rates=PermRates(q=Fraction(2, 1), xbar=(Fraction(1, 2), Fraction(1, 2)), m=(1, 1)), p=2)",
        "space rates p",
    ),
]
IDS = [type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("value, equal, other, text, names", CASES, ids=IDS)
def test_equality_hash_and_repr(value, equal, other, text, names):
    fields = tuple(getattr(value, name) for name in names.split())
    assert value == equal and not value != equal
    assert value != other and not value == other
    assert hash(value) == hash(equal) == hash(fields)
    assert repr(value) == text
    # Equal fields alone do not make a record equal to a tuple.
    assert value != fields and fields != value


@pytest.mark.parametrize("value", [case[0] for case in CASES], ids=IDS)
def test_records_copy_and_pickle_to_equal_values(value):
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("value, names", [(case[0], case[4]) for case in CASES], ids=IDS)
def test_records_are_immutable(value, names):
    name = names.split()[0]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_perm_rates_are_not_the_word_rates_at_content_ones():
    x = (F(1, 3), F(2, 3))
    assert PermRates(2, x) != WordRates(2, x, (1, 1))
    assert WordRates(2, x, (1, 1)) != PermRates(2, x)
    assert len({PermRates(2, x), WordRates(2, x, (1, 1))}) == 2
    assert Chain("perm", PermRates(2, x)) != Chain("perm", WordRates(2, x, (1, 1)))


def test_cached_properties_and_derived_fields_survive():
    rates = WordRates(2, (1, 1), (1, 2))
    assert rates.q == 2 and isinstance(rates.q, F) and rates.xbar == (F(1), F(1)) and rates.m == (1, 2)
    assert rates.kappa_coeffs is rates.kappa_coeffs
    assert rates == WordRates(2, (1, 1), (1, 2)) and "kappa_coeffs" in vars(rates)
    psi = StationaryVector(((1, 2), (2, 1)), (F(1, 3), F(2, 3)))
    assert psi[(2, 1)] == F(2, 3) and psi.normalized() is psi
    assert EigenEntry((1,), F(1), 0)._replace(multiplicity=2) == EigenEntry((1,), F(1), 2)


def test_constructors_still_validate():
    with pytest.raises(ValueError, match="square"):
        LinearOperator(((1,), (2,)), Matrix([[1]]))
    with pytest.raises(ValueError, match="one rate per letter"):
        WordRates(2, (F(1),), (1, 1))
    with pytest.raises(ValueError, match="q must be nonzero"):
        PermRates(0, (F(1),))
