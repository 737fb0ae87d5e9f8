import contextlib
import io
from fractions import Fraction as F
from pathlib import Path

import pytest

from qtsetlin import spectra, suites
from qtsetlin.cli import main
from qtsetlin.combinatorics import derangement, q_int
from qtsetlin.exact import Matrix
from qtsetlin.flags import transition_matrix_flags
from qtsetlin.hecke_chains import (
    LinearOperator,
    PermRates,
    transition_matrix_perm,
    transition_matrix_word,
)
from qtsetlin.lumping import map_rates_word_to_perm
from qtsetlin.spectra import (
    eigen_catalog_flags,
    eigen_catalog_perm,
    eigen_catalog_word,
    generic_perm_rates,
    generic_word_rates,
    merge_catalog,
    verify_annihilation,
    verify_multiplicities,
)


class TestPermCatalog:
    def test_n3_values_and_multiplicities(self):
        rates = generic_perm_rates(3, seed=0, q=F(2))
        catalog = {e.label: (e.value, e.multiplicity) for e in eigen_catalog_perm(rates)}
        q = rates.q
        x1, x2, x3 = rates.x
        assert catalog[()] == (0, 2)  # d_3 = 2
        assert catalog[(1,)] == (x1 / q**2, 1)
        assert catalog[(2,)] == (x2 / q, 1)
        assert catalog[(3,)] == (x3, 1)
        assert catalog[(3, 2, 1)] == (x1 + x2 + x3, 1)
        for label in ((2, 1), (3, 1), (3, 2)):
            assert catalog[label][1] == 0  # d_1 = 0

    def test_full_subset_is_total_rate(self):
        for n in (2, 4):
            rates = generic_perm_rates(n, seed=n)
            catalog = {e.label: e for e in eigen_catalog_perm(rates)}
            full = tuple(range(n, 0, -1))
            assert catalog[full].value == rates.total()
            assert catalog[full].multiplicity == 1

    def test_empty_subset(self):
        rates = generic_perm_rates(4, seed=7)
        catalog = {e.label: e for e in eigen_catalog_perm(rates)}
        assert catalog[()].value == 0
        assert catalog[()].multiplicity == derangement(4)

    def test_multiplicities_sum_to_factorial(self):
        import math

        for n in (2, 3, 4, 5):
            rates = generic_perm_rates(n, seed=n + 10)
            assert sum(e.multiplicity for e in eigen_catalog_perm(rates)) == math.factorial(n)

    def test_q1_reduction(self):
        rates = generic_perm_rates(4, seed=3, q=F(1))
        for e in eigen_catalog_perm(rates):
            assert e.value == sum((rates.x[i - 1] for i in e.label), F(0))
            assert e.multiplicity == derangement(4 - len(e.label))

    def test_q1_suite_catches_a_planted_derangement_count(self, monkeypatch):
        # The suite must count the multiplicities apart from the catalog:
        # planted in both modules, a shared count would still agree.
        line = "q=1 catalog reduces to subset sums with derangement multiplicities"
        assert all(ok for job in suites.suite_q1(4, (2,), 0) for _, ok in job())
        planted = lambda k: derangement(k) + 1  # noqa: E731
        monkeypatch.setattr(spectra, "derangement", planted)
        monkeypatch.setattr(suites, "derangement", planted, raising=False)
        verdicts = [ok for job in suites.suite_q1(4, (2,), 0) for name, ok in job() if name.startswith(line)]
        assert len(verdicts) == 3 and not any(verdicts)

    def test_nullities_match(self):
        for n in (2, 3):
            rates = generic_perm_rates(n, seed=n, q=F(5, 2))
            op = transition_matrix_perm(rates)
            report = verify_multiplicities(op, eigen_catalog_perm(rates))
            assert report.all_pass

    def test_annihilation(self):
        rates = generic_perm_rates(3, seed=5, q=F(5, 2))
        op = transition_matrix_perm(rates)
        assert verify_annihilation(op, eigen_catalog_perm(rates))


class TestWordCatalog:
    def test_m33_table(self):
        rates = generic_word_rates((3, 3), seed=1, q=F(2))
        q = rates.q
        x1, x2 = rates.xbar
        three = 1 + q + q**2
        table = {
            (0, 0): (F(0), 6),
            (1, 0): (x1 / (q**3 * three), 3),
            (0, 1): (x2 / three, 3),
            (2, 0): (x1 * (1 + q) / (q**3 * three), 1),
            (0, 2): (x2 * (1 + q) / three, 1),
            (1, 1): ((x1 + x2 * q**2) / (q**2 * three), 2),
            (2, 1): ((x1 * (1 + q) + x2 * q**2) / (q**2 * three), 1),
            (1, 2): ((x1 + x2 * (q + q**2)) / (q * three), 1),
            (2, 2): ((1 + q) * (x1 + x2 * q) / (q * three), 1),
            (3, 3): (x1 + x2, 1),
        }
        catalog = {e.label: (e.value, e.multiplicity) for e in eigen_catalog_word(rates)}
        assert len(catalog) == 16
        for label, expected in table.items():
            assert catalog[label] == expected
        zero_labels = {label for label, (_, mult) in catalog.items() if mult == 0}
        assert zero_labels == {(3, 0), (3, 1), (3, 2), (0, 3), (1, 3), (2, 3)}

    def test_full_upper_set_is_total(self):
        rates = generic_word_rates((2, 1, 2), seed=2)
        catalog = {e.label: e for e in eigen_catalog_word(rates)}
        assert catalog[(2, 1, 2)].value == rates.total()
        assert catalog[(2, 1, 2)].multiplicity == 1

    def test_multiplicities_sum_to_word_count(self):
        from qtsetlin.combinatorics import word_states

        for m in ((1, 2), (2, 2), (3, 3), (1, 2, 1)):
            rates = generic_word_rates(m, seed=3)
            assert sum(e.multiplicity for e in eigen_catalog_word(rates)) == len(word_states(m))

    def test_nullities_match_m12_and_m22(self):
        for m in ((1, 2), (2, 2)):
            rates = generic_word_rates(m, seed=4, q=F(3))
            op = transition_matrix_word(rates)
            report = verify_multiplicities(op, eigen_catalog_word(rates))
            assert report.all_pass

    def test_nullities_match_three_letters(self):
        rates = generic_word_rates((2, 1, 2), seed=6, q=F(3))
        op = transition_matrix_word(rates)
        assert verify_multiplicities(op, eigen_catalog_word(rates)).all_pass
        assert verify_annihilation(op, eigen_catalog_word(rates))

    def test_nullities_match_m33(self):
        rates = generic_word_rates((3, 3), seed=5, q=F(2))
        op = transition_matrix_word(rates)
        report = verify_multiplicities(op, eigen_catalog_word(rates))
        assert report.all_pass


class TestFlagCatalog:
    def test_p2_n3_multiplicities(self):
        rates = generic_perm_rates(3, seed=6, q=2)
        catalog = {e.label: e for e in eigen_catalog_flags(rates, 2)}
        x1, x2, x3 = rates.x
        assert (catalog[()].value, catalog[()].multiplicity) == (0, 6)
        assert (catalog[(1,)].value, catalog[(1,)].multiplicity) == (x1 / 4, 8)
        assert (catalog[(2,)].value, catalog[(2,)].multiplicity) == (x2 / 2, 4)
        assert (catalog[(3,)].value, catalog[(3,)].multiplicity) == (x3, 2)
        assert catalog[(3, 2, 1)].multiplicity == 1
        for label in ((2, 1), (3, 1), (3, 2)):
            assert catalog[label].multiplicity == 0  # d_1(q) = 0

    def test_multiplicities_sum_to_flag_count(self):
        for n, p in ((2, 2), (3, 2), (3, 3), (4, 2)):
            rates = generic_perm_rates(n, seed=n, q=p)
            expected = 1
            for k in range(1, n + 1):
                expected *= int(q_int(k, p))
            assert sum(e.multiplicity for e in eigen_catalog_flags(rates, p)) == expected

    def test_nullities_match_p2_n3(self):
        rates = generic_perm_rates(3, seed=8, q=2)
        op = transition_matrix_flags(rates, 2)
        report = verify_multiplicities(op, eigen_catalog_flags(rates, 2))
        assert report.all_pass
        assert report.dimension_ok

    def test_annihilation_p2_n3(self):
        rates = generic_perm_rates(3, seed=9, q=2)
        op = transition_matrix_flags(rates, 2)
        assert verify_annihilation(op, eigen_catalog_flags(rates, 2))


class TestContainment:
    def test_word_values_inside_perm_values(self):
        m = (2, 2)
        wrates = generic_word_rates(m, seed=10, q=F(3))
        rates = map_rates_word_to_perm(wrates)
        word_values = {e.value for e in eigen_catalog_word(wrates)}
        perm_values = {e.value for e in eigen_catalog_perm(rates)}
        assert word_values <= perm_values

    def test_perm_values_inside_flag_values(self):
        rates = generic_perm_rates(3, seed=11, q=3)
        perm_values = {e.value for e in eigen_catalog_perm(rates)}
        flag_values = {e.value for e in eigen_catalog_flags(rates, 3)}
        assert perm_values <= flag_values
        assert perm_values == flag_values  # same subsets index both catalogs


class TestVerification:
    def test_merge_sums_multiplicities(self):
        # x with a deliberate collision: lambda_{2} = lambda_{3} at q=2
        rates = PermRates(2, (F(1, 2), F(1, 3), F(1, 6)))
        catalog = eigen_catalog_perm(rates)
        merged = merge_catalog(catalog)
        collided = [e for e in merged if len(e.label) > 1 and any(len(l) == 1 for l in e.label)]
        assert collided  # (2,) and (3,) share the value 1/6
        op = transition_matrix_perm(rates)
        assert verify_multiplicities(op, catalog).all_pass

    def test_jordan_block_rejected(self):
        jordan = LinearOperator(
            ((1,), (2,)), Matrix([[0, 1], [0, 0]])
        )
        catalog = [type("E", (), {"label": (), "value": F(0), "multiplicity": 2})()]
        assert not verify_annihilation(jordan, catalog)
        report = verify_multiplicities(jordan, catalog)
        assert report.annihilates is False
        assert not report.all_pass  # nullity 1 != 2
        assert report.entries == ((((),), F(0), 2, 1, False),)  # names the wrong nullity

    def test_report_json_shape(self):
        rates = generic_perm_rates(2, seed=12)
        op = transition_matrix_perm(rates)
        report = verify_multiplicities(op, eigen_catalog_perm(rates))
        payload = report.as_json()
        assert payload["all_pass"] is True
        assert payload["dimension"] == 2
        assert {"label", "value", "predicted", "computed", "pass"} <= set(payload["checks"][0])


class TestGenericSampling:
    def test_values_distinct_and_normalized(self):
        rates = generic_perm_rates(4, seed=13)
        values = [e.value for e in eigen_catalog_perm(rates)]
        assert len(set(values)) == len(values)
        assert rates.total() == 1

    def test_q_is_the_only_way_to_pin_q(self):
        assert generic_perm_rates(3, seed=14, q=2).q == 2
        with pytest.raises(TypeError):
            generic_perm_rates(3, seed=14, p=2)

    def test_deterministic_for_seed(self):
        assert generic_perm_rates(3, seed=14).x == generic_perm_rates(3, seed=14).x
        assert generic_word_rates((2, 2), seed=14).xbar == generic_word_rates((2, 2), seed=14).xbar

    def test_repeated_call_returns_the_same_object(self):
        rates = generic_word_rates((2, 1, 2), seed=15, q=F(3))
        assert generic_word_rates([2, 1, 2], 15, F(3)) is rates
        assert generic_word_rates((2, 1, 2), seed=15, q=F(2)) is not rates
        assert generic_word_rates((2, 1, 2), seed=16, q=F(3)) is not rates

    def test_verify_output_unchanged_when_rates_are_shared(self):
        # The second run takes every rate object, factor memo included, from
        # the first run's cache; both must print the stored golden bytes.
        golden = (Path(__file__).resolve().parent / "golden" / "readme_verify_all.out").read_text()
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main("verify --suite all --n-max 3 --p 2,3".split()) == 0
            assert buf.getvalue() == golden
