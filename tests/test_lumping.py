from fractions import Fraction as F

import pytest

from qtsetlin import lumping
from qtsetlin.combinatorics import (
    coinv,
    destandardize,
    inv,
    q_factorial,
)
from qtsetlin.exact import Matrix, mat_mul
from qtsetlin.flags import coset_to_perm, transition_matrix_flags
from qtsetlin.hecke_chains import PermRates
from qtsetlin.lumping import (
    check_commuting,
    incl_perms_to_flags,
    incl_words_to_perms,
    inv_blockwise,
    is_m_compatible,
    map_rates_perm_to_word,
    map_rates_word_to_perm,
    proj_flags_to_perms,
    proj_perms_to_words,
    young_subgroup,
)
from qtsetlin.spectra import generic_perm_rates, generic_word_rates
from qtsetlin.suites import compositions


class TestFlagPermMaps:
    def test_projection_columns_have_coset_sizes(self):
        for p in (2, 3):
            proj = proj_flags_to_perms(3, p)
            for c, perm in enumerate(proj.target_states):
                ones = sum(proj.matrix.data[r][c] for r in range(proj.matrix.rows))
                assert ones == F(p) ** coinv(perm)

    def test_projection_rows_are_unit(self):
        proj = proj_flags_to_perms(3, 2)
        for r, flag in enumerate(proj.source_states):
            row = proj.matrix.data[r]
            assert sum(row) == 1
            assert row[proj.target_states.index(coset_to_perm(flag))] == 1

    def test_n2_column_counts(self):
        proj = proj_flags_to_perms(2, 2)
        counts = [
            sum(proj.matrix.data[r][c] for r in range(proj.matrix.rows))
            for c in range(proj.matrix.cols)
        ]
        assert counts == [2, 1]  # cosets of 12 and 21

    def test_inclusion_support_and_coefficient(self):
        p = 2
        incl = incl_perms_to_flags(3, p)
        proj = proj_flags_to_perms(3, p)
        for r, perm in enumerate(incl.source_states):
            row = incl.matrix.data[r]
            support = [c for c, v in enumerate(row) if v]
            assert len(support) == p ** coinv(perm)
            assert all(row[c] == F(p) ** inv(perm) for c in support)
            for c in support:
                assert coset_to_perm(incl.target_states[c]) == perm

    def test_long_perm_row_is_single_maximal_entry(self):
        n, p = 3, 2
        incl = incl_perms_to_flags(n, p)
        w0 = tuple(range(n, 0, -1))
        row = incl.matrix.data[incl.source_states.index(w0)]
        entries = [v for v in row if v]
        assert entries == [F(p) ** (n * (n - 1) // 2)]

    def test_identity_perm_row_all_ones(self):
        n, p = 3, 2
        incl = incl_perms_to_flags(n, p)
        ident = tuple(range(1, n + 1))
        row = incl.matrix.data[incl.source_states.index(ident)]
        entries = [v for v in row if v]
        assert entries == [F(1)] * p ** (n * (n - 1) // 2)


class TestPermWordMaps:
    def test_projection_is_destandardization(self):
        m = (2, 1)
        proj = proj_perms_to_words(m)
        for r, perm in enumerate(proj.source_states):
            row = proj.matrix.data[r]
            assert sum(row) == 1
            assert row[proj.target_states.index(destandardize(perm, m))] == 1

    def test_inclusion_row_reference_example(self):
        m = (3, 1)
        q = F(5, 2)
        incl = incl_words_to_perms(m, q)
        row = incl.matrix.data[incl.source_states.index((1, 2, 1, 1))]
        expected = {
            (1, 4, 2, 3): q**0,
            (2, 4, 1, 3): q**-1,
            (1, 4, 3, 2): q**-1,
            (2, 4, 3, 1): q**-2,
            (3, 4, 1, 2): q**-2,
            (3, 4, 2, 1): q**-3,
        }
        got = {
            incl.target_states[c]: v for c, v in enumerate(row) if v
        }
        assert got == expected

    def test_inclusion_row_sums(self):
        for m in ((1, 2), (2, 2), (3, 1)):
            q = F(3)
            incl = incl_words_to_perms(m, q)
            expected = F(1)
            for part in m:
                expected *= q_factorial(part, 1 / q)
            for row in incl.matrix.data:
                assert sum(row) == expected

    def test_trivial_composition_gives_identity_maps(self):
        m = (1, 1, 1)
        proj = proj_perms_to_words(m)
        incl = incl_words_to_perms(m, F(2))
        from qtsetlin.exact import Matrix

        assert proj.matrix == Matrix.identity(6)
        assert incl.matrix == Matrix.identity(6)

    def test_young_subgroup_size_and_inversions(self):
        m = (2, 2)
        taus = young_subgroup(m)
        assert len(taus) == 4
        import math

        assert len(young_subgroup((3, 1))) == math.factorial(3)
        total = sum(F(2) ** -inv_blockwise(tau, m) for tau in taus)
        assert total == q_factorial(2, F(1, 2)) ** 2

    def test_fiber_membership(self):
        m = (2, 2)
        incl = incl_words_to_perms(m, F(2))
        for r, word in enumerate(incl.source_states):
            for c, v in enumerate(incl.matrix.data[r]):
                if v:
                    assert destandardize(incl.target_states[c], m) == word


class TestComposites:
    def test_incl_then_proj_is_scalar_on_flags(self):
        from qtsetlin.exact import Matrix, mat_mul

        for n, p in ((2, 2), (3, 2), (3, 3)):
            incl = incl_perms_to_flags(n, p).matrix
            proj = proj_flags_to_perms(n, p).matrix
            scalar = F(p) ** (n * (n - 1) // 2)
            assert mat_mul(incl, proj) == scalar * Matrix.identity(incl.rows)

    def test_incl_then_proj_is_scalar_on_words(self):
        from qtsetlin.exact import Matrix, mat_mul

        for m, q in (((1, 2), F(2)), ((2, 2), F(5, 2))):
            incl = incl_words_to_perms(m, q).matrix
            proj = proj_perms_to_words(m).matrix
            scalar = F(1)
            for part in m:
                scalar *= q_factorial(part, 1 / q)
            assert mat_mul(incl, proj) == scalar * Matrix.identity(incl.rows)


class TestRateMaps:
    def test_compatibility_examples(self):
        rates = PermRates(2, (F(1, 2), F(1, 4), F(1, 4)))
        assert is_m_compatible(rates, (2, 1))
        assert not is_m_compatible(PermRates(3, rates.x), (2, 1))
        assert is_m_compatible(PermRates(7, (F(1, 3), F(2, 3))), (1, 1))

    def test_forward_map(self):
        rates = PermRates(2, (F(1, 2), F(1, 4), F(1, 4)))
        wrates = map_rates_perm_to_word(rates, (2, 1))
        assert wrates.xbar == (F(3, 4), F(1, 4))
        assert wrates.total() == 1

    def test_forward_requires_compatibility(self):
        with pytest.raises(ValueError, match="compatible"):
            map_rates_perm_to_word(PermRates(3, (F(1, 2), F(1, 4), F(1, 4))), (2, 1))

    def test_sum_preserved(self):
        wrates = generic_word_rates((2, 3), seed=1, q=F(2))
        rates = map_rates_word_to_perm(wrates)
        assert rates.total() == wrates.total() == 1

    def test_y_maps(self):
        wrates = generic_word_rates((2, 1, 2), seed=2, q=F(3))
        rates = map_rates_word_to_perm(wrates)
        n_prev = 0
        for j, part in enumerate(wrates.m, start=1):
            for i in range(1, part + 1):
                assert rates.y(n_prev + i) == wrates.ybar(j)
            n_prev += part

    def test_round_trip(self):
        wrates = generic_word_rates((1, 3, 2), seed=3, q=F(5, 2))
        rates = map_rates_word_to_perm(wrates)
        assert is_m_compatible(rates, wrates.m)
        back = map_rates_perm_to_word(rates, wrates.m)
        assert back.xbar == wrates.xbar


class TestCommutingDiagrams:
    def test_flag_diagrams(self):
        for p in (2, 3):
            rates = generic_perm_rates(3, seed=4, q=p)
            assert check_commuting("flags-perms-proj", rates, p=p)
            assert check_commuting("flags-perms-incl", rates, p=p)

    def test_word_diagrams(self):
        for m, q in (((2, 1), F(2)), ((2, 2), F(2)), ((1, 2), F(7, 2))):
            wrates = generic_word_rates(m, seed=5, q=q)
            rates = map_rates_word_to_perm(wrates)
            assert check_commuting("perms-words-proj", rates, m=m)
            assert check_commuting("perms-words-incl", rates, m=m)

    def test_n4_m22(self):
        wrates = generic_word_rates((2, 2), seed=6, q=F(2))
        rates = map_rates_word_to_perm(wrates)
        assert check_commuting("perms-words-proj", rates, m=(2, 2))
        assert check_commuting("perms-words-incl", rates, m=(2, 2))

    @pytest.mark.parametrize(
        "diagram, builder",
        [
            ("flags-perms-proj", "proj_flags_to_perms"),
            ("flags-perms-incl", "incl_perms_to_flags"),
            ("perms-words-proj", "proj_perms_to_words"),
            ("perms-words-incl", "incl_words_to_perms"),
        ],
    )
    def test_perturbed_intertwiner_breaks_the_diagram(self, diagram, builder, monkeypatch):
        """Doubling one row of the intertwiner makes the comparison fail."""
        if diagram.startswith("flags"):
            rates, where = generic_perm_rates(3, seed=4, q=2), {"p": 2}
        else:
            rates, where = map_rates_word_to_perm(generic_word_rates((2, 1), seed=5, q=F(2))), {"m": (2, 1)}
        assert check_commuting(diagram, rates, **where)
        build = getattr(lumping, builder)

        def perturbed(*args):
            intertwiner = build(*args)
            rows = intertwiner.matrix.data
            rows[0] = [2 * a for a in rows[0]]
            return intertwiner._replace(matrix=Matrix(rows))

        monkeypatch.setattr(lumping, builder, perturbed)
        assert not check_commuting(diagram, rates, **where)

    def test_unknown_diagram_rejected(self):
        with pytest.raises(ValueError, match="unknown diagram"):
            check_commuting("nope", generic_perm_rates(2, seed=0))

    def test_lumped_stationarity_via_projection(self):
        # v_flags . P equals the permutation stationary vector exactly
        from qtsetlin.stationary import stationary_flags_formula, stationary_perm_formula
        from qtsetlin.exact import vec_mat

        p = 2
        rates = generic_perm_rates(3, seed=7, q=p)
        psi_f = stationary_flags_formula(rates, p)
        psi_p = stationary_perm_formula(rates)
        proj = proj_flags_to_perms(3, p)
        assert proj.source_states == psi_f.states
        lumped = vec_mat(list(psi_f.values), proj.matrix)
        assert tuple(lumped) == psi_p.values


def stored_products_agree(diagram, rates, p=None, m=None):
    """The former form of `check_commuting`: both products stored, then
    compared with ==."""
    proj = diagram.endswith("-proj")
    if diagram.startswith("flags"):
        fine = transition_matrix_flags(rates, p).matrix
        coarse = lumping.transition_matrix_perm(rates).matrix
        x = proj_flags_to_perms(rates.n, p) if proj else incl_perms_to_flags(rates.n, p)
    else:
        fine = lumping.transition_matrix_perm(rates).matrix
        coarse = lumping.transition_matrix_word(map_rates_perm_to_word(rates, m)).matrix
        x = proj_perms_to_words(m) if proj else incl_words_to_perms(m, rates.q)
    x = x.matrix
    if proj:
        return mat_mul(fine, x) == mat_mul(x, coarse)
    return mat_mul(x, fine) == mat_mul(coarse, x)


FLAG_CASES = [(n, p) for n in (1, 2, 3, 4) for p in (2, 3)]
WORD_CASES = [m for n in range(1, 6) for m in compositions(n)]


class TestRowByRowAgainstStoredProducts:
    """`check_commuting` compares the two sides row by row; its verdict must
    be that of the stored products on every diagram, true or planted
    false."""

    @pytest.mark.parametrize("n, p", FLAG_CASES)
    def test_flag_diagrams(self, n, p):
        rates = generic_perm_rates(n, seed=n + p, q=p)
        for diagram in ("flags-perms-proj", "flags-perms-incl"):
            assert check_commuting(diagram, rates, p=p) is stored_products_agree(diagram, rates, p=p) is True

    @pytest.mark.parametrize("m", WORD_CASES, ids=str)
    def test_word_diagrams(self, m):
        rates = map_rates_word_to_perm(generic_word_rates(m, seed=len(m), q=F(5, 2)))
        for diagram in ("perms-words-proj", "perms-words-incl"):
            assert check_commuting(diagram, rates, m=m) is stored_products_agree(diagram, rates, m=m) is True

    @pytest.mark.parametrize("row", [0, -1])
    @pytest.mark.parametrize(
        "diagram, where, coarse",
        [
            ("flags-perms-proj", {"p": 3}, "transition_matrix_perm"),
            ("flags-perms-incl", {"p": 3}, "transition_matrix_perm"),
            ("perms-words-proj", {"m": (2, 1, 1)}, "transition_matrix_word"),
            ("perms-words-incl", {"m": (2, 1, 1)}, "transition_matrix_word"),
        ],
    )
    def test_planted_wrong_coarse_matrix(self, diagram, where, coarse, row, monkeypatch):
        """One entry of one row of the coarse chain moved by 1/7 (the row
        sum kept by moving another entry back) breaks both forms."""
        if "p" in where:
            rates = generic_perm_rates(3, seed=2, q=where["p"])
        else:
            rates = map_rates_word_to_perm(generic_word_rates(where["m"], seed=2, q=F(2)))
        build = getattr(lumping, coarse)

        def planted(*args):
            op = build(*args)
            rows = op.matrix.data
            rows[row][0] += F(1, 7)
            rows[row][1] -= F(1, 7)
            return op._replace(matrix=Matrix(rows))

        monkeypatch.setattr(lumping, coarse, planted)
        assert check_commuting(diagram, rates, **where) is stored_products_agree(diagram, rates, **where) is False
