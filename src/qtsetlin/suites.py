"""
Named verification suites behind `qtsetlin verify`, built from
`hecke_chains.Chain`, the one handle on a chain (re-exported here, with
`FLAG_STATE_CAP` and `SUITES`).

Each suite returns (check name, passed) pairs; every check is an exact
identity, so there are no tolerances anywhere.  Sizes are bounded by the
requested n_max and prime list, with hard caps keeping the flag spaces at
desk scale.
"""

import random
from fractions import Fraction

from .combinatorics import coinv, derangement, perm_states, q_int, word_states
from .exact import Matrix, mat_mul, shift, vec_mat
from .flags import (
    PartialFlag,
    coset_to_perm,
    hecke_generator_coset,
    rcayley_stationary,
    lrb_product,
    transition_matrix_flags_hecke,
)
from .hecke_chains import (
    FLAG_STATE_CAP,
    SUITES,
    Chain,
    PermRates,
    WordRates,
    generic_perm_rates,
    generic_word_rates,
    hecke_generator_perm,
    hecke_generator_word,
)
from .lumping import (
    check_commuting,
    map_rates_word_to_perm,
    proj_flags_to_perms,
    proj_perms_to_words,
)
from .spectra import verify_multiplicities
from .stationary import (
    classical_tsetlin_stationary,
    flag_coset_factors,
    stationary_oracle,
    word_factors,
)

# The stationary suite runs the path method up to this many flags.
FLAG_PATH_CAP = 60


def perm_chains(n_max, seed_of, q=None):
    """Perm n = 2..n_max, each at generic rates sampled from seed_of(n)."""
    return [Chain("perm", generic_perm_rates(n, seed=seed_of(n), q=q)) for n in range(2, n_max + 1)]


def word_chains(n_max, seed, keep_ones=False):
    """Words of every content of n = 2..n_max with at least two parts, at
    generic rates sampled from seed; content (1^n), the perm chain, only
    with keep_ones."""
    return [
        Chain("word", generic_word_rates(m, seed=seed))
        for n in range(2, n_max + 1)
        for m in compositions(n)
        if len(m) > 1 and (keep_ones or len(m) < n)
    ]


def flag_chains(n_max, p_list, seed_of, cap=FLAG_STATE_CAP):
    """Flags n = 2..n_max over F_p for each p in p_list, at generic rates
    sampled from seed_of(n), keeping the chains that fit under cap."""
    chains = []
    for p in p_list:
        for n in range(2, n_max + 1):
            chain = Chain("flag", generic_perm_rates(n, seed=seed_of(n), q=p), p)
            if chain.fits(cap):
                chains.append(chain)
    return chains


def compositions(n):
    out = []
    for cuts in range(2 ** (n - 1)):
        parts = []
        run = 1
        for i in range(n - 1):
            if cuts >> i & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(tuple(parts))
    return out


def reference_matrix_n3(rates: PermRates) -> Matrix:
    """Reference 6x6 transition matrix for n = 3, evaluated at the rates."""
    q = rates.q
    x1, x2, x3 = rates.x
    z = Fraction(0)
    return Matrix(
        [
            [(q * q - q + 1) * x1 / q**2, (q - 1) * x1 / q**2, x2, z, x3, z],
            [(q - 1) * x1 / q, x1 / q, x2, z, x3, z],
            [x1, z, x2 / q, (q - 1) * x2 / q, z, x3],
            [x1, z, z, x2, z, x3],
            [z, x1, z, x2, x3, z],
            [z, x1, z, x2, z, x3],
        ]
    )


def reference_matrix_m12(rates: WordRates) -> Matrix:
    """Reference 3x3 word transition matrix for content (1, 2)."""
    q = rates.q
    x1, x2 = rates.xbar
    two = q_int(2, q)
    z = Fraction(0)
    return Matrix([[x1, x2, z], [x1, x2 / two, q * x2 / two], [x1, z, x2]])


def _rand_rates(rng, n, q=None, normalized=True):
    vals = [Fraction(rng.randint(1, 30), rng.randint(31, 90)) for _ in range(n)]
    if normalized:
        s = sum(vals, Fraction(0))
        vals = [v / s for v in vals]
    qq = q if q is not None else Fraction(rng.randint(2, 6))
    return PermRates(qq, tuple(vals))


def suite_matrix(n_max, p_list, seed):
    rng = random.Random(seed)
    checks = []
    for q in (Fraction(2), Fraction(3), Fraction(5, 2)):
        for trial in range(3):
            rates = _rand_rates(rng, 3, q=q)
            got = Chain("perm", rates).operator().matrix
            checks.append(
                (f"perm n=3 matrix equals reference form (q={q}, sample {trial})", got == reference_matrix_n3(rates))
            )
    for trial in range(3):
        wrates = WordRates(Fraction(rng.randint(2, 5)), _rand_rates(rng, 2).x, (1, 2))
        got = Chain("word", wrates).operator().matrix
        checks.append(
            (f"word m=(1,2) matrix equals reference form (sample {trial})", got == reference_matrix_m12(wrates))
        )
    for p in p_list:
        chain = Chain("flag", generic_perm_rates(3, seed=seed, q=p), p)
        if chain.fits():
            a = chain.operator().matrix
            b = transition_matrix_flags_hecke(chain.rates, p).matrix
            checks.append((f"flag matrix line-insertion == Hecke composition (n=3, p={p})", a == b))
    return checks


def suite_stationary(n_max, p_list, seed):
    checks = []
    chains = (
        perm_chains(n_max, lambda n: seed + n)
        + word_chains(n_max, seed)
        + flag_chains(n_max, p_list, lambda n: seed + n)
    )
    for chain in chains:
        op = chain.operator()
        psi = chain.formula()
        total = chain.rates.total()
        ok = psi.is_left_eigenvector(op, total) and psi.total() == 1
        ok = ok and stationary_oracle(op, total).values == psi.values
        if chain.space == "flag" and chain.fits(FLAG_PATH_CAP):
            ok = ok and all(rcayley_stationary(chain.rates, chain.p, f) == psi[f] for f in op.states)
            checks.append((f"{chain.name}: formula, oracle and path method agree", ok))
        else:
            checks.append((f"{chain.name}: formula is stationary and oracle agrees", ok))
    return checks


# The derangement count each space's predicted multiplicities come from.
DERANGEMENTS = {"perm": "derangement", "word": "poset-derangement", "flag": "q-derangement"}


def suite_spectra(n_max, p_list, seed):
    checks = []
    chains = (
        perm_chains(n_max, lambda n: seed + 17 * n)
        + word_chains(n_max, seed, keep_ones=True)
        + flag_chains(n_max, p_list, lambda n: seed + n)
    )
    for chain in chains:
        report = verify_multiplicities(chain.operator(), chain.catalog())
        ok = report.all_pass and (chain.space != "flag" or report.annihilates)
        checks.append((f"{chain.name}: nullities match {DERANGEMENTS[chain.space]} multiplicities", ok))
        if chain.space == "perm":
            checks.append((f"{chain.name}: annihilation product vanishes", report.annihilates))
    return checks


def suite_lumping(n_max, p_list, seed):
    checks = []
    for chain in flag_chains(n_max, p_list, lambda n: seed + n):
        rates, n, p = chain.rates, chain.rates.n, chain.p
        for diagram in ("flags-perms-proj", "flags-perms-incl"):
            checks.append(
                (f"{diagram} commutes (n={n}, p={p})", check_commuting(diagram, rates, p=p))
            )
        psi_f = chain.formula()
        psi_p = Chain("perm", rates).formula()
        lumped = vec_mat(psi_f.values, proj_flags_to_perms(n, p).matrix)
        checks.append(
            (f"flag stationary lumps to perm stationary (n={n}, p={p})", tuple(lumped) == psi_p.values)
        )
        checks.append(
            (
                f"perm mass is p^coinv times flag mass (n={n}, p={p})",
                all(
                    psi_p[coset_to_perm(f)] == Fraction(p) ** coinv(coset_to_perm(f)) * psi_f[f]
                    for f in psi_f.states
                ),
            )
        )
    for chain in word_chains(n_max, seed):
        m = chain.rates.m
        rates = map_rates_word_to_perm(chain.rates)
        for diagram in ("perms-words-proj", "perms-words-incl"):
            checks.append(
                (f"{diagram} commutes (m={m})", check_commuting(diagram, rates, m=m))
            )
        psi_p = Chain("perm", rates).formula()
        psi_w = chain.formula()
        lumped = vec_mat(psi_p.values, proj_perms_to_words(m).matrix)
        checks.append(
            (f"perm stationary lumps to word stationary (m={m})", tuple(lumped) == psi_w.values)
        )
    return checks


def _hecke_relations(gens, q):
    for i, ti in enumerate(gens):
        if not mat_mul(shift(ti, -1), shift(ti, q)).is_zero():
            return False
        for j in range(i + 2, len(gens)):
            if mat_mul(ti, gens[j]) != mat_mul(gens[j], ti):
                return False
        if i + 1 < len(gens):
            tj = gens[i + 1]
            if mat_mul(mat_mul(ti, tj), ti) != mat_mul(mat_mul(tj, ti), tj):
                return False
    return True


def suite_hecke(n_max, p_list, seed):
    rng = random.Random(seed)
    checks = []
    q = Fraction(rng.randint(2, 9), rng.randint(1, 3))
    for n in range(2, n_max + 1):
        gens = [hecke_generator_perm(i, n, q).matrix for i in range(1, n)]
        checks.append((f"Hecke relations on permutations (n={n}, q={q})", _hecke_relations(gens, q)))
    for n in range(2, n_max + 1):
        for m in compositions(n):
            if len(m) == 1 or len(m) == n:
                continue
            gens = [hecke_generator_word(i, m, q).matrix for i in range(1, n)]
            checks.append((f"Hecke relations on words (m={m}, q={q})", _hecke_relations(gens, q)))
    for chain in flag_chains(n_max, p_list, lambda n: seed + n):
        n, p = chain.rates.n, chain.p
        gens = [hecke_generator_coset(i, n, p).matrix for i in range(1, n)]
        checks.append((f"Hecke relations on flags (n={n}, p={p})", _hecke_relations(gens, Fraction(p))))
    return checks


def suite_q1(n_max, p_list, seed):
    checks = []
    for chain in perm_chains(min(n_max, 5), lambda n: seed + n, q=Fraction(1)):
        rates, n = chain.rates, chain.rates.n
        psi = chain.formula()
        classical = classical_tsetlin_stationary(rates.x)
        checks.append((f"q=1 stationary equals classical product formula (n={n})", psi.values == classical.values))
        cat = chain.catalog()
        ok = all(
            e.value == sum((rates.x[i - 1] for i in e.label), Fraction(0)) for e in cat
        )
        ok = ok and all(e.multiplicity == derangement(n - len(e.label)) for e in cat)
        checks.append((f"q=1 catalog reduces to subset sums with derangement multiplicities (n={n})", ok))
    return checks


def suite_properties(n_max, p_list, seed):
    rng = random.Random(seed)
    checks = []

    draws = []
    for _ in range(30):
        n = rng.randint(2, max(2, n_max))
        draws.append(Chain("perm", _rand_rates(rng, n, normalized=False)))
    for _ in range(15):
        n = rng.randint(2, max(2, n_max))
        m = rng.choice([m for m in compositions(n) if len(m) > 1] or [(n,)])
        wrates = WordRates(Fraction(rng.randint(2, 5)), _rand_rates(rng, len(m), normalized=False).x, m)
        draws.append(Chain("word", wrates))
    for _ in range(5):
        p = rng.choice(p_list)
        n = rng.randint(2, 3)
        chain = Chain("flag", PermRates(Fraction(p), _rand_rates(rng, n, normalized=False).x), p)
        # The draw is made either way, so the later draws do not depend on the cap.
        if chain.fits():
            draws.append(chain)
    ok = all(set(c.operator().matrix.row_sums()) == {c.rates.total()} for c in draws)
    checks.append((f"row sums equal the total rate on {len(draws)} random configurations", ok))

    ok = True
    generic = perm_chains(n_max, lambda n: seed + n) + word_chains(n_max, seed, keep_ones=True)
    for chain in generic:
        for word in word_states(chain.rates.m):
            pre, nums, dens = word_factors(word, chain.rates)
            ok = ok and pre > 0 and all(f > 0 for f in nums + dens)
    for chain in flag_chains(n_max, p_list[:1], lambda n: seed + n, cap=None):
        for perm in perm_states(chain.rates.n):
            nums, dens = flag_coset_factors(perm, chain.rates)
            ok = ok and all(f > 0 for f in nums + dens)
    checks.append(("every stationary factor is positive at q >= 1, rates > 0", ok))

    p = p_list[0]
    n = min(4, max(3, n_max))
    ok = True
    for _ in range(100):
        a = _random_partial_flag(rng, n, p)
        b = _random_partial_flag(rng, n, p)
        ab = lrb_product(a, b)
        ok = ok and lrb_product(a, a) == a
        ok = ok and lrb_product(ab, a) == ab
    checks.append(("partial flags: idempotent and aba = ab on 100 random pairs", ok))

    chains = generic + flag_chains(n_max, p_list, lambda n: seed, cap=None)
    ok = all(sum(e.multiplicity for e in chain.catalog()) == chain.size() for chain in chains)
    checks.append(("catalog multiplicities always sum to the state-space size", ok))
    return checks


def _random_partial_flag(rng, n, p):
    batches = []
    for _ in range(rng.randint(1, n)):
        v = tuple(rng.randrange(p) for _ in range(n))
        if any(v):
            batches.append([v])
    if not batches:
        batches = [[tuple([1] + [0] * (n - 1))]]
    return PartialFlag.from_vectors(batches, n, p)


def run_suite(name, n_max=3, p_list=(2, 3), seed=0):
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}; no suite checks a chain below n=2")
    runners = {
        "matrix": suite_matrix,
        "stationary": suite_stationary,
        "spectra": suite_spectra,
        "lumping": suite_lumping,
        "hecke": suite_hecke,
        "q1-reduction": suite_q1,
        "properties": suite_properties,
    }
    if name == "all":
        checks = []
        for key in runners:
            checks.extend(runners[key](n_max, p_list, seed))
        return checks
    if name not in runners:
        raise ValueError(f"unknown suite {name!r}")
    return runners[name](n_max, p_list, seed)
