"""
Named verification suites behind `qtsetlin verify`, built from
`hecke_chains.Chain`, the one handle on a chain (re-exported here, with
`FLAG_STATE_CAP` and `SUITES`).

Each suite returns its jobs in output order: zero-argument callables, one
per chain where the suite loops over chains, each returning its (check
name, passed) pairs.  Every check is an exact identity, so there are no
tolerances anywhere.  Sizes are bounded by the requested n_max and prime
list, with hard caps keeping the flag spaces at desk scale.  `run_suite`
spreads the jobs over the cores this process may use (see `run_jobs`); the
results, and so every printed byte, are those of one process.
"""

import gc
import marshal
import os
import random
from fractions import Fraction
from functools import partial

from .combinatorics import _content_states, coinv, inv, q_derangement, q_int
from .exact import Matrix, mat_mul, products_equal, vec_mat
from .flags import (
    PartialFlag,
    coset_to_perm,
    hecke_generator_coset,
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
from .lumping import map_rates_word_to_perm, proj_flags_to_perms, proj_perms_to_words
from .spectra import verify_multiplicities
from .stationary import _factor_memo, _flag_factor_ints, _position_factors, classical_tsetlin_stationary

# The stationary suite runs the path method up to this many flags.
FLAG_PATH_CAP = 60

# SIGKILL is 9 on every POSIX system; `import signal` would build its enums
# on every verify run for this one number.
_SIGKILL = 9


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
    """One job: its checks share one random stream."""
    return [partial(_matrix_checks, p_list, seed)]


def _matrix_checks(p_list, seed):
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
    chains = (
        perm_chains(n_max, lambda n: seed + n)
        + word_chains(n_max, seed)
        + flag_chains(n_max, p_list, lambda n: seed + n)
    )
    return [partial(_stationary_checks, chain) for chain in chains]


def _stationary_checks(chain):
    op = chain.operator()
    psi = chain.formula()
    total = chain.rates.total()
    ok = psi.is_left_eigenvector(op, total) and psi.total() == 1
    ok = ok and chain.stationary("oracle", op).values == psi.values
    if chain.space == "flag" and chain.fits(FLAG_PATH_CAP):
        ok = ok and chain.stationary("semigroup").values == psi.values
        return [(f"{chain.name}: formula, oracle and path method agree", ok)]
    return [(f"{chain.name}: formula is stationary and oracle agrees", ok)]


# The derangement count each space's predicted multiplicities come from.
DERANGEMENTS = {"perm": "derangement", "word": "poset-derangement", "flag": "q-derangement"}


def suite_spectra(n_max, p_list, seed):
    chains = (
        perm_chains(n_max, lambda n: seed + 17 * n)
        + word_chains(n_max, seed, keep_ones=True)
        + flag_chains(n_max, p_list, lambda n: seed + n)
    )
    return [partial(_spectra_checks, chain) for chain in chains]


def _spectra_checks(chain):
    report = verify_multiplicities(chain.operator(), chain.catalog())
    checks = [(f"{chain.name}: nullities match {DERANGEMENTS[chain.space]} multiplicities", report.all_pass)]
    if chain.space == "perm":
        checks.append((f"{chain.name}: annihilation product vanishes", report.annihilates))
    return checks


def suite_lumping(n_max, p_list, seed):
    flag_jobs = [partial(_flag_lumping_checks, chain) for chain in flag_chains(n_max, p_list, lambda n: seed + n)]
    return flag_jobs + [partial(_word_lumping_checks, chain) for chain in word_chains(n_max, seed)]


def _flag_lumping_checks(chain):
    rates, n, p = chain.rates, chain.rates.n, chain.p
    checks = [(f"{diagram} commutes (n={n}, p={p})", ok) for diagram, ok in chain.diagrams().items()]
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
    return checks


def _word_lumping_checks(chain):
    m = chain.rates.m
    checks = [(f"{diagram} commutes (m={m})", ok) for diagram, ok in chain.diagrams().items()]
    psi_p = Chain("perm", map_rates_word_to_perm(chain.rates)).formula()
    psi_w = chain.formula()
    lumped = vec_mat(psi_p.values, proj_perms_to_words(m).matrix)
    checks.append(
        (f"perm stationary lumps to word stationary (m={m})", tuple(lumped) == psi_w.values)
    )
    return checks


def _hecke_relations(gens, q):
    """(T_i + 1)(T_i - q) = 0, T_i T_j = T_j T_i for |i - j| > 1 and
    T_i T_j T_i = T_j T_i T_j for j = i + 1, each compared row by row."""
    for i, ti in enumerate(gens):
        if not _quadratic_vanishes(ti, q):
            return False
        for j in range(i + 2, len(gens)):
            if not products_equal(ti, gens[j], gens[j], ti):
                return False
        if i + 1 < len(gens):
            tj = gens[i + 1]
            if not products_equal(mat_mul(ti, tj), ti, mat_mul(tj, ti), tj):
                return False
    return True


def _quadratic_vanishes(t: Matrix, q):
    """(T + 1)(T - q) = 0 for T = A/d and q = a/b, as (A + dI)(bA - adI) = 0
    on the int rows of A, one row of the product at a time."""
    a, b, d, rows = q.numerator, q.denominator, t.denominator, t.int_rows
    for r, row in enumerate(rows):
        left = {**row, r: row.get(r, 0) + d}
        out = {}
        for j, x in left.items():
            out[j] = out.get(j, 0) - a * d * x
            for k, y in rows[j].items():
                out[k] = out.get(k, 0) + b * x * y
        if any(out.values()):
            return False
    return True


def suite_hecke(n_max, p_list, seed):
    rng = random.Random(seed)
    q = Fraction(rng.randint(2, 9), rng.randint(1, 3))
    jobs = [
        partial(_hecke_checks, f"permutations (n={n}, q={q})", hecke_generator_perm, n, n, q)
        for n in range(2, n_max + 1)
    ]
    for n in range(2, n_max + 1):
        for m in compositions(n):
            if len(m) == 1 or len(m) == n:
                continue
            jobs.append(partial(_hecke_checks, f"words (m={m}, q={q})", hecke_generator_word, n, m, q))
    for chain in flag_chains(n_max, p_list, lambda n: seed + n):
        n, p = chain.rates.n, chain.p
        jobs.append(partial(_hecke_checks, f"flags (n={n}, p={p})", hecke_generator_coset, n, n, p))
    return jobs


def _hecke_checks(label, generator, n, space, q):
    """The Hecke relations on the generators generator(i, space, q), i < n."""
    gens = [generator(i, space, q).matrix for i in range(1, n)]
    return [(f"Hecke relations on {label}", _hecke_relations(gens, Fraction(q)))]


def suite_q1(n_max, p_list, seed):
    return [partial(_q1_checks, chain) for chain in perm_chains(min(n_max, 5), lambda n: seed + n, q=Fraction(1))]


def _q1_checks(chain):
    rates, n = chain.rates, chain.rates.n
    psi = chain.formula()
    classical = classical_tsetlin_stationary(rates.x)
    checks = [(f"q=1 stationary equals classical product formula (n={n})", psi.values == classical.values)]
    cat = chain.catalog()
    ok = all(
        e.value == sum((rates.x[i - 1] for i in e.label), Fraction(0)) for e in cat
    )
    # Counted apart from the catalog's own `derangement`, which would pass by construction.
    ok = ok and all(e.multiplicity == int(q_derangement(n - len(e.label), 1)) for e in cat)
    checks.append((f"q=1 catalog reduces to subset sums with derangement multiplicities (n={n})", ok))
    return checks


def suite_properties(n_max, p_list, seed):
    """One job: its checks share one random stream."""
    return [partial(_properties_checks, n_max, p_list, seed)]


def _properties_checks(n_max, p_list, seed):
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
    ok = all(_rows_sum_to(c.operator().matrix, c.rates.total()) for c in draws)
    checks.append((f"row sums equal the total rate on {len(draws)} random configurations", ok))

    ok = True
    generic = perm_chains(n_max, lambda n: seed + n) + word_chains(n_max, seed, keep_ones=True)
    # The closed forms multiply these ints, each a factor times a scale > 0.
    for chain in generic:
        rates, pre = chain.rates, _factor_memo(chain.rates)["pre"]
        for word in _content_states(rates.m):
            ok = ok and pre[inv(word)][0] > 0
            ok = ok and all(x > 0 for k in range(1, rates.n) for x in _position_factors(word, k, rates))
    for chain in flag_chains(n_max, p_list[:1], lambda n: seed + n, cap=None):
        for perm in _content_states((1,) * chain.rates.n):
            _, nums, dens = _flag_factor_ints(perm, chain.rates)
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


def _rows_sum_to(m: Matrix, t):
    """Every row of m = A/D sums to t = a/b: b sum(A[r]) == a D, on ints."""
    return all(sum(row.values()) * t.denominator == t.numerator * m.denominator for row in m.int_rows)


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
    if name != "all" and name not in runners:
        raise ValueError(f"unknown suite {name!r}")
    jobs, single = [], []
    for key in runners if name == "all" else (name,):
        suite_jobs = runners[key](n_max, p_list, seed)
        if len(suite_jobs) == 1:
            single.append(len(jobs))
        jobs.extend(suite_jobs)
    # A suite of one job checks many configurations in it, so it goes first:
    # then no core is left waiting on it at the end.
    order = single + [i for i in range(len(jobs)) if i not in single]
    return [check for checks in run_jobs(jobs, order) for check in checks]


def run_jobs(jobs, order):
    """Each job's result, in job order, as one process would give them.

    The jobs are zero-argument callables whose results marshal (lists of
    (str, bool) pairs here) and that share no state.  This process and up to
    one forked helper per further core it may use pull the jobs' indices from
    one pipe, in `order`, so a slow job holds up no other.  Then the jobs
    whose results did not come back (the job raised in a helper, or the
    helper died) run here, in job order, so a failure raises exactly what
    one process raises.
    """
    done = {}
    if len(jobs) > 1 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        helpers = min(len(os.sched_getaffinity(0)), os.cpu_count() or 1, len(jobs)) - 1
        if helpers > 0:
            done = _pull_jobs(jobs, order, helpers)
    return [done[i] if i in done else jobs[i]() for i in range(len(jobs))]


def _pull_jobs(jobs, order, helpers):
    """The results of the jobs that this process and `helpers` forked
    helpers finished, by index: each claims the next index from the pipe
    until it is empty or one of its jobs raises."""
    claims, fill = os.pipe()
    data = b"".join(i.to_bytes(4, "little") for i in order)
    try:
        os.set_blocking(fill, False)
        # A pipe too small for every index gets no helper: nothing would read it yet.
        full = os.write(fill, data) == len(data)
    except BlockingIOError:
        full = False
    finally:
        os.close(fill)
    started = {}  # helper pid -> the read end of its results pipe
    gc.freeze()
    try:
        for _ in range(helpers if full else 0):
            results, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(results)
                os.close(out)
                break
            if pid == 0:
                _helper(jobs, claims, out, [results, *started.values()])
            os.close(out)
            started[pid] = results
        done = _claim(jobs, claims)
        for pid in list(started):
            chunks = []
            while chunk := os.read(started[pid], 1 << 16):
                chunks.append(chunk)
            status = os.waitpid(pid, 0)[1]
            os.close(started.pop(pid))
            # A helper that did not exit 0 sent nothing whole.
            if status == 0:
                done.update(marshal.loads(b"".join(chunks)))
        return done
    finally:
        for pid, results in started.items():
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
            os.close(results)
        os.close(claims)
        gc.unfreeze()


def _claim(jobs, claims):
    """Run the jobs whose indices this process reads from the claims pipe,
    until the pipe is empty or a job raises; their results by index."""
    done = {}
    while index := os.read(claims, 4):
        i = int.from_bytes(index, "little")
        try:
            done[i] = jobs[i]()
        except Exception:
            # Left for the rerun in job order, which raises it again there.
            break
    return done


def _helper(jobs, claims, out, inherited):
    """A forked helper's whole life: claim jobs, send their results, and
    leave through os._exit, so it never returns into the caller and never
    flushes the stdout it inherited."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        data = memoryview(marshal.dumps(_claim(jobs, claims)))
        while data:
            data = data[os.write(out, data) :]
        code = 0
    finally:
        os._exit(code)
