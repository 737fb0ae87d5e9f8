"""Workload definitions for the qtsetlin benchmark.

A workload is a fixed list of `qtsetlin` CLI commands.  Every rate vector a
command receives is generated here from the workload seed, so the same seed
always gives the same argv and therefore the same output bytes.  For
DEFAULT_SEED the SHA-256 of each command's stdout is stored next to the
command; for any seed the output also passes an exact sanity check (see
`check_output`).

Why each workload exists (the long form is in bench/README.md):

* build       -- transition-matrix assembly near the dense frontier:
                 `Matrix.__add__` in `_shuffle_sum`, `mat_mul`, flag line
                 insertion and the lumping products; no elimination and no
                 closed form.  Sparse-operator work moves this one.
* closed-form -- closed-form and path-method stationary values with no
                 matrix at all; `exact` is idle, so matrix and elimination
                 work must leave it flat.
* verify      -- the certification run users make: Hecke relations, exact
                 nullities, annihilation products, the null-space oracle and
                 lumping.  It uses `exact` through products and elimination
                 rather than assembly, so it shows a change that speeds up
                 construction but slows the checks.
"""

import json
import random
from fractions import Fraction

DEFAULT_SEED = 0
# Iterations of a run cycle through this many input variants of the seed.
# The cost of `verify` depends on the rates its seed samples (their digit
# sizes set the size of the exact entries), so one input per run would put
# that variation into the run-to-run spread.
VARIANTS = 3

# Per command: argv before the generated --rates/--seed, how rates are
# generated (count of values; all positive, summing to 1), the sanity check,
# the expected number of states or checks, and the stdout digests of the
# VARIANTS inputs of DEFAULT_SEED.
WORKLOADS = {
    "build": [
        {
            # Word chain with content (1,1,1,1,2): the quotient of the perm
            # n=6 chain, 360 states, assembled by the same dense shuffle sum.
            "argv": ["matrix", "--space", "word", "--m", "1,1,1,1,2", "--q", "2"],
            "rates": 5,
            "check": "row_sums",
            "size": 360,
            "sha256": [
                "333894d20f27e68100832b150040361ae55c64c0e669e1857b059b1782090836",
                "1e6182f8ff54bb6f9bf60b49ff5900eede5d111dc3d8fed07a8264361d324e20",
                "de4dce8b5b9e7ae7b5bf3fc5a09528d96d4ae059a8c63e5f99ad9c1554a53879",
            ],
        },
        {
            "argv": ["matrix", "--space", "perm", "--n", "5", "--q", "2"],
            "rates": 5,
            "check": "row_sums",
            "size": 120,
            "sha256": [
                "8f7eb845074269b03013c506bdd815b05f44aa1898b53ecd820c271649bad7f0",
                "4259e2ad8a55089cb6769db2e02507fdabeb23b53fc9e2d1362552973bdcfded",
                "717e0c8f5fa31fb44a9cc8bc2bbf69227b0a4e046f2920d9beed41d52d076464",
            ],
        },
        {
            # 315 flags of F_2^4 built by line insertion, then the two
            # flag-to-perm commuting diagrams as dense products.
            "argv": ["lump-check", "--n", "4", "--p", "2"],
            "rates": 4,
            "check": "diagrams",
            "size": 2,
            "sha256": [
                "cd77e4b6bc1aae81eb6b30ebd9e7a6a6883c11f4c1f95e10b58da1259b25efd8",
                "cd77e4b6bc1aae81eb6b30ebd9e7a6a6883c11f4c1f95e10b58da1259b25efd8",
                "cd77e4b6bc1aae81eb6b30ebd9e7a6a6883c11f4c1f95e10b58da1259b25efd8",
            ],
        },
    ],
    "closed-form": [
        {
            "argv": ["stationary", "--space", "perm", "--n", "7", "--q", "2"],
            "rates": 7,
            "check": "sums_to_one",
            "size": 5040,
            "sha256": [
                "21cfa6333a1fccc3fa4f96f8e69674e4a7c891f5a4d577c6fee45d3f9667e7d4",
                "4b7d233e160b28563a384ff100b20a623c1d17215bdec2251f505a9348cd047a",
                "dfbb194d6b7511ea877249b0d051eac313a2a5c35666c9fae4fa92cc56b5930d",
            ],
        },
        {
            "argv": ["stationary", "--space", "word", "--m", "1,2,2,2", "--q", "3"],
            "rates": 4,
            "check": "sums_to_one",
            "size": 630,
            "sha256": [
                "7303089e94dba1e4abfee90578839b1c1702885f7b3e9f0f19c735475ffed5b4",
                "ef587886cb9811ce47296de6028668e2376e0e7560c636526712d4b6c9b0e8a6",
                "089b47dc12229dd9cdfce60e656137447e32c148a7038949a132fddc5071bfa6",
            ],
        },
        {
            "argv": ["stationary", "--space", "flag", "--n", "4", "--p", "2", "--method", "semigroup"],
            "rates": 4,
            "check": "sums_to_one",
            "size": 315,
            "sha256": [
                "364ccf47b8240c9abadad630303cf80aa3336fae47e6e56343baed5e7c579203",
                "0eb9272da67c14ae94e930dbe719526bbb05e271faf1bbf5a7f6288baf030a26",
                "6941295e43a8f6e6557f87be3de0131172899374f88b6af68844de5d8f866986",
            ],
        },
    ],
    "verify": [
        {
            "argv": ["verify", "--suite", "all", "--n-max", "4", "--p", "3"],
            "rates": None,
            "check": "all_pass",
            "size": None,
            "sha256": [
                "9a903321b86c720f01ae2ea57c7a9e10e49e7eb3c6fa02e60dd0224e3e4c7fd0",
                "8fed9079d61876276c8b14cafa7e3f15ec529129f484fd95758fdf5c1c281aa7",
                "411b8db3dd9c5a016ff0432b94bb363907da9d5ced8145934fd69f78c9d47c3b",
            ],
        },
    ],
}


def positive_rates(rng, count):
    """`count` positive rationals summing to 1 whose digit sizes do not depend
    on the seed, so the cost of exact arithmetic is the same for every seed."""
    a = [rng.randint(100, 999) for _ in range(count)]
    s = sum(a)
    return [Fraction(v, s) for v in a]


def commands(name, seed, table=WORKLOADS):
    """The workload's command lists for this seed, one per input variant:
    VARIANTS lists of (argv, spec) pairs."""
    variants = []
    for v in range(VARIANTS):
        rng = random.Random(f"{name}:{seed}:{v}")
        out = []
        for spec in table[name]:
            argv = list(spec["argv"])
            if spec["rates"] is None:
                argv += ["--seed", str(seed * VARIANTS + v)]
            else:
                rates = positive_rates(rng, spec["rates"])
                argv += ["--rates", ",".join(str(r) for r in rates)]
            out.append((argv, spec))
        variants.append(out)
    return variants


def check_output(spec, stdout):
    """Exact sanity check of one command's stdout; returns an error string,
    or None when the output is right."""
    text = stdout.decode()
    kind = spec["check"]
    if kind == "all_pass":
        lines = text.splitlines()
        results = lines[:-1]
        if not results or any(not line.startswith("PASS ") for line in results):
            return "a verify check did not PASS"
        if lines[-1] != f"{len(results)}/{len(results)} checks passed":
            return f"bad verify summary {lines[-1]!r}"
        return None
    data = json.loads(text)
    if kind == "diagrams":
        if len(data) != spec["size"] or not all(v is True for v in data.values()):
            return f"commuting diagrams not all true: {data}"
        return None
    if kind == "sums_to_one":
        values = [Fraction(v) for v in data.values()]
        if len(values) != spec["size"]:
            return f"expected {spec['size']} states, got {len(values)}"
        if any(v <= 0 for v in values) or sum(values) != 1:
            return "stationary values are not positive with sum exactly 1"
        return None
    if kind == "row_sums":
        # Rates sum to 1, so every row sums to the total rate 1.
        entries = data["entries"]
        if len(data["states"]) != spec["size"] or len(entries) != spec["size"]:
            return f"expected {spec['size']} states"
        for state, row in zip(data["states"], entries):
            if len(row) != spec["size"] or sum(Fraction(v) for v in row) != 1:
                return f"row {state} does not sum to the total rate"
        return None
    raise ValueError(f"unknown check {kind!r}")
