"""
Command-line front end.

Subcommands: matrix, stationary, spectrum, lump-check, verify.  Exact values
are emitted as canonical rational strings ("a/b", or "a" when integral), so
JSON and CSV output can round-trip without loss.  Exit codes: 0 success,
1 verification failure, 2 usage or configuration error, or output that
could not be written.

Each subcommand imports the layers it runs when it runs, so a command loads
no layer it does not use (the README lists them per command).

Every command computes its values first and then writes its output in pieces
as it formats them (`_emit`), so no command holds its whole text, and a
failing command prints nothing and creates no --out file.
"""

import argparse
import atexit
import functools
import gc
import json
import os
import sys
from fractions import Fraction

from .combinatorics import state_names
from .exact import format_rational, parse_rational
from .hecke_chains import (
    FLAG_STATE_CAP,
    SUITES,
    Chain,
    PermRates,
    WordRates,
    generic_perm_rates,
    generic_word_rates,
)

__all__ = ["main", "build_parser", "ConfigError"]


class ConfigError(ValueError):
    """Bad configuration; main reports it, like every ValueError, with exit 2."""


def _parse_rates(text):
    try:
        return tuple(parse_rational(v) for v in text.split(","))
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"bad rate list {text!r}: {e}")


def _parse_q(text):
    try:
        q = parse_rational(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"bad --q {text!r}: {e}")
    if q == 0:
        raise ConfigError("q must be nonzero")
    return q


def _parse_composition(args):
    """--m as a composition, checked against --n when both are given."""
    try:
        parts = tuple(int(v) for v in args.m.split(","))
    except ValueError as e:
        raise ConfigError(f"bad composition {args.m!r}: {e}")
    if any(v < 1 for v in parts):
        raise ConfigError("composition parts must be positive")
    if args.n is not None and args.n != sum(parts):
        raise ConfigError(f"--n {args.n} does not match --m {args.m}, which sums to {sum(parts)}")
    return parts


def _given_rates(args):
    """The parsed --rates list, or None when rates are sampled from --seed
    (default 0); --seed has nothing to sample once --rates is given."""
    if args.rates is None:
        return None
    if args.seed is not None:
        raise ConfigError("--seed samples rates and is not read with --rates; omit it")
    return _parse_rates(args.rates)


def _perm_rates(args, q):
    """--rates at q, checked against --n, or generic rates from --seed."""
    x = _given_rates(args)
    if x is None:
        return generic_perm_rates(args.n, seed=args.seed or 0, q=q)
    if len(x) != args.n:
        raise ConfigError(f"expected {args.n} rates, got {len(x)}")
    return PermRates(q, x)


def _word_rates(args, m, q):
    """--rates at q, checked against the composition, or generic rates."""
    xbar = _given_rates(args)
    if xbar is None:
        return generic_word_rates(m, seed=args.seed or 0, q=q)
    if len(xbar) != len(m):
        raise ConfigError(f"expected {len(m)} rates, got {len(xbar)}")
    return WordRates(q, xbar, m)


def _load_config(args):
    """Validate the flag combination and return the chain it names."""
    space = args.space
    for name in {"flag": ("m",), "perm": ("p", "m"), "word": ("p",)}.get(space, ()):
        if getattr(args, name) is not None:
            raise ConfigError(f"the {space} space does not read --{name}; omit it")
    if space == "flag":
        if args.p is None:
            raise ConfigError("flag space requires --p")
        _check_prime(args.p, f"--p {args.p}")
        if args.q is not None:
            raise ConfigError("flag space takes q from --p; omit --q")
        if args.n is None:
            raise ConfigError("flag space requires --n")
        return Chain("flag", _perm_rates(args, Fraction(args.p)), args.p)
    if space == "perm":
        if args.n is None:
            raise ConfigError("perm space requires --n")
        if args.q is None:
            raise ConfigError("perm space requires --q")
        return Chain("perm", _perm_rates(args, _parse_q(args.q)))
    if space == "word":
        if args.m is None:
            raise ConfigError("word space requires --m")
        if args.q is None:
            raise ConfigError("word space requires --q")
        m = _parse_composition(args)
        return Chain("word", _word_rates(args, m, _parse_q(args.q)))
    raise ConfigError(f"unknown space {space!r}")


def _check_prime(p, what):
    from .flags import is_prime

    if not is_prime(p):
        raise ConfigError(f"{what} is not prime")


# Output goes out in writes of about this many characters: one write per
# piece would be one system call per piece on an unbuffered stdout.
_CHUNK = 1 << 16


def _emit(args, pieces):
    """Write the str pieces, then a newline, to --out or to stdout, joined
    into writes of about _CHUNK characters.  Every value is computed before
    this is called, so --out is opened only once nothing is left to fail."""
    if not getattr(args, "out", None):
        try:
            _write(sys.stdout.write, pieces)
            sys.stdout.flush()
        except OSError as e:
            # What stays buffered would fail again in the interpreter's final
            # flush, with a traceback; send it to the null device instead.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ConfigError(f"cannot write to stdout: {e.strerror or e}") from e
        return
    try:
        with open(args.out, "w") as fh:
            _write(fh.write, pieces)
    except OSError as e:
        raise ConfigError(f"cannot write --out {args.out}: {e.strerror or e}") from e


def _write(write, pieces):
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _CHUNK:
            write("".join(batch))
            batch, size = [], 0
    batch.append("\n")
    write("".join(batch))


def _fail_before_output(ints, pieces):
    """str() refuses an int of more decimal digits than
    sys.get_int_max_str_digits() (Python 3.11+) with a ValueError.  Every int
    that `pieces()` prints divides one of `ints`; when one of those may be
    that long, make the pieces once without writing them, so that error
    comes before any output, as every other one does."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and max(map(int.bit_length, ints), default=0) * 0.30103 + 1 > limit:
        for _ in pieces():
            pass


def cmd_matrix(args) -> int:
    from functools import partial
    from itertools import chain

    op = _load_config(args).operator()
    states = list(state_names(op.states))
    m = op.matrix
    pieces = partial(_matrix_json if args.format == "json" else _matrix_csv, states, m)
    entries = chain.from_iterable(map(dict.values, m.int_rows))
    _fail_before_output(chain([m.denominator], entries), pieces)
    _emit(args, pieces())
    return 0


def _matrix_cells(m):
    """The printed cells of each row of m, one list at a time: "0" off the
    nonzeros, and a reduced "a/b" or "a" (one gcd each) on them."""
    from math import gcd

    d = m.denominator
    zeros = ["0"] * m.cols
    for ints in m.int_rows:
        cells = zeros.copy()
        for c, x in ints.items():
            g = gcd(x, d)
            cells[c] = str(x // g) if g == d else f"{x // g}/{d // g}"
        yield cells


def _matrix_json(states, m):
    """json.dumps({"states": states, "entries": cells}, indent=2) in pieces,
    one per row; rational strings need no escaping."""
    quote = json.encoder.encode_basestring_ascii
    yield '{\n  "states": [\n    ' + ",\n    ".join(map(quote, states)) + '\n  ],\n  "entries": ['
    sep = "\n"
    for cells in _matrix_cells(m):
        yield sep + '    [\n      "' + '",\n      "'.join(cells) + '"\n    ]'
        sep = ",\n"
    yield "\n  ]\n}"


def _matrix_csv(states, m):
    yield "state," + ",".join(states)
    for s, cells in zip(states, _matrix_cells(m)):
        yield "\n" + s + "," + ",".join(cells)


def cmd_stationary(args) -> int:
    from functools import partial

    chain = _load_config(args)
    path = chain.space == "flag" and chain.rates.total() == 1
    if args.method == "semigroup" and not path:
        if chain.space != "flag":
            raise ConfigError("--method semigroup applies to the flag space only")
        raise ConfigError("--method semigroup requires rates summing to 1")
    wanted = (["formula", "oracle"] + ["semigroup"] * path) if args.method == "all" else [args.method]
    methods = {method: chain.stationary(method) for method in wanted}
    # One method always agrees with itself; hashing its values would cost a
    # Fraction hash per state.
    agreement = args.method != "all" or len({m.values for m in methods.values()}) == 1
    if args.method != "all":
        pieces = partial(_json_vector if args.format == "json" else _csv_vector, methods[args.method])
    elif args.format == "json":
        pieces = partial(_json_methods, methods, agreement)
    else:
        pieces = partial(_csv_methods, methods, agreement)
    values = (v for vec in methods.values() for v in vec.values)
    _fail_before_output((x for v in values for x in (v.numerator, v.denominator)), pieces)
    _emit(args, pieces())
    return 0 if agreement else 1


def _json_vector(vec, pad=""):
    """json.dumps(vec.as_dict(), indent=2) in pieces, one per state, as the
    value of a key indented by `pad`."""
    quote = json.encoder.encode_basestring_ascii
    sep = "{\n" + pad + "  "
    for k, v in vec.printed_items():
        yield sep + quote(k) + ": " + quote(v)
        sep = ",\n" + pad + "  "
    yield "{}" if sep.startswith("{") else "\n" + pad + "}"


def _json_methods(methods, agreement):
    """json.dumps({name: vec.as_dict(), ..., "agree": agreement}, indent=2)."""
    sep = "{\n  "
    for name, vec in methods.items():
        yield sep + json.encoder.encode_basestring_ascii(name) + ": "
        yield from _json_vector(vec, "  ")
        sep = ",\n  "
    yield f'{sep}"agree": {str(agreement).lower()}\n}}'


def _csv_vector(vec):
    yield "state,value"
    for k, v in vec.printed_items():
        yield f"\n{k},{v}"


def _csv_methods(methods, agreement):
    yield "method,state,value"
    for name, vec in methods.items():
        for k, v in vec.printed_items():
            yield f"\n{name},{k},{v}"
    yield f"\nagree,,{str(agreement).lower()}"


def cmd_spectrum(args) -> int:
    chain = _load_config(args)
    catalog = chain.catalog()
    rows = [
        {
            "label": list(e.label),
            "value": format_rational(e.value),
            "multiplicity": e.multiplicity,
        }
        for e in catalog
    ]
    failed = False
    payload = {"catalog": rows}
    if args.verify:
        from .spectra import verify_multiplicities

        report = verify_multiplicities(chain.operator(), catalog)
        payload["verification"] = report.as_json()
        failed = not report.all_pass
    if args.format == "json":
        _emit(args, [json.dumps(payload, indent=2)])
    else:
        lines = ["label,value,multiplicity"]
        for r in rows:
            label = " ".join(str(v) for v in r["label"])
            lines.append(f"{label},{r['value']},{r['multiplicity']}")
        if args.verify:
            lines.append(f"all_pass,{str(not failed).lower()},")
        _emit(args, ["\n".join(lines)])
    return 1 if failed else 0


def cmd_lump_check(args) -> int:
    if args.p is not None:
        _check_prime(args.p, f"--p {args.p}")
    m = _parse_composition(args) if args.m is not None else None
    if args.q is not None and m is None:
        raise ConfigError("only the word diagrams read --q; give --m or omit --q")
    if args.p is not None and m is not None and args.rates is not None:
        raise ConfigError(
            "one --rates list cannot serve both: the flag diagrams take --n rates "
            "and the word diagrams take one rate per part of --m; give --p or --m"
        )
    results = {}
    if args.p is not None:
        if args.n is None:
            raise ConfigError("flag diagrams require --n")
        results.update(Chain("flag", _perm_rates(args, Fraction(args.p)), args.p).diagrams())
    if m is not None:
        if args.q is None:
            raise ConfigError("word diagrams require --q")
        results.update(Chain("word", _word_rates(args, m, _parse_q(args.q))).diagrams())
    if not results:
        raise ConfigError("nothing to check: give --p (flag diagrams) and/or --m (word diagrams)")
    _emit(args, [json.dumps(results, indent=2)])
    return 0 if all(results.values()) else 1


def cmd_verify(args) -> int:
    if args.n_max is not None and args.suite == "matrix":
        raise ConfigError("the matrix suite does not read --n-max; omit it")
    n_max = 3 if args.n_max is None else args.n_max
    if n_max < 2:
        raise ConfigError(f"--n-max must be at least 2, got {n_max}; no suite checks a chain below n=2")
    if args.p == "":
        raise ConfigError("--p is empty; omit it for the default 2,3")
    if args.p is not None and args.suite == "q1-reduction":
        raise ConfigError("the q1-reduction suite does not read --p; omit it")
    try:
        p_list = tuple(int(v) for v in args.p.split(",")) if args.p else (2, 3)
    except ValueError as e:
        raise ConfigError(f"bad --p {args.p!r}: {e}")
    for k, p in enumerate(p_list):
        _check_prime(p, f"--p entry {p}")
        if p in p_list[:k]:
            raise ConfigError(f"--p lists the prime {p} twice; give each prime once")
    from .suites import run_suite

    checks = run_suite(args.suite, n_max=n_max, p_list=p_list, seed=args.seed)
    if not checks:
        why = f"suite {args.suite!r} has no checks at --n-max {n_max}"
        # The smallest flag space, n = 2 over F_p, has p + 1 flags.
        if min(p_list) + 1 > FLAG_STATE_CAP:
            why += f": every flag space over --p {args.p} has more than FLAG_STATE_CAP = {FLAG_STATE_CAP} states"
        raise ConfigError(why)
    width = max(len(name) for name, _ in checks)
    passed = sum(1 for _, ok in checks if ok)
    lines = [f"{'PASS' if ok else 'FAIL'}  {name:<{width}}" for name, ok in checks]
    _emit(args, ["\n".join(lines), f"\n{passed}/{len(checks)} checks passed"])
    return 0 if passed == len(checks) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qtsetlin",
        description="Exact q-Tsetlin library chains on permutations, words and flags.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--space", choices=("perm", "word", "flag"), required=True)
        sp.add_argument("--n", type=int)
        sp.add_argument("--p", type=int)
        sp.add_argument("--q")
        sp.add_argument("--rates", help="comma-separated rationals, e.g. 1/2,1/3,1/6")
        sp.add_argument("--m", help="composition for the word space, e.g. 1,2")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out", help="write output to this file instead of stdout")

    sp = sub.add_parser("matrix", help="emit a transition matrix")
    add_common(sp)
    sp.set_defaults(func=cmd_matrix)

    sp = sub.add_parser("stationary", help="emit a stationary distribution")
    add_common(sp)
    sp.add_argument(
        "--method",
        choices=("formula", "oracle", "semigroup", "all"),
        default="formula",
    )
    sp.set_defaults(func=cmd_stationary)

    sp = sub.add_parser("spectrum", help="emit the eigenvalue catalog")
    add_common(sp)
    sp.add_argument("--verify", action="store_true", help="check multiplicities and annihilation")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("lump-check", help="verify the commuting diagrams")
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--q")
    sp.add_argument("--m")
    sp.add_argument("--rates")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_lump_check)

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.add_argument("--suite", default="all", choices=SUITES)
    sp.add_argument("--n-max", type=int, dest="n_max", help="default 3; the matrix suite does not read it")
    sp.add_argument("--p", help="comma-separated primes, default 2,3")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _freeze_at_exit():
    """Have the interpreter freeze every live object when it exits, so the
    full collections of its finalization skip them: 11-20 ms of a short
    command.  Registered at most once per process, and nothing is frozen
    before exit, so in-process callers of `main` still collect the garbage
    of each call.  Exit still flushes stdout, runs the other atexit handlers
    and frees every object by reference count."""
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_at_exit()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "n", None) is not None and args.n < 1:
            raise ConfigError(f"--n must be at least 1, got {args.n}")
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        pass  # print after the handler, once its traceback no longer holds the request's frames
    print("error: out of memory: the request needs more memory than this process may use", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
