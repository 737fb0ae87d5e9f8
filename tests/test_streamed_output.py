"""The CLI writes its output in pieces as it formats them, in bounded memory.

The whole-text emitters the CLI used before it streamed are kept here as
references: the dense grid of printed cells of `matrix`, `json.dumps(...,
indent=2)` of `StationaryVector.as_dict` and of the `--method all` payload,
and the CSV joins.  The streamed bytes must equal theirs on perm, word and
flag chains with n <= 4, at integral, fractional and negative q, and on
stdout and --out alike.  The memory tests run the CLI in a child process
and read its peak resident set (`VmHWM`); the out-of-memory test caps the
child's own address space (`RLIMIT_AS`) and changes nothing else.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qtsetlin
from qtsetlin import cli
from qtsetlin.cli import build_parser, main
from qtsetlin.combinatorics import state_key
from qtsetlin.exact import format_rational
from qtsetlin.flags import _flag_states, rcayley_stationary
from qtsetlin.stationary import StationaryVector, stationary_oracle

ENV = dict(os.environ, PYTHONPATH=str(Path(qtsetlin.__file__).resolve().parents[1]))


def run(argv):
    """(exit code, stdout, stderr) of main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_both(argv):
    """(exit code, output) of argv, checked to be the same on stdout and in
    --out, with the same stderr; a command that fails (exit 2) prints
    nothing and creates no file."""
    code, out, err = run(argv)
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "out.txt"
        code_file, out_file, err_file = run([*argv, "--out", str(target)])
        assert (code_file, out_file, err_file) == (code, "", err)
        if code == 2:
            assert out == "" and err.startswith("error: ") and not target.exists()
        else:
            assert target.read_text() == out
    return code, out, err


def assert_streams_as(argv, reference):
    """argv prints, on stdout and in --out, the (exit code, text) that
    reference() returns; when reference() raises a ValueError (a vanishing
    closed-form factor, say), argv fails with its message and prints nothing."""
    code, out, err = run_both(argv)
    try:
        expected = reference()
    except ValueError as e:
        expected = (2, "")
        assert err == f"error: {e}\n"
    assert (code, out) == expected


def chain_of(argv):
    return cli._load_config(build_parser().parse_args(argv))


# The emitters as they were, each the whole text at once.


def reference_matrix(argv, fmt):
    op = chain_of(["matrix", *argv]).operator()
    states = [state_key(s) for s in op.states]
    d = op.matrix.denominator
    cells = [["0"] * op.matrix.cols for _ in states]
    for row, ints in zip(cells, op.matrix.int_rows):
        for c, x in ints.items():
            row[c] = format_rational(Fraction(x, d))
    if fmt == "json":
        return json.dumps({"states": states, "entries": cells}, indent=2) + "\n"
    lines = ["state," + ",".join(states)]
    for s, row in zip(states, cells):
        lines.append(s + "," + ",".join(row))
    return "\n".join(lines) + "\n"


def reference_methods(argv, method):
    chain = chain_of(["stationary", *argv])
    total = chain.rates.total()
    methods = {}
    if method in ("formula", "all"):
        methods["formula"] = chain.formula().normalized()
    if method in ("oracle", "all"):
        methods["oracle"] = stationary_oracle(chain.operator(), total)
    if method == "semigroup" or (method == "all" and chain.space == "flag" and total == 1):
        flags = _flag_states(chain.rates.n, chain.p)
        methods["semigroup"] = StationaryVector(flags, tuple(rcayley_stationary(chain.rates, chain.p, f) for f in flags))
    return methods


def reference_vector(vec, fmt):
    mapping = vec.as_dict()
    if fmt == "json":
        return json.dumps(mapping, indent=2) + "\n"
    return "\n".join(["state,value"] + [f"{k},{v}" for k, v in mapping.items()]) + "\n"


def reference_all(methods, fmt):
    """(exit code, text) of --method all."""
    agreement = len({m.values for m in methods.values()}) == 1
    payload = {name: vec.as_dict() for name, vec in methods.items()}
    payload["agree"] = agreement
    if fmt == "json":
        return int(not agreement), json.dumps(payload, indent=2) + "\n"
    lines = ["method,state,value"]
    for name, vec in methods.items():
        for k, v in vec.as_dict().items():
            lines.append(f"{name},{k},{v}")
    lines.append(f"agree,,{str(agreement).lower()}")
    return int(not agreement), "\n".join(lines) + "\n"


QS = ["1", "2", "3", "5/2", "1/2", "-3/7"]


@st.composite
def chains(draw, max_flag_n=4):
    """CLI arguments naming a chain with n <= 4 (flags n <= max_flag_n)."""
    space = draw(st.sampled_from(["perm", "word", "flag"]))
    if space == "flag":
        n = draw(st.integers(1, max_flag_n))
        p = draw(st.sampled_from([2, 3] if n < 4 else [2]))
        argv, size = ["--space", "flag", "--n", str(n), "--p", str(p)], n
    elif space == "perm":
        n = draw(st.integers(1, 4))
        argv, size = ["--space", "perm", "--n", str(n)], n
    else:
        m = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda m: sum(m) <= 4))
        argv, size = ["--space", "word", "--m", ",".join(map(str, m))], len(m)
    if space != "flag":
        argv.append("--q=" + draw(st.sampled_from(QS)))
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(0, 5)))]
    else:
        # Integer rates give integral entries at integral q.
        argv += ["--rates", ",".join(str(draw(st.integers(1, 3))) for _ in range(size))]
    return argv


FORMATS = st.sampled_from(["json", "csv"])
SLOW = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# n = 1, integral entries, entries of both signs (q < 1 and q < 0), and a
# closed form with a vanishing factor.
EXAMPLES = [
    "--space perm --n 1 --q 2",
    "--space word --m 3 --q 2",
    "--space flag --n 1 --p 3",
    "--space perm --n 3 --q 1 --rates 1,2,3",
    "--space perm --n 3 --q=1/2 --seed 1",
    "--space word --m 2,1 --q=-3/7",
    "--space perm --n 3 --q=1/2 --rates 1,1,2",
]


def with_examples(test):
    for argv in EXAMPLES:
        for fmt in ("json", "csv"):
            test = example(argv.split(), fmt)(test)
    return test


@SLOW
@given(chains(), FORMATS)
@with_examples
def test_matrix_bytes_equal_the_dense_grid(argv, fmt):
    assert_streams_as(["matrix", *argv, "--format", fmt], lambda: (0, reference_matrix(argv, fmt)))


@SLOW
@given(chains(), FORMATS)
@with_examples
def test_formula_bytes_equal_as_dict(argv, fmt):
    def reference():
        return 0, reference_vector(reference_methods(argv, "formula")["formula"], fmt)

    assert_streams_as(["stationary", *argv, "--format", fmt], reference)


@SLOW
@given(chains(max_flag_n=3), FORMATS, st.sampled_from(["oracle", "all"]))
def test_oracle_and_all_bytes_equal_the_payload(argv, fmt, method):
    def reference():
        methods = reference_methods(argv, method)
        if method == "all":
            return reference_all(methods, fmt)
        return 0, reference_vector(methods["oracle"], fmt)

    assert_streams_as(["stationary", *argv, "--format", fmt, "--method", method], reference)


@pytest.mark.parametrize("n,p", [(1, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_semigroup_bytes_equal_as_dict(n, p, fmt):
    argv = ["--space", "flag", "--n", str(n), "--p", str(p)]
    def reference():
        return 0, reference_vector(reference_methods(argv, "semigroup")["semigroup"], fmt)

    assert_streams_as(["stationary", *argv, "--format", fmt, "--method", "semigroup"], reference)


def test_an_all_method_run_that_disagrees_prints_false_and_exits_1(monkeypatch):
    from qtsetlin import stationary

    def off_by_one(op, total):
        vec = stationary_oracle(op, total)
        return StationaryVector(vec.states, (vec.values[0] + 1, *vec.values[1:]))

    monkeypatch.setattr(stationary, "stationary_oracle", off_by_one)
    argv = ["stationary", "--space", "perm", "--n", "3", "--q", "2", "--method", "all"]
    code, out, _ = run_both(argv)
    assert code == 1 and json.loads(out)["agree"] is False and out.endswith('  "agree": false\n}\n')
    code, out, _ = run_both([*argv, "--format", "csv"])
    assert code == 1 and out.endswith("\nagree,,false\n")


def test_an_empty_vector_prints_an_empty_mapping():
    vec = StationaryVector((), ())
    assert "".join(cli._json_vector(vec)) == json.dumps({}, indent=2) == "{}"
    assert "".join(cli._json_methods({"formula": vec}, True)) == json.dumps(
        {"formula": {}, "agree": True}, indent=2
    )


@pytest.mark.parametrize(
    "argv",
    [
        "spectrum --space perm --n 3 --q=-3/7 --verify",
        "spectrum --space word --m 2,1 --q 1/2 --format csv --verify",
        "spectrum --space flag --n 3 --p 2",
        "lump-check --n 3 --p 2 --m 2,1 --q 2",
        "lump-check --m 1,2 --q=-3/7",
    ],
)
def test_small_payloads_are_the_same_on_stdout_and_in_out(argv):
    code, out, _ = run_both(argv.split())
    assert code == 0 and out.endswith("\n") and not out.endswith("\n\n")


class CountingStdout:
    """A stdout that keeps only the number of writes and characters."""

    def __init__(self):
        self.writes = self.size = 0

    def write(self, text):
        self.writes += 1
        self.size += len(text)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv",
    [
        "matrix --space perm --n 6 --q 2",
        "matrix --space flag --n 3 --p 3 --format csv",
        "stationary --space perm --n 7 --q 2",
        "stationary --space word --m 2,2,2 --q 2 --method all --format csv",
        "verify --suite q1-reduction --n-max 4",
    ],
)
def test_output_goes_out_in_writes_of_64_kB(argv):
    sink = CountingStdout()
    with contextlib.redirect_stdout(sink):
        assert main(argv.split()) == 0
    assert sink.writes <= sink.size // (64 * 1024) + 2
    if argv.startswith("verify"):
        assert sink.writes == 1


PEAK = """
import sys
from qtsetlin.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
sys.stdout.flush()
for line in open("/proc/self/status"):
    if line.startswith("VmHWM:"):
        sys.stderr.write(line.split()[1])
"""


def peak_kb(*argv):
    """Peak resident set of a child process that runs main(argv), with its
    stdout thrown away."""
    proc = subprocess.run(
        [sys.executable, "-c", PEAK, *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=ENV,
        timeout=120,
    )
    return int(proc.stderr)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_perm_n6_matrix_peaks_within_5_MB_of_help():
    # 720 states, 5.9 MB of JSON; the whole text and dense grid held once took
    # about 23 MB more than --help.
    assert peak_kb("matrix", "--space", "perm", "--n", "6", "--q", "2") - peak_kb("--help") <= 5 * 1024


def _cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (100 << 20, 100 << 20))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps the address space on Linux")
def test_out_of_memory_is_an_error_line_with_exit_2():
    def cli_capped(*argv):
        return subprocess.run(
            [sys.executable, "-m", "qtsetlin.cli", *argv],
            capture_output=True,
            text=True,
            env=ENV,
            preexec_fn=_cap_address_space,
            timeout=120,
        )

    assert cli_capped("--help").returncode == 0  # the interpreter itself fits
    # Building the 40,320-state perm n=8 matrix alone takes more than 100 MB.
    proc = cli_capped("matrix", "--space", "perm", "--n", "8", "--q", "2")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: out of memory") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_out_of_memory_line_is_written_after_the_request_is_freed(monkeypatch):
    # The error line is printed once the handler has dropped the traceback,
    # so the frames of the failed request, and what they hold, are freed.
    class Partial:
        pass

    refs, alive = [], []

    def cmd(args):
        partial = Partial()
        refs.append(weakref.ref(partial))
        raise MemoryError

    class Stderr(io.StringIO):
        def write(self, text):
            alive.append(refs[0]() is not None)
            return super().write(text)

    monkeypatch.setattr(cli, "cmd_matrix", cmd)
    monkeypatch.setattr(sys, "stderr", Stderr())
    assert main(["matrix", "--space", "perm", "--n", "3"]) == 2
    assert sys.stderr.getvalue().startswith("error: out of memory")
    assert alive and not any(alive)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="Python 3.11+ caps int digits")
@pytest.mark.parametrize(
    "command",
    [
        "matrix",
        "matrix --format csv",
        "stationary",
        "stationary --method all",
        "stationary --method all --format csv",
    ],
)
def test_an_int_too_long_to_print_fails_before_any_output(command, tmp_path):
    # q and two rates with 4,001-digit denominators make values whose
    # denominators have more digits than str() prints (4,300 by default).
    big = 10**4000
    argv = [*command.split(), "--space", "perm", "--n", "3", f"--q=1/{big + 1}", "--rates", f"1/{big + 3},1/{big + 3},2"]
    target = tmp_path / "out.txt"
    code, out, err = run([*argv, "--out", str(target)])
    assert (code, out) == (2, "") and "Exceeds the limit" in err
    assert not target.exists()
    code, out, err = run(argv)
    assert (code, out) == (2, "") and "Exceeds the limit" in err
