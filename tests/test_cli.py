import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from qtsetlin import flags, suites
from qtsetlin.cli import main
from qtsetlin.combinatorics import q_factorial
from qtsetlin.flags import PRIME_TEST_BOUND
from qtsetlin.suites import compositions


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMatrix:
    def test_perm_n3_entry(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--space", "perm", "--n", "3", "--q", "2",
            "--rates", "1/2,1/3,1/6",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["states"] == ["123", "132", "213", "231", "312", "321"]
        assert payload["entries"][0][0] == "3/8"

    def test_word_rows_sum_to_one(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--space", "word", "--m", "1,2", "--q", "1",
            "--rates", "1/2,1/2",
        )
        assert code == 0
        payload = json.loads(out)
        from fractions import Fraction

        for row in payload["entries"]:
            assert sum(Fraction(v) for v in row) == 1

    def test_flag_dimension_21(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--space", "flag", "--n", "3", "--p", "2",
            "--rates", "1/2,1/3,1/6",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["states"]) == 21
        assert len(payload["entries"]) == 21

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--space", "perm", "--n", "2", "--q", "2",
            "--rates", "1/2,1/2", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "state,12,21"
        assert len(lines) == 3

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "m.json"
        code, out, _ = run(
            capsys, "matrix", "--space", "perm", "--n", "2", "--q", "2",
            "--rates", "1/2,1/2", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["states"] == ["12", "21"]


class TestStationary:
    def test_perm_value(self, capsys):
        code, out, _ = run(
            capsys, "stationary", "--space", "perm", "--n", "3", "--q", "2",
            "--rates", "1/2,1/3,1/6",
        )
        assert code == 0
        assert json.loads(out)["321"] == "1/15"

    def test_flag_all_methods_agree(self, capsys):
        code, out, _ = run(
            capsys, "stationary", "--space", "flag", "--n", "3", "--p", "2",
            "--rates", "1/2,1/3,1/6", "--method", "all",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        assert set(payload) == {"formula", "oracle", "semigroup", "agree"}

    def test_word_single_state(self, capsys):
        code, out, _ = run(
            capsys, "stationary", "--space", "word", "--m", "3", "--q", "2",
            "--rates", "1",
        )
        assert code == 0
        assert json.loads(out) == {"111": "1"}

    def test_semigroup_only_for_flags(self, capsys):
        code, _, err = run(
            capsys, "stationary", "--space", "perm", "--n", "3", "--q", "2",
            "--rates", "1/2,1/3,1/6", "--method", "semigroup",
        )
        assert code == 2
        assert "flag space" in err


class TestSpectrum:
    def test_flag_table(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--space", "flag", "--n", "3", "--p", "2", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        mults = sorted(
            (e["multiplicity"] for e in payload["catalog"] if e["multiplicity"]),
            reverse=True,
        )
        assert mults == [8, 6, 4, 2, 1]

    def test_perm_catalog_size_and_zero_mults(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--space", "perm", "--n", "3", "--q", "2", "--seed", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["catalog"]) == 8
        assert sum(1 for e in payload["catalog"] if e["multiplicity"] == 0) == 3

    def test_verify_flag(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--space", "word", "--m", "1,2", "--q", "3",
            "--rates", "2/5,3/5", "--verify",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verification"]["all_pass"] is True
        assert payload["verification"]["annihilation"] is True

    def test_word_m33_catalog(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--space", "word", "--m", "3,3", "--q", "2", "--seed", "9",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["catalog"]) == 16
        mults = sorted(
            (e["multiplicity"] for e in payload["catalog"] if e["multiplicity"]),
            reverse=True,
        )
        assert mults == [6, 3, 3, 2, 1, 1, 1, 1, 1, 1]

    def test_seeded_sampling_deterministic(self, capsys):
        _, out1, _ = run(capsys, "spectrum", "--space", "perm", "--n", "3", "--q", "2", "--seed", "5")
        _, out2, _ = run(capsys, "spectrum", "--space", "perm", "--n", "3", "--q", "2", "--seed", "5")
        assert out1 == out2


class TestLumpCheck:
    def test_flag_and_word_diagrams(self, capsys):
        code, out, _ = run(
            capsys, "lump-check", "--n", "3", "--p", "2", "--m", "2,1", "--q", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "flags-perms-proj": True,
            "flags-perms-incl": True,
            "perms-words-proj": True,
            "perms-words-incl": True,
        }

    def test_requires_some_target(self, capsys):
        code, _, err = run(capsys, "lump-check")
        assert code == 2
        assert "nothing to check" in err


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "q1-reduction", "--n-max", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_lumping_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lumping", "--n-max", "3", "--p", "2")
        assert code == 0

    def test_spectra_suite_reaches_flag_spaces_past_60_states(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "spectra", "--n-max", "2", "--p", "59,61")
        assert code == 0
        flag_lines = [line.split() for line in out.splitlines() if " flag " in line]
        assert [words[:4] for words in flag_lines] == [
            ["PASS", "flag", "n=2", "p=59:"],
            ["PASS", "flag", "n=2", "p=61:"],
        ]

    def test_properties_suite_builds_no_flag_space_over_the_cap(self, capsys, monkeypatch):
        built = []
        original = flags.transition_matrix_flags

        def capped(rates, p):
            assert q_factorial(rates.n, p) <= suites.FLAG_STATE_CAP, f"built flags n={rates.n} p={p}"
            built.append((rates.n, p))
            return original(rates, p)

        monkeypatch.setattr(flags, "transition_matrix_flags", capped)
        code, out, _ = run(capsys, "verify", "--suite", "properties", "--n-max", "3", "--p", "13")
        assert code == 0
        assert built == [(2, 13)] * len(built) and 0 < len(built) < 5
        assert f"row sums equal the total rate on {45 + len(built)} random configurations" in out


class TestConfigErrors:
    def test_nonprime_p(self, capsys):
        code, _, err = run(
            capsys, "matrix", "--space", "flag", "--n", "3", "--p", "4",
            "--rates", "1/2,1/4,1/4",
        )
        assert code == 2
        assert "not prime" in err

    def test_wrong_rate_count(self, capsys):
        code, _, err = run(
            capsys, "matrix", "--space", "perm", "--n", "3", "--q", "2",
            "--rates", "1/2,1/2",
        )
        assert code == 2
        assert "expected 3 rates" in err

    def test_q_zero(self, capsys):
        code, _, err = run(
            capsys, "matrix", "--space", "perm", "--n", "2", "--q", "0",
            "--rates", "1/2,1/2",
        )
        assert code == 2

    def test_flag_space_rejects_q(self, capsys):
        code, _, err = run(
            capsys, "matrix", "--space", "flag", "--n", "2", "--p", "2", "--q", "2",
            "--rates", "1/2,1/2",
        )
        assert code == 2
        assert "omit --q" in err

    @pytest.mark.parametrize(
        "argv",
        [
            "matrix --space perm --n 3 --q 1/0",
            "stationary --space word --m 1,2 --q 1/0",
            "spectrum --space perm --n 3 --q 1/0",
            "lump-check --m 1,2 --q 1/0",
            "matrix --space perm --n 3 --q abc",
            "matrix --space perm --n 0 --q 2",
            "matrix --space perm --n -1 --q 2",
            "matrix --space flag --n 0 --p 2",
            "stationary --space perm --n 0 --q 2",
            "spectrum --space flag --n -1 --p 2",
            "lump-check --n 0 --p 2",
            "matrix --space word --m 2 --q -1",
            "lump-check --m 2,1 --q -1",
            "stationary --space word --m 1,2 --q -1",
            "matrix --space word --m 1,3 --q -1",
            "lump-check --n 4 --p 2 --rates 1/2,1/2",
            "verify --n-max -3",
            "verify --suite q1-reduction --n-max 1",
            "verify --n-max 1",
            "verify --suite all --n-max 1",
            "verify --suite properties --n-max 1",
            "verify --suite stationary --n-max 0",
            "lump-check --m 2,1 --q 2 --n 7",
            "lump-check --n 3 --p 2 --m 2,1 --q 2 --rates 1/2,1/4,1/4",
            "matrix --space perm --n 3 --q 2 --out /nonexistent/x",
            "stationary --space word --m 1,2 --q 3 --out .",
            "matrix --space word --m 1,2 --q 2 --n 7",
            "matrix --space perm --n 2 --q 2 --p 5",
            "matrix --space perm --n 2 --q 2 --m 3,4",
            "matrix --space flag --n 2 --p 2 --m 1,1",
            "lump-check --n 2 --p 2 --q 5",
            "verify --suite hecke --n-max 2 --p=",
            "verify --suite q1-reduction --n-max 2 --p 7",
            "verify --suite hecke --n-max 2 --p x",
            "matrix --space perm --n 3 --q 2 --rates 1/2,1/3,1/6 --seed 5",
            "stationary --space word --m 1,2 --q 3 --rates 2/5,3/5 --seed 0",
            "spectrum --space flag --n 3 --p 2 --rates 1/2,1/3,1/6 --seed 1",
            "lump-check --m 2,1 --q 2 --rates 1/3,2/3 --seed 2",
            "verify --suite matrix --n-max 1",
            "verify --suite matrix --n-max 40",
            "verify --suite hecke --n-max 2 --p 2,2",
            "verify --suite spectra --n-max 2 --p 3,2,3",
        ],
    )
    def test_bad_input_exit_2_without_traceback(self, capsys, argv):
        code, _, err = run(capsys, *argv.split())
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            ("matrix --space perm --n 2 --q 2 --p 5", "--p"),
            ("matrix --space perm --n 2 --q 2 --m 3,4", "--m"),
            ("matrix --space flag --n 2 --p 2 --m 1,1", "--m"),
            ("stationary --space word --m 1,2 --q 2 --p 3", "--p"),
            ("matrix --space word --m 1,2 --q 2 --n 7", "--n"),
            ("lump-check --n 2 --p 2 --q 5", "--q"),
            ("verify --suite hecke --n-max 2 --p=", "--p"),
            ("verify --suite q1-reduction --n-max 2 --p 7", "--p"),
            ("matrix --space perm --n 3 --q 2 --rates 1/2,1/3,1/6 --seed 5", "--seed"),
            ("stationary --space word --m 1,2 --q 3 --rates 2/5,3/5 --seed 0", "--seed"),
            ("spectrum --space flag --n 3 --p 2 --rates 1/2,1/3,1/6 --seed 1", "--seed"),
            ("lump-check --m 2,1 --q 2 --rates 1/3,2/3 --seed 2", "--seed"),
            ("verify --suite matrix --n-max 1", "--n-max"),
            ("verify --suite matrix --n-max 40", "--n-max"),
            ("verify --n-max 1", "--n-max"),
            ("verify --suite properties --n-max 1", "--n-max"),
        ],
    )
    def test_unread_argument_is_named(self, capsys, argv, name):
        code, _, err = run(capsys, *argv.split())
        assert code == 2
        assert name in err

    def test_empty_suite_names_the_flag_cap_when_it_is_the_cause(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "lumping", "--n-max", "2", "--p", "401")
        assert code == 2 and out == ""
        assert f"every flag space over --p 401 has more than FLAG_STATE_CAP = {suites.FLAG_STATE_CAP} states" in err
        code, out, _ = run(capsys, "verify", "--suite", "lumping", "--n-max", "2", "--p", "397")
        assert code == 0 and "flags-perms-proj commutes (n=2, p=397)" in out

    @pytest.mark.parametrize("value", ["x", "2,y", "3.5"])
    def test_unparsable_p_is_named(self, capsys, value):
        code, _, err = run(capsys, "verify", "--suite", "hecke", "--n-max", "2", "--p", value)
        assert code == 2
        assert f"bad --p {value!r}" in err

    @pytest.mark.parametrize("value, prime", [("2,2", 2), ("3,2,3", 3)])
    def test_repeated_p_is_named(self, capsys, value, prime):
        code, out, err = run(capsys, "verify", "--suite", "hecke", "--n-max", "2", "--p", value)
        assert code == 2
        assert out == ""
        assert f"--p lists the prime {prime} twice" in err

    def test_large_prime_p_is_decided_without_trial_division(self, capsys):
        mersenne = str(2**61 - 1)
        code, out, _ = run(capsys, "verify", "--suite", "hecke", "--n-max", "2", "--p", mersenne)
        assert code == 0
        assert out.endswith("1/1 checks passed\n")
        code, out, _ = run(capsys, "matrix", "--space", "flag", "--n", "1", "--p", mersenne, "--rates", "1")
        assert code == 0
        assert json.loads(out) == {"states": ["1"], "entries": [["1"]]}
        code, out, err = run(capsys, "verify", "--suite", "hecke", "--n-max", "2", "--p", str(2**61 + 1))
        assert code == 2
        assert out == ""
        assert f"--p entry {2**61 + 1} is not prime" in err

    @pytest.mark.parametrize(
        "argv",
        [
            "verify --suite hecke --n-max 2 --p {}",
            "matrix --space flag --n 1 --rates 1 --p {}",
            "lump-check --n 2 --p {}",
        ],
    )
    def test_p_past_the_primality_bound_is_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv.format(PRIME_TEST_BOUND).split())
        assert code == 2
        assert out == ""
        assert f"exact only below {PRIME_TEST_BOUND}" in err
        assert "Traceback" not in err

    def test_word_n_equal_to_content_size_is_accepted(self, capsys):
        argv = ["matrix", "--space", "word", "--m", "1,2", "--q", "2"]
        code, without_n, _ = run(capsys, *argv)
        assert code == 0
        code, with_n, _ = run(capsys, *argv, "--n", "3")
        assert code == 0
        assert with_n == without_n

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["matrix"])  # missing --space
        assert exc.value.code == 2


@st.composite
def small_argv(draw):
    """argv for matrix, stationary, spectrum or lump-check at n <= 3.  Each
    option is mostly valid for the drawn space, and otherwise omitted or one
    of a few invalid values."""
    command = draw(st.sampled_from(["matrix", "stationary", "spectrum", "lump-check"]))
    space = draw(st.sampled_from(["perm", "word", "flag"]))
    n = draw(st.integers(1, 3))
    m = draw(st.sampled_from(compositions(n)))
    letters = n if space != "word" else len(m)
    argv = [command]

    def option(name, valid, invalid):
        """Append name=valid (None: omit) six times in eight, else omit it
        or append one of the invalid values."""
        kind = draw(st.sampled_from(["valid"] * 6 + ["omitted", "invalid"]))
        value = draw(st.sampled_from(invalid)) if kind == "invalid" else valid
        if kind != "omitted" and value is not None:
            argv.append(f"{name}={value}")

    if command != "lump-check":
        option("--space", space, ["flags", ""])
    option("--n", None if space == "word" else n, ["0", "-1"])
    option("--p", draw(st.sampled_from([2, 3])) if space == "flag" else None, ["4", "1", "0", "-3"])
    q = draw(st.sampled_from(["2", "1", "5/2", "-3/7", "-1"]))
    option("--q", None if space == "flag" else q, ["0", "1/0", "abc", ""])
    option("--m", ",".join(map(str, m)) if space == "word" else None, ["0,1", "2,-1", "x", ""])
    rates = draw(st.sampled_from([None, ",".join([f"1/{letters}"] * letters), "1/2" + ",1/4" * (letters - 1)]))
    option("--rates", rates, ["1/0,1", "-1,2", "x", "", "1,1,1,1"])
    option("--seed", None if rates else draw(st.sampled_from([0, 3])), ["-1"])
    if command == "stationary":
        option("--method", draw(st.sampled_from(["formula", "oracle", "semigroup", "all"])), ["bogus"])
    if command == "spectrum" and draw(st.booleans()):
        argv.append("--verify")
    return argv


@settings(max_examples=200, deadline=None)
@given(small_argv())
def test_fuzzed_argv_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert "error:" in err.getvalue(), argv
