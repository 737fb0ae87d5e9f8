"""Byte-for-byte golden outputs of the CLI.

Each case runs one `qtsetlin` command in-process and compares its stdout with
the file stored under tests/golden/.  The cases are every command in the
README plus the permutation-chain matrix, all-method stationary vector and
verified spectrum at n = 4, q = 5/2, the all-method stationary vectors
of perm n = 5 and word (2, 1, 2) at q = -3/7, where the closed-form factors
take both signs, the word (2, 1, 2) matrix at q = -3/7, the flag n = 3
matrix as CSV, and every suite at p = 5, 7, where flags n = 3 p = 5 (186
flags) is checked without the path method and flags n = 3 p = 7 (456 flags)
is over the flag cap.  Refactors must leave these bytes alone.

To regenerate after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from qtsetlin.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "readme_matrix_perm_n3": "matrix --space perm --n 3 --q 2 --rates 1/2,1/3,1/6",
    "readme_stationary_word_m12": "stationary --space word --m 1,2 --q 3 --rates 2/5,3/5",
    "readme_stationary_flag_all": (
        "stationary --space flag --n 3 --p 2 --rates 1/2,1/3,1/6 --method all"
    ),
    "readme_spectrum_flag_verify": "spectrum --space flag --n 3 --p 2 --verify",
    "readme_lump_check": "lump-check --n 3 --p 2 --m 2,1 --q 2",
    "readme_verify_all": "verify --suite all --n-max 3 --p 2,3",
    "readme_verify_lumping": "verify --suite lumping --n-max 4",
    "readme_verify_q1": "verify --suite q1-reduction --n-max 5",
    "perm_n4_matrix": "matrix --space perm --n 4 --q 5/2",
    "perm_n4_stationary_all": "stationary --space perm --n 4 --q 5/2 --method all",
    "perm_n4_spectrum_verify": "spectrum --space perm --n 4 --q 5/2 --verify",
    "perm_n5_stationary_all_negq": "stationary --space perm --n 5 --q=-3/7 --method all",
    "word_m212_stationary_all_negq": "stationary --space word --m 2,1,2 --q=-3/7 --method all",
    "word_m212_matrix_negq": "matrix --space word --m 2,1,2 --q=-3/7",
    "flag_n3_matrix_csv": "matrix --space flag --n 3 --p 2 --format csv",
    "verify_all_n3_p57": "verify --suite all --n-max 3 --p 5,7",
}


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv.split())
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, out = run_cli(CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code, out = run_cli(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / f"{name}.out").write_text(out)
        print(f"wrote {name}.out ({len(out)} bytes)")
