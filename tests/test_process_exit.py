"""How a CLI process ends: the exit-time freeze and a stdout that fails.

`main` registers, once per process, an atexit hook that freezes every live
object, so the interpreter's finalization collections skip them.  In-process
callers are left alone: nothing is frozen before exit, and repeated calls
register nothing more.  In a child interpreter, an atexit handler registered
before `main` runs after the hook, and the output is the same.

A stdout that fails (a reader that closes after 10 bytes, or `/dev/full`)
ends the command the way a failed `--out` does: exit 2 and one `error:`
line, with no traceback and no `Exception ignored` line from the
interpreter's final flush.  The outputs below are larger than a pipe's
buffer, so the writer always meets the closed pipe.
"""

import atexit
import contextlib
import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qtsetlin
from qtsetlin.cli import main

ENV = dict(os.environ, PYTHONPATH=str(Path(qtsetlin.__file__).resolve().parents[1]))
ENV.pop("PYTHONUNBUFFERED", None)
GOLDEN = Path(__file__).resolve().parent / "golden"
STDOUT_ERROR = "error: cannot write to stdout: "
# Each prints more than a pipe holds (5.9 MB and 0.68 MB).
LARGE = ["matrix --space perm --n 6 --q 2", "stationary --space perm --n 7 --q 2"]


def child(argv, env=ENV, **kwargs):
    return subprocess.Popen(
        [sys.executable, "-m", "qtsetlin.cli", *argv.split()], env=env, stderr=subprocess.PIPE, **kwargs
    )


def assert_one_stdout_error(code, stderr, reason):
    assert code == 2
    assert stderr.decode().splitlines() == [STDOUT_ERROR + reason]


def test_in_process_calls_freeze_nothing_and_register_one_hook():
    frozen, callbacks = gc.get_freeze_count(), atexit._ncallbacks()
    for argv in [
        "matrix --space perm --n 3 --q 2",
        "stationary --space word --m 1,2 --q 3",
        "matrix --space perm --n 0 --q 2",
    ] * 2:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(argv.split())
        assert gc.get_freeze_count() == frozen
    with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
        main(["matrix", "--space", "nowhere"])
    assert gc.get_freeze_count() == frozen
    assert atexit._ncallbacks() - callbacks <= 1


def test_exit_hook_runs_before_earlier_handlers_and_keeps_the_output(tmp_path):
    out = tmp_path / "out.txt"
    first = "matrix --space perm --n 3 --q 2 --rates 1/2,1/3,1/6".split()
    second = f"stationary --space flag --n 3 --p 2 --rates 1/2,1/3,1/6 --method all --out {out}".split()
    code = (
        "import atexit, gc, sys\n"
        "from qtsetlin.cli import main\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
        f"sys.exit(main({first!r}) | main({second!r}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "readme_matrix_perm_n3.out").read_text()
    assert out.read_text() == (GOLDEN / "readme_stationary_flag_all.out").read_text()
    word, count = proc.stderr.split()
    assert word == "frozen" and int(count) > 0


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", LARGE)
def test_reader_that_closes_early(argv, unbuffered):
    env = dict(ENV, PYTHONUNBUFFERED="1") if unbuffered else ENV
    with child(argv, env=env, stdout=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert_one_stdout_error(code, stderr, "Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
# The small output fails only in the final flush of a buffered stdout.
@pytest.mark.parametrize("argv", [*LARGE, "stationary --space perm --n 3 --q 2"])
def test_full_device(argv, unbuffered):
    env = dict(ENV, PYTHONUNBUFFERED="1") if unbuffered else ENV
    with open("/dev/full", "w") as full, child(argv, env=env, stdout=full) as proc:
        stderr = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert_one_stdout_error(code, stderr, "No space left on device")
