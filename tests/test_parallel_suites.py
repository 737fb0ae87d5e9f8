"""`run_suite` spreads its jobs over forked helpers without changing a byte.

The core count is patched through `os.sched_getaffinity` and `os.cpu_count`:
one core runs every job in this process, two start one helper (even on a
one-core machine, where it only time-shares).  Every test ends with no
helper left running or unreaped.
"""

import os
import signal
import time
from functools import partial

import pytest

from qtsetlin import suites
from qtsetlin.cli import main

NAMED = [s for s in suites.SUITES if s != "all"]
JOBS = {
    "matrix": suites.suite_matrix,
    "stationary": suites.suite_stationary,
    "spectra": suites.suite_spectra,
    "lumping": suites.suite_lumping,
    "hecke": suites.suite_hecke,
    "q1-reduction": suites.suite_q1,
    "properties": suites.suite_properties,
}


def cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(os, "cpu_count", lambda: n)


@pytest.fixture(autouse=True)
def no_helper_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GRID = [(n_max, p_list, seed) for n_max in (2, 3, 4) for p_list in ((2,), (3,), (2, 3)) for seed in (0, 1, 2)]


@pytest.mark.parametrize("n_max, p_list, seed", GRID)
def test_helpers_give_the_one_process_checks(monkeypatch, n_max, p_list, seed):
    """Every suite, through `all`, on the whole grid; each named suite on
    its own where the one-process run is cheap (flags n=4 p=2 alone take
    about 2 s in the stationary and spectra suites)."""
    cores(monkeypatch, 1)
    one = {name: suites.run_suite(name, n_max, p_list, seed) for name in NAMED}
    cores(monkeypatch, 2)
    assert suites.run_suite("all", n_max, p_list, seed) == [c for name in NAMED for c in one[name]]
    if n_max < 4 or 2 not in p_list:
        for name in NAMED:
            assert suites.run_suite(name, n_max, p_list, seed) == one[name], name


@pytest.mark.parametrize("name", NAMED)
def test_jobs_are_in_output_order(monkeypatch, name):
    cores(monkeypatch, 1)
    jobs = JOBS[name](3, (2, 3), 0)
    assert all(callable(job) for job in jobs)
    assert [c for job in jobs for c in job()] == suites.run_suite(name, 3, (2, 3), 0)


def test_results_come_back_in_job_order_whatever_the_claim_order(monkeypatch):
    cores(monkeypatch, 2)
    jobs = [partial(lambda i: [(f"job {i}", i % 3 != 0)], i) for i in range(40)]
    expected = [[(f"job {i}", i % 3 != 0)] for i in range(40)]
    assert suites.run_jobs(jobs, range(40)) == expected
    assert suites.run_jobs(jobs, range(39, -1, -1)) == expected


def test_never_more_helpers_than_cores(monkeypatch):
    """Even when the affinity mask names more cores than the machine has."""
    real_cpus = os.cpu_count() or 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    forks = []
    real_fork = os.fork

    def counted_fork():
        # Refusing the fork past the real core count keeps a broken cap from
        # starting more processes than the machine has cores.
        forks.append(1)
        if len(forks) >= real_cpus:
            raise OSError("fork refused by the test")
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    checks = suites.run_suite("hecke", 3, (2, 3), 0)
    assert len(forks) <= real_cpus - 1
    cores(monkeypatch, 1)
    assert checks == suites.run_suite("hecke", 3, (2, 3), 0)


def test_a_refused_fork_leaves_the_work_to_this_process(monkeypatch):
    cores(monkeypatch, 2)

    def refused():
        raise OSError("fork refused by the test")

    monkeypatch.setattr(os, "fork", refused)
    checks = suites.run_suite("all", 3, (2,), 1)
    cores(monkeypatch, 1)
    assert checks == suites.run_suite("all", 3, (2,), 1)


def test_no_fork_without_sched_getaffinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")

    def forbidden():
        raise AssertionError("forked without an affinity mask")

    monkeypatch.setattr(os, "fork", forbidden)
    assert suites.run_suite("q1-reduction", 4, (2,), 0)


def planted(real, tmp_path, parent, fail, chain):
    """Run real(chain) unless fail(chain), which raises a ValueError naming
    the chain; a failure in a helper leaves a file named by its pid.  The
    parent's perm jobs wait a little, so the helper claims the next jobs."""
    if fail(chain):
        if os.getpid() != parent:
            (tmp_path / f"helper-{os.getpid()}").touch()
        raise ValueError(f"planted failure in {chain.name}")
    if os.getpid() == parent and chain.space == "perm":
        time.sleep(0.05)
    return real(chain)


ARGV = ("verify", "--suite", "spectra", "--n-max", "3", "--p", "2,3")


def test_a_job_that_raises_in_a_helper_fails_the_cli_as_one_process_does(monkeypatch, capsys, tmp_path):
    # Every word and flag job raises.  The helper claims the first of them
    # while the parent waits in a perm job, and the parent then fails a later
    # one: the first failure in job order is the one reported.
    fail = lambda chain: chain.space != "perm"  # noqa: E731
    monkeypatch.setattr(
        suites, "_spectra_checks", partial(planted, suites._spectra_checks, tmp_path, os.getpid(), fail)
    )
    cores(monkeypatch, 1)
    one = run_cli(capsys, *ARGV)
    assert one == (2, "", "error: planted failure in word m=(1, 1)\n")
    cores(monkeypatch, 2)
    assert run_cli(capsys, *ARGV) == one
    assert list(tmp_path.glob("helper-*")), "no helper ran a failing job"


def test_a_job_that_raises_only_in_a_helper_is_run_again_here(monkeypatch, capsys, tmp_path):
    cores(monkeypatch, 1)
    one = run_cli(capsys, *ARGV)
    parent = os.getpid()
    fail = lambda chain: os.getpid() != parent  # noqa: E731
    monkeypatch.setattr(suites, "_spectra_checks", partial(planted, suites._spectra_checks, tmp_path, parent, fail))
    cores(monkeypatch, 2)
    assert run_cli(capsys, *ARGV) == one
    assert one[0] == 0 and "Traceback" not in one[2]


def test_failed_checks_from_helpers_print_as_one_process_prints(monkeypatch, capsys):
    real = suites._q1_checks
    monkeypatch.setattr(suites, "_q1_checks", lambda chain: [(name, chain.rates.n == 3) for name, _ in real(chain)])
    cores(monkeypatch, 1)
    one = run_cli(capsys, "verify", "--suite", "q1-reduction", "--n-max", "5")
    assert one[0] == 1 and one[1].count("FAIL") == 6
    cores(monkeypatch, 2)
    assert run_cli(capsys, "verify", "--suite", "q1-reduction", "--n-max", "5") == one


def test_a_helper_killed_partway_through_changes_no_output(monkeypatch, capsys, tmp_path):
    """The helper kills itself on its second job, after it has finished one
    whose result it never sends; the parent's jobs wait a little, so that
    the helper gets that far."""
    cores(monkeypatch, 1)
    one = run_cli(capsys, "verify", "--suite", "lumping", "--n-max", "3", "--p", "2,3")
    parent = os.getpid()
    ran = []
    real_flag, real_word = suites._flag_lumping_checks, suites._word_lumping_checks

    def dying(real, chain):
        if os.getpid() == parent:
            time.sleep(0.02)
        else:
            ran.append(chain)
            if len(ran) == 2:
                (tmp_path / "killed").touch()
                os.kill(os.getpid(), signal.SIGKILL)
        return real(chain)

    monkeypatch.setattr(suites, "_flag_lumping_checks", partial(dying, real_flag))
    monkeypatch.setattr(suites, "_word_lumping_checks", partial(dying, real_word))
    cores(monkeypatch, 2)
    for _ in range(3):
        assert run_cli(capsys, "verify", "--suite", "lumping", "--n-max", "3", "--p", "2,3") == one
        if (tmp_path / "killed").exists():
            break
    assert (tmp_path / "killed").exists(), "no helper reached its second job"
