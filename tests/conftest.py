import signal
from contextlib import contextmanager

import pytest

from pretenders import build_cascade
from pretenders.arith import sieve_and_factor
from pretenders.census import CensusReport
from pretenders.events import PreemptionLedger, composite_event

# far above the slowest test (about 1 s), so only a hang reaches it
TIME_LIMIT_S = 30


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after ``seconds``, so a hang fails
    the test that reaches it instead of stalling the run.  Not nestable:
    the inner block would cancel the outer alarm."""
    if not hasattr(signal, "setitimer"):   # no SIGALRM on Windows
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture(autouse=True)
def bounded():
    # every test, the first-base search and the sieve among them; the
    # session fixtures below are set up before this and bound themselves
    with time_limit(TIME_LIMIT_S):
        yield


@pytest.fixture(scope="session")
def cascade():
    with time_limit(TIME_LIMIT_S):
        return build_cascade()


@pytest.fixture(scope="session")
def census_report(cascade):
    # one full scan per session; everything downstream reuses it
    with time_limit(TIME_LIMIT_S):
        return CensusReport.build(cascade)


@pytest.fixture(scope="session")
def ledger(cascade):
    """The claim tables of the build, replayed here apart from
    ``build_cascade``, as a reference for the tables a cascade lays from
    its entries.  The replay must find the cascade's winners and skips."""
    with time_limit(TIME_LIMIT_S):
        book = PreemptionLedger()
        winners, skips = [], []
        for q in sieve_and_factor().composites:
            events = composite_event(q)
            res = book.residual(events)
            if res.density:
                book.ingest(events)
                winners.append(q)
            else:
                skips.append((q, res.empty_primes))
        assert winners == cascade.qs()
        assert skips == list(cascade.skipped)
        return book
