import signal
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from pretenders import build_cascade
from pretenders.arith import UNIVERSAL_PRETENDER, sieve_and_factor
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
    """The claims of the build, replayed here apart from ``build_cascade``,
    as a reference for the tables a cascade lays from its entries.  The
    replay must find the cascade's winners and skips.  ``claims[p][r]`` is
    the q of the first winner whose event holds r mod ``moduli[p]``, read
    off the cells each ingest clears in the ledger's free mask of p, or
    561 where none does."""
    with time_limit(TIME_LIMIT_S):
        book = PreemptionLedger()
        claims = {p: [UNIVERSAL_PRETENDER] * m for p, m in book.moduli.items()}
        winners, skips = [], []
        for q in sieve_and_factor().composites:
            events = composite_event(q)
            res = book.residual(events)
            if res.density:
                before = {p: bytes(mask) for p, mask in book.masks.items()}
                book.ingest(events)
                winners.append(q)
                for p, mask in book.masks.items():
                    if mask != before[p]:
                        for r, (was, now) in enumerate(zip(before[p], mask)):
                            if was != now:
                                claims[p][r] = q
            else:
                skips.append((q, res.empty_primes))
        assert winners == cascade.qs()
        assert skips == list(cascade.skipped)
        return SimpleNamespace(moduli=book.moduli, claims=claims)
