"""Counts and extremes over the decision list that only the tests read:
the latest first base and the rarest entry, and a brute-force census of
the primary pretenders over one period of the early entries."""

from collections import namedtuple
from math import lcm

from pretenders.pretender import primary_pretender_oracle

# latest_first_base: (q, base); rarest: (q, rarity)
Extremes = namedtuple("Extremes", "latest_first_base rarest "
                      "first_base_ties rarity_ties")


def extremes(report) -> Extremes:
    """The entry with the latest first base and the rarest entry of a
    ``CensusReport``, each with every q that ties it."""
    fb = report.first_base
    q_fb = max(fb, key=lambda q: fb[q])
    fb_ties = tuple(sorted(q for q in fb if fb[q] == fb[q_fb]))
    rar = {e.q: e.rarity for e in report.cascade.entries}
    q_r = max(rar, key=lambda q: rar[q])
    r_ties = tuple(sorted(q for q in rar if rar[q] == rar[q_r]))
    return Extremes((q_fb, fb[q_fb]), (q_r, rar[q_r]), fb_ties, r_ties)


def entry_period_lcm(cascade, upto_q: int) -> int:
    """lcm of the entry moduli for entries <= upto_q; the set of bases
    claimed by those entries repeats with exactly this period."""
    return lcm(*(e.root_modulus for e in cascade.entries if e.q <= upto_q))


def oracle_period_census(limit: int) -> dict[int, int]:
    """Count primary pretenders over [0, limit) by the brute-force oracle."""
    counts: dict[int, int] = {}
    for b in range(limit):
        q = primary_pretender_oracle(b)
        counts[q] = counts.get(q, 0) + 1
    return counts
