"""The cone family of a degree profile: its size, the members with a given
moment signature, and the candidates of the family search.

A family member is a cone over disjoint cycles (length >= 3), paths and
any number n4 of claws whose base has the degree profile (n1, n2, n3, n4)
of `degree_profile`, which fixes the order.  `_family_with_signature`
builds the members with given numbers of C3, C4 and K2 blocks, which
together with the profile fix their moments T1..T4 (see
`moments.signature_moments`); these slices partition the family.
`_family_size` counts the members from partition counts.  `_candidates`
holds the family search's rule for which members it builds, and its claw
limit.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .graphs import ConeSpec, _path_blocks
from .moments import signatures_with_moments, solve_degree_system

# the claw counts n4 of the profiles the family search scans
_N4 = (0, 1)


def _partitions(
    total: int,
    min_part: int = 1,
    max_part: int | None = None,
    max_parts: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Partitions of `total` as non-increasing tuples of parts >= min_part."""
    if total == 0:
        yield ()
        return
    if max_parts is not None and max_parts <= 0:
        return
    hi = total if max_part is None else min(max_part, total)
    sub_parts = None if max_parts is None else max_parts - 1
    for first in range(hi, min_part - 1, -1):
        for rest in _partitions(total - first, min_part, first, sub_parts):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _partition_count(total: int, min_part: int, max_part: int) -> int:
    """Number of partitions of `total` into parts in [min_part, max_part]."""
    if total == 0:
        return 1
    max_part = min(max_part, total)
    if max_part < min_part:
        return 0
    return (
        _partition_count(total, min_part, max_part - 1)
        + _partition_count(total - max_part, min_part, max_part)
    )


def _family_size(profile: tuple[int, int, int, int]) -> int:
    """The number of family members with this profile, counted without
    building a spec.

    A spec is a partition of its n3 cycle vertices into parts >= 3 and one
    of the remaining path-interior vertices into at most p parts (one per
    path of order >= 3); by conjugation those are as many as the partitions
    into parts <= p.
    """
    p = _path_blocks(profile)
    if p is None:
        return 0
    n3 = profile[2]
    return sum(
        _partition_count(csum, 3, csum) * _partition_count(n3 - csum, 1, p)
        for csum in range(n3 + 1)
    )


def _family_with_signature(
    profile: tuple[int, int, int, int], k3: int, k4: int, nk2: int
) -> Iterator[ConeSpec]:
    """The family members with this profile and exactly k3 C3, k4 C4 and
    nk2 <= p K2 blocks: their other cycles have length >= 5, and p - nk2
    of their p paths of order >= 2 have order >= 3.  Cycle lengths start
    at 3 and path orders at 1; an infeasible profile yields nothing."""
    p = _path_blocks(profile)
    if p is None:
        return
    n1, _, n3, n4 = profile
    longer = p - nk2
    fixed = (4,) * k4 + (3,) * k3
    tail = (2,) * nk2 + (1,) * n1
    for csum in range(3 * k3 + 4 * k4, n3 - longer + 1):
        # each longer path takes one interior vertex, then the rest as extras
        extras = list(_partitions(n3 - csum - longer, min_part=1, max_parts=longer))
        for big in _partitions(csum - 3 * k3 - 4 * k4, min_part=5):
            for extra in extras:
                paths = tuple(e + 3 for e in extra) + (3,) * (longer - len(extra)) + tail
                yield ConeSpec(cycles=big + fixed, paths=paths, stars13=n4)


def _candidates(target: ConeSpec, moments) -> tuple[int, Iterator[ConeSpec]]:
    """The family search's cardinality and candidates for a target with
    exact moments T1..T4 (`moments`, a longer prefix is fine).

    T1..T3 give one degree profile per claw count in _N4, with no claw and
    with one: that tuple is the search's only claw limit.  T1..T4 see a
    member only through its signature: the profile and its numbers of C3,
    C4 and K2 blocks.  So the candidates are the members of the signatures
    whose closed-form moments equal the target's, less the target, built
    one at a time as the generator is read; profiles and signatures split
    the family, so none comes twice.  The cardinality counts every member
    of the profiles from partition counts, with none built, plus the
    target when it is not one of them: when it has a digon or a claw count
    outside _N4.
    """
    n = target.n
    cardinality = int(target.has_digon() or target.stars13 not in _N4)
    sigs = []
    for n4 in _N4:
        counts = solve_degree_system(*moments[:3], n, n - 1, n4)
        if counts is None:
            continue
        profile = (*counts, n4)
        cardinality += _family_size(profile)
        sigs += [(profile, sig) for sig in signatures_with_moments(profile, moments)]
    return cardinality, (
        cand for profile, sig in sigs for cand in _family_with_signature(profile, *sig)
        if cand != target
    )
