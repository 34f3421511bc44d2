"""The cone family of a degree profile and the family search's candidates.

A family member is a cone over disjoint cycles (length >= 3), paths and n4
claws whose base has the degree profile (n1, n2, n3, n4): n_d base vertices
of cone degree d, so n1 isolated vertices, n2 path ends and claw leaves, n3
cycle and inner path vertices and n4 claw centres.  Its order-4 signature,
the profile and its numbers of C3, C4 and K2 blocks, fixes its moments
T1..T4 (`_signature_moments`).
`_profile` and `_signatures` solve a target's moments for them,
`_family_with_signature` builds a signature's members (these slices
partition the family), and `_family_size` counts a profile's members.
`_candidates` holds the search's rule: the members of the target's
signatures on the C3 + K1 -> K13 swap levels of one claw-free profile.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .graphs import ConeSpec
from .moments import MomentVector, _cone_traces, moments_closed_form

_Profile = tuple[int, int, int, int]  # (n1, ..., n4): base vertices of cone degree 1..4


def _path_blocks(profile: _Profile) -> int | None:
    """Number of paths of order >= 2 in every cone over cycles (length >= 3),
    paths and claws with this profile, whose n4 claws take 3 of its n2
    vertices each; None when no such cone has it (an entry or the number of
    path endpoints is negative, or that number is odd)."""
    endpoints = profile[1] - 3 * profile[3]
    if min(profile) < 0 or endpoints < 0 or endpoints % 2:
        return None
    return endpoints // 2


def _profile(t1: int, t2: int, t3: int, n: int) -> _Profile | None:
    """The claw-free profile (n1, n2, n3, 0) of the order-n cones with
    moments T1..T3: its n - 1 base vertices have cone degree 1, 2 or 3,
    and with the apex's n - 1 give T1 = Σd and T2 - T1 = Σd².  None unless
    the counts are >= 0 and T3 - Σd³ - 3Σd² is 6 times a triangle count
    >= 0.  As n2 = T1 - 2(n - 1) - 2·n3 is even, `_path_blocks` takes it."""
    a = n - 1
    n3, odd = divmod(t2 - 4 * t1 - a * a + 5 * a, 2)
    n2 = t1 - 2 * a - 2 * n3
    n1 = a - n2 - n3
    triangles = t3 - a ** 3 - 3 * a * a - 4 * n1 - 20 * n2 - 54 * n3
    if odd or min(n1, n2, n3, triangles) < 0 or triangles % 6:
        return None
    return n1, n2, n3, 0


def _signature_moments(profile: _Profile, k3: int, k4: int, nk2: int) -> MomentVector:
    """Exact integer moment vector (T1..T4, S4) of every simple cone whose
    base has degree profile `profile` (one `_path_blocks` takes) and k3 C3,
    k4 C4 and nk2 K2 blocks.  To order 4 paths from P3 on are affine in
    their order, and C_k (k >= 5) is k steps P4 - P3: so take a P3 per
    other path and a step per vertex."""
    n1, _, n3, n4 = profile
    longer = _path_blocks(profile) - nk2
    steps = n3 - 3 * k3 - 4 * k4 - longer
    q, a = _cone_traces({("path", 1): n1, ("claw", 4): n4, ("cycle", 3): k3, ("cycle", 4): k4,
                         ("path", 2): nk2, ("path", 3): longer - steps, ("path", 4): steps}, 4)
    return MomentVector(*q, a[3])


def _signatures(profile: _Profile, moments) -> list[tuple[int, int, int]]:
    """Every (k3, k4, nk2) whose signature moments with the `_profile` of
    `moments` have its T3 and T4: those of (0, 0, 0) plus 6 on T3 and 72 on
    T4 per C3, 8 on T4 per C4 and 4 per K2 (these blocks keep every base
    degree, so only their own walk sums move).  So T3 fixes k3, and each k4
    fixes nk2 within the profile's `_path_blocks` paths of order >= 2."""
    base, p = _signature_moments(profile, 0, 0, 0), _path_blocks(profile)
    k3, rem3 = divmod(moments[2] - base.t3, 6)
    nk2, rem4 = divmod(moments[3] - base.t4 - 72 * k3, 4)  # at k4 = 0; a C4 adds the T4 of two K2s
    if rem3 or rem4 or k3 < 0:
        return []
    k4s = range((profile[2] - 3 * k3) // 4 + 1)
    return [(k3, k4, nk2 - 2 * k4) for k4 in k4s if 0 <= nk2 - 2 * k4 <= p]


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


def _family_size(profile: _Profile) -> int:
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


def _family_with_signature(profile: _Profile, k3: int, k4: int, nk2: int) -> Iterator[ConeSpec]:
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


def _candidates(target: ConeSpec) -> tuple[int, Iterator[ConeSpec]]:
    """The family search's cardinality and candidates for a target, from
    its exact moments T1..T4 (`moments_closed_form`).

    T1..T4 see a member only through its signature.  T1..T3 give one
    claw-free profile, and its signatures whose moments equal the target's
    share one C3 count k3, fixed by T3.  A C3 + K1 -> K13 swap keeps the
    spectrum and shifts the profile by (-1, 3, -3, 1), so level j = 0..k3
    holds the members with j claws, with signatures (k3 - j, k4, nk2); no
    other profile has a signature.  The candidates are the members of these
    signatures less the target, built one at a time as the generator is
    read; profiles and signatures split the family, so none comes twice.
    The cardinality counts every member of the levels from partition counts,
    with none built (only the claw-free level when no signature matches),
    plus the target when it has a digon.
    """
    moments = moments_closed_form(target)
    profile = _profile(*moments[:3], target.n)
    if profile is None:
        return int(target.has_digon()), iter(())
    n1, n2, n3, _ = profile
    sigs = _signatures(profile, moments)
    levels = [(n1 - j, n2 + 3 * j, n3 - 3 * j, j) for j in range(sigs[0][0] + 1 if sigs else 1)]
    cardinality = int(target.has_digon()) + sum(map(_family_size, levels))
    return cardinality, (
        cand for j, profile in enumerate(levels) for k3, k4, nk2 in sigs
        for cand in _family_with_signature(profile, k3 - j, k4, nk2) if cand != target
    )
