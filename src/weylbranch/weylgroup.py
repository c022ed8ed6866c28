"""Weyl-group actions on weights: dominant representatives and orbits."""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import kernels
from .rootsys import RootSystem, parabolic_index

DEFAULT_CAP = 1_000_000


def orbit_cap() -> int:
    """Enumeration cap; overridable through WEYLBRANCH_CAP (a positive integer)."""
    v = os.environ.get("WEYLBRANCH_CAP", "")
    if not v:
        return DEFAULT_CAP
    try:
        cap = int(v)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise ValueError(f"WEYLBRANCH_CAP must be a positive integer, got {v!r}")
    return cap


@dataclass(frozen=True)
class OrbitSummary:
    dominant_rep: tuple
    orbit_size: int
    stabilizer_type: tuple  # sorted tuple of LieType


def dominant_representative(rs: RootSystem, w):
    """The unique dominant weight in the orbit of w, plus a word length."""
    rep = list(rs.check_weight(w))
    steps = kernels._domrep_py(rep, rs.cartan_support)
    return tuple(rep), steps


def orbit_size(rs: RootSystem, w) -> OrbitSummary:
    """|W| / |W_stab| via the parabolic stabilizer of the dominant representative."""
    dom, _ = dominant_representative(rs, w)
    size, types = parabolic_index(rs, [i for i in range(rs.rank) if dom[i] == 0])
    return OrbitSummary(dominant_rep=dom, orbit_size=size, stabilizer_type=types)


def orbit_enumerate(rs: RootSystem, w, cap=None):
    """The full orbit, deduplicated, in lexicographic order; more than ``cap``
    elements raise before any is enumerated."""
    cap = orbit_cap() if cap is None else cap
    arr = kernels.weyl_orbit_array(rs, rs.check_weight(w), cap=cap)
    return [tuple(row) for row in arr.tolist()]
