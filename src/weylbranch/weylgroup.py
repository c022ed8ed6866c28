"""Weyl-group actions on weights: dominant representatives and orbits."""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import kernels
from .rootsys import (
    RootSystem,
    connected_components,
    subdiagram_type,
    weyl_group_order,
)

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
    comps = connected_components(rs, [i for i in range(rs.rank) if dom[i] == 0])
    types = tuple(sorted(subdiagram_type(rs, c) for c in comps))
    stab = 1
    for t in types:
        stab *= weyl_group_order(t)
    total = rs.weyl_order()
    if total % stab:
        raise ArithmeticError(f"stabilizer order {stab} does not divide |W| = {total}")
    return OrbitSummary(dominant_rep=dom, orbit_size=total // stab, stabilizer_type=types)


def orbit_enumerate(rs: RootSystem, w, cap=None):
    """The full orbit, deduplicated, in lexicographic order."""
    cap = orbit_cap() if cap is None else cap
    size = orbit_size(rs, w).orbit_size
    if size > cap:
        raise kernels.KernelCapacityError(
            f"orbit of {w} on {rs.lie_type} has {size} elements, cap {cap}"
        )
    arr = kernels.weyl_orbit_array(rs, rs.check_weight(w), cap=cap)
    return [tuple(row) for row in arr.tolist()]
