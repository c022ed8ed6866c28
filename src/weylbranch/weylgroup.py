"""Weyl-group actions on weights: reflections, orbits, longest-word image."""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import kernels
from .rootsys import (
    RootSystem,
    connected_components,
    is_root,
    pairing,
    root_coords_to_weight,
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


def reflect(rs: RootSystem, w, alpha_rc):
    """s_alpha(w) = w - <w, alpha> alpha; involutive."""
    if not is_root(rs, alpha_rc):
        raise ValueError(f"{alpha_rc} is not a root of {rs.lie_type}")
    w = rs.check_weight(w)
    k = pairing(rs, w, alpha_rc)
    alpha_w = root_coords_to_weight(rs, alpha_rc)
    return tuple(w[i] - k * alpha_w[i] for i in range(rs.rank))


def dominant_representative(rs: RootSystem, w):
    """The unique dominant weight in the orbit of w, plus a word length."""
    rep = list(rs.check_weight(w))
    steps = kernels._domrep_py(rep, rs.cartan_support)
    if steps < 0:
        raise kernels.KernelCapacityError(f"dominant representative of {w} did not terminate")
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
    out = sorted(tuple(int(x) for x in row) for row in arr)
    return out


def longest_word_image(rs: RootSystem, w):
    """w_0 . w: equals -w unless the diagram flip acts (A_n, D_n with n odd)."""
    w = rs.check_weight(w)
    n = rs.rank
    fam = rs.lie_type.family
    if fam == "A":
        return tuple(-w[n - 1 - i] for i in range(n))
    if fam == "D" and n % 2 == 1:
        flipped = list(w)
        flipped[n - 2], flipped[n - 1] = flipped[n - 1], flipped[n - 2]
        return tuple(-c for c in flipped)
    return tuple(-c for c in w)
