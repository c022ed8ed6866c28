"""Root-system data and weight arithmetic."""

import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylbranch import kernels
from weylbranch.charcalc import freudenthal, weyl_dim, weyl_dims
from weylbranch.checker import branch_p0, dominant_weights_bounded
from weylbranch.cli import main
from weylbranch.embeddings import build_embedding, geom_family, restrict_weight
from weylbranch.rootsys import (
    MAX_ROOT_ENTRIES,
    LieType,
    RootSystem,
    _coroot_pairings,
    _positive_epsilon_roots,
    _root_position,
    _weight_pairings,
    build_root_system,
    epsilon_model,
    minimal_weights,
    pairing,
    scaled_root_coords,
)


def weight_to_root_coords(rs, w):
    """Exact rational coordinates of a weight in the simple-root basis."""
    w = rs.check_weight(w)
    return tuple(Fraction(x, rs.inv_den) for x in scaled_root_coords(rs, w))


def is_root(rs, alpha_rc) -> bool:
    return _root_position(rs, alpha_rc) is not None


def root_coords_to_weight(rs, rc):
    """Inverse of ``weight_to_root_coords``; exact, errors if non-integral."""
    n = rs.rank
    out = []
    for j in range(n):
        v = sum(rc[i] * rs.cartan[i][j] for i in range(n))  # an int or a Fraction
        if v != int(v):
            raise ArithmeticError(f"root coordinates {rc} do not give an integral weight")
        out.append(int(v))
    return tuple(out)


def fundamental_weight(rs, i: int):
    """lambda_i as a weight (1-based index)."""
    return tuple(1 if j == i - 1 else 0 for j in range(rs.rank))


TYPES_TO_12 = [
    LieType(f, n)
    for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
    for n in range(lo, 13)
]
ALL_TYPES = [t for t in TYPES_TO_12 if t.rank <= 8]


# The former constructor, kept as the oracle of the epsilon model: the Cartan
# matrix and root lengths written out per family, the positive roots by a
# reflection closure, and the inverse Cartan matrix and the Gram matrix in
# Fractions.


def _cartan_matrix(t):
    """cartan[i][j] = <alpha_i, alpha_j> = 2(alpha_i,alpha_j)/(alpha_j,alpha_j)."""
    n = t.rank
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    nbonds = {"A": n - 1, "D": n - 3}.get(t.family, n - 2)
    for i in range(nbonds):
        a[i][i + 1] = a[i + 1][i] = -1
    if t.family == "B":  # alpha_n short
        a[n - 2][n - 1], a[n - 1][n - 2] = -2, -1
    elif t.family == "C":  # alpha_n long
        a[n - 2][n - 1], a[n - 1][n - 2] = -1, -2
    elif t.family == "D":
        a[n - 3][n - 2] = a[n - 2][n - 3] = a[n - 3][n - 1] = a[n - 1][n - 3] = -1
    return tuple(tuple(row) for row in a)


def _root_lengths(t):
    """Squared lengths of the simple roots, short root = 1."""
    n = t.rank
    return {"B": (2,) * (n - 1) + (1,), "C": (1,) * (n - 1) + (2,)}.get(t.family, (1,) * n)


def _positive_roots(cartan):
    """All positive roots in root coordinates, via reflection closure."""
    n = len(cartan)
    seen = {tuple(int(j == i) for j in range(n)) for i in range(n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for r in frontier:
            for j in range(n):
                pr = sum(r[i] * cartan[i][j] for i in range(n))
                s = tuple(r[i] - (pr if i == j else 0) for i in range(n))
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return tuple(sorted((r for r in seen if min(r) >= 0), key=lambda r: (sum(r), r)))


def _invert_fraction_matrix(mat):
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def oracle_root_system(t):
    """Every attribute of ``RootSystem(t)`` as the former constructor made it."""
    n = t.rank
    o = SimpleNamespace(rank=n, rho=(1,) * n, eG=1 if t.family in ("A", "D") else 2)
    o.cartan = _cartan_matrix(t)
    o.root_lengths = _root_lengths(t)
    o.positive_roots = _positive_roots(o.cartan)
    inverse = _invert_fraction_matrix(o.cartan)
    o.inv_den = math.lcm(*(x.denominator for row in inverse for x in row))
    o.inv_cartan_scaled = tuple(tuple(int(x * o.inv_den) for x in row) for row in inverse)
    o.weight_heights = tuple(map(sum, o.inv_cartan_scaled))
    low = max([0] + [o.weight_heights[m.index(1)] for m in minimal_weights(t)])
    o.floor_heights = (low, o.inv_den * max(map(sum, o.positive_roots)))
    # (lambda_i, lambda_j) = inverse[i][j] * len_j / 2, scaled to integers
    gram = [[inverse[i][j] * Fraction(o.root_lengths[j], 2) for j in range(n)] for i in range(n)]
    halves = [Fraction(l, 2) for l in o.root_lengths]
    o.form_scale = math.lcm(*(x.denominator for x in [*halves, *(x for row in gram for x in row)]))
    o.gram_block = np.array([[int(x * o.form_scale) for x in row] for row in gram], dtype=np.int64)
    o.slen2 = tuple(int(h * o.form_scale) for h in halves)
    o.cartan_support = tuple(tuple((i, a) for i, a in enumerate(row) if a) for row in o.cartan)
    o.cartan_np = np.array(o.cartan, dtype=np.int64)
    betas = np.array(o.positive_roots, dtype=np.int64)
    weights = betas @ o.cartan_np
    forms = betas * np.array(o.slen2, dtype=np.int64)
    norms = (weights * forms).sum(axis=1)
    coroots, rem = np.divmod(2 * forms, norms[:, None])
    assert not rem.any()
    o.root_weights = tuple(map(tuple, weights.tolist()))
    o.root_norms = tuple(norms.tolist())
    o.coroots = tuple(map(tuple, coroots.tolist()))
    o.root_weight_block, o.coroot_block, o.form_block = weights, coroots.T, forms.T
    o.highest_coroot = max(o.coroots, key=sum)
    o.coroot_heights = tuple(coroots.sum(axis=1).tolist())
    o.weyl_denominator = math.prod(o.coroot_heights)
    o.root_index = {beta: k for k, beta in enumerate(o.positive_roots)}
    return o


@pytest.mark.parametrize("t", TYPES_TO_12, ids=str)
def test_root_system_matches_the_former_constructor(t):
    rs, o = build_root_system(t), oracle_root_system(t)
    for name, expected in vars(o).items():
        got = getattr(rs, name)
        if isinstance(expected, np.ndarray):
            assert got.dtype == np.int64 and not got.flags.writeable, name
            assert np.array_equal(got, expected), name
        else:
            assert got == expected and type(got) is type(expected), name
    assert not hasattr(rs, "inverse_cartan")
    # every entry a Python int: tuples of numpy integers would compare equal
    for name in ("cartan", "positive_roots", "inv_cartan_scaled", "root_weights", "coroots"):
        assert {type(x) for row in getattr(rs, name) for x in row} == {int}, name
    scalars = (rs.inv_den, rs.form_scale, rs.eG, *rs.root_lengths, *rs.slen2, *rs.floor_heights)
    assert {type(x) for x in scalars} == {int}


def product_root_table(t):
    """The per-root attributes as int64 matrix products of the epsilon
    model make them: the constructor's former route, kept as an oracle of
    its prefix sums and neighbour differences at ranks where the
    reflection closure of ``oracle_root_system`` is slow."""
    model = epsilon_model(t.family, t.rank)
    lengths = (model.roots * model.roots).sum(axis=1)
    cartan = model.roots @ model.coroots.T
    coords, rem = np.divmod(_positive_epsilon_roots(t.family, model.roots.shape[1]) @ model.weights.T, lengths)
    assert not rem.any()
    betas = np.array(sorted(map(tuple, coords.tolist()), key=lambda r: (sum(r), r)), dtype=np.int64)
    weights = betas @ cartan
    unit = int(lengths.min())
    scale = build_root_system(t).form_scale
    forms = betas * (lengths * scale // (2 * unit))
    norms = (weights * forms).sum(axis=1)
    coroots, rem = np.divmod(2 * forms, norms[:, None])
    assert not rem.any()
    return {
        "cartan_np": cartan, "positive_roots": tuple(map(tuple, betas.tolist())),
        "root_weights": tuple(map(tuple, weights.tolist())), "root_norms": tuple(norms.tolist()),
        "coroots": tuple(map(tuple, coroots.tolist())), "root_weight_block": weights,
        "coroot_block": coroots.T, "form_block": forms.T, "highest_coroot": max(map(tuple, coroots.tolist()), key=sum),
    }


@pytest.mark.parametrize("t", [LieType("A", 40), LieType("B", 30), LieType("C", 30), LieType("D", 30)], ids=str)
def test_root_system_matches_the_matrix_products(t):
    # the constructor pairs with the coroots and the doubled fundamental
    # weights by neighbour differences and prefix sums; the products they
    # replace give every per-root attribute, and the Gram matrix
    rs = RootSystem(t)
    for name, expected in product_root_table(t).items():
        got = getattr(rs, name)
        if isinstance(expected, np.ndarray):
            assert got.dtype == np.int64 and not got.flags.writeable and np.array_equal(got, expected), name
        else:
            assert got == expected, name
    model = epsilon_model(t.family, t.rank)
    rows = np.random.default_rng(t.rank).integers(-9, 10, size=(50, model.roots.shape[1]))
    assert np.array_equal(_coroot_pairings(t.family, rows), rows @ model.coroots.T)
    assert np.array_equal(_weight_pairings(t.family, t.rank, rows), rows @ model.weights.T)
    # the models of A1, B1, C1 and D2, which embedding factors read, too
    for fam, r in (("A", 1), ("B", 1), ("C", 1), ("D", 2)):
        small = epsilon_model(fam, r)
        assert np.array_equal(_coroot_pairings(fam, rows[:, :small.roots.shape[1]]), rows[:, :small.roots.shape[1]] @ small.coroots.T)
        assert np.array_equal(_weight_pairings(fam, r, rows[:, :small.roots.shape[1]]), rows[:, :small.roots.shape[1]] @ small.weights.T)


def e_coords(t, w):
    """Independent oracle: weight in orthogonal coordinates (doubled)."""
    n = t.rank
    out = [0] * (n + 1 if t.family == "A" else n)
    for k in range(1, n + 1):
        c = w[k - 1]
        if c == 0:
            continue
        if t.family == "A":
            for j in range(k):
                out[j] += 2 * c
        elif t.family == "B":
            if k < n:
                for j in range(k):
                    out[j] += 2 * c
            else:
                for j in range(n):
                    out[j] += c
        elif t.family == "C":
            for j in range(k):
                out[j] += 2 * c
        else:
            if k <= n - 2:
                for j in range(k):
                    out[j] += 2 * c
            elif k == n - 1:
                for j in range(n - 1):
                    out[j] += c
                out[n - 1] -= c
            else:
                for j in range(n):
                    out[j] += c
    return out


def e_form(t, x, y):
    """Euclidean form on doubled orthogonal coordinates (scale-free)."""
    if t.family == "A":
        # project out the diagonal
        n1 = len(x)
        sx = sum(x)
        sy = sum(y)
        return Fraction(sum(a * b for a, b in zip(x, y))) - Fraction(sx * sy, n1)
    return Fraction(sum(a * b for a, b in zip(x, y)))


def fraction_pairing(rs, w, beta):
    """2 (w, beta) / (beta, beta) in Fractions over the root lengths."""
    n = rs.rank
    half = [Fraction(l, 2) for l in rs.root_lengths]
    num = 2 * sum(Fraction(beta[i]) * w[i] * half[i] for i in range(n))
    den = sum(
        Fraction(beta[i]) * beta[j] * rs.cartan[i][j] * half[j] for i in range(n) for j in range(n)
    )
    return num / den


def oracle_pairing(t, w, alpha_rc):
    rs = build_root_system(t)
    aw = root_coords_to_weight(rs, alpha_rc)
    xe = e_coords(t, w)
    ae = e_coords(t, aw)
    return 2 * e_form(t, xe, ae) / e_form(t, ae, ae)


def scaled_form(rs, v_rc, w_rc):
    """form_scale * (v, w) for root coordinates; (alpha_i, alpha_j) =
    cartan[i][j] * slen2[j] / form_scale.  The former package form, kept as
    an oracle for the per-root table."""
    n = rs.rank
    return sum(
        v_rc[i] * w_rc[j] * rs.cartan[i][j] * rs.slen2[j]
        for i in range(n) if v_rc[i]
        for j in range(n) if w_rc[j]
    )


def scaled_form_weight_root(rs, w, alpha_rc):
    """form_scale * (w, alpha); (lambda_i, alpha_j) = delta_ij * slen2[j] / form_scale."""
    return sum(a * c * s for a, c, s in zip(alpha_rc, w, rs.slen2) if a)


def form_pairing(rs, w, beta):
    """The former ``pairing``: 2 (w, beta) / (beta, beta) through the scaled form."""
    num = 2 * scaled_form_weight_root(rs, w, beta)
    den = scaled_form(rs, beta, beta)
    assert num % den == 0
    return num // den


def slen2_weyl_dim(rs, lam):
    """The former ``weyl_dim`` body: prod (lam + rho, beta) / (rho, beta) over slen2."""
    num = den = 1
    for rc in rs.positive_roots:
        a = b = 0
        for i in range(rs.rank):
            if rc[i]:
                a += rc[i] * (lam[i] + 1) * rs.slen2[i]
                b += rc[i] * rs.slen2[i]
        num *= a
        den *= b
    assert num % den == 0
    return num // den


def test_root_table_matches_former_forms():
    for t in ALL_TYPES:
        rs = build_root_system(t)
        n = t.rank
        assert rs.root_index == {beta: k for k, beta in enumerate(rs.positive_roots)}
        for k, beta in enumerate(rs.positive_roots):
            assert rs.root_weights[k] == root_coords_to_weight(rs, beta)
            assert rs.root_norms[k] == scaled_form(rs, beta, beta)
            for i in range(1, n + 1):
                lam_i = fundamental_weight(rs, i)
                assert rs.form_block[i - 1, k] == scaled_form_weight_root(rs, lam_i, beta)
                assert rs.coroots[k][i - 1] == form_pairing(rs, lam_i, beta)


def test_weyl_dim_matches_former_formula():
    checks = 0
    for t in ALL_TYPES:
        if t.rank > 6:
            continue
        rs = build_root_system(t)
        for lam in dominant_weights_bounded(t.rank, 3):
            assert weyl_dim(rs, lam) == slen2_weyl_dim(rs, lam), (t, lam)
            checks += 1
    assert checks == 794


def scalar_weyl_dim(rs, lam):
    """The former ``weyl_dim`` body: one coroot pairing at a time over Python ints."""
    shifted = [c + 1 for c in lam]
    num = den = 1
    for row in rs.coroots:
        num *= sum(a * c for a, c in zip(row, shifted))
        den *= sum(row)
    assert num % den == 0
    return num // den


def test_weyl_dims_match_scalar_formula():
    # every dominant weight with coefficient sum <= 3, zero included, on
    # A1-A8, B2-B8, C2-C8 and D3-D8: one row at a time, and as one block per
    # type from a list and from an int64 array
    checks = 0
    for t in ALL_TYPES:
        rs = build_root_system(t)
        lams = [(0,) * t.rank, *dominant_weights_bounded(t.rank, 3)]
        expected = [scalar_weyl_dim(rs, lam) for lam in lams]
        assert [weyl_dim(rs, lam) for lam in lams] == expected, t
        assert weyl_dims(rs, lams) == weyl_dims(rs, np.array(lams, dtype=np.int64)) == expected, t
        assert weyl_dims(rs, np.zeros((0, t.rank), dtype=np.int64)) == []
        checks += len(lams)
    assert checks == 1954


def test_weyl_dims_are_exact_past_int64():
    # coordinates of 2^62 and 2^80 are not refused: past the int64 bound the
    # pairings run in object dtype on the same path, and come back exact
    for t in ALL_TYPES:
        rs = build_root_system(t)
        lams = [
            tuple(big if i in (0, t.rank - 1) else i % 2 for i in range(t.rank))
            for big in (1 << 62, (1 << 62) + 3, 1 << 80)
        ]
        expected = [scalar_weyl_dim(rs, lam) for lam in lams]
        assert [weyl_dim(rs, lam) for lam in lams] == expected, t
        assert weyl_dims(rs, [(1,) * t.rank, *lams])[1:] == expected, t
        assert weyl_dims(rs, np.array(lams[:2], dtype=np.int64)) == expected[:2], t
        assert all(type(d) is int for d in weyl_dims(rs, lams))


def test_weyl_dim_validates_its_weight():
    b3 = build_root_system(LieType("B", 3))
    with pytest.raises(ValueError, match="not dominant"):
        weyl_dim(b3, (1, -1, 0))
    with pytest.raises(ValueError, match="wrong length"):
        weyl_dim(b3, (1, 0))
    with pytest.raises(ValueError, match="non-integral"):
        weyl_dim(b3, (1, 0.5, 0))


def test_non_integral_weights_are_rejected():
    b2 = build_root_system(LieType("B", 2))
    b3 = build_root_system(LieType("B", 3))
    e = build_embedding(LieType("B", 3), geom_family("c1", sub="Dn"))
    for call in (
        lambda: b2.check_weight((1.5, 0)),
        lambda: weyl_dim(b2, (1.5, 0)),
        lambda: freudenthal(b2, (1, 0.5)),
        lambda: pairing(b2, (1.5, 0), (1, 0)),
        lambda: restrict_weight(e, (0, 0, 1.9)),
        lambda: branch_p0(b3, (0, 0, 1.9), e),
    ):
        with pytest.raises(ValueError, match="non-integral"):
            call()
    # integral values of other number types are still weights
    one, zero = np.int64(1), np.int64(0)
    assert b2.check_weight((one, zero)) == (1, 0)
    assert b2.check_weight((2.0, Fraction(1))) == (2, 1)
    assert weyl_dim(b2, (one, zero)) == weyl_dim(b2, np.array([1, 0])) == 5
    assert freudenthal(b2, (one, zero)) == freudenthal(b2, (1, 0))
    assert pairing(b2, (one, zero), (1, 1)) == pairing(b2, (1, 0), (1, 1)) == 2
    assert restrict_weight(e, (zero, zero, one)) == restrict_weight(e, (0, 0, 1))
    assert branch_p0(b3, (zero, zero, one), e).factors == branch_p0(b3, (0, 0, 1), e).factors


def test_positive_root_counts():
    for t in ALL_TYPES:
        rs = build_root_system(t)
        n = t.rank
        expected = {
            "A": n * (n + 1) // 2,
            "B": n * n,
            "C": n * n,
            "D": n * (n - 1),
        }[t.family]
        assert len(rs.positive_roots) == expected


def test_cartan_examples():
    rs = build_root_system(LieType("A", 2))
    assert rs.cartan == ((2, -1), (-1, 2))
    assert build_root_system(LieType("B", 3)).eG == 2
    assert build_root_system(LieType("D", 4)).eG == 1
    for t in ALL_TYPES:
        c = build_root_system(t).cartan
        assert all(c[i][i] == 2 for i in range(t.rank))


def test_invalid_ranks():
    with pytest.raises(ValueError):
        LieType("B", 1)
    with pytest.raises(ValueError):
        LieType("D", 2)
    with pytest.raises(ValueError):
        LieType("E", 6)


def test_lie_type_takes_only_an_integer_rank():
    # A2.0 used to hash equal to A2 and be handed its cached root system
    for rank in (2.0, True, "3", None, Fraction(2)):
        with pytest.raises(ValueError, match="rank must be an integer"):
            LieType("A", rank)
    t = LieType("A", np.int64(2))
    assert type(t.rank) is int and t == LieType("A", 2) and str(t) == "A2"


def test_an_oversized_root_system_is_refused_before_it_is_built():
    # A_{10^6} has about 5 * 10^17 positive-root coordinates: refused from
    # the closed-form count, before any array exists
    assert MAX_ROOT_ENTRIES == kernels.DEFAULT_MAXDOM
    huge = LieType("A", 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="positive-root coordinates"):
            build_root_system(huge)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak
    # the largest accepted ranks: A150 (1 698 750 coordinates) and D60
    for t in (LieType("A", 150), LieType("D", 60)):
        rs = RootSystem(t)
        assert len(rs.positive_roots) * t.rank <= MAX_ROOT_ENTRIES
    with pytest.raises(ValueError):
        RootSystem(LieType("A", 160))


def test_cli_refuses_an_oversized_root_system(capsys):
    assert main(["rootsys-info", "D", "200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: D200 has")


def test_pairing_delta():
    for t in [LieType("A", 3), LieType("B", 3), LieType("C", 4), LieType("D", 4)]:
        rs = build_root_system(t)
        for i in range(1, t.rank + 1):
            for j in range(1, t.rank + 1):
                alpha = tuple(1 if k == j - 1 else 0 for k in range(t.rank))
                assert pairing(rs, fundamental_weight(rs, i), alpha) == int(i == j)


def test_pairing_oracle_values():
    # non-simple roots, cross-checked against the orthogonal-coordinate oracle
    t = LieType("B", 2)
    rs = build_root_system(t)
    assert oracle_pairing(t, (0, 1), (1, 2)) == 1
    assert pairing(rs, (0, 1), (1, 2)) == 1
    assert oracle_pairing(t, (1, 0), (1, 1)) == 2
    assert pairing(rs, (1, 0), (1, 1)) == 2
    t = LieType("C", 3)
    rs = build_root_system(t)
    for alpha in rs.positive_roots:
        for i in range(1, 4):
            w = fundamental_weight(rs, i)
            assert pairing(rs, w, alpha) == oracle_pairing(t, w, alpha)


def test_pairing_zero_weight_and_errors():
    rs = build_root_system(LieType("B", 3))
    for alpha in rs.positive_roots:
        assert pairing(rs, (0, 0, 0), alpha) == 0
    with pytest.raises(ValueError):
        pairing(rs, (1, 0, 0), (5, 0, 0))


def test_root_coords_examples():
    rs = build_root_system(LieType("A", 1))
    assert weight_to_root_coords(rs, (1,)) == (Fraction(1, 2),)
    rs = build_root_system(LieType("A", 3))
    assert weight_to_root_coords(rs, (0, 1, 0)) == (
        Fraction(1, 2),
        Fraction(1),
        Fraction(1, 2),
    )
    # the simple root alpha_n of B_n in weight coordinates
    for n in (2, 4, 6):
        rs = build_root_system(LieType("B", n))
        w = [0] * n
        w[n - 1] = 2
        w[n - 2] = -1
        rc = weight_to_root_coords(rs, tuple(w))
        assert rc == tuple(Fraction(int(i == n - 1)) for i in range(n))


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_root_coord_round_trip(data):
    # every type in each example, against the Cartan matrix and the Fraction formula
    for t in ALL_TYPES:
        rs = build_root_system(t)
        n = t.rank
        w = tuple(data.draw(st.integers(-4, 4)) for _ in range(n))
        rc = weight_to_root_coords(rs, w)
        assert root_coords_to_weight(rs, rc) == w
        for i in range(n):
            alpha = tuple(int(k == i) for k in range(n))
            assert pairing(rs, w, alpha) == w[i]
        for beta in rs.positive_roots:
            beta_w = root_coords_to_weight(rs, beta)
            assert scaled_root_coords(rs, beta_w) == tuple(x * rs.inv_den for x in beta)
            assert pairing(rs, beta_w, beta) == 2
            expected = fraction_pairing(rs, w, beta)
            assert expected.denominator == 1
            assert pairing(rs, w, beta) == expected
            assert pairing(rs, w, tuple(-x for x in beta)) == -expected


def test_rho_and_positive_root_integrality():
    for t in ALL_TYPES[:16]:
        rs = build_root_system(t)
        for i in range(t.rank):
            alpha = tuple(1 if k == i else 0 for k in range(t.rank))
            assert pairing(rs, rs.rho, alpha) == 1
        for r in rs.positive_roots:
            assert all(c >= 0 and c == int(c) for c in r)
            assert is_root(rs, r)


def test_minimal_weights():
    assert minimal_weights(LieType("A", 3)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert minimal_weights(LieType("B", 4)) == {(0, 0, 0, 1)}
    assert minimal_weights(LieType("C", 4)) == {(1, 0, 0, 0)}
    assert minimal_weights(LieType("D", 5)) == {
        (1, 0, 0, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1),
    }
