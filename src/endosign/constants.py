"""Named constants of the transfer computation and their identity verifiers.

Everything here is an exact sign or rational.
The headline identities verified exhaustively at desk scale:

  * the auxiliary split-parameter identities (parity, size, companion-sum,
    and the U-multiplicativity U = U1 * U2),
  * the product-formula constant identity
        2^(-1-beta) * C_total * |families| = C_even,
  * the sign-chain collapse to 1 for the stable-transfer comparison,
  * the two-route factorization of the descent transfer factor.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import families as fam
from .localfield import TRIVIAL, ResidueParam, SquareClass, legendre, sgn_minus_one
from .partitions import Partition
from .weyl import sgn_cd


class QuadrupleGamma:
    """A quadruple (r', r'', N', N'') labeling a cuspidal support datum."""

    __slots__ = ("rp", "rpp", "Np", "Npp")

    def __init__(self, rp: int, rpp: int, Np: int, Npp: int):
        if Np < 0 or Npp < 0:
            raise ValueError("N' and N'' must be nonnegative")
        self.rp = rp
        self.rpp = rpp
        self.Np = Np
        self.Npp = Npp

    def __repr__(self):
        return f"QuadrupleGamma({self.rp}, {self.rpp}, {self.Np}, {self.Npp})"

    def to_json(self):
        return [self.rp, self.rpp, self.Np, self.Npp]


def split_pair_values(rp: int, rpp: int) -> tuple[int, int, int, int]:
    """(r'_1, r''_1, r'_2, r''_2) from the floor formulas."""
    s = (rp + rpp) // 2  # Python floor division is the mathematical floor
    r1p = max(s, -s - 1)
    r1pp = abs((rp + rpp + 1) // 2)
    t = (rp - rpp) // 2
    r2p = max(t, -t - 1)
    r2pp = abs((rp - rpp + 1) // 2)
    return r1p, r1pp, r2p, r2pp


def split_sizes(rp: int, rpp: int, ns: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """(n1, n2) of the splitting at each (N', N'') of ns, via the quadratic closed forms.

    The closed forms read (r', r'') alone: evaluated once, then N', N'' added per point.
    """
    s, d = rp + rpp, rp - rpp
    form1, form2 = (s * s + (s + 1) * (s + 1) - 1) // 4, (d * d + (d + 1) * (d + 1) - 1) // 4
    return [(form1 + Np, form2 + Npp) for Np, Npp in ns]


def r_plus_minus(rp: int, rpp: int) -> tuple[int, int]:
    """(r'_+, r'_-): (r'+1, r') for equal parities, (r', r'+1) otherwise."""
    if (rp - rpp) % 2 == 0:
        return rp + 1, rp
    return rp, rp + 1


def u_exponent(rp: int, rpp: int) -> int:
    """The exponent u attached to (r', r'')."""
    r_plus, _ = r_plus_minus(rp, rpp)
    base = (rp * rp - rp) // 2 + (rpp * rpp - abs(rpp)) // 2
    if abs(rpp) <= rp:
        return base + (r_plus - abs(rpp) - 1) // 2
    return base + rp + rpp + 1


def u_sign(rp: int, rpp: int, m: int) -> int:
    """U = (-1)^(r'') * m^u, with m the value of the character at -1."""
    return (-1) ** (rpp % 2) * (m if u_exponent(rp, rpp) % 2 else 1)


def parity_of_halves(halves: tuple[int, int, int, int]) -> int:
    """(r''_1 + r''_2) mod 2 of the split pair (r'_1, r''_1, r'_2, r''_2)."""
    _, r1pp, _, r2pp = halves
    return (r1pp + r2pp) % 2


def parity_of_pair(rpp: int) -> int:
    """r'' mod 2, which the split pair's parity sum equals."""
    return rpp % 2


def size_forms_of_halves(halves: tuple[int, int, int, int]) -> list[int]:
    """[r'_j^2 + r'_j + r''_j^2 for j = 1, 2] of the split pair."""
    r1p, r1pp, r2p, r2pp = halves
    return [r1p * r1p + r1p + r1pp * r1pp, r2p * r2p + r2p + r2pp * r2pp]


def size_forms_of_pair(rp: int, rpp: int) -> list[int]:
    """split_sizes at the single point N' = N'' = 0, which the size forms equal."""
    return list(split_sizes(rp, rpp, [(0, 0)])[0])


def companion_sums_of_halves(halves: tuple[int, int, int, int]) -> list[int]:
    """[r'_{j,+} + r''_j, r'_{j,-} + r''_j for j = 1, 2] of the split pair."""
    r1p, r1pp, r2p, r2pp = halves
    r1pl, r1mi = r_plus_minus(r1p, r1pp)
    r2pl, r2mi = r_plus_minus(r2p, r2pp)
    return [r1pl + r1pp, r1mi + r1pp, r2pl + r2pp, r2mi + r2pp]


def companion_sums_of_pair(rp: int, rpp: int) -> list[int]:
    """[|r'_+ + r''|, |r'_- + r''|, |r'_+ - r''|, |r'_- - r''|], which the companion sums equal."""
    rpl, rmi = r_plus_minus(rp, rpp)
    return [abs(rpl + rpp), abs(rmi + rpp), abs(rpl - rpp), abs(rmi - rpp)]


def u_of_halves(halves: tuple[int, int, int, int], m: int) -> int:
    """U(r'_1, r''_1) U(r'_2, r''_2) of the split pair, which U(r', r'') equals."""
    r1p, r1pp, r2p, r2pp = halves
    return u_sign(r1p, r1pp, m) * u_sign(r2p, r2pp, m)


def size_totals(rp: int, rpp: int, ns: list[tuple[int, int]]) -> list[int]:
    """r'^2 + r' + r''^2 + N' + N'' at each (N', N'') of ns, which n1 + n2 of split_sizes equals."""
    n = rp * rp + rp + rpp * rpp
    return [n + Np + Npp for Np, Npp in ns]


def swapped_split(halves: tuple[int, int, int, int], sizes: list[tuple[int, int]]) -> tuple:
    """The split pair with its halves exchanged, and each (n1, n2) of sizes as (n2, n1)."""
    r1p, r1pp, r2p, r2pp = halves
    return (r2p, r2pp, r1p, r1pp), [(n2, n1) for n1, n2 in sizes]


def mirrored_split(rp: int, rpp: int, swapped: list[tuple[int, int]]) -> tuple:
    """The split pair at (r', -r''), and one split_sizes call there over swapped, the (N'', N').

    By the r'' <-> -r'' symmetry it equals swapped_split of the data at (r', r'').
    """
    mirror = -rpp
    return split_pair_values(rp, mirror), split_sizes(rp, mirror, swapped)


# ---------------------------------------------------------------------------
# Named constants of the even orthogonal transfer computation.
# ---------------------------------------------------------------------------

def alpha_constant(rp: int, rpp: int, scd1: int, scd2: int,
                   eta: SquareClass, m: int) -> int:
    """The orientation sign alpha(r', r'', w', w'').

    sgn((-1)^((r'+r'')/2) * unit(eta)), times scd1 * scd2 when the
    valuation of eta is odd, with scd1 = sgn_cd(w') and scd2 = sgn_cd(w'').
    It reads the field only through m = sgn(-1).
    """
    if rp % 2 != rpp % 2 or rp % 2 != eta.val_parity:
        raise ValueError("r', r'' and val(eta) must share one parity")
    out = (m if ((rp + rpp) // 2) % 2 else 1) * eta.unit_sign
    if eta.val_parity:
        out *= scd1 * scd2
    return out


def pair_power_constant(rp: int, rpp: int, rp_field: ResidueParam) -> Fraction:
    """C(r', r'') = 2^(1 - r' - r'') * ((q-1)^2 (q-3))^((r - R)/2)."""
    if (rp - rpp) % 2:
        raise ValueError("r' and r'' must have equal parity")
    q = rp_field.q
    t2 = abs(rp - rpp) // 2
    return Fraction(2) ** (1 - rp - rpp) / ((q - 1) ** 2 * (q - 3)) ** t2


def even_case_transfer_constant(eta1: SquareClass, eta2: SquareClass, rp: int, rpp: int,
                                scd2: int, eta: SquareClass, m: int) -> int:
    """The even orthogonal transfer constant for the class pair (eta1, eta2).

    It reads the second class only through scd2 = sgn_cd(w'') and the
    field only through m = sgn(-1).
    """
    if (rp - rpp) % 2:
        raise ValueError("r' and r'' must have equal parity")
    t1 = (rp + rpp) // 2
    t2 = abs(rp - rpp) // 2
    if eta1.val_parity != t1 % 2 or eta2.val_parity != t2 % 2:
        raise ValueError("val(eta1), val(eta2) must match t1, t2 mod 2")
    if eta1 * eta2 != eta:
        raise ValueError("eta1 * eta2 must equal eta")
    if rpp <= rp:
        return eta2.unit_sign if eta.val_parity else 1
    out = (m if eta2.val_parity else 1) * scd2
    if (1 + eta.val_parity) % 2:
        out *= eta2.unit_sign
    return out


def transfer_factor_sign(shape: fam.SplitShape, gamma: fam.GammaVector,
                         pairs: list[fam.LPair], m: int,
                         rp_field: ResidueParam) -> dict[int, list[int]]:
    """The closed-form transfer-factor sign d of one assignment vector: {scd2: row}.

    d is closed_block_sign times the row at scd2 = sgn_cd(w''), which has
    one entry per pairing and holds every factor that reads gamma: the
    even-pair-slot product of sgn(g_{j-1} g_j)^(j/2-1) and sgn(g_{j-1} - g_j);
    the top-slot product of sgn(g_j)^((R-r)/2); and the tail governed by the
    branch switch B with the class eta[L2, gamma], which reads scd2.  The
    first two read gamma alone and are computed once per vector.  Only the
    tail reads the pairing, scd2 and m = sgn(-1): when B = 1 gamma is split
    once per pairing, and one eta_of_L2 of that split's L2 component gives
    the class at both values of scd2, so each row's entry multiplies in its
    own pairing's tail; when B = 0 both rows are the gamma-only value
    repeated.  The rows do not read sgn_cd(w') or eta.
    """
    out = 1
    for j in shape.jhat:
        a, b = gamma.low[j - 2], gamma.low[j - 1]
        if (j // 2 - 1) % 2:
            out *= legendre(a * b, rp_field)
        out *= legendre(a - b, rp_field)
    if shape.t2 % 2:
        for s in gamma.high:
            out *= s
    if not shape.b_switch:
        row = [out] * len(pairs)
        return {1: row, -1: row}
    rows = {1: [], -1: []}
    for pair in pairs:
        classes = fam.eta_of_L2(fam.gamma_L_split(gamma, pair)[1], shape, rp_field)
        for scd2, row in rows.items():
            eta2L = classes[scd2]
            row.append(out * (m if eta2L.val_parity else 1) * eta2L.unit_sign * scd2)
    return rows


def closed_block_sign(shape: fam.SplitShape, scd1: int, scd2: int, eta: SquareClass) -> int:
    """The closed route's factors of d that read no gamma: its sign on a whole block.

    unit(eta) * scd1 when (R-r)/2 is odd, times scd2 when (R-r)/2 + val(eta)
    is odd, with scd1 = sgn_cd(w') and scd2 = sgn_cd(w'').
    """
    out = 1
    if shape.t2 % 2:
        out *= eta.unit_sign * scd1
    if (shape.t2 + eta.val_parity) % 2:
        out *= scd2
    return out


def weil_ratio_sign(eta1: SquareClass, eta2: SquareClass, m: int) -> int:
    """The Weil-constant ratio, a sign depending on the valuation parities and m = sgn(-1)."""
    v1, v2 = eta1.val_parity, eta2.val_parity
    if v1 == 0 and v2 == 0:
        return 1
    if v1 == 0 and v2 == 1:
        return eta1.unit_sign
    if v1 == 1 and v2 == 0:
        return eta2.unit_sign
    return m * eta1.unit_sign * eta2.unit_sign  # sgn(-unit(eta)), eta = eta1 * eta2


def collapse_and_product_constants(rp: int, rpp: int, points: list[tuple],
                                   rp_field: ResidueParam) -> list[Fraction]:
    """The total product constant C_total at each point of one (r', r'').

    A point is (scd1, scd2, eta, eta1, eta2, beta): the classes enter through
    scd1 = sgn_cd(w') and scd2 = sgn_cd(w''), the field through q and
    m = sgn(-1), taken once per call.  C_total is the fiber-collapse constant
    (the weight ratio sigma * sigma_fiber^-1 * sigma_1^-1 * sigma_2^-1 * d,
    a sign times ((q-3)/4)^-t2) times 2^(beta + 2 t1 + 2 t2), the Weil ratio,
    the pair power constant and the three orientation signs: a sign per point
    times a magnitude that reads no class, taken once for each beta.  The name
    still says collapse because BENCHMARK.json counts this function's calls.
    """
    shape = fam.SplitShape(rp, rpp)
    m = sgn_minus_one(rp_field)
    t1, t2 = shape.t1, shape.t2
    collapse = Fraction(4, rp_field.q - 3) ** t2
    pair_power = pair_power_constant(rp, rpp, rp_field)
    products = {beta: collapse * 2 ** (beta + 2 * t1 + 2 * t2) * pair_power for beta in (0, 1)}
    row_sign = m if (shape.r * t2) % 2 else 1
    out = []
    for scd1, scd2, eta, eta1, eta2, beta in points:
        if beta not in (0, 1):
            raise ValueError("beta must be 0 or 1")
        if eta1.val_parity != t1 % 2 or eta2.val_parity != t2 % 2 or eta1 * eta2 != eta:
            raise ValueError("class parities violated")
        sign = closed_block_sign(shape, scd1, scd2, eta) * row_sign
        if shape.b_switch:
            sign *= (m if eta2.val_parity else 1) * eta2.unit_sign * scd2
        total = sign * weil_ratio_sign(eta1, eta2, m) \
            * alpha_constant(rp, rpp, scd1, scd2, eta, m) \
            * alpha_constant(t1, t1, scd1, 1, eta1, m) \
            * alpha_constant(t2, t2, scd2, 1, eta2, m)
        out.append(products[beta] * total)
    return out


def product_formula_lhs(rp: int, rpp: int, points: list[tuple],
                        rp_field: ResidueParam) -> list[Fraction]:
    """2^(-1-beta) * C_total * |families|, the identity's left side, at each point of one (r', r'').

    The points are collapse_and_product_constants', which gives C_total;
    |families|, the closed-form transversal family count, reads (r', r'')
    alone and is taken once.
    """
    count = fam.transversal_family_count_formula(fam.SplitShape(rp, rpp), rp_field)
    scales = {beta: count / 2 ** (1 + beta) for beta in (0, 1)}
    return [product * scales[point[-1]] for product, point in
            zip(collapse_and_product_constants(rp, rpp, points, rp_field), points)]


# ---------------------------------------------------------------------------
# Sweep point generators (see endosign.suites).  A window generates a sweep's
# point inputs; the tests' side registry calls it at small bounds.  The check
# iterates its window, evaluates each identity's sides on those inputs, and
# yields (checked, failures): the number of points just checked and their
# failure records, each naming its identity.
# ---------------------------------------------------------------------------

def pair_window(rmax: int):
    """(r', r'') for r' in [0, rmax] and r'' in [-rmax, rmax]."""
    for rp in range(rmax + 1):
        for rpp in range(-rmax, rmax + 1):
            yield rp, rpp


def aux_points(rmax: int):
    """Auxiliary identities over r' in [0, rmax], r'' in [-rmax, rmax].

    Each identity compares the split pair's side (lhs) with the (r', r'')
    side (rhs), apart from U's multiplicativity, whose lhs is U(r', r'')
    and rhs U1 U2, each at m = 1 and m = -1.
    """
    for rp, rpp in pair_window(rmax):
        halves = split_pair_values(rp, rpp)
        records = (
            {"rp": rp, "rpp": rpp, "identity": "parity_sum",
             "lhs": parity_of_halves(halves), "rhs": parity_of_pair(rpp)},
            {"rp": rp, "rpp": rpp, "identity": "size_forms",
             "lhs": size_forms_of_halves(halves), "rhs": size_forms_of_pair(rp, rpp)},
            {"rp": rp, "rpp": rpp, "identity": "companion_sums",
             "lhs": companion_sums_of_halves(halves), "rhs": companion_sums_of_pair(rp, rpp)},
            {"rp": rp, "rpp": rpp, "identity": "u_multiplicative",
             "lhs": [u_sign(rp, rpp, m) for m in (1, -1)],
             "rhs": [u_of_halves(halves, m) for m in (1, -1)]})
        yield 1, tuple(record for record in records if record["lhs"] != record["rhs"])


def split_window(rmax: int, nmax: int):
    """(r', r'', the (N', N'') of its points, each as (N'', N')) for each (r', r'') of pair_window.

    N', N'' <= nmax; both lists are built once per sweep.
    """
    ns = list(itertools.product(range(nmax + 1), repeat=2))
    swapped = [(Npp, Np) for Np, Npp in ns]
    for rp, rpp in pair_window(rmax):
        yield rp, rpp, ns, swapped


def split_points(rmax: int, nmax: int):
    """Size-sum identity and the r'' <-> -r'' swap symmetry of the splitting.

    A point is one (r', r'', N', N''); the (nmax+1)^2 points of one (r', r'')
    are checked and yielded as one batch.  One split_sizes call gives the row's
    sizes, which meet size_totals in their sum and mirrored_split, one more
    split_sizes call at (r', -r'') over the swapped grid, through swapped_split.
    """
    for rp, rpp, ns, swapped in split_window(rmax, nmax):
        sizes = split_sizes(rp, rpp, ns)
        sums, totals = [n1 + n2 for n1, n2 in sizes], size_totals(rp, rpp, ns)
        pair = swapped_split(split_pair_values(rp, rpp), sizes)
        mirror = mirrored_split(rp, rpp, swapped)
        if sums == totals and pair == mirror:
            yield len(ns), ()
            continue
        failures = []
        for (Np, Npp), lhs, rhs, exchanged, mirrored in zip(ns, sums, totals, pair[1], mirror[1]):
            point = {"rp": rp, "rpp": rpp, "Np": Np, "Npp": Npp}
            if lhs != rhs:
                failures.append({**point, "lhs": lhs, "rhs": rhs, "identity": "sum"})
            if pair[0] != mirror[0] or exchanged != mirrored:
                failures.append({**point, "identity": "swap"})
        yield len(ns), failures


def _degenerate_cases(rp, rpp, scd1, scd2, eta1, eta2):
    """Admissible beta values with their forced degeneracies.

    beta = 1 needs both split sizes positive (always realizable).  beta = 0
    needs one size zero: the second exactly when r' = r'' with no second
    class data (sgn_cd(w'') = +1, eta2 trivial), the first only when
    r' = r'' = 0 with the first data trivial.
    """
    cases = [1]
    if rp == rpp and scd2 == 1 and eta2 == TRIVIAL:
        cases.append(0)
    elif rp == rpp == 0 and scd1 == 1 and eta1 == TRIVIAL:
        cases.append(0)
    return cases


def constprod_window(q, rmax: int):
    """(field, m = sgn(-1), r', r'', the (scd1, scd2, eta, eta1, eta2, beta) of its points) per
    q and (r', r'') of equal parity up to rmax: every class and sign choice, admissible beta."""
    for field in map(ResidueParam, q):
        m = sgn_minus_one(field)
        for rp in range(rmax + 1):
            for rpp in range(rmax + 1):
                if (rp - rpp) % 2:
                    continue
                t2 = fam.SplitShape(rp, rpp).t2
                points = []
                for ue, ue2, s1, s2 in itertools.product((1, -1), repeat=4):
                    eta = SquareClass(rpp % 2, ue)
                    eta2 = SquareClass(t2 % 2, ue2)
                    eta1 = eta * eta2
                    points += [(s1, s2, eta, eta1, eta2, beta)
                               for beta in _degenerate_cases(rp, rpp, s1, s2, eta1, eta2)]
                yield field, m, rp, rpp, points


def product_identity_points(q, rmax: int):
    """The product-formula constant identity at every point of constprod_window:
        2^(-1-beta) * C_total * |families| = C_even,
    checked exactly in rationals.
    The points of one (q, r', r'') are checked and yielded as one batch: one
    product_formula_lhs call for the row, even_case_transfer_constant per point.
    """
    for field, m, rp, rpp, points in constprod_window(q, rmax):
        failures = []
        for (s1, s2, eta, eta1, eta2, beta), value in zip(
                points, product_formula_lhs(rp, rpp, points, field)):
            rhs = even_case_transfer_constant(eta1, eta2, rp, rpp, s2, eta, m)
            if value != rhs:
                failures.append(
                    {"q": field.q, "rp": rp, "rpp": rpp, "eta": eta.name(), "eta1": eta1.name(),
                     "eta2": eta2.name(), "scd1": s1, "scd2": s2, "beta": beta,
                     "identity": "constprod", "lhs": str(value), "rhs": rhs})
        yield len(points), failures


def branch_switch(rp: int, rpp: int) -> int:
    """b = 0 for r'' > 0 or (r'' = 0, r' even); b = 1 otherwise."""
    if rpp > 0 or (rpp == 0 and rp % 2 == 0):
        return 0
    return 1


def chain_sign_constants(rp: int, rpp: int, scd1: int, scd2: int,
                         d2: int, n: int, d: int, m: int) -> tuple[int, int, int]:
    """The signs (base, endo, reduction) of the comparison chain at one point.

    The classes enter through scd1 = sgn_cd(w') and scd2 = sgn_cd(w''),
    the field through m = sgn(-1).
    base: (-1)^(n + r'') m^((r'^2 - r')/2 + (r''^2 - |r''|)/2).
    endo: the four-branch table; the branches with r'' < 0 or (r'' = 0,
    r' odd) carry (-1)^(d r'').
    reduction: the branch-switch-aware collapse constant; for the switched
    branch the roles of the two factors are permuted, so it reads the first
    class sign and the complementary block count d - d2.
    """
    mp = (rp * rp - rp) // 2 + (rpp * rpp - abs(rpp)) // 2
    base = (-1) ** ((n + rpp) % 2) * (m if mp % 2 else 1)

    if 0 < rpp <= rp or (rpp == 0 and rp % 2 == 0):
        endo = 1
    elif rp < rpp:
        endo = scd2
    elif -rp <= rpp < 0 or (rpp == 0 and rp % 2 == 1):
        endo = (-1) ** ((d * rpp) % 2)
    else:  # rpp < -rp
        endo = (-1) ** ((d * rpp) % 2) * scd1

    b = branch_switch(rp, rpp)
    rho = abs(rpp)
    delta, scd_branch = (d2, scd2) if b == 0 else (d - d2, scd1)
    r_plus, _ = r_plus_minus(rp, rpp)
    reduction = (-1) ** ((delta * rho) % 2)
    if rho <= rp:
        reduction *= m if ((r_plus - rho - 1) // 2) % 2 else 1
    else:
        reduction *= (m if (rp + rho + 1) % 2 else 1) * scd_branch
    return base, endo, reduction


def sign_chain(rp: int, rpp: int, scd1: int, scd2: int, d2: int, n: int, d: int, m: int) -> int:
    """The comparison chain base * endo * reduction * (-1)^(d2 r'') at one point."""
    base, endo, reduction = chain_sign_constants(rp, rpp, scd1, scd2, d2, n, d, m)
    return base * endo * reduction * (-1) ** ((d2 * rpp) % 2)


def collapse_products(chains: list[int], rp: int, rpp: int, signs: list[tuple],
                      m: int) -> list[int]:
    """The full nine-constant product at each point of one (r', r''), which collapses to 1.

    The points are signs, each (scd1, scd2, d2, d, n), and chains their sign_chain
    values, realigned from block-count parity n to n = n1 + n2.  Half j of the split
    pair reads only scd_j and has trivial second factors, so no block counts: the
    split pair, its sizes and each half at both class signs are evaluated once.
    """
    r1p, r1pp, r2p, r2pp = split_pair_values(rp, rpp)
    [(n1, n2)] = split_sizes(rp, rpp, [(0, 0)])
    half1, half2 = ({s: math.prod(chain_sign_constants(rpj, rppj, s, 1, 0, nj, 0, m))
                     for s in (1, -1)} for rpj, rppj, nj in ((r1p, r1pp, n1), (r2p, r2pp, n2)))
    return [chain * (-1) ** ((n + n1 + n2) % 2) * half1[s1] * half2[s2]
            for chain, (s1, s2, _, _, n) in zip(chains, signs)]


def chain_window(rmax: int):
    """(q, m, r', r'', the (scd1, scd2, d2, d, n) of its points) for each (r', r'') of pair_window.

    The chain reads q only through m = sgn(-1), +1 at q = 5, -1 at 7; d = d1 + d2, d1, d2, n <= 1.
    """
    signs = [(s1, s2, d2, d1 + d2, npar) for s1, s2, d2, d1, npar in itertools.product(
        (1, -1), (1, -1), (0, 1), (0, 1), (0, 1))]
    for q in (5, 7):
        m = sgn_minus_one(ResidueParam(q))
        for rp, rpp in pair_window(rmax):
            yield q, m, rp, rpp, signs


def sign_chain_points(rmax: int):
    """sign_chain against (-1)^n U, then collapse_products, the full product, against 1.

    The 32 points of one (q, r', r'') are checked and yielded as one batch:
    sign_chain and its target per point, collapse_products once for the row.
    A point whose chain fails is not checked for the collapse.  U = U1 U2
    over the split pair is aux's u_multiplicative, swept there.
    """
    for q, m, rp, rpp, signs in chain_window(rmax):
        u = u_sign(rp, rpp, m)
        chains = [sign_chain(rp, rpp, s1, s2, d2, npar, d, m) for s1, s2, d2, d, npar in signs]
        failures = []
        for (s1, s2, d2, d, npar), chain, total in zip(
                signs, chains, collapse_products(chains, rp, rpp, signs, m)):
            target = (-1) ** npar * u
            if chain == target and total == 1:
                continue
            point = {"q": q, "rp": rp, "rpp": rpp, "scd1": s1, "scd2": s2, "d2": d2,
                     "d": d, "n": npar}
            failures.append({**point, "lhs": chain, "rhs": target, "identity": "chain"}
                            if chain != target else
                            {**point, "value": total, "identity": "collapse"})
        yield len(signs), failures


def factorwise_gamma_factor(shape: fam.SplitShape, gamma: fam.GammaVector,
                            pairs: list[fam.LPair], m: int,
                            rp_field: ResidueParam) -> list[int]:
    """The per-factor route's factor of one assignment vector, one entry per pairing.

    The product over the pair slots l = 2j of sgn(g_{l-1} - g_l), times
    m * sgn(g_{l2}) when B = 1, times the signs of the slots above l, with
    m = sgn(-1).  factorwise_block_sign holds each slot's remaining factor,
    which reads no gamma.  The part without the L2 slots reads gamma alone
    and is computed once: the signs of the slots above l are a suffix
    product over the residues' Legendre signs, read once each, and the top
    signs.  When B = 1 each entry multiplies in m * sgn(g_{l2}) over its own
    pairing's L2 slots; when B = 0 the row is the gamma-only value repeated.
    """
    signs = [legendre(v, rp_field) for v in gamma.low]
    above = 1  # the signs of the slots above l
    for s in gamma.high:
        above *= s
    out = 1
    for l in range(2 * shape.t2, 0, -2):
        out *= above * legendre(gamma.low[l - 2] - gamma.low[l - 1], rp_field)
        above *= signs[l - 2] * signs[l - 1]
    if not shape.b_switch:
        return [out] * len(pairs)
    row = []
    for pair in pairs:
        tail = 1
        for l2 in pair.l2:
            tail *= m * signs[l2 - 1]
        row.append(out * tail)
    return row


def factorwise_block_sign(shape: fam.SplitShape, scd1: int, scd2: int,
                          eta: SquareClass) -> int:
    """The per-factor route's factor unit(eta) * scd1 * scd2 of each pair slot, over all of them.

    With scd1 = sgn_cd(w') and scd2 = sgn_cd(w''): it reads no gamma, so it
    is one sign on a whole block.
    """
    return (eta.unit_sign * scd1 * scd2) ** shape.t2


def factorwise_e_factor(e: tuple[int, ...], pair: fam.LPair) -> int:
    """The per-factor route's e-factor: the product of e over the L2 slots."""
    out = 1
    for l2 in pair.l2:
        out *= e[l2 - 1]
    return out


def factorwise_u_factor(u: tuple[int, ...], k_second: tuple[int, ...],
                        eta: SquareClass) -> int:
    """The per-factor route's block signs (-1)^(val(eta) + u_k) over K'' (1-based k_second)."""
    out = 1
    for k in k_second:
        if (eta.val_parity + u[k - 1]) % 2:
            out = -out
    return out


def factorwise_grids(pairs: list[fam.LPair], evecs: list[tuple[int, ...]],
                     uvecs: list[tuple[int, ...]], k_second: tuple[int, ...],
                     eta: SquareClass) -> list[list[int]]:
    """Each pairing's factorwise_e_factor(e) * factorwise_u_factor(u), e first, then u."""
    u_row = [factorwise_u_factor(u, k_second, eta) for u in uvecs]
    return [[fe * fu for fe in [factorwise_e_factor(e, pair) for e in evecs] for fu in u_row]
            for pair in pairs]


def closed_grids(pairs: list[fam.LPair], evecs: list[tuple[int, ...]],
                 uvecs: list[tuple[int, ...]], k_second: tuple[int, ...]) -> list[list[int]]:
    """Each pairing's kappa_l2(e) * kappa_u(u), e first, then u."""
    u_row = [fam.kappa_u(u, k_second) for u in uvecs]
    return [[ke * ku for ke in [fam.kappa_l2(e, pair) for e in evecs] for ku in u_row]
            for pair in pairs]


def factorwise_transfer_check(shape: fam.SplitShape, pairs: list[fam.LPair], vectors: list,
                              m: int, rp_field: ResidueParam) -> dict:
    """The positions of one vector list grouped by their two routes' rows, per scd2.

    Returns {scd2: {(per-factor row, closed row): [positions]}}.  A row
    holds its route's factors that read gamma, one int per pairing; the
    others make up its block sign and its e x u grid.  The per-factor row,
    factorwise_gamma_factor, reads no class sign; the closed rows,
    transfer_factor_sign, read scd2 = sgn_cd(w'') through eta[L2, gamma]
    and come one per scd2 from one call.  Both are built once per vector.
    The rows share only m = sgn(-1) and legendre.
    """
    groups = {1: {}, -1: {}}
    for position, gamma in enumerate(vectors):
        fw_row = tuple(factorwise_gamma_factor(shape, gamma, pairs, m, rp_field))
        rows = transfer_factor_sign(shape, gamma, pairs, m, rp_field)
        for scd2, by_rows in groups.items():
            by_rows.setdefault((fw_row, tuple(rows[scd2])), []).append(position)
    return groups


def _transfer_shapes(rrmax: int, q: int):
    """(r', r'') to R - r = rrmax: r = 0, 1, 2 to R - r = 2, then r = 0, and r = 1 at q = 5 only."""
    for rr in range(0, rrmax + 1, 2):
        rs = (0, 1, 2) if rr <= 2 else ((0, 1) if q == 5 else (0,))
        for r in rs:
            yield rr + r, r
            if rr:
                yield r, rr + r


def transfer_window(q, rrmax: int):
    """(field, m, shape, pairs, evecs, gammas, blocks) per (q, shape).

    A block is one (q, shape, beta', beta'', eta), in both branch-switch
    regimes and for small two-block class data.  evecs lists the sign
    vectors e, and gammas maps each sign target to its admissible vectors.
    A vector's block enters only through the target scd1 scd2 unit(eta), so
    each list is enumerated once per (q, shape, target), and transfer_points
    groups its vectors by their pair of rows once.  blocks lists
    (scd1, scd2, k_second, uvecs, etas) per (beta', beta''), with
    scd1 = sgn_cd(w'), scd2 = sgn_cd(w''), the block vectors u, whose second
    block K'' has the 1-based indices k_second, and etas, the two classes
    eta of the shape's valuation parity, each with its sign target.  A
    shape's vectors are dropped before the next shape enumerates its own.
    """
    beta_options = [Partition(), Partition([1])]
    for field in map(ResidueParam, q):
        m = sgn_minus_one(field)
        for rp, rpp in _transfer_shapes(rrmax, field.q):
            shape = fam.SplitShape(rp, rpp)
            pairs = fam.enumerate_L(shape)
            evecs = fam.enumerate_e(shape)
            gammas = {target: fam.enumerate_gamma(shape, field, target) for target in (1, -1)}
            blocks = []
            for beta1, beta2 in itertools.product(beta_options, repeat=2):
                scd1 = sgn_cd((Partition(), beta1))
                scd2 = sgn_cd((Partition(), beta2))
                t = beta1.length() + beta2.length()
                k_second = tuple(range(beta1.length() + 1, t + 1))
                uvecs = list(itertools.product((0, 1), repeat=t))
                etas = [(eta, scd1 * scd2 * eta.unit_sign)
                        for eta in (SquareClass(rpp % 2, ue) for ue in (1, -1))]
                blocks.append((scd1, scd2, k_second, uvecs, etas))
            yield field, m, shape, pairs, evecs, gammas, blocks
            # to bound peak memory, drop this shape's vectors before the next
            # shape builds its own
            del gammas


def transfer_points(q, rrmax: int):
    """Per-factor versus closed-form evaluation of the descent transfer factor.

    Each (beta', beta'', eta) block of each shape of transfer_window is
    checked.  A row is one assignment vector gamma of a block, and its
    points are every pairing times every sign vector e times every block
    vector u.  At a point each route's value is its block sign times its
    (gamma, pairing) factor times an e-part and a u-part, so each route
    does its work at three levels:

      * per shape and sign target: one factorwise_transfer_check over the
        target's vectors builds each vector's per-factor row and its closed
        rows, one per scd2 = sgn_cd(w''), with one gamma_L_split and one
        eta_of_L2 per pairing, which serves both scd2, only when B = 1, and
        groups the vectors' positions by their pair of rows.  The groups
        are dropped with the shape's vectors;
      * per block: each route's block sign (factorwise_block_sign,
        closed_block_sign), and per pairing its e x u grid, e first:
        factorwise_grids per eta, and closed_grids, which does not read
        eta, once per (q, shape, beta', beta'');
      * per pair of rows of the block's target and scd2: the verdict.

    A row passes when, for every pairing, the per-factor block sign times
    its entry times its grid equals the closed block sign times its entry
    times its grid, so within a block its verdict depends only on its pair
    of rows, and each pair is checked once.  A block is yielded as one
    batch; only the vectors of a failing pair are walked, in the vectors'
    order, pairing by pairing, then e, then u, for their failure records.

    The routes stay independent: each computes all of its own factors from
    the same ints m, scd1, scd2 and eta, and they share only the leaf
    primitive legendre.  No row, block sign, grid or verdict is computed by
    both sides, so a wrong formula on either side fails exactly the points
    at which the two routes' products differ.
    """
    for field, m, shape, pairs, evecs, gammas, blocks in transfer_window(q, rrmax):
        groups = {target: factorwise_transfer_check(shape, pairs, vectors, m, field)
                  for target, vectors in gammas.items()}
        for scd1, scd2, k_second, uvecs, etas in blocks:
            row_points = len(pairs) * len(evecs) * len(uvecs)
            cl_grids = closed_grids(pairs, evecs, uvecs, k_second)
            for eta, target in etas:
                vectors = gammas[target]
                fw_sign = factorwise_block_sign(shape, scd1, scd2, eta)
                cl_sign = closed_block_sign(shape, scd1, scd2, eta)
                # per pairing: each route's grid
                grids = list(zip(factorwise_grids(pairs, evecs, uvecs, k_second, eta), cl_grids))
                failing = sorted(
                    (position, fw_row, cl_row)
                    for (fw_row, cl_row), positions in groups[target][scd2].items()
                    if not all([fw_sign * fw * x for x in fw_grid]
                               == [cl_sign * cl * y for y in cl_grid]
                               for fw, cl, (fw_grid, cl_grid) in zip(fw_row, cl_row, grids))
                    for position in positions)
                yield row_points * len(vectors), tuple(
                    {"q": field.q, "rp": shape.rp, "rpp": shape.rpp, "scd1": scd1,
                     "scd2": scd2, "eta": eta.name(), "gamma": vectors[position].to_json(),
                     "e": list(e), "u": list(u), "pair": pair.to_json(),
                     "identity": "transfer", "lhs": fw_sign * fw * x,
                     "rhs": cl_sign * cl * y}
                    for position, fw_row, cl_row in failing
                    for pair, fw, cl, (fw_grid, cl_grid) in zip(pairs, fw_row, cl_row, grids)
                    for (e, u), x, y in zip(itertools.product(evecs, uvecs), fw_grid, cl_grid)
                    if fw_sign * fw * x != cl_sign * cl * y)
        # hold no vectors or groups past the shape, so that the window's drop frees them
        del gammas, groups, vectors
