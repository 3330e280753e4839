"""Finite-rank truncation of the super Grassmannian.

The ambient module has basis e_i = z^i (integer i) and e_{i-1/2} = z^i theta,
indexed by half-integers.  Internally every index is doubled (d = 2i) so that
even d labels the z-lines and odd d the theta-lines.  A truncation window M
keeps -M < i <= M; frames have rows over the whole window and columns over the
non-positive indices, and the "minus" block of a frame is the square piece the
Berezinian ratios act on.

Truncation replaces the trace-class analysis of the infinite theory:
admissibility is automatic at finite rank, flows are band matrices whose
exponentials terminate inside the window, and window-edge effects are the sole
discretization error (monitored, never silently ignored).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from .errors import BigCellError, DimensionError, DomainError, NotInvertibleError, ParityError
from .grassmann import Grid, GrassmannScalar, as_grassmann, grid_mul, grid_zeros
from .supermatrix import (
    SuperMatrix,
    berezinian,
    berezinian_star,
    invert_matrix,
    substitution_functional,
)

SymbolKey = Tuple[int, int]          # (z power, theta flag)


@dataclass(frozen=True)
class TruncationWindow:
    """Symmetric index window -M < i <= M over the half-integers (doubled ints)."""

    M: int

    def __post_init__(self):
        if self.M < 2:
            raise DimensionError("window must satisfy M >= 2")

    @property
    def indices(self) -> List[int]:
        return list(range(-2 * self.M + 1, 2 * self.M + 1))

    @property
    def neg_indices(self) -> List[int]:
        return list(range(-2 * self.M + 1, 1))

    @property
    def pos_indices(self) -> List[int]:
        return list(range(1, 2 * self.M + 1))

    def contains(self, d: int) -> bool:
        return -2 * self.M < d <= 2 * self.M

    def pos(self, d: int) -> int:
        """Position of the doubled index d in ``indices`` (and in ``neg_indices``)."""
        return d + 2 * self.M - 1

    @staticmethod
    def parity(d: int) -> int:
        return d & 1

    def super_order(self, ds: Sequence[int]) -> List[int]:
        """Even indices first (ascending), then odd indices (ascending)."""
        evens = [d for d in ds if d % 2 == 0]
        odds = [d for d in ds if d % 2]
        return evens + odds


# -- operators over the window ------------------------------------------------------


@dataclass
class WindowOperator:
    """Matrix over Lambda acting on the window basis: a grid indexed by ``window.pos``."""

    window: TruncationWindow
    n: int
    entries: Grid

    @classmethod
    def zero(cls, window: TruncationWindow, n: int) -> "WindowOperator":
        size = len(window.indices)
        return cls(window, n, grid_zeros(size, size, n))


def multiplication_matrix(window: TruncationWindow, symbol: Mapping, n: int,
                          check_even: bool = True) -> Tuple[WindowOperator, bool]:
    """Band matrix of a multiplication/derivation symbol in the e-basis.

    ``symbol`` maps keys to Lambda coefficients; supported keys:
      ("z", m)        multiplication by z^m          (even coefficient)
      ("ztheta", m)   multiplication by z^m theta    (odd coefficient)
      ("lambda", nn)  z^-nn (1 - theta d/dtheta)
      ("f", nn)       z^-nn d/dtheta
      ("mu", nn)      z^-nn theta d/dtheta
      ("e", nn)       z^-nn theta

    Returns the operator and a truncation-warning flag set when the band is
    too wide for the window (shifts larger than half the window span).
    """
    # doubled row shift per column parity: kind -> (even-column shift, odd-column shift)
    def shifts(kind: str, m: int):
        if kind == "z":
            return 2 * m, 2 * m
        if kind == "ztheta":
            return 2 * m - 1, None
        if kind == "lambda":
            return -2 * m, None
        if kind == "f":
            return None, -2 * m + 1
        if kind == "mu":
            return None, -2 * m
        if kind == "e":
            return -2 * m - 1, None
        raise DomainError(f"unknown symbol kind {kind!r}")

    op = WindowOperator.zero(window, n)
    grid = op.entries
    pos = window.pos
    warn = False
    inside = window.contains
    for (kind, m), coeff in symbol.items():
        coeff = as_grassmann(coeff, n)
        if not coeff.terms:
            continue
        even_shift, odd_shift = shifts(kind, m)
        if check_even:
            any_shift = even_shift if even_shift is not None else odd_shift
            want = any_shift & 1
            par = coeff.parity()
            if par is None or par != want:
                raise ParityError(f"coefficient parity breaks evenness for {kind}({m})")
        for d in window.indices:
            shift = even_shift if d % 2 == 0 else odd_shift
            if shift is None:
                continue
            r = d + shift
            if inside(r):
                grid[pos(r)][pos(d)] = grid[pos(r)][pos(d)] + coeff
        max_shift = max(abs(s) for s in (even_shift, odd_shift) if s is not None)
        if max_shift > 2 * window.M:
            warn = True  # band wider than half the window: edge effects dominate
    return op, warn


def symbol_of_jheis(coeffs: Mapping[SymbolKey, GrassmannScalar]) -> Dict:
    """Convert {(m, theta_flag): coeff} into multiplication_matrix keys."""
    out = {}
    for (m, t), c in coeffs.items():
        out[("ztheta" if t else "z", m)] = c
    return out


# -- symbols in Lambda[z, z^-1, theta] --------------------------------------------------


def _accumulate(out: Dict[SymbolKey, GrassmannScalar], key: SymbolKey,
                c: GrassmannScalar) -> None:
    """out[key] += c, keeping only nonzero coefficients."""
    s = out[key] + c if key in out else c
    if s.terms:
        out[key] = s
    else:
        out.pop(key, None)


def symbol_mul(a: Mapping[SymbolKey, GrassmannScalar], b: Mapping[SymbolKey, GrassmannScalar],
               n: int) -> Dict[SymbolKey, GrassmannScalar]:
    """Product of Laurent symbols; theta^2 = 0 and coefficients supercommute past theta."""
    out: Dict[SymbolKey, GrassmannScalar] = {}
    for (m1, t1), c1 in a.items():
        for (m2, t2), c2 in b.items():
            if t1 and t2:
                continue
            c = c1 * c2
            if t1 and c2.terms:
                par = c2.parity()
                if par is None:
                    raise ParityError("mixed-parity symbol coefficient")
                if par == 1:
                    c = -c1 * c2  # move c2 past theta
            _accumulate(out, (m1 + m2, t1 | t2), c)
    return out


def symbol_log_unipotent(u: Mapping[SymbolKey, GrassmannScalar],
                         n: int) -> Dict[SymbolKey, GrassmannScalar]:
    """log(1 + u) for a symbol u with nilpotent coefficients (terminating series).

    Every coefficient of u^(n+1) is a product of n + 1 bodiless elements of
    Lambda, so it vanishes; a symbol for which it does not raises.
    """
    out: Dict[SymbolKey, GrassmannScalar] = {}
    power = dict(u)
    sign = 1.0
    for k in range(1, n + 1):
        if not power:
            break
        for key, c in power.items():
            _accumulate(out, key, c * (sign / k))
        power = symbol_mul(power, u, n)
        sign = -sign
    if power:
        raise DomainError("log series did not terminate; coefficients not nilpotent")
    return out


def symbol_exp(s: Mapping[SymbolKey, GrassmannScalar], n: int,
               order: int) -> Dict[SymbolKey, GrassmannScalar]:
    """exp(s) for an even symbol of negative degree, without the terms of grade >= order.

    The grade of z^m is -2m and of z^m theta is 1 - 2m: minus the doubled
    index shift of the key, so each grade holds one key and grades add under
    ``symbol_mul``.  With s_j the grade-j part and E_0 = 1, the grades of
    E = exp(s) follow E_k = (1/k) sum_j j s_j E_(k-j) (Brent & Kung, J. ACM 25,
    1978), which holds because the even symbol s commutes with E.
    """
    parts = {}
    for (m, t), c in s.items():
        j = t - 2 * m
        if j <= 0:
            raise DomainError("symbol_exp needs keys of negative degree")
        if c.terms and c.parity() != t:
            raise ParityError(f"coefficient of key {(m, t)} breaks evenness")
        parts[j] = {(m, t): c}
    grades: List[Dict[SymbolKey, GrassmannScalar]] = [{(0, 0): GrassmannScalar.one(n)}]
    for k in range(1, order):
        Ek: Dict[SymbolKey, GrassmannScalar] = {}
        for j, sj in parts.items():
            if j <= k:
                for key, c in symbol_mul(sj, grades[k - j], n).items():
                    _accumulate(Ek, key, c * (j / k))
        grades.append(Ek)
    return {key: c for Ek in grades for key, c in Ek.items()}


# -- frames ------------------------------------------------------------------------------


@dataclass
class TruncatedFrame:
    """Admissible-frame window: rows over the full window, columns over i <= 0."""

    window: TruncationWindow
    n: int
    entries: Grid

    def __post_init__(self):
        rows = len(self.window.indices)
        cols = len(self.window.neg_indices)
        if len(self.entries) != rows or any(len(r) != cols for r in self.entries):
            raise DimensionError(f"frame grid must be {rows}x{cols}")

    def require_even(self) -> None:
        rds = self.window.indices
        cds = self.window.neg_indices
        for i, rd in enumerate(rds):
            for j, cd in enumerate(cds):
                e = self.entries[i][j]
                if not e.terms:
                    continue
                if e.parity() != ((rd + cd) & 1):
                    raise ParityError(f"frame entry ({rd/2}, {cd/2}) has wrong parity")


def standard_frame(window: TruncationWindow, n: int) -> TruncatedFrame:
    ent = grid_zeros(len(window.indices), len(window.neg_indices), n)
    one = GrassmannScalar.one(n)
    for d in window.neg_indices:
        ent[window.pos(d)][window.pos(d)] = one
    return TruncatedFrame(window, n, ent)


def exp_band_apply(band: WindowOperator, frame: TruncatedFrame,
                   prefactor: float = 1.0) -> TruncatedFrame:
    """exp(prefactor * band) . frame = sum_k (prefactor^k / k!) band^k frame.

    Exact because the band is strictly triangular: band^k . frame vanishes
    for some k <= 4M, the window size.  Term k is (prefactor/k) band times
    term k - 1; only the band's nonzero entries are scaled.
    """
    B = band.entries
    nonzero = [(i, j, e) for i, row in enumerate(B) for j, e in enumerate(row) if e.terms]
    if not (all(i < j for i, j, _ in nonzero) or all(i > j for i, j, _ in nonzero)):
        raise DomainError("band must be strictly triangular for an exact exponential")
    total = [list(row) for row in frame.entries]
    term = frame.entries
    for k in range(1, len(B) + 1):
        step = grid_zeros(len(B), len(B), frame.n)
        for i, j, e in nonzero:
            step[i][j] = e * (prefactor / k)
        term = grid_mul(step, term, frame.n)
        added = False
        for trow, row in zip(total, term):
            for j, e in enumerate(row):
                if e.terms:
                    trow[j] = trow[j] + e
                    added = True
        if not added:
            break
    return TruncatedFrame(frame.window, frame.n, total)


# -- minus block and the big cell -----------------------------------------------------


def _super_permutation(window: TruncationWindow) -> Tuple[List[int], List[int]]:
    """(super ordered neg indices, positions in window order)."""
    ordered = window.super_order(window.neg_indices)
    return ordered, [window.pos(d) for d in ordered]


def minus_block(frame: TruncatedFrame) -> SuperMatrix:
    """The square W_- piece as an even supermatrix (even lines first)."""
    _, perm = _super_permutation(frame.window)
    k = frame.window.M  # H_- has M even and M odd lines
    grid = [[frame.entries[r][c] for c in perm] for r in perm]
    return SuperMatrix((k, k), (k, k), grid)


def reorder_row_to_super(frame: TruncatedFrame, d: int) -> List[GrassmannScalar]:
    """Row of the frame at window index d, columns in super (even-first) order."""
    _, perm = _super_permutation(frame.window)
    row = frame.entries[frame.window.pos(d)]
    return [row[p] for p in perm]


def big_cell_test(frame: TruncatedFrame) -> Tuple[bool, TruncatedFrame | None]:
    """True iff A = W_- is invertible over Lambda; also returns W A^-1 when it is.

    The decision is the body test of ``invert_matrix``.
    """
    frame.require_even()
    try:
        Ainv = invert_matrix(minus_block(frame))
    except NotInvertibleError:
        return False, None
    # back to window column order
    _, perm = _super_permutation(frame.window)
    inv_perm = sorted(range(len(perm)), key=perm.__getitem__)
    T = [[Ainv.entries[r][c] for c in inv_perm] for r in inv_perm]
    return True, TruncatedFrame(frame.window, frame.n, grid_mul(frame.entries, T, frame.n))


@dataclass
class BakerVectors:
    """Even and odd Baker vectors, from the normalized frame and the Cramer route."""

    window: TruncationWindow
    w_even: Dict[int, GrassmannScalar]
    w_odd: Dict[int, GrassmannScalar]
    w_even_cramer: Dict[int, GrassmannScalar]
    w_odd_cramer: Dict[int, GrassmannScalar]

    def route_discrepancy(self) -> float:
        worst = 0.0
        for d, v in self.w_even_cramer.items():
            worst = max(worst, (self.w_even.get(d, v * 0) - v).norm_inf())
        for d, v in self.w_odd_cramer.items():
            worst = max(worst, (self.w_odd.get(d, v * 0) - v).norm_inf())
        return worst


def _normalized_columns(frame: TruncatedFrame) -> Tuple[Dict[int, GrassmannScalar],
                                                          Dict[int, GrassmannScalar]]:
    """Nonzero entries of columns 0 and -1/2 of the normalized frame W A^-1."""
    ok, normalized = big_cell_test(frame)
    if not ok:
        raise BigCellError("frame is not in the big cell")
    window = frame.window
    return tuple({d: row[c] for d, row in zip(window.indices, normalized.entries)
                  if row[c].terms} for c in (window.pos(0), window.pos(-1)))


def baker_vectors(frame: TruncatedFrame) -> BakerVectors:
    """Columns 0 and -1/2 of the normalized frame, with the Berezinian-ratio route.

    Coefficient of e_i: ber(A_0(r_i))/ber(A) on the even column and
    ber*(A_{-1/2}(r_i))/ber*(A) on the odd column.
    """
    w_even, w_odd = _normalized_columns(frame)
    window = frame.window
    A = minus_block(frame)
    ordered, _ = _super_permutation(window)
    pos0 = ordered.index(0)
    posm1 = ordered.index(-1)
    ber_A_inv = berezinian(A).invert()
    ber_star_A_inv = berezinian_star(A).invert()
    sub_even = substitution_functional(A, pos0, star=False)
    sub_odd = substitution_functional(A, posm1, star=True)
    w_even_c: Dict[int, GrassmannScalar] = {}
    w_odd_c: Dict[int, GrassmannScalar] = {}
    for d in window.pos_indices:
        r = reorder_row_to_super(frame, d)
        ce = sub_even(r) * ber_A_inv
        co = sub_odd(r) * ber_star_A_inv
        if ce.terms:
            w_even_c[d] = ce
        if co.terms:
            w_odd_c[d] = co
    return BakerVectors(window, w_even, w_odd, w_even_c, w_odd_c)


def baker_functions(frame: TruncatedFrame) -> Tuple[Dict[SymbolKey, GrassmannScalar],
                                                    Dict[SymbolKey, GrassmannScalar]]:
    """Baker vectors written as Laurent symbols via e_i = z^i, e_{i-1/2} = z^i theta."""
    w_even, w_odd = _normalized_columns(frame)

    def to_symbol(col: Dict[int, GrassmannScalar]) -> Dict[SymbolKey, GrassmannScalar]:
        out: Dict[SymbolKey, GrassmannScalar] = {}
        for d, v in col.items():
            if d % 2 == 0:
                out[(d // 2, 0)] = v
            else:
                out[((d + 1) // 2, 1)] = v
        return out

    return to_symbol(w_even), to_symbol(w_odd)


# -- Heisenberg flows and tau functions --------------------------------------------------


@dataclass
class HeisenbergElement:
    """Finitely supported flow coefficients t_s, s > 0 in (1/2) Z (doubled keys).

    Even s2 = 2i pairs with multiplication by z^-i (even coefficient); odd
    s2 = 2i-1 pairs with z^-i theta (odd coefficient).
    """

    n: int
    coeffs: Dict[int, GrassmannScalar] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for s2, c in self.coeffs.items():
            if s2 <= 0:
                raise DimensionError("flow indices must be positive")
            c = as_grassmann(c, self.n)
            if not c.terms:
                continue
            want = s2 & 1
            par = c.parity()
            if par is None or par != want:
                raise ParityError(f"flow t_{s2 / 2} must have parity {want}")
            clean[s2] = c
        self.coeffs = clean

    def symbol(self) -> Dict[SymbolKey, GrassmannScalar]:
        out: Dict[SymbolKey, GrassmannScalar] = {}
        for s2, c in self.coeffs.items():
            if s2 % 2 == 0:
                out[(-s2 // 2, 0)] = c
            else:
                out[(-(s2 + 1) // 2, 1)] = c
        return out

    def max_shift(self) -> int:
        """Largest doubled band shift of the flow generator."""
        worst = 0
        for s2 in self.coeffs:
            worst = max(worst, s2 if s2 % 2 == 0 else s2 + 2)
        return worst

    def __add__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        out = dict(self.coeffs)
        for s2, c in other.coeffs.items():
            cur = out.get(s2)
            out[s2] = c if cur is None else cur + c
        return HeisenbergElement(self.n, out)

    @classmethod
    def from_symbol(cls, sym: Mapping[SymbolKey, GrassmannScalar], n: int) -> "HeisenbergElement":
        coeffs: Dict[int, GrassmannScalar] = {}
        for (m, t), c in sym.items():
            if m >= 0:
                raise DimensionError("flow symbols live in z^-1 Lambda[z^-1, theta]")
            coeffs[-2 * m if t == 0 else -2 * m - 1] = c
        return cls(n, coeffs)


def flow_band(window: TruncationWindow, t: HeisenbergElement) -> Tuple[WindowOperator, bool]:
    return multiplication_matrix(window, symbol_of_jheis(t.symbol()), t.n)


@dataclass
class TauValue:
    """tau and tau* of a flowed frame; finite=False flags leaving the big cell."""

    finite: bool
    tau: GrassmannScalar | None
    tau_star: GrassmannScalar | None
    truncation_warning: bool = False


def tau(frame: TruncatedFrame, t: HeisenbergElement) -> TauValue:
    """tau_W(t) = ber([gamma(t)^-1 W]_-) / ber(W_-), and the ber* variant.

    Both big-cell decisions are the Berezinian's body test: a base frame
    outside the big cell raises, a flowed one gives finite=False.  The warning
    (a flow shift above half the window) covers ``flow_band``'s band-width flag.
    """
    frame.require_even()
    warn = t.max_shift() * 2 > frame.window.M
    A0 = minus_block(frame)
    try:
        ber0, ber0_star = berezinian(A0), berezinian_star(A0)
    except NotInvertibleError as exc:
        raise BigCellError("base frame is not in the big cell") from exc
    At = minus_block(flowed_frame(frame, t))
    try:
        value, value_star = berezinian(At), berezinian_star(At)
    except NotInvertibleError:
        return TauValue(finite=False, tau=None, tau_star=None, truncation_warning=warn)
    return TauValue(finite=True, tau=value * ber0.invert(), tau_star=value_star * ber0_star.invert(),
                    truncation_warning=warn)


def flowed_frame(frame: TruncatedFrame, t: HeisenbergElement) -> TruncatedFrame:
    """gamma(t)^-1 . W inside the window, as one product.

    gamma(t)^-1 is multiplication by the symbol exp(-t), whose terms of grade
    4M and more shift every index out of the window.  The flow band B is
    strictly triangular, so every intermediate index of a product of its
    entries lies between the outer two; restricting to the contiguous window
    P therefore commutes with products, P exp(-B) P = exp(-P B P).  So the
    window matrix of exp(-t) equals the band exponential of ``exp_band_apply``,
    which stays as the independent route.
    """
    window, n = frame.window, t.n
    gamma_inv = symbol_exp({key: -c for key, c in t.symbol().items()}, n, len(window.indices))
    op, _ = multiplication_matrix(window, symbol_of_jheis(gamma_inv), n)
    return TruncatedFrame(window, frame.n, grid_mul(op.entries, frame.entries, frame.n))


# -- Baker-tau quotient ---------------------------------------------------------------


def _apply_q0(window: TruncationWindow, u: complex, phi: GrassmannScalar,
              frame: TruncatedFrame) -> TruncatedFrame:
    """Q_0(u, phi) W within the window: rows r_i + sum u^k (r_{i+k} - phi r_{i+k-1/2}).

    Q_0 - 1 is the band sum_k u^k (lambda_k - phi f_k), one operator applied by
    one product.  The odd parameter multiplies the shifted theta-rows from the
    left (left row-multiples are the Berezinian-preserving operations); the
    sign makes the quotient agree with the coefficient-then-theta ordering of
    the Baker functions.
    """
    n = frame.n
    sym: Dict = {}
    for nn in range(1, 2 * window.M + 1):
        c = u ** nn
        if c == 0:
            break
        sym[("lambda", nn)] = GrassmannScalar.scalar(n, c)
        if phi.terms:
            sym[("f", nn)] = phi * (-c)
    op, _ = multiplication_matrix(window, sym, n)
    shifted = grid_mul(op.entries, frame.entries, n)
    return TruncatedFrame(window, n, [[a + b if b.terms else a for a, b in zip(ra, rb)]
                                      for ra, rb in zip(frame.entries, shifted)])


def baker_tau_quotient_check(frame: TruncatedFrame, t: HeisenbergElement,
                             u_values: Sequence[complex],
                             phi: GrassmannScalar) -> dict:
    """Residuals of w(t; u, phi) = tau(t; Q)/tau(t) against the Baker vectors.

    Even side: ber([Q_0 W_t]_-)/ber([W_t]_-) as an honest matrix computation.
    Odd side: the ber*-row-substitution form of ber*([Q_1 W_t]_-) phi (the
    d/dphi column acts on nothing but the substituted row, so it contracts to
    two substituted Berezinians).  Both are compared coefficientwise with the
    normalized-frame Baker functions evaluated at (u, phi).
    """
    window = frame.window
    n = frame.n
    if phi.terms and phi.parity() != 1:
        raise ParityError("phi must be odd")
    wt = flowed_frame(frame, t)
    w_even_sym, w_odd_sym = baker_functions(wt)  # raises BigCellError off the big cell
    At = minus_block(wt)
    ber_At = berezinian(At)
    ber_star_At = berezinian_star(At)

    def eval_symbol(sym: Dict[SymbolKey, GrassmannScalar], u: complex) -> GrassmannScalar:
        acc = GrassmannScalar.zero(n)
        for (m, tflag), c in sym.items():
            term = c * (u ** m)
            if tflag:
                term = term * phi
            acc = acc + term
        return acc

    ordered, perm = _super_permutation(window)
    posm1 = ordered.index(-1)
    sub_odd = substitution_functional(At, posm1, star=True)
    size = len(window.indices)

    report = {"even": {}, "odd": {}, "max_residual": 0.0}
    for u in u_values:
        # even: full matrix route
        q0w = _apply_q0(window, u, phi, wt)
        lhs_even = berezinian(minus_block(q0w)) * ber_At.invert()
        rhs_even = eval_symbol(w_even_sym, u)
        res_e = (lhs_even - rhs_even).norm_inf()
        # odd: substituted-row route for ber*([Q_1 W]_-) phi; the substituted
        # rows are r_-1/2 + sum_k u^k r_(k-1/2) and sum_k u^k r_k
        coeffs = [[0j] * size for _ in range(2)]
        coeffs[0][window.pos(-1)] = 1.0
        for k in range(1, window.M + 1):
            coeffs[0][window.pos(2 * k - 1)] = coeffs[1][window.pos(2 * k)] = u ** k
        r_lambda, r_deriv = ([row[p] for p in perm]
                             for row in grid_mul(coeffs, wt.entries, n))
        lhs_odd = (sub_odd(r_lambda) * phi + sub_odd(r_deriv)) * ber_star_At.invert()
        rhs_odd = eval_symbol(w_odd_sym, u)
        res_o = (lhs_odd - rhs_odd).norm_inf()
        report["even"][u] = res_e
        report["odd"][u] = res_o
        report["max_residual"] = max(report["max_residual"], res_e, res_o)
    return report


# -- the gl(infinity|infinity) cocycle -----------------------------------------------


def _supertrace(G: Grid, n: int) -> GrassmannScalar:
    """Sum of the diagonal over even lines minus the sum over odd lines.

    G is the whole window, its H_- block or its H_+ block; each starts at an
    odd index (-2M + 1 or 1), so line i is even exactly when i is odd.
    """
    acc = GrassmannScalar.zero(n)
    for i, row in enumerate(G):
        acc = acc + row[i] if i & 1 else acc - row[i]
    return acc


def _commutator(A: Grid, B: Grid, n: int) -> Grid:
    return [[p - q for p, q in zip(rp, rq)]
            for rp, rq in zip(grid_mul(A, B, n), grid_mul(B, A, n))]


def cocycle(X: WindowOperator, Y: WindowOperator) -> GrassmannScalar:
    """c(X, Y) = Str(c_X b_Y) - Str(b_X c_Y) over the window blocks.

    Rows and columns [:h] are H_- (indices <= 0), [h:] are H_+, with h = 2M.
    """
    h, n = 2 * X.window.M, X.n
    b = lambda op: [row[h:] for row in op.entries[:h]]
    c = lambda op: [row[:h] for row in op.entries[h:]]
    plus = _supertrace(grid_mul(c(X), b(Y), n), n)
    minus = _supertrace(grid_mul(b(X), c(Y), n), n)
    return plus - minus


def cocycle_quarter_form(X: WindowOperator, Y: WindowOperator) -> GrassmannScalar:
    """(1/4) Str(J [J,X] [J,Y]), the equivalent supertrace form; J = +1 on H_-, -1 on H_+."""
    window, n = X.window, X.n
    h, size = 2 * window.M, len(window.indices)
    J = [[(1.0 if i < h else -1.0) if i == j else 0.0 for j in range(size)]
         for i in range(size)]
    JX = _commutator(J, X.entries, n)
    JY = _commutator(J, Y.entries, n)
    return _supertrace(grid_mul(grid_mul(J, JX, n), JY, n), n) * 0.25


def jheis_projected_action(window: TruncationWindow, sym: Mapping[SymbolKey, GrassmannScalar],
                           n: int) -> Grid:
    """pi_- of multiplication by a symbol, restricted to H_- (the a-block, indices <= 0)."""
    op, _ = multiplication_matrix(window, symbol_of_jheis(dict(sym)), n, check_even=False)
    h = 2 * window.M
    return [row[:h] for row in op.entries[:h]]


def jheis_commutator_supertrace(window: TruncationWindow,
                                sym_minus: Mapping[SymbolKey, GrassmannScalar],
                                sym_plus: Mapping[SymbolKey, GrassmannScalar],
                                n: int) -> GrassmannScalar:
    """Str_{H_-}([f_-, f_+]) for projected multiplication actions (vanishes)."""
    f_minus = jheis_projected_action(window, sym_minus, n)
    f_plus = jheis_projected_action(window, sym_plus, n)
    return _supertrace(_commutator(f_minus, f_plus, n), n)


# -- random frames ------------------------------------------------------------------------


def random_big_cell_frame(rng, window: TruncationWindow, n: int, scale: float = 0.25,
                          bandwidth: int = 2) -> TruncatedFrame:
    """Identity-plus-band frame; small coefficients keep it in the big cell."""
    from .grassmann import random_element

    frame = standard_frame(window, n)
    rows = window.indices
    for i, rd in enumerate(rows):
        for j, cd in enumerate(window.neg_indices):
            if rd == cd:
                continue
            if abs(rd - cd) > 2 * bandwidth:
                continue
            parity = (rd + cd) & 1
            e = random_element(rng, n, parity=parity, scale=scale)
            if parity == 0:
                e = e - e.body  # keep the body on the diagonal only
            frame.entries[i][j] = e * scale
    return frame
