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

Window operators and frames hold one complex array of shape (2^n, rows, cols)
(the layout of ``grassmann.grid_array``), rows and columns at the positions
``TruncationWindow.pos``.  Flows, the big-cell test, tau and the cocycle work
on these arrays through ``array_mul``; the public constructors take grids and
``entries`` reads one back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .errors import BigCellError, DimensionError, DomainError, NotInvertibleError, ParityError
from .grassmann import (Grid, GrassmannScalar, array_elements, array_grid, array_mul, as_grassmann,
                        grid_array, parity_violations)
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


# -- operators over the window ------------------------------------------------------


class _WindowArray:
    """A matrix over Lambda on window positions, held as one (2^n, rows, cols) array.

    The constructor takes a grid and converts it once; ``_of`` takes the array.
    """

    def __init__(self, window: TruncationWindow, n: int, entries: Grid):
        rows, cols = self._shape(window)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise DimensionError(f"{self._what} grid must be {rows}x{cols}")
        self.window, self.n, self.array = window, n, grid_array(entries, cols, n)

    @classmethod
    def _of(cls, window: TruncationWindow, n: int, array: np.ndarray):
        obj = cls.__new__(cls)
        obj.window, obj.n, obj.array = window, n, array
        return obj

    @property
    def entries(self) -> Grid:
        """The coefficients as a grid of elements, built from the array on each read."""
        return array_grid(self.array, self.n)


class WindowOperator(_WindowArray):
    """Matrix over Lambda acting on the window basis, rows and columns at ``window.pos``."""

    _what = "window operator"

    @staticmethod
    def _shape(window: TruncationWindow) -> Tuple[int, int]:
        return len(window.indices), len(window.indices)

    @classmethod
    def zero(cls, window: TruncationWindow, n: int) -> "WindowOperator":
        return cls._of(window, n, np.zeros((1 << n, *cls._shape(window)), dtype=complex))


# doubled row shift per column parity: kind -> m -> (even-column shift, odd-column shift)
_SHIFTS = {
    "z": lambda m: (2 * m, 2 * m),
    "ztheta": lambda m: (2 * m - 1, None),
    "lambda": lambda m: (-2 * m, None),
    "f": lambda m: (None, -2 * m + 1),
    "mu": lambda m: (None, -2 * m),
    "e": lambda m: (-2 * m - 1, None),
}


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
    op = WindowOperator.zero(window, n)
    cols = np.arange(len(window.indices))
    ds = np.array(window.indices)
    warn = False
    for (kind, m), coeff in symbol.items():
        coeff = as_grassmann(coeff, n)
        if not coeff.terms:
            continue
        if kind not in _SHIFTS:
            raise DomainError(f"unknown symbol kind {kind!r}")
        even_shift, odd_shift = _SHIFTS[kind](m)
        want = (even_shift if even_shift is not None else odd_shift) & 1
        if check_even and coeff.parity() != want:  # None (mixed) never matches
            raise ParityError(f"coefficient parity breaks evenness for {kind}({m})")
        vec = coeff.coeffs()[:, None]
        for parity, shift in enumerate((even_shift, odd_shift)):
            if shift is None:
                continue
            r = ds + shift
            c = cols[(ds & 1 == parity) & (-2 * window.M < r) & (r <= 2 * window.M)]
            op.array[:, c + shift, c] += vec  # pos(d + shift) = pos(d) + shift
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


class TruncatedFrame(_WindowArray):
    """Admissible-frame window: rows over the full window, columns over i <= 0."""

    _what = "frame"

    @staticmethod
    def _shape(window: TruncationWindow) -> Tuple[int, int]:
        return len(window.indices), len(window.neg_indices)

    def require_even(self) -> None:
        rds, cds = self.window.indices, self.window.neg_indices
        bad = parity_violations(self.array, [d & 1 for d in rds], [d & 1 for d in cds])
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ParityError(f"frame entry ({rds[i]/2}, {cds[j]/2}) has wrong parity")


def standard_frame(window: TruncationWindow, n: int) -> TruncatedFrame:
    h = 2 * window.M  # pos(d) = d + h - 1 is the same row and column for d <= 0
    D = np.zeros((1 << n, 2 * h, h), dtype=complex)
    D[0, :h] = np.eye(h)
    return TruncatedFrame._of(window, n, D)


def exp_band_apply(band: WindowOperator, frame: TruncatedFrame,
                   prefactor: float = 1.0) -> TruncatedFrame:
    """exp(prefactor * band) . frame = sum_k (prefactor^k / k!) band^k frame.

    Exact because the band is strictly triangular: band^k . frame vanishes
    for some k <= 4M, the window size.  Term k is (prefactor/k) band times
    term k - 1.
    """
    B = band.array
    rows, cols = B.any(axis=0).nonzero()
    if not ((rows < cols).all() or (rows > cols).all()):
        raise DomainError("band must be strictly triangular for an exact exponential")
    total = frame.array.copy()
    term = frame.array
    for k in range(1, B.shape[1] + 1):
        term = array_mul(B * (prefactor / k), term, frame.n)
        if not term.any():
            break
        total += term
    return TruncatedFrame._of(frame.window, frame.n, total)


# -- minus block and the big cell -----------------------------------------------------


def _super_permutation(window: TruncationWindow) -> Tuple[List[int], List[int]]:
    """(super ordered neg indices, positions in window order)."""
    ordered = sorted(window.neg_indices, key=lambda d: (d & 1, d))  # even lines first
    return ordered, [window.pos(d) for d in ordered]


def minus_block(frame: TruncatedFrame) -> SuperMatrix:
    """The square W_- piece as an even supermatrix (even lines first)."""
    _, perm = _super_permutation(frame.window)
    k = frame.window.M  # H_- has M even and M odd lines
    return SuperMatrix._of((k, k), (k, k), frame.n, frame.array[:, perm][:, :, perm])


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
    inv_perm = np.argsort(perm)
    T = Ainv.array[:, inv_perm][:, :, inv_perm]
    return True, TruncatedFrame._of(frame.window, frame.n, array_mul(frame.array, T, frame.n))


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
    columns = (array_elements(normalized.array[:, :, window.pos(d)], frame.n) for d in (0, -1))
    return tuple({d: e for d, e in zip(window.indices, col) if e.terms} for col in columns)


def baker_vectors(frame: TruncatedFrame) -> BakerVectors:
    """Columns 0 and -1/2 of the normalized frame, with the Berezinian-ratio route.

    Coefficient of e_i: ber(A_0(r_i))/ber(A) on the even column and
    ber*(A_{-1/2}(r_i))/ber*(A) on the odd column.
    """
    w_even, w_odd = _normalized_columns(frame)
    window = frame.window
    A = minus_block(frame)
    ordered, perm = _super_permutation(window)
    ber_A_inv = berezinian(A).invert()
    ber_star_A_inv = berezinian_star(A).invert()
    plus_rows = frame.array[:, 2 * window.M:][:, :, perm]  # rows i > 0, columns in super order
    evens = substitution_functional(A, ordered.index(0), star=False)(plus_rows)
    odds = substitution_functional(A, ordered.index(-1), star=True)(plus_rows)
    w_even_c: Dict[int, GrassmannScalar] = {}
    w_odd_c: Dict[int, GrassmannScalar] = {}
    for d, e, o in zip(window.pos_indices, evens, odds):
        ce = e * ber_A_inv
        co = o * ber_star_A_inv
        if ce.terms:
            w_even_c[d] = ce
        if co.terms:
            w_odd_c[d] = co
    return BakerVectors(window, w_even, w_odd, w_even_c, w_odd_c)


def baker_functions(frame: TruncatedFrame) -> Tuple[Dict[SymbolKey, GrassmannScalar],
                                                    Dict[SymbolKey, GrassmannScalar]]:
    """Baker vectors written as Laurent symbols via e_i = z^i, e_{i-1/2} = z^i theta."""
    # e_i has d = 2i and e_{i-1/2} has d = 2i - 1: both give the key ((d + 1) // 2, d & 1)
    return tuple({((d + 1) // 2, d & 1): v for d, v in col.items()}
                 for col in _normalized_columns(frame))


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
        """t_i z^-i for s2 = 2i and t_{i-1/2} z^-i theta for s2 = 2i - 1."""
        return {(-((s2 + 1) // 2), s2 & 1): c for s2, c in self.coeffs.items()}

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
            coeffs[-2 * m - t] = c
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
    return TruncatedFrame._of(window, frame.n, array_mul(op.array, frame.array, frame.n))


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
    return TruncatedFrame._of(window, n, frame.array + array_mul(op.array, frame.array, n))


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
        coeffs = np.zeros((1 << n, 2, size), dtype=complex)
        coeffs[0, 0, window.pos(-1)] = 1.0
        for k in range(1, window.M + 1):
            coeffs[0, 0, window.pos(2 * k - 1)] = coeffs[0, 1, window.pos(2 * k)] = u ** k
        ber_lambda, ber_deriv = sub_odd(array_mul(coeffs, wt.array, n)[:, :, perm])
        lhs_odd = (ber_lambda * phi + ber_deriv) * ber_star_At.invert()
        rhs_odd = eval_symbol(w_odd_sym, u)
        res_o = (lhs_odd - rhs_odd).norm_inf()
        report["even"][u] = res_e
        report["odd"][u] = res_o
        report["max_residual"] = max(report["max_residual"], res_e, res_o)
    return report


# -- the gl(infinity|infinity) cocycle -----------------------------------------------


def _supertrace(D: np.ndarray, n: int) -> GrassmannScalar:
    """Sum of the diagonal over even lines minus the sum over odd lines.

    D is the whole window, its H_- block or its H_+ block; each starts at an
    odd index (-2M + 1 or 1), so line i is even exactly when i is odd.  The
    terms are added in line order (``cumsum`` adds sequentially).
    """
    diag = np.diagonal(D, axis1=1, axis2=2)
    signed = np.where(np.arange(diag.shape[1]) & 1, diag, -diag)
    return array_elements(np.cumsum(signed, axis=1)[:, -1:], n)[0]


def _commutator(A: np.ndarray, B: np.ndarray, n: int) -> np.ndarray:
    return array_mul(A, B, n) - array_mul(B, A, n)


def cocycle(X: WindowOperator, Y: WindowOperator) -> GrassmannScalar:
    """c(X, Y) = Str(c_X b_Y) - Str(b_X c_Y) over the window blocks.

    Rows and columns [:h] are H_- (indices <= 0), [h:] are H_+, with h = 2M.
    """
    h, n = 2 * X.window.M, X.n
    b = lambda op: op.array[:, :h, h:]
    c = lambda op: op.array[:, h:, :h]
    plus = _supertrace(array_mul(c(X), b(Y), n), n)
    minus = _supertrace(array_mul(b(X), c(Y), n), n)
    return plus - minus


def cocycle_quarter_form(X: WindowOperator, Y: WindowOperator) -> GrassmannScalar:
    """(1/4) Str(J [J,X] [J,Y]), the equivalent supertrace form; J = +1 on H_-, -1 on H_+."""
    window, n = X.window, X.n
    h, size = 2 * window.M, len(window.indices)
    J = np.zeros((1 << n, size, size), dtype=complex)
    J[0] = np.diag([1.0] * h + [-1.0] * (size - h))
    JX = _commutator(J, X.array, n)
    JY = _commutator(J, Y.array, n)
    return _supertrace(array_mul(array_mul(J, JX, n), JY, n), n) * 0.25


def jheis_projected_action(window: TruncationWindow, sym: Mapping[SymbolKey, GrassmannScalar],
                           n: int) -> np.ndarray:
    """pi_- of multiplication by a symbol on H_- (the a-block, indices <= 0), as an array."""
    op, _ = multiplication_matrix(window, symbol_of_jheis(dict(sym)), n, check_even=False)
    h = 2 * window.M
    return op.array[:, :h, :h]


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
            frame.array[:, i, j] = (e * scale).coeffs()
    return frame
