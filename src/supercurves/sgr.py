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
``entries`` reads one back.  An even symbol of positive grade (a flow, its
exponential, a log) is a (2^n, grades) array, one column per grade, and its
window matrix is one scatter of those columns (``_band``), the same scatter
that places the dict symbols of ``multiplication_matrix``.  Dict symbols and
``HeisenbergElement`` are the edge; ``symbol_array`` converts and checks them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .errors import BigCellError, DimensionError, DomainError, NotInvertibleError, ParityError
from .grassmann import (Grid, GrassmannScalar, array_elements, array_grid, array_mul, as_grassmann,
                        grid_array, parity_violations)
from .supermatrix import SuperMatrix, cramer_ratios, exp_element, expand_left_map, invert_matrix, \
    log_berezinian

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


def _band(C: np.ndarray, parity: np.ndarray, shift: np.ndarray, span: int) -> np.ndarray:
    """The (2^n, span, span) array of a sum of shift operators on the first ``span`` positions.

    Column q of C (2^n, Q) sits at every slot (pos(d) + shift[q], pos(d))
    with d & 1 = parity[q], while both positions are below ``span``: the
    whole window for 4M, its H_- block for 2M.  Columns of one (parity,
    shift) fill the same slots, so they are summed first, in order; after
    that no slot is reached twice and the scatter is one assignment.
    """
    code = 2 * shift + parity
    order = np.argsort(code, kind="stable")
    code = code[order]
    starts = np.flatnonzero(np.diff(code, prepend=code[:1] - 1))  # where each group starts
    C, code = np.add.reduceat(C[:, order], starts, axis=1), code[starts]
    cols = np.arange(span)  # the doubled index at position p is odd for even p
    rows = cols + (code >> 1)[:, None]
    q, col = np.nonzero(((cols + 1) & 1 == (code & 1)[:, None]) & (rows >= 0) & (rows < span))
    D = np.zeros((len(C), span * span), dtype=complex)
    D[:, rows[q, col] * span + col] = C[:, q]
    return D.reshape(len(C), span, span)


def _symbol_columns(symbol: Mapping, n: int, check_even: bool):
    """The nonzero keys of a dict symbol as ``_band`` columns, and the widest shift.

    Returns (C, parity, shift, widest): a key that acts on both column
    parities gives two columns.
    """
    coeffs = {key: as_grassmann(c, n) for key, c in symbol.items()}
    keys = [key for key, c in coeffs.items() if c.terms]
    for kind, _ in keys:
        if kind not in _SHIFTS:
            raise DomainError(f"unknown symbol kind {kind!r}")
    pairs = [_SHIFTS[kind](m) for kind, m in keys]
    C = np.array([coeffs[key].coeffs() for key in keys], dtype=complex).reshape(len(keys), 1 << n).T
    if check_even:  # a mixed coefficient breaks either parity
        want = [(even if even is not None else odd) & 1 for even, odd in pairs]
        bad = parity_violations(C[:, None, :], [0], want)[0]
        if bad.any():
            kind, m = keys[int(bad.argmax())]
            raise ParityError(f"coefficient parity breaks evenness for {kind}({m})")
    entries = [(q, p, s) for q, pair in enumerate(pairs) for p, s in enumerate(pair) if s is not None]
    q, parity, shift = np.array(entries, dtype=np.intp).reshape(len(entries), 3).T
    return C[:, q], parity, shift, int(np.abs(shift).max(initial=0))


def multiplication_matrix(window: TruncationWindow, symbol: Mapping, n: int
                          ) -> Tuple[WindowOperator, bool]:
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
    C, parity, shift, widest = _symbol_columns(symbol, n, True)
    op = _band(C, parity, shift, len(window.indices))
    return WindowOperator._of(window, n, op), widest > 2 * window.M


def symbol_of_jheis(coeffs: Mapping[SymbolKey, GrassmannScalar]) -> Dict:
    """Convert {(m, theta_flag): coeff} into multiplication_matrix keys."""
    out = {}
    for (m, t), c in coeffs.items():
        out[("ztheta" if t else "z", m)] = c
    return out


# -- even symbols of positive grade as arrays -------------------------------------------


def symbol_array(symbol: Mapping[SymbolKey, GrassmannScalar], n: int) -> np.ndarray:
    """An even symbol of negative degree {(m, theta_flag): coeff} as a grade array.

    The grade of z^m theta^t is t - 2m: minus the doubled index shift of the
    key, so each grade holds one key, (-(j // 2), j & 1) for grade j, and
    grades add under products.  Column j of the (2^n, G) array holds the
    grade-j coefficient; column 0 is the grade-0 part, zero here.  A key of
    grade <= 0 raises DomainError and a coefficient of the wrong parity
    (that of t) ParityError.
    """
    grades = [t - 2 * m for m, t in symbol]
    if min(grades, default=1) <= 0:
        raise DomainError("symbol needs keys of negative degree")
    S = np.zeros((1 << n, max(grades, default=0) + 1), dtype=complex)
    for j, c in zip(grades, symbol.values()):
        S[:, j] = as_grassmann(c, n).coeffs()
    bad = parity_violations(S[:, None, :], [0], np.arange(S.shape[1]) & 1)[0]
    if bad.any():
        j = int(bad.argmax())
        raise ParityError(f"coefficient of key {(-(j // 2), j & 1)} breaks evenness")
    return S


def symbol_mul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Product of two even symbols held as grade arrays, (2^n, Ga + Gb - 1).

    theta^2 = 0 drops the products of two odd grades.  That is the only sign
    rule: of the coefficients of grades j and k one is even, so they commute
    and either moves past theta freely.
    """
    ga, gb = a.shape[1], b.shape[1]
    T = (expand_left_map(a[:, :, None], n) @ b).reshape(ga, 1 << n, gb)  # T[j, :, k] = a_j b_k
    j, k = np.ogrid[:ga, :gb]
    T *= ((j & k & 1) == 0)[:, None, :]
    out = np.zeros((1 << n, ga + gb - 1), dtype=complex)
    for j in range(ga):
        out[:, j:j + gb] += T[j]
    return out


def symbol_log_unipotent(u: np.ndarray, n: int) -> np.ndarray:
    """log(1 + u) for a symbol grade array u with nilpotent coefficients (terminating series).

    Every coefficient of u^(n+1) is a product of n + 1 bodiless elements of
    Lambda, so it vanishes; a symbol for which it does not raises.
    """
    out = np.zeros((1 << n, n * (u.shape[1] - 1) + 1), dtype=complex)
    power = u
    for k in range(1, n + 1):
        if not power.any():
            break
        out[:, :power.shape[1]] += power * ((-1) ** (k + 1) / k)
        power = symbol_mul(power, u, n)
    if power.any():
        raise DomainError("log series did not terminate; coefficients not nilpotent")
    return out


def symbol_exp(s: np.ndarray, n: int, order: int) -> np.ndarray:
    """exp(s) for an even symbol grade array s of positive grades, grades 0 to order - 1.

    With s_j the grade-j part and E_0 = 1, the grades of E = exp(s) follow
    E_k = (1/k) sum_j j s_j E_(k-j) (Brent & Kung, J. ACM 25, 1978), which
    holds because the even symbol s commutes with E; the pairs of two odd
    grades drop out, since theta^2 = 0.  Every step is one product of a
    stacked operator and a gathered vector: the left-multiplication operators
    of j s_j for the nonzero grades j, built by one gather
    (``expand_left_map``), side by side as a 2^n x (grades 2^n) matrix, times
    E_(k-j) stacked in the same order.  For odd k the pairs of two odd
    grades cannot occur; for even k the odd grades are left out.

    At n = 4 (a 2-core Xeon VM, numpy 2.4) one step takes 4-7 us.  The same
    recurrence through ``array_mul``, as a batch of 1 x 1 elements per grade,
    takes 52 us per call, so the up to 47 grades of a window of M = 12 would
    cost 2.4 ms, against 0.5-0.8 ms for the sparse dict recurrence it
    replaces.  The operators hold grades x 4^n complex numbers, fine at the n
    of the Grassmannian window, 8 or less.
    """
    dim = 1 << n
    s = s[:, :order]
    js = np.flatnonzero(s.any(axis=0))
    pad = int(js[-1]) if js.size else 0
    E = np.zeros((pad + order, dim), dtype=complex)  # row pad + k holds E_k; rows below pad are 0
    E[pad, 0] = 1.0
    ops = expand_left_map((s[:, js] * js)[:, None, :], n).reshape(dim, len(js), dim)
    even = js & 1 == 0
    steps = ((ops[:, even].reshape(dim, -1), js[even]), (ops.reshape(dim, -1), js))
    for k in range(1, order):
        W, grades = steps[k & 1]
        E[pad + k] = W @ E[pad + k - grades].ravel() / k
    return E[pad:].T


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
        """Largest coefficient of frame route minus Cramer route over every index d > 0 that
        either route holds, a missing entry counting as zero (d <= 0 is the unit minus block)."""
        worst = 0.0
        for frame_route, cramer in ((self.w_even, self.w_even_cramer),
                                    (self.w_odd, self.w_odd_cramer)):
            for d in frame_route.keys() | cramer.keys():
                if d > 0:
                    worst = max(worst, (frame_route.get(d, 0) - cramer.get(d, 0)).norm_inf())
        return worst

    def functions(self) -> Tuple[Dict[SymbolKey, GrassmannScalar], Dict[SymbolKey, GrassmannScalar]]:
        """The normalized-frame vectors as Laurent symbols, as ``baker_functions`` gives them."""
        return _laurent((self.w_even, self.w_odd))


def _normalized_columns(frame: TruncatedFrame) -> Tuple[Dict[int, GrassmannScalar],
                                                          Dict[int, GrassmannScalar]]:
    """Nonzero entries of columns 0 and -1/2 of the normalized frame W A^-1."""
    ok, normalized = big_cell_test(frame)
    if not ok:
        raise BigCellError("frame is not in the big cell")
    window = frame.window
    columns = (array_elements(normalized.array[:, :, window.pos(d)], frame.n) for d in (0, -1))
    return tuple({d: e for d, e in zip(window.indices, col) if e.terms} for col in columns)


def _laurent(columns) -> Tuple[Dict[SymbolKey, GrassmannScalar], ...]:
    """Window vectors {d: coefficient} as Laurent symbols via e_i = z^i, e_{i-1/2} = z^i theta."""
    # e_i has d = 2i and e_{i-1/2} has d = 2i - 1: both give the key ((d + 1) // 2, d & 1)
    return tuple({((d + 1) // 2, d & 1): v for d, v in col.items()} for col in columns)


def baker_vectors(frame: TruncatedFrame) -> BakerVectors:
    """Columns 0 and -1/2 of the normalized frame W A^-1 (A = W_-), and the same by Cramer's rule.

    Row r_i of W_+ gives the coefficient of e_i, i > 0, as the solution x of
    x A = r_i at the slots 0 and -1/2: ber(A_0(r_i))/ber(A) on the even
    column and ber*(A_{-1/2}(r_i))/ber*(A) on the odd one.  That route is one
    ``cramer_ratios`` call on all the rows, the rule ``solve_cramer`` runs,
    and takes nothing from ``invert_matrix`` or ``big_cell_test``, which
    normalize the frame for the other route.
    """
    w_even, w_odd = _normalized_columns(frame)
    window = frame.window
    ordered, perm = _super_permutation(window)
    plus_rows = frame.array[:, 2 * window.M:][:, :, perm]  # rows i > 0, columns in super order
    x = cramer_ratios(minus_block(frame), [ordered.index(0), ordered.index(-1)], plus_rows)
    w_even_c, w_odd_c = ({d: e for d, e in zip(window.pos_indices, array_elements(x[:, s], frame.n))
                          if e.terms} for s in (0, 1))
    return BakerVectors(window, w_even, w_odd, w_even_c, w_odd_c)


def baker_functions(frame: TruncatedFrame) -> Tuple[Dict[SymbolKey, GrassmannScalar],
                                                    Dict[SymbolKey, GrassmannScalar]]:
    """Baker vectors written as Laurent symbols via e_i = z^i, e_{i-1/2} = z^i theta."""
    return _laurent(_normalized_columns(frame))


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
    Each quotient is one exponential of a difference of ``log_berezinian``
    vectors, so no element arithmetic runs; tau* takes its own Schur pass
    (pivot X), so tau tau* = 1 stays a check.
    """
    frame.require_even()
    warn = t.max_shift() * 2 > frame.window.M
    A0 = minus_block(frame)
    try:
        base = [log_berezinian(A0, star) for star in (False, True)]
    except NotInvertibleError as exc:
        raise BigCellError("base frame is not in the big cell") from exc
    At = minus_block(flowed_frame(frame, t))
    try:
        flowed = [log_berezinian(At, star) for star in (False, True)]
    except NotInvertibleError:
        return TauValue(finite=False, tau=None, tau_star=None, truncation_warning=warn)
    value, value_star = (exp_element(s1 / s0, L1 - L0, frame.n)
                         for (s0, L0), (s1, L1) in zip(base, flowed))
    return TauValue(finite=True, tau=value, tau_star=value_star, truncation_warning=warn)


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
    span = len(window.indices)
    E = symbol_exp(-symbol_array(t.symbol(), n), n, span)
    # grade j shifts the lines of even d by -j, and those of odd d when j is even
    grades = np.concatenate([np.arange(span), np.arange(0, span, 2)])
    op = _band(E[:, grades], np.repeat([0, 1], [span, span // 2]), -grades, span)
    return TruncatedFrame._of(window, frame.n, array_mul(op, frame.array, frame.n))


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

    Even side: ber([Q_0 W_t]_-)/ber([W_t]_-) as an honest matrix computation,
    one exponential of a difference of ``log_berezinian`` vectors as in
    ``tau``.  Odd side: the ber*-row-substitution form of
    ber*([Q_1 W_t]_-)/ber*([W_t]_-) phi (the d/dphi column acts on nothing
    but the substituted row, so it contracts to two substituted Berezinians),
    one ``cramer_ratios`` call on the rows of every u.  Both are compared
    coefficientwise with the normalized-frame Baker functions evaluated at
    (u, phi).
    """
    window = frame.window
    n = frame.n
    if phi.terms and phi.parity() != 1:
        raise ParityError("phi must be odd")
    wt = flowed_frame(frame, t)
    w_even_sym, w_odd_sym = baker_functions(wt)  # raises BigCellError off the big cell
    At = minus_block(wt)
    scale_W, L_W = log_berezinian(At)

    def eval_symbol(sym: Dict[SymbolKey, GrassmannScalar], u: complex) -> GrassmannScalar:
        return sum((c * (u ** m) * phi if tflag else c * (u ** m) for (m, tflag), c in sym.items()),
                   GrassmannScalar.zero(n))

    # odd side: for each u the substituted rows r_-1/2 + sum_k u^k r_(k-1/2) and sum_k u^k r_k
    coeffs = np.zeros((1 << n, 2 * len(u_values), len(window.indices)), dtype=complex)
    for r, u in enumerate(u_values):
        coeffs[0, 2 * r, window.pos(-1)] = 1.0
        for k in range(1, window.M + 1):
            coeffs[0, 2 * r, window.pos(2 * k - 1)] = coeffs[0, 2 * r + 1, window.pos(2 * k)] = u ** k
    ordered, perm = _super_permutation(window)
    odd = array_elements(cramer_ratios(At, [ordered.index(-1)],
                                       array_mul(coeffs, wt.array, n)[:, :, perm])[:, 0], n)

    report = {"even": {}, "odd": {}, "max_residual": 0.0}
    for r, u in enumerate(u_values):
        scale_Q, L_Q = log_berezinian(minus_block(_apply_q0(window, u, phi, wt)))
        res_e = (exp_element(scale_Q / scale_W, L_Q - L_W, n) - eval_symbol(w_even_sym, u)).norm_inf()
        res_o = (odd[2 * r] * phi + odd[2 * r + 1] - eval_symbol(w_odd_sym, u)).norm_inf()
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
    """pi_- of multiplication by a symbol on H_- (the a-block, indices <= 0), as an array.

    The scatter writes the H_- block alone, never the whole window.
    """
    C, parity, shift, _ = _symbol_columns(symbol_of_jheis(dict(sym)), n, False)
    return _band(C, parity, shift, 2 * window.M)


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
