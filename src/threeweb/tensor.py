"""Tensor pipeline: web plus admissible points -> TensorSnapshot.

Everything is computed from the degree-3 jets of the two defining functions
at the point, so the only numeric error anywhere is float roundoff:

    fbar[i][j] = df^i/dx^j           ftilde[i][j] = df^i/dy^j
    gbar = fbar^-1                   gtilde = ftilde^-1
    gamma[i][j][k] = - sum_{l,m} (d2 f^i/dx^l dy^m) gbar[l][j] gtilde[m][k]
    torsion[i][j][k] = (gamma[i][j][k] - gamma[i][k][j]) / 2
    a_cov[j] = 2 * sum_m torsion[m][j][m]

    b[i][j][k][l] = 1/2 ( D1_j gamma[i][k][l] + D1_k gamma[i][j][l]
                          - D2_l gamma[i][k][j] - D2_j gamma[i][k][l]
                          + gamma[m][j][l] gamma[i][k][m]
                          - gamma[m][k][j] gamma[i][m][l]
                          + 2 gamma[m][k][l] torsion[i][m][j] )

    p[i][k] = D1_k a_cov[i] - a_cov[j] gamma[j][k][i]
    q[i][k] = D2_k a_cov[i] - a_cov[j] gamma[j][i][k]

where D1_j = gbar[m][j] d/dx^m and D2_j = gtilde[m][j] d/dy^m are the frame
directional derivatives dual to the base forms of the first two foliations;
D gamma follows from the partials of f by the closed form
d(gbar) = -gbar d(fbar) gbar (likewise for gtilde), which makes it the third
partials of f in the frame plus gamma times the Hessian of f in the frame.
Then:

    h2 = 1/4 * sym3(b)^k_{kij} - 1/3 (p + q)      (sym3 = mean over the six
    f2 = p + h2,  g2 = q + h2,  s = f2 + g2 + h2   permutations of jkl)
    a4[i][j][k][l] = sym3(b)[i][j][k][l]
                     - 1/3 (s[j][k] d[i][l] + s[k][l] d[i][j] + s[l][j] d[i][k])

Everything after gamma is linear in gamma and D gamma plus quadratic in
gamma, with constant coefficients.  `_tail` writes those formulas out, and
at import they are read off it once into a fixed map: LIN (40 x K) on
[gamma, D gamma] and QUAD (64 x K) on gamma (x) gamma, whose K columns are
torsion, a_cov, b, p, q, f2, g2, h2, a4 and the residuals of the structural
identities.  A snapshot applies the map with one matrix product and slices
the fields out of it as views, so its number of numpy calls does not depend
on the formulas.

All of it runs on N points at once as arrays with a leading axis of N (a
SnapshotBatch); one point is a batch of one.  Each row records what makes
it unusable: a singular Jacobian block or non-finite values.  It also
records the residuals of two structural identities, the torsion
reconstruction and (for isoclinic rows) the vanishing trace of a4.  In two
dimensions both hold for every gamma and D gamma, not only for those of a
web, so their columns of the map are exactly zero and the residuals read 0
on every finite row: a failure there (StructureViolation) means the map
itself is broken, never that a web or a point is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .expr import EvalError, Web
from .jet import jet_lift, partials

# Pointwise thresholds, each relative to the magnitude of what it tests:
# STRUCTURE_TOL  a structural identity (torsion reconstruction, traceless
#                a4) counts as broken above this residual;
# SINGULAR_TOL   a 2x2 Jacobian block is singular when |det| is below this
#                times its largest entry squared;
# ISOCLINIC_TOL  a row is flagged non-isoclinic when p or q is asymmetric
#                beyond this times max(1, |p|, |q|);
# T_RATIO_FLOOR  t = a2/a1 is recorded only where |a1| exceeds this times
#                max(1, |a2|).
# Classification applies its own, coarser conditioning floor on top
# (classify.NDET_FLOOR).
STRUCTURE_TOL = 1e-8
SINGULAR_TOL = 1e-10
ISOCLINIC_TOL = 1e-7
T_RATIO_FLOOR = 1e-9

_EYE = np.eye(2)


class DegenerateWeb(ValueError):
    """A Jacobian block is singular at the point: no web structure there."""


class StructureViolation(AssertionError):
    """The torsion failed its forced algebraic shape; implementation bug."""


class InadmissiblePoint(ValueError):
    """The point violates the web's domain constraints."""


@dataclass
class TensorSnapshot:
    """Every differential invariant of the web at one point."""

    point: tuple
    params: dict
    fbar: np.ndarray       # (2,2)  df^i/dx^j
    ftilde: np.ndarray     # (2,2)  df^i/dy^j
    gbar: np.ndarray       # (2,2)  inverse of fbar
    gtilde: np.ndarray     # (2,2)  inverse of ftilde
    det_bar: float
    det_til: float
    gamma: np.ndarray      # (2,2,2)  gamma[i][j][k]
    torsion: np.ndarray    # (2,2,2)
    a_cov: np.ndarray      # (2,)
    b: np.ndarray          # (2,2,2,2)
    p: np.ndarray          # (2,2)
    q: np.ndarray          # (2,2)
    f2: np.ndarray         # (2,2)
    g2: np.ndarray         # (2,2)
    h2: np.ndarray         # (2,2)
    a4: np.ndarray         # (2,2,2,2)
    t_ratio: float | None  # a_cov[1]/a_cov[0], None when a_cov[0] ~ 0
    non_isoclinic: bool    # p or q asymmetric beyond tolerance

    _FIELDS = {
        "fbar": 2, "ftilde": 2, "gbar": 2, "gtilde": 2,
        "gamma": 3, "torsion": 3, "a_cov": 1,
        "b": 4, "p": 2, "q": 2, "f2": 2, "g2": 2, "h2": 2, "a4": 4,
    }

    @property
    def omega_coeffs(self):
        """(2,2,2,2) connection form coefficients: [0][i][j][k] on base
        form 1 is gamma[i][k][j], [1][i][j][k] on base form 2 is gamma."""
        return np.stack([np.transpose(self.gamma, (0, 2, 1)), self.gamma])

    def lookup(self, path):
        """Resolve a dotted component path like "b.2111" or "a_cov.1".

        Indices are 1-based, upper index first, matching the order the
        tensors are written in.  "s" resolves to f2 + g2 + h2.  Scalar
        fields ("t_ratio", "det_bar", "det_til") take no index part.
        """
        if "." not in path:
            if path in ("t_ratio", "det_bar", "det_til"):
                return getattr(self, path)
            raise KeyError("unknown snapshot path %r" % path)
        name, _, digits = path.partition(".")
        if name == "s":
            arr = self.f2 + self.g2 + self.h2
            rank = 2
        elif name in self._FIELDS:
            arr = getattr(self, name)
            rank = self._FIELDS[name]
        else:
            raise KeyError("unknown snapshot field %r" % name)
        if len(digits) != rank or not digits.isdigit():
            raise KeyError("field %r needs %d indices, got %r"
                           % (name, rank, digits))
        idx = tuple(int(d) - 1 for d in digits)
        if any(i not in (0, 1) for i in idx):
            raise KeyError("indices in %r must be 1 or 2" % path)
        return float(arr[idx])

    def to_dict(self):
        """JSON-ready dict; arrays become nested lists."""
        out = {"point": [float(c) for c in self.point],
               "params": dict(sorted(self.params.items())),
               "det_bar": float(self.det_bar),
               "det_til": float(self.det_til),
               "t_ratio": None if self.t_ratio is None
                          else float(self.t_ratio),
               "non_isoclinic": bool(self.non_isoclinic)}
        for name in ("fbar", "ftilde", "gbar", "gtilde", "gamma",
                     "omega_coeffs", "torsion", "a_cov", "b", "p", "q",
                     "f2", "g2", "h2", "a4"):
            out[name] = getattr(self, name).tolist()
        return out


class SnapshotBatch:
    """The invariants at N points: each TensorSnapshot field with a leading
    axis of N (`t_ratio` NaN for None), `points` (N, 4), and the rows'
    `degenerate`, `finite`, `torsion_residual` and `trace_residual`.  An
    int index gives one TensorSnapshot, a slice or index array a batch.
    """

    def __init__(self, points, params, fields):
        self.points = points
        self.params = params
        self.fields = fields
        self.__dict__.update(fields)
        self._magnitudes = {}

    @classmethod
    def concat(cls, batches):
        return cls(np.concatenate([b.points for b in batches]),
                   batches[0].params,
                   {name: np.concatenate([b.fields[name] for b in batches])
                    for name in batches[0].fields})

    def __len__(self):
        return len(self.points)

    def __getitem__(self, index):
        if not isinstance(index, (int, np.integer)):
            return SnapshotBatch(self.points[index], self.params,
                                 {name: v[index]
                                  for name, v in self.fields.items()})
        t = float(self.t_ratio[index])
        return TensorSnapshot(
            point=tuple(self.points[index].tolist()), params=self.params,
            det_bar=float(self.det_bar[index]),
            det_til=float(self.det_til[index]),
            t_ratio=None if np.isnan(t) else t,
            non_isoclinic=bool(self.non_isoclinic[index]),
            **{name: self.fields[name][index].copy()
               for name in TensorSnapshot._FIELDS})

    def magnitude(self, name):
        """Per row, the largest absolute component of one field; computed
        once per batch."""
        if name not in self._magnitudes:
            self._magnitudes[name] = _row_max(getattr(self, name))
        return self._magnitudes[name]

    def check(self, i):
        """Raise the error that row i's values show, if any."""
        point = tuple(self.points[i].tolist())
        if self.degenerate[i]:
            raise DegenerateWeb(
                "det fbar = %g, det ftilde = %g at %s: defining functions are "
                "degenerate here" % (self.det_bar[i], self.det_til[i], point))
        if not self.finite[i]:
            raise EvalError("the defining functions or their invariants are "
                            "not finite at %s" % (point,))
        if self.torsion_residual[i] > STRUCTURE_TOL:
            raise StructureViolation("torsion reconstruction residual %g"
                                     % self.torsion_residual[i])
        if self.trace_residual[i] > STRUCTURE_TOL:
            raise StructureViolation("a4 trace residual %g"
                                     % self.trace_residual[i])


def _row_max(x):
    return np.abs(x).max(axis=tuple(range(1, x.ndim)))


_ADJUGATE = [3, 1, 2, 0]
_ADJUGATE_SIGN = np.array([1.0, -1.0, -1.0, 1.0])


def _invert2(m):
    """Determinants, inverses and singularity of a stack of 2x2 matrices."""
    m = m.reshape(-1, 4)
    det = m[:, 0] * m[:, 3] - m[:, 1] * m[:, 2]
    scale = np.abs(m).max(axis=1)
    singular = (det == 0.0) | (np.abs(det) < SINGULAR_TOL * scale * scale)
    inv = m[:, _ADJUGATE] * _ADJUGATE_SIGN / det[:, None]
    return det, inv.reshape(-1, 2, 2), singular


def sym3_lower(b):
    """Mean over the six permutations of the three lower indices."""
    return sum(np.einsum("...i%s->...ijkl" % "".join(perm), b)
               for perm in itertools.permutations("jkl")) / 6.0


def snapshot(web: Web, point, params=None, margin=1e-3, check_domain=True):
    """Compute every invariant of the web at one admissible point.

    Given an (N, 4) array of points instead, return their SnapshotBatch
    with no row judged: the caller decides from the batch's per-row record
    which rows to keep, and `check(i)` raises what row i shows.
    """
    bound = web.bind(params)
    points = np.atleast_2d(np.asarray(point, dtype=float))
    if check_domain:
        for row in points:
            broken = web.violated_constraint(tuple(row), bound, margin)
            if broken is not None:
                raise InadmissiblePoint(
                    "inadmissible point %s: constraint %s fails"
                    % (tuple(row.tolist()), broken))
    F = [jet_lift(web.u1, points, bound), jet_lift(web.u2, points, bound)]
    with np.errstate(all="ignore"):
        batch = _invariants(points, bound, F)
    if np.ndim(point) == 2:
        return batch
    batch.check(0)
    return batch[0]


def _tail(gamma, d_gamma):
    """Everything after gamma, by the formulas of the module docstring, for
    a batch of gamma (N,2,2,2) and its frame derivatives d_gamma (N,2,2,2,4)
    with axis r = D1_0, D1_1, D2_0, D2_1.  Only the import-time build of LIN
    and QUAD runs it; snapshots apply the map."""
    torsion = 0.5 * (gamma - np.swapaxes(gamma, -1, -2))
    a_cov = np.einsum("nmjm->nj", gamma) - np.einsum("nmmj->nj", gamma)
    d_acov = (np.einsum("nmjmr->njr", d_gamma)
              - np.einsum("nmmjr->njr", d_gamma))

    D1, D2 = d_gamma[..., :2], d_gamma[..., 2:]
    b = 0.5 * (np.einsum("niklj->nijkl", D1)
               + np.einsum("nijlk->nijkl", D1)
               - np.einsum("nikjl->nijkl", D2)
               - np.einsum("niklj->nijkl", D2)
               + np.einsum("nmjl,nikm->nijkl", gamma, gamma)
               - np.einsum("nmkj,niml->nijkl", gamma, gamma)
               + 2.0 * np.einsum("nmkl,nimj->nijkl", gamma, torsion))
    p = d_acov[..., :2] - np.einsum("nj,njki->nik", a_cov, gamma)
    q = d_acov[..., 2:] - np.einsum("nj,njik->nik", a_cov, gamma)

    sym = sym3_lower(b)
    h2 = 0.25 * (sym[:, 0, 0] + sym[:, 1, 1]) - (p + q) / 3.0
    f2 = p + h2
    g2 = q + h2
    s2 = f2 + g2 + h2
    a4 = sym - (np.einsum("njk,il->nijkl", s2, _EYE)
                + np.einsum("nkl,ij->nijkl", s2, _EYE)
                + np.einsum("nlj,ik->nijkl", s2, _EYE)) / 3.0

    # forced algebraic shape of the torsion: a^i_jk = (a_j d^i_k - a_k d^i_j)/2
    recon = 0.5 * (np.einsum("nj,ik->nijk", a_cov, _EYE)
                   - np.einsum("nk,ij->nijk", a_cov, _EYE))
    return dict(torsion=torsion, a_cov=a_cov, b=b, p=p, q=q, f2=f2, g2=g2,
                h2=h2, a4=a4, recon_error=torsion - recon,
                a4_trace=a4[:, 0, 0] + a4[:, 1, 1],
                p_asym=p[:, 0, 1] - p[:, 1, 0], q_asym=q[:, 0, 1] - q[:, 1, 0])


def _compile_tail():
    """LIN (40, K) and QUAD (64, K) such that `_tail`, flattened to K
    columns, is [gamma, d_gamma] @ LIN + (gamma (x) gamma) @ QUAD, read off
    `_tail` at basis inputs in one batch; QUAD is symmetric in its two gamma
    factors.  Also each output's columns and shape."""
    e = np.eye(8).reshape(8, 2, 2, 2)
    gamma = np.concatenate([e, -e, np.zeros((32, 2, 2, 2)),
                            (e[:, None] + e[None]).reshape(64, 2, 2, 2)])
    d_gamma = np.zeros(gamma.shape + (4,))
    d_gamma[16:48] = np.eye(32).reshape(32, 2, 2, 2, 4)
    out = _tail(gamma, d_gamma)
    flat = np.concatenate([v.reshape(len(gamma), -1) for v in out.values()],
                          1)
    plus, minus, d_lin, pairs = np.split(flat, [8, 16, 48])
    lin = np.concatenate([(plus - minus) / 2.0, d_lin])
    # f(e_a + e_b) - f(e_a) - f(e_b) = Q[a, b] + Q[b, a], also for a = b
    quad = (pairs.reshape(8, 8, -1) - plus[:, None] - plus[None]) / 2.0
    # every coefficient of the formulas is a multiple of 1/12: rounding to
    # it removes the roundoff of the read-off (tests hold the map to _tail)
    lin, quad = (np.round(m * 12.0) / 12.0
                 for m in (lin, quad.reshape(64, -1)))

    segments, start = {}, 0
    for name, v in out.items():
        segments[name] = (slice(start, start + v[0].size), v.shape[1:])
        start += v[0].size
    return lin, quad, segments


LIN, QUAD, _SEGMENTS = _compile_tail()
_MAP = np.concatenate([LIN, QUAD])
_STARTS = np.array([columns.start for columns, _ in _SEGMENTS.values()])


def _invariants(points, bound, F):
    n = len(points)
    coeffs = np.stack([f.c for f in F], 1)
    # partials of f^i: grad (N,2,4), hess (N,2,4,4), third (N,2,4,4,4);
    # axes after i run over (x1, x2, y1, y2)
    grad, hess, third = partials(coeffs)
    # fbar and ftilde of each row, interleaved: one stack of 2N blocks
    blocks = grad.reshape(n, 2, 2, 2).swapaxes(1, 2).reshape(2 * n, 2, 2)
    det, inv, singular = _invert2(blocks)
    blocks, inv = blocks.reshape(n, 2, 2, 2), inv.reshape(n, 2, 2, 2)
    det, singular = det.reshape(n, 2), singular.reshape(n, 2)
    gbar, gtil = inv[:, 0], inv[:, 1]

    # frame derivatives D1_0, D1_1, D2_0, D2_1 are the coordinate partials
    # contracted with the block-diagonal frame; gamma is minus the mixed
    # block of the Hessian in the frame, and by d(gbar) = -gbar d(fbar) gbar
    # its derivatives are the third partials in the frame plus gamma times
    # the frame Hessian
    frame = np.zeros((n, 4, 4))
    frame[:, :2, :2] = gbar
    frame[:, 2:, 2:] = gtil
    hess_frame = np.swapaxes(frame, 1, 2)[:, None] @ hess @ frame[:, None]
    gamma = -hess_frame[:, :, :2, 2:]
    third_mixed = third[:, :, :2, 2:] @ frame[:, None, None]
    d_gamma = -(np.einsum("nilmr,nlj,nmk->nijkr", third_mixed, gbar, gtil)
                + np.einsum("nipk,npjr->nijkr", gamma, hess_frame[:, :, :2])
                + np.einsum("nijp,npkr->nijkr", gamma, hess_frame[:, :, 2:]))

    g = gamma.reshape(n, 8)
    x = np.concatenate([g, d_gamma.reshape(n, 32),
                        (g[:, :, None] * g[:, None, :]).reshape(n, 64)], 1)
    out = x @ _MAP
    fields = {name: out[:, columns].reshape((n,) + shape)
              for name, (columns, shape) in _SEGMENTS.items()
              if name in TensorSnapshot._FIELDS}
    top = dict(zip(_SEGMENTS,
                   np.maximum.reduceat(np.abs(out), _STARTS, axis=1).T))

    torsion_residual = top["recon_error"] / np.maximum(1.0, top["torsion"])
    pq_scale = np.maximum(1.0, np.maximum(top["p"], top["q"]))
    non_isoclinic = (np.maximum(top["p_asym"], top["q_asym"])
                     > ISOCLINIC_TOL * pq_scale)
    trace_residual = np.where(non_isoclinic, 0.0,
                              top["a4_trace"] / np.maximum(1.0, top["a4"]))

    a1, a2 = fields["a_cov"][:, 0], fields["a_cov"][:, 1]
    usable = np.abs(a1) > T_RATIO_FLOOR * np.maximum(1.0, np.abs(a2))
    t_ratio = np.where(usable, a2 / np.where(usable, a1, 1.0), np.nan)

    # one row per point of everything computed, intermediates included
    finite = np.isfinite(np.concatenate(
        [coeffs.reshape(n, 2 * coeffs.shape[-1]), inv.reshape(n, 8), x, out],
        1)).all(axis=1)
    return SnapshotBatch(points, bound, dict(
        fields, fbar=blocks[:, 0], ftilde=blocks[:, 1], gbar=gbar,
        gtilde=gtil, gamma=gamma, det_bar=det[:, 0], det_til=det[:, 1],
        t_ratio=t_ratio, non_isoclinic=non_isoclinic,
        degenerate=singular.any(axis=1), finite=finite,
        torsion_residual=torsion_residual, trace_residual=trace_residual))
