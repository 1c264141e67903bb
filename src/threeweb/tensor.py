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
d(gbar) = -gbar d(fbar) gbar (likewise for gtilde).  Then:

    h2 = 1/4 * sym3(b)^k_{kij} - 1/3 (p + q)      (sym3 = mean over the six
    f2 = p + h2,  g2 = q + h2,  s = f2 + g2 + h2   permutations of jkl)
    a4[i][j][k][l] = sym3(b)[i][j][k][l]
                     - 1/3 (s[j][k] d[i][l] + s[k][l] d[i][j] + s[l][j] d[i][k])

All of it runs on N points at once as arrays with a leading axis of N (a
SnapshotBatch); one point is a batch of one.  Each row records what makes
it unusable: a singular Jacobian block, non-finite values, or a failed
identity that holds by construction (the torsion reconstruction and, for
isoclinic rows, the vanishing trace of a4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .expr import EvalError, Web
from .jet import jet_lift

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


def _invert2(m):
    """Determinants, inverses and singularity of a stack of 2x2 matrices."""
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    adj = np.stack([m[:, 1, 1], -m[:, 0, 1], -m[:, 1, 0], m[:, 0, 0]], -1)
    scale = np.abs(m).max(axis=(1, 2))
    singular = (det == 0.0) | (np.abs(det) < SINGULAR_TOL * scale * scale)
    return det, adj.reshape(-1, 2, 2) / det[:, None, None], singular


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


def _invariants(points, bound, F):
    # partials of f^i: grad (N,2,4), hess (N,2,4,4), third (N,2,4,4,4);
    # axes after i run over (x1, x2, y1, y2)
    grad, hess, third = (np.stack([f.derivatives(order) for f in F], 1)
                         for order in (1, 2, 3))
    fbar, ftilde = grad[:, :, :2], grad[:, :, 2:]
    det_bar, gbar, singular_bar = _invert2(fbar)
    det_til, gtil, singular_til = _invert2(ftilde)

    # gamma and its frame derivatives: axis r of a derivative is D1_0, D1_1,
    # D2_0, D2_1, i.e. the coordinate partials contracted with the frame
    frame = np.zeros((len(points), 4, 4))
    frame[:, :2, :2] = gbar
    frame[:, 2:, 2:] = gtil
    hess_f = np.einsum("npqa,nar->npqr", hess, frame)
    mixed = hess[:, :, :2, 2:]
    d_mixed = np.einsum("nilma,nar->nilmr", third[:, :, :2, 2:], frame)
    d_gbar = -np.einsum("npq,nqsr,nst->nptr", gbar,
                        hess_f[:, :, :2], gbar)
    d_gtil = -np.einsum("npq,nqsr,nst->nptr", gtil,
                        hess_f[:, :, 2:], gtil)
    gamma = -np.einsum("nilm,nlj,nmk->nijk", mixed, gbar, gtil)
    d_gamma = -(np.einsum("nilmr,nlj,nmk->nijkr", d_mixed, gbar, gtil)
                + np.einsum("nilm,nljr,nmk->nijkr", mixed, d_gbar,
                            gtil)
                + np.einsum("nilm,nlj,nmkr->nijkr", mixed, gbar,
                            d_gtil))
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
    torsion_residual = (_row_max(torsion - recon)
                        / np.maximum(1.0, _row_max(torsion)))
    pq_scale = np.maximum(1.0, np.maximum(_row_max(p), _row_max(q)))
    non_isoclinic = (
        (np.abs(p[:, 0, 1] - p[:, 1, 0]) > ISOCLINIC_TOL * pq_scale)
        | (np.abs(q[:, 0, 1] - q[:, 1, 0]) > ISOCLINIC_TOL * pq_scale))
    trace_residual = np.where(
        non_isoclinic, 0.0,
        _row_max(a4[:, 0, 0] + a4[:, 1, 1]) / np.maximum(1.0, _row_max(a4)))

    a1, a2 = a_cov[:, 0], a_cov[:, 1]
    usable = np.abs(a1) > T_RATIO_FLOOR * np.maximum(1.0, np.abs(a2))
    t_ratio = np.where(usable, a2 / np.where(usable, a1, 1.0), np.nan)

    fields = dict(fbar=fbar, ftilde=ftilde, gbar=gbar, gtilde=gtil,
                  gamma=gamma, torsion=torsion, a_cov=a_cov, b=b, p=p, q=q,
                  f2=f2, g2=g2, h2=h2, a4=a4)
    finite = np.logical_and.reduce(
        [np.isfinite(v).all(axis=tuple(range(1, v.ndim)))
         for v in [f.c for f in F] + list(fields.values())])
    return SnapshotBatch(points, bound, dict(
        fields, det_bar=det_bar, det_til=det_til, t_ratio=t_ratio,
        non_isoclinic=non_isoclinic,
        degenerate=singular_bar | singular_til,
        finite=finite, torsion_residual=torsion_residual,
        trace_residual=trace_residual))
