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
at import they are read off it into a fixed map: LIN (40 x K) on
[gamma, D gamma] and QUAD (64 x K) on gamma (x) gamma, whose K columns are
the fields and the asymmetries of p and q.  A snapshot applies the map
with one matrix product and slices the fields out of it as views.  The
torsion's shape a^i_jk = (a_j d^i_k - a_k d^i_j)/2 and the vanishing trace
of a4 hold for any gamma and D gamma; the tests hold `_tail` and the map to
both, and snapshots do not check them.

All of it runs on N points at once as arrays with a leading axis of N (a
SnapshotBatch); one point is a batch of one.  Both defining functions are
lifted in one `jet_lift` call, the partials are read off with one gather,
and gamma and D gamma come from batched matrix products.  Each row records
what makes it unusable: a singular Jacobian block or non-finite values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .expr import EvalError, Web
from .jet import NCOEFF, jet_lift, partial_index

# Pointwise thresholds, each relative to the magnitude of what it tests:
# SINGULAR_TOL   a 2x2 Jacobian block is singular when |det| is at most this
#                times its largest entry squared;
# ISOCLINIC_TOL  a row is flagged non-isoclinic when p or q is asymmetric
#                beyond this times max(1, |p|, |q|);
# T_RATIO_FLOOR  t = a2/a1 is recorded only where |a1| exceeds this times
#                max(1, |a2|).
# Classification applies its own, coarser conditioning floor on top
# (classify.NDET_FLOOR).
SINGULAR_TOL = 1e-10
ISOCLINIC_TOL = 1e-7
T_RATIO_FLOOR = 1e-9

_EYE = np.eye(2)
_BASIS = np.eye(8).reshape(8, 2, 2, 2)  # the unit gammas
_COFACTOR_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])


class DegenerateWeb(ValueError):
    """A Jacobian block is singular at the point: no web structure there."""


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
    `degenerate` and `finite` flags.  An int index gives one
    TensorSnapshot, a slice or index array a batch.
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
        if isinstance(index, (int, np.integer)):
            return self._row(index, copy=True)
        return SnapshotBatch(self.points[index], self.params,
                             {name: v[index]
                              for name, v in self.fields.items()})

    def _row(self, i, copy):
        """Row i as a TensorSnapshot whose arrays are copies, or views into
        this batch."""
        t = float(self.t_ratio[i])
        return TensorSnapshot(
            point=tuple(self.points[i].tolist()), params=self.params,
            det_bar=float(self.det_bar[i]), det_til=float(self.det_til[i]),
            t_ratio=None if t != t else t,
            non_isoclinic=bool(self.non_isoclinic[i]),
            **{name: self.fields[name][i].copy() if copy
               else self.fields[name][i] for name in TensorSnapshot._FIELDS})

    def magnitude(self, name):
        """Per row, the largest absolute component of one field; computed
        once per batch."""
        if name not in self._magnitudes:
            x = np.abs(getattr(self, name))
            self._magnitudes[name] = x.max(axis=tuple(range(1, x.ndim)))
        return self._magnitudes[name]


def sym3_lower(b):
    """Mean over the six permutations of the three lower indices: views of
    b transposed, summed in the order of `itertools.permutations`."""
    n = b.ndim - 3  # the axis of the first lower index
    return sum(b.transpose(tuple(range(n))
                           + tuple(n + perm.index(a) for a in range(3)))
               for perm in itertools.permutations(range(3))) / 6.0


def snapshot(web: Web, point, params=None, margin=1e-3, check_domain=True):
    """Compute every invariant of the web at one admissible point.

    Given an (N, 4) array of points instead, return their SnapshotBatch.
    The domain gate names the first inadmissible row; past it no row is
    judged: the caller decides from the batch's per-row `degenerate` and
    `finite` flags which rows to keep.
    """
    bound = web.bind(params)
    point = np.asarray(point, dtype=float)
    points = np.atleast_2d(point)
    if check_domain:
        broken = web.violated_constraint(point, bound, margin)
        if broken is not None:
            raise InadmissiblePoint("inadmissible point %s: %s" % (
                "at" if point.ndim == 2 else tuple(point.tolist()), broken))
    # one point lifts as a single jet, which raises EvalError outside the
    # domain of ln or of a division
    coeffs = jet_lift((web.u1, web.u2), point, bound).c
    with np.errstate(all="ignore"):
        batch = _invariants(points, bound, coeffs)
    if point.ndim == 2:
        return batch
    if batch.degenerate[0]:
        raise DegenerateWeb(
            "det fbar = %g, det ftilde = %g at %s: defining functions are "
            "degenerate here" % (batch.det_bar[0], batch.det_til[0],
                                 tuple(point.tolist())))
    if not batch.finite[0]:
        raise EvalError("the defining functions or their invariants are "
                        "not finite at %s" % (tuple(point.tolist()),))
    # the batch is not kept, so its row can be taken without copies
    return batch._row(0, copy=False)


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
    return dict(torsion=torsion, b=b, f2=f2, g2=g2, h2=h2, a4=a4,
                a_cov=a_cov, p=p, q=q,
                p_asym=p[:, 0, 1] - p[:, 1, 0], q_asym=q[:, 0, 1] - q[:, 1, 0])


def _compile_tail():
    """LIN (40, K) and QUAD (64, K) such that `_tail`, flattened to K
    columns, is [gamma, d_gamma] @ LIN + (gamma (x) gamma) @ QUAD, read off
    `_tail` at basis inputs in one batch; QUAD is symmetric in its two gamma
    factors.  Also each output's columns and shape."""
    e = _BASIS
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

    ends = np.cumsum([v[0].size for v in out.values()])
    return lin, quad, {name: (slice(end - v[0].size, end), v.shape[1:])
                       for (name, v), end in zip(out.items(), ends)}


LIN, QUAD, _SEGMENTS = _compile_tail()
# the map as a snapshot applies it: to [gamma, -D gamma, gamma (x) gamma],
# since -D gamma is what the matrix products below give (negating a
# coefficient is exact)
_MAP = np.concatenate([LIN[:8], -LIN[8:], QUAD])
_FIELD_COLUMNS = [(name, columns, (-1,) + shape)
                  for name, (columns, shape) in _SEGMENTS.items()
                  if name in TensorSnapshot._FIELDS]
# a_cov, p, q and the asymmetries of p and q: the last 12 columns
_SMALL = slice(_SEGMENTS["a_cov"][0].start, None)
# the 36 partials a snapshot reads of each function, in a row of the lifted
# coefficients of both (2 x 35), and the factorials that turn coefficients
# into partials: per function the gradient, the Hessian, and the third
# partials d3 f / dz^s dx^l dy^m, with z = (x1, x2, y1, y2)
_INDEX, _FACTOR = partial_index(
    [(v,) for v in range(4)] + list(itertools.product(range(4), repeat=2))
    + [(z, l, 2 + m) for z in range(4) for l in range(2) for m in range(2)])
_READ = np.add.outer([0, NCOEFF], _INDEX).ravel()
_READ_FACTORIAL = np.tile(_FACTOR, 2)
# lays gamma (8) out as the matrix A (8 x 8) with A[i, j, k; p, a] H[p, a, r]
# = gamma[i, p, k] H[p, j, r] + gamma[i, j, p] H[p, k + 2, r] for any H
_GAMMA_HESS = (np.einsum("gipk,ja->gijkpa", _BASIS, np.eye(4)[:2])
               + np.einsum("gijp,ka->gijkpa", _BASIS, np.eye(4)[2:])
               ).reshape(8, 64)


def _invariants(points, bound, coeffs):
    n = len(points)
    d = (coeffs.reshape(n, 2 * NCOEFF)[:, _READ]
         * _READ_FACTORIAL).reshape(n, 2, 36)
    # blocks[:, 0] is fbar and blocks[:, 1] ftilde; hess (N,2,4,4); third
    # (N,2,4,2,2), axes (i, s, l, m) as in _READ
    blocks = d[:, :, :4].reshape(n, 2, 2, 2).swapaxes(1, 2)
    hess = d[:, :, 4:20].reshape(n, 2, 4, 4)
    third = d[:, :, 20:].reshape(n, 2, 4, 2, 2)
    det = (blocks[..., 0, 0] * blocks[..., 1, 1]
           - blocks[..., 0, 1] * blocks[..., 1, 0])
    scale = np.abs(blocks).max(axis=(2, 3))
    singular = np.abs(det) <= SINGULAR_TOL * scale * scale
    # the inverse is the adjugate over det: the block reversed on both axes,
    # transposed, with signs
    inv = (blocks[..., ::-1, ::-1].swapaxes(2, 3) * _COFACTOR_SIGN
           / det[..., None, None])
    gbar, gtil = inv[:, 0], inv[:, 1]

    # frame derivatives D1_0, D1_1, D2_0, D2_1 are the coordinate partials
    # contracted with the block-diagonal frame; gamma is minus the mixed
    # block of the Hessian in the frame
    frame = np.zeros((n, 4, 4))
    frame[:, :2, :2] = gbar
    frame[:, 2:, 2:] = gtil
    hess_frame = np.swapaxes(frame, 1, 2)[:, None] @ hess @ frame[:, None]
    gamma = -hess_frame[:, :, :2, 2:]
    g = gamma.reshape(n, 8)
    # by d(gbar) = -gbar d(fbar) gbar, -D gamma (axes i, j, k, r) is the
    # third partials in the frame plus, through _GAMMA_HESS, gamma times the
    # frame Hessian
    third_frame = (np.swapaxes(gbar, 1, 2)[:, None, None] @ third
                   @ gtil[:, None, None]).transpose(0, 1, 3, 4, 2)
    minus_d_gamma = ((third_frame @ frame[:, None, None]).reshape(n, 32)
                     + ((g @ _GAMMA_HESS).reshape(n, 8, 8)
                        @ hess_frame.reshape(n, 8, 4)).reshape(n, 32))
    x = np.concatenate([g, minus_d_gamma,
                        (g[:, :, None] * g[:, None, :]).reshape(n, 64)], 1)
    out = x @ _MAP
    fields = {name: out[:, columns].reshape(shape)
              for name, columns, shape in _FIELD_COLUMNS}

    small = np.abs(out[:, _SMALL])
    pq_scale = np.maximum(1.0, small[:, 2:10].max(axis=1))
    non_isoclinic = small[:, 10:].max(axis=1) > ISOCLINIC_TOL * pq_scale
    usable = small[:, 0] > T_RATIO_FLOOR * np.maximum(1.0, small[:, 1])
    a_cov = fields["a_cov"]
    t_ratio = np.where(usable, a_cov[:, 1] / a_cov[:, 0], np.nan)

    # one row per point of everything computed, intermediates included
    finite = np.isfinite(np.concatenate(
        [coeffs.reshape(n, 2 * NCOEFF), inv.reshape(n, 8), x, out],
        1)).all(axis=1)
    return SnapshotBatch(points, bound, dict(
        fields, fbar=blocks[:, 0], ftilde=blocks[:, 1], gbar=gbar,
        gtilde=gtil, gamma=gamma, det_bar=det[:, 0], det_til=det[:, 1],
        t_ratio=t_ratio, non_isoclinic=non_isoclinic,
        degenerate=singular.any(axis=1), finite=finite))
