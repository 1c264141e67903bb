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
At one point, with z = (x1, x2, y1, y2), hess[i][s][t] = d2 f^i/dz^s dz^t,
third[i][s][l][m] = d3 f^i/dz^s dx^l dy^m, frame = diag(gbar, gtilde) and
r = D1_0, D1_1, D2_0, D2_1:

    hess_frame  = einsum("sa,ist,tb->iab", frame, hess, frame)
    gamma       = -hess_frame[:, :2, 2:]
    third_frame = einsum("islm,lj,mk->isjk", third, gbar, gtilde)
    -D gamma    = einsum("isjk,sr->ijkr", third_frame, frame)
                  + einsum("ipk,pjr->ijkr", gamma, hess_frame[:, :2])
                  + einsum("ijp,pkr->ijkr", gamma, hess_frame[:, 2:])

A batch forms third_frame with one product of third, (8 x 4) at each point,
and gbar (x) gtilde (4 x 4), and contracts it with the frame in one more.
Then:

    h2 = 1/4 * sym3(b)^k_{kij} - 1/3 (p + q)      (sym3 = mean over the six
    f2 = p + h2,  g2 = q + h2,  s = f2 + g2 + h2   permutations of jkl)
    a4[i][j][k][l] = sym3(b)[i][j][k][l]
                     - 1/3 (s[j][k] d[i][l] + s[k][l] d[i][j] + s[l][j] d[i][k])

Everything after gamma is linear in gamma and D gamma plus quadratic in
gamma, with constant coefficients: linear in x = [gamma, -D gamma,
gamma (x) gamma].  `_tail` writes the formulas out on x, and at import
`read_off` reads them off at x's unit vectors into the map (104 x K), whose
K columns are the fields and the asymmetries of p and q.  A snapshot
applies the map with one matrix product and slices the fields out of it as
views.  The torsion's shape a^i_jk = (a_j d^i_k - a_k d^i_j)/2 and the
vanishing trace of a4 hold for any gamma and D gamma; the tests hold
`_tail` and the map to both, and snapshots do not check them.

All of it runs on N points at once as arrays with a leading axis of N;
one point is a batch of one, indexed.  Both defining functions are
lifted in one `jet_lift` call, the partials are read off with two gathers
(the gradient, then the rest), and gamma and D gamma come from batched
matrix products.  Each row records what makes it unusable: a singular
Jacobian block or non-finite values.  `jacobian_blocks` reads the blocks,
their determinants and their normalized determinants off lifted
coefficients alone, so a sampler can judge rows before the rest of the
pipeline runs on them.
"""

from __future__ import annotations

import functools
import itertools
import re
from types import SimpleNamespace

import numpy as np

from .expr import MARGIN, EvalError, Web, check_shape
from .jet import NCOEFF, jet_lift, partial_index

# Pointwise thresholds, each relative to the magnitude of what it tests:
# SINGULAR_TOL   a 2x2 Jacobian block is singular when its normalized
#                determinant |det|/(|row 1| |row 2|) is at most this;
# ISOCLINIC_TOL  a row is flagged non-isoclinic when p or q is asymmetric
#                beyond this times max(1, |p|, |q|);
# T_RATIO_FLOOR  t = a2/a1 is recorded only where |a1| exceeds this times
#                max(1, |a2|).
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


class TensorSnapshot:
    """Every differential invariant of the web at one point, `points` (4,),
    or at N, (N, 4).  Each field has the leading axes of `points` before its
    own: fbar, ftilde (2,2) df^i/dx^j, df^i/dy^j, their inverses gbar, gtilde
    and determinants det_bar, det_til, gamma, torsion (2,2,2), a_cov (2,),
    b, a4 (2,2,2,2), p, q, f2, g2, h2 (2,2), t_ratio = a_cov[1]/a_cov[0]
    (NaN where a_cov[0] ~ 0, at one point as in a batch, and null in
    to_dict), non_isoclinic (p or q asymmetric), and the flags degenerate,
    finite.
    Also the map's input `x` (104,) and the frame products `x` was formed
    from, `frame` (4,4), `hess_frame` (2,4,4) and `third_frame` (2,4,2,2),
    as in the module docstring.  An int index gives one point, a slice or
    index array a batch, with views of these fields.  A one-point snapshot
    has no length and no index: len, indexing and iteration raise TypeError,
    and it is true, as a batch is while it has rows."""

    _FIELDS = {
        "fbar": 2, "ftilde": 2, "gbar": 2, "gtilde": 2,
        "gamma": 3, "torsion": 3, "a_cov": 1,
        "b": 4, "p": 2, "q": 2, "f2": 2, "g2": 2, "h2": 2, "a4": 4,
    }

    def __init__(self, points, params, fields):
        self.points = points
        self.params = params
        self.fields = fields
        self.__dict__.update(fields)

    def __bool__(self):
        return self.points.size > 0

    def __len__(self):
        if self.points.ndim == 1:
            raise TypeError("a one-point snapshot is one point, not a batch")
        return len(self.points)

    def __getitem__(self, index):
        if self.points.ndim == 1:
            raise TypeError("a one-point snapshot is one point, not a batch")
        fields = {name: v[index] for name, v in self.fields.items()}
        return TensorSnapshot(self.points[index], self.params, fields)

    @property
    def point(self):
        """The one point, a tuple."""
        return tuple(self.points.tolist())

    @property
    def omega_coeffs(self):
        """(..., 2,2,2,2) connection form coefficients: [0][i][j][k] on base
        form 1 is gamma[i][k][j], [1][i][j][k] on base form 2 is gamma."""
        return np.stack([np.swapaxes(self.gamma, -1, -2), self.gamma], -4)

    def lookup(self, path):
        """Resolve a dotted component path like "b.2111" or "a_cov.1", in
        `read_spec`'s notation with every index given, each the ASCII digit
        1 or 2; any other path raises KeyError.  "s" resolves to f2 + g2 +
        h2.  Scalar fields ("t_ratio", "det_bar", "det_til") take no index.
        One point only.
        """
        if self.points.ndim != 1:
            raise ValueError("lookup reads one point; index the batch first")
        if "." not in path:
            if path in ("t_ratio", "det_bar", "det_til"):
                return getattr(self, path)
            raise KeyError("unknown snapshot path %r" % path)
        name, _, digits = path.partition(".")
        if name != "s" and name not in self._FIELDS:
            raise KeyError("unknown snapshot field %r" % name)
        rank = self._FIELDS.get(name, 2)
        if len(digits) != rank:
            raise KeyError("field %r needs %d indices, got %r"
                           % (name, rank, digits))
        if digits.strip("12"):
            raise KeyError("indices in %r must be 1 or 2" % path)
        if name == "s":
            path = "f2.%s + g2.%s + h2.%s" % (digits, digits, digits)
        return float(read_spec(path, self)[0])

    def to_dict(self):
        """JSON-ready dict of one point; arrays become nested lists."""
        if self.points.ndim != 1:
            raise ValueError("to_dict reads one point; index the batch first")
        out = {"point": [float(c) for c in self.point],
               "params": dict(sorted(self.params.items())),
               "det_bar": float(self.det_bar),
               "det_til": float(self.det_til),
               "t_ratio": None if np.isnan(self.t_ratio)
                          else float(self.t_ratio),
               "non_isoclinic": bool(self.non_isoclinic)}
        for name in (*self._FIELDS, "omega_coeffs"):
            out[name] = getattr(self, name).tolist()
        return out

    def x_abs(self):
        """|x|, except that D gamma's part is its arithmetic redone on the
        magnitudes of the frame products, which covers the cancellation
        there: the magnitude of what formed x.  Computed on demand, for a
        batch only."""
        if self.points.ndim == 1:
            raise ValueError("x_abs reads a batch; snapshot an (N, 4) array")
        out = np.abs(self.x)
        out[:, 8:40] = _minus_d_gamma(out[:, :8], *map(np.abs, (
            self.frame, self.hess_frame, self.third_frame)))
        return out


def sym3_lower(b):
    """Mean over the six permutations of the three lower indices: views of
    b transposed, summed in the order of `itertools.permutations`."""
    n = b.ndim - 3  # the axis of the first lower index
    return sum(b.transpose(tuple(range(n))
                           + tuple(n + perm.index(a) for a in range(3)))
               for perm in itertools.permutations(range(3))) / 6.0


def snapshot(web: Web, point, params=None, margin=MARGIN, coeffs=None):
    """Compute every invariant of the web at one admissible point.

    Given an (N, 4) array of points instead, return the snapshot of the
    batch; any other shape raises ValueError.  The domain gate is the
    domain rule (`Web.violated_constraint`, which also checks `margin`):
    it names the first inadmissible row, and past it no row is judged, the
    caller deciding from the per-row `degenerate` and `finite` flags which
    rows to keep.  A caller that has gated and lifted the points hands over
    their coefficients, `jet_lift(web.lift_program, point, bound)`, as
    `coeffs`; then neither the gate nor the lift runs.
    """
    bound = web.bind(params)
    point = np.asarray(point, dtype=float)
    if coeffs is None:  # the gate checks the shape of `point` too
        broken = web.violated_constraint(point, bound, margin)
        if broken is not None:
            raise InadmissiblePoint("inadmissible point %s: %s" % (
                "at" if point.ndim == 2 else tuple(point.tolist()), broken))
        # one point lifts as a single jet, which raises EvalError outside
        # the domain of ln or of a division
        coeffs = jet_lift(web.lift_program, point, bound)
    else:
        check_shape(point)
    with np.errstate(all="ignore"):
        batch = _invariants(np.atleast_2d(point), bound, coeffs)
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
    return batch[0]


def _tail(x):
    """The fields at a batch of the map's input x (N, 104), by the formulas
    of the module docstring: gamma is x[:, :8], D gamma (axes i, j, k, r
    with r = D1_0, D1_1, D2_0, D2_1) is -x[:, 8:40], and each product of
    two gammas is read from x[:, 40:], so the fields are linear in x.  Only
    `read_off` runs it, at import; snapshots apply the map."""
    n = len(x)
    gamma = x[:, :8].reshape(n, 2, 2, 2)
    d_gamma = -x[:, 8:40].reshape(n, 2, 2, 2, 4)
    gg = x[:, 40:].reshape(n, 2, 2, 2, 2, 2, 2)

    def product(spec):
        # "mjl,ikm->ijkl" sums gamma[m, j, l] gamma[i, k, m] over m
        factors, out = spec.split("->")
        return np.einsum("n%s->n%s" % (factors.replace(",", ""), out), gg)

    torsion = 0.5 * (gamma - np.swapaxes(gamma, -1, -2))
    a_cov = np.einsum("nmjm->nj", gamma) - np.einsum("nmmj->nj", gamma)
    d_acov = (np.einsum("nmjmr->njr", d_gamma)
              - np.einsum("nmmjr->njr", d_gamma))

    D1, D2 = d_gamma[..., :2], d_gamma[..., 2:]
    # the last two products are 2 gamma[m, k, l] torsion[i, m, j]
    b = 0.5 * (np.einsum("niklj->nijkl", D1)
               + np.einsum("nijlk->nijkl", D1)
               - np.einsum("nikjl->nijkl", D2)
               - np.einsum("niklj->nijkl", D2)
               + product("mjl,ikm->ijkl") - product("mkj,iml->ijkl")
               + product("mkl,imj->ijkl") - product("mkl,ijm->ijkl"))
    # a_cov[j] gamma[j, k, i] and a_cov[j] gamma[j, i, k]
    p = d_acov[..., :2] - product("mjm,jki->ik") + product("mmj,jki->ik")
    q = d_acov[..., 2:] - product("mjm,jik->ik") + product("mmj,jik->ik")

    sym = sym3_lower(b)
    h2 = 0.25 * (sym[:, 0, 0] + sym[:, 1, 1]) - (p + q) / 3.0
    f2 = p + h2
    g2 = q + h2
    s2 = f2 + g2 + h2
    a4 = sym - (np.einsum("njk,il->nijkl", s2, _EYE)
                + np.einsum("nkl,ij->nijkl", s2, _EYE)
                + np.einsum("nlj,ik->nijkl", s2, _EYE)) / 3.0
    return SimpleNamespace(gamma=gamma, torsion=torsion, b=b, f2=f2, g2=g2,
                           h2=h2, a4=a4, a_cov=a_cov, p=p, q=q)


# a term of a spec's component, signed unless it comes first
_TERM = re.compile(r"(^-?|[+-])(?:([0-9]+)\*)?([a-z]\w*)(?:\.([12]+))?")


@functools.lru_cache(maxsize=256)
def _parse(spec):
    """Components of a spec: tuples of terms (k, field, indices, free)."""
    components = []
    for component in spec.split(","):
        text = "".join(component.split())
        hits = list(_TERM.finditer(text))
        terms = tuple((float(sign + (k or "1")), name,
                       tuple(int(i) - 1 for i in index),
                       TensorSnapshot._FIELDS.get(name, -1) - len(index))
                      for sign, k, name, index in (m.groups("") for m in hits))
        free = {term[3] for term in terms}
        if ("".join(m[0] for m in hits) != text or len(free) != 1
                or min(free) < 0):
            raise ValueError("malformed component %r in spec %r"
                             % (component.strip(), spec))
        components.append(terms)
    return tuple(components)


def read_spec(spec, fields):
    """The components of `spec` read off `fields`, TensorSnapshot fields
    with any leading axes, along a new last axis (maybe a view of a field).
    A spec is a comma-separated list of components, each a signed sum of
    terms `[k*]field[.indices]`, whitespace aside: indices are 1-based,
    upper index first, and a path with fewer indices than its field's rank
    stands for every component it begins, in C order ("gamma.12" is
    gamma.121, gamma.122; "p" is all four of p)."""
    columns = []
    for terms in _parse(spec):
        parts = [getattr(fields, name)[(..., *ix) + (slice(None),) * free]
                 for _, name, ix, free in terms]
        parts = [p if k == 1.0 else k * p for p, (k, *_) in zip(parts, terms)]
        total, free = sum(parts[1:], parts[0]), terms[0][3]
        columns.append(total.reshape(total.shape[:total.ndim - free] + (-1,)))
    return np.concatenate(columns, -1) if len(columns) > 1 else columns[0]


def read_off(tests):
    """The matrix (104, C) that takes a row's x to the C components of the
    specs `tests`, read off `_tail`'s fields at the unit vectors of x, and
    each test's first column.  Every entry is a multiple of 1/144 and the
    two orders of a product of two gammas share one, so averaging each such
    pair of rows and rounding to 1/144 removes the roundoff of the read-off
    (the tests hold the map to `_tail`)."""
    blocks = [read_spec(spec, _AT_UNITS) for spec in tests.values()]
    starts = np.cumsum([0] + [b.shape[1] for b in blocks[:-1]])
    matrix = np.concatenate(blocks, 1)
    pairs = matrix[40:].reshape(8, 8, -1)
    matrix[40:] = ((pairs + pairs.swapaxes(0, 1)) / 2.0).reshape(64, -1)
    return np.round(matrix * 144.0) / 144.0, starts


_AT_UNITS = _tail(np.eye(104))
# the map's columns: the fields after gamma, then the asymmetries of p and q
_MAP_FIELDS = ("torsion", "b", "f2", "g2", "h2", "a4", "a_cov", "p", "q")
_MAP, _STARTS = read_off({**{name: name for name in _MAP_FIELDS},
                          "pq_asym": "p.12 - p.21, q.12 - q.21"})
_FIELD_COLUMNS = [(name, slice(start, start + 2 ** rank), (-1,) + (2,) * rank)
                  for name, start in zip(_MAP_FIELDS, _STARTS)
                  for rank in [TensorSnapshot._FIELDS[name]]]
# the fields at each of the 104 unit vectors of x: gamma is x's first 8
# components, the others are the map's rows
UNIT_FIELDS = SimpleNamespace(gamma=_AT_UNITS.gamma,
                              **{name: _MAP[:, columns].reshape(shape)
                                 for name, columns, shape in _FIELD_COLUMNS})
# a_cov, p, q and the asymmetries of p and q: the last 12 columns
_SMALL = slice(_STARTS[_MAP_FIELDS.index("a_cov")], None)
# the partials a snapshot reads of each function, in a row of the lifted
# coefficients of both (2 x 35): the gradient, whose coefficients are the
# partials, then the Hessian and the third partials d3 f / dz^s dx^l dy^m,
# with z = (x1, x2, y1, y2), and the factorials that turn their
# coefficients into partials
_GRADIENT = np.add.outer([0, NCOEFF], partial_index(
    [(v,) for v in range(4)])[0]).ravel()
_INDEX, _FACTOR = partial_index(
    list(itertools.product(range(4), repeat=2))
    + [(z, l, 2 + m) for z in range(4) for l in range(2) for m in range(2)])
_READ = np.add.outer([0, NCOEFF], _INDEX).ravel()
_READ_FACTORIAL = np.tile(_FACTOR, 2)
# lays gamma (8) out as the matrix A (8 x 8) with A[i, j, k; p, a] H[p, a, r]
# = gamma[i, p, k] H[p, j, r] + gamma[i, j, p] H[p, k + 2, r] for any H
_GAMMA_HESS = (np.einsum("gipk,ja->gijkpa", _BASIS, np.eye(4)[:2])
               + np.einsum("gijp,ka->gijkpa", _BASIS, np.eye(4)[2:])
               ).reshape(8, 64)


def _minus_d_gamma(g, frame, hess_frame, third_frame):
    """-D gamma (N, 32), axes i, j, k, r: by d(gbar) = -gbar d(fbar) gbar,
    the third partials in the frame plus, through _GAMMA_HESS, gamma times
    the frame Hessian."""
    n = len(g)
    return ((third_frame.reshape(n, 2, 4, 4).swapaxes(2, 3) @ frame[:, None])
            .reshape(n, 32)
            + ((g @ _GAMMA_HESS).reshape(n, 8, 8)
               @ hess_frame.reshape(n, 8, 4)).reshape(n, 32))


def jacobian_blocks(coeffs):
    """The Jacobian blocks of N rows of lifted coefficients (N, 2, 35) of
    both functions (or (2, 35) at one point): blocks (N, 2, 2, 2), where
    blocks[:, 0] is fbar and blocks[:, 1] ftilde, their determinants (N, 2),
    and their normalized determinants |det|/(|row 1| |row 2|) (N, 2): 1 for
    orthogonal rows, 0 for parallel ones, and the same when a defining
    function, and so a row, is rescaled.  NaN where that is 0/0 or inf/inf,
    0 where only the norms overflow."""
    blocks = coeffs.reshape(-1, 2 * NCOEFF)[:, _GRADIENT].reshape(
        -1, 2, 2, 2).swapaxes(1, 2)
    det = (blocks[..., 0, 0] * blocks[..., 1, 1]
           - blocks[..., 0, 1] * blocks[..., 1, 0])
    norms = np.hypot(blocks[..., 0], blocks[..., 1])
    return blocks, det, np.abs(det) / (norms[..., 0] * norms[..., 1])


def _invariants(points, bound, coeffs):
    n = len(points)
    blocks, det, ndet = jacobian_blocks(coeffs)
    degenerate = ~(ndet > SINGULAR_TOL).all(axis=1)
    # hess (N,2,4,4); third (N,2,4,2,2), axes (i, s, l, m) as in _READ
    d = (coeffs.reshape(n, 2 * NCOEFF)[:, _READ]
         * _READ_FACTORIAL).reshape(n, 2, 32)
    hess = d[:, :, :16].reshape(n, 2, 4, 4)
    third = d[:, :, 16:].reshape(n, 2, 4, 2, 2)
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
    # the third partials in the frame, axes (i, s, j, k): the (l, m) axes
    # of the third partials times gbar (x) gtilde, axes (l, m; j, k)
    kron = gbar[:, :, None, :, None] * gtil[:, None, :, None, :]
    third_frame = (third.reshape(n, 8, 4)
                   @ kron.reshape(n, 4, 4)).reshape(n, 2, 4, 2, 2)
    x = np.concatenate([g, _minus_d_gamma(g, frame, hess_frame, third_frame),
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
    return TensorSnapshot(points, bound, dict(
        fields, fbar=blocks[:, 0], ftilde=blocks[:, 1], gbar=gbar,
        gtilde=gtil, gamma=gamma, det_bar=det[:, 0], det_til=det[:, 1],
        t_ratio=t_ratio, non_isoclinic=non_isoclinic, x=x, frame=frame,
        hess_frame=hess_frame, third_frame=third_frame,
        degenerate=degenerate, finite=finite))
