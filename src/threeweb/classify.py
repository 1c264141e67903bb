"""Randomized identity testing and the class lattice of a web.

Class membership statements ("this tensor vanishes identically", "this
ratio is constant") are decided by sampling admissible points uniformly
from a box, computing the full TensorSnapshot at each, and measuring the
largest relative residual.  All the fields involved are real-analytic on
the admissible domain, so vanishing at 64 random points is overwhelming
evidence of identical vanishing; borderline residuals (within a decade of
the tolerance) are surfaced through the report's `inconclusive` list
instead of being silently rounded to a verdict.  Sample points whose
Jacobian blocks are nearly singular are skipped (see NDET_FLOOR): the
pipeline's values there are dominated by roundoff and would poison the
residuals of identities that genuinely hold.  So are points where the
defining functions or the invariants are not finite, which count as
outside an implicit domain; only running out of draws is an error.

The sample is one SnapshotBatch, and each zero test reduces its residual
over all rows at once.  A residual that is not finite fails the test.  The
tests linear in the snapshot fields are data (LINEAR_TESTS) and run as one
matrix product; E1..E8 are sets of their verdicts (E_PATTERNS).

Residuals are always measured against the larger of 1 and the magnitude of
the tensors entering the tested identity, so roundoff noise from large
intermediate values cannot flip a verdict.

The label lattice, with the defining predicate of each label:

  A   torsion covector not identically zero
      A1 both quadratic torsion-direction forms vanish (integrability of
         the transversal distribution), A2 otherwise
      A11 a1, a2 both nonvanishing and t = a2/a1 constant
          A111 both cubic hexagonality polynomials vanish at t
      A12 a2 = 0 (+ p22 = q22 = 0)       A121 omega_2^1 = 0 and b^i_222 = 0
      A13 a1 = 0 (+ p11 = q11 = 0)       A131 omega_1^2 = 0 and b^i_111 = 0
      A112 a1 = a2 (+ the summed quadratic form vanishes)
          A1121 balanced connection forms and hexagonality at t = 1
  B   torsion covector identically zero
  C   a4 tensor not identically zero: C1 s = 0; C11 f+g = 0 and h = 0;
      C12 f = g = h = 0; C2 otherwise
  D   a4 = 0 (transversally geodesic): D1 s != 0; D2 s = 0 (hexagonal);
      D21 Bol (f+g = 0, h = 0, not group); D22 hexagonal only;
      D23 group (f = g = h = 0): D231 with torsion, D232 parallelizable
  E1..E8  vanishing patterns of the p/q matrices, most specific first
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .expr import Web
from .tensor import SnapshotBatch, TensorSnapshot, snapshot, sym3_lower


class SamplerExhausted(RuntimeError):
    """Could not find enough admissible sample points in the budget."""


@dataclass(frozen=True)
class RunConfig:
    """Sampling and tolerance settings shared by library and CLI."""

    points: int = 64
    tol: float = 1e-7
    seed: int = 42
    box: tuple = (-3.0, 3.0)
    margin: float = 1e-3

    def __post_init__(self):
        if self.points < 8:
            raise ValueError("need at least 8 sample points, got %d"
                             % self.points)
        if not (0.0 < self.tol < 1e-3):
            raise ValueError("tol must be in (0, 1e-3), got %g" % self.tol)
        lo, hi = self.box
        if not (lo < hi):
            raise ValueError("box must satisfy lo < hi, got %r" % (self.box,))
        if self.margin <= 0:
            raise ValueError("margin must be positive")

    def to_dict(self):
        return {"points": self.points, "tol": self.tol, "seed": self.seed,
                "box": [self.box[0], self.box[1]], "margin": self.margin}


@dataclass(frozen=True)
class IdentityVerdict:
    holds: bool
    max_residual: float
    points_tested: int
    witness: tuple | None = None

    def to_dict(self):
        out = {"holds": self.holds, "max_residual": self.max_residual,
               "points_tested": self.points_tested}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


# Zero tests read third-order jet data, which turns into pure roundoff when
# the chart is nearly degenerate: the error grows like a high power of the
# reciprocal normalized determinant (measured: ~5th power on the corpus
# webs).  Points whose Jacobian rows are closer to parallel than this floor
# are rejected during classification sampling; 0.05 keeps residuals of true
# identities below ~1e-9 while discarding at most a third of the draws on
# the worst corpus web.
NDET_FLOOR = 0.05

# A failing zero test's witness is the last row whose residual is within
# this relative distance of the worst.  Many rows of a failing predicate
# often attain one exact ratio (1, 1/3, 3/4, ...), and roundoff alone would
# otherwise pick which of them is the witness.
WITNESS_RTOL = 1e-9


def _admissible_stream(web: Web, config: RunConfig, bound):
    """The admissible rows of each draw block, in draw order, at most 60
    per wanted point in all.

    Blocks of 256, 512, 1024, ... draws exhaust the draw budget in a few
    blocks however restrictive the domain is.  They continue one generator
    stream, so the draws are those of one big draw.
    """
    rng = np.random.default_rng(config.seed)
    lo, hi = config.box
    budget = max(20000, 500 * config.points)
    cap = 60 * config.points
    draws = found = 0
    size = 256
    while draws < budget and found < cap:
        block = rng.uniform(lo, hi, size=(min(size, budget - draws), 4))
        draws += len(block)
        size *= 2
        rows = block[web.admissible(block, bound, config.margin)]
        rows = rows[:cap - found]
        found += len(rows)
        yield rows


def _well_conditioned(s):
    ok = np.ones(len(s), dtype=bool)
    for m, det in ((s.fbar, s.det_bar), (s.ftilde, s.det_til)):
        r1 = np.hypot(m[:, 0, 0], m[:, 0, 1])
        r2 = np.hypot(m[:, 1, 0], m[:, 1, 1])
        ok &= np.abs(det) >= NDET_FLOOR * r1 * r2
    return ok


def collect_snapshots(web: Web, config: RunConfig, params=None):
    """Snapshots at admissible, well-conditioned sample points, as one
    SnapshotBatch of `config.points` rows in draw order.

    Admissible rows are pooled across draw blocks and go through
    `snapshot` in batches of the rows still wanted over the accept rate
    seen so far in this call (1 at first), plus 1/8, so a restrictive
    domain costs about as many calls as an open one.  A row is rejected
    when it is degenerate, not finite or ill-conditioned.  Rows after the
    one that completes the sample are never judged.
    """
    bound = web.bind(params)
    stream = _admissible_stream(web, config, bound)
    pool = np.empty((0, 4))
    kept = []
    found = judged = 0
    while found < config.points:
        # no row accepted yet reads as a rate below 1/judged
        need = (config.points - found) * max(judged, 1) / max(found, 1)
        size = math.ceil(need * 9 / 8)
        if len(pool) < size:
            admissible = next(stream, None)
            if admissible is not None:
                pool = np.concatenate([pool, admissible])
                continue
            if not len(pool):
                raise SamplerExhausted(
                    "only %d of %d well-conditioned admissible points found"
                    % (found, config.points))
        batch = snapshot(web, pool[:size], bound, margin=config.margin,
                         check_domain=False)
        pool = pool[size:]
        judged += len(batch)
        ok = batch.finite & ~batch.degenerate & _well_conditioned(batch)
        rows = np.flatnonzero(ok)[:config.points - found]
        kept.append(batch[rows])
        found += len(rows)
    return SnapshotBatch.concat(kept)


def hexagonality_polynomials(snap, t):
    """The quartic and the two cubic hexagonality polynomials at t.

    `snap` is a TensorSnapshot, or a SnapshotBatch for per-row values.
    The three are linearly dependent: quartic + t*cubic2 + cubic1 = 0
    identically in the curvature components, which the test suite uses as a
    transcription oracle.
    """
    # the tensor indices first: b[i, j, k, l] is then a number, or an array
    # over the rows of a batch
    sym, b = (np.moveaxis(x, range(-4, 0), range(4))
              for x in (sym3_lower(snap.b), snap.b))

    def c(i, j, k, l):
        return sym[i, j, k, l]

    cubic1 = (-b[0, 0, 0, 0] * t ** 3 + 3.0 * c(0, 0, 0, 1) * t ** 2
              - 3.0 * c(0, 0, 1, 1) * t + b[0, 1, 1, 1])
    cubic2 = (-b[1, 0, 0, 0] * t ** 3 + 3.0 * c(1, 0, 0, 1) * t ** 2
              - 3.0 * c(1, 0, 1, 1) * t + b[1, 1, 1, 1])
    quartic = (b[1, 0, 0, 0] * t ** 4
               - (3.0 * c(1, 0, 0, 1) - b[0, 0, 0, 0]) * t ** 3
               + 3.0 * (c(1, 0, 1, 1) - c(0, 0, 0, 1)) * t ** 2
               - (b[1, 1, 1, 1] - 3.0 * c(0, 0, 1, 1)) * t
               - b[0, 1, 1, 1])
    return quartic, cubic1, cubic2


# The zero tests that are linear in the snapshot fields, as data: each name
# maps to its residual components, written over the fields of a batch, and
# to the fields whose largest component (floored at 1) sets its scale.  At
# import the components are read off into one residual matrix, so one
# matrix product runs them all.  In report order: the lattice, the
# torsion-direction branch, the p/q vanishing patterns.
LATTICE = {
    "isoclinic": (lambda s: [s.p[:, 0, 1] - s.p[:, 1, 0],
                             s.q[:, 0, 1] - s.q[:, 1, 0]], "p q"),
    "isoclinicly_geodesic": (lambda s: [s.a_cov], "a_cov gamma"),
    "transversally_geodesic": (lambda s: [s.a4], "a4 b f2 g2 h2"),
    "almost_algebraizable": (lambda s: [s.f2 + s.g2 + s.h2], "f2 g2 h2"),
    "almost_Bol": (lambda s: [s.f2 + s.g2, s.h2], "f2 g2 h2"),
    "almost_parallelizable": (lambda s: [s.f2, s.g2, s.h2],
                              "b p q f2 g2 h2"),
}


def _balance(s):
    # A1121's balanced connection forms: gamma summed over its upper index
    # is the same in either lower index
    g = s.gamma[:, 0] + s.gamma[:, 1]
    return [g[:, :, 0] - g[:, :, 1], g[:, 0] - g[:, 1]]


BRANCH = {
    "a1_zero": (lambda s: [s.a_cov[:, 0]], "a_cov"),
    "a2_zero": (lambda s: [s.a_cov[:, 1]], "a_cov"),
    "a1_eq_a2": (lambda s: [s.a_cov[:, 0] - s.a_cov[:, 1]], "a_cov"),
    "omega21_zero": (lambda s: [s.gamma[:, 0, 0, 1], s.gamma[:, 0, 1]],
                     "gamma"),
    "omega12_zero": (lambda s: [s.gamma[:, 1, 0], s.gamma[:, 1, 1, 0]],
                     "gamma"),
    "p22_q22_zero": (lambda s: [s.p[:, 1, 1], s.q[:, 1, 1]], "p q"),
    "p11_q11_zero": (lambda s: [s.p[:, 0, 0], s.q[:, 0, 0]], "p q"),
    "pq_quadsum_zero": (lambda s: [m[:, 0, 0] - m[:, 0, 1] - m[:, 1, 0]
                                   + m[:, 1, 1] for m in (s.p, s.q)], "p q"),
    "b_222_zero": (lambda s: [s.b[:, :, 1, 1, 1]], "b"),
    "b_111_zero": (lambda s: [s.b[:, :, 0, 0, 0]], "b"),
    "omega_balance": (_balance, "gamma"),
    "hex_at_1": (lambda s: hexagonality_polynomials(s, 1.0)[1:], "b"),
}

E_TESTS = {
    "e_p_zero": (lambda s: [s.p], "p q"),
    "e_q_zero": (lambda s: [s.q], "p q"),
    "e_p11": (lambda s: [s.p[:, 0, 0]], "p q"),
    "e_p12": (lambda s: [s.p[:, 0, 1], s.p[:, 1, 0]], "p q"),
    "e_p22": (lambda s: [s.p[:, 1, 1]], "p q"),
    "e_q11": (lambda s: [s.q[:, 0, 0]], "p q"),
    "e_q12": (lambda s: [s.q[:, 0, 1], s.q[:, 1, 0]], "p q"),
    "e_q22": (lambda s: [s.q[:, 1, 1]], "p q"),
    "e_pq_sum": (lambda s: [s.p + s.q], "p q"),
    "e_p22_plus_q22": (lambda s: [s.p[:, 1, 1] + s.q[:, 1, 1]], "p q"),
    "e_p11_plus_q11": (lambda s: [s.p[:, 0, 0] + s.q[:, 0, 0]], "p q"),
}

# (label, tests that must vanish, tests that must not), most specific first
E_PATTERNS = (
    ("E1", "e_p_zero e_q_zero", ""),
    ("E2", "e_p11 e_p12 e_q_zero", "e_p22"),
    ("E3", "e_p_zero e_q11 e_q12", "e_q22"),
    ("E41", "e_p11 e_p12 e_q11 e_q12 e_p22_plus_q22", "e_p22 e_q22"),
    ("E4", "e_p11 e_p12 e_q11 e_q12", "e_p22 e_q22"),
    ("E5", "e_p22 e_p12 e_q_zero", "e_p11"),
    ("E6", "e_p_zero e_q22 e_q12", "e_q11"),
    ("E71", "e_p22 e_p12 e_q22 e_q12 e_p11_plus_q11", "e_p11 e_q11"),
    ("E7", "e_p22 e_p12 e_q22 e_q12", "e_p11 e_q11"),
    ("E8", "e_pq_sum", ""),
)

# the fields the linear tests read, in the row order of their matrix
_INPUTS = ("gamma", "a_cov", "b", "p", "q", "f2", "g2", "h2", "a4")
_RANKS = [TensorSnapshot._FIELDS[name] for name in _INPUTS]
_INPUT_STARTS = np.cumsum([0] + [2 ** r for r in _RANKS])


def _compile_tests(tests):
    """The residual matrix (K, C) taking the K input components of a row
    to the C residual components of `tests`, each test's first column, and
    the (inputs, tests) mask of the fields that set each test's scale.  The
    matrix is read off the formulas at the unit basis of the inputs."""
    eye = np.eye(_INPUT_STARTS[-1])
    fields = SimpleNamespace(**{
        name: eye[:, a:b].reshape((-1,) + (2,) * r) for name, a, b, r
        in zip(_INPUTS, _INPUT_STARTS, _INPUT_STARTS[1:], _RANKS)})
    columns, widths = [], [0]
    for components, _ in tests.values():
        block = [c.reshape(len(eye), -1) for c in components(fields)]
        columns += block
        widths.append(sum(c.shape[1] for c in block))
    # every coefficient is a multiple of 1/12: rounding to it removes the
    # roundoff of the read-off (tests hold the matrix to the formulas)
    matrix = np.round(np.concatenate(columns, 1) * 12.0) / 12.0
    scales = [scale.split() for _, scale in tests.values()]
    mask = np.fromiter((name in scale for name in _INPUTS for scale in scales),
                       bool, len(_INPUTS) * len(scales))
    return matrix, np.cumsum(widths[:-1]), mask.reshape(len(_INPUTS), -1)


LINEAR_TESTS = {**LATTICE, **BRANCH, **E_TESTS}
_RESIDUALS, _TEST_STARTS, _SCALES = _compile_tests(LINEAR_TESTS)
# every zero test, in the order the report lists inconclusive ones
_ORDER = (*LATTICE, "integrability", *BRANCH, "hex_at_t", *E_TESTS)


class _Tester:
    """Runs zero-identity tests over a fixed snapshot sample, a batch.

    `linear()` runs every test of LINEAR_TESTS at once.  `zero` runs one
    more: `values_fn(batch)` returns a list of arrays with one row per
    point, and `scale_fn(batch)` the per-row scale of the identity.  The
    names of tests landing in the ambiguity band collect in `ambiguous`.
    """

    def __init__(self, snaps, tol):
        self.snaps = snaps
        self.tol = tol
        self.ambiguous = []

    def linear(self):
        """The verdict of each test of LINEAR_TESTS, by name."""
        n = len(self.snaps)
        x = np.concatenate([getattr(self.snaps, name).reshape(n, -1)
                            for name in _INPUTS], 1)
        top = np.maximum.reduceat(np.abs(x), _INPUT_STARTS[:-1], axis=1)
        scale = np.maximum(1.0, (top[:, :, None] * _SCALES).max(axis=1))
        worst = np.maximum.reduceat(np.abs(x @ _RESIDUALS), _TEST_STARTS,
                                    axis=1)
        return dict(zip(LINEAR_TESTS,
                        self._verdicts(LINEAR_TESTS, worst / scale)))

    def residuals(self, values_fn, scale_fn):
        """Per row, the largest |value| over max(1, scale)."""
        n = len(self.snaps)
        worst = np.maximum.reduce([np.abs(v).reshape(n, -1).max(axis=1)
                                   for v in values_fn(self.snaps)])
        return worst / np.maximum(1.0, scale_fn(self.snaps))

    def zero(self, name, values_fn, scale_fn):
        resid = self.residuals(values_fn, scale_fn)
        return self._verdicts([name], resid[:, None])[0]

    def _verdicts(self, names, resid):
        """A verdict per column of the (rows, tests) residuals.  A NaN
        residual counts as infinite, so it fails and is the witness."""
        resid = np.where(np.isnan(resid), np.inf, resid)
        worst = resid.max(axis=0)
        near = resid >= worst * (1.0 - WITNESS_RTOL)
        last = len(resid) - 1 - np.argmax(near[::-1], axis=0)
        verdicts = []
        for name, w, point in zip(names, worst.tolist(),
                                  self.snaps.points[last].tolist()):
            holds = w < self.tol
            if self.tol <= w < 10.0 * self.tol:
                self.ambiguous.append(name)
            verdicts.append(IdentityVerdict(holds, w, len(resid),
                                            None if holds else tuple(point)))
        return verdicts

    def both(self, va, vb):
        """Conjunction of two verdicts, reported as one."""
        # a verdict has a witness exactly when it fails
        return IdentityVerdict(va.holds and vb.holds,
                               max(va.max_residual, vb.max_residual),
                               va.points_tested, va.witness or vb.witness)


@dataclass
class ClassificationReport:
    web_name: str
    labels: tuple
    class_a: str
    class_b: str
    class_c: str
    class_d: str
    class_e: str
    predicates: dict
    branch_a: dict
    inconclusive: tuple
    fg_metadata: tuple
    config: RunConfig
    params: dict
    generic: bool | None = None
    per_binding: tuple | None = None

    def to_dict(self):
        preds = {k: v.to_dict() for k, v in self.predicates.items()}
        branch = {k: v.to_dict() if isinstance(v, IdentityVerdict) else v
                  for k, v in self.branch_a.items()}
        out = {
            "web": self.web_name,
            "config": self.config.to_dict(),
            "params": dict(sorted(self.params.items())),
            "labels": list(self.labels),
            "classes": {"A": self.class_a, "B": self.class_b,
                        "C": self.class_c, "D": self.class_d,
                        "E": self.class_e},
            "predicates": preds,
            "branch_a": branch,
            "inconclusive": list(self.inconclusive),
        }
        if self.fg_metadata:
            out["asserted_metadata"] = list(self.fg_metadata)
        if self.generic is not None:
            out["generic"] = self.generic
            out["per_binding"] = [dict(pb) for pb in self.per_binding]
        return out


def classify_web(web: Web, config: RunConfig | None = None, params=None,
                 metadata=()):
    """Full classification of one web under one parameter binding."""
    config = config or RunConfig()
    bound = web.bind(params)
    snaps = collect_snapshots(web, config, bound)
    T = _Tester(snaps, config.tol)
    tests = T.linear()

    preds = {name: tests[name] for name in LATTICE}
    geodesic = preds["transversally_geodesic"]
    preds["hexagonal"] = T.both(geodesic, preds["almost_algebraizable"])
    preds["Bol"] = T.both(geodesic, preds["almost_Bol"])
    preds["group"] = T.both(geodesic, preds["almost_parallelizable"])
    preds["parallelizable"] = T.both(preds["isoclinicly_geodesic"],
                                     preds["group"])

    branch, class_a = _branch_a(T, tests)
    class_b = "B" if preds["isoclinicly_geodesic"].holds else ""
    class_c, class_d = _branch_cd(preds)
    class_e = e_label({name for name in E_TESTS if tests[name].holds})

    labels = tuple(l for l in (class_a, class_b, class_c, class_d, class_e)
                   if l)
    report = ClassificationReport(
        web_name=web.name or "web",
        labels=labels,
        class_a=class_a, class_b=class_b, class_c=class_c,
        class_d=class_d, class_e=class_e,
        predicates=preds, branch_a=branch,
        inconclusive=tuple(sorted(T.ambiguous, key=_ORDER.index)),
        fg_metadata=tuple(metadata),
        config=config, params=bound,
    )
    _assert_consistent(report)
    return report


def _branch_a(T, tests):
    """The torsion-direction branch: verdicts plus the final A label."""
    def quad_values(s):
        a1, a2 = s.a_cov.T
        return [a2 * a2 * m[:, 0, 0] - a1 * a2 * (m[:, 0, 1] + m[:, 1, 0])
                + a1 * a1 * m[:, 1, 1] for m in (s.p, s.q)]

    def quad_scale(s):
        a1, a2 = np.abs(s.a_cov.T)
        return (a1 + a2) ** 2 * mag_of("p", "q")(s)

    branch = {"integrability": T.zero("integrability", quad_values,
                                      quad_scale)}
    branch.update((name, tests[name]) for name in BRANCH)
    branch.update(t_constant=None, t_value=None,
                  frame_alignment_residual=None, hex_at_t=None)

    # t = a2/a1 where a1 is usable; None when a1 vanishes identically
    t_vals = T.snaps.t_ratio[~np.isnan(T.snaps.t_ratio)]
    if t_vals.size and not branch["a1_zero"].holds:
        t_mean = float(np.mean(t_vals))
        spread = float(np.max(np.abs(t_vals - t_mean)))
        t_holds = spread < T.tol * (1.0 + abs(t_mean))
        branch["t_constant"] = IdentityVerdict(t_holds, spread, len(t_vals),
                                               None)
        branch["t_value"] = t_mean if t_holds else None

    t0 = branch["t_value"]
    if t0 is not None:
        # frame-alignment identity at constant t, informational only: the
        # connection form omega_2^1 should equal t^2 omega_1^2 +
        # t(omega_1^1 - omega_2^2) coefficientwise when t is constant
        def frame_vals(s):
            g = s.gamma
            return [g[:, 0, :, 1] - t0 ** 2 * g[:, 1, :, 0]
                    - t0 * (g[:, 0, :, 0] - g[:, 1, :, 1]),
                    g[:, 0, 1] - t0 ** 2 * g[:, 1, 0]
                    - t0 * (g[:, 0, 0] - g[:, 1, 1])]

        def frame_scale(s):
            return s.magnitude("gamma") * max(1.0, abs(t0)) ** 2

        branch["frame_alignment_residual"] = float(
            np.max(T.residuals(frame_vals, frame_scale)))
        branch["hex_at_t"] = T.zero(
            "hex_at_t", lambda s: hexagonality_polynomials(s, t0)[1:],
            lambda s: s.magnitude("b") * max(1.0, abs(t0)) ** 3)

    # label walk
    if tests["isoclinicly_geodesic"].holds:
        return branch, ""
    if not branch["integrability"].holds:
        return branch, "A2"
    label = "A1"
    if branch["a2_zero"].holds and not branch["a1_zero"].holds:
        if branch["p22_q22_zero"].holds:
            label = "A12"
            if branch["omega21_zero"].holds and branch["b_222_zero"].holds:
                label = "A121"
    elif branch["a1_zero"].holds and not branch["a2_zero"].holds:
        if branch["p11_q11_zero"].holds:
            label = "A13"
            if branch["omega12_zero"].holds and branch["b_111_zero"].holds:
                label = "A131"
    elif branch["a1_eq_a2"].holds:
        if branch["pq_quadsum_zero"].holds:
            label = "A112"
            if branch["omega_balance"].holds and branch["hex_at_1"].holds:
                label = "A1121"
    elif branch["t_constant"] is not None and branch["t_constant"].holds:
        label = "A11"
        if branch["hex_at_t"] is not None and branch["hex_at_t"].holds:
            label = "A111"
    return branch, label


def mag_of(*names):
    def scale(s):
        return np.maximum.reduce([s.magnitude(n) for n in names])
    return scale


def _branch_cd(preds):
    tg = preds["transversally_geodesic"].holds
    fgh = preds["almost_parallelizable"].holds
    fg_h = preds["almost_Bol"].holds
    s_zero = preds["almost_algebraizable"].holds
    a_zero = preds["isoclinicly_geodesic"].holds
    if not tg:
        if fgh:
            return "C12", ""
        if fg_h:
            return "C11", ""
        if s_zero:
            return "C1", ""
        return "C2", ""
    if fgh:
        return "", "D232" if a_zero else "D231"
    if fg_h:
        return "", "D21"
    if s_zero:
        return "", "D22"
    return "", "D1"


def e_label(vanishing):
    """The first of E_PATTERNS whose must-vanish tests are all in the set
    `vanishing` and whose must-not-vanish tests are all outside it."""
    for label, zero, nonzero in E_PATTERNS:
        if (vanishing.issuperset(zero.split())
                and vanishing.isdisjoint(nonzero.split())):
            return label
    return ""


def _assert_consistent(report):
    p = report.predicates
    if p["hexagonal"].holds:
        assert p["transversally_geodesic"].holds
        assert p["almost_algebraizable"].holds
    if p["Bol"].holds:
        assert p["transversally_geodesic"].holds and p["almost_Bol"].holds
    if p["group"].holds:
        assert p["hexagonal"].holds
        assert p["almost_algebraizable"].holds
        assert p["almost_Bol"].holds
        assert p["almost_parallelizable"].holds
    if p["parallelizable"].holds:
        assert p["isoclinicly_geodesic"].holds and p["group"].holds
    assert (report.class_b == "B") == p["isoclinicly_geodesic"].holds
    assert bool(report.class_a) == (not p["isoclinicly_geodesic"].holds)
    assert bool(report.class_c) == (not p["transversally_geodesic"].holds)
    assert bool(report.class_d) == p["transversally_geodesic"].holds
    if report.class_d == "D232":
        assert p["parallelizable"].holds
    if report.class_d == "D231":
        assert p["group"].holds and not p["isoclinicly_geodesic"].holds


def classify_generic(web: Web, config: RunConfig | None = None,
                     bindings=5, metadata=()):
    """Classify a parameterized web under several random bindings.

    The returned report is the first binding's, with `generic` set to
    whether all bindings produced identical labels and the per-binding
    label sets attached.
    """
    if not web.params:
        raise ValueError("classify_generic needs a parameterized web")
    config = config or RunConfig()
    rng = np.random.default_rng(config.seed + 7919)
    reports = []
    attempts = 0
    while len(reports) < bindings and attempts < 20 * bindings:
        attempts += 1
        binding = {name: float(rng.uniform(-2.0, 2.0))
                   for name, _ in web.params}
        try:
            reports.append(classify_web(web, config, params=binding,
                                        metadata=metadata))
        except SamplerExhausted:
            continue
    if len(reports) < bindings:
        raise SamplerExhausted("only %d of %d parameter bindings were "
                               "classifiable" % (len(reports), bindings))
    agree = all(r.labels == reports[0].labels for r in reports)
    per_binding = tuple(
        {"params": dict(sorted(r.params.items())), "labels": list(r.labels)}
        for r in reports)
    return replace(reports[0], generic=agree, per_binding=per_binding)
