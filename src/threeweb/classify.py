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
outside an implicit domain; only running out of draws is an error.  Every
such check but the last reads only the lifted jets, so candidate points
are judged as soon as they are lifted, and the rest of the pipeline runs
once, on the sample (`collect_snapshots`).

The sample is one TensorSnapshot, and each zero test reduces its residual
over all rows at once.  A residual that is not finite fails the test.  The
tests linear in the snapshot fields are specs (LINEAR_TESTS), read off at
import into one matrix on the snapshot map's input x (`tensor.read_off`).
So are the joined predicates (JOINED), per row the largest residual of
the tests each joins.  t_constant is the zero test a2 - t0 a1, t0 the mean
of the measured a2/a1.  `_verdicts` builds every verdict, on one residual
scale over every sample point, into the table the report keeps as
`verdicts`; the labels and the inconclusive names are read off it.
The labels are data too: three tables of (label, verdicts that must hold,
verdicts that must not) rows, A_PATTERNS, CD_PATTERNS and E_PATTERNS, and
`first_match` picks the first row that matches.  One function, `classes_of`,
maps the set of verdicts that hold to the report's `classes`, a letter or ""
per family A-E; the report's `labels` are the letters that are set.

Every residual component is measured against the larger of 1 and its
componentwise roundoff bound, the same arithmetic on magnitudes (Higham,
Accuracy and Stability of Numerical Algorithms, ch. 3), so roundoff from
large intermediate values cannot flip a verdict.

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

import numpy as np

from .expr import EvalError, Web, is_integer
from .jet import NCOEFF, jet_lift
from .tensor import (UNIT_FIELDS, jacobian_blocks, read_off, read_spec,
                     snapshot)


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
        if not is_integer(self.points):
            raise ValueError("points must be an integer, got %r"
                             % (self.points,))
        if not (is_integer(self.seed) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer, got %r"
                             % (self.seed,))
        if self.points < 8:
            raise ValueError("need at least 8 sample points, got %d"
                             % self.points)
        if not (0.0 < self.tol < 1e-3):
            raise ValueError("tol must be in (0, 1e-3), got %g" % self.tol)
        lo, hi = self.box
        if not (lo < hi and math.isfinite(hi - lo)):
            raise ValueError("box must satisfy lo < hi with a finite width, "
                             "got %r" % (self.box,))
        if not self.margin > 0:
            raise ValueError("margin must be positive, got %r" % self.margin)

    def to_dict(self):
        return {"points": int(self.points), "tol": self.tol,
                "seed": int(self.seed),
                "box": [self.box[0], self.box[1]], "margin": self.margin}


@dataclass(frozen=True)
class IdentityVerdict:
    """One zero test's outcome over the sample, with its worst residual."""

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
# webs).  Points where a Jacobian block's normalized determinant
# (`tensor.jacobian_blocks`) is below this floor are rejected during
# classification sampling; 0.05 keeps residuals of true identities below
# 4e-13 (the largest over the corpus at seeds 1000-1999 is 3.2e-13) while
# discarding at most a third of the draws on the worst corpus web.
NDET_FLOOR = 0.05

# A failing zero test's witness is the last row whose residual is within
# this relative distance of the worst.  Many rows of a failing predicate
# often attain one exact ratio (1, 1/3, 3/4, ...), and roundoff alone would
# otherwise pick which of them is the witness.
WITNESS_RTOL = 1e-9

# The most points one sampler round draws: the budget at the default 64
# points, so a default run draws as if there were no cap.  It bounds the
# memory of a round, which would otherwise grow with `points`.
ROUND_DRAWS = 32000


def collect_snapshots(web: Web, config: RunConfig, params=None):
    """Snapshots at admissible, well-conditioned sample points, as one
    TensorSnapshot of `config.points` rows in draw order.

    Points are drawn in rounds from one seeded stream, so the draws are
    those of one big draw of the budget, max(20000, 500 points).  A round
    draws the rows still wanted over the accept rate so far in this call
    (rows passed over points drawn, 1 at first), plus 1/8.  While nothing
    has passed, a round draws 9/8 `config.points` times the points drawn
    so far, so a restrictive domain costs only a few rounds more than an
    open one; no round draws more than ROUND_DRAWS.  A round's admissible
    rows, at most 60 per wanted point in all, are lifted and judged on
    their coefficients alone: a row is rejected when they are not finite,
    or when a Jacobian block's normalized determinant is below NDET_FLOOR
    (or NaN).  Once
    `config.points` rows pass, `snapshot` runs the tensor tail once, on
    exactly those rows and their coefficients.  A row whose invariants are
    not finite is dropped and the next passing row in draw order takes its
    place, so the sample is the first `config.points` admissible rows that
    pass every check.
    """
    bound = web.bind(params)
    rng = np.random.default_rng(config.seed)
    n = config.points
    budget, cap = max(20000, 500 * n), 60 * n
    drawn = tried = 0  # points drawn, admissible rows lifted
    # the lifted rows that pass, in draw order, and their coefficients
    rows, coeffs = np.empty((0, 4)), np.empty((0, 2, NCOEFF))
    while True:
        while len(rows) < n:
            found = len(rows)
            if drawn == budget or tried == cap:
                raise SamplerExhausted(
                    "only %d of %d well-conditioned admissible points "
                    "found" % (found, n))
            # no row passed yet reads as a rate below 1/drawn
            need = (n - found) * max(drawn, 1) / max(found, 1)
            size = min(math.ceil(need * 9 / 8), budget - drawn, ROUND_DRAWS)
            draws = rng.uniform(*config.box, size=(size, 4))
            drawn += size
            lifted = draws[web.admissible(draws, bound, config.margin)]
            lifted = lifted[:cap - tried]
            tried += len(lifted)
            if not len(lifted):
                continue
            c = jet_lift(web.lift_program, lifted, bound)
            with np.errstate(all="ignore"):
                ndet = jacobian_blocks(c)[2]
                ok = (np.isfinite(c).all(axis=(1, 2))
                      & (ndet >= NDET_FLOOR).all(axis=1))
            rows = np.concatenate([rows, lifted[ok]])
            coeffs = np.concatenate([coeffs, c[ok]])
        batch = snapshot(web, rows[:n], bound, check_domain=False,
                         coeffs=coeffs[:n])
        if batch.finite.all():
            return batch
        keep = np.concatenate([batch.finite, np.ones(len(rows) - n, bool)])
        rows, coeffs = rows[keep], coeffs[keep]


# The zero tests linear in the snapshot fields: each name maps to the spec
# of its residual components (`tensor.read_spec`).  In report order: the
# lattice, the torsion-direction branch (omega_balance: gamma summed over
# its upper index is the same in either lower index), the p/q patterns.
LATTICE = {
    "isoclinic": "p.12 - p.21, q.12 - q.21",
    "isoclinicly_geodesic": "a_cov",
    "transversally_geodesic": "a4",
    "almost_algebraizable": "f2 + g2 + h2",
    "almost_Bol": "f2 + g2, h2",
    "almost_parallelizable": "f2, g2, h2",
}

BRANCH = {
    "a1_zero": "a_cov.1",
    "a2_zero": "a_cov.2",
    "a1_eq_a2": "a_cov.1 - a_cov.2",
    "omega21_zero": "gamma.112, gamma.12",
    "omega12_zero": "gamma.21, gamma.221",
    "p22_q22_zero": "p.22, q.22",
    "p11_q11_zero": "p.11, q.11",
    "pq_quadsum_zero": "p.11 - p.12 - p.21 + p.22, q.11 - q.12 - q.21 + q.22",
    "b_222_zero": "b.1222, b.2222",
    "b_111_zero": "b.1111, b.2111",
    "omega_balance": "gamma.111 + gamma.211 - gamma.112 - gamma.212, "
                     "gamma.121 + gamma.221 - gamma.122 - gamma.222, "
                     "gamma.111 + gamma.211 - gamma.121 - gamma.221, "
                     "gamma.112 + gamma.212 - gamma.122 - gamma.222",
    "hex_at_1": "b.1222 - b.1122 - b.1212 - b.1221 + b.1112 + b.1121 + b.1211"
                " - b.1111, b.2222 - b.2122 - b.2212 - b.2221 + b.2112"
                " + b.2121 + b.2211 - b.2111",
}

E_TESTS = {
    "e_p_zero": "p",
    "e_q_zero": "q",
    "e_p11": "p.11",
    "e_p12": "p.12, p.21",
    "e_p22": "p.22",
    "e_q11": "q.11",
    "e_q12": "q.12, q.21",
    "e_q22": "q.22",
    "e_pq_sum": "p + q",
    "e_p22_plus_q22": "p.22 + q.22",
    "e_p11_plus_q11": "p.11 + q.11",
}

# The labels, as (label, verdicts that must hold, verdicts that must not)
# rows, most specific first: the first row that matches gives the label
# (`first_match`).  A verdict that was not computed (t_constant and hex_at_t
# without a constant t) does not hold.  The A rows after the second see an
# integrable torsion direction; the C/D rows after the fourth see a4 = 0.
A_PATTERNS = (
    ("", "isoclinicly_geodesic", ""),
    ("A2", "", "integrability"),
    ("A121", "a2_zero p22_q22_zero omega21_zero b_222_zero", "a1_zero"),
    ("A12", "a2_zero p22_q22_zero", "a1_zero"),
    ("A1", "a2_zero", "a1_zero"),
    ("A131", "a1_zero p11_q11_zero omega12_zero b_111_zero", "a2_zero"),
    ("A13", "a1_zero p11_q11_zero", "a2_zero"),
    ("A1", "a1_zero", "a2_zero"),
    ("A1121", "a1_eq_a2 pq_quadsum_zero omega_balance hex_at_1", ""),
    ("A112", "a1_eq_a2 pq_quadsum_zero", ""),
    ("A1", "a1_eq_a2", ""),
    ("A111", "t_constant hex_at_t", ""),
    ("A11", "t_constant", ""),
    ("A1", "", ""),
)

CD_PATTERNS = (
    ("C12", "almost_parallelizable", "transversally_geodesic"),
    ("C11", "almost_Bol", "transversally_geodesic"),
    ("C1", "almost_algebraizable", "transversally_geodesic"),
    ("C2", "", "transversally_geodesic"),
    ("D232", "almost_parallelizable isoclinicly_geodesic", ""),
    ("D231", "almost_parallelizable", ""),
    ("D21", "almost_Bol", ""),
    ("D22", "almost_algebraizable", ""),
    ("D1", "", ""),
)

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

LINEAR_TESTS = {**LATTICE, **BRANCH, **E_TESTS}
_RESIDUALS, _TEST_STARTS = read_off(LINEAR_TESTS)

# The predicates that join linear tests: each holds where all of its tests
# hold, and its residual at a row is the largest of theirs, the columns
# _JOINED_COLUMNS of the linear tests' residuals from each _JOINED_STARTS.
JOINED = {"hexagonal": "transversally_geodesic almost_algebraizable",
          "Bol": "transversally_geodesic almost_Bol",
          "group": "transversally_geodesic almost_parallelizable",
          "parallelizable": "isoclinicly_geodesic transversally_geodesic "
                            "almost_parallelizable"}
_JOINED_COLUMNS = [list(LINEAR_TESTS).index(name)
                   for tests in JOINED.values() for name in tests.split()]
_JOINED_STARTS = np.cumsum([0] + [len(tests.split())
                                  for tests in JOINED.values()])[:-1]


# The tests at a constant t, cubic in t: the specs of the coefficients of
# t^0..t^3, and in _AT_T their matrices (104, 6).  Four columns of the
# frame-alignment identity, informational only (omega_2^1 should equal
# t^2 omega_1^2 + t(omega_1^1 - omega_2^2) coefficientwise, on either base
# form), then hexagonality at t.
AT_T = (
    "gamma.112, gamma.122, gamma.12, b.1222, b.2222",
    "gamma.212 - gamma.111, gamma.222 - gamma.121, gamma.22 - gamma.11, "
    "-b.1122 - b.1212 - b.1221, -b.2122 - b.2212 - b.2221",
    "-gamma.211, -gamma.221, -gamma.21, "
    "b.1112 + b.1121 + b.1211, b.2112 + b.2121 + b.2211",
    "0*gamma.211, 0*gamma.221, 0*gamma.21, -b.1111, -b.2111")
_AT_T = [read_spec(spec, UNIT_FIELDS) for spec in AT_T]


def _tests_at(t):
    """The matrix of the tests at t, assembled by Horner's rule, and each
    test's first column."""
    matrix = _AT_T[3]
    for power in _AT_T[2::-1]:
        matrix = matrix * t + power
    return matrix, [0, 4]


# |a|, |p| and |q| as functions of x, for the bound of integrability
_APQ_ABS = np.abs(read_spec("a_cov, p, q", UNIT_FIELDS))
# every verdict, in the order of a report's `verdicts`
_ORDER = (*LATTICE, *JOINED, "integrability", *BRANCH, "t_constant",
          "hex_at_t", *E_TESTS)


class _Tester:
    """Runs zero-identity tests over a fixed snapshot sample, a batch.

    Each residual component is measured against the larger of 1 and the
    componentwise roundoff bound of the arithmetic that produced it: for a
    test linear in x, the residual is x @ M and its bound x_abs @ |M|.  A
    test's residual is the largest over its components and the rows.
    """

    def __init__(self, snaps, tol):
        self.snaps = snaps
        self.tol = tol
        self.x_abs = snaps.x_abs()

    def worst(self, matrix, starts):
        """(rows, tests): per row, each test's largest |x @ matrix| over
        max(1, x_abs @ |matrix|), the tests starting at the columns
        `starts`."""
        ratio = (np.abs(self.snaps.x @ matrix)
                 / np.maximum(1.0, self.x_abs @ np.abs(matrix)))
        return np.maximum.reduceat(ratio, starts, axis=1)

    def integrability(self):
        """(rows, 1): the torsion-direction forms of p and q, w . m with the
        weights w = (a2^2, -a1 a2, -a1 a2, a1^2) on m's components, over
        the same arithmetic on the bounds of a, p and q."""
        def weights(a):
            a1, a2 = a.T[:, :, None]
            return np.stack([a2 * a2, -a1 * a2, -a1 * a2, a1 * a1], -1)

        pq = np.stack([self.snaps.p, self.snaps.q], 1).reshape(-1, 2, 4)
        bound = self.x_abs @ _APQ_ABS
        ratio = (np.abs((weights(self.snaps.a_cov) * pq).sum(-1))
                 / np.maximum(1.0, (np.abs(weights(bound[:, :2]))
                                    * bound[:, 2:].reshape(pq.shape)).sum(-1)))
        return ratio.max(axis=1, keepdims=True)

    def verdicts(self, names, resid):
        """{name: verdict} per column of the (rows, tests) residuals.  A NaN
        residual counts as infinite, so it fails and is the witness."""
        resid = np.where(np.isnan(resid), np.inf, resid)
        worst = resid.max(axis=0)
        near = resid >= worst * (1.0 - WITNESS_RTOL)
        last = len(resid) - 1 - np.argmax(near[::-1], axis=0)
        return {name: IdentityVerdict(w < self.tol, w, len(resid),
                                      None if w < self.tol else tuple(point))
                for name, w, point in zip(names, worst.tolist(),
                                          self.snaps.points[last].tolist())}


def _verdicts(snaps, tol):
    """The table {name: IdentityVerdict} of every verdict, in _ORDER; t0,
    the mean of a2/a1 where a1 is usable, and the frame-alignment residual
    at t0, both None unless t_constant holds.  t_constant is computed only
    where a1 does not vanish identically, hex_at_t where t_constant holds."""
    T = _Tester(snaps, tol)
    worst = T.worst(_RESIDUALS, _TEST_STARTS)
    joined = np.maximum.reduceat(worst[:, _JOINED_COLUMNS], _JOINED_STARTS, 1)
    table = T.verdicts([*LINEAR_TESTS, *JOINED, "integrability"],
                       np.concatenate([worst, joined, T.integrability()], 1))
    t0 = frame = None
    t_vals = snaps.t_ratio[~np.isnan(snaps.t_ratio)]
    if t_vals.size and not table["a1_zero"].holds:
        t = float(np.mean(t_vals))
        a1, a2 = (read_spec(p, UNIT_FIELDS) for p in ("a_cov.1", "a_cov.2"))
        table.update(T.verdicts(["t_constant"], T.worst(a2 - t * a1, [0])))
        if table["t_constant"].holds:
            t0 = t
            worst = T.worst(*_tests_at(t0))
            frame = float(np.max(worst[:, 0]))
            table.update(T.verdicts(["hex_at_t"], worst[:, 1:]))
    return {name: table[name] for name in _ORDER if name in table}, t0, frame


@dataclass
class ClassificationReport:
    """A web's class letters and the verdicts they rest on."""

    web_name: str
    classes: dict  # classes_of the verdicts that hold
    predicates: dict
    branch_a: dict
    inconclusive: tuple
    config: RunConfig
    params: dict
    verdicts: dict  # every verdict, by name; not written by to_dict
    generic: bool | None = None
    per_binding: tuple | None = None

    @property
    def labels(self):
        """The class letters that are set, in A-E order."""
        return tuple(label for label in self.classes.values() if label)

    def to_dict(self):
        preds = {k: v.to_dict() for k, v in self.predicates.items()}
        branch = {k: v.to_dict() if isinstance(v, IdentityVerdict) else v
                  for k, v in self.branch_a.items()}
        out = {
            "web": self.web_name,
            "config": self.config.to_dict(),
            "params": dict(sorted(self.params.items())),
            "labels": list(self.labels),
            "classes": dict(self.classes),
            "predicates": preds,
            "branch_a": branch,
            "inconclusive": list(self.inconclusive),
        }
        if self.generic is not None:
            out["generic"] = self.generic
            out["per_binding"] = [dict(pb) for pb in self.per_binding]
        return out


def classify_web(web: Web, config: RunConfig | None = None, params=None):
    """Full classification of one web under one parameter binding."""
    config = config or RunConfig()
    bound = web.bind(params)
    tol = config.tol
    table, t0, frame = _verdicts(collect_snapshots(web, config, bound), tol)
    branch = {name: table.get(name)
              for name in ("integrability", *BRANCH, "t_constant")}
    branch.update(t_value=t0, frame_alignment_residual=frame,
                  hex_at_t=table.get("hex_at_t"))
    report = ClassificationReport(
        web_name=web.name or "web",
        classes=classes_of({name for name, v in table.items() if v.holds}),
        predicates={name: table[name] for name in (*LATTICE, *JOINED)},
        branch_a=branch,
        inconclusive=tuple(name for name, v in table.items()
                           if tol <= v.max_residual < 10.0 * tol),
        config=config, params=bound, verdicts=table,
    )
    _assert_consistent(report)
    return report


def classes_of(held):
    """The label rule: {"A": .., "B": .., "C": .., "D": .., "E": ..} for the
    set `held` of the verdicts that hold, "" where a family has no label."""
    cd = first_match(CD_PATTERNS, held)
    return {"A": first_match(A_PATTERNS, held),
            "B": "B" if "isoclinicly_geodesic" in held else "",
            "C": cd if cd.startswith("C") else "",
            "D": cd if cd.startswith("D") else "",
            "E": first_match(E_PATTERNS, held)}


def first_match(patterns, held):
    """The label of the first row of `patterns` whose must-hold verdicts
    are all in the set `held` and whose must-fail verdicts are all outside
    it; "" when no row matches."""
    for label, hold, fail in patterns:
        if held.issuperset(hold.split()) and held.isdisjoint(fail.split()):
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
        assert p["almost_parallelizable"].holds
        # two float thresholds: at a tol near roundoff, f2, g2 and h2 can
        # each be below tol where a sum of them is not
        for name in ("almost_Bol", "almost_algebraizable", "hexagonal"):
            if not p[name].holds:
                raise ValueError(
                    "group holds but %s fails (max_residual %.3g) at tol "
                    "%g, below what roundoff lets the sample decide"
                    % (name, p[name].max_residual, report.config.tol))
    if p["parallelizable"].holds:
        assert p["isoclinicly_geodesic"].holds and p["group"].holds
    classes = report.classes
    assert (classes["B"] == "B") == p["isoclinicly_geodesic"].holds
    assert bool(classes["A"]) == (not p["isoclinicly_geodesic"].holds)
    assert bool(classes["C"]) == (not p["transversally_geodesic"].holds)
    assert bool(classes["D"]) == p["transversally_geodesic"].holds
    if classes["D"] == "D232":
        assert p["parallelizable"].holds
    if classes["D"] == "D231":
        assert p["group"].holds and not p["isoclinicly_geodesic"].holds


def classify_generic(web: Web, config: RunConfig | None = None, bindings=5):
    """Classify a parameterized web under several random bindings.

    The returned report is the first binding's, with `generic` set to
    whether all bindings produced identical labels and the per-binding
    label sets attached.  A binding is skipped when too few sample points
    are usable under it, or when a constant subexpression is undefined or
    not finite under it (EvalError).
    """
    if not web.params:
        raise ValueError("classify_generic needs a parameterized web")
    if not (is_integer(bindings) and bindings >= 1):
        raise ValueError("bindings must be an integer >= 1, got %r"
                         % (bindings,))
    config = config or RunConfig()
    rng = np.random.default_rng(config.seed + 7919)
    reports = []
    attempts = 0
    while len(reports) < bindings and attempts < 20 * bindings:
        attempts += 1
        binding = {name: float(rng.uniform(-2.0, 2.0))
                   for name, _ in web.params}
        try:
            reports.append(classify_web(web, config, params=binding))
        except (SamplerExhausted, EvalError):
            continue
    if len(reports) < bindings:
        raise SamplerExhausted("only %d of %d parameter bindings were "
                               "classifiable" % (len(reports), bindings))
    agree = all(r.labels == reports[0].labels for r in reports)
    per_binding = tuple(
        {"params": dict(sorted(r.params.items())), "labels": list(r.labels)}
        for r in reports)
    return replace(reports[0], generic=agree, per_binding=per_binding)
