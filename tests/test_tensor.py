import itertools
import re

import numpy as np
import pytest

from threeweb.classify import RunConfig, collect_snapshots
from threeweb.corpus import load_corpus, load_example
from threeweb.expr import EvalError, parse_web
from oracles import partial
from threeweb.jet import jet_lift
from threeweb.tensor import (
    UNIT_FIELDS,
    DegenerateWeb,
    InadmissiblePoint,
    TensorSnapshot,
    _MAP,
    _tail,
    read_spec,
    snapshot,
    sym3_lower,
)

REFERENCE_POINT = (1.0, 1.0, 0.0, 1.0)


@pytest.fixture(scope="module")
def ref():
    # u1 = x1 + y1, u2 = (x2 + y2)(y1 - x1): small enough that every value
    # below was computed by hand, independently of the pipeline.
    return snapshot(load_example(1).web, REFERENCE_POINT)


def test_jacobian_blocks_by_hand(ref):
    assert ref.fbar == pytest.approx(np.array([[1.0, 0.0], [-2.0, -1.0]]))
    assert ref.ftilde == pytest.approx(np.array([[1.0, 0.0], [2.0, -1.0]]))
    assert ref.det_bar == pytest.approx(-1.0)
    assert ref.det_til == pytest.approx(-1.0)


def test_connection_and_torsion_by_hand(ref):
    want_gamma = np.zeros((2, 2, 2))
    want_gamma[1, 0, 0] = 4.0
    want_gamma[1, 1, 0] = 1.0
    want_gamma[1, 0, 1] = -1.0
    assert ref.gamma == pytest.approx(want_gamma, abs=1e-12)
    assert ref.a_cov == pytest.approx(np.array([-2.0, 0.0]), abs=1e-12)
    assert ref.lookup("torsion.212") == pytest.approx(-1.0)
    assert ref.lookup("torsion.221") == pytest.approx(1.0)


def test_curvature_block_by_hand(ref):
    assert ref.lookup("b.2111") == pytest.approx(-16.0)
    assert ref.lookup("b.2112") == pytest.approx(2.0)
    assert ref.lookup("b.2121") == pytest.approx(-2.0)
    assert ref.lookup("b.1111") == pytest.approx(0.0, abs=1e-12)
    assert ref.lookup("p.11") == pytest.approx(2.0)
    assert ref.lookup("q.11") == pytest.approx(-2.0)
    assert ref.lookup("f2.11") == pytest.approx(2.0)
    assert ref.lookup("g2.11") == pytest.approx(-2.0)
    assert np.max(np.abs(ref.h2)) < 1e-12
    assert ref.lookup("a4.2111") == pytest.approx(-16.0)
    assert ref.lookup("s.11") == pytest.approx(0.0, abs=1e-12)


def test_lookup_paths(ref):
    assert ref.lookup("gamma.211") == ref.gamma[1, 0, 0]
    assert ref.lookup("a_cov.1") == ref.a_cov[0]
    assert ref.lookup("det_bar") == ref.det_bar
    assert ref.lookup("t_ratio") == ref.t_ratio
    with pytest.raises(KeyError):
        ref.lookup("nonsense.11")
    with pytest.raises(KeyError):
        ref.lookup("b.21")        # wrong arity
    with pytest.raises(KeyError):
        ref.lookup("b.2131")      # index out of range
    with pytest.raises(KeyError):
        ref.lookup("b")           # missing indices
    with pytest.raises(KeyError):
        ref.lookup("p.1\u00b2")    # a superscript two is no index
    with pytest.raises(KeyError):
        ref.lookup("p.\uff11\uff11")  # nor are fullwidth digits


def test_spec_paths_stand_for_the_components_they_begin(ref):
    assert np.array_equal(read_spec("gamma.12", ref), ref.gamma[0, 1])
    assert np.array_equal(read_spec("p", ref), ref.p.ravel())
    assert np.array_equal(
        read_spec("b.2, -a_cov, 3*p.1 - q.1, 0*gamma.211", ref),
        np.concatenate([ref.b[1].ravel(), -ref.a_cov,
                        3.0 * ref.p[0] - ref.q[0], [0.0]]))
    # with leading axes, each row's components
    batch = snapshot(load_example(1).web, np.array([REFERENCE_POINT] * 3))
    assert read_spec("a4.2, f2.11 + h2.11", batch).shape == (3, 9)


@pytest.mark.parametrize("spec", [
    "p.11, nonsense.11",  # an unknown field
    "p.12 - s.11",        # a path only `lookup` resolves
    "b.2131",             # an index of 3
    "p.111",              # more indices than the field's rank
    "p.11, , q.11",       # an empty component
    "",
    "p.11 -",
    "p.11 q.11",
    "p.1 - q",            # terms of different sizes
])
def test_malformed_spec_raises_naming_it(ref, spec):
    with pytest.raises(ValueError, match=re.escape(repr(spec))):
        read_spec(spec, ref)


def test_to_dict_is_json_ready(ref):
    import json
    doc = ref.to_dict()
    text = json.dumps(doc)
    back = json.loads(text)
    assert back["b"][1][0][0][0] == pytest.approx(-16.0)
    assert back["non_isoclinic"] is False


def test_snapshots_compare_by_identity(ref):
    # array fields have no single truth value, so two snapshots of one
    # point are distinct objects that compare unequal without raising
    again = snapshot(load_example(1).web, REFERENCE_POINT)
    assert ref == ref and not ref != ref
    assert ref != again and not ref == again
    assert ref in [again, ref] and len({ref, again}) == 2


# --- structural identities at the stored corpus points -------------------

def _stored_snapshots():
    for entry in load_corpus():
        for pt in entry.points:
            yield entry.name, snapshot(entry.web, tuple(pt))


def test_jacobian_inverses_at_stored_points():
    eye = np.eye(2)
    for name, s in _stored_snapshots():
        r1 = np.max(np.abs(s.fbar @ s.gbar - eye))
        r2 = np.max(np.abs(s.ftilde @ s.gtilde - eye))
        scale = max(1.0, np.max(np.abs(s.fbar)), np.max(np.abs(s.ftilde)))
        assert r1 / scale < 1e-10, name
        assert r2 / scale < 1e-10, name


def test_torsion_reconstructs_from_covector():
    for name, s in _stored_snapshots():
        recon = np.zeros((2, 2, 2))
        for i, j, k in itertools.product(range(2), repeat=3):
            recon[i, j, k] = 0.5 * (s.a_cov[j] * (i == k)
                                    - s.a_cov[k] * (i == j))
        resid = np.max(np.abs(s.torsion - recon))
        assert resid / max(1.0, np.max(np.abs(s.torsion))) < 1e-9, name


def test_curvature_alternations_give_p_and_q():
    for name, s in _stored_snapshots():
        b, p, q = s.b, s.p, s.q
        scale = max(1.0, np.max(np.abs(b)), np.max(np.abs(p)),
                    np.max(np.abs(q)))
        for i, j, k, l in itertools.product(range(2), repeat=4):
            lhs_p = 0.5 * (b[i, j, l, k] - b[i, k, l, j])
            rhs_p = 0.5 * ((i == k) * p[j, l] - (i == j) * p[k, l])
            lhs_q = 0.5 * (b[i, j, k, l] - b[i, k, j, l])
            rhs_q = 0.5 * ((i == k) * q[j, l] - (i == j) * q[k, l])
            assert abs(lhs_p - rhs_p) / scale < 1e-7, name
            assert abs(lhs_q - rhs_q) / scale < 1e-7, name


def test_a4_is_traceless_on_the_corpus():
    # every bundled web is isoclinic, so the traceless gauge must hold
    for name, s in _stored_snapshots():
        assert not s.non_isoclinic, name
        trace = s.a4[0, 0] + s.a4[1, 1]
        resid = np.max(np.abs(trace)) / max(1.0, np.max(np.abs(s.a4)))
        assert resid < 1e-8, name


def test_pfaffian_split_is_consistent():
    for name, s in _stored_snapshots():
        scale = max(1.0, np.max(np.abs(s.p)), np.max(np.abs(s.q)),
                    np.max(np.abs(s.h2)))
        assert np.max(np.abs(s.f2 - s.p - s.h2)) / scale < 1e-9, name
        assert np.max(np.abs(s.g2 - s.q - s.h2)) / scale < 1e-9, name


def test_curvature_decomposition_reassembles():
    # b^i_jkl = a4^i_jkl + f_jk d^i_l + g_lj d^i_k + h_kl d^i_j
    for name, s in _stored_snapshots():
        recon = np.array(s.a4)
        for i, j, k, l in itertools.product(range(2), repeat=4):
            recon[i, j, k, l] += (s.f2[j, k] * (i == l)
                                  + s.g2[l, j] * (i == k)
                                  + s.h2[k, l] * (i == j))
        resid = np.max(np.abs(recon - s.b))
        assert resid / max(1.0, np.max(np.abs(s.b))) < 1e-9, name


def test_sym3_lower_symmetrizes():
    rng = np.random.default_rng(7)
    t = rng.normal(size=(2, 2, 2, 2))
    sym = sym3_lower(t)
    for i, j, k, l in itertools.product(range(2), repeat=4):
        assert sym[i, j, k, l] == pytest.approx(sym[i, k, j, l])
        assert sym[i, j, k, l] == pytest.approx(sym[i, j, l, k])
    want = np.mean([np.transpose(t, (0,) + perm)
                    for perm in itertools.permutations((1, 2, 3))], axis=0)
    assert sym == pytest.approx(want)


def random_x(seed, scale, n=50):
    """n random inputs x = [gamma, -D gamma, gamma (x) gamma] of the map,
    and each row's largest |x|: the largest term the map combines."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, 8)) * scale
    x = np.concatenate([g, rng.normal(size=(n, 32)) * scale,
                        (g[:, :, None] * g[:, None, :]).reshape(n, 64)], 1)
    return x, np.abs(x).max(1)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_compiled_tail_matches_its_formulas(scale):
    x, terms = random_x(11, scale)
    want = _tail(x)
    for name, unit in vars(UNIT_FIELDS).items():
        got = np.tensordot(x, unit, 1)
        error = np.abs(got - getattr(want, name)).reshape(len(x), -1)
        assert np.all(error.max(1) <= 1e-13 * terms), name
    # the map's last two columns: the asymmetries of p and q
    asym = np.stack([m[:, 0, 1] - m[:, 1, 0] for m in (want.p, want.q)], 1)
    assert np.all(np.abs(x @ _MAP[:, -2:] - asym).max(1) <= 1e-13 * terms)
    # the two orders of each product of two gammas share one row
    pairs = _MAP[40:].reshape(8, 8, -1)
    assert np.array_equal(pairs, pairs.transpose(1, 0, 2))


def _torsion_from_covector(a_cov):
    eye = np.eye(2)
    return 0.5 * (np.einsum("nj,ik->nijk", a_cov, eye)
                  - np.einsum("nk,ij->nijk", a_cov, eye))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_tail_satisfies_the_structural_identities(scale):
    # in two dimensions every torsion has the shape
    # a^i_jk = (a_j d^i_k - a_k d^i_j)/2, and h2 cancels the trace of a4,
    # for any gamma and D gamma, not only for those of a web
    x, terms = random_x(13, scale)
    out = _tail(x)
    recon = _torsion_from_covector(out.a_cov)
    assert np.all(np.abs(out.torsion - recon).max((1, 2, 3)) <= 1e-13 * terms)
    trace = out.a4[:, 0, 0] + out.a4[:, 1, 1]
    assert np.all(np.abs(trace).max((1, 2)) <= 1e-13 * terms)


def test_map_satisfies_the_structural_identities_exactly():
    # the same identities on the fields at the unit vectors of x, whose
    # coefficients are exact multiples of 1/144: each holds with no
    # roundoff at all
    assert np.array_equal(UNIT_FIELDS.torsion,
                          _torsion_from_covector(UNIT_FIELDS.a_cov))
    assert not (UNIT_FIELDS.a4[:, 0, 0] + UNIT_FIELDS.a4[:, 1, 1]).any()


def test_omega_coefficients_mirror_gamma():
    for name, s in _stored_snapshots():
        assert s.omega_coeffs[1] == pytest.approx(s.gamma)
        assert s.omega_coeffs[0] == pytest.approx(
            np.transpose(s.gamma, (0, 2, 1)))
        break


def test_degenerate_web_is_rejected():
    web = parse_web("u1 = x1\nu2 = x2\n", name="flat")
    with pytest.raises(DegenerateWeb):
        snapshot(web, (1.0, 1.0, 1.0, 1.0))


def test_inadmissible_point_names_the_constraint():
    web = load_example(1).web
    with pytest.raises(InadmissiblePoint) as info:
        snapshot(web, (1.0, 1.0, 1.0, 1.0))
    assert "x1 - y1 != 0" in str(info.value)
    # a caller that hands over the lifted coefficients skips the gate
    # (the sampler does)
    pt = (1.0, 1.0, 1.0 + 1e-4, 1.0)
    s = snapshot(web, pt, coeffs=jet_lift(web.lift_program, pt, web.bind()))
    assert s.det_bar != 0.0


def test_overflowing_constraint_fails_the_gate():
    # x1*1e308*10 is inf at x1 = 7: not finite, so the point is outside
    web = parse_web("u1 = x1 + y1\nu2 = x2 * y2\ndomain x1*1e308*10 > 0\n")
    pt = (7.0, 1.0, 2.0, 3.0)
    assert not web.admissible(pt)
    with pytest.raises(InadmissiblePoint, match="value inf"):
        snapshot(web, pt)


def test_batch_gate_names_the_first_bad_row():
    web = load_example(1).web          # x1 - y1 != 0
    points = np.tile(REFERENCE_POINT, (5, 1))
    points[2:4, 2] = 1.0               # rows 2 and 3 sit on x1 = y1
    with pytest.raises(InadmissiblePoint,
                       match=r"row 2 \(1.0, 1.0, 1.0, 1.0\): x1 - y1 != 0"):
        snapshot(web, points)
    assert len(snapshot(web, points[:2])) == 2


def test_margin_wider_than_default_rejects_more():
    web = load_example(1).web
    pt = (1.0, 1.0, 0.99, 1.0)         # x1 - y1 = 0.01
    assert snapshot(web, pt) is not None
    with pytest.raises(InadmissiblePoint):
        snapshot(web, pt, margin=0.1)


@pytest.mark.parametrize("margin", [-1.0, 0.0, float("nan")])
def test_margin_must_be_positive(margin):
    # the domain rule owns the margin: at a point on the singular set
    # x1 = y1, a negative margin let the point through admissible and
    # violated_constraint, and a NaN one rejected every point
    web = load_example(1).web
    for call in (web.admissible, web.violated_constraint,
                 lambda *args: snapshot(web, *args)):
        for point in (np.ones(4), np.ones((3, 4))):
            with pytest.raises(ValueError,
                               match="margin must be positive, got"):
                call(point, None, margin)


@pytest.mark.parametrize("call,point", [
    ("admissible", (1.0, 2.0, 0.5)),
    ("snapshot", np.ones((5, 3))),
    ("snapshot", np.ones((2, 2, 4))),
    ("snapshot unchecked", np.ones((2, 2, 4))),
])
def test_points_of_any_other_shape_raise_naming_it(call, point):
    # they read 0.5 as y1, blamed x1 - y1 != 0 and failed in numpy's "truth
    # value of an array ... is ambiguous"; the unchecked snapshot skips the
    # domain gate, which checks the shape too
    web = load_example(1).web
    calls = {"admissible": web.admissible,
             "snapshot": lambda p: snapshot(web, p),
             "snapshot unchecked": lambda p: snapshot(web, p, coeffs=jet_lift(
                 web.lift_program, p, web.bind()))}
    with pytest.raises(ValueError,
                       match="got shape " + re.escape(str(np.shape(point)))):
        calls[call](point)


def test_identities_hold_at_random_points_too():
    # cheap version of the full random-point sweep: 4 points, 3 webs
    config = RunConfig(points=8, seed=11)
    for index in (1, 7, 12):
        entry = load_example(index)
        for s in collect_snapshots(entry.web, config)[:4]:
            eye = np.eye(2)
            assert np.max(np.abs(s.fbar @ s.gbar - eye)) < 1e-8
            sym = sym3_lower(s.b)
            bkk = sym[0, 0] + sym[1, 1]
            h_again = 0.25 * bkk - (s.p + s.q) / 3.0
            assert h_again == pytest.approx(s.h2, abs=1e-9)


# --- the batched pipeline ------------------------------------------------

def _assert_rows_match(batch, snaps):
    for i, s in enumerate(snaps):
        row = batch[i]
        assert row.point == s.point
        for name in s._FIELDS:
            want = getattr(s, name)
            got = getattr(row, name)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, (name, i)
        for name in ("det_bar", "det_til", "t_ratio"):  # t_ratio may be NaN
            assert getattr(row, name) == pytest.approx(
                getattr(s, name), rel=1e-12, abs=1e-12, nan_ok=True), name
        assert row.non_isoclinic == s.non_isoclinic


def test_batch_matches_single_point_snapshots():
    for entry in load_corpus():
        points = np.array(entry.points, dtype=float)
        batch = snapshot(entry.web, points)
        assert len(batch) == len(points)
        assert batch.finite.all() and not batch.degenerate.any()
        _assert_rows_match(batch, [snapshot(entry.web, tuple(pt))
                                   for pt in entry.points])
    empty = snapshot(load_example(7).web, np.zeros((0, 4)))
    assert len(empty) == 0 and empty.b.shape == (0, 2, 2, 2, 2)


def test_a_batch_indexes_to_snapshots():
    # one type at one point and at N: a row and a slice of a batch are
    # snapshots, and omega_coeffs keeps the batch axis in front
    entry = load_example(6)
    batch = snapshot(entry.web, np.array(entry.points, dtype=float))
    assert isinstance(batch[1], TensorSnapshot)
    assert isinstance(batch[1:3], TensorSnapshot) and len(batch[1:3]) == 2
    assert batch.omega_coeffs.shape == (len(batch), 2, 2, 2, 2)
    for i in range(len(batch)):
        assert np.array_equal(batch.omega_coeffs[i], batch[i].omega_coeffs)


@pytest.mark.parametrize("rows", [slice(None), slice(0, 1)])
def test_one_point_readers_refuse_a_batch(rows):
    # a batch of one too: on old numpy, lookup read its row 0 as a float
    points = np.array([REFERENCE_POINT] * 3)
    batch = snapshot(load_example(1).web, points)[rows]
    with pytest.raises(ValueError, match="reads one point"):
        batch.to_dict()
    with pytest.raises(ValueError, match="reads one point"):
        batch.lookup("p.11")


def test_one_point_is_not_a_sequence():
    # its fields have no point axis, so a length would count the four
    # coordinates and iteration would stop at numpy's IndexError
    s = snapshot(load_example(1).web, REFERENCE_POINT)
    for use in (len, list, lambda s: s[0], lambda s: s[:1]):
        with pytest.raises(TypeError, match="one point"):
            use(s)
    assert s
    with pytest.raises(ValueError, match="reads a batch"):
        s.x_abs()
    batch = snapshot(load_example(1).web, np.array([REFERENCE_POINT] * 2))
    assert len(list(batch)) == 2 and len(batch[:1]) == 1
    assert batch and not batch[:0]


@pytest.mark.parametrize("text,bad_point", [
    # x1 = y1 makes fbar singular for example01's defining functions
    (None, (1.0, 1.0, 1.0, 1.0)),
    # ln of a negative value: outside the implicit domain of u1
    ("u1 = ln(x1) + y1*x2\nu2 = x2*y2 + y1\n", (-1.0, 0.5, 1.0, 2.0)),
    # exp(exp(9)) overflows
    ("u1 = exp(exp(x1*y1)) + y2\nu2 = x2 + y1\n", (3.0, 0.5, 3.0, 2.0)),
    # the zeroth power of an undefined base is undefined
    ("u1 = ln(x1)^0 + x1 + y1*x2\nu2 = x2*y2 + y1\n", (-1.0, 0.5, 1.0, 2.0)),
])
def test_bad_row_mid_batch_is_masked_alone(text, bad_point):
    web = load_example(1).web if text is None else parse_web(text)
    good = np.array([[1.0, 1.0, 0.5, 1.0], [2.0, 1.0, -1.0, 3.0],
                     [0.5, 2.0, 0.25, -1.5]])
    mixed = np.insert(good, 1, bad_point, axis=0)

    def unchecked(points):
        return snapshot(web, points, coeffs=jet_lift(web.lift_program,
                                                     points, web.bind()))

    batch = unchecked(mixed)
    assert batch.degenerate[1] or not batch.finite[1]
    assert batch.finite[[0, 2, 3]].all()
    assert not batch.degenerate[[0, 2, 3]].any()
    with pytest.raises((DegenerateWeb, EvalError)):
        unchecked(bad_point)
    _assert_rows_match(batch[[0, 2, 3]], [unchecked(pt) for pt in good])


@pytest.mark.parametrize("index", [1, 6, 8, 10, 13])
def test_frame_products_match_the_docstring_formulas(index):
    # the einsum formulas of the module docstring, on partials read off the
    # jets one at a time, against the batched products of the pipeline
    web = load_example(index).web
    batch = collect_snapshots(web, RunConfig(points=8, seed=3))
    jets = jet_lift((web.u1, web.u2), batch.points, web.bind())

    def partials(*axes):
        out = np.zeros((len(batch), 2) + tuple(map(len, axes)))
        for where in itertools.product(*map(range, map(len, axes))):
            alpha = [0] * 4
            for axis, w in zip(axes, where):
                alpha[axis[w]] += 1
            for i in range(2):
                out[(slice(None), i) + where] = partial(jets[:, i], alpha)
        return out

    z, x, y = range(4), range(2), range(2, 4)
    hess, third = partials(z, z), partials(z, x, y)
    e = np.einsum
    frame = batch.frame
    hess_frame = e("nsa,nist,ntb->niab", frame, hess, frame)
    third_frame = e("nislm,nlj,nmk->nisjk", third, batch.gbar, batch.gtilde)
    gamma = -hess_frame[:, :, :2, 2:]
    minus_d_gamma = (e("nisjk,nsr->nijkr", third_frame, frame)
                     + e("nipk,npjr->nijkr", gamma, hess_frame[:, :, :2])
                     + e("nijp,npkr->nijkr", gamma, hess_frame[:, :, 2:]))
    for got, want in ((batch.hess_frame, hess_frame), (batch.gamma, gamma),
                      (batch.third_frame, third_frame),
                      (batch.x[:, 8:40], minus_d_gamma.reshape(-1, 32))):
        assert got.shape == want.shape
        scale = np.maximum(1.0, np.abs(want).reshape(len(want), -1).max(1))
        err = np.abs(got - want).reshape(len(want), -1).max(1)
        assert np.all(err <= 1e-12 * scale)
    # the bound of -D gamma covers the same arithmetic on magnitudes
    assert np.all(batch.x_abs()[:, 8:40] >= np.abs(minus_d_gamma).reshape(
        -1, 32) * (1.0 - 1e-12))
