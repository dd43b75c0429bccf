import tracemalloc

import numpy as np
import pytest

import wpsc
from conftest import make_uos
from wpsc.errors import DegenerateColumnError, ParameterError
from wpsc.graph import Partition, spectral_clustering
from wpsc.pipeline import Fit, SingleViewPipeline, WpMeraPipeline, five_views, unit_columns
from wpsc.subspace import assign_multiview_batch, block_width
from wpsc.wavelet import node_matrix


@pytest.mark.parametrize("spec", [
    wpsc.SolverSpec("SSC", {"alpha": 10}),
    wpsc.SolverSpec("LRR", {"lambda": 10.0}),
    wpsc.SolverSpec("NSN", {"k": 8, "d_max": 3}),
    wpsc.SolverSpec("RTSC", {"q": 5}),
], ids=lambda s: s.kind)
def test_every_solver_recovers_planted_clusters(spec):
    ds = make_uos(C=4, d=3, D=60, n=15, sigma=0.0, seed=0)
    pred = SingleViewPipeline(spec).run(ds.data, ds.C, seed=0)
    assert wpsc.evaluate(ds.labels, pred).acc == 1.0


def test_ipd_pipeline_variant_runs():
    ds = make_uos(C=3, d=2, D=36, n=10, sigma=0.0, seed=1)
    pipe = SingleViewPipeline(wpsc.SolverSpec("SSC", {"alpha": 10}), ipd_d=2)
    pred = pipe.run(ds.data, ds.C, seed=1)
    assert wpsc.evaluate(ds.labels, pred).acc == 1.0


def test_unit_columns_rejects_zero_column():
    X = np.ones((4, 3))
    X[:, 1] = 0.0
    with pytest.raises(DegenerateColumnError):
        unit_columns(X)


@pytest.mark.parametrize("order", "CF")
def test_unit_columns_of_a_stack_normalize_each_member(order):
    members = [np.asarray(make_uos(C=2, d=2, D=16, n=6, sigma=0.1, seed=s).data * (s + 2),
                          order=order) for s in range(3)]
    stack = (np.stack(members) if order == "C"
             else np.stack([X.T for X in members]).transpose(0, 2, 1))
    got = unit_columns(stack)
    for b, X in enumerate(members):
        want = unit_columns(X)
        assert np.array_equal(got[b], want)
        assert got[b].flags.f_contiguous == want.flags.f_contiguous
    stack[2, :, 4] = 0.0
    with pytest.raises(DegenerateColumnError, match=r"\[4\]"):
        unit_columns(stack)


@pytest.mark.parametrize("ipd_d", [None, 3])
def test_stack_run_gives_each_member_its_lone_labels(ipd_d):
    pipe = SingleViewPipeline(wpsc.SolverSpec("SSC", {"alpha": 10}), ipd_d=ipd_d)
    members = [make_uos(C=3, d=2, D=36, n=10, sigma=0.2, seed=s).data for s in range(3)]
    reps = pipe.representation(np.stack(members))
    labels = pipe.run(np.stack(members), 3, seed=1)
    assert reps.shape == (3, 30, 30) and len(labels) == 3
    for b, X in enumerate(members):
        assert np.array_equal(reps[b], pipe.representation(X))
        assert np.array_equal(labels[b], pipe.run(X, 3, seed=1))


def test_five_views_order_and_shapes():
    ds = make_uos(C=2, d=2, D=16, n=6, sigma=0.0, seed=2)
    views = five_views(ds)
    assert len(views) == 5
    for v in views:
        assert v.shape == ds.data.shape
        assert np.abs(np.linalg.norm(v, axis=0) - 1.0).max() <= 1e-12
    # view 0 is the (re-normalized) original data
    assert np.abs(views[0] - ds.data).max() <= 1e-12
    # row-major and read-only, so mera_mvsc and the Fit share them, also
    # for column-major data, as bundles load
    fortran = wpsc.Dataset(data=np.asfortranarray(ds.data), img_h=ds.img_h, img_w=ds.img_w)
    for vs in (views, five_views(fortran)):
        assert all(v.flags.c_contiguous and not v.flags.writeable for v in vs)


def test_wp_mera_fit_holds_one_working_set():
    # D = 1024, N = 60, V = 5, column-major as a bundle loads. The bound
    # allows each view once, one shrink input per view (from which E^v and
    # W^v are rebuilt) and two shared D x N buffers (2V + 2), and 16
    # N x N x V arrays: the solver's Z, Zhat, M2, consensus unfolding and
    # inverses, mera_fit's scratch, layer and contraction, and N x N
    # temporaries, which are 1/V of one each. The fit peaked at 15.4 D x N;
    # with E and W kept per view and one shared scratch it peaked at 19.3,
    # and with a row-major copy of every view and E, W and a scratch per
    # view at 29.3
    D, N, V = 1024, 60, 5
    ds = make_uos(C=5, d=5, D=D, n=12, sigma=0.05, seed=0)
    ds = wpsc.Dataset(data=np.asfortranarray(ds.data), img_h=32, img_w=32, labels=ds.labels)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fit = WpMeraPipeline(lam=10.0, R=12).fit(ds, 5, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert wpsc.evaluate(ds.labels, fit.labels).acc == 1.0
    assert peak <= ((2 * V + 2) * D * N + 16 * N * N * V) * 8


@pytest.mark.parametrize("key, value", [
    ("lam", -1.0), ("lam", float("nan")), ("lam", True), ("R", 0), ("R", 12.0), ("R", True),
    ("tol", 0.0), ("tol", True), ("max_iter", 0), ("sweeps", 0), ("sweeps", 2.5),
])
def test_wp_mera_pipeline_checks_its_settings(key, value):
    # each of these once reached mera_mvsc: a TypeError, a ConvergenceError or a run
    settings = {"lam": 10.0, "R": 12, key: value}
    name = "mera.lambda" if key == "lam" else f"mera.{key}"
    with pytest.raises(ParameterError, match=f"^{name} must be "):
        WpMeraPipeline(**settings)


@pytest.mark.parametrize("key, value", [
    ("ipd_d", 0), ("ipd_d", 2.5), ("ipd_d", True), ("levels", 0), ("levels", 1.5),
])
def test_single_view_pipeline_checks_its_settings(key, value):
    # an ipd_d of 2.5 once failed after the solve, and True ran as 1
    with pytest.raises(ParameterError, match=f"^{key} must be "):
        SingleViewPipeline(wpsc.SolverSpec("SSC", {"alpha": 10}), **{key: value})


@pytest.mark.parametrize("pipe, subband", [
    (SingleViewPipeline(wpsc.SolverSpec("SSC", {"alpha": 10})), ""),
    (SingleViewPipeline(wpsc.SolverSpec("SSC", {"alpha": 10}), levels=2), "A"),
    (WpMeraPipeline(lam=10.0, R=12), "O+A+H+V+D"),
], ids=["single", "wp-single", "wp-mera"])
def test_assign_builds_views_as_the_fit_did(pipe, subband):
    # on clean planted data every in-sample point lies on its cluster's
    # subspace in every view, so assigning the in-sample points back through
    # held-out views built the fit's way returns the fit's own labels; at
    # 4x4 the subspaces are crowded enough that the data view would not
    ds = make_uos(C=4, d=2, D=16, n=12, sigma=0.0, seed=0)
    fit = pipe.fit(ds, ds.C, seed=0)
    assert fit.subband == subband
    assert len(fit.views) == len(subband.split("+"))
    assert wpsc.evaluate(ds.labels, fit.labels).acc == 1.0
    assert np.array_equal(fit.assign(ds, fit.models(2)), fit.labels)


def _held_out(n, order, seed=0):
    """n points near a fixed union of three 2-D subspaces in 8x8 images."""
    ds = make_uos(C=3, d=2, D=64, n=(n + 2) // 3, sigma=0.3, seed=seed)
    X = np.asarray(ds.data[:, np.random.default_rng(seed).permutation(ds.N)[:n]], order=order)
    return wpsc.Dataset(data=X, img_h=8, img_w=8)


def _views(subband, ds):
    """All views of ``ds`` built and normalized in one pass."""
    return (five_views(ds) if subband == "O+A+H+V+D"
            else [unit_columns(node_matrix(ds, subband))])


def _fit_for(subband):
    ins = make_uos(C=3, d=2, D=64, n=12, sigma=0.1, seed=0)
    return Fit(Partition(labels=ins.labels, C=3), _views(subband, ins), subband)


def _scattered(ds, order):
    """A wider dataset that holds the columns of ``ds`` at the returned
    indices, in no particular order, among columns of its own."""
    rng = np.random.default_rng(1)
    columns = rng.permutation(2 * ds.N + 5)[:ds.N]
    X = np.asarray(rng.standard_normal((ds.D, 2 * ds.N + 5)), order=order)
    X[:, columns] = ds.data
    return wpsc.Dataset(data=X, img_h=ds.img_h, img_w=ds.img_w), columns


@pytest.mark.parametrize("subband", ["", "AH", "O+A+H+V+D"])
@pytest.mark.parametrize("order", "CF")
@pytest.mark.parametrize("extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)],
                         ids=["1", "B-1", "B", "B+1", "3B+7"])
def test_streamed_assign_equals_one_pass(subband, order, extra, monkeypatch):
    # the one-pass reference builds and normalizes every view over all
    # points in column-major order, then measures them in the same blocks
    _check_streamed_assign(subband, order, extra, False, monkeypatch)


@pytest.mark.parametrize("subband", ["", "AH", "O+A+H+V+D"])
@pytest.mark.parametrize("order", "CF")
@pytest.mark.parametrize("extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)],
                         ids=["1", "B-1", "B", "B+1", "3B+7"])
def test_streamed_assign_by_index_equals_one_pass(subband, order, extra, monkeypatch):
    # points given by index are measured as the dataset they make up
    _check_streamed_assign(subband, order, extra, True, monkeypatch)


def _check_streamed_assign(subband, order, extra, by_index, monkeypatch):
    B = block_width(64)
    ds = _held_out(extra[0] * B + extra[1], order)
    fit = _fit_for(subband)
    models = fit.models(2)
    measured = []

    def spy(views, models):
        measured.append(views)
        return assign_multiview_batch(views, models)

    monkeypatch.setattr(wpsc.pipeline, "assign_multiview_batch", spy)
    if by_index:
        wide, columns = _scattered(ds, order)
        labels = fit.assign(wide, models, columns)
    else:
        labels = fit.assign(ds, models)
    one_pass = _views(subband, _held_out(ds.N, "F"))
    assert len(measured) == -(-ds.N // B)
    for k, views in enumerate(measured):  # the same bits in the same blocks
        assert len(views) == len(one_pass)
        assert all(np.array_equal(got, V[:, k * B:(k + 1) * B])
                   for got, V in zip(views, one_pass))
    want = np.concatenate([assign_multiview_batch([V[:, s:s + B] for V in one_pass], models)
                           for s in range(0, ds.N, B)])
    assert labels.shape == (ds.N,) and labels.dtype == np.int64
    assert np.array_equal(labels, want)


def test_streamed_assign_names_zero_columns_by_their_index():
    B = block_width(64)
    X = np.array(_held_out(2 * B, "F").data)
    X[:, [B + 3, B + 5]] = 0.0
    fit = _fit_for("")
    ds, models = wpsc.Dataset(data=X, img_h=8, img_w=8), fit.models(2)
    with pytest.raises(DegenerateColumnError, match=rf"\[{B + 3}, {B + 5}\]"):
        fit.assign(ds, models)
    # by index, in reverse: still the indices in ds, in the order given
    with pytest.raises(DegenerateColumnError, match=rf"\[{B + 5}, {B + 3}\]"):
        fit.assign(ds, models, np.arange(2 * B)[::-1])
    assert fit.assign(ds, models, np.arange(B)).shape == (B,)


@pytest.mark.parametrize("subband", ["", "O+A+H+V+D"])
def test_streamed_assign_memory_does_not_grow_with_points(subband):
    # the one-pass assignment held every normalized view and a C x N
    # distance matrix, about seven blocks more at 8B points than at B
    B = block_width(64)
    fit = _fit_for(subband)
    models = fit.models(2)
    peaks = []
    for n in (B, 8 * B):
        ds = _held_out(n, "F")
        tracemalloc.start()
        fit.assign(ds, models)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2 * 64 * B * 8


def test_spectral_with_isolated_vertex():
    # isolated vertex exercises the degree floor; clustering still works
    W = np.zeros((7, 7))
    W[:3, :3] = 1.0
    W[3:6, 3:6] = 1.0
    np.fill_diagonal(W, 0.0)  # vertex 6 has no edges at all
    part = spectral_clustering(W, 2, seed=0)
    assert part.labels[0] == part.labels[1] == part.labels[2]
    assert part.labels[3] == part.labels[4] == part.labels[5]


def test_assign_oos_with_degenerate_cluster():
    # a zero-width basis falls back to distance-to-mean
    model = wpsc.ClusterModel(
        means=np.array([[0.0, 0.0], [10.0, 10.0]]),
        bases=[np.zeros((2, 0)), np.zeros((2, 0))],
        d=1)
    assert assign_multiview_batch([np.array([[1.0], [1.0]])], [model])[0] == 0
    assert assign_multiview_batch([np.array([[9.0], [9.0]])], [model])[0] == 1
