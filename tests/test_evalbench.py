import hashlib
import tracemalloc

import numpy as np
import pytest

from edgekit import evalbench, synth
from edgekit.errors import ConfigError, InputError, NumericError, ShapeError
from edgekit.evalbench import (THRESHOLDS, aggregate_ods_ois_ap,
                               evaluate_predictions, match_correspondence,
                               nms_thin, pr_sweep)

from oracles import (brute_force_report, nms_thin_dense, optimal_match_count,
                     ordered_matched_rows, ranked_points)

rng = np.random.default_rng(31)


# -- NMS ----------------------------------------------------------------------

def test_nms_thin_vertical_line_survives():
    edge = np.zeros((9, 9))
    edge[:, 4] = 0.9
    out = nms_thin(edge)
    assert np.array_equal(out, edge)


def test_nms_three_column_band_keeps_maximum_column():
    edge = np.zeros((9, 9))
    edge[:, 3] = 0.4
    edge[:, 4] = 0.9
    edge[:, 5] = 0.4
    out = nms_thin(edge)
    assert np.array_equal(out[:, 4], edge[:, 4])
    assert out[:, 3].max() == 0.0 and out[:, 5].max() == 0.0
    # brute-force check of the 3-column profile: middle strictly maximal
    assert (out > 0).sum() == 9


def test_nms_constant_map_all_survive():
    edge = np.full((6, 6), 0.5)
    assert np.array_equal(nms_thin(edge), edge)


@pytest.mark.parametrize("shape", [(1, 8), (8, 1), (1, 1)])
def test_single_row_column_and_pixel_maps_evaluate(shape):
    g = np.random.default_rng(sum(shape))
    pred = g.random(shape)
    gt = g.random(shape) < 0.5
    assert nms_thin(pred).shape == shape
    report = evaluate_predictions([pred], [[gt]])
    assert all(0.0 <= s <= 1.0 for s in (report.ods, report.ois, report.ap))


def test_nms_support_subset_and_values_preserved():
    edge = rng.random((16, 16)) * (rng.random((16, 16)) < 0.4)
    out = nms_thin(edge)
    survivors = out > 0
    assert np.all(edge[survivors] == out[survivors])
    assert np.all(out[edge == 0] == 0)


def _nms_cases():
    g = np.random.default_rng(41)
    zero_regions = g.random((24, 30)) * (g.random((24, 30)) < 0.5)
    zero_regions[:10] = 0.0
    zero_regions[:, 20:] = 0.0
    slack = g.random((20, 20)) * (g.random((20, 20)) < 0.5)
    slack[g.random((20, 20)) < 0.2] = -1e-10  # within _finite_map's slack
    return {
        "zero regions": zero_regions,
        "transposed view": zero_regions.T,
        "slack": slack,
        "constant": np.full((7, 9), 0.5),
        "all zero": np.zeros((5, 6)),
        "1xN": g.random((1, 17)) * (g.random((1, 17)) < 0.6),
        "Nx1": g.random((17, 1)) * (g.random((17, 1)) < 0.6),
        "1x1": np.full((1, 1), 0.3),
        "1x1 zero": np.zeros((1, 1)),
    }


NMS_CASES = _nms_cases()


@pytest.mark.parametrize("case", list(NMS_CASES))
def test_nms_thin_equals_dense_oracle(case):
    # testing the nonzero pixels only gives the map of testing every pixel,
    # bit for bit, signed zeros included
    edge = NMS_CASES[case]
    out, expect = nms_thin(edge), nms_thin_dense(edge)
    assert np.array_equal(out, expect)
    assert out.tobytes() == expect.tobytes()


# -- matching -----------------------------------------------------------------

def test_match_identical_maps_full_match():
    m = (rng.random((10, 10)) < 0.2)
    mp, mg = match_correspondence(m, m, tol=0.0075)
    assert np.array_equal(mp, m)
    assert np.array_equal(mg, m)


def test_match_radius_bound():
    pred = np.zeros((64, 64), bool)
    gt = np.zeros((64, 64), bool)
    pred[10, 10] = True
    r = 0.05 * np.hypot(64, 64)  # about 4.5 px
    gt[10, 10 + int(r) + 1] = True
    mp, mg = match_correspondence(pred, gt, tol=0.05)
    assert mp.sum() == 0 and mg.sum() == 0
    gt2 = np.zeros((64, 64), bool)
    gt2[10, 13] = True
    mp, mg = match_correspondence(pred, gt2, tol=0.05)
    assert mp.sum() == 1 and mg.sum() == 1


def test_match_one_to_one():
    pred = np.zeros((16, 16), bool)
    gt = np.zeros((16, 16), bool)
    pred[5, 5] = True
    gt[5, 4] = gt[5, 6] = True  # two candidates, one pred pixel
    mp, mg = match_correspondence(pred, gt, tol=0.2)
    assert mp.sum() == 1 and mg.sum() == 1


def test_greedy_vs_optimal_on_random_small_instances():
    g = np.random.default_rng(2024)
    for _ in range(50):
        pred = np.zeros((8, 8), bool)
        gt = np.zeros((8, 8), bool)
        npix = int(g.integers(1, 17))
        ngt = int(g.integers(1, 17))
        pred[g.integers(0, 8, npix), g.integers(0, 8, npix)] = True
        gt[g.integers(0, 8, ngt), g.integers(0, 8, ngt)] = True
        tol = 0.2  # radius about 2.26 px on an 8x8 grid
        mp, mg = match_correspondence(pred, gt, tol=tol)
        radius = tol * np.hypot(8, 8)
        best = optimal_match_count(np.argwhere(pred), np.argwhere(gt), radius)
        assert int(mp.sum()) == int(mg.sum()) == best


def test_match_symmetric_under_optimal_oracle():
    g = np.random.default_rng(77)
    for _ in range(10):
        a = g.random((8, 8)) < 0.2
        b = g.random((8, 8)) < 0.2
        radius = 0.25 * np.hypot(8, 8)
        ab = optimal_match_count(np.argwhere(a), np.argwhere(b), radius)
        ba = optimal_match_count(np.argwhere(b), np.argwhere(a), radius)
        assert ab == ba


# -- sweep --------------------------------------------------------------------

def test_pr_sweep_default_tolerance_signature():
    import inspect

    sig = inspect.signature(pr_sweep)
    assert sig.parameters["tol"].default == 0.0075


def test_pr_sweep_empty_prediction():
    gt = (rng.random((8, 8)) < 0.3).astype(np.uint8)
    counts = pr_sweep(np.zeros((8, 8)), [gt], tol=0.1)
    assert np.all(counts[:, 0] == 0)
    assert np.all(counts[:, 1] == 0)
    assert np.all(counts[:, 2] == 0)


def test_pr_sweep_threshold_above_max_empty_and_precision_one():
    pred = np.zeros((8, 8))
    pred[4, 4] = 0.5
    gt = np.zeros((8, 8), np.uint8)
    gt[4, 4] = 1
    counts = pr_sweep(pred, [gt], tol=0.1)
    report = aggregate_ods_ois_ap([counts])
    table = report.pr_table()
    above = [row for t, row in zip(THRESHOLDS, table) if t > 0.5]
    assert all(p == 1.0 for _, p, _, _ in above)
    k = np.searchsorted(THRESHOLDS, 0.51)
    assert counts[k, 1] == 0


# Radii in pixels on a 16x16 map: from the four direct neighbours at 1.0 px
# to a disk of 57 offsets at 4.3 px.
PROPERTY_RADII = (1.0, 2.26, 2.7, 4.3)


def _property_maps(g):
    # values on the threshold grid, so pixels tie and sit exactly at thresholds
    prob = np.round(g.random((16, 16)), 2) * (g.random((16, 16)) < 0.5)
    gts = [g.random((16, 16)) < 0.2 for _ in range(3)]
    return prob, gts


def test_pr_sweep_monotone_pred_counts():
    # matched predicted, total predicted and matched ground-truth pixels
    # never increase as the threshold rises
    for radius in PROPERTY_RADII:
        g = np.random.default_rng(int(radius * 100) + 2)
        tol = radius / np.hypot(16, 16)
        for prob, gts in [_property_maps(g), (g.random((16, 16)), [
                (g.random((16, 16)) < 0.2).astype(np.uint8)])]:
            counts = pr_sweep(prob, gts, tol=tol)
            assert np.all(np.diff(counts[:, :3], axis=0) <= 0), radius


@pytest.mark.parametrize("radius", PROPERTY_RADII)
def test_match_correspondence_takes_pixels_strongest_first(radius):
    g = np.random.default_rng(int(radius * 100) + 3)
    tol = radius / np.hypot(16, 16)
    for _ in range(3):
        prob, gts = _property_maps(g)
        pts = ranked_points(prob)
        for gt in gts:
            expect = np.zeros(prob.shape, bool)
            hit = pts[ordered_matched_rows(pts, np.argwhere(gt), radius)]
            expect[hit[:, 0], hit[:, 1]] = True
            mp, mg = match_correspondence(prob, gt, tol=tol)
            assert np.array_equal(mp, expect)
            assert mg.sum() == mp.sum()


def test_shortcut_and_search_agree_below_one_pixel():
    g = np.random.default_rng(9)
    for _ in range(5):
        prob, gts = _property_maps(g)
        pts = ranked_points(prob)
        for gt in gts:
            graph = evalbench._candidate_graph(pts, gt, evalbench._disk(0.99, gt.shape))
            assert graph.own_matching is not None
            searched = evalbench._maximum_matching(graph._replace(own_matching=None))
            assert np.array_equal(evalbench._maximum_matching(graph), searched)


def test_pr_sweep_matches_once_per_annotator(monkeypatch):
    calls = []
    matching = evalbench._maximum_matching

    def counted(graph):
        calls.append(graph)
        return matching(graph)

    monkeypatch.setattr(evalbench, "_maximum_matching", counted)
    prob, gts = _property_maps(np.random.default_rng(10))
    pr_sweep(prob, gts, tol=2.7 / np.hypot(16, 16))
    assert len(calls) == len(gts)


@pytest.mark.parametrize("radius", PROPERTY_RADII)
def test_pr_sweep_counts_are_maximum_matchings(radius):
    g = np.random.default_rng(int(radius * 100))
    tol = radius / np.hypot(16, 16)
    for _ in range(3):
        prob, gts = _property_maps(g)
        counts = pr_sweep(prob, gts, tol=tol)
        total_gt = sum(int(gt.sum()) for gt in gts)
        for k, t in enumerate(THRESHOLDS):
            pb = prob >= t
            per_annotator = [optimal_match_count(np.argwhere(pb),
                                                 np.argwhere(gt), radius)
                             for gt in gts]
            mp, tp, mg, tg = counts[k]
            assert mg == sum(per_annotator)
            assert tp == pb.sum() and tg == total_gt
            assert max(per_annotator) <= mp <= tp


def _assert_rows_equal_direct_matching(counts, prob, gts, tol):
    for k, t in enumerate(THRESHOLDS):
        # the map zeroed below t ranks its pixels as the sweep does
        pred = np.where(prob >= t, prob, 0.0)
        matched_any = np.zeros(pred.shape, bool)
        matched_gt = 0
        for gt in gts:
            mp, mg = match_correspondence(pred, gt, tol=tol)
            assert mp.sum() == mg.sum()
            assert np.all(pred[mp] > 0) and np.all(gt[mg])
            matched_any |= mp
            matched_gt += int(mg.sum())
        row = (matched_any.sum(), (pred > 0).sum(), matched_gt,
               sum(int(gt.sum()) for gt in gts))
        assert tuple(counts[k]) == row


@pytest.mark.parametrize("radius", PROPERTY_RADII)
def test_pr_sweep_rows_equal_direct_matching(radius):
    g = np.random.default_rng(int(radius * 100) + 1)
    tol = radius / np.hypot(16, 16)
    for _ in range(3):
        prob, gts = _property_maps(g)
        _assert_rows_equal_direct_matching(pr_sweep(prob, gts, tol=tol),
                                           prob, gts, tol)


def test_pr_sweep_drops_rows_out_of_every_annotators_reach():
    # the annotators draw in the top-left corner only, the prediction
    # covers the whole map
    g = np.random.default_rng(12)
    prob = np.round(g.random((24, 24)), 2) * (g.random((24, 24)) < 0.6)
    gts = [np.zeros((24, 24), bool) for _ in range(3)]
    for gt in gts:
        gt[:8, :8] = g.random((8, 8)) < 0.3
    radius = 2.7
    pts = ranked_points(prob)
    reach = evalbench._within_reach(pts, gts, evalbench._disk(radius, prob.shape))
    near = [any(np.hypot(*(q - p)) <= radius for gt in gts for q in np.argwhere(gt))
            for p in pts]
    assert np.array_equal(reach, near)
    assert reach.sum() < len(pts) / 4
    tol = radius / np.hypot(24, 24)
    _assert_rows_equal_direct_matching(pr_sweep(prob, gts, tol=tol), prob, gts, tol)


def test_candidate_graph_is_the_same_in_small_blocks(monkeypatch):
    prob, gts = _property_maps(np.random.default_rng(13))
    pts = ranked_points(prob)
    disk = evalbench._disk(4.3, prob.shape)
    whole = [evalbench._candidate_graph(pts, gt, disk) for gt in gts]
    # 3 rows of the 57-offset disk per block, and a last block of 1 or 2
    monkeypatch.setattr(evalbench, "GATHER_ENTRIES", 200)
    for gt, expect in zip(gts, whole):
        graph = evalbench._candidate_graph(pts, gt, disk)
        for a, b in zip(graph, expect):
            assert (a is None and b is None) or (np.array_equal(a, b)
                                                 and a.dtype == b.dtype)


def test_large_tolerance_sweep_stays_small():
    # tol 1.0 puts every pixel pair of a 64x64 map in reach: a disk of
    # 127x127 offsets, which for 1,000 predicted pixels at once would be
    # gathered in over 200 MB
    g = np.random.default_rng(64)
    prob = np.zeros((64, 64))
    prob.flat[g.choice(64 * 64, 1000, replace=False)] = g.uniform(0.01, 1.0, 1000)
    gt = np.zeros((64, 64), bool)
    gt.flat[g.choice(64 * 64, 30, replace=False)] = True
    tracemalloc.start()
    try:
        counts = pr_sweep(prob, [gt], tol=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    matched = np.array(ordered_matched_rows(ranked_points(prob), np.argwhere(gt),
                                            np.hypot(64, 64)))
    for k, t in enumerate(THRESHOLDS):
        n = int((prob >= t).sum())
        m = int((matched < n).sum())
        assert tuple(counts[k]) == (m, n, m, 30)


def test_pr_sweep_below_one_pixel_counts_coincidences():
    g = np.random.default_rng(8)
    tol = 0.99 / np.hypot(16, 16)
    for _ in range(5):
        prob, gts = _property_maps(g)
        counts = pr_sweep(prob, gts, tol=tol)
        any_gt = np.logical_or.reduce(gts)
        for k, t in enumerate(THRESHOLDS):
            pb = prob >= t
            row = ((pb & any_gt).sum(), pb.sum(),
                   sum(int((pb & gt).sum()) for gt in gts),
                   sum(int(gt.sum()) for gt in gts))
            assert tuple(counts[k]) == row


def test_evaluation_rejects_mismatched_shapes():
    pred = rng.random((16, 16))
    gt = np.zeros((8, 8), np.uint8)
    with pytest.raises(ShapeError):
        evaluate_predictions([pred], [[gt]])
    with pytest.raises(ShapeError):
        match_correspondence(pred > 0.5, gt)
    with pytest.raises(ShapeError):
        pr_sweep(pred, [np.zeros((16, 16)), gt])


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3)])
def test_evaluation_rejects_maps_without_pixels(shape):
    # NMS would fail in a reflect pad and matching in an empty disk
    pred = np.zeros(shape)
    gt = np.zeros(shape, np.uint8)
    for apply_nms in (True, False):
        with pytest.raises(ShapeError, match="pixels"):
            evaluate_predictions([pred], [[gt]], apply_nms=apply_nms)
    with pytest.raises(ShapeError, match="pixels"):
        nms_thin(pred)
    with pytest.raises(ShapeError, match="pixels"):
        pr_sweep(pred, [gt])
    with pytest.raises(ShapeError, match="pixels"):
        match_correspondence(pred, gt)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -0.01])
def test_evaluation_rejects_bad_tolerance(tol):
    pred = rng.random((8, 8))
    gt = (rng.random((8, 8)) < 0.3).astype(np.uint8)
    with pytest.raises(ConfigError):
        evaluate_predictions([pred], [[gt]], tol=tol)
    with pytest.raises(ConfigError):
        match_correspondence(pred > 0.5, gt, tol=tol)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_evaluation_rejects_non_finite_prediction(bad):
    pred = rng.random((8, 8))
    pred[3, 4] = bad
    gt = (rng.random((8, 8)) < 0.3).astype(np.uint8)
    for apply_nms in (True, False):
        with pytest.raises(NumericError):
            evaluate_predictions([pred], [[gt]], apply_nms=apply_nms)
    with pytest.raises(NumericError):
        match_correspondence(pred, gt)


@pytest.mark.parametrize("value", [-3.0, 7.0])
def test_evaluation_rejects_out_of_range_prediction(value):
    """A map outside [0, 1] is no probability map: it would score ODS 0 (all
    below every threshold) or a count with every pixel an edge."""
    pred = np.full((8, 8), value)
    gt = (rng.random((8, 8)) < 0.3).astype(np.uint8)
    for apply_nms in (True, False):
        with pytest.raises(NumericError, match=r"outside \[0, 1\]"):
            evaluate_predictions([pred], [[gt]], apply_nms=apply_nms)
    with pytest.raises(NumericError):
        match_correspondence(pred, gt)
    # save_gray's slack: values within 1e-9 of the range are accepted
    edge = np.zeros((8, 8))
    edge[4, :] = 1.0 + 1e-10
    edge[0, 0] = -1e-10
    evaluate_predictions([edge], [[gt]], apply_nms=False)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_evaluation_rejects_non_finite_annotator(bad):
    # a NaN cast to bool would be an edge pixel
    pred = rng.random((8, 8))
    gt = (rng.random((8, 8)) < 0.3).astype(np.float64)
    gt[2, 5] = bad
    with pytest.raises(NumericError, match="annotator"):
        evaluate_predictions([pred], [[gt]])
    with pytest.raises(NumericError, match="annotator"):
        pr_sweep(pred, [np.zeros((8, 8)), gt])
    with pytest.raises(NumericError, match="annotator"):
        match_correspondence(pred, gt)


def test_pr_sweep_needs_ground_truth():
    with pytest.raises(InputError):
        pr_sweep(np.zeros((4, 4)), [], tol=0.1)


# -- aggregation --------------------------------------------------------------

def test_perfect_prediction_scores_one():
    gt = (rng.random((12, 12)) < 0.25).astype(np.uint8)
    report = evaluate_predictions([gt.astype(float)], [[gt]], tol=0.0075)
    assert report.ods == 1.0
    assert report.ois == 1.0
    assert abs(report.ap - 1.0) < 1e-12


def test_ois_at_least_ods_when_best_thresholds_differ():
    # image A peaks at low threshold, image B at high threshold
    pred_a = np.zeros((8, 8))
    pred_a[2, :4] = 0.3
    gt_a = np.zeros((8, 8), np.uint8)
    gt_a[2, :4] = 1
    pred_b = np.zeros((8, 8))
    pred_b[5, :4] = 0.9
    pred_b[7, :4] = 0.35  # noise that only low thresholds admit
    gt_b = np.zeros((8, 8), np.uint8)
    gt_b[5, :4] = 1
    counts = [pr_sweep(pred_a, [gt_a], tol=0.05), pr_sweep(pred_b, [gt_b], tol=0.05)]
    report = aggregate_ods_ois_ap(counts)
    assert report.ois >= report.ods


def test_ois_ge_ods_random_property():
    g = np.random.default_rng(5)
    counts = []
    for _ in range(4):
        pred = g.random((10, 10)) * (g.random((10, 10)) < 0.4)
        gt = (g.random((10, 10)) < 0.2).astype(np.uint8)
        counts.append(pr_sweep(pred, [gt], tol=0.1))
    report = aggregate_ods_ois_ap(counts)
    assert report.ois >= report.ods - 1e-12


def test_aggregate_requires_counts():
    with pytest.raises(InputError):
        aggregate_ods_ois_ap([])


def _handcrafted_set():
    """Three 6x6 images whose matchings are unambiguous."""
    preds, stacks = [], []
    # image 1: exact match, single annotator
    gt = np.zeros((6, 6), np.uint8)
    gt[1, 1:5] = 1
    preds.append(gt.astype(float))
    stacks.append([gt])
    # image 2: one pixel displaced by 1, one spurious, two annotators
    gt_a = np.zeros((6, 6), np.uint8)
    gt_a[3, 1] = gt_a[3, 3] = 1
    gt_b = np.zeros((6, 6), np.uint8)
    gt_b[3, 1] = gt_b[4, 3] = 1
    pred = np.zeros((6, 6))
    pred[3, 1] = 0.8
    pred[3, 3] = 0.6
    pred[0, 5] = 0.4  # far from everything
    preds.append(pred)
    stacks.append([gt_a, gt_b])
    # image 3: graded probabilities, best threshold differs from image 2
    gt_c = np.zeros((6, 6), np.uint8)
    gt_c[5, 0] = gt_c[5, 5] = 1
    pred3 = np.zeros((6, 6))
    pred3[5, 0] = 0.95
    pred3[2, 2] = 0.3
    preds.append(pred3)
    stacks.append([gt_c])
    return preds, stacks


def test_three_image_set_matches_brute_force_evaluator():
    preds, stacks = _handcrafted_set()
    tol = 0.15  # radius about 1.27 px on 6x6
    for p in preds:  # inputs already thin: thinning must not change them
        assert np.array_equal(nms_thin(p), p)
    report = evaluate_predictions(preds, stacks, tol=tol)
    ods, ois, ap = brute_force_report(preds, stacks, tol)
    assert abs(report.ods - ods) < 1e-9
    assert abs(report.ois - ois) < 1e-9
    assert abs(report.ap - ap) < 1e-9


def test_seeded_256_evaluation_counts_are_pinned():
    # the per-image counts of a seeded 256x256 evaluation against five
    # annotators, pinned so that work meant to be exact cannot drift
    g = np.random.default_rng(256)
    preds, stacks = [], []
    for _ in range(2):
        _, boundary, maps = synth.generate_scene(g, 256)
        noise = g.random(boundary.shape) * (g.random(boundary.shape) < 0.5)
        preds.append(np.clip(0.7 * np.roll(boundary, 1, axis=1) + 0.3 * noise,
                             0.0, 1.0))
        stacks.append(maps)
    report = evaluate_predictions(preds, stacks)
    counts = np.stack(report.per_image_counts).astype("<i8")
    assert hashlib.sha256(counts.tobytes()).hexdigest() == (
        "78e06c09492fca94f6c83c42dc297e31d744fe94e52ef8087b7ad1681f9147b5")
