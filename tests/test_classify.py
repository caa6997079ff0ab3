import numpy as np
import pytest

from pulsegate.classify import (
    ANOMALOUS,
    LIVE,
    SvmModel,
    decision_values,
    fit_one_class,
    fit_two_class,
    frame_accuracy,
    predict,
    rbf_kernel,
    smo_solve_one_class,
    smo_solve_two_class,
)
from pulsegate.errors import InvalidInputError, NumericalError


def gaussian_blobs(rng, n_per_class=200, dim=8, separation=4.0):
    center = np.zeros(dim)
    center2 = np.zeros(dim)
    center2[0] = separation
    x = np.vstack([rng.normal(center, 1.0, (n_per_class, dim)),
                   rng.normal(center2, 1.0, (n_per_class, dim))])
    y = np.hstack([np.full(n_per_class, LIVE), np.full(n_per_class, ANOMALOUS)])
    return x, y


class TestTwoClass:
    def test_blob_accuracy(self):
        rng = np.random.default_rng(0)
        x, y = gaussian_blobs(rng)
        model = fit_two_class(x, y)
        xt, yt = gaussian_blobs(rng)
        labels, _ = predict(model, xt)
        assert (labels == yt).mean() >= 0.95

    def test_two_point_separable(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([LIVE, ANOMALOUS])
        model = fit_two_class(x, y)
        labels, _ = predict(model, x)
        np.testing.assert_array_equal(labels, y)

    def test_duplicated_rows_leave_decision_unchanged(self):
        # invariance of the dual solution under row duplication holds when no
        # alpha sits at the box bound (each duplicate then takes alpha/2), so
        # use clearly separated blobs, a roomy C, and near-exact tolerance
        rng = np.random.default_rng(1)
        x, y = gaussian_blobs(rng, n_per_class=60, separation=6.0)
        model_a = fit_two_class(x, y, C=10.0, tol=1e-10)
        assert np.abs(model_a.dual_coef).max() < 10.0 - 1e-6
        model_b = fit_two_class(np.vstack([x, x]), np.hstack([y, y]),
                                C=10.0, tol=1e-10)
        probe = rng.normal(0.5, 2.0, (50, 8))
        np.testing.assert_allclose(decision_values(model_a, probe),
                                   decision_values(model_b, probe), atol=1e-6)

    def test_single_class_rejected(self):
        x = np.zeros((4, 2))
        with pytest.raises(InvalidInputError, match="both classes"):
            fit_two_class(x, np.full(4, LIVE))

    @pytest.mark.parametrize("C", [0.0, -1.0])
    def test_box_constraint_must_be_positive(self, C):
        rng = np.random.default_rng(1)
        x, y = gaussian_blobs(rng, n_per_class=10)
        with pytest.raises(InvalidInputError, match=rf"C \({C:g}\) must be positive"):
            fit_two_class(x, y, C=C)

    def test_kkt_gap_within_tolerance(self):
        rng = np.random.default_rng(2)
        x, y = gaussian_blobs(rng, n_per_class=80)
        xs = (x - x.mean(0)) / x.std(0)
        gamma = 1.0 / (x.shape[1] * xs.var())
        kernel = rbf_kernel(xs, xs, gamma)
        alpha, bias, n_iter, gap, _ = smo_solve_two_class(kernel, y.astype(float), 1.0)
        assert gap <= 1e-3
        assert np.all(alpha >= -1e-12) and np.all(alpha <= 1.0 + 1e-12)
        assert abs(float(alpha @ y)) < 1e-9

    def test_dual_objective_nonincreasing(self):
        rng = np.random.default_rng(3)
        x, y = gaussian_blobs(rng, n_per_class=50)
        kernel = rbf_kernel(x, x, 0.1)
        _, _, _, _, history = smo_solve_two_class(kernel, y.astype(float), 1.0,
                                                  record_objective=True)
        diffs = np.diff(history)
        assert np.all(diffs <= 1e-12)

    def test_opposite_label_pair_takes_full_step(self):
        # along the feasible direction (+1, +1) the dual's curvature is
        # K_00 + K_11 - 2 K_01 = 2 - 2k, so one step lands on the optimum
        x = np.array([[0.0], [1.0]])
        y = np.array([1.0, -1.0])
        k = np.exp(-0.5)
        kernel = rbf_kernel(x, x, 0.5)
        alpha, _, n_iter, gap, _ = smo_solve_two_class(kernel, y, 1e6, tol=1e-12)
        np.testing.assert_allclose(alpha, 2.0 / (2.0 - 2.0 * k), rtol=0, atol=1e-12)
        assert n_iter == 2 and gap <= 1e-12

    def test_unconverged_solve_raises(self):
        rng = np.random.default_rng(2)
        x, y = gaussian_blobs(rng, n_per_class=80)
        kernel = rbf_kernel(x, x, 0.1)
        with pytest.raises(NumericalError, match="max_iter=3"):
            smo_solve_two_class(kernel, y.astype(float), 1.0, max_iter=3)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(4)
        x, y = gaussian_blobs(rng, n_per_class=40)
        model_a = fit_two_class(x, y, tol=1e-10)
        perm = rng.permutation(len(y))
        model_b = fit_two_class(x[perm], y[perm], tol=1e-10)
        probe = rng.normal(0, 2, (30, 8))
        np.testing.assert_allclose(decision_values(model_a, probe),
                                   decision_values(model_b, probe), atol=1e-9)


class TestOneClass:
    def test_nu_property(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0.0, 1.0, (500, 8))
        model = fit_one_class(x, nu=0.5)
        labels, _ = predict(model, x)
        outlier_fraction = (labels == ANOMALOUS).mean()
        assert 0.4 <= outlier_fraction <= 0.6

    def test_centroid_is_inlier(self):
        rng = np.random.default_rng(6)
        x = rng.normal(3.0, 0.1, (100, 4))
        model = fit_one_class(x, nu=0.2)
        labels, _ = predict(model, x.mean(axis=0, keepdims=True))
        assert labels[0] == LIVE

    def test_far_point_is_outlier(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0.0, 1.0, (100, 4))
        model = fit_one_class(x, nu=0.3)
        far = np.full((1, 4), 100.0)
        labels, _ = predict(model, far)
        assert labels[0] == ANOMALOUS

    def test_too_few_rows_rejected(self):
        with pytest.raises(InvalidInputError, match="needs at least"):
            fit_one_class(np.zeros((2, 3)), nu=0.1)

    def test_kkt_gap_within_tolerance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0.0, 1.0, (200, 8))
        kernel = rbf_kernel(x, x, 0.125)
        alpha, rho, _, gap, _ = smo_solve_one_class(kernel, 0.5)
        assert gap <= 1e-3
        assert alpha.sum() == pytest.approx(0.5 * 200, abs=1e-9)

    def test_dual_objective_nonincreasing(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0.0, 1.0, (150, 6))
        kernel = rbf_kernel(x, x, 0.2)
        _, _, _, _, history = smo_solve_one_class(kernel, 0.4, record_objective=True)
        assert np.all(np.diff(history) <= 1e-12)


class TestPredict:
    def test_batch_equals_rowwise(self):
        rng = np.random.default_rng(10)
        x, y = gaussian_blobs(rng, n_per_class=50)
        model = fit_two_class(x, y)
        probe = rng.normal(0, 1, (20, 8))
        batch = decision_values(model, probe)
        rows = np.array([decision_values(model, probe[i:i + 1])[0]
                         for i in range(len(probe))])
        np.testing.assert_array_equal(batch, rows)

    def test_kernel_exact_on_the_diagonal_and_symmetric(self):
        x = np.random.default_rng(16).normal(0.0, 3.0, (60, 8))
        kernel = rbf_kernel(x, x, 0.2)
        assert np.all(np.diag(kernel) == 1.0)
        np.testing.assert_array_equal(kernel, kernel.T)

    def test_lipschitz_bound_on_decision(self):
        # |f(x) - f(x+d)| <= sum|dual| * sqrt(2*gamma/e) * ||d|| for RBF
        rng = np.random.default_rng(11)
        x, y = gaussian_blobs(rng, n_per_class=50)
        model = fit_two_class(x, y, standardize=False)
        bound = np.abs(model.dual_coef).sum() * np.sqrt(2.0 * model.gamma / np.e)
        for _ in range(50):
            a = rng.normal(0, 2, (1, 8))
            delta = rng.normal(0, 0.1, (1, 8))
            lhs = abs(decision_values(model, a + delta)[0]
                      - decision_values(model, a)[0])
            assert lhs <= bound * np.linalg.norm(delta) + 1e-12

    def test_non_finite_features_rejected(self):
        rng = np.random.default_rng(12)
        x, y = gaussian_blobs(rng, n_per_class=20)
        model = fit_two_class(x, y)
        with pytest.raises(InvalidInputError):
            predict(model, np.array([[np.nan] * 8]))

    def test_standardization_round_trip(self):
        rng = np.random.default_rng(13)
        x, y = gaussian_blobs(rng, n_per_class=40)
        scale = np.array([10.0, 0.1, 1.0, 5.0, 0.5, 2.0, 1.0, 3.0])
        raw = x * scale
        model_raw = fit_two_class(raw, y, tol=1e-10, standardize=True)
        pre = (raw - model_raw.scaler_mean) / model_raw.scaler_std
        model_pre = fit_two_class(pre, y, tol=1e-10, standardize=False)
        probe = rng.normal(0, 1, (20, 8)) * scale
        np.testing.assert_allclose(
            decision_values(model_raw, probe),
            decision_values(model_pre, (probe - model_raw.scaler_mean) / model_raw.scaler_std),
            atol=1e-8)

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(14)
        x, y = gaussian_blobs(rng, n_per_class=30)
        model = fit_two_class(x, y)
        restored = SvmModel.from_dict(model.to_dict())
        probe = rng.normal(0, 1, (10, 8))
        np.testing.assert_allclose(decision_values(model, probe),
                                   decision_values(restored, probe), atol=1e-12)

    def test_file_format_pinned(self):
        # the fields are the file's keys; arrays are written as (nested) lists
        model = SvmModel(kind="two_class", gamma=0.125, support_vectors=[[1.0, -2.0], [0.5, 0.0]],
                         dual_coef=[0.75, -0.75], bias=-0.25, scaler_mean=[3.0, 4.0],
                         scaler_std=[2.0, 1.0], C=2.0)
        expected = {"kind": "two_class", "gamma": 0.125, "C": 2.0, "nu": 0.5, "bias": -0.25,
                    "support_vectors": [[1.0, -2.0], [0.5, 0.0]], "dual_coef": [0.75, -0.75],
                    "scaler_mean": [3.0, 4.0], "scaler_std": [2.0, 1.0]}
        assert model.to_dict() == expected
        assert SvmModel.from_dict(expected).to_dict() == expected

    def test_unknown_key_rejected(self):
        payload = fit_one_class(np.random.default_rng(15).normal(0, 1, (20, 8))).to_dict()
        with pytest.raises(InvalidInputError, match="'kernel'"):
            SvmModel.from_dict({**payload, "kernel": "rbf"})


class TestFrameAccuracy:
    def test_all_correct(self):
        labels = np.full(11, LIVE)
        centers = 5.0 + np.arange(11)
        frames = np.full(600, LIVE)
        assert frame_accuracy(labels, centers, frames, fps=30.0) == (600, 600)

    def test_half_correct(self):
        centers = np.array([2.5, 7.5])
        labels = np.array([LIVE, ANOMALOUS])
        frames = np.full(300, LIVE)  # 10 s at 30 fps, split at t=5
        correct, total = frame_accuracy(labels, centers, frames, fps=30.0)
        assert total == 300
        assert correct / total == pytest.approx(0.5, abs=0.01)

    def test_combined_equals_mean_for_equal_sets(self):
        centers = 5.0 + np.arange(6)
        frames = np.full(330, LIVE)
        correct_a, total_a = frame_accuracy(np.full(6, LIVE), centers, frames, fps=30.0)
        correct_b, total_b = frame_accuracy(np.full(6, ANOMALOUS), centers, frames, fps=30.0)
        combined = (correct_a + correct_b) / (total_a + total_b)
        assert combined == pytest.approx(0.5)

    def test_uncovered_frames_rejected(self):
        centers = np.array([5.0])
        frames = np.full(900, LIVE)  # 30 s of frames, one 10 s window
        with pytest.raises(InvalidInputError, match="outside window coverage"):
            frame_accuracy(np.array([LIVE]), centers, frames, fps=30.0)
