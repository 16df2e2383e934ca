"""Monotone coverage surrogate, the model acceptance criterion c09 fits:
training and structural guarantees."""

import numpy as np
import pytest

from breathenet.coverage import (
    MonotoneMlp,
    _sigmoid,
    default_hidden_sizes,
    train_surrogate,
)


def kinked_target(x):
    return np.minimum(1.0, 0.5 * x[:, 0] + 0.5 * x[:, 1])


def fit_kinked(n=1500, epochs=1500, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, 2))
    y = kinked_target(x)
    mlp = train_surrogate(x, y, epochs=epochs, seed=seed,
                          input_min=np.zeros(2), input_max=np.ones(2))
    return mlp, x, y


def masked_sigmoid(z):
    """The two-branch form: 1 / (1 + e^-z) where z >= 0, e^z / (1 + e^z)
    elsewhere, each on its own masked copy."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("width", [20, 10, 5])
def test_sigmoid_equals_the_masked_form(width):
    rng = np.random.default_rng(width)
    z = rng.normal(0.0, 20.0, size=(4000, width))
    z.flat[:8] = [0.0, -0.0, np.inf, -np.inf, np.nan, 750.0, -750.0, 1e-300]
    got = _sigmoid(z)
    assert np.array_equal(got, masked_sigmoid(z), equal_nan=True)
    # off NaN, bit for bit: -0.0 gives 0.5 and +-inf give 1 and 0
    finite = ~np.isnan(z)
    assert got[finite].tobytes() == masked_sigmoid(z)[finite].tobytes()
    assert got.flat[1] == 0.5 and got.flat[2] == 1.0 and got.flat[3] == 0.0


class TestTraining:
    def test_constant_target_reduces_to_bias(self):
        rng = np.random.default_rng(60)
        x = rng.uniform(20.0, 50.0, size=(200, 2))
        y = np.full(200, 0.9)
        mlp = train_surrogate(x, y, epochs=300, seed=1)
        pred = mlp.predict(x)
        assert np.abs(pred - 0.9).max() <= 0.02

    def test_kinked_target_held_out_mae(self):
        mlp, _, _ = fit_kinked()
        rng = np.random.default_rng(61)
        x_test = rng.uniform(0.0, 1.0, size=(500, 2))
        mae = float(np.abs(mlp.forward01(x_test) - kinked_target(x_test)).mean())
        assert mae <= 0.05

    def test_training_replay_matches_recorded_mse(self):
        mlp, x, y = fit_kinked(epochs=400)
        replay = float(np.mean((mlp.forward01(x) - y) ** 2))
        assert replay == pytest.approx(mlp.training_mse, rel=1e-12)

    def test_deterministic_for_fixed_seed(self):
        a, _, _ = fit_kinked(n=300, epochs=200, seed=5)
        b, _, _ = fit_kinked(n=300, epochs=200, seed=5)
        for w1, w2 in zip(a.omegas + a.biases, b.omegas + b.biases):
            np.testing.assert_array_equal(w1, w2)

    def test_poisoned_inputs_abort(self):
        rng = np.random.default_rng(62)
        x = rng.uniform(0.0, 1.0, size=(150, 2))
        x[7, 1] = np.inf
        y = rng.uniform(0.0, 1.0, size=150)
        with np.errstate(invalid="ignore"):
            with pytest.raises(RuntimeError, match="diverged"):
                train_surrogate(x, y, epochs=200, seed=0)

    def test_input_validation(self):
        rng = np.random.default_rng(63)
        good_x = rng.uniform(0.0, 1.0, size=(120, 2))
        good_y = rng.uniform(0.0, 1.0, size=120)
        with pytest.raises(ValueError, match="at least 100"):
            train_surrogate(good_x[:50], good_y[:50])
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            train_surrogate(good_x, good_y + 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            bad = good_x.copy()
            bad[:, 0] = 3.0
            train_surrogate(bad, good_y)
        with pytest.raises(ValueError):
            train_surrogate(good_x[:, 0], good_y)

    def test_default_hidden_sizes(self):
        assert default_hidden_sizes(3) == (12, 6, 3)
        mlp, _, _ = fit_kinked(n=200, epochs=50)
        assert mlp.sizes == (2, 8, 4, 2, 1)


class TestMonotonicity:
    def test_ordered_pairs_never_violate(self):
        mlp, _, _ = fit_kinked(epochs=600)
        rng = np.random.default_rng(64)
        lo = rng.uniform(0.0, 1.0, size=(1000, 2))
        hi = lo + rng.uniform(0.0, 1.0, size=(1000, 2)) * (1.0 - lo)
        violations = int((mlp.forward01(hi) < mlp.forward01(lo)).sum())
        assert violations == 0

    def test_box_corners_ordered(self):
        mlp, _, _ = fit_kinked(n=200, epochs=100)
        low = mlp.forward01(np.zeros((1, 2)))[0]
        high = mlp.forward01(np.ones((1, 2)))[0]
        assert low <= high

    def test_holds_for_untrained_random_nets(self):
        # the guarantee is architectural, not a property of the fit
        rng = np.random.default_rng(65)
        for trial in range(5):
            sizes = (3, 6, 4, 1)
            omegas = [rng.normal(size=(sizes[k + 1], sizes[k]))
                      for k in range(3)]
            biases = [rng.normal(size=sizes[k + 1]) for k in range(3)]
            mlp = MonotoneMlp(omegas=omegas, biases=biases,
                              input_min=np.zeros(3), input_max=np.ones(3),
                              training_mse=0.0)
            lo = rng.uniform(0.0, 1.0, size=(200, 3))
            hi = lo + rng.uniform(0.0, 1.0, size=(200, 3)) * (1.0 - lo)
            assert (mlp.forward01(hi) >= mlp.forward01(lo)).all()


class TestPrediction:
    def test_extrapolation_warns_but_answers(self):
        mlp, _, _ = fit_kinked(n=200, epochs=100)
        with pytest.warns(UserWarning, match="outside its training"):
            out = mlp.predict(np.array([[1.7, 0.4]]))
        assert np.isfinite(out).all()

    def test_wrong_dimension_rejected(self):
        mlp, _, _ = fit_kinked(n=200, epochs=100)
        with pytest.raises(ValueError, match="member powers"):
            mlp.predict(np.array([[0.1, 0.2, 0.3]]))
