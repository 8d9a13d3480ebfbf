"""Conditional probability path, target field, and training objective."""

import numpy as np
import pytest

from flowsr.flowpath import (SIGMA_MIN, cfm_loss, conditional_vector_field,
                             mu_t, psi_t, sample_training_tuple, sigma_t,
                             target_vector_field)


def test_sigma_t_values():
    assert sigma_t(0.0) == 1.0
    assert abs(sigma_t(1.0) - 1e-4) < 1e-15
    assert abs(sigma_t(0.5) - 0.50005) < 1e-12
    with pytest.raises(ValueError):
        sigma_t(1.5)


def test_mu_t_values():
    x1 = np.array([4.0, 8.0])
    assert np.all(mu_t(0.0, x1) == 0.0)
    assert np.array_equal(mu_t(1.0, x1), x1)
    assert np.array_equal(mu_t(0.25, x1), np.array([1.0, 2.0]))


def test_psi_endpoints():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((64, 30))
    x1 = rng.standard_normal((64, 30))
    assert np.max(np.abs(psi_t(x0, x1, 0.0) - x0)) < 1e-12
    end = psi_t(x0, x1, 1.0)
    assert np.max(np.abs(end - (x1 + 1e-4 * x0))) < 1e-12


def test_psi_scalar_case():
    out = psi_t(np.array(1.0), np.array(2.0), 0.5)
    assert abs(float(out) - (1.5 + 0.5 * SIGMA_MIN)) < 1e-15


def test_psi_shape_mismatch():
    with pytest.raises(ValueError):
        psi_t(np.zeros(3), np.zeros(4), 0.5)


def test_target_field_values():
    x0 = np.array([1.0])
    x1 = np.array([2.0])
    assert abs(target_vector_field(x0, x1)[0] - 1.0001) < 1e-12
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal(10), rng.standard_normal(10)
    assert np.allclose(target_vector_field(a, b), b - (1 - SIGMA_MIN) * a, atol=1e-15)
    assert np.array_equal(target_vector_field(np.zeros(5), b[:5]), b[:5])


def test_target_field_is_path_derivative():
    """(psi(t+h) - psi(t))/h approaches the constant target as h -> 0."""
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal(50)
    x1 = rng.standard_normal(50)
    tgt = target_vector_field(x0, x1)
    t = 0.37
    for h in (1e-5, 1e-7):
        fd = (psi_t(x0, x1, t + h) - psi_t(x0, x1, t)) / h
        assert np.max(np.abs(fd - tgt)) < 1e-6  # affine in t, FD error is rounding only


def test_conditional_field_identity():
    """v(psi_t(x0), x1, t) equals the constant target field exactly."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        x0 = rng.standard_normal(20)
        x1 = rng.standard_normal(20)
        t = float(rng.random())
        lhs = conditional_vector_field(psi_t(x0, x1, t), x1, t)
        rhs = target_vector_field(x0, x1)
        rel = np.max(np.abs(lhs - rhs)) / max(np.max(np.abs(rhs)), 1e-30)
        worst = max(worst, rel)
    assert worst < 1e-9


def test_conditional_field_at_zero_time():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(8)
    x1 = rng.standard_normal(8)
    out = conditional_vector_field(x, x1, 0.0)
    assert np.allclose(out, x1 - (1 - 1e-4) * x, atol=1e-15)


def test_cfm_loss_values():
    tgt = np.random.default_rng(5).standard_normal((2, 3, 17))
    loss, dpred = cfm_loss(tgt, tgt)
    assert loss == 0.0 and not np.any(dpred)
    assert abs(cfm_loss(tgt + 1.0, tgt)[0] - 1.0) < 1e-12
    assert abs(cfm_loss(np.array([[[3.0, 4.0]]]), np.zeros((1, 1, 2)))[0] - 12.5) < 1e-12
    # the mean over items of each item's mean squared error
    offsets = np.array([1.0, 3.0])[:, None, None]
    assert abs(cfm_loss(tgt + offsets, tgt)[0] - 5.0) < 1e-12


def test_cfm_loss_sign_symmetric_and_positive():
    rng = np.random.default_rng(6)
    tgt = rng.standard_normal((2, 4, 5))
    diff = rng.standard_normal((2, 4, 5))
    assert cfm_loss(tgt + diff, tgt)[0] == cfm_loss(tgt - diff, tgt)[0]
    assert cfm_loss(tgt + 1e-8 * diff, tgt)[0] > 0.0
    with pytest.raises(ValueError, match="predicted"):
        cfm_loss(np.zeros((1, 3, 2)), np.zeros((1, 4, 2)))
    with pytest.raises(ValueError, match="batch, channels, frames"):
        cfm_loss(np.zeros((3, 4)), np.zeros((3, 4)))


def test_cfm_loss_masked_support():
    pred = np.ones((2, 4, 6))
    tgt = np.zeros((2, 4, 6))
    mask = np.zeros((2, 6), dtype=bool)
    mask[0, 2:4] = True
    mask[1, 5] = True
    assert cfm_loss(pred, tgt, frame_mask=mask)[0] == 1.0
    pred2 = np.zeros((2, 4, 6))
    pred2[0, :, 2] = 2.0  # only masked frames differ
    pred2[1, :, 5] = 2.0
    assert abs(cfm_loss(pred2, tgt, frame_mask=mask)[0] - 3.0) < 1e-12
    # an item with no masked frame adds 0 but still counts in the mean
    mask[1] = False
    assert abs(cfm_loss(pred2, tgt, frame_mask=mask)[0] - 1.0) < 1e-12
    loss, dpred = cfm_loss(pred, tgt, frame_mask=np.zeros((2, 6), dtype=bool))
    assert loss == 0.0 and not np.any(dpred)
    with pytest.raises(ValueError, match="frame_mask"):
        cfm_loss(pred, tgt, frame_mask=np.ones(6, dtype=bool))


def test_cfm_loss_without_a_mask_is_the_all_true_mask_bit_for_bit():
    """No mask means every frame is a loss frame, through one formula."""
    rng = np.random.default_rng(20)
    for shape in [(2, 5, 7), (5, 8, 9), (3, 34, 33), (4, 130, 128), (1, 2, 1)] * 5:
        pred, target = rng.standard_normal(shape), rng.standard_normal(shape)
        loss, dpred = cfm_loss(pred, target)
        masked_loss, masked_dpred = cfm_loss(
            pred, target, np.ones((shape[0], shape[2]), dtype=bool))
        assert loss == masked_loss, shape
        assert np.array_equal(dpred, masked_dpred), shape


def test_cfm_loss_gradient_matches_central_differences():
    rng = np.random.default_rng(18)
    pred = rng.standard_normal((3, 4, 5))
    target = rng.standard_normal((3, 4, 5))
    mask = rng.random((3, 5)) < 0.5
    mask[0, :2] = True
    mask[1] = False  # this item adds neither loss nor gradient
    for frame_mask in (None, mask):
        _, dpred = cfm_loss(pred, target, frame_mask)
        h = 1e-6
        for idx in np.ndindex(pred.shape):
            up, dn = pred.copy(), pred.copy()
            up[idx] += h
            dn[idx] -= h
            fd = (cfm_loss(up, target, frame_mask)[0]
                  - cfm_loss(dn, target, frame_mask)[0]) / (2 * h)
            assert abs(fd - dpred[idx]) < 1e-8, idx
    assert not np.any(dpred * ~mask[:, None, :])


def test_sample_tuple_determinism_and_invariants():
    x1 = np.random.default_rng(7).standard_normal((16, 9))
    a = sample_training_tuple(x1, np.random.default_rng(42))
    b = sample_training_tuple(x1, np.random.default_rng(42))
    assert a.t == b.t
    assert np.array_equal(a.x0, b.x0)
    assert np.array_equal(a.x_t, b.x_t)
    # invariants of the tuple itself
    assert np.allclose(a.x_t, sigma_t(a.t) * a.x0 + a.t * x1, atol=1e-14)
    assert np.allclose(a.target, x1 - (1 - 1e-4) * a.x0, atol=1e-14)


def test_sample_tuple_statistics():
    """10^5 draws: x0 is standard normal, t is uniform on (0, 1)."""
    rng = np.random.default_rng(8)
    x1 = np.zeros(4)
    ts = np.empty(10**5)
    x0s = np.empty((10**5, 4))
    for i in range(10**5):
        tup = sample_training_tuple(x1, rng)
        ts[i] = tup.t
        x0s[i] = tup.x0
    assert 0.49 <= ts.mean() <= 0.51
    assert np.all(np.abs(x0s.mean(axis=0)) <= 0.02)
    assert np.all((x0s.var(axis=0) >= 0.95) & (x0s.var(axis=0) <= 1.05))
