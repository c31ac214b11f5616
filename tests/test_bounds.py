"""The residuals are certified O(n^2) bounds: a Frobenius numerator over
norm_lower_bound denominators.  Each is checked against its exact 2-norm
ratio, with spectral_norm's SVD as the oracle: exact <= reported <= 2 sqrt(n)
exact, on planted inputs of cond(S) = 1e2 and 1e3 at n = 2 to 256, single
and stacked, stacks with a zero matrix and with an input whose largest
column is nearly orthogonal to the top right singular vector."""

import re

import numpy as np
import pytest

from pseudoherm import (
    NotCommuting,
    OperatorClass,
    antilinear_residual,
    antilinear_symmetry,
    build_general_metric,
    classify,
    herm_residual,
    norm_lower_bound,
    spectral_norm,
    transform_metric,
    verify_intertwining,
)
from pseudoherm.linalg import frobenius_norm
from pseudoherm.suites import classify_group

ROUNDOFF = 1e-12


def planted(n, kappa, seed, pairs=0):
    """S diag(lambda) S^{-1} with cond(S) = kappa, n - 2 pairs real eigenvalues
    and `pairs` conjugate pairs."""
    rng = np.random.default_rng(seed)
    U, V = (np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            for _ in range(2))
    S = (U * np.geomspace(1.0, 1.0 / kappa, n)) @ V.conj().T
    centres = np.linspace(-1.0, 1.0, n - pairs)
    lam = np.concatenate([centres[pairs:], centres[:pairs] + 0.5j, centres[:pairs] - 0.5j])
    return (S * lam) @ np.linalg.inv(S)


def hidden_top(n, eps=1e-6):
    """U diag(1, 0.95, 0.1, ...) V^dag whose largest column, column 0, has
    only eps of the top right singular vector v_1."""
    rng = np.random.default_rng(n)
    first = np.concatenate([[eps], np.full(n - 1, 1.0)])
    V = np.linalg.qr(np.column_stack([first, np.eye(n)[:, 0], rng.standard_normal((n, n - 2))]))[0]
    U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    A = (U * np.concatenate([[1.0, 0.95], np.full(n - 2, 0.1)])) @ V.conj().T
    columns = np.linalg.norm(A, axis=0)
    assert np.argmax(columns) == 0 and abs(V[0, 0]) <= 2 * eps
    return A


def exact(numerator, *factors):
    """The 2-norm ratio by SVDs, 0 where a factor is 0, per matrix of a stack."""
    top = np.atleast_1d(spectral_norm(numerator))
    bottom = np.prod([np.atleast_1d(spectral_norm(f)) for f in factors], axis=0)
    return np.divide(top, bottom, out=np.zeros_like(top), where=bottom != 0)


def assert_certified(reported, truth, n):
    reported = np.atleast_1d(reported)
    assert np.all(truth * (1 - ROUNDOFF) <= reported), (reported, truth)
    assert np.all(reported <= 2 * np.sqrt(n) * truth), (reported, truth)


def inputs():
    """(n, H) singles at n = 2 to 256, and (k, 8, 8) stacks."""
    for n in (2, 3, 8, 32, 256):
        for kappa, seed in ((1e2, n), (1e3, n + 1)):
            yield n, planted(n, kappa, seed)
            if n >= 4:
                yield n, planted(n, kappa, seed + 2, pairs=n // 4)
    yield 8, np.stack([planted(8, 1e2, 0), planted(8, 1e3, 1, pairs=2), np.zeros((8, 8)),
                       hidden_top(8)])
    yield 64, np.stack([hidden_top(64), np.zeros((64, 64)), planted(64, 1e3, 2)])


CASES = list(inputs())
IDS = [f"n={n}" + ("-stack" if H.ndim == 3 else "") for n, H in CASES]


@pytest.mark.parametrize("n, H", CASES, ids=IDS)
def test_norm_lower_bound_sits_between_the_largest_column_and_the_norm(n, H):
    bound = np.atleast_1d(norm_lower_bound(H))
    assert np.all(bound <= np.atleast_1d(spectral_norm(H)) * (1 + ROUNDOFF))
    assert np.all(bound >= np.max(np.linalg.norm(H, axis=-2), axis=-1))
    assert np.all(np.isfinite(bound))
    assert np.allclose(frobenius_norm(H), np.linalg.norm(H, axis=(-2, -1)), rtol=1e-14, atol=0)
    if H.ndim == 3:
        for j, one in enumerate(H):
            assert bound[j] == norm_lower_bound(one)
        zero = ~H.any(axis=(-2, -1))
        assert zero.any() and np.all(bound[zero] == 0.0)


@pytest.mark.parametrize("exponent", [-1000, -560, 560, 1000])
def test_norms_are_exact_under_power_of_two_scaling(exponent):
    # No sum of squares under- or overflows: 2^-1000 A is far below sqrt(tiny).
    H = np.stack([planted(8, 1e2, 3), np.zeros((8, 8)), hidden_top(8)])
    s = 2.0 ** exponent
    assert np.array_equal(norm_lower_bound(s * H), s * norm_lower_bound(H))
    assert np.array_equal(frobenius_norm(s * H), s * frobenius_norm(H))
    assert np.array_equal(herm_residual(s * H), herm_residual(H))
    assert classify(s * H[0]).kind is classify(H[0]).kind is OperatorClass.QUASI_HERMITIAN


def test_norms_reach_the_top_of_the_float_range():
    # A peak entry past 2^1023 leaves the norm a float; only a norm past the
    # largest float overflows, to inf, and raises under np.errstate(over="raise").
    A = np.diag([1.5e308, 1.0])
    assert norm_lower_bound(A) == frobenius_norm(A) == 1.5e308
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        frobenius_norm(np.diag([1.5e308, 1.5e308]))
    with np.errstate(over="ignore"):
        assert norm_lower_bound(np.full((2, 2), 1e308)) == np.inf


def test_power_iteration_lifts_the_bound_above_the_largest_column():
    # At n = 256 the largest column holds under 0.35 of ||H||; the bound reaches 0.95.
    for n, H in CASES:
        if n == 256:
            norm = spectral_norm(H)
            assert np.max(np.linalg.norm(H, axis=0)) <= 0.35 * norm
            assert norm_lower_bound(H) >= 0.95 * norm


@pytest.mark.parametrize("n, H", CASES, ids=IDS)
def test_residual_helpers_are_certified_bounds(n, H):
    skew = H - np.swapaxes(H.conj(), -1, -2)
    assert_certified(herm_residual(H), exact(skew, H), n)

    cls = classify(H)
    assert_certified(np.atleast_1d(cls.diagnostics["hermiticity_residual"]), exact(skew, H), n)
    norm = np.atleast_1d(cls.diagnostics["norm"])
    assert np.all(norm <= np.atleast_1d(spectral_norm(H)) * (1 + ROUNDOFF))

    # A wrong metric and a wrong tau give residuals of order one.
    eye = np.broadcast_to(np.eye(H.shape[-1], dtype=complex), H.shape)
    Hd = np.swapaxes(H.conj(), -1, -2)
    assert_certified(verify_intertwining(H, eye), exact(Hd - H, H, eye), n)
    assert_certified(antilinear_residual(H, eye), exact(H - H.conj(), H, eye), n)

    # The constructions, on the paired matrices as a stack.
    group = classify_group(H if H.ndim == 3 else H[None])
    H, eta = group.H, group.metric
    assert len(H) >= 1
    tau = antilinear_symmetry(group.spectrum, group.pairing)
    E = eta.matrix
    truth = exact(np.swapaxes(H.conj(), -1, -2) @ E - E @ H, H, E)
    assert_certified(group.residual, truth, n)
    assert_certified(verify_intertwining(H, eta), truth, n)
    assert_certified(verify_intertwining(H, E), truth, n)
    truth = exact(H @ tau - tau @ H.conj(), H, tau)
    assert_certified(antilinear_residual(H, tau, group.norm), truth, n)
    assert_certified(antilinear_residual(H, tau), truth, n)


def test_transform_metric_refuses_by_the_commutator_bound():
    H = planted(16, 1e2, 5)
    cls = classify(H)
    eta = build_general_metric(cls.spectrum, cls.pairing)
    A = np.eye(16) + 1e-6 * np.random.default_rng(5).standard_normal((16, 16))
    with pytest.raises(NotCommuting) as info:
        transform_metric(eta, A, H)
    reported = float(re.search(r"residual (\S+)", str(info.value)).group(1))
    bound = np.linalg.norm(A @ H - H @ A) / norm_lower_bound(H) / norm_lower_bound(A)
    assert reported == pytest.approx(bound, rel=1e-3)
    assert_certified(bound, exact(A @ H - H @ A, A, H), 16)
    assert transform_metric(eta, 2 * np.eye(16), H).signature == eta.signature


@pytest.mark.parametrize("n", [2, 8, 256])
def test_exactly_hermitian_input_needs_no_residual_svd(monkeypatch, n):
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = X + X.conj().T   # Hermitian bit for bit
    svds, svd, cond = [], np.linalg.svd, np.linalg.cond   # cond takes its SVD inside numpy
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append("svd") or svd(*a, **k))
    monkeypatch.setattr(np.linalg, "cond", lambda *a, **k: svds.append("cond") or cond(*a, **k))
    assert herm_residual(H) == 0.0 and svds == []
    cls = classify(H)
    assert cls.kind is OperatorClass.HERMITIAN
    assert cls.diagnostics["hermiticity_residual"] == 0.0
    assert svds == []   # eig_full scores V from the inverse it takes anyway
