"""The feature-batched TMF core against the scalar per-row reference.

The oracles below are the scalar solvers the batched core replaced: one
np.linalg.solve per series row, per time step and per feature, with the
objective summed over t in Python. The batched core sums in another
order, so the comparisons hold to a relative tolerance set beforehand
from float64 rounding (about 1e-14 observed), far below what a change of
algorithm, such as a Jacobi instead of a Gauss-Seidel F-step, would give.
The batched Cholesky kernel is held to np.linalg.solve the same way, and
its singular rule to the messages of the steps that use it.
"""

import numpy as np
import pytest

from potsmine import (PotsDataset, TimeSeriesSample, TmfModel, TrainConfig,
                      fit as fit_model, tmf_fit)
from potsmine.errors import InvalidInputError
from potsmine.models.forecasting import (_RIDGE_FLOOR, _cho_solve, _cholesky, _estimate_w,
                                         _f_step_maps, _feature_stacks, _solve, _tmf_core)


# ---------------------------------------------------------------------------
# scalar oracles

def _ar_predict_oracle(factors, coeffs, t):
    out = np.zeros(factors.shape[1], dtype=np.float64)
    for lag in range(1, coeffs.shape[0] + 1):
        out += coeffs[lag - 1] * factors[t - lag]
    return out


def _objective_oracle(y, mask, w, f, a, lam_w, lam_f, lam_a):
    resid = np.where(mask, y - w @ f.T, 0.0)
    value = float((resid * resid).sum())
    value += lam_w * float((w * w).sum())
    value += lam_a * float((a * a).sum())
    value += lam_f * float((f * f).sum())
    order = a.shape[0]
    for t in range(order, f.shape[0]):
        diff = f[t] - _ar_predict_oracle(f, a, t)
        value += lam_f * float(diff @ diff)
    return value


def _tmf_core_oracle(y, mask, rank, ar_order, lam_w, lam_f, lam_a, iters, seed,
                     history):
    n, t_len = y.shape
    lam_w += _RIDGE_FLOOR
    lam_f += _RIDGE_FLOOR
    lam_a += _RIDGE_FLOOR
    rng = np.random.Generator(np.random.PCG64(seed))
    w = rng.normal(0.0, 0.1, (n, rank))
    f = rng.normal(0.0, 0.1, (t_len, rank))
    a = np.zeros((ar_order, rank), dtype=np.float64)
    yz = np.where(mask, y, 0.0)
    eye_r = np.eye(rank)

    for _ in range(iters):
        for i in range(n):
            cols = mask[i]
            fi = f[cols]
            w[i] = np.linalg.solve(fi.T @ fi + lam_w * eye_r, fi.T @ yz[i, cols])
        for t in range(t_len):
            rows = mask[:, t]
            wt = w[rows]
            m = wt.T @ wt + lam_f * eye_r
            rhs = wt.T @ yz[rows, t]
            if t >= ar_order:
                m = m + lam_f * eye_r
                rhs = rhs + lam_f * _ar_predict_oracle(f, a, t)
            for lag in range(1, ar_order + 1):
                target = t + lag
                if target >= t_len or target < ar_order:
                    continue
                m = m + lam_f * np.diag(a[lag - 1] ** 2)
                others = f[target] - (_ar_predict_oracle(f, a, target) - a[lag - 1] * f[t])
                rhs = rhs + lam_f * a[lag - 1] * others
            f[t] = np.linalg.solve(m, rhs)
        for r in range(rank):
            design = np.column_stack(
                [f[ar_order - lag:t_len - lag, r] for lag in range(1, ar_order + 1)])
            targets = f[ar_order:, r]
            m = lam_f * design.T @ design + lam_a * np.eye(ar_order)
            a[:, r] = np.linalg.solve(m, lam_f * design.T @ targets)
        history.append(_objective_oracle(y, mask, w, f, a, lam_w, lam_f, lam_a))
    return w, f, a


def _estimate_w_oracle(values, mask, f, lam_w):
    rank = f.shape[1]
    eye_r = np.eye(rank)
    yz = np.where(mask, values, 0.0)
    out = np.empty((values.shape[0], rank), dtype=np.float64)
    for i in range(values.shape[0]):
        cols = mask[i]
        fi = f[cols]
        out[i] = np.linalg.solve(
            fi.T @ fi + (lam_w + _RIDGE_FLOOR) * eye_r, fi.T @ yz[i, cols])
    return out


# ---------------------------------------------------------------------------
# data

def _ragged_problem(n=14, t_len=22, d=3, seed=0):
    """(N, T, D) values and mask: each feature its own mask, with missing
    runs of irregular length and every row and column kept observable."""
    rng = np.random.default_rng(seed)
    grid = np.arange(t_len) / t_len
    values = np.empty((n, t_len, d))
    for k in range(d):
        scale = rng.normal(1.0, 0.4, (n, 1))
        values[:, :, k] = scale * np.sin(2 * np.pi * (k + 1) * grid + k) \
            + 0.1 * rng.normal(size=(n, t_len))
    mask = np.ones((n, t_len, d))
    for k in range(d):
        for i in range(n):
            for _ in range(int(rng.integers(0, 4))):
                start = int(rng.integers(0, t_len))
                mask[i, start:start + int(rng.integers(1, 7)), k] = 0.0
        mask[:, :, k] *= rng.random((n, t_len)) >= 0.1 * (k + 1)
        mask[int(rng.integers(n)), :, k] = 1.0
        mask[:, int(rng.integers(t_len)), k] = 1.0
        mask[np.arange(n), rng.integers(0, t_len, n), k] = 1.0
    values[mask == 0] = np.nan
    return values, mask


def _rel(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


# ---------------------------------------------------------------------------
# tests

def test_batched_core_matches_scalar_oracle():
    values, mask = _ragged_problem()
    for ar_order in (1, 3):
        hp = dict(rank=3, ar_order=ar_order, lam_w=0.1, lam_f=0.3, lam_a=0.05,
                  iters=6)
        yz, obs = _feature_stacks(values, mask)
        w, f, a, history = _tmf_core(yz, obs, seed=7, **hp)
        for d in range(values.shape[2]):
            want_history: list = []
            ow, of, oa = _tmf_core_oracle(values[:, :, d], mask[:, :, d] != 0,
                                          seed=7 + d, history=want_history, **hp)
            assert _rel(w[d], ow) <= 1e-10
            assert _rel(f[d], of) <= 1e-10
            assert _rel(a[d], oa) <= 1e-10
            assert len(history[d]) == len(want_history) == hp["iters"]
            assert _rel(np.array(history[d]), np.array(want_history)) <= 1e-10


def test_multi_feature_model_equals_single_feature_fits():
    values, mask = _ragged_problem(seed=3)
    n, t_len, d = values.shape
    ds = PotsDataset([TimeSeriesSample(sample_id=i,
                                       timestamps=np.arange(t_len, dtype=np.float64),
                                       values=values[i], mask=mask[i], label=None)
                      for i in range(n)])
    model = TmfModel(n_steps=t_len, n_features=d, rank=2, ar_order=2, iters=5)
    fit_model(model, ds, ds, TrainConfig(seed=11))
    for k in range(d):
        single = tmf_fit(values[:, :, k], mask[:, :, k], rank=2, ar_order=2,
                         iters=5, seed=11 + k)
        for got, want in ((model.w_list[k], single.w_list[0]),
                          (model.f_list[k], single.f_list[0]),
                          (model.a_list[k], single.a_list[0])):
            assert _rel(got, want) <= 1e-12
        assert _rel(np.array(model.objective_history[k]),
                    np.array(single.objective_history[0])) <= 1e-12


def test_estimate_w_matches_scalar_oracle():
    values, mask = _ragged_problem(n=30, seed=5)
    rng = np.random.default_rng(8)
    f = rng.normal(size=(values.shape[2], values.shape[1], 4))
    yz, obs = _feature_stacks(values, mask)
    got = _estimate_w(yz, obs, f, 0.2 + _RIDGE_FLOOR)
    for d in range(values.shape[2]):
        want = _estimate_w_oracle(values[:, :, d], mask[:, :, d] != 0, f[d], 0.2)
        assert _rel(got[d], want) <= 1e-12


# ---------------------------------------------------------------------------
# the batched Cholesky kernel

def _spd(rank, batch, seed):
    """(R, R, *batch) random symmetric positive definite systems."""
    rng = np.random.default_rng(seed)
    b = rng.normal(size=batch + (rank, rank))
    mats = b @ b.swapaxes(-1, -2) / rank + np.eye(rank)
    return np.moveaxis(mats, (-2, -1), (0, 1)).copy()


@pytest.mark.parametrize("rank", range(1, 7))
@pytest.mark.parametrize("batch", [(1,), (7,), (2000,), (3, 5)])
def test_cholesky_solve_matches_numpy_solve(rank, batch):
    systems = _spd(rank, batch, seed=rank)
    rhs = np.random.default_rng(rank + 10).normal(size=(rank, 3) + batch)
    want = np.linalg.solve(np.moveaxis(systems, (0, 1), (-2, -1)),
                           np.moveaxis(rhs, (0, 1), (-2, -1)))
    low = systems.copy()
    assert not _cholesky(low).any()
    got = np.moveaxis(_cho_solve(low, rhs.copy()), (0, 1), (-2, -1))
    assert _rel(got, want) <= 1e-12


def test_a_pivot_within_16_eps_of_its_diagonal_entry_is_singular():
    systems = np.array([[[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]])
    systems[1, 1] += [1e-14, 1e-15]
    assert _cholesky(systems).tolist() == [False, True]


@pytest.mark.parametrize("entry", [(0, 0), (1, 0), (2, 2)])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_a_system_holding_a_non_finite_entry_is_not_singular(entry, bad):
    # its NaN, if any, is left for the objective's finite check; the suite
    # turns any RuntimeWarning on the way into an error
    systems = _spd(3, (2, 2), seed=1)
    systems[entry + (1, 0)] = systems[entry[::-1] + (1, 0)] = bad
    want = np.linalg.solve(np.moveaxis(systems, (0, 1), (-2, -1))[0], np.ones((2, 3, 1)))
    solved = _solve(systems, np.ones((3, 2, 2)), "W-step", "lam_w")
    assert _rel(solved[:, 0].T, want[..., 0]) <= 1e-12


def _degenerate_gram(kind, rank, rows):
    """(rows, R) factors whose Gram is exactly zero, or rank 1 at 1e8 scale,
    where the 1e-10 ridge floor vanishes in rounding."""
    if kind == "zero":
        return np.zeros((rows, rank))
    return 1e4 * np.linspace(1.0, 2.0, rows)[:, None] * np.linspace(0.5, 1.0, rank)


_RIDGE = {"zero": 0.0, "rank one": _RIDGE_FLOOR}


@pytest.mark.parametrize("kind", ["zero", "rank one"])
def test_a_degenerate_w_step_gram_is_refused(kind):
    f = np.random.default_rng(2).normal(size=(3, 6, 4))
    f[1] = _degenerate_gram(kind, 4, 6)
    obs = np.ones((3, 5, 6))
    with pytest.raises(InvalidInputError, match="the W-step system of feature 1 is singular; "
                                                "try a larger ridge weight lam_w$"):
        _estimate_w(np.ones_like(obs), obs, f, _RIDGE[kind])


def _f_step_grams(w, obs):
    """(R, R, D, T) F-step Grams of (D, N, R) series factors."""
    return np.einsum("dnt,dnr,dns->rsdt", obs, w, w)


@pytest.mark.parametrize("kind", ["zero", "rank one"])
def test_a_degenerate_f_step_gram_is_refused(kind):
    w = np.random.default_rng(3).normal(size=(3, 5, 4))
    obs = np.ones((3, 5, 8))
    gram = _f_step_grams(w, obs)
    gram[:, :, 1, 6] = _f_step_grams(_degenerate_gram(kind, 4, 5)[None], obs[:1])[:, :, 0, 0]
    with pytest.raises(InvalidInputError, match="the F-step system of feature 1 at step 6 is "
                                                "singular; try a larger ridge weight lam_f$"):
        _f_step_maps(gram, np.ones((4, 3, 8)), np.zeros((3, 2, 4)), _RIDGE[kind])


def test_two_singular_f_steps_report_the_earlier_step():
    w = np.random.default_rng(4).normal(size=(3, 5, 4))
    obs = np.ones((3, 5, 8))
    gram = _f_step_grams(w, obs)
    gram[:, :, 2, 3] = 0.0
    gram[:, :, 0, 5] = 0.0
    with pytest.raises(InvalidInputError, match="F-step system of feature 2 at step 3 is"):
        _f_step_maps(gram, np.ones((4, 3, 8)), np.zeros((3, 2, 4)), 0.0)


@pytest.mark.parametrize("kind", ["zero", "rank one"])
def test_a_degenerate_a_step_system_is_refused(kind):
    # the A step's (L, L) systems are a Gram of lagged F columns plus lam_a
    lags = _degenerate_gram(kind, 3, 10)
    systems = _spd(3, (2, 4), seed=5)
    systems[:, :, 1] = (lags.T @ lags + _RIDGE[kind] * np.eye(3))[..., None]
    with pytest.raises(InvalidInputError, match="the A-step system of feature 1 is singular; "
                                                "try a larger ridge weight lam_a$"):
        _solve(systems, np.ones((3, 2, 4)), "A-step", "lam_a")
