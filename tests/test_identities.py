"""Fuzzed identities of the closed forms, far from unit scale.

Hypothesis draws seeds and decimal exponents (derandomized, no example
database); numpy builds each design or channel from them. Matrices are scaled
by 10^+-k, k <= 40, and each row of a coarsening map by 10^+-k, k <= 160;
most are rotated around a flat or ill-conditioned core diag(1, ..., 10^-j).
Every tolerance is the rounding error of the solvers involved, carried into
nats: a route is backward stable when the eigenvalues it effectively sums sit
within delta of the exact ones, and then it errs by at most
1/2 sum_j log((1 + lam_j + delta) / (1 + max(lam_j - delta, 0))).
"""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effdim import (
    GaussianChannel,
    LocationModel,
    RidgeModel,
    coarsen,
    location_mi,
    mi_df_sandwich,
    mutual_information,
    regression_channel,
    regression_mi,
    reparameterize,
    ridge_report,
    whitened_spectrum,
)
from effdim.channel import EVALUATION_MODES
from effdim.cli import main
from effdim.errors import InputError, NumericalError

from conftest import random_covariance, random_orthogonal

EPS = np.finfo(float).eps
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(1, 5)


def _matrix(rng, rows, cols, decades):
    """Gaussian matrix, or U diag(1 .. 10^-decades) V^T (flat at 0) for a number."""
    if decades is None:
        return rng.standard_normal((rows, cols))
    k = min(rows, cols)
    s = 10.0 ** -np.linspace(0.0, decades, k)
    return (random_orthogonal(rng, rows)[:, :k] * s) @ random_orthogonal(rng, cols)[:, :k].T


def _spread(lam, delta) -> float:
    """Largest change in 1/2 sum log1p(lam_j) when each lam_j moves by delta."""
    lam = np.asarray(lam, dtype=float)
    low = np.maximum(lam - delta, 0.0)
    return 0.5 * float(np.sum(np.log1p(np.minimum(2.0 * delta, lam + delta) / (1.0 + low))))


def _condition(cov) -> float:
    eigs = np.linalg.eigvalsh(cov)
    return float(eigs[-1] / eigs[0])


def _channel_error(ch: GaussianChannel, amplification: float = 1.0) -> float:
    """Error bound in nats of any MI route of the channel.

    Forming and factoring the whitened Gram (n x n, or p x p in the parameter
    route) or the output covariance moves its eigenvalues by about
    (n + p) eps (1 + lam_max) cond(N), cond(N) being the noise whitening's
    amplification; ``amplification`` scales that for inputs that were
    themselves computed (a reparameterized channel). The observation route
    also subtracts log det N from log det(A S A^T + N), and each carries
    about n eps times the sum of its logs' magnitudes.
    """
    lam = whitened_spectrum(ch).eigenvalues
    # the parameter route's Gram is p x p: its extra modes are zero
    lam = np.concatenate([lam, np.zeros(max(ch.dim - ch.n_obs, 0))])
    size = ch.n_obs + ch.dim
    delta = 4.0 * size * EPS * (1.0 + lam[0]) * _condition(ch.noise_cov) * amplification
    noise_logs = float(np.sum(np.abs(np.log(np.linalg.eigvalsh(ch.noise_cov)))))
    logdets = 2.0 * noise_logs + float(np.sum(np.log1p(lam)))
    return _spread(lam, delta) + size * EPS * logdets


@st.composite
def channels(draw):
    rng = np.random.default_rng(draw(seeds))
    n, p = draw(sizes), draw(sizes)
    a = _matrix(rng, n, p, draw(st.sampled_from([None, None, 0, 3, 6, 9, 12])))
    return GaussianChannel(
        a=10.0 ** draw(st.integers(-40, 40)) * a,
        prior_cov=10.0 ** draw(st.integers(-40, 40)) * random_covariance(rng, p),
        noise_cov=10.0 ** draw(st.integers(-40, 40)) * random_covariance(rng, n),
    )


@st.composite
def designs(draw):
    rng = np.random.default_rng(draw(seeds))
    x = _matrix(rng, draw(st.integers(1, 8)), draw(sizes),
                draw(st.sampled_from([None, None, 0, 3, 6, 9, 12, 15])))
    return 10.0 ** draw(st.integers(-40, 40)) * x


def _svd_delta(model: RidgeModel) -> float:
    """How far the SVD's error, max(m, n) eps s_1 on each s_j, moves snr * s_j^2."""
    spectrum = model.spectrum
    s_max = math.sqrt(spectrum.eigenvalues[0]) if spectrum.rank else 0.0
    ds = 4.0 * max(model.design.shape) * EPS * s_max
    return model.snr_ratio * ds * (2.0 * s_max + ds)


def _snrs(model: RidgeModel) -> np.ndarray:
    """Per-mode signal-to-noise ratios snr * s_j^2 of the design."""
    return model.snr_ratio * model.spectrum.eigenvalues


def _routes(ch) -> dict[str, float]:
    """Each route's MI; a route may refuse with NumericalError, nothing else."""
    values = {}
    for mode in EVALUATION_MODES:
        try:
            values[mode] = mutual_information(ch, mode)
        except NumericalError:
            pass
    return values


@FUZZ
@given(ch=channels())
def test_routes_agree_or_refuse(ch):
    values = _routes(ch)
    assert "spectral" in values
    tol = 2.0 * _channel_error(ch)
    for mode, value in values.items():
        assert abs(value - values["spectral"]) <= tol, (mode, values, tol)


@FUZZ
@given(ch=channels(), data=st.data())
def test_coarsening_never_adds_information(ch, data):
    rng = np.random.default_rng(data.draw(seeds))
    k = data.draw(st.integers(1, ch.n_obs))
    # each row at its own scale, out to where B N B^T leaves the float range
    scales = 10.0 ** np.array(data.draw(st.lists(st.integers(-160, 160), min_size=k,
                                                 max_size=k)), dtype=float)
    b = random_orthogonal(rng, ch.n_obs)[:k] * rng.uniform(0.5, 2.0, size=(k, 1))
    coarse = coarsen(ch, scales[:, None] * b)
    tol = _channel_error(ch) + _channel_error(coarse)
    assert mutual_information(coarse) <= mutual_information(ch) + tol


@FUZZ
@given(ch=channels(), data=st.data())
def test_reparameterization_keeps_information(ch, data):
    rng = np.random.default_rng(data.draw(seeds))
    q1, q2 = random_orthogonal(rng, ch.dim), random_orthogonal(rng, ch.dim)
    t = (q1 * rng.uniform(0.5, 2.0, size=ch.dim)) @ q2.T  # condition number <= 4
    moved = reparameterize(ch, 10.0 ** data.draw(st.integers(-40, 40)) * t)
    # A T^-1 and T S T^T carry the transform's condition number squared
    tol = _channel_error(ch) + _channel_error(moved, amplification=_condition(t @ t.T))
    assert mutual_information(moved) == pytest.approx(mutual_information(ch), abs=tol, rel=0)


def _ridge_model(x, tau2_exp, sigma2_exp):
    try:
        return RidgeModel(design=x, noise_var=10.0**sigma2_exp, prior_var=10.0**tau2_exp)
    except InputError as exc:
        assert "must be finite" in str(exc)  # snr * tr(X^T X) overflows
        return None


@FUZZ
@given(x=designs(), tau2_exp=st.integers(-320, 300), sigma2_exp=st.integers(-300, 300),
       n=st.integers(3, 10**6))
def test_report_sandwich_and_rank_bound(x, tau2_exp, sigma2_exp, n):
    model = _ridge_model(x, tau2_exp, sigma2_exp)
    if model is None:
        return
    report = ridge_report(model, n)
    assert report.rank_bound >= report.d_eff
    if report.df is not None:
        assert report.df <= report.two_mi <= report.sandwich_upper
        assert mi_df_sandwich(model) == (report.df, report.two_mi, report.sandwich_upper)


@FUZZ
@given(x=designs(), tau2_exp=st.integers(-40, 40))
def test_design_route_agrees_with_channel(x, tau2_exp):
    model = RidgeModel(design=x, noise_var=1.0, prior_var=10.0**tau2_exp)
    mi = regression_mi(model)
    ch = regression_channel(model)
    tol = _spread(_snrs(model), _svd_delta(model)) + _channel_error(ch)
    assert mutual_information(ch) == pytest.approx(mi, abs=tol, rel=0)


@FUZZ
@given(x=designs(), tau2_exp=st.integers(-320, 280), step=st.integers(1, 20))
def test_information_monotone_in_prior_variance(x, tau2_exp, step):
    low = _ridge_model(x, tau2_exp, 0)
    high = _ridge_model(x, tau2_exp + step, 0)
    if high is not None:
        assert regression_mi(low) <= regression_mi(high)


@FUZZ
@given(x=designs(), tau2_exp=st.integers(-40, 40), data=st.data())
def test_information_monotone_in_rows(x, tau2_exp, data):
    rows = data.draw(st.integers(1, x.shape[0]))
    full = RidgeModel(design=x, noise_var=1.0, prior_var=10.0**tau2_exp)
    part = RidgeModel(design=x[:rows], noise_var=1.0, prior_var=10.0**tau2_exp)
    # rows only raise singular values; the part's SVD errs by no more than the full one's
    delta = _svd_delta(full)
    tol = _spread(_snrs(part), delta) + _spread(_snrs(full), delta)
    assert regression_mi(part) <= regression_mi(full) + tol


@FUZZ
@given(d=st.integers(1, 10**6), tau2_exp=st.integers(-320, 300), sigma2_exp=st.integers(-300, 300),
       n=st.integers(1, 10**15), step=st.integers(1, 10**6))
def test_location_information_monotone(d, tau2_exp, sigma2_exp, n, step):
    def mi(n, tau2_exp):
        try:
            return location_mi(LocationModel(dim=d, prior_var=10.0**tau2_exp,
                                              noise_var=10.0**sigma2_exp, n=n))
        except InputError:
            return math.inf  # the larger experiment's SNR overflowed
    base = mi(n, tau2_exp)
    assert base <= mi(n + step, tau2_exp)
    assert base <= mi(n, tau2_exp + 1)


@FUZZ
@given(start=st.integers(3, 10**16),
       gaps=st.lists(st.sampled_from([1, 2, 3, 1000]), min_size=1, max_size=4),
       tau2_exp=st.integers(-320, 300), sigma2_exp=st.integers(-300, 300),
       d=st.integers(1, 1000))
def test_inverse_n_curve_is_monotone(start, gaps, tau2_exp, sigma2_exp, d):
    grid = [start]
    for gap in gaps:
        grid.append(grid[-1] + gap)
    argv = ["curve", "--n-grid", ",".join(map(str, grid)), "--d", str(d),
            "--tau2", repr(10.0**tau2_exp), "--sigma2", repr(10.0**sigma2_exp),
            "--tau2-schedule", "inverse-n"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    if code == 0:
        values = [float(line.split(",")[1]) for line in out.getvalue().splitlines()[1:]]
        assert values == sorted(values, reverse=True)
