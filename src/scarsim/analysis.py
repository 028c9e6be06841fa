"""Post-processing: lifetime fits, decay-plane regression, and spectra.

The spectral pipeline computes the in-phase transform of the mean-subtracted
imbalance over the full window,

    S~(w) = (2/T) * integral_0^T [I(t) - Ibar] cos(w t) dt,

by the trapezoid rule over the uniformly spaced samples, on the grid
w_k = 2 pi k / (8 T) from 0 to the sampling Nyquist frequency; on that grid
the trapezoid sums of all frequencies are one zero-padded real FFT.  It
normalizes by the total integrated intensity, and finally rescales so the
identical pipeline applied to a reference cosine yields a peak of exactly 1.
By default the reference frequency is the dominant grid peak; drive-aware
callers pass ``calibration_omega`` (usually half the modulation frequency).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .evolve import QuenchResult
from .hilbert import MicrostateOrdering
from .tables import csv_text, json_text

# The fixed modulation-frequency grid (units of Omega) over which subharmonic
# weights are summed into the rigidity; other grids are rejected.
RIGIDITY_GRID = tuple(0.75 + 0.1 * k for k in range(11))

# Spectral grid points per Fourier bin 2 pi / T of the sampled window.
_GRID_POINTS_PER_BIN = 8


@dataclass(frozen=True)
class DampedCosineFit:
    """Parameters of y0 + C cos(omega_tilde t) exp(-t / tau)."""

    y0: float
    c: float
    omega_tilde: float
    tau: float
    converged: bool
    param_errors: tuple[float, float, float, float] | None = None
    residual: float = math.nan


@dataclass(frozen=True)
class PlaneFit:
    """Affine decay-rate model 1/tau = alpha x + beta y + inv_tau0 (MHz)."""

    alpha: float
    beta: float
    inv_tau0: float
    alpha_err: float
    beta_err: float
    inv_tau0_err: float
    residual: float
    r_squared: float


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Normalized in-phase intensity on a uniform angular-frequency grid.

    ``s2`` has one row per series, or is 1-D for one series.
    """

    omegas: np.ndarray
    s2: np.ndarray

    def peak_omega(self) -> float:
        """Frequency of the largest intensity of a single-series spectrum."""
        return float(self.omegas[int(np.argmax(self.s2))])


def imbalance(result: QuenchResult) -> np.ndarray:
    """Sublattice population difference <n>_A - <n>_B per snapshot."""
    return result.n_a - result.n_b


def _check_uniform(times: np.ndarray) -> float:
    if len(times) < 2:
        raise ConfigError("need at least two samples")
    steps = np.diff(times)
    dt = float(steps[0])
    if dt <= 0 or not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
        raise ConfigError("samples must be uniformly spaced in time")
    return dt


def _model(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    y0, c, w, tau = p
    return y0 + c * np.cos(w * t) * np.exp(-t / tau)


def _jacobian(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    y0, c, w, tau = p
    damp = np.exp(-t / tau)
    cos_ = np.cos(w * t)
    sin_ = np.sin(w * t)
    j = np.empty((len(t), 4))
    j[:, 0] = 1.0
    j[:, 1] = cos_ * damp
    j[:, 2] = -c * t * sin_ * damp
    j[:, 3] = c * cos_ * damp * t / tau**2
    return j


def _initial_guess(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    dt = times[1] - times[0]
    span = times[-1] - times[0]
    f = values - values.mean()
    spec = np.abs(np.fft.rfft(f))
    freqs = math.tau * np.fft.rfftfreq(len(f), d=dt)
    k = 1 + int(np.argmax(spec[1:]))
    if 1 < k < len(spec) - 1:  # parabolic peak refinement
        a, b, c = spec[k - 1], spec[k], spec[k + 1]
        denom = a - 2 * b + c
        shift = 0.5 * (a - c) / denom if denom != 0 else 0.0
        omega0 = freqs[k] + shift * (freqs[1] - freqs[0])
    else:
        omega0 = freqs[k]
    # envelope decay from block maxima of |f| over one-period windows
    period = math.tau / omega0 if omega0 > 0 else span
    block = max(1, int(round(period / dt)))
    n_blocks = max(2, len(f) // block)
    env_t, env_v = [], []
    for b0 in range(n_blocks):
        seg = slice(b0 * block, min((b0 + 1) * block, len(f)))
        if seg.start >= len(f):
            break
        peak = np.abs(f[seg]).max()
        if peak > 1e-3 * np.abs(f).max():
            env_t.append(times[seg].mean())
            env_v.append(peak)
    tau0 = span
    if len(env_v) >= 2:
        slope = np.polyfit(env_t, np.log(env_v), 1)[0]
        if slope < -1e-12:
            tau0 = min(-1.0 / slope, 100.0 * span)
    return np.array([values.mean(), f[0] if abs(f[0]) > 1e-12 else np.abs(f).max(),
                     omega0, max(tau0, dt)])


# The damped-cosine fit keeps the decay rate 1/tau inside (0, _RATE_MAX), so
# tau > 1e-9 us, stops on a step or a cost reduction below _FIT_TOL,
# relative, and makes at most _FIT_MAX_EVALS model evaluations.
_RATE_MAX, _FIT_TOL, _FIT_MAX_EVALS = 1e9, 1e-12, 2000


def _levenberg_marquardt(tt: np.ndarray, values: np.ndarray,
                         p0: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Least squares for :func:`_model` by Marquardt's method (Moré, Lecture
    Notes in Math. 630, 1978): each step solves
    (J^T J + lam diag(J^T J)) d = -J^T r, where lam starts at 10 and falls
    tenfold after a step that lowers the cost, rising tenfold otherwise.

    It runs in the decay rate k = 1/tau, in which the model stays smooth up
    to k = 0, no decay.  A step that would take k out of (0, _RATE_MAX)
    moves k halfway to that bound, and y0, c and w take the step that holds
    k fixed.  w runs free: the model depends on it only through cos(w t).

    Returns (y0, c, |w|, tau), the cost 0.5 |r|^2 and whether a tolerance
    test was met within the evaluation budget.
    """
    def params(q):
        return np.array([q[0], q[1], q[2], 1.0 / q[3]])

    q = np.array([p0[0], p0[1], p0[2], 1.0 / p0[3]])
    r = _model(tt, params(q)) - values
    cost = 0.5 * (r @ r)
    lam, normal, done = 10.0, None, False
    for _ in range(_FIT_MAX_EVALS - 1):  # one model evaluation per pass
        if normal is None:
            j = _jacobian(tt, params(q))
            j[:, 3] = -q[1] * tt * j[:, 1]  # the column of k
            normal = (j.T @ j, j.T @ r)
        a, g = normal
        m = a + lam * np.diag(np.diag(a))
        try:
            step = np.linalg.solve(m, -g)
            if not 0.0 < q[3] + step[3] < _RATE_MAX:
                bound = _RATE_MAX if step[3] > 0 else 0.0
                step[:3] = np.linalg.solve(m[:3, :3], -g[:3])
                step[3] = 0.5 * (bound - q[3])
        except np.linalg.LinAlgError:
            break
        trial = q + step
        r_trial = _model(tt, params(trial)) - values
        cost_trial = 0.5 * (r_trial @ r_trial)
        done = np.linalg.norm(step) <= _FIT_TOL * (_FIT_TOL + np.linalg.norm(q))
        if cost_trial < cost:
            done = done or cost - cost_trial < _FIT_TOL * cost
            q, r, cost, normal = trial, r_trial, cost_trial, None
            lam /= 10.0
        else:
            lam *= 10.0
        if done:
            break
    p = params(q)
    p[2] = abs(p[2])
    return p, float(cost), bool(done)


def fit_damped_cosine(values: np.ndarray, times: np.ndarray) -> DampedCosineFit:
    """Nonlinear least squares for y0 + C cos(w t) exp(-t/tau).

    The frequency is initialized from the discrete-spectrum peak and the
    decay time from a log-envelope regression; :func:`_levenberg_marquardt`
    then refines them until a step or its cost reduction falls below 1e-12,
    relative, within 2000 model evaluations.  ``converged`` says that it
    did, with a positive tau and a finite cost; the parameter errors come
    from the Jacobian at the solution.  Degenerate (constant) input returns
    converged=False.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    dt = _check_uniform(times)
    if len(times) < 20:
        raise ConfigError("need at least 20 samples for a damped-cosine fit")
    if np.ptp(values) < 1e-14 * max(1.0, np.abs(values).max()):
        return DampedCosineFit(y0=float(values.mean()), c=0.0, omega_tilde=0.0,
                               tau=math.inf, converged=False)
    t0 = times[0]
    tt = times - t0
    p0 = _initial_guess(tt, values)
    if tt[-1] < 2 * math.tau / max(p0[2], 1e-12):
        raise ConfigError("window must span at least two oscillation periods")

    p, cost, converged = _levenberg_marquardt(tt, values, p0)
    y0, c, w, tau = p
    converged = bool(converged and tau > 0 and np.isfinite(cost))
    errors = None
    try:
        jt = _jacobian(tt, p)
        cov = np.linalg.inv(jt.T @ jt) * 2 * cost / max(len(tt) - 4, 1)
        errors = tuple(float(e) for e in np.sqrt(np.clip(np.diag(cov), 0, None)))
    except np.linalg.LinAlgError:
        converged = False
    return DampedCosineFit(y0=float(y0), c=float(c), omega_tilde=float(w),
                           tau=float(tau), converged=converged,
                           param_errors=errors, residual=cost)


def fit_decay_plane(points: np.ndarray | list[tuple[float, float, float]]) -> PlaneFit:
    """Ordinary least squares for 1/tau = alpha x + beta y + 1/tau0.

    points holds rows (x, y, inv_tau) in MHz; at least three non-collinear
    rows are required.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 3:
        raise ConfigError("need at least 3 rows of (x, y, inv_tau)")
    design = np.column_stack([pts[:, 0], pts[:, 1], np.ones(len(pts))])
    if np.linalg.matrix_rank(design) < 3:
        raise NumericalError("design matrix is rank deficient (collinear points)")
    coef, rss_arr, *_ = np.linalg.lstsq(design, pts[:, 2], rcond=None)
    fitted = design @ coef
    rss = float(((pts[:, 2] - fitted) ** 2).sum())
    tss = float(((pts[:, 2] - pts[:, 2].mean()) ** 2).sum())
    dof = max(len(pts) - 3, 1)
    cov = np.linalg.inv(design.T @ design) * rss / dof
    err = np.sqrt(np.clip(np.diag(cov), 0, None))
    return PlaneFit(alpha=float(coef[0]), beta=float(coef[1]),
                    inv_tau0=float(coef[2]), alpha_err=float(err[0]),
                    beta_err=float(err[1]), inv_tau0_err=float(err[2]),
                    residual=rss,
                    r_squared=1.0 - rss / tss if tss > 0 else 1.0)


def _inphase_transform(values: np.ndarray, times: np.ndarray,
                       omegas: np.ndarray) -> np.ndarray:
    """In-phase transform of each series along the last axis of ``values``,
    on the :func:`fourier_spectrum` grid of N + 1 samples.

    That grid is omega_k = 2 pi k / (8 T), k = 0..4N, so on uniform samples
    cos(omega_k t_j) = cos(2 pi k j / 8N): the trapezoid sum of f cos(omega t)
    over ``times`` is the real part of bins 0..4N of the length-8N real FFT
    of the series times its trapezoid weights.
    """
    size = _GRID_POINTS_PER_BIN * (len(times) - 1)
    if len(omegas) != size // 2 + 1:
        raise NumericalError(f"spectral grid has {len(omegas)} points, "
                             f"not 4N + 1 = {size // 2 + 1}")
    f = values - values.mean(axis=-1, keepdims=True)
    half = np.diff(times) / 2.0
    w = np.zeros(len(times))
    w[:-1] += half
    w[1:] += half
    window = times[-1] - times[0]
    return (2.0 / window) * np.fft.rfft(f * w, n=size, axis=-1).real


def _normalized_intensity(values: np.ndarray, times: np.ndarray,
                          omegas: np.ndarray) -> np.ndarray:
    window = times[-1] - times[0]
    transform = _inphase_transform(values, times, omegas)
    total = np.trapezoid(transform**2, omegas, axis=-1)[..., None]
    # a series with no spectral weight keeps an all-zero intensity
    s2 = np.zeros_like(transform)
    np.divide(transform**2, 2.0 * total * window / math.tau, out=s2, where=total > 0)
    return s2


def spectral_grid(times: np.ndarray) -> np.ndarray:
    """The frequencies of :func:`fourier_spectrum` for uniform sample
    ``times``: 0 to the Nyquist frequency pi / dt, spaced 2 pi / (8 T)."""
    times = np.asarray(times, dtype=float)
    dt = _check_uniform(times)
    window = times[-1] - times[0]
    if window <= 0:
        raise ConfigError("window must have positive duration")
    domega = math.tau / (_GRID_POINTS_PER_BIN * window)
    return np.arange(0.0, math.pi / dt + 0.5 * domega, domega)


def fourier_spectrum(values: np.ndarray, times: np.ndarray, *,
                     calibration_omega: float | None = None) -> Spectrum:
    """Normalized in-phase power spectrum of uniformly sampled series.

    ``values`` holds one series, or one series per row of a
    (series, samples) array; the spectrum's ``s2`` then has one row per
    series.  The grid (:func:`spectral_grid`) spans 0 to the
    sampling Nyquist frequency with spacing 2 pi / (8 T).  ``calibration_omega``
    selects the reference-cosine frequency; by default each series' dominant
    peak is used, so a pure cosine at any grid frequency comes out with peak
    exactly 1.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    omegas = spectral_grid(times)
    tt = times - times[0]

    s2 = _normalized_intensity(values, tt, omegas)
    flat = np.ptp(values, axis=-1) < 1e-12 * np.maximum(1.0, np.abs(values).max(axis=-1))
    # row views: the per-series edits below land in s2
    s2_rows = s2.reshape(-1, len(omegas))
    for r, is_flat in enumerate(np.ravel(flat)):
        if is_flat:
            s2_rows[r] = 0.0
            continue
        if s2_rows[r].max() <= 0:
            continue
        omega_ref = calibration_omega
        if omega_ref is None:
            omega_ref = float(omegas[int(np.argmax(s2_rows[r]))])
        if omega_ref <= 0:
            continue
        # the peak at omega_ref of the pipeline applied to cos(omega_ref t)
        ref_s2 = _normalized_intensity(np.cos(omega_ref * tt), tt, omegas)
        ref_peak = float(np.interp(omega_ref, omegas, ref_s2))
        if ref_peak <= 0:
            raise NumericalError("spectral calibration failed: zero reference peak")
        s2_rows[r] /= ref_peak
    return Spectrum(omegas=omegas, s2=s2)


def weight_at(spectrum: Spectrum, omega: float) -> float | np.ndarray:
    """Linearly interpolated intensity at an arbitrary frequency, one value
    per series of the spectrum (a float for a single series)."""
    if not (spectrum.omegas[0] <= omega <= spectrum.omegas[-1]):
        raise ConfigError(f"frequency {omega} outside the spectral grid")
    w = np.apply_along_axis(lambda s2: np.interp(omega, spectrum.omegas, s2),
                            -1, spectrum.s2)
    return float(w) if w.ndim == 0 else w


def subharmonic_weight(spectrum: Spectrum, omegam: float, order: int = 2) -> float:
    """Intensity at omegam/order (order 2 for the main subharmonic, 4 for the 4th)."""
    if order not in (2, 4):
        raise ConfigError("order must be 2 or 4")
    return weight_at(spectrum, omegam / order)


def spectral_summary(values: np.ndarray, times: np.ndarray,
                     omegam: float | None = None) -> tuple[Spectrum, dict]:
    """The spectrum of one series and its summary: ``peak_omega`` and, for a
    drive frequency ``omegam`` (which calibrates at omegam / 2), the
    ``subharmonic_weight`` and ``fourth_subharmonic_weight``."""
    spec = fourier_spectrum(values, times,
                            calibration_omega=omegam / 2.0 if omegam else None)
    summary = {"peak_omega": spec.peak_omega()}
    if omegam:
        summary["subharmonic_weight"] = subharmonic_weight(spec, omegam)
        summary["fourth_subharmonic_weight"] = subharmonic_weight(spec, omegam, order=4)
    return spec, summary


def subharmonic_rigidity(omegam_over_omega: np.ndarray | list[float],
                         weights: np.ndarray | list[float]) -> float:
    """Sum of the subharmonic weights over the fixed 11-point drive grid."""
    grid = np.asarray(omegam_over_omega, dtype=float)
    w = np.asarray(weights, dtype=float)
    expected = np.asarray(RIGIDITY_GRID)
    if grid.shape != expected.shape or not np.allclose(grid, expected, atol=1e-9):
        raise ConfigError(
            "rigidity is defined on the 11-point modulation grid 0.75..1.75"
        )
    if w.shape != grid.shape:
        raise ConfigError("weights and grid lengths differ")
    # left to right in grid order; numpy's pairwise sum rounds differently
    return float(sum(w.tolist()))


def spectrum_to_csv(spectrum: Spectrum) -> str:
    return csv_text(["omega", "s2"],
                    np.column_stack([spectrum.omegas, spectrum.s2]).tolist())


def fit_to_json(fit: DampedCosineFit) -> str:
    doc = asdict(fit)
    if fit.param_errors is None:
        del doc["param_errors"]
    return json_text(doc)


def plane_to_json(fit: PlaneFit) -> str:
    return json_text(asdict(fit))


def microstate_matrix_to_csv(times: np.ndarray, matrix: np.ndarray) -> str:
    """Wide CSV keyed by 1-based presentation-order class index."""
    header = ["t"] + [f"c{k + 1}" for k in range(matrix.shape[1])]
    return csv_text(header, np.column_stack([times, matrix]).tolist())


def microstate_matrix(result: QuenchResult, ordering: MicrostateOrdering) -> np.ndarray:
    """Snapshot-by-class probability matrix in presentation order."""
    if result.probs is None:
        raise ConfigError("quench was run without microstate probabilities")
    if len(ordering.labels) != result.probs.shape[1]:
        raise ConfigError("ordering does not partition this basis")
    out = ordering.class_sums(result.probs)
    sums = out.sum(axis=1)
    if not np.allclose(sums, 1.0, atol=1e-9):
        raise NumericalError("class probabilities do not sum to 1")
    return out
