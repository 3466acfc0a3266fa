"""Linear dynamical systems, mixtures of them, and their diagnostics.

A single system with state dimension ``n``, input dimension ``p`` and
observation dimension ``m`` evolves as::

    x[t+1] = A x[t] + B u[t] + w[t]
    y[t]   = C x[t] + D u[t] + z[t]

with exogenous inputs ``u[t] ~ N(0, I_p)`` and isotropic Gaussian noise
``x[0] ~ N(0, σ² I_n)``, ``w[t] ~ N(0, σ² I_n)``, ``z[t] ~ N(0, σ² I_m)``,
where σ is the mixture's ``noise_scale``.  A mixture draws a component
index by its mixing weights and then emits one whole trajectory from
that component.

Time is 0-based throughout: a length-``l`` trajectory holds
``u[0..l-1]`` and ``y[0..l-1]``.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, DimensionError, require_int
from .rng import substream  # noqa: F401  (kept as lds.substream: perfbench wraps it)
from .rng import substream_draws

__all__ = [
    "LdsParams",
    "MixtureSpec",
    "Trajectory",
    "Dataset",
    "NoiseConfig",
    "WellBehavedReport",
    "draw_lds_noise",
    "sample_mixture_dataset",
    "observability_matrix",
    "controllability_matrix",
    "markov_matrix",
    "joint_nondegeneracy_gamma",
    "well_behaved_report",
    "random_lds",
    "random_mixture",
]

# Relative singular-value threshold used for all rank decisions.
RANK_RTOL = 1e-10
# random_lds: spectral radius of A, and spectral norm of B and of C.
SPECTRAL_RADIUS = 0.6
GAIN = 1.5
# random_mixture: draws made before giving up on min_gamma.
MAX_TRIES = 200


def _freeze(arr, dtype=float) -> np.ndarray:
    """``arr`` as a write-protected array; copied unless it already is one."""
    arr = np.asarray(arr, dtype=dtype)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


def all_finite(arr: np.ndarray) -> bool:
    """No nan or inf in ``arr``, found with no elementwise temporary: nan reaches min and max."""
    return arr.size == 0 or bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


@dataclass(frozen=True, eq=False)  # identity equality: fields are arrays
class LdsParams:
    """Parameter matrices (a, b, c, d) of one linear dynamical system.

    Shapes: a is n-by-n, b is n-by-p, c is m-by-n, d is m-by-p.  Instances
    are immutable (arrays are write-protected).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            mat = np.asarray(getattr(self, name), dtype=float)
            if mat.ndim != 2:
                raise DimensionError(name, f"expected a matrix, got ndim={mat.ndim}")
            if not np.all(np.isfinite(mat)):
                raise DimensionError(name, "contains non-finite entries")
            object.__setattr__(self, name, _freeze(mat))
        n0, n1 = self.a.shape
        if n0 != n1:
            raise DimensionError("a", f"must be square, got {self.a.shape}")
        if self.b.shape[0] != n0:
            raise DimensionError("b", f"expected {n0} rows, got {self.b.shape[0]}")
        if self.c.shape[1] != n0:
            raise DimensionError("c", f"expected {n0} columns, got {self.c.shape[1]}")
        if self.d.shape != (self.c.shape[0], self.b.shape[1]):
            raise DimensionError(
                "d", f"expected shape {(self.c.shape[0], self.b.shape[1])}, got {self.d.shape}"
            )

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def p(self) -> int:
        return self.b.shape[1]

    @property
    def m(self) -> int:
        return self.c.shape[0]

    @property
    def dims(self) -> tuple:
        """(m, n, p)."""
        return (self.m, self.n, self.p)


@dataclass(frozen=True, eq=False)  # identity equality: fields are arrays
class MixtureSpec:
    """A k-component mixture: component systems plus mixing weights.

    Weights must be strictly positive and sum to 1 (tolerance 1e-12);
    all components must share the same (m, n, p).  ``noise_scale`` is the
    standard deviation of x0, w[t] and z[t] (finite, nonnegative); inputs
    u[t] always have unit covariance, and 0 makes y a deterministic
    function of u.
    """

    components: tuple
    weights: np.ndarray
    noise_scale: float = 1.0

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) < 1:
            raise DataError("mixture needs at least one component")
        dims = comps[0].dims
        for i, comp in enumerate(comps):
            if comp.dims != dims:
                raise DimensionError(
                    f"components[{i}]", f"dims {comp.dims} differ from {dims}"
                )
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(comps),):
            raise DataError(f"expected {len(comps)} weights, got shape {w.shape}")
        if np.any(w <= 0):
            raise DataError("mixing weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise DataError(f"mixing weights sum to {w.sum()!r}, expected 1")
        scale = float(self.noise_scale)
        if not 0 <= scale < np.inf:
            raise DataError(f"noise_scale must be finite and nonnegative, got {self.noise_scale!r}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "noise_scale", scale)

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def dims(self) -> tuple:
        return self.components[0].dims


@dataclass(frozen=True, eq=False)  # identity equality: fields are arrays
class Trajectory:
    """One observed trajectory: paired inputs u (l, p) and outputs y (l, m).

    ``label`` is the generating component index when known (simulation
    only); learners must not read it.
    """

    u: np.ndarray
    y: np.ndarray
    label: Optional[int] = None

    def __post_init__(self):
        u, y = (_freeze(np.atleast_2d(np.asarray(v, dtype=float))) for v in (self.u, self.y))
        if u.shape[0] != y.shape[0] or u.shape[0] < 1:
            raise DataError(f"u has {u.shape[0]} steps but y has {y.shape[0]}; need equal lengths >= 1")
        if not (all_finite(u) and all_finite(y)):
            raise DataError("trajectory contains non-finite entries")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True, eq=False)  # identity equality: fields are arrays
class Dataset:
    """N trajectories of one length l, held as arrays u (N, l, p), y (N, l, m).

    ``labels`` (N,) holds the generating component indices when known
    (simulation only), else None; learners must not read it.  The arrays
    are validated once and write-protected (copied unless already
    read-only).  ``ds[i]`` is a :class:`Trajectory` view, ``ds[a:b]`` a
    Dataset view, and iterating yields Trajectory views.
    """

    u: np.ndarray
    y: np.ndarray
    labels: Optional[np.ndarray] = None
    _view = Trajectory  # bound here: perfbench wraps lds.Trajectory to count builds

    def __post_init__(self):
        u, y = _freeze(self.u), _freeze(self.y)
        if u.ndim != 3 or y.ndim != 3 or u.shape[:2] != y.shape[:2] or 0 in u.shape[:2]:
            raise DataError(
                f"expected u (N, l, p) and y (N, l, m) with N, l >= 1, got {u.shape} and {y.shape}"
            )
        if not (all_finite(u) and all_finite(y)):
            raise DataError("dataset contains non-finite entries")
        labels = None if self.labels is None else _freeze(self.labels, dtype=None)
        if labels is not None and (labels.shape != u.shape[:1] or labels.dtype.kind not in "iu"):
            raise DataError(f"expected {len(u)} integer labels, got {labels!r}")
        for name, arr in (("u", u), ("y", y), ("labels", labels)):
            object.__setattr__(self, name, arr)

    @property
    def length(self) -> int:
        return self.u.shape[1]

    def __len__(self) -> int:
        return self.u.shape[0]

    def __getitem__(self, index):
        label = None if self.labels is None else self.labels[index]
        if isinstance(index, slice):
            return Dataset(u=self.u[index], y=self.y[index], labels=label)
        index = operator.index(index)
        label = None if label is None else int(label)
        return self._view(u=self.u[index], y=self.y[index], label=label)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def require_dataset(obj) -> Dataset:
    if not isinstance(obj, Dataset):
        raise DataError(f"expected a Dataset, got {type(obj).__name__}; "
                        "build one from arrays u (N, l, p) and y (N, l, m)")
    return obj


def require_mixture(obj) -> MixtureSpec:
    if not isinstance(obj, MixtureSpec):
        raise DataError(f"expected a MixtureSpec, got {type(obj).__name__}")
    return obj


@dataclass(frozen=True)
class NoiseConfig:
    """Seed of the per-trajectory substreams of a sampled dataset.  The
    noise scale is the mixture's (:attr:`MixtureSpec.noise_scale`)."""

    seed: int = 0


def draw_lds_noise(dims, length, noise_scale: float, rng: np.random.Generator):
    """Draw (x0, u, w, z) for one trajectory, in that fixed order.

    The draw order is part of the reproducibility contract: x0 first,
    then the full input array u (length, p), then w (length, n), then
    z (length, m), each row-major.  x0, w and z are scaled by
    ``noise_scale``.
    """
    m, n, p = dims
    x0 = noise_scale * rng.standard_normal(n)
    u = rng.standard_normal((length, p))
    w = noise_scale * rng.standard_normal((length, n))
    z = noise_scale * rng.standard_normal((length, m))
    return x0, u, w, z


def _iterate_batch(params: LdsParams, x0, u, w, z):
    """Run the recurrence for a batch: x0 (B,n), u/w/z (B,l,·) -> y (B,l,m)."""
    batch, length = u.shape[0], u.shape[1]
    a_t, b_t, c_t, d_t = params.a.T, params.b.T, params.c.T, params.d.T
    y = np.empty((batch, length, params.m))
    x = np.array(x0, dtype=float)
    for t in range(length):
        y[:, t, :] = x @ c_t + u[:, t, :] @ d_t + z[:, t, :]
        x = x @ a_t + u[:, t, :] @ b_t + w[:, t, :]
    return y


def sample_mixture_dataset(
    mix: MixtureSpec, n_traj: int, length: int, noise: NoiseConfig
) -> Dataset:
    """Draw ``n_traj`` labelled trajectories of one length from the mixture,
    at the mixture's ``noise_scale``.

    Trajectory ``i`` consumes only substream ``i`` of ``noise.seed``: one
    uniform for its label, then one normal block split into x0, u, w, z
    in the order of :func:`draw_lds_noise`, so the dataset is
    reproducible bit for bit at any degree of parallelism.  Trajectories
    are drawn and run in chunks of ``rng._BATCH`` = 4096 straight into the
    Dataset's arrays, so the working memory is the Dataset plus one
    (4096, n + length (p + n + m)) buffer of normals and its per-component
    gathers.
    """
    n_traj, length = require_int(n_traj, "n_traj", 1), require_int(length, "length", 1)
    m, n, p = require_mixture(mix).dims
    if not isinstance(noise, NoiseConfig):
        raise DataError(f"expected a NoiseConfig, got {type(noise).__name__}")
    u_end, w_end = n + length * p, n + length * (p + n)
    draws = substream_draws(noise.seed, n_traj, w_end + length * m)
    cumw = np.cumsum(mix.weights)
    u, y = np.empty((n_traj, length, p)), np.empty((n_traj, length, m))
    labels = np.empty(n_traj, dtype=np.intp)
    for start, uniforms, block in draws:
        chunk = slice(start, start + len(block))
        label = np.searchsorted(cumw, uniforms, side="right")
        labels[chunk] = np.minimum(label, mix.k - 1)  # guard against rounding at cumw[-1]
        block[:, :n] *= mix.noise_scale
        block[:, u_end:] *= mix.noise_scale
        u[chunk] = block[:, n:u_end].reshape(-1, length, p)
        x0 = block[:, :n]
        w = block[:, u_end:w_end].reshape(-1, length, n)
        z = block[:, w_end:].reshape(-1, length, m)
        for ci, comp in enumerate(mix.components):
            idx = np.flatnonzero(labels[chunk] == ci)
            if idx.size:
                y[start + idx] = _iterate_batch(comp, x0[idx], u[start + idx], w[idx], z[idx])
    for arr in (u, y, labels):
        arr.setflags(write=False)
    return Dataset(u=u, y=y, labels=labels)


def observability_matrix(params: LdsParams, s: int) -> np.ndarray:
    """Stack C, CA, ..., CA^(s-1) vertically: shape (s*m, n)."""
    rows = []
    block = params.c
    for _ in range(require_int(s, "s", 1)):
        rows.append(block)
        block = block @ params.a
    return np.vstack(rows)


def controllability_matrix(params: LdsParams, s: int) -> np.ndarray:
    """Stack B, AB, ..., A^(s-1)B horizontally: shape (n, s*p)."""
    cols = []
    block = params.b
    for _ in range(require_int(s, "s", 1)):
        cols.append(block)
        block = params.a @ block
    return np.hstack(cols)


def markov_matrix(params: LdsParams, big_t: int) -> np.ndarray:
    """[D, CB, CAB, ..., CA^(T-1)B] with T = ``big_t``: shape (m, (T+1)*p)."""
    blocks = [params.d]
    apow_b = params.b  # A^(j-1) B for the next block
    for _ in range(require_int(big_t, "big_t", 0)):
        blocks.append(params.c @ apow_b)
        apow_b = params.a @ apow_b
    return np.hstack(blocks)


def joint_nondegeneracy_gamma(mix: MixtureSpec, s: int) -> float:
    """Largest gamma such that every unit combination of the per-component
    Markov matrices G_{i,s} has Frobenius norm >= gamma.

    Equals the smallest singular value of the matrix whose k columns are
    the flattened G_{i,s}, since ||sum_i c_i G_i||_F = ||K c||_2; it is 0
    when k exceeds the entries of G_{i,s}, as the columns are then dependent.
    """
    s = require_int(s, "s", 0)
    cols = [markov_matrix(comp, s).ravel() for comp in mix.components]
    sv = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    return float(sv[-1]) if len(sv) == mix.k else 0.0


def numerical_rank(sv: np.ndarray) -> int:
    """The number of singular values ``sv`` (in descending order) above
    RANK_RTOL times the largest: the rank every rank decision uses."""
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.sum(sv > RANK_RTOL * sv[0]))


def _spectral_norm(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat, 2))


def _rank_and_ratio(small: np.ndarray, big: np.ndarray, n: int):
    """(rank(small) == n, sigma_n(small), sigma_max(big) / sigma_n(small))."""
    sv = np.linalg.svd(small, compute_uv=False)
    sigma_n = sv[min(n, len(sv)) - 1]
    ratio = np.linalg.svd(big, compute_uv=False)[0] / sigma_n if sigma_n > 0 else np.inf
    return numerical_rank(sv) == n, sigma_n, ratio


@dataclass(frozen=True)
class WellBehavedReport:
    """Outcome of checking the mixture learnability assumptions.

    ``checks`` holds one boolean per assumption; ``measured`` the values
    the booleans were derived from.  A failing assumption is a report
    entry, never an exception.
    """

    kappa_bound: float
    gamma: float
    w_min: float
    obs_ratio: np.ndarray
    ctrl_ratio: np.ndarray
    checks: dict
    measured: dict
    diagnostics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def well_behaved_report(
    mix: MixtureSpec, s: int, kappa: float, w_min: float, gamma: float
) -> WellBehavedReport:
    """Check every learnability assumption of the mixture at parameter s.

    Assumptions checked (one pass/fail each):

    - ``weights``: every mixing weight >= w_min;
    - ``gain_lower``: spectral norms of each B_i and C_i are >= 1;
    - ``boundedness``: spectral norms of A_i, B_i, C_i, D_i are <= kappa;
    - ``observability``: O_{i,s} has rank n (O is sm-by-n, so rank n is
      full column rank) and sigma_max(O_{i,2s}) / sigma_min(O_{i,s}) <= kappa;
    - ``controllability``: Q_{i,s} has rank n (Q is n-by-sp, so rank n is
      full row rank) and sigma_max(Q_{i,2s}) / sigma_min(Q_{i,s}) <= kappa;
    - ``joint_nondegeneracy``: measured gamma at parameter s >= the
      requested gamma.

    ``diagnostics`` additionally records, per component, the singular
    value bounds sigma_min(O_{i,s}) <= sqrt(s)*kappa and
    sigma_min(Q_{i,s}) <= sqrt(s)*kappa, which hold whenever the
    assumptions do; they do not gate ``ok``.
    """
    s = require_int(s, "s", 1)
    m, n, p = require_mixture(mix).dims
    norms = {
        name: np.array([_spectral_norm(getattr(c, name)) for c in mix.components])
        for name in ("a", "b", "c", "d")
    }
    # O_s and Q_s are the leading blocks of O_2s and Q_2s
    obs_rank_ok, sigma_min_obs, obs_ratio = (np.array(v) for v in zip(*(
        _rank_and_ratio(o[: s * m], o, n)
        for o in (observability_matrix(c, 2 * s) for c in mix.components)
    )))
    ctrl_rank_ok, sigma_min_ctrl, ctrl_ratio = (np.array(v) for v in zip(*(
        _rank_and_ratio(q[:, : s * p], q, n)
        for q in (controllability_matrix(c, 2 * s) for c in mix.components)
    )))
    measured_gamma = joint_nondegeneracy_gamma(mix, s)
    checks = {
        "weights": bool(np.all(mix.weights >= w_min)),
        "gain_lower": bool(np.all(norms["b"] >= 1.0) and np.all(norms["c"] >= 1.0)),
        "boundedness": bool(all(np.all(v <= kappa) for v in norms.values())),
        "observability": bool(np.all(obs_rank_ok) and np.all(obs_ratio <= kappa)),
        "controllability": bool(np.all(ctrl_rank_ok) and np.all(ctrl_ratio <= kappa)),
        "joint_nondegeneracy": bool(measured_gamma >= gamma),
    }
    measured = {
        "weights": np.asarray(mix.weights).copy(),
        "norm_a": norms["a"],
        "norm_b": norms["b"],
        "norm_c": norms["c"],
        "norm_d": norms["d"],
        "obs_rank_ok": obs_rank_ok,
        "ctrl_rank_ok": ctrl_rank_ok,
        "gamma": measured_gamma,
    }
    bound = np.sqrt(s) * kappa
    diagnostics = {
        "sigma_min_obs": sigma_min_obs,
        "sigma_min_ctrl": sigma_min_ctrl,
        "sigma_min_bound": bound,
        "sigma_min_obs_ok": sigma_min_obs <= bound,
        "sigma_min_ctrl_ok": sigma_min_ctrl <= bound,
    }
    return WellBehavedReport(
        kappa_bound=kappa,
        gamma=measured_gamma,
        w_min=w_min,
        obs_ratio=obs_ratio,
        ctrl_ratio=ctrl_ratio,
        checks=checks,
        measured=measured,
        diagnostics=diagnostics,
    )


def random_lds(dims, rng: np.random.Generator) -> LdsParams:
    """Draw a random system with spectral radius <= SPECTRAL_RADIUS and
    ||B||, ||C|| scaled to GAIN (>= 1 keeps the mixture assumptions
    satisfiable).
    """
    m, n, p = dims
    a = rng.standard_normal((n, n))
    rho = max(np.abs(np.linalg.eigvals(a)))
    if rho > 0:
        a *= SPECTRAL_RADIUS / rho
    b = rng.standard_normal((n, p))
    b *= GAIN / _spectral_norm(b)
    c = rng.standard_normal((m, n))
    c *= GAIN / _spectral_norm(c)
    d = rng.standard_normal((m, p))
    return LdsParams(a=a, b=b, c=c, d=d)


def random_mixture(
    k: int,
    dims,
    rng: np.random.Generator,
    weights: Optional[Sequence[float]] = None,
    min_gamma: float = 0.0,
    s: int = 2,
) -> MixtureSpec:
    """Draw a random mixture, resampling up to MAX_TRIES times until gamma
    at parameter s reaches ``min_gamma``.  Gamma is 0 when k exceeds the
    (s+1)mp entries of G_{i,s}, so a positive ``min_gamma`` then raises at
    once."""
    k, s = require_int(k, "k", 1), require_int(s, "s", 0)
    m, _, p = dims
    if min_gamma > 0 and k > (s + 1) * m * p:
        raise DataError(
            f"k={k} components cannot reach joint non-degeneracy gamma >= {min_gamma}: "
            f"G_(i,s) has only (s+1)mp = {(s + 1) * m * p} entries, so gamma is 0"
        )
    if weights is None:
        w = rng.uniform(0.5, 1.5, size=k)
        w /= w.sum()
    else:
        w = np.asarray(weights, dtype=float)
    for _ in range(MAX_TRIES):
        comps = tuple(random_lds(dims, rng) for _ in range(k))
        mix = MixtureSpec(components=comps, weights=w)
        if joint_nondegeneracy_gamma(mix, s) >= min_gamma:
            return mix
    raise DataError(
        f"could not reach joint non-degeneracy gamma >= {min_gamma} "
        f"in {MAX_TRIES} draws"
    )
