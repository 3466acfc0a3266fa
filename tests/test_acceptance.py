"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Each criterion checks its stated tolerances and runtime
budget.
"""
import json
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import ldslab as L
import oracles
from ldslab.io import save_dataset, save_mixture
from ldslab.tensor import truncated_pinv

from test_lds import normal_dynamics_system


def _report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"\n[criterion {num}] {status}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s"


def scalar_params(a, b=1.0, c=1.0, d=0.0):
    return L.LdsParams(a=[[a]], b=[[b]], c=[[c]], d=[[d]])


def test_criterion_1_simulation_oracle():
    """Simulated outputs equal the unrolled closed form on shared draws."""
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(50_000 + trial)
        dims = tuple(int(rng.integers(1, 4)) for _ in range(3))
        params = L.random_lds(dims, rng)
        length = int(rng.integers(1, 31))
        x0, u, w, z = L.draw_lds_noise(dims, length, 1.0, L.substream(trial, 0))
        traj = oracles.simulate_from_noise(params, x0, u, w, z)
        for t in range(length):
            ref = oracles.closed_form_observation(params, t, u, w, z, x0)
            worst = max(worst, float(np.max(np.abs(traj.y[t] - ref))))
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-12, f"max |sim - closed form| = {worst:.2e} over 100 systems",
            elapsed, 10.0)


def test_criterion_2_moment_unbiasedness():
    """Every sixth-moment block within 5 standard errors at N=1e5; the
    aggregate error halves (within 30%) when N quadruples."""
    t0 = time.perf_counter()
    seed = 2026
    rng = np.random.default_rng(seed)
    mix = L.random_mixture(2, (2, 2, 2), rng, min_gamma=0.3, s=2)
    assert L.well_behaved_report(mix, 2, kappa=10.0, w_min=0.2, gamma=0.3).ok
    exact = oracles.exact_moment_tensor(mix, 2)

    ds_large = L.sample_mixture_dataset(mix, 100_000, 18, L.NoiseConfig(seed=seed + 1))
    est_large = L.MomentTensor6.estimate(ds_large, 2)
    se_large = oracles.sixth_moment_se(ds_large, 2)
    z_max = float(
        np.max(np.abs(est_large.blocks - exact.blocks) / np.maximum(se_large, 1e-30))
    )

    ds_small = L.sample_mixture_dataset(mix, 25_000, 18, L.NoiseConfig(seed=seed + 2))
    est_small = L.MomentTensor6.estimate(ds_small, 2)
    ratio = float(
        np.linalg.norm(est_small.blocks - exact.blocks)
        / np.linalg.norm(est_large.blocks - exact.blocks)
    )
    elapsed = time.perf_counter() - t0
    ok = z_max <= 5.0 and 1.4 <= ratio <= 2.6
    _report(2, ok, f"max block z-score = {z_max:.2f} (<=5), N-quadrupling error "
            f"ratio = {ratio:.2f} (in [1.4, 2.6])", elapsed, 300.0)


def _random_factors(q, r, rng, smin=0.1, tries=200):
    for _ in range(tries):
        f = rng.standard_normal((q, r))
        f /= np.linalg.norm(f, axis=0)
        if np.linalg.svd(f, compute_uv=False)[-1] >= smin:
            return f
    raise RuntimeError("factor sampling failed")


def _matched_error(true_terms, factors):
    f1, f2, f3 = factors
    est = [np.einsum("i,j,k->ijk", f1[:, i], f2[:, i], f3[:, i]) for i in range(f1.shape[1])]
    cost = np.array([[np.linalg.norm(t - e) for e in est] for t in true_terms])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def test_criterion_3_jennrich():
    """Exact rank-r recovery in >= 95/100 runs; 1e-6 entrywise noise
    keeps component error <= 1e-3 in >= 90/100 runs."""
    t0 = time.perf_counter()
    exact_ok = robust_ok = 0
    for trial in range(100):
        rng = np.random.default_rng(60_000 + trial)
        q = int(rng.integers(3, 31))
        r = int(rng.integers(1, min(q, 10) + 1))
        x, y, z = (_random_factors(q, r, rng) for _ in range(3))
        sig = rng.uniform(0.5, 2.0, size=r)
        tensor = np.einsum("ir,jr,kr,r->ijk", x, y, z, sig)
        truth = [
            sig[i] * np.einsum("i,j,k->ijk", x[:, i], y[:, i], z[:, i])
            for i in range(r)
        ]
        try:
            factors, _ = L.jennrich_decompose(tensor, r, np.random.default_rng(61_000 + trial))
            if _matched_error(truth, factors) <= 1e-6:
                exact_ok += 1
        except L.LdsLabError:
            pass
        noisy = tensor + rng.standard_normal(tensor.shape) * 1e-6
        try:
            factors, _ = L.jennrich_decompose(noisy, r, np.random.default_rng(62_000 + trial))
            if _matched_error(truth, factors) <= 1e-3:
                robust_ok += 1
        except L.LdsLabError:
            pass
    elapsed = time.perf_counter() - t0
    ok = exact_ok >= 95 and robust_ok >= 90
    _report(3, ok, f"exact {exact_ok}/100 (>=95), robust {robust_ok}/100 (>=90)",
            elapsed, 120.0)


def test_criterion_4_ho_kalman():
    """Exact realization and eigenvalue recovery on 100 systems, plus the
    5*sqrt(n*delta) stability bound for injected perturbations."""
    t0 = time.perf_counter()
    resid_ok = eig_ok = bound_ok = 0
    for trial in range(100):
        rng = np.random.default_rng(70_000 + trial)
        m, n, p = (int(rng.integers(1, 4)) for _ in range(3))
        s = max(2, n)
        params = None
        while params is None:
            cand = L.random_lds((m, n, p), rng)
            if (np.linalg.matrix_rank(L.observability_matrix(cand, s), tol=1e-8) == n
                    and np.linalg.matrix_rank(L.controllability_matrix(cand, s), tol=1e-8) == n):
                params = cand
        g = L.markov_matrix(params, 2 * s)
        est = L.ho_kalman(g, s, n)
        if L.realization_residual(g, est, s) <= 1e-8:
            resid_ok += 1
        ev_t = np.sort_complex(np.linalg.eigvals(params.a))
        ev_e = np.sort_complex(np.linalg.eigvals(est.a))
        if np.max(np.abs(ev_t - ev_e)) <= 1e-6:
            eig_ok += 1
        good = True
        for delta in (1e-6, 1e-4):
            noise = rng.standard_normal(g.shape)
            noise *= delta / np.linalg.norm(noise, "fro")
            est2 = L.ho_kalman(g + noise, s, n)
            u_mat = truncated_pinv(L.observability_matrix(est2, s)) @ L.observability_matrix(params, s)
            c_err = np.linalg.norm(params.c - est2.c @ u_mat, "fro")
            b_err = np.linalg.norm(params.b - np.linalg.inv(u_mat) @ est2.b, "fro")
            if max(c_err, b_err) > 5 * np.sqrt(n * delta):
                good = False
        if good:
            bound_ok += 1
    elapsed = time.perf_counter() - t0
    ok = resid_ok == 100 and eig_ok == 100 and bound_ok == 100
    _report(4, ok, f"residual {resid_ok}/100, eigenvalues {eig_ok}/100, "
            f"stability bound {bound_ok}/100", elapsed, 60.0)


def test_criterion_5_oracle_pipeline():
    """Exact moments through the full pipeline: aligned error <= 1e-6 and
    weight error <= 1e-8 in >= 90% of 50 seeds."""
    t0 = time.perf_counter()
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(80_000 + seed)
        k = int(rng.integers(1, 4))
        mix = L.random_mixture(k, (2, 2, 2), rng, min_gamma=0.3, s=2)
        flat, rhat = oracles.exact_moments(mix, 2)
        try:
            learned = L.learn_mixture_from_moments(
                flat, rhat, k, 2, 2, np.random.default_rng(81_000 + seed)
            )
            rep = L.align_similarity(mix, learned, 2)
            if rep.max_param_error <= 1e-6 and rep.max_weight_error <= 1e-8:
                hits += 1
        except L.LdsLabError:
            pass
    elapsed = time.perf_counter() - t0
    _report(5, hits >= 45, f"oracle recovery in {hits}/50 seeds (>=45)", elapsed, 120.0)


@pytest.fixture(scope="module")
def criterion6_runs(benchmark_mixture):
    """Learn the committed benchmark mixture at N in {2e4, 2e5}."""
    mix = benchmark_mixture
    results = {}
    t0 = time.perf_counter()
    for n_traj in (20_000, 200_000):
        ds = L.sample_mixture_dataset(mix, n_traj, 18, L.NoiseConfig(seed=42))
        learned = L.learn_mixture(ds, 2, 2, 2, np.random.default_rng(43))
        results[n_traj] = L.align_similarity(mix, learned, 2), learned
    results["elapsed"] = time.perf_counter() - t0
    return results


def test_criterion_6_end_to_end(benchmark_mixture, criterion6_runs):
    """Committed k=2 benchmark at N=2e5: aligned error <= 0.15, weight
    error <= 0.05, and errors strictly decreasing over the N-sweep."""
    gamma = L.joint_nondegeneracy_gamma(benchmark_mixture, 2)
    rep_small, _ = criterion6_runs[20_000]
    rep_large, learned_large = criterion6_runs[200_000]
    elapsed = criterion6_runs["elapsed"]
    raw_sum = learned_large.diagnostics["raw_weight_sum"]
    ok = (
        gamma >= 0.5
        and rep_large.max_param_error <= 0.15
        and rep_large.max_weight_error <= 0.05
        and rep_small.max_error > rep_large.max_error
    )
    _report(6, ok,
            f"gamma={gamma:.2f} (>=0.5); N=2e5 param err "
            f"{rep_large.max_param_error:.3f} (<=0.15), weight err "
            f"{rep_large.max_weight_error:.4f} (<=0.05); sweep errors "
            f"{rep_small.max_error:.3f} -> {rep_large.max_error:.3f} decreasing; "
            f"raw weight sum {raw_sum:.3f} (diagnostic)",
            elapsed, 900.0)


def test_criterion_7_clustering():
    """Scalar fully observed pair A=+-0.9: exact posterior classifies
    >= 99% of 1000 trajectories; the posterior from parameters learned at
    N=2e5 stays within TV 0.05 on >= 95%; the two likelihood paths agree
    to 1e-8."""
    t0 = time.perf_counter()
    mix = L.MixtureSpec(
        components=(scalar_params(0.9, d=1.0), scalar_params(-0.9, d=-1.0)),
        weights=[0.5, 0.5],
    )
    ds = L.sample_mixture_dataset(mix, 200_000, 18, L.NoiseConfig(seed=42))
    learned = L.learn_mixture(ds, 2, 1, 2, np.random.default_rng(43))
    rep = L.align_similarity(mix, learned, 2)
    normalized = L.MixtureSpec(
        components=tuple(oracles.normalize_fully_observed(c) for c in learned.components),
        weights=learned.weights / learned.weights.sum(),
    )

    eval_ds = L.sample_mixture_dataset(mix, 1000, 18, L.NoiseConfig(seed=777))
    correct = 0
    tv_ok = 0
    loglik_gap = 0.0
    posts_true = L.cluster_dataset(mix, eval_ds)
    posts_learn = L.cluster_dataset(normalized, eval_ds)
    for post_true, post_learn, label in zip(posts_true, posts_learn, eval_ds.labels):
        correct += int(post_true.argmax == label)
        permuted = np.zeros(2)
        for j in range(2):
            permuted[rep.permutation[j]] = post_learn.probabilities[j]
        tv = 0.5 * float(np.abs(permuted - post_true.probabilities).sum())
        tv_ok += int(tv <= 0.05)
    for seed in range(20):
        rng = np.random.default_rng(90_000 + seed)
        params = L.random_lds(tuple(int(rng.integers(1, 4)) for _ in range(3)), rng)
        traj = oracles.simulate_trajectory(params, 10, 1.0, L.substream(seed, 2))
        batched = L.component_log_likelihood(params, traj)
        gap = max(abs(batched - L.kalman_log_likelihood(params, traj)),
                  abs(batched - oracles.dense_log_likelihood(params, traj)))
        loglik_gap = max(loglik_gap, gap)
    elapsed = time.perf_counter() - t0
    ok = correct >= 990 and tv_ok >= 950 and loglik_gap <= 1e-8
    _report(7, ok, f"accuracy {correct}/1000 (>=990), TV<=0.05 on {tv_ok}/1000 "
            f"(>=950), likelihood-path gap {loglik_gap:.2e} (<=1e-8)",
            elapsed, 300.0)


def test_criterion_8_diagnostics():
    """Duplicated components measure gamma = 0; the singular-value and
    power-norm bounds hold on 100 random systems passing the report."""
    t0 = time.perf_counter()
    params = scalar_params(0.5, d=1.0)
    dup = L.MixtureSpec(components=(params, params), weights=[0.5, 0.5])
    dup_report = L.well_behaved_report(dup, 2, kappa=10.0, w_min=0.1, gamma=0.1)
    gamma_zero = dup_report.gamma <= 1e-12 and not dup_report.checks["joint_nondegeneracy"]

    s, kappa = 2, 10.0
    passing = 0
    claims_ok = True
    rng = np.random.default_rng(95_000)
    while passing < 100:
        system = normal_dynamics_system(rng)
        mix = L.MixtureSpec(components=(system,), weights=[1.0])
        report = L.well_behaved_report(mix, s, kappa=kappa, w_min=0.5, gamma=1e-6)
        if not report.ok:
            continue
        passing += 1
        if not (np.all(report.diagnostics["sigma_min_obs_ok"])
                and np.all(report.diagnostics["sigma_min_ctrl_ok"])):
            claims_ok = False
        for t in range(1, 6 * s + 1):
            if not oracles.power_norm_check(system, s, kappa, t):
                claims_ok = False
    elapsed = time.perf_counter() - t0
    ok = gamma_zero and claims_ok
    _report(8, ok, f"duplicate gamma = {dup_report.gamma:.1e} (=0); singular-value "
            f"and power bounds hold on 100/100 report-passing systems",
            elapsed, 60.0)


def test_criterion_9_reproducibility(tmp_path):
    """Three cmd_learn runs in fresh interpreters with the same config and
    seed write byte-identical model files."""
    t0 = time.perf_counter()
    mix = L.MixtureSpec(
        components=(scalar_params(0.9, d=1.0), scalar_params(-0.9, d=-1.0)),
        weights=[0.5, 0.5],
    )
    truth = tmp_path / "truth.json"
    save_mixture(truth, mix)
    ds_path = tmp_path / "ds.jsonl"
    save_dataset(ds_path, L.sample_mixture_dataset(mix, 2000, 18, L.NoiseConfig(seed=3)))
    blobs = []
    for run in "abc":
        model = tmp_path / f"model_{run}.json"
        result = subprocess.run(
            [sys.executable, "-m", "ldslab.cli", "learn", "--data", str(ds_path),
             "--k", "2", "--n", "1", "--s", "2", "--seed", "9", "--out", str(model)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        blobs.append(model.read_bytes())
    elapsed = time.perf_counter() - t0
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(9, ok, "three cmd_learn runs produced byte-identical model files",
            elapsed, 120.0)
