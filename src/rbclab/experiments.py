"""Config-driven experiments with CSV + JSON emission.

Every experiment follows one pattern: the realization index i is mapped to
seeds through sub_seed(master_seed, .), work is split over fixed-size index
spans, and spans are merged in index order.  Each span is one library draw
at seed_offset = the span's first index, the same call a single process
makes for a slice of the realizations, so row values are pure functions of
(config, master_seed, index) and the CSV is byte-identical at any worker
count; the JSON summary carries wall time and is compared modulo that
field.

CSV format: '#' comment block documenting every column (units and sign
conventions), one header row, then data rows.  Floats are written with
repr (shortest round-trip), so files parse back to the exact values.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
from functools import partial

import numpy as np
import scipy

from . import __version__, boundary, rng
from .config import resolve_config, resolve_sequence
from .exact import expectation, gibbs_table, log_partition_function
from .metastate import (NullRecurrenceRecord, csd_flip_statistics,
                        histogram_from_w, lambda_w_samples)
from .models import (BoundaryCondition, DisorderRealization, ModelSpec,
                     SpinConfiguration, Volume, finite_volume_energy,
                     gauge_boundary, gauge_partner, gauge_transform)
from .montecarlo import metropolis_run, oracle_z_scores, recommended_sweeps

# Span sizes are fixed constants, not derived from the worker count, so
# the span list (and with it every row) is identical however many workers
# execute it. An oracle-vs-mc trial is a whole chain, and oracle_trial_plan
# gives chains of very different lengths (up to 8M proposals), so each
# trial is its own task.
_CHUNK = {"scaling": 250, "window": 500, "metastate": 250,
          "metastate_exact": 25, "csd": 25, "gauge-check": 25,
          "oracle-vs-mc": 1}


# ---------------------------------------------------------------------------
# plumbing


# exact types whose text is their own repr (str for str): float64 is a float
# subclass, and bool, not an exact int, keeps its "1"/"0" below
_FMT_EXACT = {float: float.__repr__, np.float64: float.__repr__,
              int: int.__repr__, str: str}


def _fmt(x) -> str:
    fmt = _FMT_EXACT.get(type(x))
    if fmt is not None:
        return fmt(x)
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path: str, comments, header, rows):
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    return x


def _map_tasks(worker, tasks, workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with multiprocessing.Pool(min(workers, len(tasks))) as pool:
        # tasks are already fixed-size chunks; the pool's own batching
        # would put neighbouring (often equally heavy) tasks on one worker
        return pool.map(worker, tasks, chunksize=1)


def _span(draw, n: int, size: int, lo: int):
    return draw(min(size, n - lo), seed_offset=lo)


def _map_spans(draw, n: int, size: int, workers: int) -> list:
    """draw(count, seed_offset=lo) over the spans [lo, lo + size) of range(n),
    in index order."""
    return _map_tasks(partial(_span, draw, n, size), range(0, n, size), workers)


def _family_spec(family: str, beta: float, alpha: float | None) -> ModelSpec:
    if family == "dyson":
        return ModelSpec.dyson(alpha, beta=beta)
    if family == "nn_ising":
        return ModelSpec.nn_ising(1, beta=beta)
    if family == "mattis":
        return ModelSpec.mattis(beta=beta)
    if family == "rfim":
        return ModelSpec.rfim(0.5, beta=beta)
    return ModelSpec.ea(beta=beta)


# ---------------------------------------------------------------------------
# scaling


def _run_scaling(cfg):
    sizes = list(cfg["sizes"])
    n_seeds = cfg["n_seeds"]
    draw = partial(boundary.batch_family_W, cfg["family"], cfg["alpha"], sizes,
                   cfg["master_seed"])
    w = np.vstack(_map_spans(draw, n_seeds, _CHUNK["scaling"], cfg["workers"]))

    samples = {n: w[:, k] for k, n in enumerate(sizes)}
    fit = boundary.scaling_fit(samples, statistic=cfg["statistic"],
                               min_span=boundary.FIT_SPAN[cfg["family"]])
    if cfg["family"] == "dyson":
        exact_std = boundary.w_plus_exact_std(cfg["alpha"], sizes)
        zeta_std = boundary.w_plus_exact_std(cfg["alpha"], sizes, method="zeta")
        crosscheck = float(np.abs(exact_std / zeta_std - 1.0).max())
        closed_form_check = None
    else:
        exact_std = np.array([boundary.nn2d_gap_exact_std(int(n)) for n in sizes])
        closed = 2.0 * np.sqrt(4.0 * np.asarray(sizes, dtype=np.float64))
        closed_form_check = float(np.abs(exact_std / closed - 1.0).max())
        crosscheck = None
    ex_slope, ex_inter, ex_stderr = boundary.fit_loglog(sizes, exact_std)

    rows = [(n, i, w[i, k]) for k, n in enumerate(sizes) for i in range(n_seeds)]
    comments = [
        "scaling experiment: boundary-energy samples per (size, realization)",
        "size: volume size N (dyson: interior sites, window N per side; "
        "nn2d: box side length)",
        "seed_index: realization index i; the disorder seed is "
        "sub_seed(master_seed, i)",
        "w: boundary energy (dyson: half-line W = sum eta_d zeta(alpha,d), "
        "dimensionless; nn2d: ground-state gap E(+) - E(-) = -2 sum eta, "
        "units of the coupling J=1); positive favours the plus state",
    ]
    results = {
        "sampled_exponent": fit.exponent,
        "sampled_exponent_stderr": fit.stderr,
        "sampled_intercept": fit.intercept,
        "statistic": fit.statistic,
        "statistic_values": list(fit.statistic_values),
        "exact_exponent": ex_slope,
        "exact_exponent_stderr": ex_stderr,
        "exact_intercept": ex_inter,
        "exact_std": exact_std,
        "sizes": sizes,
        "tail_vs_zeta_max_rel_diff": crosscheck,
        "closed_form_max_rel_diff": closed_form_check,
    }
    return comments, ("size", "seed_index", "w"), rows, results


# ---------------------------------------------------------------------------
# window probabilities


def _count_inside(draw, thresholds, slacks, count: int, seed_offset: int):
    return boundary.count_inside(draw(count, seed_offset=seed_offset),
                                 thresholds, slacks)


def _run_window(cfg):
    sizes = (list(resolve_sequence(cfg["sequence"]).terms) if cfg["sequence"]
             else list(cfg["sizes"]))
    n_seeds = cfg["n_seeds"]
    delta = cfg["delta"]
    out_of_regime = delta is not None and not (0.0 < delta < 0.5)
    thresholds = ([float(n) ** delta for n in sizes] if delta is not None
                  else [float(cfg["threshold"])] * len(sizes))
    slacks = [boundary.window_slack(cfg["family"], cfg["alpha"], n) for n in sizes]

    # each span is counted where it is drawn, so no process holds every W
    draw = partial(boundary.batch_family_W, cfg["family"], cfg["alpha"], sizes,
                   cfg["master_seed"])
    counts = np.sum(_map_spans(partial(_count_inside, draw, thresholds, slacks),
                               n_seeds, _CHUNK["window"], cfg["workers"]),
                    axis=0)
    rec = NullRecurrenceRecord.from_counts(counts, n_seeds)

    rows = [(k + 1, n, thresholds[k], slacks[k], int(counts[k]), n_seeds,
             rec.p_hat[k], rec.ci_low[k], rec.ci_high[k], rec.running_sums[k])
            for k, n in enumerate(sizes)]
    comments = [
        "window experiment: per-size probability of a small boundary energy",
        "k: position in the size list (1-based)",
        "size: volume size N (dyson: window length; nn2d: box side)",
        "threshold: window half-width c; the event is |W| <= c "
        + ("(c = N^delta)" if delta is not None else "(fixed c)"),
        "slack: certified numerical error added to the threshold; values "
        "within slack of the edge count as inside (conservative, deterministic)",
        "n_inside, n_seeds: raw counts behind p_hat = n_inside / n_seeds",
        "p_hat, ci_low, ci_high: estimate with 95% Wilson interval",
        "running_sum: p_hat summed over sizes so far (Borel-Cantelli diagnostic)",
    ]
    results = {
        "sizes": sizes,
        "thresholds": thresholds,
        "p_hat": rec.p_hat,
        "running_sums": rec.running_sums,
        "last_term_fraction": rec.last_term_fraction,
        "growth_last_half": rec.growth_last_half,
        "delta": delta,
        "out_of_regime": out_of_regime,
        "sequence": ((dict(cfg["sequence"]) | {"terms": sizes})
                     if cfg["sequence"] else None),
    }
    header = ("k", "size", "threshold", "slack", "n_inside", "n_seeds",
              "p_hat", "ci_low", "ci_high", "running_sum")
    return comments, header, rows, results


# ---------------------------------------------------------------------------
# metastate


def _run_metastate(cfg):
    seq = resolve_sequence(cfg["sequence"]) if cfg["sequence"] else None
    sizes = list(seq.terms) if seq else [cfg["size"]]
    n_seeds = cfg["n_seeds"]
    chunk = _CHUNK["metastate_exact" if cfg["mode"] == "exact_gibbs_fit"
                   else "metastate"]
    draw = partial(lambda_w_samples,
                   _family_spec(cfg["family"], cfg["beta"], cfg["alpha"]),
                   sizes, master_seed=cfg["master_seed"], mode=cfg["mode"],
                   beta=cfg["beta"], flip_disorder=cfg["flip_disorder"],
                   interaction_seed=cfg["interaction_seed"],
                   window=cfg["window"])
    # each span's draw is size-major; lay the spans side by side
    w = np.concatenate([part.reshape(len(sizes), -1) for part in
                        _map_spans(draw, n_seeds, chunk, cfg["workers"])],
                       axis=1)                 # (K sizes, n_seeds)

    hist = histogram_from_w(w.reshape(-1), cfg["beta"], "lambda", sizes,
                            cfg["alpha"], cfg["mode"], n_seeds)
    lam = hist.values.reshape(w.shape)
    rows = [(cfg["alpha"] if cfg["alpha"] is not None else "", cfg["beta"],
             n, i, lam[k, i])
            for k, n in enumerate(sizes) for i in range(n_seeds)]
    comments = [
        "metastate experiment: two-state weight lambda per disorder realization",
        "alpha: power-kernel exponent (blank for nn kernels)",
        "beta: inverse temperature used in lambda = (1 + tanh(beta W)) / 2",
        "N: interval length (interior sites); boundary window is 10N per "
        "side unless the config overrides it",
        "seed_index: realization index i; boundary streams come from "
        "sub_seed(master_seed, i)",
        f"lambda: plus-phase weight in [0,1], mode {cfg['mode']}"
        + (" (fit of the exact Gibbs table against the plus/minus tables)"
           if cfg["mode"] == "exact_gibbs_fit" else
           " (interval boundary energy through the two-well weight)"),
    ]
    results = {
        "mean": hist.mean,
        "variance": hist.variance,
        "endpoint_low_mass": hist.endpoint_low_mass,
        "endpoint_high_mass": hist.endpoint_high_mass,
        "endpoint_mass": hist.endpoint_mass,
        "interior_mass": hist.interior_mass,
        "histogram_counts": hist.counts,
        "bin_edges_start_stop_count": [0.0, 1.0, len(hist.counts) + 1],
        "sizes": sizes,
        "mode": cfg["mode"],
        "flip_disorder": cfg["flip_disorder"],
    }
    header = ("alpha", "beta", "N", "seed_index", "lambda")
    return comments, header, rows, results


# ---------------------------------------------------------------------------
# chaotic size dependence


def _run_csd(cfg):
    seq = resolve_sequence(cfg["sequence"])
    n_seeds = cfg["n_seeds"]
    draw = partial(csd_flip_statistics, ModelSpec.dyson(cfg["alpha"]), seq,
                   cfg["master_seed"], boundary=cfg["boundary"])
    recs = _map_spans(draw, n_seeds, _CHUNK["csd"], cfg["workers"])
    w = np.vstack([r.w for r in recs])
    signs = np.vstack([r.signs for r in recs])
    flips = np.concatenate([r.flip_counts for r in recs])
    longest = np.concatenate([r.longest_runs for r in recs])

    rows = [(i, k + 1, n, w[i, k], int(signs[i, k]))
            for i in range(n_seeds) for k, n in enumerate(seq.terms)]
    comments = [
        "csd experiment: sign of the half-line boundary energy along a "
        "volume sequence",
        "seed_index: realization index i (one eta stream per seed; every "
        "size reads a prefix of the same stream)",
        "k: position in the sequence (1-based); size: N_k",
        "w: half-line boundary energy W_{N_k} = sum_{d<=N_k} eta_d "
        "zeta(alpha,d), dimensionless; positive favours the plus state",
        "sign: sign(w) in {-1, 0, +1}; a flip is consecutive k with "
        "different sign",
    ]
    results = {
        "sequence_kind": seq.kind,
        "sequence_terms": list(seq.terms),
        "boundary": cfg["boundary"],
        "mean_flip_count": float(flips.mean()),
        "max_flip_count": int(flips.max()),
        "zero_flip_fraction": float((flips == 0).mean()),
        "flip_count_histogram": np.bincount(flips),
        "mean_longest_run": float(longest.mean()),
    }
    header = ("seed_index", "k", "size", "w", "sign")
    return comments, header, rows, results


# ---------------------------------------------------------------------------
# gauge check


def _gauge_rows(cfg, count: int, seed_offset: int) -> list:
    spec = ModelSpec.mattis(kernel=cfg["kernel"], beta=cfg["beta"],
                            alpha=cfg["alpha"], dimension=cfg["dimension"])
    partner = gauge_partner(spec)
    volume = (Volume.interval(cfg["size"]) if cfg["dimension"] == 1
              else Volume.box(cfg["size"]))
    master = cfg["master_seed"]
    rows = []
    for i in range(seed_offset, seed_offset + count):
        eta = DisorderRealization(rng.sub_seed(master, 3 * i))
        bc = BoundaryCondition.random(rng.sub_seed(master, 3 * i + 1))
        sigma = SpinConfiguration.random(volume, rng.sub_seed(master, 3 * i + 2))
        bc_gauged = gauge_boundary(spec, volume, bc, eta)
        e_mattis = finite_volume_energy(spec, sigma, bc, eta)
        e_ferro = finite_volume_energy(partner, gauge_transform(sigma, eta),
                                       bc_gauged)
        logz_mattis = log_partition_function(spec, volume, bc, eta)
        logz_ferro = log_partition_function(partner, volume, bc_gauged)
        e_rel = abs(e_mattis - e_ferro) / max(abs(e_mattis), 1.0)
        z_rel = abs(np.expm1(logz_ferro - logz_mattis))
        rows.append((i, e_mattis, e_ferro, e_rel, logz_mattis, logz_ferro,
                     z_rel, e_rel <= 1e-10 and z_rel <= 1e-10))
    return rows


def _run_gauge(cfg):
    n_seeds = cfg["n_seeds"]
    rows = [r for part in _map_spans(partial(_gauge_rows, cfg), n_seeds,
                                     _CHUNK["gauge-check"], cfg["workers"])
            for r in part]
    n_pass = sum(int(r[-1]) for r in rows)
    comments = [
        "gauge-check experiment: site-disorder model vs gauged ferromagnet",
        "seed_index: trial index i; eta, boundary and spins use "
        "sub_seed(master_seed, 3i), 3i+1, 3i+2",
        "e_mattis, e_ferro: energies of (sigma, b) and (eta*sigma, eta*b) "
        "in units of the kernel coupling; equal by the gauge identity",
        "e_rel_diff: |e_mattis - e_ferro| / max(|e_mattis|, 1)",
        "logz_mattis, logz_ferro: log partition functions at beta "
        f"{cfg['beta']}; z_rel_diff = |exp(logz_ferro - logz_mattis) - 1|",
        "pass: 1 when both relative differences are <= 1e-10",
    ]
    results = {
        "n_pass": n_pass,
        "n_trials": n_seeds,
        "max_energy_rel_diff": max(r[3] for r in rows),
        "max_z_rel_diff": max(r[6] for r in rows),
    }
    header = ("seed_index", "e_mattis", "e_ferro", "e_rel_diff",
              "logz_mattis", "logz_ferro", "z_rel_diff", "pass")
    return comments, header, rows, results


# ---------------------------------------------------------------------------
# oracle vs monte carlo


def oracle_trial_plan(spec: ModelSpec, size: int,
                      base_sweeps: int | None = None) -> tuple[int, int, int]:
    """Interval length, sweep count and thinning for one oracle trial.

    Nearest-neighbour kernels keep zero-cost domain-wall moves at any beta,
    so the base budget samples them well. The power-law kernel couples every
    pair: single-flip barriers grow with the coupling sum and with beta, and
    the two wells of a mixed random boundary stop exchanging. Moderate
    coupling (beta around 1) just needs a larger budget, thinned so batch
    means stay near-independent across well crossings; strong coupling
    (beta >= 1.5) also shrinks the interval so the barrier stays crossable.
    The comparison against the exact table is unchanged in every regime.
    """
    if base_sweeps is None:
        base_sweeps = recommended_sweeps(spec.beta)
    if spec.long_range and spec.beta >= 1.5:
        return min(size, 4), 2_000_000, 100
    if spec.long_range and spec.beta >= 0.75:
        return size, max(base_sweeps, 400_000), 20
    return size, base_sweeps, 1


def _oracle_rows(cfg, count: int, seed_offset: int) -> list:
    """Trials [seed_offset, seed_offset + count) in the order families, then
    betas, then seeds: trial t has family families[t // (B S)] and beta
    betas[(t // S) % B] for B betas and S seeds."""
    master = cfg["master_seed"]
    per_beta = cfg["n_seeds"]
    per_family = len(cfg["betas"]) * per_beta
    rows = []
    for t in range(seed_offset, seed_offset + count):
        family = cfg["families"][t // per_family]
        beta = float(cfg["betas"][(t // per_beta) % len(cfg["betas"])])
        spec = _family_spec(family, beta, cfg["alpha"])
        size, sweeps, thin = oracle_trial_plan(spec, cfg["size"],
                                               cfg["n_sweeps"])
        volume = Volume.interval(size)
        needs = spec.needs_site_disorder or spec.needs_bond_disorder
        dis = DisorderRealization(rng.sub_seed(master, 3 * t)) if needs else None
        bc = BoundaryCondition.random(rng.sub_seed(master, 3 * t + 1))
        chain = rng.sub_seed(master, 3 * t + 2)
        table = gibbs_table(spec, volume, bc, dis)
        m_exact = expectation(table, "magnetization")
        e_exact = expectation(table, "energy")
        run = metropolis_run(spec, volume, bc, dis, chain_seed=chain,
                             n_sweeps=sweeps, thin=thin)
        zm, ze = oracle_z_scores(
            run, m_exact, e_exact,
            energy_swing=float(table.energies.max() - table.energies.min()))
        rows.append((t, family, beta, size, sweeps, thin, m_exact,
                     run.magnetization_mean, run.magnetization_stderr, zm,
                     e_exact, run.energy_mean, run.energy_stderr, ze,
                     run.acceptance_rate, run.max_field_drift, zm <= 3.0))
    return rows


def _run_oracle(cfg):
    n_trials = len(cfg["families"]) * len(cfg["betas"]) * cfg["n_seeds"]
    rows = [r for part in _map_spans(partial(_oracle_rows, cfg), n_trials,
                                     _CHUNK["oracle-vs-mc"], cfg["workers"])
            for r in part]

    per_cell = {}
    for r in rows:
        key = f"{r[1]}:beta={r[2]}"
        hit, tot = per_cell.get(key, (0, 0))
        per_cell[key] = (hit + int(r[-1]), tot + 1)
    comments = [
        "oracle-vs-mc experiment: Metropolis estimates against exact "
        "enumeration, one chain per trial",
        f"trial: global index; disorder, boundary, chain seeds are "
        f"sub_seed(master_seed, 3t), 3t+1, 3t+2; random boundary",
        "family, beta: model family and inverse temperature",
        f"size, sweeps, thin: per-trial schedule from oracle_trial_plan "
        f"(base: {cfg['size']} sites, "
        f"{cfg['n_sweeps'] if cfg['n_sweeps'] else 'per-beta default'} "
        f"sweeps); power-law kernels get a larger, thinned budget near "
        f"beta 1 and a shorter interval at beta >= 1.5 so single-flip "
        f"chains stay ergodic",
        "m_exact, m_mc, m_stderr: mean spin (dimensionless, in [-1,1]) "
        "exact vs chain mean with batch-means standard error",
        "z_m: |m_mc - m_exact| / m_stderr; a frozen chain (stderr 0) is "
        "scored by the zero-count test sqrt(n_samples * diff / swing)",
        "e_exact, e_mc, e_stderr, z_e: same for the total energy "
        "(units of the coupling)",
        "acceptance: accepted fraction of proposed single-spin flips",
        "max_field_drift: worst incremental-field error caught at "
        "recompute checkpoints (should be ~1e-12 or below)",
        "pass: 1 when z_m <= 3",
    ]
    results = {
        "n_pass": sum(int(r[-1]) for r in rows),
        "n_trials": len(rows),
        "pass_fraction": sum(int(r[-1]) for r in rows) / len(rows),
        "per_cell_pass": {k: f"{h}/{n}" for k, (h, n) in sorted(per_cell.items())},
        "worst_z_m": max(r[9] for r in rows),
        "max_field_drift": max(r[15] for r in rows),
    }
    header = ("trial", "family", "beta", "size", "sweeps", "thin",
              "m_exact", "m_mc", "m_stderr", "z_m",
              "e_exact", "e_mc", "e_stderr", "z_e", "acceptance",
              "max_field_drift", "pass")
    return comments, header, rows, results


# ---------------------------------------------------------------------------
# entry point


_RUNNERS = {
    "scaling": _run_scaling,
    "window": _run_window,
    "metastate": _run_metastate,
    "csd": _run_csd,
    "gauge-check": _run_gauge,
    "oracle-vs-mc": _run_oracle,
}


def run_experiment(data: dict, output_dir: str | None = None,
                   workers: int | None = None,
                   master_seed: int | None = None) -> dict:
    """Run one experiment from a raw config dict; returns the summary.

    Writes <experiment>.csv and <experiment>_summary.json into the output
    directory.  The keyword overrides mirror the CLI flags and are validated
    with the config.
    """
    overrides = {"output_dir": output_dir, "workers": workers,
                 "master_seed": master_seed}
    cfg = resolve_config(data | {key: val for key, val in overrides.items()
                                 if val is not None})

    t0 = time.time()
    comments, header, rows, results = _RUNNERS[cfg["experiment"]](cfg)

    os.makedirs(cfg["output_dir"], exist_ok=True)
    base = cfg["experiment"]
    csv_path = os.path.join(cfg["output_dir"], base + ".csv")
    write_csv(csv_path, comments, header, rows)

    versions = {
        "rbclab": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }
    try:
        import numba
        versions["numba"] = numba.__version__
    except ImportError:
        pass
    summary = {
        "schema_version": 1,
        "experiment": base,
        "config": _jsonable(cfg),
        "versions": versions,
        "results": _jsonable(results),
        "data_file": base + ".csv",
        "n_rows": len(rows),
        "wall_time_s": round(time.time() - t0, 3),
    }
    json_path = os.path.join(cfg["output_dir"], base + "_summary.json")
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    summary["csv_path"] = csv_path
    summary["summary_path"] = json_path
    return summary
