//! Cached vs uncached hot-path timings, with a machine-readable
//! `BENCH_hotpaths.json` artifact.
//!
//! Each section times an amortized kernel against a faithful replica of
//! the code it replaced, on the same inputs and (where the kernel draws
//! randomness) the same RNG stream:
//!
//! * `selection` — repeated exponential-mechanism draws from a fixed
//!   score vector: per-draw `select_with_temperature` (rebuilds the
//!   categorical every call) vs one `prepare_with_temperature` plus
//!   O(1) `PreparedSelection::draw` calls. The draw sequences are
//!   asserted bit-identical before timing.
//! * `mh_chain` — a Metropolis–Hastings chain vs a replica of the
//!   pre-cache loop (per-call `σ.ln()` in the prior log-density, fresh
//!   proposal vector every iteration). Retained samples are asserted
//!   bit-identical.
//! * `blahut_arimoto` — the solver, which builds its Gibbs kernel `A`
//!   once per solve, vs a replica with the same arithmetic order that
//!   rebuilds `A` (`nx·ny` exponentials) into fresh buffers every
//!   iteration. Kernels and iteration counts are asserted
//!   identical. The section also reports per-iteration dispatch
//!   overhead: each iteration runs two parallel sections (row pass +
//!   column pass), so it carries the measured per-section cost of the
//!   persistent pool alongside what a scoped-spawn dispatcher would have
//!   charged.
//! * `engine_batch` — the batch's dataset reads (counts, sums, rank
//!   risks) replayed against the per-request linear scans the engine
//!   used before `SufficientStats`, vs the sorted-copy reads it uses
//!   now, plus the real end-to-end batch wall time for context.
//!   (`bin_counts` is not cached and is identical in both modes, so the
//!   replay skips it.)
//!
//! Every section runs at 1 and 4 workers — the caches must not perturb
//! the thread-count invariance the repo promises, and the artifact
//! doubles as evidence that the speedups hold under both settings.
//! Results land in `BENCH_hotpaths.json` in the working directory
//! (override via `DPLEARN_BENCH_JSON`; CI points it at the repo root).
//!
//! Not a criterion harness: the run *is* the measurement, so CI can
//! treat it as a smoke test and scrape the JSON.

use dplearn::engine::dataset::Dataset;
use dplearn::engine::engine::{Engine, EngineConfig};
use dplearn::engine::request::{QueryKind, QueryRequest, SelectStrategy};
use dplearn::infotheory::blahut_arimoto::blahut_arimoto;
use dplearn::mechanisms::exponential::ExponentialMechanism;
use dplearn::mechanisms::privacy::Budget;
use dplearn::numerics::rng::{Rng, Xoshiro256};
use dplearn::pacbayes::gibbs::{MetropolisGibbs, MhConfig};
use dplearn::pacbayes::posterior::DiagGaussian;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// Per-dataset budget generous enough that no request in the workload is
/// ever rejected: rejections would make the timed runs do different work.
const CAP_EPS: f64 = 1e9;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Median wall time of `reps` runs of `f`, in seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

// ---------------------------------------------------------------------
// Section 1: repeated exponential-mechanism selection.
// ---------------------------------------------------------------------

fn bench_selection(k: usize, draws: usize, reps: usize) -> (f64, f64) {
    let mech = ExponentialMechanism::new(k, 1.0).unwrap();
    let scores: Vec<f64> = (0..k).map(|i| ((i * 37) % 100) as f64 / 10.0).collect();
    let t = 0.5; // ε = 2tΔq = 1 at sensitivity 1.

    // The cached path must consume the RNG identically: same draws, in
    // lockstep, from the same stream.
    let mut ra = Xoshiro256::seed_from(0x5E1EC7);
    let mut rb = ra.clone();
    let prepared = mech.prepare_with_temperature(&scores, t).unwrap();
    for _ in 0..1000 {
        assert_eq!(
            mech.select_with_temperature(&scores, t, &mut ra).unwrap(),
            prepared.draw(&mut rb),
            "prepared draws must be bit-identical to select()"
        );
    }

    let uncached = median_secs(reps, || {
        let mut rng = Xoshiro256::seed_from(0x5E1EC7);
        let mut acc = 0usize;
        for _ in 0..draws {
            acc ^= mech.select_with_temperature(&scores, t, &mut rng).unwrap();
        }
        black_box(acc);
    });
    let cached = median_secs(reps, || {
        let mut rng = Xoshiro256::seed_from(0x5E1EC7);
        // The prepare cost is part of the amortized path: pay it inside
        // the timed region, once per `draws` draws.
        let p = mech.prepare_with_temperature(&scores, t).unwrap();
        let mut acc = 0usize;
        for _ in 0..draws {
            acc ^= p.draw(&mut rng);
        }
        black_box(acc);
    });
    (uncached, cached)
}

// ---------------------------------------------------------------------
// Section 2: Metropolis–Hastings chain.
// ---------------------------------------------------------------------

/// The prior log-density exactly as `DiagGaussian::ln_pdf` computed it
/// before the `ln σ` cache: one logarithm per coordinate per call. Same
/// expression tree, so the values (and hence the chain) are bit-identical.
fn uncached_diag_ln_pdf(mean: &[f64], std: &[f64], x: &[f64]) -> f64 {
    let half_ln_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
    x.iter()
        .zip(mean.iter().zip(std))
        .map(|(&xi, (&m, &s))| {
            let z = (xi - m) / s;
            -0.5 * z * z - s.ln() - half_ln_2pi
        })
        .sum()
}

/// Replica of `MetropolisGibbs::run` as it was before the hot-path work:
/// uncached prior density and a freshly allocated proposal vector every
/// iteration. Consumes the RNG identically to the current sampler.
fn uncached_mh_run(
    prior: &DiagGaussian,
    risk: impl Fn(&[f64]) -> f64,
    lambda: f64,
    cfg: &MhConfig,
    rng: &mut Xoshiro256,
) -> Vec<Vec<f64>> {
    let log_target =
        |x: &[f64]| uncached_diag_ln_pdf(prior.mean(), prior.std(), x) - lambda * risk(x);
    let mut theta: Vec<f64> = prior.mean().to_vec();
    let mut log_p = log_target(&theta);
    let mut step = cfg.initial_step;
    let gauss = dplearn::numerics::distributions::Gaussian::standard();
    use dplearn::numerics::distributions::Sample;

    let total = cfg.burn_in + cfg.n_samples * cfg.thin;
    let mut samples = Vec::with_capacity(cfg.n_samples);
    let mut window_accepts = 0usize;
    for it in 0..total {
        let proposal: Vec<f64> = theta
            .iter()
            .map(|&t| t + step * gauss.sample(rng))
            .collect();
        let log_q = log_target(&proposal);
        let accept = (log_q - log_p) >= rng.next_open_f64().ln();
        if accept {
            theta = proposal;
            log_p = log_q;
        }
        if it < cfg.burn_in {
            if accept {
                window_accepts += 1;
            }
            if (it + 1) % 100 == 0 {
                let rate = window_accepts as f64 / 100.0;
                if rate > 0.35 {
                    step *= 1.2;
                } else if rate < 0.25 {
                    step /= 1.2;
                }
                window_accepts = 0;
            }
        } else if (it - cfg.burn_in + 1).is_multiple_of(cfg.thin) {
            samples.push(theta.clone());
        }
    }
    samples
}

fn bench_mh(dim: usize, reps: usize) -> (f64, f64, usize) {
    let prior = DiagGaussian::isotropic(dim, 1.0).unwrap();
    let lambda = 2.0;
    let risk = |t: &[f64]| 0.5 * t.iter().map(|&v| (v - 0.7) * (v - 0.7)).sum::<f64>();
    let cfg = MhConfig {
        burn_in: 2000,
        n_samples: 2000,
        thin: 2,
        initial_step: 0.4,
    };
    let iterations = cfg.burn_in + cfg.n_samples * cfg.thin;
    let mh = MetropolisGibbs::new(&prior, risk, lambda, cfg.clone()).unwrap();

    // The caches must not move the chain: retained samples bit-identical.
    let (fast, _) = mh.run(&mut Xoshiro256::seed_from(0x4D48_5EED));
    let slow = uncached_mh_run(
        &prior,
        risk,
        lambda,
        &cfg,
        &mut Xoshiro256::seed_from(0x4D48_5EED),
    );
    assert_eq!(
        fast, slow,
        "cached chain must be bit-identical to the replica"
    );

    let uncached = median_secs(reps, || {
        let mut rng = Xoshiro256::seed_from(0x4D48_5EED);
        black_box(uncached_mh_run(&prior, risk, lambda, &cfg, &mut rng));
    });
    let cached = median_secs(reps, || {
        let mut rng = Xoshiro256::seed_from(0x4D48_5EED);
        black_box(mh.run(&mut rng));
    });
    (uncached, cached, iterations)
}

// ---------------------------------------------------------------------
// Section 3: Blahut–Arimoto.
// ---------------------------------------------------------------------

fn ba_problem(n: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    let raw: Vec<f64> = (0..n).map(|x| 1.0 + (x % 3) as f64).collect();
    let z: f64 = raw.iter().sum();
    let source: Vec<f64> = raw.iter().map(|&w| w / z).collect();
    let distortion: Vec<Vec<f64>> = (0..n)
        .map(|x| {
            (0..n)
                .map(|y| {
                    let d = (x as f64 - y as f64) / n as f64;
                    d * d + 0.02 * ((x * 7 + y * 3) % 5) as f64
                })
                .collect()
        })
        .collect();
    (source, distortion)
}

/// `Σ_y r(y)·a(y)` in the solver's association: four lanes by `y mod 4`,
/// combined as `(l₀+l₁)+(l₂+l₃)`, then the leftover products in order.
fn lane_sum(r: &[f64], a: &[f64]) -> f64 {
    let full = r.len() - r.len() % 4;
    let mut lanes = [0.0f64; 4];
    for y in 0..full {
        lanes[y % 4] += r[y] * a[y];
    }
    let mut tail = 0.0;
    for y in full..r.len() {
        tail += r[y] * a[y];
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

/// The row-shifted Gibbs kernel `A(x,y) = exp(min_y β·d(x,y) − β·d(x,y))`
/// of one row.
fn gibbs_row(row_d: &[f64], beta: f64, out: &mut [f64]) {
    let shift = row_d
        .iter()
        .map(|&d| beta * d)
        .fold(f64::INFINITY, f64::min);
    for (a, &d) in out.iter_mut().zip(row_d) {
        *a = (shift - beta * d).exp();
    }
}

/// Blahut–Arimoto's multiplicative iteration without the solver's cache:
/// the same arithmetic order, with `A` built in parallel row chunks and
/// the column pass in parallel column chunks, but `A` is rebuilt (one
/// `exp` per cell) into fresh buffers every iteration instead of once
/// per solve. No row of this problem needs the solver's log-space
/// fallback (asserted), so the kernels are bit-identical.
fn uncached_ba(
    source: &[f64],
    distortion: &[Vec<f64>],
    beta: f64,
    tol: f64,
    max_iters: usize,
) -> (Vec<Vec<f64>>, usize) {
    let (nx, ny) = (source.len(), distortion[0].len());
    let mut r = vec![1.0 / ny as f64; ny];
    let mut used = r.clone();
    let mut iterations = 0usize;
    let row_chunk = nx.div_ceil(64).max(1);
    let col_chunk = ny.div_ceil(64).max(64);
    while iterations < max_iters {
        iterations += 1;
        let mut gibbs = vec![vec![0.0; ny]; nx];
        // The solver's serial-cutover cost hints (≈ 8 ns per `A` cell,
        // ≈ 1 ns per column-pass cell), so both sides parallelize alike.
        dplearn::parallel::par_for_each_chunk_mut_with_cost(
            &mut gibbs,
            row_chunk,
            8 * ny as u64,
            |_chunk, start, rows| {
                for (offset, row) in rows.iter_mut().enumerate() {
                    gibbs_row(&distortion[start + offset], beta, row);
                }
            },
        );
        let weight: Vec<f64> = source
            .iter()
            .zip(&gibbs)
            .map(|(&px, row)| {
                let s = lane_sum(&r, row);
                assert!(
                    s >= 1e-16 && s.is_finite(),
                    "row sum {s} needs the fallback"
                );
                if px == 0.0 {
                    0.0
                } else {
                    px / s
                }
            })
            .collect();
        let mut new_r = vec![0.0; ny];
        {
            let (gibbs, r) = (&gibbs, &r);
            dplearn::parallel::par_for_each_chunk_mut_with_cost(
                &mut new_r,
                col_chunk,
                nx as u64,
                |_chunk, start, cols| {
                    let width = cols.len();
                    for (&wx, row) in weight.iter().zip(gibbs) {
                        for (c, &a) in cols.iter_mut().zip(&row[start..start + width]) {
                            *c += wx * a;
                        }
                    }
                    for (c, &ry) in cols.iter_mut().zip(&r[start..start + width]) {
                        *c *= ry;
                    }
                },
            );
        }
        let gap = r
            .iter()
            .zip(&new_r)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max);
        used = std::mem::replace(&mut r, new_r);
        if gap < tol {
            break;
        }
    }
    for ry in &mut used {
        if *ry < f64::MIN_POSITIVE {
            *ry = 0.0;
        }
    }
    let mut a = vec![0.0; ny];
    let kernel = distortion
        .iter()
        .map(|row_d| {
            gibbs_row(row_d, beta, &mut a);
            let s = lane_sum(&used, &a);
            used.iter()
                .zip(&a)
                .map(|(&ry, &axy)| ry * axy / s)
                .collect()
        })
        .collect();
    (kernel, iterations)
}

/// Per-section dispatch overhead in microseconds: a no-op parallel
/// section through the persistent pool vs a scoped-spawn replica of the
/// pre-pool dispatcher. At 1 configured worker both run inline.
fn bench_dispatch(reps: usize) -> (f64, f64) {
    const SECTIONS: usize = 2_000;
    let workers = dplearn::parallel::thread_count();
    let chunks = workers.max(2);
    // Warm the pool so worker-thread creation is not billed to the
    // steady-state sections.
    black_box(dplearn::parallel::par_map_indexed(chunks, |k| k));
    let pool = median_secs(reps, || {
        for _ in 0..SECTIONS {
            black_box(dplearn::parallel::par_map_indexed(chunks, |k| k));
        }
    });
    let spawn = median_secs(reps, || {
        let helpers = workers.saturating_sub(1);
        for _ in 0..SECTIONS {
            std::thread::scope(|s| {
                for _ in 0..helpers {
                    s.spawn(|| black_box(0usize));
                }
                black_box(0usize)
            });
        }
    });
    (pool / SECTIONS as f64 * 1e6, spawn / SECTIONS as f64 * 1e6)
}

fn bench_ba(n: usize, reps: usize) -> (f64, f64, usize) {
    let (source, distortion) = ba_problem(n);
    let beta = 8.0;
    let tol = 1e-6;
    let max_iters = 50_000;

    let rd = blahut_arimoto(&source, &distortion, beta, tol, max_iters).unwrap();
    let (naive_kernel, naive_iters) = uncached_ba(&source, &distortion, beta, tol, max_iters);
    assert_eq!(rd.iterations, naive_iters, "iteration counts must match");
    for (a, b) in rd.channel.rows().zip(&naive_kernel) {
        for (&qa, &qb) in a.iter().zip(b) {
            assert_eq!(qa.to_bits(), qb.to_bits(), "kernels must be bit-identical");
        }
    }

    let uncached = median_secs(reps, || {
        black_box(uncached_ba(&source, &distortion, beta, tol, max_iters));
    });
    let cached = median_secs(reps, || {
        black_box(blahut_arimoto(&source, &distortion, beta, tol, max_iters).unwrap());
    });
    (uncached, cached, naive_iters)
}

// ---------------------------------------------------------------------
// Section 4: engine batch dataset reads.
// ---------------------------------------------------------------------

fn build_engine(datasets: usize, records: usize) -> Engine {
    let mut e = Engine::new(EngineConfig::default()).unwrap();
    for d in 0..datasets {
        let values: Vec<f64> = (0..records)
            .map(|i| ((i * 31 + d * 17) % 1000) as f64 / 1000.0)
            .collect();
        e.register_dataset(
            &format!("shard{d}"),
            values,
            0.0,
            1.0,
            Budget::new(CAP_EPS, 1e-6).unwrap(),
        )
        .unwrap();
    }
    e
}

fn build_batch(datasets: usize, requests: usize) -> Vec<QueryRequest> {
    (0..requests)
        .map(|i| {
            let ds = format!("shard{}", i % datasets);
            let kind = match i % 4 {
                0 => QueryKind::LaplaceCount {
                    lo: 0.0,
                    hi: 0.5,
                    epsilon: 0.1,
                },
                1 => QueryKind::Select {
                    bins: 64,
                    epsilon: 0.1,
                    strategy: SelectStrategy::PermuteAndFlip,
                },
                2 => QueryKind::GibbsQuantile {
                    quantile: 0.5,
                    candidates: 257,
                    epsilon: 0.05,
                    draws: 4,
                },
                _ => QueryKind::SvtRun {
                    threshold: 100.0,
                    epsilon: 0.2,
                    probes: vec![(0.0, 0.2), (0.0, 0.5), (0.0, 0.9)],
                },
            };
            QueryRequest::new(ds, kind)
        })
        .collect()
}

fn scan_count_in(values: &[f64], lo: f64, hi: f64) -> usize {
    values.iter().filter(|&&v| v >= lo && v <= hi).count()
}

fn scan_rank_risks(values: &[f64], candidates: &[f64], q: f64) -> Vec<f64> {
    let n = values.len() as f64;
    candidates
        .iter()
        .map(|&c| {
            let below = values.iter().filter(|&&v| v <= c).count() as f64;
            (below / n - q).abs()
        })
        .collect()
}

/// Replay the batch's dataset reads either through linear scans (the
/// pre-`SufficientStats` engine) or the sorted-copy reads, returning a
/// checksum so the two modes can be compared and the work kept live.
fn replay_batch_reads(ds: &[Dataset], batch: &[QueryRequest], scans: bool) -> f64 {
    let mut acc = 0.0f64;
    for (i, req) in batch.iter().enumerate() {
        let d = &ds[i % ds.len()];
        match &req.kind {
            QueryKind::LaplaceCount { lo, hi, .. } => {
                acc += if scans {
                    scan_count_in(d.values(), *lo, *hi) as f64
                } else {
                    d.count_in(*lo, *hi) as f64
                };
            }
            QueryKind::GibbsQuantile {
                quantile,
                candidates,
                ..
            } => {
                let grid = d.candidate_grid(*candidates).unwrap_or_default();
                let risks = if scans {
                    scan_rank_risks(d.values(), &grid, *quantile)
                } else {
                    d.rank_risks(&grid, *quantile)
                };
                acc += risks.iter().sum::<f64>();
            }
            QueryKind::SvtRun { probes, .. } => {
                for &(lo, hi) in probes {
                    acc += if scans {
                        scan_count_in(d.values(), lo, hi) as f64
                    } else {
                        d.count_in(lo, hi) as f64
                    };
                }
            }
            // `bin_counts` (Select) is not cached: identical cost in
            // both modes, so the replay skips it.
            _ => {}
        }
    }
    acc
}

fn bench_engine(datasets: usize, records: usize, requests: usize, reps: usize) -> (f64, f64, f64) {
    let ds: Vec<Dataset> = (0..datasets)
        .map(|d| {
            let values: Vec<f64> = (0..records)
                .map(|i| ((i * 31 + d * 17) % 1000) as f64 / 1000.0)
                .collect();
            Dataset::new(&format!("shard{d}"), values, 0.0, 1.0).unwrap()
        })
        .collect();
    let batch = build_batch(datasets, requests);

    let via_scans = replay_batch_reads(&ds, &batch, true);
    let via_stats = replay_batch_reads(&ds, &batch, false);
    assert_eq!(
        via_scans.to_bits(),
        via_stats.to_bits(),
        "sufficient-stat reads must reproduce the linear scans"
    );

    let uncached = median_secs(reps, || {
        black_box(replay_batch_reads(&ds, &batch, true));
    });
    let cached = median_secs(reps, || {
        black_box(replay_batch_reads(&ds, &batch, false));
    });
    let end_to_end = median_secs(reps, || {
        // Fresh engine per rep: ledgers are charged by each run.
        let mut engine = build_engine(datasets, records);
        let report = engine.run_batch(&batch);
        assert_eq!(
            report.executed(),
            batch.len(),
            "workload must execute fully for a fair measurement"
        );
        black_box(report);
    });
    (uncached, cached, end_to_end)
}

// ---------------------------------------------------------------------

struct Section {
    name: &'static str,
    threads: usize,
    uncached: f64,
    cached: f64,
    extra: String,
}

fn main() {
    let sel_k = env_usize("DPLEARN_BENCH_CANDIDATES", 512);
    let sel_draws = env_usize("DPLEARN_BENCH_DRAWS", 20_000);
    let mh_dim = env_usize("DPLEARN_BENCH_MH_DIM", 32);
    let ba_n = env_usize("DPLEARN_BENCH_BA_SIZE", 96);
    let records = env_usize("DPLEARN_BENCH_RECORDS", 20_000);
    let requests = env_usize("DPLEARN_BENCH_REQUESTS", 64);
    let datasets = 4usize;
    let reps = 5usize;
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut sections: Vec<Section> = Vec::new();
    for &threads in &[1usize, 4] {
        dplearn::parallel::set_thread_count(threads);

        let (u, c) = bench_selection(sel_k, sel_draws, reps);
        sections.push(Section {
            name: "selection",
            threads,
            uncached: u,
            cached: c,
            extra: format!(
                "\"candidates\": {sel_k}, \"draws\": {sel_draws}, \
                 \"uncached_draws_per_second\": {:.1}, \"cached_draws_per_second\": {:.1}",
                sel_draws as f64 / u,
                sel_draws as f64 / c
            ),
        });

        let (u, c, iters) = bench_mh(mh_dim, reps);
        sections.push(Section {
            name: "mh_chain",
            threads,
            uncached: u,
            cached: c,
            extra: format!("\"dim\": {mh_dim}, \"iterations\": {iters}"),
        });

        let (pool_us, spawn_us) = bench_dispatch(reps);
        let (u, c, iters) = bench_ba(ba_n, reps);
        sections.push(Section {
            name: "blahut_arimoto",
            threads,
            uncached: u,
            cached: c,
            // Two parallel sections per iteration: row pass + column pass.
            extra: format!(
                "\"alphabet\": {ba_n}, \"iterations\": {iters}, \
                 \"parallel_sections_per_iteration\": 2, \
                 \"pool_dispatch_us_per_iteration\": {:.3}, \
                 \"scoped_spawn_us_per_iteration\": {:.3}",
                2.0 * pool_us,
                2.0 * spawn_us
            ),
        });

        let (u, c, e2e) = bench_engine(datasets, records, requests, reps);
        sections.push(Section {
            name: "engine_batch",
            threads,
            uncached: u,
            cached: c,
            extra: format!(
                "\"datasets\": {datasets}, \"records_per_dataset\": {records}, \
                 \"requests\": {requests}, \"end_to_end_batch_seconds\": {e2e:.6}"
            ),
        });
    }
    dplearn::parallel::set_thread_count(0);

    println!("hot-path kernels, cached vs uncached (median of {reps} reps):");
    for s in &sections {
        println!(
            "  {:<16} threads={}  uncached {:.6} s  cached {:.6} s  speedup {:.2}x",
            s.name,
            s.threads,
            s.uncached,
            s.cached,
            s.uncached / s.cached
        );
    }

    let rows: Vec<String> = sections
        .iter()
        .map(|s| {
            format!(
                "    {{\n      \"section\": \"{}\",\n      \"threads\": {},\n      \
                 \"uncached_seconds\": {:.6},\n      \"cached_seconds\": {:.6},\n      \
                 \"speedup\": {:.4},\n      {}\n    }}",
                s.name,
                s.threads,
                s.uncached,
                s.cached,
                s.uncached / s.cached,
                s.extra
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"hotpaths\",\n  \"reps\": {reps},\n  \
         \"hardware_threads\": {hardware_threads},\n  \"sections\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path =
        std::env::var("DPLEARN_BENCH_JSON").unwrap_or_else(|_| "BENCH_hotpaths.json".to_string());
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
