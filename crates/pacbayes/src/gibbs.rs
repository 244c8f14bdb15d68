//! Gibbs posteriors — the paper's central object.
//!
//! Lemma 3.2 (Catoni / Zhang): the posterior minimizing Catoni's bound is
//!
//! ```text
//! dπ̂_λ(θ) = exp(−λ R̂_Ẑ(θ)) dπ(θ) / E_{θ∼π}[exp(−λ R̂_Ẑ(θ))]
//! ```
//!
//! For a finite hypothesis class this is an explicit softmax over risks
//! ([`gibbs_finite`]), identical to the exponential mechanism with quality
//! `q = −R̂` at temperature `λ` — which is why Theorem 4.1 gives
//! `2λΔR̂`-differential privacy for free.
//!
//! For continuous classes the posterior has no closed form; a random-walk
//! Metropolis–Hastings sampler ([`MetropolisGibbs`]) with adaptive step
//! size targets it using only unnormalized log density evaluations.

use crate::posterior::{DiagGaussian, FinitePosterior};
use crate::{PacBayesError, Result};
use dplearn_numerics::rng::Rng;
use dplearn_robust::ConvergenceReport;
use dplearn_telemetry::Recorder;

/// The exact Gibbs posterior over a finite class:
/// `π̂_λ(i) ∝ π(i)·exp(−λ·risks[i])`, computed in log space.
///
/// The log weights `ln π(i) − λ·risks[i]` are normalized in place by
/// [`softmax_in_place`](dplearn_numerics::special::softmax_in_place):
/// one `exp` per hypothesis, and one `ln` per run of equal prior
/// probabilities (one in all for a uniform prior). A NaN risk, or a
/// weight of `+∞` (a `−∞` risk at `λ > 0`), is rejected as an invalid
/// `log_weights`; a `+∞` risk at `λ > 0` and a zero-mass prior cell get
/// probability exactly 0.
pub fn gibbs_finite(
    prior: &FinitePosterior,
    risks: &[f64],
    lambda: f64,
) -> Result<FinitePosterior> {
    if risks.len() != prior.len() {
        return Err(PacBayesError::InvalidParameter {
            name: "risks",
            reason: format!("expected {} risks, got {}", prior.len(), risks.len()),
        });
    }
    if !(lambda.is_finite() && lambda >= 0.0) {
        return Err(PacBayesError::InvalidParameter {
            name: "lambda",
            reason: format!("temperature must be finite and nonnegative, got {lambda}"),
        });
    }
    FinitePosterior::from_log_weight_vec(gibbs_log_weights(prior, risks, lambda))
}

/// The Gibbs posterior's unnormalized log weights
/// `ln π(i) − λ·risks[i]`, `−∞` where `π(i) = 0`, over the common
/// length of `prior` and `risks`.
///
/// The prior's `ln` is taken once per run of equal prior values, so a
/// uniform prior costs one `ln`; every weight is bit-identical to taking
/// the `ln` per hypothesis.
pub(crate) fn gibbs_log_weights(prior: &FinitePosterior, risks: &[f64], lambda: f64) -> Vec<f64> {
    let mut weights = Vec::with_capacity(prior.len().min(risks.len()));
    let mut risks = risks;
    // The `ln` stays outside the loop over a run's risks: inside it, the
    // compiler may hoist `ln` above a "value changed" test and so take it
    // for every hypothesis.
    for run in prior.probs().chunk_by(|a, b| a == b) {
        let (run_risks, rest) = risks.split_at(run.len().min(risks.len()));
        match run.first() {
            Some(&p) if p != 0.0 => {
                let ln_p = p.ln();
                weights.extend(run_risks.iter().map(|&r| ln_p - lambda * r));
            }
            _ => weights.extend(run_risks.iter().map(|_| f64::NEG_INFINITY)),
        }
        risks = rest;
    }
    weights
}

/// Diagnostics from a Metropolis–Hastings run.
#[derive(Debug, Clone)]
pub struct MhDiagnostics {
    /// Fraction of proposals accepted (after burn-in).
    pub acceptance_rate: f64,
    /// Number of retained samples.
    pub n_samples: usize,
    /// Final proposal step size after adaptation.
    pub final_step: f64,
}

/// Configuration for [`MetropolisGibbs`].
#[derive(Debug, Clone)]
pub struct MhConfig {
    /// Burn-in iterations (discarded, used for step adaptation).
    pub burn_in: usize,
    /// Retained samples.
    pub n_samples: usize,
    /// Keep every `thin`-th post-burn-in draw.
    pub thin: usize,
    /// Initial random-walk step size.
    pub initial_step: f64,
}

impl Default for MhConfig {
    fn default() -> Self {
        MhConfig {
            burn_in: 2000,
            n_samples: 2000,
            thin: 5,
            initial_step: 0.5,
        }
    }
}

impl MhConfig {
    /// Reject configurations that would silently degenerate: `thin = 0`
    /// (an infinite-stride loop that retains nothing), `n_samples = 0`,
    /// a non-positive or non-finite step, or iteration totals that
    /// overflow `usize`.
    pub fn validate(&self) -> Result<()> {
        if self.n_samples == 0 {
            return Err(PacBayesError::InvalidParameter {
                name: "n_samples",
                reason: "must be positive".to_string(),
            });
        }
        if self.thin == 0 {
            return Err(PacBayesError::InvalidParameter {
                name: "thin",
                reason: "must be at least 1 (0 would retain no draws)".to_string(),
            });
        }
        if !(self.initial_step.is_finite() && self.initial_step > 0.0) {
            return Err(PacBayesError::InvalidParameter {
                name: "initial_step",
                reason: format!("must be finite and positive, got {}", self.initial_step),
            });
        }
        let post = self.n_samples.checked_mul(self.thin);
        if post.and_then(|p| p.checked_add(self.burn_in)).is_none() {
            return Err(PacBayesError::InvalidParameter {
                name: "burn_in/n_samples/thin",
                reason: "total iteration count overflows usize".to_string(),
            });
        }
        Ok(())
    }

    /// Total chain iterations (`burn_in + n_samples·thin`); valid only
    /// after [`MhConfig::validate`] has passed.
    fn total_iterations(&self) -> usize {
        self.burn_in + self.n_samples * self.thin
    }
}

/// Random-walk Metropolis–Hastings sampler for a continuous Gibbs
/// posterior `π̂(θ) ∝ π(θ)·exp(−λ R̂(θ))` over ℝᵈ.
pub struct MetropolisGibbs<'a, F> {
    prior: &'a DiagGaussian,
    emp_risk: F,
    lambda: f64,
    cfg: MhConfig,
    /// Opt-in reordered-sum fast path for the log-prior term (see
    /// [`MetropolisGibbs::with_fast_log_prior`]). Defaults to `false`:
    /// the bit-identical [`DiagGaussian::ln_pdf`].
    fast_log_prior: bool,
}

impl<'a, F> MetropolisGibbs<'a, F>
where
    F: Fn(&[f64]) -> f64,
{
    /// Create a sampler for the Gibbs posterior with the given Gaussian
    /// prior, empirical-risk function, and temperature.
    pub fn new(prior: &'a DiagGaussian, emp_risk: F, lambda: f64, cfg: MhConfig) -> Result<Self> {
        if !(lambda.is_finite() && lambda >= 0.0) {
            return Err(PacBayesError::InvalidParameter {
                name: "lambda",
                reason: format!("temperature must be finite and nonnegative, got {lambda}"),
            });
        }
        cfg.validate()?;
        Ok(MetropolisGibbs {
            prior,
            emp_risk,
            lambda,
            cfg,
            fast_log_prior: false,
        })
    }

    /// Switch the log-prior term of the target to the vectorized
    /// [`DiagGaussian::ln_pdf_fast`] accumulation (`true`) or back to the
    /// bit-identical default [`DiagGaussian::ln_pdf`] (`false`).
    ///
    /// The fast accumulation reorders the per-coordinate sum, so chains
    /// are **not** bit-identical to the default path — accept/reject
    /// decisions near ties can flip. Both paths target the same Gibbs
    /// posterior: the `kernel_fastpaths` suite pins the fast path to the
    /// default by `audit_discrete_par` distribution-equivalence, per the
    /// workspace pinning contract. Either setting is thread-count
    /// invariant.
    pub fn with_fast_log_prior(mut self, fast: bool) -> Self {
        self.fast_log_prior = fast;
        self
    }

    /// Unnormalized log target density.
    pub fn log_target(&self, theta: &[f64]) -> f64 {
        let ln_prior = if self.fast_log_prior {
            self.prior.ln_pdf_fast(theta)
        } else {
            self.prior.ln_pdf(theta)
        };
        ln_prior - self.lambda * (self.emp_risk)(theta)
    }

    /// Run the chain, returning samples and diagnostics.
    pub fn run<R: Rng + ?Sized>(&self, rng: &mut R) -> (Vec<Vec<f64>>, MhDiagnostics) {
        let cfg = self.cfg.clone();
        self.run_with_cfg(rng, &cfg)
    }

    /// Run the chain under an explicit configuration (used by the
    /// watchdog to widen proposals on retried chains without rebuilding
    /// the sampler).
    fn run_with_cfg<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        cfg: &MhConfig,
    ) -> (Vec<Vec<f64>>, MhDiagnostics) {
        let d = self.prior.dim();
        let mut theta: Vec<f64> = self.prior.mean().to_vec();
        let mut log_p = self.log_target(&theta);
        let mut step = cfg.initial_step;
        let gauss = dplearn_numerics::distributions::Gaussian::standard();
        use dplearn_numerics::distributions::Sample;

        let total = cfg.total_iterations();
        let mut samples = Vec::with_capacity(cfg.n_samples);
        let mut accepted_post = 0usize;
        let mut post_iters = 0usize;
        // During burn-in, adapt the step toward ~30% acceptance in windows
        // of 100 proposals (Robbins–Monro-style multiplicative update).
        let mut window_accepts = 0usize;
        // One proposal buffer for the whole chain: accepted states swap
        // into `theta` instead of allocating a fresh Vec per iteration.
        let mut proposal = vec![0.0f64; d];
        for it in 0..total {
            for (p, &t) in proposal.iter_mut().zip(&theta) {
                *p = t + step * gauss.sample(rng);
            }
            let log_q = self.log_target(&proposal);
            let accept = (log_q - log_p) >= rng.next_open_f64().ln();
            if accept {
                std::mem::swap(&mut theta, &mut proposal);
                log_p = log_q;
            }
            if it < cfg.burn_in {
                if accept {
                    window_accepts += 1;
                }
                if (it + 1) % 100 == 0 {
                    let rate = window_accepts as f64 / 100.0;
                    // Nudge toward the 0.3 target.
                    if rate > 0.35 {
                        step *= 1.2;
                    } else if rate < 0.25 {
                        step /= 1.2;
                    }
                    window_accepts = 0;
                }
            } else {
                post_iters += 1;
                if accept {
                    accepted_post += 1;
                }
                if (it - cfg.burn_in + 1).is_multiple_of(cfg.thin) {
                    samples.push(theta.clone());
                }
            }
        }
        debug_assert_eq!(samples.len(), cfg.n_samples);
        debug_assert_eq!(theta.len(), d);
        let diagnostics = MhDiagnostics {
            acceptance_rate: accepted_post as f64 / post_iters.max(1) as f64,
            n_samples: samples.len(),
            final_step: step,
        };
        (samples, diagnostics)
    }
}

/// Configuration for the R̂-triggered convergence watchdog of
/// [`MetropolisGibbs::sample_chains_watched`].
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogConfig {
    /// Re-run chains while the worst-dimension R̂ exceeds this (≥ 1).
    pub rhat_threshold: f64,
    /// Total sampling attempts, including the first (≥ 1).
    pub max_attempts: usize,
    /// Multiplier applied to `initial_step` per retry (≥ 1): widened
    /// proposals let re-run chains escape the modes that trapped them.
    pub step_widen: f64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            rhat_threshold: 1.1,
            max_attempts: 3,
            step_widen: 2.0,
        }
    }
}

impl WatchdogConfig {
    /// Reject thresholds or schedules that cannot terminate meaningfully.
    pub fn validate(&self) -> Result<()> {
        if !(self.rhat_threshold.is_finite() && self.rhat_threshold >= 1.0) {
            return Err(PacBayesError::InvalidParameter {
                name: "rhat_threshold",
                reason: format!("must be finite and ≥ 1, got {}", self.rhat_threshold),
            });
        }
        if self.max_attempts == 0 {
            return Err(PacBayesError::InvalidParameter {
                name: "max_attempts",
                reason: "must be at least 1".to_string(),
            });
        }
        if !(self.step_widen.is_finite() && self.step_widen >= 1.0) {
            return Err(PacBayesError::InvalidParameter {
                name: "step_widen",
                reason: format!("must be finite and ≥ 1, got {}", self.step_widen),
            });
        }
        Ok(())
    }
}

/// Per-chain samples from a multi-chain run: `chains[chain][draw][dim]`.
pub type ChainPool = Vec<Vec<Vec<f64>>>;

/// One chain's output: retained draws plus diagnostics.
type ChainRun = (Vec<Vec<f64>>, MhDiagnostics);

/// Pooled diagnostics from a multi-chain Metropolis–Hastings run.
#[derive(Debug, Clone)]
pub struct MultiChainDiagnostics {
    /// Per-chain diagnostics, in chain order.
    pub per_chain: Vec<MhDiagnostics>,
    /// Per-chain posterior means, `chain_means[chain][dim]`.
    pub chain_means: Vec<Vec<f64>>,
    /// Mean acceptance rate across chains.
    pub pooled_acceptance: f64,
    /// Per-dimension potential-scale-reduction statistic (Gelman–Rubin
    /// R̂ without chain splitting): values near 1 indicate the chains
    /// explore the same distribution; `NaN` when fewer than 2 chains or
    /// 2 samples make the statistic undefined.
    pub rhat: Vec<f64>,
}

impl<'a, F> MetropolisGibbs<'a, F>
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    /// Run `n_chains` independent chains in parallel, each on its own
    /// jump-derived RNG stream, and pool the results.
    ///
    /// Chain `k` always consumes stream `k` of
    /// `Xoshiro256::jump_streams(seed, n_chains)` and chains are merged
    /// in chain order, so the output is **bit-identical at every thread
    /// count** — only `(config, n_chains, seed)` matter. All chains use
    /// the same adaptive-step schedule as [`MetropolisGibbs::run`].
    ///
    /// Returns per-chain samples (`chains[chain][draw][dim]`) plus
    /// pooled diagnostics with an R̂-style between/within-chain spread
    /// check.
    ///
    /// Telemetry: per-chain acceptance rates
    /// (`pacbayes.mcmc.chain.acceptance` histogram), pooled acceptance
    /// (`pacbayes.mcmc.pooled_acceptance` gauge), the worst-dimension R̂
    /// (`pacbayes.mcmc.rhat` histogram), and run/chain counters. All are
    /// recorded from the sequential pooling path after the parallel
    /// chains are merged in chain order, so recorded values are
    /// bit-identical at every `DPLEARN_THREADS` setting. A caller that
    /// does not observe passes `&NoopRecorder`.
    pub fn sample_chains(
        &self,
        n_chains: usize,
        seed: u64,
        recorder: &dyn Recorder,
    ) -> Result<(ChainPool, MultiChainDiagnostics)> {
        if n_chains == 0 {
            return Err(PacBayesError::InvalidParameter {
                name: "n_chains",
                reason: "must be positive".to_string(),
            });
        }
        self.cfg.validate()?;
        let streams = dplearn_numerics::rng::Xoshiro256::jump_streams(seed, n_chains);
        let runs: Vec<ChainRun> = dplearn_parallel::par_map(&streams, 0, |_, stream| {
            let mut rng = stream.clone();
            self.run(&mut rng)
        });

        let d = self.prior.dim();
        let n = self.cfg.n_samples;
        let mut chains = Vec::with_capacity(n_chains);
        let mut per_chain = Vec::with_capacity(n_chains);
        for (samples, diag) in runs {
            chains.push(samples);
            per_chain.push(diag);
        }
        let diagnostics = pool_diagnostics(&chains, per_chain, d, n);
        if recorder.enabled() {
            recorder.counter_add("pacbayes.mcmc.runs", "", 1);
            recorder.counter_add("pacbayes.mcmc.chains", "", n_chains as u64);
            for diag in &diagnostics.per_chain {
                recorder.histogram_record(
                    "pacbayes.mcmc.chain.acceptance",
                    "",
                    diag.acceptance_rate,
                );
            }
            recorder.gauge_set(
                "pacbayes.mcmc.pooled_acceptance",
                "",
                diagnostics.pooled_acceptance,
            );
            recorder.histogram_record("pacbayes.mcmc.rhat", "", worst_rhat(&diagnostics.rhat));
        }
        Ok((chains, diagnostics))
    }

    /// [`MetropolisGibbs::sample_chains`] guarded by a convergence
    /// watchdog: while the worst-dimension R̂ exceeds
    /// `wd.rhat_threshold`, the chains implicated in the disagreement
    /// (those whose means sit farthest from the pooled mean) are re-run
    /// on **fresh jump-derived RNG streams** with proposals widened by
    /// `wd.step_widen` per attempt, up to `wd.max_attempts` total
    /// attempts.
    ///
    /// Never errors on non-convergence: if the budget is exhausted the
    /// pool is returned as-is with `report.degraded == true` so callers
    /// can decide whether an under-mixed posterior is acceptable. All
    /// retry decisions are pure functions of the pooled chain statistics
    /// and the attempt index — never wall-clock time — so the result is
    /// bit-identical at every `DPLEARN_THREADS` setting.
    ///
    /// With fewer than 2 chains or 2 retained samples R̂ is undefined;
    /// the watchdog then has nothing to act on and reports a trivially
    /// converged run with a `NaN` residual.
    ///
    /// Telemetry: on top of the base run's metrics (see
    /// [`MetropolisGibbs::sample_chains`]), the R̂ residual after every
    /// attempt (`pacbayes.mcmc.rhat.trajectory` histogram), each proposal
    /// widening (`pacbayes.mcmc.widening_events` counter plus the number
    /// of re-run chains in `pacbayes.mcmc.rerun_chains`), the final
    /// attempt count and residual, and whether the pool was returned
    /// degraded — all from the sequential retry loop, and never read by
    /// it.
    pub fn sample_chains_watched(
        &self,
        n_chains: usize,
        seed: u64,
        wd: &WatchdogConfig,
        recorder: &dyn Recorder,
    ) -> Result<(ChainPool, MultiChainDiagnostics, ConvergenceReport)> {
        wd.validate()?;
        let (mut chains, mut diag) = self.sample_chains(n_chains, seed, recorder)?;
        let d = self.prior.dim();
        let n = self.cfg.n_samples;
        let per_run_iters = self.cfg.total_iterations();
        let mut total_iterations = n_chains.saturating_mul(per_run_iters);

        if n_chains < 2 || n < 2 {
            let report = ConvergenceReport {
                attempts: 1,
                converged: true,
                degraded: false,
                total_iterations,
                final_residual: f64::NAN,
            };
            if recorder.enabled() {
                recorder.counter_add("pacbayes.mcmc.attempts", "", 1);
            }
            return Ok((chains, diag, report));
        }

        let mut per_chain = diag.per_chain.clone();
        let mut attempt = 1usize;
        let mut residual = worst_rhat(&diag.rhat);
        if recorder.enabled() {
            recorder.histogram_record("pacbayes.mcmc.rhat.trajectory", "", residual);
        }
        while residual > wd.rhat_threshold && attempt < wd.max_attempts {
            let rerun = divergent_chains(&diag.chain_means, d);
            // Fresh, non-overlapping streams per attempt: offset the seed
            // by attempt · golden-ratio increment, then take the same
            // per-chain jump streams as the base run.
            let streams = dplearn_numerics::rng::Xoshiro256::jump_streams(
                seed.wrapping_add((attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                n_chains,
            );
            let widened = {
                let s = self.cfg.initial_step * wd.step_widen.powi(attempt.min(64) as i32);
                if s.is_finite() {
                    s
                } else {
                    self.cfg.initial_step
                }
            };
            let retry_cfg = MhConfig {
                initial_step: widened,
                ..self.cfg.clone()
            };
            let reruns: Vec<(usize, ChainRun)> = dplearn_parallel::par_map(&rerun, 0, |_, &k| {
                // `rerun` holds chain indices `< n_chains == streams.len()`;
                // the fallback stream is unreachable.
                let mut rng = streams
                    .get(k)
                    .cloned()
                    .unwrap_or_else(|| dplearn_numerics::rng::Xoshiro256::seed_from(seed));
                (k, self.run_with_cfg(&mut rng, &retry_cfg))
            });
            total_iterations =
                total_iterations.saturating_add(rerun.len().saturating_mul(per_run_iters));
            for (k, (samples, chain_diag)) in reruns {
                if let Some(slot) = chains.get_mut(k) {
                    *slot = samples;
                }
                if let Some(slot) = per_chain.get_mut(k) {
                    *slot = chain_diag;
                }
            }
            diag = pool_diagnostics(&chains, per_chain.clone(), d, n);
            residual = worst_rhat(&diag.rhat);
            attempt += 1;
            if recorder.enabled() {
                recorder.counter_add("pacbayes.mcmc.widening_events", "", 1);
                recorder.counter_add("pacbayes.mcmc.rerun_chains", "", rerun.len() as u64);
                recorder.gauge_set("pacbayes.mcmc.widened_step", "", widened);
                recorder.histogram_record("pacbayes.mcmc.rhat.trajectory", "", residual);
            }
        }

        let converged = residual <= wd.rhat_threshold;
        let report = ConvergenceReport {
            attempts: attempt,
            converged,
            degraded: !converged,
            total_iterations,
            final_residual: residual,
        };
        if recorder.enabled() {
            recorder.counter_add("pacbayes.mcmc.attempts", "", attempt as u64);
            recorder.gauge_set("pacbayes.mcmc.final_residual", "", residual);
            if !converged {
                recorder.counter_add("pacbayes.mcmc.degraded", "", 1);
            }
        }
        Ok((chains, diag, report))
    }
}

/// Worst-dimension R̂ as a scalar divergence residual. `NaN` entries
/// (degenerate zero-variance chains) count as maximally divergent;
/// callers must handle the globally-undefined case (< 2 chains or < 2
/// samples) before calling. An empty slice (zero-dimensional parameter)
/// is trivially converged.
fn worst_rhat(rhat: &[f64]) -> f64 {
    if rhat.is_empty() {
        return 1.0;
    }
    if rhat.iter().any(|r| r.is_nan()) {
        return f64::INFINITY;
    }
    rhat.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
}

/// Chains implicated in divergence: those whose mean deviates from the
/// grand mean (in ℓ∞) by at least half the worst deviation. Chains with
/// non-finite means are always implicated; if every deviation is zero
/// the statistic is uninformative and all chains are re-run. Pure
/// function of the pooled statistics, so the rerun set is deterministic.
fn divergent_chains(chain_means: &[Vec<f64>], d: usize) -> Vec<usize> {
    // Grand mean over *finite* chain means only, so one broken chain
    // cannot poison the reference point and implicate the healthy ones.
    let grand: Vec<f64> = (0..d)
        .map(|dim| {
            let finite: Vec<f64> = chain_means
                .iter()
                .filter_map(|cm| cm.get(dim))
                .copied()
                .filter(|v| v.is_finite())
                .collect();
            if finite.is_empty() {
                0.0
            } else {
                finite.iter().sum::<f64>() / finite.len() as f64
            }
        })
        .collect();
    let devs: Vec<f64> = chain_means
        .iter()
        .map(|cm| {
            cm.iter()
                .zip(&grand)
                .map(|(&v, &g)| {
                    let diff = (v - g).abs();
                    if diff.is_nan() {
                        f64::INFINITY
                    } else {
                        diff
                    }
                })
                .fold(0.0f64, f64::max)
        })
        .collect();
    let max_dev = devs.iter().fold(0.0f64, |a, &b| a.max(b));
    if max_dev <= 0.0 {
        (0..chain_means.len()).collect()
    } else {
        devs.iter()
            .enumerate()
            .filter(|&(_, &dv)| dv >= 0.5 * max_dev)
            .map(|(k, _)| k)
            .collect()
    }
}

/// Pool per-chain runs into [`MultiChainDiagnostics`] (chain means,
/// Gelman–Rubin R̂, mean acceptance). Pure function of the chain pool, so
/// the watchdog can recompute it after re-running a subset of chains.
fn pool_diagnostics(
    chains: &[Vec<Vec<f64>>],
    per_chain: Vec<MhDiagnostics>,
    d: usize,
    n: usize,
) -> MultiChainDiagnostics {
    let n_chains = chains.len();
    let chain_means: Vec<Vec<f64>> = chains
        .iter()
        .map(|samples| {
            let mut mean = vec![0.0; d];
            for s in samples {
                for (m, &v) in mean.iter_mut().zip(s) {
                    *m += v;
                }
            }
            mean.iter_mut().for_each(|m| *m /= n as f64);
            mean
        })
        .collect();

    // Gelman–Rubin: W = mean within-chain variance, B/n = variance
    // of chain means; R̂ = sqrt(((n−1)/n·W + B/n) / W).
    let m = n_chains as f64;
    let rhat: Vec<f64> = (0..d)
        .map(|dim| {
            if n_chains < 2 || n < 2 {
                return f64::NAN;
            }
            let grand = chain_means.iter().filter_map(|cm| cm.get(dim)).sum::<f64>() / m;
            let b_over_n = chain_means
                .iter()
                .filter_map(|cm| cm.get(dim))
                .map(|&cmd| (cmd - grand).powi(2))
                .sum::<f64>()
                / (m - 1.0);
            let w = chains
                .iter()
                .zip(&chain_means)
                .map(|(samples, cm)| {
                    let cmd = cm.get(dim).copied().unwrap_or(0.0);
                    samples
                        .iter()
                        .map(|s| (s.get(dim).copied().unwrap_or(0.0) - cmd).powi(2))
                        .sum::<f64>()
                        / (n as f64 - 1.0)
                })
                .sum::<f64>()
                / m;
            if w <= 0.0 {
                // Degenerate chains (e.g. zero acceptance): spread
                // check is uninformative.
                return f64::NAN;
            }
            (((n as f64 - 1.0) / n as f64 * w + b_over_n) / w).sqrt()
        })
        .collect();

    let pooled_acceptance = per_chain
        .iter()
        .map(|diag| diag.acceptance_rate)
        .sum::<f64>()
        / m;
    MultiChainDiagnostics {
        per_chain,
        chain_means,
        pooled_acceptance,
        rhat,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dplearn_numerics::rng::Xoshiro256;
    use dplearn_numerics::stats;
    use dplearn_telemetry::NoopRecorder;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn gibbs_finite_closed_form() {
        let prior = FinitePosterior::uniform(3).unwrap();
        let risks = [0.0, 0.5, 1.0];
        let lambda = 2.0;
        let g = gibbs_finite(&prior, &risks, lambda).unwrap();
        let z: f64 = risks.iter().map(|&r| (-lambda * r).exp()).sum();
        for (i, &r) in risks.iter().enumerate() {
            close(g.prob(i), (-lambda * r).exp() / z, 1e-12);
        }
    }

    #[test]
    fn gibbs_respects_prior_support() {
        let prior = FinitePosterior::from_probs(vec![0.5, 0.5, 0.0]).unwrap();
        let g = gibbs_finite(&prior, &[1.0, 0.0, -100.0], 5.0).unwrap();
        // Hypothesis 2 has zero prior mass: stays at zero despite its
        // fantastic risk.
        assert_eq!(g.prob(2), 0.0);
        assert!(g.prob(1) > g.prob(0));
    }

    #[test]
    fn gibbs_limits() {
        let prior = FinitePosterior::uniform(4).unwrap();
        let risks = [0.3, 0.1, 0.7, 0.1];
        // λ = 0: posterior equals the prior.
        let cold = gibbs_finite(&prior, &risks, 0.0).unwrap();
        for i in 0..4 {
            close(cold.prob(i), 0.25, 1e-12);
        }
        // λ → ∞: uniform over the argmin set {1, 3}.
        let hot = gibbs_finite(&prior, &risks, 1e6).unwrap();
        close(hot.prob(1), 0.5, 1e-9);
        close(hot.prob(3), 0.5, 1e-9);
    }

    #[test]
    fn gibbs_monotone_in_lambda() {
        // Mass on the empirical-risk minimizer grows with λ.
        let prior = FinitePosterior::uniform(3).unwrap();
        let risks = [0.1, 0.4, 0.9];
        let mut prev = 0.0;
        for &l in &[0.0, 1.0, 5.0, 25.0, 125.0] {
            let g = gibbs_finite(&prior, &risks, l).unwrap();
            assert!(g.prob(0) >= prev - 1e-12);
            prev = g.prob(0);
        }
    }

    #[test]
    fn gibbs_is_invariant_to_risk_shifts() {
        // Adding a constant to all risks leaves the posterior unchanged
        // (the normalizer absorbs it) — important because it means the
        // posterior depends only on risk *differences*.
        let prior = FinitePosterior::uniform(3).unwrap();
        let a = gibbs_finite(&prior, &[0.1, 0.2, 0.3], 3.0).unwrap();
        let b = gibbs_finite(&prior, &[1.1, 1.2, 1.3], 3.0).unwrap();
        for i in 0..3 {
            close(a.prob(i), b.prob(i), 1e-12);
        }
    }

    #[test]
    fn gibbs_rejects_bad_input() {
        let prior = FinitePosterior::uniform(2).unwrap();
        assert!(gibbs_finite(&prior, &[0.1], 1.0).is_err());
        assert!(gibbs_finite(&prior, &[0.1, 0.2], f64::NAN).is_err());
        assert!(gibbs_finite(&prior, &[0.1, 0.2], -1.0).is_err());
    }

    /// Log weights with a libm `ln` of the prior per hypothesis.
    fn per_cell_log_weights(prior: &FinitePosterior, risks: &[f64], lambda: f64) -> Vec<f64> {
        let weight = |(&p, &r): (&f64, &f64)| {
            if p == 0.0 {
                f64::NEG_INFINITY
            } else {
                p.ln() - lambda * r
            }
        };
        prior.probs().iter().zip(risks).map(weight).collect()
    }

    /// The three-transcendental fold `gibbs_finite` replaced, as the
    /// oracle: an `ln` per hypothesis, `log_sum_exp`'s Kahan normalizer
    /// `z` (one `exp` per hypothesis), then `exp(wᵢ − z)`.
    fn three_transcendental_fold(
        prior: &FinitePosterior,
        risks: &[f64],
        lambda: f64,
    ) -> Result<Vec<f64>> {
        let log_weights = per_cell_log_weights(prior, risks, lambda);
        let z = dplearn_numerics::special::log_sum_exp(&log_weights);
        if !z.is_finite() {
            return Err(PacBayesError::InvalidParameter {
                name: "log_weights",
                reason: format!("log-normalizer is not finite ({z})"),
            });
        }
        Ok(log_weights.iter().map(|&w| (w - z).exp()).collect())
    }

    /// Pin `gibbs_finite` to the oracle: log weights bit for bit, every
    /// probability of at least 1e-290 within 1e-12 relative, smaller
    /// ones within 1e-300. Returns the posterior.
    fn assert_gibbs_pinned(prior: &FinitePosterior, risks: &[f64], lambda: f64) -> FinitePosterior {
        let weights = gibbs_log_weights(prior, risks, lambda);
        let per_cell = per_cell_log_weights(prior, risks, lambda);
        for (i, (a, b)) in weights.iter().zip(&per_cell).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "log weight {i}: {a} vs {b}");
        }
        let got = gibbs_finite(prior, risks, lambda).unwrap();
        let want = three_transcendental_fold(prior, risks, lambda).unwrap();
        for (i, (&p, &q)) in got.probs().iter().zip(&want).enumerate() {
            if q >= 1e-290 {
                let rel = (p - q).abs() / q;
                assert!(
                    rel <= 1e-12,
                    "λ={lambda} cell {i}: {p:e} vs {q:e} ({rel:e})"
                );
            } else {
                assert!(
                    (p - q).abs() <= 1e-300,
                    "λ={lambda} cell {i}: {p:e} vs {q:e}"
                );
            }
        }
        got
    }

    fn random_prior(k: usize, rng: &mut Xoshiro256) -> FinitePosterior {
        let w: Vec<f64> = (0..k).map(|_| 0.05 + rng.next_f64()).collect();
        let total: f64 = w.iter().sum();
        FinitePosterior::from_probs(w.iter().map(|x| x / total).collect()).unwrap()
    }

    #[test]
    fn gibbs_matches_the_oracle_on_the_benchmark_channel() {
        // `leakage_audit`'s channel: 8 rows of 2²¹ risks uniform in
        // [0, 1), one substream per row, λ = 1, uniform prior.
        let prior = FinitePosterior::uniform(1 << 21).unwrap();
        for d in 0..8u64 {
            let mut rng = Xoshiro256::substream(20_120_330, 0x0515_0000 + d);
            let risks: Vec<f64> = (0..1 << 21).map(|_| rng.next_f64()).collect();
            assert_gibbs_pinned(&prior, &risks, 1.0);
        }
    }

    #[test]
    fn gibbs_matches_the_oracle_at_every_lane_tail() {
        let mut rng = Xoshiro256::seed_from(1989);
        for k in (1..=9).chain([4099]) {
            let uniform = FinitePosterior::uniform(k).unwrap();
            let skewed = random_prior(k, &mut rng);
            for lambda in [0.5, 3.0, 50.0] {
                let risks: Vec<f64> = (0..k).map(|_| rng.next_f64()).collect();
                assert_gibbs_pinned(&uniform, &risks, lambda);
                assert_gibbs_pinned(&skewed, &risks, lambda);
            }
        }
    }

    #[test]
    fn gibbs_at_lambda_zero_returns_a_uniform_prior_bit_for_bit() {
        // Every log weight is ln(1/k), so each `exp` is exactly 1, the
        // lane sum exactly k, and each probability the prior's 1/k.
        let mut rng = Xoshiro256::seed_from(7);
        for k in (1..=9).chain([10, 100, 1000, 4099]) {
            let prior = FinitePosterior::uniform(k).unwrap();
            let risks: Vec<f64> = (0..k).map(|_| rng.next_f64()).collect();
            let post = gibbs_finite(&prior, &risks, 0.0).unwrap();
            for (p, q) in post.probs().iter().zip(prior.probs()) {
                assert_eq!(p.to_bits(), q.to_bits(), "k={k}: {p} vs {q}");
            }
        }
    }

    #[test]
    fn gibbs_takes_the_prior_ln_again_whenever_its_value_changes() {
        // A prior alternating between two values, then one in runs of
        // unequal length with zero-mass cells between equal values: the
        // remembered `ln` must never leak into a cell of another value.
        let k = 4099;
        let alternating: Vec<f64> = (0..k).map(|i| [1.0, 3.0][i % 2]).collect();
        let runs: Vec<f64> = (0..k).map(|i| [2.0, 2.0, 0.0, 2.0, 5.0][i % 5]).collect();
        let mut rng = Xoshiro256::seed_from(11);
        for w in [alternating, runs] {
            let total: f64 = w.iter().sum();
            let prior = FinitePosterior::from_probs(w.iter().map(|x| x / total).collect()).unwrap();
            let risks: Vec<f64> = (0..k).map(|_| rng.next_f64()).collect();
            let post = assert_gibbs_pinned(&prior, &risks, 2.0);
            for (p, q) in post.probs().iter().zip(prior.probs()) {
                assert_eq!(*p == 0.0, *q == 0.0);
            }
        }
    }

    #[test]
    fn gibbs_edge_risks_keep_their_meaning() {
        let prior = FinitePosterior::from_probs(vec![0.25, 0.25, 0.25, 0.25, 0.0]).unwrap();
        // A NaN risk, and a −∞ risk (an infinite weight): the same typed
        // rejection as the two-`exp` fold gives.
        for bad in [f64::NAN, f64::NEG_INFINITY] {
            let risks = [0.1, bad, 0.3, 0.4, 0.5];
            let got = gibbs_finite(&prior, &risks, 2.0).unwrap_err();
            let want = three_transcendental_fold(&prior, &risks, 2.0).unwrap_err();
            assert!(matches!(
                got,
                PacBayesError::InvalidParameter {
                    name: "log_weights",
                    ..
                }
            ));
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
        // A +∞ risk, and a zero-mass prior cell whatever its risk:
        // probability exactly 0.
        for last in [f64::NEG_INFINITY, f64::NAN, 0.0] {
            let risks = [0.1, f64::INFINITY, 0.3, 0.4, last];
            let post = assert_gibbs_pinned(&prior, &risks, 2.0);
            assert_eq!(post.prob(1).to_bits(), 0.0f64.to_bits());
            assert_eq!(post.prob(4).to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn gibbs_underflows_hypotheses_beyond_the_exp_range() {
        // λ = 800 on risks in [0, 1) spreads the log weights over ~800
        // nats, past `exp`'s ~745: the worst hypotheses get exactly 0.
        let mut rng = Xoshiro256::seed_from(1989);
        let prior = FinitePosterior::uniform(4099).unwrap();
        let risks: Vec<f64> = (0..4099).map(|_| rng.next_f64()).collect();
        let post = assert_gibbs_pinned(&prior, &risks, 800.0);
        let zeros = post.probs().iter().filter(|&&p| p == 0.0).count();
        assert!(zeros > 0 && zeros < 4099, "{zeros} hypotheses underflowed");
    }

    #[test]
    fn metropolis_recovers_gaussian_posterior() {
        // With quadratic "risk" R̂(θ) = (θ − 1)²/2 and prior N(0,1), the
        // Gibbs posterior at λ is N(λ/(1+λ), 1/(1+λ)) — conjugate form.
        let prior = DiagGaussian::isotropic(1, 1.0).unwrap();
        let lambda = 3.0;
        let mh = MetropolisGibbs::new(
            &prior,
            |t: &[f64]| 0.5 * (t[0] - 1.0).powi(2),
            lambda,
            MhConfig {
                burn_in: 3000,
                n_samples: 4000,
                thin: 5,
                initial_step: 0.5,
            },
        )
        .unwrap();
        let mut rng = Xoshiro256::seed_from(61);
        let (samples, diag) = mh.run(&mut rng);
        assert_eq!(diag.n_samples, 4000);
        assert!(
            diag.acceptance_rate > 0.1 && diag.acceptance_rate < 0.7,
            "acceptance {}",
            diag.acceptance_rate
        );
        let xs: Vec<f64> = samples.iter().map(|s| s[0]).collect();
        let want_mean = lambda / (1.0 + lambda);
        let want_var = 1.0 / (1.0 + lambda);
        close(stats::mean(&xs).unwrap(), want_mean, 0.05);
        close(stats::variance(&xs).unwrap(), want_var, 0.05);
    }

    #[test]
    fn metropolis_at_lambda_zero_samples_the_prior() {
        let prior = DiagGaussian::new(vec![2.0], vec![0.7]).unwrap();
        let mh = MetropolisGibbs::new(&prior, |_t: &[f64]| 0.0, 0.0, MhConfig::default()).unwrap();
        let mut rng = Xoshiro256::seed_from(62);
        let (samples, _) = mh.run(&mut rng);
        let xs: Vec<f64> = samples.iter().map(|s| s[0]).collect();
        close(stats::mean(&xs).unwrap(), 2.0, 0.08);
        close(stats::variance(&xs).unwrap(), 0.49, 0.1);
    }

    #[test]
    fn metropolis_validates_config() {
        let prior = DiagGaussian::isotropic(1, 1.0).unwrap();
        assert!(MetropolisGibbs::new(&prior, |_t: &[f64]| 0.0, -1.0, MhConfig::default()).is_err());
        let bad = MhConfig {
            n_samples: 0,
            ..MhConfig::default()
        };
        assert!(MetropolisGibbs::new(&prior, |_t: &[f64]| 0.0, 1.0, bad).is_err());
    }

    #[test]
    fn mh_config_validate_rejects_footguns() {
        assert!(MhConfig::default().validate().is_ok());
        let thin0 = MhConfig {
            thin: 0,
            ..MhConfig::default()
        };
        assert!(matches!(
            thin0.validate(),
            Err(PacBayesError::InvalidParameter { name: "thin", .. })
        ));
        let no_samples = MhConfig {
            n_samples: 0,
            ..MhConfig::default()
        };
        assert!(matches!(
            no_samples.validate(),
            Err(PacBayesError::InvalidParameter {
                name: "n_samples",
                ..
            })
        ));
        let bad_step = MhConfig {
            initial_step: 0.0,
            ..MhConfig::default()
        };
        assert!(bad_step.validate().is_err());
        let nan_step = MhConfig {
            initial_step: f64::NAN,
            ..MhConfig::default()
        };
        assert!(nan_step.validate().is_err());
        let overflow = MhConfig {
            n_samples: usize::MAX,
            thin: 2,
            ..MhConfig::default()
        };
        assert!(overflow.validate().is_err());
    }

    #[test]
    fn multi_chain_recovers_posterior_and_converges() {
        // Same conjugate setup as the single-chain test: posterior is
        // N(λ/(1+λ), 1/(1+λ)).
        let prior = DiagGaussian::isotropic(1, 1.0).unwrap();
        let lambda = 3.0;
        let mh = MetropolisGibbs::new(
            &prior,
            |t: &[f64]| 0.5 * (t[0] - 1.0).powi(2),
            lambda,
            MhConfig {
                burn_in: 2000,
                n_samples: 1500,
                thin: 3,
                initial_step: 0.5,
            },
        )
        .unwrap();
        let (chains, diag) = mh.sample_chains(4, 271, &NoopRecorder).unwrap();
        assert_eq!(chains.len(), 4);
        assert!(chains.iter().all(|c| c.len() == 1500));
        assert_eq!(diag.per_chain.len(), 4);
        assert!(
            diag.pooled_acceptance > 0.1 && diag.pooled_acceptance < 0.7,
            "pooled acceptance {}",
            diag.pooled_acceptance
        );
        // Pooled mean across chains matches the conjugate posterior.
        let pooled: Vec<f64> = chains.iter().flatten().map(|s| s[0]).collect();
        close(stats::mean(&pooled).unwrap(), lambda / (1.0 + lambda), 0.05);
        // Chains agree: R̂ close to 1.
        assert!(
            diag.rhat[0].is_finite() && (diag.rhat[0] - 1.0).abs() < 0.1,
            "rhat {}",
            diag.rhat[0]
        );
    }

    #[test]
    fn multi_chain_is_thread_count_invariant_and_seed_sensitive() {
        let prior = DiagGaussian::isotropic(2, 1.0).unwrap();
        let mh = MetropolisGibbs::new(
            &prior,
            |t: &[f64]| 0.5 * (t[0] * t[0] + t[1] * t[1]),
            2.0,
            MhConfig {
                burn_in: 200,
                n_samples: 100,
                thin: 2,
                initial_step: 0.4,
            },
        )
        .unwrap();
        let run = |seed: u64| mh.sample_chains(3, seed, &NoopRecorder).unwrap().0;
        dplearn_parallel::set_thread_count(1);
        let one = run(5);
        dplearn_parallel::set_thread_count(4);
        let four = run(5);
        dplearn_parallel::set_thread_count(0);
        assert_eq!(one, four, "chains must not depend on thread count");
        assert_ne!(run(5), run(6), "different seeds should differ");
        assert!(mh.sample_chains(0, 1, &NoopRecorder).is_err());
    }

    /// A sharply bimodal Gibbs target: modes at ±3, barrier high enough
    /// (λ·9 nats) that a narrow-step random walk never crosses.
    fn bimodal_sampler(
        prior: &DiagGaussian,
        initial_step: f64,
    ) -> MetropolisGibbs<'_, impl Fn(&[f64]) -> f64 + Sync> {
        MetropolisGibbs::new(
            prior,
            |t: &[f64]| {
                let x = t[0];
                ((x - 3.0).powi(2)).min((x + 3.0).powi(2))
            },
            8.0,
            MhConfig {
                burn_in: 200,
                n_samples: 300,
                thin: 1,
                initial_step,
            },
        )
        .unwrap()
    }

    #[test]
    fn watchdog_passes_through_when_chains_agree() {
        // Unimodal conjugate target: first attempt converges, the
        // watchdog must return exactly what sample_chains returns.
        let prior = DiagGaussian::isotropic(1, 1.0).unwrap();
        let mh = MetropolisGibbs::new(
            &prior,
            |t: &[f64]| 0.5 * (t[0] - 1.0).powi(2),
            3.0,
            MhConfig {
                burn_in: 1000,
                n_samples: 800,
                thin: 2,
                initial_step: 0.5,
            },
        )
        .unwrap();
        let (plain, plain_diag) = mh.sample_chains(4, 271, &NoopRecorder).unwrap();
        let (chains, diag, report) = mh
            .sample_chains_watched(4, 271, &WatchdogConfig::default(), &NoopRecorder)
            .unwrap();
        assert_eq!(chains, plain, "converged first try must be a pass-through");
        assert_eq!(diag.rhat, plain_diag.rhat);
        assert_eq!(report.attempts, 1);
        assert!(report.converged && !report.degraded);
        assert!(report.final_residual.is_finite() && report.final_residual < 1.1);
        assert_eq!(report.total_iterations, 4 * (1000 + 800 * 2));
    }

    #[test]
    fn watchdog_recovers_mode_trapped_chains() {
        // Narrow proposals trap each chain in whichever mode it falls
        // into first; with chains split across ±3 the first attempt has
        // R̂ ≫ threshold. Retries widen the step ×8 per attempt, letting
        // re-run chains hop modes and mix.
        let prior = DiagGaussian::isotropic(1, 3.0).unwrap();
        let mh = bimodal_sampler(&prior, 0.05);
        let wd = WatchdogConfig {
            rhat_threshold: 1.2,
            max_attempts: 4,
            step_widen: 8.0,
        };
        // Establish the injected failure: the bare (unwatched) run on
        // this seed genuinely diverges.
        let (_, bare_diag) = mh.sample_chains(4, 97, &NoopRecorder).unwrap();
        let bare_worst = super::worst_rhat(&bare_diag.rhat);
        assert!(
            bare_worst > wd.rhat_threshold,
            "test premise: bare run should diverge, got R̂ = {bare_worst}"
        );
        let (chains, diag, report) = mh.sample_chains_watched(4, 97, &wd, &NoopRecorder).unwrap();
        assert!(
            report.converged && !report.degraded,
            "watchdog should recover: {report}"
        );
        assert!(
            report.attempts > 1,
            "recovery must require a retry: {report}"
        );
        assert!(report.final_residual <= wd.rhat_threshold);
        assert_eq!(super::worst_rhat(&diag.rhat), report.final_residual);
        assert_eq!(chains.len(), 4);
        assert!(chains.iter().all(|c| c.len() == 300));
        assert!(
            report.total_iterations > 4 * (200 + 300),
            "retries must consume extra budget"
        );
    }

    #[test]
    fn watchdog_is_deterministic_across_thread_counts() {
        let prior = DiagGaussian::isotropic(1, 3.0).unwrap();
        let mh = bimodal_sampler(&prior, 0.05);
        let wd = WatchdogConfig {
            rhat_threshold: 1.2,
            max_attempts: 4,
            step_widen: 8.0,
        };
        let run = |seed: u64| {
            mh.sample_chains_watched(4, seed, &wd, &NoopRecorder)
                .unwrap()
        };
        dplearn_parallel::set_thread_count(1);
        let (c1, d1, r1) = run(97);
        dplearn_parallel::set_thread_count(4);
        let (c4, d4, r4) = run(97);
        dplearn_parallel::set_thread_count(0);
        assert_eq!(c1, c4, "watched chains must not depend on thread count");
        assert_eq!(d1.rhat, d4.rhat);
        assert_eq!(r1, r4, "retry schedule must not depend on thread count");
    }

    #[test]
    fn watchdog_reports_degraded_when_budget_exhausted() {
        // No widening and a single retry: the mode-trapped pool cannot
        // recover, and the watchdog must degrade gracefully (return the
        // pool, flag it) rather than error or loop.
        let prior = DiagGaussian::isotropic(1, 3.0).unwrap();
        let mh = bimodal_sampler(&prior, 0.05);
        let wd = WatchdogConfig {
            rhat_threshold: 1.05,
            max_attempts: 2,
            step_widen: 1.0,
        };
        let (chains, _diag, report) = mh.sample_chains_watched(4, 97, &wd, &NoopRecorder).unwrap();
        assert!(!report.converged && report.degraded, "{report}");
        assert_eq!(report.attempts, 2);
        assert!(report.final_residual > wd.rhat_threshold);
        assert_eq!(chains.len(), 4);
    }

    #[test]
    fn watchdog_undefined_rhat_is_trivially_converged() {
        let prior = DiagGaussian::isotropic(1, 1.0).unwrap();
        let mh = MetropolisGibbs::new(
            &prior,
            |t: &[f64]| t[0].powi(2),
            1.0,
            MhConfig {
                burn_in: 50,
                n_samples: 20,
                thin: 1,
                initial_step: 0.5,
            },
        )
        .unwrap();
        let (chains, _diag, report) = mh
            .sample_chains_watched(1, 7, &WatchdogConfig::default(), &NoopRecorder)
            .unwrap();
        assert_eq!(chains.len(), 1);
        assert_eq!(report.attempts, 1);
        assert!(report.converged && !report.degraded);
        assert!(report.final_residual.is_nan());
    }

    #[test]
    fn watchdog_validates_config() {
        let prior = DiagGaussian::isotropic(1, 1.0).unwrap();
        let mh = MetropolisGibbs::new(&prior, |_t: &[f64]| 0.0, 1.0, MhConfig::default()).unwrap();
        for bad in [
            WatchdogConfig {
                rhat_threshold: 0.9,
                ..WatchdogConfig::default()
            },
            WatchdogConfig {
                rhat_threshold: f64::NAN,
                ..WatchdogConfig::default()
            },
            WatchdogConfig {
                max_attempts: 0,
                ..WatchdogConfig::default()
            },
            WatchdogConfig {
                step_widen: 0.5,
                ..WatchdogConfig::default()
            },
        ] {
            assert!(
                mh.sample_chains_watched(2, 1, &bad, &NoopRecorder).is_err(),
                "{bad:?} should be rejected"
            );
        }
        assert!(WatchdogConfig::default().validate().is_ok());
    }

    #[test]
    fn recorded_sampling_matches_plain_and_counts_widening_events() {
        use dplearn_telemetry::MemoryRecorder;
        let prior = DiagGaussian::isotropic(1, 3.0).unwrap();
        let mh = bimodal_sampler(&prior, 0.05);
        let wd = WatchdogConfig {
            rhat_threshold: 1.2,
            max_attempts: 4,
            step_widen: 8.0,
        };
        let recorder = MemoryRecorder::new();
        let (plain, _, plain_report) = mh.sample_chains_watched(4, 97, &wd, &NoopRecorder).unwrap();
        let (observed, _, report) = mh.sample_chains_watched(4, 97, &wd, &recorder).unwrap();
        // Observing the run must not change it.
        assert_eq!(observed, plain);
        assert_eq!(report, plain_report);
        assert!(report.attempts > 1, "premise: this seed needs retries");

        let snap = recorder.snapshot().unwrap();
        let counter = |key: &str| {
            snap.counters
                .iter()
                .find(|(k, _)| k == key)
                .map(|&(_, v)| v)
        };
        assert_eq!(counter("pacbayes.mcmc.runs"), Some(1));
        assert_eq!(counter("pacbayes.mcmc.chains"), Some(4));
        assert_eq!(
            counter("pacbayes.mcmc.attempts"),
            Some(report.attempts as u64)
        );
        assert_eq!(
            counter("pacbayes.mcmc.widening_events"),
            Some(report.attempts as u64 - 1)
        );
        assert!(counter("pacbayes.mcmc.rerun_chains").unwrap_or(0) >= 1);
        // The R̂ trajectory has one observation per attempt.
        let traj = snap
            .histograms
            .iter()
            .find(|(k, _)| k == "pacbayes.mcmc.rhat.trajectory")
            .map(|(_, h)| h)
            .unwrap();
        assert_eq!(
            traj.total + traj.non_finite,
            report.attempts as u64,
            "one trajectory point per attempt"
        );
        let final_residual = snap
            .gauges
            .iter()
            .find(|(k, _)| k == "pacbayes.mcmc.final_residual")
            .map(|&(_, v)| v)
            .unwrap();
        assert_eq!(final_residual.to_bits(), report.final_residual.to_bits());
    }

    #[test]
    fn divergent_chain_selection_is_sound() {
        // Two far chains, two near: only the far ones are implicated.
        let means = vec![vec![3.0], vec![-3.0], vec![0.1], vec![-0.1]];
        assert_eq!(super::divergent_chains(&means, 1), vec![0, 1]);
        // All identical: uninformative, re-run everything.
        let same = vec![vec![1.0], vec![1.0], vec![1.0]];
        assert_eq!(super::divergent_chains(&same, 1), vec![0, 1, 2]);
        // Non-finite mean: that chain is always implicated.
        let broken = vec![vec![f64::NAN], vec![0.0], vec![0.0]];
        assert_eq!(super::divergent_chains(&broken, 1), vec![0]);
        // worst_rhat: NaN entries are maximally divergent.
        assert!(super::worst_rhat(&[1.01, f64::NAN]).is_infinite());
        assert_eq!(super::worst_rhat(&[]), 1.0);
        assert_eq!(super::worst_rhat(&[1.3, 1.05]), 1.3);
    }
}
