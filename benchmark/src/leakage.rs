//! `leakage_audit`: the learner as an information channel (the paper's
//! Fig. 1). Datasets go in, hypotheses come out through the Gibbs
//! posterior; one op audits the channel's realized ε, exact mutual
//! information and min-entropy leakage, and solves one rate–distortion
//! problem with Blahut–Arimoto.

use crate::report::{Checks, Digest};
use crate::trace::{self, Name, Phase};
use crate::{Args, RunOutput, Timed};
use dplearn_infotheory::blahut_arimoto::{blahut_arimoto_tiled, BaTileOptions};
use dplearn_infotheory::dp_bounds::cuff_yu_mi_charge_nats;
use dplearn_infotheory::flat::FlatChannel;
use dplearn_numerics::rng::{Rng, Xoshiro256};
use dplearn_pacbayes::gibbs::gibbs_finite;
use dplearn_pacbayes::posterior::FinitePosterior;
use std::time::Instant;

/// Gibbs inverse temperature: risks lie in [0, 1), so every pair of
/// rows is within a log-ratio of 2λ and the channel is 2λ-DP.
const LAMBDA: f64 = 1.0;
/// Blahut–Arimoto slope: with the absolute-distance distortion below,
/// 384 symbols converge to [`BA_TOL`] in a few hundred iterations.
const BA_BETA: f64 = 16.0;
const BA_TOL: f64 = 1e-5;
const BA_MAX_ITERS: usize = 2_000;
const SETUP_REPS: usize = 3;
const RESTART_REPS: usize = 3;

/// Channel and solver sizes.
struct Shape {
    /// Neighbouring datasets (channel inputs).
    datasets: usize,
    /// Hypotheses (channel outputs).
    hypotheses: usize,
    /// Blahut–Arimoto alphabet size.
    ba_symbols: usize,
}

impl Shape {
    fn for_args(args: &Args) -> Self {
        if args.tiny {
            Shape {
                datasets: 4,
                hypotheses: 4_096,
                ba_symbols: 128,
            }
        } else {
            // 8 × 2²¹ cells: a 128 MiB kernel, larger than the reference
            // host's 105 MiB last-level cache. Realized ε compares every
            // pair of rows, so the row count sets its cost quadratically.
            Shape {
                datasets: 8,
                hypotheses: 1 << 21,
                ba_symbols: 384,
            }
        }
    }

    /// Tile for the realized-ε scan: one anchor row per task.
    const EPS_TILE: usize = 1;

    /// Tile for exact MI and min-entropy leakage: 32 KiB of each row per
    /// column tile.
    const SCAN_TILE: usize = 4_096;
}

/// Leakage-side tallies that feed per-layer metrics.
#[derive(Debug, Default)]
pub struct LeakTally {
    pub ops: u64,
    pub ba_iterations: u64,
    pub ba_final_gap: f64,
    /// Kernel cells updated by BA in the timed phase.
    pub ba_cells: f64,
    /// Cells of the audited channel's kernel.
    pub channel_cells: f64,
}

/// The seed's risk matrix, row-major `datasets × hypotheses`, in [0, 1).
fn risk_matrix(seed: u64, shape: &Shape) -> Vec<f64> {
    let mut risks = Vec::with_capacity(shape.datasets * shape.hypotheses);
    for d in 0..shape.datasets {
        let mut rng = Xoshiro256::substream(seed, 0x0515_0000 + d as u64);
        risks.extend((0..shape.hypotheses).map(|_| rng.next_f64()));
    }
    risks
}

/// A rate–distortion problem on `n` symbols: `mi_scale`'s source with
/// distortion `|x − y| / n`. It is fixed, not drawn from the seed, so
/// its iteration count repeats exactly. (`mi_scale`'s own distortion
/// needs over a thousand iterations below 1024 symbols.)
fn ba_problem(n: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    let raw: Vec<f64> = (0..n).map(|x| 1.0 + (x % 3) as f64).collect();
    let z: f64 = raw.iter().sum();
    let source = raw.iter().map(|&w| w / z).collect();
    let distortion = (0..n)
        .map(|x| {
            (0..n)
                .map(|y| (x as f64 - y as f64).abs() / n as f64)
                .collect()
        })
        .collect();
    (source, distortion)
}

/// Build the learning channel: one Gibbs posterior per dataset.
fn build_channel(phase: Phase, shape: &Shape, risks: &[f64]) -> FlatChannel {
    let kernel = trace::call(phase, Name::GibbsBuild, false, || {
        let prior = FinitePosterior::uniform(shape.hypotheses).expect("a non-empty prior");
        let mut kernel = Vec::with_capacity(risks.len());
        for row in risks.chunks(shape.hypotheses) {
            let posterior = gibbs_finite(&prior, row, LAMBDA).expect("finite risks");
            kernel.extend_from_slice(posterior.probs());
        }
        kernel
    });
    trace::call(phase, Name::FlatBuild, false, || {
        let input = vec![1.0 / shape.datasets as f64; shape.datasets];
        FlatChannel::new(input, kernel, shape.hypotheses).expect("Gibbs rows are distributions")
    })
}

pub fn run_leakage(args: &Args) -> RunOutput {
    let shape = Shape::for_args(args);
    let risks = risk_matrix(args.seed, &shape);
    let (source, distortion) = ba_problem(shape.ba_symbols);
    let opts = BaTileOptions::default();
    let mut checks = Checks::default();
    let mut digest = Digest::default();

    let reps = if args.tiny { 2 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut channel: Option<FlatChannel> = None;
    for _ in 0..reps {
        // Drop the previous channel first: one 128 MiB kernel at a time.
        drop(channel.take());
        let start = Instant::now();
        channel = Some(build_channel(Phase::Setup, &shape, &risks));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let channel = channel.expect("at least one set-up ran");

    // Outside the timed phase: the blocked MI against its serial
    // reference. This also starts the worker pool and warms the caches.
    let mi_ref = channel
        .mutual_information_blocked(Shape::SCAN_TILE)
        .expect("valid tile");
    let naive = channel.mutual_information_naive();
    checks.check(
        (mi_ref - naive).abs() <= 1e-12 * naive.abs().max(f64::MIN_POSITIVE),
        || format!("blocked MI {mi_ref:e} differs from the naive reference {naive:e}"),
    );

    let mut tally = LeakTally {
        channel_cells: (shape.datasets * shape.hypotheses) as f64,
        ..LeakTally::default()
    };
    let mut latencies_ns = Vec::new();
    let mut failed = 0u64;
    let mut timed = Timed::start();
    while !timed.done(args, tally.ops, tally.ops, latencies_ns.len()) {
        let start = Instant::now();
        let eps = trace::call(Phase::Run, Name::FlatMaxLogRatio, false, || {
            channel.max_row_log_ratio_blocked(Shape::EPS_TILE)
        });
        let mi = trace::call(Phase::Run, Name::FlatMi, false, || {
            channel.mutual_information_blocked(Shape::SCAN_TILE)
        });
        let leak = trace::call(Phase::Run, Name::FlatMinEntropy, false, || {
            channel.min_entropy_leakage_bits_blocked(Shape::SCAN_TILE)
        });
        let rd = trace::call(Phase::Run, Name::BaSolve, false, || {
            blahut_arimoto_tiled(&source, &distortion, BA_BETA, BA_TOL, BA_MAX_ITERS, &opts)
        });
        latencies_ns.push(start.elapsed().as_nanos() as u64);
        tally.ops += 1;

        let (eps, mi, leak, rd) = match (eps, mi, leak, rd) {
            (Ok(eps), Ok(mi), Ok(leak), Ok(rd)) => (eps, mi, leak, rd),
            (eps, mi, leak, rd) => {
                eprintln!("op {}: {eps:?} {mi:?} {leak:?} {:?}", tally.ops, rd.err());
                failed += 1;
                continue;
            }
        };
        let charge = cuff_yu_mi_charge_nats(eps).unwrap_or(f64::NAN);
        let ok = rd.final_gap <= BA_TOL
            && mi.to_bits() == mi_ref.to_bits()
            && mi <= charge + 1e-12
            && charge <= eps
            && eps <= 2.0 * LAMBDA + 1e-9
            && leak.is_finite();
        if !ok {
            eprintln!(
                "op {}: ε {eps} MI {mi} charge {charge} leak {leak} BA gap {}",
                tally.ops, rd.final_gap
            );
            failed += 1;
        }
        tally.ba_iterations = rd.iterations as u64;
        tally.ba_final_gap = rd.final_gap;
        tally.ba_cells += (rd.iterations * shape.ba_symbols * shape.ba_symbols) as f64;
        for v in [eps, mi, leak, rd.rate, rd.distortion] {
            digest.f64(v);
        }
        digest.u64(rd.iterations as u64);
    }
    let measured = timed.stop(tally.ops, latencies_ns.len());
    checks.check(failed == 0, || {
        format!("{failed} audits failed a bound, the BA tolerance or MI reproducibility")
    });

    drop(channel);
    let reps = if args.tiny { 1 } else { RESTART_REPS };
    let mut recover_s = Vec::with_capacity(reps);
    for rep in 0..reps {
        let start = Instant::now();
        let rebuilt = build_channel(Phase::Restart, &shape, &risks);
        recover_s.push(start.elapsed().as_secs_f64());
        let mi = rebuilt.mutual_information_blocked(Shape::SCAN_TILE);
        checks.check(
            matches!(mi, Ok(v) if v.to_bits() == mi_ref.to_bits()),
            || format!("restart {rep}: rebuilt channel's MI differs"),
        );
    }

    RunOutput {
        setup_s,
        recover_s,
        measured,
        ops: tally.ops,
        rounds: tally.ops,
        attempted: tally.ops,
        latencies_ns,
        failed_ops: failed,
        checks,
        digest,
        serve: None,
        leak: Some(tally),
    }
}
