//! What one run reports: checks, metric values, the result line, and
//! the digest that pins a run's outputs.

use dplearn_engine::request::{QueryOutcome, QueryValue};
use dplearn_mechanisms::sparse_vector::SvtAnswer;

/// Outcome of a run's correctness checks.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Record a check; a failing one is printed to stderr at once.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.failures.push(msg);
        }
    }

    /// Number of failed checks.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// A named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The last line of standard output: one JSON object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Shortest round-trip decimal; JSON has no NaN or infinity, so a
/// non-finite value (a bug upstream) is written as 0 and the run's
/// metrics are checked for finiteness separately.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// `q`-quantile (0 ≤ q ≤ 1) by nearest rank over unsorted samples.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
    let (_, v, _) = samples.select_nth_unstable_by(rank, f64::total_cmp);
    *v
}

/// Median of a small sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    quantile(&mut s, 0.5)
}

/// A word-at-a-time hash of a run's outputs in op order: two runs with
/// equal digests produced bit-identical outputs (up to a 2⁻⁶⁴ chance).
/// Cheap enough to run inside the timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Digest(u64);

impl Digest {
    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.u64(u64::from_le_bytes(word));
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn outcome(&mut self, outcome: &QueryOutcome) {
        match outcome {
            QueryOutcome::Executed {
                value,
                cost,
                attempts,
            } => {
                self.u64(1);
                match value {
                    QueryValue::Scalar(v) => self.f64(*v),
                    QueryValue::Index(i) => self.u64(*i as u64),
                    QueryValue::Draws(vs) => vs.iter().for_each(|v| self.f64(*v)),
                    QueryValue::SvtTranscript(answers) => answers
                        .iter()
                        .for_each(|a| self.u64(u64::from(*a == SvtAnswer::Above))),
                }
                self.f64(cost.epsilon);
                self.f64(cost.delta);
                self.u64(*attempts as u64);
            }
            QueryOutcome::Rejected { error } => {
                self.u64(2);
                self.bytes(error.to_string().as_bytes());
            }
            QueryOutcome::Faulted {
                error, attempts, ..
            } => {
                self.u64(3);
                self.bytes(error.to_string().as_bytes());
                self.u64(*attempts as u64);
            }
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&mut s, 0.5), 5.0);
        assert_eq!(quantile(&mut s, 0.9), 9.0);
        assert_eq!(quantile(&mut s, 1.0), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s",
                unit: "s",
                value: 0.25,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
