//! Order statistics, failure accounting and fingerprints shared by every
//! workload. Pure functions, covered by the unit tests at the bottom.

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in `[0, 100]`) of ascending samples:
/// the smallest sample with at least `p`% of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples. The
/// epsilon keeps decimal percentiles such as 99.9 from rounding up a
/// rank that is exact in decimal.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile in [`TAIL_PERCENTILES`] that leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` samples strictly beyond its nearest rank;
/// `None` when even the lowest candidate has too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= TAIL_MIN_BEYOND)
}

/// Median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Sorted copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Ops attempted and failed by one run. A correctness violation (an
/// oracle breach, a failed restore check, a non-reproducible rerun)
/// fails every op of the run, whatever the per-op outcome was.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTally {
    /// Ops attempted (groups, jobs or requests).
    pub attempted: u64,
    /// Ops that individually failed.
    pub failed_ops: u64,
    /// Whether the run as a whole violated a correctness check.
    pub violation: bool,
}

impl OpTally {
    /// Fold another run's tally into this one: a violating run
    /// contributes all of its ops as failed, a clean one its failed ops.
    pub fn add(&mut self, other: OpTally) {
        self.attempted += other.attempted;
        self.failed_ops += other.failed();
    }

    /// Ops counted as failed.
    pub fn failed(&self) -> u64 {
        if self.violation {
            self.attempted
        } else {
            self.failed_ops.min(self.attempted)
        }
    }

    /// Failed ops over attempted ops (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Whether the run passed: no violation and no failed op.
    pub fn clean(&self) -> bool {
        self.failed() == 0
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// 64-bit FNV-1a hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Fingerprint of a telemetry document: FNV-1a over its lines with the
/// `run.shards` execution echo removed, so serial and sharded runs of
/// the same simulation share a fingerprint and any change to a simulated
/// statistic changes it.
pub fn sim_fingerprint(telemetry_json: &str) -> String {
    let kept: Vec<&str> = telemetry_json
        .lines()
        .filter(|l| !l.contains("\"run.shards\""))
        .collect();
    format!("{:016x}", fnv1a(kept.join("\n").as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&s, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&s, 99.5), Some(100.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        // Four samples: p50 is the 2nd, p75 the 3rd, p76 the 4th.
        let four = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&four, 50.0), Some(2.0));
        assert_eq!(nearest_rank(&four, 75.0), Some(3.0));
        assert_eq!(nearest_rank(&four, 76.0), Some(4.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // p99.9 of 10_000 samples has rank 9_990: exactly 10 beyond.
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        // p99 of 1000 has rank 990: 10 beyond.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(16), None);
        assert_eq!(tail_percentile(0), None);
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn fail_frac_counts_failed_ops() {
        let t = OpTally {
            attempted: 16,
            failed_ops: 4,
            violation: false,
        };
        assert_eq!(t.failed(), 4);
        assert_eq!(t.fail_frac(), 0.25);
        assert!(!t.clean());
        assert_eq!(OpTally::default().fail_frac(), 0.0);
        let ok = OpTally {
            attempted: 1200,
            ..OpTally::default()
        };
        assert!(ok.clean());
        assert_eq!(ok.fail_frac(), 0.0);
    }

    #[test]
    fn a_violation_fails_every_op() {
        let t = OpTally {
            attempted: 13_136,
            failed_ops: 0,
            violation: true,
        };
        assert_eq!(t.failed(), 13_136);
        assert_eq!(t.fail_frac(), 1.0);
        // Summing runs: a violating run contributes all of its ops, a
        // clean one only its failed ops.
        let mut sum = OpTally {
            attempted: 16,
            failed_ops: 1,
            violation: false,
        };
        sum.add(OpTally {
            attempted: 16,
            failed_ops: 2,
            violation: true,
        });
        assert_eq!(sum.attempted, 32);
        assert_eq!(sum.failed(), 17);
        assert!(
            !sum.violation,
            "one run's violation does not taint the sum's other runs"
        );
    }

    #[test]
    fn metric_names_follow_the_pattern() {
        for good in [
            "wall_s",
            "netsim.switch.forward_ns",
            "attrib.rnic.qp.share",
            "p-99",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn fingerprint_ignores_only_the_shard_echo() {
        let a = "{\n  \"run.events\": 5,\n  \"run.shards\": 1\n}";
        let b = "{\n  \"run.events\": 5,\n  \"run.shards\": 2\n}";
        let c = "{\n  \"run.events\": 6,\n  \"run.shards\": 1\n}";
        assert_eq!(sim_fingerprint(a), sim_fingerprint(b));
        assert_ne!(sim_fingerprint(a), sim_fingerprint(c));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
