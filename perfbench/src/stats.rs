//! Sample summaries and operation accounting.

use std::collections::BTreeMap;

/// Fewest samples a reported tail percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice or `q` outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "percentile rank {q} outside (0, 1]");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps 0.99 * 1000 from landing on 990.0000000000001.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank `q` percentile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The tail percentile the rule allows for `n` samples: the highest of
/// p99.9, p99, p95, p90 and p50 that keeps at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_rank(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.90, 0.50]
        .into_iter()
        .find(|&q| beyond(n, q) >= TAIL_MIN_BEYOND)
}

/// The p99 of `samples` when the rule supports it, else the highest
/// supported percentile (or the maximum, for tiny smoke runs), together
/// with the percentile actually used.
pub fn p99_or_supported(sorted: &[f64]) -> (f64, f64) {
    let q = match tail_rank(sorted.len()) {
        Some(q) if q >= 0.99 => 0.99,
        Some(q) => q,
        None => 1.0,
    };
    (percentile(sorted, q), q)
}

/// Median of an ascending slice (nearest rank).
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 0.5)
}

/// Sort a sample vector ascending (total order; the benchmark never
/// records NaN).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Sent, succeeded and failed counts of one operation type in one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
}

/// Operation accounting keyed by `(phase, operation)`. Every operation the
/// benchmark attempts is recorded here exactly once, as a success or a
/// failure; timeouts, connection errors, error responses and wrong
/// answers are failures.
#[derive(Debug, Default)]
pub struct Ledger {
    rows: BTreeMap<(String, &'static str), Tally>,
}

impl Ledger {
    /// Record one attempted operation.
    pub fn record(&mut self, phase: &str, op: &'static str, ok: bool) {
        let row = self.rows.entry((phase.to_string(), op)).or_default();
        row.sent += 1;
        if ok {
            row.ok += 1;
        } else {
            row.failed += 1;
        }
    }

    /// Reclassify `count` already-recorded successes as failures (answers
    /// found wrong after the fact).
    pub fn demote(&mut self, phase: &str, op: &'static str, count: u64) {
        let row = self.rows.entry((phase.to_string(), op)).or_default();
        let count = count.min(row.ok);
        row.ok -= count;
        row.failed += count;
    }

    /// Add every row of `other` under phase `<prefix>/<phase>`.
    pub fn absorb(&mut self, prefix: &str, other: &Ledger) {
        for ((phase, op), t) in &other.rows {
            self.rows.insert((format!("{prefix}/{phase}"), op), *t);
        }
    }

    /// Totals over every phase and operation.
    pub fn total(&self) -> Tally {
        self.rows.values().fold(Tally::default(), |acc, t| Tally {
            sent: acc.sent + t.sent,
            ok: acc.ok + t.ok,
            failed: acc.failed + t.failed,
        })
    }

    /// Totals of one operation type over every phase.
    pub fn op_total(&self, op: &str) -> Tally {
        self.rows
            .iter()
            .filter(|((_, o), _)| *o == op)
            .fold(Tally::default(), |acc, (_, t)| Tally {
                sent: acc.sent + t.sent,
                ok: acc.ok + t.ok,
                failed: acc.failed + t.failed,
            })
    }

    /// Failed over attempted, or 0 when nothing was attempted.
    pub fn error_rate(&self) -> f64 {
        let t = self.total();
        if t.sent == 0 {
            0.0
        } else {
            t.failed as f64 / t.sent as f64
        }
    }

    /// The rows as `(phase, op, tally)`, in key order.
    pub fn rows(&self) -> impl Iterator<Item = (&str, &str, Tally)> {
        self.rows
            .iter()
            .map(|((phase, op), t)| (phase.as_str(), *op, *t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail_rank(1000), Some(0.99));
        assert_eq!(tail_rank(999), Some(0.95));
        assert_eq!(tail_rank(10_000), Some(0.999));
        assert_eq!(tail_rank(200), Some(0.95));
        assert_eq!(tail_rank(100), Some(0.90));
        assert_eq!(tail_rank(20), Some(0.50));
        assert_eq!(tail_rank(19), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 990.0);
        assert_eq!(percentile(&xs, 0.5), 500.0);
        assert_eq!(percentile(&xs, 1.0), 1000.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(p99_or_supported(&xs), (990.0, 0.99));
        // 10k samples support p99.9, but the p99 metric stays a p99.
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(p99_or_supported(&many), (9900.0, 0.99));
        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p99_or_supported(&few), (90.0, 0.90));
    }

    #[test]
    fn ledger_counts_failures_per_phase_and_op() {
        let mut ledger = Ledger::default();
        ledger.record("load", "read", true);
        ledger.record("load", "read", false);
        ledger.record("load", "insert", true);
        ledger.record("check", "read", true);
        ledger.demote("check", "read", 1);
        assert_eq!(
            ledger.total(),
            Tally {
                sent: 4,
                ok: 2,
                failed: 2
            }
        );
        assert_eq!(ledger.op_total("read").failed, 2);
        assert_eq!(ledger.error_rate(), 0.5);
        assert_eq!(ledger.rows().count(), 3);
        let mut all = Ledger::default();
        all.absorb("w", &ledger);
        assert_eq!(all.total(), ledger.total());
        assert_eq!(all.rows().next().unwrap().0, "w/check");
    }
}
