//! Reporting rules shared by every workload: which percentiles may be
//! reported, when an open-loop run is over capacity, and how the
//! capacity ladder stops.

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` of ascending `sorted` samples, or `None`
/// when fewer than [`MIN_BEYOND`] samples rank above it.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// True when the open-loop backlog grew over the run: the mean number
/// of requests in flight at arrival over the last quarter of arrivals
/// exceeds twice that of the first quarter, plus a small floor that
/// keeps a near-empty system from counting as growth.
pub fn backlog_growing(in_flight_at_arrival: &[u32]) -> bool {
    let q = in_flight_at_arrival.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[u32]| s.iter().map(|&x| f64::from(x)).sum::<f64>() / s.len() as f64;
    let first = mean(&in_flight_at_arrival[..q]);
    let last = mean(&in_flight_at_arrival[in_flight_at_arrival.len() - q..]);
    last > 2.0 * first + 4.0
}

/// One rung of the capacity ladder: a run at a fixed offered rate.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// p99 op latency in ns, `None` when too few samples to report it.
    pub p99_ns: Option<u64>,
    /// Ops that failed or were refused.
    pub failed: u64,
    /// Whether the backlog grew over the rung (see [`backlog_growing`]).
    pub backlog_growing: bool,
}

impl Rung {
    /// A rung passes when nothing failed, the backlog stayed flat and
    /// the p99 is reportable and within `limit_ns`.
    pub fn passes(&self, limit_ns: u64) -> bool {
        self.failed == 0 && !self.backlog_growing && self.p99_ns.is_some_and(|p| p <= limit_ns)
    }
}

/// Walks the doubling ladder `nominal, 2·nominal, …` for at most
/// `steps` rungs and stops at the first rung that misses; then bisects
/// `refine` times between the highest rate that passed and the first
/// that missed. Returns the highest rate that passed, or `None` when the
/// nominal rate itself misses. When every doubling rung passes, the
/// result is the top of the ladder, a lower bound on capacity.
pub fn capacity(
    nominal: f64,
    steps: u32,
    refine: u32,
    limit_ns: u64,
    mut run: impl FnMut(f64) -> Rung,
) -> Option<f64> {
    let mut best = None;
    let mut miss = None;
    for k in 0..steps {
        let rate = nominal * f64::from(1u32 << k);
        if !run(rate).passes(limit_ns) {
            miss = Some(rate);
            break;
        }
        best = Some(rate);
    }
    let (Some(mut lo), Some(mut hi)) = (best, miss) else {
        return best;
    };
    for _ in 0..refine {
        let mid = (lo + hi) / 2.0;
        if run(mid).passes(limit_ns) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile(&v, 0.5), Some(5_000));
        assert_eq!(percentile(&v, 0.99), Some(9_900));
        // Exactly ten samples (9991..=10000) lie beyond p99.9.
        assert_eq!(percentile(&v, 0.999), Some(9_990));
        // One sample fewer and p99.9 has only nine beyond it.
        assert_eq!(percentile(&v[..9_999], 0.999), None);
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v[..1_000], 0.99), Some(990));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn backlog_growth_is_detected_only_when_it_grows() {
        let steady: Vec<u32> = (0..400).map(|i| 5 + (i % 3)).collect();
        assert!(!backlog_growing(&steady));
        let growing: Vec<u32> = (0..400).collect();
        assert!(backlog_growing(&growing));
        assert!(!backlog_growing(&[0, 50, 100]));
    }

    #[test]
    fn ladder_stops_at_the_first_miss() {
        let limit = 1_000;
        let ok = Rung {
            p99_ns: Some(900),
            failed: 0,
            backlog_growing: false,
        };
        // Passes up to 4x nominal, then misses the p99 limit; the 16x
        // rung would pass again but must never be run.
        let mut seen = Vec::new();
        let cap = capacity(100.0, 6, 0, limit, |rate| {
            seen.push(rate);
            match rate as u32 {
                800 => Rung {
                    p99_ns: Some(1_001),
                    ..ok
                },
                _ => ok,
            }
        });
        assert_eq!(cap, Some(400.0));
        assert_eq!(seen, vec![100.0, 200.0, 400.0, 800.0]);

        // A failure, a growing backlog or an unreportable p99 each stop it.
        for miss in [
            Rung { failed: 1, ..ok },
            Rung {
                backlog_growing: true,
                ..ok
            },
            Rung { p99_ns: None, ..ok },
        ] {
            let cap = capacity(
                100.0,
                6,
                0,
                limit,
                |rate| if rate > 150.0 { miss } else { ok },
            );
            assert_eq!(cap, Some(100.0));
        }
        assert_eq!(
            capacity(100.0, 6, 3, limit, |_| Rung { failed: 3, ..ok }),
            None
        );
        // The ladder has a fixed top, and nothing above it is refined.
        assert_eq!(capacity(100.0, 3, 3, limit, |_| ok), Some(400.0));
    }

    #[test]
    fn ladder_bisects_between_the_last_pass_and_the_first_miss() {
        let limit = 1_000;
        let rung = |pass: bool| Rung {
            p99_ns: Some(if pass { 900 } else { 1_100 }),
            failed: 0,
            backlog_growing: false,
        };
        // True capacity 530: doubling passes 100..400, misses 800; the
        // bisection then tries 600 (miss), 500 (pass), 550 (miss).
        let mut seen = Vec::new();
        let cap = capacity(100.0, 6, 3, limit, |rate| {
            seen.push(rate);
            rung(rate <= 530.0)
        });
        assert_eq!(cap, Some(500.0));
        assert_eq!(seen, vec![100.0, 200.0, 400.0, 800.0, 600.0, 500.0, 550.0]);
        // A miss at the nominal rate is never refined.
        assert_eq!(capacity(100.0, 6, 3, limit, |r| rung(r < 100.0)), None);
    }
}
