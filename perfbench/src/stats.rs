//! Sample statistics and operation accounting for the benchmark.
//!
//! Timings are reported as a median plus the highest percentile that has
//! at least [`MIN_BEYOND`] samples beyond it; failed or refused requests
//! count as missing every latency limit (an infinite latency).

/// Samples a tail percentile must leave beyond its rank to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of a sample (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones an external check computes.
///
/// # Panics
///
/// Panics on fewer than two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let s = sorted(xs);
    let m = s.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile `q` (in `(0, 1)`) of a latency sample in which
/// `failed` further requests never completed. Failures rank above every
/// completed request, so a percentile that reaches into them is infinite.
///
/// Returns `None` when fewer than [`MIN_BEYOND`] samples lie beyond the
/// rank: such a percentile is not reported.
pub fn tail_percentile(ok: &[f64], failed: usize, q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "percentile must be in (0, 1)");
    let n = ok.len() + failed;
    if n == 0 {
        return None;
    }
    // The epsilon keeps `0.99 * 1000` at rank 990 despite binary
    // rounding of `q`.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let s = sorted(ok);
    Some(if rank <= s.len() {
        s[rank - 1]
    } else {
        f64::INFINITY
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Which of three resume points resume `i` of a run starts from:
/// `RESUME_CYCLE[i % 6]`. The middle point comes four times as often as
/// each of the others, so the median of every resume is the middle
/// point's, drawn from many resumes spread over the run, while the other
/// two complete the resume curve. A resume is a CPU burst of tens to
/// hundreds of milliseconds, and on a shared host each burst falls wholly
/// into a fast or a slow stretch of seconds; a median over a few resumes
/// moves with the luck of where they fell.
pub const RESUME_CYCLE: [usize; 6] = [1, 0, 1, 1, 2, 1];

/// Least-squares slope of `y` over `x` (0 when `x` has no spread).
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// Mean of the samples at each round, in round order: the resume-cost
/// curve from repeated resumes.
pub fn mean_by_round(points: &[(u64, f64)]) -> Vec<(u64, f64)> {
    let mut by_round: std::collections::BTreeMap<u64, (f64, usize)> = Default::default();
    for &(r, s) in points {
        let e = by_round.entry(r).or_default();
        e.0 += s;
        e.1 += 1;
    }
    by_round
        .into_iter()
        .map(|(r, (sum, n))| (r, sum / n as f64))
        .collect()
}

/// Attempted and failed operations of one run. An operation fails when
/// it errors, is refused, or returns output that does not match the
/// reference; every failure is kept with its reason.
#[derive(Debug, Default)]
pub struct Ops {
    attempted: u64,
    failures: Vec<String>,
}

impl Ops {
    /// Records one operation that succeeded with correct output.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Records one failed, refused or wrong-output operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failures.push(why.into());
    }

    /// Records one operation whose output was checked: `Ok` succeeds,
    /// `Err` carries the reason it failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => self.ok(),
            Err(why) => self.fail(why),
        }
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Reasons of the failures, in the order they happened.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Failed share of attempted operations (0 when nothing was tried).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Folds another run's operations into this one.
    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// 64-bit FNV-1a, the digest printed for outputs that must repeat.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Hash of one byte string.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.update(bytes);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), (2.0, 5.0, 8.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, ten beyond.
        assert_eq!(tail_percentile(&xs, 0, 0.90), Some(90.0));
        // p99 of 100 samples leaves one beyond: not reportable.
        assert_eq!(tail_percentile(&xs, 0, 0.99), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&many, 0, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&many, 0, 0.50), Some(500.0));
        // Just below the thresholds, the tail is not reportable.
        assert_eq!(tail_percentile(&xs[..99], 0, 0.90), None);
        assert_eq!(tail_percentile(&many[..999], 0, 0.99), None);
    }

    #[test]
    fn failed_requests_miss_every_latency_limit() {
        let ok: Vec<f64> = (1..=990).map(f64::from).collect();
        // 990 completed + 10 failed: p99 is the last completed request.
        assert_eq!(tail_percentile(&ok, 10, 0.99), Some(990.0));
        // One more failure pushes p99 into the failures.
        let ok: Vec<f64> = (1..=989).map(f64::from).collect();
        assert_eq!(tail_percentile(&ok, 11, 0.99), Some(f64::INFINITY));
        // Failures never improve the median.
        let ok = vec![1.0; 500];
        assert_eq!(tail_percentile(&ok, 500, 0.5), Some(1.0));
        assert_eq!(tail_percentile(&ok, 501, 0.5), Some(f64::INFINITY));
    }

    #[test]
    fn ops_count_failures_against_attempts() {
        let mut ops = Ops::default();
        assert_eq!(ops.failed_share(), 0.0);
        ops.ok();
        ops.ok();
        ops.check(Ok(()));
        ops.check(Err("wrong output".to_owned()));
        assert_eq!((ops.attempted(), ops.failed()), (4, 1));
        assert_eq!(ops.failed_share(), 0.25);
        let mut other = Ops::default();
        other.fail("refused");
        ops.merge(other);
        assert_eq!((ops.attempted(), ops.failed()), (5, 2));
        assert_eq!(ops.failures(), ["wrong output", "refused"]);
    }

    #[test]
    fn the_middle_resume_point_holds_the_median() {
        // Any whole number of cycles: a third point's samples can never
        // reach the middle of the sorted sample.
        for cycles in 1..=10 {
            let mut per_point = [0; 3];
            for i in 0..cycles * RESUME_CYCLE.len() {
                per_point[RESUME_CYCLE[i % RESUME_CYCLE.len()]] += 1;
            }
            assert_eq!(per_point, [cycles, 4 * cycles, cycles]);
            let n = 6 * cycles;
            // Sorted by round, positions per_point[0] + 1 ..= n - per_point[2]
            // are the middle point's; both middle positions fall inside.
            assert!(per_point[0] < n / 2 && n / 2 + 1 <= n - per_point[2]);
        }
    }

    #[test]
    fn slope_recovers_a_linear_cost() {
        let pts = [(10.0, 5.0), (20.0, 9.0), (30.0, 13.0)];
        assert!((slope(&pts) - 0.4).abs() < 1e-12);
        assert_eq!(slope(&[(1.0, 2.0)]), 0.0);
    }

    #[test]
    fn mean_by_round_averages_repeated_points() {
        let pts = [(20, 3.0), (10, 1.0), (20, 5.0), (10, 2.0)];
        assert_eq!(mean_by_round(&pts), vec![(10, 1.5), (20, 4.0)]);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(Fnv::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::of(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
