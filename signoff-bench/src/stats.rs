//! Sample statistics: medians, the tail-percentile rule and failure
//! accounting.

/// Minimum number of samples that must lie beyond the reported tail.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle samples for an even
/// count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The tail of a sample set: the highest percentile with at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub pct: f64,
    /// How many samples the set holds.
    pub samples: usize,
    /// True when the set is too small for the rule (at most
    /// [`TAIL_BEYOND`] samples): the value is then the maximum.
    pub short: bool,
}

/// Applies the tail rule: with `n > TAIL_BEYOND` samples the tail is the
/// sorted sample with exactly `TAIL_BEYOND` samples above it, i.e. the
/// `100·(n − TAIL_BEYOND)/n`-th percentile. A smaller set reports its
/// maximum, flagged `short`.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    Some(if n > TAIL_BEYOND {
        let beyond = TAIL_BEYOND as f64;
        Tail {
            value: v[n - TAIL_BEYOND - 1],
            pct: 100.0 * (n as f64 - beyond) / n as f64,
            samples: n,
            short: false,
        }
    } else {
        Tail {
            value: v[n - 1],
            pct: 100.0,
            samples: n,
            short: true,
        }
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Job accounting for one timed phase. Every job the driver attempted
/// is in exactly one bucket, so `attempted` is the denominator of every
/// failure share.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Jobs the driver sent.
    pub attempted: u64,
    /// Jobs whose report matched the flat reference byte for byte.
    pub verified: u64,
    /// Jobs the service refused at submit.
    pub refused: u64,
    /// Jobs that settled in a state other than `Done`, or failed a
    /// request after submit.
    pub failed: u64,
    /// Jobs that finished with bytes different from the reference.
    pub mismatched: u64,
}

impl Tally {
    /// Jobs that did not end verified.
    pub fn failures(&self) -> u64 {
        self.refused + self.failed + self.mismatched
    }

    /// Failed share of the attempted jobs (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failures() as f64 / self.attempted as f64
        }
    }

    /// Both tallies' buckets summed.
    pub fn plus(self, o: Tally) -> Tally {
        Tally {
            attempted: self.attempted + o.attempted,
            verified: self.verified + o.verified,
            refused: self.refused + o.refused,
            failed: self.failed + o.failed,
            mismatched: self.mismatched + o.mismatched,
        }
    }

    /// Whether the buckets add up to the attempts.
    pub fn balanced(&self) -> bool {
        self.verified + self.failures() == self.attempted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).expect("tail");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert!(!t.short);
        // Eleven samples: the minimum is the only one with ten beyond.
        let v: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let t = tail(&v).expect("tail");
        assert_eq!((t.value, t.samples), (1.0, 11));
        assert!((t.pct - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn a_short_set_reports_its_maximum_and_says_so() {
        let t = tail(&[5.0, 7.0, 6.0]).expect("tail");
        assert_eq!((t.value, t.pct, t.samples, t.short), (7.0, 100.0, 3, true));
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert!(tail(&ten).expect("tail").short);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn failure_share_counts_every_kind_against_attempts() {
        let t = Tally {
            attempted: 10,
            verified: 7,
            refused: 1,
            failed: 1,
            mismatched: 1,
        };
        assert!(t.balanced());
        assert_eq!(t.failures(), 3);
        assert!((t.fail_frac() - 0.3).abs() < 1e-12);
        assert_eq!(Tally::default().fail_frac(), 0.0);
        let unbalanced = Tally {
            attempted: 3,
            verified: 1,
            ..Tally::default()
        };
        assert!(!unbalanced.balanced());
    }
}
