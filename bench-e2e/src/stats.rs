//! Order statistics, the tail-percentile rule, the ledger arithmetic and the
//! `compare` verdicts.

/// A tail percentile is reported only with at least this many samples
/// beyond it.
pub const MIN_BEYOND_TAIL: usize = 10;

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` (0 < q < 1) of `values`, refused unless at
/// least [`MIN_BEYOND_TAIL`] samples lie beyond it.
pub fn tail_percentile(values: &[f64], q: f64) -> Result<f64, String> {
    let v = sorted(values);
    let rank = (q * v.len() as f64).ceil() as usize;
    let beyond = v.len().saturating_sub(rank);
    if rank == 0 || beyond < MIN_BEYOND_TAIL {
        let needed = (MIN_BEYOND_TAIL as f64 / (1.0 - q)).ceil();
        return Err(format!(
            "p{} needs at least {needed} samples ({MIN_BEYOND_TAIL} beyond it), got {}",
            q * 100.0,
            v.len()
        ));
    }
    Ok(v[rank - 1])
}

/// Median and quartiles of a set of runs. The quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let v = sorted(values);
        let quantile = |i: usize| -> f64 {
            let len = v.len();
            if len == 1 {
                return v[0];
            }
            let m = len + 1;
            let j = (i * m / 4).clamp(1, len - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            median: median(&v),
            q1: quantile(1),
            q3: quantile(3),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// The per-request ledger: what the measured layers leave unexplained of
/// the end-to-end median. Returns `(residual, |residual| / p50)`.
pub fn ledger(p50: f64, layer_medians: &[f64]) -> (f64, f64) {
    let residual = p50 - layer_medians.iter().sum::<f64>();
    (residual, residual.abs() / p50)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Better,
    Worse,
    /// The run-to-run spread is wider than the bound, so the sets cannot
    /// be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within-bound",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge set `b` against the baseline set `a` for one metric. A change
/// counts as worse when `b`'s median is worse than `a`'s by more than
/// `bound` (a share of `a`'s median), and as better when it is better by
/// more than `bound`. When either set's spread is wider than `bound` the
/// verdict is unresolved, unless every run of `b` beats every run of `a`.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let beats = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    if sa.spread() > bound || sb.spread() > bound {
        let all_better = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let change = (sb.median - sa.median) / sa.median.abs();
    let worsening = if higher_is_better { -change } else { change };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&values, 0.99), Ok(990.0));
        assert_eq!(tail_percentile(&values, 0.95), Ok(950.0));
        assert_eq!(tail_percentile(&values[..200], 0.95), Ok(190.0));
        let err = tail_percentile(&values[..999], 0.99).unwrap_err();
        assert!(err.contains("at least 1000 samples"), "{err}");
        assert!(tail_percentile(&values[..199], 0.95).is_err());
        assert!(tail_percentile(&[], 0.5).is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert!((Summary::of(&ten).spread() - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn ledger_arithmetic() {
        let (residual, gap) = ledger(10.0, &[6.0, 3.0]);
        assert!((residual - 1.0).abs() < 1e-12);
        assert!((gap - 0.1).abs() < 1e-12);
        // Layers that overshoot leave a negative residual; the gap is its
        // magnitude.
        let (residual, gap) = ledger(4.0, &[3.0, 2.0]);
        assert!((residual + 1.0).abs() < 1e-12);
        assert!((gap - 0.25).abs() < 1e-12);
    }

    #[test]
    fn compare_verdict_table() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shifted = |k: f64| base.map(|v| v * k);
        let noisy = [70.0, 100.0, 130.0, 90.0, 110.0];
        // (a, b, bound, higher_is_better, expected)
        type Row<'a> = (&'a [f64], &'a [f64], f64, bool, Verdict);
        let table: [Row; 9] = [
            (&base, &base, 0.05, false, Verdict::WithinBound),
            (&base, &shifted(1.03), 0.05, false, Verdict::WithinBound),
            (&base, &shifted(1.10), 0.05, false, Verdict::Worse),
            (&base, &shifted(0.90), 0.05, false, Verdict::Better),
            (&base, &shifted(1.10), 0.05, true, Verdict::Better),
            (&base, &shifted(0.90), 0.05, true, Verdict::Worse),
            (&base, &noisy, 0.05, false, Verdict::Unresolved),
            (&noisy, &base, 0.05, true, Verdict::Unresolved),
            // Wide spread, but every run of b beats every run of a.
            (
                &noisy,
                &noisy.map(|v| v + 100.0),
                0.05,
                true,
                Verdict::Better,
            ),
        ];
        for (i, (a, b, bound, hib, want)) in table.into_iter().enumerate() {
            assert_eq!(verdict(a, b, bound, hib), want, "row {i}");
        }
    }
}
