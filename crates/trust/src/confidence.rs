//! Formula (9): the confidence interval over partial evidence.
//!
//! §IV-C: from a *sample* of evidences `e_1..e_n` the investigator estimates
//! the range the whole evidence population would fall in. The margin of
//! error is
//!
//! > `ε = z · σ / √n`
//!
//! with `σ` the sample standard deviation and `z` the standard-normal
//! quantile for the configured confidence level (e.g. `z ≈ 1.96` at 95 %).
//! A wide interval says "collect more evidence before deciding".

use std::fmt;

/// The inverse standard-normal CDF (the *probit* function), computed with
/// Acklam's rational approximation (absolute error < 1.15e-9 over the whole
/// domain).
///
/// # Panics
///
/// Panics unless `p ∈ (0, 1)`.
///
/// ```
/// use trustlink_trust::probit;
/// assert!((probit(0.975) - 1.959964).abs() < 1e-5);
/// assert_eq!(probit(0.5), 0.0);
/// ```
pub fn probit(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probit requires p in (0,1), got {p}");
    if p == 0.5 {
        return 0.0;
    }

    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The two-sided `z` value for a confidence level, e.g. `0.95 → 1.96`.
///
/// # Panics
///
/// Panics unless `confidence_level ∈ (0, 1)`.
pub fn z_for_confidence_level(confidence_level: f64) -> f64 {
    assert!(
        confidence_level > 0.0 && confidence_level < 1.0,
        "confidence level must be in (0,1), got {confidence_level}"
    );
    probit(1.0 - (1.0 - confidence_level) / 2.0)
}

/// Sample standard deviation (the `n-1` denominator of the paper's σ).
///
/// Returns `0.0` for samples of size < 2.
pub fn sample_std_dev(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 2 {
        return 0.0;
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
    var.sqrt()
}

/// The confidence level the paper evaluates formula (9) at (95 %, so
/// `z ≈ 1.96`); both the packet-level detector and the round engine use it.
pub const CONFIDENCE_LEVEL: f64 = 0.95;

/// Formula (9): the margin of error `ε = z·σ/√n` of the evidence sample at
/// the given confidence level.
///
/// Returns [`f64::INFINITY`] for samples of fewer than two evidences: with
/// nothing to estimate spread from, the interval is unbounded and rule (10)
/// will answer *unrecognized* — exactly the paper's "more evidences should
/// be provided".
pub fn margin_of_error(samples: &[f64], confidence_level: f64) -> f64 {
    if samples.len() < 2 {
        return f64::INFINITY;
    }
    let z = z_for_confidence_level(confidence_level);
    z * sample_std_dev(samples) / (samples.len() as f64).sqrt()
}

/// A confidence interval `[center - margin, center + margin]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// The point estimate (the mean detection value).
    pub center: f64,
    /// The margin of error ε.
    pub margin: f64,
}

impl ConfidenceInterval {
    /// Builds the interval around the sample mean of `samples`.
    pub fn from_samples(samples: &[f64], confidence_level: f64) -> Self {
        let center = if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        };
        ConfidenceInterval { center, margin: margin_of_error(samples, confidence_level) }
    }

    /// Lower bound of the interval.
    pub fn lower(&self) -> f64 {
        self.center - self.margin
    }

    /// Upper bound of the interval.
    pub fn upper(&self) -> f64 {
        self.center + self.margin
    }

    /// Interval width `2ε`.
    pub fn width(&self) -> f64 {
        2.0 * self.margin
    }

    /// `true` when `x` lies inside the interval.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lower() && x <= self.upper()
    }
}

impl fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ± {:.3}", self.center, self.margin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probit_standard_values() {
        // Classic z-table rows.
        assert!((probit(0.975) - 1.95996).abs() < 1e-4);
        assert!((probit(0.995) - 2.57583).abs() < 1e-4);
        assert!((probit(0.95) - 1.64485).abs() < 1e-4);
        assert!((probit(0.9) - 1.28155).abs() < 1e-4);
        assert_eq!(probit(0.5), 0.0);
    }

    #[test]
    fn probit_is_antisymmetric() {
        for i in 1..100 {
            let p = i as f64 / 100.0;
            assert!((probit(p) + probit(1.0 - p)).abs() < 1e-8, "p={p}");
        }
    }

    #[test]
    fn probit_tails() {
        assert!((probit(1e-6) + 4.75342).abs() < 1e-3);
        assert!(probit(1.0 - 1e-9) > 5.9);
    }

    #[test]
    #[should_panic(expected = "probit requires")]
    fn probit_rejects_zero() {
        let _ = probit(0.0);
    }

    #[test]
    fn z_values_match_convention() {
        assert!((z_for_confidence_level(0.95) - 1.95996).abs() < 1e-4);
        assert!((z_for_confidence_level(0.99) - 2.57583).abs() < 1e-4);
        assert!((z_for_confidence_level(0.90) - 1.64485).abs() < 1e-4);
    }

    #[test]
    fn std_dev_known_sample() {
        let s = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        // population σ = 2; sample σ = sqrt(32/7)
        assert!((sample_std_dev(&s) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(sample_std_dev(&[1.0]), 0.0);
        assert_eq!(sample_std_dev(&[]), 0.0);
    }

    #[test]
    fn margin_shrinks_with_sample_size() {
        // Same spread, more evidence → narrower interval.
        let small: Vec<f64> = [1.0, -1.0].repeat(2);
        let large: Vec<f64> = [1.0, -1.0].repeat(50);
        let e_small = margin_of_error(&small, 0.95);
        let e_large = margin_of_error(&large, 0.95);
        assert!(e_large < e_small, "{e_large} !< {e_small}");
    }

    #[test]
    fn margin_grows_with_confidence_level() {
        let s: Vec<f64> = [1.0, -1.0, 1.0, -1.0, 1.0, 1.0].to_vec();
        let e90 = margin_of_error(&s, 0.90);
        let e99 = margin_of_error(&s, 0.99);
        assert!(e99 > e90);
    }

    #[test]
    fn margin_grows_with_spread() {
        let tight = [0.9, 1.0, 0.95, 1.0, 0.9];
        let wide = [1.0, -1.0, 1.0, -1.0, 0.0];
        assert!(margin_of_error(&wide, 0.95) > margin_of_error(&tight, 0.95));
    }

    #[test]
    fn tiny_samples_are_unbounded() {
        assert_eq!(margin_of_error(&[], 0.95), f64::INFINITY);
        assert_eq!(margin_of_error(&[1.0], 0.95), f64::INFINITY);
    }

    #[test]
    fn unanimous_sample_has_zero_margin() {
        // σ = 0: everyone agrees, so the interval collapses to a point.
        assert_eq!(margin_of_error(&[-1.0, -1.0, -1.0, -1.0], 0.95), 0.0);
    }

    #[test]
    fn interval_accessors() {
        let ci = ConfidenceInterval { center: -0.6, margin: 0.2 };
        assert!((ci.lower() - (-0.8)).abs() < 1e-12);
        assert!((ci.upper() - (-0.4)).abs() < 1e-12);
        assert!((ci.width() - 0.4).abs() < 1e-12);
        assert!(ci.contains(-0.6));
        assert!(ci.contains(-0.8));
        assert!(!ci.contains(-0.39));
        assert_eq!(ci.to_string(), "-0.600 ± 0.200");
    }

    #[test]
    fn interval_from_samples() {
        let ci = ConfidenceInterval::from_samples(&[-1.0, -1.0, -1.0, 1.0], 0.95);
        assert_eq!(ci.center, -0.5);
        assert!(ci.margin > 0.0 && ci.margin.is_finite());
        let empty = ConfidenceInterval::from_samples(&[], 0.95);
        assert_eq!(empty.center, 0.0);
        assert_eq!(empty.margin, f64::INFINITY);
    }
}
