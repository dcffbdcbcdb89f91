//! The RESET latency law `t = C · e^(−k·|Vd|)`.
//!
//! RESET time is exponentially sensitive to the voltage drop across the
//! target cell (Yu & Wong, IEEE EDL 2010); measured HfOx devices slow down
//! roughly 10× when the drop falls by 0.4 V (Govoreanu et al., IEDM 2011).
//! The law here is calibrated from two anchor points — typically the
//! best-case and worst-case operating voltages of a full-size crossbar
//! mapped to the paper's `tWR` range of 29–658 ns.

use ladder_reram::Picos;

/// Exponential RESET latency law.
///
/// # Examples
///
/// ```
/// use ladder_xbar::LatencyLaw;
///
/// // 29 ns at 2.8 V and 658 ns at 1.8 V.
/// let law = LatencyLaw::calibrate(2.8, 29.0, 1.8, 658.0);
/// assert!((law.latency_ns(2.8) - 29.0).abs() < 1e-6);
/// assert!((law.latency_ns(1.8) - 658.0).abs() < 1e-6);
/// assert!(law.latency_ns(2.3) > 29.0 && law.latency_ns(2.3) < 658.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyLaw {
    /// Pre-exponential constant, in nanoseconds.
    pub c_ns: f64,
    /// Voltage sensitivity, in 1/volt.
    pub k_per_volt: f64,
}

impl LatencyLaw {
    /// Builds a law passing through two `(voltage, latency)` anchor points.
    ///
    /// # Panics
    ///
    /// Panics if the anchors are degenerate (`v_fast <= v_slow`,
    /// non-positive latencies, or `t_fast >= t_slow`).
    pub fn calibrate(v_fast: f64, t_fast_ns: f64, v_slow: f64, t_slow_ns: f64) -> Self {
        assert!(
            v_fast > v_slow,
            "fast anchor must have the higher voltage ({v_fast} vs {v_slow})"
        );
        assert!(
            t_fast_ns > 0.0 && t_slow_ns > t_fast_ns,
            "latencies must be positive with t_fast < t_slow"
        );
        let k = (t_slow_ns / t_fast_ns).ln() / (v_fast - v_slow);
        let c = t_fast_ns * (k * v_fast).exp();
        Self {
            c_ns: c,
            k_per_volt: k,
        }
    }

    /// Latency in nanoseconds for a given voltage drop.
    pub fn latency_ns(&self, vd: f64) -> f64 {
        self.c_ns * (-self.k_per_volt * vd.abs()).exp()
    }

    /// Latency in whole picoseconds, rounded up (conservative): the one
    /// place a nanosecond latency crosses into the picosecond domain the
    /// timing tables hold. The [`Picos`] return type keeps nanoseconds
    /// out of picosecond arithmetic:
    ///
    /// ```compile_fail,E0308
    /// use ladder_xbar::LatencyLaw;
    ///
    /// let law = LatencyLaw::calibrate(2.8, 29.0, 1.8, 658.0);
    /// let _ = law.latency_ps(2.0) + 1u64;
    /// ```
    pub fn latency_ps(&self, vd: f64) -> Picos {
        Picos::from_ns(self.latency_ns(vd))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_hits_anchors() {
        let law = LatencyLaw::calibrate(2.9, 29.0, 1.6, 658.0);
        assert!((law.latency_ns(2.9) - 29.0).abs() < 1e-9);
        assert!((law.latency_ns(1.6) - 658.0).abs() < 1e-9);
    }

    #[test]
    fn latency_is_monotone_decreasing_in_voltage() {
        let law = LatencyLaw::calibrate(2.9, 29.0, 1.6, 658.0);
        let mut prev = f64::INFINITY;
        for i in 0..=29 {
            let v = 0.1 * i as f64;
            let t = law.latency_ns(v);
            assert!(t < prev);
            prev = t;
        }
    }

    #[test]
    fn ten_x_per_0_4_volt_reference() {
        // Calibrating with the Govoreanu slope: 10× slow-down per 0.4 V.
        let k = 10.0f64.ln() / 0.4;
        let law = LatencyLaw {
            c_ns: 29.0,
            k_per_volt: k,
        };
        let ratio = law.latency_ns(1.0) / law.latency_ns(1.4);
        assert!((ratio - 10.0).abs() < 1e-9);
    }

    #[test]
    fn picosecond_rounding_is_conservative() {
        let law = LatencyLaw {
            c_ns: 1.0,
            k_per_volt: 0.0,
        };
        assert_eq!(law.latency_ps(1.0).as_ps(), 1000);
        let law2 = LatencyLaw {
            c_ns: 1.0001,
            k_per_volt: 0.0,
        };
        assert_eq!(law2.latency_ps(1.0).as_ps(), 1001); // 1.0001 ns rounds up to 1001 ps
    }

    #[test]
    #[should_panic(expected = "higher voltage")]
    fn degenerate_calibration_panics() {
        let _ = LatencyLaw::calibrate(1.0, 29.0, 2.0, 658.0);
    }
}
