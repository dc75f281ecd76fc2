//! Wattsup-style power meters.
//!
//! The paper instruments the testbed with two Wattsup Pro meters: Meter 1
//! between the wall outlet and the box (CPU side: motherboard, disk, DRAM,
//! CPU) and Meter 2 between a dedicated ATX supply and the GPU card. A
//! [`PowerMeter`] records the instantaneous power reported by a device model
//! as a step trace, integrates it exactly for energy, and can also produce
//! the 1 Hz sample log a real Wattsup would give.

use greengpu_sim::{SampledSeries, SimDuration, SimTime, StepTrace};

/// An integrating power meter.
///
/// ```
/// use greengpu_hw::PowerMeter;
/// use greengpu_sim::SimTime;
///
/// let mut meter = PowerMeter::new("Meter2");
/// meter.record(SimTime::ZERO, 80.0);               // card idles at 80 W
/// meter.record(SimTime::from_secs(10), 230.0);     // kernel starts
/// let joules = meter.energy_j(SimTime::ZERO, SimTime::from_secs(20));
/// assert_eq!(joules, 80.0 * 10.0 + 230.0 * 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct PowerMeter {
    name: &'static str,
    trace: StepTrace,
}

impl PowerMeter {
    /// Creates a meter reading 0 W at t = 0.
    pub fn new(name: &'static str) -> Self {
        PowerMeter {
            name,
            trace: StepTrace::with_initial(0.0),
        }
    }

    /// Meter label.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records a new instantaneous power reading from `at` onward.
    pub fn record(&mut self, at: SimTime, watts: f64) {
        debug_assert!(watts >= 0.0, "power cannot be negative");
        self.trace.set(at, watts);
    }

    /// Instantaneous power at `at`.
    pub fn power_at(&self, at: SimTime) -> f64 {
        self.trace.value_at(at)
    }

    /// Exact energy in joules over `[from, to)`.
    pub fn energy_j(&self, from: SimTime, to: SimTime) -> f64 {
        self.trace.integral(from, to)
    }

    /// Time-weighted average power over `[from, to)`.
    pub fn mean_power_w(&self, from: SimTime, to: SimTime) -> f64 {
        self.trace.mean(from, to)
    }

    /// The 1 Hz (or arbitrary-period) sample log a physical meter would
    /// produce.
    pub fn sample_log(&self, start: SimTime, period: SimDuration, n: usize) -> SampledSeries {
        self.trace.sample(start, period, n)
    }

    /// The underlying step trace.
    pub fn trace(&self) -> &StepTrace {
        &self.trace
    }

    /// Forgets the power history before `cut`
    /// ([`StepTrace::forget_before`]).
    pub fn forget_before(&mut self, cut: SimTime) {
        self.trace.forget_before(cut);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_integrates_steps() {
        let mut m = PowerMeter::new("meter2");
        m.record(SimTime::ZERO, 80.0);
        m.record(SimTime::from_secs(10), 230.0);
        m.record(SimTime::from_secs(20), 80.0);
        let e = m.energy_j(SimTime::ZERO, SimTime::from_secs(30));
        // 10s·80 + 10s·230 + 10s·80 = 3900 J
        assert!((e - 3900.0).abs() < 1e-9);
    }

    #[test]
    fn mean_power_over_window() {
        let mut m = PowerMeter::new("m");
        m.record(SimTime::ZERO, 100.0);
        m.record(SimTime::from_secs(5), 200.0);
        let mean = m.mean_power_w(SimTime::ZERO, SimTime::from_secs(10));
        assert!((mean - 150.0).abs() < 1e-9);
    }

    #[test]
    fn one_hz_sampling_approximates_energy() {
        let mut m = PowerMeter::new("m");
        m.record(SimTime::ZERO, 100.0);
        m.record(SimTime::from_secs_f64(2.5), 50.0);
        let log = m.sample_log(SimTime::ZERO, SimDuration::from_secs(1), 10);
        assert_eq!(log.len(), 10);
        let exact = m.energy_j(SimTime::ZERO, SimTime::from_secs(10));
        let est = log.riemann_integral();
        // The sampled estimate is close but not exact — like a real meter.
        assert!((est - exact).abs() / exact < 0.1, "est {est} exact {exact}");
    }

    #[test]
    fn power_at_reads_current_value() {
        let mut m = PowerMeter::new("m");
        m.record(SimTime::from_secs(1), 42.0);
        assert_eq!(m.power_at(SimTime::from_secs(2)), 42.0);
        assert_eq!(m.power_at(SimTime::ZERO), 0.0);
    }
}
