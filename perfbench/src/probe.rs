//! The host-speed probe.
//!
//! Hosts shared with other tenants change speed for tens of seconds at a
//! time, by far more than the run-to-run noise of the program itself. The
//! probe is fixed work of this package only, timed between rounds: sorting
//! 200k seeded integers and building a B-tree over every eighth of them.
//! Every host time the benchmark reports is scaled by `REFERENCE_S /
//! median(nearest probe samples)`: the time it would have taken on a host
//! where the probe takes [`REFERENCE_S`]. A slow phase of the host
//! stretches the probe and the points alike and cancels out; a change to
//! the program under test cannot move the probe.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use regate_bench::SplitMix64;

/// Probe time on the reference host (a 2-vCPU x86-64 VM at 2.0 GHz).
pub const REFERENCE_S: f64 = 0.0064;

/// Point time between two probes inside the timed loop.
const PERIOD: Duration = Duration::from_millis(100);

/// Samples the local speed estimate takes the median of.
const NEIGHBOURS: usize = 5;

/// Runs the probe once and returns its wall time in seconds.
fn run() -> f64 {
    let start = Instant::now();
    let mut rng = SplitMix64::new(7);
    let mut values: Vec<u64> = (0..200_000).map(|_| rng.next_u64()).collect();
    values.sort_unstable();
    let mut tree = BTreeMap::new();
    for &v in std::hint::black_box(&values).iter().step_by(8) {
        tree.insert(v, (v as f64).sqrt());
    }
    std::hint::black_box(tree.len());
    start.elapsed().as_secs_f64()
}

/// Probe samples of one run, placed on the run clock.
#[derive(Debug, Default)]
pub struct Probe {
    /// `(when, probe seconds)`, in time order.
    samples: Vec<(f64, f64)>,
    since_last: Duration,
}

impl Probe {
    /// Takes one sample now (`at_s` on the run clock).
    pub fn sample(&mut self, at_s: f64) {
        self.samples.push((at_s, run()));
        self.since_last = Duration::ZERO;
    }

    /// Counts `point` of point time and samples once a period of it
    /// has passed since the last sample. Call between points only, so
    /// the probe never lands inside a timed point.
    pub fn after_point(&mut self, point: Duration, at_s: f64) {
        self.since_last += point;
        if self.since_last >= PERIOD {
            self.sample(at_s);
        }
    }

    /// Median probe time of the run, in seconds.
    pub fn median_s(&self) -> f64 {
        self.median_of(&self.samples)
    }

    fn median_of(&self, samples: &[(f64, f64)]) -> f64 {
        if samples.is_empty() {
            return REFERENCE_S;
        }
        crate::median(&mut samples.iter().map(|&(_, s)| s).collect::<Vec<_>>())
    }

    /// Factor that turns a wall time measured at `at_s` into the time on
    /// the reference host, from the [`NEIGHBOURS`] samples nearest in
    /// time: the host's speed drifts on a scale of seconds.
    pub fn local_scale(&self, at_s: f64) -> f64 {
        let after = self.samples.partition_point(|&(t, _)| t < at_s);
        let hi = (after.saturating_sub(NEIGHBOURS / 2) + NEIGHBOURS).min(self.samples.len());
        let lo = hi.saturating_sub(NEIGHBOURS);
        REFERENCE_S / self.median_of(&self.samples[lo..hi])
    }

    /// Samples taken.
    pub fn len(&self) -> usize {
        self.samples.len()
    }
}
