//! Aggregated per-component activity over a whole simulation.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use npu_arch::ComponentKind;

use crate::timeline::BusyTimeline;

/// Busy-cycle totals per component kind plus the overall execution length.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ComponentActivity {
    busy_cycles: BTreeMap<ComponentKind, u64>,
    /// Achieved FLOPs (for SA spatial utilization accounting).
    sa_weighted_spatial: f64,
    total_cycles: u64,
}

impl ComponentActivity {
    /// Builds the aggregate from a finalized busy timeline over
    /// `[0, total_cycles)`. Busy cycles are the merged interval lengths on
    /// the global clock, so overlapping per-operator activity is never
    /// double counted.
    #[must_use]
    pub fn from_timeline(
        timeline: &BusyTimeline,
        total_cycles: u64,
        sa_weighted_spatial: f64,
    ) -> Self {
        let mut busy: BTreeMap<ComponentKind, u64> = BTreeMap::new();
        for kind in ComponentKind::ALL {
            busy.insert(kind, timeline.busy_cycles(kind).min(total_cycles));
        }
        ComponentActivity { busy_cycles: busy, sa_weighted_spatial, total_cycles }
    }

    /// Total execution length in cycles.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Busy cycles of one component kind.
    #[must_use]
    pub fn busy_cycles(&self, kind: ComponentKind) -> u64 {
        self.busy_cycles.get(&kind).copied().unwrap_or(0)
    }

    /// Idle cycles of one component kind.
    #[must_use]
    pub fn idle_cycles(&self, kind: ComponentKind) -> u64 {
        self.total_cycles.saturating_sub(self.busy_cycles(kind))
    }

    /// Floating-point slack tolerated before a clamped utilization is
    /// considered an accounting bug rather than rounding noise.
    const UTILIZATION_EPSILON: f64 = 1e-9;

    /// Temporal utilization of one component kind (Figures 4, 6, 8, 9).
    #[must_use]
    pub fn temporal_utilization(&self, kind: ComponentKind) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        let fraction = self.busy_cycles(kind) as f64 / self.total_cycles as f64;
        // A busy fraction above 1 means a component was credited more busy
        // cycles than the clock has — an interval-merging or double-count
        // bug the clamp below would silently hide (the pattern that hid
        // the PR-4 SRAM capacity bug).
        debug_assert!(
            fraction <= 1.0 + Self::UTILIZATION_EPSILON,
            "{kind:?}: busy fraction {fraction} exceeds 1.0 — busy cycles were double counted"
        );
        fraction.min(1.0)
    }

    /// Average SA spatial utilization over SA-active cycles (Figure 5).
    #[must_use]
    pub fn sa_spatial_utilization(&self) -> f64 {
        let active = self.busy_cycles(ComponentKind::Sa);
        if active == 0 {
            return 0.0;
        }
        let fraction = self.sa_weighted_spatial / active as f64;
        // Weighted spatial utilization is a per-operator convex combination
        // of values in [0, 1] over at most `active` cycles; above 1 the
        // weights are wrong (or active cycles were lost), not the clamp's
        // problem to paper over.
        debug_assert!(
            fraction <= 1.0 + Self::UTILIZATION_EPSILON,
            "SA spatial utilization {fraction} exceeds 1.0 — weights exceed the active cycles"
        );
        fraction.min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_activity() {
        let a = ComponentActivity::from_timeline(&BusyTimeline::default(), 0, 0.0);
        assert_eq!(a.total_cycles(), 0);
        assert_eq!(a.temporal_utilization(ComponentKind::Vu), 0.0);
        assert_eq!(a.sa_spatial_utilization(), 0.0);
    }

    #[test]
    fn utilization_at_exactly_one_is_the_boundary_not_a_bug() {
        // A fully busy component and a fully utilized SA sit exactly on
        // the clamp boundary: both must return 1.0 without tripping the
        // debug assertion (the assertion fires only *above* 1 + ε).
        let full = ComponentActivity {
            busy_cycles: BTreeMap::from([(ComponentKind::Sa, 100)]),
            sa_weighted_spatial: 100.0,
            total_cycles: 100,
        };
        assert_eq!(full.temporal_utilization(ComponentKind::Sa), 1.0);
        assert_eq!(full.sa_spatial_utilization(), 1.0);
        // Rounding noise within ε of 1.0 is clamped, not rejected.
        let noisy = ComponentActivity {
            busy_cycles: BTreeMap::from([(ComponentKind::Sa, 100)]),
            sa_weighted_spatial: 100.0 * (1.0 + 1e-12),
            total_cycles: 100,
        };
        assert_eq!(noisy.sa_spatial_utilization(), 1.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "busy fraction")]
    fn overfull_busy_fraction_is_caught_in_debug() {
        // More busy cycles than the clock has is an accounting bug the
        // clamp used to hide silently.
        let broken = ComponentActivity {
            busy_cycles: BTreeMap::from([(ComponentKind::Hbm, 150)]),
            sa_weighted_spatial: 0.0,
            total_cycles: 100,
        };
        let _ = broken.temporal_utilization(ComponentKind::Hbm);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "SA spatial utilization")]
    fn overfull_spatial_weights_are_caught_in_debug() {
        let broken = ComponentActivity {
            busy_cycles: BTreeMap::from([(ComponentKind::Sa, 10)]),
            sa_weighted_spatial: 20.0,
            total_cycles: 100,
        };
        let _ = broken.sa_spatial_utilization();
    }

    #[test]
    fn from_timeline_uses_merged_intervals() {
        let mut tl = BusyTimeline::default();
        tl.record(ComponentKind::Sa, 0, 40);
        tl.record(ComponentKind::Sa, 30, 60); // overlaps: merged, not summed
        tl.record(ComponentKind::Hbm, 10, 30);
        tl.record(ComponentKind::Sram, 0, 100);
        tl.finalize();
        let a = ComponentActivity::from_timeline(&tl, 100, 30.0);
        assert_eq!(a.total_cycles(), 100);
        assert_eq!(a.busy_cycles(ComponentKind::Sa), 60);
        assert_eq!(a.busy_cycles(ComponentKind::Hbm), 20);
        assert_eq!(a.idle_cycles(ComponentKind::Hbm), 80);
        assert!((a.sa_spatial_utilization() - 0.5).abs() < 1e-12);
        assert!((a.temporal_utilization(ComponentKind::Sram) - 1.0).abs() < 1e-12);
    }
}
