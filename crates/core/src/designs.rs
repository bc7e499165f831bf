//! The power-gating design points compared in the evaluation (paper §6.1).

use serde::{Deserialize, Serialize};

/// A power-gating design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Design {
    /// Baseline NPU chip without any power gating.
    NoPg,
    /// Conventional hardware-managed gating at component granularity with
    /// idle detection (detection window = BET/3); no PE-level SA gating.
    ReGateBase,
    /// `ReGate-Base` plus the PE-level spatial SA gating mechanism; all
    /// components in hardware-managed `auto` mode.
    ReGateHw,
    /// The full design: `ReGate-HW` plus software-managed (compiler
    /// `setpm`) gating for the vector units and the SRAM.
    ReGateFull,
    /// Roofline: zero leakage in the OFF state, zero transition delay, and
    /// every idle period perfectly gated.
    Ideal,
}

impl Design {
    /// All design points in the order plotted by the paper's figures.
    pub const ALL: [Design; 5] =
        [Design::NoPg, Design::ReGateBase, Design::ReGateHw, Design::ReGateFull, Design::Ideal];

    /// The four gating designs (everything except the `NoPG` baseline).
    pub const GATED: [Design; 4] =
        [Design::ReGateBase, Design::ReGateHw, Design::ReGateFull, Design::Ideal];

    /// Label used in figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Design::NoPg => "NoPG",
            Design::ReGateBase => "ReGate-Base",
            Design::ReGateHw => "ReGate-HW",
            Design::ReGateFull => "ReGate-Full",
            Design::Ideal => "Ideal",
        }
    }
}

impl std::fmt::Display for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(Design::NoPg.label(), "NoPG");
        assert_eq!(Design::ReGateBase.to_string(), "ReGate-Base");
        assert_eq!(Design::ReGateFull.label(), "ReGate-Full");
        assert_eq!(Design::ALL.len(), 5);
        assert_eq!(Design::GATED.len(), 4);
    }
}
