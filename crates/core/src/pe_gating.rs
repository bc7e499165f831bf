//! Spatially power-gated systolic array (paper §4.1, Figures 10–13).
//!
//! Three mechanisms cooperate:
//!
//! 1. **Row/column-wise gating from zero-weight detection** (Figure 12):
//!    as weights are pushed in, the hardware records which rows/columns of
//!    the weight panel contain at least one non-zero value. A backwards
//!    OR-prefix-sum turns the non-zero bitmaps into `row_on`/`col_on`
//!    masks: a row/column may be switched off only if it *and every
//!    row/column after it* contain only zeros (earlier rows must still pass
//!    data through).
//! 2. **Diagonal `PE_on` propagation** (Figure 13): when the `M` dimension
//!    is underutilized, PEs wake up just-in-time as the input wavefront
//!    reaches them and fall back to the weight-retaining `W_on` mode once
//!    the per-row input queue drains, so the exposed wake-up latency is a
//!    single PE's delay.
//! 3. **PE power modes** (Figure 11): `Off` (everything gated), `W_on`
//!    (only the weight register powered), `On` (fully active).

use serde::{Deserialize, Serialize};

/// Power mode of one processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PeMode {
    /// Completely power gated.
    Off,
    /// Only the weight register is powered (retains the loaded weight).
    WOn,
    /// Fully active (registers + ALU).
    On,
}

/// Computes the backwards OR-prefix-sum used by the row/column gating logic:
/// output bit `i` is 1 iff any input bit `j >= i` is 1.
#[must_use]
pub fn suffix_or(bits: &[bool]) -> Vec<bool> {
    let mut out = vec![false; bits.len()];
    let mut any = false;
    for i in (0..bits.len()).rev() {
        any |= bits[i];
        out[i] = any;
    }
    out
}

/// Gating plan for one weight panel loaded into a systolic array.
///
/// The plan captures which rows/columns may be switched off for the entire
/// operator (`N`/`K` underutilization) and how many PE-cycles the diagonal
/// dataflow keeps gated when `M` is underutilized.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaGatingPlan {
    sa_width: usize,
    row_on: Vec<bool>,
    col_on: Vec<bool>,
}

impl SaGatingPlan {
    /// Builds the plan from the loaded weight panel.
    ///
    /// `weights[r][c]` is the weight loaded into PE `(r, c)`; panels smaller
    /// than the array are implicitly zero-padded (which is exactly what the
    /// compiler does when `K` or `N` is smaller than the SA width).
    ///
    /// # Panics
    ///
    /// Panics if any row of `weights` is longer than `sa_width` or if more
    /// than `sa_width` rows are given.
    #[must_use]
    pub fn from_weights(sa_width: usize, weights: &[Vec<f32>]) -> Self {
        assert!(weights.len() <= sa_width, "too many weight rows");
        let mut row_nz = vec![false; sa_width];
        let mut col_nz = vec![false; sa_width];
        for (r, row) in weights.iter().enumerate() {
            assert!(row.len() <= sa_width, "weight row {r} too long");
            for (c, &w) in row.iter().enumerate() {
                if w != 0.0 {
                    row_nz[r] = true;
                    col_nz[c] = true;
                }
            }
        }
        SaGatingPlan { sa_width, row_on: suffix_or(&row_nz), col_on: suffix_or(&col_nz) }
    }

    /// Builds the plan directly from a matmul shape `[M,K]×[K,N]` mapped to
    /// a `sa_width`-wide array: rows `>= min(K, width)` and columns
    /// `>= min(N, width)` hold only padded zero weights.
    #[must_use]
    pub fn from_matmul_dims(sa_width: usize, k: usize, n: usize) -> Self {
        let k_used = k.min(sa_width);
        let n_used = n.min(sa_width);
        let row_nz: Vec<bool> = (0..sa_width).map(|r| r < k_used).collect();
        let col_nz: Vec<bool> = (0..sa_width).map(|c| c < n_used).collect();
        SaGatingPlan { sa_width, row_on: suffix_or(&row_nz), col_on: suffix_or(&col_nz) }
    }

    /// Width of the systolic array.
    #[must_use]
    pub fn sa_width(&self) -> usize {
        self.sa_width
    }

    /// Whether row `r` must stay powered (it holds non-zero weights or must
    /// pass data to a later row that does).
    #[must_use]
    pub fn row_on(&self, r: usize) -> bool {
        self.row_on.get(r).copied().unwrap_or(false)
    }

    /// Whether column `c` must stay powered.
    #[must_use]
    pub fn col_on(&self, c: usize) -> bool {
        self.col_on.get(c).copied().unwrap_or(false)
    }

    /// Number of rows kept on.
    #[must_use]
    pub fn rows_on(&self) -> usize {
        self.row_on.iter().filter(|&&b| b).count()
    }

    /// Number of columns kept on.
    #[must_use]
    pub fn cols_on(&self) -> usize {
        self.col_on.iter().filter(|&&b| b).count()
    }

    /// Fraction of PEs that can be switched completely off for the whole
    /// operator thanks to row/column gating (the `N`/`K` underutilization
    /// cases of Figure 10).
    #[must_use]
    pub fn fraction_fully_off(&self) -> f64 {
        let total = (self.sa_width * self.sa_width) as f64;
        let on = (self.rows_on() * self.cols_on()) as f64;
        1.0 - on / total
    }

    /// Power mode of PE `(row, col)` while the wavefront covers it.
    #[must_use]
    pub fn steady_state_mode(&self, row: usize, col: usize) -> PeMode {
        if self.row_on(row) && self.col_on(col) {
            PeMode::On
        } else {
            PeMode::Off
        }
    }

    /// Fraction of PE-cycles gated over the execution of one input tile of
    /// `m` rows, combining row/column gating with the diagonal `PE_on`
    /// wavefront of Figure 13.
    ///
    /// An active PE `(r, c)` inside the powered row/column region is `On`
    /// only while the input wavefront passes through it — `m` cycles out of
    /// the `m + 2·width` cycles the tile occupies the array — and sits in
    /// the weight-retaining `W_on` mode otherwise, which gates everything
    /// but the weight register (modelled as `w_on_residual` of a PE's
    /// power, 10% by default in the evaluation).
    #[must_use]
    pub fn gated_pe_cycle_fraction(&self, m: u64, w_on_residual: f64) -> f64 {
        Self::gated_fraction(self.sa_width, self.rows_on(), self.cols_on(), m, w_on_residual)
    }

    /// [`Self::gated_pe_cycle_fraction`] of the plan
    /// [`Self::from_matmul_dims`] would build, without building it: the
    /// OR-suffix of a prefix mask is that prefix, so `min(k, width)` rows
    /// and `min(n, width)` columns stay on.
    #[must_use]
    pub(crate) fn matmul_gated_pe_cycle_fraction(
        sa_width: usize,
        k: usize,
        n: usize,
        m: u64,
        w_on_residual: f64,
    ) -> f64 {
        Self::gated_fraction(sa_width, k.min(sa_width), n.min(sa_width), m, w_on_residual)
    }

    fn gated_fraction(
        sa_width: usize,
        rows_on: usize,
        cols_on: usize,
        m: u64,
        w_on_residual: f64,
    ) -> f64 {
        let width = sa_width as u64;
        let tile_cycles = (m + 2 * width) as f64;
        let total_pe_cycles = (sa_width * sa_width) as f64 * tile_cycles;
        // PEs outside the powered region: off for the whole tile.
        let off_pes = (sa_width * sa_width - rows_on * cols_on) as f64;
        let off_cycles = off_pes * tile_cycles;
        // PEs inside the powered region: On for m cycles, W_on otherwise.
        let on_pes = (rows_on * cols_on) as f64;
        let won_cycles = on_pes * (tile_cycles - m as f64);
        let gated = off_cycles + won_cycles * (1.0 - w_on_residual);
        gated / total_pe_cycles
    }
}

/// Cycle-level simulation of the diagonal `PE_on` wavefront for one tile of
/// `m` input rows on a `width`-wide array (Figure 13). Returns, per cycle,
/// the number of PEs in `On` mode; used to validate that the analytical
/// [`SaGatingPlan::gated_pe_cycle_fraction`] matches the dataflow.
#[must_use]
pub fn simulate_wavefront_on_pes(width: usize, m: usize) -> Vec<usize> {
    // The input of row r reaches column c at cycle r + c (diagonal skew);
    // the PE at (r, c) is On while any of the m inputs is passing through,
    // i.e. during cycles [r + c, r + c + m).
    let total_cycles = m + 2 * width;
    let mut on_per_cycle = vec![0usize; total_cycles];
    for r in 0..width {
        for c in 0..width {
            let start = r + c;
            let end = (r + c + m).min(total_cycles);
            for slot in &mut on_per_cycle[start..end] {
                *slot += 1;
            }
        }
    }
    on_per_cycle
}

#[cfg(test)]
mod tests {
    use super::*;

    use npu_arch::{ComponentKind, NpuGeneration, NpuSpec};
    use npu_power::{GatingParams, PolicyWalk};

    use crate::designs::Design;
    use crate::policy::PolicyKind;

    /// Walks SA idle intervals under the policy a design preset's table
    /// maps the SA to, the path the evaluator prices the array's idle
    /// gaps with.
    fn sa_idle(design: Design, lens: &[u64], trailing: bool) -> PolicyWalk {
        let config = PolicyKind::Preset(design)
            .config(&GatingParams::default(), &NpuSpec::generation(NpuGeneration::D));
        config.policies[&ComponentKind::Sa].walk_intervals(lens, trailing)
    }

    #[test]
    fn sa_interval_walk_orders_designs() {
        // A mix of short (below PE BET), medium (between PE and full-array
        // BET) and long intervals; all are followed by more SA work.
        let intervals = [10u64, 100, 300, 5000, 20_000];
        let params = GatingParams::default();
        let total: u64 = intervals.iter().sum();
        let nopg = sa_idle(Design::NoPg, &intervals, false);
        let base = sa_idle(Design::ReGateBase, &intervals, false);
        let hw = sa_idle(Design::ReGateHw, &intervals, false);
        let full = sa_idle(Design::ReGateFull, &intervals, false);
        let ideal = sa_idle(Design::Ideal, &intervals, false);
        assert!((nopg.equivalent_cycles - total as f64).abs() < 1e-9);
        assert_eq!(nopg.wake_stall_cycles, 0.0);
        assert!(base.equivalent_cycles < nopg.equivalent_cycles);
        assert!(hw.equivalent_cycles < base.equivalent_cycles, "PE BET gates medium intervals");
        assert!(full.equivalent_cycles < hw.equivalent_cycles, "setpm avoids the window");
        assert_eq!(ideal.equivalent_cycles, 0.0);
        // Base exposes the full-array delay per gated interval; PE-level
        // designs expose a single PE delay on the two long intervals only.
        assert!((base.wake_stall_cycles - 2.0 * params.sa_full_delay as f64).abs() < 1e-9);
        assert!((hw.wake_stall_cycles - 2.0 * params.sa_pe_delay as f64).abs() < 1e-9);
        assert!(hw.wake_stall_cycles < base.wake_stall_cycles);
        assert_eq!(hw.wake_stall_cycles, full.wake_stall_cycles);
    }

    #[test]
    fn trailing_interval_exposes_no_wakeup() {
        // The last interval (20k cycles, ending at the makespan) gates for
        // energy but wakes nothing; an SA-less workload (single trailing
        // interval) pays zero stalls entirely.
        let params = GatingParams::default();
        let base = sa_idle(Design::ReGateBase, &[5000, 20_000], true);
        assert!((base.wake_stall_cycles - params.sa_full_delay as f64).abs() < 1e-9);
        let unused = sa_idle(Design::ReGateBase, &[100_000], true);
        assert_eq!(unused.wake_stall_cycles, 0.0);
        assert!(unused.equivalent_cycles < 100_000.0, "the idle energy is still recovered");
    }

    #[test]
    fn sa_interval_walk_ignores_fragmented_idleness_under_base() {
        // 100 × 100-cycle fragments: below the full-array BET (469), above
        // the PE BET (47). Base recovers nothing; HW recovers almost all.
        let intervals = vec![100u64; 100];
        let base = sa_idle(Design::ReGateBase, &intervals, false);
        let hw = sa_idle(Design::ReGateHw, &intervals, false);
        assert!((base.equivalent_cycles - 10_000.0).abs() < 1e-9, "Base stays at full power");
        assert!(hw.equivalent_cycles < 3_000.0, "PE-level gating recovers the fragments");
        assert_eq!(base.wake_stall_cycles, 0.0);
        assert_eq!(hw.wake_stall_cycles, 0.0, "W_on wavefront wake-ups are hidden");
    }

    #[test]
    fn suffix_or_basic() {
        assert_eq!(suffix_or(&[false, true, false, false]), vec![true, true, false, false]);
        assert_eq!(suffix_or(&[false, false]), vec![false, false]);
        assert_eq!(suffix_or(&[true, false]), vec![true, false]);
        assert_eq!(suffix_or(&[]), Vec::<bool>::new());
    }

    #[test]
    fn figure12_example() {
        // col_nz = 0100 -> col_on = 1100: column 0 stays on despite zero
        // weights because it passes data to column 1.
        let plan = SaGatingPlan::from_weights(
            4,
            &[
                vec![0.0, 4.0, 0.0, 0.0],
                vec![0.0, 0.0, 0.0, 0.0],
                vec![0.0, 1.0, 0.0, 0.0],
                vec![0.0, 0.0, 0.0, 0.0],
            ],
        );
        assert!(plan.col_on(0) && plan.col_on(1));
        assert!(!plan.col_on(2) && !plan.col_on(3));
        // row_nz = 1010 -> row_on = 1110.
        assert!(plan.row_on(0) && plan.row_on(1) && plan.row_on(2));
        assert!(!plan.row_on(3));
        assert_eq!(plan.rows_on(), 3);
        assert_eq!(plan.cols_on(), 2);
        assert!((plan.fraction_fully_off() - (1.0 - 6.0 / 16.0)).abs() < 1e-12);
    }

    #[test]
    fn matmul_dims_padding() {
        // DiT attention: K = 72 on a 128-wide SA leaves 56 rows gated.
        let plan = SaGatingPlan::from_matmul_dims(128, 72, 1024);
        assert_eq!(plan.rows_on(), 72);
        assert_eq!(plan.cols_on(), 128);
        assert!((plan.fraction_fully_off() - (1.0 - 72.0 / 128.0)).abs() < 1e-12);
        // Full-size matmul gates nothing spatially.
        let full = SaGatingPlan::from_matmul_dims(128, 4096, 4096);
        assert_eq!(full.fraction_fully_off(), 0.0);
    }

    #[test]
    fn steady_state_modes() {
        let plan = SaGatingPlan::from_matmul_dims(8, 4, 2);
        assert_eq!(plan.steady_state_mode(0, 0), PeMode::On);
        assert_eq!(plan.steady_state_mode(5, 0), PeMode::Off);
        assert_eq!(plan.steady_state_mode(0, 5), PeMode::Off);
    }

    #[test]
    fn small_m_increases_gated_fraction() {
        let plan = SaGatingPlan::from_matmul_dims(128, 128, 128);
        let small_m = plan.gated_pe_cycle_fraction(2, 0.1);
        let large_m = plan.gated_pe_cycle_fraction(4096, 0.1);
        assert!(small_m > 0.8, "tiny M leaves most PE-cycles gated: {small_m}");
        assert!(large_m < 0.1, "large M keeps the array busy: {large_m}");
        assert!(small_m > large_m);
    }

    #[test]
    fn wavefront_matches_analytical_on_cycles() {
        let width = 16;
        let m = 8;
        let per_cycle = simulate_wavefront_on_pes(width, m);
        let total_on: usize = per_cycle.iter().sum();
        // Every PE is On for exactly m cycles.
        assert_eq!(total_on, width * width * m);
        // The wavefront never switches on more PEs than exist.
        assert!(per_cycle.iter().all(|&n| n <= width * width));
        // Analytical W_on/On split from gated_pe_cycle_fraction with zero
        // residual: gated fraction = 1 - m / (m + 2*width).
        let plan = SaGatingPlan::from_matmul_dims(width, width, width);
        let expected = 1.0 - m as f64 / (m as f64 + 2.0 * width as f64);
        assert!((plan.gated_pe_cycle_fraction(m as u64, 0.0) - expected).abs() < 1e-12);
    }

    #[test]
    fn closed_form_matches_the_built_plan_bit_for_bit() {
        for w in [8usize, 128] {
            let dims = [0, 1, w - 1, w, w + 1, 4 * w];
            for k in dims {
                for n in dims {
                    let plan = SaGatingPlan::from_matmul_dims(w, k, n);
                    for m in [1, w as u64, 32 * w as u64] {
                        let built = plan.gated_pe_cycle_fraction(m, 0.1);
                        let closed = SaGatingPlan::matmul_gated_pe_cycle_fraction(w, k, n, m, 0.1);
                        assert_eq!(closed.to_bits(), built.to_bits(), "w={w} k={k} n={n} m={m}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "too many weight rows")]
    fn oversized_weight_panel_rejected() {
        let _ = SaGatingPlan::from_weights(2, &[vec![1.0], vec![1.0], vec![1.0]]);
    }
}

/// Deterministic property checks over seeded pseudo-random inputs.
///
/// The offline build has no `proptest`, so these run the same invariants
/// over a fixed-seed xorshift64* stream — fully reproducible, no shrink
/// step, but the same coverage intent.
#[cfg(test)]
mod proptests {
    use super::*;

    /// xorshift64* with a fixed seed: deterministic across runs/platforms.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// Uniform in `[lo, hi)`.
        fn range(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next() % (hi - lo)
        }

        fn unit_f64(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn suffix_or_matches_any_of_suffix() {
        let mut rng = XorShift(0x5EED_0001);
        for _ in 0..256 {
            let len = rng.range(0, 64) as usize;
            let bits: Vec<bool> = (0..len).map(|_| rng.next() & 1 == 1).collect();
            let out = suffix_or(&bits);
            for i in 0..bits.len() {
                assert_eq!(out[i], bits[i..].iter().any(|&b| b));
            }
        }
    }

    #[test]
    fn gated_fraction_is_a_valid_fraction() {
        let mut rng = XorShift(0x5EED_0002);
        for _ in 0..256 {
            let k = rng.range(1, 512) as usize;
            let n = rng.range(1, 512) as usize;
            let m = rng.range(1, 4096);
            let residual = rng.unit_f64();
            let plan = SaGatingPlan::from_matmul_dims(128, k, n);
            let f = plan.gated_pe_cycle_fraction(m, residual);
            assert!((0.0..=1.0).contains(&f), "k={k} n={n} m={m} residual={residual} f={f}");
            // More residual power in W_on mode means less gating benefit.
            let f_low = plan.gated_pe_cycle_fraction(m, 0.0);
            assert!(f <= f_low + 1e-12);
        }
    }

    #[test]
    fn rows_cols_on_match_dims() {
        let mut rng = XorShift(0x5EED_0003);
        for _ in 0..256 {
            let k = rng.range(1, 129) as usize;
            let n = rng.range(1, 129) as usize;
            let plan = SaGatingPlan::from_matmul_dims(128, k, n);
            assert_eq!(plan.rows_on(), k.min(128));
            assert_eq!(plan.cols_on(), n.min(128));
        }
    }

    #[test]
    fn wavefront_total_equals_pe_times_m() {
        let mut rng = XorShift(0x5EED_0004);
        for _ in 0..64 {
            let width = rng.range(1, 32) as usize;
            let m = rng.range(1, 64) as usize;
            let per_cycle = simulate_wavefront_on_pes(width, m);
            let total: usize = per_cycle.iter().sum();
            assert_eq!(total, width * width * m);
        }
    }
}
