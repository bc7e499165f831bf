//! Per-segment SRAM liveness on the global clock.
//!
//! ReGate gates the scratchpad at 4 KiB-segment granularity based on when
//! each segment's data is *live* (§4.3). The compiler's SRAM allocation
//! knows which anchors keep each segment live
//! ([`npu_compiler::SramAllocation::segment_lifetimes`]); this module maps
//! those anchor ranges through the scheduled operator spans onto the
//! global clock and merges them into a [`SegmentTimeline`]: per-segment
//! live intervals that the gating model walks exactly like any other
//! component's busy track — the *dead* gaps between them are the idle
//! intervals that break-even filtering and retention-mode transitions
//! apply to.
//!
//! Segments sharing one lifetime (a contiguous run covered by the same
//! buffers) are stored as a single [`SegmentBand`], so the structure stays
//! proportional to the number of distinct buffer shapes rather than the
//! tens of thousands of raw segments.

use serde::{Deserialize, Serialize};

use npu_compiler::{SegmentLifetime, SramAllocation};

use crate::timeline::{
    complement_intervals, merge_intervals, union_sorted, CycleInterval, ScheduledOp,
};

/// A run of consecutive SRAM segments sharing one live-interval list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentBand {
    /// First segment index of the run.
    pub first_segment: usize,
    /// Number of consecutive segments sharing these intervals.
    pub num_segments: usize,
    /// Merged live intervals on the global clock: sorted, disjoint,
    /// non-abutting, bounded by the makespan.
    pub live: Vec<CycleInterval>,
}

impl SegmentBand {
    /// Total live cycles of one segment in the band.
    #[must_use]
    pub fn live_cycles(&self) -> u64 {
        self.live.iter().map(CycleInterval::len).sum()
    }

    /// Whether a segment of the band holds live data at cycle `at`.
    #[must_use]
    pub fn is_live_at(&self, at: u64) -> bool {
        self.live.iter().any(|iv| iv.contains(at))
    }
}

/// Per-segment SRAM live intervals over one simulated execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentTimeline {
    segment_bytes: u64,
    num_segments: usize,
    makespan: u64,
    /// Ever-live segment runs, sorted by `first_segment`, disjoint.
    bands: Vec<SegmentBand>,
}

impl SegmentTimeline {
    /// Maps an allocation's segment lifetimes through the scheduled
    /// operator spans onto the global clock, with every operator released
    /// at cycle 0 (the single-batch view). See
    /// [`SegmentTimeline::build_with_releases`].
    ///
    /// # Panics
    ///
    /// Panics if the allocation does not cover exactly `ops.len()`
    /// anchors — the allocator guarantees every lifetime lies within its
    /// `num_anchors`, so a mismatched schedule is a caller bug that must
    /// not be silently truncated.
    #[must_use]
    pub fn build(allocation: &SramAllocation, ops: &[ScheduledOp], makespan: u64) -> Self {
        Self::build_with_releases(allocation, ops, makespan, &[])
    }

    /// Maps an allocation's segment lifetimes through the scheduled
    /// operator spans onto the global clock.
    ///
    /// A segment live for anchors `[a0, a1]` holds data from the first
    /// cycle any of those anchors occupies hardware (the prefetch into the
    /// buffer) until the last of them finishes — including the scheduling
    /// gaps in between, where the data sits waiting for its consumer.
    /// Ranges whose clock images overlap or abut are merged.
    ///
    /// `releases` (one entry per scheduled anchor; empty = all zero) marks
    /// the request-release boundaries of a serving trace: a lifetime hull
    /// may **not** bridge a release change, because the later batch's data
    /// cannot exist before its batch dispatched. The allocator's prefetch
    /// lead-in convention anchors a buffer one operator early, which on an
    /// arrival-driven schedule would otherwise stretch the first buffer of
    /// every batch across the whole inter-batch gap — keeping the SRAM
    /// spuriously "live" through exactly the idleness ReGate wants to
    /// gate. Splitting at release boundaries leaves those gaps dead while
    /// keeping the single-batch mapping (uniform releases) bit-for-bit
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics on an anchor-count mismatch with the allocation or a
    /// non-empty `releases` of the wrong length.
    #[must_use]
    pub fn build_with_releases(
        allocation: &SramAllocation,
        ops: &[ScheduledOp],
        makespan: u64,
        releases: &[u64],
    ) -> Self {
        assert_eq!(
            allocation.num_anchors(),
            ops.len(),
            "allocation covers {} anchors but the schedule has {} operators",
            allocation.num_anchors(),
            ops.len()
        );
        Self::from_lifetimes(
            &allocation.segment_lifetimes(),
            allocation.geometry().segment_bytes(),
            allocation.geometry().num_segments(),
            ops,
            makespan,
            releases,
        )
    }

    /// Maps precomputed segment lifetimes through the scheduled spans —
    /// the run-many path: [`npu_compiler::SramAllocation::segment_lifetimes`]
    /// is a sweep over every buffer, so a prepared simulator computes the
    /// lifetime list once and replays it against each release vector. Same
    /// semantics as [`SegmentTimeline::build_with_releases`], which
    /// delegates here.
    ///
    /// # Panics
    ///
    /// Panics if `releases` is non-empty but does not cover every
    /// scheduled operator.
    #[must_use]
    pub fn from_lifetimes(
        lifetimes: &[SegmentLifetime],
        segment_bytes: u64,
        num_segments: usize,
        ops: &[ScheduledOp],
        makespan: u64,
        releases: &[u64],
    ) -> Self {
        assert!(
            releases.is_empty() || releases.len() == ops.len(),
            "release vector covers {} anchors but the schedule has {} operators",
            releases.len(),
            ops.len()
        );
        let release = |k: usize| releases.get(k).copied().unwrap_or(0);
        let mut bands = Vec::new();
        for lifetime in lifetimes {
            let mut live = Vec::with_capacity(lifetime.anchor_ranges.len());
            for &(a0, a1) in &lifetime.anchor_ranges {
                // Split the range into maximal runs of equal release and
                // hull each run separately.
                let mut k = a0;
                while k <= a1 {
                    let mut j = k;
                    while j < a1 && release(j + 1) == release(k) {
                        j += 1;
                    }
                    let anchors = &ops[k..=j];
                    let start = anchors.iter().map(ScheduledOp::span_start).min().unwrap_or(0);
                    let end = anchors.iter().map(|s| s.finish).max().unwrap_or(0).min(makespan);
                    if end > start {
                        live.push(CycleInterval { start, end });
                    }
                    k = j + 1;
                }
            }
            merge_intervals(&mut live);
            if !live.is_empty() {
                bands.push(SegmentBand {
                    first_segment: lifetime.first_segment,
                    num_segments: lifetime.num_segments,
                    live,
                });
            }
        }
        SegmentTimeline { segment_bytes, num_segments, makespan, bands }
    }

    /// An all-dead timeline (no allocation, e.g. an empty graph).
    #[must_use]
    pub fn empty(segment_bytes: u64, num_segments: usize, makespan: u64) -> Self {
        SegmentTimeline { segment_bytes, num_segments, makespan, bands: Vec::new() }
    }

    /// Size of one power-gateable segment in bytes.
    #[must_use]
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Total number of segments in the scratchpad (live or dead).
    #[must_use]
    pub fn num_segments(&self) -> usize {
        self.num_segments
    }

    /// The execution length the dead intervals complement against.
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.makespan
    }

    /// The ever-live segment runs.
    #[must_use]
    pub fn bands(&self) -> &[SegmentBand] {
        &self.bands
    }

    /// Number of segments that are live at least once.
    #[must_use]
    pub fn ever_live_segments(&self) -> usize {
        self.bands.iter().map(|b| b.num_segments).sum()
    }

    /// Live intervals of one segment (empty for never-live segments).
    #[must_use]
    pub fn live_intervals(&self, segment: usize) -> &[CycleInterval] {
        self.bands
            .iter()
            .find(|b| b.first_segment <= segment && segment < b.first_segment + b.num_segments)
            .map(|b| b.live.as_slice())
            .unwrap_or(&[])
    }

    /// Dead intervals of one segment over `[0, makespan)` — the gaps the
    /// gating model walks. A never-live segment is dead for the whole run.
    #[must_use]
    pub fn dead_intervals(&self, segment: usize) -> Vec<CycleInterval> {
        complement_intervals(self.live_intervals(segment), self.makespan)
    }

    /// Dead intervals of every segment in a band.
    #[must_use]
    pub fn dead_intervals_of(&self, band: &SegmentBand) -> Vec<CycleInterval> {
        complement_intervals(&band.live, self.makespan)
    }

    /// Bytes of SRAM live at one instant: the union-weighted sum over all
    /// segments whose live intervals contain `at`.
    #[must_use]
    pub fn live_bytes_at(&self, at: u64) -> u64 {
        self.bands
            .iter()
            .filter(|b| b.is_live_at(at))
            .map(|b| b.num_segments as u64 * self.segment_bytes)
            .sum()
    }

    /// Peak instantaneous live bytes across the whole execution: the
    /// largest [`SegmentTimeline::live_bytes_at`] over every live-interval
    /// start (the live set only grows at a start). Computed in one sweep
    /// over the interval endpoints, so the cost is O(n log n) in the
    /// number of live intervals rather than one full scan per start.
    #[must_use]
    pub fn peak_live_bytes(&self) -> u64 {
        // `(cycle, is_start, bytes)`: at one cycle `false < true` sorts
        // ends before starts, because live intervals are half-open.
        let mut edges: Vec<(u64, bool, u64)> = Vec::new();
        for band in &self.bands {
            let bytes = band.num_segments as u64 * self.segment_bytes;
            for iv in band.live.iter().filter(|iv| !iv.is_empty()) {
                edges.push((iv.start, true, bytes));
                edges.push((iv.end, false, bytes));
            }
        }
        edges.sort_unstable_by_key(|&(at, is_start, _)| (at, is_start));
        let (mut live, mut peak) = (0u64, 0u64);
        for (_, is_start, bytes) in edges {
            if is_start {
                live += bytes;
                peak = peak.max(live);
            } else {
                live -= bytes;
            }
        }
        peak
    }

    /// Merged union of every segment's live intervals: the cycles during
    /// which *any* part of the scratchpad holds live data — the SRAM's
    /// busy track on the component timeline. Each band's finalized list
    /// folds in with one linear merge.
    #[must_use]
    pub fn live_union(&self) -> Vec<CycleInterval> {
        self.bands.iter().fold(Vec::new(), |union, b| union_sorted(union, &b.live))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_arch::SramGeometry;
    use npu_compiler::BufferLifetime;

    fn op(dma_start: u64, main_start: u64, finish: u64) -> ScheduledOp {
        ScheduledOp {
            dma_start,
            dma_end: if dma_start < main_start { main_start } else { dma_start },
            main_start,
            main_end: finish,
            finish,
        }
    }

    fn buffer(
        anchor: usize,
        start_addr: u64,
        size_bytes: u64,
        live_from: usize,
        live_to: usize,
    ) -> BufferLifetime {
        BufferLifetime { anchor_index: anchor, start_addr, size_bytes, live_from, live_to }
    }

    /// 64 KiB / 4 KiB geometry: 16 segments, halves at 0 and 8.
    fn geometry() -> SramGeometry {
        SramGeometry::new(64 * 1024, 4096)
    }

    #[test]
    fn lifetimes_map_through_scheduled_spans() {
        // Three chained ops; the bottom-half buffer is live for anchors
        // 0-1, reused for anchor 2 after a gap on the clock.
        let alloc = SramAllocation::from_buffers(
            geometry(),
            vec![buffer(0, 0, 8192, 0, 1), buffer(2, 0, 4096, 2, 2)],
            3,
        );
        let ops = [op(0, 0, 100), op(100, 120, 300), op(300, 500, 900)];
        let tl = SegmentTimeline::build(&alloc, &ops, 900);
        // Segment 0: [0, 300) from the first occupancy, [300, 900) from
        // the second — they abut on the clock and merge.
        assert_eq!(tl.live_intervals(0), &[CycleInterval { start: 0, end: 900 }]);
        // Segment 1: only the first buffer.
        assert_eq!(tl.live_intervals(1), &[CycleInterval { start: 0, end: 300 }]);
        assert_eq!(tl.dead_intervals(1), vec![CycleInterval { start: 300, end: 900 }]);
        // Never-live segments are dead for the whole run.
        assert!(tl.live_intervals(5).is_empty());
        assert_eq!(tl.dead_intervals(5), vec![CycleInterval { start: 0, end: 900 }]);
        assert_eq!(tl.ever_live_segments(), 2);
        assert_eq!(tl.num_segments(), 16);
    }

    #[test]
    fn concurrent_buffers_sum_their_bytes() {
        // Two operators overlapping on the clock, buffers in opposite
        // halves: while both run, both segment sets are live at once.
        let alloc = SramAllocation::from_buffers(
            geometry(),
            vec![buffer(0, 0, 8192, 0, 0), buffer(1, 32 * 1024, 12288, 1, 1)],
            2,
        );
        let ops = [op(0, 0, 500), op(100, 100, 400)];
        let tl = SegmentTimeline::build(&alloc, &ops, 500);
        assert_eq!(tl.live_bytes_at(50), 8192, "only the first buffer is live");
        assert_eq!(tl.live_bytes_at(200), 8192 + 12288, "concurrent live bytes sum");
        assert_eq!(tl.live_bytes_at(450), 8192, "the second op has finished");
        assert_eq!(tl.peak_live_bytes(), 8192 + 12288);
        assert!(tl.peak_live_bytes() <= geometry().total_bytes());
    }

    #[test]
    fn an_interval_ending_where_another_starts_does_not_overlap_it() {
        // Half-open intervals: band 0 is live on [0, 100), band 1 on
        // [100, 300). At cycle 100 only band 1 is live, so the peak is the
        // larger band, not the sum.
        let alloc = SramAllocation::from_buffers(
            geometry(),
            vec![buffer(0, 0, 4096, 0, 0), buffer(1, 32 * 1024, 8192, 1, 1)],
            2,
        );
        let ops = [op(0, 0, 100), op(100, 100, 300)];
        let tl = SegmentTimeline::build(&alloc, &ops, 300);
        assert_eq!(tl.live_bytes_at(100), 8192);
        assert_eq!(tl.peak_live_bytes(), 8192);
    }

    #[test]
    fn live_union_merges_across_bands() {
        let alloc = SramAllocation::from_buffers(
            geometry(),
            vec![buffer(0, 0, 4096, 0, 0), buffer(1, 32 * 1024, 4096, 1, 1)],
            2,
        );
        // Disjoint spans with a real gap between them.
        let ops = [op(0, 0, 100), op(200, 200, 300)];
        let tl = SegmentTimeline::build(&alloc, &ops, 400);
        assert_eq!(
            tl.live_union(),
            vec![CycleInterval { start: 0, end: 100 }, CycleInterval { start: 200, end: 300 }]
        );
    }

    #[test]
    fn release_boundaries_split_lifetime_hulls() {
        // One buffer whose prefetch lead-in anchor (0) belongs to an
        // earlier batch than its owner (1): anchors 0 and 1 are separated
        // by a long inter-batch gap. With uniform releases the hull
        // bridges the gap; with the release boundary between them the gap
        // must stay dead.
        let alloc = SramAllocation::from_buffers(geometry(), vec![buffer(1, 0, 4096, 0, 1)], 2);
        let ops = [op(0, 0, 100), op(50_000, 50_000, 50_200)];
        let hull = SegmentTimeline::build(&alloc, &ops, 50_200);
        assert_eq!(hull.live_intervals(0), &[CycleInterval { start: 0, end: 50_200 }]);
        let split = SegmentTimeline::build_with_releases(&alloc, &ops, 50_200, &[0, 50_000]);
        assert_eq!(
            split.live_intervals(0),
            &[CycleInterval { start: 0, end: 100 }, CycleInterval { start: 50_000, end: 50_200 }],
            "the inter-batch gap must be dead"
        );
        // Uniform releases reproduce the hull bit for bit.
        let uniform = SegmentTimeline::build_with_releases(&alloc, &ops, 50_200, &[7, 7]);
        assert_eq!(uniform.live_intervals(0), hull.live_intervals(0));
    }

    #[test]
    fn empty_timeline_is_all_dead() {
        let tl = SegmentTimeline::empty(4096, 16, 1000);
        assert_eq!(tl.ever_live_segments(), 0);
        assert_eq!(tl.peak_live_bytes(), 0);
        assert!(tl.live_union().is_empty());
        assert_eq!(tl.dead_intervals(3), vec![CycleInterval { start: 0, end: 1000 }]);
    }

    #[test]
    fn intervals_are_disjoint_sorted_and_bounded() {
        let alloc = SramAllocation::from_buffers(
            geometry(),
            vec![
                buffer(0, 0, 16384, 0, 1),
                buffer(1, 32 * 1024, 8192, 0, 2),
                buffer(2, 0, 8192, 3, 3),
            ],
            4,
        );
        let ops = [op(0, 0, 250), op(0, 250, 400), op(400, 420, 700), op(700, 800, 1000)];
        let tl = SegmentTimeline::build(&alloc, &ops, 1000);
        for band in tl.bands() {
            for iv in &band.live {
                assert!(iv.start < iv.end);
                assert!(iv.end <= tl.makespan());
            }
            for pair in band.live.windows(2) {
                assert!(pair[0].end < pair[1].start, "overlapping/abutting: {pair:?}");
            }
            let dead: u64 = tl.dead_intervals_of(band).iter().map(CycleInterval::len).sum();
            assert_eq!(band.live_cycles() + dead, tl.makespan());
        }
    }
}
