//! SRAM (scratchpad) allocation with buffer lifetimes.
//!
//! The ReGate instrumentation pass "uses the output of the SRAM allocation
//! pass, which includes the lifetime (start/end instruction index), start
//! address, and size of each allocated buffer" to derive the idle intervals
//! of each 4 KiB segment (§4.3). This module provides that allocation: a
//! simple double-buffered bump allocator over the anchors of a compiled
//! graph, which is what the software-managed SRAM power gating consumes.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use npu_arch::SramGeometry;

use crate::lowering::CompiledGraph;

/// Lifetime and placement of one SRAM buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferLifetime {
    /// Anchor index (position among the graph's anchors) that owns the buffer.
    pub anchor_index: usize,
    /// Start byte address inside the scratchpad.
    pub start_addr: u64,
    /// Buffer size in bytes.
    pub size_bytes: u64,
    /// First anchor index (inclusive) during which the buffer is live.
    pub live_from: usize,
    /// Last anchor index (inclusive) during which the buffer is live.
    pub live_to: usize,
}

impl BufferLifetime {
    /// Whether the buffer is live while anchor `index` executes.
    #[must_use]
    pub fn is_live_at(&self, index: usize) -> bool {
        index >= self.live_from && index <= self.live_to
    }

    /// Exclusive end address of the buffer.
    #[must_use]
    pub fn end_addr(&self) -> u64 {
        self.start_addr + self.size_bytes
    }
}

/// Anchor-index lifetime of a run of scratchpad segments.
///
/// Every segment in `[first_segment, first_segment + num_segments)` is kept
/// live by exactly the same set of buffers, so they share one merged list
/// of anchor ranges. Grouping identical-lifetime runs keeps the query
/// output (and everything built on it, like the simulator's per-segment
/// timeline) proportional to the number of *distinct* lifetimes rather
/// than the tens of thousands of raw 4 KiB segments.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentLifetime {
    /// First segment index of the run.
    pub first_segment: usize,
    /// Number of consecutive segments sharing this lifetime.
    pub num_segments: usize,
    /// Sorted, non-overlapping inclusive anchor-index ranges during which
    /// the segments hold live data. Abutting ranges are *not* merged: two
    /// buffers handing a segment over between adjacent anchors may still
    /// leave a real idle gap on the clock, which only the schedule knows.
    pub anchor_ranges: Vec<(usize, usize)>,
}

/// Sorts inclusive anchor ranges and merges the *overlapping* ones;
/// abutting ranges stay separate (only the schedule knows whether a real
/// clock gap lies between adjacent anchors).
fn merge_anchor_ranges(mut ranges: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    ranges.sort_unstable();
    let mut merged: Vec<(usize, usize)> = Vec::with_capacity(ranges.len());
    for r in ranges {
        match merged.last_mut() {
            Some(last) if r.0 <= last.1 => last.1 = last.1.max(r.1),
            _ => merged.push(r),
        }
    }
    merged
}

/// The static live-byte peak of an allocation: how many bytes are live at
/// the busiest anchor, and which anchor that is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SramPeak {
    /// Maximum of the live-byte profile, in bytes.
    pub peak_bytes: u64,
    /// First anchor index at which the peak occurs (0 for an empty
    /// allocation).
    pub anchor_index: usize,
}

/// Result of allocating a compiled graph's buffers in the scratchpad.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SramAllocation {
    geometry: SramGeometry,
    buffers: Vec<BufferLifetime>,
    num_anchors: usize,
}

impl SramAllocation {
    /// Allocates the anchors of a compiled graph.
    ///
    /// Each anchor gets a buffer of its tiled SRAM usage, live from the
    /// previous anchor (its inputs are prefetched / double buffered) until
    /// the next anchor (its outputs are consumed). Buffers of operators
    /// that are not adjacent in time reuse addresses: the allocator simply
    /// alternates between the bottom and the top half of the scratchpad,
    /// which is how double buffering is commonly laid out.
    #[must_use]
    pub fn allocate(graph: &CompiledGraph, geometry: SramGeometry) -> Self {
        let capacity = geometry.total_bytes();
        let half = capacity / 2;
        let num_anchors = graph.num_anchors();
        let mut buffers = Vec::with_capacity(num_anchors);
        for (index, anchor) in graph.anchors().enumerate() {
            let size = anchor.tile.sram_used_bytes.min(half).max(geometry.segment_bytes());
            // Round to whole segments.
            let size = geometry.segment_bytes() * geometry.segments_for_bytes(size) as u64;
            let start_addr = if index % 2 == 0 { 0 } else { half };
            buffers.push(BufferLifetime {
                anchor_index: index,
                start_addr,
                size_bytes: size.min(half),
                live_from: index.saturating_sub(1),
                live_to: (index + 1).min(num_anchors.saturating_sub(1)),
            });
        }
        SramAllocation { geometry, buffers, num_anchors }
    }

    /// Builds an allocation from an explicit buffer set (synthetic
    /// allocations for tests and analyses that bypass the compiler).
    ///
    /// # Panics
    ///
    /// Panics if a buffer is empty, extends past the scratchpad capacity,
    /// or has an inverted or out-of-range lifetime.
    #[must_use]
    pub fn from_buffers(
        geometry: SramGeometry,
        buffers: Vec<BufferLifetime>,
        num_anchors: usize,
    ) -> Self {
        for b in &buffers {
            assert!(b.size_bytes > 0, "buffer of anchor {} is empty", b.anchor_index);
            assert!(
                b.end_addr() <= geometry.total_bytes(),
                "buffer of anchor {} ends at {:#x}, past the {:#x}-byte scratchpad",
                b.anchor_index,
                b.end_addr(),
                geometry.total_bytes()
            );
            assert!(
                b.live_from <= b.live_to && b.live_to < num_anchors,
                "buffer of anchor {} has lifetime [{}, {}] outside the {num_anchors} anchors",
                b.anchor_index,
                b.live_from,
                b.live_to
            );
        }
        SramAllocation { geometry, buffers, num_anchors }
    }

    /// The scratchpad geometry used for the allocation.
    #[must_use]
    pub fn geometry(&self) -> SramGeometry {
        self.geometry
    }

    /// All allocated buffers.
    #[must_use]
    pub fn buffers(&self) -> &[BufferLifetime] {
        &self.buffers
    }

    /// Number of anchors covered.
    #[must_use]
    pub fn num_anchors(&self) -> usize {
        self.num_anchors
    }

    /// Bytes of SRAM live while anchor `index` executes: the measure of
    /// the *union* of the live buffers' address ranges, so buffers that
    /// alias addresses (double-buffer halves handing over between
    /// adjacent anchors) are counted once, and buffers at arbitrary
    /// addresses (synthetic [`SramAllocation::from_buffers`] layouts)
    /// are never collapsed into one another.
    #[must_use]
    pub fn live_bytes_at(&self, index: usize) -> u64 {
        let mut ranges: Vec<(u64, u64)> = self
            .buffers
            .iter()
            .filter(|b| b.is_live_at(index))
            .map(|b| (b.start_addr, b.end_addr()))
            .collect();
        ranges.sort_unstable();
        let mut live = 0u64;
        let mut cursor = 0u64;
        for (start, end) in ranges {
            live += end.saturating_sub(start.max(cursor));
            cursor = cursor.max(end);
        }
        live
    }

    /// Live bytes at every anchor in one pass: `profile[index]` equals
    /// [`SramAllocation::live_bytes_at`]`(index)` bit for bit, but the
    /// sweep keeps a running active-buffer set instead of rescanning all
    /// buffers per anchor — `O(anchors × live-buffers)` instead of the
    /// point query's `O(anchors × all-buffers)`, which turned the
    /// simulator's per-anchor liveness lookup quadratic on serving-scale
    /// graphs. Buffers arrive in `live_from` order and the active set
    /// stays sorted by address range, so no anchor sorts anything.
    #[must_use]
    pub fn live_bytes_profile(&self) -> Vec<u64> {
        let buffers = self.by_live_from();
        let mut arriving = buffers.iter().peekable();
        // Address range and last live anchor of each active buffer,
        // ascending by range.
        let mut active: Vec<(u64, u64, usize)> = Vec::new();
        let mut profile = Vec::with_capacity(self.num_anchors);
        for index in 0..self.num_anchors {
            while let Some(b) = arriving.next_if(|b| b.live_from <= index) {
                let range = (b.start_addr, b.end_addr());
                let at = active.partition_point(|&(start, end, _)| (start, end) <= range);
                active.insert(at, (range.0, range.1, b.live_to));
            }
            active.retain(|&(.., live_to)| live_to >= index);
            let mut live = 0u64;
            let mut cursor = 0u64;
            for &(start, end, _) in &active {
                live += end.saturating_sub(start.max(cursor));
                cursor = cursor.max(end);
            }
            profile.push(live);
        }
        profile
    }

    /// The buffers in `live_from` order: borrowed when they already are
    /// (the allocator emits them by anchor), sorted otherwise.
    fn by_live_from(&self) -> Cow<'_, [BufferLifetime]> {
        if self.buffers.is_sorted_by_key(|b| b.live_from) {
            Cow::Borrowed(&self.buffers)
        } else {
            let mut sorted = self.buffers.clone();
            sorted.sort_by_key(|b| b.live_from);
            Cow::Owned(sorted)
        }
    }

    /// Number of 4 KiB (segment-sized) segments live while anchor `index`
    /// executes.
    #[must_use]
    pub fn live_segments_at(&self, index: usize) -> usize {
        self.geometry.segments_for_bytes(self.live_bytes_at(index))
    }

    /// Peak live bytes across the whole graph.
    #[must_use]
    pub fn peak_bytes(&self) -> u64 {
        self.live_bytes_profile().into_iter().max().unwrap_or(0)
    }

    /// The static live-byte peak *and where it occurs*: the first anchor
    /// index at which the allocation's live bytes reach their maximum.
    /// This is the single number a pre-simulation capacity check compares
    /// against the target chip's scratchpad — computed in one
    /// [`SramAllocation::live_bytes_profile`] sweep, with the anchor index
    /// carried along so a violation can be reported as an operator span
    /// instead of a bare byte count.
    #[must_use]
    pub fn static_peak(&self) -> SramPeak {
        let mut peak = SramPeak { peak_bytes: 0, anchor_index: 0 };
        for (index, live) in self.live_bytes_profile().into_iter().enumerate() {
            if live > peak.peak_bytes {
                peak = SramPeak { peak_bytes: live, anchor_index: index };
            }
        }
        peak
    }

    /// Inclusive range of segment indices a buffer occupies.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is zero-sized or extends past the scratchpad;
    /// the allocator never emits such a lifetime.
    #[must_use]
    pub fn buffer_segments(&self, buffer: &BufferLifetime) -> (usize, usize) {
        self.geometry
            .segments_for_range(buffer.start_addr, buffer.size_bytes)
            .expect("buffers are non-empty")
    }

    /// Per-segment lifetimes: which anchors keep each segment live.
    ///
    /// Segments never touched by any buffer are omitted — they are dead
    /// for the whole execution. The returned runs are sorted by segment
    /// index and disjoint; within a run the anchor ranges are sorted and
    /// non-overlapping (see [`SegmentLifetime`]). A segment reused across
    /// the double-buffer halves — e.g. the bottom half serving anchors
    /// 0–1 and again anchors 4–5 — reports one range per occupancy, which
    /// is exactly what per-segment idle-interval gating needs (§4.3).
    ///
    /// One `O(anchors + segments)` sweep: a segment's covering buffer set
    /// only changes at a buffer's first segment or one past its last, so
    /// those boundaries, marked in a bitmap over the segment axis, cut it
    /// into runs that share a lifetime, and a buffer covers the runs
    /// between the ranks of its two boundaries. Buffers then arrive in
    /// `live_from` order, so each run merges a new anchor range into its
    /// last one or appends it — no per-run filter over every buffer, and
    /// no sort of the ranges.
    #[must_use]
    pub fn segment_lifetimes(&self) -> Vec<SegmentLifetime> {
        // Bit `s` of `marks`: segment `s` starts a run (or, at
        // `num_segments`, ends the last one).
        let mut marks = vec![0u64; self.geometry.num_segments() / 64 + 1];
        let mut mark = |segment: usize| marks[segment / 64] |= 1 << (segment % 64);
        for b in &self.buffers {
            let (first, last) = self.buffer_segments(b);
            mark(first);
            mark(last + 1);
        }
        // `rank[w]`: boundaries in the words before word `w`, so a
        // boundary's rank is the index of the run it starts.
        let mut rank = Vec::with_capacity(marks.len());
        let mut boundaries = Vec::new();
        for (w, &word) in marks.iter().enumerate() {
            rank.push(boundaries.len());
            let mut bits = word;
            while bits != 0 {
                boundaries.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        let rank_of = |segment: usize| {
            let below = marks[segment / 64] & ((1u64 << (segment % 64)) - 1);
            rank[segment / 64] + below.count_ones() as usize
        };
        let mut ranges: Vec<Vec<(usize, usize)>> =
            vec![Vec::new(); boundaries.len().saturating_sub(1)];
        for b in self.by_live_from().iter() {
            let (first, last) = self.buffer_segments(b);
            for run in &mut ranges[rank_of(first)..rank_of(last + 1)] {
                // Ranges arrive by ascending start: overlapping the last
                // one merges (abutting does not; see `SegmentLifetime`).
                match run.last_mut() {
                    Some(merged) if b.live_from <= merged.1 => merged.1 = merged.1.max(b.live_to),
                    _ => run.push((b.live_from, b.live_to)),
                }
            }
        }
        boundaries
            .windows(2)
            .zip(ranges)
            .filter(|(_, anchor_ranges)| !anchor_ranges.is_empty())
            .map(|(pair, anchor_ranges)| SegmentLifetime {
                first_segment: pair[0],
                num_segments: pair[1] - pair[0],
                anchor_ranges,
            })
            .collect()
    }

    /// Anchor ranges keeping one specific segment live (empty if the
    /// segment is never touched). A direct `O(buffers)` query; callers
    /// iterating many segments should take [`SramAllocation::
    /// segment_lifetimes`] once instead.
    #[must_use]
    pub fn segment_anchor_ranges(&self, segment: usize) -> Vec<(usize, usize)> {
        let ranges = self
            .buffers
            .iter()
            .filter(|b| {
                let (s0, s1) = self.buffer_segments(b);
                s0 <= segment && segment <= s1
            })
            .map(|b| (b.live_from, b.live_to))
            .collect();
        merge_anchor_ranges(ranges)
    }

    /// Average fraction of the scratchpad that is live (capacity
    /// utilization), averaged across anchors.
    #[must_use]
    pub fn mean_capacity_utilization(&self) -> f64 {
        if self.num_anchors == 0 {
            return 0.0;
        }
        let total: u64 = self.live_bytes_profile().into_iter().sum();
        total as f64 / (self.num_anchors as f64 * self.geometry.total_bytes() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lowering::Compiler;
    use npu_arch::{NpuGeneration, NpuSpec, ParallelismConfig};
    use npu_models::{DlrmSize, LlamaModel, LlmPhase, Workload};

    fn allocate(wl: Workload, p: ParallelismConfig) -> SramAllocation {
        let spec = NpuSpec::generation(NpuGeneration::D);
        let graph = wl.build_graph(&p);
        let compiled = Compiler::new(spec.clone()).compile(&graph);
        SramAllocation::allocate(&compiled, spec.sram_geometry())
    }

    #[test]
    fn allocation_covers_every_anchor() {
        let alloc = allocate(
            Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode),
            ParallelismConfig::single(),
        );
        assert_eq!(alloc.buffers().len(), alloc.num_anchors());
        for b in alloc.buffers() {
            assert!(b.size_bytes > 0);
            assert!(b.end_addr() <= alloc.geometry().total_bytes());
            assert!(b.live_from <= b.live_to);
        }
    }

    #[test]
    fn live_bytes_never_exceed_capacity() {
        let alloc = allocate(
            Workload::llm(LlamaModel::Llama3_70B, LlmPhase::Prefill),
            ParallelismConfig::new(1, 8, 1),
        );
        let cap = alloc.geometry().total_bytes();
        for i in 0..alloc.num_anchors() {
            assert!(alloc.live_bytes_at(i) <= cap);
        }
        assert!(alloc.peak_bytes() <= cap);
    }

    #[test]
    fn static_peak_matches_profile_argmax() {
        let alloc = allocate(
            Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill),
            ParallelismConfig::single(),
        );
        let peak = alloc.static_peak();
        assert_eq!(peak.peak_bytes, alloc.peak_bytes());
        let profile = alloc.live_bytes_profile();
        assert_eq!(profile[peak.anchor_index], peak.peak_bytes);
        // First argmax: nothing earlier reaches the peak.
        assert!(profile[..peak.anchor_index].iter().all(|&b| b < peak.peak_bytes));
        // Degenerate case: an empty allocation peaks at zero bytes, anchor 0.
        let geometry = NpuSpec::generation(NpuGeneration::D).sram_geometry();
        let empty = SramAllocation::from_buffers(geometry, Vec::new(), 0);
        assert_eq!(empty.static_peak(), SramPeak { peak_bytes: 0, anchor_index: 0 });
    }

    #[test]
    fn dlrm_uses_small_fraction_of_sram() {
        let alloc = allocate(Workload::dlrm(DlrmSize::Medium), ParallelismConfig::new(8, 1, 1));
        // The paper: DLRM SRAM demand never exceeds 8 MB of the 128 MB SRAM,
        // so at least ~94% of the capacity could be power gated.
        assert!(
            alloc.mean_capacity_utilization() < 0.15,
            "utilization {}",
            alloc.mean_capacity_utilization()
        );
    }

    #[test]
    fn prefill_uses_more_sram_than_decode() {
        let prefill = allocate(
            Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill),
            ParallelismConfig::single(),
        );
        let decode = allocate(
            Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode),
            ParallelismConfig::single(),
        );
        assert!(prefill.mean_capacity_utilization() > decode.mean_capacity_utilization());
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

    #[test]
    fn segment_lifetimes_honor_double_buffer_halves() {
        // 64 KiB scratchpad, 4 KiB segments, 32 KiB halves (segments 0-7
        // bottom, 8-15 top). Bottom half serves anchors 0-1 and is reused
        // for anchors 3-4; the top half bridges them.
        let g = SramGeometry::new(64 * 1024, 4096);
        let alloc = SramAllocation::from_buffers(
            g,
            vec![
                buffer(0, 0, 8192, 0, 1),
                buffer(1, 32 * 1024, 8192, 1, 2),
                buffer(2, 0, 4096, 3, 4),
            ],
            5,
        );
        let runs = alloc.segment_lifetimes();
        // Segment 0: two separate occupancies of the bottom half — the
        // ranges abut nothing and must not be merged into [0, 4].
        assert_eq!(alloc.segment_anchor_ranges(0), vec![(0, 1), (3, 4)]);
        // Segment 1: only the first bottom-half buffer reaches it.
        assert_eq!(alloc.segment_anchor_ranges(1), vec![(0, 1)]);
        // Segment 8 (top half) is live for the bridging buffer only.
        assert_eq!(alloc.segment_anchor_ranges(8), vec![(1, 2)]);
        // Segments 2-7 and 10-15 are never touched.
        assert!(alloc.segment_anchor_ranges(2).is_empty());
        assert!(alloc.segment_anchor_ranges(15).is_empty());
        // Runs are sorted, disjoint, and cover exactly the live segments.
        let mut cursor = 0;
        let mut covered = 0;
        for run in &runs {
            assert!(run.first_segment >= cursor, "runs overlap or are unsorted");
            assert!(run.num_segments > 0);
            cursor = run.first_segment + run.num_segments;
            covered += run.num_segments;
            for pair in run.anchor_ranges.windows(2) {
                assert!(pair[0].1 < pair[1].0, "anchor ranges overlap: {pair:?}");
            }
        }
        assert!(cursor <= g.num_segments());
        assert_eq!(covered, 2 + 2, "two bottom segments + two top segments are ever live");
    }

    #[test]
    fn overlapping_lifetimes_at_one_base_merge_their_anchor_ranges() {
        let g = SramGeometry::new(64 * 1024, 4096);
        let alloc = SramAllocation::from_buffers(
            g,
            vec![buffer(0, 0, 4096, 0, 2), buffer(1, 0, 4096, 2, 5), buffer(2, 0, 4096, 7, 7)],
            8,
        );
        // The first two ranges share anchor 2 and merge; the third stays.
        assert_eq!(alloc.segment_anchor_ranges(0), vec![(0, 5), (7, 7)]);
    }

    #[test]
    fn segment_lifetimes_round_at_the_capacity_edge() {
        // A buffer one byte past a segment boundary claims the next whole
        // segment, and a buffer filling its half exactly reaches the last
        // segment of that half without spilling into the other.
        let g = SramGeometry::new(64 * 1024, 4096);
        let half = 32 * 1024;
        let alloc = SramAllocation::from_buffers(
            g,
            vec![buffer(0, 0, 4097, 0, 0), buffer(1, half, half, 1, 1)],
            2,
        );
        assert_eq!(alloc.segment_anchor_ranges(0), vec![(0, 0)]);
        assert_eq!(alloc.segment_anchor_ranges(1), vec![(0, 0)], "4097 bytes claim segment 1");
        assert!(alloc.segment_anchor_ranges(2).is_empty());
        assert_eq!(alloc.segment_anchor_ranges(8), vec![(1, 1)], "top half starts at segment 8");
        assert_eq!(alloc.segment_anchor_ranges(15), vec![(1, 1)], "full half reaches its edge");
        let top = alloc.buffers().iter().find(|b| b.start_addr == half).unwrap();
        assert_eq!(alloc.buffer_segments(top), (8, 15));
    }

    #[test]
    fn compiled_graph_lifetimes_cover_every_buffer() {
        let alloc = allocate(
            Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode),
            ParallelismConfig::single(),
        );
        let runs = alloc.segment_lifetimes();
        assert!(!runs.is_empty());
        let live_segments: usize = runs.iter().map(|r| r.num_segments).sum();
        assert!(live_segments <= alloc.geometry().num_segments());
        // Every buffer's segment span maps onto runs that contain its
        // lifetime.
        for b in alloc.buffers() {
            let (s0, s1) = alloc.buffer_segments(b);
            assert!(s1 < alloc.geometry().num_segments());
            for ranges in [alloc.segment_anchor_ranges(s0), alloc.segment_anchor_ranges(s1)] {
                assert!(
                    ranges.iter().any(|&(from, to)| from <= b.live_from && b.live_to <= to),
                    "buffer lifetime [{}, {}] missing from ranges {ranges:?}",
                    b.live_from,
                    b.live_to
                );
            }
        }
    }

    #[test]
    fn live_bytes_profile_matches_point_queries() {
        // The sweep must reproduce the per-anchor point query bit for bit,
        // both on a compiled graph and on a synthetic layout with aliased
        // addresses and out-of-order lifetimes.
        let alloc = allocate(
            Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode),
            ParallelismConfig::single(),
        );
        let profile = alloc.live_bytes_profile();
        assert_eq!(profile.len(), alloc.num_anchors());
        for (i, &bytes) in profile.iter().enumerate() {
            assert_eq!(bytes, alloc.live_bytes_at(i), "anchor {i}");
        }
        let g = SramGeometry::new(64 * 1024, 4096);
        let synthetic = SramAllocation::from_buffers(
            g,
            vec![
                buffer(0, 0, 8192, 2, 5),
                buffer(1, 4096, 8192, 0, 3),
                buffer(2, 32 * 1024, 4096, 1, 1),
                buffer(3, 0, 4096, 5, 6),
            ],
            7,
        );
        let profile = synthetic.live_bytes_profile();
        for (i, &bytes) in profile.iter().enumerate() {
            assert_eq!(bytes, synthetic.live_bytes_at(i), "anchor {i}");
        }
        assert_eq!(synthetic.peak_bytes(), *profile.iter().max().unwrap());
    }

    #[test]
    #[should_panic(expected = "past the")]
    fn from_buffers_rejects_over_capacity_buffers() {
        let g = SramGeometry::new(64 * 1024, 4096);
        let _ = SramAllocation::from_buffers(g, vec![buffer(0, 60 * 1024, 8192, 0, 0)], 1);
    }

    #[test]
    fn segment_counts_round_up() {
        let alloc = allocate(
            Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode),
            ParallelismConfig::single(),
        );
        for i in 0..alloc.num_anchors() {
            let segs = alloc.live_segments_at(i);
            let bytes = alloc.live_bytes_at(i);
            assert!(segs as u64 * 4096 >= bytes);
            assert!((segs as u64).saturating_sub(1) * 4096 <= bytes);
        }
    }
}
