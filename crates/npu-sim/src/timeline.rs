//! Event-timeline scheduling: per-resource occupancy tracks, merged busy
//! intervals on the global clock, and the idle-interval statistics the
//! ReGate gating model consumes.
//!
//! The engine replaces the old serial anchor walk: every operator is split
//! into a DMA prefetch phase and a main (compute / gather / collective)
//! phase, each phase waits only on its *dependencies* — the operator's
//! producer, its input data, and its execution resource — and phases of
//! different operators overlap freely. HBM prefetch is double buffered:
//! while operator `k` computes, the DMA engine may already stream operator
//! `k+1`'s operands into the second SRAM buffer, and the prefetch of
//! operator `k+2` waits until operator `k` releases its buffer.
//!
//! The output is a [`Schedule`]: per-operator phase times plus merged
//! `[start, end)` busy intervals on the global clock. The engine records
//! each interval once, on the [`ResourceTimeline`] track of the unit or
//! link it occupied (a single chip is the 1-chip case); the per-component
//! [`BusyTimeline`] is derived from those tracks at the end of a run
//! ([`BusyTimeline::from_resources`]). Gating analyses walk the *gaps* of
//! these timelines
//! ([`BusyTimeline::idle_intervals`], [`IdleHistogram`]) instead of
//! aggregate busy-cycle counts, which is what makes break-even filtering
//! and wake-up latency hiding representable (paper §4–§6).

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use npu_arch::ComponentKind;
use npu_models::Adjacency;

use crate::events::{EventKind, EventQueue};
use crate::observer::{NullObserver, SimObserver};

/// The *kind* of a schedulable hardware resource with a single in-order
/// issue port. A [`ResourceSet`] instantiates one resource of each kind
/// per chip (plus one ICI resource per fabric link); the single-chip set
/// has exactly one instance of each, with dense ids in this enum's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Resource {
    /// The systolic arrays (issued as one gang).
    Sa,
    /// The vector units (issued as one gang).
    Vu,
    /// The HBM DMA queue (weight/activation streams and gathers).
    HbmDma,
    /// The inter-chip interconnect port of a chip (single-phase analytic
    /// collectives; per-hop collectives occupy link resources instead).
    Ici,
}

/// Dense index of one resource *instance* within a [`ResourceSet`] — the
/// key of the engine's `free_at` vector and per-resource busy tracks.
/// Replaces direct keying on the fixed [`Resource`] enum so a run can own
/// N chips' worth of units plus one resource per ICI link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ResourceId(pub u32);

impl ResourceId {
    /// The id as a dense vector index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<Resource> for ResourceId {
    /// Single-chip mapping: ids `0..4` in [`Resource`] enum order — chip
    /// 0's unit of each kind in [`ResourceSet::single_chip`].
    fn from(kind: Resource) -> Self {
        ResourceId(kind as u32)
    }
}

/// Per-chip resource kinds, in dense-id order within each chip's block.
const CHIP_UNITS: [Resource; 4] = [Resource::Sa, Resource::Vu, Resource::HbmDma, Resource::Ici];

/// The resource instances one engine run schedules over: `num_chips`
/// blocks of per-chip units ([`Resource::Sa`], [`Resource::Vu`],
/// [`Resource::HbmDma`], [`Resource::Ici`] — ids `4c .. 4c+4`), followed
/// by one ICI resource per fabric link (ids `4 * num_chips + l`). The
/// layout is fully determined by the two counts, so the set is a tiny
/// `Copy` descriptor rather than a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceSet {
    num_chips: usize,
    num_links: usize,
}

impl ResourceSet {
    /// The pre-refactor single-chip set: one unit of each [`Resource`]
    /// kind, ids `0..4` in enum order, no link resources.
    #[must_use]
    pub fn single_chip() -> Self {
        ResourceSet { num_chips: 1, num_links: 0 }
    }

    /// A pod of `num_chips` chips over a fabric with `num_links` links.
    ///
    /// # Panics
    ///
    /// Panics if `num_chips` is zero.
    #[must_use]
    pub fn pod(num_chips: usize, num_links: usize) -> Self {
        assert!(num_chips > 0, "a resource set needs at least one chip");
        ResourceSet { num_chips, num_links }
    }

    /// Number of chips in the set.
    #[must_use]
    pub fn num_chips(&self) -> usize {
        self.num_chips
    }

    /// Number of fabric-link resources in the set.
    #[must_use]
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// Total number of resource instances (`4 * chips + links`).
    #[must_use]
    pub fn num_resources(&self) -> usize {
        self.num_chips * CHIP_UNITS.len() + self.num_links
    }

    /// Whether `id` names a resource of this set.
    #[must_use]
    pub fn contains(&self, id: ResourceId) -> bool {
        id.index() < self.num_resources()
    }

    /// The id of one chip's unit of the given kind.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    #[must_use]
    pub fn unit(&self, chip: usize, kind: Resource) -> ResourceId {
        assert!(chip < self.num_chips, "chip {chip} out of range ({} chips)", self.num_chips);
        ResourceId((chip * CHIP_UNITS.len() + kind as usize) as u32)
    }

    /// The id of one fabric link's resource.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[must_use]
    pub fn link(&self, link: usize) -> ResourceId {
        assert!(link < self.num_links, "link {link} out of range ({} links)", self.num_links);
        self.link_unchecked(link)
    }

    /// The id a fabric link *would* have, without range checking — used
    /// by fixture builders so the `topo.*` analyzer rules can flag
    /// out-of-range links instead of panicking during construction.
    #[must_use]
    pub fn link_unchecked(&self, link: usize) -> ResourceId {
        ResourceId((self.num_chips * CHIP_UNITS.len() + link) as u32)
    }

    /// The kind of a resource instance (link resources are ICI).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the set.
    #[must_use]
    pub fn kind(&self, id: ResourceId) -> Resource {
        assert!(self.contains(id), "resource {} out of range ({})", id.0, self.num_resources());
        let units = self.num_chips * CHIP_UNITS.len();
        if id.index() < units {
            CHIP_UNITS[id.index() % CHIP_UNITS.len()]
        } else {
            Resource::Ici
        }
    }

    /// The chip owning a resource instance, or `None` for fabric links
    /// (which belong to the inter-chip fabric, not to either endpoint).
    #[must_use]
    pub fn chip_of(&self, id: ResourceId) -> Option<usize> {
        let units = self.num_chips * CHIP_UNITS.len();
        if id.index() < units {
            Some(id.index() / CHIP_UNITS.len())
        } else {
            None
        }
    }

    /// The link index of a resource instance, or `None` for chip units.
    #[must_use]
    pub fn link_of(&self, id: ResourceId) -> Option<usize> {
        let units = self.num_chips * CHIP_UNITS.len();
        if (units..self.num_resources()).contains(&id.index()) {
            Some(id.index() - units)
        } else {
            None
        }
    }

    /// The per-chip unit ids of one chip, in [`Resource`] enum order.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    #[must_use]
    pub fn chip_units(&self, chip: usize) -> [ResourceId; 4] {
        [
            self.unit(chip, Resource::Sa),
            self.unit(chip, Resource::Vu),
            self.unit(chip, Resource::HbmDma),
            self.unit(chip, Resource::Ici),
        ]
    }
}

/// Per-hop schedule of a lowered collective: the fabric-link resources
/// the collective occupies and the duration of each of its steps. A ring
/// collective drives *every* ring link concurrently during each step, so
/// the engine gang-issues the whole link set for `sum(step_cycles)`
/// cycles (which must equal the phase's `main_cycles`); two collectives
/// sharing any link serialize on it naturally via the link's `free_at`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectiveSchedule {
    /// Link resources occupied for the collective's whole duration.
    pub links: Vec<ResourceId>,
    /// Per-step (per-hop) durations; their sum is the total transfer.
    pub step_cycles: Vec<u64>,
}

impl CollectiveSchedule {
    /// Total transfer cycles (sum over steps).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.step_cycles.iter().sum()
    }
}

/// A half-open busy interval `[start, end)` in cycles on the global clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleInterval {
    /// First busy cycle.
    pub start: u64,
    /// First cycle after the interval.
    pub end: u64,
}

impl CycleInterval {
    /// Length of the interval in cycles.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Whether the interval is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Whether the interval contains cycle `at`.
    #[must_use]
    pub fn contains(&self, at: u64) -> bool {
        self.start <= at && at < self.end
    }
}

/// Sorts and merges raw records in place into a *finalized* sequence:
/// sorted, disjoint, non-abutting (overlapping and abutting intervals
/// coalesce). Unions of finalized lists use `union_sorted` instead.
///
/// Allocation-free: coalescing happens behind a write cursor, and the sort
/// is skipped entirely when the input is already ordered — which
/// schedule-order recording guarantees for most tracks (the HBM-DMA track
/// can interleave prefetch-channel and demand-channel records out of
/// order, so the sortedness check is mandatory, not just an optimization).
pub(crate) fn merge_intervals(list: &mut Vec<CycleInterval>) {
    if list.len() < 2 {
        return;
    }
    let sorted = list.windows(2).all(|w| (w[0].start, w[0].end) <= (w[1].start, w[1].end));
    if !sorted {
        list.sort_by_key(|iv| (iv.start, iv.end));
    }
    let mut write = 0usize;
    for read in 1..list.len() {
        let iv = list[read];
        if iv.start <= list[write].end {
            list[write].end = list[write].end.max(iv.end);
        } else {
            write += 1;
            list[write] = iv;
        }
    }
    list.truncate(write + 1);
}

/// Whether a list is finalized: non-empty, sorted, non-abutting intervals.
fn is_finalized(list: &[CycleInterval]) -> bool {
    list.iter().all(|iv| iv.start < iv.end) && list.windows(2).all(|w| w[0].end < w[1].start)
}

/// Merged union of two finalized lists (see [`merge_intervals`]) in one
/// linear two-pointer pass; both inputs must be finalized (debug
/// asserted). Abutting intervals coalesce as in [`merge_intervals`], and a
/// union of half-open intervals has one finalized form, so the result
/// equals sort-and-coalesce of the concatenation, and unions fold. `a` is
/// the fold's accumulator, taken by value so an empty side costs no copy.
pub(crate) fn union_sorted(a: Vec<CycleInterval>, b: &[CycleInterval]) -> Vec<CycleInterval> {
    debug_assert!(is_finalized(&a) && is_finalized(b), "union_sorted needs finalized inputs");
    if b.is_empty() {
        return a;
    }
    if a.is_empty() {
        return b.to_vec();
    }
    let mut out: Vec<CycleInterval> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        // Take the front that starts first (`a` on ties).
        let next = if j == b.len() || (i < a.len() && a[i].start <= b[j].start) {
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
        match out.last_mut() {
            Some(last) if next.start <= last.end => last.end = last.end.max(next.end),
            _ => out.push(next),
        }
    }
    out
}

/// The idle gaps complementing a disjoint, sorted interval list over
/// `[0, total_cycles)`.
pub(crate) fn complement_intervals(
    intervals: &[CycleInterval],
    total_cycles: u64,
) -> Vec<CycleInterval> {
    let mut gaps = Vec::new();
    let mut cursor = 0u64;
    for iv in intervals {
        if iv.start > cursor {
            gaps.push(CycleInterval { start: cursor, end: iv.start.min(total_cycles) });
        }
        cursor = cursor.max(iv.end);
    }
    if total_cycles > cursor {
        gaps.push(CycleInterval { start: cursor, end: total_cycles });
    }
    gaps
}

/// Merged, sorted, disjoint busy intervals per component on the global
/// clock — the timeline the interval-accurate gating model walks, derived
/// from a run's per-resource tracks ([`BusyTimeline::from_resources`]).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BusyTimeline {
    intervals: BTreeMap<ComponentKind, Vec<CycleInterval>>,
}

impl BusyTimeline {
    /// The component view of a run's finalized per-resource tracks over
    /// `[0, makespan)`, and the one place that maps resources to kinds:
    /// SA, VU and HBM-DMA units to `Sa`, `Vu` and `Hbm`; chip ICI units
    /// and fabric links to `Ici`; HBM-DMA and chip ICI units to `Dma`
    /// (collectives never touch the DMA engine); `Other` is always on.
    /// Each kind is a linear union of tracks, and a kind never busy gets
    /// no entry. The prepared simulator adds the SRAM's segment track.
    #[must_use]
    pub fn from_resources(tracks: &ResourceTimeline, set: &ResourceSet, makespan: u64) -> Self {
        let units = |kinds: &[Resource]| -> Vec<ResourceId> {
            (0..set.num_chips()).flat_map(|c| kinds.iter().map(move |&k| set.unit(c, k))).collect()
        };
        let mut ici = units(&[Resource::Ici]);
        ici.extend((0..set.num_links()).map(|l| set.link(l)));
        let mut timeline = BusyTimeline::default();
        for (kind, ids) in [
            (ComponentKind::Sa, units(&[Resource::Sa])),
            (ComponentKind::Vu, units(&[Resource::Vu])),
            (ComponentKind::Hbm, units(&[Resource::HbmDma])),
            (ComponentKind::Dma, units(&[Resource::HbmDma, Resource::Ici])),
            (ComponentKind::Ici, ici),
        ] {
            timeline.insert_finalized(kind, tracks.union_intervals(&ids));
        }
        if makespan > 0 {
            let always_on = vec![CycleInterval { start: 0, end: makespan }];
            timeline.insert_finalized(ComponentKind::Other, always_on);
        }
        timeline
    }

    /// Stores a finalized list as one kind's track (none if empty).
    pub(crate) fn insert_finalized(&mut self, kind: ComponentKind, list: Vec<CycleInterval>) {
        debug_assert!(is_finalized(&list), "{kind:?}: track is not finalized");
        if !list.is_empty() {
            self.intervals.insert(kind, list);
        }
    }

    /// Records a raw (possibly overlapping) busy interval. Call
    /// [`BusyTimeline::finalize`] once after recording everything.
    pub fn record(&mut self, kind: ComponentKind, start: u64, end: u64) {
        if end > start {
            self.intervals.entry(kind).or_default().push(CycleInterval { start, end });
        }
    }

    /// Sorts and merges every component's intervals into a disjoint,
    /// sorted sequence (overlapping and abutting intervals coalesce).
    pub fn finalize(&mut self) {
        for list in self.intervals.values_mut() {
            merge_intervals(list);
        }
    }

    /// Merged busy intervals of one component (empty if never busy).
    #[must_use]
    pub fn intervals(&self, kind: ComponentKind) -> &[CycleInterval] {
        self.intervals.get(&kind).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total busy cycles of one component (sum of merged interval lengths).
    #[must_use]
    pub fn busy_cycles(&self, kind: ComponentKind) -> u64 {
        self.intervals(kind).iter().map(CycleInterval::len).sum()
    }

    /// The idle gaps of one component over `[0, total_cycles)`, including
    /// the leading interval before first use and the trailing interval
    /// after last use. Complements [`BusyTimeline::intervals`] exactly:
    /// busy plus idle lengths sum to `total_cycles`.
    #[must_use]
    pub fn idle_intervals(&self, kind: ComponentKind, total_cycles: u64) -> Vec<CycleInterval> {
        complement_intervals(self.intervals(kind), total_cycles)
    }

    /// Merged union of the busy intervals of several components — the
    /// "any of these is working" timeline. The serving layer uses the
    /// union over every real component (excluding the always-on
    /// peripheral track) to *measure* the chip's duty cycle from the
    /// schedule, instead of assuming the paper's fleet-average scalar.
    #[must_use]
    pub fn union_intervals(&self, kinds: &[ComponentKind]) -> Vec<CycleInterval> {
        kinds.iter().fold(Vec::new(), |union, &k| union_sorted(union, self.intervals(k)))
    }

    /// Total cycles in which at least one of the given components is busy.
    #[must_use]
    pub fn union_busy_cycles(&self, kinds: &[ComponentKind]) -> u64 {
        self.union_intervals(kinds).iter().map(CycleInterval::len).sum()
    }

    /// The gaps over `[0, total_cycles)` in which *none* of the given
    /// components is busy — the whole-chip idle intervals when called
    /// with every real component. These are the pipeline-bubble windows
    /// a chip-level power policy can walk just like any per-component
    /// idle-interval list.
    #[must_use]
    pub fn union_idle_intervals(
        &self,
        kinds: &[ComponentKind],
        total_cycles: u64,
    ) -> Vec<CycleInterval> {
        complement_intervals(&self.union_intervals(kinds), total_cycles)
    }
}

/// Merged, sorted, disjoint busy intervals per resource *instance* — the
/// one store the engine records into, for every [`ResourceSet`] including
/// the single chip. Each SA, VU, HBM-DMA queue, chip ICI port and fabric
/// link keeps its own track, so link-level gating and whole-chip idleness
/// read off directly; the kind-level [`BusyTimeline`] that merges every
/// chip's activity of a kind is derived from them.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ResourceTimeline {
    tracks: Vec<Vec<CycleInterval>>,
}

impl ResourceTimeline {
    /// An empty timeline with one track per resource of the set.
    #[must_use]
    pub fn for_set(set: &ResourceSet) -> Self {
        ResourceTimeline { tracks: vec![Vec::new(); set.num_resources()] }
    }

    /// Records a raw (possibly overlapping) busy interval on one track.
    /// Call [`ResourceTimeline::finalize`] once after recording.
    pub fn record(&mut self, id: ResourceId, start: u64, end: u64) {
        if end > start && id.index() < self.tracks.len() {
            self.tracks[id.index()].push(CycleInterval { start, end });
        }
    }

    /// Sorts and merges every track into a disjoint, sorted sequence.
    pub fn finalize(&mut self) {
        for track in &mut self.tracks {
            merge_intervals(track);
        }
    }

    /// Number of tracks (resources of the set the schedule ran against).
    #[must_use]
    pub fn num_tracks(&self) -> usize {
        self.tracks.len()
    }

    /// Merged busy intervals of one resource (empty if never busy or out
    /// of range).
    #[must_use]
    pub fn track(&self, id: ResourceId) -> &[CycleInterval] {
        self.tracks.get(id.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total busy cycles of one resource.
    #[must_use]
    pub fn busy_cycles(&self, id: ResourceId) -> u64 {
        self.track(id).iter().map(CycleInterval::len).sum()
    }

    /// The idle gaps of one resource over `[0, total_cycles)` — the
    /// intervals a per-link (or per-unit) power policy walks.
    #[must_use]
    pub fn idle_intervals(&self, id: ResourceId, total_cycles: u64) -> Vec<CycleInterval> {
        complement_intervals(self.track(id), total_cycles)
    }

    /// Merged union of several resources' busy intervals.
    #[must_use]
    pub fn union_intervals(&self, ids: &[ResourceId]) -> Vec<CycleInterval> {
        ids.iter().fold(Vec::new(), |union, &id| union_sorted(union, self.track(id)))
    }

    /// The gaps over `[0, total_cycles)` in which none of the given
    /// resources is busy.
    #[must_use]
    pub fn union_idle_intervals(
        &self,
        ids: &[ResourceId],
        total_cycles: u64,
    ) -> Vec<CycleInterval> {
        complement_intervals(&self.union_intervals(ids), total_cycles)
    }

    /// The whole-chip idle intervals of one chip: the gaps in which none
    /// of the chip's units is busy. Pipeline-parallel stage bubbles show
    /// up here as long, contiguous, chip-wide gateable windows.
    #[must_use]
    pub fn chip_idle_intervals(
        &self,
        set: &ResourceSet,
        chip: usize,
        total_cycles: u64,
    ) -> Vec<CycleInterval> {
        self.union_idle_intervals(&set.chip_units(chip), total_cycles)
    }
}

/// One bucket of the idle-interval histogram: intervals with length in
/// `[lower, upper)` cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdleBucket {
    /// Smallest interval length in this bucket (inclusive), in cycles.
    pub lower: u64,
    /// Smallest length *not* in this bucket (exclusive), in cycles.
    pub upper: u64,
    /// Number of idle intervals in the bucket.
    pub count: u64,
    /// Total idle cycles contributed by intervals in the bucket.
    pub total_cycles: u64,
}

/// Chip-level histogram of idle-interval lengths per component, in
/// power-of-two buckets — the distribution §3 and Figure 15 argue gating
/// decisions must be made against.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct IdleHistogram {
    buckets: BTreeMap<ComponentKind, Vec<IdleBucket>>,
}

impl IdleHistogram {
    /// Builds the histogram from a finalized timeline over
    /// `[0, total_cycles)`.
    #[must_use]
    pub fn from_timeline(timeline: &BusyTimeline, total_cycles: u64) -> Self {
        let mut buckets: BTreeMap<ComponentKind, Vec<IdleBucket>> = BTreeMap::new();
        for kind in ComponentKind::ALL {
            let mut per_exp: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
            for gap in timeline.idle_intervals(kind, total_cycles) {
                let len = gap.len();
                if len == 0 {
                    continue;
                }
                let exp = 63 - len.leading_zeros();
                let entry = per_exp.entry(exp).or_default();
                entry.0 += 1;
                entry.1 += len;
            }
            let list = per_exp
                .into_iter()
                .map(|(exp, (count, total))| IdleBucket {
                    lower: 1 << exp,
                    upper: if exp >= 63 { u64::MAX } else { 1 << (exp + 1) },
                    count,
                    total_cycles: total,
                })
                .collect();
            buckets.insert(kind, list);
        }
        IdleHistogram { buckets }
    }

    /// Buckets of one component, sorted by ascending interval length.
    #[must_use]
    pub fn buckets(&self, kind: ComponentKind) -> &[IdleBucket] {
        self.buckets.get(&kind).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total idle cycles of one component (sum over buckets).
    #[must_use]
    pub fn total_idle_cycles(&self, kind: ComponentKind) -> u64 {
        self.buckets(kind).iter().map(|b| b.total_cycles).sum()
    }

    /// Idle cycles of one component sitting in intervals at least
    /// `min_len` cycles long (bucket-resolution approximation of the
    /// cycles a gating policy with break-even `min_len` could recover).
    #[must_use]
    pub fn gateable_cycles(&self, kind: ComponentKind, min_len: u64) -> u64 {
        self.buckets(kind).iter().filter(|b| b.lower >= min_len).map(|b| b.total_cycles).sum()
    }
}

/// Phase durations of one operator, as computed by the per-operator timing
/// model — one node of the [`PhaseGraph`] the timeline engine schedules.
/// When an operator may issue is not part of its phases: its producers
/// are the graph's edges, and release times enter through the release
/// vector of [`TimelineEngine::run_with_scratch`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpPhases {
    /// Execution resource instance of the main phase. Single-chip phase
    /// vectors use the [`Resource`] enum-order ids (`Resource::Sa.into()`
    /// etc.); pod phase vectors address per-chip units and link resources
    /// through their run's [`ResourceSet`].
    pub unit: ResourceId,
    /// Main-phase duration in cycles (compute for SA/VU operators, the
    /// gather for HBM operators, the collective for ICI operators),
    /// excluding dispatch.
    pub main_cycles: u64,
    /// HBM prefetch cycles issued ahead of the main phase (zero for
    /// gathers, which *are* their transfer, and for collectives).
    pub dma_cycles: u64,
    /// Cycles of the prefetch the main phase must wait for before it can
    /// start consuming data (the first tile of a double-buffered stream).
    pub dma_lead_cycles: u64,
    /// Fused vector post-processing overlapped with an SA main phase.
    pub fused_vu_cycles: u64,
    /// Instruction fetch / scalar setup charged at main-phase issue.
    pub dispatch_cycles: u64,
    /// Cycles within the main phase the systolic arrays actually compute.
    pub sa_active_cycles: u64,
    /// Per-hop link occupation of a lowered collective. `None` (every
    /// single-chip operator, and analytic collectives) issues the main
    /// phase on `unit` alone; `Some` gang-issues the whole link set for
    /// `main_cycles` (which must equal the schedule's step sum), and
    /// occupies exactly those links — none means busy nowhere, which the
    /// analyzer denies. Boxed to keep the common no-collective `OpPhases`
    /// small — the phase vector is the engine's hottest working set.
    pub collective: Option<Box<CollectiveSchedule>>,
}

/// An operator DAG at phase level — the input of the timeline engine and
/// of the phase-level analyzer passes: one [`OpPhases`] per operator, in
/// topological order, and one producer list per operator in a shared
/// [`Adjacency`]. Operator `k`'s main phase waits for every operator in
/// `producers().of(k)` to finish (an empty list marks a source), and every
/// such index must be smaller than `k`; the engine asserts that and the
/// analyzer reports it.
///
/// The producer lists sit behind an `Arc` so that a prepared simulator
/// hands the engine the anchor-space adjacency its compiled graph already
/// built, and every result it returns shares that one store.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseGraph {
    ops: Vec<OpPhases>,
    producers: Arc<Adjacency>,
}

impl PhaseGraph {
    /// A phase graph over `ops` whose producer lists are `producers`.
    ///
    /// # Panics
    ///
    /// Panics unless `producers` holds exactly one list per phase.
    #[must_use]
    pub fn new(ops: Vec<OpPhases>, producers: Adjacency) -> Self {
        assert_eq!(ops.len(), producers.len(), "phase graph: one producer list per phase");
        PhaseGraph { ops, producers: Arc::new(producers) }
    }

    /// Wires a phase vector into a linear chain (`k` depends on `k-1`),
    /// the dependency structure of a single-request operator stream.
    #[must_use]
    pub fn chain(ops: Vec<OpPhases>) -> Self {
        let producers = Adjacency::from_edges(ops.len(), (1..ops.len()).map(|k| (k, k - 1)));
        PhaseGraph::new(ops, producers)
    }

    /// Appends an operator whose main phase waits for `producers` (indices
    /// of earlier operators) and returns its index.
    pub fn push(&mut self, op: OpPhases, producers: impl IntoIterator<Item = usize>) -> usize {
        self.ops.push(op);
        Arc::make_mut(&mut self.producers).push(producers);
        self.ops.len() - 1
    }

    /// The per-operator phase durations, in topological order.
    #[must_use]
    pub fn ops(&self) -> &[OpPhases] {
        &self.ops
    }

    /// The producer lists, one per operator, in the shared store.
    #[must_use]
    pub fn producers(&self) -> &Arc<Adjacency> {
        &self.producers
    }

    /// Number of operators.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the graph has no operators.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Scheduled phase times of one operator on the global clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledOp {
    /// DMA prefetch interval (equal `start`/`end` when the operator has no
    /// prefetch).
    pub dma_start: u64,
    /// End of the DMA prefetch.
    pub dma_end: u64,
    /// Main-phase issue cycle (dispatch begins here).
    pub main_start: u64,
    /// End of the main phase.
    pub main_end: u64,
    /// Completion of the operator (all phases done); successors may start.
    pub finish: u64,
}

impl ScheduledOp {
    /// First cycle at which any phase of the operator occupies hardware.
    #[must_use]
    pub fn span_start(&self) -> u64 {
        if self.dma_end > self.dma_start {
            self.dma_start.min(self.main_start)
        } else {
            self.main_start
        }
    }

    /// Occupancy span of the operator on the global clock.
    #[must_use]
    pub fn span_cycles(&self) -> u64 {
        self.finish.saturating_sub(self.span_start())
    }
}

/// Cheap, always-on counters of one engine run — the "how did the event
/// loop behave" numbers (queue pressure, release-clamp stalls, collective
/// occupancy) that end-of-run aggregates cannot reconstruct. Counted
/// inline in the event loop with plain integer arithmetic, so every run —
/// observed or not — carries them at no measurable cost.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RunCounters {
    /// Events popped off the queue over the whole run.
    pub events_popped: u64,
    /// Largest number of scheduled events ever pending at once, counted
    /// across all three [`EventQueue`] lanes, not only its heap. Sampled
    /// at every pop, which catches the true peak: the queue only grows
    /// between pops. The name predates the lanes and stays, because
    /// `perfbench` reports it as `sim.heap_peak`.
    pub heap_peak: u64,
    /// Operators retired (all phases complete).
    pub ops_retired: u64,
    /// Phases that were ready before their operator's release cycle and
    /// had to be clamped to it.
    pub release_stalls: u64,
    /// Total cycles of release clamping across those stalls.
    pub release_stall_cycles: u64,
    /// Lowered collectives gang-issued on link resources.
    pub collectives_issued: u64,
    /// Total per-hop steps across those collectives.
    pub collective_hops: u64,
    /// Busy cycles charged to each fabric link by collectives, indexed by
    /// link number (empty on single-chip runs, which have no links).
    pub link_busy_cycles: Vec<u64>,
}

impl RunCounters {
    /// A zeroed counter block sized for a resource set's links.
    #[must_use]
    pub fn for_set(set: &ResourceSet) -> Self {
        RunCounters { link_busy_cycles: vec![0; set.num_links()], ..RunCounters::default() }
    }
}

/// Result of scheduling a compiled operator stream on the timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Per-operator phase times, in anchor order.
    pub ops: Vec<ScheduledOp>,
    /// Completion time of the last phase (total execution length).
    pub makespan: u64,
    /// Merged per-component busy intervals (finalized), derived from
    /// `resource_timeline` by [`BusyTimeline::from_resources`]. On pod
    /// runs every chip's activity of a kind merges into the one kind track.
    pub timeline: BusyTimeline,
    /// The resource set the schedule was produced against.
    pub resources: ResourceSet,
    /// Per-resource-instance busy tracks (finalized) — one per chip unit
    /// and one per ICI link: the store the engine records into.
    pub resource_timeline: ResourceTimeline,
    /// Event-loop counters of the run that produced the schedule.
    #[serde(default)]
    pub counters: RunCounters,
}

/// Scheduling state of one operator inside the engine.
#[derive(Debug, Clone, Copy, Default)]
struct OpState {
    pending_producers: usize,
    buffer_ready: bool,
    lead_ready: bool,
    dma_issued: bool,
    main_issued: bool,
    main_done: bool,
    dma_done: bool,
    finished: bool,
    dma_start: u64,
    dma_end: u64,
    main_start: u64,
    main_end: u64,
    finish: u64,
}

/// Reusable run state for [`TimelineEngine::run_with_scratch`]: the
/// per-operator state arena and the whole [`EventQueue`], every lane of
/// which each run clears without freeing. Holding one scratch across many
/// runs (a serving sweep, a bench loop) keeps the hot loop free of
/// per-run allocations.
#[derive(Debug, Default)]
pub struct EngineScratch {
    state: Vec<OpState>,
    queue: EventQueue,
}

/// The event-driven timeline engine.
///
/// It schedules a [`PhaseGraph`], a topologically ordered operator DAG:
/// every operator has an explicit producer list (empty for sources), so
/// independent subgraphs — DLRM's per-table gathers feeding one
/// all-to-all, or the operators of a batch sharing a chip — overlap
/// freely instead of being serialized into a chain.
///
/// The engine itself is an immutable topology: the phase graph plus its
/// reverse producer edges and the buffer edges, each one [`Adjacency`]
/// of ascending lists, so operators that become ready at the same cycle
/// issue in index order. All per-run state (operator states, the event
/// queue, the busy timeline) lives in an [`EngineScratch`], so one engine
/// can be run many times — with different release vectors — without
/// rebuilding or reallocating anything, and event completion iterates
/// edge slices instead of cloning dependent lists.
///
/// Dependency rules, per operator `k` (topological order):
///
/// * **DMA prefetch** waits for the DMA engine's *prefetch channel* and
///   for a free input buffer — with double buffering, the buffer released
///   when the second-to-last DMA-using operator (in topological order)
///   finishes. Demand traffic (embedding gathers, whose main phase *is*
///   the transfer) runs on a separate demand channel with its own queue,
///   so a speculative prefetch never delays a gather on the producer
///   chain — which keeps the overlapped makespan provably at or below the
///   serial per-op sum.
/// * **Main phase** waits for *all* of its producers to finish, for the
///   lead portion of its own DMA, and for its execution unit. It does
///   *not* wait for unrelated phases of other operators, and never for
///   successors' prefetches.
/// * **Release times**: no phase of an operator issues before its entry
///   in the release vector of [`TimelineEngine::run_with_scratch`] — the
///   arrival/dispatch time of the request the operator serves. Before it
///   the operator's inputs do not exist, so neither the DMA prefetch nor
///   the main phase may start. Queueing delay and inter-request gaps
///   therefore appear on every resource track as real idle intervals.
/// * The operator **finishes** when both its DMA stream and its main phase
///   (including fused vector post-processing) are complete.
#[derive(Debug)]
pub struct TimelineEngine {
    phases: PhaseGraph,
    /// The resource instances the phase graph schedules over.
    resources: ResourceSet,
    /// `consumers.of(k)`: the operators whose main phase waits for `k` to
    /// finish (the transpose of the producer lists).
    consumers: Adjacency,
    /// `buffer_waiters.of(k)`: the operator whose prefetch waits for `k` to
    /// free its input buffer — the DMA user [`Self::DMA_BUFFER_DEPTH`]
    /// places after `k` in the sequence of DMA-using operators (empty for
    /// every other operator). The first `DMA_BUFFER_DEPTH` DMA users find
    /// a free buffer at seed time.
    buffer_waiters: Adjacency,
}

/// Mutable state of one engine run, borrowed against the immutable
/// topology. `releases` (one entry per operator; empty = every operator
/// released at cycle 0) lets a prepared engine serve many release vectors.
struct EngineRun<'a> {
    topo: &'a TimelineEngine,
    releases: &'a [u64],
    state: &'a mut [OpState],
    queue: &'a mut EventQueue,
    /// Raw busy records per resource instance, finalized after the loop.
    tracks: ResourceTimeline,
    /// When each resource instance frees up, indexed by [`ResourceId`].
    free_at: Vec<u64>,
    /// When each chip's DMA prefetch channel frees up. Demand traffic
    /// (gather main phases) queues on the chip's [`Resource::HbmDma`]
    /// entry in `free_at` instead.
    prefetch_free: Vec<u64>,
    /// Inline event-loop counters, handed to the schedule at the end.
    counters: RunCounters,
}

impl TimelineEngine {
    /// How many operators' input buffers may be in flight at once
    /// (double buffering: compute tile `k` while prefetching `k+1`).
    pub const DMA_BUFFER_DEPTH: usize = 2;

    /// Builds the engine over a compiled operator DAG.
    ///
    /// # Panics
    ///
    /// Panics if a producer index is not smaller than its consumer's
    /// position — the phase graph must be a topological order, which the
    /// graph layer guarantees by construction.
    #[must_use]
    pub fn new(phases: PhaseGraph) -> Self {
        Self::with_resources(phases, ResourceSet::single_chip())
    }

    /// Builds the engine over a compiled operator DAG scheduled against
    /// an explicit resource set — the multi-chip entry point. Phase units
    /// and collective link ids must all name resources of the set.
    ///
    /// # Panics
    ///
    /// Panics if the phase graph is not a topological order, or if any
    /// operator addresses a resource outside the set.
    #[must_use]
    pub fn with_resources(phases: PhaseGraph, resources: ResourceSet) -> Self {
        for (k, p) in phases.ops.iter().enumerate() {
            assert!(
                resources.contains(p.unit),
                "operator {k}: unit {} outside the resource set ({} resources)",
                p.unit.0,
                resources.num_resources()
            );
            if let Some(c) = &p.collective {
                for link in &c.links {
                    assert!(
                        resources.link_of(*link).is_some(),
                        "operator {k}: collective link {} is not a link resource",
                        link.0
                    );
                }
            }
            for &producer in phases.producers.of(k) {
                assert!(
                    producer < k,
                    "operator {k}: producer {producer} does not precede it (not a topological \
                     order)"
                );
            }
        }
        let consumers = phases.producers.transpose();
        // The DMA of the j-th DMA-using operator waits for the
        // (j - DMA_BUFFER_DEPTH)-th DMA-using operator to release its
        // buffer.
        let dma_users: Vec<usize> =
            (0..phases.len()).filter(|&k| phases.ops[k].dma_cycles > 0).collect();
        let buffer_waiters = Adjacency::from_edges(
            phases.len(),
            dma_users
                .iter()
                .zip(dma_users.iter().skip(Self::DMA_BUFFER_DEPTH))
                .map(|(&owner, &waiter)| (owner, waiter)),
        );
        TimelineEngine { phases, resources, consumers, buffer_waiters }
    }

    /// The resource set the engine schedules over.
    #[must_use]
    pub fn resources(&self) -> ResourceSet {
        self.resources
    }

    /// The phase graph the engine was built over — the static view the
    /// schedule analyzer consumes to bound the makespan without running
    /// the event loop ([`crate::analysis::analyze_phases`],
    /// [`crate::analysis::analyze_pod`]).
    #[must_use]
    pub fn phases(&self) -> &PhaseGraph {
        &self.phases
    }

    /// Runs the event loop to completion with every operator released at
    /// cycle 0 and returns the schedule.
    #[must_use]
    pub fn run(self) -> Schedule {
        self.run_with_scratch(&[], &mut EngineScratch::default())
    }

    /// Runs the event loop against reusable scratch buffers, with no phase
    /// of operator `k` issuing before `releases[k]`. The engine is
    /// untouched and may be run again — the compile-once/run-many path of
    /// the serving layer. An empty `releases` releases every operator at
    /// cycle 0 (identical to [`TimelineEngine::run`]).
    ///
    /// # Panics
    ///
    /// Panics if `releases` is neither empty nor exactly one entry per
    /// operator.
    #[must_use]
    pub fn run_with_scratch(&self, releases: &[u64], scratch: &mut EngineScratch) -> Schedule {
        // `NullObserver`'s hooks are empty defaults on a zero-sized type,
        // so this instantiation monomorphizes to the unobserved loop —
        // bit-identical schedules, no extra work on the serving hot path.
        self.run_with_scratch_observed(releases, scratch, &mut NullObserver)
    }

    /// Runs the event loop like [`TimelineEngine::run_with_scratch`],
    /// reporting every issue, retirement, occupancy record, prefetch,
    /// collective gang-issue, and release-clamp stall to `obs`. Observers
    /// never influence scheduling: an observed run produces the same
    /// [`Schedule`], byte for byte, as an unobserved one.
    ///
    /// # Panics
    ///
    /// Panics if `releases` is neither empty nor exactly one entry per
    /// operator.
    #[must_use]
    pub fn run_with_scratch_observed<O: SimObserver>(
        &self,
        releases: &[u64],
        scratch: &mut EngineScratch,
        obs: &mut O,
    ) -> Schedule {
        let n = self.phases.len();
        assert!(
            releases.is_empty() || releases.len() == n,
            "release vector covers {} operators but the engine has {n}",
            releases.len()
        );
        scratch.state.clear();
        scratch.state.resize(n, OpState::default());
        scratch.queue.clear();
        let mut run = EngineRun {
            topo: self,
            releases,
            state: &mut scratch.state,
            queue: &mut scratch.queue,
            tracks: ResourceTimeline::for_set(&self.resources),
            free_at: vec![0; self.resources.num_resources()],
            prefetch_free: vec![0; self.resources.num_chips()],
            counters: RunCounters::for_set(&self.resources),
        };
        // Seed the queue: buffer-free prefetches (the first
        // `DMA_BUFFER_DEPTH` DMA users), then every source operator (all
        // producers already satisfied).
        let mut dma_users = 0usize;
        for k in 0..n {
            let dma_user = self.phases.ops[k].dma_cycles > 0;
            run.state[k].buffer_ready = !dma_user || dma_users < Self::DMA_BUFFER_DEPTH;
            run.state[k].pending_producers = self.phases.producers.of(k).len();
            if dma_user {
                dma_users += 1;
                run.try_issue_dma(k, 0, obs);
            }
        }
        for k in 0..n {
            if run.state[k].pending_producers == 0 {
                run.try_issue_main(k, 0, obs);
            }
        }
        loop {
            // Sampling the queue length right before each pop captures the
            // true peak of pending events: the queue only grows between
            // two pops.
            run.counters.heap_peak = run.counters.heap_peak.max(run.queue.len() as u64);
            let Some(ev) = run.queue.pop() else { break };
            run.counters.events_popped += 1;
            let t = ev.at;
            obs.event_popped(t, run.queue.len());
            match ev.kind {
                EventKind::IssueDma { op } => run.issue_dma(op, t, obs),
                EventKind::DmaLeadArrived { op } => {
                    run.state[op].lead_ready = true;
                    run.try_issue_main(op, t, obs);
                }
                EventKind::DmaComplete { op } => {
                    run.state[op].dma_done = true;
                    run.check_finish(op, t, obs);
                }
                EventKind::IssueMain { op } => run.issue_main(op, t, obs),
                EventKind::MainComplete { op } => {
                    run.state[op].main_done = true;
                    run.check_finish(op, t, obs);
                }
            }
        }
        let makespan = run.state.iter().map(|s| s.finish).max().unwrap_or(0);
        let ops = run
            .state
            .iter()
            .map(|s| ScheduledOp {
                dma_start: s.dma_start,
                dma_end: s.dma_end,
                main_start: s.main_start,
                main_end: s.main_end,
                finish: s.finish,
            })
            .collect();
        let mut resource_timeline = run.tracks;
        resource_timeline.finalize();
        // The SRAM has no blanket busy interval here: the engine layer
        // above maps the allocator's per-segment lifetimes through the
        // scheduled operator spans and adds the union of *live* segment
        // intervals instead (see `Simulator::run`).
        let timeline = BusyTimeline::from_resources(&resource_timeline, &self.resources, makespan);
        Schedule {
            ops,
            makespan,
            timeline,
            resources: self.resources,
            resource_timeline,
            counters: run.counters,
        }
    }
}

impl EngineRun<'_> {
    fn release_of(&self, op: usize) -> u64 {
        // Empty releases: every operator is released at cycle 0.
        self.releases.get(op).copied().unwrap_or(0)
    }

    fn resource_free(&self, r: ResourceId) -> u64 {
        self.free_at[r.index()]
    }

    /// The chip an operator's phases run on (chip 0 for pure-link
    /// collective ops, whose DMA/prefetch phases are zero anyway).
    fn chip_of(&self, op: usize) -> usize {
        self.topo.resources.chip_of(self.topo.phases.ops[op].unit).unwrap_or(0)
    }

    /// Counts (and reports) a phase that was ready at `now` but clamped
    /// to a later release cycle.
    fn note_release_clamp<O: SimObserver>(
        &mut self,
        op: usize,
        now: u64,
        release: u64,
        obs: &mut O,
    ) {
        if release > now {
            self.counters.release_stalls += 1;
            self.counters.release_stall_cycles += release - now;
            obs.release_stall(op, now, release);
        }
    }

    fn try_issue_dma<O: SimObserver>(&mut self, op: usize, now: u64, obs: &mut O) {
        if self.state[op].dma_issued || !self.state[op].buffer_ready {
            return;
        }
        self.state[op].dma_issued = true;
        // A prefetch may not run ahead of its operator's release: before
        // the request arrives there is nothing to stream.
        let release = self.release_of(op);
        self.note_release_clamp(op, now, release, obs);
        let at = now.max(release);
        self.queue.schedule(at, EventKind::IssueDma { op });
    }

    fn issue_dma<O: SimObserver>(&mut self, op: usize, now: u64, obs: &mut O) {
        let p = &self.topo.phases.ops[op];
        let (dma_cycles, lead_cycles) = (p.dma_cycles, p.dma_lead_cycles.min(p.dma_cycles));
        // Prefetches queue on their chip's DMA prefetch channel only:
        // demand traffic (gathers) is never stuck behind speculation.
        let chip = self.chip_of(op);
        let start = now.max(self.prefetch_free[chip]);
        let end = start + dma_cycles;
        self.prefetch_free[chip] = end;
        self.state[op].dma_start = start;
        self.state[op].dma_end = end;
        self.tracks.record(self.topo.resources.unit(chip, Resource::HbmDma), start, end);
        obs.dma_transfer(op, chip, start, end);
        self.queue.schedule(start + lead_cycles, EventKind::DmaLeadArrived { op });
        self.queue.schedule(end, EventKind::DmaComplete { op });
    }

    fn try_issue_main<O: SimObserver>(&mut self, op: usize, now: u64, obs: &mut O) {
        let s = &self.state[op];
        let needs_lead = self.topo.phases.ops[op].dma_cycles > 0;
        if s.main_issued || s.pending_producers > 0 || (needs_lead && !s.lead_ready) {
            return;
        }
        self.state[op].main_issued = true;
        let release = self.release_of(op);
        self.note_release_clamp(op, now, release, obs);
        let at = now.max(release);
        self.queue.schedule(at, EventKind::IssueMain { op });
    }

    fn issue_main<O: SimObserver>(&mut self, op: usize, now: u64, obs: &mut O) {
        let q = &self.topo.phases.ops[op];
        if q.collective.is_some() {
            self.issue_collective(op, now, obs);
            return;
        }
        obs.op_issued(op, now);
        let (unit, main_cycles, fused_vu_cycles, dispatch_cycles, sa_active_cycles) =
            (q.unit, q.main_cycles, q.fused_vu_cycles, q.dispatch_cycles, q.sa_active_cycles);
        let start = now.max(self.resource_free(unit));
        let active_start = start + dispatch_cycles;
        let unit_end = active_start + main_cycles;
        self.free_at[unit.index()] = unit_end;
        // Fused vector post-processing overlaps the SA drain but can
        // outlast it; the operator is complete only when both are done.
        let mut end = unit_end;
        match self.topo.resources.kind(unit) {
            Resource::Sa => {
                let sa_end = active_start + sa_active_cycles.min(main_cycles);
                self.tracks.record(unit, active_start, sa_end);
                obs.resource_busy(unit, op, active_start, sa_end);
                if fused_vu_cycles > 0 {
                    // Fused post-processing runs on the vector units,
                    // overlapped with the SA dataflow. It does not delay
                    // the SA issue, but it *does* queue on the VU gang:
                    // with DAG overlap an independent VU operator may
                    // already be in flight, and one gang cannot run both
                    // at once (in a chain the producer edge guarantees the
                    // VU is free by now, so this wait never fires there).
                    let chip = self.chip_of(op);
                    let vu = self.topo.resources.unit(chip, Resource::Vu);
                    let fused_start = active_start.max(self.resource_free(vu));
                    let fused_end = fused_start + fused_vu_cycles;
                    self.tracks.record(vu, fused_start, fused_end);
                    obs.resource_busy(vu, op, fused_start, fused_end);
                    self.free_at[vu.index()] = fused_end;
                    end = end.max(fused_end);
                }
            }
            Resource::Vu | Resource::HbmDma | Resource::Ici => {
                self.tracks.record(unit, active_start, unit_end);
                obs.resource_busy(unit, op, active_start, unit_end);
            }
        }
        self.state[op].main_start = start;
        self.state[op].main_end = end;
        self.queue.schedule(end, EventKind::MainComplete { op });
    }

    /// Gang-issues a lowered collective: every link of the plan is held
    /// for the whole transfer (each step of a ring collective drives each
    /// ring link concurrently), so the issue waits for the *latest* of
    /// the links to free up and two collectives sharing any link
    /// serialize on it.
    fn issue_collective<O: SimObserver>(&mut self, op: usize, now: u64, obs: &mut O) {
        let topo = self.topo;
        let q = &topo.phases.ops[op];
        let Some(c) = &q.collective else { return };
        obs.op_issued(op, now);
        let mut start = now;
        for link in &c.links {
            start = start.max(self.free_at[link.index()]);
        }
        let active_start = start + q.dispatch_cycles;
        let end = active_start + q.main_cycles;
        self.counters.collectives_issued += 1;
        self.counters.collective_hops += c.step_cycles.len() as u64;
        for link in &c.links {
            self.free_at[link.index()] = end;
            self.tracks.record(*link, active_start, end);
            obs.resource_busy(*link, op, active_start, end);
            if let Some(l) = topo.resources.link_of(*link) {
                self.counters.link_busy_cycles[l] += end - active_start;
            }
        }
        obs.collective_start(op, &c.links, active_start, end);
        self.state[op].main_start = start;
        self.state[op].main_end = end;
        self.queue.schedule(end, EventKind::MainComplete { op });
    }

    fn check_finish<O: SimObserver>(&mut self, op: usize, now: u64, obs: &mut O) {
        let topo = self.topo;
        let has_dma = topo.phases.ops[op].dma_cycles > 0;
        let s = &self.state[op];
        if s.finished || !s.main_done || (has_dma && !s.dma_done) {
            return;
        }
        self.state[op].finished = true;
        self.state[op].finish = now;
        self.counters.ops_retired += 1;
        obs.op_retired(op, now);
        // Producer edges: consumers with no remaining producers may start.
        // The topology is borrowed for the engine's lifetime, not through
        // `self`, so walking its slices needs no copied dependent lists.
        for &k in topo.consumers.of(op) {
            self.state[k].pending_producers -= 1;
            if self.state[k].pending_producers == 0 {
                self.try_issue_main(k, now, obs);
            }
        }
        // Buffer edges: release this operator's input buffer.
        for &k in topo.buffer_waiters.of(op) {
            self.state[k].buffer_ready = true;
            self.try_issue_dma(k, now, obs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A phase graph of independent sources (no producer edges).
    fn sources(ops: Vec<OpPhases>) -> PhaseGraph {
        let n = ops.len();
        PhaseGraph::new(ops, Adjacency::from_edges(n, []))
    }

    fn sa_op(main: u64, dma: u64) -> OpPhases {
        OpPhases {
            unit: Resource::Sa.into(),
            main_cycles: main,
            dma_cycles: dma,
            dma_lead_cycles: (dma / 4).max(1).min(dma),
            fused_vu_cycles: 0,
            dispatch_cycles: 10,
            sa_active_cycles: main,
            collective: None,
        }
    }

    #[test]
    fn empty_stream_schedules_nothing() {
        let schedule = TimelineEngine::new(PhaseGraph::default()).run();
        assert_eq!(schedule.makespan, 0);
        assert!(schedule.ops.is_empty());
        assert!(schedule.timeline.intervals(ComponentKind::Sa).is_empty());
    }

    #[test]
    fn dma_prefetch_overlaps_previous_compute() {
        // Two identical ops: op 1's DMA must stream while op 0 computes.
        let ops = PhaseGraph::chain(vec![sa_op(1000, 400), sa_op(1000, 400)]);
        let schedule = TimelineEngine::new(ops).run();
        let [a, b] = [schedule.ops[0], schedule.ops[1]];
        assert!(b.dma_start < a.main_end, "op 1's prefetch starts during op 0's compute");
        assert!(b.main_start >= a.finish, "op 1 computes only after its producer finishes");
        // Serial cost would be 2 * (max(1000, 400) + 10); overlap beats it.
        assert!(schedule.makespan < 2 * 1010 + 400);
    }

    #[test]
    fn consumer_never_starts_before_producer_finishes() {
        let ops =
            PhaseGraph::chain(vec![sa_op(100, 800), sa_op(50, 20), sa_op(700, 100), sa_op(5, 5)]);
        let schedule = TimelineEngine::new(ops).run();
        for pair in schedule.ops.windows(2) {
            assert!(pair[1].main_start >= pair[0].finish, "{pair:?}");
        }
    }

    #[test]
    fn double_buffering_throttles_prefetch_depth() {
        // Op 2's DMA may not start before op 0 releases its buffer, even
        // though the HBM queue is free much earlier.
        let ops = PhaseGraph::chain(vec![sa_op(10_000, 10), sa_op(10_000, 10), sa_op(10_000, 10)]);
        let schedule = TimelineEngine::new(ops).run();
        assert!(schedule.ops[1].dma_start < schedule.ops[0].finish, "depth-2 prefetch runs ahead");
        assert!(
            schedule.ops[2].dma_start >= schedule.ops[0].finish,
            "depth-3 prefetch waits for the buffer"
        );
    }

    #[test]
    fn busy_intervals_are_disjoint_and_sorted() {
        let ops = PhaseGraph::chain(vec![
            sa_op(300, 500),
            sa_op(40, 700),
            sa_op(900, 100),
            sa_op(10, 2000),
        ]);
        let schedule = TimelineEngine::new(ops).run();
        for kind in ComponentKind::ALL {
            let intervals = schedule.timeline.intervals(kind);
            for iv in intervals {
                assert!(iv.start < iv.end, "{kind:?}: empty interval {iv:?}");
            }
            for pair in intervals.windows(2) {
                assert!(pair[0].end < pair[1].start, "{kind:?}: overlapping/abutting {pair:?}");
            }
        }
    }

    #[test]
    fn idle_intervals_complement_busy_intervals() {
        let ops = PhaseGraph::chain(vec![sa_op(300, 500), sa_op(40, 700), sa_op(900, 100)]);
        let schedule = TimelineEngine::new(ops).run();
        let total = schedule.makespan;
        for kind in ComponentKind::ALL {
            let busy = schedule.timeline.busy_cycles(kind);
            let idle: u64 =
                schedule.timeline.idle_intervals(kind, total).iter().map(CycleInterval::len).sum();
            assert_eq!(busy + idle, total, "{kind:?}");
        }
    }

    #[test]
    fn histogram_buckets_account_for_every_idle_cycle() {
        let ops = PhaseGraph::chain(vec![
            sa_op(300, 500),
            sa_op(40, 700),
            sa_op(900, 100),
            sa_op(10, 90),
        ]);
        let schedule = TimelineEngine::new(ops).run();
        let histogram = IdleHistogram::from_timeline(&schedule.timeline, schedule.makespan);
        for kind in ComponentKind::ALL {
            let idle: u64 = schedule
                .timeline
                .idle_intervals(kind, schedule.makespan)
                .iter()
                .map(CycleInterval::len)
                .sum();
            assert_eq!(histogram.total_idle_cycles(kind), idle, "{kind:?}");
            for bucket in histogram.buckets(kind) {
                assert!(bucket.count > 0);
                assert!(bucket.total_cycles >= bucket.count * bucket.lower);
                assert!(bucket.lower < bucket.upper);
            }
        }
    }

    #[test]
    fn merge_coalesces_overlapping_records() {
        let mut tl = BusyTimeline::default();
        tl.record(ComponentKind::Vu, 10, 20);
        tl.record(ComponentKind::Vu, 15, 30);
        tl.record(ComponentKind::Vu, 30, 40);
        tl.record(ComponentKind::Vu, 50, 60);
        tl.record(ComponentKind::Vu, 55, 55); // empty: dropped
        tl.finalize();
        assert_eq!(
            tl.intervals(ComponentKind::Vu),
            &[CycleInterval { start: 10, end: 40 }, CycleInterval { start: 50, end: 60 }]
        );
        assert_eq!(tl.busy_cycles(ComponentKind::Vu), 40);
        let gaps = tl.idle_intervals(ComponentKind::Vu, 100);
        assert_eq!(
            gaps,
            vec![
                CycleInterval { start: 0, end: 10 },
                CycleInterval { start: 40, end: 50 },
                CycleInterval { start: 60, end: 100 },
            ]
        );
    }

    fn gather_op(main: u64) -> OpPhases {
        OpPhases {
            unit: Resource::HbmDma.into(),
            main_cycles: main,
            dma_cycles: 0,
            dma_lead_cycles: 0,
            fused_vu_cycles: 0,
            dispatch_cycles: 10,
            sa_active_cycles: 0,
            collective: None,
        }
    }

    #[test]
    fn prefetch_never_delays_a_gather() {
        // Regression: op 1's prefetch used to be seeded at cycle 0 and
        // occupy the single HBM/DMA track before op 0 — a gather whose
        // *main* phase is the transfer — could issue, delaying the
        // producer chain by the entire prefetch. Demand traffic now runs
        // on its own channel.
        let schedule =
            TimelineEngine::new(PhaseGraph::chain(vec![gather_op(1000), sa_op(800, 500)])).run();
        let [g, s] = [schedule.ops[0], schedule.ops[1]];
        assert_eq!(g.main_start, 0, "the gather issues immediately");
        assert!(s.main_start >= g.finish, "the consumer still waits for its producer");
        // Serial: (1000 + 10) + (max(800, 500) + 10).
        assert!(schedule.makespan <= 1010 + 810, "makespan {} exceeds serial", schedule.makespan);
    }

    #[test]
    fn gathers_are_not_stuck_behind_a_long_speculative_prefetch() {
        // A huge prefetch admitted early (op 1, buffer-free) must not push
        // back the demand gathers of ops 2-3 on the producer chain.
        let ops = PhaseGraph::chain(vec![
            sa_op(50, 40),
            sa_op(50, 100_000),
            gather_op(200),
            gather_op(200),
        ]);
        let schedule = TimelineEngine::new(ops).run();
        let serial: u64 = (50 + 10) + (100_000 + 10) + (200 + 10) + (200 + 10);
        assert!(
            schedule.makespan <= serial,
            "makespan {} exceeds serial {serial}",
            schedule.makespan
        );
        // Each gather issues as soon as its producer finishes.
        assert_eq!(schedule.ops[2].main_start, schedule.ops[1].finish);
        assert_eq!(schedule.ops[3].main_start, schedule.ops[2].finish);
    }

    #[test]
    fn fused_vu_longer_than_compute_extends_the_op() {
        // Regression: fused post-processing outlasting the SA compute used
        // to leak a VU busy interval past the operator's finish (and, on
        // the last operator, past the makespan).
        let mut op = sa_op(100, 50);
        op.fused_vu_cycles = 700;
        let schedule = TimelineEngine::new(sources(vec![op])).run();
        let s = schedule.ops[0];
        assert!(s.finish >= s.main_start + 10 + 700, "finish covers the fused tail");
        assert_eq!(schedule.makespan, s.finish);
        let total = schedule.makespan;
        for kind in ComponentKind::ALL {
            let busy = schedule.timeline.busy_cycles(kind);
            assert!(busy <= total, "{kind:?}: busy {busy} leaks past makespan {total}");
            let idle: u64 =
                schedule.timeline.idle_intervals(kind, total).iter().map(CycleInterval::len).sum();
            assert_eq!(busy + idle, total, "{kind:?}");
        }
    }

    #[test]
    fn independent_sources_overlap_across_units() {
        // A gather and an SA op with no edge between them must run
        // concurrently; chained, they would serialize.
        let dag = TimelineEngine::new(sources(vec![gather_op(1000), sa_op(1000, 0)])).run();
        assert_eq!(dag.ops[0].main_start, 0);
        assert_eq!(dag.ops[1].main_start, 0);
        assert!(dag.makespan <= 1010, "independent ops serialized: {}", dag.makespan);
        let chained =
            TimelineEngine::new(PhaseGraph::chain(vec![gather_op(1000), sa_op(1000, 0)])).run();
        assert!(chained.makespan >= 2 * 1010 - 10);
    }

    #[test]
    fn fan_in_waits_for_every_producer() {
        // Diamond: 0 -> {1, 2} -> 3. Op 3 must wait for the slower branch.
        let ops = vec![sa_op(100, 0), gather_op(5000), sa_op(200, 0), sa_op(50, 0)];
        let producers = Adjacency::from(vec![vec![], vec![0], vec![0], vec![1, 2]]);
        let schedule = TimelineEngine::new(PhaseGraph::new(ops, producers)).run();
        let [a, g, b, join] = [schedule.ops[0], schedule.ops[1], schedule.ops[2], schedule.ops[3]];
        assert!(g.main_start >= a.finish && b.main_start >= a.finish);
        assert_eq!(g.main_start, b.main_start, "both branches start when the source finishes");
        assert!(join.main_start >= g.finish.max(b.finish), "the join waits for both branches");
        assert!(g.finish > b.finish, "the gather is the slow branch in this topology");
    }

    #[test]
    fn fan_out_branches_share_a_resource_in_issue_order() {
        // 0 -> {1, 2}, both SA: the branches contend for the SA gang and
        // serialize on it, but neither waits for the other's *completion*
        // dependency-wise (op 2 issues the moment the SA frees up).
        let ops = vec![sa_op(100, 0), sa_op(1000, 0), sa_op(1000, 0)];
        let producers = Adjacency::from(vec![vec![], vec![0], vec![0]]);
        let schedule = TimelineEngine::new(PhaseGraph::new(ops, producers)).run();
        let [_, b, c] = [schedule.ops[0], schedule.ops[1], schedule.ops[2]];
        assert_eq!(c.main_start, b.main_start + 10 + 1000, "SA issues back to back");
        assert!(schedule.makespan < 3 * 1010 + 10, "dispatch of the branches overlaps");
    }

    #[test]
    fn fused_tail_queues_behind_an_in_flight_vu_op() {
        // Regression: with DAG overlap, an SA op's fused VU tail and an
        // independent VU op can be in flight at once; the single VU gang
        // must serialize them instead of being double-booked.
        let vu = OpPhases {
            unit: Resource::Vu.into(),
            main_cycles: 10_000,
            dma_cycles: 0,
            dma_lead_cycles: 0,
            fused_vu_cycles: 0,
            dispatch_cycles: 10,
            sa_active_cycles: 0,
            collective: None,
        };
        let mut sa = sa_op(100, 0);
        sa.fused_vu_cycles = 5000;
        let schedule = TimelineEngine::new(sources(vec![vu, sa])).run();
        let [v, s] = [schedule.ops[0], schedule.ops[1]];
        assert_eq!(v.main_end, 10_010);
        assert_eq!(s.finish, 15_010, "the fused tail starts only when the VU frees up");
        assert_eq!(
            schedule.timeline.busy_cycles(ComponentKind::Vu),
            15_000,
            "one VU gang cannot run the fused tail and the VU op at once"
        );
        assert_eq!(schedule.makespan, 15_010);
    }

    #[test]
    fn release_times_hold_back_every_phase() {
        // Two independent requests: the second is released at cycle 50,000,
        // long after the first finishes. Neither its prefetch nor its main
        // phase may start earlier, and the gap must surface as SA idle time.
        let schedule = TimelineEngine::new(sources(vec![sa_op(1000, 400), sa_op(1000, 400)]))
            .run_with_scratch(&[0, 50_000], &mut EngineScratch::default());
        let [a, b] = [schedule.ops[0], schedule.ops[1]];
        assert!(a.finish < 50_000, "the first request finishes well before the release");
        assert!(b.dma_start >= 50_000, "prefetch ran before the request arrived");
        assert!(b.main_start >= 50_000, "main phase ran before the request arrived");
        // The inter-request gap is a real idle interval on the SA track.
        let gaps = schedule.timeline.idle_intervals(ComponentKind::Sa, schedule.makespan);
        assert!(
            gaps.iter().any(|g| g.len() > 40_000),
            "no long inter-request idle interval: {gaps:?}"
        );
    }

    #[test]
    fn releases_at_or_below_the_natural_start_are_the_identity() {
        // Re-running a chain with each operator's release pinned to the
        // start it naturally achieved must reproduce the schedule exactly:
        // the release clamp only ever *delays* issue, it never reorders a
        // schedule that already satisfies it.
        let ops = PhaseGraph::chain(vec![sa_op(300, 500), sa_op(40, 700), sa_op(900, 100)]);
        let engine = TimelineEngine::new(ops);
        let base = engine.run_with_scratch(&[], &mut EngineScratch::default());
        let releases: Vec<u64> = base.ops.iter().map(ScheduledOp::span_start).collect();
        let with_releases = engine.run_with_scratch(&releases, &mut EngineScratch::default());
        assert_eq!(base.ops, with_releases.ops);
        assert_eq!(base.makespan, with_releases.makespan);
        assert_eq!(base.timeline, with_releases.timeline);
    }

    #[test]
    fn release_later_than_producer_finish_delays_the_consumer() {
        // Chain 0 -> 1, but op 1's request only arrives at 10,000 even
        // though op 0 finishes much earlier.
        let ops = PhaseGraph::chain(vec![sa_op(100, 0), sa_op(100, 0)]);
        let schedule =
            TimelineEngine::new(ops).run_with_scratch(&[0, 10_000], &mut EngineScratch::default());
        assert!(schedule.ops[0].finish < 1000);
        assert_eq!(schedule.ops[1].main_start, 10_000);
    }

    #[test]
    fn union_intervals_merge_across_components() {
        let mut tl = BusyTimeline::default();
        tl.record(ComponentKind::Sa, 0, 10);
        tl.record(ComponentKind::Vu, 5, 20);
        tl.record(ComponentKind::Hbm, 40, 50);
        tl.finalize();
        let union = tl.union_intervals(&[ComponentKind::Sa, ComponentKind::Vu, ComponentKind::Hbm]);
        assert_eq!(
            union,
            vec![CycleInterval { start: 0, end: 20 }, CycleInterval { start: 40, end: 50 }]
        );
        assert_eq!(
            tl.union_busy_cycles(&[ComponentKind::Sa, ComponentKind::Vu, ComponentKind::Hbm]),
            30
        );
        assert_eq!(tl.union_busy_cycles(&[ComponentKind::Ici]), 0);
    }

    /// A seeded finalized list over a small clock, so two lists overlap,
    /// nest and abut often: sorted, with a gap of at least one cycle
    /// between neighbours.
    fn finalized_list(rng: &mut crate::rng::SplitMix64) -> Vec<CycleInterval> {
        let mut list = Vec::new();
        let mut end = rng.range(0, 10);
        for _ in 0..rng.range(0, 12) {
            let start = end + rng.range(1, 8);
            end = start + rng.range(1, 12);
            list.push(CycleInterval { start, end });
        }
        list
    }

    #[test]
    fn union_sorted_matches_sort_and_coalesce() {
        let reference = |a: &[CycleInterval], b: &[CycleInterval]| {
            let mut all = [a, b].concat();
            merge_intervals(&mut all);
            all
        };
        let iv = |start, end| CycleInterval { start, end };
        let cases = [
            (vec![iv(0, 10)], vec![iv(10, 20)]),
            (vec![iv(0, 5), iv(10, 15)], vec![iv(5, 10)]),
            (vec![iv(0, 100)], vec![iv(10, 20), iv(30, 40)]),
            (vec![iv(5, 9), iv(20, 30)], vec![iv(5, 9), iv(20, 30)]),
            (vec![], vec![iv(1, 2)]),
            (vec![], vec![]),
        ];
        for (a, b) in &cases {
            assert_eq!(union_sorted(a.clone(), b), reference(a, b), "{a:?} | {b:?}");
            assert_eq!(union_sorted(b.clone(), a), reference(a, b), "{b:?} | {a:?}");
        }
        assert_eq!(union_sorted(vec![iv(0, 10)], &[iv(10, 20)]), vec![iv(0, 20)], "abutting");
        for seed in 0..500 {
            let mut rng = crate::rng::SplitMix64::new(seed);
            let a = finalized_list(&mut rng);
            let b = if seed % 10 == 0 { a.clone() } else { finalized_list(&mut rng) };
            let union = union_sorted(a.clone(), &b);
            assert_eq!(union, reference(&a, &b), "seed {seed}");
            assert_eq!(union_sorted(b, &a), union, "seed {seed}: not symmetric");
        }
    }

    #[test]
    #[should_panic(expected = "not a topological order")]
    fn forward_producer_edges_are_rejected() {
        let ops = vec![sa_op(100, 0), sa_op(100, 0)];
        let _ = TimelineEngine::new(PhaseGraph::new(ops, Adjacency::from(vec![vec![1], vec![]])));
    }

    #[test]
    fn ici_op_does_not_prefetch() {
        let ops = vec![OpPhases {
            unit: Resource::Ici.into(),
            main_cycles: 500,
            dma_cycles: 0,
            dma_lead_cycles: 0,
            fused_vu_cycles: 0,
            dispatch_cycles: 10,
            sa_active_cycles: 0,
            collective: None,
        }];
        let schedule = TimelineEngine::new(sources(ops)).run();
        assert_eq!(schedule.makespan, 510);
        assert_eq!(schedule.timeline.busy_cycles(ComponentKind::Ici), 500);
        assert_eq!(schedule.timeline.busy_cycles(ComponentKind::Hbm), 0);
        assert_eq!(schedule.timeline.busy_cycles(ComponentKind::Dma), 500);
    }

    #[test]
    fn single_chip_resource_ids_match_enum_order() {
        let set = ResourceSet::single_chip();
        assert_eq!(set.num_resources(), 4);
        for kind in [Resource::Sa, Resource::Vu, Resource::HbmDma, Resource::Ici] {
            let id = ResourceId::from(kind);
            assert_eq!(set.unit(0, kind), id);
            assert_eq!(set.kind(id), kind);
            assert_eq!(set.chip_of(id), Some(0));
            assert_eq!(set.link_of(id), None);
        }
    }

    #[test]
    fn pod_layout_places_links_after_chip_units() {
        let set = ResourceSet::pod(4, 8);
        assert_eq!(set.num_resources(), 4 * 4 + 8);
        assert_eq!(set.unit(3, Resource::Ici), ResourceId(15));
        assert_eq!(set.link(0), ResourceId(16));
        assert_eq!(set.kind(set.link(7)), Resource::Ici);
        assert_eq!(set.chip_of(set.link(3)), None);
        assert_eq!(set.link_of(set.link(3)), Some(3));
        assert_eq!(set.link_of(set.unit(2, Resource::Vu)), None);
        assert_eq!(set.chip_of(set.unit(2, Resource::Vu)), Some(2));
    }

    #[test]
    fn chips_of_a_pod_compute_concurrently() {
        // The same two independent SA ops that would serialize on one
        // chip's array run fully overlapped on two chips.
        let set = ResourceSet::pod(2, 0);
        let mut a = sa_op(1000, 0);
        let mut b = sa_op(1000, 0);
        a.unit = set.unit(0, Resource::Sa);
        b.unit = set.unit(1, Resource::Sa);
        let schedule = TimelineEngine::with_resources(sources(vec![a, b]), set).run();
        assert_eq!(schedule.ops[0].main_start, 0);
        assert_eq!(schedule.ops[1].main_start, 0, "chip 1's SA is its own resource");
        assert_eq!(schedule.makespan, 1010);
        let sa0 = set.unit(0, Resource::Sa);
        let sa1 = set.unit(1, Resource::Sa);
        assert_eq!(schedule.resource_timeline.busy_cycles(sa0), 1000);
        assert_eq!(schedule.resource_timeline.busy_cycles(sa1), 1000);
    }

    #[test]
    fn collectives_sharing_a_link_serialize() {
        // Two independent collectives gang-occupy the same two-link ring:
        // the engine must serialize them on the shared links instead of
        // double-booking, and each link's busy track must show both.
        let set = ResourceSet::pod(2, 2);
        let links = vec![set.link(0), set.link(1)];
        let coll = || OpPhases {
            unit: set.link(0),
            main_cycles: 1000,
            dma_cycles: 0,
            dma_lead_cycles: 0,
            fused_vu_cycles: 0,
            dispatch_cycles: 10,
            sa_active_cycles: 0,
            collective: Some(Box::new(CollectiveSchedule {
                links: links.clone(),
                step_cycles: vec![500, 500],
            })),
        };
        let schedule = TimelineEngine::with_resources(sources(vec![coll(), coll()]), set).run();
        let [a, b] = [schedule.ops[0], schedule.ops[1]];
        assert_eq!(a.main_end, 1010);
        assert!(b.main_start >= a.main_end, "shared links must serialize the collectives");
        assert_eq!(schedule.makespan, 2020);
        for &link in &links {
            assert_eq!(schedule.resource_timeline.busy_cycles(link), 2000);
        }
        assert_eq!(schedule.timeline.busy_cycles(ComponentKind::Ici), 2000);
    }

    #[test]
    fn single_chip_resource_tracks_mirror_the_component_timeline() {
        // Single-chip runs record the per-resource tracks live, like pods,
        // and derive the kind-level timeline from them; on one chip the
        // published equivalence — unit track == component track — must
        // hold on a schedule that exercises every unit kind plus a fused
        // VU tail.
        let mut sa = sa_op(800, 400);
        sa.fused_vu_cycles = 300;
        let gather = gather_op(500);
        let ici = OpPhases {
            unit: Resource::Ici.into(),
            main_cycles: 600,
            dma_cycles: 0,
            dma_lead_cycles: 0,
            fused_vu_cycles: 0,
            dispatch_cycles: 10,
            sa_active_cycles: 0,
            collective: None,
        };
        let schedule = TimelineEngine::new(PhaseGraph::chain(vec![sa, gather, ici])).run();
        let set = schedule.resources;
        assert_eq!(set, ResourceSet::single_chip());
        for (kind, component) in [
            (Resource::Sa, ComponentKind::Sa),
            (Resource::Vu, ComponentKind::Vu),
            (Resource::HbmDma, ComponentKind::Hbm),
            (Resource::Ici, ComponentKind::Ici),
        ] {
            let unit = set.unit(0, kind);
            assert_eq!(
                schedule.resource_timeline.track(unit),
                schedule.timeline.intervals(component),
                "{kind:?} unit track must equal the {component:?} component track"
            );
            assert!(schedule.resource_timeline.busy_cycles(unit) > 0, "{kind:?} was exercised");
        }
    }

    #[test]
    fn chip_idle_intervals_surface_pipeline_bubbles() {
        // Chip 1 runs one op in the middle of a long chip-0 stream: its
        // whole-chip idle view is the leading and trailing bubble.
        let set = ResourceSet::pod(2, 0);
        let mut ops = vec![sa_op(1000, 0), sa_op(1000, 0), sa_op(1000, 0)];
        ops[1].unit = set.unit(1, Resource::Sa);
        let schedule = TimelineEngine::with_resources(PhaseGraph::chain(ops), set).run();
        let bubbles = schedule.resource_timeline.chip_idle_intervals(&set, 1, schedule.makespan);
        assert_eq!(bubbles.len(), 2, "leading and trailing whole-chip bubbles: {bubbles:?}");
        assert!(bubbles[0].len() >= 1000 && bubbles[1].len() >= 1000);
    }
}
