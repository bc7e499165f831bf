//! Chrome trace-event export of an observed engine run.
//!
//! [`TraceRecorder`] implements [`SimObserver`] and materializes the hook
//! stream into *display tracks*: one per resource instance of the run's
//! [`ResourceSet`] (each chip's SA/VU/HBM-DMA/ICI unit, each fabric
//! link), plus one per chip's DMA *prefetch channel* — prefetches and
//! demand gathers share the HBM-DMA unit's busy track in the timeline but
//! are separate in-order queues in the engine, so rendering them on one
//! display track would show false overlap. Serving batches ride along as
//! flow events, and power waveforms (see `npu_power`'s telemetry layer)
//! attach as counter tracks.
//!
//! [`TraceRecorder::chrome_json`] renders everything as Chrome
//! trace-event JSON (the `{"traceEvents": [...]}` object form), directly
//! loadable in `chrome://tracing` or <https://ui.perfetto.dev>. Events
//! stream into one pre-sized [`JsonWriter`] (the workspace's one JSON
//! writer, in `npu_arch::json`) with no per-event `String`; a non-finite
//! counter sample renders as `null`. The export is fully deterministic:
//! two observed runs of the same prepared engine produce byte-identical
//! exports.

use npu_arch::JsonWriter;

use crate::observer::SimObserver;
use crate::timeline::{merge_intervals, CycleInterval, Resource, ResourceId, ResourceSet};

/// One busy slice on a display track: resource occupancy on behalf of
/// one operator over `[start, end)` cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSlice {
    /// Operator (anchor index) the occupancy belongs to.
    pub op: usize,
    /// First busy cycle.
    pub start: u64,
    /// First cycle after the slice.
    pub end: u64,
}

/// A named counter track: `(cycle, value)` samples of a step function,
/// rendered as Chrome `"C"` (counter) events. Cycles are `f64` because
/// power-state boundaries (idle-detection windows) can be fractional.
#[derive(Debug, Clone, PartialEq)]
struct CounterTrack {
    name: String,
    unit: String,
    samples: Vec<(f64, f64)>,
}

/// One serving batch as a flow: dispatched at `dispatch`, completed at
/// `completion`, rendered as an `"X"` span plus `"s"`/`"f"` flow events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BatchFlow {
    index: usize,
    dispatch: u64,
    completion: u64,
}

/// A [`SimObserver`] that records every occupancy hook into per-resource
/// display tracks and renders them as Chrome trace-event JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecorder {
    resources: ResourceSet,
    /// One track per resource instance, indexed by [`ResourceId`].
    unit_slices: Vec<Vec<TraceSlice>>,
    /// One track per chip's DMA prefetch channel.
    prefetch_slices: Vec<Vec<TraceSlice>>,
    counters: Vec<CounterTrack>,
    batches: Vec<BatchFlow>,
}

impl TraceRecorder {
    /// An empty recorder sized for a resource set.
    #[must_use]
    pub fn for_set(set: &ResourceSet) -> Self {
        TraceRecorder {
            resources: *set,
            unit_slices: vec![Vec::new(); set.num_resources()],
            prefetch_slices: vec![Vec::new(); set.num_chips()],
            counters: Vec::new(),
            batches: Vec::new(),
        }
    }

    /// The resource set the recorder's tracks are addressed against.
    #[must_use]
    pub fn resources(&self) -> ResourceSet {
        self.resources
    }

    /// Recorded slices of one resource's display track, in hook order.
    #[must_use]
    pub fn unit_slices(&self, id: ResourceId) -> &[TraceSlice] {
        self.unit_slices.get(id.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Recorded slices of one chip's prefetch-channel display track.
    #[must_use]
    pub fn prefetch_slices(&self, chip: usize) -> &[TraceSlice] {
        self.prefetch_slices.get(chip).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total recorded slices across every display track.
    #[must_use]
    pub fn num_slices(&self) -> usize {
        self.unit_slices.iter().chain(self.prefetch_slices.iter()).map(Vec::len).sum()
    }

    /// Injects a raw slice onto a resource's display track, bypassing the
    /// observer hooks. Exists for the `obs.*` analyzer-rule fixtures,
    /// which need *broken* exports (overlaps, out-of-window events,
    /// timeline disagreements) that no real observed run produces.
    pub fn record_raw_slice(&mut self, id: ResourceId, op: usize, start: u64, end: u64) {
        if id.index() < self.unit_slices.len() {
            self.unit_slices[id.index()].push(TraceSlice { op, start, end });
        }
    }

    /// Attaches a named counter track (rendered as `"C"` events), e.g. a
    /// component's watts-over-time waveform. `unit` labels the value in
    /// the event args (`"watts"`, `"events"`, …).
    pub fn add_counter_track(
        &mut self,
        name: impl Into<String>,
        unit: impl Into<String>,
        samples: Vec<(f64, f64)>,
    ) {
        self.counters.push(CounterTrack { name: name.into(), unit: unit.into(), samples });
    }

    /// Attaches one serving batch as a flow event from its dispatch cycle
    /// to its completion cycle.
    pub fn add_batch_flow(&mut self, index: usize, dispatch: u64, completion: u64) {
        self.batches.push(BatchFlow { index, dispatch, completion });
    }

    /// Every display track as `(name, slices)`, units first (in dense-id
    /// order), then the per-chip prefetch channels — the per-track view
    /// the `obs.*` analyzer rules walk.
    #[must_use]
    pub fn display_tracks(&self) -> Vec<(String, &[TraceSlice])> {
        let mut tracks = Vec::with_capacity(self.unit_slices.len() + self.prefetch_slices.len());
        for (index, slices) in self.unit_slices.iter().enumerate() {
            tracks.push((self.track_name(ResourceId(index as u32)), slices.as_slice()));
        }
        for (chip, slices) in self.prefetch_slices.iter().enumerate() {
            tracks.push((format!("chip{chip}.prefetch"), slices.as_slice()));
        }
        tracks
    }

    /// The merged busy intervals a resource's recorded slices imply: the
    /// unit track plus — for HBM-DMA units — the owning chip's prefetch
    /// channel, coalesced exactly like the engine's own
    /// `ResourceTimeline` finalization. Record-for-record agreement with
    /// the schedule's finalized track is the `obs.timeline-mismatch`
    /// analyzer contract.
    #[must_use]
    pub fn merged_resource_intervals(&self, id: ResourceId) -> Vec<CycleInterval> {
        let mut intervals: Vec<CycleInterval> = self
            .unit_slices(id)
            .iter()
            .filter(|s| s.end > s.start)
            .map(|s| CycleInterval { start: s.start, end: s.end })
            .collect();
        if self.resources.kind(id) == Resource::HbmDma {
            if let Some(chip) = self.resources.chip_of(id) {
                intervals.extend(
                    self.prefetch_slices(chip)
                        .iter()
                        .filter(|s| s.end > s.start)
                        .map(|s| CycleInterval { start: s.start, end: s.end }),
                );
            }
        }
        merge_intervals(&mut intervals);
        intervals
    }

    /// Display name of one resource's track.
    #[must_use]
    pub fn track_name(&self, id: ResourceId) -> String {
        if let Some(link) = self.resources.link_of(id) {
            return format!("link{link}");
        }
        let chip = self.resources.chip_of(id).unwrap_or(0);
        let kind = match self.resources.kind(id) {
            Resource::Sa => "sa",
            Resource::Vu => "vu",
            Resource::HbmDma => "hbm",
            Resource::Ici => "ici",
        };
        format!("chip{chip}.{kind}")
    }

    /// Renders the recorded run as Chrome trace-event JSON (object form),
    /// loadable in `chrome://tracing` and Perfetto. Timestamps and
    /// durations are in *cycles* (the trace viewer's "µs" unit label is
    /// cosmetic). Every event streams into one pre-sized [`JsonWriter`];
    /// a non-finite counter sample renders as `null`. Output is
    /// deterministic byte for byte.
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let num_units = self.unit_slices.len();
        let num_chips = self.prefetch_slices.len();
        let batch_tid = (num_units + num_chips) as u64;
        // Slice and flow events take about 70 bytes each, so 80 keeps
        // the buffer from growing; counter events also repeat their name
        // and unit.
        let counter_bytes: usize = self
            .counters
            .iter()
            .map(|c| c.samples.len() * (96 + c.name.len() + c.unit.len()))
            .sum();
        let events = 2 + num_units + num_chips + self.num_slices() + 3 * self.batches.len();
        let mut w = JsonWriter::with_capacity(80 * events + counter_bytes);
        w.raw("{\"traceEvents\":[\n");
        w.raw("{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",");
        w.raw("\"args\":{\"name\":\"npu-sim\"}}");
        // Every later event follows one already written: each opens with
        // the separator.
        let thread_name = |w: &mut JsonWriter, tid: u64, name: &str| {
            w.raw(",\n{\"ph\":\"M\",\"pid\":0,\"tid\":").uint(tid);
            w.raw(",\"name\":\"thread_name\",\"args\":{\"name\":").string(name).raw("}}");
        };
        for index in 0..num_units {
            thread_name(&mut w, index as u64, &self.track_name(ResourceId(index as u32)));
        }
        for chip in 0..num_chips {
            thread_name(&mut w, (num_units + chip) as u64, &format!("chip{chip}.prefetch"));
        }
        if !self.batches.is_empty() {
            thread_name(&mut w, batch_tid, "batches");
        }
        for (tid, slices) in self.unit_slices.iter().chain(&self.prefetch_slices).enumerate() {
            for s in slices {
                let dur = s.end.saturating_sub(s.start);
                w.raw(",\n{\"ph\":\"X\",\"pid\":0,\"tid\":").uint(tid as u64);
                w.raw(",\"ts\":").uint(s.start).raw(",\"dur\":").uint(dur);
                w.raw(",\"name\":\"op").uint(s.op as u64).raw("\"}");
            }
        }
        for b in &self.batches {
            let (index, dispatch, completion) = (b.index as u64, b.dispatch, b.completion);
            let dur = completion.saturating_sub(dispatch);
            w.raw(",\n{\"ph\":\"X\",\"pid\":0,\"tid\":").uint(batch_tid);
            w.raw(",\"ts\":").uint(dispatch).raw(",\"dur\":").uint(dur);
            w.raw(",\"name\":\"batch").uint(index).raw("\",\"cat\":\"serving\"}");
            w.raw(",\n{\"ph\":\"s\",\"pid\":0,\"tid\":").uint(batch_tid);
            w.raw(",\"ts\":").uint(dispatch).raw(",\"id\":").uint(index);
            w.raw(",\"name\":\"batch\",\"cat\":\"serving\"}");
            w.raw(",\n{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":").uint(batch_tid);
            w.raw(",\"ts\":").uint(completion).raw(",\"id\":").uint(index);
            w.raw(",\"name\":\"batch\",\"cat\":\"serving\"}");
        }
        for track in &self.counters {
            for &(ts, value) in &track.samples {
                w.raw(",\n{\"ph\":\"C\",\"pid\":0,\"ts\":").float(ts);
                w.raw(",\"name\":").string(&track.name).raw(",\"args\":{");
                w.string(&track.unit).raw(":").float(value).raw("}}");
            }
        }
        w.raw("\n]}\n");
        w.finish()
    }
}

impl SimObserver for TraceRecorder {
    fn resource_busy(&mut self, id: ResourceId, op: usize, start: u64, end: u64) {
        // Empty slices (an SA phase with zero active cycles) match the
        // timeline's `record` semantics by being dropped.
        if end > start && id.index() < self.unit_slices.len() {
            self.unit_slices[id.index()].push(TraceSlice { op, start, end });
        }
    }

    fn dma_transfer(&mut self, op: usize, chip: usize, start: u64, end: u64) {
        if end > start && chip < self.prefetch_slices.len() {
            self.prefetch_slices[chip].push(TraceSlice { op, start, end });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn track_names_cover_units_links_and_prefetch() {
        let set = ResourceSet::pod(2, 3);
        let rec = TraceRecorder::for_set(&set);
        assert_eq!(rec.track_name(set.unit(0, Resource::Sa)), "chip0.sa");
        assert_eq!(rec.track_name(set.unit(1, Resource::HbmDma)), "chip1.hbm");
        assert_eq!(rec.track_name(set.link(2)), "link2");
        let tracks = rec.display_tracks();
        assert_eq!(tracks.len(), set.num_resources() + 2);
        assert_eq!(tracks.last().expect("prefetch track").0, "chip1.prefetch");
    }

    #[test]
    fn recorder_drops_empty_slices_and_merges_prefetch_into_hbm() {
        let set = ResourceSet::single_chip();
        let mut rec = TraceRecorder::for_set(&set);
        let hbm = set.unit(0, Resource::HbmDma);
        rec.resource_busy(hbm, 0, 100, 100); // empty → dropped
        rec.resource_busy(hbm, 1, 200, 300); // demand gather
        rec.dma_transfer(2, 0, 250, 400); // overlapping prefetch
        assert_eq!(rec.unit_slices(hbm).len(), 1);
        assert_eq!(rec.prefetch_slices(0).len(), 1);
        let merged = rec.merged_resource_intervals(hbm);
        assert_eq!(merged, vec![CycleInterval { start: 200, end: 400 }]);
    }

    #[test]
    fn chrome_json_is_object_form_with_metadata() {
        let set = ResourceSet::single_chip();
        let mut rec = TraceRecorder::for_set(&set);
        rec.resource_busy(set.unit(0, Resource::Sa), 0, 10, 20);
        rec.add_batch_flow(0, 5, 25);
        rec.add_counter_track("power.sa", "watts", vec![(0.0, 12.5), (10.0, 40.0)]);
        let json = rec.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.ends_with("\n]}\n"));
        assert!(json.contains("\"name\":\"chip0.sa\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains("\"power.sa\""));
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(json, rec.chrome_json());
    }

    #[test]
    fn json_string_escapes_specials() {
        // The writer's string path, which every export's names go through.
        let quoted = |s: &str| {
            let mut w = JsonWriter::default();
            w.string(s);
            w.finish()
        };
        assert_eq!(quoted("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(quoted("x\ny"), "\"x\\ny\"");
        assert_eq!(quoted("\u{1}"), "\"\\u0001\"");
    }
}
