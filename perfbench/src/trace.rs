//! Span recording around the calls the benchmark makes into each layer.
//!
//! A span is one timed call: the layer it entered, its start and end on
//! the run's clock, the point span it belongs to (its parent) and the
//! point id. Spans are kept in memory and written out when the run ends.
//! With tracing off, [`Tracer::span`] is a plain call.

use std::fmt::Write as _;
use std::time::Instant;

/// The layers timed from outside, named after the crate or module whose
/// public function the span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Workload::build_graph` (plus `default_parallelism`).
    ModelsBuild,
    /// `Compiler::compile`.
    CompilerCompile,
    /// `analysis::analyze_deployment`, `PreparedSimulator::analyze`,
    /// `ServingSimulator::verify`, `analysis::analyze_pod`,
    /// `analysis::check_trace_export`.
    Analysis,
    /// `Simulator::prepare`.
    SimPrepare,
    /// `PreparedSimulator::run_with_scratch`.
    SimReplay,
    /// `Evaluator::evaluate_compiled`.
    CoreEvaluate,
    /// `Evaluator::evaluate_policies`.
    CorePolicies,
    /// `ServingSimulator::run`.
    ServingRun,
    /// `ServingReport::evaluate`.
    ServingReport,
    /// `pipeline_trace` + `CollectivePlan::lower` + `PodBuilder::engine`.
    PodBuild,
    /// `TimelineEngine::run_with_scratch`.
    PodRun,
    /// `pod_static_gating`.
    CorePodGating,
    /// `run_with_scratch_observed(TraceRecorder)` + `chrome_json`.
    ObsTrace,
    /// `PowerTimeline` fold + `waveform_json`.
    ObsPower,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 14] = [
        Layer::ModelsBuild,
        Layer::CompilerCompile,
        Layer::Analysis,
        Layer::SimPrepare,
        Layer::SimReplay,
        Layer::CoreEvaluate,
        Layer::CorePolicies,
        Layer::ServingRun,
        Layer::ServingReport,
        Layer::PodBuild,
        Layer::PodRun,
        Layer::CorePodGating,
        Layer::ObsTrace,
        Layer::ObsPower,
    ];

    /// Metric stem: the `_ms` metrics are `<stem>_ms` and
    /// `<stem>_ms_per_point`.
    pub fn stem(self) -> &'static str {
        match self {
            Layer::ModelsBuild => "models.build",
            Layer::CompilerCompile => "compiler.compile",
            Layer::Analysis => "analysis.analyze",
            Layer::SimPrepare => "sim.prepare",
            Layer::SimReplay => "sim.replay",
            Layer::CoreEvaluate => "core.evaluate",
            Layer::CorePolicies => "core.policies",
            Layer::ServingRun => "serving.run",
            Layer::ServingReport => "serving.report",
            Layer::PodBuild => "pod.build",
            Layer::PodRun => "pod.run",
            Layer::CorePodGating => "core.pod_gating",
            Layer::ObsTrace => "obs.trace",
            Layer::ObsPower => "obs.power",
        }
    }
}

/// What a span timed: one point, or one layer call inside it.
#[derive(Debug, Clone, Copy)]
enum SpanKind {
    Point,
    Layer(Layer),
}

#[derive(Debug, Clone, Copy)]
struct Span {
    kind: SpanKind,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing point span (`None` for point spans).
    parent: Option<usize>,
    point: u64,
    /// Round slot of the point (which input it ran).
    slot: usize,
}

/// Self time per layer plus the point time no layer span covers.
#[derive(Debug, Clone, Default)]
pub struct SelfTimes {
    /// Self nanoseconds per layer, indexed like [`Layer::ALL`].
    pub layer_ns: [u64; Layer::ALL.len()],
    /// Summed duration of the point spans.
    pub point_ns: u64,
    /// Point time outside every layer span (the benchmark's own glue
    /// and any layer not wrapped in a span).
    pub unattributed_ns: u64,
    /// Point spans recorded.
    pub points: u64,
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open_point: Option<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), enabled: false, spans: Vec::new(), open_point: None }
    }

    /// Turns span recording on or off for the next points.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the span of point `point`, which runs round slot `slot`
    /// (no-op while disabled).
    pub fn begin_point(&mut self, point: u64, slot: usize) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            kind: SpanKind::Point,
            start_ns: now,
            end_ns: now,
            parent: None,
            point,
            slot,
        });
        self.open_point = Some(self.spans.len() - 1);
    }

    /// Closes the open point span.
    pub fn end_point(&mut self) {
        if let Some(index) = self.open_point.take() {
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Runs `f` as one call into `layer`, recording a span when enabled.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let (point, slot) =
            self.open_point.map_or((0, 0), |i| (self.spans[i].point, self.spans[i].slot));
        self.spans.push(Span {
            kind: SpanKind::Layer(layer),
            start_ns,
            end_ns,
            parent: self.open_point,
            point,
            slot,
        });
        out
    }

    /// Self time of every recorded span, folded per layer: a span's self
    /// time is its duration minus the part its child spans cover.
    pub fn self_times(&self) -> SelfTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = SelfTimes::default();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let self_ns = (span.end_ns - span.start_ns).saturating_sub(children);
            match span.kind {
                SpanKind::Point => {
                    out.points += 1;
                    out.point_ns += span.end_ns - span.start_ns;
                    out.unattributed_ns += self_ns;
                }
                SpanKind::Layer(layer) => {
                    let index = Layer::ALL.iter().position(|&l| l == layer).expect("listed layer");
                    out.layer_ns[index] += self_ns;
                }
            }
        }
        out
    }

    /// Renders every span as a JSON array, one object per line.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[\n");
        for (index, span) in self.spans.iter().enumerate() {
            let name = match span.kind {
                SpanKind::Point => "point",
                SpanKind::Layer(layer) => layer.stem(),
            };
            let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {index}, \"name\": \"{name}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"point\": {}, \"slot\": {}}}",
                span.start_ns, span.end_ns, span.point, span.slot
            );
            out.push_str(if index + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("]\n");
        out
    }
}
