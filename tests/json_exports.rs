//! Byte-level regression net over the JSON exports.
//!
//! The Chrome trace ([`TraceRecorder::chrome_json`]) and the power
//! waveform ([`PowerTimeline::waveform_json`]) are pinned as FNV-1a
//! digests of their exact bytes over a fixed corpus: seeded pipeline pods
//! on 4, 8 and 16 chips (each with a lowered all-reduce, one counter
//! track and two batch flows, plus the pod's waveform over gated and
//! ungated components) and one traced serving run per deployment. The
//! digests were recorded before the exporters moved onto the shared
//! writer, so a rewrite that changes a single byte fails here. Same-seed
//! determinism tests cannot catch that: they compare the code with
//! itself.
//!
//! The rest of the file checks the writer itself: its number paths print
//! exactly what `{}` prints, and a non-finite value reaching either export
//! renders as `null`, never as a bare `NaN` or `inf` no parser accepts.

use npu_arch::TorusKind;
use npu_arch::{ComponentKind, JsonWriter, LinkGraph, NpuGeneration, NpuSpec, PodTopology};
use npu_compiler::CollectivePlan;
use npu_models::{CollectiveKind, DlrmSize, LlamaModel, LlmPhase, Workload};
use npu_power::{
    ComponentGating, GatePolicy, GatingParams, PowerModel, PowerTimeline, SramGateMode,
};
use npu_serving::{ArrivalProcess, BatchPolicy, ServingSimulator};
use npu_sim::pod::pipeline_trace;
use npu_sim::{EngineScratch, Schedule, TraceRecorder};
use regate_bench::{Fnv1a, SplitMix64};

/// FNV-1a over a document's length and its bytes, eight to a word.
fn bytes_digest(json: &str) -> u64 {
    let mut digest = Fnv1a::new();
    digest.push(json.len() as u64);
    for chunk in json.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        digest.push(u64::from_le_bytes(word));
    }
    digest.digest()
}

/// A pod schedule's kind-level busy timeline folded into watts(t): every
/// component at its static power, seeded dynamic joules on the ones the
/// schedule exercised, gated by the default parameters (`Other` never
/// gates). The SA gates by idle detection, whose window (a third of its
/// break-even time) puts fractional cycles into the steps.
fn pod_power(schedule: &Schedule, rng: &mut SplitMix64) -> PowerTimeline {
    let spec = NpuSpec::generation(NpuGeneration::D);
    let model = PowerModel::new(&spec);
    let params = GatingParams::default();
    let mut timeline = PowerTimeline::new(spec.cycle_seconds(), schedule.makespan);
    for kind in ComponentKind::ALL {
        let busy: Vec<(u64, u64)> =
            schedule.timeline.intervals(kind).iter().map(|iv| (iv.start, iv.end)).collect();
        let dynamic_j = if busy.is_empty() { 0.0 } else { rng.unit_open() * 1e-3 };
        let gating = ComponentGating::for_kind(&params, kind, SramGateMode::Drowsy).map(|g| {
            let policy = if kind == ComponentKind::Sa { GatePolicy::IdleDetect } else { g.policy };
            ComponentGating { policy, ..g }
        });
        timeline.add_component(kind, model.static_power_w(kind), dynamic_j, &busy, gating);
    }
    timeline
}

/// The Chrome trace and power waveform of one seeded pipeline pod with a
/// trailing all-reduce. The counter track is the pod's SA waveform; its
/// unit carries characters the string path must escape.
fn pod_exports(chips: usize, seed: u64) -> (String, String) {
    let mut rng = SplitMix64::new(seed);
    let stages: Vec<u64> = (0..chips).map(|_| rng.range(5_000, 20_000)).collect();
    let allreduce_cycles = rng.range(8_000, 20_000);
    let graph = LinkGraph::torus(&PodTopology::for_chips(TorusKind::Torus3D, chips));
    let mut builder = pipeline_trace(&graph, &stages, 6);
    let plan = CollectivePlan::lower(CollectiveKind::AllReduce, allreduce_cycles, &graph);
    let tail = builder.len() - 1;
    builder.push_collective(&plan, vec![tail]);

    let engine = builder.engine();
    let mut recorder = TraceRecorder::for_set(&engine.resources());
    let schedule =
        engine.run_with_scratch_observed(&[], &mut EngineScratch::default(), &mut recorder);
    let power = pod_power(&schedule, &mut rng);
    let samples = power.counter_samples(ComponentKind::Sa).expect("SA waveform");
    recorder.add_counter_track("power.SA", "watts \"SA\"\t\\ avg", samples);
    let half = schedule.makespan / 2;
    recorder.add_batch_flow(0, 0, half);
    recorder.add_batch_flow(1, rng.range(1, half), schedule.makespan);
    (recorder.chrome_json(), power.waveform_json())
}

/// The Chrome trace of one traced six-request serving run on one NPU-D
/// chip, batch flows included.
fn serving_export(workload: Workload) -> String {
    let server = ServingSimulator::new(NpuGeneration::D, 1, workload);
    let arrivals = ArrivalProcess::Poisson { mean_interval_cycles: 150_000.0, seed: 5 }.arrivals(6);
    let (_, recorder) = server.run_traced(&arrivals, &BatchPolicy::Static { batch: 2 });
    recorder.chrome_json()
}

#[test]
fn export_bytes_match_recorded_digests() {
    // Recorded with the exporters that formatted every event on its own;
    // any byte the shared writer renders differently moves a digest.
    let recorded: [(&str, u64); 8] = [
        ("pod4 trace", 0x0a24_b60d_3f46_3753),
        ("pod4 power", 0xa131_8f26_c0e9_688f),
        ("pod8 trace", 0x24b4_f224_2779_633e),
        ("pod8 power", 0xf4cf_f45e_d65a_cd97),
        ("pod16 trace", 0x9220_9efa_cb97_b2ae),
        ("pod16 power", 0x66d7_df3e_bd01_fd7c),
        ("Llama3-8B decode serving trace", 0x3ffd_e0cc_603a_062e),
        ("DLRM-S serving trace", 0x5f8a_68bb_b4ad_7378),
    ];
    let mut measured = Vec::new();
    for (chips, seed) in [(4, 41), (8, 42), (16, 43)] {
        let (trace, power) = pod_exports(chips, seed);
        measured.push(bytes_digest(&trace));
        measured.push(bytes_digest(&power));
    }
    let decode = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode).with_batch(2);
    measured.push(bytes_digest(&serving_export(decode)));
    measured.push(bytes_digest(&serving_export(Workload::dlrm(DlrmSize::Small).with_batch(8))));
    let drifted: Vec<String> = recorded
        .iter()
        .zip(&measured)
        .filter(|((_, want), got)| want != *got)
        .map(|((label, _), got)| format!("{label}: {got:#018x}"))
        .collect();
    assert!(drifted.is_empty(), "export digests drifted:\n{}", drifted.join("\n"));
}

#[test]
fn non_finite_counter_samples_render_as_null() {
    let set = npu_sim::ResourceSet::single_chip();
    let mut recorder = TraceRecorder::for_set(&set);
    recorder.add_counter_track(
        "power.SA",
        "watts",
        vec![(0.0, f64::NAN), (10.0, f64::INFINITY), (f64::NEG_INFINITY, 1.5)],
    );
    let json = recorder.chrome_json();
    for (ts, value) in [("0", "null"), ("10", "null"), ("null", "1.5")] {
        let event = format!(r#""ts":{ts},"name":"power.SA","args":{{"watts":{value}}}}}"#);
        assert!(json.contains(&event), "missing {event} in\n{json}");
    }
    assert!(!json.contains("NaN") && !json.contains("inf"), "non-finite token in\n{json}");
}

#[test]
fn non_finite_waveform_levels_render_as_null() {
    let mut timeline = PowerTimeline::new(1e-9, 100);
    timeline.add_component(ComponentKind::Other, f64::INFINITY, 0.0, &[], None);
    timeline.add_component(ComponentKind::Sa, f64::NAN, 0.0, &[(0, 50)], None);
    let json = timeline.waveform_json();
    assert!(json.contains("\"kind\":\"Other\",\"static_w\":null,"), "{json}");
    assert!(json.contains("\"steps\":[[0,100,null]]"), "{json}");
    assert!(json.ends_with("\"total_energy_j\":null}\n"), "{json}");
    assert!(!json.contains("NaN") && !json.contains("inf"), "non-finite token in\n{json}");
}

/// What the writer renders for one value on its own.
fn render(write: impl FnOnce(&mut JsonWriter) -> &mut JsonWriter) -> String {
    let mut w = JsonWriter::default();
    write(&mut w);
    w.finish()
}

#[test]
fn writer_number_paths_print_what_display_prints() {
    let mut uints = vec![0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX];
    for exp in 1..=19 {
        let power = 10u64.pow(exp);
        uints.extend([power - 1, power, power + 1]);
    }
    // Raw draws almost all have 19 or 20 digits; the shift spreads them
    // over every length.
    let mut rng = SplitMix64::new(0x5eed);
    uints.extend((0..4_096).map(|i| rng.next_u64() >> (i % 64)));
    for v in uints {
        assert_eq!(render(|w| w.uint(v)), format!("{v}"));
    }
    let subnormal = f64::from_bits(1);
    for v in [0.0, -0.0, 1e-7, 1e21, subnormal, f64::MAX, 0.1 + 0.2, -2.5, 303_773.333_333_333_3] {
        assert_eq!(render(|w| w.float(v)), format!("{v}"));
        assert_eq!(render(|w| w.fixed(v, 6)), format!("{v:.6}"));
    }
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(render(|w| w.float(v)), "null");
        assert_eq!(render(|w| w.fixed(v, 6)), "null");
    }
}
