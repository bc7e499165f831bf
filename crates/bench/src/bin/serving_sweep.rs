//! Load sweep over the arrival-driven serving simulator: offered load ×
//! batching policy × ReGate design, reporting per-request latency
//! (p50/p99, queueing vs. service), energy per request, savings, and the
//! *measured* duty cycle against the paper's fleet-average assumption.
//!
//! Run with `cargo run --release -p regate_bench --bin serving_sweep`.
//! Every serving outcome is verified by the static schedule analyzer —
//! DAG rules, trace sanity, and makespan-window containment — before its
//! numbers are reported; a Deny diagnostic aborts the sweep (opt out with
//! `--no-verify`). Pass `--quick` for the minimal CI smoke subset, and
//! `--floor <cycles-per-second>` to fail (exit 1) if the sweep's serving
//! throughput — simulated cycles scheduled per wall-second, summed over
//! every `ServingSimulator::run` call — drops below the floor. CI pins a
//! conservative floor so a hot-path regression fails the build instead of
//! silently slowing every future sweep. Pass `--json <path>` to also
//! emit the policy × workload × load matrix as a machine-readable JSON
//! document (schema-versioned, one entry per deployment).

use std::time::{Duration, Instant};

use npu_arch::{JsonWriter, NpuGeneration};
use npu_models::{DlrmSize, LlamaModel, LlmPhase, Workload};
use npu_serving::{ArrivalProcess, BatchPolicy, ServingOutcome, ServingReport, ServingSimulator};
use regate::{Design, Evaluator, PolicyKind};
use regate_bench::{pct, section, BENCH_SCHEMA_VERSION};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let verify = !args.iter().any(|a| a == "--no-verify");
    let floor: Option<f64> = args
        .iter()
        .position(|a| a == "--floor")
        .map(|i| args[i + 1..].first().expect("--floor takes a value"))
        .map(|v| v.parse().expect("--floor takes cycles-per-wall-second"));
    let json_path: Option<String> = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args[i + 1..].first().expect("--json takes a path").clone());
    let requests = if quick { 8 } else { 24 };
    // The `--json` matrix export, streamed one deployment at a time.
    let mut json = json_path.as_ref().map(|_| {
        let mut w = JsonWriter::with_capacity(16 * 1024);
        w.raw("{\n  \"schema_version\": ").uint(u64::from(BENCH_SCHEMA_VERSION));
        w.raw(",\n  \"tool\": \"serving_sweep\",\n  \"requests_per_load_point\": ");
        w.uint(requests as u64).raw(",\n  \"deployments\": [\n");
        w
    });
    // Serving throughput accounting: simulated cycles scheduled per
    // wall-second, over every timed serving run of the sweep.
    let mut simulated_cycles = 0u64;
    let mut serving_wall = Duration::ZERO;
    // Static analysis accounting (verification runs outside the serving
    // wall clock, so the throughput floor measures the event loop alone).
    let mut verified_outcomes = 0usize;
    let mut verified_policies = 0usize;
    let mut timed_run =
        |server: &ServingSimulator, arrivals: &[u64], policy: &BatchPolicy| -> ServingOutcome {
            let start = Instant::now();
            let outcome = server.run(arrivals, policy);
            serving_wall += start.elapsed();
            simulated_cycles += outcome.makespan_cycles();
            if verify {
                let report = server.verify(&outcome);
                assert!(
                    report.is_schedulable(),
                    "static analysis denied a serving outcome ({} arrivals, {}):\n{}",
                    arrivals.len(),
                    policy.label(),
                    report.render()
                );
                let window = report.makespan_window.expect("verified outcomes carry a window");
                assert!(
                    window.contains(outcome.makespan_cycles()),
                    "measured makespan {} escaped the static window [{}, {}]",
                    outcome.makespan_cycles(),
                    window.lower_cycles,
                    window.upper_cycles
                );
                verified_outcomes += 1;
            }
            outcome
        };
    let designs = [Design::ReGateBase, Design::ReGateHw, Design::ReGateFull];

    let deployments: Vec<(Workload, usize, &str)> = if quick {
        vec![(Workload::dlrm(DlrmSize::Small).with_batch(32), 1, "DLRM-S x32/req")]
    } else {
        vec![
            (Workload::dlrm(DlrmSize::Small).with_batch(32), 1, "DLRM-S x32/req"),
            (
                Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode).with_batch(2),
                1,
                "Llama3-8B decode x2/req",
            ),
        ]
    };

    for (deployment, (workload, chips, label)) in deployments.into_iter().enumerate() {
        let server = ServingSimulator::new(NpuGeneration::D, chips, workload);
        let evaluator = Evaluator::new(NpuGeneration::D);

        // Offered loads from saturation down to sparse traffic, plus a
        // bursty shape; two batching policies.
        let processes: Vec<ArrivalProcess> = vec![
            ArrivalProcess::saturating(),
            ArrivalProcess::Poisson { mean_interval_cycles: 100_000.0, seed: 11 },
            ArrivalProcess::Poisson { mean_interval_cycles: 1_000_000.0, seed: 11 },
            ArrivalProcess::BurstyOnOff {
                burst_len: 4,
                intra_burst_cycles: 5_000,
                off_cycles: 2_000_000,
            },
        ];
        let policies = [
            BatchPolicy::Static { batch: 4 },
            BatchPolicy::DynamicWindow { max_batch: 4, max_wait_cycles: 50_000 },
        ];

        section(&format!("Serving load sweep: {label} on {chips} NPU-D chip(s)"));
        println!(
            "{:<22} {:<14} {:>7} {:>12} {:>12} {:>7} {:>11}  savings Base / HW / Full",
            "arrivals", "policy", "batches", "p50 lat", "p99 lat", "duty", "J/request",
        );
        for process in &processes {
            let arrivals = process.arrivals(requests);
            for policy in &policies {
                let outcome = timed_run(&server, &arrivals, policy);
                let report = ServingReport::evaluate(&outcome, &evaluator);
                let savings: Vec<String> =
                    designs.iter().map(|&d| pct(report.design(d).savings)).collect();
                let per_request = report
                    .design(Design::ReGateFull)
                    .energy_per_request_j
                    .map_or_else(|| "n/a".to_string(), |j| format!("{j:.4}"));
                println!(
                    "{:<22} {:<14} {:>7} {:>12} {:>12} {:>7} {:>11}  {}",
                    process.label(),
                    policy.label(),
                    report.num_batches,
                    report.p50_latency_cycles,
                    report.p99_latency_cycles,
                    pct(report.measured_duty_cycle),
                    per_request,
                    savings.join(" / ")
                );
            }
        }

        // Reconciliation of the out-of-duty-cycle term: the serving trace
        // measures its duty cycle instead of assuming the fleet average.
        let low = timed_run(
            &server,
            &ArrivalProcess::Poisson { mean_interval_cycles: 1_000_000.0, seed: 11 }
                .arrivals(requests),
            &policies[0],
        );
        println!(
            "\nmeasured duty cycle at low load: {} (paper fleet average: {})",
            pct(low.measured_duty_cycle()),
            pct(npu_power::NPU_DUTY_CYCLE)
        );
        let report = ServingReport::evaluate(&low, &evaluator);
        println!(
            "queueing vs service split at low load: {:.0} / {:.0} cycles (mean)",
            report.mean_queueing_cycles, report.mean_service_cycles
        );

        // Policy × load matrix: every power-management policy priced on
        // the *identical* scheduled timeline of each load point (the
        // prepared-trace cache makes the re-runs replay-only). Presets
        // first, then the extended policies.
        let kinds: Vec<PolicyKind> =
            designs.iter().map(|&d| PolicyKind::Preset(d)).chain(PolicyKind::EXTENDED).collect();
        if verify {
            // Analyzer pass over every per-component policy of every
            // evaluated configuration: the sweep refuses to tabulate a
            // policy whose parameterization is inconsistent.
            for &kind in &kinds {
                let config = kind.config(evaluator.gating(), server.chip().spec());
                for policy in config.component_policies() {
                    let diagnostics = npu_sim::analysis::check_power_policy(policy);
                    assert!(
                        diagnostics.is_empty(),
                        "policy {} failed analyzer verification:\n{}",
                        kind.label(),
                        diagnostics
                            .iter()
                            .map(|d| format!("  [{}] {}", d.rule_id, d.message))
                            .collect::<Vec<_>>()
                            .join("\n")
                    );
                    verified_policies += 1;
                }
            }
        }
        section(&format!("Policy matrix: {label} on {chips} NPU-D chip(s)"));
        println!(
            "{:<16} {}",
            "policy",
            processes.iter().map(|p| format!("{:>22}", p.label())).collect::<Vec<_>>().join(" ")
        );
        let cells: Vec<regate::PolicySetEvaluation> = processes
            .iter()
            .map(|process| {
                let outcome = timed_run(&server, &process.arrivals(requests), &policies[0]);
                evaluator.evaluate_policies(
                    chips,
                    &outcome.compiled,
                    &outcome.simulation,
                    // The trace holds its own idleness (see ServingReport).
                    1.0,
                    &kinds,
                )
            })
            .collect();
        for &kind in &kinds {
            let row: Vec<String> = cells
                .iter()
                .map(|cell| {
                    let row = cell.row(kind);
                    format!(
                        "{:>12} {:>9}",
                        pct(row.savings),
                        format!("+{}", pct(row.performance_overhead))
                    )
                })
                .collect();
            println!("{:<16} {}", kind.label(), row.join(" "));
        }
        println!("(per load point: busy-energy savings vs NoPG, execution-time overhead)");

        if let Some(w) = json.as_mut() {
            w.raw(if deployment > 0 { ",\n" } else { "" }).raw("    {\n      \"label\": ");
            w.string(label).raw(",\n      \"chips\": ").uint(chips as u64);
            w.raw(",\n      \"loads\": [");
            for (index, process) in processes.iter().enumerate() {
                w.raw(if index > 0 { ", " } else { "" }).string(&process.label());
            }
            w.raw("],\n      \"policies\": [\n");
            for (index, &kind) in kinds.iter().enumerate() {
                w.raw(if index > 0 { ",\n" } else { "" }).raw("        { \"policy\": ");
                w.string(&kind.label()).raw(", \"cells\": [");
                for (cell_index, (process, cell)) in processes.iter().zip(&cells).enumerate() {
                    let row = cell.row(kind);
                    w.raw(if cell_index > 0 { ", " } else { "" }).raw("{ \"load\": ");
                    w.string(&process.label()).raw(", \"savings\": ").fixed(row.savings, 6);
                    w.raw(", \"performance_overhead\": ").fixed(row.performance_overhead, 6);
                    w.raw(" }");
                }
                w.raw("] }");
            }
            w.raw("\n      ]\n    }");
        }
    }

    if let (Some(path), Some(mut w)) = (&json_path, json) {
        w.raw("\n  ]\n}\n");
        std::fs::write(path, w.finish()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\nwrote policy matrix JSON to {path}");
    }

    if verify {
        println!(
            "\nstatic analysis: {verified_outcomes} serving outcome(s) and {verified_policies} \
             component policy configuration(s) verified — zero Deny diagnostics, every makespan \
             inside its window (skip with --no-verify)"
        );
    }
    let throughput = simulated_cycles as f64 / serving_wall.as_secs_f64().max(1e-12);
    println!(
        "\nserving throughput: {simulated_cycles} simulated cycles in {:.3} s of serving wall \
         time = {throughput:.3e} simulated cycles per wall-second",
        serving_wall.as_secs_f64()
    );
    if let Some(floor) = floor {
        assert!(
            throughput >= floor,
            "serving throughput {throughput:.3e} simulated cycles/s fell below the floor \
             {floor:.3e} — the serving hot path regressed"
        );
        println!("throughput floor {floor:.3e} cycles/s: ok");
    }
}
