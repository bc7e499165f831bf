//! Closed-loop benchmark of the compile → schedule → price → serve path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table4|serve_steady|serve_churn|pod_export> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread, one caller: each *point* starts only after
//! the previous one returned. Set-up (building simulators and evaluators,
//! filling the serving caches, and a reference pass over a fixed input
//! set whose model outputs form the workload's fingerprint) runs several
//! times and reports its median. The timed loop then runs whole rounds of
//! points until `--seconds` have passed and at least 100 points ran.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` every other round records one span per layer call and
//! the last line carries the per-layer metrics from those spans. See
//! `perfbench/README.md` for every metric.

mod bench;
mod pod;
mod probe;
mod serving;
mod table4;
mod trace;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use regate_bench::{Fnv1a, SplitMix64};

use bench::{Bench, Counts, Point};
use probe::Probe;
use trace::{Layer, Tracer};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["table4", "serve_steady", "serve_churn", "pod_export"];
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest points a run measures, so p90 has at least ten samples beyond it.
const MIN_POINTS: usize = 100;
/// Timed points folded into the seed digest.
const DIGEST_POINTS: usize = 100;
/// Seed of the reference pass, independent of `--seed`.
const REFERENCE_SEED: u64 = 0x5EED_0F2E_6A7E;
/// The loop stops starting rounds after this long, whatever `--seconds`.
const HARD_STOP: Duration = Duration::from_secs(120);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let index = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(index + 1).map(String::as_str).ok_or(format!("{flag} takes a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args { workload, seed: number("--seed")?, seconds: number("--seconds")?, trace })
}

fn make_bench(workload: &str) -> Box<dyn Bench> {
    match workload {
        "table4" => Box::new(table4::Table4::new()),
        "serve_steady" => Box::new(serving::Serving::new(serving::Mode::Steady)),
        "serve_churn" => Box::new(serving::Serving::new(serving::Mode::Churn)),
        "pod_export" => Box::new(pod::Pod::new()),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// Runs one point, counting a panic inside the program as a failed point.
fn run_point(bench: &mut dyn Bench, slot: usize, seed: u64, tr: &mut Tracer) -> Point {
    catch_unwind(AssertUnwindSafe(|| bench.point(slot, seed, tr))).unwrap_or_default()
}

fn fold(digest: &mut Fnv1a, point: &Point) {
    digest.push(point.makespan_cycles);
    digest.push(point.full_savings.to_bits());
    digest.push(point.p99_latency_cycles);
}

/// Model outputs of the reference pass: fixed inputs, so every value here
/// must repeat exactly within a commit.
#[derive(Debug, Clone, Copy, Default)]
struct Reference {
    fingerprint: u64,
    points: usize,
    all_ok: bool,
    makespan_cycles: u64,
    mean_full_savings: f64,
    max_p99_latency_cycles: u64,
}

/// Builds the workload and runs the reference pass: whole rounds of
/// slots in order, with seeds drawn from [`REFERENCE_SEED`].
fn set_up(workload: &str) -> (Box<dyn Bench>, Reference) {
    let mut bench = make_bench(workload);
    let mut tracer = Tracer::new();
    let mut rng = SplitMix64::new(REFERENCE_SEED);
    let mut digest = Fnv1a::new();
    let mut reference = Reference { all_ok: true, ..Reference::default() };
    let round_len = bench.round_len();
    let points = bench.reference_rounds() * round_len;
    for index in 0..points {
        let point = run_point(bench.as_mut(), index % round_len, rng.next_u64(), &mut tracer);
        fold(&mut digest, &point);
        reference.all_ok &= point.ok;
        reference.makespan_cycles += point.makespan_cycles;
        reference.mean_full_savings += point.full_savings / points as f64;
        reference.max_p99_latency_cycles =
            reference.max_p99_latency_cycles.max(point.p99_latency_cycles);
        if index % round_len == round_len - 1 {
            bench.between_rounds();
        }
    }
    reference.points = points;
    reference.fingerprint = digest.digest();
    (bench, reference)
}

/// One timed interval (a set-up or a point) on the run clock.
#[derive(Debug, Clone, Copy)]
struct Timed {
    start_s: f64,
    seconds: f64,
    /// Whether spans were recorded during it.
    traced: bool,
}

/// The end-to-end host times of a run, each interval multiplied by
/// `scale_at(its start)`.
#[derive(Debug)]
struct Summary {
    setup_s: f64,
    /// Round length over the median round time: a burst of interference
    /// moves a few rounds, not the median.
    points_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
}

impl Summary {
    fn of(
        setups: &[Timed],
        points: &[Timed],
        round_len: usize,
        scale_at: impl Fn(f64) -> f64,
    ) -> Self {
        let scaled = |t: &Timed| t.seconds * scale_at(t.start_s);
        let mut setup: Vec<f64> = setups.iter().map(scaled).collect();
        let mut point: Vec<f64> = points.iter().map(scaled).collect();
        let mut rounds: Vec<f64> = point.chunks_exact(round_len).map(|r| r.iter().sum()).collect();
        Summary {
            setup_s: median(&mut setup),
            points_per_s: round_len as f64 / median(&mut rounds),
            p50_ms: percentile(&mut point, 50.0) * 1e3,
            p90_ms: percentile(&mut point, 90.0) * 1e3,
        }
    }
}

/// Nearest-rank percentile.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Metrics in output order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn render_result(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (index, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if index == 0 { "" } else { ", " };
        let _ = write!(body, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    // The run clock: probe samples and point starts are placed on it.
    let clock = Instant::now();
    let now_s = || clock.elapsed().as_secs_f64();

    // Set-up, several times: each builds the workload from nothing and
    // runs the reference pass. The last one is kept for the timed loop.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut references = Vec::with_capacity(SETUP_REPS);
    let mut bench: Option<Box<dyn Bench>> = None;
    let mut probe = Probe::default();
    for _ in 0..SETUP_REPS {
        // Free the previous set-up's state before building the next.
        drop(bench.take());
        probe.sample(now_s());
        let start_s = now_s();
        let (built, reference) = set_up(&args.workload);
        setups.push(Timed { start_s, seconds: now_s() - start_s, traced: false });
        bench = Some(built);
        references.push(reference);
    }
    let mut bench = bench.expect("at least one set-up ran");
    let reference = references[0];
    let reference_ok =
        references.iter().all(|r| r.all_ok && r.fingerprint == reference.fingerprint);

    // The timed closed loop: whole rounds until the time is up and enough
    // points ran. When tracing, odd rounds record spans and even rounds
    // do not, so the two halves price the same mix of points.
    let mut rng = SplitMix64::new(args.seed);
    let mut tracer = Tracer::new();
    let mut timed = Vec::new();
    let mut counts = Counts::default();
    let mut traced_counts = Counts::default();
    let mut failed = 0usize;
    let mut seed_digest = Fnv1a::new();
    let deadline = Duration::from_secs(args.seconds);
    let loop_start = Instant::now();
    let round_len = bench.round_len();
    let mut round = 0u64;
    while (loop_start.elapsed() < deadline || timed.len() < MIN_POINTS)
        && loop_start.elapsed() < HARD_STOP
    {
        let tracing = args.trace && round % 2 == 1;
        tracer.set_enabled(tracing);
        let mut order: Vec<usize> = (0..round_len).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range(0, i as u64) as usize);
        }
        for slot in order {
            let seed = rng.next_u64();
            tracer.begin_point(timed.len() as u64, slot);
            let start_s = now_s();
            let start = Instant::now();
            let point = run_point(bench.as_mut(), slot, seed, &mut tracer);
            let elapsed = start.elapsed();
            tracer.end_point();
            counts.add(&point.counts);
            if tracing {
                traced_counts.add(&point.counts);
            }
            failed += usize::from(!point.ok);
            if timed.len() < DIGEST_POINTS {
                fold(&mut seed_digest, &point);
            }
            timed.push(Timed { start_s, seconds: elapsed.as_secs_f64(), traced: tracing });
            probe.after_point(elapsed, now_s());
        }
        bench.between_rounds();
        round += 1;
    }
    let points = timed.len();
    let loop_wall_s = loop_start.elapsed().as_secs_f64();

    let busy_s: f64 = timed.iter().map(|t| t.seconds).sum();
    let correct = failed == 0 && reference_ok;

    println!("workload {} seed {} trace {}", args.workload, args.seed, u8::from(args.trace));
    println!(
        "fingerprint 0x{:016x} (reference pass: {} points, fixed inputs; repeats across runs)",
        reference.fingerprint, reference.points
    );
    println!(
        "seed_digest 0x{:016x} (first {} timed points of seed {})",
        seed_digest.digest(),
        DIGEST_POINTS.min(points),
        args.seed
    );
    println!(
        "points {points} in {round} rounds, {loop_wall_s:.3} s wall, {busy_s:.3} s in points; \
         failed {failed}; fail_ratio {}",
        ratio(failed as u64, points as u64)
    );

    // Host times at the reference host speed: each set-up and each point
    // scaled by the probe samples nearest to it in time.
    let raw = Summary::of(&setups, &timed, round_len, |_| 1.0);
    let scaled = Summary::of(&setups, &timed, round_len, |at_s| probe.local_scale(at_s));
    println!(
        "host probe: median {:.3} ms over {} samples (reference {:.3} ms); unscaled wall times: \
         setup {:.4} s, {:.3} points/s, p50 {:.4} ms, p90 {:.4} ms",
        probe.median_s() * 1e3,
        probe.len(),
        probe::REFERENCE_S * 1e3,
        raw.setup_s,
        raw.points_per_s,
        raw.p50_ms,
        raw.p90_ms,
    );

    let metrics: Metrics = if args.trace {
        let scale = probe::REFERENCE_S / probe.median_s();
        let counts = [counts, traced_counts];
        per_layer_metrics(bench.as_ref(), &tracer, &timed, &counts, &reference, scale)
    } else {
        vec![
            ("setup_s".into(), scaled.setup_s, "s"),
            ("points_per_s".into(), scaled.points_per_s, "1/s"),
            ("point_ms_p50".into(), scaled.p50_ms, "ms"),
            ("point_ms_p90".into(), scaled.p90_ms, "ms"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
        ]
    };
    for (name, value, unit) in &metrics {
        println!("{name:<36} {value:>16.6} {unit} (n = {points} points)");
    }

    if args.trace {
        let dir = ".bench_out";
        let path = format!("{dir}/spans-{}-seed{}.json", args.workload, args.seed);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.spans_json()))
        {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
    }
    println!("{}", render_result(correct, points, failed, &metrics));
}

/// The per-layer metrics of a traced run: self time per layer from the
/// traced rounds (scaled to the reference host speed by `scale`), the
/// layer counters (`[all points, traced points]`), the model outputs of
/// the reference pass, and the tracing overhead.
fn per_layer_metrics(
    bench: &dyn Bench,
    tracer: &Tracer,
    points: &[Timed],
    [counts, traced_counts]: &[Counts; 2],
    reference: &Reference,
    scale: f64,
) -> Metrics {
    let mut times = tracer.self_times();
    let scaled = |ns: u64| (ns as f64 * scale) as u64;
    for ns in &mut times.layer_ns {
        *ns = scaled(*ns);
    }
    times.point_ns = scaled(times.point_ns);
    times.unattributed_ns = scaled(times.unattributed_ns);
    let traced_points = times.points.max(1) as f64;
    let all_points = points.len().max(1) as f64;
    let mut out: Metrics = Vec::new();
    for (layer, &ns) in Layer::ALL.iter().zip(&times.layer_ns) {
        let ms = ns as f64 * 1e-6;
        out.push((format!("{}_ms", layer.stem()), ms, "ms"));
        out.push((format!("{}_ms_per_point", layer.stem()), ms / traced_points, "ms"));
    }
    let replay_ns =
        times.layer_ns[Layer::ALL.iter().position(|&l| l == Layer::SimReplay).unwrap_or(0)];
    out.extend([
        ("models.infeasible_configs".into(), bench.infeasible_configs() as f64, "count"),
        ("compiler.anchors".into(), counts.anchors_compiled as f64 / all_points, "count"),
        ("sim.replay_ns_per_anchor".into(), ratio(replay_ns, traced_counts.anchors_replayed), "ns"),
        ("sim.events_popped".into(), counts.events_popped as f64 / all_points, "count"),
        ("sim.heap_peak".into(), counts.heap_peak as f64, "count"),
        (
            "serving.trace_hit_ratio".into(),
            ratio(counts.trace_hits, counts.trace_hits + counts.trace_misses),
            "ratio",
        ),
        ("serving.trace_lookups".into(), (counts.trace_hits + counts.trace_misses) as f64, "count"),
        (
            "serving.batch_hit_ratio".into(),
            ratio(counts.batch_hits, counts.batch_hits + counts.batch_misses),
            "ratio",
        ),
        ("serving.batch_lookups".into(), (counts.batch_hits + counts.batch_misses) as f64, "count"),
        ("pod.collective_hops".into(), counts.collective_hops as f64 / all_points, "count"),
        ("model.makespan_cycles".into(), reference.makespan_cycles as f64, "cycles"),
        ("model.full_savings".into(), reference.mean_full_savings, "ratio"),
        ("model.p99_latency_cycles".into(), reference.max_p99_latency_cycles as f64, "cycles"),
        ("bench.traced_points".into(), times.points as f64, "count"),
        ("bench.point_ms_per_point".into(), times.point_ns as f64 * 1e-6 / traced_points, "ms"),
        ("bench.unattributed_ms".into(), times.unattributed_ns as f64 * 1e-6, "ms"),
        (
            "bench.unattributed_ms_per_point".into(),
            times.unattributed_ns as f64 * 1e-6 / traced_points,
            "ms",
        ),
    ]);
    // Tracing overhead: mean traced point time over mean untraced point
    // time, minus one, on equal mixes of points.
    let mean = |traced: bool| {
        let side: Vec<f64> =
            points.iter().filter(|t| t.traced == traced).map(|t| t.seconds).collect();
        side.iter().sum::<f64>() / side.len() as f64
    };
    let overhead_pct = (mean(true) / mean(false) - 1.0) * 100.0;
    out.push(("bench.tracing_overhead_pct".into(), overhead_pct, "%"));
    out
}
