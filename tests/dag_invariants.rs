//! Randomized-topology invariant harness for the DAG-aware timeline
//! engine.
//!
//! Instead of hand-picked operator chains, this suite drives the
//! [`TimelineEngine`] with a *seeded random-DAG generator* (deterministic
//! SplitMix64, no external dependencies): layered DAGs with varied fan-in
//! and fan-out, skip edges that create diamonds, and a mix of SA, VU,
//! demand-gather, and ICI operators whose phase shapes mirror what the
//! real per-operator profiler emits. For every sampled graph it checks
//! the scheduling invariants no refactor may break:
//!
//! (a) **causality** — no operator's main phase starts before every one
//!     of its producers has finished;
//! (b) **track discipline** — per-component busy intervals are non-empty,
//!     sorted, disjoint, and bounded by the makespan;
//! (c) **bounds** — the makespan never exceeds the serial per-op sum
//!     (work conservation under the demand/prefetch channel split) and
//!     never beats the critical-path / longest-phase lower bounds;
//! (d) **accounting** — the idle histogram's totals equal the component
//!     idle cycles, bucket by bucket and in aggregate;
//! (e) **chain regression** — a pure chain DAG reproduces the pre-DAG
//!     (PR 2) engine bit for bit: makespan, every scheduled phase time,
//!     and the full idle histogram, pinned by FNV-1a digests recorded
//!     from the chain engine immediately before the DAG generalization;
//! (f) **counters** — the event-loop counters, pinned by digests;
//! (g) **one store** — the component timeline the engine derives from its
//!     per-resource tracks equals a live kind-level recording of its
//!     hooks, over both corpora.
//!
//! The corpus covers ≥ 50 random DAGs per run and asserts that fan-in,
//! fan-out, and diamond topologies all actually occur — a generator
//! regression that quietly degenerates to chains fails the suite.

use npu_arch::ComponentKind;
use npu_sim::timeline::{EngineScratch, OpPhases, Resource, Schedule, TimelineEngine};
use npu_sim::{IdleHistogram, SplitMix64 as Rng, TraceRecorder};
use regate_bench::Fnv1a as Fnv;

mod common;
use common::LiveKindRecorder;

/// Number of random DAG seeds the invariant sweep covers.
const NUM_DAG_SEEDS: u64 = 60;

/// Random per-operator phase durations mirroring the shapes the real
/// profiler emits: SA ops with streamed prefetch and optional fused VU
/// tails, VU ops with modest operand streams, demand gathers whose main
/// phase *is* the transfer, and ICI collectives. `dma_lead_cycles` is 0,
/// matching the production profiler's intra-operator double-buffering
/// idealization (the serial-sum bound is only provable under it).
fn random_phases(rng: &mut Rng) -> OpPhases {
    match rng.range(0, 9) {
        0..=4 => {
            let main = rng.range(200, 8_000);
            let dma = rng.range(0, 6_000);
            let fused = if rng.range(0, 2) == 0 { rng.range(0, main / 2) } else { 0 };
            let active = rng.range(main / 2, main);
            OpPhases {
                unit: Resource::Sa.into(),
                main_cycles: main,
                dma_cycles: dma,
                dma_lead_cycles: 0,
                fused_vu_cycles: fused,
                dispatch_cycles: 100,
                sa_active_cycles: active,
                producers: Vec::new(),
                collective: None,
            }
        }
        5 | 6 => {
            let main = rng.range(100, 3_000);
            let dma = rng.range(0, 2_000);
            OpPhases {
                unit: Resource::Vu.into(),
                main_cycles: main,
                dma_cycles: dma,
                dma_lead_cycles: 0,
                fused_vu_cycles: 0,
                dispatch_cycles: 100,
                sa_active_cycles: 0,
                producers: Vec::new(),
                collective: None,
            }
        }
        7 | 8 => {
            let main = rng.range(300, 10_000);
            OpPhases {
                unit: Resource::HbmDma.into(),
                main_cycles: main,
                dma_cycles: 0,
                dma_lead_cycles: 0,
                fused_vu_cycles: 0,
                dispatch_cycles: 100,
                sa_active_cycles: 0,
                producers: Vec::new(),
                collective: None,
            }
        }
        _ => {
            let main = rng.range(500, 20_000);
            OpPhases {
                unit: Resource::Ici.into(),
                main_cycles: main,
                dma_cycles: 0,
                dma_lead_cycles: 0,
                fused_vu_cycles: 0,
                dispatch_cycles: 100,
                sa_active_cycles: 0,
                producers: Vec::new(),
                collective: None,
            }
        }
    }
}

/// Layered random DAG: 2–6 layers of 1–4 operators; every operator in
/// layer `l > 0` draws 1–3 producers from layer `l - 1` (fan-in), and
/// with probability ~1/3 one extra skip edge to any earlier operator
/// (diamonds / long-range joins). Layer-0 operators are sources.
fn random_dag(seed: u64) -> Vec<OpPhases> {
    let mut rng = Rng::new(0xDA6_0000 ^ seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
    let layers = rng.range(2, 6);
    let mut ops: Vec<OpPhases> = Vec::new();
    let mut prev_layer: Vec<usize> = Vec::new();
    for layer in 0..layers {
        let width = rng.range(1, 4);
        let mut this_layer = Vec::with_capacity(width as usize);
        for _ in 0..width {
            let mut op = random_phases(&mut rng);
            if layer > 0 {
                let fan_in = rng.range(1, 3).min(prev_layer.len() as u64);
                let mut producers = Vec::new();
                for _ in 0..fan_in {
                    producers.push(prev_layer[rng.range(0, prev_layer.len() as u64 - 1) as usize]);
                }
                let id = ops.len();
                if rng.range(0, 2) == 0 {
                    producers.push(rng.range(0, id as u64 - 1) as usize);
                }
                producers.sort_unstable();
                producers.dedup();
                op.producers = producers;
            }
            this_layer.push(ops.len());
            ops.push(op);
        }
        prev_layer = this_layer;
    }
    ops
}

/// Chain used by the golden regression: `len` drawn first, then the ops.
fn golden_chain(seed: u64) -> Vec<OpPhases> {
    let mut rng = Rng::new(0xC0FF_EE00 ^ seed.wrapping_mul(0x9E37_79B9));
    let len = rng.range(1, 40);
    OpPhases::chain((0..len).map(|_| random_phases(&mut rng)).collect())
}

fn digest_ops(schedule: &Schedule) -> u64 {
    let mut fnv = Fnv::new();
    for s in &schedule.ops {
        fnv.push(s.dma_start);
        fnv.push(s.dma_end);
        fnv.push(s.main_start);
        fnv.push(s.main_end);
        fnv.push(s.finish);
    }
    fnv.digest()
}

fn digest_histogram(schedule: &Schedule) -> u64 {
    let histogram = IdleHistogram::from_timeline(&schedule.timeline, schedule.makespan);
    let mut fnv = Fnv::new();
    for (i, kind) in ComponentKind::ALL.iter().enumerate() {
        fnv.push(i as u64);
        for b in histogram.buckets(*kind) {
            fnv.push(b.lower);
            fnv.push(b.upper);
            fnv.push(b.count);
            fnv.push(b.total_cycles);
        }
    }
    fnv.digest()
}

/// Serial cost of one operator: intra-operator overlap of compute, fused
/// post-processing, and DMA, plus dispatch — what the pre-timeline engine
/// charged, and what `SimulationResult::serial_cycles` sums.
fn serial_cost(p: &OpPhases) -> u64 {
    p.main_cycles.max(p.dma_cycles).max(p.fused_vu_cycles) + p.dispatch_cycles
}

/// Critical-path lower bound over the producer DAG: every operator's main
/// phase must wait for all producers, then spend dispatch plus
/// max(main, fused) cycles; any DMA stream lower-bounds its own finish.
fn critical_path(ops: &[OpPhases]) -> u64 {
    let mut finish = vec![0u64; ops.len()];
    for (k, p) in ops.iter().enumerate() {
        let ready = p.producers.iter().map(|&q| finish[q]).max().unwrap_or(0);
        finish[k] =
            (ready + p.dispatch_cycles + p.main_cycles.max(p.fused_vu_cycles)).max(p.dma_cycles);
    }
    finish.into_iter().max().unwrap_or(0)
}

// ---------------------------------------------------------------------
// (a)–(d): invariants over the random-DAG corpus
// ---------------------------------------------------------------------

#[test]
fn no_op_computes_before_any_producer_finishes() {
    for seed in 0..NUM_DAG_SEEDS {
        let ops = random_dag(seed);
        let producers: Vec<Vec<usize>> = ops.iter().map(|p| p.producers.clone()).collect();
        let schedule = TimelineEngine::new(ops).run();
        for (k, list) in producers.iter().enumerate() {
            for &p in list {
                assert!(
                    schedule.ops[k].main_start >= schedule.ops[p].finish,
                    "seed {seed}: op {k} computes at {} before producer {p} finishes at {}",
                    schedule.ops[k].main_start,
                    schedule.ops[p].finish
                );
            }
        }
    }
}

#[test]
fn busy_intervals_stay_disjoint_sorted_and_bounded() {
    for seed in 0..NUM_DAG_SEEDS {
        let schedule = TimelineEngine::new(random_dag(seed)).run();
        for kind in ComponentKind::ALL {
            let intervals = schedule.timeline.intervals(kind);
            for iv in intervals {
                assert!(iv.start < iv.end, "seed {seed}/{kind:?}: empty interval {iv:?}");
                assert!(
                    iv.end <= schedule.makespan,
                    "seed {seed}/{kind:?}: interval {iv:?} past makespan {}",
                    schedule.makespan
                );
            }
            for pair in intervals.windows(2) {
                assert!(
                    pair[0].end < pair[1].start,
                    "seed {seed}/{kind:?}: overlapping or abutting intervals {pair:?}"
                );
            }
        }
    }
}

#[test]
fn makespan_sits_between_critical_path_and_serial_sum() {
    let mut strictly_overlapped = 0u64;
    for seed in 0..NUM_DAG_SEEDS {
        let ops = random_dag(seed);
        let serial: u64 = ops.iter().map(serial_cost).sum();
        let lower = critical_path(&ops);
        let schedule = TimelineEngine::new(ops).run();
        assert!(
            schedule.makespan <= serial,
            "seed {seed}: makespan {} exceeds the serial sum {serial}",
            schedule.makespan
        );
        assert!(
            schedule.makespan >= lower,
            "seed {seed}: makespan {} beats the critical-path bound {lower}",
            schedule.makespan
        );
        if schedule.makespan < serial {
            strictly_overlapped += 1;
        }
    }
    // DAGs with more than one operator essentially always overlap
    // *something*; if nothing ever does, the engine regressed to serial.
    assert!(
        strictly_overlapped > NUM_DAG_SEEDS / 2,
        "only {strictly_overlapped}/{NUM_DAG_SEEDS} DAGs showed any overlap"
    );
}

#[test]
fn idle_histogram_totals_agree_with_component_idle_cycles() {
    for seed in 0..NUM_DAG_SEEDS {
        let schedule = TimelineEngine::new(random_dag(seed)).run();
        let histogram = IdleHistogram::from_timeline(&schedule.timeline, schedule.makespan);
        for kind in ComponentKind::ALL {
            let busy = schedule.timeline.busy_cycles(kind);
            let idle_from_gaps: u64 = schedule
                .timeline
                .idle_intervals(kind, schedule.makespan)
                .iter()
                .map(|iv| iv.len())
                .sum();
            assert_eq!(
                histogram.total_idle_cycles(kind),
                idle_from_gaps,
                "seed {seed}/{kind:?}: histogram misses idle cycles"
            );
            assert_eq!(
                busy + idle_from_gaps,
                schedule.makespan,
                "seed {seed}/{kind:?}: busy + idle does not cover the makespan"
            );
            for bucket in histogram.buckets(kind) {
                assert!(bucket.count > 0, "seed {seed}/{kind:?}: empty bucket");
                assert!(
                    bucket.total_cycles >= bucket.count * bucket.lower,
                    "seed {seed}/{kind:?}: bucket total below its lower bound"
                );
            }
        }
    }
}

#[test]
fn corpus_covers_fan_in_fan_out_diamonds_and_all_units() {
    let mut fan_in = 0u64;
    let mut fan_out = 0u64;
    let mut diamonds = 0u64;
    let mut units = [0u64; 4];
    for seed in 0..NUM_DAG_SEEDS {
        let ops = random_dag(seed);
        assert!(ops.len() <= 128, "generator outgrew the u128 ancestor bitsets");
        let mut consumers = vec![0u64; ops.len()];
        // Ancestor bitsets (ops are capped well below 128).
        let mut ancestors = vec![0u128; ops.len()];
        for (k, p) in ops.iter().enumerate() {
            if p.producers.len() >= 2 {
                fan_in += 1;
            }
            for &q in &p.producers {
                consumers[q] += 1;
                ancestors[k] |= ancestors[q] | (1u128 << q);
            }
            // Diamond: two distinct producers reachable from one common
            // ancestor (two vertex-disjoint paths meet at `k`).
            for (i, &a) in p.producers.iter().enumerate() {
                for &b in &p.producers[i + 1..] {
                    let closure_a = ancestors[a] | (1u128 << a);
                    let closure_b = ancestors[b] | (1u128 << b);
                    if closure_a & closure_b != 0 {
                        diamonds += 1;
                    }
                }
            }
            // Single-chip phase vectors use the enum-order dense ids.
            units[p.unit.index()] += 1;
        }
        fan_out += consumers.iter().filter(|&&c| c >= 2).count() as u64;
    }
    assert!(fan_in >= 20, "only {fan_in} fan-in nodes across the corpus");
    assert!(fan_out >= 20, "only {fan_out} fan-out nodes across the corpus");
    assert!(diamonds >= 10, "only {diamonds} diamonds across the corpus");
    assert!(units.iter().all(|&c| c >= 10), "unit mix too thin: {units:?}");
}

#[test]
fn static_analyzer_accepts_the_corpus_and_brackets_every_makespan() {
    // The analyzer is an oracle for the engine: every random DAG must
    // come back schedulable (zero Deny diagnostics), and the static
    // makespan window it predicts *before any event fires* must contain
    // the makespan the event loop actually measures.
    for seed in 0..NUM_DAG_SEEDS {
        let ops = random_dag(seed);
        let schedule = TimelineEngine::new(ops.clone()).run();
        let report = npu_sim::analysis::analyze_phases(&ops, &[], Some(schedule.makespan));
        assert!(
            report.is_schedulable(),
            "seed {seed}: analyzer denied a live schedule:\n{}",
            report.render()
        );
        let window = report.makespan_window.expect("schedulable graphs carry a window");
        assert!(
            window.contains(schedule.makespan),
            "seed {seed}: measured makespan {} outside static window [{}, {}]",
            schedule.makespan,
            window.lower_cycles,
            window.upper_cycles
        );
    }
}

#[test]
fn static_analyzer_rejects_a_corrupted_corpus_graph() {
    // Non-vacuity check for the oracle above: corrupting one producer id
    // in a corpus DAG must flip the verdict.
    let mut ops = random_dag(0);
    let dangling = ops.len() + 7;
    let last = ops.len() - 1;
    ops[last].producers.push(dangling);
    let report = npu_sim::analysis::analyze_phases(&ops, &[], None);
    assert!(!report.is_schedulable(), "dangling producer went undetected");
    assert!(report.makespan_window.is_none(), "unschedulable graphs must not predict a window");
}

#[test]
fn schedules_are_deterministic_across_runs() {
    for seed in [0, 7, 23, 41] {
        let a = TimelineEngine::new(random_dag(seed)).run();
        let b = TimelineEngine::new(random_dag(seed)).run();
        assert_eq!(a, b, "seed {seed}: two runs over the same DAG diverged");
    }
}

#[test]
fn observed_runs_are_bit_identical_to_unobserved_over_the_corpus() {
    // The observability contract: attaching a TraceRecorder must not
    // perturb scheduling. Every field of every `ScheduledOp` — and the
    // digests the golden tables pin — must match the NullObserver path.
    for seed in 0..NUM_DAG_SEEDS {
        let engine = TimelineEngine::new(random_dag(seed));
        let mut recorder = TraceRecorder::for_set(&engine.resources());
        let observed =
            engine.run_with_scratch_observed(&[], &mut EngineScratch::default(), &mut recorder);
        let unobserved = engine.run();
        assert_eq!(
            observed, unobserved,
            "seed {seed}: an observed run diverged from the unobserved schedule"
        );
        assert_eq!(digest_ops(&observed), digest_ops(&unobserved), "seed {seed}");
        assert_eq!(digest_histogram(&observed), digest_histogram(&unobserved), "seed {seed}");
    }
}

#[test]
fn trace_exports_are_byte_identical_across_same_seed_runs() {
    // The exported Chrome trace JSON is a pure function of the schedule:
    // two same-seed runs render the same bytes.
    for seed in [0, 7, 23, 41] {
        let export = |seed: u64| {
            let engine = TimelineEngine::new(random_dag(seed));
            let mut recorder = TraceRecorder::for_set(&engine.resources());
            let schedule =
                engine.run_with_scratch_observed(&[], &mut EngineScratch::default(), &mut recorder);
            // Exports must also pass the obs.* analyzer rules.
            let diagnostics = npu_sim::analysis::check_trace_export(
                &recorder,
                &schedule.resource_timeline,
                schedule.makespan,
            );
            assert!(diagnostics.is_empty(), "seed {seed}: {diagnostics:?}");
            recorder.chrome_json()
        };
        assert_eq!(export(seed), export(seed), "seed {seed}: trace JSON diverged across runs");
    }
}

// ---------------------------------------------------------------------
// (e): bit-for-bit chain regression against the pre-DAG engine
// ---------------------------------------------------------------------

/// `(seed, ops, makespan, FNV-1a of every ScheduledOp field, FNV-1a of
/// the idle histogram)` recorded by running `golden_chain(seed)` through
/// the PR-2 chain engine (implicit `op-1` producer rule) immediately
/// before the DAG generalization landed.
///
/// Histogram digests re-recorded when per-segment SRAM gating moved the
/// SRAM off the engine's blanket busy track (PR 4): `TimelineEngine` no
/// longer fabricates an always-busy `[0, makespan)` SRAM interval — the
/// simulator layer above maps the allocator's segment lifetimes onto the
/// clock instead — so at the raw-`Schedule` layer the SRAM now shows one
/// makespan-length idle interval where it previously showed none. Every
/// makespan and every phase-time digest (column 4) is bit-identical to
/// the original PR-2 recording: the scheduling itself is untouched.
const CHAIN_GOLDEN: [(u64, usize, u64, u64, u64); 20] = [
    (0, 2, 3152, 0x7EF0BDF6C2E1C0D5, 0x2EF408C54C5D3BBF),
    (1, 39, 164319, 0x29A7943465B34765, 0x50FBBBEEE2B964F4),
    (2, 32, 144622, 0x8FAE94D6F1B7CFAC, 0xF2EC70C454E0750C),
    (3, 10, 57529, 0xFC0E54118F3B1FCA, 0x390A899CA438C6DE),
    (4, 6, 20085, 0x33F9E46CA786273C, 0x5DBA51D0F8646751),
    (5, 15, 76242, 0x72003AA3D0440055, 0x0BE92FE41D175277),
    (6, 31, 108339, 0xD8022CFCF7933271, 0x69934E28C06D1DA1),
    (7, 8, 39631, 0xD09C17C359CB9992, 0x68206ECCCFE7A991),
    (8, 7, 40796, 0xFE190D90F8D4E908, 0x1BC250C7E130B6D6),
    (9, 4, 15711, 0x164E696CFB6E3204, 0xF5BC3877F6EAC9CC),
    (10, 32, 135899, 0xA6A0C6AA14202451, 0x3D67B036AF29A532),
    (11, 22, 110102, 0x837304AD9845CDA2, 0xBA16D5BBF4EAF638),
    (12, 16, 66728, 0x69CE31081005A566, 0x51CEB3CB3CEFC69F),
    (13, 24, 96863, 0xDED2EFE155168DA1, 0xAB0E2D0B81E07298),
    (14, 21, 105013, 0xC8B63AEE3BC65490, 0x9138D240FC986203),
    (15, 38, 162816, 0x90F0D8E05383BB4B, 0xFC367AFAA3464C0F),
    (16, 36, 212933, 0x46FA93D3B24A6FEC, 0xD947ACDFAA65D96D),
    (17, 12, 36631, 0x88515ED59C287894, 0xB16B09D60800DFC7),
    (18, 13, 73396, 0x38B99E1680A47349, 0xA710FBB9AC7FE918),
    (19, 6, 41109, 0xCC194ED5DDE25791, 0x4546FC87057E84B2),
];

#[test]
fn pure_chains_reproduce_the_pre_dag_engine() {
    for (seed, len, makespan, ops_digest, hist_digest) in CHAIN_GOLDEN {
        let ops = golden_chain(seed);
        assert_eq!(ops.len(), len, "seed {seed}: generator drifted");
        let schedule = TimelineEngine::new(ops).run();
        assert_eq!(
            schedule.makespan, makespan,
            "seed {seed}: chain makespan drifted from the pre-DAG engine"
        );
        assert_eq!(
            digest_ops(&schedule),
            ops_digest,
            "seed {seed}: a scheduled phase time differs from the pre-DAG engine"
        );
        assert_eq!(
            digest_histogram(&schedule),
            hist_digest,
            "seed {seed}: the idle histogram differs from the pre-DAG engine"
        );
    }
}

#[test]
fn chains_also_satisfy_the_dag_invariants() {
    // The chain corpus runs through the same invariant net as the DAGs:
    // a chain is just the degenerate one-producer topology.
    for (seed, ..) in CHAIN_GOLDEN {
        let ops = golden_chain(seed);
        let serial: u64 = ops.iter().map(serial_cost).sum();
        let lower = critical_path(&ops);
        let schedule = TimelineEngine::new(ops).run();
        assert!(schedule.makespan <= serial, "seed {seed}");
        assert!(schedule.makespan >= lower, "seed {seed}");
        for pair in schedule.ops.windows(2) {
            assert!(pair[1].main_start >= pair[0].finish, "seed {seed}: {pair:?}");
        }
    }
}

// ---------------------------------------------------------------------
// (f): event-loop counters, pinned
// ---------------------------------------------------------------------

/// FNV-1a of every [`npu_sim::RunCounters`] field of every run, over the
/// random-DAG corpus (`random_dag(0..NUM_DAG_SEEDS)`) and over the
/// `CHAIN_GOLDEN` chains, recorded before the event queue split into
/// lanes. `heap_peak` samples the queue's length, so the digests pin how
/// many events are pending at every pop, not only the pop order.
const COUNTER_GOLDEN: (u64, u64) = (0x29E6_7F0B_6B32_7A73, 0xF01A_C7A4_D9C6_87E9);

#[test]
fn event_loop_counters_match_the_recorded_digests() {
    let mut dags = Fnv::new();
    for seed in 0..NUM_DAG_SEEDS {
        dags.push_counters(&TimelineEngine::new(random_dag(seed)).run().counters);
    }
    let mut chains = Fnv::new();
    for (seed, ..) in CHAIN_GOLDEN {
        chains.push_counters(&TimelineEngine::new(golden_chain(seed)).run().counters);
    }
    assert_eq!(
        (dags.digest(), chains.digest()),
        COUNTER_GOLDEN,
        "event-loop counters drifted (measured: (0x{:016X}, 0x{:016X}))",
        dags.digest(),
        chains.digest()
    );
}

// ---------------------------------------------------------------------
// (g): the derived component view against a live-recording oracle
// ---------------------------------------------------------------------

/// Runs `ops` under the live kind oracle and requires the schedule's
/// component timeline, derived from the per-resource tracks, to equal
/// what the oracle recorded from the hooks.
fn assert_view_matches_live_kinds(label: &str, ops: Vec<OpPhases>) {
    let engine = TimelineEngine::new(ops);
    let mut oracle = LiveKindRecorder::for_set(&engine.resources());
    let schedule =
        engine.run_with_scratch_observed(&[], &mut EngineScratch::default(), &mut oracle);
    assert_eq!(schedule.timeline, oracle.finish(schedule.makespan), "{label}");
}

#[test]
fn derived_component_timeline_matches_live_kind_recording() {
    for seed in 0..NUM_DAG_SEEDS {
        assert_view_matches_live_kinds(&format!("dag seed {seed}"), random_dag(seed));
    }
    for (seed, ..) in CHAIN_GOLDEN {
        assert_view_matches_live_kinds(&format!("chain seed {seed}"), golden_chain(seed));
    }
}
