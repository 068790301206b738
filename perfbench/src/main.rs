//! The repository's benchmark: the `dcs-sim` planner and the `sprintd`
//! daemon, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan-sweep|feed-small|feed-large|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root. With `--trace 0` the run measures the
//! end-to-end metrics with tracing off; with `--trace 1` it records spans
//! around every call into a layer and reports the per-layer split, with
//! the tracing overhead. `--workload all` runs every workload both ways
//! in one process, so its later peak-RSS figures include the earlier runs.
//! Human-readable lines come first; the last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod client;
mod cpu;
mod feed;
mod kernel;
mod probes;
mod spans;
mod stats;
mod sweep;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dcs_core::{ControllerConfig, Greedy};
use dcs_power::DataCenterSpec;
use dcs_sim::{
    build_upper_bound_table_stats, build_upper_bound_table_unbatched, fingerprint_of, fnv1a64,
    machine_parallelism, oracle_search_stats, oracle_search_unbatched, run, with_worker_budget,
    OracleMode, RecordSink, Scenario,
};
use dcs_units::Seconds;

use crate::kernel::{beat_split, BeatSplit, BEATS};
use crate::spans::{self_by_layer, to_json_lines, Span, Tracer};
use crate::stats::{median, tail};
use crate::sweep::{build_inputs, sweep, Inputs, Item, SweepOut};

/// Workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["plan-sweep", "feed-small", "feed-large"];
/// Set-ups timed per plan-sweep run; the median is reported.
const SETUPS: usize = 25;
/// Threads the plan-sweep scenarios are spread over, at most.
const MAX_SWEEP_WORKERS: usize = 2;
/// The plant the plan-sweep traced run puts the service layers on: the
/// planning sweep's own facility.
const PLAN_PLANT: feed::Plant = feed::Plant {
    pdus: 4,
    servers_per_pdu: 200,
    nominal_rps: 1000.0,
};

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// What the number is on this workload, for the human report.
    note: String,
}

/// A finished run.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
    /// Run facts for the record line.
    facts: Vec<(&'static str, String)>,
    /// Extra human-readable lines.
    lines: Vec<String>,
    spans: Vec<Span>,
}

impl Outcome {
    fn metric(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what.into());
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The program under test is built from the repository's sources; a
    // directory without them has nothing to measure.
    if !Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        std::process::exit(2);
    }
    let runs: Vec<(&str, bool)> = if args.workload == "all" {
        WORKLOADS
            .iter()
            .flat_map(|&w| [(w, false), (w, true)])
            .collect()
    } else {
        let w = WORKLOADS
            .iter()
            .copied()
            .find(|&w| w == args.workload)
            .expect("validated");
        vec![(w, args.trace)]
    };
    let mut results = Vec::new();
    for (workload, trace) in runs {
        match run_one(workload, args.seed, args.seconds, trace) {
            Ok(outcome) => {
                print_human(workload, args.seed, trace, &outcome);
                results.push((workload, outcome));
            }
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("{}", result_json(&results));
}

/// Runs one workload in a scratch directory under `.perfbench/`.
fn run_one(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let work = PathBuf::from(".perfbench").join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let tracer = Tracer::new(trace);
    let result = match workload {
        "plan-sweep" => plan_sweep(seed, seconds, &tracer, &work),
        "feed-small" => feed_workload(&feed::SMALL, seed, seconds, &tracer, &work),
        _ => feed_workload(&feed::LARGE, seed, seconds, &tracer, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut outcome = result?;
    outcome.facts.extend([
        ("workload", format!("\"{workload}\"")),
        ("seed", seed.to_string()),
        ("trace", u8::from(trace).to_string()),
        ("seconds", seconds.to_string()),
        ("nproc", machine_parallelism().to_string()),
        ("commit", format!("\"{}\"", commit())),
        ("source_digest", format!("\"{:016x}\"", source_digest())),
    ]);
    if trace {
        let mut spans = std::mem::take(&mut outcome.spans);
        spans.sort_by_key(|s| s.id);
        let path = PathBuf::from(".perfbench").join(format!("spans-{workload}-{seed}.jsonl"));
        std::fs::write(&path, to_json_lines(&spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        outcome
            .facts
            .push(("spans_file", format!("\"{}\"", path.display())));
    }
    let rss = peak_rss_mb();
    if !trace {
        outcome.metric(
            "peak_rss_mb",
            rss,
            "MB",
            "peak RSS (VmHWM) of the benchmark process",
        );
    }
    Ok(outcome)
}

/// The `plan-sweep` workload.
fn plan_sweep(seed: u64, seconds: f64, tracer: &Tracer, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut trace_ms = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    // Set-up runs on this thread alone, so its wall time is its CPU time;
    // the wall clock reads it without the scheduler's bookkeeping lag.
    // Each set-up is scaled by a reference sample taken right after it.
    let mut reference_table = vec![1.0f64; 1 << 18];
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let (built, ms) = build_inputs(seed);
        let wall = t0.elapsed().as_secs_f64();
        setups.push(wall * cpu::host_scale(&[cpu::reference_s(&mut reference_table)]));
        trace_ms.push(ms);
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");
    let workers = machine_parallelism().min(MAX_SWEEP_WORKERS);
    out.facts.push(("host_workers", workers.to_string()));
    out.facts.push(("generator_threads", "0".into()));
    out.facts.push(("connections", "0".into()));
    out.facts.push((
        "scenarios_per_sweep",
        (inputs.items.len() as u64 * sweep::STRATEGIES).to_string(),
    ));

    // One untimed sweep lets caches fill and lazy set-up finish.
    let off = Tracer::new(false);
    let first = sweep(&inputs, workers, &off, 0);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut timed: Vec<SweepOut> = Vec::new();
    let mut traced: Vec<SweepOut> = Vec::new();
    let mut timed_cpu_s = 0.0;
    let mut table_cpu: Vec<f64> = Vec::new();
    let mut reference: Vec<f64> = Vec::new();
    let mut i = 1;
    while Instant::now() < deadline || timed.is_empty() || (tracer.on() && traced.is_empty()) {
        // The traced run alternates untraced and traced sweeps; their
        // difference is the tracing overhead.
        if tracer.on() && i % 2 == 0 {
            traced.push(sweep(&inputs, workers, tracer, i));
        } else {
            let cpu0 = cpu::process_s();
            timed.push(sweep(&inputs, workers, &off, i));
            timed_cpu_s += cpu::process_s() - cpu0;
            if !tracer.on() {
                // One table build on one worker after every sweep: it runs
                // on this thread alone, so its CPU time is exact, and it is
                // sampled across the whole run, not at one moment of it.
                let cpu0 = cpu::live_threads_s();
                let built = with_worker_budget(1, || {
                    build_upper_bound_table_stats(
                        &inputs.spec,
                        &inputs.config,
                        &sweep::TABLE_DURATIONS,
                        &sweep::TABLE_DEGREES,
                        OracleMode::Pruned,
                    )
                });
                table_cpu.push(cpu::live_threads_s() - cpu0);
                out.check(
                    fingerprint_of(&built.0) == first.table_digest,
                    "a one-worker table build differs from the sweep's",
                );
                reference.push(cpu::reference_s(&mut reference_table));
            }
        }
        i += 1;
    }

    let scenarios = timed.iter().map(SweepOut::scenarios).sum::<u64>();
    out.attempted += scenarios;
    for s in timed.iter().chain(&traced) {
        if s.digest != first.digest {
            out.failed += s.scenarios();
            out.errors.push(format!(
                "a sweep's digest {:016x} differs from the first's",
                s.digest
            ));
        }
    }
    check_plan(&mut out, seed, &inputs, &first, workers);
    out.facts
        .push(("sweep_digest", format!("\"{:016x}\"", first.digest)));
    out.facts.push(("sweeps", timed.len().to_string()));

    if tracer.on() {
        let spans = tracer.spans();
        let mut untraced: Vec<f64> = timed.iter().map(|s| s.total_ns).collect();
        let mut traced_ns: Vec<f64> = traced.iter().map(|s| s.total_ns).collect();
        let overhead = (median(&mut traced_ns) / median(&mut untraced) - 1.0) * 100.0;
        planner_layers(
            &mut out,
            &first,
            (&spans, traced.len()),
            workers,
            median(&mut trace_ms),
        );
        out.spans = spans;

        let yahoo = &inputs.items[0].scenario;
        let demands: Vec<f64> = inputs
            .items
            .iter()
            .step_by(2)
            .flat_map(|it| it.scenario.trace().samples().iter().copied())
            .cycle()
            .take(feed::BEAT_STEPS)
            .collect();
        let beats = beat_split(
            &inputs.spec,
            &inputs.config,
            &demands,
            yahoo.trace().step(),
            || RecordSink::with_capacity(feed::BEAT_STEPS),
        )?;
        // The hand-driven beats must also reproduce the runner's records.
        let reference = run(yahoo, Box::new(Greedy)).records;
        let prefix = &beats.records[..reference.len().min(beats.records.len())];
        out.check(
            fingerprint_of(&prefix.to_vec()) == fingerprint_of(&reference),
            "kernel beat split differs from dcs_sim::run",
        );
        kernel_layers(
            &mut out,
            &beats,
            "the planning facility (4 PDUs x 200 servers)",
        );

        // The service layers, on the planning facility: no service layer
        // runs in the sweep itself.
        let feed_tracer = Tracer::new(true);
        let report = feed::run(&PLAN_PLANT, seed, 4.0, &feed_tracer, &work.join("service"))?;
        service_layers(&mut out, &report, "isolated probe on the planning facility");
        out.spans
            .extend(offset_ids(feed_tracer.spans(), out.spans.len()));
        out.metric(
            "trace.overhead_pct",
            overhead,
            "%",
            "traced minus untraced sweep time, median",
        );
    } else {
        let mut rates: Vec<f64> = timed
            .iter()
            .map(|s| s.scenarios() as f64 / (s.total_ns / 1e9))
            .collect();
        let mut scenario_ns: Vec<f64> = timed.iter().flat_map(|s| s.scenario_ns.clone()).collect();
        let mut table_ns: Vec<f64> = timed.iter().map(|s| s.table_ns).collect();
        let lat = tail(&mut scenario_ns, 99.0);
        let table = tail(&mut table_ns, 99.0);
        let read_s = table_cpu.iter().sum::<f64>() / table_cpu.len() as f64;
        let ops = scenarios as f64 / timed_cpu_s;
        let scale = cpu::host_scale(&reference);
        host_facts(&mut out, scale, ops, read_s);
        out.metric(
            "setup_s",
            median(&mut setups),
            "s",
            format!("trace + scenario construction, median of {SETUPS}, at nominal host speed"),
        );
        out.metric(
            "ops_per_cpu_s",
            ops / scale,
            "1/s",
            format!(
                "scenarios_per_s: scenario runs per CPU-second, {} sweeps of {} runs on {workers} \
                 workers, at nominal host speed",
                timed.len(),
                inputs.items.len() as u64 * sweep::STRATEGIES
            ),
        );
        out.metric(
            "read_cpu_us",
            read_s * 1e6 * scale,
            "us",
            format!(
                "CPU per upper-bound table build ({}x{} grid) on one worker, mean of {}, at \
                 nominal host speed",
                sweep::TABLE_DURATIONS.len(),
                sweep::TABLE_DEGREES.len(),
                table_cpu.len()
            ),
        );
        out.lines.push(format!(
            "  wall: {:.1} scenario runs/s (median of {} sweeps); one run p50 {:.1} us, p{} {:.1} us of {}",
            median(&mut rates),
            timed.len(),
            lat.p50 / 1e3,
            lat.pct,
            lat.value / 1e3,
            lat.n
        ));
        out.lines.push(format!(
            "  wall: table build in the sweep p50 {:.1} us, p{} {:.1} us of {}",
            table.p50 / 1e3,
            table.pct,
            table.value / 1e3,
            table.n
        ));
    }
    Ok(out)
}

/// Output checks for `plan-sweep`, after the timed sweeps.
fn check_plan(out: &mut Outcome, seed: u64, inputs: &Inputs, first: &SweepOut, workers: usize) {
    let off = Tracer::new(false);
    if workers > 1 {
        let single = sweep(inputs, 1, &off, 0);
        out.check(
            single.digest == first.digest,
            "the sweep digest differs between worker budgets 1 and 2",
        );
    }
    let pick = (seed % inputs.items.len() as u64) as usize;
    let Item {
        scenario, faults, ..
    } = &inputs.items[pick];
    let batched = oracle_search_stats(scenario, faults, OracleMode::Pruned).0;
    let unbatched = oracle_search_unbatched(scenario, faults, OracleMode::Pruned);
    out.check(
        batched == unbatched && fingerprint_of(&batched) == fingerprint_of(&unbatched),
        format!("scenario {pick}: the batched Oracle differs from oracle_search_unbatched"),
    );
    let table = build_upper_bound_table_unbatched(
        &inputs.spec,
        &inputs.config,
        &sweep::TABLE_DURATIONS,
        &sweep::TABLE_DEGREES,
        OracleMode::Pruned,
    );
    out.check(
        fingerprint_of(&table) == first.table_digest && table == first.table,
        "the batched table differs from build_upper_bound_table_unbatched",
    );
    out.check(
        first.table_digest == sweep::PINNED_TABLE_DIGEST,
        format!(
            "table digest {:016x} differs from the pinned {:016x}",
            first.table_digest,
            sweep::PINNED_TABLE_DIGEST
        ),
    );
    let reference = if seed == sweep::REFERENCE_SEED {
        first.digest
    } else {
        sweep(&build_inputs(sweep::REFERENCE_SEED).0, workers, &off, 0).digest
    };
    out.check(
        reference == sweep::PINNED_SWEEP_DIGEST,
        format!(
            "seed {} sweep digest {reference:016x} differs from the pinned {:016x}",
            sweep::REFERENCE_SEED,
            sweep::PINNED_SWEEP_DIGEST
        ),
    );
}

/// The planner layers' per-sweep self times and counts.
fn planner_layers(
    out: &mut Outcome,
    sweep: &SweepOut,
    (spans, sweeps): (&[Span], usize),
    workers: usize,
    trace_ms: f64,
) {
    let layers = self_by_layer(spans);
    let self_ms = |name: &str| {
        layers.get(name).map_or(0.0, |&(_, ns)| ns as f64) / sweeps.max(1) as f64 / 1e6
    };
    let c = &sweep.counts;
    let lanes = (c.batch.live_lane_steps + c.batch.folded_lane_steps) as f64;
    out.metric("oracle.self_ms", self_ms("oracle"), "ms", "per sweep");
    out.metric(
        "oracle.tried",
        c.oracle_tried as f64,
        "count",
        "candidate bounds evaluated per sweep",
    );
    out.metric(
        "table_builder.self_ms",
        self_ms("table_builder"),
        "ms",
        "per sweep",
    );
    out.metric(
        "table_builder.evaluations",
        c.table_evaluations as f64,
        "count",
        "per sweep",
    );
    out.metric("runner.self_ms", self_ms("runner"), "ms", "per sweep");
    out.metric("runner.steps", c.runner_steps as f64, "count", "per sweep");
    out.metric(
        "sweep.self_ms",
        self_ms("sweep"),
        "ms",
        "per sweep, outside every layer call",
    );
    out.metric("sweep.host_workers", workers as f64, "count", "");
    out.metric(
        "batch.live_lane_steps",
        c.batch.live_lane_steps as f64,
        "count",
        "per sweep",
    );
    out.metric(
        "batch.folded_lane_steps",
        c.batch.folded_lane_steps as f64,
        "count",
        "per sweep",
    );
    out.metric(
        "batch.fold_share",
        if lanes > 0.0 {
            c.batch.folded_lane_steps as f64 / lanes
        } else {
            0.0
        },
        "ratio",
        "folded / all lane-steps",
    );
    out.metric(
        "batch.unique_lane_share",
        if c.batch.lanes > 0 {
            c.batch.unique_lanes as f64 / c.batch.lanes as f64
        } else {
            0.0
        },
        "ratio",
        "lanes advanced / lanes submitted",
    );
    out.metric(
        "workload.trace_ms",
        trace_ms,
        "ms",
        "trace generation, median",
    );
}

/// The kernel beat split's metrics.
fn kernel_layers(out: &mut Outcome, beats: &BeatSplit, plant: &str) {
    const NAMES: [&str; 5] = [
        "kernel.prepare_ns",
        "kernel.decide_ns",
        "kernel.advance_ns",
        "kernel.finish_ns",
        "kernel.record_ns",
    ];
    for (k, name) in NAMES.iter().enumerate() {
        out.metric(
            name,
            beats.beat_ns[k],
            "ns",
            format!("{} beat, mean per step on {plant}", BEATS[k]),
        );
    }
    out.metric(
        "kernel.steps",
        beats.steps as f64,
        "count",
        "steps in the beat split",
    );
    let mut cycle = beats.cycle_ns.clone();
    out.metric(
        "kernel.step_ns",
        median(&mut cycle),
        "ns",
        format!("step_cycle, median on {plant}"),
    );
}

/// The service layers' metrics from a traced feed.
fn service_layers(out: &mut Outcome, report: &feed::Report, scope: &str) {
    let Some(t) = &report.traced else { return };
    let l = &t.layers;
    let mut kernel_ns = t.beats.cycle_ns.clone();
    let kernel_us = if kernel_ns.is_empty() {
        0.0
    } else {
        median(&mut kernel_ns) / 1e3
    };
    let layers_us = (l.parse_ns + l.decode_ns + l.encode_ns + l.render_ns) / 1e3 + kernel_us;
    out.metric(
        "http.parse_ns",
        l.parse_ns,
        "ns",
        format!("read_request p50, {scope}"),
    );
    out.metric(
        "http.render_ns",
        l.render_ns,
        "ns",
        format!("render_json p50, {scope}"),
    );
    out.metric(
        "protocol.decode_ns",
        l.decode_ns,
        "ns",
        format!("StepBody decode p50, {scope}"),
    );
    out.metric(
        "protocol.encode_ns",
        l.encode_ns,
        "ns",
        format!("StepResponse encode p50, {scope}"),
    );
    out.metric(
        "wire.residual_us",
        t.untraced_p50_us - layers_us,
        "us",
        "client p50 minus the parse, decode, kernel step, encode and render p50s",
    );
    out.metric(
        "service.roundtrip_p50_us",
        l.roundtrip_p50_us,
        "us",
        format!("closed-loop POST /step, persistence on, {scope}"),
    );
    out.metric(
        "service.roundtrip_p99_us",
        l.roundtrip_p99_us,
        "us",
        format!("closed-loop POST /step, persistence on, {scope}"),
    );
    out.metric(
        "checkpoint.save_p50_us",
        l.save_p50_us,
        "us",
        scope.to_string(),
    );
    out.metric(
        "checkpoint.bytes",
        l.snapshot_bytes,
        "bytes",
        "one snapshot file",
    );
    out.metric(
        "checkpoint.saves",
        t.saves as f64,
        "count",
        "written during the live phases",
    );
    out.metric(
        "checkpoint.p99_share",
        if l.roundtrip_p99_us > 0.0 {
            (l.roundtrip_p99_us - l.roundtrip_p99_unpersisted_us) / l.roundtrip_p99_us
        } else {
            0.0
        },
        "ratio",
        format!(
            "round-trip p99 {:.1} us persisted vs {:.1} us not",
            l.roundtrip_p99_us, l.roundtrip_p99_unpersisted_us
        ),
    );
    out.metric(
        "status.body_bytes",
        report.status_bytes as f64,
        "bytes",
        "/status body",
    );
    out.metric(
        "client.step_p50_us",
        t.untraced_p50_us,
        "us",
        format!(
            "wall: POST /step from its due time at {} req/s, tracing off",
            report.nominal_rps
        ),
    );
    let mut status: Vec<f64> = report
        .status
        .iter()
        .map(|s| s.latency() as f64 / 1e3)
        .collect();
    let status = if status.is_empty() {
        None
    } else {
        Some(tail(&mut status, 99.0))
    };
    out.metric(
        "client.status_tail_us",
        status.map_or(0.0, |s| s.value),
        "us",
        status.map_or(String::new(), |s| {
            format!(
                "wall: GET /status from its due time at 10 Hz, p{} of {}",
                s.pct, s.n
            )
        }),
    );
    out.metric(
        "frontend.p50_share",
        1.0 - kernel_us / t.untraced_p50_us,
        "ratio",
        format!(
            "share of the client p50 ({:.1} us) outside the kernel step ({kernel_us:.2} us)",
            t.untraced_p50_us
        ),
    );
    let c = report.counters.unwrap_or(dcs_service::ServiceCounters {
        served: 0,
        timeouts: 0,
        backpressure: 0,
        degraded_served: 0,
        reloads: 0,
        reloads_rejected: 0,
        connections_accepted: 0,
        connections_rejected: 0,
        parse_rejects: 0,
        replays_served: 0,
    });
    for (name, v) in [
        ("service.served", c.served),
        ("service.backpressure", c.backpressure),
        ("service.timeouts", c.timeouts),
        ("service.degraded_served", c.degraded_served),
        ("service.parse_rejects", c.parse_rejects),
        ("service.connections_rejected", c.connections_rejected),
    ] {
        out.metric(
            name,
            v as f64,
            "count",
            "from /status, since the last restart",
        );
    }
    let mut late: Vec<f64> = report.gen_late.iter().map(|&n| n as f64 / 1e3).collect();
    let late = if late.is_empty() {
        0.0
    } else {
        tail(&mut late, 99.0).value
    };
    out.metric(
        "generator.late_p99_us",
        late,
        "us",
        "open-loop generator lateness",
    );
}

/// Records the host-speed factor and the raw (unscaled) CPU figures.
fn host_facts(out: &mut Outcome, scale: f64, ops: f64, read_s: f64) {
    out.facts.push(("host_scale", scale.to_string()));
    out.facts.push(("raw_ops_per_cpu_s", ops.to_string()));
    out.facts
        .push(("raw_read_cpu_us", (read_s * 1e6).to_string()));
}

/// Renumbers spans from a second tracer so ids stay unique in one file
/// (a tracer's ids are dense from 0, so `by` = the first tracer's count).
fn offset_ids(spans: Vec<Span>, by: usize) -> Vec<Span> {
    let by = u32::try_from(by).expect("fewer than 4G spans");
    spans
        .into_iter()
        .map(|mut s| {
            s.id += by;
            s.parent = s.parent.map(|p| p + by);
            s
        })
        .collect()
}

/// A feed workload.
fn feed_workload(
    plant: &feed::Plant,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    work: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t = Instant::now();
    let demands = feed::demands(seed);
    let trace_ms = t.elapsed().as_secs_f64() * 1e3;
    let report = feed::run(plant, seed, seconds, tracer, work)?;
    out.attempted += report.attempted;
    out.failed += report.failed;
    out.errors.extend(report.errors.iter().cloned());

    let mut late: Vec<f64> = report.gen_late.iter().map(|&n| n as f64).collect();
    let late = tail(&mut late, 99.0);
    out.facts.extend([
        ("host_workers", "1".to_string()),
        ("generator_threads", "2".to_string()),
        ("connections", "2".to_string()),
        ("nominal_rps", plant.nominal_rps.to_string()),
        ("gen_late_p99_us", (late.value / 1e3).to_string()),
        ("rejected_phases", report.rejected_phases.to_string()),
        (
            "plant",
            format!(
                "\"{} PDUs x {} servers\"",
                plant.pdus, plant.servers_per_pdu
            ),
        ),
    ]);
    if feed::fell_behind(&report.gen_late) {
        return Err(format!(
            "the load generator fell behind its schedule (lateness p50 {:.0} us, p{} {:.0} us) \
             in every attempt: run rejected",
            late.p50 / 1e3,
            late.pct,
            late.value / 1e3,
        ));
    }
    if tracer.on() {
        let traced = report
            .traced
            .as_ref()
            .expect("a traced feed reports layers");
        // The planner layers, on this workload's plant: no planning runs
        // in the feed itself.
        let config = feed::config(plant);
        let spec: DataCenterSpec = config.spec();
        let controller: ControllerConfig = config.controller();
        let trace = dcs_workload::Trace::new(Seconds::new(config.step_secs()), demands.clone())
            .map_err(|e| e.to_string())?;
        let inputs = Inputs {
            spec: spec.clone(),
            config: controller.clone(),
            items: vec![Item {
                scenario: Scenario::new(spec, controller, trace),
                faults: dcs_faults::FaultSchedule::none(),
                burst_secs: 15.0 * 60.0,
            }],
        };
        let plan_tracer = Tracer::new(true);
        let planned: Vec<SweepOut> = (0..3).map(|i| sweep(&inputs, 1, &plan_tracer, i)).collect();
        let plan_spans = plan_tracer.spans();
        planner_layers(
            &mut out,
            &planned[0],
            (&plan_spans, planned.len()),
            1,
            trace_ms,
        );
        kernel_layers(
            &mut out,
            &traced.beats,
            &format!("{} PDUs x {} servers", plant.pdus, plant.servers_per_pdu),
        );
        service_layers(&mut out, &report, "on this workload's plant");
        out.metric(
            "trace.overhead_pct",
            (traced.traced_p50_us / traced.untraced_p50_us - 1.0) * 100.0,
            "%",
            "traced minus untraced client p50",
        );
        out.spans = tracer.spans();
        out.spans.extend(offset_ids(plan_spans, out.spans.len()));
    } else {
        let mut step: Vec<f64> = report
            .nominal
            .iter()
            .map(|t| t.latency() as f64 / 1e3)
            .collect();
        let mut status: Vec<f64> = report
            .status
            .iter()
            .map(|t| t.latency() as f64 / 1e3)
            .collect();
        let decisions: u64 = report.windows.iter().map(|w| w.decisions).sum();
        let step_cpu: f64 = report.windows.iter().map(|w| w.cpu_s).sum();
        let reads: u64 = report.status_cpu.iter().map(|c| c.0).sum();
        let read_cpu: f64 = report.status_cpu.iter().map(|c| c.1).sum();
        if decisions == 0 || reads == 0 || step_cpu <= 0.0 {
            out.check(false, "no saturated window or /status chunk completed");
        } else {
            let ops = decisions as f64 / step_cpu;
            let read = read_cpu / reads as f64;
            let scale = cpu::host_scale(&report.reference);
            host_facts(&mut out, scale, ops, read);
            out.metric(
                "ops_per_cpu_s",
                ops / scale,
                "1/s",
                format!(
                    "POST /step decisions per CPU-second of the process, sent back to back, \
                     {decisions} in {} windows, at nominal host speed",
                    report.windows.len()
                ),
            );
            out.metric(
                "read_cpu_us",
                read * 1e6 * scale,
                "us",
                format!(
                    "CPU per GET /status ({} bytes) read back to back, {reads} reads in {} \
                     chunks, at nominal host speed",
                    report.status_bytes,
                    report.status_cpu.len()
                ),
            );
            out.metric(
                "setup_s",
                report.setup_s * scale,
                "s",
                format!(
                    "CPU of a restart from a snapshot to the first /healthz 200, median of {}, \
                     at nominal host speed",
                    feed::BOOTS
                ),
            );
        }

        // Wall-clock figures, printed for the reader; see cpu.rs for why
        // they are not the bounded metrics.
        let step = tail(&mut step, 99.0);
        out.lines.push(format!(
            "  wall: step_p50_us {:.1} / p{} {:.1} from the due time at {} req/s ({} requests)",
            step.p50, step.pct, step.value, plant.nominal_rps, step.n
        ));
        let mut rates: Vec<f64> = report
            .windows
            .iter()
            .map(|w| w.decisions as f64 / w.wall_s)
            .collect();
        let mut p99s: Vec<f64> = report
            .windows
            .iter()
            .map(|w| tail(&mut w.round_trips.clone(), 99.0).value / 1e3)
            .collect();
        if !rates.is_empty() {
            out.lines.push(format!(
                "  wall: back-to-back {:.0} decisions/s, round-trip p99 {:.1} us (medians of {} windows)",
                median(&mut rates),
                median(&mut p99s),
                rates.len()
            ));
        }
        if !status.is_empty() {
            let s = tail(&mut status, 99.0);
            out.lines.push(format!(
                "  wall: status_p{} {:.1} us from the due time at 10 Hz ({} reads)",
                s.pct, s.value, s.n
            ));
        }
        let mut status_wall: Vec<f64> = report
            .status_cpu
            .iter()
            .map(|&(reads, _, wall)| wall / reads as f64 * 1e6)
            .collect();
        if !status_wall.is_empty() {
            out.lines.push(format!(
                "  wall: back-to-back /status {:.1} us each; restart {:.2} ms",
                median(&mut status_wall),
                report.setup_wall_s * 1e3
            ));
        }
    }
    Ok(out)
}

/// Peak resident set size of this process in MB (VmHWM).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out commit, when the tree is a git checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "none (not a git checkout; see source_digest)".into(),
    }
}

/// FNV-1a digest of every file under `crates/`, in path order: which
/// program sources the run measured.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    fnv1a64(&bytes)
}

fn print_human(workload: &str, seed: u64, trace: bool, out: &Outcome) {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== {workload} (seed {seed}, {}) ==",
        if trace {
            "traced: per-layer split"
        } else {
            "untraced: end to end"
        }
    );
    for m in &out.metrics {
        let _ = writeln!(
            s,
            "  {:<28} {:>16.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for l in &out.lines {
        let _ = writeln!(s, "{l}");
    }
    let _ = writeln!(
        s,
        "  error_rate = {}/{} = {:.6}",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for e in &out.errors {
        let _ = writeln!(s, "  FAILED: {e}");
    }
    let facts: Vec<String> = out
        .facts
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let _ = writeln!(s, "run {{{}}}", facts.join(","));
    print!("{s}");
}

fn result_json(results: &[(&str, Outcome)]) -> String {
    let correct = results.iter().all(|(_, o)| o.correct());
    let attempted: u64 = results.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = results.iter().map(|(_, o)| o.failed).sum();
    let prefix = results.len() > 1;
    let metrics: Vec<String> = results
        .iter()
        .flat_map(|(w, o)| {
            o.metrics.iter().map(move |m| {
                let name = if prefix {
                    format!("{w}/{}", m.name)
                } else {
                    m.name.to_string()
                };
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{}\"}}", m.unit)
            })
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        metrics.join(",")
    )
}
