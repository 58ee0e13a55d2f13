//! The DynaSoRe end-to-end benchmark.
//!
//! One binary runs one workload per process:
//!
//! * `live_feed` — one closed-loop client sends the trace's `read_feed`
//!   requests to the loopback server over a sharded durable tier;
//! * `live_mixed` — the same stack, the trace's reads and writes
//!   interleaved, one client per core;
//! * `sim_day` — `Simulation::run` over a `DynaSoReEngine`, the paper's own
//!   experiment.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics of
//! [`E2E_METRICS`]. A traced run (`--trace 1`) measures half its time
//! untraced and half with timing decorators (see [`decor`]) around the
//! public seams of the crates, and reports [`LAYER_METRICS`]. Every run
//! checks its outputs; see `perfbench/README.md`.

pub mod decor;
pub mod live;
pub mod simday;
pub mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dynasore_sim::PlacementEngine;
use dynasore_types::Result;

use crate::decor::{Slowdown, TimedEngine};
use crate::live::{LiveConfig, LiveRun};
use crate::simday::{SimConfig, SimRun};
use crate::stats::{
    median, median_rate, ns_to_ms, peak_rss_mb, percentile, ratio, LatencySummary, Metrics,
};

/// End-to-end metrics, reported by every workload in an untraced run.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("ops_per_s", "req/s"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload in a traced run; a layer
/// the workload does not run through reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("serve.lock_wait_share", "share"),
    ("serve.stage.tracing_us", "us"),
    ("serve.stage.admission_us", "us"),
    ("serve.stage.flow-budget_us", "us"),
    ("serve.stage_share", "share"),
    ("serve.self_share", "share"),
    ("serve.rejected", "count"),
    ("store.cluster.read_feed_us.p50", "us"),
    ("store.cluster.read_feed_us.p99", "us"),
    ("store.cluster.read_feed_us.n", "count"),
    ("store.cluster.read_feed_share", "share"),
    ("store.cluster.write_us.p50", "us"),
    ("store.cluster.write_us.p99", "us"),
    ("store.cluster.write_us.n", "count"),
    ("store.cluster.write_share", "share"),
    ("store.cluster.self_share", "share"),
    ("store.persistent.append_us.p50", "us"),
    ("store.persistent.append_us.p99", "us"),
    ("store.persistent.append_us.n", "count"),
    ("store.persistent.append_share", "share"),
    ("store.persistent.fetch_share", "share"),
    ("store.persistent.fetches_per_read", "ratio"),
    ("store.cache_hit_ratio", "ratio"),
    ("store.disk_bytes_per_user_byte", "ratio"),
    ("core.read_us.p50", "us"),
    ("core.read_us.p99", "us"),
    ("core.read_us.n", "count"),
    ("core.read_share", "share"),
    ("core.write_share", "share"),
    ("core.tick_share", "share"),
    ("core.other_share", "share"),
    ("core.app_msgs_per_req", "msgs/req"),
    ("core.protocol_msgs_per_req", "msgs/req"),
    ("core.replica_events_per_kreq", "1/kreq"),
    ("core.replicas_per_user", "ratio"),
    ("sim.account_share", "share"),
    ("workload.gen_share", "share"),
    ("sim.self_share", "share"),
    ("sim.top_switch_traffic_per_req", "units/req"),
    ("client.self_share", "share"),
    ("client.read_samples", "count"),
    ("client.write_p50_ms", "ms"),
    ("client.write_p99_ms", "ms"),
    ("client.write_samples", "count"),
    ("client.failed_ratio", "ratio"),
    ("setup.graph_s", "s"),
    ("setup.engine_build_s", "s"),
    ("setup.spawn_s", "s"),
    ("setup.preload_s", "s"),
    ("setup.warmup_s", "s"),
    ("trace_overhead", "ratio"),
    ("count.sim.app_msgs", "count"),
    ("count.sim.protocol_msgs", "count"),
    ("count.sim.top_switch_traffic", "count"),
    ("count.sim.replica_events", "count"),
    ("count.live.persistent_fetches", "count"),
    ("count.live.cache_misses", "count"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client, the trace's feed reads only.
    LiveFeed,
    /// One client per core, the trace's reads and writes.
    LiveMixed,
    /// The simulator over the placement engine.
    SimDay,
}

impl Workload {
    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "live_feed" => Some(Workload::LiveFeed),
            "live_mixed" => Some(Workload::LiveMixed),
            "sim_day" => Some(Workload::SimDay),
            _ => None,
        }
    }

    /// Set-ups per run (`setup_s` is their median): more where one is
    /// short.
    #[must_use]
    pub fn default_setups(self) -> usize {
        match self {
            Workload::LiveFeed | Workload::LiveMixed => 5,
            Workload::SimDay => 3,
        }
    }

    /// Users in the workload's graph unless overridden.
    #[must_use]
    pub fn default_users(self) -> usize {
        match self {
            Workload::LiveFeed | Workload::LiveMixed => 6_000,
            Workload::SimDay => 30_000,
        }
    }
}

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time of the run.
    pub seconds: f64,
    /// Measure per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Users in the graph.
    pub users: usize,
    /// Client threads of `live_mixed` (`live_feed` always has one).
    pub clients: usize,
    /// How many times set-up runs; `setup_s` is the median.
    pub setups: usize,
    /// Scratch directory for the durable tier.
    pub work_dir: PathBuf,
}

impl Options {
    /// Defaults for `workload`: paper-sized inputs, one client per core.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            users: workload.default_users(),
            clients: std::thread::available_parallelism().map_or(1, |n| n.get()),
            setups: workload.default_setups(),
            work_dir: PathBuf::from("perfbench/work"),
        }
    }
}

/// One output check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What is checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// Evidence, or the first violation.
    pub detail: String,
}

impl Check {
    /// A check result.
    #[must_use]
    pub fn new(name: &str, passed: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.to_string(),
            passed,
            detail: detail.into(),
        }
    }
}

/// How long one set-up took, step by step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetupTimes {
    /// From the start of set-up (process start for the first) to ready.
    pub total: Duration,
    /// Generating the social graph.
    pub graph: Duration,
    /// Building the placement engine, partitioning included (`sim_day`).
    pub engine_build: Duration,
    /// Spawning the server; the engine build is inside (`live_*`).
    pub spawn: Duration,
    /// Opening the durable tier and preloading it (`live_*`).
    pub preload: Duration,
    /// The warm-up pass.
    pub warmup: Duration,
}

/// Everything one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phases.
    pub attempted: u64,
    /// Operations failed, refused or violating a check.
    pub failed: u64,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Every metric measured (end-to-end and per-layer).
    pub metrics: Metrics,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every check held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The metrics the run reports: [`E2E_METRICS`] or [`LAYER_METRICS`].
    #[must_use]
    pub fn reported(&self, trace: bool) -> Metrics {
        let list = if trace { LAYER_METRICS } else { E2E_METRICS };
        let mut out = Metrics::default();
        for &(name, unit) in list {
            out.set(name, self.metrics.get(name).unwrap_or(0.0), unit);
        }
        out
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Records the medians of the set-up steps.
fn setup_metrics(setups: &[SetupTimes], out: &mut Outcome) {
    let pick =
        |f: fn(&SetupTimes) -> Duration| secs(median(&setups.iter().map(f).collect::<Vec<_>>()));
    out.metrics.set("setup_s", pick(|s| s.total), "s");
    out.metrics.set("setup.graph_s", pick(|s| s.graph), "s");
    out.metrics
        .set("setup.engine_build_s", pick(|s| s.engine_build), "s");
    out.metrics.set("setup.spawn_s", pick(|s| s.spawn), "s");
    out.metrics.set("setup.preload_s", pick(|s| s.preload), "s");
    out.metrics.set("setup.warmup_s", pick(|s| s.warmup), "s");
    let all: Vec<String> = setups
        .iter()
        .map(|s| format!("{:.3}", secs(s.total)))
        .collect();
    out.notes.push(format!(
        "setup_s = {:.4} s (median of {} set-ups: {})",
        out.metrics.get("setup_s").unwrap_or(0.0),
        setups.len(),
        all.join(", ")
    ));
}

/// Records a percentile pair, or fails the run when the sample set is too
/// small for an end-to-end percentile.
fn latency_metrics(prefix: &str, summary: &LatencySummary, required: bool, out: &mut Outcome) {
    out.notes.push(format!(
        "{prefix}_p50_ms = {} ms, {prefix}_p99_ms = {} ms ({} samples; p99 is the median of {} slices)",
        summary.p50_ms.map_or("n/a".into(), |v| format!("{v:.4}")),
        summary.p99_ms.map_or("n/a".into(), |v| format!("{v:.4}")),
        summary.samples,
        summary.p99_slices
    ));
    if required {
        out.checks.push(Check::new(
            &format!("{prefix} percentiles have at least ten samples beyond them"),
            summary.p99_ms.is_some(),
            format!("{} samples", summary.samples),
        ));
    }
    if let Some(v) = summary.p50_ms {
        out.metrics.set(&format!("{prefix}_p50_ms"), v, "ms");
    }
    if let Some(v) = summary.p99_ms {
        out.metrics.set(&format!("{prefix}_p99_ms"), v, "ms");
    }
}

/// Runs one workload in this process.
///
/// # Errors
///
/// Set-up or I/O failures (a failed output check is not an error; it is
/// recorded in the outcome).
pub fn run(opts: &Options, process_start: Instant) -> Result<Outcome> {
    let mut out = match opts.workload {
        Workload::LiveFeed | Workload::LiveMixed => run_live(opts, process_start)?,
        Workload::SimDay => run_sim(opts, process_start)?,
    };
    out.checks.push(Check::new(
        "every timed request was served and passed its checks",
        out.failed == 0,
        format!("{} failed of {}", out.failed, out.attempted),
    ));
    out.metrics.set(
        "client.failed_ratio",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
    );
    Ok(out)
}

fn live_config(opts: &Options) -> LiveConfig {
    let feed = opts.workload == Workload::LiveFeed;
    LiveConfig {
        users: opts.users,
        clients: if feed { 1 } else { opts.clients.max(1) },
        reads_only: feed,
        preload_events: 3,
        seed: opts.seed,
        dir: opts.work_dir.join(format!("store-{}", std::process::id())),
    }
}

fn run_live(opts: &Options, process_start: Instant) -> Result<Outcome> {
    let config = live_config(opts);
    let mut out = Outcome::default();
    out.notes.push(format!(
        "workload: {} users, {} closed-loop client(s), {} preloaded {}-byte events per user",
        config.users,
        config.clients,
        config.preload_events,
        live::PAYLOAD_BYTES
    ));
    let mut setups = Vec::new();
    let mut warm = Vec::new();
    let mut started = process_start;
    let stack = loop {
        let stack = live::setup(&config, started, live::spawn_plain)?;
        setups.push(stack.setup);
        warm.push((
            stack.warm_stats.cache_misses,
            stack.warm_stats.persistent_reads,
        ));
        if setups.len() >= opts.setups.max(1) {
            break stack;
        }
        live::Front::shutdown(stack.front())?;
        drop(stack);
        started = Instant::now();
    };
    setup_metrics(&setups, &mut out);
    // Read before the timed phase: how much it does depends on the
    // program's speed, and what it writes stays in memory.
    out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");

    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let plain = stack.measure(&config, seconds)?;
    let plain_ops = finish_live(stack, &config, &plain, "untraced", &mut out)?;
    if !opts.trace {
        latency_metrics("read", &plain.read, true, &mut out);
    }
    latency_metrics("client.write", &plain.write, false, &mut out);
    out.metrics
        .set("client.read_samples", plain.read.samples as f64, "count");
    out.metrics
        .set("client.write_samples", plain.write.samples as f64, "count");
    out.metrics.set("ops_per_s", plain_ops, "req/s");

    if opts.trace {
        let stack = live::setup(&config, Instant::now(), live::spawn_traced(Slowdown::None))?;
        warm.push((
            stack.warm_stats.cache_misses,
            stack.warm_stats.persistent_reads,
        ));
        stack.front().reset_spans();
        let traced = stack.measure(&config, seconds)?;
        live::layer_metrics(
            stack.front().spans(),
            &traced,
            &mut out.metrics,
            &mut out.checks,
        );
        let traced_ops = finish_live(stack, &config, &traced, "traced", &mut out)?;
        out.metrics
            .set("trace_overhead", ratio(traced_ops, plain_ops), "ratio");
        if config.clients == 1 {
            let same = plain.prefix_stats == traced.prefix_stats && plain.prefix_stats.is_some();
            out.checks.push(Check::new(
                "exact: the first requests' store counters repeat under tracing",
                same,
                format!(
                    "untraced {:?} vs traced {:?}",
                    plain.prefix_stats, traced.prefix_stats
                ),
            ));
        }
        out.notes.push(format!(
            "trace_overhead = {:.4} (traced ops/s {traced_ops:.1} / untraced {plain_ops:.1})",
            ratio(traced_ops, plain_ops)
        ));
    }

    let (misses, fetches) = warm[0];
    out.checks.push(Check::new(
        "exact: warm-up store counters repeat on every set-up",
        warm.iter().all(|&w| w == warm[0]),
        format!("(cache misses, persistent fetches) per set-up: {warm:?}"),
    ));
    let (misses, fetches) = match plain.prefix_stats {
        Some(s) => (s.cache_misses, s.persistent_reads),
        None => (misses, fetches),
    };
    out.metrics
        .set("count.live.cache_misses", misses as f64, "count");
    out.metrics
        .set("count.live.persistent_fetches", fetches as f64, "count");
    out.notes.push(format!(
        "exact counts: cache_misses = {misses}, persistent_fetches = {fetches} (after {})",
        if plain.prefix_stats.is_some() {
            format!("warm-up + {} timed requests", live::PREFIX_REQUESTS)
        } else {
            "warm-up".to_string()
        }
    ));
    Ok(out)
}

/// Shuts a live stack down, runs its checks and returns its ops/s.
fn finish_live<F: live::Front>(
    stack: live::Stack<F>,
    config: &LiveConfig,
    run: &LiveRun,
    label: &str,
    out: &mut Outcome,
) -> Result<f64> {
    let writes_failed = run.failed > run.violations;
    let (durable, disk_bytes) = stack.finish(config, &run.acked, writes_failed)?;
    out.checks.push(durable);
    out.checks.push(Check::new(
        "read order: no client saw a view version go backwards",
        run.violations == 0,
        run.first_problem
            .clone()
            .unwrap_or_else(|| "no violations".into()),
    ));
    out.attempted += run.attempted;
    out.failed += run.failed;
    let user_bytes = (u64::from(config.preload_events) * config.users as u64
        + run.acked.iter().sum::<u64>())
        * live::PAYLOAD_BYTES as u64;
    out.metrics.set(
        "store.disk_bytes_per_user_byte",
        ratio(disk_bytes as f64, user_bytes as f64),
        "ratio",
    );
    let mean = ratio(run.ok as f64, secs(run.elapsed));
    let ops = median_rate(&run.windows, run.full_windows, stats::WINDOW).unwrap_or(mean);
    out.notes.push(format!(
        "{label}: {} requests in {:.3} s ({mean:.1} req/s); median of {} windows {ops:.1} req/s; \
         {} failed; store delta {:?}",
        run.attempted,
        secs(run.elapsed),
        run.full_windows,
        run.failed,
        run.stats_delta
    ));
    out.notes
        .push(format!("{label}: ok per window {:?}", run.windows));
    Ok(ops)
}

fn run_sim(opts: &Options, process_start: Instant) -> Result<Outcome> {
    let config = SimConfig {
        users: opts.users,
        seed: opts.seed,
    };
    let mut out = Outcome::default();
    out.notes.push(format!(
        "workload: {} users on the paper tree, hierarchical METIS placement, 30% extra memory",
        config.users
    ));
    let mut setups = Vec::new();
    let mut warm_reports = Vec::new();
    let mut started = process_start;
    let mut stack = loop {
        let stack = simday::setup(config, started, |e| e)?;
        setups.push(stack.setup);
        warm_reports.push(stack.warm_report.clone());
        if setups.len() >= opts.setups.max(1) {
            break stack;
        }
        drop(stack);
        started = Instant::now();
    };
    setup_metrics(&setups, &mut out);

    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    // Read after the first timed day, whose work is the same on every run
    // of a seed; the days after it grow with the program's speed.
    let mut rss = 0.0;
    let plain = stack.measure(config, seconds, |_| rss = peak_rss_mb())?;
    out.metrics.set("peak_rss_mb", rss, "MB");
    drop(stack);
    let plain_ops = sim_common(&plain, "untraced", &mut out);

    if opts.trace {
        let mut stack = simday::setup(config, Instant::now(), |e| {
            TimedEngine::new(e, Slowdown::None)
        })?;
        warm_reports.push(stack.warm_report.clone());
        stack.take_tally();
        let mut day_events = 0;
        let traced = stack.measure(config, seconds, |e| day_events = e.tally().replica_events)?;
        let engine = stack.take_tally();
        let replicas = stack.sim.engine().memory_usage().used_slots;
        sim_layer_metrics(&traced, &engine, replicas, config.users, &mut out);
        out.metrics
            .set("count.sim.replica_events", day_events as f64, "count");
        out.notes.push(format!(
            "exact counts (first timed day): replica_events = {day_events}"
        ));
        let traced_ops = sim_common(&traced, "traced", &mut out);
        out.metrics
            .set("trace_overhead", ratio(traced_ops, plain_ops), "ratio");
        out.checks.push(Check::new(
            "passive: the first timed day's report is identical under tracing",
            traced.day_report == plain.day_report,
            "SimReport compared field by field",
        ));
        out.notes.push(format!(
            "trace_overhead = {:.4} (traced ops/s {traced_ops:.1} / untraced {plain_ops:.1})",
            ratio(traced_ops, plain_ops)
        ));
    }
    out.checks.push(Check::new(
        "exact: the warm-up day's report repeats on every set-up",
        warm_reports.iter().all(|r| *r == warm_reports[0]),
        format!("{} warm-up reports compared", warm_reports.len()),
    ));

    let day = &plain.day_report;
    let day_requests = day.read_count() + day.write_count();
    out.metrics.set(
        "count.sim.app_msgs",
        day.total_application_messages() as f64,
        "count",
    );
    out.metrics.set(
        "count.sim.protocol_msgs",
        day.total_protocol_messages() as f64,
        "count",
    );
    out.metrics.set(
        "count.sim.top_switch_traffic",
        day.top_switch_total() as f64,
        "count",
    );
    out.metrics.set(
        "sim.top_switch_traffic_per_req",
        ratio(day.top_switch_total() as f64, day_requests as f64),
        "units/req",
    );
    out.notes.push(format!(
        "exact counts (first timed day, {day_requests} requests): app_msgs = {}, protocol_msgs = {}, \
         top_switch_traffic = {} ({:.6} units/req)",
        day.total_application_messages(),
        day.total_protocol_messages(),
        day.top_switch_total(),
        ratio(day.top_switch_total() as f64, day_requests as f64)
    ));
    out.metrics.set("ops_per_s", plain_ops, "req/s");
    if !opts.trace {
        let read = LatencySummary::of(std::slice::from_ref(&plain.trace.read_samples));
        latency_metrics("read", &read, true, &mut out);
    }
    let write = LatencySummary::of(std::slice::from_ref(&plain.trace.write_samples));
    latency_metrics("client.write", &write, false, &mut out);
    out.metrics
        .set("client.read_samples", plain.trace.reads as f64, "count");
    out.metrics
        .set("client.write_samples", write.samples as f64, "count");
    Ok(out)
}

/// Checks and counts shared by both phases of a simulator run; returns the
/// phase's ops/s.
fn sim_common(run: &SimRun, label: &str, out: &mut Outcome) -> f64 {
    out.checks.extend(run.checks.iter().cloned());
    out.attempted += run.requests;
    out.failed += run.unreachable;
    let mean = ratio(run.requests as f64, secs(run.elapsed));
    let full = (run.elapsed.as_secs_f64() / stats::WINDOW.as_secs_f64()) as usize;
    let ops = median_rate(&run.trace.windows, full, stats::WINDOW).unwrap_or(mean);
    out.notes.push(format!(
        "{label}: {} requests in {:.3} s ({mean:.1} req/s); median of {full} windows {ops:.1} req/s; \
         {} unreachable reads",
        run.requests,
        secs(run.elapsed),
        run.unreachable
    ));
    out.notes.push(format!(
        "{label}: requests per window {:?}",
        run.trace.windows
    ));
    ops
}

fn sim_layer_metrics(
    run: &SimRun,
    engine: &decor::EngineTally,
    replicas: usize,
    users: usize,
    out: &mut Outcome,
) {
    let wall = run.elapsed.as_nanos() as f64;
    let share = |ns: u64| ratio(ns as f64, wall);
    let requests = run.requests as f64;
    let core_ns = engine.read_ns + engine.write_ns + engine.tick_ns + engine.other_ns;
    let sim_self =
        wall as i128 - core_ns as i128 - engine.sink_ns as i128 - run.trace.gen_ns as i128;
    out.checks.push(Check::new(
        "trace: spans nest (every self time is non-negative)",
        sim_self >= 0,
        format!("sim.self {sim_self} ns"),
    ));
    let m = &mut out.metrics;
    let mut sorted = engine.read_samples.clone();
    sorted.sort_unstable();
    let p = |q| percentile(&sorted, q).map_or(0.0, stats::ns_to_us);
    m.set("core.read_us.p50", p(0.50), "us");
    m.set("core.read_us.p99", p(0.99), "us");
    m.set("core.read_us.n", sorted.len() as f64, "count");
    m.set("core.read_share", share(engine.read_ns), "share");
    m.set("core.write_share", share(engine.write_ns), "share");
    m.set("core.tick_share", share(engine.tick_ns), "share");
    m.set("core.other_share", share(engine.other_ns), "share");
    m.set(
        "core.app_msgs_per_req",
        ratio(engine.app_msgs as f64, requests),
        "msgs/req",
    );
    m.set(
        "core.protocol_msgs_per_req",
        ratio(engine.protocol_msgs as f64, requests),
        "msgs/req",
    );
    m.set(
        "core.replica_events_per_kreq",
        ratio(engine.replica_events as f64 * 1000.0, requests),
        "1/kreq",
    );
    m.set(
        "core.replicas_per_user",
        ratio(replicas as f64, users as f64),
        "ratio",
    );
    m.set("sim.account_share", share(engine.sink_ns), "share");
    m.set("workload.gen_share", share(run.trace.gen_ns), "share");
    m.set(
        "sim.self_share",
        share(u64::try_from(sim_self.max(0)).unwrap_or(0)),
        "share",
    );
    out.notes.push(format!(
        "core: read p50 {:.2} us over {} reads; {} replica events",
        ns_to_ms(percentile(&sorted, 0.5).unwrap_or(0)) * 1e3,
        sorted.len(),
        engine.replica_events
    ));
}
