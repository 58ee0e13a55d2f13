//! The benchmark's own checks: its decorators are passive, a seeded 2×
//! slowdown in one layer moves an end-to-end metric past its bound, its
//! exact counts repeat for a seed, and its metric lists match
//! `BENCHMARK.json`.

use std::path::PathBuf;
use std::time::Instant;

use dynasore_graph::{GraphPreset, SocialGraph};
use dynasore_sim::Simulation;
use dynasore_topology::Topology;
use dynasore_workload::SyntheticTraceGenerator;

use perfbench::decor::{Slowdown, TimedEngine, TimedTrace};
use perfbench::live::{self, LiveConfig};
use perfbench::simday::build_engine;
use perfbench::{run, Options, Workload, E2E_METRICS, LAYER_METRICS};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `bound` of end-to-end metric `name` in `BENCHMARK.json`.
fn bound(name: &str) -> f64 {
    let at = BENCHMARK_JSON
        .find(&format!("\"name\": \"{name}\""))
        .unwrap_or_else(|| panic!("{name} is not in BENCHMARK.json"));
    let rest = &BENCHMARK_JSON[at..];
    let rest = &rest[rest.find("\"bound\":").expect("metric has a bound") + 8..];
    let end = rest.find(['}', ',']).expect("bound ends");
    rest[..end].trim().parse().expect("bound is a number")
}

/// Every `"name": "..."` inside the JSON array under `key`.
fn names_under(key: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{key}\""))
        .expect("key present");
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("array ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name ends")].to_string())
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{tag}-{}", std::process::id()))
}

#[test]
fn metric_lists_match_benchmark_json() {
    let e2e: Vec<String> = E2E_METRICS.iter().map(|(n, _)| n.to_string()).collect();
    let layer: Vec<String> = LAYER_METRICS.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names_under("end_to_end"), e2e);
    assert_eq!(names_under("per_layer"), layer);
    assert_eq!(
        names_under("workloads"),
        ["live_feed", "live_mixed", "sim_day"]
    );
    for (name, _) in E2E_METRICS {
        assert!(bound(name) > 0.0 && bound(name) <= 0.25, "{name}");
    }
}

/// The engine, sink and trace decorators change nothing the simulator
/// reports: the same seed gives an identical `SimReport` with and without
/// them.
#[test]
fn decorators_are_passive() {
    let graph = SocialGraph::generate(GraphPreset::TwitterLike, 1_500, 5).unwrap();
    let topology = Topology::tree(2, 2, 4, 1).unwrap();
    let trace = |seed| SyntheticTraceGenerator::paper_defaults(&graph, 1, seed).unwrap();

    let mut plain = Simulation::new(
        topology.clone(),
        build_engine(&graph, &topology, 5).unwrap(),
        &graph,
    );
    let plain_reports = [plain.run(trace(1)).unwrap(), plain.run(trace(2)).unwrap()];

    let engine = TimedEngine::new(build_engine(&graph, &topology, 5).unwrap(), Slowdown::None);
    let mut timed = Simulation::new(topology, engine, &graph);
    let mut day1 = TimedTrace::new(trace(1), None)
        .with_windows(Instant::now(), std::time::Duration::from_millis(10));
    let mut day2 = TimedTrace::new(trace(2), None);
    let timed_reports = [timed.run(&mut day1).unwrap(), timed.run(&mut day2).unwrap()];

    assert_eq!(plain_reports, timed_reports);
    // The decorators did see the run.
    let tally = timed.engine_mut().take_tally();
    assert_eq!(
        tally.read_samples.len() as u64,
        plain_reports[0].read_count() + plain_reports[1].read_count()
    );
    assert_eq!(
        tally.app_msgs,
        plain_reports
            .iter()
            .map(|r| r.total_application_messages())
            .sum::<u64>()
    );
    assert!(tally.replica_events > 0);
    assert_eq!(
        day1.tally().yielded,
        plain_reports[0].read_count() + plain_reports[0].write_count()
    );
    assert_eq!(
        day1.tally().windows.iter().sum::<u64>(),
        day1.tally().yielded
    );
}

/// A 2× slowdown of the cluster backend, seeded through its decorator,
/// pushes `read_p50_ms` of a feed-reading client past its bound.
#[test]
fn doubled_backend_time_breaks_the_read_latency_bound() {
    let config = |tag: &str| LiveConfig {
        users: 300,
        clients: 1,
        reads_only: true,
        preload_events: 3,
        seed: 3,
        dir: scratch(tag),
    };
    let p50 = |slowdown: Slowdown, tag: String| -> f64 {
        let config = config(&tag);
        let stack = live::setup(&config, Instant::now(), live::spawn_traced(slowdown)).unwrap();
        let run = stack.measure(&config, 0.6).unwrap();
        let acked = run.acked.clone();
        let (check, _) = stack.finish(&config, &acked, false).unwrap();
        assert!(check.passed, "{check:?}");
        assert_eq!(run.failed, 0);
        run.read.p50_ms.unwrap()
    };
    // Alternate the two sides and compare medians, so one disturbed run
    // decides nothing.
    let mut base = Vec::new();
    let mut slow = Vec::new();
    for i in 0..3 {
        base.push(p50(Slowdown::None, format!("base{i}")));
        slow.push(p50(Slowdown::Double, format!("slow{i}")));
    }
    base.sort_by(f64::total_cmp);
    slow.sort_by(f64::total_cmp);
    let worse = slow[1] / base[1] - 1.0;
    let limit = bound("read_p50_ms");
    assert!(
        worse > limit,
        "read_p50_ms worsened by {worse:.3} (bound {limit}): base {base:?}, slowed {slow:?}"
    );
}

/// A 2× slowdown of the placement engine, seeded through its decorator,
/// pushes the simulator's `ops_per_s` past its bound.
#[test]
fn doubled_engine_time_breaks_the_throughput_bound() {
    let graph = SocialGraph::generate(GraphPreset::TwitterLike, 3_000, 9).unwrap();
    let topology = Topology::paper_tree().unwrap();
    let ops = |slowdown| -> f64 {
        let engine = TimedEngine::new(build_engine(&graph, &topology, 9).unwrap(), slowdown);
        let mut sim = Simulation::new(topology.clone(), engine, &graph);
        sim.run(SyntheticTraceGenerator::paper_defaults(&graph, 1, 1).unwrap())
            .unwrap();
        let start = Instant::now();
        let report = sim
            .run(SyntheticTraceGenerator::paper_defaults(&graph, 2, 2).unwrap())
            .unwrap();
        (report.read_count() + report.write_count()) as f64 / start.elapsed().as_secs_f64()
    };
    let mut base = Vec::new();
    let mut slow = Vec::new();
    for _ in 0..3 {
        base.push(ops(Slowdown::None));
        slow.push(ops(Slowdown::Double));
    }
    base.sort_by(f64::total_cmp);
    slow.sort_by(f64::total_cmp);
    let worse = 1.0 - slow[1] / base[1];
    let limit = bound("ops_per_s");
    assert!(
        worse > limit,
        "ops_per_s worsened by {worse:.3} (bound {limit}): base {base:?}, slowed {slow:?}"
    );
}

fn traced_run(workload: Workload, users: usize, tag: &str) -> perfbench::Outcome {
    let mut opts = Options::new(workload, 11, 2.0, true);
    opts.users = users;
    opts.setups = 2;
    opts.work_dir = scratch(tag);
    let out = run(&opts, Instant::now()).unwrap();
    for check in &out.checks {
        assert!(check.passed, "{check:?}");
    }
    out
}

/// Two same-seed runs repeat every exact count.
#[test]
fn exact_counts_repeat_for_a_seed() {
    for (workload, users) in [(Workload::SimDay, 2_000), (Workload::LiveFeed, 400)] {
        let a = traced_run(workload, users, "exact-a");
        let b = traced_run(workload, users, "exact-b");
        let counts = |o: &perfbench::Outcome| -> Vec<(String, f64)> {
            o.metrics
                .0
                .iter()
                .filter(|m| m.name.starts_with("count."))
                .map(|m| (m.name.clone(), m.value))
                .collect()
        };
        assert!(!counts(&a).is_empty());
        assert!(counts(&a).iter().any(|(_, v)| *v > 0.0), "{workload:?}");
        assert_eq!(counts(&a), counts(&b), "{workload:?}");
    }
}

/// A traced run reports every per-layer metric, and on the live stack its
/// self times and lock wait add up to the clients' time.
#[test]
fn traced_live_run_accounts_for_the_wall_time() {
    let out = traced_run(Workload::LiveMixed, 400, "account");
    let reported = out.reported(true);
    assert_eq!(reported.0.len(), LAYER_METRICS.len());
    let share = |n: &str| out.metrics.get(n).unwrap();
    let sum = share("client.self_share")
        + share("serve.lock_wait_share")
        + share("serve.stage_share")
        + share("serve.self_share")
        + share("store.cluster.self_share")
        + share("store.persistent.append_share")
        + share("store.persistent.fetch_share");
    assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
    assert!(share("store.cluster.write_us.n") > 0.0);
}
