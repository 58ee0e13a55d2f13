//! The `sim_day` workload: the paper's own experiment, `Simulation::run`
//! with a `DynaSoReEngine` (hierarchical METIS placement, 30% extra
//! memory) on the paper tree.
//!
//! Set-up covers the graph, the engine build and one warm-up day. The timed
//! part is one whole synthetic day (whose counts repeat exactly for a
//! seed), then further days until the time is up.

use std::time::{Duration, Instant};

use dynasore_core::{DynaSoReEngine, InitialPlacement};
use dynasore_graph::{GraphPreset, SocialGraph};
use dynasore_sim::{PlacementEngine, SimReport, Simulation};
use dynasore_topology::Topology;
use dynasore_types::{MemoryBudget, Result};
use dynasore_workload::SyntheticTraceGenerator;

use crate::decor::{EngineTally, TimedEngine, TimedTrace, TraceTally};
use crate::stats::WINDOW;
use crate::{Check, SetupTimes};

/// Days of trace the open-ended part of a run draws from.
const TRACE_DAYS: u64 = 1_000;

/// Shape of the simulator workload.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Users in the social graph.
    pub users: usize,
    /// Seed of the graph, the traces and the placement.
    pub seed: u64,
}

/// Builds the engine the workload drives.
///
/// # Errors
///
/// Engine build errors.
pub fn build_engine(graph: &SocialGraph, topology: &Topology, seed: u64) -> Result<DynaSoReEngine> {
    DynaSoReEngine::builder()
        .topology(topology.clone())
        .budget(MemoryBudget::with_extra_percent(graph.user_count(), 30))
        .initial_placement(InitialPlacement::HierarchicalMetis { seed })
        .build(graph)
}

/// A set-up simulation, warmed by one day of traffic.
pub struct SimStack<E> {
    /// The simulation.
    pub sim: Simulation<E>,
    /// The graph it simulates.
    pub graph: SocialGraph,
    /// How long each set-up step took.
    pub setup: SetupTimes,
    /// Report of the warm-up day (exact for a seed).
    pub warm_report: SimReport,
}

/// Builds a stack whose engine is `wrap(engine)`. `started` is when set-up
/// began.
///
/// # Errors
///
/// Set-up failures.
pub fn setup<E: PlacementEngine>(
    config: SimConfig,
    started: Instant,
    wrap: impl FnOnce(DynaSoReEngine) -> E,
) -> Result<SimStack<E>> {
    let t = Instant::now();
    let graph = SocialGraph::generate(GraphPreset::TwitterLike, config.users, config.seed)?;
    let graph_s = t.elapsed();

    let t = Instant::now();
    let topology = Topology::paper_tree()?;
    let engine = build_engine(&graph, &topology, config.seed)?;
    let engine_build_s = t.elapsed();

    let t = Instant::now();
    let mut sim = Simulation::new(topology, wrap(engine), &graph);
    let warm_report = sim.run(SyntheticTraceGenerator::paper_defaults(
        &graph,
        1,
        config.seed,
    )?)?;
    let warmup_s = t.elapsed();
    Ok(SimStack {
        sim,
        graph,
        setup: SetupTimes {
            total: started.elapsed(),
            graph: graph_s,
            engine_build: engine_build_s,
            spawn: Duration::ZERO,
            preload: Duration::ZERO,
            warmup: warmup_s,
        },
        warm_report,
    })
}

/// The result of one timed phase.
#[derive(Debug)]
pub struct SimRun {
    /// Wall time inside `Simulation::run`.
    pub elapsed: Duration,
    /// Requests simulated.
    pub requests: u64,
    /// Read targets with no live replica.
    pub unreachable: u64,
    /// Report of the first timed day (exact for a seed).
    pub day_report: SimReport,
    /// What the trace decorator saw, over the whole phase.
    pub trace: TraceTally,
    /// Output checks of the phase.
    pub checks: Vec<Check>,
}

fn count_check(report: &SimReport, tally: &TraceTally, what: &str) -> Check {
    let simulated = report.read_count() + report.write_count();
    Check::new(
        &format!("sim: reads + writes equal the trace length ({what})"),
        simulated == tally.yielded,
        format!(
            "{} reads + {} writes vs {} requests",
            report.read_count(),
            report.write_count(),
            tally.yielded
        ),
    )
}

fn merge(into: &mut TraceTally, from: TraceTally) {
    into.yielded += from.yielded;
    into.reads += from.reads;
    into.gen_ns += from.gen_ns;
    into.read_samples.extend(from.read_samples);
    into.write_samples.extend(from.write_samples);
    if into.windows.len() < from.windows.len() {
        into.windows.resize(from.windows.len(), 0);
    }
    for (total, n) in into.windows.iter_mut().zip(&from.windows) {
        *total += n;
    }
}

impl<E: PlacementEngine> SimStack<E> {
    /// Simulates one whole day, then more days until `seconds` have passed.
    /// `after_day` sees the engine right after the first timed day.
    ///
    /// # Errors
    ///
    /// Simulation errors.
    pub fn measure(
        &mut self,
        config: SimConfig,
        seconds: f64,
        after_day: impl FnOnce(&E),
    ) -> Result<SimRun> {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);

        let day =
            SyntheticTraceGenerator::paper_defaults(&self.graph, 1, config.seed.wrapping_add(1))?;
        let day_length = day.request_count();
        let mut day = TimedTrace::new(day, None).with_windows(start, WINDOW);
        let day_report = self.sim.run(&mut day)?;
        after_day(self.sim.engine());
        let mut checks = vec![
            count_check(&day_report, day.tally(), "first timed day"),
            Check::new(
                "sim: the first timed day is the whole generated day",
                day.tally().yielded == day_length,
                format!("{} of {day_length} requests", day.tally().yielded),
            ),
        ];
        let mut unreachable = day_report.unreachable_reads();
        let mut tally = day.tally().clone();

        if Instant::now() < deadline {
            let rest = SyntheticTraceGenerator::paper_defaults(
                &self.graph,
                TRACE_DAYS,
                config.seed.wrapping_add(2),
            )?;
            let mut rest = TimedTrace::new(rest, Some(deadline)).with_windows(start, WINDOW);
            let report = self.sim.run(&mut rest)?;
            checks.push(count_check(&report, rest.tally(), "following days"));
            unreachable += report.unreachable_reads();
            merge(&mut tally, rest.tally().clone());
        }
        Ok(SimRun {
            elapsed: start.elapsed(),
            requests: tally.yielded,
            unreachable,
            day_report,
            trace: tally,
            checks,
        })
    }
}

impl SimStack<TimedEngine<DynaSoReEngine>> {
    /// Takes the engine decorator's tally (call right before a timed phase
    /// to drop what set-up recorded, and right after it).
    pub fn take_tally(&mut self) -> EngineTally {
        self.sim.engine_mut().take_tally()
    }
}
