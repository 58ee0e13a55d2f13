//! The live workloads: closed-loop clients against the serving front-end
//! over a `ShardedLogStore` in a scratch directory, on the paper tree.
//!
//! Set-up generates the graph, preloads a few 140-byte events per user
//! straight into the durable tier, spawns the server and warms the caches
//! with one `read_feed` per user. The timed part then replays the trace's
//! requests from closed-loop client threads until the time is up. After a
//! graceful shutdown, a cold reopen of the durable tier must hold every
//! acknowledged write.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use dynasore_core::InitialPlacement;
use dynasore_graph::{GraphPreset, SocialGraph};
use dynasore_serve::{
    AdmissionControl, FlowBudgetStage, LoopbackServer, PipelineExecutor, RequestEnvelope,
    ResponseBody, ResponseEnvelope, ServeConfig, TracingStage,
};
use dynasore_store::{
    Cluster, PersistentStore, ShardedConfig, ShardedLogStore, StoreConfig, StoreObs, StoreStats,
};
use dynasore_topology::Topology;
use dynasore_types::{Error, Result, StatusCode, UserId};
use dynasore_workload::SyntheticTraceGenerator;

use crate::decor::{
    BackendSpans, Slowdown, Span, StoreSpans, TimedBackend, TimedStage, TimedStore,
};
use crate::stats::{ns_to_us, percentile, ratio, LatencySummary, Metrics, WINDOW};
use crate::{Check, SetupTimes};

/// Size of every event payload, in bytes (the paper's 140-character
/// micro-blog).
pub const PAYLOAD_BYTES: usize = 140;

/// Requests after which a one-client run snapshots the store's counters.
/// Those counts repeat exactly for a seed.
pub const PREFIX_REQUESTS: u64 = 500;

/// Days of trace a live run draws from; far more than a run can use.
const TRACE_DAYS: u64 = 1_000;

/// Shape of a live workload.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Users in the social graph.
    pub users: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Send only the trace's reads (`live_feed`), or reads and writes
    /// interleaved as generated (`live_mixed`).
    pub reads_only: bool,
    /// Events preloaded per user into the durable tier.
    pub preload_events: u32,
    /// Seed of the graph, the trace and the placement.
    pub seed: u64,
    /// Scratch directory for the durable tier (created and removed here).
    pub dir: PathBuf,
}

/// The served surface the clients call: the loopback server itself, or
/// the traced composition of the same pipeline.
pub trait Front: Sync {
    /// Serves one envelope.
    fn handle(&self, req: RequestEnvelope) -> ResponseEnvelope;
    /// Counters of the backing cluster.
    fn store_stats(&self) -> StoreStats;
    /// Graceful shutdown: drain, then flush and sync the durable tier.
    ///
    /// # Errors
    ///
    /// I/O errors from the durable tier.
    fn shutdown(&self) -> Result<()>;
}

impl Front for LoopbackServer {
    fn handle(&self, req: RequestEnvelope) -> ResponseEnvelope {
        LoopbackServer::handle(self, req)
    }
    fn store_stats(&self) -> StoreStats {
        LoopbackServer::store_stats(self)
    }
    fn shutdown(&self) -> Result<()> {
        LoopbackServer::shutdown(self)
    }
}

/// Every span of the traced live stack.
#[derive(Debug, Default)]
pub struct LiveSpans {
    /// Whole `handle` calls.
    pub envelope: Span,
    /// Waiting for the pipeline mutex.
    pub lock_wait: Span,
    /// The tracing stage.
    pub tracing: Arc<Span>,
    /// The admission stage.
    pub admission: Arc<Span>,
    /// The flow-budget stage.
    pub flow_budget: Arc<Span>,
    /// The cluster backend, per operation.
    pub backend: Arc<BackendSpans>,
    /// The durable tier.
    pub store: Arc<StoreSpans>,
    /// Envelopes answered with another status than `ok`.
    pub rejected: AtomicU64,
}

/// The loopback server's pipeline composed from public parts — the same
/// stages in the same order over the same cluster, behind one mutex — with
/// each stage, the backend and the durable tier wrapped in a timing
/// decorator.
pub struct TracedFront {
    cluster: Arc<RwLock<Cluster>>,
    pipeline: Mutex<PipelineExecutor<TimedBackend>>,
    ready: AtomicBool,
    inflight: Arc<AtomicU64>,
    spans: Arc<LiveSpans>,
}

impl TracedFront {
    /// Spawns the cluster over `store` (timed) and fronts it with the
    /// timed pipeline.
    ///
    /// # Errors
    ///
    /// Engine build errors.
    pub fn spawn(
        graph: &SocialGraph,
        topology: Topology,
        config: StoreConfig,
        store: Arc<ShardedLogStore>,
        slowdown: Slowdown,
    ) -> Result<Self> {
        let spans = Arc::new(LiveSpans::default());
        let timed_store = TimedStore::new(store, Arc::clone(&spans.store));
        let mut cluster =
            Cluster::spawn_with_store(graph, topology, config, Arc::new(timed_store))?;
        let obs = StoreObs::default();
        cluster.set_observer(obs.clone());
        let cluster = Arc::new(RwLock::new(cluster));
        let inflight = Arc::new(AtomicU64::new(0));
        let serve = ServeConfig::default();
        let backend = TimedBackend::new(Arc::clone(&cluster), Arc::clone(&spans.backend), slowdown);
        let pipeline = PipelineExecutor::new(backend)
            .with_stage(Box::new(TimedStage::new(
                Box::new(TracingStage::new(obs)),
                Arc::clone(&spans.tracing),
            )))
            .with_stage(Box::new(TimedStage::new(
                Box::new(AdmissionControl::new(
                    Box::new(Arc::clone(&inflight)),
                    serve.max_inflight,
                )),
                Arc::clone(&spans.admission),
            )))
            .with_stage(Box::new(TimedStage::new(
                Box::new(FlowBudgetStage::new(serve.default_flow_limit)),
                Arc::clone(&spans.flow_budget),
            )));
        Ok(TracedFront {
            cluster,
            pipeline: Mutex::new(pipeline),
            ready: AtomicBool::new(true),
            inflight,
            spans,
        })
    }

    /// The spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &LiveSpans {
        &self.spans
    }

    /// Forgets every span recorded so far (the warm-up's).
    pub fn reset_spans(&self) {
        let s = &self.spans;
        for span in [
            &s.envelope,
            &s.lock_wait,
            &*s.tracing,
            &*s.admission,
            &*s.flow_budget,
        ] {
            span.reset();
        }
        for log in [
            &s.backend.read_feed,
            &s.backend.write,
            &s.backend.read,
            &s.store.append,
            &s.store.fetch,
        ] {
            log.reset();
        }
        s.rejected.store(0, Ordering::Relaxed);
    }
}

impl Front for TracedFront {
    fn handle(&self, req: RequestEnvelope) -> ResponseEnvelope {
        let start = Instant::now();
        self.inflight.fetch_add(1, Ordering::SeqCst);
        let resp = if self.ready.load(Ordering::SeqCst) {
            let waiting = Instant::now();
            let mut pipeline = self.pipeline.lock();
            self.spans
                .lock_wait
                .add(u64::try_from(waiting.elapsed().as_nanos()).unwrap_or(u64::MAX));
            pipeline.execute(req)
        } else {
            ResponseEnvelope::rejected(StatusCode::Unavailable, "server is draining")
        };
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        if !resp.is_success() {
            self.spans.rejected.fetch_add(1, Ordering::Relaxed);
        }
        self.spans
            .envelope
            .add(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        resp
    }

    fn store_stats(&self) -> StoreStats {
        self.cluster.read().stats()
    }

    fn shutdown(&self) -> Result<()> {
        self.ready.store(false, Ordering::SeqCst);
        while self.inflight.load(Ordering::SeqCst) > 0 {
            std::thread::yield_now();
        }
        self.cluster.write().shutdown()
    }
}

/// A set-up live stack, ready for timed requests.
pub struct Stack<F> {
    front: F,
    graph: SocialGraph,
    store: Arc<ShardedLogStore>,
    dir: PathBuf,
    /// How long each set-up step took.
    pub setup: SetupTimes,
    /// Store counters right after the warm-up (exact for a seed).
    pub warm_stats: StoreStats,
}

fn payload(user: UserId, seq: u64, client: usize) -> Vec<u8> {
    let mut bytes = format!("u{}#{seq}@c{client}:", user.index()).into_bytes();
    bytes.resize(PAYLOAD_BYTES, b'.');
    bytes
}

fn store_config(seed: u64) -> StoreConfig {
    StoreConfig {
        extra_memory_percent: 30,
        placement: InitialPlacement::HierarchicalMetis { seed },
        seed,
    }
}

/// Builds one stack: graph, durable tier with its preload, the front made
/// by `spawn`, and the warm-up pass. `started` is when set-up began.
///
/// # Errors
///
/// Set-up failures, and a warm-up read that is not served.
pub fn setup<F: Front>(
    config: &LiveConfig,
    started: Instant,
    spawn: impl FnOnce(&SocialGraph, StoreConfig, Arc<ShardedLogStore>) -> Result<F>,
) -> Result<Stack<F>> {
    let t = Instant::now();
    let graph = SocialGraph::generate(GraphPreset::TwitterLike, config.users, config.seed)?;
    let graph_s = t.elapsed();

    let t = Instant::now();
    let _ = std::fs::remove_dir_all(&config.dir);
    let store = Arc::new(ShardedLogStore::open(
        &config.dir,
        ShardedConfig::default(),
    )?);
    for user in graph.users() {
        for seq in 0..u64::from(config.preload_events) {
            store.append(user, payload(user, seq, usize::MAX))?;
        }
    }
    let preload_s = t.elapsed();

    let t = Instant::now();
    let front = spawn(&graph, store_config(config.seed), Arc::clone(&store))?;
    let spawn_s = t.elapsed();

    let t = Instant::now();
    for user in graph.users() {
        let resp = front.handle(RequestEnvelope::read_feed(user));
        if !resp.is_success() {
            return Err(Error::invalid_config(format!(
                "warm-up read_feed of user {} returned {}",
                user.index(),
                resp.status
            )));
        }
    }
    let warmup_s = t.elapsed();
    let warm_stats = front.store_stats();
    Ok(Stack {
        front,
        graph,
        store,
        dir: config.dir.clone(),
        setup: SetupTimes {
            total: started.elapsed(),
            graph: graph_s,
            engine_build: Duration::ZERO,
            spawn: spawn_s,
            preload: preload_s,
            warmup: warmup_s,
        },
        warm_stats,
    })
}

/// Spawns the loopback server itself (untraced runs).
///
/// # Errors
///
/// Engine build errors.
pub fn spawn_plain(
    graph: &SocialGraph,
    config: StoreConfig,
    store: Arc<ShardedLogStore>,
) -> Result<LoopbackServer> {
    let store: Arc<dyn PersistentStore> = store;
    LoopbackServer::spawn_with_store(
        graph,
        Topology::paper_tree()?,
        config,
        ServeConfig::default(),
        store,
    )
}

/// Spawns the traced composition of the pipeline.
///
/// # Errors
///
/// Engine build errors.
pub fn spawn_traced(
    slowdown: Slowdown,
) -> impl FnOnce(&SocialGraph, StoreConfig, Arc<ShardedLogStore>) -> Result<TracedFront> {
    move |graph, config, store| {
        TracedFront::spawn(graph, Topology::paper_tree()?, config, store, slowdown)
    }
}

/// What one client thread saw.
#[derive(Debug, Default)]
struct ClientTally {
    read_ns: Vec<u64>,
    write_ns: Vec<u64>,
    /// Acknowledged writes per user index.
    acked: Vec<u64>,
    ok: u64,
    attempted: u64,
    failed: u64,
    violations: u64,
    first_problem: Option<String>,
    /// Wall time of the client's loop.
    busy: Duration,
    /// Requests answered `ok` in each [`WINDOW`] of the phase.
    windows: Vec<u64>,
    /// Store counters after [`PREFIX_REQUESTS`] requests (one client only).
    prefix_stats: Option<StoreStats>,
}

/// The result of one timed phase.
#[derive(Debug)]
pub struct LiveRun {
    /// Wall time from the start of the phase to the last client's return.
    pub elapsed: Duration,
    /// Envelopes sent.
    pub attempted: u64,
    /// Envelopes answered `ok`.
    pub ok: u64,
    /// Envelopes refused or failed, plus read-order violations.
    pub failed: u64,
    /// Reads whose view of some followee was older than one this client
    /// had already seen.
    pub violations: u64,
    /// The first failure or violation, for the report.
    pub first_problem: Option<String>,
    /// Client-side `read_feed` latency.
    pub read: LatencySummary,
    /// Client-side write latency.
    pub write: LatencySummary,
    /// Summed wall time of the client loops.
    pub client_busy: Duration,
    /// Requests answered `ok` in each [`WINDOW`] of the phase, all clients.
    pub windows: Vec<u64>,
    /// Windows that lie wholly inside the phase.
    pub full_windows: usize,
    /// Store counters after [`PREFIX_REQUESTS`] requests (one client only).
    pub prefix_stats: Option<StoreStats>,
    /// Store counter growth over the phase.
    pub stats_delta: StoreStats,
    /// Acknowledged writes per user index.
    pub acked: Vec<u64>,
}

fn delta(after: StoreStats, before: StoreStats) -> StoreStats {
    StoreStats {
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        persistent_writes: after.persistent_writes - before.persistent_writes,
        persistent_reads: after.persistent_reads - before.persistent_reads,
        cached_views: after.cached_views,
        recovery_messages: after.recovery_messages - before.recovery_messages,
    }
}

impl<F: Front> Stack<F> {
    /// The front the clients call.
    pub fn front(&self) -> &F {
        &self.front
    }

    /// Replays the trace from `config.clients` closed-loop clients for
    /// `seconds`.
    ///
    /// # Errors
    ///
    /// Trace generator errors.
    pub fn measure(&self, config: &LiveConfig, seconds: f64) -> Result<LiveRun> {
        let trace = Mutex::new(SyntheticTraceGenerator::paper_defaults(
            &self.graph,
            TRACE_DAYS,
            config.seed,
        )?);
        let users = self.graph.user_count();
        let before = self.front.store_stats();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..config.clients)
                .map(|client| {
                    let trace = &trace;
                    scope.spawn(move || {
                        self.client_loop(client, config, users, trace, start, deadline)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed = start.elapsed();
        let after = self.front.store_stats();

        let mut run = LiveRun {
            elapsed,
            attempted: 0,
            ok: 0,
            failed: 0,
            violations: 0,
            first_problem: None,
            read: LatencySummary::of(&[]),
            write: LatencySummary::of(&[]),
            client_busy: Duration::ZERO,
            windows: Vec::new(),
            full_windows: (seconds / WINDOW.as_secs_f64()) as usize,
            prefix_stats: None,
            stats_delta: delta(after, before),
            acked: vec![0; users],
        };
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for t in tallies {
            run.attempted += t.attempted;
            run.ok += t.ok;
            run.failed += t.failed;
            run.violations += t.violations;
            run.client_busy += t.busy;
            if run.windows.len() < t.windows.len() {
                run.windows.resize(t.windows.len(), 0);
            }
            for (total, n) in run.windows.iter_mut().zip(&t.windows) {
                *total += n;
            }
            if run.first_problem.is_none() {
                run.first_problem = t.first_problem;
            }
            run.prefix_stats = run.prefix_stats.or(t.prefix_stats);
            for (total, n) in run.acked.iter_mut().zip(&t.acked) {
                *total += n;
            }
            reads.push(t.read_ns);
            writes.push(t.write_ns);
        }
        run.read = LatencySummary::of(&reads);
        run.write = LatencySummary::of(&writes);
        Ok(run)
    }

    fn client_loop(
        &self,
        client: usize,
        config: &LiveConfig,
        users: usize,
        trace: &Mutex<SyntheticTraceGenerator>,
        start: Instant,
        deadline: Instant,
    ) -> ClientTally {
        let mut tally = ClientTally {
            acked: vec![0; users],
            ..ClientTally::default()
        };
        // Newest event timestamp (+1) of each author this client has seen
        // in a feed, and the same for the feed at hand.
        let mut seen = vec![0u64; users];
        let mut newest = vec![0u64; users];
        let started = Instant::now();
        while Instant::now() < deadline {
            let request = {
                let mut trace = trace.lock();
                if config.reads_only {
                    trace.find(|r| r.is_read())
                } else {
                    trace.next()
                }
            };
            let Some(request) = request else { break };
            let user = request.user;
            let envelope = if request.is_read() {
                RequestEnvelope::read_feed(user)
            } else {
                RequestEnvelope::write(user, payload(user, tally.attempted, client))
            };
            let sent = Instant::now();
            let resp = self.front.handle(envelope);
            let ns = u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX);
            tally.attempted += 1;
            if resp.is_success() {
                let w = (start.elapsed().as_nanos() / WINDOW.as_nanos()) as usize;
                if tally.windows.len() <= w {
                    tally.windows.resize(w + 1, 0);
                }
                tally.windows[w] += 1;
            }
            if !resp.is_success() {
                tally.failed += 1;
                tally.first_problem.get_or_insert_with(|| {
                    format!(
                        "user {} got {} ({:?})",
                        user.index(),
                        resp.status,
                        resp.detail
                    )
                });
            } else if request.is_read() {
                tally.ok += 1;
                tally.read_ns.push(ns);
                let ResponseBody::Feed(events) = &resp.body else {
                    tally.failed += 1;
                    tally
                        .first_problem
                        .get_or_insert_with(|| format!("read_feed answered {:?}", resp.body));
                    continue;
                };
                for event in events {
                    let slot = &mut newest[event.author().index() as usize];
                    *slot = (*slot).max(event.timestamp().as_secs() + 1);
                }
                let mut violated = false;
                for &followee in self.graph.followees(user) {
                    let i = followee.index() as usize;
                    if newest[i] < seen[i] {
                        violated = true;
                        tally.first_problem.get_or_insert_with(|| {
                            format!(
                                "reader {} saw user {}'s view go back from event time {} to {}",
                                user.index(),
                                followee.index(),
                                seen[i] as i128 - 1,
                                newest[i] as i128 - 1
                            )
                        });
                    }
                    seen[i] = seen[i].max(newest[i]);
                }
                for event in events {
                    newest[event.author().index() as usize] = 0;
                }
                if violated {
                    tally.violations += 1;
                    tally.failed += 1;
                }
            } else {
                tally.ok += 1;
                tally.write_ns.push(ns);
                tally.acked[user.index() as usize] += 1;
            }
            if config.clients == 1 && tally.attempted == PREFIX_REQUESTS {
                tally.prefix_stats = Some(self.front.store_stats());
            }
        }
        tally.busy = started.elapsed();
        tally
    }

    /// Shuts the front down gracefully, reopens the durable tier cold and
    /// checks that it holds every acknowledged write. Returns the check and
    /// the tier's bytes on disk at shutdown.
    ///
    /// # Errors
    ///
    /// Shutdown or reopen failures.
    pub fn finish(
        self,
        config: &LiveConfig,
        acked: &[u64],
        writes_failed: bool,
    ) -> Result<(Check, u64)> {
        self.front.shutdown()?;
        let disk_bytes = self.store.bytes_on_disk();
        let Stack {
            front,
            store,
            dir,
            graph,
            ..
        } = self;
        // Every handle on the tier must be gone before it can be reopened.
        drop(front);
        drop(store);
        let check = durability_check(&dir, &graph, config.preload_events, acked, writes_failed);
        let _ = std::fs::remove_dir_all(&dir);
        Ok((check?, disk_bytes))
    }
}

fn durability_check(
    dir: &Path,
    graph: &SocialGraph,
    preload: u32,
    acked: &[u64],
    writes_failed: bool,
) -> Result<Check> {
    let reopened = ShardedLogStore::open(
        dir,
        ShardedConfig {
            flush_interval: None,
            ..ShardedConfig::default()
        },
    )?;
    let mut bad = 0u64;
    let mut first = None;
    for user in graph.users() {
        let expected = u64::from(preload) + acked[user.index() as usize];
        let version = reopened.fetch(user).version();
        // A write that failed may still have reached the tier.
        let holds = if writes_failed {
            version >= expected
        } else {
            version == expected
        };
        if !holds {
            bad += 1;
            first.get_or_insert_with(|| {
                format!(
                    "user {} reopened at version {version}, expected {expected}",
                    user.index()
                )
            });
        }
    }
    Ok(Check::new(
        "durable: cold reopen holds preload + acknowledged writes",
        bad == 0,
        first.unwrap_or_else(|| format!("{} users checked", graph.user_count())),
    ))
}

/// Per-layer metrics of a traced run.
pub fn layer_metrics(
    spans: &LiveSpans,
    run: &LiveRun,
    metrics: &mut Metrics,
    checks: &mut Vec<Check>,
) {
    let busy = run.client_busy.as_nanos() as f64;
    let share = |ns: u64| ratio(ns as f64, busy);
    let envelopes = spans.envelope.calls() as f64;
    let backend = &spans.backend;
    let backend_ns = backend.read_feed.ns() + backend.write.ns() + backend.read.ns();
    let persistent_ns = spans.store.append.ns() + spans.store.fetch.ns();
    let stages_ns = spans.tracing.ns() + spans.admission.ns() + spans.flow_budget.ns();

    // Self times: each span minus the spans nested in it. A negative self
    // time would mean the spans do not nest, so the account is checked.
    let serve_self = spans.envelope.ns() as i128
        - spans.lock_wait.ns() as i128
        - stages_ns as i128
        - backend_ns as i128;
    let cluster_self = backend_ns as i128 - persistent_ns as i128;
    let client_self = busy as i128 - spans.envelope.ns() as i128;
    checks.push(Check::new(
        "trace: spans nest (every self time is non-negative)",
        serve_self >= 0 && cluster_self >= 0 && client_self >= 0,
        format!("serve.self {serve_self} ns, cluster.self {cluster_self} ns, client.self {client_self} ns"),
    ));
    let clamp = |v: i128| u64::try_from(v.max(0)).unwrap_or(0);

    metrics.set(
        "serve.lock_wait_share",
        share(spans.lock_wait.ns()),
        "share",
    );
    metrics.set(
        "serve.stage.tracing_us",
        ratio(ns_to_us(spans.tracing.ns()), envelopes),
        "us",
    );
    metrics.set(
        "serve.stage.admission_us",
        ratio(ns_to_us(spans.admission.ns()), envelopes),
        "us",
    );
    metrics.set(
        "serve.stage.flow-budget_us",
        ratio(ns_to_us(spans.flow_budget.ns()), envelopes),
        "us",
    );
    metrics.set("serve.stage_share", share(stages_ns), "share");
    metrics.set("serve.self_share", share(clamp(serve_self)), "share");
    metrics.set(
        "serve.rejected",
        spans.rejected.load(Ordering::Relaxed) as f64,
        "count",
    );

    for (name, log) in [
        ("store.cluster.read_feed", &backend.read_feed),
        ("store.cluster.write", &backend.write),
        ("store.persistent.append", &spans.store.append),
    ] {
        let sorted = log.sorted();
        let p = |q| percentile(&sorted, q).map_or(0.0, ns_to_us);
        metrics.set(&format!("{name}_us.p50"), p(0.50), "us");
        metrics.set(&format!("{name}_us.p99"), p(0.99), "us");
        metrics.set(&format!("{name}_us.n"), sorted.len() as f64, "count");
        metrics.set(&format!("{name}_share"), share(log.ns()), "share");
    }
    metrics.set(
        "store.persistent.fetch_share",
        share(spans.store.fetch.ns()),
        "share",
    );
    metrics.set(
        "store.cluster.self_share",
        share(clamp(cluster_self)),
        "share",
    );
    metrics.set(
        "store.persistent.fetches_per_read",
        ratio(
            spans.store.fetch.calls() as f64,
            backend.read_feed.calls() as f64,
        ),
        "ratio",
    );
    let d = run.stats_delta;
    metrics.set(
        "store.cache_hit_ratio",
        ratio(d.cache_hits as f64, (d.cache_hits + d.cache_misses) as f64),
        "ratio",
    );
    metrics.set("client.self_share", share(clamp(client_self)), "share");
}
