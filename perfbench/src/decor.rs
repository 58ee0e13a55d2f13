//! Timing decorators around the public seams of the workspace crates.
//!
//! Each decorator forwards every call unchanged and records how long the
//! wrapped layer took, so the per-layer numbers are measured from outside
//! the program. None of them alters what it forwards: a decorated run
//! produces the same outputs as a plain one (see the passivity test).
//!
//! A decorator can also be told to [`Slowdown::Double`] its layer's time,
//! by spinning for as long as the call took. The benchmark's tests use this
//! to show that a real slowdown in one layer moves an end-to-end metric
//! past its bound.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use dynasore_serve::{
    backend_status, Backend, Middleware, RequestEnvelope, RequestOp, ResponseBody,
    ResponseEnvelope, StageError,
};
use dynasore_sim::{ClusterEvent, MemoryUsage, Message, PlacementEngine, TrafficSink};
use dynasore_store::{Cluster, PersistentStore};
use dynasore_types::{
    GraphMutation, Latency, MessageClass, Result, SimTime, SubtreeId, TraceEventKind, UserId, View,
};
use dynasore_workload::Request;

/// Whether a decorator doubles the time of the layer it wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Slowdown {
    /// Forward only (every benchmark run).
    #[default]
    None,
    /// Spin for as long as each wrapped call took.
    Double,
}

impl Slowdown {
    /// Applies the slowdown to a call that started at `start`.
    fn apply(self, start: Instant) {
        if self == Slowdown::Double {
            let took = start.elapsed();
            let until = Instant::now() + took;
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Total time and call count of one span family, shared between threads.
#[derive(Debug, Default)]
pub struct Span {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Span {
    /// Adds one call of `ns` nanoseconds.
    pub fn add(&self, ns: u64) {
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Total nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Forgets every call recorded so far.
    pub fn reset(&self) {
        self.ns.store(0, Ordering::Relaxed);
        self.calls.store(0, Ordering::Relaxed);
    }

    /// Number of calls.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// A [`Span`] that also keeps every call's duration, for percentiles.
#[derive(Debug, Default)]
pub struct SpanLog {
    span: Span,
    samples: Mutex<Vec<u64>>,
}

impl SpanLog {
    /// Adds one call of `ns` nanoseconds.
    pub fn add(&self, ns: u64) {
        self.span.add(ns);
        self.samples.lock().push(ns);
    }

    /// Total nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.span.ns()
    }

    /// Number of calls.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.span.calls()
    }

    /// Forgets every call recorded so far.
    pub fn reset(&self) {
        self.span.reset();
        self.samples.lock().clear();
    }

    /// Every call's duration in nanoseconds, ascending.
    #[must_use]
    pub fn sorted(&self) -> Vec<u64> {
        let mut samples = self.samples.lock().clone();
        samples.sort_unstable();
        samples
    }
}

// ---------------------------------------------------------------- serve --

/// Wraps one pipeline stage and times both of its hooks.
pub struct TimedStage {
    inner: Box<dyn Middleware>,
    span: Arc<Span>,
}

impl TimedStage {
    /// Times `inner` into `span`.
    #[must_use]
    pub fn new(inner: Box<dyn Middleware>, span: Arc<Span>) -> Self {
        TimedStage { inner, span }
    }
}

impl Middleware for TimedStage {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_request(&mut self, req: &mut RequestEnvelope) -> std::result::Result<(), StageError> {
        let start = Instant::now();
        let result = self.inner.on_request(req);
        self.span.add(nanos(start.elapsed()));
        result
    }

    fn on_response(&mut self, req: &RequestEnvelope, resp: &mut ResponseEnvelope) {
        let start = Instant::now();
        self.inner.on_response(req, resp);
        self.span.add(nanos(start.elapsed()));
    }
}

/// Spans of the cluster backend, by operation.
#[derive(Debug, Default)]
pub struct BackendSpans {
    /// `Cluster::read_feed` calls.
    pub read_feed: SpanLog,
    /// `Cluster::write` calls.
    pub write: SpanLog,
    /// `Cluster::read` calls.
    pub read: SpanLog,
}

/// The pipeline's backend over a shared [`Cluster`], timed per operation.
/// It serves a request exactly as the loopback server's own backend does.
pub struct TimedBackend {
    cluster: Arc<RwLock<Cluster>>,
    spans: Arc<BackendSpans>,
    slowdown: Slowdown,
}

impl TimedBackend {
    /// A backend over `cluster`, timed into `spans`.
    #[must_use]
    pub fn new(
        cluster: Arc<RwLock<Cluster>>,
        spans: Arc<BackendSpans>,
        slowdown: Slowdown,
    ) -> Self {
        TimedBackend {
            cluster,
            spans,
            slowdown,
        }
    }
}

impl Backend for TimedBackend {
    fn handle(&self, req: &RequestEnvelope) -> ResponseEnvelope {
        let start = Instant::now();
        let result = {
            let cluster = self.cluster.read();
            match &req.op {
                RequestOp::Write { payload } => cluster
                    .write(req.user, payload.clone())
                    .map(|()| ResponseBody::Empty),
                RequestOp::Read { targets } => {
                    cluster.read(req.user, targets).map(ResponseBody::Views)
                }
                RequestOp::ReadFeed => cluster.read_feed(req.user).map(ResponseBody::Feed),
            }
        };
        let resp = match result {
            Ok(body) => ResponseEnvelope::ok(body),
            Err(err) => ResponseEnvelope::rejected(backend_status(&err), err.to_string()),
        };
        self.slowdown.apply(start);
        let ns = nanos(start.elapsed());
        match req.op {
            RequestOp::Write { .. } => self.spans.write.add(ns),
            RequestOp::Read { .. } => self.spans.read.add(ns),
            RequestOp::ReadFeed => self.spans.read_feed.add(ns),
        }
        resp
    }
}

// ---------------------------------------------------------------- store --

/// Spans of the durable tier.
#[derive(Debug, Default)]
pub struct StoreSpans {
    /// `PersistentStore::append` calls.
    pub append: SpanLog,
    /// `PersistentStore::fetch` calls.
    pub fetch: SpanLog,
}

/// A [`PersistentStore`] that times `append` and `fetch` of the store it
/// wraps and forwards everything else.
#[derive(Debug)]
pub struct TimedStore<S> {
    inner: Arc<S>,
    spans: Arc<StoreSpans>,
}

impl<S> TimedStore<S> {
    /// Times `inner` into `spans`.
    #[must_use]
    pub fn new(inner: Arc<S>, spans: Arc<StoreSpans>) -> Self {
        TimedStore { inner, spans }
    }
}

impl<S: PersistentStore> PersistentStore for TimedStore<S> {
    fn append(&self, user: UserId, payload: Vec<u8>) -> Result<View> {
        let start = Instant::now();
        let result = self.inner.append(user, payload);
        self.spans.append.add(nanos(start.elapsed()));
        result
    }

    fn fetch(&self, user: UserId) -> Result<View> {
        let start = Instant::now();
        let result = self.inner.fetch(user);
        self.spans.fetch.add(nanos(start.elapsed()));
        result
    }

    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }

    fn write_count(&self) -> u64 {
        self.inner.write_count()
    }

    fn read_count(&self) -> u64 {
        self.inner.read_count()
    }
}

// ----------------------------------------------------------------- core --

/// What the engine decorator saw, for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineTally {
    /// Duration of every `handle_read`, its sink calls excluded (ns).
    pub read_samples: Vec<u64>,
    /// Engine time in `handle_read`, sink calls excluded (ns).
    pub read_ns: u64,
    /// Engine time in `handle_write` and `handle_write_batch` (ns).
    pub write_ns: u64,
    /// Engine time in `on_tick` (ns).
    pub tick_ns: u64,
    /// Engine time in every other trait method (ns).
    pub other_ns: u64,
    /// Time spent inside the simulator's sink, reached through the
    /// engine (ns).
    pub sink_ns: u64,
    /// Application messages the engine emitted.
    pub app_msgs: u64,
    /// Protocol messages the engine emitted.
    pub protocol_msgs: u64,
    /// `ReplicaCreated`, `ReplicaDropped` and `ReplicaMoved` trace events.
    pub replica_events: u64,
}

/// Times every call of the sink it wraps and counts what passes through.
pub struct TimedSink<'a, S: ?Sized> {
    inner: &'a mut S,
    ns: u64,
    app_msgs: u64,
    protocol_msgs: u64,
    replica_events: u64,
}

impl<'a, S: ?Sized + TrafficSink> TimedSink<'a, S> {
    fn new(inner: &'a mut S) -> Self {
        TimedSink {
            inner,
            ns: 0,
            app_msgs: 0,
            protocol_msgs: 0,
            replica_events: 0,
        }
    }

    fn fold_into(&self, tally: &mut EngineTally) {
        tally.sink_ns += self.ns;
        tally.app_msgs += self.app_msgs;
        tally.protocol_msgs += self.protocol_msgs;
        tally.replica_events += self.replica_events;
    }
}

impl<S: ?Sized + TrafficSink> TrafficSink for TimedSink<'_, S> {
    fn record(&mut self, message: Message) {
        match message.class {
            MessageClass::Application => self.app_msgs += 1,
            MessageClass::Protocol => self.protocol_msgs += 1,
        }
        let start = Instant::now();
        self.inner.record(message);
        self.ns += nanos(start.elapsed());
    }

    fn congestion(&self, subtree: SubtreeId) -> Latency {
        // `&self`: the time of this call cannot be added here. Congestion
        // reads are rare and cheap next to `record`, so they count as
        // engine time.
        self.inner.congestion(subtree)
    }

    fn trace(&mut self, event: TraceEventKind) {
        if matches!(
            event,
            TraceEventKind::ReplicaCreated { .. }
                | TraceEventKind::ReplicaDropped { .. }
                | TraceEventKind::ReplicaMoved { .. }
        ) {
            self.replica_events += 1;
        }
        let start = Instant::now();
        self.inner.trace(event);
        self.ns += nanos(start.elapsed());
    }

    fn set_time(&mut self, time: SimTime) {
        let start = Instant::now();
        self.inner.set_time(time);
        self.ns += nanos(start.elapsed());
    }
}

/// A [`PlacementEngine`] that forwards every trait method to `inner`,
/// timing each call and wrapping the simulator's sink in a [`TimedSink`].
pub struct TimedEngine<E> {
    inner: E,
    tally: EngineTally,
    slowdown: Slowdown,
}

impl<E> TimedEngine<E> {
    /// Times `inner`.
    #[must_use]
    pub fn new(inner: E, slowdown: Slowdown) -> Self {
        TimedEngine {
            inner,
            tally: EngineTally::default(),
            slowdown,
        }
    }

    /// Takes what was seen since the last call.
    pub fn take_tally(&mut self) -> EngineTally {
        std::mem::take(&mut self.tally)
    }

    /// What was seen since the last [`TimedEngine::take_tally`].
    #[must_use]
    pub fn tally(&self) -> &EngineTally {
        &self.tally
    }
}

/// Runs `call` with a timed view of `out`; returns the engine's own time
/// (the call minus its sink calls).
fn timed_call(
    tally: &mut EngineTally,
    slowdown: Slowdown,
    out: &mut dyn TrafficSink,
    call: impl FnOnce(&mut dyn TrafficSink),
) -> u64 {
    let mut sink = TimedSink::new(out);
    let start = Instant::now();
    call(&mut sink);
    slowdown.apply(start);
    let total = nanos(start.elapsed());
    sink.fold_into(tally);
    total.saturating_sub(sink.ns)
}

impl<E: PlacementEngine> PlacementEngine for TimedEngine<E> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn handle_read(
        &mut self,
        user: UserId,
        targets: &[UserId],
        time: SimTime,
        out: &mut dyn TrafficSink,
    ) {
        let inner = &mut self.inner;
        let own = timed_call(&mut self.tally, self.slowdown, out, |sink| {
            inner.handle_read(user, targets, time, sink);
        });
        self.tally.read_ns += own;
        self.tally.read_samples.push(own);
    }

    fn handle_write(&mut self, user: UserId, time: SimTime, out: &mut dyn TrafficSink) {
        let inner = &mut self.inner;
        let own = timed_call(&mut self.tally, self.slowdown, out, |sink| {
            inner.handle_write(user, time, sink);
        });
        self.tally.write_ns += own;
    }

    fn handle_write_batch(
        &mut self,
        writes: &[(UserId, SimTime)],
        sinks: &mut [&mut (dyn TrafficSink + Send)],
    ) -> bool {
        let mut timed: Vec<TimedSink<'_, dyn TrafficSink + Send>> =
            sinks.iter_mut().map(|s| TimedSink::new(&mut **s)).collect();
        let mut slots: Vec<&mut (dyn TrafficSink + Send)> = timed
            .iter_mut()
            .map(|s| s as &mut (dyn TrafficSink + Send))
            .collect();
        let start = Instant::now();
        let accepted = self.inner.handle_write_batch(writes, &mut slots);
        self.slowdown.apply(start);
        let total = nanos(start.elapsed());
        drop(slots);
        let mut sink_ns = 0;
        for sink in &timed {
            sink.fold_into(&mut self.tally);
            sink_ns += sink.ns;
        }
        // Workers run in parallel, so their summed sink time may exceed
        // the batch's wall time; the engine's share then reads as 0.
        self.tally.write_ns += total.saturating_sub(sink_ns);
        accepted
    }

    fn on_tick(&mut self, time: SimTime, out: &mut dyn TrafficSink) {
        let inner = &mut self.inner;
        let own = timed_call(&mut self.tally, self.slowdown, out, |sink| {
            inner.on_tick(time, sink);
        });
        self.tally.tick_ns += own;
    }

    fn on_graph_change(
        &mut self,
        mutation: GraphMutation,
        time: SimTime,
        out: &mut dyn TrafficSink,
    ) {
        let inner = &mut self.inner;
        let own = timed_call(&mut self.tally, self.slowdown, out, |sink| {
            inner.on_graph_change(mutation, time, sink);
        });
        self.tally.other_ns += own;
    }

    fn on_cluster_change(&mut self, event: ClusterEvent, time: SimTime, out: &mut dyn TrafficSink) {
        let inner = &mut self.inner;
        let own = timed_call(&mut self.tally, self.slowdown, out, |sink| {
            inner.on_cluster_change(event, time, sink);
        });
        self.tally.other_ns += own;
    }

    fn unreachable_reads(&self) -> u64 {
        self.inner.unreachable_reads()
    }

    fn replica_count(&self, user: UserId) -> usize {
        self.inner.replica_count(user)
    }

    fn memory_usage(&self) -> MemoryUsage {
        self.inner.memory_usage()
    }
}

// ------------------------------------------------------------- workload --

/// What the trace decorator saw, for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceTally {
    /// Requests handed to the simulator.
    pub yielded: u64,
    /// Reads among them.
    pub reads: u64,
    /// Time inside the generator's `next` (ns).
    pub gen_ns: u64,
    /// For each read, the time from handing it out to the simulator asking
    /// for the next request: the simulator's service time of that read.
    pub read_samples: Vec<u64>,
    /// The same for writes.
    pub write_samples: Vec<u64>,
    /// Requests handed out in each window of the phase (see
    /// [`TimedTrace::with_windows`]).
    pub windows: Vec<u64>,
}

/// An iterator over a request trace that times the generator, measures the
/// simulator's service time of each request, and can stop at a deadline.
pub struct TimedTrace<I> {
    inner: I,
    deadline: Option<Instant>,
    /// Start and width of the windows requests are counted in.
    windows: Option<(Instant, Duration)>,
    tally: TraceTally,
    /// The request last handed out, and when.
    last: Option<(bool, Instant)>,
}

impl<I: Iterator<Item = Request>> TimedTrace<I> {
    /// Wraps `inner`; with a `deadline`, the trace ends once it has passed.
    #[must_use]
    pub fn new(inner: I, deadline: Option<Instant>) -> Self {
        TimedTrace {
            inner,
            deadline,
            windows: None,
            tally: TraceTally::default(),
            last: None,
        }
    }

    /// Also counts the requests handed out in each `width`-wide window
    /// since `start`.
    #[must_use]
    pub fn with_windows(mut self, start: Instant, width: Duration) -> Self {
        self.windows = Some((start, width));
        self
    }

    /// What was seen so far.
    #[must_use]
    pub fn tally(&self) -> &TraceTally {
        &self.tally
    }
}

impl<I: Iterator<Item = Request>> Iterator for TimedTrace<I> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let entered = Instant::now();
        if let Some((is_read, handed_out)) = self.last.take() {
            let served = nanos(entered - handed_out);
            if is_read {
                self.tally.read_samples.push(served);
            } else {
                self.tally.write_samples.push(served);
            }
        }
        if self.deadline.is_some_and(|d| entered >= d) {
            return None;
        }
        let request = self.inner.next()?;
        let left = Instant::now();
        self.tally.gen_ns += nanos(left - entered);
        self.tally.yielded += 1;
        if let Some((start, width)) = self.windows {
            let w = ((left - start).as_nanos() / width.as_nanos()) as usize;
            if self.tally.windows.len() <= w {
                self.tally.windows.resize(w + 1, 0);
            }
            self.tally.windows[w] += 1;
        }
        if request.is_read() {
            self.tally.reads += 1;
        }
        self.last = Some((request.is_read(), left));
        Some(request)
    }
}
