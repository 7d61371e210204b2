//! Timing decorators for the two public seams a request crosses: the
//! model's SPARQL [`Endpoint`] and the cluster edge's [`ShardService`].
//!
//! Both wrappers pass every call and every result through untouched. They
//! time a call only while the calling thread is inside a traced request
//! (see [`Request`]), so an untraced run pays one thread-local read per
//! call. A timed call adds its duration to the enclosing request's child
//! time and keeps the raw sample on the wrapper.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sapphire_core::qcm::CompletionResult;
use sapphire_endpoint::{Endpoint, EndpointError, LocalEndpoint};
use sapphire_server::{RunPayload, ServerError, ShardService, TransportStats};
use sapphire_sparql::{Query, QueryResult, SelectQuery};

thread_local! {
    static TRACED: Cell<bool> = const { Cell::new(false) };
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

/// A traced request on the current thread: seam calls made until
/// [`Request::finish`] are timed and charged to it as child spans.
pub struct Request {
    started: Instant,
}

impl Request {
    /// Open a traced request span on this thread.
    pub fn begin() -> Self {
        TRACED.with(|t| t.set(true));
        CHILD_NS.with(|c| c.set(0));
        Request {
            started: Instant::now(),
        }
    }

    /// Close the span: `(span_ns, child_ns)`.
    pub fn finish(self) -> (u64, u64) {
        let span = self.started.elapsed().as_nanos() as u64;
        TRACED.with(|t| t.set(false));
        (span, CHILD_NS.with(Cell::get))
    }
}

impl Drop for Request {
    fn drop(&mut self) {
        TRACED.with(|t| t.set(false));
    }
}

/// Time `f` if `always` is set or the thread is inside a traced request.
fn timed<T>(samples: &Mutex<Vec<u64>>, always: bool, f: impl FnOnce() -> T) -> T {
    if !always && !TRACED.with(Cell::get) {
        return f();
    }
    let started = Instant::now();
    let out = f();
    let ns = started.elapsed().as_nanos() as u64;
    CHILD_NS.with(|c| c.set(c.get() + ns));
    samples
        .lock()
        .expect("span sample lock: pushes never panic")
        .push(ns);
    out
}

/// An [`Endpoint`] that times each query against a [`LocalEndpoint`].
pub struct TimingEndpoint {
    inner: Arc<LocalEndpoint>,
    spans: Mutex<Vec<u64>>,
}

impl TimingEndpoint {
    /// Wrap `inner`.
    pub fn new(inner: Arc<LocalEndpoint>) -> Self {
        TimingEndpoint {
            inner,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The wrapped endpoint (for its work counters).
    pub fn local(&self) -> &LocalEndpoint {
        &self.inner
    }

    /// Take the timed query durations recorded so far (ns).
    pub fn take_spans(&self) -> Vec<u64> {
        std::mem::take(&mut *self.spans.lock().expect("span sample lock"))
    }
}

impl Endpoint for TimingEndpoint {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute_parsed(&self, query: &Query) -> Result<QueryResult, EndpointError> {
        timed(&self.spans, false, || self.inner.execute_parsed(query))
    }
}

/// A [`ShardService`] that times each edge-to-replica call. The edge runs
/// scatter calls on executor threads, outside any traced request, so a
/// shard wrapper times every call once [`TimingShard::record`] is on.
pub struct TimingShard {
    inner: Arc<dyn ShardService>,
    spans: Mutex<Vec<u64>>,
    calls: AtomicU64,
    record: AtomicBool,
}

impl TimingShard {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn ShardService>) -> Self {
        TimingShard {
            inner,
            spans: Mutex::new(Vec::new()),
            calls: AtomicU64::new(0),
            record: AtomicBool::new(false),
        }
    }

    /// Turn span recording on or off.
    pub fn record(&self, on: bool) {
        self.record.store(on, Ordering::Relaxed);
    }

    /// Take the timed call durations recorded so far (ns).
    pub fn take_spans(&self) -> Vec<u64> {
        std::mem::take(&mut *self.spans.lock().expect("span sample lock"))
    }

    /// Calls made through the wrapper, traced or not.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn call<T>(&self, f: impl FnOnce() -> T) -> T {
        self.calls.fetch_add(1, Ordering::Relaxed);
        timed(&self.spans, self.record.load(Ordering::Relaxed), f)
    }
}

impl ShardService for TimingShard {
    fn shard_name(&self) -> String {
        self.inner.shard_name()
    }

    fn top_k(&self) -> usize {
        self.inner.top_k()
    }

    fn complete_top(
        &self,
        tenant: &str,
        typed: &str,
        k: usize,
    ) -> Result<CompletionResult, ServerError> {
        self.call(|| self.inner.complete_top(tenant, typed, k))
    }

    fn run_select_tiered(
        &self,
        tenant: &str,
        query: &SelectQuery,
        tier: usize,
        budget: Option<Duration>,
    ) -> Result<Arc<RunPayload>, ServerError> {
        self.call(|| self.inner.run_select_tiered(tenant, query, tier, budget))
    }

    fn execute_raw(&self, tenant: &str, query: &Query) -> Result<QueryResult, ServerError> {
        self.call(|| self.inner.execute_raw(tenant, query))
    }

    fn admission_load(&self) -> (usize, usize) {
        self.inner.admission_load()
    }

    fn shed_pressure_tier(&self) -> usize {
        self.inner.shed_pressure_tier()
    }

    fn transport(&self) -> &'static str {
        self.inner.transport()
    }

    fn transport_stats(&self) -> TransportStats {
        self.inner.transport_stats()
    }
}
