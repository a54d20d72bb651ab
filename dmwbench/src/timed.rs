//! Bench-side tracing: an in-memory span log and a timing wrapper around
//! the transport handed to `DmwRunner::run_on`.
//!
//! The protocol crates never read the clock. Spans are cut here, at the
//! only boundary the benchmark can see from outside: every call the
//! scheduler makes into the transport. Each call becomes a `simnet`
//! span. The interval from `take_inbox(i)` returning to the next
//! transport call becomes an `agent` span — agent `i`'s poll, together
//! with the reliable endpoint's inbound processing and sealing and the
//! scheduler's per-message bookkeeping for that agent. Whatever the
//! trial span holds beyond its children is the scheduler's self time.

use dmw_obs::MetricsSnapshot;
use dmw_simnet::{Delivered, FaultPlan, NetworkStats, NodeId, Payload, Transport};
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// What a span covers. One byte, so a traced run can keep every span of
/// a broadcast-heavy trial in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One whole trial: the root span.
    Trial,
    /// One agent's turn: from `take_inbox` returning to the next
    /// transport call.
    Agent,
    /// One transport call.
    Simnet,
}

/// One recorded span: start and end in nanoseconds since the log's
/// epoch, the index of its parent span (a root is its own parent), and
/// what it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start, ns since the log's epoch.
    pub start_ns: u64,
    /// End, ns since the log's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the log; a root's own index.
    pub parent: u32,
    /// What the span covers.
    pub name: Name,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a closed span under `parent` (`None` for a root) and
    /// returns its index.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` spans.
    pub fn record(&mut self, name: Name, start: Instant, end: Instant, parent: Option<u32>) -> u32 {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: parent.unwrap_or(index),
            name,
        });
        index
    }

    /// Opens a trial span starting now; close it with [`SpanLog::close`].
    pub fn open(&mut self) -> u32 {
        let now = Instant::now();
        self.record(Name::Trial, now, now, None)
    }

    /// Ends span `index` now.
    pub fn close(&mut self, index: u32) {
        let end = self.ns(Instant::now());
        if let Some(span) = self.spans.get_mut(index as usize) {
            span.end_ns = end;
        }
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A transport that forwards every call to `inner` and records a span
/// per call into `log`, as children of span `parent`.
///
/// `next_due` and `advance_to` are forwarded, not left to the trait's
/// defaults, so the event engine skips exactly the ticks it skips on the
/// bare transport and the run is bit-identical to an untimed one.
pub struct Timed<'a, T> {
    inner: T,
    log: &'a RefCell<SpanLog>,
    parent: u32,
    agent_from: Cell<Option<Instant>>,
}

impl<'a, T> Timed<'a, T> {
    /// Wraps `inner`, recording under span `parent` of `log`.
    pub fn new(inner: T, log: &'a RefCell<SpanLog>, parent: u32) -> Self {
        Timed {
            inner,
            log,
            parent,
            agent_from: Cell::new(None),
        }
    }

    /// Starts a transport call: closes a pending agent span at this
    /// instant.
    fn enter(&self) -> Instant {
        let now = Instant::now();
        if let Some(from) = self.agent_from.take() {
            self.log
                .borrow_mut()
                .record(Name::Agent, from, now, Some(self.parent));
        }
        now
    }

    /// Ends a transport call begun at `start`.
    fn leave(&self, start: Instant) -> Instant {
        let now = Instant::now();
        self.log
            .borrow_mut()
            .record(Name::Simnet, start, now, Some(self.parent));
        now
    }

    fn call<'s, R>(&'s self, f: impl FnOnce(&'s T) -> R) -> R {
        let start = self.enter();
        let out = f(&self.inner);
        self.leave(start);
        out
    }

    fn call_mut<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        let start = self.enter();
        let out = f(&mut self.inner);
        self.leave(start);
        out
    }
}

impl<M: Payload + Clone, T: Transport<M>> Transport<M> for Timed<'_, T> {
    fn nodes(&self) -> usize {
        self.call(T::nodes)
    }

    fn send(&mut self, from: NodeId, to: NodeId, payload: M) {
        self.call_mut(|t| t.send(from, to, payload));
    }

    fn broadcast(&mut self, from: NodeId, payload: M) {
        self.call_mut(|t| t.broadcast(from, payload));
    }

    fn take_inbox(&mut self, node: NodeId) -> Vec<Delivered<M>> {
        let start = self.enter();
        let inbox = self.inner.take_inbox(node);
        let end = self.leave(start);
        self.agent_from.set(Some(end));
        inbox
    }

    fn step(&mut self) -> u64 {
        self.call_mut(T::step)
    }

    fn round(&self) -> u64 {
        self.call(T::round)
    }

    fn stats(&self) -> &NetworkStats {
        self.call(T::stats)
    }

    fn metrics(&self) -> &MetricsSnapshot {
        self.call(T::metrics)
    }

    fn faults(&self) -> &FaultPlan {
        self.call(T::faults)
    }

    fn is_quiescent(&self) -> bool {
        self.call(T::is_quiescent)
    }

    fn next_due(&self) -> Option<u64> {
        self.call(T::next_due)
    }

    fn advance_to(&mut self, target: u64) -> u64 {
        self.call_mut(|t| t.advance_to(target))
    }
}

/// One traced trial's wall time split by layer, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerSplit {
    /// The trial span's duration.
    pub wall_ns: u64,
    /// Time inside transport calls.
    pub simnet_ns: u64,
    /// Time in agent spans.
    pub agent_ns: u64,
    /// Transport calls made.
    pub simnet_calls: u64,
}

impl LayerSplit {
    /// Scheduler self time: the trial span minus its children.
    pub fn runner_self_ns(&self) -> u64 {
        self.wall_ns
            .saturating_sub(self.simnet_ns)
            .saturating_sub(self.agent_ns)
    }
}

/// Splits the trial span at `root` of `spans` by the layers of its
/// children. Children are recorded after their root and before the next
/// root, so the scan covers exactly that run of spans.
pub fn split(spans: &[Span], root: u32) -> LayerSplit {
    let mut out = LayerSplit {
        wall_ns: spans.get(root as usize).map_or(0, Span::ns),
        ..LayerSplit::default()
    };
    for span in spans
        .iter()
        .skip(root as usize + 1)
        .take_while(|span| span.parent == root)
    {
        match span.name {
            Name::Simnet => {
                out.simnet_ns += span.ns();
                out.simnet_calls += 1;
            }
            Name::Agent => out.agent_ns += span.ns(),
            Name::Trial => {}
        }
    }
    out
}
