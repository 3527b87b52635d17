//! Measurement from outside the program: a [`Planner`] decorator around
//! `SrpPlanner` and a [`SegmentStore`] decorator over the slope index.
//!
//! Neither changes what the wrapped code computes — every call is
//! forwarded unchanged — so routes (and their digest) are identical with
//! and without them; the self-tests pin that.
//!
//! Nesting of the spans the traced run measures (self time of a span is
//! its time minus its children's):
//!
//! ```text
//! plan (decorator: entry → exit of Planner::plan)
//! ├── inter  (stats.inter_ns: Phase-1 bookkeeping, excludes intra + convert)
//! │   └── geometry start probes (earliest_free_point over max_start_delay)
//! ├── intra  (stats.intra_ns: intra-strip legs + boundary-crossing scans)
//! │   └── geometry reads (earliest_collision, earliest_free_point)
//! ├── convert (stats.convert_ns: chain rebuild, compose, commit)
//! │   └── geometry commit probes (collide_many) + inserts
//! └── A* fallback (the rest of a fallback-path plan)
//! advance (decorator: Planner::advance)
//! └── geometry removals (remove / remove_batch)
//! ```

use carp_geometry::{SegCollision, Segment, SegmentId, SegmentStore, SlopeIndexStore};
use carp_srp::{PlannerPath, SrpConfig, SrpPlanner};
use carp_warehouse::planner::{CancelToken, EngineMetrics, PlanOutcome, Planner};
use carp_warehouse::request::{Request, RequestId};
use carp_warehouse::route::Route;
use carp_warehouse::types::Time;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// The process-wide counters of every [`TimedStore`] call, one slot per
/// variant in [`GEOM`]. The planner's engine creates one store per strip
/// through `Default`, so the counters cannot live in the stores themselves.
#[derive(Debug, Clone, Copy)]
enum Counter {
    CollideCalls,
    CollideNs,
    FreeCalls,
    FreeNs,
    StartProbeCalls,
    StartProbeNs,
    CommitProbeCalls,
    CommitProbeNs,
    InsertCalls,
    InsertNs,
    RemoveCalls,
    RemoveNs,
    LiveSegments,
    PeakSegments,
}

/// Statistics only, so every access is `Relaxed`.
static GEOM: [AtomicU64; 14] = [const { AtomicU64::new(0) }; 14];

fn counter(c: Counter) -> &'static AtomicU64 {
    &GEOM[c as usize]
}

/// Snapshot of the [`TimedStore`] counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GeomSnapshot {
    /// `earliest_collision` calls (all inside intra-strip planning).
    pub collide_calls: u64,
    /// Nanoseconds inside `earliest_collision`.
    pub collide_ns: u64,
    /// `earliest_free_point` calls made by crossing scans (intra).
    pub free_calls: u64,
    /// Nanoseconds inside those calls.
    pub free_ns: u64,
    /// `earliest_free_point` start probes (one per strip search; inter).
    pub start_probe_calls: u64,
    /// Nanoseconds inside start probes.
    pub start_probe_ns: u64,
    /// `collide_many` calls (the pre-commit validation, per shard).
    pub commit_probe_calls: u64,
    /// Nanoseconds inside `collide_many`.
    pub commit_probe_ns: u64,
    /// `insert` calls.
    pub insert_calls: u64,
    /// Nanoseconds inside `insert`.
    pub insert_ns: u64,
    /// `remove` + `remove_batch` calls.
    pub remove_calls: u64,
    /// Nanoseconds inside removals.
    pub remove_ns: u64,
    /// High-water of live segments across all strips.
    pub peak_segments: u64,
}

/// Zero the [`TimedStore`] counters (call before a traced day; one traced
/// planner may exist at a time for the counts to be its own).
pub fn geom_reset() {
    for c in &GEOM {
        c.store(0, Ordering::Relaxed);
    }
}

/// Read the [`TimedStore`] counters.
pub fn geom_snapshot() -> GeomSnapshot {
    let g = |c: Counter| counter(c).load(Ordering::Relaxed);
    GeomSnapshot {
        collide_calls: g(Counter::CollideCalls),
        collide_ns: g(Counter::CollideNs),
        free_calls: g(Counter::FreeCalls),
        free_ns: g(Counter::FreeNs),
        start_probe_calls: g(Counter::StartProbeCalls),
        start_probe_ns: g(Counter::StartProbeNs),
        commit_probe_calls: g(Counter::CommitProbeCalls),
        commit_probe_ns: g(Counter::CommitProbeNs),
        insert_calls: g(Counter::InsertCalls),
        insert_ns: g(Counter::InsertNs),
        remove_calls: g(Counter::RemoveCalls),
        remove_ns: g(Counter::RemoveNs),
        peak_segments: g(Counter::PeakSegments),
    }
}

fn tally(calls: Counter, ns: Counter, since: Instant) {
    counter(calls).fetch_add(1, Ordering::Relaxed);
    counter(ns).fetch_add(elapsed_ns(since), Ordering::Relaxed);
}

/// Window length of the planner's start-time probe
/// (`SrpConfig::max_start_delay`). The crossing scans probe windows of at
/// most `max_entry_delay`, which is shorter under the default config, so
/// the window length tells the two call sites apart exactly.
fn start_probe_window() -> Time {
    static WINDOW: OnceLock<Time> = OnceLock::new();
    *WINDOW.get_or_init(|| {
        let cfg = SrpConfig::default();
        assert!(
            cfg.max_entry_delay < cfg.max_start_delay,
            "start probes must be distinguishable from crossing scans"
        );
        cfg.max_start_delay
    })
}

/// A [`SegmentStore`] that forwards every call to `S` and counts and times
/// it in the process-wide counters ([`geom_snapshot`]).
#[derive(Debug, Default, Clone)]
pub struct TimedStore<S = SlopeIndexStore> {
    inner: S,
}

impl<S: SegmentStore> SegmentStore for TimedStore<S> {
    fn insert(&mut self, seg: Segment) -> SegmentId {
        let t = Instant::now();
        let id = self.inner.insert(seg);
        tally(Counter::InsertCalls, Counter::InsertNs, t);
        let live = counter(Counter::LiveSegments).fetch_add(1, Ordering::Relaxed) + 1;
        counter(Counter::PeakSegments).fetch_max(live, Ordering::Relaxed);
        id
    }

    fn remove(&mut self, id: SegmentId, seg: &Segment) -> bool {
        let t = Instant::now();
        let removed = self.inner.remove(id, seg);
        tally(Counter::RemoveCalls, Counter::RemoveNs, t);
        if removed {
            counter(Counter::LiveSegments).fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    fn remove_batch(&mut self, removals: &[(SegmentId, Segment)]) -> usize {
        let t = Instant::now();
        let removed = self.inner.remove_batch(removals);
        tally(Counter::RemoveCalls, Counter::RemoveNs, t);
        counter(Counter::LiveSegments).fetch_sub(removed as u64, Ordering::Relaxed);
        removed
    }

    fn earliest_collision(&self, seg: &Segment) -> Option<SegCollision> {
        let t = Instant::now();
        let hit = self.inner.earliest_collision(seg);
        tally(Counter::CollideCalls, Counter::CollideNs, t);
        hit
    }

    fn collide_many(&self, queries: &[Segment]) -> Vec<Option<SegCollision>> {
        let t = Instant::now();
        let hits = self.inner.collide_many(queries);
        tally(Counter::CommitProbeCalls, Counter::CommitProbeNs, t);
        hits
    }

    fn earliest_free_point(&self, t0: Time, t1: Time, s: i32) -> Option<Time> {
        let t = Instant::now();
        let free = self.inner.earliest_free_point(t0, t1, s);
        if t1 - t0 == start_probe_window() {
            tally(Counter::StartProbeCalls, Counter::StartProbeNs, t);
        } else {
            tally(Counter::FreeCalls, Counter::FreeNs, t);
        }
        free
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn snapshot(&self) -> Vec<Segment> {
        self.inner.snapshot()
    }
}

/// Per-request timestamps the traced decorator records: the request id,
/// when `Planner::plan` was entered and when it returned.
pub type PlanSpan = (RequestId, Instant, Instant);

/// What the decorator accumulated over a day.
#[derive(Debug, Default, Clone)]
pub struct PlanLedger {
    /// `Planner::plan` calls.
    pub plan_calls: u64,
    /// Nanoseconds inside `Planner::plan` (the paper's TC).
    pub plan_ns: u64,
    /// Duration of every `Planner::plan` call, in call order.
    pub plan_samples_ns: Vec<u64>,
    /// High-water of `Planner::memory_bytes` (the paper's MC), sampled
    /// before each `advance` retires anything and at the end of the day.
    pub mem_peak_bytes: usize,
    /// `Planner::advance` calls and the nanoseconds inside them.
    pub advance_calls: u64,
    /// Nanoseconds inside `Planner::advance`.
    pub advance_ns: u64,
    /// Traced only: plan time of requests resolved by the direct search,
    /// a retry bump, the A* fallback, and of infeasible requests.
    pub direct_ns: u64,
    /// See `direct_ns`.
    pub retry_ns: u64,
    /// See `direct_ns`.
    pub fallback_ns: u64,
    /// See `direct_ns`.
    pub infeasible_ns: u64,
    /// Traced only: entry and exit instant of every plan call.
    pub spans: Vec<PlanSpan>,
    /// Committed routes in commit order, when route capture is on.
    pub routes: Vec<(RequestId, Route)>,
}

/// A [`Planner`] decorator around [`SrpPlanner`]: times `plan` and
/// `advance`, samples memory, and — when traced — classifies each plan by
/// the provenance path of the route it committed and records its span.
#[derive(Debug)]
pub struct TimedPlanner<S: SegmentStore + Default = SlopeIndexStore> {
    inner: SrpPlanner<S>,
    traced: bool,
    capture_routes: bool,
    /// Everything measured so far.
    pub ledger: PlanLedger,
}

impl<S: SegmentStore + Default> TimedPlanner<S> {
    /// Wrap `inner`. `traced` turns on per-path classification and span
    /// recording; `capture_routes` keeps a copy of every committed route.
    pub fn new(inner: SrpPlanner<S>, traced: bool, capture_routes: bool) -> Self {
        TimedPlanner {
            inner,
            traced,
            capture_routes,
            ledger: PlanLedger::default(),
        }
    }

    /// The wrapped planner (for its `stats` counters).
    pub fn inner(&self) -> &SrpPlanner<S> {
        &self.inner
    }

    /// Close the day: take the final memory sample.
    pub fn finish_day(&mut self) {
        self.ledger.mem_peak_bytes = self.ledger.mem_peak_bytes.max(self.inner.memory_bytes());
    }
}

impl<S: SegmentStore + Default> Planner for TimedPlanner<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&mut self, req: &Request) -> PlanOutcome {
        let entry = Instant::now();
        let outcome = self.inner.plan(req);
        let exit = Instant::now();
        let ns = exit.duration_since(entry).as_nanos() as u64;
        let l = &mut self.ledger;
        l.plan_calls += 1;
        l.plan_ns += ns;
        l.plan_samples_ns.push(ns);
        if self.traced {
            l.spans.push((req.id, entry, exit));
            let bucket = match &outcome {
                PlanOutcome::Infeasible => &mut l.infeasible_ns,
                PlanOutcome::Planned(_) => {
                    match self.inner.route_provenance(req.id).map(|p| p.path) {
                        Some(PlannerPath::Retry { .. }) => &mut l.retry_ns,
                        Some(PlannerPath::Fallback) => &mut l.fallback_ns,
                        _ => &mut l.direct_ns,
                    }
                }
            };
            *bucket += ns;
        }
        if self.capture_routes {
            if let PlanOutcome::Planned(route) = &outcome {
                l.routes.push((req.id, route.clone()));
            }
        }
        outcome
    }

    fn advance(&mut self, now: Time) -> Vec<(RequestId, Route)> {
        // Memory peaks right after a burst of commits, i.e. just before the
        // next advance retires finished routes.
        self.ledger.mem_peak_bytes = self.ledger.mem_peak_bytes.max(self.inner.memory_bytes());
        let t = Instant::now();
        let revisions = self.inner.advance(now);
        self.ledger.advance_ns += elapsed_ns(t);
        self.ledger.advance_calls += 1;
        revisions
    }

    fn next_wakeup(&self) -> Option<Time> {
        self.inner.next_wakeup()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn provenance(&self, id: RequestId) -> Option<String> {
        self.inner.provenance(id)
    }

    fn arm_cancel(&mut self, token: Option<CancelToken>) {
        self.inner.arm_cancel(token)
    }

    fn cancel(&mut self, id: RequestId) -> bool {
        self.inner.cancel(id)
    }

    fn engine_metrics(&self) -> Option<EngineMetrics> {
        self.inner.engine_metrics()
    }
}
