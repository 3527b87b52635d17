//! End-to-end Strip-based Route Planning (§VI, Algorithm 4).
//!
//! Planning one request runs a time-dependent Dijkstra over the strip
//! graph. Labels are `(strip, entry cell, arrival time)`; relaxing an edge
//! `u → v` calls the intra-strip backtracking planner to move from the
//! current cell to the transit grid adjacent to `v` (the edge weight of
//! Definition 5), then crosses the boundary. Collision awareness lives
//! entirely at the intra-strip level (segment stores) plus one global
//! boundary-crossing table for cross-strip swap conflicts (an engineering
//! completion the paper leaves implicit — DESIGN.md §3).
//!
//! The search restrictions (no backward intra-strip moves, greedy transit
//! pairs, one visit per strip) can rarely make a request infeasible; as the
//! paper prescribes (§VI remarks), such requests fall back to grid-level
//! space-time A\*, reconstructing a reservation table from the committed
//! segments on demand.

use crate::convert::{compose, decompose};
use crate::intra::{plan_within, plan_within_cost, IntraConfig, IntraRoute};
use crate::strip_graph::{EdgeGeom, StripEdge, StripGraph, StripId, StripKind};
use carp_geometry::engine::{ShardKey, StoreEngine};
use carp_geometry::store::{SegmentId, SegmentStore};
use carp_geometry::{Segment, SlopeIndexStore};
use carp_spacetime::{AStarConfig, ReservationTable, SpaceTimeAStar};
use carp_warehouse::matrix::WarehouseMatrix;
use carp_warehouse::memory;
use carp_warehouse::planner::{EngineMetrics, PlanOutcome, Planner, ReplayPlanner};
use carp_warehouse::request::{Request, RequestId};
use carp_warehouse::route::Route;
use carp_warehouse::types::{Cell, Time};
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet};
use std::time::Instant;

/// Configuration of the SRP planner.
#[derive(Debug, Clone)]
pub struct SrpConfig {
    /// Intra-strip backtracking limits.
    pub intra: IntraConfig,
    /// How long a robot may wait at a transit cell for the boundary
    /// crossing and the entry cell of the next strip to clear.
    pub max_entry_delay: Time,
    /// How long the departure may be postponed when the origin cell is
    /// contested at the request time.
    pub max_start_delay: Time,
    /// Use the Manhattan heuristic on the inter-strip search (turns the
    /// paper's plain Dijkstra into A\*; identical results on FIFO edge
    /// weights, substantially fewer strip expansions — see DESIGN.md §6).
    pub use_heuristic: bool,
    /// Start-time bumps retried at strip level before resorting to the
    /// grid fallback. A request whose direct traversal is blocked (e.g. a
    /// head-on meeting inside one aisle, unresolvable by forward-only
    /// backtracking) usually becomes feasible once the oncoming traffic has
    /// drained — retrying with a postponed departure keeps planning inside
    /// the fast strip framework.
    pub retry_bumps: [Time; 3],
    /// Fall back to grid-level space-time A\* when the strip-level search
    /// fails (§VI remarks).
    pub use_fallback: bool,
    /// Fallback search limits.
    pub fallback: AStarConfig,
    /// Record the Fig. 22(a) TC breakdown (adds two `Instant` reads per
    /// intra-strip call; off by default to keep TC comparisons clean).
    pub instrument: bool,
    /// Cooperative cancellation token ([`Planner::arm_cancel`]): the
    /// Phase-1 search polls it every few heap pops, abandoning the request
    /// (→ `Infeasible`, nothing committed) once it fires. `None` (the default) never cancels. The token only
    /// *stops* work — with it unfired, routes are bit-identical to an
    /// unarmed run, so the determinism contract is untouched whenever
    /// deadlines are disabled.
    pub cancel: Option<carp_warehouse::planner::CancelToken>,
}

impl Default for SrpConfig {
    fn default() -> Self {
        SrpConfig {
            intra: IntraConfig::default(),
            max_entry_delay: 48,
            max_start_delay: 128,
            retry_bumps: [8, 24, 72],
            use_heuristic: true,
            use_fallback: true,
            fallback: AStarConfig::default(),
            instrument: false,
            cancel: None,
        }
    }
}

/// Counters and the Fig. 22(a) time breakdown.
#[derive(Debug, Default, Clone, Copy)]
pub struct SrpStats {
    /// Successfully planned requests.
    pub planned: usize,
    /// Requests resolved by a strip-level retry with postponed departure.
    pub retries: usize,
    /// Requests resolved by the A\* fallback.
    pub fallbacks: usize,
    /// Requests that could not be planned at all.
    pub infeasible: usize,
    /// Strip-graph nodes settled across all requests.
    pub strips_settled: usize,
    /// Intra-strip planning calls.
    pub intra_calls: usize,
    /// Nanoseconds in inter-strip search bookkeeping (when instrumented).
    pub inter_ns: u64,
    /// Nanoseconds in intra-strip planning + collision queries.
    pub intra_ns: u64,
    /// Nanoseconds converting between strip and grid representations.
    pub convert_ns: u64,
    /// High-water bytes of the fallback A\* search (part of MC).
    pub fallback_peak_bytes: usize,
    /// Strip searches stopped early, proven unable to reach the goal.
    pub searches_cut_short: CutShort,
}

/// Strip searches stopped by the exact early exit (DESIGN.md §6), per rule.
/// Each would have failed anyway; the exit only skips the remaining pops.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CutShort {
    /// Rule 1: the destination aisle settled and its final leg failed.
    pub final_leg: usize,
    /// Rule 2: no strip that could still lead to the destination was open.
    pub unreachable: usize,
}

impl CutShort {
    /// Searches cut short by either rule.
    pub fn total(&self) -> usize {
        self.final_leg + self.unreachable
    }
}

/// Which internal search path produced a committed route. Recorded per
/// commit so the audit layer can trace a bad route back to the code path
/// that emitted it (conflict-provenance, DESIGN.md §"Auditing").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerPath {
    /// The direct strip-level search at the request's emergence time.
    Direct,
    /// A strip-level retry with the departure postponed by `bump` steps.
    Retry {
        /// The start-time bump that made the request feasible.
        bump: Time,
    },
    /// The grid-level space-time A\* fallback (§VI remarks).
    Fallback,
    /// A route committed from outside via [`SrpPlanner::commit_route`].
    External,
}

impl core::fmt::Display for PlannerPath {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlannerPath::Direct => write!(f, "direct strip search"),
            PlannerPath::Retry { bump } => write!(f, "strip retry (departure +{bump})"),
            PlannerPath::Fallback => write!(f, "grid A* fallback"),
            PlannerPath::External => write!(f, "externally committed"),
        }
    }
}

/// Provenance of one committed route: the producing path plus the strip
/// chain and boundary crossings of its decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Which search path produced the route.
    pub path: PlannerPath,
    /// Strips traversed, in time order (consecutive duplicates collapsed).
    pub strips: Vec<StripId>,
    /// Directed boundary crossings `(from, to, departure time)`.
    pub crossings: Vec<(Cell, Cell, Time)>,
    /// Number of stored segments the route decomposed into.
    pub segments: usize,
}

impl core::fmt::Display for Provenance {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "path={}, strips=[", self.path)?;
        for (i, s) in self.strips.iter().enumerate() {
            if i > 0 {
                write!(f, "→")?;
            }
            write!(f, "{s}")?;
        }
        write!(
            f,
            "], segments={}, crossings={}",
            self.segments,
            self.crossings.len()
        )
    }
}

/// Bookkeeping for one committed route, enough to retire it later and to
/// answer provenance queries while it is active.
#[derive(Debug, Clone)]
struct Committed {
    segs: Vec<(StripId, SegmentId, Segment)>,
    crossings: Vec<(Cell, Cell, Time)>,
    path: PlannerPath,
}

/// Sentinel node id for the search goal.
const GOAL: StripId = StripId::MAX;

/// A parent-chain entry of the cost-only inter-strip search: the hop's leg
/// lives within strip `prev`, ends at `exit_cell`, waits there until
/// `depart`, and then steps into the keyed node at `depart+1` (unless the
/// keyed node is the goal of an aisle destination, reached in place).
#[derive(Debug, Clone, Copy)]
struct ParentLite {
    prev: StripId,
    exit_cell: Cell,
    depart: Time,
}

impl ParentLite {
    const NONE: ParentLite = ParentLite {
        prev: GOAL,
        exit_cell: Cell::new(0, 0),
        depart: 0,
    };
}

/// Heap key of the Phase-1 search: `(f, Reverse(g), strip, edge)`. Among
/// equal `f` the deepest entry wins; the trailing `(strip, edge)` pair
/// makes every live key unique — node entries carry `NO_EDGE`, deferred
/// edge entries carry the edge's adjacency index, and each `(strip, edge)`
/// is pushed at most once per search — so the pop order is a total order
/// over entries, independent of the heap's internal layout (tie-breaks by
/// node id).
type SearchKey = (Time, core::cmp::Reverse<Time>, StripId, u32);

/// Sentinel edge index marking a node (settle) entry.
const NO_EDGE: u32 = u32::MAX;

/// Request-fixed context of one Phase-1 search.
#[derive(Clone, Copy)]
struct SearchCtx {
    su: StripId,
    su_kind: StripKind,
    sd: StripId,
    sd_is_rack: bool,
    o: Cell,
    d: Cell,
    use_h: bool,
    /// Dense index of the GOAL pseudo-node.
    goal_slot: usize,
}

impl SearchCtx {
    /// The inter-strip heuristic: Manhattan distance to the destination
    /// (admissible and consistent), or 0 for plain Dijkstra.
    #[inline]
    fn h(&self, cell: Cell) -> Time {
        if self.use_h {
            cell.manhattan(self.d)
        } else {
            0
        }
    }
}

/// How the Phase-1 loop ended.
#[derive(Debug, Clone, Copy)]
enum SearchEnd {
    /// The goal entry popped or the heap ran dry; the goal label, if any,
    /// is final.
    Done,
    /// The armed cancellation token fired.
    Cancelled,
    /// An exact early exit proved that no future settle reaches the goal.
    CutShort,
}

/// Resolve one edge's transit pair under all the rack rules; `None` when
/// the edge is unusable for this request. Pure in `(graph, ctx, u, k, gu)`.
fn resolve_edge(
    graph: &StripGraph,
    ctx: &SearchCtx,
    u: StripId,
    k: usize,
    gu: Cell,
) -> Option<(StripId, bool, Cell, Cell)> {
    let edge = graph.edges(u)[k];
    let v = edge.to;
    let v_is_goal_rack = v == ctx.sd && ctx.sd_is_rack;
    if graph.strip(v).kind == StripKind::Rack && !v_is_goal_rack {
        return None;
    }
    let pair = if v_is_goal_rack {
        transit_to_cell(graph, u, &edge, ctx.d)
    } else {
        Some(graph.transition(u, &edge, gu))
    };
    let (g_u, g_v) = pair?;
    // Within a rack origin strip, no movement is possible.
    if ctx.su_kind == StripKind::Rack && u == ctx.su && g_u != ctx.o {
        return None;
    }
    Some((v, v_is_goal_rack, g_u, g_v))
}

/// Earliest boundary departure in `[arrive, arrive + wait_limit]` for the
/// motion `g_u → g_v`, judged against the target strip's store and the
/// global crossings table. A departure is valid when nobody crosses the other
/// way at that instant and the entry point `(depart + 1, v_off)` is free.
fn cross_scan<S: SegmentStore>(
    store_v: &S,
    crossings: &HashSet<(Cell, Cell, Time)>,
    arrive: Time,
    wait_limit: Time,
    g_u: Cell,
    g_v: Cell,
    v_off: i32,
) -> Option<Time> {
    let deadline = arrive + wait_limit;
    let mut depart = arrive;
    while depart <= deadline {
        // Earliest free entry instant in the next strip ≥ depart + 1; the
        // single-pass store override replaces one point probe per delta.
        let entry = store_v.earliest_free_point(depart + 1, deadline + 1, v_off)?;
        let candidate = entry - 1;
        // Cross-strip swap: someone crossing the other way at `candidate`.
        if crossings.contains(&(g_v, g_u, candidate)) {
            depart = candidate + 1;
            continue;
        }
        return Some(candidate);
    }
    None
}

/// Flag bits of a strip's state word in [`SearchScratch`].
const RELAXED: u32 = 1;
const SETTLED: u32 = 2;
/// Bits 2..8 of the state word: the number of the reachability walk (in
/// this search) that last entered the strip.
const WALK_SHIFT: u32 = 2;
const WALK_MASK: u32 = 0x3f << WALK_SHIFT;
/// The search generation sits above the flags and the walk mark.
const GEN_SHIFT: u32 = 8;
/// Next-edge cursor of a walked strip whose neighbours are not scanned yet.
const UNSCANNED: Time = Time::MAX;

/// Reusable per-request search state, generation-stamped so consecutive
/// plans never re-clear the dense arrays.
#[derive(Debug, Default, Clone)]
struct SearchScratch {
    /// Current search generation, below `2^(32 - GEN_SHIFT)`.
    gen: u32,
    /// Reachability walks run in the current search.
    walks: u32,
    /// Per-strip state word `gen << GEN_SHIFT | walk mark | flags`. A word
    /// from an older generation reads as untouched: no label, no flags,
    /// nothing pending.
    state: Vec<u32>,
    /// Deferred edges in the heap that target each strip (valid while the
    /// strip's state word is current).
    pending: Vec<u32>,
    dist_v: Vec<Time>,
    entry: Vec<Cell>,
    parent: Vec<ParentLite>,
    /// Reachability walk: the path from `sd` to the strip being scanned.
    /// A walked strip is unlabelled, so its `dist_v` slot holds the index
    /// of its next edge to try. After a walk that met an open strip this is
    /// the path to that strip's neighbour, which the next walk re-checks
    /// first.
    walk: Vec<StripId>,
    /// The open strip next to the end of `walk`'s path.
    witness: StripId,
}

impl SearchScratch {
    fn begin(&mut self, n: usize) {
        if self.state.len() < n {
            self.state.resize(n, 0);
            self.pending.resize(n, 0);
            self.dist_v.resize(n, 0);
            self.entry.resize(n, Cell::new(0, 0));
            self.parent.resize(n, ParentLite::NONE);
            // A walk path holds each strip at most once.
            self.walk.reserve_exact(n - self.walk.len());
        }
        self.gen += 1;
        if self.gen == 1 << (32 - GEN_SHIFT) {
            // Extremely rare wrap: hard-reset the state words.
            self.state.fill(0);
            self.gen = 1;
        }
        self.walks = 0;
        self.walk.clear();
    }

    /// Whether strip `i`'s state word belongs to the current search.
    #[inline]
    fn current(&self, i: usize) -> bool {
        self.state[i] >> GEN_SHIFT == self.gen
    }

    /// The strip's flags in this search (0 when untouched).
    #[inline]
    fn flags(&self, i: usize) -> u32 {
        if self.current(i) {
            self.state[i] & (RELAXED | SETTLED)
        } else {
            0
        }
    }

    /// The strip's state word, reset first when it is from an older search.
    #[inline]
    fn touch(&mut self, i: usize) -> &mut u32 {
        if !self.current(i) {
            self.state[i] = self.gen << GEN_SHIFT;
            self.pending[i] = 0;
        }
        &mut self.state[i]
    }

    #[inline]
    fn dist(&self, i: usize) -> Option<Time> {
        (self.flags(i) & RELAXED != 0).then(|| self.dist_v[i])
    }

    #[inline]
    fn relax(&mut self, i: usize, t: Time, entry: Cell, p: ParentLite) {
        *self.touch(i) |= RELAXED;
        self.dist_v[i] = t;
        self.entry[i] = entry;
        self.parent[i] = p;
    }

    #[inline]
    fn settled(&self, i: usize) -> bool {
        self.flags(i) & SETTLED != 0
    }

    #[inline]
    fn settle(&mut self, i: usize) {
        *self.touch(i) |= SETTLED;
    }

    /// A deferred edge into strip `i` was pushed.
    #[inline]
    fn push_pending(&mut self, i: usize) {
        self.touch(i);
        self.pending[i] += 1;
    }

    /// A deferred edge into strip `i` was popped.
    #[inline]
    fn pop_pending(&mut self, i: usize) {
        debug_assert!(self.current(i) && self.pending[i] > 0);
        self.pending[i] -= 1;
    }

    /// Whether a future pop can still settle or relax strip `i`: it is
    /// unsettled and holds a label, or a deferred edge into it is unpopped.
    #[inline]
    fn open(&self, i: usize) -> bool {
        let w = self.state[i];
        self.current(i) && w & SETTLED == 0 && (w & RELAXED != 0 || self.pending[i] > 0)
    }

    /// Whether walk `mark` may still step onto strip `y`: a route may enter
    /// it (racks are excluded; a rack `sd` is marked before the walk
    /// starts), it is unsettled, and the walk has not been there.
    #[inline]
    fn walkable(&self, graph: &StripGraph, y: StripId, mark: u32) -> bool {
        let (i, w) = (y as usize, self.state[y as usize]);
        let done = self.current(i) && (w & SETTLED != 0 || w & WALK_MASK == mark);
        !done && graph.strip(y).kind != StripKind::Rack
    }

    /// Walk `mark` steps onto strip `y`: mark it and push it, neighbours
    /// not scanned yet.
    fn enter(&mut self, stack: &mut Vec<StripId>, y: StripId, mark: u32) {
        let w = self.touch(y as usize);
        *w = (*w & !WALK_MASK) | mark;
        self.dist_v[y as usize] = UNSCANNED;
        stack.push(y);
    }

    /// Whether the path the previous walk of this search found still
    /// proves the goal reachable: its strips are unsettled up to one that
    /// is open now, or all unsettled with the witness still open.
    fn path_holds(&self) -> bool {
        if self.walk.is_empty() {
            return false;
        }
        for &x in &self.walk {
            if self.settled(x as usize) {
                return false;
            }
            if self.open(x as usize) {
                return true;
            }
        }
        self.open(self.witness as usize)
    }

    /// Rule 2 of the exact early exit (DESIGN.md §6): walk from the goal
    /// strip `sd` over unsettled strips a route may enter (aisles, plus
    /// `sd` itself) and report whether any of them is [`Self::open`]. When
    /// none is, no future settle can reach `sd`: every settle still to come
    /// needs a chain of unsettled enterable strips back to an open one, and
    /// the adjacency is symmetric, so that chain is a walk from `sd`.
    ///
    /// The walk is depth-first. On reaching a strip it checks every
    /// neighbour for an open one, then steps to the neighbour nearest the
    /// origin `o`; the others are tried only on the way back. In a search
    /// that will succeed, the open strips ring the settled region around
    /// the origin, so the walk meets one after a few steps, and the path it
    /// leaves behind usually answers the next walk of the search by itself.
    /// The order never changes the verdict.
    fn goal_reachable(&mut self, graph: &StripGraph, sd: StripId, o: Cell) -> bool {
        if self.open(sd as usize) || self.path_holds() {
            return true;
        }
        self.walks += 1;
        debug_assert!(self.walks <= WALK_MASK >> WALK_SHIFT, "walks are log(pops)");
        let mark = self.walks << WALK_SHIFT;
        let mut stack = core::mem::take(&mut self.walk);
        stack.clear();
        self.enter(&mut stack, sd, mark);
        let mut found = false;
        while let Some(&x) = stack.last() {
            let (edges, next) = (graph.edges(x), self.dist_v[x as usize]);
            if next == UNSCANNED {
                let mut nearest: Option<(u32, StripId)> = None;
                for e in edges {
                    if !self.walkable(graph, e.to, mark) {
                        continue;
                    }
                    if self.open(e.to as usize) {
                        self.witness = e.to;
                        found = true;
                        break;
                    }
                    let dist = graph.strip(e.to).distance_to(o);
                    if nearest.is_none_or(|(best, _)| dist < best) {
                        nearest = Some((dist, e.to));
                    }
                }
                if found {
                    break;
                }
                self.dist_v[x as usize] = 0;
                if let Some((_, y)) = nearest {
                    self.enter(&mut stack, y, mark);
                }
                continue;
            }
            // On the way back: step to the next neighbour not walked yet.
            let rest = edges[next as usize..]
                .iter()
                .position(|e| self.walkable(graph, e.to, mark));
            match rest {
                Some(k) => {
                    self.dist_v[x as usize] = next + k as u32 + 1;
                    self.enter(&mut stack, edges[next as usize + k].to, mark);
                }
                None => {
                    stack.pop();
                }
            }
        }
        self.walk = stack;
        found
    }

    fn memory_bytes(&self) -> usize {
        carp_warehouse::memory::vec_bytes(&self.state)
            + carp_warehouse::memory::vec_bytes(&self.pending)
            + carp_warehouse::memory::vec_bytes(&self.dist_v)
            + carp_warehouse::memory::vec_bytes(&self.entry)
            + carp_warehouse::memory::vec_bytes(&self.parent)
            + carp_warehouse::memory::vec_bytes(&self.walk)
    }
}

/// The Strip-based Route Planner, generic over the segment store so the
/// Fig. 22(b) ablation can swap the slope index for the naive ordered set.
#[derive(Debug, Clone)]
pub struct SrpPlanner<S: SegmentStore = SlopeIndexStore> {
    matrix: WarehouseMatrix,
    graph: StripGraph,
    /// The engine owning all per-strip segment stores.
    engine: StoreEngine<S>,
    /// Directed boundary motions of active routes.
    crossings: HashSet<(Cell, Cell, Time)>,
    committed: HashMap<RequestId, Committed>,
    retire_queue: BTreeSet<(Time, RequestId)>,
    scratch: SearchScratch,
    /// Configuration.
    pub config: SrpConfig,
    /// Counters and TC breakdown.
    pub stats: SrpStats,
}

impl SrpPlanner<SlopeIndexStore> {
    /// Build an SRP planner with the slope-indexed store (the full method
    /// of the paper, §V-D).
    pub fn new(matrix: WarehouseMatrix, config: SrpConfig) -> Self {
        Self::with_store(matrix, config)
    }
}

impl<S: SegmentStore + Default> SrpPlanner<S> {
    /// Build an SRP planner with a custom segment store implementation.
    pub fn with_store(matrix: WarehouseMatrix, config: SrpConfig) -> Self {
        let graph = StripGraph::build(&matrix);
        SrpPlanner {
            matrix,
            graph,
            engine: StoreEngine::new(),
            crossings: HashSet::new(),
            committed: HashMap::new(),
            retire_queue: BTreeSet::new(),
            scratch: SearchScratch::default(),
            config,
            stats: SrpStats::default(),
        }
    }

    /// The underlying strip graph (for inspection and the Table II stats).
    pub fn graph(&self) -> &StripGraph {
        &self.graph
    }

    /// The warehouse matrix the planner operates on.
    pub fn matrix(&self) -> &WarehouseMatrix {
        &self.matrix
    }

    /// Number of currently committed (active) routes.
    pub fn active_routes(&self) -> usize {
        self.committed.len()
    }

    /// Total segments across all strip stores.
    pub fn total_segments(&self) -> usize {
        self.engine.total_segments()
    }

    /// The segment-store engine (for inspection and its operation stats).
    pub fn engine(&self) -> &StoreEngine<S> {
        &self.engine
    }

    /// One strip's segment store (an empty stand-in when the strip
    /// carries no traffic).
    pub fn store_for_strip(&self, sid: StripId) -> &S {
        self.engine.shard(sid)
    }

    /// Byte breakdown of [`Planner::memory_bytes`] for diagnostics:
    /// `(stores, committed bookkeeping, crossings, scratch, graph)`.
    pub fn memory_breakdown(&self) -> (usize, usize, usize, usize, usize) {
        let stores: usize = self.engine.memory_bytes();
        let committed: usize = self
            .committed
            .values()
            .map(|c| memory::vec_bytes(&c.segs) + memory::vec_bytes(&c.crossings))
            .sum::<usize>()
            + memory::hashmap_bytes(&self.committed)
            + memory::btreeset_bytes(&self.retire_queue);
        (
            stores,
            committed,
            memory::hashset_bytes(&self.crossings),
            self.scratch.memory_bytes() + self.stats.fallback_peak_bytes,
            self.graph.memory_bytes(),
        )
    }

    /// Plan a route *without committing it* — the pure strip-level search
    /// (including the retry bumps, excluding the grid fallback). Used by
    /// the competitive-ratio experiment (Theorem 1), which compares single
    /// uncommitted routes against the space-time-optimal ones.
    pub fn plan_uncommitted(&mut self, req: &Request) -> Option<Route> {
        let mut route = self.plan_strips(req);
        if route.is_none() && !self.cancelled() {
            for bump in self.config.retry_bumps {
                let mut delayed = *req;
                delayed.t = req.t + bump;
                route = self.plan_strips(&delayed);
                if route.is_some() || self.cancelled() {
                    break;
                }
            }
        }
        route
    }

    /// Commit an externally produced route into the collision state (used
    /// by experiments that need to seed background traffic).
    pub fn commit_route(&mut self, id: RequestId, route: &Route) {
        self.commit(id, route, PlannerPath::External);
    }

    /// Provenance of a currently committed (not yet retired) route: the
    /// search path that produced it plus its strip chain and crossings.
    pub fn route_provenance(&self, id: RequestId) -> Option<Provenance> {
        self.committed.get(&id).map(|c| {
            let mut strips: Vec<StripId> = Vec::new();
            for &(sid, _, _) in &c.segs {
                if strips.last() != Some(&sid) {
                    strips.push(sid);
                }
            }
            Provenance {
                path: c.path,
                strips,
                crossings: c.crossings.clone(),
                segments: c.segs.len(),
            }
        })
    }

    #[inline]
    fn now(&self) -> Option<Instant> {
        self.config.instrument.then(Instant::now)
    }

    /// Whether the armed cancellation token (if any) has fired.
    #[inline]
    fn cancelled(&self) -> bool {
        self.config.cancel.as_ref().is_some_and(|t| t.fired())
    }

    #[inline]
    fn lap(&mut self, start: Option<Instant>, bucket: fn(&mut SrpStats) -> &mut u64) {
        if let Some(s) = start {
            *bucket(&mut self.stats) += s.elapsed().as_nanos() as u64;
        }
    }

    /// Earliest `t' ∈ [t, t + limit]` at which `(t', cell)` is free in the
    /// cell's strip store, or `None`.
    fn probe_free_time(&self, cell: Cell, t: Time, limit: Time) -> Option<Time> {
        let sid = self.graph.strip_of(&self.matrix, cell);
        let off = self.graph.strip(sid).offset_of(cell);
        self.engine
            .shard(sid)
            .earliest_free_point(t, t + limit, off)
    }

    /// Plan a route at strip level; `None` means the restricted search
    /// space has no solution and the fallback should take over.
    ///
    /// The search runs in two phases for speed: a cost-only time-dependent
    /// A*/Dijkstra over strips (no segment polylines are materialized —
    /// relaxations only need edge durations), then a reconstruction pass
    /// that re-plans the few legs along the winning chain with full
    /// polylines. Both phases query the same immutable stores, so the
    /// rebuilt legs are identical to the ones the search priced.
    fn plan_strips(&mut self, req: &Request) -> Option<Route> {
        let (o, d) = (req.origin, req.destination);
        let su = self.graph.strip_of(&self.matrix, o);
        let sd = self.graph.strip_of(&self.matrix, d);
        let start_t = self.probe_free_time(o, req.t, self.config.max_start_delay)?;

        if o == d {
            return Some(Route::stationary(start_t, o));
        }
        let su_kind = self.graph.strip(su).kind;
        if su == sd && su_kind == StripKind::Rack {
            return None; // cannot move along a rack strip
        }

        // Phase 1: cost-only time-dependent Dijkstra / A* (Algorithm 4).
        let n = self.graph.num_vertices();
        let ctx = SearchCtx {
            su,
            su_kind,
            sd,
            sd_is_rack: self.graph.strip(sd).kind == StripKind::Rack,
            o,
            d,
            use_h: self.config.use_heuristic,
            goal_slot: n,
        };
        let goal_slot = ctx.goal_slot;
        self.scratch.begin(n + 1);
        // Min-heap on (f, Reverse(g)): among equal f the deepest entry wins,
        // so the search dives along one optimal staircase instead of
        // flooding the whole equal-cost plateau between origin and
        // destination (consistent heuristic ⇒ optimality is unaffected).
        let mut heap: BinaryHeap<core::cmp::Reverse<SearchKey>> = BinaryHeap::new();
        self.scratch
            .relax(su as usize, start_t, o, ParentLite::NONE);
        heap.push(core::cmp::Reverse((
            start_t + ctx.h(o),
            core::cmp::Reverse(start_t),
            su,
            NO_EDGE,
        )));
        // Honour a token that fired before the search even started (the
        // periodic poll in the loop only triggers every 64 pops, which a
        // short search never reaches).
        if self.cancelled() {
            return None;
        }
        let mut pops: u64 = 0;
        match self.search(&mut heap, &ctx, &mut pops, true) {
            SearchEnd::Done => {}
            SearchEnd::Cancelled => return None,
            SearchEnd::CutShort => {
                #[cfg(debug_assertions)]
                self.confirm_cut_short(&mut heap, &ctx, &mut pops);
                return None;
            }
        }

        let total = self.scratch.dist(goal_slot)?;
        // Phase 2: reconstruct the leg chain (line 24 of Algorithm 4) by
        // walking the parent pointers and re-planning each leg in full.
        let convert_t = self.now();
        let mut hops: Vec<ParentLite> = Vec::new();
        let mut node = goal_slot;
        loop {
            let p = self.scratch.parent[node];
            debug_assert!(p.prev != GOAL, "goal is connected to the origin");
            hops.push(p);
            if p.prev == su {
                break;
            }
            node = p.prev as usize;
        }
        hops.reverse();
        self.lap(convert_t, |s| &mut s.convert_ns);

        let mut legs: Vec<(StripId, IntraRoute)> = Vec::with_capacity(hops.len() + 1);
        for hop in &hops {
            let u = hop.prev;
            let strip = *self.graph.strip(u);
            let enter_t = self.scratch.dist(u as usize).expect("on chain");
            let gu = self.scratch.entry[u as usize];
            let mut leg = self
                .intra_full(
                    u,
                    enter_t,
                    strip.offset_of(gu),
                    strip.offset_of(hop.exit_cell),
                )
                .expect("cost phase succeeded on this leg");
            debug_assert!(leg.arrive <= hop.depart);
            if leg.arrive < hop.depart {
                let off = strip.offset_of(hop.exit_cell);
                leg.segments
                    .push(Segment::wait(leg.arrive, hop.depart, off));
                leg.arrive = hop.depart;
            }
            legs.push((u, leg));
        }
        if ctx.sd_is_rack {
            // The rack destination is entered by the final crossing; it
            // contributes a single point of occupancy.
            legs.push((
                sd,
                IntraRoute {
                    segments: vec![Segment::point(total, self.graph.strip(sd).offset_of(d))],
                    enter: total,
                    arrive: total,
                },
            ));
        }

        let convert_t = self.now();
        let route = compose(&self.graph, &legs);
        self.lap(convert_t, |s| &mut s.convert_ns);
        debug_assert_eq!(route.destination(), d);
        debug_assert_eq!(route.end_time(), total);
        Some(route)
    }

    /// The Phase-1 loop: pop entries until the goal entry pops, the heap
    /// runs dry or the armed token fires. With `exits`, it also stops as
    /// soon as one of two exact rules proves that no future settle can
    /// reach the goal (DESIGN.md §6); neither rule ever changes a route.
    ///
    /// Edges are evaluated LAZILY: settling a strip pushes one cheap
    /// optimistic entry per edge (`edge_k != NO_EDGE`), carrying the
    /// admissible bound `at + |gu → transit| + 1`; the expensive
    /// intra-strip + crossing evaluation runs only when that bound reaches
    /// the top of the heap. Long full-width aisles have O(W) edges, so
    /// eager evaluation would dominate the whole search.
    fn search(
        &mut self,
        heap: &mut BinaryHeap<core::cmp::Reverse<SearchKey>>,
        ctx: &SearchCtx,
        pops: &mut u64,
        exits: bool,
    ) -> SearchEnd {
        let (sd, d, goal_slot) = (ctx.sd, ctx.d, ctx.goal_slot);
        loop {
            // Rule 2, at a pop boundary where every heap entry is counted
            // in the scratch state: is any strip that can still lead to
            // `sd` open? The walk runs at pop counts 64, 128, 256, … so a
            // search pays for O(log pops) walks.
            if exits
                && *pops >= 64
                && pops.is_power_of_two()
                && self.scratch.dist(goal_slot).is_none()
                && !self.scratch.goal_reachable(&self.graph, sd, ctx.o)
            {
                self.stats.searches_cut_short.unreachable += 1;
                return SearchEnd::CutShort;
            }
            let Some(core::cmp::Reverse((_, core::cmp::Reverse(at), u, edge_k))) = heap.pop()
            else {
                return SearchEnd::Done;
            };
            if u == GOAL {
                return SearchEnd::Done;
            }
            // Cooperative cancellation: poll the armed token every 64 pops
            // (an atomic load + occasional `Instant::now`, far below the
            // cost of one edge evaluation). Bailing out mid-search commits
            // nothing — the caller sees a plain `None`.
            *pops += 1;
            if *pops & 63 == 0 && self.cancelled() {
                return SearchEnd::Cancelled;
            }
            let ui = u as usize;

            if edge_k != NO_EDGE {
                // Deferred edge evaluation: `at` is the optimistic arrival.
                self.scratch
                    .pop_pending(self.graph.edges(u)[edge_k as usize].to as usize);
                let gu = self.scratch.entry[ui];
                let settle_at = self.scratch.dist(ui).expect("edge source settled");
                let Some((v, v_is_goal_rack, g_u, g_v)) =
                    resolve_edge(&self.graph, ctx, u, edge_k as usize, gu)
                else {
                    continue;
                };
                let vi = if v_is_goal_rack {
                    goal_slot
                } else {
                    v as usize
                };
                if self.scratch.settled(vi) || self.scratch.dist(vi).is_some_and(|dv| dv <= at) {
                    continue;
                }
                let Some(arrival) = self.eval_edge(u, settle_at, gu, g_u, g_v) else {
                    continue;
                };
                let depart = arrival - 1;
                if self.scratch.dist(vi).is_none_or(|dv| arrival < dv) {
                    let parent = ParentLite {
                        prev: u,
                        exit_cell: g_u,
                        depart,
                    };
                    self.scratch
                        .relax(vi, arrival, if v_is_goal_rack { d } else { g_v }, parent);
                    let key = if v_is_goal_rack {
                        arrival
                    } else {
                        arrival + ctx.h(g_v)
                    };
                    let node = if v_is_goal_rack { GOAL } else { v };
                    heap.push(core::cmp::Reverse((
                        key,
                        core::cmp::Reverse(arrival),
                        node,
                        NO_EDGE,
                    )));
                }
                continue;
            }

            if self.scratch.settled(ui) || self.scratch.dist(ui) != Some(at) {
                continue;
            }
            self.scratch.settle(ui);
            self.stats.strips_settled += 1;
            let gu = self.scratch.entry[ui];

            // Final leg when the destination strip is an aisle.
            if u == sd {
                let strip = *self.graph.strip(u);
                let Some(total) = self.intra_cost(u, at, strip.offset_of(gu), strip.offset_of(d))
                else {
                    // Rule 1: an aisle `sd` settles exactly once, and this
                    // branch is the only one that labels the goal.
                    if exits {
                        self.stats.searches_cut_short.final_leg += 1;
                        return SearchEnd::CutShort;
                    }
                    continue;
                };
                if self.scratch.dist(goal_slot).is_none_or(|g| total < g) {
                    self.scratch.relax(
                        goal_slot,
                        total,
                        d,
                        ParentLite {
                            prev: u,
                            exit_cell: d,
                            depart: total,
                        },
                    );
                    heap.push(core::cmp::Reverse((
                        total,
                        core::cmp::Reverse(total),
                        GOAL,
                        NO_EDGE,
                    )));
                }
                continue; // never expand beyond the destination strip
            }

            let strip_u = *self.graph.strip(u);
            for k in 0..self.graph.edges(u).len() {
                let Some((v, v_is_goal_rack, g_u, g_v)) = resolve_edge(&self.graph, ctx, u, k, gu)
                else {
                    continue;
                };
                let vi = if v_is_goal_rack {
                    goal_slot
                } else {
                    v as usize
                };
                if self.scratch.settled(vi) {
                    continue;
                }
                // Admissible bound: straight-line leg + one crossing step.
                let lb = at + strip_u.offset_of(gu).abs_diff(strip_u.offset_of(g_u)) + 1;
                if self.scratch.dist(vi).is_some_and(|dv| dv <= lb) {
                    continue;
                }
                let key = if v_is_goal_rack { lb } else { lb + ctx.h(g_v) };
                heap.push(core::cmp::Reverse((
                    key,
                    core::cmp::Reverse(lb),
                    u,
                    k as u32,
                )));
                self.scratch.push_pending(v as usize);
            }
        }
    }

    /// Debug builds confirm every early exit: finish the cut search without
    /// exits (and with the cancellation token disarmed) and check that the
    /// goal is never labelled. The counters are restored afterwards, so they
    /// mean the same in debug and release.
    #[cfg(debug_assertions)]
    fn confirm_cut_short(
        &mut self,
        heap: &mut BinaryHeap<core::cmp::Reverse<SearchKey>>,
        ctx: &SearchCtx,
        pops: &mut u64,
    ) {
        let stats = self.stats;
        let cancel = self.config.cancel.take();
        self.search(heap, ctx, pops, false);
        debug_assert!(
            self.scratch.dist(ctx.goal_slot).is_none(),
            "early exit on a search that reaches the goal"
        );
        self.config.cancel = cancel;
        self.stats = stats;
    }

    /// Instrumented cost-only intra-strip query (search phase).
    fn intra_cost(&mut self, strip: StripId, t: Time, from: i32, to: i32) -> Option<Time> {
        let started = self.now();
        self.stats.intra_calls += 1;
        let arrive = plan_within_cost(self.engine.shard(strip), t, from, to, &self.config.intra);
        self.lap(started, |s| &mut s.intra_ns);
        arrive
    }

    /// Instrumented full intra-strip planning (reconstruction phase).
    fn intra_full(&mut self, strip: StripId, t: Time, from: i32, to: i32) -> Option<IntraRoute> {
        let started = self.now();
        let leg = plan_within(self.engine.shard(strip), t, from, to, &self.config.intra);
        self.lap(started, |s| &mut s.intra_ns);
        leg
    }

    /// Find the earliest boundary departure `>= arrive` for the motion
    /// `g_u -> g_v` (cost phase: no leg materialization): how long the
    /// robot may wait at the transit cell `exit_off` of strip `u`, then the
    /// [`cross_scan`] over the target strip.
    fn cross_cost(
        &mut self,
        u: StripId,
        arrive: Time,
        exit_off: i32,
        g_u: Cell,
        g_v: Cell,
    ) -> Option<Time> {
        let started = self.now();
        let max_entry_delay = self.config.max_entry_delay;
        let probe = Segment::wait(arrive, arrive + max_entry_delay, exit_off);
        let wait_limit = match self.engine.shard(u).earliest_collision(&probe) {
            Some(c) => {
                debug_assert!(c.time > arrive, "transit cell reached collision-free");
                (c.time - 1 - arrive).min(max_entry_delay)
            }
            None => max_entry_delay,
        };
        let v = self.graph.strip_of(&self.matrix, g_v);
        let v_off = self.graph.strip(v).offset_of(g_v);
        let found = cross_scan(
            self.engine.shard(v),
            &self.crossings,
            arrive,
            wait_limit,
            g_u,
            g_v,
            v_off,
        );
        self.lap(started, |s| &mut s.intra_ns);
        found
    }

    /// Price one edge: intra-strip leg to the transit cell, then the
    /// boundary-crossing scan. Returns the arrival time in the
    /// next strip (`depart + 1`), or `None` when the edge is infeasible at
    /// this settle time.
    fn eval_edge(
        &mut self,
        u: StripId,
        settle_at: Time,
        gu: Cell,
        g_u: Cell,
        g_v: Cell,
    ) -> Option<Time> {
        let strip_u = *self.graph.strip(u);
        let arrive =
            self.intra_cost(u, settle_at, strip_u.offset_of(gu), strip_u.offset_of(g_u))?;
        let depart = self.cross_cost(u, arrive, strip_u.offset_of(g_u), g_u, g_v)?;
        Some(depart + 1)
    }

    /// Grid-level fallback (§VI remarks): rebuild a reservation table from
    /// the committed segments and run space-time A\*.
    fn plan_fallback(&mut self, req: &Request) -> Option<Route> {
        let mut rt = ReservationTable::new();
        for (id, c) in &self.committed {
            for &(sid, _, seg) in &c.segs {
                let strip = self.graph.strip(sid);
                let mut prev: Option<(Time, Cell)> = None;
                for (t, off) in seg.occupancy() {
                    let cell = strip.cell_at(off);
                    rt.reserve(&Route::stationary(t, cell), *id);
                    if let Some((pt, pc)) = prev {
                        if pc != cell {
                            rt.reserve(&Route::new(pt, vec![pc, cell]), *id);
                        }
                    }
                    prev = Some((t, cell));
                }
            }
            for &(from, to, t) in &c.crossings {
                rt.reserve(&Route::new(t, vec![from, to]), *id);
            }
        }
        let mut astar = SpaceTimeAStar::new(self.config.fallback);
        let r = astar.plan(&self.matrix, &rt, None, req.origin, req.destination, req.t);
        self.stats.fallback_peak_bytes = self.stats.fallback_peak_bytes.max(astar.stats.peak_bytes);
        r
    }

    /// Commit a planned route: decompose it and insert its segments and
    /// crossings into the collision state, tagged with the search path that
    /// produced it.
    fn commit(&mut self, id: RequestId, route: &Route, path: PlannerPath) {
        let started = self.now();
        let dec = decompose(&self.matrix, &self.graph, route);
        // Pre-commit validation as one batched probe over the whole
        // candidate route (its segments span many strips). The check is
        // always on: a colliding commit means a planner bug, and one batch
        // probe per commit is noise next to the search that produced it.
        let hits = self.engine.collide_many(&dec.segments);
        for ((sid, seg), hit) in dec.segments.iter().zip(&hits) {
            assert!(
                hit.is_none(),
                "committing colliding segment {seg} in strip {sid}"
            );
        }
        let mut segs = Vec::with_capacity(dec.segments.len());
        for (sid, seg) in dec.segments {
            let handle = self.engine.insert(sid, seg);
            segs.push((sid, handle, seg));
        }
        for &c in &dec.crossings {
            self.crossings.insert(c);
        }
        self.committed.insert(
            id,
            Committed {
                segs,
                crossings: dec.crossings,
                path,
            },
        );
        self.retire_queue.insert((route.end_time(), id));
        self.lap(started, |s| &mut s.convert_ns);
    }

    /// Remove a batch of committed routes from the collision state. All
    /// their segments are retired through one [`StoreEngine::remove_batch`]
    /// call — one removal list per shard — instead of one map traversal per
    /// segment. Ids
    /// with no committed route (already retired, cancelled) are skipped.
    fn retire_batch(&mut self, ids: &[RequestId]) {
        let mut removals: Vec<(ShardKey, SegmentId, Segment)> = Vec::new();
        for id in ids {
            if let Some(c) = self.committed.remove(id) {
                removals.extend(c.segs);
                for key in c.crossings {
                    self.crossings.remove(&key);
                }
            }
        }
        if removals.is_empty() {
            return;
        }
        let removed = self.engine.remove_batch(&removals);
        debug_assert_eq!(removed, removals.len(), "segment missing on retire");
    }
}

impl<S: SegmentStore + Default> ReplayPlanner for SrpPlanner<S> {
    fn adopt(&mut self, id: RequestId, route: &Route) {
        self.commit_route(id, route);
    }
}

/// The transit pair of `edge` whose target-strip cell is exactly `target`
/// (used for rack destinations), or `None` when this edge cannot deliver
/// the robot adjacent to `target`.
fn transit_to_cell(
    graph: &StripGraph,
    u: StripId,
    edge: &StripEdge,
    target: Cell,
) -> Option<(Cell, Cell)> {
    match edge.geom {
        EdgeGeom::Perpendicular { u_cell, v_cell } | EdgeGeom::Collinear { u_cell, v_cell } => {
            (v_cell == target).then_some((u_cell, v_cell))
        }
        EdgeGeom::Lateral { lo, hi } => {
            let su = graph.strip(u);
            let sv = graph.strip(edge.to);
            debug_assert!(sv.contains(target));
            let coord = match sv.dir {
                crate::strip_graph::StripDir::Latitudinal => target.col,
                crate::strip_graph::StripDir::Longitudinal => target.row,
            };
            if !(lo..=hi).contains(&coord) {
                return None;
            }
            let u_cell = match su.dir {
                crate::strip_graph::StripDir::Latitudinal => Cell::new(su.alpha.row, coord),
                crate::strip_graph::StripDir::Longitudinal => Cell::new(coord, su.alpha.col),
            };
            Some((u_cell, target))
        }
    }
}

impl<S: SegmentStore + Default> Planner for SrpPlanner<S> {
    fn name(&self) -> &'static str {
        "SRP"
    }

    fn plan(&mut self, req: &Request) -> PlanOutcome {
        // inter_ns is the strip-level search time *excluding* the intra and
        // conversion buckets, so the three Fig. 22(a) components add up to
        // the whole.
        let inter_t = self.now();
        let sub_before = self.stats.intra_ns + self.stats.convert_ns;
        let mut path = PlannerPath::Direct;
        let mut strip_route = self.plan_strips(req);
        if strip_route.is_none() && !self.cancelled() {
            // Strip-level retries with postponed departure (see
            // `SrpConfig::retry_bumps`). A fired cancellation token skips
            // the remaining bumps — the request is being abandoned, not
            // rescued.
            for bump in self.config.retry_bumps {
                let mut delayed = *req;
                delayed.t = req.t + bump;
                strip_route = self.plan_strips(&delayed);
                if strip_route.is_some() {
                    self.stats.retries += 1;
                    path = PlannerPath::Retry { bump };
                    break;
                }
                if self.cancelled() {
                    break;
                }
            }
        }
        if let Some(started) = inter_t {
            let sub = (self.stats.intra_ns + self.stats.convert_ns) - sub_before;
            self.stats.inter_ns += (started.elapsed().as_nanos() as u64).saturating_sub(sub);
        }
        let route = match strip_route {
            Some(r) => Some(r),
            None if self.config.use_fallback && !self.cancelled() => {
                let r = self.plan_fallback(req);
                if r.is_some() {
                    self.stats.fallbacks += 1;
                    path = PlannerPath::Fallback;
                }
                r
            }
            None => None,
        };
        match route {
            Some(route) => {
                debug_assert!(
                    route.validate(&self.matrix).is_ok(),
                    "invalid route planned"
                );
                self.commit(req.id, &route, path);
                self.stats.planned += 1;
                PlanOutcome::Planned(route)
            }
            None => {
                self.stats.infeasible += 1;
                PlanOutcome::Infeasible
            }
        }
    }

    fn advance(&mut self, now: Time) -> Vec<(RequestId, Route)> {
        // Retire routes that finished strictly before `now`; their segments
        // can no longer collide with requests emerging at `t ≥ now`. The
        // whole batch of expirations goes through one engine removal pass.
        let mut expired: Vec<RequestId> = Vec::new();
        while let Some(&(end, id)) = self.retire_queue.iter().next() {
            if end >= now {
                break;
            }
            self.retire_queue.remove(&(end, id));
            expired.push(id);
        }
        self.retire_batch(&expired);
        Vec::new()
    }

    fn provenance(&self, id: RequestId) -> Option<String> {
        self.route_provenance(id).map(|p| p.to_string())
    }

    fn arm_cancel(&mut self, token: Option<carp_warehouse::planner::CancelToken>) {
        self.config.cancel = token;
    }

    fn cancel(&mut self, id: RequestId) -> bool {
        if self.committed.contains_key(&id) {
            self.retire_queue.retain(|&(_, rid)| rid != id);
            self.retire_batch(&[id]);
            true
        } else {
            false
        }
    }

    fn engine_metrics(&self) -> Option<EngineMetrics> {
        let stats = self.engine.stats();
        Some(EngineMetrics {
            probe_batches: stats.probe_batches,
            probe_queries: stats.probe_queries,
            retire_batch_size: stats.mean_retire_batch(),
            soft_bookings: 0,
            window_debt: 0,
        })
    }

    fn memory_bytes(&self) -> usize {
        let stores: usize = self.engine.memory_bytes();
        let committed: usize = self
            .committed
            .values()
            .map(|c| memory::vec_bytes(&c.segs) + memory::vec_bytes(&c.crossings))
            .sum();
        stores
            + committed
            + memory::hashset_bytes(&self.crossings)
            + memory::hashmap_bytes(&self.committed)
            + memory::btreeset_bytes(&self.retire_queue)
            + self.scratch.memory_bytes()
            + self.stats.fallback_peak_bytes
            + self.graph.memory_bytes()
    }
}
