//! What one driven day yields, whichever workload drove it.

use carp_srp::SrpStats;
use carp_warehouse::planner::EngineMetrics;
use carp_warehouse::types::Time;

use crate::probe::{GeomSnapshot, PlanLedger};

/// Set-up cost of one day, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Whole set-up: layout, tasks, planner, and (wire) daemon + connect.
    pub total_s: f64,
    /// `WarehousePreset::generate`.
    pub layout_ms: f64,
    /// `SrpPlanner::with_store` (the strip-graph build).
    pub strip_graph_ms: f64,
}

/// Service-side observations of a wire day (zero on the simulator).
#[derive(Debug, Clone, Default)]
pub struct WireObs {
    /// Client-side submit → ack of every accepted submission, ns.
    pub ack_ns: Vec<u64>,
    /// Traced: client submit instant → decorator `plan()` entry, ns.
    pub queue_wait_ns: Vec<u64>,
    /// Traced: decorator `plan()` exit → reply decoded by the client, ns.
    pub reply_ns: Vec<u64>,
    /// Nanoseconds the client spent inside `WireClient::advance`.
    pub advance_rtt_ns: u64,
    /// Nanoseconds the client spent inside any wire call.
    pub wire_call_ns: u64,
    /// Frames the daemon sent to this tenant's client.
    pub frames_out: u64,
    /// Wire bytes in both directions.
    pub wire_bytes: u64,
    /// Changeset-log counters (zero with the WAL off).
    pub wal_appends: u64,
    /// See `wal_appends`.
    pub wal_bytes: u64,
    /// See `wal_appends`.
    pub wal_fsyncs: u64,
    /// Traced: requests whose `queue_wait + plan + reply` differs from
    /// their turnaround.
    pub sum_mismatches: usize,
}

/// Everything one driven day yields.
#[derive(Debug, Clone, Default)]
pub struct DayRun {
    /// Set-up cost paid before the day.
    pub setup: Setup,
    /// Wall seconds of the driven day (set-up excluded).
    pub wall_s: f64,
    /// `routes_digest` of the committed route set.
    pub digest: u64,
    /// Planning requests submitted (each leg attempt is one request).
    pub submitted: u64,
    /// Routes committed.
    pub committed: u64,
    /// Legs abandoned after the retry budget.
    pub abandoned: u64,
    /// Deadline refusals (shed or overrun).
    pub refused: u64,
    /// Conflicts found by the online audit plus the final batch check.
    pub audit_conflicts: usize,
    /// The paper's OG: latest finish over the committed routes.
    pub makespan: Time,
    /// The paper's TC: seconds inside `Planner::plan`.
    pub tc_s: f64,
    /// The paper's MC: high-water of `Planner::memory_bytes`.
    pub mc_bytes: usize,
    /// Per-request turnaround as the caller sees it, ns.
    pub turnaround_ns: Vec<u64>,
    /// Per-layer counters (filled on every day; reported when traced).
    pub layers: LayerInputs,
    /// Mean seconds of the two reference runs bracketing the day (see
    /// `host`); 0 when the day was not bracketed.
    pub reference_s: f64,
}

impl DayRun {
    /// Factor that scales the day's times to the nominal host speed:
    /// `host::NOMINAL_S` over the bracketing reference runs' mean, or 1 when
    /// the day was not bracketed.
    pub fn host_scale(&self) -> f64 {
        if self.reference_s > 0.0 {
            crate::host::NOMINAL_S / self.reference_s
        } else {
            1.0
        }
    }
}

/// Raw inputs of the per-layer metrics.
#[derive(Debug, Clone, Default)]
pub struct LayerInputs {
    /// The planner decorator's ledger (routes and spans dropped).
    pub ledger: PlanLedger,
    /// `SrpPlanner::stats` at the end of the day.
    pub srp: SrpStats,
    /// `Planner::engine_metrics` at the end of the day.
    pub engine: EngineMetrics,
    /// The store decorator's counters (zero when it was not plugged in).
    pub geom: GeomSnapshot,
    /// Service-side observations (wire workloads).
    pub wire: WireObs,
}
