//! `sim-w3-dense`: the paper's TC setting — the in-process day simulator
//! drives SRP directly, with no service layer in between.

use carp_geometry::SegmentStore;
use carp_service::routes_digest;
use carp_simenv::{SimConfig, Simulation};
use carp_srp::{SrpConfig, SrpPlanner};
use carp_warehouse::collision::validate_routes;
use carp_warehouse::layout::{Layout, WarehousePreset};
use carp_warehouse::planner::Planner;
use carp_warehouse::route::Route;
use carp_warehouse::tasks::{generate_tasks, DayProfile, Task};
use carp_warehouse::types::Time;
use std::collections::HashMap;
use std::time::Instant;

use crate::day::{DayRun, LayerInputs, Setup};
use crate::probe::{geom_reset, geom_snapshot, TimedPlanner};

/// A rate-preserving slice of one of the paper's days: `scale` of the
/// 86 400 s horizon carrying `scale` of the day's tasks, so the arrival
/// rate — and with it the number of robots on the floor — is the paper's.
#[derive(Debug, Clone, Copy)]
pub struct DaySlice {
    /// Which warehouse.
    pub preset: WarehousePreset,
    /// Table II day index (0 = Day 1).
    pub day: usize,
    /// Share of the full day.
    pub scale: f64,
}

impl DaySlice {
    /// Simulated horizon of the slice, in seconds.
    pub fn horizon(&self) -> Time {
        (86_400.0 * self.scale).round() as u32
    }

    /// Tasks in the slice.
    pub fn num_tasks(&self) -> u32 {
        let per_day = self.preset.daily_tasks_thousands()[self.day] * 1000.0;
        (per_day * self.scale).round().max(1.0) as u32
    }

    /// The slice's task stream for `seed`, arrivals divided by
    /// `multiplier`. Racks and pickers are drawn from `seed`; the arrival
    /// times are one fixed draw of the day profile (seed
    /// [`ARRIVAL_SEED`]), shared by every seed — the day's load curve is
    /// part of the workload, the spatial task mix is what the seed varies.
    pub fn tasks(&self, layout: &Layout, multiplier: f64, seed: u64) -> Vec<Task> {
        let profile = DayProfile::new(self.horizon(), self.num_tasks());
        let mut tasks = generate_tasks(layout, &profile, seed);
        let arrivals = generate_tasks(layout, &profile, ARRIVAL_SEED);
        for (task, reference) in tasks.iter_mut().zip(&arrivals) {
            task.arrival = (f64::from(reference.arrival) / multiplier) as Time;
        }
        tasks.sort_by_key(|t| (t.arrival, t.id));
        tasks
    }
}

/// Seed of the one arrival-time draw every task stream shares.
pub const ARRIVAL_SEED: u64 = 0x5172_0004;

/// Set up and simulate one day of `slice` with task seed `seed`. The store
/// type `S` is `SlopeIndexStore` for untraced days and the timing
/// decorator over it for traced ones.
pub fn run_day<S: SegmentStore + Default>(slice: DaySlice, seed: u64, traced: bool) -> DayRun {
    let setup_start = Instant::now();
    let layout = slice.preset.generate();
    let layout_ms = setup_start.elapsed().as_secs_f64() * 1e3;
    let tasks = slice.tasks(&layout, 1.0, seed);
    let graph_start = Instant::now();
    let config = SrpConfig {
        instrument: traced,
        ..SrpConfig::default()
    };
    let srp = SrpPlanner::<S>::with_store(layout.matrix.clone(), config);
    let strip_graph_ms = graph_start.elapsed().as_secs_f64() * 1e3;
    let planner = TimedPlanner::new(srp, traced, true);
    let setup = Setup {
        total_s: setup_start.elapsed().as_secs_f64(),
        layout_ms,
        strip_graph_ms,
    };

    geom_reset();
    let day_start = Instant::now();
    let (report, mut planner) =
        Simulation::new(&layout, &tasks, planner, SimConfig::default()).run();
    let wall_s = day_start.elapsed().as_secs_f64();
    planner.finish_day();
    let geom = geom_snapshot();

    let mut ledger = std::mem::take(&mut planner.ledger);
    let routes: HashMap<_, Route> = std::mem::take(&mut ledger.routes).into_iter().collect();
    let flat: Vec<Route> = routes.values().cloned().collect();
    let batch_conflict = usize::from(validate_routes(&flat).is_some());
    DayRun {
        setup,
        wall_s,
        digest: routes_digest(&routes),
        submitted: ledger.plan_calls,
        committed: report.planned_requests as u64,
        abandoned: report.failed_requests as u64,
        refused: 0,
        audit_conflicts: report.audit_conflicts + batch_conflict,
        makespan: report.makespan,
        tc_s: ledger.plan_ns as f64 * 1e-9,
        mc_bytes: ledger.mem_peak_bytes,
        turnaround_ns: std::mem::take(&mut ledger.plan_samples_ns),
        layers: LayerInputs {
            srp: planner.inner().stats,
            engine: planner.engine_metrics().unwrap_or_default(),
            geom,
            ledger,
            wire: Default::default(),
        },
        reference_s: 0.0,
    }
}
