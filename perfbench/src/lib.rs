//! End-to-end and per-layer benchmark of the SRP planner and the
//! `carp-service` daemon (see `perfbench/README.md`).
//!
//! All measurement happens from outside the program: client-side
//! timestamps around public `WireClient` calls, a `Planner` decorator
//! around `SrpPlanner`, a `SegmentStore` decorator over the slope index,
//! the program's public counters, and — in traced days only — the
//! planner's own `SrpConfig::instrument` split.

pub mod day;
pub mod host;
pub mod metrics;
pub mod probe;
pub mod sim;
pub mod stats;
pub mod wire;

use carp_geometry::SlopeIndexStore;
use carp_warehouse::layout::WarehousePreset;

use crate::day::DayRun;
use crate::probe::TimedStore;
use crate::sim::DaySlice;
use crate::wire::WireDay;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// W-3, Day 4 (the paper's densest day) at the paper's arrival rate,
    /// driven by the in-process simulator; no service layer.
    SimW3Dense,
    /// W-1, Day 1 at the paper's rate, through the TCP front-end, WAL on.
    WireW1Wal,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::SimW3Dense, Workload::WireW1Wal];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimW3Dense => "sim-w3-dense",
            Workload::WireW1Wal => "wire-w1-wal",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs through the daemon.
    pub fn is_wire(self) -> bool {
        self != Workload::SimW3Dense
    }

    /// Sub-days in one measured cycle of the workload. Every sub-day is a
    /// fresh, independent day slice with its own task seed (see
    /// [`sub_seed`]); a run reports trimmed means and medians over them, so
    /// one seed's metrics rest on this many independent days rather than
    /// one.
    pub fn sub_days(self) -> u64 {
        match self {
            Workload::SimW3Dense => 22,
            Workload::WireW1Wal => 12,
        }
    }

    /// Set up and drive one day with task seed `seed`. Traced days plug in
    /// the store decorator and turn on `SrpConfig::instrument`.
    pub fn run_day(self, seed: u64, traced: bool) -> DayRun {
        match (self, traced) {
            (Workload::SimW3Dense, false) => sim::run_day::<SlopeIndexStore>(SIM_W3, seed, false),
            (Workload::SimW3Dense, true) => sim::run_day::<TimedStore>(SIM_W3, seed, true),
            (w, false) => wire::run_day::<SlopeIndexStore>(w.wire_day(), seed, false),
            (w, true) => wire::run_day::<TimedStore>(w.wire_day(), seed, true),
        }
    }

    fn wire_day(self) -> WireDay {
        match self {
            Workload::WireW1Wal => WIRE_W1_WAL,
            Workload::SimW3Dense => unreachable!("the simulator workload has no wire day"),
        }
    }
}

/// Task seed of sub-day `j` of a run with seed `seed`: a SplitMix64 mix,
/// so runs with neighbouring seeds share no sub-day.
pub fn sub_seed(seed: u64, j: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(j.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `sim-w3-dense`: W-3 Day 4 (134.6k tasks/day), 1× rate.
pub const SIM_W3: DaySlice = DaySlice {
    preset: WarehousePreset::W3,
    day: 3,
    scale: 0.003,
};

/// `wire-w1-wal`: W-1 Day 1 (45.0k tasks/day), 1× rate, WAL on.
pub const WIRE_W1_WAL: WireDay = WireDay {
    slice: DaySlice {
        preset: WarehousePreset::W1,
        day: 0,
        scale: 0.01,
    },
    multiplier: 1.0,
    wal: true,
};
