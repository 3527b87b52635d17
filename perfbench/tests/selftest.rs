//! Self-tests of the benchmark: its wire client and decorators change no route,
//! and the metric names agree with `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use carp_perfbench::day::DayRun;
use carp_perfbench::metrics::{end_to_end, per_layer};
use carp_perfbench::probe::{TimedPlanner, TimedStore};
use carp_perfbench::sim::DaySlice;
use carp_perfbench::wire::{self, drive_day, Daemon, WireDay};
use carp_perfbench::{sim, Workload};
use carp_service::service::ServiceConfig;
use carp_service::{routes_digest, run_load, LoadScenario};
use carp_simenv::SimConfig;
use carp_srp::{SrpConfig, SrpPlanner};
use carp_warehouse::layout::WarehousePreset;

fn deterministic_service() -> ServiceConfig {
    ServiceConfig {
        deadline: None,
        ..ServiceConfig::default()
    }
}

/// A small, congested W-1 day: 90 tasks compressed 4×.
fn small_scenario(seed: u64) -> LoadScenario {
    LoadScenario::new("W-1", WarehousePreset::W1.generate(), 90, 900, 4.0, seed)
}

#[test]
fn wire_client_commits_the_same_routes_as_run_load() {
    for seed in [3, 104] {
        let scenario = small_scenario(seed);
        let (reference, _) = run_load(
            &scenario,
            SrpPlanner::new(scenario.layout.matrix.clone(), SrpConfig::default()),
            SimConfig::default(),
            deterministic_service(),
        );
        assert_eq!(reference.audit_conflicts, 0);

        let planner = SrpPlanner::new(scenario.layout.matrix.clone(), SrpConfig::default());
        let mut daemon = Daemon::start(&scenario.name, planner, None).expect("daemon starts");
        let drive = drive_day(&scenario, &mut daemon.client, &SimConfig::default());
        let _: (SrpPlanner, _, _) = daemon.stop(&scenario.name);
        assert_eq!(drive.online_conflicts, 0);
        assert_eq!(
            drive.routes.len(),
            reference.requests - reference.failed_requests
        );
        assert_eq!(
            routes_digest(&drive.routes),
            reference.routes_digest,
            "seed {seed}: benchmark client over TCP vs run_load over the duplex"
        );
    }
}

#[test]
fn timing_decorators_change_no_route() {
    let scenario = small_scenario(7);
    let matrix = || scenario.layout.matrix.clone();
    let run = |planner: Box<dyn carp_warehouse::planner::Planner + Send>| {
        run_load(
            &scenario,
            planner,
            SimConfig::default(),
            deterministic_service(),
        )
        .0
        .routes_digest
    };
    let plain = run(Box::new(SrpPlanner::new(matrix(), SrpConfig::default())));
    let instrumented = SrpConfig {
        instrument: true,
        ..SrpConfig::default()
    };
    let timed_store = run(Box::new(SrpPlanner::<TimedStore>::with_store(
        matrix(),
        instrumented.clone(),
    )));
    let both = run(Box::new(TimedPlanner::new(
        SrpPlanner::<TimedStore>::with_store(matrix(), instrumented),
        true,
        true,
    )));
    assert_eq!(timed_store, plain, "store decorator + instrument");
    assert_eq!(both, plain, "planner decorator over the store decorator");
}

#[test]
fn traced_and_untraced_days_agree() {
    let slice = DaySlice {
        preset: WarehousePreset::W1,
        day: 0,
        scale: 0.002,
    };
    let sim_plain = sim::run_day::<carp_geometry::SlopeIndexStore>(slice, 5, false);
    let sim_traced = sim::run_day::<TimedStore>(slice, 5, true);
    assert_eq!(sim_plain.audit_conflicts, 0);
    assert_eq!(sim_plain.digest, sim_traced.digest);
    assert_eq!(sim_plain.makespan, sim_traced.makespan);

    let spec = WireDay {
        slice,
        multiplier: 2.0,
        wal: true,
    };
    let plain = wire::run_day::<carp_geometry::SlopeIndexStore>(spec, 5, false);
    let traced = wire::run_day::<TimedStore>(spec, 5, true);
    assert_eq!(plain.audit_conflicts, 0);
    assert_eq!(plain.digest, traced.digest);
    assert!(
        traced.layers.wire.wal_appends > 0,
        "the WAL journals commits"
    );
    assert_eq!(traced.layers.wire.sum_mismatches, 0);
    assert_eq!(
        traced.layers.wire.queue_wait_ns.len(),
        traced.turnaround_ns.len()
    );
}

/// Values of `field` in the objects of one array of `BENCHMARK.json`, in
/// order.
fn field_in(json: &str, array: &str, field: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{array}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {array}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split(&format!("\"{field}\": \""))
        .skip(1)
        .map(|s| s[..s.find('"').expect("string closes")].to_string())
        .collect()
}

#[test]
fn metric_names_and_units_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let day = DayRun {
        wall_s: 1.0,
        turnaround_ns: vec![1],
        ..DayRun::default()
    };
    let e2e = end_to_end(std::slice::from_ref(&day), 1.0, true);
    let layers = per_layer(&day, Workload::SimW3Dense);
    for (array, metrics) in [("end_to_end", &e2e), ("per_layer", &layers)] {
        let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
        let units: Vec<&str> = metrics.iter().map(|m| m.1).collect();
        assert_eq!(field_in(&json, array, "name"), names, "{array} names");
        assert_eq!(field_in(&json, array, "unit"), units, "{array} units");
    }
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(field_in(&json, "workloads", "name"), workloads);
}
