//! Property tests for the exact early exit of the Phase-1 strip search
//! (DESIGN.md §6).
//!
//! Debug builds confirm every early exit inside the planner: the cut
//! search is finished without exits and must never label the goal. These
//! tests drive that check over random small layouts with seeded background
//! traffic dense enough that many searches fail, and pin the two facts the
//! exit's exactness rests on.

use carp_srp::{SrpConfig, SrpPlanner};
use carp_warehouse::collision::validate_routes;
use carp_warehouse::layout::LayoutConfig;
use carp_warehouse::tasks::generate_requests;
use carp_warehouse::{PlanOutcome, Planner, Route};
use proptest::prelude::*;

fn arb_layout() -> impl Strategy<Value = LayoutConfig> {
    (2u16..5, 1u16..3, 1u16..3, 16u32..80).prop_map(|(cluster_len, col_gap, band_gap, racks)| {
        LayoutConfig {
            rows: 24,
            cols: 20,
            cluster_len,
            col_gap,
            band_gap,
            margin_top: 2,
            margin_bottom: 3,
            margin_left: 2,
            margin_right: 2,
            target_racks: racks,
            pickers: 4,
            robots: 6,
        }
    })
}

/// Plan a dense stream (every route committed, retirement interleaved),
/// then probe a second stream with uncommitted plans. Returns the planner
/// and the committed routes.
fn drive(
    cfg: &LayoutConfig,
    seed: u64,
    rate: f64,
    use_heuristic: bool,
) -> (SrpPlanner, Vec<Route>) {
    let layout = cfg.generate();
    let mut planner = SrpPlanner::new(
        layout.matrix.clone(),
        SrpConfig {
            use_heuristic,
            ..SrpConfig::default()
        },
    );
    let mut routes = Vec::new();
    for req in generate_requests(&layout, 80, rate, seed) {
        planner.advance(req.t);
        if let PlanOutcome::Planned(r) = planner.plan(&req) {
            routes.push(r);
        }
    }
    for req in generate_requests(&layout, 40, rate, seed ^ 0x5eed) {
        if let Some(r) = planner.plan_uncommitted(&req) {
            assert!(r.validate(planner.matrix()).is_ok());
        }
    }
    (planner, routes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn early_exits_never_drop_a_route(
        cfg in arb_layout(),
        seed in 0u64..u64::MAX,
        rate in 4u32..16,
        heuristic in 0u8..2,
    ) {
        // Every cut-short search runs to completion in the debug check, so
        // a wrong verdict panics inside `drive`.
        let (planner, routes) = drive(&cfg, seed, f64::from(rate), heuristic == 1);
        prop_assert_eq!(validate_routes(&routes), None);
        prop_assert_eq!(planner.stats.planned, routes.len());
    }

    #[test]
    fn strip_adjacency_is_symmetric(cfg in arb_layout()) {
        // Rule 2 walks from the destination along `edges(x)`; that finds
        // every strip with a path *to* the destination only because each
        // edge has its reverse.
        let planner = SrpPlanner::new(cfg.generate().matrix, SrpConfig::default());
        let g = planner.graph();
        for u in 0..g.num_vertices() as u32 {
            for e in g.edges(u) {
                prop_assert!(
                    g.edges(e.to).iter().any(|back| back.to == u),
                    "edge {} → {} has no reverse", u, e.to
                );
            }
        }
    }
}

#[test]
fn dense_streams_fire_both_exit_rules() {
    // The debug check above is only as strong as the number of verdicts it
    // sees: on this fixed dense stream both rules fire many times.
    let cfg = LayoutConfig::small();
    let mut cut = carp_srp::CutShort::default();
    for seed in 0..4 {
        let (planner, _) = drive(&cfg, seed, 12.0, true);
        cut.final_leg += planner.stats.searches_cut_short.final_leg;
        cut.unreachable += planner.stats.searches_cut_short.unreachable;
    }
    println!("searches cut short: {cut:?}");
    assert!(cut.final_leg >= 10, "rule 1 fired {} times", cut.final_leg);
    assert!(
        cut.unreachable >= 10,
        "rule 2 fired {} times",
        cut.unreachable
    );
}
