//! From driven days to named metrics, and the result line.

use crate::day::DayRun;
use crate::stats::{median, trimmed_mean, Summary};
use crate::Workload;

/// One reported metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn us(ns: u64) -> f64 {
    ns as f64 * 1e-3
}

/// p50 and p99 in µs of a sample set, or zeros when the layer took none.
fn p50_p99_us(samples: &[u64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let s = Summary::of(&mut samples.to_vec());
    (us(s.p50), us(s.p99))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Routes committed per wall second of the driven day, as measured.
pub fn plans_per_s(day: &DayRun) -> f64 {
    day.committed as f64 / day.wall_s
}

/// The end-to-end metrics over the untraced days of one run: set-up time
/// is the median over the days, every other metric the trimmed mean
/// (`stats::trimmed_mean`). With `at_nominal_host` every time is first
/// scaled to the nominal host speed by the day's own reference runs (see
/// `host`); the result line reports those, stderr both.
pub fn end_to_end(days: &[DayRun], rss_mib: f64, at_nominal_host: bool) -> Vec<Metric> {
    let per_day = |f: &dyn Fn(&DayRun) -> f64| days.iter().map(f).collect::<Vec<_>>();
    let mean = |f: &dyn Fn(&DayRun) -> f64| trimmed_mean(&per_day(f));
    let scale = |d: &DayRun| if at_nominal_host { d.host_scale() } else { 1.0 };
    vec![
        ("plans_per_s", "1/s", mean(&|d| plans_per_s(d) / scale(d))),
        ("tc_s", "s", mean(&|d| d.tc_s * scale(d))),
        ("makespan", "sim-s", mean(&|d| f64::from(d.makespan))),
        ("mc_kib", "KiB", mean(&|d| d.mc_bytes as f64 / 1024.0)),
        ("rss_peak_mib", "MiB", rss_mib),
        (
            "setup_s",
            "s",
            median(&per_day(&|d| d.setup.total_s * scale(d))),
        ),
    ]
}

/// The per-layer metrics of one traced day. Layers that do not run on the
/// workload (the service on the simulator, the WAL without journaling)
/// report 0. `trace_overhead` is filled in by the caller.
pub fn per_layer(day: &DayRun, workload: Workload) -> Vec<Metric> {
    let l = &day.layers;
    let (led, s, g, w) = (&l.ledger, &l.srp, &l.geom, &l.wire);
    let plans = led.plan_calls.max(1) as f64;
    let (ack50, ack99) = p50_p99_us(&w.ack_ns);
    let (queue50, queue99) = p50_p99_us(&w.queue_wait_ns);
    let (reply50, reply99) = p50_p99_us(&w.reply_ns);
    let turnaround = Summary::of(&mut day.turnaround_ns.clone());
    let (simenv_self, client) = if workload.is_wire() {
        (0.0, day.wall_s - secs(w.wire_call_ns))
    } else {
        (day.wall_s - secs(led.plan_ns) - secs(led.advance_ns), 0.0)
    };
    vec![
        ("warehouse.layout_ms", "ms", day.setup.layout_ms),
        ("srp.strip_graph.build_ms", "ms", day.setup.strip_graph_ms),
        ("srp.planner.plan_calls", "count", led.plan_calls as f64),
        ("srp.planner.plan_s", "s", secs(led.plan_ns)),
        ("srp.planner.direct_s", "s", secs(led.direct_ns)),
        ("srp.planner.retry_s", "s", secs(led.retry_ns)),
        ("srp.planner.infeasible_s", "s", secs(led.infeasible_ns)),
        ("srp.planner.retries", "count", s.retries as f64),
        ("srp.planner.infeasible", "count", s.infeasible as f64),
        (
            "srp.planner.strips_settled",
            "count",
            s.strips_settled as f64,
        ),
        (
            "srp.planner.settled_per_plan",
            "count",
            s.strips_settled as f64 / plans,
        ),
        ("srp.inter_s", "s", secs(s.inter_ns)),
        ("srp.intra.calls", "count", s.intra_calls as f64),
        ("srp.intra_s", "s", secs(s.intra_ns)),
        (
            "srp.intra.self_s",
            "s",
            secs(s.intra_ns) - secs(g.collide_ns) - secs(g.free_ns),
        ),
        ("srp.convert_s", "s", secs(s.convert_ns)),
        ("spacetime.astar.fallbacks", "count", s.fallbacks as f64),
        ("spacetime.astar.fallback_s", "s", secs(led.fallback_ns)),
        (
            "spacetime.astar.peak_kib",
            "KiB",
            s.fallback_peak_bytes as f64 / 1024.0,
        ),
        (
            "srp.planner.advance_calls",
            "count",
            led.advance_calls as f64,
        ),
        ("srp.planner.advance_s", "s", secs(led.advance_ns)),
        ("geometry.collide_calls", "count", g.collide_calls as f64),
        ("geometry.collide_s", "s", secs(g.collide_ns)),
        ("geometry.free_point_calls", "count", g.free_calls as f64),
        ("geometry.free_point_s", "s", secs(g.free_ns)),
        (
            "geometry.start_probe_calls",
            "count",
            g.start_probe_calls as f64,
        ),
        ("geometry.start_probe_s", "s", secs(g.start_probe_ns)),
        (
            "geometry.commit_probe_calls",
            "count",
            g.commit_probe_calls as f64,
        ),
        ("geometry.commit_probe_s", "s", secs(g.commit_probe_ns)),
        ("geometry.insert_calls", "count", g.insert_calls as f64),
        ("geometry.insert_s", "s", secs(g.insert_ns)),
        ("geometry.remove_calls", "count", g.remove_calls as f64),
        ("geometry.remove_s", "s", secs(g.remove_ns)),
        ("geometry.segments_peak", "count", g.peak_segments as f64),
        (
            "geometry.probe_queries",
            "count",
            l.engine.probe_queries as f64,
        ),
        (
            "geometry.retire_batch_size",
            "count",
            l.engine.retire_batch_size,
        ),
        ("simenv.self_s", "s", simenv_self),
        ("service.ack_p50_us", "us", ack50),
        ("service.ack_p99_us", "us", ack99),
        ("service.wire.frames_out", "count", w.frames_out as f64),
        (
            "service.wire.bytes_per_plan",
            "B",
            w.wire_bytes as f64 / day.submitted.max(1) as f64,
        ),
        ("service.queue_wait_p50_us", "us", queue50),
        ("service.queue_wait_p99_us", "us", queue99),
        ("service.reply_p50_us", "us", reply50),
        ("service.reply_p99_us", "us", reply99),
        ("service.advance_rtt_s", "s", secs(w.advance_rtt_ns)),
        ("service.wal.appends", "count", w.wal_appends as f64),
        ("service.wal.bytes", "B", w.wal_bytes as f64),
        ("service.wal.fsyncs", "count", w.wal_fsyncs as f64),
        ("bench.client_s", "s", client),
        (
            "bench.fail_share",
            "ratio",
            (day.abandoned + day.refused) as f64 / day.submitted.max(1) as f64,
        ),
        ("bench.turnaround_samples", "count", turnaround.n as f64),
        ("bench.turnaround_p50_us", "us", us(turnaround.p50)),
        ("bench.turnaround_p90_us", "us", us(turnaround.p90)),
        ("bench.turnaround_p99_us", "us", us(turnaround.p99)),
        ("bench.beyond_p99", "count", turnaround.beyond_p99 as f64),
        ("bench.trace_overhead", "ratio", 0.0),
    ]
}

/// Per-metric median over several traced days.
pub fn median_metrics(runs: &[Vec<Metric>]) -> Vec<Metric> {
    runs[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, unit, _))| {
            let values: Vec<f64> = runs.iter().map(|r| r[i].2).collect();
            (name, unit, median(&values))
        })
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric with its unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
