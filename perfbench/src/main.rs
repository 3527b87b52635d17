//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! A run drives whole cycles of the workload's sub-days — independent day
//! slices whose task seeds derive from `--seed` — each on a fresh set-up,
//! until `--seconds` have passed (at least one cycle). A warm-up day (sub-
//! day 0, repeated) comes first and is not measured.
//!
//! Untraced (`--trace 0`): prints the end-to-end metrics, trimmed means and
//! a median over the sub-days, and the pooled turnaround percentiles on
//! stderr. Traced (`--trace 1`): drives the first half of the cycle twice
//! per sub-day, untraced then traced, and prints the per-layer metrics
//! including the tracing overhead. Every day is audited, and every repeat
//! of a sub-day must commit the same route set; the last stdout line is the
//! JSON result.
//!
//! Every day is bracketed by runs of the host reference kernel, and the
//! end-to-end times are reported at the nominal host speed (see `host`);
//! stderr also prints them as measured.

use carp_perfbench::day::DayRun;
use carp_perfbench::host::Reference;
use carp_perfbench::metrics::{
    end_to_end, median_metrics, per_layer, plans_per_s, result_line, rss_peak_mib, Metric,
};
use carp_perfbench::stats::{median, Summary};
use carp_perfbench::{sub_seed, Workload};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// A run must end well within 180 s: no day starts once this much time
/// has passed.
const HARD_STOP: Duration = Duration::from_secs(130);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds expects an integer")?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Audit verdicts of one day, reported on stderr; `true` when clean.
/// `reference` is the digest of the sub-day's first observation.
fn day_ok(label: &str, day: &DayRun, reference: u64) -> bool {
    eprintln!(
        "  {label}: wall {:.3} s, tc {:.3} s, setup {:.4} s, reference {:.3} s, \
         {} requests, {} committed, {} abandoned, {} refused, digest {:#018x}, \
         audit conflicts {}",
        day.wall_s,
        day.tc_s,
        day.setup.total_s,
        day.reference_s,
        day.submitted,
        day.committed,
        day.abandoned,
        day.refused,
        day.digest,
        day.audit_conflicts
    );
    let mut ok = true;
    if day.audit_conflicts != 0 {
        eprintln!("  FAIL: {label} has audited conflicts");
        ok = false;
    }
    if day.digest != reference {
        eprintln!("  FAIL: {label} digest differs from this sub-day's first run {reference:#018x}");
        ok = false;
    }
    if day.layers.wire.sum_mismatches != 0 {
        eprintln!(
            "  FAIL: {label}: {} requests where queue wait + plan + reply != turnaround",
            day.layers.wire.sum_mismatches
        );
        ok = false;
    }
    ok
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    eprintln!("{title}");
    for (name, unit, value) in metrics {
        eprintln!("  {name:<32} {value:>16.6} {unit}");
    }
}

/// One malloc arena for the whole process (glibc). The harness starts a
/// fresh daemon — new worker and reactor threads — for every sub-day; with
/// per-thread arenas the peak RSS depends on which arena each new thread
/// happens to get and swings by a third between runs of one seed. With one
/// arena `rss_peak_mib` is the working set of the heaviest sub-day.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    const M_ARENA_MAX: std::os::raw::c_int = -8;
    extern "C" {
        fn mallopt(param: std::os::raw::c_int, value: std::os::raw::c_int) -> std::os::raw::c_int;
    }
    // SAFETY: mallopt takes two integers and changes only allocator
    // settings; it runs before this process starts any other thread.
    let ok = unsafe { mallopt(M_ARENA_MAX, 1) };
    assert_eq!(ok, 1, "mallopt(M_ARENA_MAX, 1) failed");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

/// Pin the process to the highest-numbered CPU it may run on, and return
/// that CPU. Threads started later inherit the pin, so the daemon's
/// reactor and worker share the core with the client: they alternate in
/// lockstep and need no second core, and on two cores of a shared host a
/// round trip across cores moved by half again as much as the host's own
/// speed did. Pinned, the day and the reference runs that bracket it also
/// see the same core.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    // A cpu_set_t of 1024 bits, as glibc defines it.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: both calls read or write exactly one CpuSet of the size
    // passed; pid 0 is the calling thread, the only one so far.
    if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut only: CpuSet = [0; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    (unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &only) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

fn main() -> ExitCode {
    single_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => return usage(&msg),
    };
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned = pin_to_one_cpu();
    eprintln!(
        "perfbench {} seed {} ({} s, trace {}), {cores} cores, pinned to CPU {pinned:?}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );

    let cycle = w.sub_days();
    // Digest of each sub-day's first observation: every later run of the
    // same sub-day, traced or not, must commit the same routes.
    let mut digests: HashMap<u64, u64> = HashMap::new();
    let mut correct = true;
    let mut observe = |label: String, j: u64, day: &DayRun| {
        let reference = *digests.entry(j).or_insert(day.digest);
        day_ok(&label, day, reference)
    };
    // The host's speed just before and just after each day.
    let mut reference = Reference::new();
    reference.time_run();
    let mut previous_reference = reference.time_run();
    let mut bracket = |mut day: DayRun| {
        let next = reference.time_run();
        day.reference_s = (previous_reference + next) / 2.0;
        previous_reference = next;
        day
    };
    let warmup = bracket(w.run_day(sub_seed(args.seed, 0), false));
    correct &= observe("warm-up (sub-day 0)".into(), 0, &warmup);
    drop(warmup);

    let mut untraced: Vec<DayRun> = Vec::new();
    let mut traced: Vec<DayRun> = Vec::new();
    let per_pass = if args.trace { cycle.div_ceil(2) } else { cycle };
    'passes: loop {
        for j in 0..per_pass {
            let seed = sub_seed(args.seed, j);
            let day = bracket(w.run_day(seed, false));
            correct &= observe(format!("sub-day {j} untraced"), j, &day);
            untraced.push(day);
            if args.trace {
                let day = bracket(w.run_day(seed, true));
                correct &= observe(format!("sub-day {j} traced"), j, &day);
                traced.push(day);
            }
            if started.elapsed() >= HARD_STOP {
                break 'passes;
            }
        }
        if started.elapsed() >= budget {
            break;
        }
    }

    let all = untraced.iter().chain(&traced);
    let attempted: u64 = all.clone().map(|d| d.submitted).sum();
    let failed: u64 = all.map(|d| d.abandoned + d.refused).sum();

    let e2e = end_to_end(&untraced, rss_peak_mib(), true);
    // Per-request turnaround is reported, not gated (see README.md): the
    // pooled order statistics here, per sub-day ones in the traced run.
    let mut pooled: Vec<u64> = untraced
        .iter()
        .flat_map(|d| d.turnaround_ns.iter().copied())
        .collect();
    let pooled = Summary::of(&mut pooled);
    eprintln!(
        "turnaround over {} untraced sub-days: {} samples, p50 {:.1} us, p90 {:.1} us, \
         p99 {:.1} us ({} beyond), max {:.1} us",
        untraced.len(),
        pooled.n,
        pooled.p50 as f64 * 1e-3,
        pooled.p90 as f64 * 1e-3,
        pooled.p99 as f64 * 1e-3,
        pooled.beyond_p99,
        pooled.max as f64 * 1e-3
    );
    let thin = untraced
        .iter()
        .filter(|d| Summary::of(&mut d.turnaround_ns.clone()).beyond_p99 < 10)
        .count();
    if thin > 0 {
        eprintln!("FAIL: {thin} sub-days have fewer than 10 samples beyond their p99");
        correct = false;
    }
    print_metrics(
        "end to end (untraced, as measured):",
        &end_to_end(&untraced, rss_peak_mib(), false),
    );
    print_metrics("end to end (untraced, at the nominal host speed):", &e2e);

    let metrics = if args.trace {
        let traced_e2e = end_to_end(&traced, rss_peak_mib(), true);
        print_metrics("end to end (traced):", &traced_e2e);
        let mut layers =
            median_metrics(&traced.iter().map(|d| per_layer(d, w)).collect::<Vec<_>>());
        // Paired by sub-day: the same inputs, traced versus untraced.
        let ratios: Vec<f64> = traced
            .iter()
            .zip(&untraced)
            .map(|(t, u)| plans_per_s(t) / plans_per_s(u))
            .collect();
        let overhead = 1.0 - median(&ratios);
        if let Some(m) = layers.iter_mut().find(|m| m.0 == "bench.trace_overhead") {
            m.2 = overhead;
        }
        print_metrics("per layer (traced):", &layers);
        layers
    } else {
        e2e
    };
    let failed_note = if correct { "" } else { " — FAILED" };
    eprintln!(
        "{} days in {:.1} s{failed_note}",
        untraced.len() + traced.len(),
        started.elapsed().as_secs_f64()
    );
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
