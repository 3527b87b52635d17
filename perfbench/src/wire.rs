//! The wire workloads: a day driven through the production front-end —
//! `serve_tcp_mux` on loopback TCP, one reactor thread, a serial worker —
//! by the benchmark's own client over the public `WireClient`.
//!
//! The client reproduces `carp_service::loadgen`'s three-leg workflow
//! (pickup → transmission → return, nearest free robot, retry after
//! `retry_delay` on infeasible) request for request; the self-tests pin
//! that it commits the same route set as `carp_service::run_load`. It is
//! its own code because loadgen's `DayDriver` is private and its `run_load*`
//! entry points return only aggregate, bucketed latencies.
//!
//! Load model: closed loop. All requests due at one sim-second are
//! submitted in sequence order on one connection, and their replies are
//! collected before the clock advances; each robot waits for its route.

use carp_geometry::SegmentStore;
use carp_service::mux::{serve_tcp_mux, MuxConfig};
use carp_service::service::{PlanResponse, ServiceConfig};
use carp_service::wal::{WalConfig, WalJournal};
use carp_service::{routes_digest, LoadScenario, TenantRegistry, WireClient, WireSubmitError};
use carp_simenv::SimConfig;
use carp_srp::{SrpConfig, SrpPlanner};
use carp_warehouse::collision::{validate_routes, IncrementalAuditor};
use carp_warehouse::planner::Planner;
use carp_warehouse::request::{QueryKind, Request, RequestId};
use carp_warehouse::route::Route;
use carp_warehouse::types::{Cell, Time};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crate::day::{DayRun, LayerInputs, Setup, WireObs};
use crate::probe::{geom_reset, geom_snapshot, TimedPlanner};
use crate::sim::DaySlice;

/// One wire workload: a day slice, compressed by `multiplier`, with or
/// without the changeset log.
#[derive(Debug, Clone, Copy)]
pub struct WireDay {
    /// The rate-preserving day slice before compression.
    pub slice: DaySlice,
    /// Arrival-time compression: more robots on the floor, bigger bursts.
    pub multiplier: f64,
    /// Journal every commit to a WAL (default `WalConfig`).
    pub wal: bool,
}

/// Every client-side event of the driven day, timestamped.
#[derive(Debug, Clone, Copy)]
enum Event {
    Arrive {
        task: usize,
    },
    Leg {
        task: usize,
        robot: usize,
        kind: QueryKind,
        attempt: u32,
    },
    Complete {
        robot: usize,
    },
}

struct Robot {
    pos: Cell,
    busy: bool,
}

/// Timestamps of one request, as the client saw them.
#[derive(Debug, Clone, Copy)]
pub struct RequestTimes {
    /// Request id.
    pub id: RequestId,
    /// When the first `submit` attempt began.
    pub submit: Instant,
    /// When the accepting ack arrived.
    pub acked: Instant,
    /// When `wait_plan` returned the decoded reply.
    pub replied: Instant,
}

/// Raw outcome of one driven day.
#[derive(Debug, Default)]
pub struct Drive {
    /// Final committed route per request id.
    pub routes: HashMap<RequestId, Route>,
    /// Requests submitted.
    pub submitted: u64,
    /// Legs abandoned after `max_retries`.
    pub abandoned: u64,
    /// Deadline refusals.
    pub refused: u64,
    /// Commits the online auditor refused.
    pub online_conflicts: usize,
    /// Latest route finish.
    pub makespan: Time,
    /// Wall seconds of the day.
    pub wall_s: f64,
    /// Per-request client timestamps, in submission order.
    pub requests: Vec<RequestTimes>,
    /// Nanoseconds inside `WireClient::advance`.
    pub advance_ns: u64,
    /// Nanoseconds inside any wire call.
    pub wire_call_ns: u64,
}

fn nearest_free_robot(robots: &[Robot], target: Cell) -> Option<usize> {
    robots
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.busy)
        .min_by_key(|(_, r)| r.pos.manhattan(target))
        .map(|(i, _)| i)
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

/// Drive `scenario`'s whole day through `client`, auditing every committed
/// route online as its reply arrives.
pub fn drive_day<R: Read, W: Write>(
    scenario: &LoadScenario,
    client: &mut WireClient<R, W>,
    sim: &SimConfig,
) -> Drive {
    let tenant = scenario.name.as_str();
    let tasks = &scenario.tasks;
    let mut robots: Vec<Robot> = scenario
        .layout
        .robot_spawns
        .iter()
        .map(|&pos| Robot { pos, busy: false })
        .collect();
    assert!(!robots.is_empty(), "layout has no robots");
    let mut heap: BinaryHeap<core::cmp::Reverse<(Time, u64)>> = BinaryHeap::new();
    let mut payloads: HashMap<u64, Event> = HashMap::new();
    let mut seq = 0u64;
    let push = |heap: &mut BinaryHeap<core::cmp::Reverse<(Time, u64)>>,
                payloads: &mut HashMap<u64, Event>,
                seq: &mut u64,
                t: Time,
                e: Event| {
        heap.push(core::cmp::Reverse((t, *seq)));
        payloads.insert(*seq, e);
        *seq += 1;
    };
    for (i, task) in tasks.iter().enumerate() {
        let arrive = Event::Arrive { task: i };
        push(&mut heap, &mut payloads, &mut seq, task.arrival, arrive);
    }

    let mut out = Drive::default();
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let mut auditor = IncrementalAuditor::new();
    let mut next_id: RequestId = 0;
    let day_start = Instant::now();
    while let Some(&core::cmp::Reverse((now, _))) = heap.peek() {
        let t = Instant::now();
        let revisions = client.advance(tenant, now).expect("advance over the wire");
        let ns = t.elapsed().as_nanos() as u64;
        out.advance_ns += ns;
        out.wire_call_ns += ns;
        assert!(revisions.is_empty(), "SRP never revises committed routes");

        // Every event due at `now`, in sequence order, forms one burst.
        let mut burst: Vec<(usize, usize, usize, QueryKind, u32)> = Vec::new();
        while let Some(&core::cmp::Reverse((t, _))) = heap.peek() {
            if t != now {
                break;
            }
            let core::cmp::Reverse((_, key)) = heap.pop().expect("peeked");
            match payloads.remove(&key).expect("payload") {
                Event::Arrive { task } => match nearest_free_robot(&robots, tasks[task].rack) {
                    Some(r) => {
                        robots[r].busy = true;
                        let leg = Event::Leg {
                            task,
                            robot: r,
                            kind: QueryKind::Pickup,
                            attempt: 0,
                        };
                        push(&mut heap, &mut payloads, &mut seq, now, leg);
                    }
                    None => waiting.push_back(task),
                },
                Event::Complete { robot } => {
                    robots[robot].busy = false;
                    if let Some(next) = waiting.pop_front() {
                        match nearest_free_robot(&robots, tasks[next].rack) {
                            Some(r) => {
                                robots[r].busy = true;
                                let leg = Event::Leg {
                                    task: next,
                                    robot: r,
                                    kind: QueryKind::Pickup,
                                    attempt: 0,
                                };
                                push(&mut heap, &mut payloads, &mut seq, now, leg);
                            }
                            None => waiting.push_front(next),
                        }
                    }
                }
                Event::Leg {
                    task,
                    robot,
                    kind,
                    attempt,
                } => {
                    let tk = tasks[task];
                    let (origin, destination) = match kind {
                        QueryKind::Pickup => (robots[robot].pos, tk.rack),
                        QueryKind::Transmission => (tk.rack, tk.picker),
                        QueryKind::Return => (tk.picker, tk.rack),
                    };
                    let id = next_id;
                    next_id += 1;
                    let request = Request::new(id, now, origin, destination, kind);
                    let submit = Instant::now();
                    loop {
                        match client.submit(tenant, &request) {
                            Ok(()) => break,
                            Err(WireSubmitError::Backpressure { retry_after, .. })
                            | Err(WireSubmitError::Throttled { retry_after }) => {
                                std::thread::sleep(retry_after)
                            }
                            Err(e) => panic!("submission refused mid-run: {e}"),
                        }
                    }
                    let acked = Instant::now();
                    out.wire_call_ns += ns_between(submit, acked);
                    out.submitted += 1;
                    out.requests.push(RequestTimes {
                        id,
                        submit,
                        acked,
                        replied: acked,
                    });
                    burst.push((out.requests.len() - 1, task, robot, kind, attempt));
                }
            }
        }

        for (slot, task, robot, kind, attempt) in burst {
            let id = out.requests[slot].id;
            let t = Instant::now();
            let reply = client.wait_plan(id).expect("plan reply over the wire");
            let replied = Instant::now();
            out.wire_call_ns += ns_between(t, replied);
            out.requests[slot].replied = replied;
            match reply {
                PlanResponse::Planned(route) => {
                    out.makespan = out.makespan.max(route.finish_exclusive());
                    let end = route.end_time();
                    if auditor.commit(id, &route).is_err() {
                        out.online_conflicts += 1;
                    }
                    out.routes.insert(id, route);
                    let tk = tasks[task];
                    let next = match kind {
                        QueryKind::Pickup => {
                            robots[robot].pos = tk.rack;
                            Some(QueryKind::Transmission)
                        }
                        QueryKind::Transmission => {
                            robots[robot].pos = tk.picker;
                            Some(QueryKind::Return)
                        }
                        QueryKind::Return => {
                            robots[robot].pos = tk.rack;
                            None
                        }
                    };
                    match next {
                        Some(kind) => {
                            let leg = Event::Leg {
                                task,
                                robot,
                                kind,
                                attempt: 0,
                            };
                            let at = end + sim.service_time;
                            push(&mut heap, &mut payloads, &mut seq, at, leg);
                        }
                        None => {
                            let done = Event::Complete { robot };
                            push(&mut heap, &mut payloads, &mut seq, end, done);
                        }
                    }
                }
                PlanResponse::ServiceDied => panic!("service died mid-run"),
                resp => {
                    if resp.is_refusal() {
                        out.refused += 1;
                    }
                    if attempt < sim.max_retries {
                        let leg = Event::Leg {
                            task,
                            robot,
                            kind,
                            attempt: attempt + 1,
                        };
                        let at = now + sim.retry_delay;
                        push(&mut heap, &mut payloads, &mut seq, at, leg);
                    } else {
                        out.abandoned += 1;
                        robots[robot].busy = false;
                    }
                }
            }
        }
    }
    out.wall_s = day_start.elapsed().as_secs_f64();
    out
}

/// A daemon serving one tenant over loopback TCP, plus a connected client.
pub struct Daemon {
    registry: Arc<TenantRegistry>,
    shutdown: Arc<AtomicBool>,
    server: JoinHandle<std::io::Result<()>>,
    journal: Option<Arc<WalJournal>>,
    wal_path: Option<PathBuf>,
    /// The connected client.
    pub client: WireClient<TcpStream, TcpStream>,
}

impl Daemon {
    /// Register `planner` as `tenant` on a serial worker (deadlines off,
    /// so routes are bit-deterministic), start the event-loop front-end
    /// with one reactor thread on an ephemeral loopback port, and connect.
    /// With `wal_path`, every commit is journaled there first.
    pub fn start<P: Planner + Send + 'static>(
        tenant: &str,
        planner: P,
        wal_path: Option<&Path>,
    ) -> std::io::Result<Daemon> {
        let registry = Arc::new(TenantRegistry::new());
        let journal = match wal_path {
            Some(path) => {
                let j = WalJournal::create_with(path, WalConfig::default())?;
                registry.attach_journal(Arc::clone(&j));
                Some(j)
            }
            None => None,
        };
        let config = ServiceConfig {
            deadline: None,
            ..ServiceConfig::default()
        };
        registry.register(tenant.to_string(), planner, config);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = {
            let registry = Arc::clone(&registry);
            let shutdown = Arc::clone(&shutdown);
            let mux = MuxConfig {
                threads: 1,
                ..MuxConfig::default()
            };
            std::thread::Builder::new()
                .name("bench-mux".into())
                .spawn(move || serve_tcp_mux(listener, registry, shutdown, mux, Arc::default()))?
        };
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let client = WireClient::new(stream.try_clone()?, stream);
        Ok(Daemon {
            registry,
            shutdown,
            server,
            journal,
            wal_path: wal_path.map(Path::to_path_buf),
            client,
        })
    }

    /// Hang up, stop the front-end, drain the tenant and hand back its
    /// planner, the wire counters and the journal's counters. Deletes the
    /// journal file.
    pub fn stop<P: Planner + Send + 'static>(
        mut self,
        tenant: &str,
    ) -> (P, carp_service::WireCounters, carp_service::wal::WalStats) {
        let (_, wire) = self
            .client
            .metrics(tenant)
            .expect("metrics query over the wire");
        drop(self.client);
        self.shutdown.store(true, Ordering::SeqCst);
        self.server
            .join()
            .expect("mux server panicked")
            .expect("mux server exits clean");
        let planner = match self
            .registry
            .remove(tenant)
            .expect("tenant registered")
            .downcast::<P>()
        {
            Ok(p) => *p,
            Err(_) => panic!("tenant planner has the registered type"),
        };
        let wal = self.journal.map(|j| j.stats()).unwrap_or_default();
        if let Some(path) = self.wal_path {
            std::fs::remove_file(path).expect("remove the day's changeset log");
        }
        (planner, wire, wal)
    }
}

/// Where a day's changeset log goes: a file in the working directory's
/// `.bench_tmp/`, unique to this process.
fn wal_path() -> PathBuf {
    let dir = PathBuf::from(".bench_tmp");
    std::fs::create_dir_all(&dir).expect("create .bench_tmp");
    dir.join(format!("day-{}.wal", std::process::id()))
}

/// Set up and drive one day of `spec` with task seed `seed`.
pub fn run_day<S: SegmentStore + Default + Send + 'static>(
    spec: WireDay,
    seed: u64,
    traced: bool,
) -> DayRun {
    const TENANT: &str = "bench";
    let setup_start = Instant::now();
    let layout = spec.slice.preset.generate();
    let layout_ms = setup_start.elapsed().as_secs_f64() * 1e3;
    let scenario = LoadScenario {
        name: TENANT.to_string(),
        tasks: spec.slice.tasks(&layout, spec.multiplier, seed),
        layout,
        rate_multiplier: spec.multiplier,
        seed,
    };
    let graph_start = Instant::now();
    let config = SrpConfig {
        instrument: traced,
        ..SrpConfig::default()
    };
    let srp = SrpPlanner::<S>::with_store(scenario.layout.matrix.clone(), config);
    let strip_graph_ms = graph_start.elapsed().as_secs_f64() * 1e3;
    let planner = TimedPlanner::new(srp, traced, false);
    let wal = spec.wal.then(wal_path);
    let mut daemon = Daemon::start(TENANT, planner, wal.as_deref()).expect("start the daemon");
    let setup = Setup {
        total_s: setup_start.elapsed().as_secs_f64(),
        layout_ms,
        strip_graph_ms,
    };

    geom_reset();
    let drive = drive_day(&scenario, &mut daemon.client, &SimConfig::default());
    let (mut planner, counters, wal_stats): (TimedPlanner<S>, _, _) = daemon.stop(TENANT);
    planner.finish_day();
    let geom = geom_snapshot();

    let flat: Vec<Route> = drive.routes.values().cloned().collect();
    let batch_conflict = usize::from(validate_routes(&flat).is_some());
    let mut ledger = std::mem::take(&mut planner.ledger);
    let spans = std::mem::take(&mut ledger.spans);
    let mut wire = WireObs {
        ack_ns: drive
            .requests
            .iter()
            .map(|r| ns_between(r.submit, r.acked))
            .collect(),
        advance_rtt_ns: drive.advance_ns,
        wire_call_ns: drive.wire_call_ns,
        frames_out: counters.frames_sent,
        wire_bytes: counters.bytes_sent + counters.bytes_received,
        wal_appends: wal_stats.appends,
        wal_bytes: wal_stats.bytes,
        wal_fsyncs: wal_stats.fsyncs,
        ..WireObs::default()
    };
    if traced {
        // Split each turnaround at the decorator's plan() entry and exit:
        // queue wait + plan + reply telescopes to the whole.
        let by_id: HashMap<RequestId, (Instant, Instant)> =
            spans.iter().map(|&(id, a, b)| (id, (a, b))).collect();
        for r in &drive.requests {
            let Some(&(entry, exit)) = by_id.get(&r.id) else {
                wire.sum_mismatches += 1;
                continue;
            };
            let queue = ns_between(r.submit, entry);
            let plan = ns_between(entry, exit);
            let reply = ns_between(exit, r.replied);
            if r.submit > entry
                || exit > r.replied
                || queue + plan + reply != ns_between(r.submit, r.replied)
            {
                wire.sum_mismatches += 1;
            }
            wire.queue_wait_ns.push(queue);
            wire.reply_ns.push(reply);
        }
    }
    DayRun {
        setup,
        wall_s: drive.wall_s,
        digest: routes_digest(&drive.routes),
        submitted: drive.submitted,
        committed: drive.routes.len() as u64,
        abandoned: drive.abandoned,
        refused: drive.refused,
        audit_conflicts: drive.online_conflicts + batch_conflict,
        makespan: drive.makespan,
        tc_s: ledger.plan_ns as f64 * 1e-9,
        mc_bytes: ledger.mem_peak_bytes,
        turnaround_ns: drive
            .requests
            .iter()
            .map(|r| ns_between(r.submit, r.replied))
            .collect(),
        layers: LayerInputs {
            srp: planner.inner().stats,
            engine: planner.engine_metrics().unwrap_or_default(),
            geom,
            ledger,
            wire,
        },
        reference_s: 0.0,
    }
}
