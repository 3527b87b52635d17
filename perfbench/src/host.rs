//! The host's speed, measured between days with a fixed reference run.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts:
//! the same code runs 10–30 % faster or slower from one minute to the next
//! as neighbours come and go. So every day is bracketed by a
//! [`Reference`] run — code that belongs to the benchmark, not to the
//! program — and the timing metrics are scaled to the host speed at which
//! one reference run takes [`NOMINAL_S`] seconds. A change to the program
//! moves the day's time but not the reference's; a change in the host
//! moves both.
//!
//! A reference run has two halves of about equal length, because the days
//! spend their time in both: Dijkstra searches over a fixed grid (compute
//! and memory, like the planner), and round trips over loopback TCP
//! between two threads on the same core (system calls and context
//! switches, like the daemon's wire path). The round trips tracked the
//! days' drift more closely than the searches did, on the simulator too;
//! the sum of both tracked it about as well as the round trips alone.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Side of the reference grid: 512² cells, about 1.3 MiB of weights and
/// distances. It stays allocated for the whole run, so it adds that much,
/// the same on every run, to `rss_peak_mib`.
const SIDE: usize = 512;

/// Searches in one reference run.
const SEARCHES: usize = 4;

/// Loopback round trips in one reference run.
const ROUND_TRIPS: usize = 8_000;

/// Bytes each round trip carries each way: about one small wire frame.
const MESSAGE: usize = 64;

/// Seconds one reference run takes at the nominal host speed (about what
/// it took on the 2-core host the benchmark was sized on).
pub const NOMINAL_S: f64 = 0.2;

/// A fixed grid with pseudo-random edge weights, searched from the same
/// sources on every run.
pub struct Reference {
    /// Cost of entering each cell, 1..=16.
    weight: Vec<u8>,
    dist: Vec<u32>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// Build the grid (not timed).
    pub fn new() -> Reference {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let weight = (0..SIDE * SIDE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                1 + (x % 16) as u8
            })
            .collect();
        Reference {
            weight,
            dist: vec![u32::MAX; SIDE * SIDE],
            heap: BinaryHeap::new(),
        }
    }

    /// Full single-source shortest paths from `source`; returns the sum of
    /// all distances, the same on every run.
    fn search(&mut self, source: usize) -> u64 {
        self.dist.fill(u32::MAX);
        self.dist[source] = 0;
        self.heap.push(Reverse((0, source as u32)));
        while let Some(Reverse((d, v))) = self.heap.pop() {
            let v = v as usize;
            if d > self.dist[v] {
                continue;
            }
            let (r, c) = (v / SIDE, v % SIDE);
            let neighbours = [
                (r > 0).then(|| v - SIDE),
                (r + 1 < SIDE).then(|| v + SIDE),
                (c > 0).then(|| v - 1),
                (c + 1 < SIDE).then(|| v + 1),
            ];
            for u in neighbours.into_iter().flatten() {
                let nd = d + u32::from(self.weight[u]);
                if nd < self.dist[u] {
                    self.dist[u] = nd;
                    self.heap.push(Reverse((nd, u as u32)));
                }
            }
        }
        self.dist.iter().map(|&d| u64::from(d)).sum()
    }

    /// Time one reference run, in seconds: the searches plus the round
    /// trips.
    ///
    /// # Panics
    /// When loopback TCP is unavailable.
    pub fn time_run(&mut self) -> f64 {
        let start = Instant::now();
        for k in 0..SEARCHES {
            // Sources spread along the grid's diagonal.
            let cell = k * SIDE / SEARCHES;
            black_box(self.search(cell * SIDE + cell));
        }
        start.elapsed().as_secs_f64() + time_round_trips(ROUND_TRIPS)
    }
}

/// Seconds for `n` round trips of one small message between this thread
/// and an echo thread over loopback TCP (connection set-up not timed).
fn time_round_trips(n: usize) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback socket");
    let addr = listener.local_addr().expect("loopback address");
    let echo = std::thread::spawn(move || {
        let (mut peer, _) = listener.accept().expect("accept on loopback");
        peer.set_nodelay(true).expect("set TCP_NODELAY");
        let mut buf = [0u8; MESSAGE];
        // Echo until the client closes its end.
        while let Ok(read) = peer.read(&mut buf) {
            if read == 0 || peer.write_all(&buf[..read]).is_err() {
                break;
            }
        }
    });
    let mut client = TcpStream::connect(addr).expect("connect on loopback");
    client.set_nodelay(true).expect("set TCP_NODELAY");
    let mut message = [7u8; MESSAGE];
    let start = Instant::now();
    for _ in 0..n {
        client.write_all(&message).expect("send on loopback");
        client
            .read_exact(&mut message)
            .expect("receive on loopback");
    }
    let elapsed = start.elapsed().as_secs_f64();
    drop(client);
    echo.join().expect("echo thread");
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_is_deterministic_and_reaches_every_cell() {
        let mut a = Reference::new();
        let mut b = Reference::new();
        let sum = a.search(0);
        assert_eq!(sum, b.search(0));
        assert!(a.dist.iter().all(|&d| d != u32::MAX));
        assert_eq!(a.dist[0], 0);
        // Entering the neighbour to the right costs exactly its weight.
        assert_eq!(a.dist[1], u32::from(a.weight[1]));
    }

    #[test]
    fn round_trips_complete_and_take_time() {
        assert!(time_round_trips(100) > 0.0);
    }
}
