//! Segment-store engine: the per-strip stores of the SRP planner.
//!
//! [`StoreEngine`] owns one segment store per strip (a *shard*), allocated
//! on first insert and dropped again when it empties:
//!
//! * batched collision probes for a candidate route whose segments span
//!   many strips go through [`StoreEngine::collide_many`], which hands
//!   each run of consecutive same-shard queries to one store-level
//!   [`SegmentStore::collide_many`] call;
//! * route retirement is batched: [`StoreEngine::remove_batch`] groups the
//!   drained retire queue into per-shard removal lists and applies each
//!   shard's list through one [`SegmentStore::remove_batch`] call, instead
//!   of one map traversal per segment.
//!
//! The engine has a single owner (the planner) and is mutated only through
//! `&mut self`, so its operation counters are plain integers.

use crate::intersect::SegCollision;
use crate::segment::Segment;
use crate::store::{SegmentId, SegmentStore};
use carp_warehouse::memory;
use std::collections::HashMap;

/// Key of one shard. This is the planner's `StripId`; the engine lives one
/// layer below the strip graph and only needs a hashable key.
pub type ShardKey = u32;

/// Cumulative operation counters of an engine (monotone; never reset).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// `collide_many` calls.
    pub probe_batches: u64,
    /// Individual queries across all `collide_many` calls.
    pub probe_queries: u64,
    /// `remove_batch` calls.
    pub retire_batches: u64,
    /// Segments removed across all `remove_batch` calls.
    pub retired_segments: u64,
}

impl EngineStats {
    /// Mean segments retired per removal batch.
    pub fn mean_retire_batch(&self) -> f64 {
        if self.retire_batches == 0 {
            0.0
        } else {
            self.retired_segments as f64 / self.retire_batches as f64
        }
    }
}

/// The per-strip segment-store engine (see module docs).
#[derive(Debug, Default, Clone)]
pub struct StoreEngine<S> {
    /// Shards are boxed and allocated lazily: most strips carry no traffic
    /// at any given moment, and inline store shells in the map slots would
    /// dominate the engine's memory footprint.
    shards: HashMap<ShardKey, Box<S>>,
    /// Shared empty store handed out for shards with no segments.
    empty: S,
    stats: EngineStats,
}

impl<S: SegmentStore + Default> StoreEngine<S> {
    /// Create an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a segment into `key`'s shard (allocated on first use).
    /// Returns the removal handle.
    pub fn insert(&mut self, key: ShardKey, seg: Segment) -> SegmentId {
        self.shards.entry(key).or_default().insert(seg)
    }

    /// Remove one segment. Empty shards are dropped. Prefer
    /// [`StoreEngine::remove_batch`] for retirement.
    pub fn remove(&mut self, key: ShardKey, id: SegmentId, seg: &Segment) -> bool {
        let Some(store) = self.shards.get_mut(&key) else {
            return false;
        };
        let removed = store.remove(id, seg);
        if removed && store.is_empty() {
            self.shards.remove(&key);
        }
        removed
    }

    /// Apply a whole retirement batch: removals are grouped per shard and
    /// each shard's list lands in one [`SegmentStore::remove_batch`] call.
    /// Returns how many segments were actually removed.
    pub fn remove_batch(&mut self, removals: &[(ShardKey, SegmentId, Segment)]) -> usize {
        if removals.is_empty() {
            return 0;
        }
        let mut by_shard: HashMap<ShardKey, Vec<(SegmentId, Segment)>> = HashMap::new();
        for &(key, id, seg) in removals {
            by_shard.entry(key).or_default().push((id, seg));
        }
        let mut removed = 0usize;
        for (key, list) in by_shard {
            if let Some(store) = self.shards.get_mut(&key) {
                removed += store.remove_batch(&list);
                if store.is_empty() {
                    self.shards.remove(&key);
                }
            }
        }
        self.stats.retire_batches += 1;
        self.stats.retired_segments += removed as u64;
        removed
    }

    /// Earliest collisions of a batch of candidate segments spanning many
    /// shards, in input order. Each run of consecutive same-shard queries
    /// is answered through one [`SegmentStore::collide_many`] call.
    pub fn collide_many(&mut self, queries: &[(ShardKey, Segment)]) -> Vec<Option<SegCollision>> {
        self.stats.probe_batches += 1;
        self.stats.probe_queries += queries.len() as u64;
        let mut results = Vec::with_capacity(queries.len());
        for run in queries.chunk_by(|a, b| a.0 == b.0) {
            let batch: Vec<Segment> = run.iter().map(|&(_, seg)| seg).collect();
            results.extend(self.shard(run[0].0).collide_many(&batch));
        }
        results
    }

    /// `key`'s store, or a shared empty stand-in when the shard carries no
    /// segments.
    pub fn shard(&self, key: ShardKey) -> &S {
        self.shards.get(&key).map_or(&self.empty, |b| &**b)
    }

    /// Total segments across all shards.
    pub fn total_segments(&self) -> usize {
        self.shards.values().map(|s| s.len()).sum()
    }

    /// Number of live (non-empty) shards.
    pub fn active_shards(&self) -> usize {
        self.shards.len()
    }

    /// Estimated heap bytes of the engine (MC metric): shard stores plus
    /// the shard map.
    pub fn memory_bytes(&self) -> usize {
        self.shards
            .values()
            .map(|s| s.memory_bytes() + core::mem::size_of::<S>())
            .sum::<usize>()
            + memory::hashmap_bytes(&self.shards)
    }

    /// Cumulative operation counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::SlopeIndexStore;
    use crate::store::NaiveStore;

    fn seg(t0: u32, s: i32) -> Segment {
        Segment::wait(t0, t0 + 2, s)
    }

    #[test]
    fn insert_probe_remove_roundtrip() {
        let mut engine: StoreEngine<SlopeIndexStore> = StoreEngine::new();
        let mut removals = Vec::new();
        for key in 0..32u32 {
            let s = seg(0, key as i32);
            removals.push((key, engine.insert(key, s), s));
        }
        assert_eq!(engine.total_segments(), 32);
        assert_eq!(engine.active_shards(), 32);
        for key in 0..32u32 {
            let store = engine.shard(key);
            assert!(store.earliest_collision(&seg(1, key as i32)).is_some());
            assert!(store.earliest_collision(&seg(10, key as i32)).is_none());
        }
        assert_eq!(engine.remove_batch(&removals), 32);
        assert_eq!(engine.total_segments(), 0);
        assert_eq!(engine.active_shards(), 0, "empty shards must be dropped");
    }

    #[test]
    fn collide_many_matches_per_query_probes() {
        let mut engine: StoreEngine<NaiveStore> = StoreEngine::new();
        let mut state = 0xdead_beefu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..400 {
            let key = (rng() % 64) as u32;
            let t0 = (rng() % 50) as u32;
            let s0 = (rng() % 16) as i32;
            engine.insert(key, Segment::wait(t0, t0 + (rng() % 6) as u32, s0));
        }
        // Keys drawn from a small range so consecutive same-shard runs
        // occur and exercise the grouped store-level calls.
        let queries: Vec<(ShardKey, Segment)> = (0..300)
            .map(|_| {
                let key = (rng() % 8) as u32;
                let t0 = (rng() % 50) as u32;
                (key, Segment::travel(t0, 0, 15))
            })
            .collect();
        let expected: Vec<_> = queries
            .iter()
            .map(|(k, q)| engine.shard(*k).earliest_collision(q))
            .collect();
        assert_eq!(engine.collide_many(&queries), expected);
        // Untouched shards answer through the shared empty store.
        assert_eq!(engine.collide_many(&[(999, seg(0, 0))]), vec![None]);
    }

    #[test]
    fn single_remove_drops_empty_shards_and_refuses_unknown() {
        let mut engine: StoreEngine<SlopeIndexStore> = StoreEngine::new();
        let s = seg(0, 3);
        let id = engine.insert(7, s);
        assert!(!engine.remove(9, id, &s), "wrong shard refused");
        assert!(engine.remove(7, id, &s));
        assert!(!engine.remove(7, id, &s), "double remove refused");
        assert_eq!(engine.active_shards(), 0);
    }

    #[test]
    fn stats_track_probe_and_retire_batches() {
        let mut engine: StoreEngine<NaiveStore> = StoreEngine::new();
        let mut removals = Vec::new();
        for key in 0..8u32 {
            let s = seg(0, 0);
            removals.push((key, engine.insert(key, s), s));
        }
        let queries: Vec<(ShardKey, Segment)> = (0..8u32).map(|k| (k, seg(1, 0))).collect();
        let answers = engine.collide_many(&queries);
        assert!(answers.iter().all(|a| a.is_some()));
        engine.remove_batch(&removals);
        let stats = engine.stats();
        assert_eq!(stats.probe_batches, 1);
        assert_eq!(stats.probe_queries, 8);
        assert_eq!(stats.retire_batches, 1);
        assert_eq!(stats.retired_segments, 8);
        assert!((stats.mean_retire_batch() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn clone_preserves_contents_and_counters() {
        let mut engine: StoreEngine<SlopeIndexStore> = StoreEngine::new();
        engine.insert(1, seg(0, 0));
        engine.insert(2, seg(5, 1));
        let _ = engine.collide_many(&[(1, seg(1, 0)), (2, seg(6, 1))]);
        let clone = engine.clone();
        assert_eq!(clone.total_segments(), 2);
        assert_eq!(clone.shard(1).snapshot(), engine.shard(1).snapshot());
        assert_eq!(clone.stats(), engine.stats());
    }

    #[test]
    fn memory_shrinks_after_batch_retirement() {
        let mut engine: StoreEngine<SlopeIndexStore> = StoreEngine::new();
        let empty = engine.memory_bytes();
        let mut removals = Vec::new();
        for key in 0..16u32 {
            let s = seg(key, key as i32);
            removals.push((key, engine.insert(key, s), s));
        }
        let peak = engine.memory_bytes();
        assert!(peak > empty);
        engine.remove_batch(&removals);
        // The shard map keeps its capacity, so the floor is not exactly the
        // empty baseline — but dropping the stores must reclaim the bulk.
        assert!(engine.memory_bytes() < peak);
    }
}
