//! Dense slots for sparse `u64` keys.
//!
//! The trace footprint counter (cache lines) and the software-managed
//! placement policy (pages) keep state per key, for keys that cluster in
//! a few far-apart regions of a 64-bit space. [`PagedSlots`] gives each
//! key a dense slot, so that state can live in plain `Vec`s: keys are
//! grouped into chunks of [`CHUNK`] consecutive values, each chunk opens
//! the next `CHUNK` slots on its first touch, and a chunk's slots are
//! found through a `BTreeMap` with a cache of the last chunk looked up.

use std::collections::BTreeMap;

/// Consecutive keys per chunk.
pub const CHUNK: usize = 4096;

/// A key-to-slot map over chunks of [`CHUNK`] consecutive keys.
#[derive(Clone, Debug, Default)]
pub struct PagedSlots {
    /// Chunk number (`key / CHUNK`) to its rank in first-touch order.
    ranks: BTreeMap<u64, usize>,
    /// Chunk number of each rank.
    chunks: Vec<u64>,
    /// The chunk number and rank of the last lookup.
    last: Option<(u64, usize)>,
}

impl PagedSlots {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of `key`: its chunk's rank times [`CHUNK`] plus its offset
    /// in the chunk. A key in a new chunk opens the next `CHUNK` slots, so
    /// every slot returned is below [`PagedSlots::len`].
    pub fn slot(&mut self, key: u64) -> usize {
        let chunk = key / CHUNK as u64;
        let rank = match self.last {
            Some((last, rank)) if last == chunk => rank,
            _ => {
                let next = self.chunks.len();
                let rank = *self.ranks.entry(chunk).or_insert(next);
                if rank == next {
                    self.chunks.push(chunk);
                }
                self.last = Some((chunk, rank));
                rank
            }
        };
        rank * CHUNK + (key % CHUNK as u64) as usize
    }

    /// The key that owns `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not below [`PagedSlots::len`].
    pub fn key(&self, slot: usize) -> u64 {
        self.chunks[slot / CHUNK] * CHUNK as u64 + (slot % CHUNK) as u64
    }

    /// Slots opened so far: [`CHUNK`] per chunk touched.
    pub fn len(&self) -> usize {
        self.chunks.len() * CHUNK
    }

    /// True if no key has been looked up.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_round_trip_through_chunk_ranked_slots() {
        let mut slots = PagedSlots::new();
        assert!(slots.is_empty());
        let far = u64::MAX - 5;
        let keys = [4095, 4096, 0, far, 4097, 4095, far, 9 * 4096 + 7];
        let got: Vec<usize> = keys.iter().map(|&k| slots.slot(k)).collect();
        // Ranks follow first touch: chunk 0, 1, the last chunk, then 9.
        let want = [
            4095,
            CHUNK,
            0,
            3 * CHUNK - 6,
            CHUNK + 1,
            4095,
            3 * CHUNK - 6,
            3 * CHUNK + 7,
        ];
        assert_eq!(got, want);
        assert_eq!(slots.len(), 4 * CHUNK);
        for (&key, &slot) in keys.iter().zip(&got) {
            assert_eq!(slots.key(slot), key);
        }
    }
}
