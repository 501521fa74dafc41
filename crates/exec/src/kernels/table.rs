//! Flat open-addressing hash table: the classic Vectorwise layout.
//!
//! The table never stores keys. It is an index over rows `0..n` held
//! elsewhere (columnar build-side data, aggregation group columns): a
//! power-of-two `buckets` array maps a hash to the head of a chain, and a
//! parallel `next` array links rows that share a bucket. Everything is a
//! plain `u32` in two flat arrays — no per-key heap allocation, no
//! rehash-on-read, and growing is a cache-friendly relink of the bucket
//! heads from the stored hash vector.
//!
//! The full 64-bit hash of every row is stored so probes can prefilter
//! chain candidates with one integer compare before the caller runs its
//! (possibly multi-column, possibly string) key equality check.
//!
//! The batch APIs take precomputed hash vectors from
//! [`super::hash::hash_columns`] — the table itself never hashes anything.
//!
//! The same two arrays serve a second slot function: a table made by
//! [`HashTable::with_slots`] has one chain head per slot of the caller's
//! choosing (a join over a dense integer key uses `key − min`), rows are
//! linked by [`HashTable::insert_slots`] and read back through
//! [`HashTable::head`] and [`HashTable::next_row`]. Such a table stores no
//! hashes: its slot function is exact, so a chain holds equal keys only.
//! Either way a chain lists its rows last-inserted first.

/// Sentinel row id: end of a chain / empty bucket / no match.
pub const EMPTY: u32 = u32::MAX;

const MIN_BUCKETS: usize = 16;

/// Hash index over externally-stored rows.
#[derive(Debug, Default, Clone)]
pub struct HashTable {
    /// Chain heads; length is a power of two.
    buckets: Vec<u32>,
    /// `next[r]` = next row in `r`'s chain, [`EMPTY`] terminates.
    next: Vec<u32>,
    /// Stored per-row hashes (also the source of truth for relinking).
    hashes: Vec<u64>,
}

impl HashTable {
    pub fn new() -> HashTable {
        HashTable::default()
    }

    /// A table of `slots` empty chains addressed by the caller's own slot
    /// function instead of a hash (see the module doc).
    pub fn with_slots(slots: usize) -> HashTable {
        HashTable {
            buckets: vec![EMPTY; slots],
            next: Vec::new(),
            hashes: Vec::new(),
        }
    }

    /// Number of rows inserted.
    pub fn len(&self) -> usize {
        self.next.len()
    }

    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }

    /// Remove all rows, keeping the allocated capacity for reuse (operators
    /// that rebuild per partition recycle one table instead of
    /// reallocating). Bucket heads are reset so probes of a cleared table
    /// see no candidates.
    pub fn clear(&mut self) {
        self.hashes.clear();
        self.next.clear();
        self.buckets.fill(EMPTY);
    }

    #[inline]
    fn bucket_of(&self, hash: u64) -> usize {
        (hash & (self.buckets.len() as u64 - 1)) as usize
    }

    /// Relink every chain head for a new bucket count (power of two).
    fn rebuild(&mut self, n_buckets: usize) {
        debug_assert!(n_buckets.is_power_of_two());
        self.buckets.clear();
        self.buckets.resize(n_buckets, EMPTY);
        for r in 0..self.hashes.len() {
            let b = self.bucket_of(self.hashes[r]);
            self.next[r] = self.buckets[b];
            self.buckets[b] = r as u32;
        }
    }

    /// Insert a batch of rows given their hash vector. Row ids are assigned
    /// sequentially from the current length; the first inserted row is 0.
    pub fn insert_batch(&mut self, hashes: &[u64]) {
        let new_len = self.hashes.len() + hashes.len();
        assert!(new_len < EMPTY as usize, "hash table row ids exceed u32");
        self.hashes.extend_from_slice(hashes);
        self.next.resize(new_len, EMPTY);
        // Keep load factor <= 1/2: buckets = next power of two >= 2n.
        let want = (new_len * 2).next_power_of_two().max(MIN_BUCKETS);
        if want > self.buckets.len() {
            self.rebuild(want);
        } else {
            for r in new_len - hashes.len()..new_len {
                let b = self.bucket_of(self.hashes[r]);
                self.next[r] = self.buckets[b];
                self.buckets[b] = r as u32;
            }
        }
    }

    /// Link rows into a [`with_slots`](Self::with_slots) table: row
    /// `len() + j` goes to the head of the chain of slot `slots[j]`. Each
    /// slot must be below the table's slot count.
    pub fn insert_slots(&mut self, slots: impl ExactSizeIterator<Item = usize>) {
        debug_assert!(self.hashes.is_empty(), "a hashed table takes no slots");
        let first = self.next.len();
        assert!(
            first + slots.len() < EMPTY as usize,
            "hash table row ids exceed u32"
        );
        self.next.reserve(slots.len());
        for (r, slot) in (first as u32..).zip(slots) {
            self.next.push(self.buckets[slot]);
            self.buckets[slot] = r;
        }
    }

    /// The first row of slot `slot`'s chain in a
    /// [`with_slots`](Self::with_slots) table, or [`EMPTY`].
    #[inline]
    pub fn head(&self, slot: usize) -> u32 {
        self.buckets[slot]
    }

    /// The row after `row` in its chain, or [`EMPTY`]: no hash filter, so
    /// in a [`with_slots`](Self::with_slots) table the next equal key.
    #[inline]
    pub fn next_row(&self, row: u32) -> u32 {
        self.next[row as usize]
    }

    /// First candidate row whose stored hash equals `hash`, or [`EMPTY`].
    #[inline]
    pub fn first_candidate(&self, hash: u64) -> u32 {
        if self.buckets.is_empty() {
            return EMPTY;
        }
        self.filter_chain(self.buckets[self.bucket_of(hash)], hash)
    }

    /// Next candidate after `row` with the same stored hash, or [`EMPTY`].
    #[inline]
    pub fn next_candidate(&self, row: u32, hash: u64) -> u32 {
        self.filter_chain(self.next[row as usize], hash)
    }

    /// Walk the chain from `row` to the next entry whose stored hash is
    /// `hash` (the one-compare prefilter before real key equality).
    #[inline]
    fn filter_chain(&self, mut row: u32, hash: u64) -> u32 {
        while row != EMPTY && self.hashes[row as usize] != hash {
            row = self.next[row as usize];
        }
        row
    }

    /// Iterate all candidate rows for `hash` (stored-hash matches only).
    pub fn candidates(&self, hash: u64) -> Candidates<'_> {
        Candidates {
            table: self,
            row: self.first_candidate(hash),
            hash,
        }
    }

    /// Batch probe: `out[j]` = first candidate for `hashes[j]` (or
    /// [`EMPTY`]). Callers walk the rest of each chain with
    /// [`next_candidate`](Self::next_candidate).
    ///
    /// Two passes, so the SIMD hash output feeds straight into a
    /// prefetch-friendly loop: pass 1 is a pure bucket-head gather (one
    /// masked index + one load per probe, no data-dependent walk — the
    /// hardware prefetcher and OoO window overlap the cache misses), pass 2
    /// resolves each head through the stored-hash prefilter chain.
    pub fn probe_batch(&self, hashes: &[u64], out: &mut Vec<u32>) {
        out.clear();
        if self.buckets.is_empty() {
            out.resize(hashes.len(), EMPTY);
            return;
        }
        out.reserve(hashes.len());
        // Pass 1: hash -> bucket index -> chain head.
        out.extend(hashes.iter().map(|&h| self.buckets[self.bucket_of(h)]));
        // Pass 2: candidate walk from each head.
        for (o, &h) in out.iter_mut().zip(hashes) {
            *o = self.filter_chain(*o, h);
        }
    }
}

/// Iterator over a probe's candidate rows (see [`HashTable::candidates`]).
pub struct Candidates<'a> {
    table: &'a HashTable,
    row: u32,
    hash: u64,
}

impl Iterator for Candidates<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.row == EMPTY {
            return None;
        }
        let r = self.row;
        self.row = self.table.next_candidate(r, self.hash);
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use vectorh_common::rng::SplitMix64;
    use vectorh_common::util::hash_u64;

    #[test]
    fn empty_table_has_no_candidates() {
        let t = HashTable::new();
        assert!(t.is_empty());
        assert_eq!(t.first_candidate(42), EMPTY);
        assert_eq!(t.candidates(42).count(), 0);
    }

    #[test]
    fn duplicate_hashes_chain_up() {
        let mut t = HashTable::new();
        t.insert_batch(&[7, 9, 7, 7]);
        let got: Vec<u32> = t.candidates(7).collect();
        assert_eq!(got.len(), 3);
        assert!(got.contains(&0) && got.contains(&2) && got.contains(&3));
        assert_eq!(t.candidates(9).collect::<Vec<_>>(), vec![1]);
        assert_eq!(t.candidates(8).count(), 0);
    }

    #[test]
    fn batch_probe_matches_scalar_probe() {
        let mut t = HashTable::new();
        let hashes: Vec<u64> = (0..100).map(|i| hash_u64(i % 13)).collect();
        t.insert_batch(&hashes);
        let probes: Vec<u64> = (0..20).map(hash_u64).collect();
        let mut heads = Vec::new();
        t.probe_batch(&probes, &mut heads);
        for (j, &h) in probes.iter().enumerate() {
            assert_eq!(heads[j], t.first_candidate(h));
        }
    }

    #[test]
    fn growth_keeps_all_rows_reachable() {
        let mut t = HashTable::new();
        let mut all = Vec::new();
        // Many small batches force repeated rebuilds.
        for b in 0..50 {
            let batch: Vec<u64> = (0..37).map(|i| hash_u64(b * 37 + i)).collect();
            all.extend_from_slice(&batch);
            t.insert_batch(&batch);
        }
        assert_eq!(t.len(), all.len());
        for (r, &h) in all.iter().enumerate() {
            assert!(
                t.candidates(h).any(|c| c == r as u32),
                "row {r} lost after growth"
            );
        }
    }

    #[test]
    fn growth_exactly_at_load_factor_boundary() {
        // buckets = next_power_of_two(2n): inserting one row past n where
        // 2n is exactly a power of two forces a rebuild. Walk several such
        // boundaries (n = 8, 16, 32, ...) one row at a time and check
        // reachability right before and right after each rebuild.
        for boundary in [8usize, 16, 32, 64, 128] {
            let mut t = HashTable::new();
            let hashes: Vec<u64> = (0..boundary as u64 + 1).map(hash_u64).collect();
            t.insert_batch(&hashes[..boundary]);
            let buckets_before = (boundary * 2).next_power_of_two().max(MIN_BUCKETS);
            for (r, &h) in hashes[..boundary].iter().enumerate() {
                assert!(t.candidates(h).any(|c| c == r as u32));
            }
            // One more row crosses the load-factor line.
            t.insert_batch(&hashes[boundary..]);
            assert!(
                ((boundary + 1) * 2).next_power_of_two() > buckets_before
                    || buckets_before == MIN_BUCKETS,
                "test premise: boundary {boundary} must force growth"
            );
            for (r, &h) in hashes.iter().enumerate() {
                assert!(
                    t.candidates(h).any(|c| c == r as u32),
                    "row {r} lost crossing boundary {boundary}"
                );
            }
        }
    }

    #[test]
    fn heavy_duplicate_keys_build_one_long_chain() {
        let mut t = HashTable::new();
        const N: u32 = 10_000;
        // Every row hashes identically: the degenerate all-duplicates case.
        t.insert_batch(&vec![0xDEAD_BEEF; N as usize]);
        let mut got: Vec<u32> = t.candidates(0xDEAD_BEEF).collect();
        got.sort_unstable();
        assert_eq!(got, (0..N).collect::<Vec<u32>>());
        // Nothing else matches, even keys landing in the same bucket.
        let same_bucket = 0xDEAD_BEEF ^ (t.buckets.len() as u64);
        assert_eq!(t.candidates(same_bucket).count(), 0);
    }

    #[test]
    fn probe_after_clear_finds_nothing_then_refills() {
        let mut t = HashTable::new();
        let hashes: Vec<u64> = (0..500).map(hash_u64).collect();
        t.insert_batch(&hashes);
        assert_eq!(t.len(), 500);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        for &h in &hashes {
            assert_eq!(t.first_candidate(h), EMPTY, "stale candidate after clear");
            assert_eq!(t.candidates(h).count(), 0);
        }
        let mut heads = Vec::new();
        t.probe_batch(&hashes, &mut heads);
        assert!(heads.iter().all(|&r| r == EMPTY));
        // Row ids restart from zero after a clear.
        t.insert_batch(&hashes[..10]);
        assert_eq!(t.first_candidate(hashes[3]), 3);
    }

    #[test]
    fn slot_chains_list_rows_last_inserted_first() {
        let mut t = HashTable::with_slots(5);
        t.insert_slots([4, 0, 4].into_iter());
        t.insert_slots([4, 2].into_iter());
        assert_eq!(t.len(), 5);
        let chain = |slot| {
            let mut out = vec![];
            let mut r = t.head(slot);
            while r != EMPTY {
                out.push(r);
                r = t.next_row(r);
            }
            out
        };
        assert_eq!(chain(4), vec![3, 2, 0]);
        assert_eq!(chain(0), vec![1]);
        assert_eq!(chain(2), vec![4]);
        assert!(chain(1).is_empty() && chain(3).is_empty());
    }

    /// Property test: the flat table agrees with `std::collections::HashMap`
    /// on random workloads of interleaved batch inserts and probes.
    #[test]
    fn prop_agrees_with_std_hashmap() {
        let mut meta = SplitMix64::new(0x7AB1E);
        for _ in 0..30 {
            let seed = meta.next_u64();
            let key_space = 1 + meta.next_bounded(200);
            let mut rng = SplitMix64::new(seed);
            let mut t = HashTable::new();
            let mut model: HashMap<u64, Vec<u32>> = HashMap::new();
            let mut n_rows = 0u32;
            for _ in 0..1 + rng.next_bounded(8) {
                let batch: Vec<u64> = (0..rng.next_bounded(600))
                    .map(|_| hash_u64(rng.next_bounded(key_space)))
                    .collect();
                for &h in &batch {
                    model.entry(h).or_default().push(n_rows);
                    n_rows += 1;
                }
                t.insert_batch(&batch);
                // Probe every key in the space plus some misses.
                for k in 0..key_space + 5 {
                    let h = hash_u64(k);
                    let mut got: Vec<u32> = t.candidates(h).collect();
                    got.sort_unstable();
                    let want = model.get(&h).cloned().unwrap_or_default();
                    assert_eq!(got, want, "seed {seed} key {k}");
                }
            }
        }
    }
}
