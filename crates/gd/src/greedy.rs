//! Greedy base/deviation bit-split selection.
//!
//! GreedyGD chooses, per column, how many low-order bits are carved off into the
//! per-row deviation. Moving a bit from base to deviation costs one bit per row but
//! lets more rows share a base, shrinking the deduplicated base table. The greedy
//! loop repeatedly applies the single-bit move with the best net size change until no
//! move improves the total (size model below, mirroring Fig 3):
//!
//! ```text
//! size(devs) = n_bases·Σ(w_c − dev_c)            (deduplicated base table)
//!            + n·⌈log2 n_bases⌉                  (base ID per row)
//!            + n·Σ dev_c                         (verbatim deviations)
//! ```
//!
//! Candidate evaluation counts distinct bases with a per-row *updatable sum hash*
//! (`Σ_c mix(c, part_c)` wrapping), so trying "one more deviation bit on column c"
//! costs one add/sub per row instead of rehashing the whole tuple. The split is fitted
//! on a row sample (`fit_rows`) and then applied exactly to all rows.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use rand::seq::index::sample as index_sample;
use rand::SeedableRng;

use ph_encoding::bits_for;

use crate::{EncodedMatrix, GdStore};

/// Tuning knobs for the greedy split search.
#[derive(Debug, Clone)]
pub struct GdConfig {
    /// Rows used to fit the split (sampled uniformly if the data is larger).
    pub fit_rows: usize,
    /// RNG seed for the fit sample.
    pub seed: u64,
}

impl Default for GdConfig {
    fn default() -> Self {
        Self { fit_rows: 32_768, seed: 0x9d8_1ab3 }
    }
}

/// GreedyGD compressor: fits the bit split, then builds a [`GdStore`].
#[derive(Debug, Clone, Default)]
pub struct GdCompressor {
    config: GdConfig,
}

impl GdCompressor {
    /// Compressor with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compressor with explicit configuration.
    pub fn with_config(config: GdConfig) -> Self {
        Self { config }
    }

    /// Compresses an encoded matrix: fits deviation bit-widths on a sample, then
    /// deduplicates bases exactly over all rows.
    pub fn compress(&self, data: &EncodedMatrix) -> GdStore {
        let (widths, dev_bits) = self.fit_split(data);
        GdStore::build(data, &widths, &dev_bits)
    }

    /// The per-column base values the store [`GdCompressor::compress`] would
    /// build holds — [`GdStore::base_values`] of every column — without
    /// building it: fits the split, then takes each column's distinct base
    /// parts over all rows (every row's base tuple is in the store, so the
    /// per-column projections are the same). This is all PairwiseHist's
    /// base-seeded build needs from GreedyGD.
    pub fn base_values(&self, data: &EncodedMatrix) -> Vec<Vec<u64>> {
        let (widths, dev_bits) = self.fit_split(data);
        let jobs: Vec<(&[u64], u32, u32)> = data
            .columns
            .iter()
            .zip(widths.iter().zip(&dev_bits))
            .map(|(col, (&w, &d))| (col.as_slice(), w, d))
            .collect();
        crate::map_columns(data.n_rows, jobs, |(col, width, shift)| {
            if col.is_empty() {
                Vec::new()
            } else if shift >= width {
                vec![0] // the whole value is deviation: one empty base part
            } else {
                let mut parts: Vec<u64> = col.iter().map(|&v| (v >> shift) << shift).collect();
                parts.sort_unstable();
                parts.dedup();
                parts
            }
        })
    }

    /// The bit split: each column's full width and its fitted deviation width.
    fn fit_split(&self, data: &EncodedMatrix) -> (Vec<u32>, Vec<u32>) {
        let widths: Vec<u32> = (0..data.n_columns())
            .map(|c| bits_for(data.column_max(c)))
            .collect();
        let dev_bits = self.fit_dev_bits(data, &widths);
        (widths, dev_bits)
    }

    /// Greedy search for per-column deviation widths.
    fn fit_dev_bits(&self, data: &EncodedMatrix, widths: &[u32]) -> Vec<u32> {
        let d = data.n_columns();
        if d == 0 || data.n_rows == 0 {
            return vec![0; d];
        }
        let fit = if data.n_rows > self.config.fit_rows {
            let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed);
            let rows = index_sample(&mut rng, data.n_rows, self.config.fit_rows).into_vec();
            data.take_rows(&rows)
        } else {
            data.clone()
        };
        let n = fit.n_rows;

        let mut dev_bits = vec![0u32; d];
        // Sum-hash per row over current base parts.
        let mut hashes: Vec<u64> = vec![0; n];
        for c in 0..d {
            let col = &fit.columns[c];
            for (r, h) in hashes.iter_mut().enumerate() {
                *h = h.wrapping_add(mix(c, col[r]));
            }
        }
        let mut n_bases = distinct(&hashes);
        let mut best_size = size_bits(n, n_bases, widths, &dev_bits);

        // Candidate moves add `step` deviation bits to one column at a time. Strict
        // single-bit hill climbing stalls on plateaus (moving one noise bit rarely
        // collapses any bases on near-unique rows), so larger jumps are also
        // evaluated; the accepted move is whichever strictly shrinks the size model
        // the most.
        const STEPS: [u32; 4] = [1, 2, 4, 8];
        // Per-column candidate-hash and distinct-set buffers are hoisted out of
        // the loop: the seal path runs this search on every seal, and a fresh
        // (n)-sized allocation per (column × step) per iteration was the
        // dominant source of ingest tail latency. One pair per column lets the
        // columns' candidates evaluate in parallel on large fits.
        let mut buffers: Vec<(Vec<u64>, MixedSet)> = (0..d)
            .map(|_| {
                let seen = MixedSet::with_capacity_and_hasher(n, Default::default());
                (Vec::with_capacity(n), seen)
            })
            .collect();
        loop {
            // Each column's best move: the smallest size, the smallest step on
            // ties. Evaluated column-parallel on large fits.
            let jobs: Vec<(usize, &mut (Vec<u64>, MixedSet))> =
                buffers.iter_mut().enumerate().collect();
            let per_column = crate::map_columns(n, jobs, |(c, (cand, seen))| {
                let mut best: Option<(u32, u64, usize)> = None; // (step, size, bases)
                let shift = dev_bits[c];
                let col = &fit.columns[c];
                for step in STEPS {
                    if shift + step > widths[c] {
                        continue;
                    }
                    cand.clear();
                    for (r, h) in hashes.iter().enumerate() {
                        let old_part = col[r] >> shift;
                        let new_part = col[r] >> (shift + step);
                        cand.push(
                            h.wrapping_sub(mix(c, old_part)).wrapping_add(mix(c, new_part)),
                        );
                    }
                    let nb = distinct_with(cand, seen);
                    let mut trial = dev_bits.clone();
                    trial[c] += step;
                    let sz = size_bits(n, nb, widths, &trial);
                    if best.is_none_or(|(_, s, _)| sz < s) {
                        best = Some((step, sz, nb));
                    }
                }
                best
            });
            // The first column holding the smallest size that beats the
            // current one: the move a serial scan in (column, step) order
            // would accept.
            let mut best: Option<(usize, u32, u64, usize)> = None; // (col, step, size, bases)
            for (c, (step, sz, nb)) in
                per_column.into_iter().enumerate().filter_map(|(c, b)| Some((c, b?)))
            {
                if sz < best.map_or(best_size, |(_, _, s, _)| s) {
                    best = Some((c, step, sz, nb));
                }
            }
            match best {
                Some((c, step, sz, nb)) if sz < best_size => {
                    let shift = dev_bits[c];
                    let col = &fit.columns[c];
                    for (r, h) in hashes.iter_mut().enumerate() {
                        let old_part = col[r] >> shift;
                        let new_part = col[r] >> (shift + step);
                        *h = h.wrapping_sub(mix(c, old_part)).wrapping_add(mix(c, new_part));
                    }
                    dev_bits[c] += step;
                    best_size = sz;
                    n_bases = nb;
                    let _ = n_bases;
                }
                _ => break,
            }
        }
        // Fallback: on near-unique rows (joint entropy ~ full width) no per-column
        // move strictly helps and the search keeps everything in the base, which
        // costs `n·log2(n_bases)` of pure ID overhead. The all-deviation
        // configuration (one empty base, rows stored verbatim) caps the worst case
        // at ~1 bit/row; use it whenever it beats the search result.
        let all_dev_size = size_bits(n, 1, widths, widths);
        if all_dev_size < best_size {
            return widths.to_vec();
        }
        dev_bits
    }
}

/// Total compressed size in bits under the GD size model.
fn size_bits(n: usize, n_bases: usize, widths: &[u32], dev_bits: &[u32]) -> u64 {
    let base_width: u64 = widths
        .iter()
        .zip(dev_bits)
        .map(|(&w, &d)| (w - d) as u64)
        .sum();
    let dev_width: u64 = dev_bits.iter().map(|&d| d as u64).sum();
    let id_bits = bits_for(n_bases.saturating_sub(1) as u64) as u64;
    n_bases as u64 * base_width + n as u64 * (id_bits + dev_width)
}

/// SplitMix64-style mixer keyed by column, used for the updatable sum hash.
#[inline]
fn mix(col: usize, part: u64) -> u64 {
    let mut z = part ^ (col as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pass-through hasher for [`MixedSet`]: the row hashes it holds are already
/// [`mix`]ed, so a second (SipHash) pass would only cost time.
#[derive(Default)]
struct PreMixed(u64);

impl Hasher for PreMixed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// A set of mixed row hashes, counted to size a candidate base table.
type MixedSet = HashSet<u64, BuildHasherDefault<PreMixed>>;

fn distinct(hashes: &[u64]) -> usize {
    let mut set = MixedSet::with_capacity_and_hasher(hashes.len(), Default::default());
    distinct_with(hashes, &mut set)
}

/// [`distinct`] with a caller-owned set, so the greedy loop's inner candidate
/// evaluation reuses one allocation across all (column × step) trials.
fn distinct_with(hashes: &[u64], set: &mut MixedSet) -> usize {
    set.clear();
    for &h in hashes {
        set.insert(h);
    }
    set.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A column whose low bits are noise should get them carved into the deviation.
    #[test]
    fn noisy_low_bits_go_to_deviation() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let n = 4000;
        // High byte from a tiny alphabet, low 8 bits uniform noise.
        let col: Vec<u64> = (0..n)
            .map(|_| ((rng.gen_range(0..4u64)) << 8) | rng.gen_range(0..256u64))
            .collect();
        let m = EncodedMatrix::new(vec![col]);
        let store = GdCompressor::new().compress(&m);
        assert!(
            store.dev_bits()[0] >= 6,
            "expected most noise bits in deviation, got {:?}",
            store.dev_bits()
        );
        assert!(store.n_bases() <= 16, "bases should collapse to the alphabet");
    }

    /// A constant column needs no deviation bits at all.
    #[test]
    fn constant_column_stays_in_base() {
        let m = EncodedMatrix::new(vec![vec![7u64; 1000]]);
        let store = GdCompressor::new().compress(&m);
        assert_eq!(store.dev_bits()[0], 0);
        assert_eq!(store.n_bases(), 1);
    }

    #[test]
    fn size_model_monotone_in_bases() {
        let widths = [16u32, 16];
        let dev = [4u32, 4];
        assert!(size_bits(1000, 10, &widths, &dev) < size_bits(1000, 500, &widths, &dev));
    }

    /// `base_values` is the store's per-column base values, without the store.
    #[test]
    fn base_values_match_the_compressed_store() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 3000;
        let m = EncodedMatrix::new(vec![
            (0..n).map(|_| (rng.gen_range(0..4u64) << 8) | rng.gen_range(0..256u64)).collect(),
            (0..n).map(|_| rng.gen_range(0..1000u64)).collect(),
            (0..n).map(|i| i as u64 % 3).collect(),
            vec![0; n],
        ]);
        let gd = GdCompressor::new();
        let store = gd.compress(&m);
        let base_values = gd.base_values(&m);
        assert!(base_values.iter().any(|v| v.len() > 1), "some column keeps base bits");
        for (c, values) in base_values.iter().enumerate() {
            assert_eq!(values, &store.base_values(c), "column {c}");
        }
        let empty = EncodedMatrix::new(vec![vec![], vec![]]);
        assert_eq!(gd.base_values(&empty), vec![Vec::<u64>::new(); 2]);
    }

    #[test]
    fn empty_matrix_compresses() {
        let m = EncodedMatrix::new(vec![]);
        let store = GdCompressor::new().compress(&m);
        assert_eq!(store.n_rows(), 0);
    }
}
