//! Seeded, deterministic k-means over embedded vectors — the coarse
//! quantizer behind the cluster-routed (IVF-style) retrieval layer.
//!
//! The router partitions the embedded database into `k` cells so the
//! filter scan can visit only the cells nearest to a query instead of the
//! whole collection (`qse_retrieval::routed`). Everything here is plain
//! std + the workspace shims, and **deterministic** for a fixed seed at
//! any thread count:
//!
//! * initialization is k-means++ driven by the seeded [`StdRng`] —
//!   sequential by construction;
//! * Lloyd assignment is embarrassingly parallel (each point's nearest
//!   centroid is independent), so fanning it out over rayon cannot
//!   reorder anything;
//! * centroid updates accumulate **sequentially in point order**, keeping
//!   one canonical `f64` summation order exactly like the workspace's
//!   filter kernels.
//!
//! Ties in the nearest-centroid test break toward the lower centroid
//! index (a strict `<` on squared distance), so assignments — and with
//! them the whole fit — are a pure function of `(rows, config)`.
//!
//! ## Sampled training
//!
//! Above [`SAMPLE_ROWS_PER_CELL`]` · k` rows the fit trains on a seeded
//! uniform sample of that many rows, drawn without replacement, as IVF
//! builds do: the centroids of a coarse quantizer settle long before
//! every row has voted, and the fit's cost then no longer grows with the
//! database (callers still assign *every* row with [`KMeans::assign_all`]).
//! The sample is drawn from the same seeded generator before k-means++,
//! and its indices are sorted so the centroid accumulation keeps point
//! order. At or below the cap nothing is drawn, and the fit runs over all
//! rows exactly as an unsampled k-means would.

use qse_distance::FlatVectors;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Training rows per cell: a fit over more than `SAMPLE_ROWS_PER_CELL · k`
/// rows trains on a seeded uniform sample of exactly that many (see the
/// module docs).
pub const SAMPLE_ROWS_PER_CELL: usize = 64;

/// Configuration of one [`KMeans::fit`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansConfig {
    /// Number of cells `k` (clamped to the number of rows at fit time).
    /// It also sets the training sample: at most
    /// [`SAMPLE_ROWS_PER_CELL`]` · k` rows take part in the fit.
    pub cells: usize,
    /// Seed of the training sample and the k-means++ initialization.
    pub seed: u64,
    /// Maximum Lloyd iterations over the training rows (the fit stops
    /// early once assignments stabilize).
    pub max_iters: usize,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            cells: 16,
            seed: 0x5EED,
            max_iters: 25,
        }
    }
}

/// A fitted coarse quantizer: `k` centroids in embedded space.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    centroids: FlatVectors,
}

/// Squared Euclidean distance between two equal-length rows (the k-means
/// objective's metric; routing at query time ranks centroids by the
/// *filter* distance instead — see `qse_retrieval::routed`).
#[inline]
fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

impl KMeans {
    /// Fit `config.cells` centroids over `rows` with seeded k-means++
    /// initialization followed by Lloyd iterations. Deterministic for a
    /// fixed `(rows, config)` at any thread count (see the module docs).
    /// Above [`SAMPLE_ROWS_PER_CELL`]` · k` rows both stages run on a
    /// seeded uniform sample of that many rows.
    ///
    /// `cells` is clamped to the number of rows (every centroid can then
    /// own at least one point); a cluster that still ends up empty keeps
    /// its previous centroid.
    ///
    /// # Panics
    /// Panics if `rows` is empty or `config.cells` is zero.
    pub fn fit(rows: &FlatVectors, config: KMeansConfig) -> Self {
        assert!(!rows.is_empty(), "cannot fit k-means over an empty store");
        assert!(config.cells >= 1, "cells must be at least 1");
        let n = rows.len();
        let k = config.cells.min(n);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let cap = SAMPLE_ROWS_PER_CELL.saturating_mul(k);
        if n <= cap {
            return Self::fit_rows(rows, k, config.max_iters, &mut rng);
        }
        let all: Vec<usize> = (0..n).collect();
        let mut picked: Vec<usize> = all.choose_multiple(&mut rng, cap).copied().collect();
        picked.sort_unstable();
        let mut sample = FlatVectors::with_dim(rows.dim());
        for &i in &picked {
            sample.push(rows.row(i));
        }
        Self::fit_rows(&sample, k, config.max_iters, &mut rng)
    }

    /// k-means++ seeding and Lloyd iterations over every row of `rows`
    /// (`1 <= k <= rows.len()`), drawing from `rng`.
    fn fit_rows(rows: &FlatVectors, k: usize, max_iters: usize, rng: &mut StdRng) -> Self {
        let n = rows.len();
        let dim = rows.dim();

        // k-means++ seeding: first centroid uniform, then proportional to
        // the squared distance to the nearest chosen centroid.
        let mut centroid_rows: Vec<Vec<f64>> = Vec::with_capacity(k);
        let first = rng.gen_range(0..n);
        centroid_rows.push(rows.row(first).to_vec());
        let mut nearest_sq: Vec<f64> = (0..n)
            .map(|i| sq_dist(rows.row(i), &centroid_rows[0]))
            .collect();
        while centroid_rows.len() < k {
            let total: f64 = nearest_sq.iter().sum();
            let pick = if total > 0.0 {
                // Walk the cumulative mass; the final fallback covers the
                // rounding tail.
                let target = rng.gen_range(0.0..total);
                let mut acc = 0.0;
                let mut chosen = n - 1;
                for (i, &d) in nearest_sq.iter().enumerate() {
                    acc += d;
                    if target < acc {
                        chosen = i;
                        break;
                    }
                }
                chosen
            } else {
                // Every point coincides with a centroid already; any pick
                // works, keep it deterministic.
                rng.gen_range(0..n)
            };
            let row = rows.row(pick).to_vec();
            for (i, slot) in nearest_sq.iter_mut().enumerate() {
                let d = sq_dist(rows.row(i), &row);
                if d < *slot {
                    *slot = d;
                }
            }
            centroid_rows.push(row);
        }

        // Lloyd iterations: parallel assignment, sequential (point-order)
        // accumulation, early exit once assignments stop moving.
        let mut centroids = FlatVectors::from_rows_with_dim(dim, centroid_rows);
        let mut assignment = vec![usize::MAX; n];
        for _ in 0..max_iters {
            let next = Self::assign_all_to(&centroids, rows);
            if next == assignment {
                break;
            }
            assignment = next;
            let mut sums = vec![0.0f64; k * dim];
            let mut counts = vec![0usize; k];
            for (i, &c) in assignment.iter().enumerate() {
                counts[c] += 1;
                let row = rows.row(i);
                let sum = &mut sums[c * dim..(c + 1) * dim];
                for (s, v) in sum.iter_mut().zip(row) {
                    *s += v;
                }
            }
            let mut updated: Vec<Vec<f64>> = Vec::with_capacity(k);
            for c in 0..k {
                if counts[c] == 0 {
                    // Empty cluster: keep the previous centroid.
                    updated.push(centroids.row(c).to_vec());
                } else {
                    let inv = 1.0 / counts[c] as f64;
                    updated.push(
                        sums[c * dim..(c + 1) * dim]
                            .iter()
                            .map(|s| s * inv)
                            .collect(),
                    );
                }
            }
            centroids = FlatVectors::from_rows_with_dim(dim, updated);
        }
        Self { centroids }
    }

    /// Reassemble a quantizer from previously fitted centroids — the
    /// snapshot load path (`qse_retrieval::snapshot`). The rows are adopted
    /// verbatim, so assignments are bit-identical to the quantizer the
    /// centroids came from.
    ///
    /// # Panics
    /// Panics if `centroids` is empty (a fitted quantizer always has at
    /// least one cell).
    pub fn from_centroids(centroids: FlatVectors) -> Self {
        assert!(
            !centroids.is_empty(),
            "a quantizer needs at least one centroid"
        );
        Self { centroids }
    }

    /// The fitted centroids (flat row-major, one row per cell).
    pub fn centroids(&self) -> &FlatVectors {
        &self.centroids
    }

    /// Number of cells `k`.
    pub fn cells(&self) -> usize {
        self.centroids.len()
    }

    /// Embedding dimensionality the quantizer was fitted on.
    pub fn dim(&self) -> usize {
        self.centroids.dim()
    }

    /// The cell of one embedded row: the nearest centroid by squared
    /// Euclidean distance, ties toward the lower index.
    ///
    /// # Panics
    /// Panics if `row` does not match the fitted dimensionality.
    pub fn assign(&self, row: &[f64]) -> usize {
        assert_eq!(
            row.len(),
            self.dim(),
            "row/centroid dimensionality mismatch"
        );
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for c in 0..self.centroids.len() {
            let d = sq_dist(row, self.centroids.row(c));
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        best
    }

    /// The cell of every row of `rows`, fanned out over the worker pool
    /// (per-point work is independent, so the result is deterministic at
    /// any thread count).
    ///
    /// # Panics
    /// Panics if `rows` does not match the fitted dimensionality.
    pub fn assign_all(&self, rows: &FlatVectors) -> Vec<usize> {
        assert_eq!(
            rows.dim(),
            self.dim(),
            "row/centroid dimensionality mismatch"
        );
        Self::assign_all_to(&self.centroids, rows)
    }

    fn assign_all_to(centroids: &FlatVectors, rows: &FlatVectors) -> Vec<usize> {
        (0..rows.len())
            .into_par_iter()
            .map(|i| {
                let row = rows.row(i);
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for c in 0..centroids.len() {
                    let d = sq_dist(row, centroids.row(c));
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                best
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Run `f` with `RAYON_NUM_THREADS` pinned to `threads`, then restore
    /// the ambient value. The variable is process-global, so every
    /// override in this binary goes through one lock.
    fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
        static ENV_LOCK: Mutex<()> = Mutex::new(());
        let _guard = ENV_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let ambient = std::env::var("RAYON_NUM_THREADS").ok();
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        let out = f();
        match ambient {
            Some(value) => std::env::set_var("RAYON_NUM_THREADS", value),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
        out
    }

    /// The unsampled fit, verbatim: k-means++ and Lloyd over every row.
    /// At or below the sample cap [`KMeans::fit`] must equal it bit for
    /// bit.
    fn unsampled_fit(rows: &FlatVectors, config: KMeansConfig) -> KMeans {
        let n = rows.len();
        let dim = rows.dim();
        let k = config.cells.min(n);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut centroid_rows: Vec<Vec<f64>> = Vec::with_capacity(k);
        let first = rng.gen_range(0..n);
        centroid_rows.push(rows.row(first).to_vec());
        let mut nearest_sq: Vec<f64> = (0..n)
            .map(|i| sq_dist(rows.row(i), &centroid_rows[0]))
            .collect();
        while centroid_rows.len() < k {
            let total: f64 = nearest_sq.iter().sum();
            let pick = if total > 0.0 {
                let target = rng.gen_range(0.0..total);
                let mut acc = 0.0;
                let mut chosen = n - 1;
                for (i, &d) in nearest_sq.iter().enumerate() {
                    acc += d;
                    if target < acc {
                        chosen = i;
                        break;
                    }
                }
                chosen
            } else {
                rng.gen_range(0..n)
            };
            let row = rows.row(pick).to_vec();
            for (i, slot) in nearest_sq.iter_mut().enumerate() {
                let d = sq_dist(rows.row(i), &row);
                if d < *slot {
                    *slot = d;
                }
            }
            centroid_rows.push(row);
        }
        let mut centroids = FlatVectors::from_rows_with_dim(dim, centroid_rows);
        let mut assignment = vec![usize::MAX; n];
        for _ in 0..config.max_iters {
            let next: Vec<usize> = (0..n)
                .map(|i| {
                    let mut best = 0usize;
                    let mut best_d = f64::INFINITY;
                    for c in 0..centroids.len() {
                        let d = sq_dist(rows.row(i), centroids.row(c));
                        if d < best_d {
                            best_d = d;
                            best = c;
                        }
                    }
                    best
                })
                .collect();
            if next == assignment {
                break;
            }
            assignment = next;
            let mut sums = vec![0.0f64; k * dim];
            let mut counts = vec![0usize; k];
            for (i, &c) in assignment.iter().enumerate() {
                counts[c] += 1;
                for (s, v) in sums[c * dim..(c + 1) * dim].iter_mut().zip(rows.row(i)) {
                    *s += v;
                }
            }
            let updated: Vec<Vec<f64>> = (0..k)
                .map(|c| {
                    if counts[c] == 0 {
                        centroids.row(c).to_vec()
                    } else {
                        let inv = 1.0 / counts[c] as f64;
                        sums[c * dim..(c + 1) * dim]
                            .iter()
                            .map(|s| s * inv)
                            .collect()
                    }
                })
                .collect();
            centroids = FlatVectors::from_rows_with_dim(dim, updated);
        }
        KMeans { centroids }
    }

    /// Map every blob of a cyclic-order fixture (row `i` in blob
    /// `i % clusters`) to its cell, asserting no blob is split and no two
    /// blobs share a cell.
    fn assert_blobs_recovered(km: &KMeans, rows: &FlatVectors, clusters: usize) {
        let assignment = km.assign_all(rows);
        // Every true blob must map onto exactly one cell (blobs are 100
        // apart; wobble is ±1) and distinct blobs onto distinct cells.
        let mut cell_of_blob = vec![usize::MAX; clusters];
        for (i, &cell) in assignment.iter().enumerate() {
            let blob = i % clusters;
            if cell_of_blob[blob] == usize::MAX {
                cell_of_blob[blob] = cell;
            }
            assert_eq!(cell_of_blob[blob], cell, "blob {blob} split across cells");
        }
        let mut seen = cell_of_blob.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), clusters, "blobs merged into one cell");
    }

    fn blob_rows(clusters: usize, per: usize, dim: usize) -> FlatVectors {
        // Well-separated blobs: cluster c lives around 100·c in every
        // coordinate with a small deterministic wobble.
        let rows: Vec<Vec<f64>> = (0..clusters * per)
            .map(|i| {
                let c = i % clusters;
                (0..dim)
                    .map(|j| 100.0 * c as f64 + ((i * dim + j) as f64 * 0.7).sin())
                    .collect()
            })
            .collect();
        FlatVectors::from_rows(rows)
    }

    #[test]
    fn fit_is_deterministic_for_a_fixed_seed() {
        let rows = blob_rows(4, 30, 6);
        let config = KMeansConfig {
            cells: 4,
            seed: 9,
            max_iters: 20,
        };
        let a = KMeans::fit(&rows, config);
        let b = KMeans::fit(&rows, config);
        assert_eq!(a, b);
        assert_eq!(a.assign_all(&rows), b.assign_all(&rows));
    }

    #[test]
    fn well_separated_blobs_are_recovered() {
        let clusters = 5;
        let per = 40;
        let rows = blob_rows(clusters, per, 4);
        let km = KMeans::fit(
            &rows,
            KMeansConfig {
                cells: clusters,
                seed: 3,
                max_iters: 30,
            },
        );
        assert_blobs_recovered(&km, &rows, clusters);
    }

    #[test]
    fn sampled_fit_recovers_every_blob_of_a_cyclic_order() {
        // Row i sits in blob i % 6, so a strided sample would alias onto a
        // few blobs; the uniform sample must still see all of them.
        let clusters = 6;
        let rows = blob_rows(clusters, 250, 4);
        assert!(
            rows.len() > SAMPLE_ROWS_PER_CELL * clusters,
            "fixture is above the cap"
        );
        for seed in [3, 17, 0x5EED] {
            let km = KMeans::fit(
                &rows,
                KMeansConfig {
                    cells: clusters,
                    seed,
                    max_iters: 30,
                },
            );
            assert_blobs_recovered(&km, &rows, clusters);
        }
    }

    #[test]
    fn sampled_fit_is_identical_across_thread_counts() {
        let rows = blob_rows(5, 300, 6);
        let config = KMeansConfig {
            cells: 5,
            seed: 23,
            max_iters: 20,
        };
        assert!(
            rows.len() > SAMPLE_ROWS_PER_CELL * config.cells,
            "fixture is above the cap"
        );
        let single = with_threads(1, || KMeans::fit(&rows, config));
        let single_cells = with_threads(1, || single.assign_all(&rows));
        for threads in [2, 8] {
            let multi = with_threads(threads, || KMeans::fit(&rows, config));
            assert_eq!(single, multi, "fit diverged at {threads} threads");
            let cells = with_threads(threads, || multi.assign_all(&rows));
            assert_eq!(
                single_cells, cells,
                "assignment diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn fit_at_or_below_the_cap_equals_the_unsampled_fit() {
        // (rows, cells): exactly at the cap, below it, more cells than
        // blobs, and more cells than rows (clamped).
        let cases = [
            (blob_rows(4, SAMPLE_ROWS_PER_CELL, 5), 4),
            (blob_rows(3, 25, 5), 3),
            (blob_rows(3, 40, 2), 7),
            (blob_rows(2, 3, 3), 10),
        ];
        for (rows, cells) in &cases {
            assert!(rows.len() <= SAMPLE_ROWS_PER_CELL * cells);
            for seed in [1, 9, 0x5EED] {
                let config = KMeansConfig {
                    cells: *cells,
                    seed,
                    max_iters: 25,
                };
                assert_eq!(
                    KMeans::fit(rows, config),
                    unsampled_fit(rows, config),
                    "{} rows, {cells} cells, seed {seed}",
                    rows.len()
                );
            }
        }
    }

    #[test]
    fn cells_clamp_to_the_number_of_rows() {
        let rows = FlatVectors::from_rows(vec![vec![0.0, 0.0], vec![5.0, 5.0]]);
        let km = KMeans::fit(
            &rows,
            KMeansConfig {
                cells: 10,
                seed: 1,
                max_iters: 5,
            },
        );
        assert_eq!(km.cells(), 2);
        assert_ne!(km.assign(&[0.1, -0.1]), km.assign(&[4.9, 5.2]));
    }

    #[test]
    fn assign_matches_assign_all() {
        let rows = blob_rows(3, 25, 5);
        let km = KMeans::fit(
            &rows,
            KMeansConfig {
                cells: 3,
                seed: 7,
                max_iters: 15,
            },
        );
        let all = km.assign_all(&rows);
        for (i, &cell) in all.iter().enumerate() {
            assert_eq!(cell, km.assign(rows.row(i)), "row {i}");
        }
    }

    #[test]
    fn from_centroids_reproduces_assignments() {
        let rows = blob_rows(3, 20, 4);
        let km = KMeans::fit(
            &rows,
            KMeansConfig {
                cells: 3,
                seed: 2,
                max_iters: 10,
            },
        );
        let rebuilt = KMeans::from_centroids(km.centroids().clone());
        assert_eq!(rebuilt, km);
        assert_eq!(rebuilt.assign_all(&rows), km.assign_all(&rows));
    }

    #[test]
    #[should_panic(expected = "at least one centroid")]
    fn from_centroids_rejects_an_empty_store() {
        let _ = KMeans::from_centroids(FlatVectors::with_dim(2));
    }

    #[test]
    #[should_panic(expected = "empty store")]
    fn fit_rejects_an_empty_store() {
        let _ = KMeans::fit(&FlatVectors::with_dim(3), KMeansConfig::default());
    }

    #[test]
    fn degenerate_identical_rows_still_fit() {
        // All points coincide: total k-means++ mass is zero after the
        // first pick; the fallback path must still produce k centroids.
        let rows = FlatVectors::from_rows(vec![vec![2.0, 2.0]; 8]);
        let km = KMeans::fit(
            &rows,
            KMeansConfig {
                cells: 3,
                seed: 11,
                max_iters: 5,
            },
        );
        assert_eq!(km.cells(), 3);
        assert_eq!(km.assign(&[2.0, 2.0]), 0, "ties break toward cell 0");
    }
}
