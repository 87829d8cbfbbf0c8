//! Cluster-routed (IVF-style) filter-and-refine retrieval: sublinear
//! candidate generation over the embedded space.
//!
//! Every retrieve of the flat pipeline ([`crate::filter_refine`]) scans
//! all `n` embedded rows; at production row counts that linear scan is
//! the wall. [`RoutedIndex`] composes the paper's filter-refine protocol
//! with a coarse partition layer:
//!
//! 1. **Partition (indexing time)** — a seeded, deterministic k-means
//!    ([`qse_embedding::KMeans`]) splits the embedded database into `C`
//!    cells. Each cell owns its own [`FlatStore`], so the entire existing
//!    backend machinery — [`FlatStore::scan`] with the `f64`/`f32` decode
//!    tile and the `u8` integer SAD tile — is reused per cell
//!    **unchanged**. All cells of one `u8`
//!    index share a *single* quantization grid fitted over the whole
//!    collection ([`FlatStore::from_rows_with_params`]), so a row's
//!    stored bytes — and with them its filter score — are exactly what
//!    they would be in the monolithic store.
//! 2. **Route (query time)** — rank the `C` centroids by the query's
//!    *filter* distance (the weighted L1 the cell scans themselves use)
//!    and visit only the nearest [`RoutedIndex::n_probe`] cells: the
//!    filter scan touches `Σ_{visited} |cell|` rows instead of `n`.
//! 3. **Refine (exact)** — the survivors are re-ranked by exact
//!    distances through the same shared refine routine as the flat
//!    pipeline, so recall stays directly measurable against it.
//!
//! ## Exactness at `n_probe == C`
//!
//! With every cell visited, the candidate pool is the whole database,
//! every per-row filter score is **bit-identical** to the full scan's
//! (per-row kernels do not care which store a row lives in, and `u8`
//! cells share the monolithic grid), and selection uses the same strict
//! `(score, id)` total order — so retrieval at `n_probe == C` equals the
//! unrouted [`FilterRefineIndex`](crate::FilterRefineIndex) outcome
//! exactly, on every backend, at any thread count. The workspace tests
//! pin this. Recall against the flat pipeline is therefore `1.0` at
//! `n_probe == C` and monotone in between: growing `n_probe` only ever
//! *adds* candidates.
//!
//! ## Batched routing
//!
//! [`RoutedIndex::retrieve_batch`] groups the batch **by cell** before
//! scanning: every visited cell scores all the queries routed to it in
//! one sequential [`FlatStore::scan`], so a hot cell block serves a dense
//! tile of query rows
//! instead of one query at a time, and cells fan out across the
//! persistent worker pool. Each query's score rows then stream straight
//! from the cells into its [`TopP`] selection under their global ids,
//! and on to the refine step. (Unlike the flat pipeline's
//! `tiled_query_pipeline`, there is no duplicate-query memo — grouping
//! is by cell, not by tile.)

use crate::error::{check_query_params, QueryError};
use crate::filter_refine::{
    effective_p, refine_candidates, top_p, FilterKind, RetrievalOutcome, TopP,
};
use qse_core::QseModel;
use qse_distance::vector::weighted_l1_row;
use qse_distance::{DistanceMeasure, FilterElem, FlatStore, FlatVectors, MappedWords, WeightedL1};
use qse_embedding::{Embedding, KMeans, KMeansConfig};
use rayon::prelude::*;

/// Configuration of the routing layer: how many cells to partition into
/// and how many to visit per query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutedConfig {
    /// Number of k-means cells `C` (clamped to the database size at
    /// build time).
    pub cells: usize,
    /// Cells visited per query (clamped to the actual cell count; see
    /// [`RoutedIndex::set_n_probe`] to sweep after building).
    pub n_probe: usize,
    /// Seed of the deterministic k-means initialization.
    pub seed: u64,
    /// Maximum Lloyd iterations of the k-means fit.
    pub max_iters: usize,
}

impl Default for RoutedConfig {
    fn default() -> Self {
        Self {
            cells: 16,
            n_probe: 4,
            seed: 0x5EED,
            max_iters: 25,
        }
    }
}

/// One cell's list of global database ids: heap-owned for indexes built
/// in process, or borrowed zero-copy out of an `mmap`ed snapshot's ids
/// section (one [`MappedWords`] per cell, all sharing a single mapping).
/// Reads go through `Deref<Target = [usize]>`, so probe/scan code is
/// identical for both representations. The snapshot loader validates the
/// whole section (bounds + permutation) before wrapping it, exactly as
/// the owned decoder does.
#[derive(Debug, Clone)]
pub enum IdList {
    /// Heap-owned ids — everything built in process.
    Owned(Vec<usize>),
    /// Ids borrowed zero-copy from an `mmap`ed snapshot.
    Mapped(MappedWords),
}

impl IdList {
    /// The ids as a heap-owned vector, copying mapped words. Used by the
    /// dynamic loader, whose routing state mutates its id lists in place
    /// and therefore always owns them.
    pub fn into_owned(self) -> Vec<usize> {
        match self {
            Self::Owned(v) => v,
            Self::Mapped(m) => m.as_slice().to_vec(),
        }
    }
}

impl std::ops::Deref for IdList {
    type Target = [usize];

    #[inline]
    fn deref(&self) -> &[usize] {
        match self {
            Self::Owned(v) => v,
            Self::Mapped(m) => m.as_slice(),
        }
    }
}

/// A database indexed for cluster-routed filter-and-refine retrieval
/// (see the module docs). Generic over the filter-store precision `E`
/// exactly like [`FilterRefineIndex`](crate::FilterRefineIndex).
pub struct RoutedIndex<O, E: FilterElem = f64> {
    pub(crate) kind: FilterKind<O>,
    pub(crate) router: KMeans,
    /// One filter store per cell; `u8` cells share one grid fitted over
    /// the whole collection (bit-compatible with the monolithic store).
    pub(crate) cells: Vec<FlatStore<E>>,
    /// `ids[c][j]` is the global database id of row `j` of cell `c`.
    pub(crate) ids: Vec<IdList>,
    pub(crate) n_probe: usize,
    pub(crate) p_scale: f64,
    pub(crate) len: usize,
}

/// The probe set that seats at least `min_rows` candidate rows: the first
/// `n_probe` entries of `ranked` (cells in increasing centroid filter
/// distance, ties toward the lower cell id), extended in rank order while
/// the visited cells hold fewer rows than `min_rows`.
///
/// `n_probe` alone cannot guarantee a usable candidate pool: k-means can
/// leave a cell nearly empty, and a routed `DynamicIndex` can empty one
/// outright by removing its last member — a query routed into such cells
/// would otherwise reach the refine step with fewer than `k` candidates
/// and panic there. The extension is deterministic (the same total order
/// the router ranks by), a no-op whenever the `n_probe` nearest cells
/// already hold `min_rows` rows, and bounded by the full cell list, whose
/// pool is the entire database.
pub(crate) fn probe_prefix<E: FilterElem>(
    ranked: &[usize],
    cells: &[FlatStore<E>],
    n_probe: usize,
    min_rows: usize,
) -> Vec<usize> {
    let mut pool = 0usize;
    let mut take = 0usize;
    while take < ranked.len() && (take < n_probe || pool < min_rows) {
        pool += cells[ranked[take]].len();
        take += 1;
    }
    ranked[..take].to_vec()
}

impl<O: Clone + Send + Sync> RoutedIndex<O> {
    /// Index `database` under a global-L1 embedding with the exact `f64`
    /// filter store (see
    /// [`Self::build_global_with_store`] for compact backends).
    pub fn build_global<Emb>(
        embedding: Emb,
        database: &[O],
        distance: &dyn DistanceMeasure<O>,
        config: RoutedConfig,
    ) -> Self
    where
        Emb: Embedding<O> + 'static,
    {
        Self::build_global_with_store(embedding, database, distance, config)
    }

    /// Index `database` under a trained [`QseModel`] with the exact
    /// `f64` filter store.
    pub fn build_query_sensitive(
        model: QseModel<O>,
        database: &[O],
        distance: &dyn DistanceMeasure<O>,
        config: RoutedConfig,
    ) -> Self {
        Self::build_query_sensitive_with_store(model, database, distance, config)
    }
}

impl<O: Clone + Send + Sync, E: FilterElem> RoutedIndex<O, E> {
    /// Index `database` under a global-L1 embedding with an explicit
    /// filter-store precision `E` and the routing layer of `config`:
    /// embed every object (parallel), fit the seeded k-means over the
    /// embedded rows, and build one per-cell store — all cells encoding
    /// under parameters fitted over the **whole** collection.
    ///
    /// # Panics
    /// Panics if the database is empty or `config` is degenerate
    /// (`cells == 0`, `n_probe == 0`).
    pub fn build_global_with_store<Emb>(
        embedding: Emb,
        database: &[O],
        distance: &dyn DistanceMeasure<O>,
        config: RoutedConfig,
    ) -> Self
    where
        Emb: Embedding<O> + 'static,
    {
        assert!(!database.is_empty(), "cannot index an empty database");
        let rows = embedding.embed_all(database, distance);
        let dim = embedding.dim();
        let kind = FilterKind::GlobalL1 {
            filter: WeightedL1::uniform(dim),
            embedding: Box::new(embedding),
        };
        Self::build(kind, dim, rows, config)
    }

    /// Index `database` under a trained [`QseModel`] with an explicit
    /// filter-store precision `E` (see
    /// [`Self::build_global_with_store`]).
    ///
    /// # Panics
    /// As [`Self::build_global_with_store`].
    pub fn build_query_sensitive_with_store(
        model: QseModel<O>,
        database: &[O],
        distance: &dyn DistanceMeasure<O>,
        config: RoutedConfig,
    ) -> Self {
        assert!(!database.is_empty(), "cannot index an empty database");
        let embedding = model.embedding();
        let rows = embedding.embed_all(database, distance);
        let dim = model.dim();
        Self::build(FilterKind::QuerySensitive { model }, dim, rows, config)
    }

    fn build(kind: FilterKind<O>, dim: usize, rows: Vec<Vec<f64>>, config: RoutedConfig) -> Self {
        assert!(config.cells >= 1, "cells must be at least 1");
        assert!(config.n_probe >= 1, "n_probe must be at least 1");
        let len = rows.len();
        // One set of encode parameters over the whole collection, shared
        // by every cell — per-cell fits would move the u8 grid and break
        // bit-compatibility with the monolithic store.
        let params = E::fit(dim, &rows);
        let flat = FlatVectors::from_rows_with_dim(dim, rows.clone());
        let router = KMeans::fit(
            &flat,
            KMeansConfig {
                cells: config.cells,
                seed: config.seed,
                max_iters: config.max_iters,
            },
        );
        let assignment = router.assign_all(&flat);
        let c = router.cells();
        let mut cell_rows: Vec<Vec<Vec<f64>>> = vec![Vec::new(); c];
        let mut ids: Vec<Vec<usize>> = vec![Vec::new(); c];
        for (i, row) in rows.into_iter().enumerate() {
            cell_rows[assignment[i]].push(row);
            ids[assignment[i]].push(i);
        }
        let cells = cell_rows
            .into_iter()
            .map(|r| FlatStore::from_rows_with_params(dim, r, params.clone()))
            .collect();
        Self {
            kind,
            router,
            cells,
            ids: ids.into_iter().map(IdList::Owned).collect(),
            n_probe: config.n_probe.min(c),
            p_scale: E::DEFAULT_P_SCALE,
            len,
        }
    }

    /// Set the filter oversampling factor (see
    /// [`FilterRefineIndex::with_p_scale`](crate::FilterRefineIndex::with_p_scale);
    /// same contract, same backend defaults). With routing, the scaled
    /// candidate count is additionally capped by the number of rows the
    /// visited cells actually hold.
    ///
    /// # Panics
    /// Panics if `p_scale` is not finite or is below `1.0` (the fallible
    /// form is [`Self::try_with_p_scale`]).
    pub fn with_p_scale(self, p_scale: f64) -> Self {
        self.try_with_p_scale(p_scale)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::with_p_scale`]: the index back with the factor
    /// applied, or [`QueryError::BadPScale`] — for server config/reload
    /// paths, where a bad knob must be an error, not a process death.
    pub fn try_with_p_scale(mut self, p_scale: f64) -> Result<Self, QueryError> {
        crate::error::check_p_scale(p_scale)?;
        self.p_scale = p_scale;
        Ok(self)
    }

    /// The current filter oversampling factor.
    pub fn p_scale(&self) -> f64 {
        self.p_scale
    }

    /// Builder-style [`Self::set_n_probe`].
    ///
    /// # Panics
    /// As [`Self::set_n_probe`].
    pub fn with_n_probe(mut self, n_probe: usize) -> Self {
        self.set_n_probe(n_probe);
        self
    }

    /// Change how many cells each query visits — the recall/latency
    /// knob, cheap to sweep on a built index (`n_probe == cells()`
    /// degrades to the exact full scan).
    ///
    /// # Panics
    /// Panics unless `1 <= n_probe <= cells()` (the fallible form is
    /// [`Self::try_set_n_probe`]).
    pub fn set_n_probe(&mut self, n_probe: usize) {
        self.try_set_n_probe(n_probe)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`Self::set_n_probe`]: [`QueryError::BadNProbe`] when
    /// `n_probe` is outside `1..=cells()`, leaving the knob untouched.
    pub fn try_set_n_probe(&mut self, n_probe: usize) -> Result<(), QueryError> {
        if n_probe < 1 || n_probe > self.cells.len() {
            return Err(QueryError::BadNProbe {
                n_probe,
                cells: self.cells.len(),
            });
        }
        self.n_probe = n_probe;
        Ok(())
    }

    /// Cells visited per query.
    pub fn n_probe(&self) -> usize {
        self.n_probe
    }

    /// Number of k-means cells `C`.
    pub fn cells(&self) -> usize {
        self.cells.len()
    }

    /// Row count of every cell, in cell order (diagnostics: partition
    /// balance determines how sublinear the routed scan really is).
    pub fn cell_sizes(&self) -> Vec<usize> {
        self.cells.iter().map(FlatStore::len).collect()
    }

    /// Number of database objects indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the index is empty (never after construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the embedded vectors.
    pub fn dim(&self) -> usize {
        self.kind.dim()
    }

    /// Exact distance computations needed to embed one query.
    pub fn embedding_cost(&self) -> usize {
        self.kind.embedding_cost()
    }

    /// The cells nearest to an embedded query under the **filter**
    /// distance (weighted L1 against each centroid — the same measure the
    /// cell scans use), in increasing distance, ties toward the lower
    /// cell id: the first [`Self::n_probe`] of the ranking, extended past
    /// `n_probe` only while the visited cells hold fewer than `min_rows`
    /// rows (see [`probe_prefix`]).
    fn route(&self, coords: &[f64], weights: &[f64], min_rows: usize) -> Vec<usize> {
        let centroids = self.router.centroids();
        let scores: Vec<f64> = (0..centroids.len())
            .map(|c| weighted_l1_row(weights, coords, centroids.row(c)))
            .collect();
        let ranked = top_p(&scores, 0);
        probe_prefix(&ranked, &self.cells, self.n_probe, min_rows)
    }

    /// The cells `query` would visit at the current [`Self::n_probe`]
    /// (diagnostics / evaluation; spends one embedding).
    pub fn probe_cells(&self, query: &O, distance: &dyn DistanceMeasure<O>) -> Vec<usize> {
        let (coords, weights) = self.kind.embed(query, distance);
        self.route(&coords, &weights, 0)
    }

    /// Cluster-routed filter-and-refine retrieval: route to the nearest
    /// [`Self::n_probe`] cells, filter-scan only those, keep the best
    /// `⌈p · p_scale⌉` candidates (capped by the visited row count), and
    /// re-rank them by exact distance. At `n_probe == cells()` the
    /// outcome equals the unrouted
    /// [`FilterRefineIndex::retrieve`](crate::FilterRefineIndex::retrieve)
    /// exactly (see the module docs).
    ///
    /// # Panics
    /// Panics if `k` is zero, `p < k`, or `p` exceeds the database size,
    /// or if `database` does not match the indexed collection's length
    /// (the fallible form is [`Self::try_retrieve`]).
    pub fn retrieve(
        &self,
        query: &O,
        database: &[O],
        distance: &dyn DistanceMeasure<O>,
        k: usize,
        p: usize,
    ) -> RetrievalOutcome {
        self.try_retrieve(query, database, distance, k, p)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::retrieve`]: the retrieval outcome, or a typed
    /// [`QueryError`] for any parameter the asserting form would panic
    /// on — the entry point a serving layer calls so a malformed request
    /// is an error response, never an unwinding thread.
    ///
    /// # Errors
    /// [`QueryError::BadK`], [`QueryError::BadP`] and
    /// [`QueryError::DatabaseMismatch`], exactly as
    /// [`FilterRefineIndex::try_retrieve`](crate::FilterRefineIndex::try_retrieve).
    pub fn try_retrieve(
        &self,
        query: &O,
        database: &[O],
        distance: &dyn DistanceMeasure<O>,
        k: usize,
        p: usize,
    ) -> Result<RetrievalOutcome, QueryError> {
        self.validate(database, k, p)?;
        let (coords, weights) = self.kind.embed(query, distance);
        let visited = self.route(&coords, &weights, k);
        // Each visited cell's scores go straight into the selection under
        // their global ids; one score buffer serves every cell. A pool
        // smaller than p is kept whole.
        let mut top = TopP::new(effective_p(p, self.p_scale, self.len));
        let mut scores = Vec::new();
        for &c in &visited {
            let cell = &self.cells[c];
            scores.resize(cell.len(), 0.0);
            cell.scan(&coords, &weights, &mut scores);
            top.push(&scores, self.ids[c].iter().copied());
        }
        let candidates = top.finish();
        Ok(refine_candidates(
            query,
            database,
            distance,
            k,
            &candidates,
            self.embedding_cost(),
        ))
    }

    /// Batched cluster-routed retrieval, grouped **by cell** so tiles
    /// stay dense (see the module docs): embed the whole batch, route
    /// every query, then let each visited cell score all of its queries
    /// in one sequential Q×N tile — cells fan out across the persistent
    /// worker pool — and finally feed each query's score rows into its
    /// selection and the exact refine step (parallel over queries).
    ///
    /// Results are in query order and identical to calling
    /// [`Self::retrieve`] per query, at any thread count.
    ///
    /// # Panics
    /// As [`Self::retrieve`] (when the batch is non-empty; the fallible
    /// form is [`Self::try_retrieve_batch`]).
    pub fn retrieve_batch(
        &self,
        queries: &[O],
        database: &[O],
        distance: &dyn DistanceMeasure<O>,
        k: usize,
        p: usize,
    ) -> Vec<RetrievalOutcome> {
        if queries.is_empty() {
            return Vec::new();
        }
        self.try_retrieve_batch(queries, database, distance, k, p)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::retrieve_batch`]: one outcome per query in query
    /// order, or a typed [`QueryError`] — including
    /// [`QueryError::EmptyBatch`] for a zero-query batch, which the
    /// asserting form instead maps to an empty result vector.
    ///
    /// # Errors
    /// As [`Self::try_retrieve`], plus [`QueryError::EmptyBatch`].
    pub fn try_retrieve_batch(
        &self,
        queries: &[O],
        database: &[O],
        distance: &dyn DistanceMeasure<O>,
        k: usize,
        p: usize,
    ) -> Result<Vec<RetrievalOutcome>, QueryError> {
        if queries.is_empty() {
            return Err(QueryError::EmptyBatch);
        }
        self.validate(database, k, p)?;
        // Batch-embed into flat storage, exactly like the flat pipeline.
        let embedded = self.kind.embed_batch(queries, distance);
        let query_rows = |q: usize| embedded.rows(q..q + 1);

        // Route every query (independent per query, deterministic).
        let visited: Vec<Vec<usize>> = (0..queries.len())
            .into_par_iter()
            .map(|q| {
                let (coords, weights) = query_rows(q);
                self.route(coords, weights, k)
            })
            .collect();

        // Group the batch by cell; remember each query's row within every
        // group so its scores can be sliced back out afterwards.
        let c = self.cells.len();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); c];
        let mut slots: Vec<Vec<(usize, usize)>> = vec![Vec::new(); queries.len()];
        for (q, cells) in visited.iter().enumerate() {
            for &cell in cells {
                slots[q].push((cell, groups[cell].len()));
                groups[cell].push(q);
            }
        }

        // Each visited cell scores its whole query group in one
        // sequential scan over gathered coordinate and weight rows; cells
        // run in parallel.
        let cell_scores: Vec<Vec<f64>> = groups
            .par_iter()
            .enumerate()
            .map(|(cell, group)| {
                if group.is_empty() || self.cells[cell].is_empty() {
                    return Vec::new();
                }
                let store = &self.cells[cell];
                let coords: Vec<f64> = group
                    .iter()
                    .flat_map(|&q| query_rows(q).0)
                    .copied()
                    .collect();
                let weights: Vec<f64> = group
                    .iter()
                    .flat_map(|&q| query_rows(q).1)
                    .copied()
                    .collect();
                let mut out = vec![0.0; group.len() * store.len()];
                store.scan(&coords, &weights, &mut out);
                out
            })
            .collect();

        // Per query: feed its score row of every visited cell into the
        // selection, then refine (parallel over queries).
        let embedding_cost = self.embedding_cost();
        Ok(slots
            .par_iter()
            .enumerate()
            .map(|(q, slots)| {
                let mut top = TopP::new(effective_p(p, self.p_scale, self.len));
                for &(cell, row) in slots {
                    let n_c = self.cells[cell].len();
                    let scores = &cell_scores[cell][row * n_c..(row + 1) * n_c];
                    top.push(scores, self.ids[cell].iter().copied());
                }
                let candidates = top.finish();
                refine_candidates(
                    &queries[q],
                    database,
                    distance,
                    k,
                    &candidates,
                    embedding_cost,
                )
            })
            .collect())
    }

    fn validate(&self, database: &[O], k: usize, p: usize) -> Result<(), QueryError> {
        check_query_params(k, p, database.len())?;
        if database.len() != self.len {
            return Err(QueryError::DatabaseMismatch {
                expected: self.len,
                got: database.len(),
            });
        }
        Ok(())
    }
}

/// Recall@k of routed retrieval against its own exact full scan, one
/// point per entry of `probes`: for each `n_probe` value the index is
/// swept to, the mean fraction (over `queries`) of the `n_probe ==
/// cells()` neighbors the routed retrieval recovers — the routing
/// analogue of the evaluation harness's p-sensitivity curves. The
/// baseline at `n_probe == cells()` *is* the unrouted pipeline's outcome
/// (see the module docs), so this measures exactly the recall lost to
/// routing. The index's original `n_probe` is restored afterwards.
///
/// The curve is monotone non-decreasing in `n_probe` (visiting more
/// cells only adds candidates) and reaches `1.0` at `n_probe ==
/// cells()`; the workspace tests pin both properties.
///
/// # Panics
/// As [`RoutedIndex::retrieve_batch`], plus if any probe value is
/// outside `1..=cells()`.
pub fn recall_vs_n_probe<O, E>(
    index: &mut RoutedIndex<O, E>,
    queries: &[O],
    database: &[O],
    distance: &dyn DistanceMeasure<O>,
    k: usize,
    p: usize,
    probes: &[usize],
) -> Vec<(usize, f64)>
where
    O: Clone + Send + Sync,
    E: FilterElem,
{
    let original = index.n_probe();
    index.set_n_probe(index.cells());
    let baseline = index.retrieve_batch(queries, database, distance, k, p);
    let curve = probes
        .iter()
        .map(|&n_probe| {
            index.set_n_probe(n_probe);
            let routed = index.retrieve_batch(queries, database, distance, k, p);
            let mut hit = 0usize;
            let mut total = 0usize;
            for (truth, got) in baseline.iter().zip(&routed) {
                total += truth.neighbors.len();
                hit += truth
                    .neighbors
                    .iter()
                    .filter(|i| got.neighbors.contains(i))
                    .count();
            }
            (n_probe, hit as f64 / total.max(1) as f64)
        })
        .collect();
    index.set_n_probe(original);
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter_refine::FilterRefineIndex;
    use qse_distance::traits::{FnDistance, MetricProperties};
    use qse_embedding::{FastMap, FastMapConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn euclid() -> FnDistance<impl Fn(&Vec<f64>, &Vec<f64>) -> f64 + Send + Sync> {
        FnDistance::new(
            "euclid",
            MetricProperties::Metric,
            |a: &Vec<f64>, b: &Vec<f64>| {
                a.iter()
                    .zip(b)
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum::<f64>()
                    .sqrt()
            },
        )
    }

    fn clustered_db(n: usize) -> Vec<Vec<f64>> {
        // Nine well-separated 2-D clusters on a 3×3 grid.
        (0..n)
            .map(|i| {
                let c = i % 9;
                vec![
                    (c % 3) as f64 * 40.0 + (i as f64 * 0.61).sin(),
                    (c / 3) as f64 * 40.0 + (i as f64 * 0.37).cos(),
                ]
            })
            .collect()
    }

    fn fastmap(db: &[Vec<f64>], seed: u64) -> FastMap<Vec<f64>> {
        let d = euclid();
        let mut rng = StdRng::seed_from_u64(seed);
        FastMap::train(
            db,
            &d,
            FastMapConfig {
                dimensions: 2,
                pivot_iterations: 3,
            },
            &mut rng,
        )
    }

    #[test]
    fn full_probe_matches_the_unrouted_index() {
        let db = clustered_db(180);
        let d = euclid();
        let flat = FilterRefineIndex::build_global(fastmap(&db, 1), &db, &d);
        let routed = RoutedIndex::build_global(
            fastmap(&db, 1),
            &db,
            &d,
            RoutedConfig {
                cells: 6,
                n_probe: 6,
                ..RoutedConfig::default()
            },
        );
        let queries: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 3) as f64 * 40.0 + 0.3, (i % 2) as f64 * 40.0 - 0.2])
            .collect();
        for q in &queries {
            assert_eq!(
                routed.retrieve(q, &db, &d, 3, 15),
                flat.retrieve(q, &db, &d, 3, 15)
            );
        }
        assert_eq!(
            routed.retrieve_batch(&queries, &db, &d, 3, 15),
            flat.retrieve_batch(&queries, &db, &d, 3, 15)
        );
    }

    #[test]
    fn batch_matches_sequential_at_partial_probe() {
        let db = clustered_db(200);
        let d = euclid();
        for n_probe in [1, 2, 4] {
            let routed = RoutedIndex::build_global(
                fastmap(&db, 2),
                &db,
                &d,
                RoutedConfig {
                    cells: 8,
                    n_probe,
                    ..RoutedConfig::default()
                },
            );
            let queries: Vec<Vec<f64>> = (0..25)
                .map(|i| vec![i as f64 * 3.1, (25 - i) as f64 * 2.7])
                .collect();
            let batch = routed.retrieve_batch(&queries, &db, &d, 2, 10);
            for (q, out) in queries.iter().zip(&batch) {
                assert_eq!(
                    *out,
                    routed.retrieve(q, &db, &d, 2, 10),
                    "n_probe {n_probe}"
                );
            }
        }
    }

    #[test]
    fn partition_covers_every_row_exactly_once() {
        let db = clustered_db(150);
        let d = euclid();
        let routed = RoutedIndex::build_global(
            fastmap(&db, 3),
            &db,
            &d,
            RoutedConfig {
                cells: 5,
                n_probe: 2,
                ..RoutedConfig::default()
            },
        );
        assert_eq!(routed.cell_sizes().iter().sum::<usize>(), db.len());
        let mut all: Vec<usize> = routed.ids.iter().flat_map(|l| l.iter().copied()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..db.len()).collect::<Vec<_>>());
        for (c, ids) in routed.ids.iter().enumerate() {
            assert_eq!(ids.len(), routed.cells[c].len(), "cell {c}");
        }
    }

    #[test]
    fn recall_curve_is_monotone_and_exact_at_full_probe() {
        let db = clustered_db(240);
        let d = euclid();
        let mut routed = RoutedIndex::build_global(
            fastmap(&db, 4),
            &db,
            &d,
            RoutedConfig {
                cells: 8,
                n_probe: 2,
                ..RoutedConfig::default()
            },
        );
        let queries: Vec<Vec<f64>> = (0..30)
            .map(|i| clustered_db(300)[i * 7 + 3].clone())
            .collect();
        let probes: Vec<usize> = (1..=8).collect();
        let curve = recall_vs_n_probe(&mut routed, &queries, &db, &d, 3, 12, &probes);
        for pair in curve.windows(2) {
            assert!(pair[1].1 >= pair[0].1, "recall must be monotone: {curve:?}");
        }
        assert_eq!(curve.last().unwrap().1, 1.0, "full probe must be exact");
        assert_eq!(routed.n_probe(), 2, "original n_probe must be restored");
    }

    #[test]
    fn probe_cells_returns_n_probe_cells() {
        let db = clustered_db(120);
        let d = euclid();
        let routed = RoutedIndex::build_global(
            fastmap(&db, 5),
            &db,
            &d,
            RoutedConfig {
                cells: 6,
                n_probe: 3,
                ..RoutedConfig::default()
            },
        );
        let cells = routed.probe_cells(&vec![1.0, 1.0], &d);
        assert_eq!(cells.len(), 3);
        let mut unique = cells.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 3, "visited cells must be distinct");
    }

    #[test]
    #[should_panic(expected = "must be in 1..=")]
    fn set_n_probe_rejects_out_of_range() {
        let db = clustered_db(60);
        let d = euclid();
        let mut routed = RoutedIndex::build_global(
            fastmap(&db, 6),
            &db,
            &d,
            RoutedConfig {
                cells: 4,
                n_probe: 2,
                ..RoutedConfig::default()
            },
        );
        routed.set_n_probe(5);
    }

    #[test]
    fn config_clamps_to_small_databases() {
        // More cells than rows: k-means clamps, n_probe clamps with it.
        let db = clustered_db(5);
        let d = euclid();
        let routed = RoutedIndex::build_global(
            fastmap(&db, 7),
            &db,
            &d,
            RoutedConfig {
                cells: 64,
                n_probe: 64,
                ..RoutedConfig::default()
            },
        );
        assert!(routed.cells() <= 5);
        assert_eq!(routed.n_probe(), routed.cells());
        let out = routed.retrieve(&vec![0.0, 0.0], &db, &d, 1, 3);
        assert_eq!(out.neighbors.len(), 1);
    }
}
