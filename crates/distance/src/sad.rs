//! In-domain integer scoring for the `u8` quantized filter store: the
//! weighted sum-of-absolute-differences (SAD) tile behind
//! [`FlatStore::scan`] on `FlatStore<u8>`.
//!
//! Scoring a `u8` store like the exact backends — dequantize each
//! cache-sized block back to `f64`, then run the canonical weighted-L1
//! reduction — is correct, but the dequantization arithmetic (`lo + s · v`
//! per stored value) makes the compact store *slower* than `f64` on
//! compute-bound hosts. So `u8` overrides [`FilterElem::scan`] with a tile
//! that never leaves the integer domain:
//!
//! 1. **Quantize the query onto the store's grid** at scoring time
//!    ([`SadQuery::new`]): coordinate `j` of the query becomes the level
//!    `encode(q_j)` under the store's [`QuantParams`] — one extra,
//!    *bounded* quantization error of at most `scale_j / 2` on the query
//!    side (for in-grid coordinates).
//! 2. **Fold the weights and the grid step into integer weight levels**:
//!    the per-coordinate combined weight `c_j = w_j · scale_j` (which is
//!    what one *level* of difference is worth in score units) is rounded
//!    onto [`SAD_WEIGHT_LEVELS`] integer levels,
//!    `iw_j = round(c_j / rescale)` with one per-query
//!    `rescale = max_j c_j / 65535`.
//! 3. **Accumulate `Σ_j iw_j · |qcode_j − row_j|` in widened integer
//!    arithmetic** over the raw `u8` rows ([`weighted_sad_row`]): `u8`
//!    absolute differences and `u16` weight levels multiply-accumulate
//!    through `u32` lanes (overflow-free per [`SAD_CHUNK`]-coordinate
//!    chunk by construction), chunks fold into a `u64` total — no
//!    per-value dequantization anywhere in the scan.
//! 4. **One per-query rescale** maps the integer sum back to score
//!    units: `score = offset + rescale · sum`. Integer addition is
//!    associative, so — unlike the floating-point decode tile, which
//!    needs one canonical summation order — every score of the SAD tile
//!    equals its query's per-row score **bit for bit** *by
//!    construction*, whatever the batch shape or thread count.
//!
//! ## Exactness of the `offset`
//!
//! Two query-side effects are folded into a per-query constant rather
//! than approximated:
//!
//! * **Constant coordinates** (`scale_j = 0`): every stored level decodes
//!   to exactly `min_j`, so the coordinate contributes the same
//!   `w_j · |q_j − min_j|` to every row.
//! * **Out-of-grid query coordinates**: stored values decode inside
//!   `[min_j, min_j + 255 · scale_j]`, so a query coordinate outside that
//!   range is at `|q_j − b| = dist(q_j, grid_j) + |clamp(q_j) − b|` from
//!   *every* stored value — clamping shifts all scores by the same
//!   constant, which the offset restores. Rankings are therefore immune
//!   to query clamping; only the *in-grid rounding* of the query (and of
//!   the weights) is approximate.
//!
//! ## Error bound
//!
//! Relative to the decode-path score over the same store (i.e. the
//! weighted L1 against the decoded rows), a SAD score differs by at most
//! [`SadQuery::score_error_bound`]: `Σ_j c_j / 2` (query rounding, over
//! coordinates with `scale_j > 0`) plus `255 · rescale / 2` per such
//! coordinate (weight rounding — about `2⁻¹⁷ · max_j c_j` per
//! coordinate, negligible next to the grid terms). Relative to the
//! **exact** `f64` store, add the store-side half-step bound
//! `Σ_j w_j · scale_j / 2` — together the *widened two-sided* bound
//! `Σ_j w_j · scale_j` (+ the weight-rounding term) that the workspace
//! store-backend tests pin, and that motivates the `u8` backend's
//! doubled default filter oversampling
//! ([`FilterElem::DEFAULT_P_SCALE`](crate::FilterElem::DEFAULT_P_SCALE)).
//!
//! Non-finite query coordinates degrade gracefully: a NaN query
//! coordinate poisons the offset (every score becomes NaN, as on the
//! decode path) unless its coordinate has `scale_j > 0`, in which case it
//! encodes to level 0 exactly like [`FilterElem::encode`] for stored
//! rows.

use crate::vector::{FilterElem, FlatStore, QuantParams};

/// Number of integer weight levels the combined per-coordinate weights
/// `w_j · scale_j` are rounded onto (the largest one maps to exactly this
/// level). `u16::MAX` keeps the weight-rounding error around `2⁻¹⁷` of
/// the largest combined weight per level of difference, while the widest
/// per-coordinate product, `65535 · 255 < 2²⁴`, lets [`SAD_CHUNK`]
/// coordinates accumulate in plain `u32` lanes — the narrow arithmetic
/// the auto-vectorizer actually turns into packed integer multiplies.
pub const SAD_WEIGHT_LEVELS: u32 = u16::MAX as u32;

/// Coordinates per `u32` accumulation chunk of [`weighted_sad_row`]:
/// `SAD_CHUNK · 65535 · 255 < 2³²`, so a chunk's weighted SAD cannot
/// overflow its `u32` lanes; chunks fold into a `u64` total. Embedding
/// dimensionalities in this workspace are far below one chunk, so the
/// fold is almost always a single widening move.
pub const SAD_CHUNK: usize = 128;

/// Number of `u8` values per database block of the SAD tile (32 KiB —
/// the same byte footprint as the decode tile's
/// [`crate::vector::BLOCK_VALUES`] `f64` blocks, sized to the L1 data
/// cache). A block is rescanned by every query of a scan while hot.
pub const SAD_BLOCK_VALUES: usize = 32 * 1024;

/// One `u32` chunk of the weighted SAD: up to [`SAD_CHUNK`] coordinates
/// accumulating `iw_j · |a_j − b_j|` in eight independent `u32` lanes
/// (`u16` weight levels × `u8` differences — narrow enough for the
/// auto-vectorizer to use packed integer multiply-adds).
#[inline(always)]
fn weighted_sad_chunk(iweights: &[u16], codes: &[u8], row: &[u8]) -> u32 {
    debug_assert!(iweights.len() <= SAD_CHUNK, "chunk exceeds u32 capacity");
    const LANES: usize = 8;
    let mut acc = [0u32; LANES];
    let mut w_blocks = iweights.chunks_exact(LANES);
    let mut a_blocks = codes.chunks_exact(LANES);
    let mut b_blocks = row.chunks_exact(LANES);
    for ((w, a), b) in (&mut w_blocks).zip(&mut a_blocks).zip(&mut b_blocks) {
        for lane in 0..LANES {
            acc[lane] += u32::from(w[lane]) * u32::from(a[lane].abs_diff(b[lane]));
        }
    }
    let mut tail = 0u32;
    for ((w, a), b) in w_blocks
        .remainder()
        .iter()
        .zip(a_blocks.remainder())
        .zip(b_blocks.remainder())
    {
        tail += u32::from(*w) * u32::from(a.abs_diff(*b));
    }
    acc.iter().sum::<u32>() + tail
}

/// `Σ_j iweights_j · |codes_j − row_j|` in widened integer arithmetic:
/// `u8` absolute differences and `u16` weight levels multiply-accumulate
/// through `u32` lanes in [`SAD_CHUNK`]-coordinate chunks (no overflow by
/// construction, see [`SAD_CHUNK`]), and the chunks fold into a `u64`
/// total. Integer addition is associative, so any regrouping of this sum
/// is bit-identical — the SAD tile needs no canonical summation order.
///
/// The slices must share one length; full checking is left to the callers
/// (debug builds assert).
#[inline(always)]
pub fn weighted_sad_row(iweights: &[u16], codes: &[u8], row: &[u8]) -> u64 {
    debug_assert_eq!(iweights.len(), codes.len(), "weight/code length mismatch");
    debug_assert_eq!(iweights.len(), row.len(), "weight/row length mismatch");
    if iweights.len() <= SAD_CHUNK {
        return u64::from(weighted_sad_chunk(iweights, codes, row));
    }
    let mut total = 0u64;
    for ((w, a), b) in iweights
        .chunks(SAD_CHUNK)
        .zip(codes.chunks(SAD_CHUNK))
        .zip(row.chunks(SAD_CHUNK))
    {
        total += u64::from(weighted_sad_chunk(w, a, b));
    }
    total
}

/// The flat SAD scan body: one query against a contiguous run of raw
/// rows, `out[i] = offset + rescale · weighted_sad_row(row_i)`.
///
/// `#[inline(always)]` is load-bearing, not a hint: the `target_feature`
/// wrappers below inline this body (callee features ⊆ caller features)
/// and recompile it under their wider ISA, which is the whole
/// multiversioning mechanism. The baseline x86-64 target is SSE2-only —
/// no packed 32-bit multiply — so the `u16 × u8 → u32` lanes of
/// [`weighted_sad_chunk`] vectorize poorly there; under AVX2 the same
/// source compiles to packed multiplies and the scan roughly halves in
/// time (measured on the bench host: dim-8 single query over 10k rows
/// drops from ~45 µs to ~29 µs, beating the 36 µs `f64` decode scan).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn sad_rows_scalar(
    iweights: &[u16],
    codes: &[u8],
    rows: &[u8],
    dim: usize,
    offset: f64,
    rescale: f64,
    out: &mut [f64],
) {
    for (row, slot) in rows.chunks_exact(dim).zip(out.iter_mut()) {
        // The u64 → f64 conversion is exact for sums below 2⁵³ — with
        // per-coordinate products under 2²⁴, that covers any store whose
        // dimensionality fits in memory.
        *slot = offset + rescale * weighted_sad_row(iweights, codes, row) as f64;
    }
}

/// [`sad_rows_scalar`] recompiled under AVX2 codegen.
///
/// # Safety
/// The host CPU must support AVX2 (callers guard with
/// `is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn sad_rows_avx2(
    iweights: &[u16],
    codes: &[u8],
    rows: &[u8],
    dim: usize,
    offset: f64,
    rescale: f64,
    out: &mut [f64],
) {
    sad_rows_scalar(iweights, codes, rows, dim, offset, rescale, out);
}

/// Dispatch the flat SAD scan to the widest ISA variant the host
/// supports (detection is cached by `std` behind an atomic load, so the
/// check is negligible even per block). Every variant runs the same
/// integer sums and the same per-row scalar `offset + rescale · sum`
/// map, so the result is **bit-identical** across variants — ISA choice
/// affects speed only, which the workspace tests pin. AVX-512 measured
/// no faster than AVX2 on this kernel (it is bound by the same packed
/// 32-bit multiplies), so AVX2 is the only variant carried.
#[inline]
#[allow(clippy::too_many_arguments)]
fn sad_rows_dispatch(
    iweights: &[u16],
    codes: &[u8],
    rows: &[u8],
    dim: usize,
    offset: f64,
    rescale: f64,
    out: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 requirement is established by the runtime
        // detection on the line above.
        unsafe { sad_rows_avx2(iweights, codes, rows, dim, offset, rescale, out) };
        return;
    }
    sad_rows_scalar(iweights, codes, rows, dim, offset, rescale, out);
}

/// One query prepared for integer-domain SAD scanning of a `u8` store:
/// the query's grid levels, the integer weight levels, and the per-query
/// rescale/offset that map integer sums back to score units (see the
/// module docs for the construction).
///
/// A `SadQuery` is bound to the [`QuantParams`] it was built with; scoring
/// it against a store fitted on a different grid is a logic error (only
/// the dimensionality is checked).
#[derive(Debug, Clone, PartialEq)]
pub struct SadQuery {
    codes: Vec<u8>,
    iweights: Vec<u16>,
    rescale: f64,
    offset: f64,
    error_bound: f64,
}

impl SadQuery {
    /// Quantize `query` onto the grid of `params` and fold `weights` into
    /// integer weight levels (one pass, O(dim)).
    ///
    /// # Panics
    /// Panics if `weights`, `query` and the grid disagree in
    /// dimensionality, or if any weight is negative or non-finite — the
    /// same contract as [`crate::vector::WeightedL1::new`] (a negative
    /// combined weight would silently saturate to integer level 0,
    /// breaking [`Self::score_error_bound`]'s guarantee).
    pub fn new(weights: &[f64], query: &[f64], params: &QuantParams) -> Self {
        let dim = params.min.len();
        assert_eq!(weights.len(), dim, "weight/grid dimensionality mismatch");
        assert_eq!(query.len(), dim, "query/grid dimensionality mismatch");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weighted SAD requires finite non-negative weights"
        );
        let mut codes = vec![0u8; dim];
        let mut combined = vec![0.0f64; dim];
        let mut offset = 0.0f64;
        let mut max_c = 0.0f64;
        for j in 0..dim {
            let s = params.scale[j];
            let lo = params.min[j];
            if s == 0.0 {
                // Constant coordinate: every stored level decodes to
                // exactly `lo`, so the contribution is the same for every
                // row — fold it into the offset, leave the level at 0.
                offset += weights[j] * (query[j] - lo).abs();
                continue;
            }
            let hi = lo + 255.0 * s;
            // Out-of-grid query coordinates are a constant score shift
            // (every stored value decodes inside [lo, hi]); fold the shift
            // into the offset so clamping below is exact, not lossy.
            if query[j] < lo {
                offset += weights[j] * (lo - query[j]);
            } else if query[j] > hi {
                offset += weights[j] * (query[j] - hi);
            }
            codes[j] = u8::encode(query[j], j, params);
            combined[j] = weights[j] * s;
            max_c = max_c.max(combined[j]);
        }
        let (rescale, iweights) = if max_c > 0.0 {
            let unit = max_c / f64::from(SAD_WEIGHT_LEVELS);
            let iweights = combined.iter().map(|c| (c / unit).round() as u16).collect();
            (unit, iweights)
        } else {
            // All weights zero (or all coordinates constant): the integer
            // sum is identically zero and the offset is the whole score.
            (0.0, vec![0u16; dim])
        };
        // Query-side error vs the decode-path score: half a grid step per
        // in-grid coordinate (c_j / 2) plus the weight rounding
        // (≤ rescale / 2 per level of difference, ≤ 255 levels).
        let error_bound = combined
            .iter()
            .filter(|c| **c > 0.0)
            .map(|c| c / 2.0 + 255.0 * rescale / 2.0)
            .sum();
        Self {
            codes,
            iweights,
            rescale,
            offset,
            error_bound,
        }
    }

    /// Embedding dimensionality the query was prepared for.
    pub fn dim(&self) -> usize {
        self.codes.len()
    }

    /// The query's levels on the store grid.
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// The integer weight levels `round(w_j · scale_j / rescale)`.
    pub fn iweights(&self) -> &[u16] {
        &self.iweights
    }

    /// The per-query rescale factor mapping integer sums to score units.
    pub fn rescale(&self) -> f64 {
        self.rescale
    }

    /// The per-query constant score term (constant coordinates +
    /// out-of-grid clamp shift — both exact, see the module docs).
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Upper bound on `|SAD score − decode-path score|` over the store
    /// this query was prepared for (query rounding + weight rounding; the
    /// offset terms are exact). Add the store-side half-step bound
    /// `Σ_j w_j · scale_j / 2` to bound the distance to the *exact* `f64`
    /// filter score — the widened two-sided bound of the module docs.
    pub fn score_error_bound(&self) -> f64 {
        self.error_bound
    }

    /// Score a contiguous run of raw rows (`rows.len() / dim` of them)
    /// into `out` through [`sad_rows_dispatch`], which picks the widest
    /// ISA variant the host supports. Bit-identical on every row to
    /// `offset + rescale · weighted_sad_row(row)` regardless of the
    /// variant chosen (the integer sums and the per-row map are the same
    /// operations under any codegen), which the tests below pin.
    #[inline]
    fn score_rows_into(&self, rows: &[u8], dim: usize, out: &mut [f64]) {
        debug_assert_eq!(rows.len(), out.len() * dim);
        sad_rows_dispatch(
            &self.iweights,
            &self.codes,
            rows,
            dim,
            self.offset,
            self.rescale,
            out,
        );
    }
}

/// The `u8` override of [`FilterElem::scan`]: one [`SadQuery`] per query
/// row of `coords` (under its weight row — shared, or one per query), then
/// the store in [`SAD_BLOCK_VALUES`]-value blocks, each rescanned by every
/// query while hot. Integer sums are associative, so every score equals its
/// query's per-row SAD score, `offset + rescale · weighted_sad_row(row)`,
/// bit for bit, whatever the batch shape. `FlatStore::scan` has checked the
/// shapes and handled `dim == 0` and empty outputs.
pub(crate) fn sad_scan(store: &FlatStore<u8>, coords: &[f64], weights: &[f64], out: &mut [f64]) {
    let (n, dim) = (store.len(), store.dim());
    let queries: Vec<SadQuery> = coords
        .chunks_exact(dim)
        .zip(weights.chunks_exact(dim).cycle())
        .map(|(query, w)| SadQuery::new(w, query, store.params()))
        .collect();
    let rows_per_block = (SAD_BLOCK_VALUES / dim).max(1);
    let mut block_start = 0usize;
    for raw in store.as_slice().chunks(rows_per_block * dim) {
        let block_rows = raw.len() / dim;
        for (q, query) in queries.iter().enumerate() {
            let out_start = q * n + block_start;
            query.score_rows_into(raw, dim, &mut out[out_start..out_start + block_rows]);
        }
        block_start += block_rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::{weighted_l1_row, FlatVectors, QUERY_TILE};

    fn synthetic_rows(dim: usize, rows: usize, phase: f64) -> Vec<Vec<f64>> {
        (0..rows)
            .map(|r| {
                (0..dim)
                    .map(|i| ((r * dim + i) as f64 + phase).sin() * 11.0)
                    .collect()
            })
            .collect()
    }

    /// The per-row SAD score of a prepared query — the reference every
    /// scan output must equal bit for bit.
    fn per_row(sad: &SadQuery, store: &FlatStore<u8>, i: usize) -> f64 {
        sad.offset()
            + sad.rescale() * weighted_sad_row(sad.iweights(), sad.codes(), store.row(i)) as f64
    }

    /// The decode-path score of row `i`: the weighted L1 against the
    /// decoded row.
    fn decoded(weights: &[f64], query: &[f64], store: &FlatStore<u8>, i: usize) -> f64 {
        weighted_l1_row(weights, query, &store.decode_row(i))
    }

    /// SAD scores must stay within the documented query-side bound of the
    /// decode-path scores over the same store, and within the widened
    /// two-sided bound of the exact scores.
    #[test]
    fn sad_scores_respect_both_error_bounds() {
        for dim in [1, 3, 4, 5, 8, 32, 67] {
            let weights: Vec<f64> = (0..dim).map(|i| 0.2 + (i % 5) as f64 * 0.37).collect();
            let rows = synthetic_rows(dim, 60, 0.0);
            let store = FlatStore::<u8>::from_rows_with_dim(dim, rows.clone());
            let exact = FlatVectors::from_rows_with_dim(dim, rows);
            let query: Vec<f64> = (0..dim).map(|i| (i as f64 * 1.7).cos() * 10.0).collect();
            let sad = SadQuery::new(&weights, &query, store.params());
            let mut s_sad = vec![f64::NAN; store.len()];
            store.scan(&query, &weights, &mut s_sad);
            let mut s_exact = vec![f64::NAN; exact.len()];
            exact.scan(&query, &weights, &mut s_exact);
            let query_bound = sad.score_error_bound() * (1.0 + 1e-9) + 1e-9;
            let store_bound: f64 = weights
                .iter()
                .zip(&store.params().scale)
                .map(|(w, s)| w * s / 2.0)
                .sum();
            let two_sided = query_bound + store_bound * (1.0 + 1e-9);
            for i in 0..store.len() {
                let s_decode = decoded(&weights, &query, &store, i);
                assert!(
                    (s_sad[i] - s_decode).abs() <= query_bound,
                    "dim {dim}, row {i}: |{} - {s_decode}| > {query_bound}",
                    s_sad[i],
                );
                assert!(
                    (s_sad[i] - s_exact[i]).abs() <= two_sided,
                    "dim {dim}, row {i}: |{} - {}| > {two_sided}",
                    s_sad[i],
                    s_exact[i]
                );
            }
        }
    }

    /// Constant coordinates and out-of-grid query coordinates shift the
    /// SAD score by an exact constant: with the whole query on such
    /// coordinates, SAD scores equal decode-path scores exactly (up to
    /// the in-grid rounding of the remaining coordinates).
    #[test]
    fn offset_terms_are_exact_for_constant_and_out_of_grid_coordinates() {
        // Coordinate 0 is constant, coordinate 1 spans [0, 10].
        let rows = vec![vec![3.5, 0.0], vec![3.5, 10.0], vec![3.5, 5.0]];
        let store = FlatStore::<u8>::from_rows_with_dim(2, rows);
        let weights = [2.0, 1.0];
        // The query sits outside the grid on coordinate 1 and away from
        // the constant on coordinate 0; both effects are exact constants,
        // and 25.0 is representable on the extended grid walk so there is
        // no in-grid rounding either.
        let query = [7.5, 25.0];
        let mut out = vec![f64::NAN; store.len()];
        store.scan(&query, &weights, &mut out);
        for (i, got) in out.iter().enumerate() {
            let want = decoded(&weights, &query, &store, i);
            assert!((got - want).abs() < 1e-9, "row {i}: {got} vs exact {want}");
        }
    }

    /// The `u8` tile must equal per-query [`SadQuery`] scores bit for bit
    /// (integer sums are associative, so this is exact) for every batch
    /// shape around the pipelines' tile width, under shared and per-query
    /// weights, across the single-chunk and chunked (dim > SAD_CHUNK)
    /// row paths and stores spanning several SAD blocks.
    #[test]
    fn sad_tile_matches_per_query_sad_scores_bitwise() {
        for (dim, rows) in [(1, 37), (4, 37), (7, 37), (32, 1100), (SAD_CHUNK + 9, 300)] {
            for qcount in [1, 2, QUERY_TILE, QUERY_TILE + 1, 3 * QUERY_TILE + 1] {
                let store =
                    FlatStore::<u8>::from_rows_with_dim(dim, synthetic_rows(dim, rows, 3.0));
                let queries =
                    FlatVectors::from_rows_with_dim(dim, synthetic_rows(dim, qcount, 0.5));
                let shared: Vec<f64> = (0..dim).map(|i| 0.1 + (i % 7) as f64 * 0.43).collect();
                let per_query = FlatVectors::from_rows_with_dim(
                    dim,
                    (0..qcount)
                        .map(|q| (0..dim).map(|i| ((q + i) % 5) as f64 * 0.77).collect())
                        .collect(),
                );
                let n = store.len();
                let mut tile = vec![f64::NAN; qcount * n];
                store.scan(queries.as_slice(), &shared, &mut tile);
                let mut tile_pq = vec![f64::NAN; qcount * n];
                store.scan(queries.as_slice(), per_query.as_slice(), &mut tile_pq);
                for q in 0..qcount {
                    let sad = SadQuery::new(&shared, queries.row(q), store.params());
                    let sad_pq = SadQuery::new(per_query.row(q), queries.row(q), store.params());
                    for i in 0..n {
                        assert_eq!(
                            tile[q * n + i].to_bits(),
                            per_row(&sad, &store, i).to_bits(),
                            "shared: dim {dim}, batch {qcount}, query {q}, row {i}"
                        );
                        assert_eq!(
                            tile_pq[q * n + i].to_bits(),
                            per_row(&sad_pq, &store, i).to_bits(),
                            "per-query: dim {dim}, batch {qcount}, query {q}, row {i}"
                        );
                    }
                }
            }
        }
    }

    /// The ISA-dispatched row scan (which picks AVX2 when the host has it)
    /// must be bit-identical to the baseline scalar body — ISA
    /// multiversioning may only change speed, never a single output bit.
    #[test]
    fn sad_isa_dispatch_is_bit_identical_to_scalar() {
        for dim in [1, 3, 8, 32, SAD_CHUNK + 9] {
            let rows = 513;
            let store = FlatStore::<u8>::from_rows_with_dim(dim, synthetic_rows(dim, rows, 4.2));
            let weights: Vec<f64> = (0..dim).map(|i| 0.2 + (i % 5) as f64 * 0.33).collect();
            let query: Vec<f64> = (0..dim).map(|i| (i as f64 * 1.7).cos() * 11.0).collect();
            let sad = SadQuery::new(&weights, &query, store.params());
            let mut dispatched = vec![f64::NAN; rows];
            sad.score_rows_into(store.as_slice(), dim, &mut dispatched);
            let mut scalar = vec![f64::NAN; rows];
            sad_rows_scalar(
                sad.iweights(),
                sad.codes(),
                store.as_slice(),
                dim,
                sad.offset(),
                sad.rescale(),
                &mut scalar,
            );
            for (i, (d, s)) in dispatched.iter().zip(&scalar).enumerate() {
                assert_eq!(d.to_bits(), s.to_bits(), "dim {dim}, row {i}");
            }
        }
    }

    /// The scan hook dispatches per backend: `u8` stores run the SAD
    /// tile, the exact backends stay the decode path bit for bit.
    #[test]
    fn scan_hook_dispatches_per_backend() {
        let dim = 5;
        let rows = synthetic_rows(dim, 23, 7.0);
        let weights: Vec<f64> = (0..dim).map(|i| 0.3 + i as f64 * 0.21).collect();
        let query: Vec<f64> = (0..dim).map(|i| (i as f64).cos() * 8.0).collect();

        let store = FlatStore::<u8>::from_rows_with_dim(dim, rows.clone());
        let mut via_scan = vec![f64::NAN; store.len()];
        store.scan(&query, &weights, &mut via_scan);
        let sad = SadQuery::new(&weights, &query, store.params());
        for (i, got) in via_scan.iter().enumerate() {
            assert_eq!(
                got.to_bits(),
                per_row(&sad, &store, i).to_bits(),
                "u8 row {i}"
            );
        }

        let exact = FlatVectors::from_rows_with_dim(dim, rows);
        let mut via_scan = vec![f64::NAN; exact.len()];
        exact.scan(&query, &weights, &mut via_scan);
        for (i, got) in via_scan.iter().enumerate() {
            let want = weighted_l1_row(&weights, &query, exact.row(i));
            assert_eq!(got.to_bits(), want.to_bits(), "f64 row {i}");
        }
    }

    #[test]
    fn sad_handles_degenerate_shapes() {
        // Zero-dimensional rows: every score is the empty sum.
        let mut store = FlatStore::<u8>::with_dim(0);
        store.push(&[]);
        store.push(&[]);
        let mut out = vec![f64::NAN; 2];
        store.scan(&[], &[], &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
        // Empty store: nothing is written.
        let empty = FlatStore::<u8>::with_dim(3);
        let mut out: Vec<f64> = Vec::new();
        empty.scan(&[0.5; 3], &[1.0; 3], &mut out);
        assert!(out.is_empty());
        // All-zero weights: the offset (zero) is the whole score.
        let store = FlatStore::<u8>::from_rows_with_dim(1, vec![vec![0.0], vec![9.0]]);
        let sad = SadQuery::new(&[0.0], &[4.0], store.params());
        assert_eq!(sad.rescale(), 0.0);
        let mut out = vec![f64::NAN; 2];
        store.scan(&[4.0], &[0.0], &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
        // Empty query batches score nothing.
        let mut out: Vec<f64> = Vec::new();
        store.scan(&[], &[1.0], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn sad_scan_rejects_negative_weights() {
        let store = FlatStore::<u8>::from_rows_with_dim(1, vec![vec![0.0], vec![1.0]]);
        store.scan(&[0.5], &[-1.0], &mut [0.0; 2]);
    }
}
