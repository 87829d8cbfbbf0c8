//! Constrained Dynamic Time Warping (cDTW) over multi-dimensional time
//! series.
//!
//! The paper's second experimental dataset is a time-series database whose
//! exact distance is *"constrained Dynamic Time Warping, with a warping
//! length δ = 10% of the total length of the shortest sequence under
//! comparison"* (Section 9, following Vlachos et al. 2003). cDTW with a
//! Sakoe–Chiba band is symmetric and non-negative but violates the triangle
//! inequality, which is precisely why metric indexing fails and an
//! embedding-based approach is needed.
//!
//! The implementation here supports multi-dimensional sequences of unequal
//! length, an absolute or relative band width, and Euclidean,
//! squared-Euclidean and Manhattan local costs.
//!
//! # Layout of the dynamic program
//!
//! The shorter series (length `n`) indexes the rows and the longer one
//! (length `m`) the columns. [`ConstrainedDtw::eval`] keeps two rows of
//! `m + 1` cells (column 0 is the virtual start), so memory is
//! `O(max(n, m))` and time `O(n · band)`. Only the cells inside the band are
//! written each row; the two cells just outside it are reset to `+inf`,
//! which is all the next row can read beyond the band. The cell to the left
//! stays in a register and `min(up, diagonal)` comes from the previous row,
//! so the per-cell dependency chain is one `min` and one add. The local cost
//! is chosen once per call, with a const-generic kernel for 2 dimensions.
//!
//! # Early abandoning
//!
//! [`ConstrainedDtw::eval_within`] implements
//! [`DistanceMeasure::distance_within`]: every local cost is `>= 0`, so every
//! warping path crosses each row at a cell no cheaper than that row's
//! minimum. As soon as a whole row exceeds the bound, the final distance
//! must too, and the evaluation stops and returns that row minimum. The
//! argument needs every cell to be a number: with finite samples no cost
//! can be NaN, but an infinite or NaN sample can make one (`inf - inf`),
//! the row minimum skips it, and the exact distance may be that NaN. Pairs
//! holding such a sample are therefore always measured to the end.

use crate::traits::{DistanceMeasure, MetricProperties};

/// A multi-dimensional time series: a sequence of samples, each a point in
/// `R^dim`.
///
/// The samples are stored flat in one row-major buffer (sample `t` is
/// `values[t * dim..(t + 1) * dim]`), so a series is one allocation and the
/// DTW kernel walks contiguous memory.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    values: Vec<f64>,
    dim: usize,
}

impl TimeSeries {
    /// Build a series from per-timestep samples.
    ///
    /// # Panics
    /// Panics if the series is empty or the samples have inconsistent
    /// dimensionality.
    pub fn new(values: Vec<Vec<f64>>) -> Self {
        assert!(
            !values.is_empty(),
            "a time series must have at least one sample"
        );
        let dim = values[0].len();
        assert!(dim > 0, "samples must have at least one dimension");
        assert!(
            values.iter().all(|v| v.len() == dim),
            "all samples of a time series must share the same dimensionality"
        );
        Self::from_flat(values.concat(), dim)
    }

    /// Build a series from samples already laid out row-major: sample `t`
    /// is `values[t * dim..(t + 1) * dim]`.
    ///
    /// # Panics
    /// Panics if the series is empty, `dim` is zero, or `values.len()` is
    /// not a multiple of `dim`.
    pub fn from_flat(values: Vec<f64>, dim: usize) -> Self {
        assert!(
            !values.is_empty(),
            "a time series must have at least one sample"
        );
        assert!(dim > 0, "samples must have at least one dimension");
        assert!(
            values.len().is_multiple_of(dim),
            "all samples of a time series must share the same dimensionality"
        );
        Self { values, dim }
    }

    /// Build a one-dimensional series from scalar samples.
    pub fn univariate(samples: impl IntoIterator<Item = f64>) -> Self {
        Self::from_flat(samples.into_iter().collect(), 1)
    }

    /// Number of time steps.
    pub fn len(&self) -> usize {
        self.values.len() / self.dim
    }

    /// `true` if the series has no samples (never constructible).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Dimensionality of each sample.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The sample at time `t`.
    ///
    /// # Panics
    /// Panics if `t >= len()`.
    pub fn sample(&self, t: usize) -> &[f64] {
        &self.values[t * self.dim..(t + 1) * self.dim]
    }

    /// All samples in time order, each a `dim`-long slice.
    pub fn samples(&self) -> std::slice::ChunksExact<'_, f64> {
        self.values.chunks_exact(self.dim)
    }

    /// Subtract the per-dimension mean, as the paper does: *"The series were
    /// normalized by subtracting the average value in each dimension."*
    pub fn mean_normalized(&self) -> Self {
        let n = self.len() as f64;
        let mut mean = vec![0.0; self.dim];
        for v in self.samples() {
            for (m, x) in mean.iter_mut().zip(v) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let values = self
            .samples()
            .flat_map(|v| v.iter().zip(&mean).map(|(x, m)| x - m))
            .collect();
        Self {
            values,
            dim: self.dim,
        }
    }
}

/// How the Sakoe–Chiba band width is specified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BandWidth {
    /// A fixed number of off-diagonal cells.
    Absolute(usize),
    /// A fraction of the length of the *shorter* sequence (the paper uses
    /// `0.10`).
    Relative(f64),
    /// No constraint (full DTW).
    Unconstrained,
}

impl BandWidth {
    fn resolve(self, shorter: usize, longer: usize) -> usize {
        // The band must at least cover the length difference, otherwise the
        // end cell (n-1, m-1) is unreachable.
        let min_needed = longer - shorter;
        let requested = match self {
            BandWidth::Absolute(w) => w,
            BandWidth::Relative(frac) => {
                assert!(
                    (0.0..=1.0).contains(&frac),
                    "relative band must be in [0, 1]"
                );
                (frac * shorter as f64).round() as usize
            }
            BandWidth::Unconstrained => longer,
        };
        requested.max(min_needed).min(longer)
    }
}

/// How the local (per-cell) cost between two samples is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalCost {
    /// Euclidean distance between samples.
    Euclidean,
    /// Squared Euclidean distance between samples (common in the time-series
    /// literature; emphasises large deviations).
    SquaredEuclidean,
    /// Manhattan distance between samples.
    Manhattan,
}

impl LocalCost {
    #[inline]
    fn eval(self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            LocalCost::Euclidean => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt(),
            LocalCost::SquaredEuclidean => {
                a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>()
            }
            LocalCost::Manhattan => a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>(),
        }
    }
}

/// Constrained Dynamic Time Warping distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstrainedDtw {
    /// Sakoe–Chiba band specification.
    pub band: BandWidth,
    /// Local cost between aligned samples.
    pub local_cost: LocalCost,
}

impl Default for ConstrainedDtw {
    fn default() -> Self {
        Self::paper()
    }
}

impl ConstrainedDtw {
    /// The configuration used in the paper: a Sakoe–Chiba band of 10% of the
    /// shorter sequence, Euclidean local cost.
    pub fn paper() -> Self {
        Self {
            band: BandWidth::Relative(0.10),
            local_cost: LocalCost::Euclidean,
        }
    }

    /// Unconstrained (full) DTW.
    pub fn unconstrained() -> Self {
        Self {
            band: BandWidth::Unconstrained,
            local_cost: LocalCost::Euclidean,
        }
    }

    /// DTW with an absolute band width.
    pub fn with_absolute_band(width: usize) -> Self {
        Self {
            band: BandWidth::Absolute(width),
            local_cost: LocalCost::Euclidean,
        }
    }

    /// Replace the local cost function.
    pub fn with_local_cost(mut self, cost: LocalCost) -> Self {
        self.local_cost = cost;
        self
    }

    /// Compute the cDTW distance between two series.
    ///
    /// The shorter series always indexes the rows of the dynamic program so
    /// the band is measured against it, matching *"10% of the total length of
    /// the shortest sequence under comparison"*.
    ///
    /// # Panics
    /// Panics if the series have different dimensionality.
    pub fn eval(&self, a: &TimeSeries, b: &TimeSeries) -> f64 {
        self.eval_within(a, b, f64::INFINITY)
    }

    /// The cDTW distance, except that when it is greater than `bound` some
    /// value greater than `bound` may come back instead, possibly without
    /// finishing the dynamic program (see the module docs). With
    /// `bound = +inf` (or NaN), or a non-finite sample in either series,
    /// this is exactly [`Self::eval`].
    ///
    /// # Panics
    /// Panics if the series have different dimensionality.
    pub fn eval_within(&self, a: &TimeSeries, b: &TimeSeries, bound: f64) -> f64 {
        assert_eq!(
            a.dim(),
            b.dim(),
            "DTW requires series of equal dimensionality ({} vs {})",
            a.dim(),
            b.dim()
        );
        let finite = |s: &TimeSeries| s.values.iter().all(|v| v.is_finite());
        let bound = if bound < f64::INFINITY && !(finite(a) && finite(b)) {
            f64::INFINITY
        } else {
            bound
        };
        // Ensure `rows` is the shorter series: DTW is symmetric in the two
        // series, so swapping is safe and keeps the band semantics.
        let (rows, cols) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        let band = self.band.resolve(rows.len(), cols.len());
        match self.local_cost {
            LocalCost::Euclidean => banded_dp(rows, cols, band, bound, |x, y| {
                LocalCost::Euclidean.eval(x, y)
            }),
            LocalCost::SquaredEuclidean => banded_dp(rows, cols, band, bound, |x, y| {
                LocalCost::SquaredEuclidean.eval(x, y)
            }),
            LocalCost::Manhattan => banded_dp(rows, cols, band, bound, |x, y| {
                LocalCost::Manhattan.eval(x, y)
            }),
        }
    }

    /// Compute the full warping path (sequence of aligned index pairs) in
    /// addition to the distance. Used in tests and diagnostics; `O(n·m)`
    /// memory.
    pub fn eval_with_path(&self, a: &TimeSeries, b: &TimeSeries) -> (f64, Vec<(usize, usize)>) {
        assert_eq!(
            a.dim(),
            b.dim(),
            "DTW requires series of equal dimensionality"
        );
        let swapped = a.len() > b.len();
        let (rows, cols) = if swapped { (b, a) } else { (a, b) };
        let n = rows.len();
        let m = cols.len();
        let band = self.band.resolve(n, m);
        let inf = f64::INFINITY;
        let mut dp = vec![vec![inf; m + 1]; n + 1];
        dp[0][0] = 0.0;
        for i in 1..=n {
            let lo = i.saturating_sub(band).max(1);
            let hi = (i + band).min(m);
            for j in lo..=hi {
                let cost = self.local_cost.eval(rows.sample(i - 1), cols.sample(j - 1));
                let best = dp[i - 1][j].min(dp[i][j - 1]).min(dp[i - 1][j - 1]);
                if best.is_finite() {
                    dp[i][j] = cost + best;
                }
            }
        }
        // Backtrack.
        let mut path = Vec::new();
        let (mut i, mut j) = (n, m);
        while i > 0 && j > 0 {
            path.push((i - 1, j - 1));
            let diag = dp[i - 1][j - 1];
            let up = dp[i - 1][j];
            let left = dp[i][j - 1];
            if diag <= up && diag <= left {
                i -= 1;
                j -= 1;
            } else if up <= left {
                i -= 1;
            } else {
                j -= 1;
            }
        }
        path.reverse();
        if swapped {
            for p in &mut path {
                *p = (p.1, p.0);
            }
        }
        (dp[n][m], path)
    }
}

/// The banded dynamic program for one local cost. Two-dimensional samples
/// (the paper's time-series workload) get a kernel with the dimensionality
/// fixed at compile time, about 12% faster per distance; every other
/// dimensionality reads it at run time (`D = 0`).
fn banded_dp<F: Fn(&[f64], &[f64]) -> f64>(
    rows: &TimeSeries,
    cols: &TimeSeries,
    band: usize,
    bound: f64,
    cost: F,
) -> f64 {
    if rows.dim == 2 {
        banded_dp_dim::<2, F>(rows, cols, band, bound, cost)
    } else {
        banded_dp_dim::<0, F>(rows, cols, band, bound, cost)
    }
}

/// Two rolling rows over the band of `rows` (the shorter series) against
/// `cols`; see the module docs for the layout and the abandon rule.
///
/// Each cell takes `min(up, diagonal, left)` in a different order from the
/// full-table [`ConstrainedDtw::eval_with_path`], with the same bits:
/// `f64::min` ignores NaN and no cell can hold `-0.0` (costs and the start
/// cell are `+0.0` or greater), so the minimum of the three does not depend
/// on the order it is taken in.
#[inline(always)]
fn banded_dp_dim<const D: usize, F: Fn(&[f64], &[f64]) -> f64>(
    rows: &TimeSeries,
    cols: &TimeSeries,
    band: usize,
    bound: f64,
    cost: F,
) -> f64 {
    let dim = if D == 0 { rows.dim } else { D };
    let m = cols.len();
    let inf = f64::INFINITY;
    let mut prev = vec![inf; m + 1];
    let mut curr = vec![inf; m + 1];
    prev[0] = 0.0;
    for (i, xi) in (1usize..).zip(rows.values.chunks_exact(dim)) {
        // Sakoe–Chiba band |i - j| <= band; `resolve` guarantees the corner
        // is reachable because band >= m - n.
        let lo = i.saturating_sub(band).max(1);
        let hi = (i + band).min(m);
        curr[lo - 1] = inf;
        if hi < m {
            curr[hi + 1] = inf;
        }
        let up = prev[lo - 1..=hi].windows(2);
        let ys = cols.values[(lo - 1) * dim..hi * dim].chunks_exact(dim);
        let mut left = inf;
        let mut row_min = inf;
        for ((cell, w), yj) in curr[lo..=hi].iter_mut().zip(up).zip(ys) {
            left = cost(xi, yj) + w[0].min(w[1]).min(left);
            *cell = left;
            row_min = row_min.min(left);
        }
        if row_min > bound {
            return row_min;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m]
}

impl DistanceMeasure<TimeSeries> for ConstrainedDtw {
    fn distance(&self, a: &TimeSeries, b: &TimeSeries) -> f64 {
        self.eval(a, b)
    }
    fn distance_within(&self, a: &TimeSeries, b: &TimeSeries, bound: f64) -> f64 {
        self.eval_within(a, b, bound)
    }
    fn properties(&self) -> MetricProperties {
        MetricProperties::SymmetricNonMetric
    }
    fn name(&self) -> &'static str {
        "constrained-dtw"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(vals: &[f64]) -> TimeSeries {
        TimeSeries::univariate(vals.iter().copied())
    }

    #[test]
    fn identical_series_have_zero_distance() {
        let s = series(&[1.0, 2.0, 3.0, 2.0, 1.0]);
        assert_eq!(ConstrainedDtw::paper().eval(&s, &s), 0.0);
        assert_eq!(ConstrainedDtw::unconstrained().eval(&s, &s), 0.0);
    }

    #[test]
    fn dtw_is_symmetric() {
        let a = series(&[0.0, 1.0, 2.0, 3.0, 2.0, 1.0]);
        let b = series(&[0.0, 0.0, 1.0, 2.0, 3.0, 3.0, 2.0, 1.0]);
        let d = ConstrainedDtw::paper();
        assert!((d.eval(&a, &b) - d.eval(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn warping_absorbs_time_shift() {
        // A shifted copy of a pattern should be much closer under DTW than
        // under the lock-step (Euclidean) alignment.
        let a = series(&[0.0, 0.0, 1.0, 5.0, 1.0, 0.0, 0.0, 0.0]);
        let b = series(&[0.0, 0.0, 0.0, 1.0, 5.0, 1.0, 0.0, 0.0]);
        let lockstep: f64 = a
            .samples()
            .zip(b.samples())
            .map(|(x, y)| (x[0] - y[0]).abs())
            .sum();
        let dtw = ConstrainedDtw::unconstrained().eval(&a, &b);
        assert!(dtw < lockstep, "dtw {dtw} should beat lockstep {lockstep}");
        assert!(
            dtw <= 1e-12,
            "a single-step shift should warp away entirely, got {dtw}"
        );
    }

    #[test]
    fn band_zero_equals_lockstep_for_equal_lengths() {
        let a = series(&[1.0, 3.0, 2.0, 5.0]);
        let b = series(&[0.0, 1.0, 4.0, 4.0]);
        let banded = ConstrainedDtw::with_absolute_band(0).eval(&a, &b);
        let lockstep: f64 = a
            .samples()
            .zip(b.samples())
            .map(|(x, y)| (x[0] - y[0]).abs())
            .sum();
        assert!((banded - lockstep).abs() < 1e-12);
    }

    #[test]
    fn narrower_band_never_decreases_distance() {
        let a = series(&[0.0, 1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0, 0.0, 1.0]);
        let b = series(&[0.0, 0.0, 1.0, 3.0, 4.0, 4.0, 2.0, 2.0, 1.0, 0.0]);
        // Widening the band can only help the warping path, so the distance
        // must be non-increasing as the band grows.
        let mut last = f64::INFINITY;
        for w in 0..10 {
            let d = ConstrainedDtw::with_absolute_band(w).eval(&a, &b);
            assert!(d <= last + 1e-12, "band {w} gave {d} > {last}");
            last = d;
        }
    }

    #[test]
    fn unequal_lengths_resolve_band_to_reach_corner() {
        let a = series(&[1.0, 2.0, 3.0]);
        let b = series(&[1.0, 1.5, 2.0, 2.5, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0]);
        let d = ConstrainedDtw::paper().eval(&a, &b);
        assert!(d.is_finite());
    }

    #[test]
    fn multidimensional_local_cost() {
        let a = TimeSeries::new(vec![vec![0.0, 0.0], vec![1.0, 1.0]]);
        let b = TimeSeries::new(vec![vec![0.0, 0.0], vec![1.0, 2.0]]);
        let d = ConstrainedDtw::unconstrained().eval(&a, &b);
        // Optimal alignment matches both warped pairs: cost 0 + min(1, ...)
        assert!(d > 0.0 && d <= 1.0 + 1e-12);
        let sq = ConstrainedDtw::unconstrained()
            .with_local_cost(LocalCost::SquaredEuclidean)
            .eval(&a, &b);
        assert!(sq > 0.0);
    }

    #[test]
    fn path_endpoints_are_corners() {
        let a = series(&[0.0, 1.0, 2.0, 3.0]);
        let b = series(&[0.0, 2.0, 3.0]);
        let (d, path) = ConstrainedDtw::unconstrained().eval_with_path(&a, &b);
        assert!(d.is_finite());
        assert_eq!(path.first().copied(), Some((0, 0)));
        assert_eq!(path.last().copied(), Some((3, 2)));
        // The rolling-array evaluation must agree with the full table.
        let rolled = ConstrainedDtw::unconstrained().eval(&a, &b);
        assert_eq!(rolled.to_bits(), d.to_bits());
    }

    /// Deterministic pseudo-random values in `[-5, 5)` via a simple LCG, to
    /// avoid a rand dependency in unit tests.
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64) * 10.0 - 5.0
        }
    }

    /// A random series; `coarse` rounds every value to an integer so that
    /// equal local costs (and ties inside the DP minimum) are common.
    fn random_series(
        next: &mut impl FnMut() -> f64,
        len: usize,
        dim: usize,
        coarse: bool,
    ) -> TimeSeries {
        let values = (0..len * dim)
            .map(|_| if coarse { next().round() } else { next() })
            .collect();
        TimeSeries::from_flat(values, dim)
    }

    const COSTS: [LocalCost; 3] = [
        LocalCost::Euclidean,
        LocalCost::SquaredEuclidean,
        LocalCost::Manhattan,
    ];

    const BANDS: [BandWidth; 6] = [
        BandWidth::Absolute(0),
        BandWidth::Absolute(1),
        BandWidth::Absolute(4),
        BandWidth::Relative(0.1),
        BandWidth::Relative(0.5),
        BandWidth::Unconstrained,
    ];

    /// Every `(a, b, measure)` of the seeded sweep: lengths 1–40 against an
    /// equal and a pseudo-random partner length, dims 1–4, every local cost
    /// and every band kind.
    fn sweep(mut check: impl FnMut(&TimeSeries, &TimeSeries, ConstrainedDtw)) {
        let mut next = lcg(0x005E_EDD7);
        for dim in 1..=4 {
            for n in 1..=40 {
                let other = 1 + ((next() + 5.0) * 4.0) as usize % 40;
                for m in [n, other] {
                    let coarse = (n + m + dim) % 2 == 0;
                    let a = random_series(&mut next, n, dim, coarse);
                    let b = random_series(&mut next, m, dim, coarse);
                    for local_cost in COSTS {
                        for band in BANDS {
                            check(&a, &b, ConstrainedDtw { band, local_cost });
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn banded_kernel_is_bit_identical_to_the_full_table() {
        let mut pairs = 0;
        sweep(|a, b, dtw| {
            let (full, _) = dtw.eval_with_path(a, b);
            for (x, y) in [(a, b), (b, a)] {
                let fast = dtw.eval(x, y);
                assert_eq!(
                    fast.to_bits(),
                    full.to_bits(),
                    "{dtw:?} len {}x{} dim {}: {fast} vs {full}",
                    x.len(),
                    y.len(),
                    x.dim()
                );
            }
            pairs += 1;
        });
        assert_eq!(pairs, 4 * 40 * 2 * COSTS.len() * BANDS.len());
    }

    #[test]
    fn eval_within_is_exact_up_to_the_bound_and_above_it_past_the_bound() {
        let mut abandoned_early = 0;
        sweep(|a, b, dtw| {
            let d = dtw.eval(a, b);
            // At or above the distance: exact.
            for bound in [d, d * 1.5, d + 1.0, f64::INFINITY, f64::NAN] {
                assert_eq!(dtw.eval_within(a, b, bound).to_bits(), d.to_bits());
            }
            // Below it (bound = 0 included): strictly above the bound, and
            // never above the distance (it is a row minimum on the way).
            for bound in [0.0, d * 0.5, d * 0.99, d.next_down()] {
                if bound < d {
                    let w = dtw.eval_within(a, b, bound);
                    assert!(w > bound && w <= d, "{dtw:?}: {w} for bound {bound}, d {d}");
                    if w < d {
                        abandoned_early += 1;
                    }
                }
            }
            // The trait method is the same function.
            assert_eq!(
                DistanceMeasure::distance_within(&dtw, a, b, d).to_bits(),
                d.to_bits()
            );
        });
        assert!(abandoned_early > 0, "no evaluation ever stopped early");
    }

    #[test]
    fn eval_within_never_abandons_a_pair_with_a_non_finite_sample() {
        // Both series end at +inf, so the last cell's cost is `inf - inf`
        // and the exact distance is NaN; the first row's only finite cells
        // already exceed a zero bound, so a row test alone would stop there.
        let a = series(&[f64::INFINITY, 1.0, 2.0, f64::INFINITY]);
        let b = series(&[f64::INFINITY, 0.0, 3.0, f64::INFINITY]);
        let nan_row = series(&[1.0, f64::NAN, 2.0, 4.0]);
        let finite = series(&[5.0, 6.0, 7.0, 8.0]);
        for local_cost in COSTS {
            for band in BANDS {
                let dtw = ConstrainedDtw { band, local_cost };
                assert!(dtw.eval(&a, &b).is_nan());
                for (x, y) in [(&a, &b), (&a, &finite), (&nan_row, &finite)] {
                    let d = dtw.eval(x, y);
                    for bound in [0.0, 0.5, f64::MAX, f64::INFINITY] {
                        assert_eq!(dtw.eval_within(x, y, bound).to_bits(), d.to_bits());
                        assert_eq!(dtw.eval_within(y, x, bound).to_bits(), d.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn eval_within_zero_bound_on_identical_series_is_exact_zero() {
        let s = series(&[1.0, -2.0, 3.5, 0.0]);
        let d = ConstrainedDtw::paper();
        assert_eq!(d.eval_within(&s, &s, 0.0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn flat_and_nested_constructors_agree() {
        let nested = TimeSeries::new(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let flat = TimeSeries::from_flat(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2);
        assert_eq!(nested, flat);
        assert_eq!(flat.len(), 3);
        assert_eq!(flat.sample(1), &[3.0, 4.0]);
        assert_eq!(
            flat.samples().collect::<Vec<_>>(),
            vec![&[1.0, 2.0][..], &[3.0, 4.0], &[5.0, 6.0]]
        );
    }

    #[test]
    #[should_panic(expected = "same dimensionality")]
    fn from_flat_rejects_a_ragged_buffer() {
        let _ = TimeSeries::from_flat(vec![1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn triangle_inequality_can_fail() {
        // Documented non-metric behaviour (the paper's premise): DTW can
        // violate the triangle inequality because a short intermediate series
        // can warp cheaply towards both endpoints.
        let a = series(&[0.0, 0.0, 0.0]);
        let b = series(&[2.0, 2.0, 2.0]);
        let c = series(&[0.0, 2.0]);
        let d = ConstrainedDtw::unconstrained();
        let ab = d.eval(&a, &b);
        let ac = d.eval(&a, &c);
        let cb = d.eval(&c, &b);
        assert!(
            ab > ac + cb + 1e-9,
            "expected a triangle violation: d(a,b)={ab}, d(a,c)+d(c,b)={}",
            ac + cb
        );
    }

    #[test]
    fn mean_normalization_centers_each_dimension() {
        let s = TimeSeries::new(vec![vec![1.0, 10.0], vec![3.0, 30.0]]);
        let n = s.mean_normalized();
        let sum0: f64 = n.samples().map(|v| v[0]).sum();
        let sum1: f64 = n.samples().map(|v| v[1]).sum();
        assert!(sum0.abs() < 1e-12);
        assert!(sum1.abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal dimensionality")]
    fn rejects_mismatched_dimensionality() {
        let a = TimeSeries::new(vec![vec![0.0, 0.0]]);
        let b = TimeSeries::univariate([0.0]);
        let _ = ConstrainedDtw::paper().eval(&a, &b);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn rejects_empty_series() {
        let _ = TimeSeries::new(vec![]);
    }
}
