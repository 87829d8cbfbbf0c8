//! # qse-retrieval
//!
//! Filter-and-refine retrieval, exact ground truth, evaluation harness and
//! experiment drivers for the reproduction of *Query-Sensitive Embeddings*
//! (SIGMOD 2005).
//!
//! * [`knn`] — brute-force exact k-nearest-neighbor search, the ground truth
//!   every experiment is scored against (and the "number of exact distance
//!   computations of brute force = |database|" baseline of Table 1).
//! * [`filter_refine`] — the three-step retrieval framework of Section 8
//!   (embed the query, rank the database by the cheap embedded distance, keep
//!   the best `p`, re-rank those by the exact distance), instrumented so the
//!   reported exact-distance counts are measured.
//! * [`evaluate`] — the evaluation methodology of Section 9: for each query
//!   the *filter rank* of its true neighbors determines the smallest `p` that
//!   retrieves all `k` of them; sweeping the embedding dimensionality `d` and
//!   `p` yields, for each `(k, accuracy)` pair, the minimum number of exact
//!   distance computations per query.
//! * [`routed`] — the cluster-routed (IVF-style) sublinear layer over the
//!   same filter-refine protocol: a seeded deterministic k-means partitions
//!   the embedded database into cells (each owning its own flat filter
//!   store), queries visit only the nearest `n_probe` cells, and the refine
//!   step stays exact — full-probe retrieval is bit-identical to the
//!   unrouted pipeline.
//! * [`dynamic`] — online insertion / removal of database objects and the
//!   embedding-drift monitor sketched in Section 7.1.
//! * [`concurrent`] — the serving form of the dynamic index: immutable
//!   sealed segments plus a mutable tail, published to readers as epoch
//!   snapshots through a cloneable [`ReadHandle`] / single
//!   [`WriteHandle`] pair — reads never stop for writes, and every read
//!   is bit-identical to a sequentially-churned [`DynamicIndex`] at its
//!   snapshot's epoch.
//! * [`error`] — the typed [`QueryError`] behind the fallible `try_*`
//!   retrieval API: what a serving layer returns to a malformed request
//!   instead of unwinding.
//! * [`snapshot`] — versioned binary snapshots of the complete retrieval
//!   state (model, filter stores, routing metadata, tuning knobs), so a
//!   served index starts by loading bytes instead of re-embedding and
//!   re-clustering the database.
//! * [`experiments`] — drivers that regenerate every figure and table of the
//!   paper's evaluation on the synthetic workloads of `qse-dataset`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod concurrent;
pub mod dynamic;
pub mod error;
pub mod evaluate;
pub mod experiments;
pub mod filter_refine;
pub mod knn;
pub mod routed;
pub mod snapshot;

pub use concurrent::{ConcurrentIndex, ReadHandle, Snapshot, WriteHandle};
pub use dynamic::DynamicIndex;
pub use error::QueryError;
pub use evaluate::{CostReport, CostRow, MethodEvaluation};
pub use filter_refine::{
    FilterElem, FilterRefineIndex, FlatStore, FlatVectors, RetrievalOutcome, TopP,
};
pub use knn::{ground_truth, knn_flat, knn_flat_batch, KnnResult};
pub use routed::{recall_vs_n_probe, RoutedConfig, RoutedIndex};
pub use snapshot::{snapshot_sections, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
