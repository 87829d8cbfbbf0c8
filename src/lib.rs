//! # query-sensitive-embeddings
//!
//! A production-quality Rust reproduction of **"Query-Sensitive Embeddings"**
//! (Vassilis Athitsos, Marios Hadjieleftheriou, George Kollios, Stan
//! Sclaroff — ACM SIGMOD 2005): embedding-based approximate
//! nearest-neighbor retrieval for spaces with expensive, non-Euclidean and
//! possibly non-metric distance measures, where the learned embedding comes
//! with a **query-sensitive** weighted L1 distance whose per-coordinate
//! weights adapt to each query.
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`distance`] (`qse-distance`) — distance measures (constrained DTW,
//!   shape context + Hungarian matching, edit, KL, chamfer, Lp) and
//!   exact-distance accounting.
//! * [`dataset`] (`qse-dataset`) — synthetic workload generators standing in
//!   for MNIST and the Vlachos et al. time-series database.
//! * [`embedding`] (`qse-embedding`) — 1-D reference / pivot embeddings,
//!   FastMap, Lipschitz / SparseMap baselines.
//! * [`core`] (`qse-core`) — the paper's contribution: AdaBoost over
//!   query-sensitive weak classifiers, selective triple sampling, and the
//!   trained model `F_out` + `D_out`.
//! * [`retrieval`] (`qse-retrieval`) — filter-and-refine retrieval, the
//!   evaluation harness, and drivers regenerating every figure and table of
//!   the paper.
//! * [`serve`] (`qse-serve`) — the query service front end: a
//!   transport-neutral API facade over any index (loadable from a
//!   snapshot), an admission batcher that coalesces concurrent single
//!   queries into micro-batches, and a std-only HTTP/1.1 server.
//!
//! ## Quickstart
//!
//! ```
//! use query_sensitive_embeddings::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // 1. A toy "expensive" space: 2-D vectors under Euclidean distance.
//! let database: Vec<Vec<f64>> = (0..120)
//!     .map(|i| vec![(i % 12) as f64, (i / 12) as f64 * 2.0])
//!     .collect();
//! let distance = LpDistance::l2();
//!
//! // 2. Precompute training data and sample selective triples (Se).
//! let mut rng = StdRng::seed_from_u64(7);
//! let data = TrainingData::precompute(database.clone(), database.clone(), &distance, 2);
//! let triples = TripleSampler::selective(4).sample(&data.train_to_train, 400, &mut rng);
//!
//! // 3. Train a query-sensitive embedding (Se-QS).
//! let model = BoostMapTrainer::new(TrainerConfig::quick()).train(&data, &triples, &mut rng);
//!
//! // 4. Index the database and run filter-and-refine retrieval.
//! let index = FilterRefineIndex::build_query_sensitive(model, &database, &distance);
//! let query = vec![3.4, 8.1];
//! let result = index.retrieve(&query, &database, &distance, 3, 20);
//! assert_eq!(result.neighbors.len(), 3);
//! assert!(result.total_cost() < database.len()); // cheaper than brute force
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use qse_core as core;
pub use qse_dataset as dataset;
pub use qse_distance as distance;
pub use qse_embedding as embedding;
pub use qse_retrieval as retrieval;
pub use qse_serve as serve;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use qse_core::{
        BoostMapTrainer, EmbeddedQuery, EmbeddedQueryBatch, MethodVariant, QseModel,
        QuerySensitivity, TrainerConfig, TrainingData, TrainingTriple, TripleSampler,
        TripleSamplingStrategy,
    };
    pub use qse_dataset::{
        Dataset, DigitGenerator, GaussianMixture, GaussianMixtureConfig, TimeSeriesGenerator,
    };
    pub use qse_distance::{
        ConstrainedDtw, CountingDistance, DistanceMatrix, DistanceMeasure, FilterElem, FlatStore,
        FlatVectors, LpDistance, PointSet, QuantParams, SadQuery, ShapeContextDistance, TimeSeries,
        WeightedL1,
    };
    pub use qse_embedding::{
        CompositeEmbedding, Embedding, FastMap, FastMapConfig, KMeans, KMeansConfig, OneDEmbedding,
    };
    pub use qse_retrieval::{
        experiments, ground_truth, knn_flat, knn_flat_batch, recall_vs_n_probe, snapshot_sections,
        ConcurrentIndex, CostReport, DynamicIndex, FilterRefineIndex, MethodEvaluation, QueryError,
        ReadHandle, RetrievalOutcome, RoutedConfig, RoutedIndex, SnapshotError, WriteHandle,
    };
    pub use qse_serve::{
        Batcher, BatcherConfig, BatcherStats, IndexInfo, LoadOptions, MutationReport, QseApi,
        QseServer, QueryResult, RequestError, ServeConfig, ServeError, SnapshotSource,
    };
}
