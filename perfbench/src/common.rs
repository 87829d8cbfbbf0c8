//! Pieces the workloads share: sizes, model training, answer parsing,
//! recall and process metadata.

use std::path::{Path, PathBuf};
use std::time::Instant;

use qse_core::json::{JsonCodec, JsonValue};
use qse_core::{BoostMapTrainer, QseModel, TrainerConfig, TrainingData, TripleSampler};
use qse_distance::DistanceMeasure;
use qse_serve::QueryResult;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Neighbors asked for by every query.
pub const K: usize = 10;
/// Filter candidates asked for by every query (before the backend's
/// default oversampling factor).
pub const P: usize = 100;

/// Input sizes: the full size every recorded result uses, or the smoke
/// size that runs every workload in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub gauss_rows: usize,
    pub gauss_dim: usize,
    pub gauss_clusters: usize,
    pub series: usize,
    /// Gauss queries whose answers are checked against brute force.
    pub gauss_checks: usize,
    /// cDTW queries checked against brute force (each costs a full scan
    /// of 13 µs distances).
    pub cdtw_checks: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Requests replayed layer by layer in the traced run.
    pub traced_requests: usize,
}

impl Size {
    pub fn full() -> Self {
        Self {
            gauss_rows: 100_000,
            gauss_dim: 32,
            gauss_clusters: 32,
            series: 4_000,
            gauss_checks: 512,
            cdtw_checks: 64,
            setup_reps: 5,
            traced_requests: 200,
        }
    }

    pub fn smoke() -> Self {
        Self {
            gauss_rows: 5_000,
            gauss_dim: 32,
            gauss_clusters: 32,
            series: 400,
            gauss_checks: 16,
            cdtw_checks: 16,
            setup_reps: 1,
            traced_requests: 20,
        }
    }
}

/// Train the query-sensitive model the way every workload does: the first
/// 80 database objects serve as both candidate and training pool, 600
/// selective triples, the trainer's quick configuration, a fixed seed.
pub fn train_model<O, D>(database: &[O], distance: &D) -> QseModel<O>
where
    O: Clone + Send + Sync,
    D: DistanceMeasure<O> + Sync,
{
    let pool: Vec<O> = database.iter().take(80).cloned().collect();
    let data = TrainingData::precompute(pool.clone(), pool, distance, 2);
    let mut rng = StdRng::seed_from_u64(0x7EA1);
    let triples = TripleSampler::selective(4).sample(&data.train_to_train, 600, &mut rng);
    BoostMapTrainer::new(TrainerConfig::quick()).train(&data, &triples, &mut rng)
}

/// A `/query` request body.
pub fn query_body(query: &[f64]) -> String {
    let coords: Vec<String> = query.iter().map(|x| format!("{x:?}")).collect();
    format!(r#"{{"query":[{}],"k":{K},"p":{P}}}"#, coords.join(","))
}

/// Decode a `/query` response body.
pub fn parse_result(body: &str) -> Option<QueryResult> {
    let v = JsonValue::parse(body).ok()?;
    Some(QueryResult {
        neighbors: Vec::<usize>::from_json_value(v.get("neighbors").ok()?).ok()?,
        distances: Vec::<f64>::from_json_value(v.get("distances").ok()?).ok()?,
    })
}

/// Two answers agree bit for bit (ids and distance bit patterns).
pub fn same_answer(a: &QueryResult, b: &QueryResult) -> bool {
    a.neighbors == b.neighbors
        && a.distances.len() == b.distances.len()
        && a.distances
            .iter()
            .zip(&b.distances)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Mean share of the true `K` nearest neighbors each answer found.
pub fn recall(answers: &[Vec<usize>], truth: &[Vec<usize>]) -> f64 {
    let hits: usize = answers
        .iter()
        .zip(truth)
        .map(|(a, t)| a.iter().filter(|id| t.contains(id)).count())
        .sum();
    hits as f64 / (K * answers.len()) as f64
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds of a nanosecond count.
pub fn ns_to_ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Microseconds of a nanosecond count.
pub fn ns_to_us(ns: f64) -> f64 {
    ns / 1e3
}

/// The process's peak resident set (`VmHWM`) in MB, or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The directory runs write snapshots and span files into (inside the
/// checkout; ignored by git).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir).expect("create the .perfbench output directory");
    dir
}

/// A scratch file path unique to this process.
pub fn scratch_path(name: &str) -> PathBuf {
    out_dir().join(format!("{name}-{}", std::process::id()))
}

/// The commit the checkout was made from, read from `.git` in the working
/// directory without running git (the checkout may not be a repository).
pub fn git_sha() -> String {
    fn read(path: &Path) -> Option<String> {
        Some(std::fs::read_to_string(path).ok()?.trim().to_string())
    }
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(sha) = read(&git.join(reference)) {
        return sha;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_round_trip_through_the_wire_format() {
        let answer = QueryResult {
            neighbors: vec![3, 1],
            distances: vec![0.1 + 0.2, 1e-300],
        };
        let body = qse_serve::wire::result_json(&answer);
        assert!(same_answer(&parse_result(&body).unwrap(), &answer));
        assert!(parse_result("{}").is_none());
    }

    #[test]
    fn recall_counts_true_neighbors_found() {
        let truth = vec![(0..10).collect::<Vec<_>>()];
        let half = vec![(5..15).collect::<Vec<_>>()];
        assert_eq!(recall(&half, &truth), 0.5);
    }
}
