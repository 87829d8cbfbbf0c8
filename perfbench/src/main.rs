//! The repository benchmark: end-to-end and per-layer numbers for the
//! query service, from one command in one process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <gauss-serve|cdtw-search|gauss-churn|all> --seed <n> \
//!     --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Run it from the repository root: it reads the workload list, the
//! metric names and units and each workload's recall floor from
//! `BENCHMARK.json` there, and writes scratch snapshots and span files
//! under `.perfbench/`.
//!
//! The indexed data and the evaluation queries behind recall and cost are
//! fixed; `--seed` draws the traffic: queries, arrival schedules, writes
//! and the checked samples. With `--trace 0` the run measures the
//! end-to-end metrics; with `--trace 1` it measures the same load again
//! (set up once) plus a traced replay that yields the per-layer metrics.
//! Every line but the last is for people: one `metric` line per number
//! with its unit and sample count, the operation ledger and run metadata.
//! The last line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. The exit code is nonzero when a correctness gate fails.
//! `--smoke` shrinks every input so all workloads finish in seconds;
//! smoke numbers are not comparable with full-size ones.
//!
//! `peak_rss_mb` is the whole benchmark process, load generator and
//! in-process server included.

mod cdtw;
mod churn;
mod client;
mod common;
mod gauss_serve;
mod report;
mod schedule;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use qse_core::json::JsonValue;

use crate::common::Size;
use crate::report::{json_str, Metric, Outcome};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

const USAGE: &str = "usage: perfbench --workload <gauss-serve|cdtw-search|gauss-churn|all> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// What `BENCHMARK.json` declares: workloads with their recall floors,
/// and the metric names and units of each mode.
struct Declared {
    floors: BTreeMap<String, f64>,
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

/// Each workload's `why` ends in `recall@10 floor <x>`: the floor its
/// check sample must clear.
fn read_declared() -> Result<Declared, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let v = JsonValue::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Vec<&JsonValue>, String> {
        Ok(v.get(key)
            .and_then(|x| x.as_array())
            .map_err(|e| format!("BENCHMARK.json {key}: {e}"))?
            .iter()
            .collect())
    };
    let text_of = |x: &JsonValue, key: &str| -> Result<String, String> {
        x.get(key)
            .and_then(|s| s.as_str())
            .map(str::to_string)
            .map_err(|e| format!("BENCHMARK.json {key}: {e}"))
    };
    let mut floors = BTreeMap::new();
    for w in list("workloads")? {
        let why = text_of(w, "why")?;
        let floor = why
            .rsplit_once("recall@10 floor ")
            .and_then(|(_, x)| {
                x.trim_end_matches(|c: char| !c.is_ascii_digit())
                    .parse()
                    .ok()
            })
            .ok_or(format!("workload why {why:?} names no recall@10 floor"))?;
        floors.insert(text_of(w, "name")?, floor);
    }
    let metrics = |key: &str| -> Result<Vec<(String, String)>, String> {
        list(key)?
            .into_iter()
            .map(|m| Ok((text_of(m, "name")?, text_of(m, "unit")?)))
            .collect()
    };
    Ok(Declared {
        floors,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// Keep exactly the declared metrics of this mode, in declared order.
/// A per-layer metric the workload has no layer for reads 0; a missing
/// end-to-end metric or a unit that disagrees with the declaration is a
/// benchmark bug.
fn conform(
    outcome: &mut Outcome,
    declared: &[(String, String)],
    fill_missing: bool,
) -> Result<(), String> {
    let mut kept = Vec::new();
    for (name, unit) in declared {
        match outcome.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit => kept.push(m.clone()),
            Some(m) => {
                return Err(format!(
                    "{name} measured in {} but declared in {unit}",
                    m.unit
                ))
            }
            None if fill_missing => kept.push(Metric {
                name: leak(name),
                unit: leak(unit),
                value: 0.0,
                samples: 0,
            }),
            None => return Err(format!("the run did not measure {name}")),
        }
    }
    outcome.metrics = kept;
    Ok(())
}

fn leak(s: &str) -> &'static str {
    Box::leak(s.to_string().into_boxed_str())
}

fn run_workload(
    name: &str,
    args: &Args,
    size: &Size,
    declared: &Declared,
) -> Result<Outcome, String> {
    let floor = *declared
        .floors
        .get(name)
        .ok_or(format!("workload {name} is not declared in BENCHMARK.json"))?;
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    println!(
        "# perfbench workload={name} seed={} seconds={} trace={} smoke={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke
    );
    match name {
        "gauss-serve" => gauss_serve::run(args, size, floor, &mut out),
        "cdtw-search" => cdtw::run(args, size, floor, &mut out),
        "gauss-churn" => churn::run(args, size, floor, &mut out),
        _ => return Err(format!("unknown workload {name}")),
    }
    let total = out.ledger.total();
    let error_rate = out.ledger.error_rate();
    let rss = common::peak_rss_mb().unwrap_or(0.0);
    if args.trace {
        out.metric("error_rate", "fraction", error_rate, total.sent as usize);
        out.metric("peak_rss.traced_mb", "MB", rss, 1);
    } else {
        out.metric(
            "success_rate",
            "fraction",
            1.0 - error_rate,
            total.sent as usize,
        );
        out.metric("peak_rss_mb", "MB", rss, 1);
    }
    let rayon = std::env::var("RAYON_NUM_THREADS").map_or("null".to_string(), |v| json_str(&v));
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    out.meta("workload", json_str(name));
    out.meta("seed", args.seed.to_string());
    out.meta("seconds", format!("{:?}", args.seconds));
    out.meta("trace", args.trace.to_string());
    out.meta("smoke", args.smoke.to_string());
    out.meta("git_sha", json_str(&common::git_sha()));
    out.meta("nproc", nproc.to_string());
    out.meta("rayon_num_threads", rayon);
    let declared_metrics = if args.trace {
        &declared.per_layer
    } else {
        &declared.end_to_end
    };
    conform(&mut out, declared_metrics, args.trace)?;
    report::print_metrics(&out);
    for (phase, op, t) in out.ledger.rows() {
        println!(
            "ops phase={phase} op={op} sent={} ok={} failed={}",
            t.sent, t.ok, t.failed
        );
    }
    println!("meta {}", report::meta_json(&out));
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let declared = match read_declared() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let size = if args.smoke {
        Size::smoke()
    } else {
        Size::full()
    };
    let names: Vec<String> = if args.workload == "all" {
        declared.floors.keys().cloned().collect()
    } else {
        vec![args.workload.clone()]
    };
    let mut outcomes = Vec::new();
    for name in &names {
        match run_workload(name, &args, &size, &declared) {
            Ok(o) => outcomes.push((name, o)),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    }
    let result = if let [(_, only)] = outcomes.as_slice() {
        report::result_json(only)
    } else {
        // `all`: one line over every workload, metrics prefixed by it.
        let mut merged = Outcome {
            correct: true,
            ..Outcome::default()
        };
        for (name, o) in &outcomes {
            merged.correct &= o.correct;
            merged.ledger.absorb(name, &o.ledger);
            for m in &o.metrics {
                merged.metric(
                    leak(&format!("{name}.{}", m.name)),
                    m.unit,
                    m.value,
                    m.samples,
                );
            }
        }
        report::result_json(&merged)
    };
    println!("{result}");
    if outcomes.iter().all(|(_, o)| o.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
