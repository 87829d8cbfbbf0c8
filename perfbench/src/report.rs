//! Metric output: one human-readable line per metric, a metadata line, and
//! the final one-line JSON result.

use crate::stats::Ledger;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value summarizes (1 for a single measurement).
    pub samples: usize,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness gate passed.
    pub correct: bool,
    pub ledger: Ledger,
    pub metrics: Vec<Metric>,
    /// `(key, value)` run metadata; values are already JSON.
    pub meta: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    pub fn meta(&mut self, key: &str, json_value: impl Into<String>) {
        self.meta.push((key.to_string(), json_value.into()));
    }

    /// Fail the run's correctness with a message on stderr.
    pub fn fail(&mut self, why: &str) {
        eprintln!("correctness gate failed: {why}");
        self.correct = false;
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with every digit Rust's shortest round-trip form
/// gives it.
fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not finite");
    format!("{x:?}")
}

/// The metadata line: sample counts per metric, the operation ledger and
/// the run's `meta` pairs.
pub fn meta_json(outcome: &Outcome) -> String {
    let samples: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| format!("{}:{}", json_str(m.name), m.samples))
        .collect();
    let ops: Vec<String> = outcome
        .ledger
        .rows()
        .map(|(phase, op, t)| {
            format!(
                r#"{{"phase":{},"op":{},"sent":{},"ok":{},"failed":{}}}"#,
                json_str(phase),
                json_str(op),
                t.sent,
                t.ok,
                t.failed
            )
        })
        .collect();
    let mut fields: Vec<String> = outcome
        .meta
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    fields.push(format!(r#""samples":{{{}}}"#, samples.join(",")));
    fields.push(format!(r#""ops":[{}]"#, ops.join(",")));
    format!("{{{}}}", fields.join(","))
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics` (name → value and unit).
pub fn result_json(outcome: &Outcome) -> String {
    let total = outcome.ledger.total();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#"{}:{{"value":{},"unit":{}}}"#,
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        outcome.correct,
        total.sent.max(1),
        total.failed,
        metrics.join(",")
    )
}

/// Print every metric with its unit and sample count.
pub fn print_metrics(outcome: &Outcome) {
    for m in &outcome.metrics {
        println!(
            "metric {:<24} {:>14} {:<9} n={}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.samples
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qse_core::json::JsonValue;

    fn outcome() -> Outcome {
        let mut o = Outcome {
            correct: true,
            ..Outcome::default()
        };
        o.ledger.record("load", "read", true);
        o.ledger.record("load", "read", false);
        o.metric("query_p50_ms", "ms", 1.2034, 4000);
        o.metric("setup_s", "s", 0.8127, 3);
        o.meta("seed", "7");
        o
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(&outcome());
        let v = JsonValue::parse(&line).unwrap();
        let JsonValue::Object(fields) = &v else {
            panic!("not an object: {line}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted").unwrap().as_f64().unwrap(), 2.0);
        assert_eq!(v.get("failed").unwrap().as_f64().unwrap(), 1.0);
        let p50 = v.get("metrics").unwrap().get("query_p50_ms").unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64().unwrap(), 1.2034);
        assert_eq!(p50.get("unit").unwrap().as_str().unwrap(), "ms");
        let JsonValue::Object(entry) = p50 else {
            panic!("metric is not an object")
        };
        assert_eq!(entry.len(), 2);
        assert!(!line.contains('\n'));
    }

    #[test]
    fn values_keep_all_their_digits() {
        let mut o = outcome();
        o.metric("x", "ms", 0.1 + 0.2, 1);
        let v = JsonValue::parse(&result_json(&o)).unwrap();
        let x = v.get("metrics").unwrap().get("x").unwrap().get("value");
        assert_eq!(
            x.unwrap().as_f64().unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
    }

    #[test]
    fn meta_line_carries_samples_and_ops() {
        let line = meta_json(&outcome());
        let v = JsonValue::parse(&line).unwrap();
        assert_eq!(v.get("seed").unwrap().as_f64().unwrap(), 7.0);
        let samples = v.get("samples").unwrap();
        assert_eq!(
            samples.get("query_p50_ms").unwrap().as_f64().unwrap(),
            4000.0
        );
        assert_eq!(json_str("a\"b"), r#""a\"b""#);
    }
}
