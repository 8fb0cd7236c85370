//! `perf --compare a.json b.json`: two result sets (as `--out` writes them)
//! side by side, one row per workload and metric, judged against the bounds
//! of `BENCHMARK.json`.

use std::process::ExitCode;

use crate::driver::{median, percentile};
use crate::json::Json;

pub const BENCHMARK: &str = include_str!("../../../../../BENCHMARK.json");

/// A metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

/// The metrics of one section (`end_to_end` or `per_layer`), in order.
pub fn declared(benchmark: &Json, section: &str) -> Vec<Declared> {
    benchmark
        .get(section)
        .map_or(&[][..], Json::as_array)
        .iter()
        .map(|m| Declared {
            name: m
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            unit: m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

/// Every value a result set holds for one workload's metric, extras too.
fn values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.get("runs")
        .map_or(&[][..], Json::as_array)
        .iter()
        .filter(|run| run.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|run| {
            let listed = run.get("result").and_then(|r| r.get("metrics"));
            let extra = run.get("extras");
            [listed, extra]
                .into_iter()
                .flatten()
                .find_map(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        })
        .collect()
}

/// Quartile distance over the median; the whole range under four runs.
fn spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (lo, hi) = if sorted.len() >= 4 {
        (percentile(&sorted, 0.25), percentile(&sorted, 0.75))
    } else {
        (sorted[0], sorted[sorted.len() - 1])
    };
    (hi - lo) / median(sorted).abs().max(f64::MIN_POSITIVE)
}

/// Runs of the same workload, seed and length whose inputs nevertheless
/// differ: the generator changed between the two sets, so their numbers do
/// not describe the same work.
fn input_mismatches(a: &Json, b: &Json) -> Vec<String> {
    let runs = |set: &'_ Json| set.get("runs").map_or(&[][..], Json::as_array).to_vec();
    let key = |run: &Json| {
        ["workload", "seed", "seconds", "quick"].map(|k| run.get(k).map(Json::to_line))
    };
    let mut out = Vec::new();
    for ra in runs(a) {
        for rb in runs(b).iter().filter(|rb| key(rb) == key(&ra)) {
            let (fa, fb) = (ra.get("inputs_fingerprint"), rb.get("inputs_fingerprint"));
            let line = format!("{:?} {:?}: {fa:?} vs {fb:?}", key(&ra)[0], key(&ra)[1]);
            if fa != fb && !out.contains(&line) {
                out.push(line);
            }
        }
    }
    out
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn run(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("perf --compare: {e}");
            }
            return ExitCode::from(2);
        }
    };
    let mismatches = input_mismatches(&a, &b);
    if !mismatches.is_empty() {
        eprintln!("perf --compare: inputs_fingerprint differs, the sets measured different work:");
        for m in mismatches {
            eprintln!("  {m}");
        }
        return ExitCode::from(2);
    }
    let benchmark = Json::parse(BENCHMARK).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .map_or(&[][..], Json::as_array)
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();

    println!(
        "{:<11} {:<28} {:>14} {:>14} {:>9}  {:>5}  verdict   (b/a, base a = {a_path})",
        "workload", "metric", "a", "b", "b/a", "bound"
    );
    let mut regressed = 0;
    for workload in workloads {
        let sections = ["end_to_end", "per_layer"];
        for m in sections.iter().flat_map(|s| declared(&benchmark, s)) {
            let (va, vb) = (values(&a, workload, &m.name), values(&b, workload, &m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(va.clone()), median(vb.clone()));
            let ratio = mb / ma;
            // Positive when b is worse than a, as a share of a.
            let worse = if m.lower_is_better {
                ratio - 1.0
            } else {
                1.0 - ratio
            };
            let verdict = match m.bound {
                None => "-",
                Some(bound) if spread(&va).max(spread(&vb)) > bound => "unresolved",
                Some(bound) if worse > bound => {
                    regressed += 1;
                    "regressed"
                }
                Some(bound) if -worse > bound => "improved",
                Some(_) => "within",
            };
            let bound = m.bound.map_or("-".to_string(), |b| format!("{b:.2}"));
            println!(
                "{workload:<11} {:<28} {ma:>14.4} {mb:>14.4} {ratio:>9.4}  {bound:>5}  {verdict:<10} {}",
                m.name, m.unit
            );
        }
    }
    if regressed > 0 {
        println!("{regressed} end-to-end metric(s) regressed past their bound");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(throughput: &[f64]) -> Json {
        let runs = throughput
            .iter()
            .map(|t| {
                Json::parse(&format!(
                    r#"{{"workload": "scan-bound", "result": {{"metrics": {{"throughput":
                       {{"value": {t}, "unit": "1/s"}}}}}}, "extras": {{}}}}"#
                ))
                .unwrap()
            })
            .collect();
        Json::obj([("runs", Json::Arr(runs))])
    }

    #[test]
    fn reads_values_and_spread() {
        let s = set(&[100.0, 104.0, 96.0, 100.0]);
        assert_eq!(values(&s, "scan-bound", "throughput").len(), 4);
        assert!(values(&s, "hop-bound", "throughput").is_empty());
        assert!((spread(&[100.0, 104.0, 96.0, 100.0]) - 0.04).abs() < 1e-9);
        assert!((spread(&[100.0, 110.0]) - 0.1).abs() < 0.01);
    }

    #[test]
    fn differing_inputs_are_refused() {
        let run = |fp: &str| {
            let text = format!(
                r#"{{"runs": [{{"workload": "ingest", "seed": 11, "seconds": 15, "quick": false,
                   "inputs_fingerprint": "{fp}"}}]}}"#
            );
            Json::parse(&text).unwrap()
        };
        assert!(input_mismatches(&run("aa"), &run("aa")).is_empty());
        assert_eq!(input_mismatches(&run("aa"), &run("ab")).len(), 1);
    }

    #[test]
    fn benchmark_json_declares_bounds_only_end_to_end() {
        let benchmark = Json::parse(BENCHMARK).unwrap();
        let gated = declared(&benchmark, "end_to_end");
        assert!(gated.iter().any(|m| m.name == "setup_s"));
        assert!(gated.iter().all(|m| m.bound.is_some()));
        let layers = declared(&benchmark, "per_layer");
        assert!(layers.iter().any(|m| m.name == "core.scan_us"));
        assert!(layers.iter().all(|m| m.bound.is_none()));
    }
}
