//! `perf`: the end-to-end and per-layer yardstick over the real TCP tiers.
//!
//! ```text
//! perf --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--quick] [--out <file>]
//! perf --compare <a.json> <b.json>
//! ```
//!
//! Builds a world from `--seed`, stands Blender → Broker → Searcher up on
//! loopback TCP with the shipped serving defaults, drives it from at most two
//! threads and two connections, checks every answer, prints every metric by
//! name with its unit, and ends standard output with one JSON line. With
//! `--trace 0` that line carries the end-to-end metrics of `BENCHMARK.json`;
//! with `--trace 1` a separate, sequential traced pass runs instead and the
//! line carries the per-layer metrics. See `README.md` beside this file.

mod compare;
mod driver;
mod inputs;
mod json;
mod rng;
mod trace;
mod workloads;
mod world;

use std::process::ExitCode;

use inputs::Inputs;
use json::Json;
use workloads::{Metric, Report, Workload};

const USAGE: &str = "usage: perf --workload <scan-bound|hop-bound|mixed-rw|ingest> --seed <u64> \
                     [--seconds <n>] [--trace <0|1>] [--quick] [--out <file>]\n       \
                     perf --compare <a.json> <b.json>";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 16.0;
    let mut trace = false;
    let mut quick = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds must be in (0, 60]")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => quick = true,
            "--out" => out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        quick,
        out,
    })
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let value = Json::obj([
            ("value", Json::Num(m.value)),
            ("unit", Json::Str(m.unit.into())),
        ]);
        (m.name, value)
    }))
}

/// Adds one run to the result set in `path` (`{"runs": [...]}`, one run per
/// line), creating it if need be: what `--compare` reads.
fn add_to_set(path: &str, run: Json) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text)?
            .get("runs")
            .ok_or("not a result set")?
            .as_array()
            .to_vec(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.to_string()),
    };
    runs.push(run);
    let lines: Vec<String> = runs.iter().map(Json::to_line).collect();
    let text = format!("{{\"runs\": [\n{}\n]}}\n", lines.join(",\n"));
    std::fs::write(path, text).map_err(|e| e.to_string())
}

/// One run, traced or not, and the fingerprint of its inputs.
fn run(args: &Args) -> (Report, u64) {
    let spec = args.workload.spec(args.seconds, args.quick);
    let inputs = Inputs::generate(args.seed, &spec.shape);
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    println!(
        "inputs_fingerprint {:016x} ({} products, {} images, {} queries, {} events)",
        inputs.fingerprint,
        inputs.catalog.len(),
        inputs.catalog_images(),
        inputs.queries.len(),
        inputs.events.len(),
    );
    let run = if args.trace {
        trace::run
    } else {
        workloads::run
    };
    let report = run(args.workload, &inputs, args.seconds, args.quick);
    for p in &report.phases {
        println!(
            "phase {:<14} attempted {:>7} failed {:>3} in {:.3} s",
            p.name, p.attempted, p.failed, p.elapsed_s
        );
    }
    for (name, ok) in &report.checks {
        println!("check {} ... {}", name, if *ok { "ok" } else { "FAILED" });
    }
    (report, inputs.fingerprint)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        return match args.as_slice() {
            [_, a, b] => compare::run(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (report, fingerprint) = run(&args);
    world::remove_scratch();
    for m in report.metrics.iter().chain(&report.extras) {
        println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let result = Json::obj([
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted() as f64)),
        ("failed", Json::Num(report.failed() as f64)),
        ("metrics", metrics_json(&report.metrics)),
    ]);
    if let Some(path) = &args.out {
        let run = Json::obj([
            ("workload", Json::Str(args.workload.name().into())),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("quick", Json::Bool(args.quick)),
            (
                "inputs_fingerprint",
                Json::Str(format!("{fingerprint:016x}")),
            ),
            ("result", result.clone()),
            ("extras", metrics_json(&report.extras)),
        ]);
        if let Err(e) = add_to_set(path, run) {
            eprintln!("perf: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result.to_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, traced and not, on shrunken worlds: the names and
    /// units printed are exactly those `BENCHMARK.json` lists, every value is
    /// finite, and nothing failed.
    #[test]
    fn every_workload_emits_exactly_the_declared_metrics() {
        let benchmark = Json::parse(compare::BENCHMARK).expect("BENCHMARK.json parses");
        let listed: Vec<String> = benchmark
            .get("workloads")
            .expect("workloads")
            .as_array()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed, ours);
        assert_eq!(
            benchmark.get("run_seconds").and_then(Json::as_f64),
            Some(16.0),
            "parse_args defaults --seconds to run_seconds"
        );

        for workload in Workload::ALL {
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let args = Args {
                    workload,
                    seed: 11,
                    seconds: 1.0,
                    trace,
                    quick: true,
                    out: None,
                };
                let (report, _) = run(&args);
                let emitted: Vec<(&str, &str)> =
                    report.metrics.iter().map(|m| (m.name, m.unit)).collect();
                let declared = compare::declared(&benchmark, section);
                let declared: Vec<(&str, &str)> = declared
                    .iter()
                    .map(|m| (m.name.as_str(), m.unit.as_str()))
                    .collect();
                assert_eq!(emitted, declared, "{} trace {trace}", workload.name());
                for m in report.metrics.iter().chain(&report.extras) {
                    assert!(
                        m.value.is_finite(),
                        "{} {} = {}",
                        workload.name(),
                        m.name,
                        m.value
                    );
                }
                assert!(report.attempted() > 0);
                assert_eq!(report.failed(), 0, "{} trace {trace}", workload.name());
                assert!(report.correct(), "{} trace {trace}", workload.name());
            }
        }
        world::remove_scratch();
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let args = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        let parsed =
            parse_args(&args("--workload hop-bound --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(parsed.workload, Workload::HopBound);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 3.0, true));
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload ingest")).is_err());
        assert!(parse_args(&args("--workload ingest --seed 1 --trace 2")).is_err());
    }
}
