//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! USAGE:
//!   repro [OPTIONS] <EXPERIMENT>...
//!
//! EXPERIMENTS:
//!   table1 fig11a fig11b fig12a fig12b fig13a fig13b fig14
//!   ablate-reuse ablate-bitmap ablate-expansion ablate-nprobe
//!   ablate-pq ablate-lsh ablate-cache
//!   searcher-scan filtered recovery serving lifecycle coarse
//!   all            run everything in order
//!
//! OPTIONS:
//!   --scale <f64>  dataset/event scale factor (default 1.0)
//!   --quick        shorter measurement windows (smoke run)
//!   --out <dir>    JSON output directory (default bench_results/)
//! ```
//!
//! Absolute numbers depend on the host; EXPERIMENTS.md records the shape
//! comparison against the paper (who wins, by what factor, where curves
//! bend).

use std::path::PathBuf;
use std::time::Instant;

use jdvs_bench::experiments::{self, Ctx, ALL};

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale <f64>] [--quick] [--out <dir>] <experiment>...\n\
         experiments: {} all",
        ALL.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let mut ctx = Ctx::default();
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_else(|| usage());
                ctx.scale = v.parse().unwrap_or_else(|_| {
                    eprintln!("invalid --scale value: {v}");
                    std::process::exit(2);
                });
            }
            "--quick" => ctx.quick = true,
            "--out" => ctx.out_dir = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                usage();
            }
            exp => wanted.push(exp.to_string()),
        }
    }
    if wanted.is_empty() {
        usage();
    }
    let ids: Vec<&str> = if wanted.iter().any(|w| w == "all") {
        ALL.to_vec()
    } else {
        for w in &wanted {
            if !ALL.contains(&w.as_str()) {
                eprintln!("unknown experiment {w:?}");
                usage();
            }
        }
        wanted.iter().map(String::as_str).collect()
    };

    println!(
        "jdvs repro — scale {:.2}{}, results → {}\n",
        ctx.scale,
        if ctx.quick { " (quick)" } else { "" },
        ctx.out_dir.display()
    );
    let t0 = Instant::now();
    for id in ids {
        let start = Instant::now();
        println!("--- running {id} ---");
        for result in experiments::run(id, &ctx) {
            result.print();
            if let Err(e) = result.save_json(&ctx.out_dir) {
                eprintln!("warning: could not save {}.json: {e}", result.id);
            }
        }
        println!("({id} took {:?})\n", start.elapsed());
    }
    println!("all done in {:?}", t0.elapsed());
}
