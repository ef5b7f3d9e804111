//! End-to-end and per-layer benchmark of the FFC controller.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table2-cold|snet-day-durable> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. Each workload runs in this one
//! process, one caller, closed loop. The run prints every metric by
//! name with its unit, the correctness checks that failed, and the
//! deterministic counters that drifted from `perfbench/counters.txt`;
//! its last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones (and the end-to-end values as
//! `traced` lines, for the tracing overhead). Per-layer numbers are
//! taken around calls into each crate's public functions from this
//! benchmark's own files.
//!
//! Every workload reports every metric:
//!
//! | metric | `table2-cold` | `snet-day-durable` |
//! |---|---|---|
//! | `cold_solve_s` | the four cold solves, model build included | cold starts at the day's 24 hourly demands |
//! | `interval_p50_ms`, `interval_p95_ms` | over the four cells (build, solve, certify); with four samples p95 is the slowest | wall time between successive store appends, 288 samples |
//! | `campaign_s` | the whole pass | the campaign through the store seal |
//!
//! Certification time is the per-layer `audit.certify_s` (the six
//! Table 2 certifications; certifying the 24 hourly configs): on the
//! campaign each certification takes about a millisecond across the
//! certifier's worker threads, and that total moved by ±40% between
//! otherwise steady runs, wider than any bound an end-to-end metric may
//! have. A layer a workload does not reach reads 0 in the traced run.
//! Failed operations are counted in `attempted`/`failed` rather than
//! as a `failed_share` metric, which would read 0.

mod campaign;
mod stats;
mod table2;

use std::process::ExitCode;

use stats::{counter_drift, parse_counters, result_json, Metric, Tally};

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cold_solve_s", "s"),
    ("interval_p50_ms", "ms"),
    ("interval_p95_ms", "ms"),
    ("campaign_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with tracing on; a
/// layer a workload does not reach reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.build_s", "s"),
    ("core.rows", "count"),
    ("core.cols", "count"),
    ("core.nnz", "count"),
    ("lp.presolve_s", "s"),
    ("lp.presolve_eliminated", "count"),
    ("lp.lnet_330.solve_s", "s"),
    ("lp.lnet_330.phase1_iterations", "count"),
    ("lp.lnet_330.phase2_iterations", "count"),
    ("lp.lnet_330.degenerate_pivots", "count"),
    ("lp.lnet_330.degen_expansions", "count"),
    ("lp.lnet_330.refactorizations", "count"),
    ("lp.lnet_330.full_pricing_passes", "count"),
    ("lp.lnet_210.solve_s", "s"),
    ("lp.lnet_210.phase1_iterations", "count"),
    ("lp.lnet_210.phase2_iterations", "count"),
    ("lp.lnet_210.degenerate_pivots", "count"),
    ("lp.lnet_210.degen_expansions", "count"),
    ("lp.lnet_210.refactorizations", "count"),
    ("lp.lnet_210.full_pricing_passes", "count"),
    ("lp.snet_330.solve_s", "s"),
    ("lp.snet_330.phase1_iterations", "count"),
    ("lp.snet_330.phase2_iterations", "count"),
    ("lp.snet_330.degenerate_pivots", "count"),
    ("lp.snet_330.degen_expansions", "count"),
    ("lp.snet_330.refactorizations", "count"),
    ("lp.snet_330.full_pricing_passes", "count"),
    ("lp.snet_210.solve_s", "s"),
    ("lp.snet_210.phase1_iterations", "count"),
    ("lp.snet_210.phase2_iterations", "count"),
    ("lp.snet_210.degenerate_pivots", "count"),
    ("lp.snet_210.degen_expansions", "count"),
    ("lp.snet_210.refactorizations", "count"),
    ("lp.snet_210.full_pricing_passes", "count"),
    ("lp.us_per_iteration", "us"),
    ("lp.degenerate_share", "ratio"),
    ("lp.warm_iterations", "count"),
    ("lp.warm_dual_iterations", "count"),
    ("lp.warm_dual_bound_flips", "count"),
    ("audit.certify_s", "s"),
    ("audit.scenarios_checked", "count"),
    ("audit.scenarios_per_s", "1/s"),
    ("audit.sampled_verdicts", "count"),
    ("ctrl.solve_s", "s"),
    ("ctrl.solve_p50_ms", "ms"),
    ("ctrl.solve_p95_ms", "ms"),
    ("ctrl.unattributed_s", "s"),
    ("ctrl.unattributed_share", "ratio"),
    ("ctrl.path.warm_dual", "count"),
    ("ctrl.path.warm_primal", "count"),
    ("ctrl.path.cold", "count"),
    ("ctrl.path.infeasible", "count"),
    ("ctrl.path.limit_exceeded", "count"),
    ("ctrl.path.rescale_only", "count"),
    ("ctrl.model_patched", "count"),
    ("ctrl.rollout_steps", "count"),
    ("ctrl.update_retries", "count"),
    ("ctrl.certified", "count"),
    ("ctrl.rejected", "count"),
    ("fleet.store_append_s", "s"),
    ("fleet.store_bytes", "bytes"),
    ("ckpt.writes", "count"),
    ("ckpt.bytes", "bytes"),
];

/// The committed deterministic counters: `<workload> <counter> <value>`.
const COUNTERS: &str = include_str!("../counters.txt");

/// Environment variables that reroute the certifier this benchmark
/// measures.
const REFUSED_ENV: [&str; 2] = ["FFC_KERNELS", "FFC_KERNEL_WORKERS"];

pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// What a workload hands back.
pub struct Outcome {
    /// One line per failed correctness check; the run is correct when
    /// there are none.
    problems: Vec<String>,
    tally: Tally,
    /// Median of the run's set-ups.
    setup_s: f64,
    /// End-to-end metrics other than `setup_s` and `peak_rss_mb`.
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    /// Deterministic counters, compared exactly against [`COUNTERS`].
    counters: Vec<(String, u64)>,
    /// Whether the committed counters describe this run's inputs.
    counters_apply: bool,
}

/// The checkout's revision, read from `.git` in the working directory
/// (a checkout without `.git` reports `unknown`).
fn revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{name}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Orders a workload's metrics as `names` lists them, with the listed
/// units; a name the workload did not measure reads 0.
fn complete(names: &[(&str, &'static str)], measured: &[Metric]) -> Result<Vec<Metric>, String> {
    if let Some(m) = measured
        .iter()
        .find(|m| !names.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("metric {} is not declared", m.name));
    }
    Ok(names
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric::new(name, value, unit)
        })
        .collect())
}

fn run() -> Result<(), String> {
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; it reroutes the certifier under measurement, unset it"
            ));
        }
    }
    let args = parse_args()?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload {} seed {} seconds {} trace {} revision {} cores {cores}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        revision()
    );
    let out = match args.workload.as_str() {
        "table2-cold" => table2::run(&args)?,
        "snet-day-durable" => campaign::run(&args)?,
        w => {
            return Err(format!(
                "unknown workload {w} (table2-cold, snet-day-durable)"
            ))
        }
    };

    let mut e2e = out.end_to_end;
    e2e.push(Metric::new("setup_s", out.setup_s, "s"));
    e2e.push(Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"));
    let e2e = complete(&END_TO_END, &e2e)?;
    // A traced run prints the end-to-end values too, so the tracing
    // overhead is their difference from an untraced run's.
    let metrics = if args.trace {
        for m in &e2e {
            println!("traced {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        complete(PER_LAYER, &out.per_layer)?
    } else {
        e2e
    };
    for m in &metrics {
        println!("metric {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "failed_share {} ({} of {} operations)",
        out.tally.failed_share(),
        out.tally.failed,
        out.tally.attempted
    );
    if out.counters_apply {
        let drift = counter_drift(&parse_counters(COUNTERS, &args.workload)?, &out.counters);
        for line in &drift {
            println!("{line}");
        }
        println!(
            "counters {} measured, {} drifted from perfbench/counters.txt",
            out.counters.len(),
            drift.len()
        );
    }
    for p in &out.problems {
        println!("check failed: {p}");
    }
    let correct = out.problems.is_empty();
    println!("{}", result_json(correct, out.tally, &metrics)?);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(text.matches("\"unit\": ").count(), all.len());
    }

    #[test]
    fn committed_counters_are_declared_per_layer_metrics() {
        for workload in ["table2-cold", "snet-day-durable"] {
            let counters = parse_counters(COUNTERS, workload).expect("counters.txt");
            assert!(!counters.is_empty(), "no counters for {workload}");
            for (name, _) in counters {
                assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
            }
        }
    }
}
