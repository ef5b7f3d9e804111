//! `table2-cold`: the paper's Table 2 TE computations, solved cold.
//!
//! Each network (the default L-Net and S-Net) gets a cold FFC(3,3,0)
//! and a cold FFC(2,1,0) solve against the previous interval's TE
//! config. Each solved config is certified at its own level, and the
//! (3,3,0) configs are also certified at (3,0,1), which is how the
//! ∪(3,0,1) half of the paper's first column is shown.
//!
//! The inputs are always the Table 2 ones (instance seed 42), run in
//! the paper's order, so `--seed` changes nothing here: cold-solve time
//! differs up to tenfold between generated instances (seeds 1, 2, 3 and
//! 42 took 70, 8, 12 and 40 s), and peak RSS moves from 39 to 56 MB
//! with the order of the cells.

use std::time::Instant;

use ffc_bench::{lnet_instance, snet_instance, Instance};
use ffc_core::{build_ffc_model, certify_config, solve_te, FfcConfig, TeConfig, TeProblem};
use ffc_lp::presolve::presolve;
use ffc_lp::SimplexOptions;

use crate::stats::{median, nearest_rank, Metric, Tally};
use crate::{Args, Outcome};

/// The instance seed of the published Table 2 rows.
const INSTANCE_SEED: u64 = 42;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

struct Cell {
    label: &'static str,
    net: usize,
    solve: (usize, usize, usize),
    certify: &'static [(usize, usize, usize)],
    /// Throughput of the solved config for the Table 2 instances.
    golden_throughput: f64,
}

const CELLS: [Cell; 4] = [
    Cell {
        label: "lnet_330",
        net: 0,
        solve: (3, 3, 0),
        certify: &[(3, 3, 0), (3, 0, 1)],
        golden_throughput: 285.428,
    },
    Cell {
        label: "lnet_210",
        net: 0,
        solve: (2, 1, 0),
        certify: &[(2, 1, 0)],
        golden_throughput: 423.708,
    },
    Cell {
        label: "snet_330",
        net: 1,
        solve: (3, 3, 0),
        certify: &[(3, 3, 0), (3, 0, 1)],
        golden_throughput: 187.606,
    },
    Cell {
        label: "snet_210",
        net: 1,
        solve: (2, 1, 0),
        certify: &[(2, 1, 0)],
        golden_throughput: 313.889,
    },
];

struct Network {
    inst: Instance,
    old: TeConfig,
}

fn setup() -> Result<Vec<Network>, String> {
    [
        lnet_instance(INSTANCE_SEED, 2),
        snet_instance(INSTANCE_SEED, 2),
    ]
    .into_iter()
    .map(|inst| {
        let old = solve_te(TeProblem::new(
            &inst.net.topo,
            &inst.trace.intervals[0],
            &inst.tunnels,
        ))
        .map_err(|e| format!("{}: old TE solve failed: {e}", inst.name))?;
        Ok(Network { inst, old })
    })
    .collect()
}

/// What one cell measured.
#[derive(Default)]
struct CellRun {
    build_s: f64,
    solve_s: f64,
    certify_s: f64,
    presolve_s: f64,
    presolve_eliminated: usize,
    rows: usize,
    cols: usize,
    nnz: usize,
    stats: ffc_lp::SolveStats,
    throughput: f64,
    scenarios: usize,
    sampled: usize,
    /// One `(k_c,k_e,k_v) verdict, scenarios` note per certificate.
    verdicts: Vec<String>,
}

fn run_cell(
    cell: &Cell,
    net: &Network,
    trace: bool,
    tally: &mut Tally,
    problems: &mut Vec<String>,
) -> CellRun {
    let inst = &net.inst;
    let tm = &inst.trace.intervals[1];
    let problem = || TeProblem::new(&inst.net.topo, tm, &inst.tunnels);
    let level = |(kc, ke, kv): (usize, usize, usize)| FfcConfig::new(kc, ke, kv);
    let mut run = CellRun::default();

    let t = Instant::now();
    let builder = build_ffc_model(problem(), &net.old, &level(cell.solve));
    run.build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let solved = builder.solve_detailed(&SimplexOptions::default());
    run.solve_s = t.elapsed().as_secs_f64();
    tally.record(solved.is_ok());

    let model = &builder.model;
    run.rows = model.num_cons();
    run.cols = model.num_vars();
    run.nnz = model.num_nonzeros();
    if trace {
        let t = Instant::now();
        match presolve(model) {
            Ok(pre) => {
                run.presolve_s = t.elapsed().as_secs_f64();
                run.presolve_eliminated =
                    pre.eliminated() + (model.num_cons() - pre.model.num_cons());
            }
            Err(e) => problems.push(format!("{}: presolve failed: {e}", cell.label)),
        }
    }

    let config = match solved {
        Ok((config, sol)) => {
            run.stats = sol.stats;
            config
        }
        Err(e) => {
            problems.push(format!("{}: solve failed: {e}", cell.label));
            for _ in cell.certify {
                tally.record(false);
            }
            return run;
        }
    };
    let got = config.throughput();
    run.throughput = got;
    if (got - cell.golden_throughput).abs() > 5e-4 {
        problems.push(format!(
            "{}: throughput {got:.6}, Table 2 golden {}",
            cell.label, cell.golden_throughput
        ));
    }
    for &at in cell.certify {
        let t = Instant::now();
        let cert = certify_config(
            &inst.net.topo,
            tm,
            &inst.tunnels,
            &config,
            Some(&net.old),
            &level(at),
        );
        run.certify_s += t.elapsed().as_secs_f64();
        tally.record(cert.ok());
        run.scenarios += cert.scenarios_checked;
        if cert.ok() && !cert.exhaustive {
            run.sampled += 1;
        }
        run.verdicts.push(format!(
            "({},{},{}) {} over {} scenarios",
            at.0,
            at.1,
            at.2,
            cert.status_str(),
            cert.scenarios_checked
        ));
        if !cert.ok() {
            problems.push(format!(
                "{} certified at {at:?}: {}",
                cell.label,
                cert.status_str()
            ));
        }
    }
    run
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut nets = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        nets = setup()?;
        setup_times.push(t.elapsed().as_secs_f64());
    }

    let mut tally = Tally::default();
    let mut problems = Vec::new();
    // One pass solves and certifies all four cells. Passes repeat while
    // another one fits in the run's time; each value is a median over
    // passes.
    let mut passes: Vec<Vec<CellRun>> = Vec::new();
    let mut pass_s = Vec::new();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let runs: Vec<CellRun> = CELLS
            .iter()
            .map(|cell| run_cell(cell, &nets[cell.net], args.trace, &mut tally, &mut problems))
            .collect();
        pass_s.push(t.elapsed().as_secs_f64());
        passes.push(runs);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + pass_s[pass_s.len() - 1] > args.seconds as f64 {
            break;
        }
    }
    let over = |f: &dyn Fn(&[CellRun]) -> f64| -> f64 {
        median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    let sum = |f: fn(&CellRun) -> f64| move |p: &[CellRun]| p.iter().map(f).sum::<f64>();
    let cell_ms = |q: f64| {
        move |p: &[CellRun]| {
            let mut v: Vec<f64> = p
                .iter()
                .map(|c| (c.build_s + c.solve_s + c.certify_s) * 1e3)
                .collect();
            v.sort_by(f64::total_cmp);
            nearest_rank(&v, q)
        }
    };

    let cold_solve_s = over(&sum(|c| c.build_s + c.solve_s));
    let certify_s = over(&sum(|c| c.certify_s));
    let end_to_end = vec![
        Metric::new("cold_solve_s", cold_solve_s, "s"),
        Metric::new("interval_p50_ms", over(&cell_ms(0.5)), "ms"),
        Metric::new("interval_p95_ms", over(&cell_ms(0.95)), "ms"),
        Metric::new("campaign_s", median(&pass_s), "s"),
    ];

    // Per-layer values and counters come from the last pass; the
    // counters are identical in every pass.
    let last = &passes[passes.len() - 1];
    let mut per_layer = vec![
        Metric::new("core.build_s", over(&sum(|c| c.build_s)), "s"),
        Metric::new("core.rows", sum_of(last, |c| c.rows), "count"),
        Metric::new("core.cols", sum_of(last, |c| c.cols), "count"),
        Metric::new("core.nnz", sum_of(last, |c| c.nnz), "count"),
        Metric::new("lp.presolve_s", over(&sum(|c| c.presolve_s)), "s"),
        Metric::new(
            "lp.presolve_eliminated",
            sum_of(last, |c| c.presolve_eliminated),
            "count",
        ),
    ];
    let mut counters = vec![
        ("core.rows".to_string(), sum_of(last, |c| c.rows) as u64),
        ("core.nnz".to_string(), sum_of(last, |c| c.nnz) as u64),
    ];
    let (mut iterations, mut degenerate) = (0usize, 0usize);
    for (i, cell) in CELLS.iter().enumerate() {
        let s = &last[i].stats;
        iterations += s.iterations();
        degenerate += s.degenerate_pivots;
        per_layer.push(Metric::new(
            format!("lp.{}.solve_s", cell.label),
            median(&passes.iter().map(|p| p[i].solve_s).collect::<Vec<_>>()),
            "s",
        ));
        for (name, value) in [
            ("phase1_iterations", s.phase1_iterations),
            ("phase2_iterations", s.phase2_iterations),
            ("degenerate_pivots", s.degenerate_pivots),
            ("degen_expansions", s.degen_expansions),
            ("refactorizations", s.refactorizations),
            ("full_pricing_passes", s.full_pricing_passes),
        ] {
            let name = format!("lp.{}.{name}", cell.label);
            per_layer.push(Metric::new(name.clone(), value as f64, "count"));
            counters.push((name, value as u64));
        }
    }
    let solve_s: f64 = over(&sum(|c| c.solve_s));
    let scenarios = sum_of(last, |c| c.scenarios);
    per_layer.extend([
        Metric::new(
            "lp.us_per_iteration",
            solve_s * 1e6 / iterations.max(1) as f64,
            "us",
        ),
        Metric::new(
            "lp.degenerate_share",
            degenerate as f64 / iterations.max(1) as f64,
            "ratio",
        ),
        Metric::new("audit.certify_s", certify_s, "s"),
        Metric::new("audit.scenarios_checked", scenarios, "count"),
        Metric::new("audit.scenarios_per_s", scenarios / certify_s, "1/s"),
        Metric::new(
            "audit.sampled_verdicts",
            sum_of(last, |c| c.sampled),
            "count",
        ),
    ]);

    // Each row names what was solved; the ∪(3,0,1) half of the paper's
    // first column is the certificate of the same config at (3,0,1).
    for (i, cell) in CELLS.iter().enumerate() {
        let c = &last[i];
        let (kc, ke, kv) = cell.solve;
        println!(
            "table2 {} FFC({kc},{ke},{kv}): solve {:.3} s ({} iterations, {} degenerate), \
             throughput {:.3}; certified {}",
            cell.label,
            c.build_s + c.solve_s,
            c.stats.iterations(),
            c.stats.degenerate_pivots,
            c.throughput,
            c.verdicts.join(", ")
        );
    }
    println!("table2 passes {}", passes.len());

    Ok(Outcome {
        problems,
        tally,
        setup_s: median(&setup_times),
        end_to_end,
        per_layer,
        counters,
        counters_apply: true,
    })
}

fn sum_of(cells: &[CellRun], f: fn(&CellRun) -> usize) -> f64 {
    cells.iter().map(f).sum::<usize>() as f64
}
