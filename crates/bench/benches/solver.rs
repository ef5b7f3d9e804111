//! Criterion benchmarks of the LP solver substrate itself: sparse LU
//! factorization, FTRAN/BTRAN, and end-to-end simplex solves on random
//! multicommodity-flow-like LPs — plus parallel-sweep, warm re-solve,
//! delta-LP and certifier-kernel comparisons that record their
//! measurements in `BENCH_pricing.json` at the repo root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

use ffc_core::{solve_te_batch, FfcModelCache, TeProblem};
use ffc_lp::{Algorithm, Cmp, LinExpr, Model, Sense, SimplexOptions};

/// Median of a small latency sample (ms). Wall times are noisy on shared
/// hosts; the median is what BENCH records.
fn median_ms(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Builds a random transportation-style LP: `rows` capacity constraints
/// over `cols` variables, ~4 nonzeros per column.
fn random_lp(rows: usize, cols: usize, seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Model::new();
    let xs: Vec<_> = (0..cols)
        .map(|i| m.add_var(0.0, 10.0, format!("x{i}")))
        .collect();
    let mut row_exprs: Vec<LinExpr> = vec![LinExpr::zero(); rows];
    for &x in &xs {
        for _ in 0..4 {
            let r = rng.gen_range(0..rows);
            row_exprs[r].add_term(x, 1.0 + rng.gen::<f64>());
        }
    }
    for e in row_exprs {
        if !e.is_empty() {
            m.add_con(e, Cmp::Le, 50.0 + rng.gen::<f64>() * 50.0);
        }
    }
    let obj = LinExpr::weighted_sum(xs.iter().map(|&x| (x, 1.0 + rng.gen::<f64>())));
    m.set_objective(obj, Sense::Maximize);
    m
}

fn bench_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex");
    group.sample_size(10);
    for (rows, cols) in [(100usize, 300usize), (400, 1200), (1000, 3000)] {
        let model = random_lp(rows, cols, 7);
        group.bench_with_input(
            BenchmarkId::new("solve", format!("{rows}x{cols}")),
            &model,
            |b, m| b.iter(|| m.solve().expect("solvable")),
        );
    }
    group.finish();
}

fn bench_lu(c: &mut Criterion) {
    use ffc_lp::lu::LuFactors;
    use ffc_lp::sparse::CscMatrix;
    let mut group = c.benchmark_group("lu");
    for m in [200usize, 1000, 4000] {
        // A sparse diagonally-dominant matrix with ~5 off-diagonals per
        // column.
        let mut rng = StdRng::seed_from_u64(3);
        let cols: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|j| {
                let mut col = vec![(j, 10.0 + rng.gen::<f64>())];
                for _ in 0..5 {
                    let i = rng.gen_range(0..m);
                    if i != j {
                        col.push((i, rng.gen::<f64>() - 0.5));
                    }
                }
                col
            })
            .collect();
        let mat = CscMatrix::from_columns(m, &cols);
        group.bench_with_input(BenchmarkId::new("factorize", m), &mat, |b, mat| {
            b.iter(|| LuFactors::factorize(mat).expect("nonsingular"))
        });
        let mut lu = LuFactors::factorize(&mat).expect("nonsingular");
        let v = vec![1.0; m];
        let mut out = vec![0.0; m];
        group.bench_with_input(BenchmarkId::new("ftran", m), &(), |b, _| {
            b.iter(|| lu.ftran(&v, &mut out))
        });
    }
    group.finish();
}

/// Compares the serial vs parallel TE sweep, warm re-solve algorithms,
/// delta-LP patching and the certifier kernels, then records the
/// measurements in `BENCH_pricing.json`.
fn bench_recorded(_c: &mut Criterion) {
    // Host core count, recorded in every section: wall times and the
    // fan-out speedup are meaningless without it.
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    // ---- recorded comparison: serial vs parallel TE sweep ----
    let inst = ffc_bench::snet_instance(42, 8);
    let topo = &inst.net.topo;
    let problems: Vec<TeProblem> = inst
        .trace
        .intervals
        .iter()
        .map(|tm| TeProblem::new(topo, tm, &inst.tunnels))
        .collect();
    let opts = SimplexOptions::default();

    let t0 = Instant::now();
    let serial: Vec<f64> = problems
        .iter()
        .map(|p| ffc_core::solve_te(*p).expect("TE").throughput())
        .collect();
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let batch = solve_te_batch(&problems, &opts);
    let parallel_ms = t0.elapsed().as_secs_f64() * 1e3;
    for (s, b) in serial.iter().zip(&batch) {
        let b = b.as_ref().expect("TE").config.throughput();
        assert!((s - b).abs() < 1e-6, "batch result diverged: {s} vs {b}");
    }

    // ---- recorded comparison: warm scenario re-solves, primal vs dual ----
    // Same shape as `repro --quick`: S-Net ke=1, the first five
    // single-link fault scenarios, each re-optimized warm from the base
    // optimum's basis. `Auto` restarts dual-feasible warm bases in dual
    // iterations; `Primal` is the phase-1 repair baseline.
    let inst1 = ffc_bench::snet_instance(42, 1);
    let topo1 = &inst1.net.topo;
    let tm1 = &inst1.trace.intervals[0];
    let sweep_problem = TeProblem::new(topo1, tm1, &inst1.tunnels);
    let old = ffc_core::TeConfig::zero(&inst1.tunnels);
    let ffc_cfg = ffc_core::FfcConfig::new(0, 1, 0);
    let scenarios: Vec<ffc_net::FaultScenario> = topo1
        .links()
        .take(5)
        .map(|l| ffc_net::FaultScenario::links([l]))
        .collect();
    let mut algo_rows = Vec::new();
    for (name, algorithm) in [
        ("primal", Algorithm::Primal),
        ("auto_dual", Algorithm::Auto),
    ] {
        let t0 = Instant::now();
        let outcomes = ffc_core::solve_ffc_scenarios(
            sweep_problem,
            &old,
            &ffc_cfg,
            &scenarios,
            &SimplexOptions {
                algorithm,
                ..SimplexOptions::default()
            },
        )
        .expect("scenario sweep");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let (mut iters, mut dual, mut flips) = (0usize, 0usize, 0usize);
        for o in &outcomes {
            let o = o.as_ref().expect("scenario re-solve");
            iters += o.stats.iterations();
            dual += o.stats.dual_iterations;
            flips += o.stats.dual_bound_flips;
        }
        algo_rows.push(format!(
            "      {{\"algorithm\": \"{name}\", \"iterations\": {iters}, \
             \"dual_iterations\": {dual}, \"dual_bound_flips\": {flips}, \
             \"sweep_ms\": {ms:.1}}}"
        ));
    }

    // ---- recorded comparison: delta-LP patch vs full rebuild ----
    // Interval re-solve latency on a demand-tick workload: demands
    // drift by a compounding ±0.15% per tick — the fine-grained
    // re-solve cadence that cheap interval re-solves are meant to
    // enable (tracking predicted demand every minute instead of every
    // five). Each tick either (a) rebuilds the FFC model from scratch
    // and warm-solves it from the previous tick's basis, or (b)
    // patches the standing model's demand bounds in place and resumes
    // the retained solver state (`solve_warm_hot`), which skips model
    // construction, lowering, and the initial basis refactorization.
    // The two arms chain separate bases; the hot arm may take a
    // different pivot path to the same optimum, so agreement is
    // checked on the objective. The perturbation columns record the
    // warm iteration delta of the default bounded bound-perturbation
    // vs. exact bounds on the same (model, hint) pairs.
    let tick_factors = [
        1.0012, 0.9991, 1.0008, 0.9987, 1.0015, 0.9994, 1.0006, 0.9989, 1.0011, 1.0003, 0.9992,
        1.0013,
    ];
    let mut inc_rows = Vec::new();
    for (inst, kc, ke) in [
        (ffc_bench::snet_instance(42, 1), 0usize, 1usize),
        (ffc_bench::lnet_instance(42, 1), 1, 1),
    ] {
        let topo = &inst.net.topo;
        let tm0 = &inst.trace.intervals[0];
        let mut tms = vec![tm0.clone()];
        for &f in &tick_factors {
            tms.push(tms.last().expect("seed tm").scale(f));
        }
        let cfg = ffc_core::FfcConfig::new(kc, ke, 0);
        let old = if kc > 0 {
            ffc_core::solve_te(TeProblem::new(topo, tm0, &inst.tunnels)).expect("old TE")
        } else {
            ffc_core::TeConfig::zero(&inst.tunnels)
        };
        let warm_opts = SimplexOptions::default();
        let exact_opts = SimplexOptions {
            perturb: -1.0,
            ..SimplexOptions::default()
        };

        // (a) Full rebuild + warm solve per tick, chaining the basis.
        // The perturb-off re-solve of the same (model, hint) pair is
        // for the iteration columns only and is not timed.
        let first = TeProblem::new(topo, &tms[0], &inst.tunnels);
        let base = ffc_core::build_ffc_model(first, &old, &cfg)
            .model
            .solve_with(&warm_opts)
            .expect("base FFC");
        let mut basis = base.basis.clone();
        let (mut full_ms, mut full_objs) = (Vec::new(), Vec::new());
        let (mut iters_full, mut iters_perturbed, mut iters_exact) = (0usize, 0usize, 0usize);
        for tm in &tms[1..] {
            let t0 = Instant::now();
            let builder =
                ffc_core::build_ffc_model(TeProblem::new(topo, tm, &inst.tunnels), &old, &cfg);
            let sol = builder
                .model
                .solve_warm(&warm_opts, &basis)
                .expect("warm rebuild");
            full_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let sol_exact = builder
                .model
                .solve_warm(&exact_opts, &basis)
                .expect("warm exact");
            iters_full += sol.stats.iterations();
            iters_perturbed += sol.stats.iterations();
            iters_exact += sol_exact.stats.iterations();
            full_objs.push(sol.objective);
            basis = sol.basis;
        }

        // (b) Patch + hot re-solve on the standing model, own chain.
        // An untimed hot solve at the base point seeds the retained
        // solver state, mirroring a standing controller whose slot is
        // warm by the time ticks arrive.
        let mut cache = FfcModelCache::new(first, &old, &cfg, None);
        let (_, base_inc) = cache.solve_with(&warm_opts).expect("base FFC (standing)");
        let (_, seeded) = cache
            .solve_warm_hot(&warm_opts, &base_inc.basis)
            .expect("seed hot slot");
        let mut basis = seeded.basis;
        let mut patch_ms = Vec::new();
        let mut iters_patch = 0usize;
        for (tm, want) in tms[1..].iter().zip(&full_objs) {
            let t0 = Instant::now();
            cache.retarget(TeProblem::new(topo, tm, &inst.tunnels), &old, &cfg, None);
            let (_, sol) = cache.solve_warm_hot(&warm_opts, &basis).expect("hot patch");
            patch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let rel = (sol.objective - want).abs() / want.abs().max(1.0);
            assert!(
                rel < 1e-6,
                "patched tick diverged: {} vs {want}",
                sol.objective
            );
            iters_patch += sol.stats.iterations();
            basis = sol.basis;
        }
        let stats = cache.stats();
        let (fm, pm) = (median_ms(&full_ms), median_ms(&patch_ms));
        inc_rows.push(format!(
            "    {{\"instance\": \"{}\", \"kc\": {kc}, \"ke\": {ke}, \"ticks\": {}, \
             \"workers\": {workers}, \"workload\": \"compounding \\u00b10.15% demand drift per tick\", \
             \"patches\": {}, \"rebuilds\": {}, \
             \"full_rebuild_warm_median_ms\": {fm:.2}, \"patch_hot_median_ms\": {pm:.2}, \
             \"speedup\": {:.2}, \"warm_iterations_full\": {iters_full}, \
             \"warm_iterations_patch\": {iters_patch}, \
             \"warm_iterations_perturbed\": {iters_perturbed}, \
             \"warm_iterations_exact\": {iters_exact}}}",
            inst.name,
            tms.len() - 1,
            stats.patches,
            stats.rebuilds,
            fm / pm.max(1e-9),
        ));
        eprintln!(
            "incremental [{}]: full {fm:.2} ms vs patch+hot {pm:.2} ms per tick ({:.2}x)",
            inst.name,
            fm / pm.max(1e-9)
        );
    }

    // ----- kernels: batched SoA certifier vs the scalar reference -----
    // S-Net ke-sweep: certify one solved configuration against every
    // link-failure budget ke = 1..=2. Scenario counts grow
    // combinatorially with ke, so the sweep is dominated by
    // per-scenario load evaluation — exactly the loop the SoA kernels
    // batch. Each mode's sweep_ms is the whole sweep (sum of
    // min-of-3 per level); verdicts are asserted bit-identical between
    // the paths, so the bench doubles as a smoke oracle.
    let kinst = ffc_bench::snet_instance(42, 1);
    let topo = &kinst.net.topo;
    let tm = &kinst.trace.intervals[0];
    let zero = ffc_core::TeConfig::zero(&kinst.tunnels);
    let solved = ffc_core::solve_ffc(
        TeProblem::new(topo, tm, &kinst.tunnels),
        &zero,
        &ffc_core::FfcConfig::new(0, 2, 0),
    )
    .expect("S-Net FFC (ke=2)");
    let ke_levels = [1usize, 2];
    let inputs: Vec<ffc_audit::CertInput<'_>> = ke_levels
        .iter()
        .map(|&ke| {
            ffc_audit::CertInput::new(
                topo,
                tm,
                &kinst.tunnels,
                &solved.rate,
                &solved.alloc,
                ffc_audit::Protection::new(0, ke, 0),
            )
        })
        .collect();
    let references: Vec<ffc_audit::Certificate> = inputs
        .iter()
        .map(|input| {
            let c = ffc_audit::certify_scalar(input);
            assert!(c.ok(), "S-Net ke-sweep certification failed");
            c
        })
        .collect();
    let scen_total: usize = references.iter().map(|c| c.scenarios_checked).sum();
    let mut kernel_rows = Vec::new();
    let mut scalar_sweep_ms = 0.0;
    // (mode, workers, certify closure); scalar first so its total seeds
    // the speedup column.
    type Certify<'a> = Box<dyn Fn(&ffc_audit::CertInput<'_>) -> ffc_audit::Certificate + 'a>;
    let modes: Vec<(&str, usize, Certify<'_>)> = vec![
        (
            "scalar",
            1,
            Box::new(|i: &ffc_audit::CertInput<'_>| ffc_audit::certify_scalar(i)),
        ),
        (
            "batched",
            1,
            Box::new(|i: &ffc_audit::CertInput<'_>| ffc_audit::certify_batched(i, 1)),
        ),
        (
            "batched",
            4,
            Box::new(|i: &ffc_audit::CertInput<'_>| ffc_audit::certify_batched(i, 4)),
        ),
    ];
    for (mode, w, certify) in &modes {
        let mut sweep_ms = 0.0;
        for (input, reference) in inputs.iter().zip(&references) {
            let mut level_ms = f64::INFINITY;
            for _ in 0..3 {
                let t0 = Instant::now();
                let c = certify(input);
                level_ms = level_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                assert_eq!(c.status, reference.status, "kernel verdict drift ({mode})");
                assert_eq!(c.scenarios_checked, reference.scenarios_checked);
                assert_eq!(
                    c.max_oversubscription.to_bits(),
                    reference.max_oversubscription.to_bits(),
                    "kernel load drift ({mode})"
                );
            }
            sweep_ms += level_ms;
        }
        if *mode == "scalar" {
            scalar_sweep_ms = sweep_ms;
        }
        let speedup = scalar_sweep_ms / sweep_ms.max(1e-9);
        kernel_rows.push(format!(
            "    {{\"instance\": \"S-Net\", \"ke_levels\": [1, 2], \"scenarios\": {scen_total}, \"mode\": \"{mode}\", \"workers\": {w}, \"sweep_ms\": {sweep_ms:.3}, \"speedup\": {speedup:.2}}}"
        ));
        eprintln!(
            "kernels [S-Net ke-sweep 1..=2, {scen_total} scenarios]: {mode}(w={w}) {sweep_ms:.3} ms ({speedup:.2}x vs scalar)"
        );
    }

    let json = format!(
        "{{\n  \"sweep\": {{\"instance\": \"{}\", \
         \"intervals\": {}, \"workers\": {workers}, \"serial_ms\": {serial_ms:.1}, \
         \"parallel_ms\": {parallel_ms:.1}, \"speedup\": {:.2}, \
         \"note\": \"fan-out speedup is bounded by available_parallelism; \
         expect ~min(workers, intervals)x on multicore hosts\"}},\n  \
         \"warm_dual\": {{\"instance\": \"S-Net\", \"ke\": 1, \"scenarios\": {}, \
         \"workers\": {workers}, \"algorithms\": [\n{}\n  ]}},\n  \
         \"incremental\": [\n{}\n  ],\n  \
         \"kernels\": {{\"host_cores\": {workers}, \
         \"note\": \"batched SoA certifier vs scalar reference over the \
         S-Net ke scenario sweep; verdicts asserted bit-identical\", \
         \"rows\": [\n{}\n  ]}}\n}}\n",
        inst.name,
        problems.len(),
        serial_ms / parallel_ms.max(1e-9),
        scenarios.len(),
        algo_rows.join(",\n"),
        inc_rows.join(",\n"),
        kernel_rows.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pricing.json");
    std::fs::write(path, &json).expect("write BENCH_pricing.json");
    eprintln!(
        "wrote {path}: sweep speedup {:.2}x",
        serial_ms / parallel_ms.max(1e-9)
    );
}

criterion_group!(benches, bench_simplex, bench_lu, bench_recorded);
criterion_main!(benches);
