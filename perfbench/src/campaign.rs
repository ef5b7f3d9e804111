//! `snet-day-durable`: the committed one-day S-Net fleet campaign run
//! through the crash-safe controller loop (`ffc ctrl run --ckpt-dir`):
//! 288 five-minute intervals back to back through
//! `Controller::run_with_recovery`, with the telemetry store as sink
//! and a `Checkpointer` attached. Before it, the run cold-starts the
//! controller's FFC solve at each hour of the day's demand and certifies
//! the result, which gives this workload its `cold_solve_s`.
//!
//! The day's demand is always the committed campaign's (spec seed 42);
//! `--seed` seeds the controller's rollout RNG, i.e. the sampled switch
//! update delays and ack timeouts. A day drawn from another spec seed
//! changes the amount of work severalfold (seed 1's day ran for over
//! four minutes, seed 42's for one), which would leave no campaign
//! metric steady across seeds.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ffc_core::{build_ffc_model, certify_config, FfcConfig, TeConfig, TeProblem};
use ffc_ctrl::{
    recover_latest, Checkpointer, Controller, ControllerConfig, Event, IntervalSink,
    IntervalTelemetry, SolvePath, TimedEvent,
};
use ffc_fleet::{
    build_topology, build_workload, demand_events, link_names, FleetSpec, StoreWriter,
    TelemetryStore,
};
use ffc_net::{layout_tunnels, FlowId, LayoutConfig, Topology, TrafficMatrix, TunnelTable};
use ffc_sim::SwitchModel;

use crate::stats::{median, nearest_rank, tail_percentile, Metric, Tally};
use crate::{Args, Outcome};

/// The committed campaign, relative to the repository root.
const SPEC: &str = "examples/data/snet-day.fleet.toml";

/// `ffc fleet run` on the committed spec (seed 42) gives this store.
const GOLDEN_SEED: u64 = 42;
const GOLDEN_FINGERPRINT: &str = "d947d2df52b62d65";
const GOLDEN_DELIVERED: &str = "9206183.8";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;

/// Passes over the hourly cold starts; `cold_solve_s` and
/// `audit.certify_s` are medians over passes.
const COLD_START_PASSES: usize = 3;

const PATHS: [SolvePath; 6] = [
    SolvePath::WarmDual,
    SolvePath::WarmPrimal,
    SolvePath::Cold,
    SolvePath::Infeasible,
    SolvePath::LimitExceeded,
    SolvePath::RescaleOnly,
];

struct Setup {
    spec: FleetSpec,
    topo: Topology,
    base_tm: TrafficMatrix,
    events: Vec<TimedEvent>,
    tunnels: TunnelTable,
    cfg: ControllerConfig,
}

/// Workload, event stream, tunnels and controller config, built the
/// way `ffc fleet run` builds them.
fn setup(spec_text: &str, seed: u64) -> Result<Setup, String> {
    let spec = FleetSpec::parse(spec_text).map_err(|e| format!("{SPEC}: {e}"))?;
    let net = build_topology(&spec);
    let wl = build_workload(&spec, &net)?;
    let events = demand_events(&spec, &wl, &net)?;
    let layout = LayoutConfig {
        tunnels_per_flow: spec.tunnels_per_flow,
        ..LayoutConfig::default()
    };
    let tunnels = layout_tunnels(&net.topo, &wl.base_tm, &layout);
    let (kc, ke, kv) = spec.protection;
    let mut cfg = ControllerConfig::new(FfcConfig::new(kc, ke, kv), SwitchModel::Realistic);
    cfg.seed = seed;
    cfg.interval_secs = spec.interval_secs;
    Ok(Setup {
        spec,
        topo: net.topo,
        base_tm: wl.base_tm,
        events,
        tunnels,
        cfg,
    })
}

/// The store sink, wrapped to take the wall time between successive
/// intervals and, when tracing, the time spent appending.
struct TimedSink<'w> {
    inner: &'w mut StoreWriter,
    trace: bool,
    last: Instant,
    gaps_ms: Vec<f64>,
    append_s: f64,
}

impl IntervalSink for TimedSink<'_> {
    fn record(&mut self, telemetry: &IntervalTelemetry, link_util: &[f64]) {
        let now = Instant::now();
        self.gaps_ms
            .push(now.duration_since(self.last).as_secs_f64() * 1e3);
        self.last = now;
        self.inner.record(telemetry, link_util);
        if self.trace {
            self.append_s += now.elapsed().as_secs_f64();
        }
    }
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // The parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Whether an interval counts as a failed operation: rolled back,
/// refused by the certifier, or without a solution.
fn interval_failed(t: &IntervalTelemetry) -> bool {
    t.rolled_back
        || t.certificate == "rejected"
        || matches!(t.path, SolvePath::Infeasible | SolvePath::LimitExceeded)
}

/// The demand at the start of every hour of the day (every 12th
/// five-minute interval), replayed from the campaign's `DemandSet`
/// events.
fn hourly_demands(s: &Setup) -> Vec<TrafficMatrix> {
    let per_hour = ((3600.0 / s.spec.interval_secs).round() as usize).max(1);
    let flows: Vec<FlowId> = s.base_tm.ids().collect();
    let mut tm = s.base_tm.clone();
    let mut events = s.events.iter().peekable();
    let mut out = Vec::new();
    for interval in 0..s.spec.intervals {
        while let Some(e) = events.next_if(|e| e.interval <= interval) {
            if let Event::DemandSet { flow, demand } = e.event {
                tm.set_demand(flows[flow], demand);
            }
        }
        if interval % per_hour == 0 {
            out.push(tm.clone());
        }
    }
    out
}

/// A cold start at each hour of the day, from outside: the FFC solve of
/// that hour's demand against the previous hour's config (nothing is
/// installed before the first hour), then its certification at the
/// campaign's level, stale-ingress scenarios through the previous
/// hour's weights included. Returns the summed solve and certification
/// wall times and the scenarios certified.
fn cold_starts(
    s: &Setup,
    hours: &[TrafficMatrix],
    tally: &mut Tally,
    problems: &mut Vec<String>,
) -> (f64, f64, usize) {
    let mut old = TeConfig::zero(&s.tunnels);
    let (mut solve_s, mut certify_s, mut scenarios) = (0.0, 0.0, 0);
    for tm in hours {
        let t = Instant::now();
        let builder = build_ffc_model(TeProblem::new(&s.topo, tm, &s.tunnels), &old, &s.cfg.ffc);
        let solved = builder.solve_detailed(&s.cfg.opts);
        solve_s += t.elapsed().as_secs_f64();
        tally.record(solved.is_ok());
        let config = match solved {
            Ok((config, _)) => config,
            Err(e) => {
                problems.push(format!("cold solve of an hourly demand: {e}"));
                continue;
            }
        };
        let t = Instant::now();
        let cert = certify_config(&s.topo, tm, &s.tunnels, &config, Some(&old), &s.cfg.ffc);
        certify_s += t.elapsed().as_secs_f64();
        scenarios += cert.scenarios_checked;
        tally.record(cert.ok());
        if !cert.ok() {
            problems.push(format!(
                "hourly cold config certifies {}",
                cert.status_str()
            ));
        }
        old = config;
    }
    (solve_s, certify_s, scenarios)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec_text = fs::read_to_string(SPEC).map_err(|e| format!("{SPEC}: {e}"))?;
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        built = Some(setup(&spec_text, args.seed)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let s = built.expect("SETUP_REPEATS > 0");
    let intervals = s.spec.intervals;
    let p95 = 0.95;
    if tail_percentile(intervals, &[0.5, 0.9, 0.95, 0.99]) != Some(p95) {
        return Err(format!(
            "{intervals} intervals do not support interval_p95_ms as the tail percentile"
        ));
    }

    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let hours = hourly_demands(&s);
    let (mut cold, mut certify, mut scenarios) = (Vec::new(), Vec::new(), 0);
    for _ in 0..COLD_START_PASSES {
        let (c, v, n) = cold_starts(&s, &hours, &mut tally, &mut problems);
        cold.push(c);
        certify.push(v);
        scenarios = n;
    }

    let scratch = ScratchDir(PathBuf::from(format!(
        ".bench_tmp/snet-day-durable-{}",
        std::process::id()
    )));
    let store_dir = scratch.0.join("store");
    let ckpt_dir = scratch.0.join("ckpt");
    let mut ctrl = Controller::new(&s.topo, &s.tunnels, s.cfg.clone());
    let digest = ctrl.checkpoint_digest(&s.base_tm);

    let start = Instant::now();
    let mut writer = StoreWriter::create(&store_dir, link_names(&s.topo))?;
    let mut ckpt = Checkpointer::create(&ckpt_dir, digest)?;
    let mut sink = TimedSink {
        inner: &mut writer,
        trace: args.trace,
        last: start,
        gaps_ms: Vec::with_capacity(intervals),
        append_s: 0.0,
    };
    let report = ctrl.run_with_recovery(
        &s.base_tm,
        &s.events,
        intervals,
        false,
        Some(&mut sink),
        Some(&mut ckpt),
        None,
    );
    let (mut gaps_ms, mut append_s) = (sink.gaps_ms, sink.append_s);
    let t = Instant::now();
    let sealed = writer.finish();
    append_s += t.elapsed().as_secs_f64();
    let campaign_s = start.elapsed().as_secs_f64();

    let tel = &report.telemetry;
    for t in tel {
        tally.record(!interval_failed(t));
    }
    tally.record(sealed.is_ok());
    tally.record(ckpt.error().is_none());
    if let Err(e) = &sealed {
        problems.push(format!("telemetry store: {e}"));
    }
    if let Some(e) = ckpt.error() {
        problems.push(format!("checkpointing: {e}"));
    }
    if tally.failed > 0 {
        problems.push(format!(
            "{} of {} operations failed",
            tally.failed, tally.attempted
        ));
    }
    if tel.len() != intervals || gaps_ms.len() != intervals {
        problems.push(format!(
            "{} intervals reported, {} recorded, {intervals} run",
            tel.len(),
            gaps_ms.len()
        ));
    }

    // Outputs: the sealed store, and the newest checkpoint, which must
    // load through crash recovery and agree with the run.
    let fingerprint = TelemetryStore::open(&store_dir)
        .map(|st| st.fingerprint())
        .unwrap_or_else(|e| {
            problems.push(format!("telemetry store: {e}"));
            String::new()
        });
    let store_bytes = dir_bytes(&store_dir);
    let delivered: f64 = tel.iter().map(|t| t.delivered).sum();
    let degraded = tel.iter().filter(|t| t.degraded).count();
    println!(
        "campaign seed {}: {} intervals, delivered {delivered:.1}, {degraded} degraded, \
         store fingerprint {fingerprint}",
        args.seed,
        tel.len()
    );
    if args.seed == GOLDEN_SEED {
        if fingerprint != GOLDEN_FINGERPRINT {
            problems.push(format!(
                "store fingerprint {fingerprint}, `ffc fleet run` gives {GOLDEN_FINGERPRINT}"
            ));
        }
        if format!("{delivered:.1}") != GOLDEN_DELIVERED || degraded != 0 {
            problems.push(format!(
                "delivered {delivered:.1} with {degraded} degraded intervals, \
                 golden {GOLDEN_DELIVERED} with 0"
            ));
        }
    }
    let (mut ckpt_writes, mut ckpt_bytes) = (0u64, 0u64);
    match recover_latest(&ckpt_dir, digest) {
        Ok(rec) => match rec.checkpoint {
            Some(c) => {
                // Sequence numbers start at 0.
                ckpt_writes = c.seq + 1;
                ckpt_bytes = fs::metadata(ckpt_dir.join(&c.file)).map_or(0, |m| m.len());
                let run_fps: Vec<String> = tel.iter().map(|t| t.fingerprint()).collect();
                if c.state.next_interval != intervals || c.state.fingerprints != run_fps {
                    problems.push(format!(
                        "newest checkpoint {} does not match the finished run",
                        c.file
                    ));
                }
                // The recovered state's installed config must still
                // certify at the campaign's level.
                let mut tm = s.base_tm.clone();
                for (f, &d) in tm
                    .ids()
                    .collect::<Vec<_>>()
                    .into_iter()
                    .zip(&c.state.demands)
                {
                    tm.set_demand(f, d);
                }
                let installed = &c.state.store.installed.config;
                let cert = certify_config(&s.topo, &tm, &s.tunnels, installed, None, &s.cfg.ffc);
                if !cert.ok() {
                    problems.push(format!("recovered config certifies {}", cert.status_str()));
                }
            }
            None => problems.push("no checkpoint recovered".to_string()),
        },
        Err(e) => problems.push(format!("checkpoint recovery: {e}")),
    }
    drop(scratch);

    gaps_ms.sort_by(f64::total_cmp);
    let mut solve_ms: Vec<f64> = tel.iter().map(|t| t.solve_ms).collect();
    let solve_s = solve_ms.iter().sum::<f64>() / 1e3;
    solve_ms.sort_by(f64::total_cmp);
    let end_to_end = vec![
        Metric::new("cold_solve_s", median(&cold), "s"),
        Metric::new("interval_p50_ms", nearest_rank(&gaps_ms, 0.5), "ms"),
        Metric::new("interval_p95_ms", nearest_rank(&gaps_ms, p95), "ms"),
        Metric::new("campaign_s", campaign_s, "s"),
    ];

    let warm = |f: fn(&IntervalTelemetry) -> usize| {
        tel.iter()
            .filter(|t| matches!(t.path, SolvePath::WarmDual | SolvePath::WarmPrimal))
            .map(f)
            .sum::<usize>()
    };
    let count = |f: &dyn Fn(&IntervalTelemetry) -> bool| tel.iter().filter(|t| f(t)).count();
    let total = |f: &dyn Fn(&IntervalTelemetry) -> usize| tel.iter().map(f).sum::<usize>();
    let warm_iterations = warm(|t| t.iterations);
    let unattributed_s = campaign_s - solve_s - append_s;
    let mut per_layer = vec![
        Metric::new("lp.warm_iterations", warm_iterations as f64, "count"),
        Metric::new(
            "lp.warm_dual_iterations",
            warm(|t| t.dual_iterations) as f64,
            "count",
        ),
        Metric::new(
            "lp.warm_dual_bound_flips",
            warm(|t| t.dual_bound_flips) as f64,
            "count",
        ),
        Metric::new("ctrl.solve_s", solve_s, "s"),
        Metric::new("ctrl.solve_p50_ms", nearest_rank(&solve_ms, 0.5), "ms"),
        Metric::new("ctrl.solve_p95_ms", nearest_rank(&solve_ms, p95), "ms"),
        Metric::new("ctrl.unattributed_s", unattributed_s, "s"),
        Metric::new(
            "ctrl.unattributed_share",
            unattributed_s / campaign_s,
            "ratio",
        ),
    ];
    let mut counters = vec![("lp.warm_iterations".to_string(), warm_iterations as u64)];
    for path in PATHS {
        let name = format!("ctrl.path.{}", path.as_str());
        let n = count(&|t| t.path == path);
        per_layer.push(Metric::new(name.clone(), n as f64, "count"));
        counters.push((name, n as u64));
    }
    per_layer.extend([
        Metric::new(
            "ctrl.model_patched",
            count(&|t| t.model_patched) as f64,
            "count",
        ),
        Metric::new(
            "ctrl.rollout_steps",
            total(&|t| t.rollout_steps_completed) as f64,
            "count",
        ),
        Metric::new(
            "ctrl.update_retries",
            total(&|t| t.update_retries) as f64,
            "count",
        ),
        Metric::new(
            "ctrl.certified",
            count(&|t| t.certificate.starts_with("certified")) as f64,
            "count",
        ),
        Metric::new(
            "ctrl.rejected",
            count(&|t| t.certificate == "rejected") as f64,
            "count",
        ),
        Metric::new("audit.certify_s", median(&certify), "s"),
        Metric::new("audit.scenarios_checked", scenarios as f64, "count"),
        Metric::new(
            "audit.scenarios_per_s",
            scenarios as f64 / median(&certify),
            "1/s",
        ),
        Metric::new("fleet.store_append_s", append_s, "s"),
        Metric::new("fleet.store_bytes", store_bytes as f64, "bytes"),
        Metric::new("ckpt.writes", ckpt_writes as f64, "count"),
        Metric::new("ckpt.bytes", ckpt_bytes as f64, "bytes"),
    ]);
    counters.push(("ckpt.writes".to_string(), ckpt_writes));

    Ok(Outcome {
        problems,
        tally,
        setup_s: median(&setup_times),
        end_to_end,
        per_layer,
        counters,
        counters_apply: args.seed == GOLDEN_SEED,
    })
}
