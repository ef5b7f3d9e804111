//! Demand-matrix fuzzing through the congestion-free update planner
//! (§5.2): correlated multi-flow surges, zeroed flows, and permuted
//! ingress assignments drive randomized `from → to` transitions, and
//! every planned chain must satisfy the Eqn-16 transition invariant
//! `Σ_v max(a^{i-1}, a^i) ≤ c_e` on every link of every step.
//!
//! Both endpoint configurations are halved after solving, so each loads
//! every link at no more than half capacity — which makes the plain
//! (kc = 0) plan provably feasible (`Σ max(a,b) ≤ Σa + Σb ≤ c`) and the
//! success assertion non-vacuous. The FFC (kc ≥ 1) variant adds
//! stale-switch M-sum constraints and may legitimately be infeasible;
//! when it does plan, its chain is held to the same invariant.
//!
//! A one-step chain is decided in closed form rather than by the LP, so
//! a second property compares that verdict with the LP's on unhalved
//! endpoints, where one-step rejections occur.

use ffc_core::{
    build_update_lp, max_transition_violation, plan_update, solve_te, TeConfig, TeProblem,
    UpdateConfig,
};
use ffc_net::prelude::*;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Inst {
    nodes: usize,
    caps: Vec<f64>,
    /// `(src, dst offset, demand)` per flow.
    flows: Vec<(usize, usize, f64)>,
    /// Correlated surge multiplying every target-side demand.
    surge: f64,
    /// Zero the target demand of every flow hitting this stride.
    zero_stride: usize,
    /// Rotate all flow sources (permuted ingress assignment).
    ingress_rot: usize,
    steps: usize,
    kc: usize,
}

fn inst_strategy() -> impl Strategy<Value = Inst> {
    (
        4..7usize,
        prop::collection::vec(10.0..30.0f64, 4),
        prop::collection::vec((0..6usize, 0..5usize, 1.0..6.0f64), 2..5),
        (0.3..1.8f64, 0..4usize, 0..4usize),
        1..4usize,
        0..2usize,
    )
        .prop_map(
            |(nodes, caps, flows, (surge, zero_stride, ingress_rot), steps, kc)| Inst {
                nodes,
                caps,
                flows,
                surge,
                zero_stride,
                ingress_rot,
                steps,
                kc,
            },
        )
}

/// Ring + one chord; two traffic matrices over the *same* flow
/// endpoints (required: both configs index the same tunnel table), with
/// the target side surged / zeroed.
fn build(inst: &Inst) -> (Topology, TrafficMatrix, TrafficMatrix, TunnelTable) {
    let mut t = Topology::new();
    let ns = t.add_nodes(inst.nodes, "n");
    for i in 0..inst.nodes {
        t.add_bidi(
            ns[i],
            ns[(i + 1) % inst.nodes],
            inst.caps[i % inst.caps.len()],
        );
    }
    t.add_bidi(ns[0], ns[2], inst.caps[3]);
    let mut tm_from = TrafficMatrix::new();
    let mut tm_to = TrafficMatrix::new();
    for (fi, &(src, doff, demand)) in inst.flows.iter().enumerate() {
        let s = (src + inst.ingress_rot) % inst.nodes;
        let d = (s + 1 + doff % (inst.nodes - 1)) % inst.nodes;
        tm_from.add_flow(ns[s], ns[d], demand, Priority::High);
        let target = if inst.zero_stride > 0 && fi % inst.zero_stride == 0 {
            0.0
        } else {
            demand * inst.surge
        };
        tm_to.add_flow(ns[s], ns[d], target, Priority::High);
    }
    let tunnels = layout_tunnels(
        &t,
        &tm_from,
        &LayoutConfig {
            tunnels_per_flow: 3,
            p: 2,
            q: 3,
            reuse_penalty: 0.5,
        },
    );
    (t, tm_from, tm_to, tunnels)
}

/// Scales a configuration's rates and allocations by `factor`. At 0.5
/// it is still a valid TE config, now loading every link at ≤ half
/// capacity.
fn scaled(cfg: &TeConfig, factor: f64) -> TeConfig {
    TeConfig {
        rate: cfg.rate.iter().map(|r| r * factor).collect(),
        alloc: cfg
            .alloc
            .iter()
            .map(|row| row.iter().map(|a| a * factor).collect())
            .collect(),
    }
}

/// The highest utilization `Σ max(a⁰, a¹) / c` a one-step transition
/// puts on any link.
fn one_step_peak(t: &Topology, tunnels: &TunnelTable, from: &TeConfig, to: &TeConfig) -> f64 {
    let mut load = vec![0.0; t.num_links()];
    for (f, ti, tunnel) in tunnels.iter_all() {
        let hi = from.alloc[f.index()][ti].max(to.alloc[f.index()][ti]);
        for &l in &tunnel.links {
            load[l.index()] += hi;
        }
    }
    t.links()
        .map(|e| load[e.index()] / t.capacity(e))
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fuzzed_demand_transitions_stay_congestion_free(inst in inst_strategy()) {
        let (t, tm_from, tm_to, tunnels) = build(&inst);
        let from = scaled(&solve_te(TeProblem::new(&t, &tm_from, &tunnels)).expect("from TE"), 0.5);
        let to = scaled(&solve_te(TeProblem::new(&t, &tm_to, &tunnels)).expect("to TE"), 0.5);

        // The plain chain must exist: both endpoints load links at
        // ≤ c/2, so even the direct transition is congestion-free.
        let plan = plan_update(&t, &tm_to, &tunnels, &from, &to, &UpdateConfig::plain(inst.steps))
            .expect("plain plan feasible by construction");
        prop_assert_eq!(plan.num_steps(), inst.steps);
        let viol = max_transition_violation(&t, &tunnels, &from, &plan);
        prop_assert!(viol <= 1e-6, "plain chain overloads a link by {viol}");
        // The chain lands exactly on the target.
        let last = plan.steps.last().expect("non-empty plan");
        prop_assert_eq!(&last.alloc, &to.alloc);
        prop_assert_eq!(&last.rate, &to.rate);

        // The FFC variant (stale switches stuck at any earlier step) may
        // be infeasible; when it plans, the same invariant holds.
        if inst.kc > 0 {
            if let Ok(ffc_plan) =
                plan_update(&t, &tm_to, &tunnels, &from, &to, &UpdateConfig::ffc(inst.steps, inst.kc))
            {
                let v = max_transition_violation(&t, &tunnels, &from, &ffc_plan);
                prop_assert!(v <= 1e-6, "FFC chain overloads a link by {v}");
                let last = ffc_plan.steps.last().expect("non-empty plan");
                prop_assert_eq!(&last.alloc, &to.alloc);
            }
        }
    }

    /// The endpoints are not halved: both are scaled together so that
    /// the one-step transition peaks at `peak` of some link's capacity,
    /// and above 1 the chain is rejected.
    #[test]
    fn one_step_check_matches_the_lp(
        inst in inst_strategy(),
        kc in 0..3usize,
        peak in 0.5..1.5f64,
    ) {
        let (t, tm_from, tm_to, tunnels) = build(&inst);
        let from = solve_te(TeProblem::new(&t, &tm_from, &tunnels)).expect("from TE");
        let to = solve_te(TeProblem::new(&t, &tm_to, &tunnels)).expect("to TE");
        let factor = peak / one_step_peak(&t, &tunnels, &from, &to);
        let (from, to) = (scaled(&from, factor), scaled(&to, factor));
        let cfg = if kc == 0 { UpdateConfig::plain(1) } else { UpdateConfig::ffc(1, kc) };

        let (model, _) = build_update_lp(&t, &tm_to, &tunnels, &from, &to, &cfg);
        let lp = model.solve();
        match plan_update(&t, &tm_to, &tunnels, &from, &to, &cfg) {
            Ok(plan) => {
                prop_assert!(lp.is_ok(), "closed form accepts, LP says {:?}", lp.err());
                prop_assert_eq!(plan.num_steps(), 1);
                prop_assert_eq!(&plan.steps[0].alloc, &to.alloc);
                prop_assert_eq!(&plan.steps[0].rate, &to.rate);
            }
            Err(e) => prop_assert_eq!(lp.err(), Some(e)),
        }
    }
}
