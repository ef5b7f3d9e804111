//! Congestion-free multi-step network updates (§5.2).
//!
//! Networks like SWAN split a configuration change into a chain
//! `A⁰ → A¹ → … → Aᵐ` such that every *transition* is congestion-free
//! no matter the order in which switches apply it (Eqn 16):
//!
//! ```text
//! ∀e, i:  Σ_v max(a^{i-1}_{v,e}, a^i_{v,e}) ≤ c_e
//! ```
//!
//! Without FFC, a single switch that fails (or is slow) to apply step
//! `i` blocks the transition to step `i+1` — the update stalls. The FFC
//! variant tolerates up to `kc` *cumulative* configuration failures
//! across all steps: a stale switch may be stuck at **any** earlier
//! config, so its contribution to link `e` is bounded by
//! `M^i_{v,e} = max_{j ≤ i} a^j_{v,e}` (we use the ordered-update
//! discipline of §5.5/Eqn 18, under which a stuck switch's tunnel
//! traffic never exceeds its largest allocation among the configs it may
//! hold). The per-step constraint family
//!
//! ```text
//! ∀e, i, λ ∈ Λ_kc:  Σ_v [λ_v·M^i_{v,e} + (1−λ_v)·max(a^{i-1},a^i)_{v,e}] ≤ c_e
//! ```
//!
//! is again a bounded M-sum and is compressed with the same machinery.

use ffc_lp::{Cmp, LinExpr, LpError, Model, Sense, VarId};
use ffc_net::{Topology, TrafficMatrix, TunnelTable};

use crate::bounded_msum::{constrain_any_m_sum_le, MsumEncoding};
use crate::te::TeConfig;

/// A planned chain of intermediate configurations.
#[derive(Debug, Clone)]
pub struct UpdatePlan {
    /// The configurations `A¹ … Aᵐ`; the last equals the target.
    pub steps: Vec<TeConfig>,
}

impl UpdatePlan {
    /// Number of transitions (= number of steps).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }
}

/// Parameters for update planning.
#[derive(Debug, Clone)]
pub struct UpdateConfig {
    /// Number of transitions `m ≥ 1`.
    pub num_steps: usize,
    /// Cumulative configuration failures to tolerate (`kc`); 0 gives the
    /// plain Eqn-16 plan.
    pub kc: usize,
    /// Bounded M-sum encoding for the FFC variant.
    pub encoding: MsumEncoding,
}

impl UpdateConfig {
    /// A plain (non-FFC) plan with `m` steps.
    pub fn plain(num_steps: usize) -> Self {
        Self {
            num_steps,
            kc: 0,
            encoding: MsumEncoding::SortingNetwork,
        }
    }

    /// An FFC plan tolerating `kc` cumulative failures.
    pub fn ffc(num_steps: usize, kc: usize) -> Self {
        Self {
            num_steps,
            kc,
            encoding: MsumEncoding::SortingNetwork,
        }
    }
}

/// Plans a congestion-free multi-step update from `from` to `to`.
///
/// Flow rates follow a fixed linear schedule between the endpoint rates;
/// the LP chooses the intermediate tunnel allocations. Within each step
/// allocations sum exactly to the step's rate (so splitting weights are
/// well-defined). Returns [`LpError::Infeasible`] when no `m`-step chain
/// exists — retry with more steps.
///
/// A one-step chain has no free allocation, so it is decided in closed
/// form and builds no LP; the LP of [`build_update_lp`] runs for
/// `m ≥ 2` only.
pub fn plan_update(
    topo: &Topology,
    tm: &TrafficMatrix,
    tunnels: &TunnelTable,
    from: &TeConfig,
    to: &TeConfig,
    cfg: &UpdateConfig,
) -> Result<UpdatePlan, LpError> {
    assert!(cfg.num_steps >= 1, "need at least one step");
    let m = cfg.num_steps;
    let nf = tm.len();
    assert_eq!(from.alloc.len(), nf);
    assert_eq!(to.alloc.len(), nf);
    if m == 1 {
        return check_one_step(topo, tunnels, from, to);
    }

    let (model, a) = build_update_lp(topo, tm, tunnels, from, to, cfg);
    let sol = model.solve()?;
    let mut steps = Vec::with_capacity(m);
    for (i, step) in a.iter().enumerate() {
        steps.push(TeConfig {
            rate: (from.rate.iter().zip(&to.rate))
                .map(|(&r0, &r1)| step_rate(r0, r1, m, i + 1))
                .collect(),
            alloc: step
                .iter()
                .map(|row| row.iter().map(|&v| sol.value(v).max(0.0)).collect())
                .collect(),
        });
    }
    steps.push(to.clone());
    Ok(UpdatePlan { steps })
}

/// Decides a one-transition chain `from → to` by arithmetic.
///
/// At `m = 1` every allocation is fixed, so the LP's only freedom is in
/// `z = max(a⁰, a¹)` and `M = max(a⁰, z)`. Every row is monotone in
/// them, so their minimal values are feasible iff any are; then every
/// `M − z` gap is 0 and the `kc` rows reduce to the link row. The chain
/// is accepted when each link carries `Σ max(a⁰, a¹)` within capacity,
/// up to the 1e-6 that phase 1 allows on its summed artificials.
fn check_one_step(
    topo: &Topology,
    tunnels: &TunnelTable,
    from: &TeConfig,
    to: &TeConfig,
) -> Result<UpdatePlan, LpError> {
    let mut load = vec![0.0; topo.num_links()];
    for (f, ti, tunnel) in tunnels.iter_all() {
        let (a0, a1) = (from.alloc[f.index()][ti], to.alloc[f.index()][ti]);
        // `f64::max` drops NaN, so non-finite input is rejected first.
        if !a0.is_finite() || !a1.is_finite() {
            return Err(LpError::NotANumber);
        }
        // `z` has lower bound 0 in the LP.
        let z = a0.max(a1).max(0.0);
        for &l in &tunnel.links {
            load[l.index()] += z;
        }
    }
    let overload: f64 = topo
        .links()
        .map(|e| (load[e.index()] - topo.capacity(e)).max(0.0))
        .sum();
    if overload > 1e-6 {
        return Err(LpError::Infeasible);
    }
    Ok(UpdatePlan {
        steps: vec![to.clone()],
    })
}

/// A flow's rate at step `i` of an `m`-step linear schedule from `r0`
/// to `r1`.
fn step_rate(r0: f64, r1: f64, m: usize, i: usize) -> f64 {
    let t = i as f64 / m as f64;
    r0 * (1.0 - t) + r1 * t
}

/// Builds the update LP of an `m`-step chain: Eqn 16 per link and step,
/// plus the bounded M-sum family when `kc > 0`. Returns the model and
/// the intermediate allocation variables `a[i - 1][f][t]` for steps
/// `i = 1..m`. [`plan_update`] solves it for `m ≥ 2`; at `m = 1` it
/// has no allocation variables and only decides feasibility.
#[allow(clippy::needless_range_loop)] // (step, flow, tunnel) index grids
pub fn build_update_lp(
    topo: &Topology,
    tm: &TrafficMatrix,
    tunnels: &TunnelTable,
    from: &TeConfig,
    to: &TeConfig,
    cfg: &UpdateConfig,
) -> (Model, Vec<Vec<Vec<VarId>>>) {
    let m = cfg.num_steps;
    let nf = tm.len();

    let mut model = Model::new();
    // a[i][f][t] for i in 1..m (step m is the fixed target, step 0 the
    // fixed source).
    let mut a: Vec<Vec<Vec<VarId>>> = Vec::new();
    for i in 1..m {
        let step: Vec<Vec<VarId>> = tm
            .ids()
            .map(|f| {
                (0..tunnels.tunnels(f).len())
                    .map(|t| model.add_var(0.0, f64::INFINITY, format!("a{i}_{f}_{t}")))
                    .collect()
            })
            .collect();
        a.push(step);
    }

    // Allocation expression for (step, flow, tunnel): constant at the
    // endpoints, variable inside.
    let alloc_expr = |i: usize, f: usize, t: usize| -> LinExpr {
        if i == 0 {
            LinExpr::constant(from.alloc[f][t])
        } else if i == m {
            LinExpr::constant(to.alloc[f][t])
        } else {
            LinExpr::from(a[i - 1][f][t])
        }
    };

    // Per intermediate step: allocations sum to the step's rate.
    for (i, step) in a.iter().enumerate() {
        let idx = i + 1;
        for f in 0..nf {
            let mut sum = LinExpr::zero();
            for &v in &step[f] {
                sum.add_term(v, 1.0);
            }
            let rate = step_rate(from.rate[f], to.rate[f], m, idx);
            model.add_con(sum, Cmp::Eq, rate);
        }
    }

    // Transition-max variables z^i_{f,t} ≥ a^{i-1}, a^i; cumulative-max
    // variables M^i_{f,t} ≥ M^{i-1}, z^i (only needed with kc > 0).
    // Incidence map.
    let mut link_tunnels: Vec<Vec<(usize, usize)>> = vec![Vec::new(); topo.num_links()];
    for (f, ti, tunnel) in tunnels.iter_all() {
        for &l in &tunnel.links {
            link_tunnels[l.index()].push((f.index(), ti));
        }
    }

    let mut prev_m: Vec<Vec<Option<LinExpr>>> = (0..nf)
        .map(|f| {
            (0..tunnels.tunnels(ffc_net::FlowId(f)).len())
                .map(|t| Some(LinExpr::constant(from.alloc[f][t])))
                .collect()
        })
        .collect();

    for i in 1..=m {
        // z^i per (f,t).
        let mut z: Vec<Vec<LinExpr>> = Vec::with_capacity(nf);
        let mut m_now: Vec<Vec<Option<LinExpr>>> = Vec::with_capacity(nf);
        for f in 0..nf {
            let nt = tunnels.tunnels(ffc_net::FlowId(f)).len();
            let mut zf = Vec::with_capacity(nt);
            let mut mf = Vec::with_capacity(nt);
            for t in 0..nt {
                let zv = model.add_var(0.0, f64::INFINITY, format!("z{i}_{f}_{t}"));
                model.add_con(alloc_expr(i - 1, f, t) - LinExpr::from(zv), Cmp::Le, 0.0);
                model.add_con(alloc_expr(i, f, t) - LinExpr::from(zv), Cmp::Le, 0.0);
                zf.push(LinExpr::from(zv));
                if cfg.kc > 0 {
                    let mv = model.add_var(0.0, f64::INFINITY, format!("M{i}_{f}_{t}"));
                    let prev = prev_m[f][t].take().expect("prev M present");
                    model.add_con(prev - LinExpr::from(mv), Cmp::Le, 0.0);
                    model.add_con(zf[t].clone() - LinExpr::from(mv), Cmp::Le, 0.0);
                    mf.push(Some(LinExpr::from(mv)));
                } else {
                    mf.push(None);
                }
            }
            z.push(zf);
            m_now.push(mf);
        }

        // Per link: Eqn 16 (and the FFC family).
        for e in topo.links() {
            let pairs = &link_tunnels[e.index()];
            if pairs.is_empty() {
                continue;
            }
            let mut zsum = LinExpr::zero();
            for &(f, t) in pairs {
                zsum += z[f][t].clone();
            }
            model.add_con(zsum.clone(), Cmp::Le, topo.capacity(e));

            if cfg.kc > 0 {
                // Group gaps M − z by ingress.
                let mut gap_by_ingress: std::collections::BTreeMap<usize, LinExpr> =
                    std::collections::BTreeMap::new();
                for &(f, t) in pairs {
                    let src = tunnels.tunnels(ffc_net::FlowId(f))[t].src().index();
                    let gap = gap_by_ingress.entry(src).or_default();
                    *gap += m_now[f][t].clone().expect("kc>0 has M") - z[f][t].clone();
                }
                let gaps: Vec<LinExpr> = gap_by_ingress.into_values().collect();
                let budget = LinExpr::constant(topo.capacity(e)) - zsum;
                constrain_any_m_sum_le(&mut model, gaps, cfg.kc, budget, cfg.encoding);
            }
        }

        prev_m = m_now;
    }

    // Objective: minimize total intermediate allocation churn (keeps the
    // plan tame); feasibility is what matters.
    let mut obj = LinExpr::zero();
    for step in &a {
        for row in step {
            for &v in row {
                obj.add_term(v, 1.0);
            }
        }
    }
    model.set_objective(obj, Sense::Minimize);
    (model, a)
}

/// Plans with the *fewest* steps that work: tries `1..=max_steps`
/// transitions and returns the first feasible plan.
///
/// Returns the infeasibility error of the largest attempt when even
/// `max_steps` transitions cannot avoid transient congestion.
pub fn plan_update_auto(
    topo: &Topology,
    tm: &TrafficMatrix,
    tunnels: &TunnelTable,
    from: &TeConfig,
    to: &TeConfig,
    max_steps: usize,
    kc: usize,
) -> Result<UpdatePlan, LpError> {
    assert!(max_steps >= 1);
    let mut last_err = LpError::Infeasible;
    for steps in 1..=max_steps {
        let cfg = if kc == 0 {
            UpdateConfig::plain(steps)
        } else {
            UpdateConfig::ffc(steps, kc)
        };
        match plan_update(topo, tm, tunnels, from, to, &cfg) {
            Ok(plan) => return Ok(plan),
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

/// Verifies Eqn 16 for a realized plan: every adjacent pair of configs
/// (including the source) keeps `Σ_v max(a, a')` within capacity.
/// Returns the worst relative violation (0 when clean).
pub fn max_transition_violation(
    topo: &Topology,
    tunnels: &TunnelTable,
    from: &TeConfig,
    plan: &UpdatePlan,
) -> f64 {
    let mut worst: f64 = 0.0;
    let mut prev = from;
    for step in &plan.steps {
        let mut load = vec![0.0; topo.num_links()];
        for (f, ti, tunnel) in tunnels.iter_all() {
            let hi = prev.alloc[f.index()][ti].max(step.alloc[f.index()][ti]);
            for &l in &tunnel.links {
                load[l.index()] += hi;
            }
        }
        for e in topo.links() {
            let v = (load[e.index()] - topo.capacity(e)) / topo.capacity(e);
            worst = worst.max(v);
        }
        prev = step;
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffc_net::prelude::*;

    /// Two parallel unit paths; swapping a flow between them needs a
    /// multi-step plan when both are near-full.
    fn swap_scenario() -> (Topology, TrafficMatrix, TunnelTable, TeConfig, TeConfig) {
        let mut t = Topology::new();
        let ns = t.add_nodes(4, "s");
        t.add_link(ns[0], ns[1], 10.0);
        t.add_link(ns[1], ns[3], 10.0);
        t.add_link(ns[0], ns[2], 10.0);
        t.add_link(ns[2], ns[3], 10.0);
        let mut tm = TrafficMatrix::new();
        tm.add_flow(ns[0], ns[3], 16.0, Priority::High);
        let mk = |hops: &[NodeId]| {
            let links = hops
                .windows(2)
                .map(|w| t.find_link(w[0], w[1]).unwrap())
                .collect();
            Tunnel::from_path(&t, ffc_net::Path { links })
        };
        let mut tt = TunnelTable::new(1);
        tt.push(FlowId(0), mk(&[ns[0], ns[1], ns[3]]));
        tt.push(FlowId(0), mk(&[ns[0], ns[2], ns[3]]));
        // From: 10 up / 6 down. To: 6 up / 10 down.
        let from = TeConfig {
            rate: vec![16.0],
            alloc: vec![vec![10.0, 6.0]],
        };
        let to = TeConfig {
            rate: vec![16.0],
            alloc: vec![vec![6.0, 10.0]],
        };
        (t, tm, tt, from, to)
    }

    #[test]
    fn one_step_swap_at_capacity_fits() {
        let (topo, tm, tt, from, to) = swap_scenario();
        // One step loads each link with max(10, 6) = 10 ≤ 10: the swap
        // exactly fills both links and needs no intermediate step.
        let plan = plan_update(&topo, &tm, &tt, &from, &to, &UpdateConfig::plain(1)).unwrap();
        assert_eq!(plan.num_steps(), 1);
        assert!(max_transition_violation(&topo, &tt, &from, &plan) <= 1e-9);
    }

    #[test]
    fn multi_step_plan_is_congestion_free() {
        let (topo, tm, tt, from, to) = swap_scenario();
        for steps in 2..=4 {
            let plan =
                plan_update(&topo, &tm, &tt, &from, &to, &UpdateConfig::plain(steps)).unwrap();
            assert_eq!(plan.num_steps(), steps);
            assert!(
                max_transition_violation(&topo, &tt, &from, &plan) <= 1e-7,
                "steps={steps}"
            );
            // Last step is the target.
            assert_eq!(plan.steps.last().unwrap().alloc, to.alloc);
        }
    }

    #[test]
    fn rate_schedule_interpolates() {
        let (topo, tm, tt, from, _) = swap_scenario();
        let to = TeConfig {
            rate: vec![8.0],
            alloc: vec![vec![4.0, 4.0]],
        };
        let plan = plan_update(&topo, &tm, &tt, &from, &to, &UpdateConfig::plain(2)).unwrap();
        // Midpoint rate: (16 + 8) / 2 = 12.
        assert!((plan.steps[0].rate[0] - 12.0).abs() < 1e-9);
        // Intermediate allocations sum to the midpoint rate.
        let s: f64 = plan.steps[0].alloc[0].iter().sum();
        assert!((s - 12.0).abs() < 1e-6);
    }

    #[test]
    fn ffc_plan_survives_a_stuck_switch() {
        let (topo, tm, tt, from, to) = swap_scenario();
        let plan = plan_update(&topo, &tm, &tt, &from, &to, &UpdateConfig::ffc(3, 1)).unwrap();
        // Worst case: the (single) ingress is stuck at ANY earlier
        // config while the network believes it is at step i. Check all
        // (stuck_at, current) pairs: the stuck switch's per-tunnel
        // traffic is its allocation at the stuck config; everyone else
        // is at max(a^{i-1}, a^i). With one flow there is one ingress,
        // so the bound reduces to: every config in the chain fits alone.
        let mut chain = vec![from.clone()];
        chain.extend(plan.steps.iter().cloned());
        for stuck in &chain {
            let mut load = vec![0.0; topo.num_links()];
            for (f, ti, tunnel) in tt.iter_all() {
                for &l in &tunnel.links {
                    load[l.index()] += stuck.alloc[f.index()][ti];
                }
            }
            for e in topo.links() {
                assert!(load[e.index()] <= topo.capacity(e) + 1e-6);
            }
        }
        assert!(max_transition_violation(&topo, &tt, &from, &plan) <= 1e-7);
    }

    /// FFC plan with two ingress flows: the kc=1 family must hold for
    /// *each* ingress being stuck at any earlier configuration while
    /// the other transitions normally.
    #[test]
    fn ffc_plan_two_ingresses() {
        let mut t = Topology::new();
        let ns = t.add_nodes(4, "s");
        // Two sources (s0, s1) share the sink link pair.
        t.add_link(ns[0], ns[2], 10.0);
        t.add_link(ns[0], ns[3], 10.0);
        t.add_link(ns[1], ns[2], 10.0);
        t.add_link(ns[1], ns[3], 10.0);
        t.add_link(ns[2], ns[3], 10.0); // shared downstream link
        let mut tm = TrafficMatrix::new();
        tm.add_flow(ns[0], ns[3], 8.0, Priority::High);
        tm.add_flow(ns[1], ns[3], 8.0, Priority::High);
        let mk = |hops: &[NodeId]| {
            let links = hops
                .windows(2)
                .map(|w| t.find_link(w[0], w[1]).unwrap())
                .collect();
            Tunnel::from_path(&t, ffc_net::Path { links })
        };
        let mut tt = TunnelTable::new(2);
        tt.push(FlowId(0), mk(&[ns[0], ns[3]]));
        tt.push(FlowId(0), mk(&[ns[0], ns[2], ns[3]]));
        tt.push(FlowId(1), mk(&[ns[1], ns[3]]));
        tt.push(FlowId(1), mk(&[ns[1], ns[2], ns[3]]));
        // From: both flows half direct, half via the shared link.
        let from = TeConfig {
            rate: vec![8.0, 8.0],
            alloc: vec![vec![4.0, 4.0], vec![4.0, 4.0]],
        };
        // To: both fully direct.
        let to = TeConfig {
            rate: vec![8.0, 8.0],
            alloc: vec![vec![8.0, 0.0], vec![8.0, 0.0]],
        };
        let plan = plan_update(&t, &tm, &tt, &from, &to, &UpdateConfig::ffc(2, 1)).unwrap();
        assert!(max_transition_violation(&t, &tt, &from, &plan) <= 1e-7);

        // Exhaustive check of the kc=1 guarantee: one ingress stuck at
        // any config j while the other is in any transition (i-1, i).
        let mut chain = vec![from.clone()];
        chain.extend(plan.steps.iter().cloned());
        let m = chain.len();
        for stuck_flow in 0..2usize {
            for j in 0..m {
                for i in 1..m {
                    if j > i {
                        continue; // can't be stuck at a future config
                    }
                    let mut load = vec![0.0; t.num_links()];
                    for (f, ti, tunnel) in tt.iter_all() {
                        let fi = f.index();
                        let a = if fi == stuck_flow {
                            chain[j].alloc[fi][ti]
                        } else {
                            chain[i - 1].alloc[fi][ti].max(chain[i].alloc[fi][ti])
                        };
                        for &l in &tunnel.links {
                            load[l.index()] += a;
                        }
                    }
                    for e in t.links() {
                        assert!(
                            load[e.index()] <= t.capacity(e) + 1e-6,
                            "flow {stuck_flow} stuck at {j} during step {i}: {e} carries {}",
                            load[e.index()]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn auto_planner_returns_one_step_when_it_fits() {
        // A near-capacity swap whose one-shot transient still fits:
        // max(10, 9) = 10 per link.
        let mut t = Topology::new();
        let ns = t.add_nodes(4, "s");
        t.add_link(ns[0], ns[1], 10.0);
        t.add_link(ns[1], ns[3], 10.0);
        t.add_link(ns[0], ns[2], 10.0);
        t.add_link(ns[2], ns[3], 10.0);
        let mut tm = TrafficMatrix::new();
        tm.add_flow(ns[0], ns[3], 18.0, Priority::High);
        let mk = |hops: &[NodeId]| {
            let links = hops
                .windows(2)
                .map(|w| t.find_link(w[0], w[1]).unwrap())
                .collect();
            Tunnel::from_path(&t, ffc_net::Path { links })
        };
        let mut tt = TunnelTable::new(1);
        tt.push(FlowId(0), mk(&[ns[0], ns[1], ns[3]]));
        tt.push(FlowId(0), mk(&[ns[0], ns[2], ns[3]]));
        let from = TeConfig {
            rate: vec![19.0],
            alloc: vec![vec![10.0, 9.0]],
        };
        let to = TeConfig {
            rate: vec![19.0],
            alloc: vec![vec![9.0, 10.0]],
        };
        let plan = plan_update_auto(&t, &tm, &tt, &from, &to, 4, 0).unwrap();
        assert!(max_transition_violation(&t, &tt, &from, &plan) <= 1e-7);
        // The auto planner returns the minimum, here one step.
        assert_eq!(plan.num_steps(), 1);
    }

    /// Flows from their own ingress `s_i` through a hub `A` to `B`,
    /// which `A` reaches over two parallel links with capacities
    /// `caps`. Each flow has one tunnel per parallel link and moves from
    /// its `from` split to its `to` split.
    fn parallel_links(
        caps: [f64; 2],
        moves: &[([f64; 2], [f64; 2])],
    ) -> (Topology, TrafficMatrix, TunnelTable, TeConfig, TeConfig) {
        let mut t = Topology::new();
        let hub = t.add_node("A");
        let sink = t.add_node("B");
        let par = caps.map(|c| t.add_link(hub, sink, c));
        let mut tm = TrafficMatrix::new();
        let mut tt = TunnelTable::new(moves.len());
        for (i, (from, _)) in moves.iter().enumerate() {
            let src = t.add_node(format!("s{i}"));
            let access = t.add_link(src, hub, 100.0);
            tm.add_flow(src, sink, from.iter().sum(), Priority::High);
            for l in par {
                let path = ffc_net::Path {
                    links: vec![access, l],
                };
                tt.push(FlowId(i), Tunnel::from_path(&t, path));
            }
        }
        let config = |splits: Vec<[f64; 2]>| TeConfig {
            rate: splits.iter().map(|s| s.iter().sum()).collect(),
            alloc: splits.iter().map(|s| s.to_vec()).collect(),
        };
        let from = config(moves.iter().map(|m| m.0).collect());
        let to = config(moves.iter().map(|m| m.1).collect());
        (t, tm, tt, from, to)
    }

    /// Two flows swap 6 units across two parallel links of capacity 10:
    /// one step loads 12 on a link, two steps (half the swap each) load
    /// 9, so the plain auto planner stops at exactly two steps. With
    /// `kc = 1` no chain exists: an ingress stuck at its source config
    /// keeps 6 on the link the other flow moves its 6 onto.
    #[test]
    fn auto_planner_needs_two_steps_for_a_crossed_swap() {
        let (t, tm, tt, from, to) = parallel_links(
            [10.0, 10.0],
            &[([6.0, 0.0], [0.0, 6.0]), ([0.0, 6.0], [6.0, 0.0])],
        );
        let plan = plan_update_auto(&t, &tm, &tt, &from, &to, 4, 0).unwrap();
        assert_eq!(plan.num_steps(), 2);
        assert!(max_transition_violation(&t, &tt, &from, &plan) <= 1e-7);
        assert_eq!(plan.steps[1].alloc, to.alloc);
        assert_eq!(
            plan_update_auto(&t, &tm, &tt, &from, &to, 4, 1).unwrap_err(),
            LpError::Infeasible
        );
    }

    /// Two flows leave the 10-unit link while a third moves onto it: one
    /// step loads 15 there. Two steps work even with a stuck ingress —
    /// the first moves everything onto the 15-unit link, the second
    /// moves the third flow back — so both variants stop at two steps.
    #[test]
    fn auto_planner_needs_two_steps_with_a_stuck_ingress() {
        let (t, tm, tt, from, to) = parallel_links(
            [10.0, 15.0],
            &[
                ([5.0, 0.0], [0.0, 5.0]),
                ([5.0, 0.0], [0.0, 5.0]),
                ([0.0, 5.0], [5.0, 0.0]),
            ],
        );
        for kc in [0, 1] {
            let plan = plan_update_auto(&t, &tm, &tt, &from, &to, 4, kc).unwrap();
            assert_eq!(plan.num_steps(), 2, "kc={kc}");
            assert!(
                max_transition_violation(&t, &tt, &from, &plan) <= 1e-7,
                "kc={kc}"
            );
            assert_eq!(plan.steps[1].alloc, to.alloc, "kc={kc}");
        }
    }

    /// With `kc = 0` the FFC formulation adds no M variables and no
    /// bounded M-sum rows — the model is exactly the plain Eqn-16 plan,
    /// so the (deterministic) solver must return the identical chain.
    #[test]
    fn kc_zero_reduces_to_plain_eqn16_plan() {
        let (topo, tm, tt, from, to) = swap_scenario();
        for steps in 1..=3 {
            let plain =
                plan_update(&topo, &tm, &tt, &from, &to, &UpdateConfig::plain(steps)).unwrap();
            let ffc0 =
                plan_update(&topo, &tm, &tt, &from, &to, &UpdateConfig::ffc(steps, 0)).unwrap();
            assert_eq!(plain.num_steps(), ffc0.num_steps(), "steps={steps}");
            for (p, f) in plain.steps.iter().zip(&ffc0.steps) {
                assert_eq!(p.rate, f.rate, "steps={steps}");
                assert_eq!(p.alloc, f.alloc, "steps={steps}");
            }
        }
    }

    /// A single-transition chain has no free variables: the plan is
    /// exactly `[to]`, for both the plain and the FFC variant, and the
    /// planner only decides feasibility of that one transition.
    #[test]
    fn single_step_chain_is_exactly_the_target() {
        let (topo, tm, tt, from, to) = swap_scenario();
        for cfg in [UpdateConfig::plain(1), UpdateConfig::ffc(1, 1)] {
            let plan = plan_update(&topo, &tm, &tt, &from, &to, &cfg).unwrap();
            assert_eq!(plan.num_steps(), 1);
            assert_eq!(plan.steps[0].rate, to.rate);
            assert_eq!(plan.steps[0].alloc, to.alloc);
            assert!(max_transition_violation(&topo, &tt, &from, &plan) <= 1e-9);
        }
    }

    /// §5.5 discipline: a switch stuck at the *oldest* config (the
    /// source A⁰) during step i sends at most `M^i = max_{j≤i} a^j` per
    /// tunnel, and the planned chain keeps every link within capacity
    /// even under that worst case.
    #[test]
    fn stuck_at_oldest_never_exceeds_cumulative_max_bound() {
        let (topo, tm, tt, from, to) = swap_scenario();
        let plan = plan_update(&topo, &tm, &tt, &from, &to, &UpdateConfig::ffc(3, 1)).unwrap();
        let mut chain = vec![from.clone()];
        chain.extend(plan.steps.iter().cloned());
        for i in 1..chain.len() {
            // Elementwise cumulative max M^i over configs 0..=i.
            let m_i: Vec<Vec<f64>> = (0..chain[0].alloc.len())
                .map(|f| {
                    (0..chain[0].alloc[f].len())
                        .map(|t| {
                            chain[..=i]
                                .iter()
                                .map(|c| c.alloc[f][t])
                                .fold(0.0_f64, f64::max)
                        })
                        .collect()
                })
                .collect();
            // The oldest config is dominated by the cumulative max...
            for (f, mf) in m_i.iter().enumerate() {
                for (t, &m) in mf.iter().enumerate() {
                    assert!(chain[0].alloc[f][t] <= m + 1e-12);
                }
            }
            // ...and charging the stuck ingress at the full M^i bound
            // (which dominates stuck-at-oldest) still fits every link,
            // with everyone else in the (i-1, i) transition. One flow =
            // one ingress here, so the whole load is the M^i load.
            let mut load = vec![0.0; topo.num_links()];
            for (f, ti, tunnel) in tt.iter_all() {
                for &l in &tunnel.links {
                    load[l.index()] += m_i[f.index()][ti];
                }
            }
            for e in topo.links() {
                assert!(
                    load[e.index()] <= topo.capacity(e) + 1e-6,
                    "step {i}: stuck-at-M^i load {} exceeds {e}",
                    load[e.index()]
                );
            }
        }
    }

    #[test]
    fn infeasible_when_capacity_exhausted() {
        let (topo, tm, tt, _, _) = swap_scenario();
        // Both paths full: 20 units; swapping anything in one step
        // overloads; even multi-step cannot help because max(a,a') >
        // capacity whenever allocations move.
        let from = TeConfig {
            rate: vec![20.0],
            alloc: vec![vec![10.0, 10.0]],
        };
        let to = TeConfig {
            rate: vec![20.0],
            alloc: vec![vec![5.0, 15.0]],
        };
        let r = plan_update(&topo, &tm, &tt, &from, &to, &UpdateConfig::plain(3));
        assert!(r.is_err(), "expected infeasible: to-link needs 15 > 10");
    }
}
