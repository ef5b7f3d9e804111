//! The user-facing LP modeling API.
//!
//! A [`Model`] owns variables (with bounds), linear constraints and a
//! linear objective. Solving goes through [`Model::solve`], which lowers
//! the model to the computational standard form (see
//! [`crate::standard`]) and runs the sparse revised simplex
//! ([`crate::simplex`]).

use std::fmt;

use crate::expr::{LinExpr, VarId};
use crate::simplex::{self, SimplexOptions};

/// Comparison sense of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Left-hand side ≤ right-hand side.
    Le,
    /// Left-hand side ≥ right-hand side.
    Ge,
    /// Left-hand side = right-hand side.
    Eq,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cmp::Le => "<=",
            Cmp::Ge => ">=",
            Cmp::Eq => "=",
        })
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sense {
    /// Maximize the objective (the default for TE throughput problems).
    #[default]
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Identifier of a constraint within a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConId(pub(crate) usize);

impl ConId {
    /// The dense index of this constraint inside its model.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A decision variable definition.
#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub lb: f64,
    pub ub: f64,
    pub name: Option<String>,
}

/// A stored constraint `expr cmp rhs` (the expression's constant has
/// already been folded into `rhs` at add time).
#[derive(Debug, Clone)]
pub(crate) struct ConDef {
    pub expr: LinExpr,
    pub cmp: Cmp,
    pub rhs: f64,
    pub name: Option<String>,
}

/// A read-only view of one stored constraint: `expr cmp rhs`. Handed
/// out by [`Model::con_views`] so external tooling (the `ffc-audit`
/// model auditor, serializers) can inspect a model without access to
/// the private storage.
#[derive(Debug, Clone, Copy)]
pub struct ConView<'a> {
    /// The left-hand-side expression (compressed: sorted by variable,
    /// no duplicate columns, constant already folded into `rhs`).
    pub expr: &'a LinExpr,
    /// Comparison sense.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: f64,
    /// Debug name, when one was given.
    pub name: Option<&'a str>,
}

/// Errors produced while building or solving a model.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The constraint system has no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// A variable was declared with `lb > ub`.
    InvalidBounds {
        /// Index of the offending variable.
        var: usize,
        /// Declared lower bound.
        lb: f64,
        /// Declared upper bound.
        ub: f64,
    },
    /// A coefficient or bound was NaN.
    NotANumber,
    /// The simplex failed to converge within the iteration limit.
    /// (Legacy variant kept for the dense cross-check solver; the
    /// revised simplex reports [`LpError::LimitExceeded`] instead.)
    IterationLimit,
    /// The iteration budget ([`crate::SimplexOptions::max_iters`]) ran
    /// out mid-solve. Unlike the other errors this is *recoverable*: the
    /// model may well be feasible, the solver just was not given enough
    /// budget — callers can retry with a larger budget, degrade to a
    /// cheaper model, or hold the previous answer. Carries the counters
    /// accumulated up to the point of interruption.
    LimitExceeded {
        /// Partial performance counters at interruption.
        stats: Box<SolveStats>,
    },
    /// The basis matrix became numerically singular beyond repair.
    NumericalFailure(String),
    /// A parallel worker panicked while solving this item. Only
    /// produced by the batch drivers in `ffc-core`, which isolate each
    /// scenario with `catch_unwind` so siblings still complete. Carries
    /// the panic payload message when it was a string.
    WorkerPanic(String),
}

impl LpError {
    /// Whether the error is a recoverable budget overrun (the model is
    /// not known to be unsolvable — the solver was interrupted).
    pub fn is_limit(&self) -> bool {
        matches!(
            self,
            LpError::LimitExceeded { .. } | LpError::IterationLimit
        )
    }
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "LP is infeasible"),
            LpError::Unbounded => write!(f, "LP is unbounded"),
            LpError::InvalidBounds { var, lb, ub } => {
                write!(f, "variable x{var} has invalid bounds [{lb}, {ub}]")
            }
            LpError::NotANumber => write!(f, "NaN coefficient or bound in model"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
            LpError::LimitExceeded { stats } => write!(
                f,
                "simplex iteration budget exhausted after {} iterations",
                stats.iterations()
            ),
            LpError::NumericalFailure(msg) => write!(f, "numerical failure: {msg}"),
            LpError::WorkerPanic(msg) => write!(f, "batch worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for LpError {}

/// Basis status of one column, for warm starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColStatus {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound.
    Lower,
    /// Nonbasic at its upper bound.
    Upper,
    /// Nonbasic free (resting at zero).
    Free,
}

/// The final basis of a solve: one status per structural variable,
/// followed by one per constraint (its slack). Feed it back via
/// [`Model::solve_warm`] to hot-start a *structurally identical* model
/// (same variables and constraints; bounds, right-hand sides and
/// objective may differ) — e.g. successive iterations of max-min
/// fairness, or re-solves after demand changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasisStatuses(pub Vec<ColStatus>);

/// Per-solve performance counters, filled by the simplex engine and
/// carried on every [`Solution`]. The dense cross-check solver reports
/// all-zero stats.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Simplex iterations spent driving artificials to zero.
    pub phase1_iterations: usize,
    /// Simplex iterations spent optimizing the real objective.
    pub phase2_iterations: usize,
    /// Pivots whose step length was within the feasibility tolerance.
    pub degenerate_pivots: usize,
    /// Always 0: the mid-solve anti-degeneracy bound expansion it
    /// counted is gone. Kept only because the perfbench harness reads
    /// it.
    pub degen_expansions: usize,
    /// Iterations resolved by a bound flip (no basis change).
    pub bound_flips: usize,
    /// Iterations taken by the dual simplex (warm restarts after bound
    /// changes). Counted inside `phase2_iterations`, which on a dual
    /// solve also includes the primal cleanup pass.
    pub dual_iterations: usize,
    /// Nonbasic bound flips performed on the dual path: long-step
    /// ratio-test flips plus the flips that restore dual feasibility of
    /// a warm basis. Also counted in `bound_flips`.
    pub dual_bound_flips: usize,
    /// Basis refactorizations (including the initial one per phase).
    pub refactorizations: usize,
    /// Full passes over all columns during pricing: one per iteration
    /// plus one per optimality check.
    pub full_pricing_passes: usize,
    /// Wall-clock time of the solve (both phases, excluding presolve).
    pub solve_time: std::time::Duration,
}

impl SolveStats {
    /// Total simplex iterations across both phases.
    pub fn iterations(&self) -> usize {
        self.phase1_iterations + self.phase2_iterations
    }
}

/// Result of a successful solve.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Optimal objective value (in the model's original sense).
    pub objective: f64,
    /// Primal values, indexed by [`VarId::index`].
    pub values: Vec<f64>,
    /// Number of simplex iterations performed (phase 1 + phase 2).
    pub iterations: usize,
    /// The optimal basis, for warm-starting related solves.
    pub basis: BasisStatuses,
    /// Detailed performance counters for this solve.
    pub stats: SolveStats,
    /// Dual values (simplex multipliers), one per constraint in row
    /// order, expressed in the model's original sense: for a
    /// maximization, a binding `<=` row has a nonnegative dual. Empty
    /// when the solving path does not produce duals (e.g. the dense
    /// cross-check solver).
    pub duals: Vec<f64>,
}

impl Solution {
    /// The value of a variable in this solution.
    #[inline]
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.index()]
    }

    /// Evaluates an arbitrary expression against this solution.
    pub fn eval(&self, e: &LinExpr) -> f64 {
        e.eval(&self.values)
    }
}

/// A linear program: variables with bounds, linear constraints, and a
/// linear objective.
///
/// # Example
/// ```
/// use ffc_lp::{Model, Cmp, Sense, LinExpr};
///
/// let mut m = Model::new();
/// let x = m.add_var(0.0, 10.0, "x");
/// let y = m.add_var(0.0, 10.0, "y");
/// m.add_con(LinExpr::from(x) + y, Cmp::Le, 12.0);
/// m.set_objective(LinExpr::from(x) + 2.0 * y, Sense::Maximize);
/// let sol = m.solve().unwrap();
/// assert!((sol.objective - 22.0).abs() < 1e-6); // y=10, x=2
/// ```
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub(crate) vars: Vec<VarDef>,
    pub(crate) cons: Vec<ConDef>,
    pub(crate) objective: LinExpr,
    pub(crate) sense: Sense,
}

impl Model {
    /// Creates an empty model (maximization by default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with bounds `[lb, ub]` (either may be infinite)
    /// and a debug name.
    pub fn add_var(&mut self, lb: f64, ub: f64, name: impl Into<String>) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(VarDef {
            lb,
            ub,
            name: Some(name.into()),
        });
        id
    }

    /// Adds an anonymous variable with bounds `[lb, ub]`.
    pub fn add_var_unnamed(&mut self, lb: f64, ub: f64) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(VarDef { lb, ub, name: None });
        id
    }

    /// Adds a non-negative variable `[0, +∞)`.
    pub fn add_nonneg(&mut self, name: impl Into<String>) -> VarId {
        self.add_var(0.0, f64::INFINITY, name)
    }

    /// Adds a free variable `(-∞, +∞)`.
    pub fn add_free(&mut self, name: impl Into<String>) -> VarId {
        self.add_var(f64::NEG_INFINITY, f64::INFINITY, name)
    }

    /// Adds the constraint `expr cmp rhs`. The expression's constant part
    /// is folded into the right-hand side.
    ///
    /// Duplicate mentions of one variable are **merged by sum** at insert
    /// time (deterministically: terms end up sorted by variable index,
    /// and exact-zero merged coefficients are dropped), so a stored row
    /// never contains two entries for the same column. `ffc-audit`'s
    /// model auditor enforces this invariant on every constructed model.
    pub fn add_con(&mut self, expr: impl Into<LinExpr>, cmp: Cmp, rhs: f64) -> ConId {
        let mut expr = expr.into();
        let shift = expr.constant_part();
        expr.add_constant(-shift);
        expr.compress();
        let id = ConId(self.cons.len());
        self.cons.push(ConDef {
            expr,
            cmp,
            rhs: rhs - shift,
            name: None,
        });
        id
    }

    /// Adds a named constraint (names show up in debug dumps).
    pub fn add_con_named(
        &mut self,
        expr: impl Into<LinExpr>,
        cmp: Cmp,
        rhs: f64,
        name: impl Into<String>,
    ) -> ConId {
        let id = self.add_con(expr, cmp, rhs);
        self.cons[id.0].name = Some(name.into());
        id
    }

    /// Convenience: `lhs ≤ rhs` between two expressions.
    pub fn add_le(&mut self, lhs: impl Into<LinExpr>, rhs: impl Into<LinExpr>) -> ConId {
        let e = lhs.into() - rhs.into();
        self.add_con(e, Cmp::Le, 0.0)
    }

    /// Convenience: `lhs ≥ rhs` between two expressions.
    pub fn add_ge(&mut self, lhs: impl Into<LinExpr>, rhs: impl Into<LinExpr>) -> ConId {
        let e = lhs.into() - rhs.into();
        self.add_con(e, Cmp::Ge, 0.0)
    }

    /// Convenience: `lhs = rhs` between two expressions.
    pub fn add_eq(&mut self, lhs: impl Into<LinExpr>, rhs: impl Into<LinExpr>) -> ConId {
        let e = lhs.into() - rhs.into();
        self.add_con(e, Cmp::Eq, 0.0)
    }

    /// Sets the objective expression and direction.
    pub fn set_objective(&mut self, expr: impl Into<LinExpr>, sense: Sense) {
        self.objective = expr.into();
        self.sense = sense;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Iterates over all variable ids in index order.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> {
        (0..self.vars.len()).map(VarId)
    }

    /// Number of constraints.
    pub fn num_cons(&self) -> usize {
        self.cons.len()
    }

    /// Total number of nonzero coefficients across all constraints.
    /// Duplicates are merged at [`Model::add_con`] time, so this is the
    /// exact nonzero count of the constraint matrix.
    pub fn num_nonzeros(&self) -> usize {
        self.cons.iter().map(|c| c.expr.len()).sum()
    }

    /// Read-only view of one stored constraint, for external auditors
    /// and serializers (see `ffc-audit`).
    pub fn con_view(&self, id: ConId) -> ConView<'_> {
        let c = &self.cons[id.0];
        ConView {
            expr: &c.expr,
            cmp: c.cmp,
            rhs: c.rhs,
            name: c.name.as_deref(),
        }
    }

    /// Iterates over read-only views of every constraint in index order.
    pub fn con_views(&self) -> impl Iterator<Item = ConView<'_>> {
        self.cons.iter().map(|c| ConView {
            expr: &c.expr,
            cmp: c.cmp,
            rhs: c.rhs,
            name: c.name.as_deref(),
        })
    }

    /// The debug name of a variable, when one was given.
    pub fn var_name(&self, v: VarId) -> Option<&str> {
        self.vars[v.index()].name.as_deref()
    }

    /// The objective expression and optimization direction.
    pub fn objective(&self) -> (&LinExpr, Sense) {
        (&self.objective, self.sense)
    }

    /// Bounds of a variable.
    pub fn var_bounds(&self, v: VarId) -> (f64, f64) {
        let d = &self.vars[v.index()];
        (d.lb, d.ub)
    }

    /// Tightens (never loosens) the bounds of an existing variable.
    pub fn tighten_bounds(&mut self, v: VarId, lb: f64, ub: f64) {
        let d = &mut self.vars[v.index()];
        d.lb = d.lb.max(lb);
        d.ub = d.ub.min(ub);
    }

    /// Replaces the bounds of an existing variable.
    pub fn set_bounds(&mut self, v: VarId, lb: f64, ub: f64) {
        let d = &mut self.vars[v.index()];
        d.lb = lb;
        d.ub = ub;
    }

    /// Validates bounds and coefficients (no NaN, lb ≤ ub).
    pub fn validate(&self) -> Result<(), LpError> {
        for (i, v) in self.vars.iter().enumerate() {
            if v.lb.is_nan() || v.ub.is_nan() {
                return Err(LpError::NotANumber);
            }
            if v.lb > v.ub {
                return Err(LpError::InvalidBounds {
                    var: i,
                    lb: v.lb,
                    ub: v.ub,
                });
            }
        }
        for c in &self.cons {
            if c.rhs.is_nan() || c.expr.terms().any(|(_, co)| co.is_nan()) {
                return Err(LpError::NotANumber);
            }
        }
        if self.objective.terms().any(|(_, co)| co.is_nan()) {
            return Err(LpError::NotANumber);
        }
        Ok(())
    }

    /// Solves the model with default options.
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.solve_with(&SimplexOptions::default())
    }

    /// Solves the model with explicit simplex options.
    ///
    /// Runs [`crate::presolve`] first (fixed-variable elimination and
    /// trivial-row checks) and expands the solution back afterwards.
    pub fn solve_with(&self, opts: &SimplexOptions) -> Result<Solution, LpError> {
        self.validate()?;
        if !opts.presolve {
            return simplex::solve_model(self, opts, None);
        }
        let pre = crate::presolve::presolve(self)?;
        if pre.eliminated() == 0 && pre.model.num_cons() == self.num_cons() {
            return simplex::solve_model(self, opts, None);
        }
        let mut sol = simplex::solve_model(&pre.model, opts, None)?;
        sol.values = crate::presolve::postsolve(&pre, &sol.values);
        // The reduced objective already folds the fixed variables'
        // contribution into its constant, so the reported value is the
        // original objective; recompute defensively from values.
        sol.objective = {
            let direct = self.objective.eval(&sol.values);
            debug_assert!(
                (direct - sol.objective).abs() <= 1e-6 * (1.0 + direct.abs()),
                "presolve objective drift: {} vs {}",
                direct,
                sol.objective
            );
            direct
        };
        Ok(sol)
    }

    /// Solves with a warm-start basis from a previous solve of a
    /// structurally identical model. Falls back to a cold start when the
    /// hint does not fit (wrong shape, singular, or primal-infeasible
    /// beyond repair), so this is always safe to call.
    ///
    /// Warm re-solves restart on the previous optimal vertex, where
    /// coinciding bounds cause long degenerate phase-2 plateaus; unless
    /// the caller set [`SimplexOptions::perturb`] explicitly, the
    /// default anti-degeneracy expansion
    /// [`crate::simplex::DEFAULT_WARM_PERTURB`] is applied (with
    /// post-solve restoration, so reported solutions honour the true
    /// bounds). Pass a negative `perturb` to force it off.
    pub fn solve_warm(
        &self,
        opts: &SimplexOptions,
        hint: &BasisStatuses,
    ) -> Result<Solution, LpError> {
        self.validate()?;
        let opts = simplex::warmed_options(opts);
        simplex::solve_model(self, &opts, Some(hint))
    }

    /// Dumps the model in a human-readable LP-like format (for debugging
    /// small models).
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} {}",
            match self.sense {
                Sense::Maximize => "maximize",
                Sense::Minimize => "minimize",
            },
            self.objective
        );
        let _ = writeln!(s, "subject to");
        for (i, c) in self.cons.iter().enumerate() {
            let name = c.name.clone().unwrap_or_else(|| format!("c{i}"));
            let _ = writeln!(s, "  {name}: {} {} {}", c.expr, c.cmp, c.rhs);
        }
        let _ = writeln!(s, "bounds");
        for (i, v) in self.vars.iter().enumerate() {
            let name = v.name.clone().unwrap_or_else(|| format!("x{i}"));
            let _ = writeln!(s, "  {} <= {name} <= {}", v.lb, v.ub);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_con_merges_duplicate_columns_by_sum() {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        // 2x + y + 3x  ==>  5x + y (sorted, merged, deterministic).
        let mut e = LinExpr::term(x, 2.0);
        e.add_term(y, 1.0);
        e.add_term(x, 3.0);
        let id = m.add_con(e, Cmp::Le, 10.0);
        let v = m.con_view(id);
        let terms: Vec<_> = v.expr.terms().collect();
        assert_eq!(terms, vec![(x, 5.0), (y, 1.0)]);
        // Exact cancellation drops the column entirely.
        let id2 = m.add_con(
            LinExpr::term(x, 1.5) - LinExpr::term(x, 1.5) + y,
            Cmp::Le,
            1.0,
        );
        let terms2: Vec<_> = m.con_view(id2).expr.terms().collect();
        assert_eq!(terms2, vec![(y, 1.0)]);
        assert_eq!(m.num_nonzeros(), 3);
    }

    #[test]
    fn con_views_expose_stored_rows() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 2.0, "x");
        m.add_con_named(LinExpr::from(x), Cmp::Ge, 1.0, "floor");
        m.set_objective(LinExpr::from(x), Sense::Minimize);
        let views: Vec<_> = m.con_views().collect();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].name, Some("floor"));
        assert!(matches!(views[0].cmp, Cmp::Ge));
        assert_eq!(views[0].rhs, 1.0);
        assert_eq!(m.var_name(x), Some("x"));
        let (obj, sense) = m.objective();
        assert_eq!(obj.terms().count(), 1);
        assert_eq!(sense, Sense::Minimize);
    }

    #[test]
    fn add_con_folds_constant_into_rhs() {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        // x + 3 <= 10  ==>  x <= 7
        m.add_con(LinExpr::from(x) + 3.0, Cmp::Le, 10.0);
        assert_eq!(m.cons[0].rhs, 7.0);
        assert_eq!(m.cons[0].expr.constant_part(), 0.0);
    }

    #[test]
    fn validate_rejects_inverted_bounds() {
        let mut m = Model::new();
        m.add_var(1.0, 0.0, "bad");
        assert!(matches!(m.validate(), Err(LpError::InvalidBounds { .. })));
    }

    #[test]
    fn validate_rejects_nan() {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        m.add_con(LinExpr::term(x, f64::NAN), Cmp::Le, 1.0);
        assert_eq!(m.validate(), Err(LpError::NotANumber));
    }

    #[test]
    fn tighten_bounds_never_loosens() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 5.0, "x");
        m.tighten_bounds(x, -1.0, 10.0);
        assert_eq!(m.var_bounds(x), (0.0, 5.0));
        m.tighten_bounds(x, 1.0, 4.0);
        assert_eq!(m.var_bounds(x), (1.0, 4.0));
    }

    #[test]
    fn dump_contains_objective_and_bounds() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 2.0, "x");
        m.add_con_named(LinExpr::from(x), Cmp::Le, 1.0, "cap");
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        let d = m.dump();
        assert!(d.contains("maximize"));
        assert!(d.contains("cap:"));
        assert!(d.contains("<= x <="));
    }
}
