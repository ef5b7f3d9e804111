//! # ffc-lp — a self-contained linear-programming solver
//!
//! This crate provides the optimization substrate for the FFC traffic
//! engineering reproduction: a sparse **revised simplex** solver with
//! bounded variables, two phases, LU basis factorization and
//! product-form eta updates — plus a friendly modeling API.
//!
//! The original paper solved its LPs with Microsoft Solver Foundation +
//! CPLEX; there is no mature pure-Rust LP solver, so we built one. The
//! TE formulations only need linear programs (no integrality), and their
//! constraint matrices are extremely sparse (±1-ish coefficients from
//! tunnel/link incidence plus sorting-network comparators), which the
//! sparse path exploits.
//!
//! ## Quick start
//!
//! ```
//! use ffc_lp::{Model, Cmp, Sense, LinExpr};
//!
//! let mut m = Model::new();
//! let x = m.add_var(0.0, 4.0, "x");
//! let y = m.add_nonneg("y");
//! m.add_con(LinExpr::from(x) + y, Cmp::Le, 6.0);
//! m.set_objective(LinExpr::term(x, 3.0) + LinExpr::term(y, 5.0), Sense::Maximize);
//! let sol = m.solve().unwrap();
//! assert!((sol.objective - 30.0).abs() < 1e-6); // y = 6, x = 0
//! ```
//!
//! ## Architecture
//!
//! | module | role |
//! |---|---|
//! | [`expr`] | sparse linear expressions (`LinExpr`, `VarId`) |
//! | [`model`] | the `Model` builder, errors, solutions |
//! | [`standard`] | lowering to `min cᵀx, Ax = b, l ≤ x ≤ u` |
//! | [`sparse`] | CSC matrices and scatter workspaces |
//! | [`lu`] | Gilbert–Peierls sparse LU with partial pivoting |
//! | [`basis`] | factorization + eta-file updates (FTRAN/BTRAN) |
//! | [`presolve`] | fixed-variable elimination + trivial-row checks |
//! | [`pricing`] | devex entering-column pricing |
//! | [`simplex`] | the bounded-variable two-phase revised simplex |
//! | [`incremental`] | delta-LP: in-place patching of a standing model |
//! | [`dense`] | an independent dense tableau oracle for testing |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basis;
pub mod dense;
pub mod expr;
pub mod incremental;
pub mod lu;
pub mod model;
pub mod presolve;
pub mod pricing;
pub mod simplex;
pub mod sparse;
pub mod standard;

pub use expr::{LinExpr, VarId};
pub use incremental::{diff_models, IncrementalModel, PatchError, PatchOp};
pub use model::{
    BasisStatuses, Cmp, ColStatus, ConId, ConView, LpError, Model, Sense, Solution, SolveStats,
};
pub use simplex::{Algorithm, HotStart, SimplexOptions, DEFAULT_WARM_PERTURB};
