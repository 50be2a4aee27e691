//! The Bayesian-game model of *Bayesian ignorance* (Alon, Emek, Feldman,
//! Tennenholtz; PODC 2010 / TCS 2012), implemented exactly.
//!
//! A Bayesian game `G = ⟨k, {A_i}, {T_i}, {C_{i,t}}, p⟩` draws a type
//! profile `t` from the common prior `p`; each agent observes only her own
//! type and plays a strategy `s_i : T_i → A_i`. The paper compares the
//! social cost of strategy profiles in this *partial-information* setting
//! against the prior-averaged social cost of action profiles in the
//! *complete-information* underlying games `G_t`, through six quantities
//! (`optP`, `best-eqP`, `worst-eqP` vs `optC`, `best-eqC`, `worst-eqC`).
//!
//! This crate provides the model for **finite, explicitly enumerable**
//! games (the `bi-ncs` crate layers network cost-sharing structure on
//! top):
//!
//! * [`game::MatrixFormGame`] — a `k`-agent complete-information cost game;
//! * [`nash`] — exhaustive pure-Nash enumeration, optima;
//! * [`potential`] — exact potential verification and Observation 2.1
//!   (a prior-expected per-state potential is a Bayesian potential);
//! * [`bayesian::BayesianGame`] — explicit-prior Bayesian games, strategy
//!   enumeration, Bayesian-equilibrium checking, best-response dynamics;
//! * [`measures`] — the six quantities and the three ignorance ratios,
//!   plus the Observation 2.2 chain checker;
//! * [`model`] — the [`BayesianModel`] trait: the primitives any game
//!   representation (matrix form here, graph form in `bi-ncs`) exposes to
//!   the solver, with shared default equilibrium/dynamics logic;
//! * [`compiled`] — the compiled evaluation layer: per-solve lowering of
//!   any model into a flat `u32`-indexed candidate arena plus an
//!   incremental per-representation [`EvalKernel`], so sweeps mutate one
//!   digit buffer with zero action clones and delta-update their cost
//!   state;
//! * [`solve`] — the unified [`Solver`] engine: pluggable backends
//!   (exhaustive, best-response dynamics, Monte Carlo sampling), budgets,
//!   work-stealing multi-threaded sweeps, structured [`SolveReport`]s;
//! * [`symmetry`] — exact agent-interchangeability detection and
//!   canonical orbit enumeration: under [`symmetry::SymmetryMode::Auto`]
//!   the exhaustive sweep visits one representative per symmetry orbit,
//!   bit-for-bit identical results at a fraction of the evaluations;
//! * [`mod@reference`] — the reference oracle: the pre-kernel exhaustive
//!   sweep (nested profiles, costs recomputed per profile) that every
//!   solver path must match bit for bit;
//! * [`randomness`] — Section 4: `R(φ)`, `R̃(φ)`, the Proposition 4.2
//!   equality, and the Lemma 4.1 public-randomness distribution computed
//!   by solving the associated zero-sum game exactly;
//! * [`random_games`] — seeded generators of random (potential) games and
//!   priors for the property tests and universal-bound sweeps.
//!
//! # Examples
//!
//! ```
//! use bi_core::bayesian::BayesianGame;
//! use bi_core::game::MatrixFormGame;
//!
//! // One agent, two types, two actions; the good action depends on the
//! // state, which the agent *observes* (her own type is the whole state),
//! // so optP = optC here.
//! let g0 = MatrixFormGame::from_fn(1, &[2], |_, a| if a[0] == 0 { 1.0 } else { 2.0 });
//! let g1 = MatrixFormGame::from_fn(1, &[2], |_, a| if a[0] == 1 { 1.0 } else { 2.0 });
//! let game = BayesianGame::new(
//!     vec![2],
//!     vec![(vec![0], 0.5, g0), (vec![1], 0.5, g1)],
//! ).unwrap();
//! let m = game.measures().unwrap();
//! assert_eq!(m.opt_p, m.opt_c);
//! ```

pub mod bayesian;
pub mod codec;
pub mod compiled;
pub mod game;
pub mod measures;
pub mod model;
pub mod nash;
pub mod potential;
pub mod random_games;
pub mod randomness;
pub mod reference;
pub mod solve;
pub mod symmetry;

pub use bayesian::{BayesianGame, StrategyProfile};
pub use compiled::{CompiledSpace, EvalKernel, Lowered, SlotStep};
pub use game::MatrixFormGame;
pub use measures::{IgnoranceRatios, Measures};
pub use model::{BayesianModel, CompleteInfo};
pub use solve::{
    Backend, Budget, OrbitStats, SolveError, SolveReport, Solver, SolverBuilder, SolverConfig,
};
pub use symmetry::{Symmetry, SymmetryMode};
