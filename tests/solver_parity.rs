//! Parity and bracketing properties of the unified solver engine.
//!
//! * [`Backend::ExhaustiveEnum`] must reproduce the reference oracle
//!   ([`reference::measures`]) **bit-for-bit** on random games, for both
//!   representations ([`BayesianGame`], [`BayesianNcsGame`]).
//! * Metamorphic checks, through the solver and the oracle alike:
//!   power-of-two cost scaling scales every measure exactly (matrix and
//!   NCS games), action relabelling changes none, permuting the agents
//!   changes none beyond summation order (with and without orbit
//!   reduction), and a point-mass prior makes partial information equal
//!   complete information.
//! * Threaded sweeps must agree with single-threaded sweeps bit-for-bit.
//! * The sampling backends must bracket the exact measures from inside:
//!   genuine but possibly non-extremal equilibria, `optP` from above.
//! * A budget-exceeding game must *fail* under the exhaustive backend and
//!   *solve* (inexactly) under Monte Carlo sampling.

use bayesian_ignorance::constructions::universal::random_bayesian_ncs;
use bayesian_ignorance::core::bayesian::BayesianGame;
use bayesian_ignorance::core::game::MatrixFormGame;
use bayesian_ignorance::core::random_games::{
    random_bayesian_potential_game, random_potential_game,
};
use bayesian_ignorance::core::reference::{self, bits};
use bayesian_ignorance::core::solve::{Backend, SolveError, Solver};
use bayesian_ignorance::core::{BayesianModel, Measures, SymmetryMode};
use bayesian_ignorance::graph::{Direction, Graph};
use bayesian_ignorance::ncs::{BayesianNcsGame, Prior};
use bayesian_ignorance::util::approx_eq;
use proptest::prelude::*;

/// The same prior over transformed state games.
fn map_states(game: &BayesianGame, f: impl Fn(&MatrixFormGame) -> MatrixFormGame) -> BayesianGame {
    let support = (0..game.support_len())
        .map(|idx| {
            let (types, prob, g) = game.state(idx);
            (types.to_vec(), prob, f(g))
        })
        .collect();
    BayesianGame::new(game.type_counts().to_vec(), support).expect("same prior")
}

/// The measures of `game` from the solver and from the reference oracle.
fn both<M: BayesianModel>(game: &M) -> [Measures; 2] {
    let solved = Solver::default().solve(game).expect("solvable").measures;
    [solved, reference::measures(game).expect("solvable")]
}

/// `game` with its agents permuted: new agent `j` is old agent `perm[j]`,
/// so every type vector and action profile is re-indexed by `perm` and
/// cost′(j, a′) = cost(perm[j], a′∘perm⁻¹).
fn permute_agents(game: &BayesianGame, perm: &[usize]) -> BayesianGame {
    let mut inverse = vec![0; perm.len()];
    for (j, &i) in perm.iter().enumerate() {
        inverse[i] = j;
    }
    let reindex = |v: &[usize]| perm.iter().map(|&i| v[i]).collect::<Vec<usize>>();
    let support = (0..game.support_len())
        .map(|idx| {
            let (types, prob, g) = game.state(idx);
            let permuted =
                MatrixFormGame::from_fn(g.num_agents(), &reindex(g.action_counts()), |j, a| {
                    let old: Vec<usize> = inverse.iter().map(|&j2| a[j2]).collect();
                    g.cost(perm[j], &old)
                });
            (reindex(types), prob, permuted)
        })
        .collect();
    BayesianGame::new(reindex(game.type_counts()), support).expect("same prior")
}

/// `game` with every edge cost multiplied by `f`, over the same joint
/// prior support.
fn scale_edges(game: &BayesianNcsGame, f: f64) -> BayesianNcsGame {
    let g = game.graph();
    let mut scaled = Graph::with_nodes(g.direction(), g.node_count());
    for (_, e) in g.edges() {
        scaled.add_edge(e.source(), e.target(), e.cost() * f);
    }
    BayesianNcsGame::new(scaled, Prior::joint(game.support().to_vec())).expect("same prior")
}

/// All six measures of `a` and `b` agree within `approx_eq`.
fn approx_same(a: Measures, b: Measures) -> bool {
    bits(a)
        .into_iter()
        .zip(bits(b))
        .all(|(x, y)| approx_eq(f64::from_bits(x), f64::from_bits(y)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Solver` with `ExhaustiveEnum` (both through the wrapper and
    /// directly) reproduces the legacy matrix-form measures bit-for-bit.
    #[test]
    fn exhaustive_matches_legacy_matrix_measures(seed in 0u64..5000, support in 1usize..5) {
        let (game, _) = random_bayesian_potential_game(&[2, 2], &[2, 2], support, seed);
        let reference = reference::measures(&game).expect("solvable");
        let wrapper = game.measures().expect("solvable");
        let direct = Solver::default().solve(&game).expect("solvable");
        prop_assert_eq!(bits(reference), bits(wrapper));
        prop_assert_eq!(bits(reference), bits(direct.measures));
        prop_assert!(direct.exact);
        prop_assert_eq!(
            direct.profiles_evaluated,
            game.strategy_space_size().expect("fits in u128")
        );
    }

    /// Same parity for the graph-form representation.
    #[test]
    fn exhaustive_matches_legacy_ncs_measures(seed in 0u64..2000) {
        let game = random_bayesian_ncs(Direction::Directed, 4, 0.4, 2, 2, seed)
            .expect("connected generator");
        let reference = reference::measures(&game).expect("solvable");
        let wrapper = game.measures().expect("solvable");
        let direct = Solver::default().solve(&game).expect("solvable");
        prop_assert_eq!(bits(reference), bits(wrapper));
        prop_assert_eq!(bits(reference), bits(direct.measures));
    }

    /// Chunked multi-threaded sweeps agree with the single-threaded sweep
    /// bit-for-bit, for any thread count.
    #[test]
    fn threaded_sweep_is_deterministic(seed in 0u64..2000, threads in 2usize..7) {
        let (game, _) = random_bayesian_potential_game(&[2, 2], &[2, 2], 3, seed);
        let single = Solver::builder().threads(1).build().solve(&game).expect("solvable");
        let multi = Solver::builder().threads(threads).build().solve(&game).expect("solvable");
        prop_assert_eq!(bits(single.measures), bits(multi.measures));
        prop_assert_eq!(single.profiles_evaluated, multi.profiles_evaluated);
    }

    /// Monte Carlo sampling brackets the exact measures from inside:
    /// every reported equilibrium is genuine, so `best-eqP` is approached
    /// from above and `worst-eqP` from below; `optP` from above.
    #[test]
    fn monte_carlo_brackets_exact_measures(seed in 0u64..1000) {
        let (game, _) = random_bayesian_potential_game(&[2, 2], &[2, 2], 2, seed);
        let exact = Solver::default().solve(&game).expect("solvable").measures;
        let mc = Solver::builder()
            .backend(Backend::MonteCarloSampling { samples: 64, seed: seed ^ 0xbeef })
            .build()
            .solve(&game)
            .expect("solvable");
        prop_assert!(!mc.exact);
        let m = mc.measures;
        prop_assert!(exact.opt_p <= m.opt_p + 1e-12);
        prop_assert!(exact.best_eq_p <= m.best_eq_p + 1e-12);
        prop_assert!(m.best_eq_p <= exact.worst_eq_p + 1e-12);
        prop_assert!(exact.best_eq_p <= m.worst_eq_p + 1e-12);
        prop_assert!(m.worst_eq_p <= exact.worst_eq_p + 1e-12);
        m.verify_chain().expect("Observation 2.2 survives sampling");
    }

    /// Monte Carlo on NCS games also brackets the exact measures.
    #[test]
    fn monte_carlo_brackets_exact_ncs_measures(seed in 0u64..500) {
        let game = random_bayesian_ncs(Direction::Undirected, 4, 0.4, 2, 2, seed)
            .expect("connected generator");
        let exact = Solver::default().solve(&game).expect("solvable").measures;
        let mc = Solver::builder()
            .backend(Backend::MonteCarloSampling { samples: 32, seed })
            .build()
            .solve(&game)
            .expect("solvable");
        prop_assert!(exact.opt_p <= mc.measures.opt_p + 1e-12);
        prop_assert!(exact.best_eq_p <= mc.measures.best_eq_p + 1e-12);
        prop_assert!(mc.measures.worst_eq_p <= exact.worst_eq_p + 1e-12);
    }

    /// Multiplying every cost by 2^k scales all six measures by exactly
    /// 2^k (power-of-two scaling commutes with every rounding).
    #[test]
    fn scaling_costs_by_a_power_of_two_scales_every_measure(
        seed in 0u64..2000,
        support in 1usize..5,
        k in 1i32..4,
    ) {
        let (game, _) = random_bayesian_potential_game(&[2, 2], &[3, 3], support, seed);
        let f = 2f64.powi(k);
        let scaled = map_states(&game, |g| {
            MatrixFormGame::from_fn(g.num_agents(), g.action_counts(), |i, a| g.cost(i, a) * f)
        });
        for (m, s) in both(&game).into_iter().zip(both(&scaled)) {
            prop_assert_eq!(bits(m).map(|b| (f64::from_bits(b) * f).to_bits()), bits(s));
        }
    }

    /// Relabelling each agent's actions with a seeded permutation leaves
    /// all six measures bitwise unchanged.
    #[test]
    fn relabelling_actions_leaves_every_measure_unchanged(seed in 0u64..2000, support in 1usize..5) {
        use rand::seq::SliceRandom;
        let (game, _) = random_bayesian_potential_game(&[2, 2], &[3, 3], support, seed);
        let mut rng = bayesian_ignorance::util::rng::seeded(seed);
        let perms: Vec<Vec<usize>> = game
            .action_counts()
            .iter()
            .map(|&n| {
                let mut p: Vec<usize> = (0..n).collect();
                p.shuffle(&mut rng);
                p
            })
            .collect();
        let relabelled = map_states(&game, |g| {
            MatrixFormGame::from_fn(g.num_agents(), g.action_counts(), |i, a| {
                let old: Vec<usize> = a.iter().zip(&perms).map(|(&x, p)| p[x]).collect();
                g.cost(i, &old)
            })
        });
        for (m, r) in both(&game).into_iter().zip(both(&relabelled)) {
            prop_assert_eq!(bits(m), bits(r));
        }
    }

    /// Permuting the agents (types, type vectors and every state game
    /// alike) leaves all six measures unchanged within `approx_eq` — the
    /// sums run in a different order — with orbit reduction off and on,
    /// and through the oracle.
    #[test]
    fn permuting_agents_leaves_every_measure_unchanged(seed in 0u64..2000, support in 1usize..5) {
        use rand::seq::SliceRandom;
        let (game, _) = random_bayesian_potential_game(&[2, 2, 1], &[2, 3, 2], support, seed);
        let mut perm: Vec<usize> = (0..game.num_agents()).collect();
        perm.shuffle(&mut bayesian_ignorance::util::rng::seeded(seed ^ 0x5eed));
        let permuted = permute_agents(&game, &perm);
        for mode in [SymmetryMode::Off, SymmetryMode::Auto] {
            let solver = Solver::builder().symmetry(mode).build();
            let m = solver.solve(&game).expect("solvable").measures;
            let p = solver.solve(&permuted).expect("solvable").measures;
            prop_assert!(approx_same(m, p), "{mode:?} {perm:?}: {m:?} vs {p:?}");
        }
        let m = reference::measures(&game).expect("solvable");
        let p = reference::measures(&permuted).expect("solvable");
        prop_assert!(approx_same(m, p), "oracle {perm:?}: {m:?} vs {p:?}");
    }

    /// Multiplying every edge cost of a random NCS game by 2^k scales all
    /// six measures by exactly 2^k, as for matrix games.
    #[test]
    fn scaling_edge_costs_by_a_power_of_two_scales_every_ncs_measure(
        seed in 0u64..500,
        k in 1i32..4,
    ) {
        let game = random_bayesian_ncs(Direction::Directed, 4, 0.4, 2, 2, seed)
            .expect("connected generator");
        let f = 2f64.powi(k);
        let scaled = scale_edges(&game, f);
        for (m, s) in both(&game).into_iter().zip(both(&scaled)) {
            prop_assert_eq!(bits(m).map(|b| (f64::from_bits(b) * f).to_bits()), bits(s));
        }
    }

    /// One support state and one type per agent is complete information:
    /// partial equals complete within `approx_eq`.
    #[test]
    fn a_point_mass_prior_equates_partial_and_complete_information(
        seed in 0u64..2000,
        agents in 2usize..4,
    ) {
        let (g, _) = random_potential_game(agents, &vec![3; agents], seed);
        let game = BayesianGame::new(vec![1; agents], vec![(vec![0; agents], 1.0, g)])
            .expect("point mass");
        for m in both(&game) {
            prop_assert!(
                approx_eq(m.opt_p, m.opt_c)
                    && approx_eq(m.best_eq_p, m.best_eq_c)
                    && approx_eq(m.worst_eq_p, m.worst_eq_c),
                "{m:?}"
            );
        }
    }
}

/// The acceptance scenario: a game whose strategy space exceeds the
/// budget errors under exhaustive enumeration but solves (inexactly)
/// under Monte Carlo sampling.
#[test]
fn budget_exceeding_game_solves_with_sampling() {
    let (game, _) = random_bayesian_potential_game(&[2, 2], &[2, 2], 3, 7);
    let space = game.strategy_space_size().unwrap();
    assert!(space > 4);

    let exhaustive = Solver::builder().max_profiles(4).build().solve(&game);
    match exhaustive {
        Err(SolveError::BudgetExceeded {
            required,
            max_profiles,
        }) => {
            assert_eq!(required, space);
            assert_eq!(max_profiles, 4);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }

    let report = Solver::builder()
        .max_profiles(4)
        .backend(Backend::MonteCarloSampling {
            samples: 32,
            seed: 1,
        })
        .build()
        .solve(&game)
        .expect("sampling ignores the profile budget");
    assert!(!report.exact);
    assert!(report.profiles_evaluated > 0);
    report.measures.verify_chain().unwrap();
}

/// One generic entry point serves both game representations — the core of
/// the API redesign.
#[test]
fn one_solver_entry_point_serves_both_representations() {
    fn solve_any<M: BayesianModel>(model: &M) -> Measures {
        Solver::builder()
            .threads(2)
            .build()
            .solve(model)
            .expect("solvable")
            .measures
    }

    let (matrix_game, _) = random_bayesian_potential_game(&[2, 2], &[2, 2], 2, 3);
    let ncs_game =
        random_bayesian_ncs(Direction::Directed, 4, 0.5, 2, 2, 3).expect("connected generator");
    let a = solve_any(&matrix_game);
    let b = solve_any(&ncs_game);
    a.verify_chain().unwrap();
    b.verify_chain().unwrap();
}

/// Best-response-dynamics restarts find genuine equilibria whose costs lie
/// within the exact equilibrium range.
#[test]
fn brd_backend_reports_genuine_equilibria() {
    for seed in 0..8 {
        let game =
            random_bayesian_ncs(Direction::Directed, 4, 0.4, 2, 2, 100 + seed).expect("generator");
        let exact = Solver::default().solve(&game).expect("solvable").measures;
        let brd = Solver::builder()
            .backend(Backend::BestResponseDynamics {
                restarts: 6,
                seed: 42,
            })
            .build()
            .solve(&game)
            .expect("potential games converge");
        assert!(!brd.exact);
        assert!(
            exact.best_eq_p <= brd.measures.best_eq_p + 1e-12,
            "seed {seed}"
        );
        assert!(
            brd.measures.worst_eq_p <= exact.worst_eq_p + 1e-12,
            "seed {seed}"
        );
    }
}
