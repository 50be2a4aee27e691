//! Seeded inputs: the game pools of the in-process workloads and the
//! request streams of the service workloads.
//!
//! Every generator is a pure function of the seed. The seed draws costs,
//! priors and request order; it never changes a game's shape, so the
//! work per operation is the same for every seed and runs with different
//! seeds are comparable.

use bi_constructions::gworst::{GWorstGame, GWorstVariant};
use bi_core::random_games::random_bayesian_potential_game;
use bi_core::solve::{SolveError, SolveReport, Solver, SolverConfig};
use bi_core::{BayesianGame, MatrixFormGame};
use bi_graph::{Direction, Graph, NodeId};
use bi_ncs::{BayesianNcsGame, Prior};
use bi_service::service::{GameSpec, SolveRequest};
use bi_util::rng::{derive_seed, seeded};
use bi_util::Encode;
use rand::Rng;

/// One game of an in-process pool.
pub struct PoolGame {
    /// A short label for tables and spans.
    pub name: String,
    /// The game.
    pub spec: GameSpec,
}

/// Solves `spec` with `solver`.
pub fn solve(spec: &GameSpec, solver: &Solver) -> Result<SolveReport, SolveError> {
    match spec {
        GameSpec::Matrix(g) => solver.solve(g),
        GameSpec::Ncs(g) => solver.solve(g),
    }
}

/// A Bayesian NCS game on a fixed two-stage network with seeded edge
/// costs and priors: `s → {4 mids} → x → {3 mids} → t` plus the direct
/// edges `s → x` and `x → t`. Agent 0 has the types `(s,t)`, `(s,x)`,
/// `(x,t)` and agent 1 the types `(s,t)`, `(x,t)`, each with seeded
/// probabilities, so the agents are not interchangeable and the strategy
/// space is `(20·5·4)·(20·4) = 32,000` profiles for every seed.
#[must_use]
pub fn staged_ncs_game(seed: u64) -> GameSpec {
    let mut rng = seeded(derive_seed(seed, "staged-ncs"));
    let mut g = Graph::new(Direction::Directed);
    let s = g.add_node();
    let x = g.add_node();
    let t = g.add_node();
    for (from, to, mids) in [(s, x, 4), (x, t, 3)] {
        for _ in 0..mids {
            let mid = g.add_node();
            g.add_edge(from, mid, rng.random_range(0.5..2.0));
            g.add_edge(mid, to, rng.random_range(0.5..2.0));
        }
        g.add_edge(from, to, rng.random_range(2.0..4.0));
    }
    let mut types = |pairs: &[(NodeId, NodeId)]| {
        let raw: Vec<f64> = pairs.iter().map(|_| rng.random_range(0.2..1.0)).collect();
        let total: f64 = raw.iter().sum();
        pairs
            .iter()
            .zip(raw)
            .map(|(&pair, p)| (pair, p / total))
            .collect::<Vec<_>>()
    };
    let prior = Prior::independent(vec![
        types(&[(s, t), (s, x), (x, t)]),
        types(&[(s, t), (x, t)]),
    ]);
    GameSpec::Ncs(BayesianNcsGame::new(g, prior).expect("the staged network is feasible"))
}

/// An asymmetric random potential game: 3 agents with 2 types each and
/// 6, 7 and 7 actions, with every type profile in the support (so every
/// type has weight and the space is `(6·7·7)^2 = 86,436` profiles for
/// every seed; a solve takes about as long as a staged NCS game's).
#[must_use]
pub fn asymmetric_matrix_game(seed: u64) -> GameSpec {
    let (game, _) =
        random_bayesian_potential_game(&[2, 2, 2], &[6, 7, 7], 8, derive_seed(seed, "asym-matrix"));
    GameSpec::Matrix(game)
}

/// A fully symmetric Bayesian matrix game: 7 binary agents that share
/// their type in each of two states, with seeded costs that depend only
/// on the agent's own action and the number of agents playing action 1.
/// Every symmetric two-action game has a pure equilibrium, so the game is
/// always solvable; `2^14` profiles reduce to 120 orbits.
#[must_use]
pub fn symmetric_matrix_game(seed: u64) -> GameSpec {
    const K: usize = 7;
    let mut rng = seeded(derive_seed(seed, "sym-matrix"));
    let p = rng.random_range(0.3..0.7);
    let mut state = |ty: usize, prob: f64| {
        let table: Vec<[f64; 2]> = (0..=K)
            .map(|_| [rng.random_range(1.0..10.0), rng.random_range(1.0..10.0)])
            .collect();
        let game = MatrixFormGame::from_fn(K, &[2; K], |i, a| {
            let ones = a.iter().filter(|&&x| x == 1).count();
            table[ones][a[i]]
        });
        (vec![ty; K], prob, game)
    };
    let support = vec![state(0, p), state(1, 1.0 - p)];
    GameSpec::Matrix(BayesianGame::new(vec![2; K], support).expect("valid symmetric game"))
}

/// The `sweep` pool: two staged NCS games and three asymmetric matrix
/// games, all above the solver's 2^14-profile parallel threshold and all
/// taking about as long to solve. (The NCS games spend about a tenth of
/// their solve in `complete_info`; the matrix games almost nothing.)
#[must_use]
pub fn sweep_pool(seed: u64) -> Vec<PoolGame> {
    let mut pool: Vec<PoolGame> = (0..2)
        .map(|i| PoolGame {
            name: format!("staged-ncs-{i}"),
            spec: staged_ncs_game(derive_seed(seed, &format!("sweep-ncs{i}"))),
        })
        .collect();
    pool.extend((0..3).map(|i| PoolGame {
        name: format!("asym-matrix-{i}"),
        spec: asymmetric_matrix_game(derive_seed(seed, &format!("sweep-matrix{i}"))),
    }));
    pool
}

/// The `symmetric` pool: `G_worst` in both variants at `k = 11`, the
/// `1/k` variant at `k = 10`, and two seeded symmetric matrix games.
/// (`k = 12` doubles the solve time and leaves too few solves per run
/// for a p99.)
#[must_use]
pub fn symmetric_pool(seed: u64) -> Vec<PoolGame> {
    let gworst = |k: usize, variant: GWorstVariant, label: &str| PoolGame {
        name: format!("gworst-{label}-k{k}"),
        spec: GameSpec::Ncs(GWorstGame::new(k, variant).expect("valid k").game().clone()),
    };
    let mut pool = vec![
        gworst(11, GWorstVariant::InvK, "invk"),
        gworst(11, GWorstVariant::Half, "half"),
        gworst(10, GWorstVariant::InvK, "invk"),
    ];
    pool.extend((0..2).map(|i| PoolGame {
        name: format!("sym-matrix-{i}"),
        spec: symmetric_matrix_game(derive_seed(seed, &format!("sym{i}"))),
    }));
    pool
}

/// The canonical `POST /solve` body for `game` under the default solver
/// configuration (the form every client of the service sends).
#[must_use]
pub fn request_body(game: &GameSpec) -> Vec<u8> {
    SolveRequest {
        game: game.clone(),
        config: SolverConfig::default(),
    }
    .canonical_bytes()
}

/// A full HTTP/1.1 `POST /solve` request carrying `body`.
#[must_use]
pub fn http_request(body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "POST /solve HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(pool: &[PoolGame]) -> Vec<Vec<u8>> {
        pool.iter().map(|g| g.spec.canonical_bytes()).collect()
    }

    #[test]
    fn a_seed_reproduces_identical_games() {
        assert_eq!(bytes(&sweep_pool(7)), bytes(&sweep_pool(7)));
        assert_eq!(bytes(&symmetric_pool(7)), bytes(&symmetric_pool(7)));
        assert_ne!(bytes(&sweep_pool(7)), bytes(&sweep_pool(8)));
        assert_ne!(bytes(&symmetric_pool(7)), bytes(&symmetric_pool(8)));
    }

    #[test]
    fn seeds_never_change_the_work() {
        let size = |spec: &GameSpec| match spec {
            GameSpec::Matrix(g) => bi_core::BayesianModel::strategy_space_size(g).unwrap(),
            GameSpec::Ncs(g) => bi_core::BayesianModel::strategy_space_size(g).unwrap(),
        };
        for seed in [1, 2, 3] {
            let sizes: Vec<u128> = sweep_pool(seed).iter().map(|g| size(&g.spec)).collect();
            assert_eq!(sizes, vec![32_000, 32_000, 86_436, 86_436, 86_436]);
        }
    }
}
