//! The reference oracle: the pre-kernel exhaustive sweep every solver
//! path is checked against, bit for bit.
//!
//! [`sweep`] walks the candidate space in [`ProfileIter`] order (last
//! slot fastest) with an odometer over one nested [`Profile`], cloning
//! one action per tick and recomputing
//! [`social_cost`](BayesianModel::social_cost) and
//! [`is_equilibrium`](BayesianModel::is_equilibrium) from scratch on
//! every profile. It uses no compiled kernel, no block sweep, no work
//! stealing and no orbit reduction, so it shares nothing with the
//! solver's sweep except the model's own primitives.
//!
//! [`ProfileIter`]: crate::game::ProfileIter

use crate::measures::Measures;
use crate::model::{BayesianModel, Profile};
use crate::solve::SolveError;

/// The partial-information side of one exhaustive sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sweep {
    /// `optP`: the least social cost over all profiles.
    pub opt_p: f64,
    /// `best-eqP`: the least social cost over equilibria (`+∞` if none).
    pub best_eq_p: f64,
    /// `worst-eqP`: the greatest social cost over equilibria (`-∞` if none).
    pub worst_eq_p: f64,
    /// Profiles visited: the size of the candidate space.
    pub profiles: u128,
}

/// Sweeps every candidate profile of `model` (see the module docs).
///
/// # Errors
///
/// Propagates candidate-enumeration failures.
pub fn sweep<M: BayesianModel>(model: &M) -> Result<Sweep, SolveError> {
    let mut slots = Vec::new();
    let mut sets: Vec<Vec<M::Action>> = Vec::new();
    for i in 0..model.num_agents() {
        for tau in 0..model.type_count(i) {
            slots.push((i, tau));
            sets.push(model.candidate_actions(i, tau)?);
        }
    }
    let mut profile: Profile<M> = (0..model.num_agents()).map(|_| Vec::new()).collect();
    for (&(i, _), set) in slots.iter().zip(&sets) {
        profile[i].push(set[0].clone());
    }
    let mut digits = vec![0usize; sets.len()];
    let mut out = Sweep {
        opt_p: f64::INFINITY,
        best_eq_p: f64::INFINITY,
        worst_eq_p: f64::NEG_INFINITY,
        profiles: 0,
    };
    loop {
        let k = model.social_cost(&profile);
        out.profiles += 1;
        out.opt_p = out.opt_p.min(k);
        if model.is_equilibrium(&profile) {
            out.best_eq_p = out.best_eq_p.min(k);
            out.worst_eq_p = out.worst_eq_p.max(k);
        }
        // Advance the odometer; a carry out of slot 0 ends the sweep.
        let mut j = digits.len();
        loop {
            if j == 0 {
                return Ok(out);
            }
            j -= 1;
            let (i, tau) = slots[j];
            digits[j] += 1;
            if digits[j] < sets[j].len() {
                profile[i][tau] = sets[j][digits[j]].clone();
                break;
            }
            digits[j] = 0;
            profile[i][tau] = sets[j][0].clone();
        }
    }
}

/// All six measures: [`sweep`] plus the model's
/// [`complete_info`](BayesianModel::complete_info).
///
/// # Errors
///
/// Returns [`SolveError::NoEquilibrium`] when no profile is an
/// equilibrium, and propagates enumeration and complete-information
/// failures.
pub fn measures<M: BayesianModel>(model: &M) -> Result<Measures, SolveError> {
    let p = sweep(model)?;
    if p.best_eq_p > p.worst_eq_p {
        return Err(SolveError::NoEquilibrium);
    }
    let c = model.complete_info()?;
    Ok(Measures {
        opt_p: p.opt_p,
        best_eq_p: p.best_eq_p,
        worst_eq_p: p.worst_eq_p,
        opt_c: c.opt_c,
        best_eq_c: c.best_eq_c,
        worst_eq_c: c.worst_eq_c,
    })
}

/// The six measures' bit patterns, for bit-for-bit comparisons.
#[must_use]
pub fn bits(m: Measures) -> [u64; 6] {
    [
        m.opt_p.to_bits(),
        m.best_eq_p.to_bits(),
        m.worst_eq_p.to_bits(),
        m.opt_c.to_bits(),
        m.best_eq_c.to_bits(),
        m.worst_eq_c.to_bits(),
    ]
}
