//! Posterior inference from operational evidence.
//!
//! Evidence is Bernoulli: `s` failures observed in `t` demands. For a
//! discrete prior `{(θₐ, wₐ)}` the exact posterior is
//!
//! ```text
//! wₐ' ∝ wₐ · θₐˢ · (1 − θₐ)^{t−s}
//! ```
//!
//! (with `0⁰ = 1`, so the perfect-system atom survives failure-free
//! evidence and is annihilated by any failure). For a Beta prior the
//! update is conjugate. [`factored_fault_posterior`] additionally updates
//! the *fault model itself* after failure-free operation, using the
//! factorised likelihood `Π(1−qᵢ)^t` per present fault — an approximation
//! to the exact `(1−Σqᵢ)^t` that is accurate when `Σqᵢ` is small (the
//! §5 "many small faults" regime) and conservative otherwise.

use crate::error::BayesError;
use crate::prior::PfdPrior;
use divrel_model::{FaultModel, PotentialFault};
use divrel_numerics::beta_dist::Beta;
use divrel_numerics::weighted_sum::Atom;

/// A posterior over the PFD, same representations as the prior.
#[derive(Debug, Clone, PartialEq)]
pub enum PfdPosterior {
    /// Exact discrete posterior.
    Discrete(Vec<Atom>),
    /// Conjugate Beta posterior.
    Beta(Beta),
}

/// Updates a prior with `failures` failures in `demands` demands.
///
/// # Errors
///
/// [`BayesError::BadEvidence`] if `failures > demands`;
/// [`BayesError::DegeneratePosterior`] if the evidence annihilates every
/// atom of a discrete prior (e.g. failures observed under a prior that is
/// certain the system is perfect).
///
/// ```
/// use divrel_bayes::{prior::PfdPrior, update::observe};
/// use divrel_model::FaultModel;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = FaultModel::uniform(4, 0.2, 0.01)?;
/// let prior = PfdPrior::exact_single(&model)?;
/// let post = observe(&prior, 0, 5_000)?;
/// // Failure-free operation raises the probability of perfection.
/// assert!(post.prob_perfect() > prior.prob_perfect());
/// # Ok(())
/// # }
/// ```
pub fn observe(prior: &PfdPrior, failures: u64, demands: u64) -> Result<PfdPosterior, BayesError> {
    if failures > demands {
        return Err(BayesError::BadEvidence { failures, demands });
    }
    match prior {
        PfdPrior::Discrete(atoms) => Ok(PfdPosterior::Discrete(discrete_posterior(
            atoms,
            &AtomTerms::precompute(atoms),
            failures,
            demands - failures,
        )?)),
        PfdPrior::Beta(b) => Ok(PfdPosterior::Beta(b.update(failures, demands)?)),
    }
}

/// Updates one prior with many independent bodies of evidence in one
/// sweep: `evidence[i] = (failuresᵢ, demandsᵢ)` yields the posterior the
/// `i`-th cell would get from [`observe`] — bit-identical to calling it
/// per cell, but the per-atom log terms (`ln wₐ`, `ln θₐ`, `ln(1−θₐ)`)
/// are computed **once** for the whole batch instead of once per cell.
/// What remains per atom per cell is the log-likelihood multiply-adds,
/// one `exp` and one normalising divide. Callers that only need
/// credible bounds should use [`credible_bounds_batch`], which runs the
/// same kernel without building the posteriors.
///
/// # Errors
///
/// As [`observe`], per cell; the first failing cell aborts the batch.
pub fn observe_batch(
    prior: &PfdPrior,
    evidence: &[(u64, u64)],
) -> Result<Vec<PfdPosterior>, BayesError> {
    match prior {
        PfdPrior::Discrete(atoms) => {
            let terms = AtomTerms::precompute(atoms);
            evidence
                .iter()
                .map(|&(failures, demands)| {
                    if failures > demands {
                        return Err(BayesError::BadEvidence { failures, demands });
                    }
                    Ok(PfdPosterior::Discrete(discrete_posterior(
                        atoms,
                        &terms,
                        failures,
                        demands - failures,
                    )?))
                })
                .collect()
        }
        PfdPrior::Beta(b) => evidence
            .iter()
            .map(|&(failures, demands)| Ok(PfdPosterior::Beta(b.update(failures, demands)?)))
            .collect(),
    }
}

/// Credible bounds for many independent bodies of evidence:
/// `evidence[i] = (failuresᵢ, demandsᵢ)` yields
/// `(observe(prior, fᵢ, dᵢ)?.quantile(lower)?,
/// observe(prior, fᵢ, dᵢ)?.quantile(upper)?)` bit for bit, errors
/// included, without building a [`PfdPosterior`]. A discrete prior runs
/// the same log-weight kernel as [`observe`] into one scratch buffer
/// reused across cells, then finds both quantiles in a single scan that
/// stops as soon as the later of the two is reached. This is the
/// between-rounds pass of the adaptive refinement driver.
///
/// # Errors
///
/// As [`observe`] then [`PfdPosterior::quantile`], per cell; the first
/// failing cell aborts the batch.
///
/// ```
/// use divrel_bayes::{prior::PfdPrior, update::{credible_bounds_batch, observe}};
/// use divrel_model::FaultModel;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = FaultModel::uniform(4, 0.2, 0.01)?;
/// let prior = PfdPrior::exact_single(&model)?;
/// let bounds = credible_bounds_batch(&prior, &[(0, 5_000), (3, 400)], 0.01, 0.99)?;
/// let post = observe(&prior, 3, 400)?;
/// assert_eq!(bounds[1], (post.quantile(0.01)?, post.quantile(0.99)?));
/// # Ok(())
/// # }
/// ```
pub fn credible_bounds_batch(
    prior: &PfdPrior,
    evidence: &[(u64, u64)],
    lower: f64,
    upper: f64,
) -> Result<Vec<(f64, f64)>, BayesError> {
    match prior {
        PfdPrior::Discrete(atoms) => {
            let terms = AtomTerms::precompute(atoms);
            let mut weights = Vec::with_capacity(atoms.len());
            evidence
                .iter()
                .map(|&(failures, demands)| {
                    if failures > demands {
                        return Err(BayesError::BadEvidence { failures, demands });
                    }
                    let total = posterior_weights(
                        atoms,
                        &terms,
                        failures,
                        demands - failures,
                        &mut weights,
                    )?;
                    check_confidence(lower)?;
                    check_confidence(upper)?;
                    Ok(discrete_quantiles(&weights, total, lower, upper))
                })
                .collect()
        }
        PfdPrior::Beta(_) => evidence
            .iter()
            .map(|&(failures, demands)| {
                let post = observe(prior, failures, demands)?;
                Ok((post.quantile(lower)?, post.quantile(upper)?))
            })
            .collect(),
    }
}

/// Per-atom log terms of a discrete prior, shared across a batch of
/// updates. Entries are `NAN` where the term is never used (`ln 0`
/// guards below make sure of that), mirroring [`observe`]'s conditional
/// evaluation exactly so batched and one-shot updates agree bit for bit.
struct AtomTerms {
    log_mass: Vec<f64>,
    log_theta: Vec<f64>,
    /// `ln(1 − θ)` via `ln_1p` — the exact-prior likelihood `(1−θ)ᵗ`
    /// stays in log domain throughout.
    log_surv: Vec<f64>,
}

impl AtomTerms {
    fn precompute(atoms: &[Atom]) -> Self {
        AtomTerms {
            log_mass: atoms.iter().map(|a| a.mass.ln()).collect(),
            log_theta: atoms.iter().map(|a| a.value.ln()).collect(),
            log_surv: atoms.iter().map(|a| (-a.value).ln_1p()).collect(),
        }
    }
}

/// The exact discrete posterior, computed in log domain: the kernel's
/// weights, each divided by their total.
fn discrete_posterior(
    atoms: &[Atom],
    terms: &AtomTerms,
    failures: u64,
    survivals: u64,
) -> Result<Vec<Atom>, BayesError> {
    let mut out = Vec::with_capacity(atoms.len());
    let total = posterior_weights(atoms, terms, failures, survivals, &mut out)?;
    for a in &mut out {
        a.mass /= total;
    }
    Ok(out)
}

/// The one log-weight kernel behind every discrete update. Clears
/// `out`, fills it with the admitted atoms in prior order, each
/// carrying its **unnormalised** weight `exp(ll − best)` as `mass`, and
/// returns their sequential total.
///
/// Atoms the evidence *logically* excludes (`θ = 0` with failures seen,
/// `θ = 1` with survivals seen, prior mass 0) are annihilated. Atoms the
/// evidence merely makes improbable are **never dropped**: a weight
/// whose exact value underflows `f64` (below `e^{−745}` relative to the
/// dominant atom — routine once `t ≥ 10⁷` failure-free demands meet a
/// θ ≥ 10⁻⁴ atom) is flushed to the smallest positive `f64` instead of
/// to 0, so the posterior support always equals the admissible prior
/// support. The distortion is ≤ a few times `5·10⁻³²⁴` — far below any
/// downstream tolerance — and keeps worst-case-atom audits and
/// support-sensitive consumers honest: finite evidence never *deletes*
/// a hypothesis.
fn posterior_weights(
    atoms: &[Atom],
    terms: &AtomTerms,
    failures: u64,
    survivals: u64,
    out: &mut Vec<Atom>,
) -> Result<f64, BayesError> {
    out.clear();
    // Work with log-likelihood to survive large t; `mass` holds the
    // log weight until the second pass.
    let mut best_log = f64::NEG_INFINITY;
    for (i, a) in atoms.iter().enumerate() {
        let theta = a.value;
        // 0^0 = 1 conventions:
        if a.mass == 0.0 || (theta == 0.0 && failures > 0) || (theta == 1.0 && survivals > 0) {
            continue;
        }
        let mut ll = terms.log_mass[i];
        if failures > 0 {
            ll += failures as f64 * terms.log_theta[i];
        }
        if survivals > 0 {
            ll += survivals as f64 * terms.log_surv[i];
        }
        best_log = best_log.max(ll);
        out.push(Atom {
            value: theta,
            mass: ll,
        });
    }
    if best_log == f64::NEG_INFINITY {
        return Err(BayesError::DegeneratePosterior(
            "evidence excludes every prior atom",
        ));
    }
    let mut total = 0.0_f64;
    for a in out.iter_mut() {
        a.mass = (a.mass - best_log).exp().max(f64::MIN_POSITIVE);
        total += a.mass;
    }
    Ok(total)
}

/// `BayesError::InvalidConfig` unless `0 < confidence < 1`.
fn check_confidence(confidence: f64) -> Result<(), BayesError> {
    if confidence > 0.0 && confidence < 1.0 {
        Ok(())
    } else {
        Err(BayesError::InvalidConfig(format!(
            "confidence {confidence} not in (0, 1)"
        )))
    }
}

/// The `lower` and `upper` quantiles of the atoms whose masses are
/// `mass / total`, in one scan: each is the first atom whose running
/// mass reaches its level (within `1e-15`), else the last atom. A
/// normalised posterior scans with `total = 1`, which divides exactly.
fn discrete_quantiles(atoms: &[Atom], total: f64, lower: f64, upper: f64) -> (f64, f64) {
    let (mut lo, mut hi) = (None, None);
    let mut acc = 0.0;
    for a in atoms {
        acc += a.mass / total;
        let reached = acc + 1e-15;
        if lo.is_none() && reached >= lower {
            lo = Some(a.value);
        }
        if hi.is_none() && reached >= upper {
            hi = Some(a.value);
        }
        if lo.is_some() && hi.is_some() {
            break;
        }
    }
    let last = atoms.last().map_or(0.0, |a| a.value);
    (lo.unwrap_or(last), hi.unwrap_or(last))
}

impl PfdPosterior {
    /// Posterior mean PFD.
    pub fn mean(&self) -> f64 {
        match self {
            PfdPosterior::Discrete(atoms) => atoms.iter().map(|a| a.value * a.mass).sum(),
            PfdPosterior::Beta(b) => b.mean(),
        }
    }

    /// Posterior `P(Θ ≤ x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        match self {
            PfdPosterior::Discrete(atoms) => atoms
                .iter()
                .take_while(|a| a.value <= x)
                .map(|a| a.mass)
                .sum::<f64>()
                .min(1.0),
            PfdPosterior::Beta(b) => b.cdf(x),
        }
    }

    /// Posterior probability the system is perfect.
    pub fn prob_perfect(&self) -> f64 {
        match self {
            PfdPosterior::Discrete(atoms) => atoms
                .iter()
                .find(|a| a.value == 0.0)
                .map(|a| a.mass)
                .unwrap_or(0.0),
            PfdPosterior::Beta(_) => 0.0,
        }
    }

    /// Smallest `b` with `P(Θ ≤ b) ≥ confidence`.
    ///
    /// # Errors
    ///
    /// [`BayesError::InvalidConfig`] unless `0 < confidence < 1`;
    /// numerics errors from the Beta quantile.
    pub fn quantile(&self, confidence: f64) -> Result<f64, BayesError> {
        check_confidence(confidence)?;
        match self {
            PfdPosterior::Discrete(atoms) => {
                Ok(discrete_quantiles(atoms, 1.0, confidence, confidence).0)
            }
            PfdPosterior::Beta(b) => Ok(b.quantile(confidence)?),
        }
    }
}

/// Factorised per-fault posterior after `t` **failure-free** demands:
/// every fault's presence probability shrinks to
///
/// ```text
/// pᵢ' = pᵢ(1−qᵢ)ᵗ / (1 − pᵢ + pᵢ(1−qᵢ)ᵗ)
/// ```
///
/// Faults with large failure regions are "tested out" quickly; faults with
/// tiny regions barely move — which is why failure-free operation alone
/// can never establish ultra-high reliability (the paper's motivating
/// problem).
///
/// The factorisation approximates the exact likelihood `(1−Σᵢ∈S qᵢ)ᵗ` by
/// `Πᵢ∈S (1−qᵢ)ᵗ`; exact when at most one fault is present, and accurate
/// to `O(t·qᵢqⱼ)` generally.
///
/// # Errors
///
/// Propagates model reconstruction errors (cannot occur for valid inputs).
pub fn factored_fault_posterior(model: &FaultModel, t: u64) -> Result<FaultModel, BayesError> {
    let faults = model
        .faults()
        .iter()
        .map(|f| {
            let p = f.p();
            let q = f.q();
            // Stay in log domain end to end: the update is a logistic
            // shift of the log-odds,
            //   ln(p'/(1−p')) = ln(p/(1−p)) + t·ln(1−q),
            // so the survival factor (1−q)^t is never materialised.
            // Exponentiating p·(1−q)^t piecewise (the obvious form)
            // collapses p' to exactly 0 once (1−q)^t underflows — at
            // t ≥ 10⁷ that already happens for q ~ 10⁻⁴ — erasing the
            // fault from the model even where p' itself is still
            // representable.
            let log_surv = t as f64 * (-q).ln_1p();
            let p_new = if p == 0.0 || log_surv == 0.0 {
                p
            } else if p == 1.0 {
                1.0
            } else {
                let log_odds = (p / (1.0 - p)).ln() + log_surv;
                if log_odds <= 0.0 {
                    let e = log_odds.exp();
                    e / (1.0 + e)
                } else {
                    1.0 / (1.0 + (-log_odds).exp())
                }
            };
            PotentialFault::new(p_new, q)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(BayesError::from)?;
    FaultModel::new(faults).map_err(BayesError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model() -> FaultModel {
        FaultModel::from_params(&[0.3, 0.1], &[0.01, 0.001]).unwrap()
    }

    #[test]
    fn failure_free_evidence_improves_beliefs() {
        let prior = PfdPrior::exact_single(&model()).unwrap();
        let post = observe(&prior, 0, 2_000).unwrap();
        assert!(post.mean() < prior.mean());
        assert!(post.prob_perfect() > prior.prob_perfect());
        // More evidence, stronger belief.
        let post2 = observe(&prior, 0, 20_000).unwrap();
        assert!(post2.mean() < post.mean());
        assert!(post2.prob_perfect() > post.prob_perfect());
    }

    #[test]
    fn failures_kill_the_perfect_atom() {
        let prior = PfdPrior::exact_single(&model()).unwrap();
        let post = observe(&prior, 1, 100).unwrap();
        assert_eq!(post.prob_perfect(), 0.0);
        assert!(post.mean() > 0.0);
    }

    #[test]
    fn posterior_is_normalised() {
        let prior = PfdPrior::exact_single(&model()).unwrap();
        for (s, t) in [(0u64, 0u64), (0, 1000), (2, 500), (10, 10)] {
            let post = observe(&prior, s, t).unwrap();
            if let PfdPosterior::Discrete(atoms) = post {
                let total: f64 = atoms.iter().map(|a| a.mass).sum();
                assert!((total - 1.0).abs() < 1e-12, "s={s}, t={t}");
            } else {
                panic!("expected discrete posterior");
            }
        }
    }

    #[test]
    fn no_evidence_is_identity() {
        let prior = PfdPrior::exact_single(&model()).unwrap();
        let post = observe(&prior, 0, 0).unwrap();
        assert!((post.mean() - prior.mean()).abs() < 1e-14);
        assert!((post.prob_perfect() - prior.prob_perfect()).abs() < 1e-14);
    }

    #[test]
    fn bad_and_degenerate_evidence() {
        let prior = PfdPrior::exact_single(&model()).unwrap();
        assert!(matches!(
            observe(&prior, 5, 3),
            Err(BayesError::BadEvidence { .. })
        ));
        // A prior certain of perfection cannot explain a failure.
        let perfect = PfdPrior::from_atoms(vec![Atom {
            value: 0.0,
            mass: 1.0,
        }])
        .unwrap();
        assert!(matches!(
            observe(&perfect, 1, 10),
            Err(BayesError::DegeneratePosterior(_))
        ));
        // A prior certain of Θ=1 cannot explain a success.
        let broken = PfdPrior::from_atoms(vec![Atom {
            value: 1.0,
            mass: 1.0,
        }])
        .unwrap();
        assert!(observe(&broken, 0, 1).is_err());
        assert!(observe(&broken, 5, 5).is_ok());
    }

    #[test]
    fn beta_conjugate_update() {
        let prior = PfdPrior::Beta(Beta::new(1.0, 99.0).unwrap());
        let post = observe(&prior, 2, 100).unwrap();
        if let PfdPosterior::Beta(b) = post {
            assert!((b.alpha() - 3.0).abs() < 1e-12);
            assert!((b.beta() - 197.0).abs() < 1e-12);
        } else {
            panic!("expected beta posterior");
        }
    }

    #[test]
    fn large_t_is_numerically_stable() {
        let prior = PfdPrior::exact_single(&model()).unwrap();
        let post = observe(&prior, 0, 10_000_000).unwrap();
        // Essentially all mass on the perfect atom.
        assert!(post.prob_perfect() > 0.999);
        assert!(post.mean() < 1e-6);
        let b = post.quantile(0.99).unwrap();
        assert!(b.is_finite());
    }

    #[test]
    fn extreme_t_keeps_admissible_atoms_in_support() {
        // t = 10^7 failure-free demands against a θ = 0.01 atom puts its
        // posterior weight at e^{-100503} — far below f64. The atom must
        // survive with a flushed-to-minimum mass, not vanish: finite
        // evidence never deletes a hypothesis outright.
        let prior = PfdPrior::from_atoms(vec![
            Atom {
                value: 0.0,
                mass: 0.5,
            },
            Atom {
                value: 0.01,
                mass: 0.5,
            },
        ])
        .unwrap();
        for t in [10_000_000u64, 1_000_000_000] {
            let post = observe(&prior, 0, t).unwrap();
            let PfdPosterior::Discrete(atoms) = &post else {
                panic!("expected discrete posterior");
            };
            assert_eq!(atoms.len(), 2, "t={t}: support collapsed");
            assert!(atoms[1].mass > 0.0, "t={t}: atom mass collapsed to 0");
            assert!(post.prob_perfect() > 0.999_999);
            // The flushed tail does not distort the headline numbers.
            assert!(post.mean() < 1e-300);
            assert_eq!(post.quantile(0.99).unwrap(), 0.0);
        }
    }

    #[test]
    fn observe_batch_matches_observe_bitwise() {
        let prior = PfdPrior::exact_single(&model()).unwrap();
        let evidence = [
            (0u64, 0u64),
            (0, 1_000),
            (2, 500),
            (10, 10),
            (0, 10_000_000),
        ];
        let batch = observe_batch(&prior, &evidence).unwrap();
        assert_eq!(batch.len(), evidence.len());
        for (&(s, t), post) in evidence.iter().zip(&batch) {
            let single = observe(&prior, s, t).unwrap();
            let (PfdPosterior::Discrete(a), PfdPosterior::Discrete(b)) = (&single, post) else {
                panic!("expected discrete posteriors");
            };
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "s={s} t={t}");
                assert_eq!(x.mass.to_bits(), y.mass.to_bits(), "s={s} t={t}");
            }
        }
        // Error cells abort the batch, matching the one-shot contract.
        assert!(matches!(
            observe_batch(&prior, &[(0, 10), (5, 3)]),
            Err(BayesError::BadEvidence { .. })
        ));
        // Beta priors batch through the conjugate path.
        let beta = PfdPrior::Beta(Beta::new(1.0, 99.0).unwrap());
        let out = observe_batch(&beta, &[(2, 100)]).unwrap();
        assert!(matches!(out[0], PfdPosterior::Beta(_)));
    }

    /// A posterior quantile as a plain scan of the normalised atoms,
    /// written independently of [`discrete_quantiles`].
    fn reference_quantile(post: &PfdPosterior, confidence: f64) -> Result<f64, BayesError> {
        let PfdPosterior::Discrete(atoms) = post else {
            return post.quantile(confidence);
        };
        if !(confidence > 0.0 && confidence < 1.0) {
            return Err(BayesError::InvalidConfig(format!(
                "confidence {confidence} not in (0, 1)"
            )));
        }
        let mut acc = 0.0;
        for a in atoms {
            acc += a.mass;
            if acc + 1e-15 >= confidence {
                return Ok(a.value);
            }
        }
        Ok(atoms.last().map(|a| a.value).unwrap_or(0.0))
    }

    /// What [`credible_bounds_batch`] must reproduce for one cell; also
    /// checks [`PfdPosterior::quantile`] against the plain scan.
    fn reference_bounds(
        prior: &PfdPrior,
        failures: u64,
        demands: u64,
        lower: f64,
        upper: f64,
    ) -> Result<(f64, f64), BayesError> {
        let post = observe(prior, failures, demands)?;
        for level in [lower, upper] {
            let bits = |r: Result<f64, BayesError>| r.map(f64::to_bits);
            assert_eq!(
                bits(post.quantile(level)),
                bits(reference_quantile(&post, level))
            );
        }
        Ok((
            reference_quantile(&post, lower)?,
            reference_quantile(&post, upper)?,
        ))
    }

    /// Asserts the batch equals the per-cell reference bit for bit: each
    /// cell alone, and the whole batch (first error wins).
    fn assert_bounds_match(prior: &PfdPrior, evidence: &[(u64, u64)], lower: f64, upper: f64) {
        let bits = |r: Result<(f64, f64), BayesError>| r.map(|(l, u)| (l.to_bits(), u.to_bits()));
        let mut expected = Vec::new();
        for &(s, t) in evidence {
            let want = reference_bounds(prior, s, t, lower, upper);
            let got = credible_bounds_batch(prior, &[(s, t)], lower, upper).map(|v| v[0]);
            assert_eq!(bits(got), bits(want.clone()), "s={s} t={t}");
            expected.push(want);
        }
        let want: Result<Vec<(f64, f64)>, BayesError> = expected.into_iter().collect();
        let got = credible_bounds_batch(prior, evidence, lower, upper);
        let to_bits = |r: Result<Vec<(f64, f64)>, BayesError>| {
            r.map(|v| {
                v.iter()
                    .map(|(l, u)| (l.to_bits(), u.to_bits()))
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(to_bits(got), to_bits(want));
    }

    #[test]
    fn credible_bounds_match_observe_and_its_errors() {
        let prior = PfdPrior::exact_single(&model()).unwrap();
        let evidence = [
            (0u64, 0u64),
            (0, 1_000),
            (2, 500),
            (10, 10),
            (0, 10_000_000),
        ];
        assert_bounds_match(&prior, &evidence, 0.01, 0.99);
        assert_bounds_match(&prior, &evidence, 0.99, 0.01);
        assert_bounds_match(&prior, &evidence, 0.5, 0.5);
        // Bad evidence, then a bad level, in the order observe and
        // quantile report them.
        assert!(matches!(
            credible_bounds_batch(&prior, &[(0, 10), (5, 3)], 0.0, 0.99),
            Err(BayesError::InvalidConfig(_))
        ));
        assert!(matches!(
            credible_bounds_batch(&prior, &[(5, 3)], 0.0, 0.99),
            Err(BayesError::BadEvidence { .. })
        ));
        assert_bounds_match(&prior, &[(5, 3)], 0.01, 0.99);
        assert_bounds_match(&prior, &[(0, 1)], 0.01, 1.0);
        // A prior certain of perfection cannot explain a failure.
        let perfect = PfdPrior::from_atoms(vec![Atom {
            value: 0.0,
            mass: 1.0,
        }])
        .unwrap();
        assert!(matches!(
            credible_bounds_batch(&perfect, &[(1, 10)], 0.01, 0.99),
            Err(BayesError::DegeneratePosterior(_))
        ));
        assert_bounds_match(&perfect, &[(0, 10), (1, 10)], 0.01, 0.99);
        // No cells, no levels checked: as mapping observe over nothing.
        assert_eq!(credible_bounds_batch(&prior, &[], 2.0, 0.5), Ok(vec![]));
        let beta = PfdPrior::Beta(Beta::new(1.0, 99.0).unwrap());
        assert_bounds_match(&beta, &[(2, 100), (0, 0), (7, 3)], 0.05, 0.95);
    }

    /// A discrete prior of 1–200 atoms that mixes θ = 0, θ = 1, tiny
    /// and ordinary θ, and zero-mass atoms, normalised for `from_atoms`.
    fn discrete_prior() -> impl Strategy<Value = PfdPrior> {
        let value = prop_oneof![Just(0.0f64), Just(1.0f64), 1e-9..1e-3f64, 0.0..=1.0f64];
        let mass = prop_oneof![Just(0.0f64), 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64];
        proptest::collection::vec((value, mass), 1..=200).prop_map(|raw| {
            let mut atoms: Vec<Atom> = raw
                .into_iter()
                .map(|(value, mass)| Atom { value, mass })
                .collect();
            let total: f64 = atoms.iter().map(|a| a.mass).sum();
            if total > 0.0 {
                for a in &mut atoms {
                    a.mass /= total;
                }
            } else {
                atoms[0].mass = 1.0;
            }
            PfdPrior::from_atoms(atoms).unwrap()
        })
    }

    /// Cell evidence: none, all failures, mixed and impossible, with
    /// demands up to 10⁹.
    fn cell_evidence() -> impl Strategy<Value = (u64, u64)> {
        prop_oneof![
            Just((0u64, 0u64)),
            (0u64..=1_000_000_000).prop_map(|t| (t, t)),
            (0u64..=1_000_000_000).prop_map(|t| (0, t)),
            (0u64..=1_000_000_000, 0u64..=1_000).prop_map(|(t, s)| (s.min(t), t)),
            (0u64..=1_000_000_000, 0.0..1.0f64).prop_map(|(t, f)| ((t as f64 * f) as u64, t)),
            (0u64..1_000, 1u64..100).prop_map(|(t, extra)| (t + extra, t)),
        ]
    }

    proptest! {
        #[test]
        fn credible_bounds_equal_observe_quantiles_bitwise(
            prior in discrete_prior(),
            evidence in proptest::collection::vec(cell_evidence(), 1..6),
            lower in 0.001..0.999f64,
            upper in 0.001..0.999f64,
        ) {
            assert_bounds_match(&prior, &evidence, lower, upper);
        }

        #[test]
        fn beta_credible_bounds_equal_observe_quantiles_bitwise(
            a in 0.1..50.0f64,
            b in 0.1..500.0f64,
            evidence in proptest::collection::vec(cell_evidence(), 1..4),
            lower in 0.001..0.5f64,
            upper in 0.5..0.999f64,
        ) {
            let prior = PfdPrior::Beta(Beta::new(a, b).unwrap());
            assert_bounds_match(&prior, &evidence, lower, upper);
        }
    }

    #[test]
    fn factored_posterior_survives_extreme_t() {
        // At t = 10^7, q = 7.465e-5 the survival factor (1-q)^t is
        // ~e^{-746.5}: below f64's subnormal floor, so the pre-log-domain
        // formula p·surv/(1-p+p·surv) returns exactly 0 — yet with
        // p = 0.99 the posterior itself (~6e-323) is still representable.
        let (p, q, t) = (0.99f64, 7.465e-5f64, 10_000_000u64);
        let naive_surv = (t as f64 * (-q).ln_1p()).exp();
        assert_eq!(naive_surv, 0.0, "test premise: naive form underflows");
        let m = FaultModel::from_params(&[p], &[q]).unwrap();
        let post = factored_fault_posterior(&m, t).unwrap();
        let p_new = post.faults()[0].p();
        assert!(p_new > 0.0, "log-domain update collapsed to 0");
        assert!(p_new < 1e-300);
        // And the log-odds form agrees with the direct formula where the
        // direct formula is healthy.
        let m2 = FaultModel::from_params(&[0.3], &[1e-4]).unwrap();
        let post2 = factored_fault_posterior(&m2, 10_000).unwrap();
        let surv = (10_000.0 * (-1e-4f64).ln_1p()).exp();
        let direct = 0.3 * surv / (1.0 - 0.3 + 0.3 * surv);
        assert!((post2.faults()[0].p() - direct).abs() < 1e-15 * direct.max(1e-30));
        // p = 1 is a fixed point, not a NaN, even when surv underflows.
        let m3 = FaultModel::from_params(&[1.0], &[q]).unwrap();
        assert_eq!(
            factored_fault_posterior(&m3, t).unwrap().faults()[0].p(),
            1.0
        );
    }

    #[test]
    fn quantile_validation_and_values() {
        let prior = PfdPrior::exact_single(&model()).unwrap();
        let post = observe(&prior, 0, 100).unwrap();
        assert!(post.quantile(0.0).is_err());
        assert!(post.quantile(1.0).is_err());
        let q50 = post.quantile(0.5).unwrap();
        let q99 = post.quantile(0.99).unwrap();
        assert!(q50 <= q99);
    }

    #[test]
    fn factored_posterior_shrinks_big_faults_fastest() {
        let m = FaultModel::from_params(&[0.3, 0.3], &[0.01, 1e-6]).unwrap();
        let post = factored_fault_posterior(&m, 10_000).unwrap();
        let p_big = post.faults()[0].p();
        let p_small = post.faults()[1].p();
        // The big-region fault would have shown itself: (1-0.01)^10000 ≈ 0.
        assert!(p_big < 1e-20);
        // The tiny-region fault is barely updated: (1-1e-6)^1e4 ≈ 0.99.
        assert!((p_small - 0.2975).abs() < 0.002);
        // q values are untouched.
        assert_eq!(post.faults()[0].q(), 0.01);
    }

    #[test]
    fn factored_posterior_with_zero_t_is_identity() {
        let m = model();
        let post = factored_fault_posterior(&m, 0).unwrap();
        assert_eq!(post, m);
    }

    proptest! {
        #[test]
        fn posterior_mean_never_exceeds_prior_mean_on_perfect_evidence(
            ps in proptest::collection::vec(0.01..0.9f64, 1..6),
            t in 1u64..50_000
        ) {
            let qs = vec![0.01; ps.len()];
            let m = FaultModel::from_params(&ps, &qs).unwrap();
            let prior = PfdPrior::exact_single(&m).unwrap();
            let post = observe(&prior, 0, t).unwrap();
            prop_assert!(post.mean() <= prior.mean() + 1e-12);
        }

        #[test]
        fn factored_posterior_probabilities_shrink(
            ps in proptest::collection::vec(0.01..0.99f64, 1..6),
            t in 0u64..100_000
        ) {
            let qs = vec![0.001; ps.len()];
            let m = FaultModel::from_params(&ps, &qs).unwrap();
            let post = factored_fault_posterior(&m, t).unwrap();
            for (before, after) in m.faults().iter().zip(post.faults()) {
                prop_assert!(after.p() <= before.p() + 1e-12);
            }
        }
    }
}
