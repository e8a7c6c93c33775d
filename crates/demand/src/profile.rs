//! Operational profiles: probability distributions over the demand space.
//!
//! "Each demand in the demand space has a certain (possibly unknown)
//! probability of happening during the operation of the controlled system"
//! (paper §2.1). A [`Profile`] assigns that probability to every cell of a
//! [`GridSpace2D`] and supports O(1) sampling via the Walker–Vose alias
//! method, so Monte-Carlo operation (the `divrel-protection` plant) can
//! draw millions of demands cheaply.

use crate::error::DemandError;
use crate::space::{Demand, GridSpace2D};
use rand::Rng;
use std::sync::OnceLock;

/// A probability distribution over the demands of a [`GridSpace2D`].
///
/// ```
/// use divrel_demand::{profile::Profile, space::{Demand, GridSpace2D}};
///
/// let space = GridSpace2D::new(4, 4)?;
/// let p = Profile::uniform(&space);
/// assert!((p.prob(Demand::new(0, 0)) - 1.0 / 16.0).abs() < 1e-15);
/// # Ok::<(), divrel_demand::DemandError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Profile {
    space: GridSpace2D,
    probs: Vec<f64>,
    /// Walker–Vose `(alias, accept)` tables, built on the first
    /// [`Profile::sample`]: callers that only read probabilities (exact
    /// PFDs, Markov and trajectory plants) never pay for them.
    alias: OnceLock<(Vec<u32>, Vec<f64>)>,
}

impl Profile {
    /// The uniform profile: every demand equally likely.
    pub fn uniform(space: &GridSpace2D) -> Self {
        let n = space.cell_count();
        let probs = vec![1.0 / n as f64; n];
        Self::from_normalised(*space, probs)
    }

    /// Builds a profile from arbitrary non-negative weights (normalised
    /// internally).
    ///
    /// # Errors
    ///
    /// [`DemandError::Mismatch`] if `weights.len() != space.cell_count()`;
    /// [`DemandError::InvalidWeights`] for negative/non-finite weights or
    /// an all-zero vector.
    pub fn from_weights(space: &GridSpace2D, weights: Vec<f64>) -> Result<Self, DemandError> {
        if weights.len() != space.cell_count() {
            return Err(DemandError::Mismatch(format!(
                "{} weights for a space of {} cells",
                weights.len(),
                space.cell_count()
            )));
        }
        let mut total = 0.0;
        for &w in &weights {
            if !w.is_finite() || w < 0.0 {
                return Err(DemandError::InvalidWeights(format!(
                    "weight {w} is negative or non-finite"
                )));
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(DemandError::InvalidWeights("all weights are zero".into()));
        }
        let probs = weights.into_iter().map(|w| w / total).collect();
        Ok(Self::from_normalised(*space, probs))
    }

    /// A "hotspot" profile: a uniform background carrying
    /// `1 − hotspot_mass` of the probability, plus `hotspot_mass` spread
    /// equally over the given centre cells. Models plants whose demands
    /// cluster around particular operating points.
    ///
    /// # Errors
    ///
    /// [`DemandError::OutOfBounds`] if a centre lies outside the space;
    /// [`DemandError::InvalidWeights`] unless `0 ≤ hotspot_mass ≤ 1` (or
    /// centres are empty while `hotspot_mass > 0`).
    pub fn hotspot(
        space: &GridSpace2D,
        centres: &[Demand],
        hotspot_mass: f64,
    ) -> Result<Self, DemandError> {
        if !(0.0..=1.0).contains(&hotspot_mass) || !hotspot_mass.is_finite() {
            return Err(DemandError::InvalidWeights(format!(
                "hotspot mass {hotspot_mass} not in [0, 1]"
            )));
        }
        if centres.is_empty() && hotspot_mass > 0.0 {
            return Err(DemandError::InvalidWeights(
                "hotspot mass with no centres".into(),
            ));
        }
        let n = space.cell_count();
        let mut probs = vec![(1.0 - hotspot_mass) / n as f64; n];
        for c in centres {
            let idx = space.index_of(*c)?;
            probs[idx] += hotspot_mass / centres.len() as f64;
        }
        Ok(Self::from_normalised(*space, probs))
    }

    fn from_normalised(space: GridSpace2D, probs: Vec<f64>) -> Self {
        Profile {
            space,
            probs,
            alias: OnceLock::new(),
        }
    }

    /// The demand space this profile is defined on.
    pub fn space(&self) -> &GridSpace2D {
        &self.space
    }

    /// Probability of one demand (0 for demands outside the space).
    pub fn prob(&self, d: Demand) -> f64 {
        match self.space.index_of(d) {
            Ok(i) => self.probs[i],
            Err(_) => 0.0,
        }
    }

    /// The full probability vector in row-major order.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Draws one demand via the alias method (O(1) per draw).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Demand {
        let (alias, accept) = self.alias.get_or_init(|| build_alias_tables(&self.probs));
        let n = self.probs.len();
        let i = rng.gen_range(0..n);
        let coin: f64 = rng.gen();
        let idx = if coin < accept[i] {
            i
        } else {
            alias[i] as usize
        };
        self.space
            .demand_at(idx)
            .expect("alias index in range by construction")
    }

    /// Total probability of an arbitrary set of demand indices (used by
    /// region measures).
    pub(crate) fn mass_of_indices<I: IntoIterator<Item = usize>>(&self, idx: I) -> f64 {
        idx.into_iter().map(|i| self.probs[i]).sum()
    }
}

/// Builds Walker–Vose alias tables for a normalised probability vector.
fn build_alias_tables(probs: &[f64]) -> (Vec<u32>, Vec<f64>) {
    let n = probs.len();
    let mut accept = vec![0.0_f64; n];
    let mut alias = vec![0_u32; n];
    let mut small = Vec::with_capacity(n);
    let mut large = Vec::with_capacity(n);
    let mut scaled: Vec<f64> = probs.iter().map(|p| p * n as f64).collect();
    for (i, &s) in scaled.iter().enumerate() {
        if s < 1.0 {
            small.push(i);
        } else {
            large.push(i);
        }
    }
    while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
        small.pop();
        accept[s] = scaled[s];
        alias[s] = l as u32;
        scaled[l] = (scaled[l] + scaled[s]) - 1.0;
        if scaled[l] < 1.0 {
            large.pop();
            small.push(l);
        }
    }
    for i in large {
        accept[i] = 1.0;
    }
    for i in small {
        accept[i] = 1.0;
    }
    (alias, accept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_profile_probabilities() {
        let s = GridSpace2D::new(5, 4).unwrap();
        let p = Profile::uniform(&s);
        for d in s.demands() {
            assert!((p.prob(d) - 0.05).abs() < 1e-15);
        }
        assert_eq!(p.prob(Demand::new(99, 99)), 0.0);
        let total: f64 = p.probs().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_weights_normalises() {
        let s = GridSpace2D::new(2, 2).unwrap();
        let p = Profile::from_weights(&s, vec![1.0, 1.0, 2.0, 0.0]).unwrap();
        assert!((p.prob(Demand::new(0, 0)) - 0.25).abs() < 1e-15);
        assert!((p.prob(Demand::new(0, 1)) - 0.5).abs() < 1e-15);
        assert_eq!(p.prob(Demand::new(1, 1)), 0.0);
    }

    #[test]
    fn from_weights_validates() {
        let s = GridSpace2D::new(2, 2).unwrap();
        assert!(Profile::from_weights(&s, vec![1.0; 3]).is_err());
        assert!(Profile::from_weights(&s, vec![1.0, -1.0, 1.0, 1.0]).is_err());
        assert!(Profile::from_weights(&s, vec![0.0; 4]).is_err());
        assert!(Profile::from_weights(&s, vec![f64::NAN, 1.0, 1.0, 1.0]).is_err());
    }

    #[test]
    fn hotspot_profile_masses() {
        let s = GridSpace2D::new(10, 10).unwrap();
        let centres = [Demand::new(5, 5), Demand::new(2, 7)];
        let p = Profile::hotspot(&s, &centres, 0.5).unwrap();
        // Each centre gets 0.25 plus background 0.005.
        assert!((p.prob(Demand::new(5, 5)) - 0.255).abs() < 1e-12);
        assert!((p.prob(Demand::new(0, 0)) - 0.005).abs() < 1e-12);
        let total: f64 = p.probs().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hotspot_validation() {
        let s = GridSpace2D::new(4, 4).unwrap();
        assert!(Profile::hotspot(&s, &[Demand::new(9, 0)], 0.5).is_err());
        assert!(Profile::hotspot(&s, &[], 0.5).is_err());
        assert!(Profile::hotspot(&s, &[Demand::new(0, 0)], 1.5).is_err());
        // Zero mass with no centres is fine (it's just uniform).
        assert!(Profile::hotspot(&s, &[], 0.0).is_ok());
    }

    #[test]
    fn alias_sampling_matches_probabilities() {
        let s = GridSpace2D::new(3, 1).unwrap();
        let p = Profile::from_weights(&s, vec![0.6, 0.3, 0.1]).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let mut counts = [0u32; 3];
        for _ in 0..n {
            let d = p.sample(&mut rng);
            counts[d.var1 as usize] += 1;
        }
        // Binomial std dev at p=0.6, n=2e5 is ~0.0011; allow 5 sigma.
        assert!((counts[0] as f64 / n as f64 - 0.6).abs() < 0.006);
        assert!((counts[1] as f64 / n as f64 - 0.3).abs() < 0.006);
        assert!((counts[2] as f64 / n as f64 - 0.1).abs() < 0.006);
    }

    #[test]
    fn alias_handles_degenerate_point_mass() {
        let s = GridSpace2D::new(4, 1).unwrap();
        let p = Profile::from_weights(&s, vec![0.0, 0.0, 1.0, 0.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(p.sample(&mut rng), Demand::new(2, 0));
        }
    }

    #[test]
    fn alias_tables_are_built_on_first_sample_only() {
        let s = GridSpace2D::new(5, 3).unwrap();
        let weights: Vec<f64> = (0..15).map(|i| (i % 4 + 1) as f64).collect();
        let p = Profile::from_weights(&s, weights).unwrap();
        assert!(
            p.alias.get().is_none(),
            "construction must not build tables"
        );
        let fresh = p.clone();
        let mut a = StdRng::seed_from_u64(3);
        let first: Vec<Demand> = (0..500).map(|_| p.sample(&mut a)).collect();
        assert!(p.alias.get().is_some());
        assert!(fresh.alias.get().is_none(), "clones build their own tables");
        // A warm clone and a cold one draw the same stream.
        let warm = p.clone();
        let mut b = StdRng::seed_from_u64(3);
        let mut c = StdRng::seed_from_u64(3);
        for &want in &first {
            assert_eq!(fresh.sample(&mut b), want);
            assert_eq!(warm.sample(&mut c), want);
        }
    }

    #[test]
    fn mass_of_indices_sums() {
        let s = GridSpace2D::new(2, 2).unwrap();
        let p = Profile::from_weights(&s, vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        assert!((p.mass_of_indices([0, 3]) - 0.5).abs() < 1e-15);
        assert_eq!(p.mass_of_indices(std::iter::empty()), 0.0);
    }
}
