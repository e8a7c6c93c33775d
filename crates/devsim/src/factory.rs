//! Version factory: turns a fault model plus an introduction model into a
//! stream of sampled versions and 1-out-of-2 pairs.
//!
//! This is the executable form of the paper's thought experiment of
//! "sampling from a distribution of possible versions" (§2.2, after
//! Eckhardt & Lee / Littlewood & Miller).
//!
//! Sampling runs on the bitset fast path
//! ([`crate::sampler::BitSampler`]): fault sets are drawn straight
//! into word-packed [`FaultSet`]s with expected `O(#present + 1)` RNG
//! draws, PFDs are summed by iterating set bits, and a pair's common
//! faults are one AND + popcount. The distribution is exactly that of
//! the reference one-draw-per-fault sampler
//! ([`FaultIntroduction::sample_version`]), which is kept available via
//! [`VersionFactory::sample_pair_reference`] for equivalence tests.

use crate::process::FaultIntroduction;
use crate::sampler::BitSampler;
use divrel_demand::fault_set::FaultSet;
use divrel_model::FaultModel;
use rand::Rng;
use std::sync::Arc;

/// One sampled version: its fault set and PFD under the model's
/// non-overlap semantics (`PFD = Σ qᵢ` over present faults).
#[derive(Debug, Clone, PartialEq)]
pub struct SampledVersion {
    /// The version's fault set.
    pub faults: FaultSet,
    /// The version's PFD.
    pub pfd: f64,
}

impl SampledVersion {
    /// Number of faults in the version.
    pub fn fault_count(&self) -> usize {
        self.faults.count()
    }

    /// Whether the version is fault-free.
    pub fn is_fault_free(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault set as one `bool` per potential fault (the legacy
    /// representation).
    pub fn present_bools(&self) -> Vec<bool> {
        self.faults.to_bools()
    }
}

/// One sampled 1-out-of-2 pair: both versions plus the pair's common-fault
/// PFD.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledPair {
    /// First independently developed version.
    pub a: SampledVersion,
    /// Second independently developed version.
    pub b: SampledVersion,
    /// PFD of the 1-out-of-2 system: `Σ qᵢ` over faults common to both.
    pub pfd: f64,
    /// Number of common faults.
    pub common_faults: usize,
}

impl SampledPair {
    /// An all-empty pair over `n` potential faults, for use as a
    /// reusable buffer with [`VersionFactory::sample_pair_into`].
    pub fn empty(n: usize) -> Self {
        SampledPair {
            a: SampledVersion {
                faults: FaultSet::new(n),
                pfd: 0.0,
            },
            b: SampledVersion {
                faults: FaultSet::new(n),
                pfd: 0.0,
            },
            pfd: 0.0,
            common_faults: 0,
        }
    }
}

/// Samples versions and pairs from a fault model under a chosen
/// introduction model.
///
/// ```
/// use divrel_devsim::{factory::VersionFactory, process::FaultIntroduction};
/// use divrel_model::FaultModel;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = FaultModel::uniform(5, 0.2, 0.01)?;
/// let factory = VersionFactory::new(model, FaultIntroduction::Independent)?;
/// let mut rng = StdRng::seed_from_u64(1);
/// let pair = factory.sample_pair(&mut rng);
/// assert!(pair.pfd <= pair.a.pfd.min(pair.b.pfd) + 1e-15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct VersionFactory {
    model: Arc<FaultModel>,
    introduction: FaultIntroduction,
    q: Vec<f64>,
    sampler: BitSampler,
}

impl VersionFactory {
    /// Creates a factory (precomputing the fast-path sampling tables).
    ///
    /// # Errors
    ///
    /// Propagates [`FaultIntroduction::validate`].
    pub fn new(
        model: FaultModel,
        introduction: FaultIntroduction,
    ) -> Result<Self, crate::error::DevSimError> {
        Self::shared(Arc::new(model), introduction)
    }

    /// Creates a factory over a **shared** fault model: the factory keeps
    /// the `Arc` instead of a deep copy, so sweep workers that build a
    /// factory per cell pay one refcount bump rather than cloning the
    /// model's fault vector (the ROADMAP allocation hot spot at
    /// 100k-cell scales).
    ///
    /// # Errors
    ///
    /// Propagates [`FaultIntroduction::validate`].
    pub fn shared(
        model: Arc<FaultModel>,
        introduction: FaultIntroduction,
    ) -> Result<Self, crate::error::DevSimError> {
        introduction.validate()?;
        let q = model.q_values().collect();
        let sampler = BitSampler::new(&model, introduction);
        Ok(VersionFactory {
            model,
            introduction,
            q,
            sampler,
        })
    }

    /// The underlying fault model.
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// The shared handle to the fault model (an `Arc` clone is a
    /// refcount bump, not a model copy).
    pub fn model_shared(&self) -> Arc<FaultModel> {
        Arc::clone(&self.model)
    }

    /// The introduction model in use.
    pub fn introduction(&self) -> FaultIntroduction {
        self.introduction
    }

    /// Samples one version (bitset fast path).
    pub fn sample_version<R: Rng + ?Sized>(&self, rng: &mut R) -> SampledVersion {
        let mut faults = FaultSet::new(self.model.len());
        self.sampler.sample_into(rng, &mut faults);
        let pfd = faults.sum_weights(&self.q);
        SampledVersion { faults, pfd }
    }

    /// Samples a 1-out-of-2 pair: two versions developed separately (two
    /// independent draws of the introduction model).
    pub fn sample_pair<R: Rng + ?Sized>(&self, rng: &mut R) -> SampledPair {
        let mut pair = SampledPair::empty(self.model.len());
        self.sample_pair_into(rng, &mut pair);
        pair
    }

    /// Samples a pair into a reusable buffer: the zero-allocation form
    /// of [`Self::sample_pair`] used by the Monte-Carlo shard loops.
    pub fn sample_pair_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut SampledPair) {
        self.sampler
            .sample_pair_into(rng, &mut out.a.faults, &mut out.b.faults);
        out.a.pfd = out.a.faults.sum_weights(&self.q);
        out.b.pfd = out.b.faults.sum_weights(&self.q);
        out.pfd = out.a.faults.intersect_sum_weights(&out.b.faults, &self.q);
        out.common_faults = out.a.faults.intersect_count(&out.b.faults);
    }

    /// Samples a pair with the reference one-draw-per-fault sampler —
    /// the exact seed-stream semantics of the original `Vec<bool>`
    /// implementation, kept for the fast path's equivalence tests.
    pub fn sample_pair_reference<R: Rng + ?Sized>(&self, rng: &mut R) -> SampledPair {
        let pa = self.introduction.sample_version(&self.model, rng);
        let pb = self.introduction.sample_version(&self.model, rng);
        let mut pfd = 0.0;
        let mut common = 0usize;
        for i in 0..self.q.len() {
            if pa[i] && pb[i] {
                pfd += self.q[i];
                common += 1;
            }
        }
        SampledPair {
            a: SampledVersion {
                pfd: self.pfd_of(&pa),
                faults: FaultSet::from_bools(&pa),
            },
            b: SampledVersion {
                pfd: self.pfd_of(&pb),
                faults: FaultSet::from_bools(&pb),
            },
            pfd,
            common_faults: common,
        }
    }

    /// PFD of an explicit fault set under the model's sum semantics.
    pub fn pfd_of(&self, present: &[bool]) -> f64 {
        present
            .iter()
            .zip(&self.q)
            .filter(|(&b, _)| b)
            .map(|(_, &q)| q)
            .sum()
    }

    /// PFD of a bitset fault set under the model's sum semantics.
    pub fn pfd_of_set(&self, faults: &FaultSet) -> f64 {
        faults.sum_weights(&self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn factory() -> VersionFactory {
        let model = FaultModel::from_params(&[0.5, 0.2, 0.1], &[0.01, 0.02, 0.04]).unwrap();
        VersionFactory::new(model, FaultIntroduction::Independent).unwrap()
    }

    #[test]
    fn rejects_invalid_introduction() {
        let model = FaultModel::uniform(2, 0.1, 0.01).unwrap();
        assert!(
            VersionFactory::new(model, FaultIntroduction::CommonCause { lambda: 2.0 }).is_err()
        );
    }

    #[test]
    fn pfd_of_explicit_sets() {
        let f = factory();
        assert_eq!(f.pfd_of(&[false, false, false]), 0.0);
        assert!((f.pfd_of(&[true, false, true]) - 0.05).abs() < 1e-15);
        assert!((f.pfd_of(&[true, true, true]) - 0.07).abs() < 1e-15);
        let set = FaultSet::from_bools(&[true, false, true]);
        assert!((f.pfd_of_set(&set) - 0.05).abs() < 1e-15);
    }

    #[test]
    fn sampled_version_consistency() {
        let f = factory();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..500 {
            let v = f.sample_version(&mut rng);
            assert_eq!(v.faults.universe(), 3);
            assert!((v.pfd - f.pfd_of_set(&v.faults)).abs() < 1e-15);
            assert!((v.pfd - f.pfd_of(&v.present_bools())).abs() < 1e-15);
            assert_eq!(v.is_fault_free(), v.fault_count() == 0);
        }
    }

    #[test]
    fn pair_pfd_is_common_fault_mass() {
        let f = factory();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            let p = f.sample_pair(&mut rng);
            // Pair PFD can never exceed either member's PFD.
            assert!(p.pfd <= p.a.pfd + 1e-15);
            assert!(p.pfd <= p.b.pfd + 1e-15);
            // Recompute by hand.
            let mut expect = 0.0;
            for i in 0..3 {
                if p.a.faults.contains(i) && p.b.faults.contains(i) {
                    expect += f.model().faults()[i].q();
                }
            }
            assert!((p.pfd - expect).abs() < 1e-15);
        }
    }

    #[test]
    fn fast_and_reference_paths_agree_in_distribution() {
        // Same factory, different RNG consumption: means must agree
        // within Monte-Carlo error.
        let f = factory();
        let n = 60_000;
        let mut fast_mean = 0.0;
        let mut ref_mean = 0.0;
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..n {
            fast_mean += f.sample_pair(&mut rng).pfd;
        }
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..n {
            ref_mean += f.sample_pair_reference(&mut rng).pfd;
        }
        fast_mean /= n as f64;
        ref_mean /= n as f64;
        let mu2 = f.model().mean_pfd_pair();
        let tol = 6.0 * f.model().std_pfd_pair() / (n as f64).sqrt();
        assert!((fast_mean - mu2).abs() < tol, "fast {fast_mean} vs {mu2}");
        assert!((ref_mean - mu2).abs() < tol, "ref {ref_mean} vs {mu2}");
    }

    #[test]
    fn sample_pair_into_reuses_buffer() {
        let f = factory();
        let mut rng = StdRng::seed_from_u64(4);
        let mut buf = SampledPair::empty(3);
        let mut rng2 = StdRng::seed_from_u64(4);
        for _ in 0..200 {
            f.sample_pair_into(&mut rng, &mut buf);
            let owned = f.sample_pair(&mut rng2);
            assert_eq!(buf, owned);
        }
    }

    #[test]
    fn empirical_mean_matches_eq1() {
        let f = factory();
        let mut rng = StdRng::seed_from_u64(4);
        let n = 100_000;
        let mut sum1 = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let p = f.sample_pair(&mut rng);
            sum1 += p.a.pfd;
            sum2 += p.pfd;
        }
        let mu1 = f.model().mean_pfd_single();
        let mu2 = f.model().mean_pfd_pair();
        // Std error of the mean ~ sigma/sqrt(n); use generous 6-sigma bands.
        assert!(
            (sum1 / n as f64 - mu1).abs() < 6.0 * f.model().std_pfd_single() / (n as f64).sqrt()
        );
        assert!((sum2 / n as f64 - mu2).abs() < 6.0 * f.model().std_pfd_pair() / (n as f64).sqrt());
    }

    #[test]
    fn accessors() {
        let f = factory();
        assert_eq!(f.introduction(), FaultIntroduction::Independent);
        assert_eq!(f.model().len(), 3);
    }
}
