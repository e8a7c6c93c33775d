//! The fault → failure-region mapping, including the assumption violations
//! of paper §6.2 (overlapping regions) and §6.3 (many-to-one mappings).
//!
//! The core model assumes a 1-to-1 mapping between faults and
//! non-overlapping failure regions. [`FaultRegionMap`] carries an explicit
//! geometric mapping so that:
//!
//! * `qᵢ` values can be **measured** under a profile instead of assumed,
//! * overlap between regions can be quantified ([`FaultRegionMap::overlap_matrix`],
//!   [`FaultRegionMap::total_overlap_mass`]) — the model-vs-reality gap of §6.2,
//! * several faults can share a region ([`FaultRegionMap::grouped_region_presence`])
//!   — §6.3's warning that an assessor "would be at risk of underestimating
//!   `p_max`" because the region's presence probability approaches the *sum*
//!   of the faults' probabilities.

use crate::error::DemandError;
use crate::fault_set::{words_for, FaultSet, WORD_BITS};
use crate::profile::Profile;
use crate::region::Region;
use crate::space::{Demand, GridSpace2D};
use divrel_model::{FaultModel, PotentialFault};
use std::sync::Arc;

/// A demand space together with one failure region per potential fault.
///
/// At construction the map precomputes, for every demand-space cell,
/// the bitset of faults whose failure region contains that cell. A
/// version's failure on a demand (and its whole true PFD) then reduces
/// to AND-ing its [`FaultSet`] against one mask per cell instead of
/// per-fault rectangle/lattice membership tests. The masks are shared,
/// so cloning a map (one per protection system of a campaign) is `O(1)`
/// in the size of the space.
#[derive(Debug, Clone)]
pub struct FaultRegionMap {
    space: GridSpace2D,
    regions: Vec<Region>,
    /// Words per fault bitset (`ceil(regions.len() / 64)`).
    words_per_set: usize,
    /// Flattened per-cell failure masks: cell `c` owns words
    /// `[c * words_per_set .. (c + 1) * words_per_set]`.
    cell_masks: Arc<Vec<u64>>,
}

/// Equality is defined by the geometry (space + regions); the
/// precomputed masks are derived data.
impl PartialEq for FaultRegionMap {
    fn eq(&self, other: &Self) -> bool {
        self.space == other.space && self.regions == other.regions
    }
}

impl FaultRegionMap {
    /// Creates a map, validating that every region fits the space, and
    /// precomputes the per-cell failure masks.
    ///
    /// # Errors
    ///
    /// [`DemandError::Mismatch`] for an empty region list;
    /// [`DemandError::OutOfBounds`] if a region leaves the space.
    pub fn new(space: GridSpace2D, regions: Vec<Region>) -> Result<Self, DemandError> {
        if regions.is_empty() {
            return Err(DemandError::Mismatch("no regions supplied".into()));
        }
        for r in &regions {
            r.validate_within(&space)?;
        }
        let words_per_set = words_for(regions.len());
        let mut cell_masks = vec![0u64; space.cell_count() * words_per_set];
        for (fault, region) in regions.iter().enumerate() {
            let word = fault / WORD_BITS;
            let bit = 1u64 << (fault % WORD_BITS);
            region.for_each_cell(&space, &mut |cell| {
                cell_masks[cell * words_per_set + word] |= bit;
            });
        }
        Ok(FaultRegionMap {
            space,
            regions,
            words_per_set,
            cell_masks: Arc::new(cell_masks),
        })
    }

    /// Words per fault bitset in the precomputed masks.
    pub fn words_per_set(&self) -> usize {
        self.words_per_set
    }

    /// The failure mask of one demand-space cell: the bitset of faults
    /// whose region contains the cell.
    #[inline]
    pub fn cell_mask(&self, cell: usize) -> &[u64] {
        &self.cell_masks[cell * self.words_per_set..(cell + 1) * self.words_per_set]
    }

    /// Whether a version holding exactly `faults` fails on `demand`:
    /// one AND against the demand cell's failure mask. Demands outside
    /// the space hit no region and return `false` (regions are
    /// validated to lie within the space).
    #[inline]
    pub fn set_fails_on(&self, faults: &FaultSet, demand: Demand) -> bool {
        match self.space.index_of(demand) {
            Ok(cell) => faults.intersects_words(self.cell_mask(cell)),
            Err(_) => false,
        }
    }

    /// The failure bitmap of a version holding exactly `faults`: bit
    /// `c % 64` of word `c / 64` is set where the version fails on cell
    /// `c` — [`Self::set_fails_on`] for every cell at once, built from
    /// the faults' region cells in `O(region cells)` instead of a scan
    /// of the space.
    pub fn failure_bitmap(&self, faults: &FaultSet) -> Vec<u64> {
        let mut bits = vec![0u64; words_for(self.space.cell_count())];
        for fault in faults.iter_ones() {
            if let Some(region) = self.regions.get(fault) {
                region.for_each_cell(&self.space, &mut |cell| {
                    bits[cell / WORD_BITS] |= 1u64 << (cell % WORD_BITS);
                });
            }
        }
        bits
    }

    /// True PFD of a version holding exactly `faults`: the profile
    /// measure of the union of their regions, computed as one AND +
    /// test per cell against the precomputed masks.
    ///
    /// Falls back to the geometric union for a profile over a different
    /// space (where clipping semantics could differ).
    pub fn union_pfd_set(&self, faults: &FaultSet, profile: &Profile) -> f64 {
        if profile.space() != &self.space {
            let parts: Vec<Region> = faults
                .iter_ones()
                .filter_map(|i| self.regions.get(i).cloned())
                .collect();
            return Region::union(parts).measure(profile);
        }
        let probs = profile.probs();
        let wps = self.words_per_set;
        let mut pfd = 0.0;
        if wps == 1 {
            // Hot case (≤ 64 faults): one AND per cell.
            let v = faults.words().first().copied().unwrap_or(0);
            for (cell, chunk) in self.cell_masks.iter().enumerate() {
                if chunk & v != 0 {
                    pfd += probs[cell];
                }
            }
        } else {
            for (cell, chunk) in self.cell_masks.chunks_exact(wps).enumerate() {
                if faults.intersects_words(chunk) {
                    pfd += probs[cell];
                }
            }
        }
        pfd
    }

    /// The demand space.
    pub fn space(&self) -> &GridSpace2D {
        &self.space
    }

    /// The regions, indexed by fault.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Number of potential faults.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the map is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The measured `qᵢ` of every region under `profile`.
    pub fn q_values(&self, profile: &Profile) -> Vec<f64> {
        self.regions.iter().map(|r| r.measure(profile)).collect()
    }

    /// Builds the paper's [`FaultModel`] from introduction probabilities
    /// `ps` and the *measured* region probabilities — the bridge from
    /// geometry to the analytical model.
    ///
    /// # Errors
    ///
    /// [`DemandError::Mismatch`] if `ps.len() != self.len()`; model
    /// validation errors otherwise.
    pub fn to_fault_model(&self, ps: &[f64], profile: &Profile) -> Result<FaultModel, DemandError> {
        if ps.len() != self.regions.len() {
            return Err(DemandError::Mismatch(format!(
                "{} probabilities for {} regions",
                ps.len(),
                self.regions.len()
            )));
        }
        let faults = ps
            .iter()
            .zip(self.q_values(profile))
            .map(|(&p, q)| PotentialFault::new(p, q))
            .collect::<Result<Vec<_>, _>>()
            .map_err(DemandError::from)?;
        FaultModel::new(faults).map_err(DemandError::from)
    }

    /// Pairwise overlap measures: entry `(i, j)` is the probability mass of
    /// `regionᵢ ∩ regionⱼ` under `profile` (diagonal = region measures).
    #[allow(clippy::needless_range_loop)] // symmetric-matrix fill reads best indexed
    pub fn overlap_matrix(&self, profile: &Profile) -> Vec<Vec<f64>> {
        let n = self.regions.len();
        let mut m = vec![vec![0.0; n]; n];
        for i in 0..n {
            m[i][i] = self.regions[i].measure(profile);
            for j in (i + 1)..n {
                let o = self.regions[i].overlap_measure(&self.regions[j], profile);
                m[i][j] = o;
                m[j][i] = o;
            }
        }
        m
    }

    /// Total probability mass counted more than once when summing region
    /// measures: `Σᵢ qᵢ − measure(∪ᵢ regionᵢ)`. Zero exactly when the
    /// paper's §6.2 non-overlap assumption holds.
    pub fn total_overlap_mass(&self, profile: &Profile) -> f64 {
        let sum: f64 = self.q_values(profile).iter().sum();
        let union = Region::union(self.regions.clone()).measure(profile);
        (sum - union).max(0.0)
    }

    /// True PFD of a version containing exactly the faults in `fault_set`:
    /// the measure of the **union** of their regions (overlaps counted
    /// once). The core model's sum `Σ qᵢ` over-counts any overlap — §6.2's
    /// pessimism, quantified.
    ///
    /// # Errors
    ///
    /// [`DemandError::OutOfBounds`] for a fault index outside the map.
    pub fn union_pfd(&self, fault_set: &[usize], profile: &Profile) -> Result<f64, DemandError> {
        let set = FaultSet::from_indices(self.regions.len(), fault_set)?;
        Ok(self.union_pfd_set(&set, profile))
    }

    /// The core model's *sum* PFD for the same fault set (`Σ qᵢ`), for
    /// comparison with [`Self::union_pfd`].
    ///
    /// # Errors
    ///
    /// [`DemandError::OutOfBounds`] for a fault index outside the map.
    pub fn sum_pfd(&self, fault_set: &[usize], profile: &Profile) -> Result<f64, DemandError> {
        let parts = self.gather(fault_set)?;
        Ok(parts.iter().map(|r| r.measure(profile)).sum())
    }

    /// §6.3: presence probability of each *distinct region* when several
    /// faults map onto it. `groups[g]` lists the fault indices (into `ps`)
    /// that would each independently create region `g`; the region is
    /// present iff at least one of them is made:
    /// `P(region g) = 1 − Π (1 − pⱼ)` — which approaches the **sum** of
    /// the faults' probabilities, the quantity the paper warns an assessor
    /// will underestimate by taking only `max pⱼ`.
    ///
    /// Returns `(presence probability, max component pⱼ)` per group so the
    /// underestimation factor is directly readable.
    ///
    /// # Errors
    ///
    /// [`DemandError::OutOfBounds`] for fault indices outside `ps`;
    /// [`DemandError::InvalidWeights`] for non-probability entries.
    pub fn grouped_region_presence(
        ps: &[f64],
        groups: &[Vec<usize>],
    ) -> Result<Vec<(f64, f64)>, DemandError> {
        for &p in ps {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(DemandError::InvalidWeights(format!(
                    "probability {p} out of range"
                )));
            }
        }
        groups
            .iter()
            .map(|g| {
                let mut none = 1.0_f64;
                let mut max_p = 0.0_f64;
                for &j in g {
                    let p = *ps.get(j).ok_or_else(|| DemandError::OutOfBounds {
                        what: format!("fault index {j}"),
                    })?;
                    none *= 1.0 - p;
                    max_p = max_p.max(p);
                }
                Ok((1.0 - none, max_p))
            })
            .collect()
    }

    fn gather(&self, fault_set: &[usize]) -> Result<Vec<Region>, DemandError> {
        fault_set
            .iter()
            .map(|&i| {
                self.regions
                    .get(i)
                    .cloned()
                    .ok_or_else(|| DemandError::OutOfBounds {
                        what: format!("fault index {i}"),
                    })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Demand;

    fn setup() -> (FaultRegionMap, Profile) {
        let space = GridSpace2D::new(10, 10).unwrap();
        let profile = Profile::uniform(&space);
        let map = FaultRegionMap::new(
            space,
            vec![
                Region::rect(0, 0, 1, 1),            // 4 cells, q = 0.04
                Region::rect(1, 1, 2, 2),            // 4 cells, overlaps 1 cell with #0
                Region::points([Demand::new(9, 9)]), // 1 cell
            ],
        )
        .unwrap();
        (map, profile)
    }

    #[test]
    fn construction_validates() {
        let space = GridSpace2D::new(5, 5).unwrap();
        assert!(FaultRegionMap::new(space, vec![]).is_err());
        assert!(FaultRegionMap::new(space, vec![Region::rect(0, 0, 5, 5)]).is_err());
        let ok = FaultRegionMap::new(space, vec![Region::rect(0, 0, 4, 4)]).unwrap();
        assert_eq!(ok.len(), 1);
        assert!(!ok.is_empty());
    }

    #[test]
    fn q_values_are_measures() {
        let (map, profile) = setup();
        let q = map.q_values(&profile);
        assert!((q[0] - 0.04).abs() < 1e-12);
        assert!((q[1] - 0.04).abs() < 1e-12);
        assert!((q[2] - 0.01).abs() < 1e-12);
    }

    #[test]
    fn to_fault_model_bridges_geometry() {
        let (map, profile) = setup();
        let m = map.to_fault_model(&[0.5, 0.2, 0.1], &profile).unwrap();
        assert_eq!(m.len(), 3);
        assert!((m.faults()[0].q() - 0.04).abs() < 1e-12);
        assert!((m.mean_pfd_single() - (0.5 * 0.04 + 0.2 * 0.04 + 0.1 * 0.01)).abs() < 1e-12);
        assert!(map.to_fault_model(&[0.5], &profile).is_err());
        assert!(map.to_fault_model(&[0.5, 0.2, 1.4], &profile).is_err());
    }

    #[test]
    fn overlap_matrix_is_symmetric_with_measures_on_diagonal() {
        let (map, profile) = setup();
        let m = map.overlap_matrix(&profile);
        assert!((m[0][0] - 0.04).abs() < 1e-12);
        assert!((m[0][1] - 0.01).abs() < 1e-12); // single shared cell (1,1)
        assert_eq!(m[0][1], m[1][0]);
        assert_eq!(m[0][2], 0.0);
    }

    #[test]
    fn total_overlap_mass_quantifies_section_6_2() {
        let (map, profile) = setup();
        // Sum = 0.09, union = 0.08 (one shared cell) -> overlap mass 0.01.
        assert!((map.total_overlap_mass(&profile) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn union_pfd_vs_sum_pfd() {
        let (map, profile) = setup();
        let union = map.union_pfd(&[0, 1], &profile).unwrap();
        let sum = map.sum_pfd(&[0, 1], &profile).unwrap();
        assert!((union - 0.07).abs() < 1e-12);
        assert!((sum - 0.08).abs() < 1e-12);
        assert!(union <= sum); // §6.2: model is pessimistic
        assert!(map.union_pfd(&[7], &profile).is_err());
        assert_eq!(map.union_pfd(&[], &profile).unwrap(), 0.0);
    }

    #[test]
    fn grouped_presence_exceeds_max_component() {
        // §6.3: two faults of p = 0.1 sharing a region give presence 0.19,
        // nearly double the max component 0.1.
        let res =
            FaultRegionMap::grouped_region_presence(&[0.1, 0.1, 0.05], &[vec![0, 1], vec![2]])
                .unwrap();
        assert!((res[0].0 - 0.19).abs() < 1e-12);
        assert!((res[0].1 - 0.1).abs() < 1e-15);
        assert!(res[0].0 > res[0].1);
        assert!((res[1].0 - 0.05).abs() < 1e-12);
        assert!(FaultRegionMap::grouped_region_presence(&[0.1], &[vec![3]]).is_err());
        assert!(FaultRegionMap::grouped_region_presence(&[1.4], &[vec![0]]).is_err());
    }

    #[test]
    fn empty_group_has_zero_presence() {
        let res = FaultRegionMap::grouped_region_presence(&[0.1], &[vec![]]).unwrap();
        assert_eq!(res[0], (0.0, 0.0));
    }

    #[test]
    fn failure_bitmap_matches_per_cell_lookup() {
        let (map, _) = setup();
        let space = *map.space();
        for indices in [vec![], vec![0], vec![1, 2], vec![0, 1, 2]] {
            let faults = FaultSet::from_indices(map.len(), &indices).unwrap();
            let bits = map.failure_bitmap(&faults);
            for (cell, d) in space.demands().enumerate() {
                let bit = bits[cell / WORD_BITS] >> (cell % WORD_BITS) & 1 == 1;
                assert_eq!(bit, map.set_fails_on(&faults, d), "{indices:?} cell {cell}");
            }
        }
        // Clones share the masks and compare equal.
        let copy = map.clone();
        assert!(Arc::ptr_eq(&copy.cell_masks, &map.cell_masks));
        assert_eq!(copy, map);
    }
}
