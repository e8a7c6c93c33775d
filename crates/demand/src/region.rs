//! Failure regions — paper §2.1 and Fig 2.
//!
//! "A design fault in a version consists in the fact that, for one or more
//! possible demands, that version will not respond as required. … Any set
//! of demands on which a version will fail is called a failure region."
//! Fig 2 and the studies the paper cites \[9, 10, 11\] report simple blobs
//! **and** "non-intuitive shapes, including non-connected regions like
//! arrays of separate points or lines" — hence the [`Region`] variants
//! below.

use crate::error::DemandError;
use crate::profile::Profile;
use crate::space::{Demand, GridSpace2D};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A failure region: a set of demands on which a faulty version fails.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Region {
    /// An axis-aligned rectangle `[x0, x1] × [y0, y1]` (inclusive).
    Rect {
        /// Left column.
        x0: u32,
        /// Bottom row.
        y0: u32,
        /// Right column (inclusive).
        x1: u32,
        /// Top row (inclusive).
        y1: u32,
    },
    /// An explicit, possibly scattered set of demands.
    Points(Vec<Demand>),
    /// A regular array of isolated points: `count` points starting at
    /// `(x0, y0)` advancing by `(dx, dy)` per step. With `dy = 0` this is a
    /// dashed horizontal line; with `dx = dy` a diagonal — the
    /// "arrays of separate points or lines" of Fig 2.
    Lattice {
        /// Start column.
        x0: u32,
        /// Start row.
        y0: u32,
        /// Column stride per point.
        dx: u32,
        /// Row stride per point.
        dy: u32,
        /// Number of points.
        count: u32,
    },
    /// A union of sub-regions (overlap between members is handled
    /// correctly: each demand counts once).
    Union(Vec<Region>),
}

impl Region {
    /// Convenience constructor for [`Region::Rect`].
    pub fn rect(x0: u32, y0: u32, x1: u32, y1: u32) -> Region {
        Region::Rect { x0, y0, x1, y1 }
    }

    /// Convenience constructor for [`Region::Points`].
    pub fn points<I: IntoIterator<Item = Demand>>(pts: I) -> Region {
        Region::Points(pts.into_iter().collect())
    }

    /// Convenience constructor for [`Region::Lattice`].
    pub fn lattice(x0: u32, y0: u32, dx: u32, dy: u32, count: u32) -> Region {
        Region::Lattice {
            x0,
            y0,
            dx,
            dy,
            count,
        }
    }

    /// Convenience constructor for [`Region::Union`].
    pub fn union<I: IntoIterator<Item = Region>>(parts: I) -> Region {
        Region::Union(parts.into_iter().collect())
    }

    /// Whether the demand lies in this region.
    pub fn contains(&self, d: Demand) -> bool {
        match self {
            Region::Rect { x0, y0, x1, y1 } => {
                d.var1 >= *x0 && d.var1 <= *x1 && d.var2 >= *y0 && d.var2 <= *y1
            }
            Region::Points(pts) => pts.contains(&d),
            Region::Lattice {
                x0,
                y0,
                dx,
                dy,
                count,
            } => {
                for i in 0..*count {
                    let x = *x0 as u64 + *dx as u64 * i as u64;
                    let y = *y0 as u64 + *dy as u64 * i as u64;
                    if d.var1 as u64 == x && d.var2 as u64 == y {
                        return true;
                    }
                }
                false
            }
            Region::Union(parts) => parts.iter().any(|r| r.contains(d)),
        }
    }

    /// The distinct cells of the region clipped to `space`, as sorted
    /// linear indices. Duplicate cells (e.g. from overlapping union
    /// members) appear once.
    pub fn cell_indices(&self, space: &GridSpace2D) -> Vec<usize> {
        let mut set = BTreeSet::new();
        self.for_each_cell(space, &mut |i| {
            set.insert(i);
        });
        set.into_iter().collect()
    }

    /// Calls `f` with the linear index of every cell of the region
    /// clipped to `space`, in no particular order and possibly more than
    /// once per cell (overlapping union members, repeated points).
    /// `O(region cells)` with no allocation: the enumeration behind
    /// [`Self::cell_indices`] and the per-cell failure masks.
    pub(crate) fn for_each_cell<F: FnMut(usize)>(&self, space: &GridSpace2D, f: &mut F) {
        let (nx, ny) = (space.nx(), space.ny());
        match self {
            Region::Rect { x0, y0, x1, y1 } => {
                let x_hi = (*x1).min(nx.saturating_sub(1));
                let y_hi = (*y1).min(ny.saturating_sub(1));
                for y in *y0..=y_hi {
                    let row = y as usize * nx as usize;
                    for x in *x0..=x_hi {
                        f(row + x as usize);
                    }
                }
            }
            Region::Points(pts) => {
                for d in pts {
                    if let Ok(i) = space.index_of(*d) {
                        f(i);
                    }
                }
            }
            Region::Lattice {
                x0,
                y0,
                dx,
                dy,
                count,
            } => {
                for i in 0..*count {
                    let x = *x0 as u64 + *dx as u64 * i as u64;
                    let y = *y0 as u64 + *dy as u64 * i as u64;
                    if x < nx as u64 && y < ny as u64 {
                        f(y as usize * nx as usize + x as usize);
                    }
                }
            }
            Region::Union(parts) => {
                for r in parts {
                    r.for_each_cell(space, f);
                }
            }
        }
    }

    /// Number of distinct cells the region occupies within `space`.
    pub fn cell_count(&self, space: &GridSpace2D) -> usize {
        self.cell_indices(space).len()
    }

    /// The region's probability under `profile` — the paper's `qᵢ`:
    /// "the probability that a demand will be in these regions".
    pub fn measure(&self, profile: &Profile) -> f64 {
        profile.mass_of_indices(self.cell_indices(profile.space()))
    }

    /// Probability of the *intersection* of two regions under `profile`
    /// (the §6.2 overlap the core model assumes away).
    pub fn overlap_measure(&self, other: &Region, profile: &Profile) -> f64 {
        let a: BTreeSet<usize> = self.cell_indices(profile.space()).into_iter().collect();
        let mass: f64 = other
            .cell_indices(profile.space())
            .into_iter()
            .filter(|i| a.contains(i))
            .map(|i| profile.probs()[i])
            .sum();
        mass
    }

    /// Validates that the region lies entirely within `space`.
    ///
    /// # Errors
    ///
    /// [`DemandError::OutOfBounds`] naming the offending part.
    pub fn validate_within(&self, space: &GridSpace2D) -> Result<(), DemandError> {
        match self {
            Region::Rect { x0, y0, x1, y1 } => {
                if x0 > x1 || y0 > y1 {
                    return Err(DemandError::OutOfBounds {
                        what: format!("degenerate rect [{x0},{x1}]×[{y0},{y1}]"),
                    });
                }
                if *x1 >= space.nx() || *y1 >= space.ny() {
                    return Err(DemandError::OutOfBounds {
                        what: format!("rect corner ({x1}, {y1}) outside {space}"),
                    });
                }
                Ok(())
            }
            Region::Points(pts) => {
                for d in pts {
                    if !space.contains(*d) {
                        return Err(DemandError::OutOfBounds {
                            what: format!("point {d} outside {space}"),
                        });
                    }
                }
                Ok(())
            }
            Region::Lattice {
                x0,
                y0,
                dx,
                dy,
                count,
            } => {
                if *count == 0 {
                    return Ok(());
                }
                let last = (*count - 1) as u64;
                let x_end = *x0 as u64 + *dx as u64 * last;
                let y_end = *y0 as u64 + *dy as u64 * last;
                if x_end >= space.nx() as u64 || y_end >= space.ny() as u64 {
                    return Err(DemandError::OutOfBounds {
                        what: format!("lattice end ({x_end}, {y_end}) outside {space}"),
                    });
                }
                Ok(())
            }
            Region::Union(parts) => {
                for r in parts {
                    r.validate_within(space)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn space() -> GridSpace2D {
        GridSpace2D::new(20, 20).unwrap()
    }

    #[test]
    fn rect_membership_and_count() {
        let r = Region::rect(2, 3, 5, 6);
        assert!(r.contains(Demand::new(2, 3)));
        assert!(r.contains(Demand::new(5, 6)));
        assert!(!r.contains(Demand::new(6, 6)));
        assert!(!r.contains(Demand::new(2, 7)));
        assert_eq!(r.cell_count(&space()), 16);
    }

    #[test]
    fn points_membership() {
        let r = Region::points([Demand::new(1, 1), Demand::new(4, 9)]);
        assert!(r.contains(Demand::new(4, 9)));
        assert!(!r.contains(Demand::new(4, 8)));
        assert_eq!(r.cell_count(&space()), 2);
    }

    #[test]
    fn lattice_shapes() {
        // Dashed horizontal line: 5 points spaced 3 apart.
        let line = Region::lattice(0, 10, 3, 0, 5);
        assert!(line.contains(Demand::new(0, 10)));
        assert!(line.contains(Demand::new(12, 10)));
        assert!(!line.contains(Demand::new(1, 10)));
        assert_eq!(line.cell_count(&space()), 5);
        // Diagonal.
        let diag = Region::lattice(0, 0, 1, 1, 8);
        assert!(diag.contains(Demand::new(7, 7)));
        assert!(!diag.contains(Demand::new(7, 6)));
    }

    #[test]
    fn union_dedupes_overlap() {
        let r = Region::union([Region::rect(0, 0, 4, 4), Region::rect(3, 3, 6, 6)]);
        // 25 + 16 - 4 (overlap 3..4 × 3..4) = 37
        assert_eq!(r.cell_count(&space()), 37);
        assert!(r.contains(Demand::new(6, 6)));
        assert!(r.contains(Demand::new(0, 0)));
        assert!(!r.contains(Demand::new(7, 7)));
    }

    #[test]
    fn measure_under_uniform_profile() {
        let s = space();
        let p = Profile::uniform(&s);
        let r = Region::rect(0, 0, 9, 9); // 100 of 400 cells
        assert!((r.measure(&p) - 0.25).abs() < 1e-12);
        let empty = Region::points(std::iter::empty());
        assert_eq!(empty.measure(&p), 0.0);
    }

    #[test]
    fn measure_under_hotspot_profile() {
        let s = space();
        let p = Profile::hotspot(&s, &[Demand::new(5, 5)], 0.9).unwrap();
        let covering = Region::rect(5, 5, 5, 5);
        // 0.9 hotspot + 0.1/400 background
        assert!((covering.measure(&p) - (0.9 + 0.1 / 400.0)).abs() < 1e-12);
    }

    #[test]
    fn overlap_measure() {
        let s = space();
        let p = Profile::uniform(&s);
        let a = Region::rect(0, 0, 4, 4);
        let b = Region::rect(3, 3, 6, 6);
        // Overlap is 2×2 cells of 400.
        assert!((a.overlap_measure(&b, &p) - 4.0 / 400.0).abs() < 1e-12);
        assert!((b.overlap_measure(&a, &p) - 4.0 / 400.0).abs() < 1e-12);
        let far = Region::rect(10, 10, 12, 12);
        assert_eq!(a.overlap_measure(&far, &p), 0.0);
    }

    #[test]
    fn regions_are_clipped_to_space() {
        let s = GridSpace2D::new(5, 5).unwrap();
        let r = Region::rect(3, 3, 10, 10);
        assert_eq!(r.cell_count(&s), 4); // 3..4 × 3..4
        let l = Region::lattice(0, 0, 2, 2, 10);
        assert_eq!(l.cell_count(&s), 3); // (0,0), (2,2), (4,4)
    }

    #[test]
    fn validation() {
        let s = GridSpace2D::new(10, 10).unwrap();
        assert!(Region::rect(0, 0, 9, 9).validate_within(&s).is_ok());
        assert!(Region::rect(0, 0, 10, 9).validate_within(&s).is_err());
        assert!(Region::rect(5, 5, 4, 6).validate_within(&s).is_err());
        assert!(Region::points([Demand::new(10, 0)])
            .validate_within(&s)
            .is_err());
        assert!(Region::lattice(0, 0, 3, 3, 4).validate_within(&s).is_ok());
        assert!(Region::lattice(0, 0, 3, 3, 5).validate_within(&s).is_err());
        assert!(Region::lattice(0, 0, 9, 9, 0).validate_within(&s).is_ok());
        assert!(Region::union([
            Region::rect(0, 0, 2, 2),
            Region::points([Demand::new(11, 0)])
        ])
        .validate_within(&s)
        .is_err());
    }

    #[test]
    fn serde_round_trip() {
        let r = Region::union([
            Region::rect(0, 0, 2, 2),
            Region::lattice(5, 5, 1, 0, 3),
            Region::points([Demand::new(9, 9)]),
        ]);
        let json = serde_json::to_string(&r).unwrap();
        let back: Region = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    proptest! {
        #[test]
        fn membership_agrees_with_cell_indices(
            x0 in 0u32..15, y0 in 0u32..15, w in 0u32..10, h in 0u32..10,
            dx in 0u32..20, dy in 0u32..20
        ) {
            let s = space();
            let r = Region::rect(x0, y0, x0 + w, y0 + h);
            let d = Demand::new(dx, dy);
            let via_cells = r
                .cell_indices(&s)
                .into_iter()
                .any(|i| s.demand_at(i).unwrap() == d);
            // contains() is unclipped; restrict to in-space demands.
            if s.contains(d) {
                prop_assert_eq!(r.contains(d), via_cells);
            }
        }

        #[test]
        fn union_measure_never_exceeds_sum(
            ax in 0u32..10, ay in 0u32..10, bx in 0u32..10, by in 0u32..10
        ) {
            let s = space();
            let p = Profile::uniform(&s);
            let a = Region::rect(ax, ay, ax + 5, ay + 5);
            let b = Region::rect(bx, by, bx + 5, by + 5);
            let u = Region::union([a.clone(), b.clone()]);
            // §6.2: the modelled sum over-counts overlap, so union ≤ sum.
            prop_assert!(u.measure(&p) <= a.measure(&p) + b.measure(&p) + 1e-12);
            // Inclusion-exclusion is exact for two regions.
            let ie = a.measure(&p) + b.measure(&p) - a.overlap_measure(&b, &p);
            prop_assert!((u.measure(&p) - ie).abs() < 1e-12);
        }
    }
}
