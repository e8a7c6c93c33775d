//! The assembled protection system: channels behind an adjudicator or
//! a compiled fault tree.

use crate::adjudicator::Adjudicator;
use crate::channel::Channel;
use crate::error::ProtectionError;
use crate::sensing::SensorView;
use crate::tree::FaultTree;
use divrel_demand::fault_set::{words_for, FaultSet, WORD_BITS};
use divrel_demand::mapping::FaultRegionMap;
use divrel_demand::profile::Profile;
use divrel_demand::space::Demand;
use std::fmt;

/// The system's response to one demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemResponse {
    /// Per-channel trip decisions, in channel order.
    pub channel_trips: Vec<bool>,
    /// The adjudicated system decision.
    pub tripped: bool,
}

/// The adjudication logic of a system: a flat vote over all channels or
/// a compiled [`FaultTree`] gate topology.
#[derive(Debug, Clone, PartialEq)]
pub enum Voter {
    /// A flat vote (`1ooN` / `NooN` / majority / `kooN`) over every
    /// channel.
    Flat(Adjudicator),
    /// A recursive gate structure over channel subsets.
    Tree(FaultTree),
}

impl Voter {
    /// Validates against a channel count (every construction path goes
    /// through here — see [`Adjudicator::validate`]).
    fn validate(&self, channels: usize) -> Result<(), ProtectionError> {
        if channels == 0 {
            return Err(ProtectionError::NoChannels);
        }
        match self {
            Voter::Flat(a) => a.validate(channels),
            Voter::Tree(t) => t.validate(channels),
        }
    }

    /// The system decision over a packed failure mask (bit `ch` set =
    /// channel `ch` failed to trip) for an `n`-channel system.
    #[inline]
    fn decide_fail_mask(&self, fail_mask: u64, n: usize) -> bool {
        match self {
            Voter::Flat(a) => a.decide_counts(n - fail_mask.count_ones() as usize, n),
            Voter::Tree(t) => t.decide_fail_mask(fail_mask),
        }
    }

    /// The system decision over per-channel trip flags.
    fn decide(&self, trips: &[bool]) -> bool {
        match self {
            Voter::Flat(a) => a.decide(trips),
            Voter::Tree(t) => t.decide(trips),
        }
    }
}

impl fmt::Display for Voter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Voter::Flat(a) => write!(f, "{a}"),
            Voter::Tree(t) => write!(f, "fault tree {t}"),
        }
    }
}

/// A plant protection system (Fig 1): `k` channels whose trip outputs are
/// combined by an adjudicator or a fault tree.
///
/// At construction the system precomputes one **trip table** per
/// channel — a bit per demand-space cell saying whether that channel
/// fails there (its version's failure cells, built from the faults'
/// region cells and mapped through its sensor view) — plus one
/// **system table** holding the adjudicated outcome per cell. Flat
/// votes and fault trees alike are thereby compiled down to the same fast path: [`Self::respond`] and
/// [`Self::true_pfd`] are table lookups per demand, with no per-fault
/// geometry tests and no per-demand tree walks. The direct tree walk
/// ([`FaultTree::decide`]) remains the reference semantics and the
/// fallback for demands outside the compiled space.
#[derive(Debug, Clone)]
pub struct ProtectionSystem {
    channels: Vec<Channel>,
    voter: Voter,
    map: FaultRegionMap,
    /// Per-channel failure bitmaps over demand cells, flattened
    /// channel-major: channel `ch` owns words
    /// `[ch * words_per_table .. (ch + 1) * words_per_table]`.
    fail_tables: Vec<u64>,
    /// The compiled adjudication: one bit per demand cell, set when the
    /// **system** output fails there under this voter.
    system_table: Vec<u64>,
    words_per_table: usize,
}

/// Equality is defined by the configuration (channels, voter, map); the
/// trip tables are derived data.
impl PartialEq for ProtectionSystem {
    fn eq(&self, other: &Self) -> bool {
        self.channels == other.channels && self.voter == other.voter && self.map == other.map
    }
}

impl ProtectionSystem {
    /// Assembles a flat-vote system and precomputes the trip tables.
    ///
    /// # Errors
    ///
    /// [`ProtectionError::NoChannels`] / [`ProtectionError::BadChannelCount`]
    /// from adjudicator validation; [`ProtectionError::Demand`] if any
    /// channel's version length disagrees with the map.
    pub fn new(
        channels: Vec<Channel>,
        adjudicator: Adjudicator,
        map: FaultRegionMap,
    ) -> Result<Self, ProtectionError> {
        Self::assemble(channels, Voter::Flat(adjudicator), map)
    }

    /// Assembles a fault-tree system: the tree is validated against the
    /// channel count and compiled into the same per-cell tables the
    /// flat adjudicators use.
    ///
    /// # Errors
    ///
    /// [`ProtectionError::NoChannels`] for an empty channel list;
    /// [`ProtectionError::InvalidConfig`] from tree validation;
    /// otherwise as [`Self::new`].
    pub fn with_tree(
        channels: Vec<Channel>,
        tree: FaultTree,
        map: FaultRegionMap,
    ) -> Result<Self, ProtectionError> {
        Self::assemble(channels, Voter::Tree(tree), map)
    }

    fn assemble(
        channels: Vec<Channel>,
        voter: Voter,
        map: FaultRegionMap,
    ) -> Result<Self, ProtectionError> {
        voter.validate(channels.len())?;
        // The trip-table fast path packs per-channel failure flags into a
        // single u64 mask (`respond_bits`); beyond 64 channels the shift
        // would wrap and silently misattribute failures.
        if channels.len() > WORD_BITS {
            return Err(ProtectionError::BadChannelCount {
                got: channels.len(),
                need: "<= 64",
            });
        }
        for c in &channels {
            c.view().validate(map.space())?;
            if c.version().len() != map.len() {
                return Err(ProtectionError::Demand(
                    divrel_demand::DemandError::Mismatch(format!(
                        "channel {} has {} fault flags, map has {} regions",
                        c.name(),
                        c.version().len(),
                        map.len()
                    )),
                ));
            }
        }
        let space = *map.space();
        let cells = space.cell_count();
        let words_per_table = words_for(cells);
        let mut fail_tables = Vec::with_capacity(channels.len() * words_per_table);
        for c in &channels {
            fail_tables.extend(channel_fail_table(&map, c.version().fault_set(), c.view()));
        }
        // Compile the adjudication itself: decide the voter once per
        // failure pattern now so the per-demand hot paths only test one
        // bit. This is where a fault tree of any shape collapses onto
        // the flat-vote fast path. Cells where no channel fails all
        // share one outcome, so only the union of the channels'
        // failure cells is walked bit by bit.
        let n = channels.len();
        let quiet_word = if voter.decide_fail_mask(0, n) { 0 } else { !0 };
        let mut system_table = vec![quiet_word; words_per_table];
        for (w, word) in system_table.iter_mut().enumerate() {
            let channel_word = |ch: usize| fail_tables[ch * words_per_table + w];
            let mut any = (0..n).fold(0, |acc, ch| acc | channel_word(ch));
            while any != 0 {
                let bit = any.trailing_zeros();
                any &= any - 1;
                let fail_mask =
                    (0..n).fold(0u64, |acc, ch| acc | (channel_word(ch) >> bit & 1) << ch);
                if voter.decide_fail_mask(fail_mask, n) {
                    *word &= !(1u64 << bit);
                } else {
                    *word |= 1u64 << bit;
                }
            }
        }
        // Keep the bits past the last cell clear.
        if let Some(last) = system_table.last_mut() {
            if !cells.is_multiple_of(WORD_BITS) {
                *last &= (1u64 << (cells % WORD_BITS)) - 1;
            }
        }
        Ok(ProtectionSystem {
            channels,
            voter,
            map,
            fail_tables,
            system_table,
            words_per_table,
        })
    }

    /// Whether channel `ch` fails on demand-space cell `cell` (one trip
    /// table bit).
    #[inline]
    pub fn channel_fails_cell(&self, ch: usize, cell: usize) -> bool {
        let w = self.fail_tables[ch * self.words_per_table + cell / WORD_BITS];
        w >> (cell % WORD_BITS) & 1 == 1
    }

    /// Whether the adjudicated **system** output fails on demand-space
    /// cell `cell` (one compiled system-table bit).
    #[inline]
    pub fn system_fails_cell(&self, cell: usize) -> bool {
        let w = self.system_table[cell / WORD_BITS];
        w >> (cell % WORD_BITS) & 1 == 1
    }

    /// The channels.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// The flat adjudicator, for flat-vote systems (`None` for
    /// fault-tree systems — see [`Self::tree`]).
    pub fn adjudicator(&self) -> Option<Adjudicator> {
        match &self.voter {
            Voter::Flat(a) => Some(*a),
            Voter::Tree(_) => None,
        }
    }

    /// The fault tree, for tree systems (`None` for flat votes).
    pub fn tree(&self) -> Option<&FaultTree> {
        match &self.voter {
            Voter::Flat(_) => None,
            Voter::Tree(t) => Some(t),
        }
    }

    /// The adjudication logic (flat vote or fault tree).
    pub fn voter(&self) -> &Voter {
        &self.voter
    }

    /// The fault → region map the channels are evaluated against.
    pub fn map(&self) -> &FaultRegionMap {
        &self.map
    }

    /// Responds to a demand.
    ///
    /// # Errors
    ///
    /// [`ProtectionError::Demand`] on version/map inconsistencies (cannot
    /// occur for a validated system).
    pub fn respond(&self, demand: Demand) -> Result<SystemResponse, ProtectionError> {
        let mut channel_trips = Vec::with_capacity(self.channels.len());
        let tripped = match self.map.space().index_of(demand) {
            Ok(cell) => {
                for ch in 0..self.channels.len() {
                    channel_trips.push(!self.channel_fails_cell(ch, cell));
                }
                !self.system_fails_cell(cell)
            }
            Err(_) => {
                // Demands outside the space cannot be table-indexed;
                // fall back to the geometric evaluation (sensor views
                // may still clamp them into range) and the direct
                // voter walk.
                for c in &self.channels {
                    channel_trips.push(c.trips_on(&self.map, demand)?);
                }
                self.voter.decide(&channel_trips)
            }
        };
        Ok(SystemResponse {
            channel_trips,
            tripped,
        })
    }

    /// Allocation-free form of [`Self::respond`] for the simulation hot
    /// loop: returns the adjudicated decision plus a bitmask of failed
    /// channels (bit `ch` set = channel `ch` failed to trip).
    ///
    /// The 64-channel ceiling of the `u64` mask is enforced at
    /// construction, so every constructed system fits; a malformed
    /// runtime object (impossible through the public constructors) is
    /// reported as an error rather than aborting the process — a worker
    /// must never die on a bad system object, it must refuse it.
    ///
    /// # Errors
    ///
    /// [`ProtectionError::BadChannelCount`] if the system somehow holds
    /// more than 64 channels; otherwise propagates channel evaluation
    /// errors for demands outside the space (cannot occur for demands
    /// produced by a plant over the same space).
    pub fn respond_bits(&self, demand: Demand) -> Result<(bool, u64), ProtectionError> {
        if self.channels.len() > WORD_BITS {
            return Err(ProtectionError::BadChannelCount {
                got: self.channels.len(),
                need: "<= 64",
            });
        }
        let mut fail_mask = 0u64;
        let tripped = match self.map.space().index_of(demand) {
            Ok(cell) => {
                for ch in 0..self.channels.len() {
                    if self.channel_fails_cell(ch, cell) {
                        fail_mask |= 1u64 << ch;
                    }
                }
                !self.system_fails_cell(cell)
            }
            Err(_) => {
                for (ch, c) in self.channels.iter().enumerate() {
                    if !c.trips_on(&self.map, demand)? {
                        fail_mask |= 1u64 << ch;
                    }
                }
                self.voter.decide_fail_mask(fail_mask, self.channels.len())
            }
        };
        Ok((tripped, fail_mask))
    }

    /// The system's **true** PFD under `profile`: the profile mass of the
    /// demand set on which the adjudicated output fails. For the OR
    /// adjudicator this is the measure of the intersection of the
    /// channels' failure sets — the geometric counterpart of the paper's
    /// common-fault PFD.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::respond`].
    pub fn true_pfd(&self, profile: &Profile) -> Result<f64, ProtectionError> {
        let cells = self.map.space().cell_count();
        let probs = profile.probs();
        let same_space = profile.space() == self.map.space() && probs.len() == cells;
        let mut pfd = 0.0;
        #[allow(clippy::needless_range_loop)] // cell indexes tables and probs alike
        for cell in 0..cells {
            if self.system_fails_cell(cell) {
                pfd += if same_space {
                    probs[cell]
                } else {
                    let d = self.map.space().demand_at(cell).expect("cell in range");
                    profile.prob(d)
                };
            }
        }
        Ok(pfd)
    }

    /// Multi-threaded [`Self::true_pfd`] for very large demand grids:
    /// cells are split into contiguous ranges scanned on
    /// `std::thread::scope` threads, and the per-range masses are summed
    /// in range order (deterministic for a fixed thread count, equal to
    /// the serial result up to floating-point re-association).
    ///
    /// Grids too small to amortise thread spawns, `threads <= 1`, and
    /// profiles over a different space all take the serial path.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::true_pfd`] errors from the serial fallback
    /// (none on the parallel path for a validated system).
    pub fn true_pfd_parallel(
        &self,
        profile: &Profile,
        threads: usize,
    ) -> Result<f64, ProtectionError> {
        let cells = self.map.space().cell_count();
        let probs = profile.probs();
        if !divrel_demand::parallel::worth_parallelising(cells, threads)
            || profile.space() != self.map.space()
            || probs.len() != cells
        {
            return self.true_pfd(profile);
        }
        Ok(divrel_demand::parallel::chunked_sum(
            cells,
            threads,
            |range| {
                let mut pfd = 0.0;
                for cell in range {
                    if self.system_fails_cell(cell) {
                        pfd += probs[cell];
                    }
                }
                pfd
            },
        ))
    }
}

/// One channel's trip table: bit `c` set where the channel fails on
/// plant cell `c`, i.e. where `faults` fail on the cell its sensors
/// report (`view.apply`). The failures in the channel's own coordinates
/// come from the faults' region cells ([`FaultRegionMap::failure_bitmap`]);
/// the view then maps them onto plant cells through two axis lookups.
/// Every [`SensorView`] moves each reported coordinate as a function of
/// one plant coordinate, so the reported cell index of plant cell
/// `(x, y)` splits as `col[x] + row[y]`.
fn channel_fail_table(map: &FaultRegionMap, faults: &FaultSet, view: SensorView) -> Vec<u64> {
    let seen = map.failure_bitmap(faults);
    if view == SensorView::Identity {
        // Reported and plant cells coincide: skip the per-cell mapping.
        return seen;
    }
    let space = map.space();
    let reported = |x: u32, y: u32| {
        space
            .index_of(view.apply(Demand::new(x, y), space))
            .expect("sensor views report cells inside the space")
    };
    let origin = reported(0, 0);
    let col: Vec<usize> = (0..space.nx()).map(|x| reported(x, 0)).collect();
    let mut table = vec![0u64; seen.len()];
    let mut cell = 0;
    for y in 0..space.ny() {
        let row = reported(0, y).wrapping_sub(origin);
        for &c in &col {
            let s = c.wrapping_add(row);
            table[cell / WORD_BITS] |=
                (seen[s / WORD_BITS] >> (s % WORD_BITS) & 1) << (cell % WORD_BITS);
            cell += 1;
        }
    }
    table
}

impl fmt::Display for ProtectionSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ProtectionSystem({} channels, {})",
            self.channels.len(),
            self.voter
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divrel_demand::region::Region;
    use divrel_demand::space::GridSpace2D;
    use divrel_demand::version::ProgramVersion;

    fn map() -> FaultRegionMap {
        let space = GridSpace2D::new(10, 10).unwrap();
        FaultRegionMap::new(
            space,
            vec![Region::rect(0, 0, 1, 1), Region::rect(1, 1, 2, 2)],
        )
        .unwrap()
    }

    fn two_channel_system() -> ProtectionSystem {
        ProtectionSystem::new(
            vec![
                Channel::new("A", ProgramVersion::new(vec![true, false])),
                Channel::new("B", ProgramVersion::new(vec![false, true])),
            ],
            Adjudicator::OneOutOfN,
            map(),
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(ProtectionSystem::new(vec![], Adjudicator::OneOutOfN, map()).is_err());
        let short = Channel::new("X", ProgramVersion::new(vec![true]));
        assert!(ProtectionSystem::new(vec![short], Adjudicator::OneOutOfN, map()).is_err());
        assert!(ProtectionSystem::new(
            vec![
                Channel::new("A", ProgramVersion::fault_free(2)),
                Channel::new("B", ProgramVersion::fault_free(2)),
            ],
            Adjudicator::Majority,
            map()
        )
        .is_err());
    }

    #[test]
    fn construction_rejects_more_than_64_channels() {
        // The u64 fail mask of `respond_bits` cannot attribute failures
        // past channel 63; such systems must be unconstructible.
        let channels: Vec<Channel> = (0..65)
            .map(|i| Channel::new(format!("C{i}"), ProgramVersion::fault_free(2)))
            .collect();
        let err = ProtectionSystem::new(channels, Adjudicator::OneOutOfN, map()).unwrap_err();
        match err {
            ProtectionError::BadChannelCount { got, .. } => assert_eq!(got, 65),
            other => panic!("expected BadChannelCount, got {other:?}"),
        }
    }

    #[test]
    fn or_adjudication_masks_single_channel_faults() {
        let sys = two_channel_system();
        // (0,0): only A fails -> B trips -> system trips.
        let r = sys.respond(Demand::new(0, 0)).unwrap();
        assert_eq!(r.channel_trips, vec![false, true]);
        assert!(r.tripped);
        // (1,1): A fails (region 0) and B fails (region 1) -> system fails.
        let r = sys.respond(Demand::new(1, 1)).unwrap();
        assert_eq!(r.channel_trips, vec![false, false]);
        assert!(!r.tripped);
        // (5,5): nobody fails.
        let r = sys.respond(Demand::new(5, 5)).unwrap();
        assert!(r.tripped);
    }

    #[test]
    fn true_pfd_is_intersection_measure() {
        let sys = two_channel_system();
        let profile = Profile::uniform(sys.map().space());
        // Regions intersect only at (1,1): 1 cell of 100.
        let pfd = sys.true_pfd(&profile).unwrap();
        assert!((pfd - 0.01).abs() < 1e-12);
    }

    #[test]
    fn and_adjudicator_fails_if_any_channel_fails() {
        let sys = ProtectionSystem::new(
            vec![
                Channel::new("A", ProgramVersion::new(vec![true, false])),
                Channel::new("B", ProgramVersion::new(vec![false, true])),
            ],
            Adjudicator::AllOutOfN,
            map(),
        )
        .unwrap();
        let profile = Profile::uniform(sys.map().space());
        // Union of the regions: 4 + 4 - 1 = 7 cells.
        let pfd = sys.true_pfd(&profile).unwrap();
        assert!((pfd - 0.07).abs() < 1e-12);
    }

    #[test]
    fn identical_channels_gain_nothing() {
        // Two copies of the same faulty version: OR adjudication does not
        // help — the system PFD equals the version PFD. (The degenerate
        // case diversity exists to avoid.)
        let v = ProgramVersion::new(vec![true, true]);
        let sys = ProtectionSystem::new(
            vec![Channel::new("A", v.clone()), Channel::new("B", v)],
            Adjudicator::OneOutOfN,
            map(),
        )
        .unwrap();
        let profile = Profile::uniform(sys.map().space());
        let pfd = sys.true_pfd(&profile).unwrap();
        assert!((pfd - 0.07).abs() < 1e-12); // union of both regions
    }

    #[test]
    fn display_and_accessors() {
        let sys = two_channel_system();
        assert_eq!(sys.channels().len(), 2);
        assert_eq!(sys.adjudicator(), Some(Adjudicator::OneOutOfN));
        assert!(sys.tree().is_none());
        assert!(sys.to_string().contains("2 channels"));
    }

    #[test]
    fn tree_system_compiles_to_the_flat_fast_path() {
        use crate::tree::FaultTree;
        // OR over both channels == the flat 1ooN vote: identical
        // responses and identical true PFD on every cell.
        let flat = two_channel_system();
        let tree = ProtectionSystem::with_tree(
            vec![
                Channel::new("A", ProgramVersion::new(vec![true, false])),
                Channel::new("B", ProgramVersion::new(vec![false, true])),
            ],
            FaultTree::AnyOf(vec![FaultTree::Channel(0), FaultTree::Channel(1)]),
            map(),
        )
        .unwrap();
        let profile = Profile::uniform(tree.map().space());
        assert_eq!(
            flat.true_pfd(&profile).unwrap(),
            tree.true_pfd(&profile).unwrap()
        );
        for y in 0..10u32 {
            for x in 0..10u32 {
                let d = Demand::new(x, y);
                assert_eq!(flat.respond(d).unwrap(), tree.respond(d).unwrap());
                assert_eq!(flat.respond_bits(d).unwrap(), tree.respond_bits(d).unwrap());
            }
        }
        assert!(tree.adjudicator().is_none());
        assert!(tree.tree().is_some());
        assert!(tree.to_string().contains("fault tree"));
    }

    #[test]
    fn tree_construction_validates() {
        use crate::tree::FaultTree;
        // Leaf out of range for the channel list.
        let err = ProtectionSystem::with_tree(
            vec![Channel::new("A", ProgramVersion::new(vec![true, false]))],
            FaultTree::Channel(1),
            map(),
        )
        .unwrap_err();
        assert!(matches!(err, ProtectionError::InvalidConfig(_)));
        // No channels at all.
        let err = ProtectionSystem::with_tree(vec![], FaultTree::Channel(0), map()).unwrap_err();
        assert!(matches!(err, ProtectionError::NoChannels));
    }

    #[test]
    fn true_pfd_parallel_matches_serial() {
        // 150×150 = 22 500 cells crosses the parallel threshold.
        let space = GridSpace2D::new(150, 150).unwrap();
        let profile = Profile::uniform(&space);
        let map = FaultRegionMap::new(
            space,
            vec![
                Region::rect(0, 0, 29, 29),
                Region::rect(20, 20, 49, 49),
                Region::rect(100, 100, 139, 139),
            ],
        )
        .unwrap();
        let sys = ProtectionSystem::new(
            vec![
                Channel::new("A", ProgramVersion::new(vec![true, true, false])),
                Channel::new("B", ProgramVersion::new(vec![false, true, true])),
            ],
            Adjudicator::OneOutOfN,
            map,
        )
        .unwrap();
        let serial = sys.true_pfd(&profile).unwrap();
        assert!(serial > 0.0);
        for threads in [1, 2, 4, 5] {
            let par = sys.true_pfd_parallel(&profile, threads).unwrap();
            assert!(
                (par - serial).abs() < 1e-12,
                "{threads} threads: {par} vs {serial}"
            );
        }
        // Small grids silently take the serial path.
        let small = two_channel_system();
        let small_profile = Profile::uniform(small.map().space());
        assert_eq!(
            small.true_pfd_parallel(&small_profile, 8).unwrap(),
            small.true_pfd(&small_profile).unwrap()
        );
    }

    mod properties {
        use super::*;
        use divrel_demand::space::Demand;
        use proptest::prelude::*;

        /// Random region within a 12×12 space.
        fn arb_region() -> impl Strategy<Value = Region> {
            (0u32..10, 0u32..10, 1u32..4, 1u32..4)
                .prop_map(|(x, y, w, h)| Region::rect(x, y, (x + w).min(11), (y + h).min(11)))
        }

        fn arb_versions() -> impl Strategy<Value = (Vec<bool>, Vec<bool>)> {
            (
                proptest::collection::vec(proptest::bool::ANY, 3),
                proptest::collection::vec(proptest::bool::ANY, 3),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn or_pfd_never_exceeds_any_channel(
                regions in proptest::collection::vec(arb_region(), 3),
                (pa, pb) in arb_versions()
            ) {
                let space = GridSpace2D::new(12, 12).expect("valid");
                let profile = Profile::uniform(&space);
                let map = FaultRegionMap::new(space, regions).expect("valid");
                let va = ProgramVersion::new(pa);
                let vb = ProgramVersion::new(pb);
                let sys = ProtectionSystem::new(
                    vec![
                        Channel::new("A", va.clone()),
                        Channel::new("B", vb.clone()),
                    ],
                    Adjudicator::OneOutOfN,
                    map.clone(),
                )
                .expect("valid");
                let pfd = sys.true_pfd(&profile).expect("ok");
                prop_assert!(pfd <= va.true_pfd(&map, &profile).expect("ok") + 1e-12);
                prop_assert!(pfd <= vb.true_pfd(&map, &profile).expect("ok") + 1e-12);
            }

            #[test]
            fn adjudicator_ordering_or_below_majority_below_and(
                regions in proptest::collection::vec(arb_region(), 3),
                (pa, pb) in arb_versions(),
                pc in proptest::collection::vec(proptest::bool::ANY, 3)
            ) {
                let space = GridSpace2D::new(12, 12).expect("valid");
                let profile = Profile::uniform(&space);
                let map = FaultRegionMap::new(space, regions).expect("valid");
                let mk = |adj: Adjudicator| {
                    ProtectionSystem::new(
                        vec![
                            Channel::new("A", ProgramVersion::new(pa.clone())),
                            Channel::new("B", ProgramVersion::new(pb.clone())),
                            Channel::new("C", ProgramVersion::new(pc.clone())),
                        ],
                        adj,
                        map.clone(),
                    )
                    .expect("valid")
                    .true_pfd(&profile)
                    .expect("ok")
                };
                let or = mk(Adjudicator::OneOutOfN);
                let maj = mk(Adjudicator::Majority);
                let and = mk(Adjudicator::AllOutOfN);
                prop_assert!(or <= maj + 1e-12, "or {or} > majority {maj}");
                prop_assert!(maj <= and + 1e-12, "majority {maj} > and {and}");
            }

            #[test]
            fn response_is_consistent_with_true_pfd_support(
                regions in proptest::collection::vec(arb_region(), 2),
                (pa, pb) in (
                    proptest::collection::vec(proptest::bool::ANY, 2),
                    proptest::collection::vec(proptest::bool::ANY, 2),
                )
            ) {
                let space = GridSpace2D::new(12, 12).expect("valid");
                let profile = Profile::uniform(&space);
                let map = FaultRegionMap::new(space, regions).expect("valid");
                let sys = ProtectionSystem::new(
                    vec![
                        Channel::new("A", ProgramVersion::new(pa)),
                        Channel::new("B", ProgramVersion::new(pb)),
                    ],
                    Adjudicator::OneOutOfN,
                    map,
                )
                .expect("valid");
                // true_pfd equals the measure of the demands where respond()
                // says "no trip" — recomputed by brute force.
                let mut brute = 0.0;
                for y in 0..12u32 {
                    for x in 0..12u32 {
                        let d = Demand::new(x, y);
                        if !sys.respond(d).expect("ok").tripped {
                            brute += profile.prob(d);
                        }
                    }
                }
                prop_assert!((sys.true_pfd(&profile).expect("ok") - brute).abs() < 1e-12);
            }

            /// At the u64 fail-mask ceiling (and at its edges: 1, 63 and
            /// 64 channels), `respond_bits` must round-trip exactly with
            /// the allocating `respond`: bit `ch` of the mask set iff
            /// channel `ch`'s trip flag is false, with identical
            /// adjudicated decisions — including bit 63, where a shift
            /// bug would wrap.
            #[test]
            fn respond_bits_round_trips_at_the_channel_cap(
                which in 0usize..3,
                seed_flags in proptest::collection::vec(proptest::bool::ANY, 64 * 3),
                x in 0u32..12,
                y in 0u32..12
            ) {
                let n = [1usize, 63, 64][which];
                let space = GridSpace2D::new(12, 12).expect("valid");
                let map = FaultRegionMap::new(
                    space,
                    vec![
                        Region::rect(0, 0, 5, 5),
                        Region::rect(3, 3, 9, 9),
                        Region::rect(8, 0, 11, 4),
                    ],
                )
                .expect("valid");
                let channels: Vec<Channel> = (0..n)
                    .map(|ch| {
                        let flags: Vec<bool> =
                            (0..3).map(|r| seed_flags[ch * 3 + r]).collect();
                        Channel::new(format!("C{ch}"), ProgramVersion::new(flags))
                    })
                    .collect();
                let sys = ProtectionSystem::new(channels, Adjudicator::OneOutOfN, map)
                    .expect("<= 64 channels is constructible");
                let d = Demand::new(x, y);
                let full = sys.respond(d).expect("ok");
                let (tripped, fail_mask) = sys.respond_bits(d).expect("ok");
                prop_assert_eq!(tripped, full.tripped);
                for (ch, &trip) in full.channel_trips.iter().enumerate() {
                    prop_assert_eq!(
                        fail_mask >> ch & 1 == 1,
                        !trip,
                        "channel {} of {}: mask bit disagrees with respond()",
                        ch,
                        n
                    );
                }
                // No stray bits above the channel count.
                if n < 64 {
                    prop_assert_eq!(fail_mask >> n, 0);
                }
                // The mask's popcount reproduces the adjudicated tally.
                let trips = n - fail_mask.count_ones() as usize;
                let adj = sys.adjudicator().expect("flat system");
                prop_assert_eq!(adj.decide_counts(trips, n), tripped);
            }

            /// The trip tables are derived from the faults' region cells
            /// and two axis lookups per view; they must equal the
            /// per-cell geometry (sensor view, then the fault masks) on
            /// every cell, for every view: swapped axes on a non-square
            /// space, coarsening, offsets that saturate at the borders
            /// and stuck sensors included.
            #[test]
            fn channel_tables_match_per_cell_geometry_for_every_view(
                nx in 1u32..23,
                ny in 1u32..23,
                rects in proptest::collection::vec((0u32..23, 0u32..23, 0u32..6, 0u32..6), 1..4),
                lattice in (0u32..23, 0u32..23, 0u32..4, 0u32..4, 1u32..8),
                flags in proptest::collection::vec(proptest::bool::ANY, 5),
                (fx, fy) in (1u32..6, 1u32..6),
                (dx, dy) in (-25i32..26, -25i32..26),
                stuck in (0u32..23, 0u32..23)
            ) {
                let space = GridSpace2D::new(nx, ny).expect("valid");
                let clip = |x: u32, y: u32| (x % nx, y % ny);
                let mut regions: Vec<Region> = rects
                    .iter()
                    .map(|&(x, y, w, h)| {
                        let (x0, y0) = clip(x, y);
                        Region::rect(x0, y0, (x0 + w).min(nx - 1), (y0 + h).min(ny - 1))
                    })
                    .collect();
                let (lx, ly) = clip(lattice.0, lattice.1);
                // As many lattice points as fit inside the space.
                let fits = |l: u32, d: u32, n: u32| (n - 1 - l).checked_div(d).map_or(u32::MAX, |k| k + 1);
                let count = lattice.4.min(fits(lx, lattice.2, nx)).min(fits(ly, lattice.3, ny));
                regions.push(Region::union([
                    Region::lattice(lx, ly, lattice.2, lattice.3, count),
                    Region::points([Demand::new(lx, ly), Demand::new(nx - 1, ny - 1)]),
                ]));
                let map = FaultRegionMap::new(space, regions).expect("valid");
                let version = ProgramVersion::new(flags[..map.len()].to_vec());
                let (sx, sy) = clip(stuck.0, stuck.1);
                for view in [
                    SensorView::Identity,
                    SensorView::SwapAxes,
                    SensorView::Coarsen { fx, fy },
                    SensorView::Offset { dx, dy },
                    SensorView::Stuck { at_var1: sx, at_var2: sy },
                ] {
                    let table = channel_fail_table(&map, version.fault_set(), view);
                    prop_assert_eq!(table.len(), words_for(space.cell_count()));
                    for (cell, d) in space.demands().enumerate() {
                        let want = map.set_fails_on(version.fault_set(), view.apply(d, &space));
                        let got = table[cell / WORD_BITS] >> (cell % WORD_BITS) & 1 == 1;
                        prop_assert_eq!(got, want, "{} on {}: cell {}", view, space, cell);
                    }
                    // No stray bits past the last cell.
                    let cells = space.cell_count();
                    if !cells.is_multiple_of(WORD_BITS) {
                        prop_assert_eq!(table[cells / WORD_BITS] >> (cells % WORD_BITS), 0);
                    }
                }
            }

            /// An assembled system's channel and system tables equal the
            /// per-cell reference (sensor view, fault masks, then the
            /// vote) on every cell.
            #[test]
            fn system_tables_match_per_cell_reference(
                regions in proptest::collection::vec(arb_region(), 3),
                flags in proptest::collection::vec(proptest::bool::ANY, 9),
                views in proptest::collection::vec((0usize..5, -3i32..4, 1u32..4), 3),
                k in 1usize..=3
            ) {
                let space = GridSpace2D::new(12, 12).expect("valid");
                let map = FaultRegionMap::new(space, regions).expect("valid");
                let views: Vec<SensorView> = views
                    .iter()
                    .map(|&(kind, shift, factor)| match kind {
                        0 => SensorView::Identity,
                        1 => SensorView::SwapAxes,
                        2 => SensorView::Coarsen { fx: factor, fy: factor + 1 },
                        3 => SensorView::Offset { dx: shift * 4, dy: -shift },
                        _ => SensorView::Stuck { at_var1: factor, at_var2: 2 * factor },
                    })
                    .collect();
                let channels: Vec<Channel> = (0..3)
                    .map(|ch| {
                        Channel::with_view(
                            format!("C{ch}"),
                            ProgramVersion::new(flags[ch * 3..ch * 3 + 3].to_vec()),
                            views[ch],
                        )
                    })
                    .collect();
                let adjudicator = Adjudicator::KOutOfN { k };
                let sys = ProtectionSystem::new(channels.clone(), adjudicator, map.clone())
                    .expect("valid");
                for (cell, d) in space.demands().enumerate() {
                    let trips: Vec<bool> = channels
                        .iter()
                        .map(|c| c.trips_on(&map, d).expect("ok"))
                        .collect();
                    for (ch, &trip) in trips.iter().enumerate() {
                        prop_assert_eq!(sys.channel_fails_cell(ch, cell), !trip);
                    }
                    prop_assert_eq!(sys.system_fails_cell(cell), !adjudicator.decide(&trips));
                }
            }

            /// The compiled system table must agree with the direct
            /// tree walk on every demand cell, at the channel-cap edge
            /// cases 1, 63 and 64 — the "compiles to the trip-table
            /// fast path bit-identically" guarantee.
            #[test]
            fn tree_compiled_table_matches_direct_walk_at_cap_sizes(
                which in 0usize..3,
                seed_flags in proptest::collection::vec(proptest::bool::ANY, 64 * 3),
                k in 1usize..=64
            ) {
                use crate::tree::FaultTree;
                let n = [1usize, 63, 64][which];
                let space = GridSpace2D::new(8, 8).expect("valid");
                let map = FaultRegionMap::new(
                    space,
                    vec![
                        Region::rect(0, 0, 3, 3),
                        Region::rect(2, 2, 6, 6),
                        Region::rect(5, 0, 7, 3),
                    ],
                )
                .expect("valid");
                let channels: Vec<Channel> = (0..n)
                    .map(|ch| {
                        let flags: Vec<bool> =
                            (0..3).map(|r| seed_flags[ch * 3 + r]).collect();
                        Channel::new(format!("C{ch}"), ProgramVersion::new(flags))
                    })
                    .collect();
                // A nested topology exercising every gate kind: the
                // threshold vote over all channels OR-ed with the AND
                // of the first and last.
                let tree = FaultTree::AnyOf(vec![
                    FaultTree::k_of_first_n(k.min(n), n),
                    FaultTree::AllOf(vec![
                        FaultTree::Channel(0),
                        FaultTree::Channel(n - 1),
                    ]),
                ]);
                let sys = ProtectionSystem::with_tree(channels, tree.clone(), map)
                    .expect("valid tree system");
                for cell in 0..space.cell_count() {
                    let trips: Vec<bool> = (0..n)
                        .map(|ch| !sys.channel_fails_cell(ch, cell))
                        .collect();
                    prop_assert_eq!(
                        !sys.system_fails_cell(cell),
                        tree.decide(&trips),
                        "cell {} over {} channels",
                        cell,
                        n
                    );
                    let d = space.demand_at(cell).expect("cell in range");
                    let (tripped, fail_mask) = sys.respond_bits(d).expect("ok");
                    prop_assert_eq!(tripped, tree.decide(&trips));
                    prop_assert_eq!(tripped, tree.decide_fail_mask(fail_mask));
                }
            }
        }
    }
}
