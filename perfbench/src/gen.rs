//! Seeded workload generator: turns a benchmark seed into spec text.
//!
//! The program under test only ever sees the text produced here, parsed
//! through `Scenario::from_spec_text`. The seed picks each scenario's
//! master seed and jitters fault-introduction probabilities by a few
//! percent; the structure (spaces, regions, plants, systems, budgets)
//! is fixed, so every seed costs about the same to run. The same seed
//! always yields byte-identical text.

use std::fmt::Write as _;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two protection campaigns back to back: a sparse-compiled Markov
    /// plant and a rate plant voted three ways.
    Campaign,
    /// The shared-cause 2oo3 rare-event system under both estimators.
    RareEvent,
    /// A posterior-driven adaptive sweep over a 15-fault model.
    Adaptive,
    /// The campaign's rate spec on a two-process worker fleet.
    Fleet,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Campaign,
        Workload::RareEvent,
        Workload::Adaptive,
        Workload::Fleet,
    ];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::RareEvent => "rare_event",
            Workload::Adaptive => "adaptive",
            Workload::Fleet => "fleet",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The unit of work the workload's throughput is counted in.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::Campaign | Workload::Fleet => "ticks",
            Workload::RareEvent => "samples",
            Workload::Adaptive => "demands",
        }
    }
}

/// One generated spec: a label the benchmark reports it under, and the
/// text handed to the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedSpec {
    /// Short label (`markov`, `rate`, `tilt`, ...).
    pub label: &'static str,
    /// TOML spec text.
    pub text: String,
}

/// Campaign length of the sparse Markov plant, in ticks.
pub const MARKOV_STEPS: u64 = 64_000_000;
/// Campaign length of the rate plant, in ticks.
pub const RATE_STEPS: u64 = 40_000_000;
/// Samples per rare-event estimator run.
pub const TILT_SAMPLES: u64 = 1_048_576;
/// Samples of the stratified rare-event run.
pub const STRAT_SAMPLES: u64 = 4_194_304;

/// Campaign seeds (`seed ^ seed_xor`) of the Markov campaign's two
/// systems. The cost of a sparse-compiled walk depends on where the
/// walk goes (which states get compiled, and when two threads compile
/// at once), and that differs by tens of percent from one trajectory
/// to the next. Each generated `seed_xor` cancels the master seed, so
/// every benchmark seed walks these same trajectories while the master
/// seed still draws the sampled versions.
const WALK_SEEDS: [u64; 2] = [0x5eed_0000_0001, 0x5eed_0000_0002];

/// Master seed of the adaptive sweep (see [`adaptive`]).
const ADAPTIVE_SEED: u64 = 0x5eed_0000_0003;

/// SplitMix64: a tiny, well-mixed generator for the seed-derived
/// choices, independent of any crate's RNG.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A scenario master seed (kept below 2^48 so it reads easily).
    fn seed(&mut self) -> u64 {
        self.next() >> 16
    }

    /// `base` scaled by a factor in `[1 - rel, 1 + rel]`, rounded to
    /// five significant digits so the text stays short.
    fn jitter(&mut self, base: f64, rel: f64) -> f64 {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        let v = base * (1.0 + rel * (2.0 * u - 1.0));
        let scale = 10f64.powi(4 - v.abs().log10().floor() as i32);
        (v * scale).round() / scale
    }
}

/// Formats a float list as a TOML array.
fn floats(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
    format!("[{}]", items.join(", "))
}

/// Generates the spec texts of `workload` for benchmark seed `seed`.
pub fn specs(workload: Workload, seed: u64) -> Vec<GeneratedSpec> {
    // Each workload draws from its own stream, so adding a workload
    // never changes another's inputs.
    let salt = match workload {
        Workload::Campaign | Workload::Fleet => 0x63_616d_7061_6967,
        Workload::RareEvent => 0x72_6172_6565_7665,
        Workload::Adaptive => 0x61_6461_7074_6976,
    };
    let mut rng = SplitMix(seed ^ salt);
    match workload {
        Workload::Campaign => vec![
            GeneratedSpec {
                label: "markov",
                text: markov_campaign(&mut rng),
            },
            GeneratedSpec {
                label: "rate",
                text: rate_campaign(&mut rng, 8),
            },
        ],
        Workload::Fleet => {
            // The same rate spec as `campaign` (same stream position).
            markov_campaign(&mut rng);
            vec![GeneratedSpec {
                label: "rate",
                text: rate_campaign(&mut rng, 8),
            }]
        }
        Workload::RareEvent => {
            let seed = rng.seed();
            vec![
                GeneratedSpec {
                    label: "tilt",
                    text: rare_event(
                        seed,
                        TILT_SAMPLES,
                        "[experiment.RareEvent.estimator.ImportanceTilt]\ntheta = 4.0\n",
                    ),
                },
                GeneratedSpec {
                    label: "strat",
                    text: rare_event(
                        seed,
                        STRAT_SAMPLES,
                        "[experiment.RareEvent.estimator.StratifyByCount]\nrounds = 3\n",
                    ),
                },
            ]
        }
        Workload::Adaptive => vec![GeneratedSpec {
            label: "adaptive",
            text: adaptive(&mut rng),
        }],
    }
}

/// A slow-mixing Markov walk on a 2100 x 2100 space (4.41M cells, past
/// the eager compiler's 2^22 limit, so the sparse on-demand compiler
/// runs). The walker starts at the centre, just outside the trip set
/// (a start inside it would make the plant unprofitable to compile);
/// the failure regions sit in the trip set's near edge. The walks
/// themselves are pinned by [`WALK_SEEDS`]. A certain
/// common cause plants region 0 in every version, so both systems fail
/// on some demands at any seed.
fn markov_campaign(rng: &mut SplitMix) -> String {
    let seed = rng.seed();
    let ps = [
        rng.jitter(0.6, 0.05),
        rng.jitter(0.5, 0.05),
        rng.jitter(0.4, 0.05),
    ];
    let mut t = String::new();
    let _ = write!(
        t,
        r#"name = "bench-markov"

[seed]
seed = {seed}

[experiment.Protection]
profile = "Uniform"
processes = [[0.5, {}, {}, {}]]
versions = [0, 0, 0]
steps = {MARKOV_STEPS}
shards = 16

[experiment.Protection.space]
nx = 2100
ny = 2100

[[experiment.Protection.regions]]
[experiment.Protection.regions.Rect]
x0 = 1054
y0 = 1030
x1 = 1059
y1 = 1070

[[experiment.Protection.regions]]
[experiment.Protection.regions.Rect]
x0 = 1060
y0 = 1040
x1 = 1064
y1 = 1050

[[experiment.Protection.regions]]
[experiment.Protection.regions.Rect]
x0 = 1060
y0 = 1051
x1 = 1064
y1 = 1060

[[experiment.Protection.regions]]
[experiment.Protection.regions.Lattice]
x0 = 1066
y0 = 1035
dx = 2
dy = 0
count = 10

[[experiment.Protection.systems]]
label = "1oo2 (OR)"
channels = [0, 1]
adjudicator = "OneOutOfN"
seed_xor = {}

[[experiment.Protection.systems]]
label = "2oo3 (threshold)"
channels = [0, 1, 2]
seed_xor = {}

[experiment.Protection.systems.adjudicator.KOutOfN]
k = 2

[[experiment.Protection.common_causes]]
p = 1.0
regions = [0]

[experiment.Protection.plant.MarkovWalk]
step = 2
move_prob = 0.004

[experiment.Protection.plant.MarkovWalk.trip.Rect]
x0 = 1054
y0 = 1030
x1 = 1090
y1 = 1070
"#,
        ps[0],
        ps[1],
        ps[2],
        seed ^ WALK_SEEDS[0],
        seed ^ WALK_SEEDS[1],
    );
    t
}

/// A rate plant over an 80 x 80 space with three channels voted by a
/// compiled `KOfN` tree, a flat `KOutOfN` threshold and an `OR(AND)`
/// tree (the `tree_2oo3` layout). A certain common cause plants region
/// 0 (10 % of the profile) in every version; the randomly sampled
/// regions cover under 0.3 %, so every system's PFD, and with it the
/// campaign's relative error, hardly moves from seed to seed.
fn rate_campaign(rng: &mut SplitMix, shards: usize) -> String {
    let seed = rng.seed();
    let ps = [
        rng.jitter(0.45, 0.05),
        rng.jitter(0.25, 0.05),
        rng.jitter(0.15, 0.05),
        rng.jitter(0.3, 0.05),
    ];
    let mut t = String::new();
    let _ = write!(
        t,
        r#"name = "bench-rate"

[seed]
seed = {seed}

[experiment.Protection]
profile = "Uniform"
processes = [[0.5, {}, {}, {}, {}]]
versions = [0, 0, 0]
steps = {RATE_STEPS}
shards = {shards}

[experiment.Protection.space]
nx = 80
ny = 80

[[experiment.Protection.regions]]
[experiment.Protection.regions.Rect]
x0 = 0
y0 = 0
x1 = 79
y1 = 7

[[experiment.Protection.regions]]
[experiment.Protection.regions.Rect]
x0 = 30
y0 = 30
x1 = 31
y1 = 31

[[experiment.Protection.regions]]
[experiment.Protection.regions.Rect]
x0 = 20
y0 = 40
x1 = 21
y1 = 41

[[experiment.Protection.regions]]
[experiment.Protection.regions.Lattice]
x0 = 40
y0 = 10
dx = 3
dy = 0
count = 6

[[experiment.Protection.regions]]
[experiment.Protection.regions.Rect]
x0 = 70
y0 = 70
x1 = 71
y1 = 71

[[experiment.Protection.systems]]
label = "2oo3 (fault tree)"
channels = [0, 1, 2]
seed_xor = 35

[experiment.Protection.systems.tree.KOfN]
k = 2

[[experiment.Protection.systems.tree.KOfN.of]]
Channel = 0

[[experiment.Protection.systems.tree.KOfN.of]]
Channel = 1

[[experiment.Protection.systems.tree.KOfN.of]]
Channel = 2

[[experiment.Protection.systems]]
label = "2oo3 (flat threshold)"
channels = [0, 1, 2]
seed_xor = 35

[experiment.Protection.systems.adjudicator.KOutOfN]
k = 2

[[experiment.Protection.systems]]
label = "OR(AND(C0, C1), C2)"
channels = [0, 1, 2]
seed_xor = 36

[[experiment.Protection.systems.tree.AnyOf]]

[[experiment.Protection.systems.tree.AnyOf.AllOf]]
Channel = 0

[[experiment.Protection.systems.tree.AnyOf.AllOf]]
Channel = 1

[[experiment.Protection.systems.tree.AnyOf]]
Channel = 2

[[experiment.Protection.common_causes]]
p = 1.0
regions = [0]

[experiment.Protection.plant.Rate]
demand_rate = 0.15
"#,
        ps[0], ps[1], ps[2], ps[3]
    );
    t
}

/// The committed ~2e-7 PFD shared-cause 2oo3 system (8 faults behind
/// beta = 0.002) with the given estimator table.
fn rare_event(seed: u64, samples: u64, estimator: &str) -> String {
    format!(
        r#"name = "bench-rare-event"

[seed]
seed = {seed}

[experiment.RareEvent]
channels = 3
k = 2
samples = {samples}

[experiment.RareEvent.model.SharedCause]
beta = 0.002

[experiment.RareEvent.model.SharedCause.base.Params]
ps = [0.001, 0.002, 0.0005, 0.0015, 0.0008, 0.001, 0.0012, 0.0006]
qs = [0.005, 0.003, 0.008, 0.004, 0.006, 0.005, 0.002, 0.007]

{estimator}"#
    )
}

/// A 15-fault model (2^15 fault subsets) over 256 cells, with a target
/// width that takes tens of rounds to close. The round count follows
/// the demands all cells need together, so many cells keep it steady
/// from seed to seed. Fault 0 is
/// near-certain and dominates every version's PFD, so the widest cell,
/// which decides when the sweep stops, has about the same PFD at every
/// seed and the round count hardly moves.
fn adaptive(rng: &mut SplitMix) -> String {
    // The master seed, the fault sizes and fault 0's probability are
    // pinned: the cost of the sweep follows the number of distinct prior
    // atoms (subset sums of the fault sizes), the shape of every cell's
    // posterior, and how many cells carry fault 0 (they need the most
    // demands), all of which move by tens of percent between draws. The
    // benchmark seed jitters the small faults' probabilities.
    let seed = ADAPTIVE_SEED;
    let ps: Vec<f64> = (0..15)
        .map(|i| if i == 0 { 0.9 } else { rng.jitter(0.2, 0.05) })
        .collect();
    let qs: Vec<f64> = (0..15)
        .map(|i| {
            if i == 0 {
                0.006
            } else {
                // Golden-ratio steps give sizes whose 2^15 subset sums
                // are all distinct, so no prior atoms merge.
                0.0002 + 0.0003 * (f64::from(i) * 0.618_033_988_749_895).fract()
            }
        })
        .collect();
    format!(
        r#"name = "bench-adaptive"

[seed]
seed = {seed}

[experiment.AdaptivePfd]
cells = 256

[experiment.AdaptivePfd.model.Params]
ps = {}
qs = {}

[experiment.AdaptivePfd.refinement]
confidence = 0.99
target_width = 0.0013
initial_demands = 256000
round_demands = 256000
max_rounds = 200
"#,
        floats(&ps),
        floats(&qs)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use divrel_bench::Scenario;

    #[test]
    fn same_seed_gives_identical_specs() {
        for w in Workload::ALL {
            for seed in [0, 1, 42, u64::MAX] {
                assert_eq!(specs(w, seed), specs(w, seed), "{}", w.name());
            }
        }
    }

    #[test]
    fn seeds_change_the_specs() {
        for w in Workload::ALL {
            assert_ne!(specs(w, 1), specs(w, 2), "{}", w.name());
        }
    }

    #[test]
    fn every_generated_spec_parses_and_validates() {
        for w in Workload::ALL {
            for seed in [0, 7, 12345] {
                for spec in specs(w, seed) {
                    let scenario = Scenario::from_spec_text(&spec.text)
                        .unwrap_or_else(|e| panic!("{} {}: {e}", w.name(), spec.label));
                    scenario
                        .validate()
                        .unwrap_or_else(|e| panic!("{} {}: {e}", w.name(), spec.label));
                }
            }
        }
    }

    #[test]
    fn fleet_runs_the_campaign_rate_spec() {
        for seed in [3, 99] {
            let campaign = specs(Workload::Campaign, seed);
            let fleet = specs(Workload::Fleet, seed);
            assert_eq!(fleet[0].text, campaign[1].text);
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
