//! Statistical equivalence of the Markov-plant demand compiler and the
//! legacy tick-by-tick simulation.
//!
//! The compiler (`divrel_protection::compiler`) replaces the per-tick
//! RNG loop with analytic geometric dwells plus alias jumps over the
//! embedded quiet-transition chain. That decomposition is algebraically
//! exact, so the compiled and stepwise paths must be **statistically
//! indistinguishable** — this suite holds them to account with
//! chi-squared tests over the two operationally meaningful
//! distributions: demand intervals and failure counts.
//!
//! Seeds are fixed, so every verdict here is deterministic; the p-value
//! thresholds (> 0.01) are the repository's acceptance bar for the
//! compiled fast path.

use divrel::demand::{
    mapping::FaultRegionMap, region::Region, space::GridSpace2D, version::ProgramVersion,
};
use divrel::numerics::ks::chi_squared_homogeneity;
use divrel::protection::compiler::{CompiledEvent, CompiledPlant};
use divrel::protection::plant::{Plant, PlantEvent};
use divrel::protection::{simulation, Adjudicator, Channel, ProtectionSystem};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The shared scenario: a sticky Markov walk over a 40×40 space whose
/// trip set is the 8×8 corner block; two diverse channels whose failure
/// regions overlap on 4 cells **inside** the trip set, so system
/// failures occur at an appreciable conditional rate.
fn setup() -> (Plant, ProtectionSystem) {
    let space = GridSpace2D::new(40, 40).expect("valid space");
    let map = FaultRegionMap::new(
        space,
        vec![Region::rect(0, 0, 3, 3), Region::rect(2, 2, 5, 5)],
    )
    .expect("valid map");
    let system = ProtectionSystem::new(
        vec![
            Channel::new("A", ProgramVersion::new(vec![true, false])),
            Channel::new("B", ProgramVersion::new(vec![false, true])),
        ],
        Adjudicator::OneOutOfN,
        map,
    )
    .expect("valid system");
    let plant = Plant::markov_walk(space, Region::rect(0, 0, 7, 7), 2, 0.15).expect("valid plant");
    (plant, system)
}

/// Demand intervals (quiet ticks between consecutive demands) and
/// per-demand system-failure indicators from the **compiled** sampler.
fn compiled_observations(
    plant: &Plant,
    system: &ProtectionSystem,
    demands: usize,
    seed: u64,
) -> (Vec<u64>, Vec<f64>) {
    let compiled = CompiledPlant::compile(plant)
        .expect("compilable")
        .expect("markov plants compile");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = compiled.initial_state();
    let mut gaps = Vec::with_capacity(demands);
    let mut fails = Vec::with_capacity(demands);
    while gaps.len() < demands {
        match compiled.next_demand(&mut state, u64::MAX, &mut rng) {
            CompiledEvent::Demand { quiet_gap, demand } => {
                gaps.push(quiet_gap);
                let (tripped, _) = system.respond_bits(demand).expect("in space");
                fails.push(f64::from(u8::from(!tripped)));
            }
            CompiledEvent::Quiet { .. } => unreachable!("unbounded budget"),
        }
    }
    (gaps, fails)
}

/// The same observations from the legacy per-tick loop.
fn stepwise_observations(
    plant: &Plant,
    system: &ProtectionSystem,
    demands: usize,
    seed: u64,
) -> (Vec<u64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = plant.initial_state();
    let mut gaps = Vec::with_capacity(demands);
    let mut fails = Vec::with_capacity(demands);
    let mut gap = 0u64;
    while gaps.len() < demands {
        let (next, event) = plant.step(state, &mut rng);
        state = next;
        match event {
            PlantEvent::Quiet => gap += 1,
            PlantEvent::Demand(d) => {
                gaps.push(gap);
                gap = 0;
                let (tripped, _) = system.respond_bits(d).expect("in space");
                fails.push(f64::from(u8::from(!tripped)));
            }
        }
    }
    (gaps, fails)
}

/// Bins interval lengths into exact small categories plus log-spaced
/// tail categories (the interval law is a mass at 0 — bursts inside the
/// trip set — plus a long excursion tail, so uniform bins would leave
/// the middle empty).
fn bin_intervals(gaps: &[u64]) -> Vec<u64> {
    const EDGES: [u64; 14] = [1, 2, 3, 4, 6, 9, 14, 21, 32, 64, 128, 256, 512, 1024];
    let mut counts = vec![0u64; EDGES.len() + 1];
    for &g in gaps {
        let bin = EDGES.iter().position(|&e| g < e).unwrap_or(EDGES.len());
        counts[bin] += 1;
    }
    counts
}

const DEMANDS: usize = 4_000;

#[test]
fn demand_interval_distributions_are_statistically_indistinguishable() {
    let (plant, system) = setup();
    let (compiled_gaps, _) = compiled_observations(&plant, &system, DEMANDS, 101);
    let (stepwise_gaps, _) = stepwise_observations(&plant, &system, DEMANDS, 202);
    let a = bin_intervals(&compiled_gaps);
    let b = bin_intervals(&stepwise_gaps);
    let t = chi_squared_homogeneity(&a, &b).expect("testable");
    assert!(
        t.p_value > 0.01,
        "compiled vs stepwise demand intervals rejected: chi2 = {}, dof = {}, p = {}",
        t.statistic,
        t.dof,
        t.p_value
    );
    // Sanity: the test had real resolving power (several pooled cells).
    assert!(t.dof >= 6, "interval binning collapsed to {} cells", t.dof);
}

/// The sharpest equivalence check available: the compiled sampler's
/// **one-step law** against the plant's exact analytic transition row.
///
/// A `budget = 1` call from a fixed state is one tick of the chain, and
/// restarting from the same state makes every trial **independent** —
/// so a chi-squared GOF against the exact row probabilities is valid at
/// face value. (The suite used to compare failure counts of two long
/// continuous runs instead; demands arrive in trip-set bursts, so those
/// counts are heavily autocorrelated — across seeds, 4000-demand
/// failure counts range from under 70 to over 400 on *both* paths —
/// and a two-sample test that assumes independence rejects true
/// equivalence at astronomical confidence whenever the fixed seeds land
/// a burst unevenly. The replica test below keeps the operational
/// comparison with valid statistics.)
#[test]
fn one_step_law_matches_exact_transition_rows() {
    use divrel::demand::space::Demand;
    use divrel::numerics::special::gamma_q;

    let (plant, _) = setup();
    let compiled = CompiledPlant::compile(&plant)
        .expect("compilable")
        .expect("markov plants compile");
    let space = *plant.space();
    let trip = plant.trip_set().expect("markov plants have trip sets");
    // Deep inside the trip set (demand-dominated row), on the boundary
    // (thin demand branch — the fused-draw rescale regime), and deep
    // outside (no demand successors at all).
    for start in [
        Demand { var1: 3, var2: 3 },
        Demand { var1: 8, var2: 8 },
        Demand { var1: 20, var2: 20 },
    ] {
        let s0 = space.index_of(start).expect("state in space") as u32;
        let row = plant.transition_row(start).expect("enumerable plant");
        // Categories: one per demand successor, plus "quiet tick".
        let demand_cells: Vec<(usize, f64)> = row
            .iter()
            .filter(|(d, _)| trip.contains(*d))
            .map(|&(d, p)| (space.index_of(d).expect("successor in space"), p))
            .collect();
        let p_demand: f64 = demand_cells.iter().map(|&(_, p)| p).sum();
        let trials = 120_000u64;
        let mut rng = StdRng::seed_from_u64(0x51E_u64 + u64::from(s0));
        let mut observed = vec![0u64; demand_cells.len() + 1];
        for _ in 0..trials {
            let mut state = s0;
            match compiled.next_demand(&mut state, 1, &mut rng) {
                CompiledEvent::Demand { demand, quiet_gap } => {
                    assert_eq!(quiet_gap, 0, "budget 1 leaves no room for a gap");
                    let cell = space.index_of(demand).expect("demand in space");
                    let k = demand_cells
                        .iter()
                        .position(|&(c, _)| c == cell)
                        .expect("demand outside the exact row's trip successors");
                    observed[k] += 1;
                }
                CompiledEvent::Quiet { ticks } => {
                    assert_eq!(ticks, 1);
                    *observed.last_mut().expect("non-empty") += 1;
                }
            }
        }
        if demand_cells.is_empty() {
            assert_eq!(observed[0], trials, "state {start} must never demand");
            continue;
        }
        // Chi-squared GOF against the exact probabilities (every
        // expected count here is far above the >= 5 pooling rule).
        let n = trials as f64;
        let mut statistic = 0.0;
        for (k, &(_, p)) in demand_cells.iter().enumerate() {
            let e = p * n;
            statistic += (observed[k] as f64 - e) * (observed[k] as f64 - e) / e;
        }
        // The quiet category exists only where the row leaves quiet
        // mass (inside the trip set every transition is a demand).
        let o_quiet = observed[demand_cells.len()] as f64;
        let mut dof = demand_cells.len() - 1;
        if p_demand < 1.0 - 1e-12 {
            let e_quiet = (1.0 - p_demand) * n;
            statistic += (o_quiet - e_quiet) * (o_quiet - e_quiet) / e_quiet;
            dof += 1;
        } else {
            assert_eq!(
                o_quiet, 0.0,
                "all-demand state {start} produced a quiet tick"
            );
        }
        let p_value = gamma_q(dof as f64 / 2.0, statistic / 2.0).expect("valid chi2");
        assert!(
            p_value > 0.01,
            "one-step law from {start} rejected: chi2 = {statistic}, dof = {dof}, p = {p_value}"
        );
    }
}

/// Operational failure rates, compared with statistics that respect the
/// burst structure: independent replicas (fresh seed each) are the iid
/// unit, and the two paths' replica means are compared by a Welch test
/// on the **across-replica** variance.
#[test]
fn failure_rates_agree_across_independent_replicas() {
    let (plant, system) = setup();
    let replicas = 12usize;
    let per_replica = 2_000usize;
    let count = |v: &[f64]| v.iter().filter(|&&x| x > 0.5).count() as f64;
    let compiled: Vec<f64> = (0..replicas)
        .map(|r| {
            let (_, fails) = compiled_observations(&plant, &system, per_replica, 7_000 + r as u64);
            count(&fails)
        })
        .collect();
    let stepwise: Vec<f64> = (0..replicas)
        .map(|r| {
            let (_, fails) = stepwise_observations(&plant, &system, per_replica, 8_000 + r as u64);
            count(&fails)
        })
        .collect();
    assert!(
        compiled.iter().sum::<f64>() > 100.0,
        "compiled path saw almost no failures"
    );
    assert!(
        stepwise.iter().sum::<f64>() > 100.0,
        "stepwise path saw almost no failures"
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let var = |v: &[f64], m: f64| {
        v.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (v.len() - 1) as f64
    };
    let (mc, ms) = (mean(&compiled), mean(&stepwise));
    let (vc, vs) = (var(&compiled, mc), var(&stepwise, ms));
    let stderr = ((vc + vs) / replicas as f64).sqrt();
    assert!(
        (mc - ms).abs() < 4.5 * stderr + 1.0,
        "replica failure means diverge: compiled {mc} vs stepwise {ms} \
         (stderr {stderr}; compiled {compiled:?}, stepwise {stepwise:?})"
    );
}

#[test]
fn full_driver_agrees_with_stepwise_on_log_statistics() {
    // End to end through `simulation::run` (which compiles internally):
    // windowed demand counts from the two paths are homogeneous.
    let (plant, system) = setup();
    let windows = 40usize;
    let window_steps = 20_000u64;
    // Guard the test's premise: `run` must actually take the compiled
    // path for this plant and window length (sticky plant, window long
    // enough to amortise compilation) — otherwise this would silently
    // compare the tick loop with itself.
    assert!(
        CompiledPlant::is_profitable(&plant),
        "test plant no longer satisfies the compiled-path probe"
    );
    assert!(
        window_steps >= 4 * plant.space().cell_count() as u64,
        "window too short for run() to choose the compiled path"
    );
    let mut compiled_counts = Vec::with_capacity(windows);
    let mut stepwise_counts = Vec::with_capacity(windows);
    for w in 0..windows {
        let mut rng = StdRng::seed_from_u64(9_000 + w as u64);
        compiled_counts.push(
            simulation::run(&plant, &system, window_steps, &mut rng)
                .expect("runs")
                .demands(),
        );
        let mut rng = StdRng::seed_from_u64(19_000 + w as u64);
        stepwise_counts.push(
            simulation::run_stepwise(&plant, &system, window_steps, &mut rng)
                .expect("runs")
                .demands(),
        );
    }
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
    let sd = |v: &[u64], m: f64| {
        (v.iter()
            .map(|&c| (c as f64 - m) * (c as f64 - m))
            .sum::<f64>()
            / (v.len() - 1) as f64)
            .sqrt()
    };
    let (mc, ms) = (mean(&compiled_counts), mean(&stepwise_counts));
    let (sc, ss) = (sd(&compiled_counts, mc), sd(&stepwise_counts, ms));
    let stderr = ((sc * sc + ss * ss) / windows as f64).sqrt();
    assert!(
        (mc - ms).abs() < 4.0 * stderr + 1.0,
        "windowed demand means diverge: compiled {mc} vs stepwise {ms} (stderr {stderr})"
    );
}

#[test]
fn sharded_campaign_reproduces_and_is_consistent_across_layouts() {
    // The public-API face of the determinism satellite: fixed seed and
    // layout reproduce bit-for-bit; layouts only change the RNG stream.
    let (plant, system) = setup();
    let a = simulation::run_sharded(&plant, &system, 120_000, 4, 55).expect("runs");
    let b = simulation::run_sharded(&plant, &system, 120_000, 4, 55).expect("runs");
    assert_eq!(a, b);
    let c = simulation::run_sharded(&plant, &system, 120_000, 2, 55).expect("runs");
    assert_eq!(a.steps(), c.steps());
    assert!(a.demands() > 0 && c.demands() > 0);
}

/// An RNG that counts the words it hands out, so a test can hold a
/// sampler to the number of draws it makes rather than to wall time.
struct CountingRng {
    inner: StdRng,
    draws: u64,
}

impl CountingRng {
    fn seeded(seed: u64) -> Self {
        CountingRng {
            inner: StdRng::seed_from_u64(seed),
            draws: 0,
        }
    }
}

impl RngCore for CountingRng {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.inner.next_u32()
    }
}

#[test]
fn sparse_compiled_walk_draws_10x_fewer_words_than_the_tick_loop() {
    // A 4096 × 4096 sticky walk (16,777,216 cells, four times past the
    // eager compiler's ceiling) over 400k steps: the tick loop draws at
    // least one word per tick, the sparse compiled sampler one dwell
    // plus one jump per state change. The counts are pure functions of
    // the seed, so the verdict is deterministic: there is no false-alarm
    // rate. The tick loop makes 401,728 draws and the compiled sampler
    // 1,503, a factor of 267 against the 10x threshold.
    let space = GridSpace2D::new(4096, 4096).expect("valid space");
    let map = FaultRegionMap::new(
        space,
        vec![Region::rect(0, 0, 2, 2), Region::rect(1, 1, 3, 3)],
    )
    .expect("valid map");
    let system = ProtectionSystem::new(
        vec![
            Channel::new("A", ProgramVersion::new(vec![true, false])),
            Channel::new("B", ProgramVersion::new(vec![false, true])),
        ],
        Adjudicator::OneOutOfN,
        map,
    )
    .expect("valid system");
    let plant = Plant::markov_walk(space, Region::rect(0, 0, 4, 4), 2, 0.002).expect("valid plant");
    let compiled = CompiledPlant::compile(&plant)
        .expect("compilable")
        .expect("markov plants compile");
    assert!(
        compiled.is_sparse(),
        "a 16.7M-cell space must take the sparse path"
    );
    let steps = 400_000u64;
    let mut ticked = CountingRng::seeded(901);
    let stepwise = simulation::run_stepwise(&plant, &system, steps, &mut ticked).expect("runs");
    let mut jumped = CountingRng::seeded(901);
    let fast = simulation::run_compiled(&compiled, &system, steps, &mut jumped).expect("runs");
    assert_eq!((stepwise.steps(), fast.steps()), (steps, steps));
    let factor = ticked.draws as f64 / jumped.draws as f64;
    assert!(
        factor >= 10.0,
        "tick loop {} draws vs sparse compiled {}: {factor:.1}x, below the 10x gate",
        ticked.draws,
        jumped.draws
    );
}
