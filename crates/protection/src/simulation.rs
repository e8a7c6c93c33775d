//! Driving a protection system against a plant.
//!
//! [`run`] executes the Fig 1 loop: the plant evolves; when it raises a
//! demand, the channels respond, the adjudicator combines, and the log
//! records. This is the operational-testing path used by experiment F1 to
//! compare observed PFDs against the model's analytic predictions, and by
//! the Bayesian layer to generate the evidence it updates on.
//!
//! For **memoryless** (rate) plants the driver skips quiet ticks
//! analytically: the gap until the next demand is geometric with the
//! plant's demand rate, so it is sampled in one draw and the whole run
//! collapses to ~one iteration per *demand* instead of one per tick (a
//! 400 000-step run at rate `r` does ~`400 000 · r` iterations). Each
//! demand is then answered from the system's precomputed trip tables
//! via [`ProtectionSystem::respond_bits`], allocation-free.
//!
//! **State-dependent** (trajectory / Markov-walk) plants go through the
//! demand compiler ([`crate::compiler::CompiledPlant`]): their one-step
//! law is compiled to per-state geometric dwell samplers plus alias
//! tables over the embedded quiet-transition chain, so the run advances
//! in `record_quiet_n(gap)` jumps between state changes instead of one
//! RNG draw per tick. Plants the compiler cannot enumerate degrade
//! gracefully to the exact tick-by-tick loop ([`run_stepwise`], also
//! kept public as the reference path of the statistical-equivalence
//! and draw-count tests).
//!
//! Long campaigns split into shards ([`run_campaign_shard`], folded in
//! order by [`run_sharded`]): deterministic per-shard seeds, one
//! [`OperationLog`] merge at the end, results reproducible for a fixed
//! seed and shard layout.

use crate::compiler::{CompiledEvent, CompiledPlant};
use crate::error::ProtectionError;
use crate::history::OperationLog;
use crate::plant::{Plant, PlantEvent};
use crate::system::ProtectionSystem;
use divrel_demand::profile::Profile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs the plant/system loop for `steps` ticks, returning the operation
/// log. Memoryless plants take the geometric demand-gap fast path;
/// sticky stateful plants (see [`CompiledPlant::is_profitable`]) take
/// the compiled demand-gap path; everything else runs tick by tick.
///
/// # Errors
///
/// Propagates [`ProtectionSystem::respond`] errors (impossible for a
/// validated system).
pub fn run<R: Rng + ?Sized>(
    plant: &Plant,
    system: &ProtectionSystem,
    steps: u64,
    rng: &mut R,
) -> Result<OperationLog, ProtectionError> {
    if let Some((profile, rate)) = plant.rate_parts() {
        return run_rate_gaps(profile, rate, system, steps, rng);
    }
    if compile_worthwhile(plant, steps) {
        if let Some(compiled) = CompiledPlant::compile(plant)? {
            return run_compiled(&compiled, system, steps, rng);
        }
    }
    run_stepwise(plant, system, steps, rng)
}

/// Whether a one-shot run of `steps` ticks should pay for compilation:
/// the plant must be sticky ([`CompiledPlant::is_profitable`]), and —
/// for spaces the **eager** compiler enumerates — the run must be long
/// enough to amortise the `O(cells × successors)` compile; a short run
/// over a huge state space is faster ticked than compiled. Spaces past
/// [`MAX_COMPILED_CELLS`](crate::compiler::MAX_COMPILED_CELLS) compile
/// **sparsely** (per-state cost on first visit, nothing up front), so
/// they need no amortisation test at all — any sticky plant up to
/// [`MAX_SPARSE_CELLS`](crate::compiler::MAX_SPARSE_CELLS) rides the
/// analytic path.
fn compile_worthwhile(plant: &Plant, steps: u64) -> bool {
    let cells = plant.space().cell_count();
    CompiledPlant::is_profitable(plant)
        && if cells > crate::compiler::MAX_COMPILED_CELLS {
            cells <= crate::compiler::MAX_SPARSE_CELLS
        } else {
            steps >= 4 * cells as u64
        }
}

/// Runs a pre-compiled plant for `steps` ticks via analytic demand-gap
/// jumps. Compile once with [`CompiledPlant::compile`] and reuse across
/// runs (and across shards — see [`run_campaign_shard`]).
///
/// # Errors
///
/// Propagates [`ProtectionSystem::respond`] errors (impossible for a
/// validated system over the same space).
pub fn run_compiled<R: Rng + ?Sized>(
    compiled: &CompiledPlant,
    system: &ProtectionSystem,
    steps: u64,
    rng: &mut R,
) -> Result<OperationLog, ProtectionError> {
    let mut log = OperationLog::new(system.channels().len());
    let mut state = compiled.initial_state();
    let mut remaining = steps;
    while remaining > 0 {
        match compiled.next_demand(&mut state, remaining, rng) {
            CompiledEvent::Quiet { ticks } => {
                log.record_quiet_n(ticks);
                break;
            }
            CompiledEvent::Demand { quiet_gap, demand } => {
                log.record_quiet_n(quiet_gap);
                let (tripped, fail_mask) = system.respond_bits(demand)?;
                log.record_demand_bits(tripped, fail_mask);
                remaining -= quiet_gap + 1;
            }
        }
    }
    Ok(log)
}

/// Splitting constant for per-shard RNG streams (golden-ratio increment,
/// the same scheme as `divrel_devsim`'s Monte-Carlo sharding).
const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// The seed of shard `index` of a campaign seeded with `seed`.
pub fn shard_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add(SHARD_SEED_STRIDE.wrapping_mul(index as u64 + 1))
}

/// Runs a long operational campaign as `threads` shards, folding the
/// per-shard [`OperationLog`]s in shard order. `threads` is the shard
/// count; the shards run one after another on the calling thread, each
/// exactly as [`run_campaign_shard`] runs it.
///
/// Each shard runs an independent replica of the plant (its own RNG
/// stream via [`shard_seed`], its own initial state), so the merged log
/// is a campaign over `threads` statistically identical plants rather
/// than one serialised history — the demand/failure statistics the
/// assessor consumes are unchanged, which is exactly the property the
/// determinism test suite checks across shard layouts. Results are
/// bit-reproducible for a fixed `(seed, threads)` pair.
///
/// Compilable plants are compiled **once** and shared by every shard;
/// rate plants take the geometric path per shard; everything else falls
/// back to the tick loop per shard.
///
/// # Errors
///
/// [`ProtectionError::InvalidConfig`] for `threads == 0`; otherwise
/// the first response error in shard order.
pub fn run_sharded(
    plant: &Plant,
    system: &ProtectionSystem,
    steps: u64,
    threads: usize,
    seed: u64,
) -> Result<OperationLog, ProtectionError> {
    if threads == 0 {
        return Err(ProtectionError::InvalidConfig(
            "sharded campaign needs >= 1 thread".into(),
        ));
    }
    // One compilation is amortised across every shard, but fast-mixing
    // plants still simulate faster tick by tick, so the same
    // worthwhileness probe as `run` applies (against the whole campaign
    // length — the compile happens once, not per shard).
    let compiled = campaign_compile(plant, steps)?;
    let mut merged = OperationLog::new(system.channels().len());
    for (i, &count) in shard_layout(steps, threads).iter().enumerate() {
        merged.merge(&run_campaign_shard(
            plant,
            compiled.as_ref(),
            system,
            steps,
            count,
            shard_seed(seed, i),
        )?);
    }
    Ok(merged)
}

/// The compile-or-tick decision of a whole campaign, reified: returns
/// the compiled plant exactly when [`run_sharded`] over `campaign_steps`
/// would compile (sticky plant, long enough run to amortise), else
/// `None`. Distributed executors call this once per campaign and pass
/// the result to every [`run_campaign_shard`], matching the in-process
/// decision bit for bit.
///
/// # Errors
///
/// Compiler errors for a plant with an inconsistent transition law.
pub fn campaign_compile(
    plant: &Plant,
    campaign_steps: u64,
) -> Result<Option<CompiledPlant>, ProtectionError> {
    if compile_worthwhile(plant, campaign_steps) {
        CompiledPlant::compile(plant)
    } else {
        Ok(None)
    }
}

/// The deterministic shard layout of [`run_sharded`]: `steps` split
/// into at most `shards` near-equal counts (empty shards dropped). A
/// pure function of its arguments, exposed so distributed executors can
/// evaluate individual shards remotely and still land on the exact
/// in-process layout.
pub fn shard_layout(steps: u64, shards: usize) -> Vec<u64> {
    let t = (shards as u64).min(steps).max(1);
    let base = steps / t;
    let extra = steps % t;
    (0..t)
        .map(|i| base + u64::from(i < extra))
        .filter(|&c| c > 0)
        .collect()
}

/// Runs **one** shard of a [`run_sharded`] campaign, bit-identically to
/// the shard a sharded run would execute: `count` must be the shard's
/// entry in [`shard_layout`]`(campaign_steps, shards)` and `seed` the
/// value of [`shard_seed`]`(campaign_seed, index)`. `campaign_steps`
/// (the **whole** campaign length) drives the compile-or-tick decision,
/// which [`run_sharded`] takes once per campaign — a remote worker must
/// make the same call or its shard would follow a different RNG stream.
///
/// `compiled` optionally supplies a pre-compiled plant so callers
/// evaluating many shards amortise compilation; pass `None` to let the
/// function decide (and compile) by itself.
///
/// # Errors
///
/// Propagated response errors, as in [`run_sharded`].
pub fn run_campaign_shard(
    plant: &Plant,
    compiled: Option<&CompiledPlant>,
    system: &ProtectionSystem,
    campaign_steps: u64,
    count: u64,
    seed: u64,
) -> Result<OperationLog, ProtectionError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let owned;
    let compiled = if compile_worthwhile(plant, campaign_steps) {
        match compiled {
            Some(c) => Some(c),
            None => {
                owned = CompiledPlant::compile(plant)?;
                owned.as_ref()
            }
        }
    } else {
        None
    };
    match compiled {
        Some(c) => run_compiled(c, system, count, &mut rng),
        None => run(plant, system, count, &mut rng),
    }
}

/// The reference tick-by-tick loop (every plant step draws the RNG).
/// [`run`] uses it for trajectory plants; the equivalence and draw-count
/// tests hold the demand-gap fast path to it.
///
/// # Errors
///
/// Propagates [`ProtectionSystem::respond`] errors.
pub fn run_stepwise<R: Rng + ?Sized>(
    plant: &Plant,
    system: &ProtectionSystem,
    steps: u64,
    rng: &mut R,
) -> Result<OperationLog, ProtectionError> {
    let mut log = OperationLog::new(system.channels().len());
    let mut state = plant.initial_state();
    for _ in 0..steps {
        let (next, event) = plant.step(state, rng);
        state = next;
        match event {
            PlantEvent::Quiet => log.record_quiet(),
            PlantEvent::Demand(d) => {
                let (tripped, fail_mask) = system.respond_bits(d)?;
                log.record_demand_bits(tripped, fail_mask);
            }
        }
    }
    Ok(log)
}

/// Capped geometric sampler shared by the rate-plant gap path and the
/// compiled per-state dwell path: the number of consecutive "survive"
/// ticks before the first "exit" tick, `P(gap = k) = s^k · (1 − s)`
/// with survive probability `s`, truncated at `remaining`.
/// `inv_log_survive = 1 / ln(s)`, with `0.0` encoding `s = 0` (exit
/// every tick).
pub(crate) fn geometric_gap<R: Rng + ?Sized>(
    inv_log_survive: f64,
    remaining: u64,
    rng: &mut R,
) -> u64 {
    if inv_log_survive == 0.0 {
        return 0; // rate = 1: every step is a demand
    }
    let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
    let gap = u.ln() * inv_log_survive; // >= 0
    if gap >= remaining as f64 {
        remaining
    } else {
        gap as u64
    }
}

/// `1 / ln(1 − rate)` precomputed once per run (0 encodes `rate = 1`).
fn inv_log_survive(rate: f64) -> f64 {
    if rate >= 1.0 {
        0.0
    } else {
        (1.0 - rate).ln().recip()
    }
}

fn run_rate_gaps<R: Rng + ?Sized>(
    profile: &Profile,
    rate: f64,
    system: &ProtectionSystem,
    steps: u64,
    rng: &mut R,
) -> Result<OperationLog, ProtectionError> {
    let mut log = OperationLog::new(system.channels().len());
    let ils = inv_log_survive(rate);
    let mut remaining = steps;
    while remaining > 0 {
        let gap = geometric_gap(ils, remaining, rng);
        if gap >= remaining {
            log.record_quiet_n(remaining);
            break;
        }
        log.record_quiet_n(gap);
        remaining -= gap + 1;
        let d = profile.sample(rng);
        let (tripped, fail_mask) = system.respond_bits(d)?;
        log.record_demand_bits(tripped, fail_mask);
    }
    Ok(log)
}

/// Runs until `demands` demands have been observed (with a step safety
/// cap), for experiments that need a fixed evidence size. Memoryless
/// plants take the demand-gap fast path.
///
/// # Errors
///
/// [`ProtectionError::DemandShortfall`] — carrying the observed count,
/// the configured target and the exhausted step cap — if the cap is hit
/// before enough demands occurred; propagated response errors otherwise.
pub fn run_until_demands<R: Rng + ?Sized>(
    plant: &Plant,
    system: &ProtectionSystem,
    demands: u64,
    max_steps: u64,
    rng: &mut R,
) -> Result<OperationLog, ProtectionError> {
    if let Some((profile, rate)) = plant.rate_parts() {
        let mut log = OperationLog::new(system.channels().len());
        let ils = inv_log_survive(rate);
        let mut steps_left = max_steps;
        while log.demands() < demands {
            let gap = geometric_gap(ils, steps_left, rng);
            if gap >= steps_left {
                return Err(ProtectionError::DemandShortfall {
                    observed: log.demands(),
                    target: demands,
                    max_steps,
                });
            }
            log.record_quiet_n(gap);
            steps_left -= gap + 1;
            let d = profile.sample(rng);
            let (tripped, fail_mask) = system.respond_bits(d)?;
            log.record_demand_bits(tripped, fail_mask);
        }
        return Ok(log);
    }
    if let Some(compiled) = compile_worthwhile(plant, max_steps)
        .then(|| CompiledPlant::compile(plant))
        .transpose()?
        .flatten()
    {
        let mut log = OperationLog::new(system.channels().len());
        let mut state = compiled.initial_state();
        let mut steps_left = max_steps;
        while log.demands() < demands {
            match compiled.next_demand(&mut state, steps_left, rng) {
                CompiledEvent::Quiet { .. } => {
                    return Err(ProtectionError::DemandShortfall {
                        observed: log.demands(),
                        target: demands,
                        max_steps,
                    });
                }
                CompiledEvent::Demand { quiet_gap, demand } => {
                    log.record_quiet_n(quiet_gap);
                    steps_left -= quiet_gap + 1;
                    let (tripped, fail_mask) = system.respond_bits(demand)?;
                    log.record_demand_bits(tripped, fail_mask);
                }
            }
        }
        return Ok(log);
    }
    let mut log = OperationLog::new(system.channels().len());
    let mut state = plant.initial_state();
    let mut steps = 0u64;
    while log.demands() < demands {
        if steps >= max_steps {
            return Err(ProtectionError::DemandShortfall {
                observed: log.demands(),
                target: demands,
                max_steps,
            });
        }
        let (next, event) = plant.step(state, rng);
        state = next;
        steps += 1;
        match event {
            PlantEvent::Quiet => log.record_quiet(),
            PlantEvent::Demand(d) => {
                let (tripped, fail_mask) = system.respond_bits(d)?;
                log.record_demand_bits(tripped, fail_mask);
            }
        }
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjudicator::Adjudicator;
    use crate::channel::Channel;
    use divrel_demand::mapping::FaultRegionMap;
    use divrel_demand::profile::Profile;
    use divrel_demand::region::Region;
    use divrel_demand::space::GridSpace2D;
    use divrel_demand::version::ProgramVersion;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Plant, ProtectionSystem, Profile) {
        let space = GridSpace2D::new(20, 20).unwrap();
        let profile = Profile::uniform(&space);
        let map = FaultRegionMap::new(
            space,
            vec![Region::rect(0, 0, 3, 3), Region::rect(2, 2, 5, 5)],
        )
        .unwrap();
        let system = ProtectionSystem::new(
            vec![
                Channel::new("A", ProgramVersion::new(vec![true, false])),
                Channel::new("B", ProgramVersion::new(vec![false, true])),
            ],
            Adjudicator::OneOutOfN,
            map,
        )
        .unwrap();
        let plant = Plant::with_demand_rate(profile.clone(), 0.3).unwrap();
        (plant, system, profile)
    }

    #[test]
    fn observed_pfd_converges_to_true_pfd() {
        let (plant, system, profile) = setup();
        let truth = system.true_pfd(&profile).unwrap();
        // Overlap of the two 16-cell regions is 2x2 = 4 cells of 400.
        assert!((truth - 0.01).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(1);
        let log = run(&plant, &system, 400_000, &mut rng).unwrap();
        let observed = log.pfd_estimate().unwrap();
        // ~120k demands; binomial std err ~ sqrt(0.01*0.99/120000) ≈ 2.9e-4.
        assert!(
            (observed - truth).abs() < 6.0 * (truth * (1.0 - truth) / 120_000.0).sqrt(),
            "observed {observed} vs truth {truth}"
        );
    }

    #[test]
    fn channel_pfds_match_their_regions() {
        let (plant, system, profile) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let log = run(&plant, &system, 200_000, &mut rng).unwrap();
        // Each channel's failure region is 16 cells of 400 = 0.04.
        for ch in 0..2 {
            let est = log.channel_pfd_estimate(ch).unwrap();
            assert!((est - 0.04).abs() < 0.005, "channel {ch}: {est}");
        }
        let _ = profile;
    }

    #[test]
    fn run_until_demands_reaches_target() {
        let (plant, system, _) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let log = run_until_demands(&plant, &system, 500, 1_000_000, &mut rng).unwrap();
        assert_eq!(log.demands(), 500);
        // Cap enforcement.
        let mut rng = StdRng::seed_from_u64(4);
        assert!(run_until_demands(&plant, &system, 500, 10, &mut rng).is_err());
    }

    #[test]
    fn cap_hit_reports_target_context() {
        // Regression: the error must name what was observed, what was
        // configured, and the exhausted cap — for both plant kinds.
        let (plant, system, _) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let err = run_until_demands(&plant, &system, 500, 10, &mut rng).unwrap_err();
        match err {
            ProtectionError::DemandShortfall {
                observed,
                target,
                max_steps,
            } => {
                assert!(observed < 500);
                assert_eq!(target, 500);
                assert_eq!(max_steps, 10);
            }
            other => panic!("expected DemandShortfall, got {other:?}"),
        }
        assert!(err.to_string().contains("of 500 demands"));
        assert!(err.to_string().contains("10 steps"));

        // Trajectory plant (stepwise path): same typed error.
        let space = GridSpace2D::new(30, 30).unwrap();
        let map = FaultRegionMap::new(space, vec![Region::rect(0, 0, 2, 2)]).unwrap();
        let sys = ProtectionSystem::new(
            vec![
                Channel::new("A", ProgramVersion::new(vec![true])),
                Channel::new("B", ProgramVersion::new(vec![false])),
            ],
            Adjudicator::OneOutOfN,
            map,
        )
        .unwrap();
        let plant = Plant::trajectory(space, Region::rect(0, 0, 2, 2), 1).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let err = run_until_demands(&plant, &sys, 10_000, 5, &mut rng).unwrap_err();
        assert!(matches!(
            err,
            ProtectionError::DemandShortfall {
                target: 10_000,
                max_steps: 5,
                ..
            }
        ));
    }

    #[test]
    fn gap_sampler_matches_stepwise_statistics() {
        // The demand-gap fast path and the tick-by-tick reference are
        // the same stochastic process: compare demand counts and PFD
        // estimates over a long run.
        let (plant, system, _) = setup();
        let steps = 200_000u64;
        let mut rng = StdRng::seed_from_u64(11);
        let fast = run(&plant, &system, steps, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let slow = run_stepwise(&plant, &system, steps, &mut rng).unwrap();
        assert_eq!(fast.steps(), steps);
        assert_eq!(slow.steps(), steps);
        // Demand rate 0.3: std dev of count ≈ sqrt(0.3·0.7·200k) ≈ 205.
        let expect = 0.3 * steps as f64;
        assert!((fast.demands() as f64 - expect).abs() < 6.0 * 205.0);
        assert!((slow.demands() as f64 - expect).abs() < 6.0 * 205.0);
        // Both PFD estimates near the true 0.01.
        assert!((fast.pfd_estimate().unwrap() - 0.01).abs() < 0.003);
        assert!((slow.pfd_estimate().unwrap() - 0.01).abs() < 0.003);
        // Channel failure estimates agree too.
        for ch in 0..2 {
            let a = fast.channel_pfd_estimate(ch).unwrap();
            let b = slow.channel_pfd_estimate(ch).unwrap();
            assert!((a - b).abs() < 0.01, "channel {ch}: {a} vs {b}");
        }
    }

    #[test]
    fn stuck_sensor_failure_injection() {
        // 1oo2 where channel B carries a fault and channel A's sensor is
        // stuck INSIDE A's failure region: A fails every demand
        // (fail-danger), so protection degrades to channel B alone and
        // the system fails exactly on B's region.
        let space = GridSpace2D::new(20, 20).unwrap();
        let profile = Profile::uniform(&space);
        let map = FaultRegionMap::new(
            space,
            vec![Region::rect(0, 0, 3, 3), Region::rect(10, 10, 13, 13)],
        )
        .unwrap();
        let sys = ProtectionSystem::new(
            vec![
                Channel::with_view(
                    "A",
                    ProgramVersion::new(vec![true, false]),
                    crate::sensing::SensorView::Stuck {
                        at_var1: 1,
                        at_var2: 1,
                    },
                ),
                Channel::new("B", ProgramVersion::new(vec![false, true])),
            ],
            Adjudicator::OneOutOfN,
            map,
        )
        .unwrap();
        // System PFD = measure of B's region = 16/400.
        assert!((sys.true_pfd(&profile).unwrap() - 0.04).abs() < 1e-12);
        // With a healthy channel A the intersection is empty.
        let healthy = ProtectionSystem::new(
            vec![
                Channel::new("A", ProgramVersion::new(vec![true, false])),
                Channel::new("B", ProgramVersion::new(vec![false, true])),
            ],
            Adjudicator::OneOutOfN,
            sys.map().clone(),
        )
        .unwrap();
        assert_eq!(healthy.true_pfd(&profile).unwrap(), 0.0);
    }

    fn markov_setup() -> (Plant, ProtectionSystem) {
        let space = GridSpace2D::new(40, 40).unwrap();
        let map = FaultRegionMap::new(
            space,
            vec![Region::rect(0, 0, 3, 3), Region::rect(2, 2, 5, 5)],
        )
        .unwrap();
        let system = ProtectionSystem::new(
            vec![
                Channel::new("A", ProgramVersion::new(vec![true, false])),
                Channel::new("B", ProgramVersion::new(vec![false, true])),
            ],
            Adjudicator::OneOutOfN,
            map,
        )
        .unwrap();
        let plant = Plant::markov_walk(space, Region::rect(0, 0, 7, 7), 2, 0.1).unwrap();
        (plant, system)
    }

    /// Mean and standard deviation of per-replica demand counts.
    fn replica_stats(counts: &[f64]) -> (f64, f64) {
        let n = counts.len() as f64;
        let mean = counts.iter().sum::<f64>() / n;
        let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / (n - 1.0);
        (mean, var.sqrt())
    }

    #[test]
    fn markov_plant_takes_compiled_path_and_matches_stepwise_statistics() {
        // The demand stream of a sticky Markov plant is bursty (demands
        // cluster during rare excursions into the trip region), so a
        // single run's demand count has variance far beyond the binomial
        // band. Compare replica means instead, with a tolerance derived
        // from the observed replica spread.
        let (plant, system) = markov_setup();
        let (steps, replicas) = (100_000u64, 16);
        // Guard the premise: `run` must actually pick the compiled path
        // here, or this degenerates to stepwise-vs-stepwise.
        assert!(
            compile_worthwhile(&plant, steps),
            "markov test plant no longer takes the compiled path"
        );
        let mut fast_counts = Vec::new();
        let mut slow_counts = Vec::new();
        let mut fast_failures = 0u64;
        let mut fast_demands = 0u64;
        let mut slow_failures = 0u64;
        let mut slow_demands = 0u64;
        for r in 0..replicas {
            let mut rng = StdRng::seed_from_u64(1_000 + r);
            let fast = run(&plant, &system, steps, &mut rng).unwrap();
            assert_eq!(fast.steps(), steps);
            fast_counts.push(fast.demands() as f64);
            fast_failures += fast.system_failures();
            fast_demands += fast.demands();
            let mut rng = StdRng::seed_from_u64(2_000 + r);
            let slow = run_stepwise(&plant, &system, steps, &mut rng).unwrap();
            assert_eq!(slow.steps(), steps);
            slow_counts.push(slow.demands() as f64);
            slow_failures += slow.system_failures();
            slow_demands += slow.demands();
        }
        let (mf, sf) = replica_stats(&fast_counts);
        let (ms, ss) = replica_stats(&slow_counts);
        assert!(mf > 500.0, "compiled runs saw no traffic");
        let stderr = ((sf * sf + ss * ss) / replicas as f64).sqrt();
        assert!(
            (mf - ms).abs() < 4.0 * stderr + 1.0,
            "compiled mean demands {mf} vs stepwise {ms} (stderr {stderr})"
        );
        // System failure rates per demand agree (demand values land in
        // the same places).
        let pf = fast_failures as f64 / fast_demands as f64;
        let ps = slow_failures as f64 / slow_demands as f64;
        assert!((pf - ps).abs() < 0.01, "failure rate {pf} vs {ps}");
    }

    #[test]
    fn run_until_demands_compiled_path_reaches_target_and_reports_shortfall() {
        let (plant, system) = markov_setup();
        let mut rng = StdRng::seed_from_u64(33);
        let log = run_until_demands(&plant, &system, 200, 10_000_000, &mut rng).unwrap();
        assert_eq!(log.demands(), 200);
        let mut rng = StdRng::seed_from_u64(34);
        let err = run_until_demands(&plant, &system, 200, 50, &mut rng).unwrap_err();
        assert!(matches!(
            err,
            ProtectionError::DemandShortfall {
                target: 200,
                max_steps: 50,
                ..
            }
        ));
    }

    #[test]
    fn sharded_campaign_is_deterministic_per_seed_and_layout() {
        // Mirrors devsim's `deterministic_per_seed_and_thread_invariant`:
        // a fixed (seed, shard count) pair reproduces exactly; different
        // shard layouts are distinct streams but statistically consistent.
        let (plant, system) = markov_setup();
        let steps = 200_000u64;
        let a = run_sharded(&plant, &system, steps, 4, 7).unwrap();
        let b = run_sharded(&plant, &system, steps, 4, 7).unwrap();
        assert_eq!(a, b, "same seed and layout must reproduce exactly");
        assert_eq!(a.steps(), steps);
        let c = run_sharded(&plant, &system, steps, 1, 7).unwrap();
        assert_eq!(c.steps(), steps);
        // Different layouts are different RNG streams; the bursty demand
        // stream keeps single-campaign counts noisy, so only require
        // loose consistency here (the replica-based test above and the
        // chi-squared suite in tests/ carry the sharp comparison).
        let (da, dc) = (a.demands() as f64, c.demands() as f64);
        assert!(
            (da - dc).abs() / dc < 0.5,
            "4-shard demands {da} vs 1-shard {dc}"
        );
        // Rate plants shard too, with the same exact-reproduction law.
        let (rate_plant, rate_system, _) = setup();
        let r1 = run_sharded(&rate_plant, &rate_system, 100_000, 3, 11).unwrap();
        let r2 = run_sharded(&rate_plant, &rate_system, 100_000, 3, 11).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1.steps(), 100_000);
        assert!(run_sharded(&rate_plant, &rate_system, 1_000, 0, 1).is_err());
    }

    #[test]
    fn shard_layout_covers_and_seeds_differ() {
        assert_eq!(shard_layout(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(shard_layout(3, 16).iter().sum::<u64>(), 3);
        assert!(shard_layout(0, 4).is_empty());
        assert_ne!(shard_seed(0, 0), shard_seed(0, 1));
        assert_ne!(shard_seed(1, 0), shard_seed(2, 0));
    }

    #[test]
    fn campaign_shards_reassemble_run_sharded_bit_identically() {
        // Evaluate every shard individually (as a distributed worker
        // would), merge in shard order, and land on the exact bits of
        // the in-process sharded run — for both a compiled Markov plant
        // and a rate plant, with and without a pre-compiled instance.
        let (plant, system) = markov_setup();
        let (steps, shards, seed) = (120_000u64, 4usize, 13u64);
        let whole = run_sharded(&plant, &system, steps, shards, seed).unwrap();
        let compiled = CompiledPlant::compile(&plant).unwrap();
        let mut merged = OperationLog::new(system.channels().len());
        for (i, &count) in shard_layout(steps, shards).iter().enumerate() {
            let own = run_campaign_shard(&plant, None, &system, steps, count, shard_seed(seed, i))
                .unwrap();
            let shared = run_campaign_shard(
                &plant,
                compiled.as_ref(),
                &system,
                steps,
                count,
                shard_seed(seed, i),
            )
            .unwrap();
            assert_eq!(own, shared, "shard {i}: pre-compiled plant diverged");
            merged.merge(&own);
        }
        assert_eq!(merged, whole);

        let (rate_plant, rate_system, _) = setup();
        let whole = run_sharded(&rate_plant, &rate_system, 50_000, 3, 29).unwrap();
        let mut merged = OperationLog::new(rate_system.channels().len());
        for (i, &count) in shard_layout(50_000, 3).iter().enumerate() {
            merged.merge(
                &run_campaign_shard(
                    &rate_plant,
                    None,
                    &rate_system,
                    50_000,
                    count,
                    shard_seed(29, i),
                )
                .unwrap(),
            );
        }
        assert_eq!(merged, whole);
    }

    #[test]
    fn trajectory_plant_end_to_end() {
        let space = GridSpace2D::new(30, 30).unwrap();
        let map = FaultRegionMap::new(space, vec![Region::rect(0, 0, 2, 2)]).unwrap();
        let system = ProtectionSystem::new(
            vec![
                Channel::new("A", ProgramVersion::new(vec![true])),
                Channel::new("B", ProgramVersion::new(vec![false])),
            ],
            Adjudicator::OneOutOfN,
            map,
        )
        .unwrap();
        let plant = Plant::trajectory(space, Region::rect(0, 0, 6, 6), 2).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let log = run(&plant, &system, 50_000, &mut rng).unwrap();
        assert!(log.demands() > 0);
        // Channel B is perfect, so the 1oo2 system never fails.
        assert_eq!(log.system_failures(), 0);
        assert_eq!(log.failure_free_streak(), log.demands());
    }
}
