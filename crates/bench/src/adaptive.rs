//! The **posterior-driven refinement driver**: rounds of demand trials
//! whose budgets chase the widest posterior credible intervals.
//!
//! A fixed sweep decides its per-cell budget before seeing a single
//! demand. The adaptive driver instead runs a *round loop*: an initial
//! uniform round gives every cell a credible width (exact discrete
//! Bayes on the fault model's [`PfdPrior::exact_single`]), then each
//! refinement round leases its whole budget to the cells whose credible
//! intervals are still wider than the target, proportionally to their
//! widths ([`divrel_devsim::adaptive::refine_allocation`]). The loop
//! stops when every cell's `confidence`-level credible width is at or
//! below `target_width`, or after `max_rounds` rounds.
//!
//! Between rounds the loop needs widths, not posteriors. It gets them
//! from [`divrel_bayes::update::credible_bounds_batch`], which runs the
//! exact update's log-weight kernel and both quantiles in one pass per
//! cell without building a posterior, and it recomputes them only for
//! the cells the round refined: a cell that got no demands kept its
//! evidence, so it keeps its width. The posteriors behind the per-cell
//! report ([`divrel_bayes::update::observe_batch`]) are built once,
//! after the last round. Widths are bit-identical to rebuilding every
//! posterior every round.
//!
//! Two properties make the loop distributable:
//!
//! * each round's allocation is a **pure function of the accumulated
//!   evidence** — coordinators, workers and resumed runs recompute it
//!   instead of shipping it;
//! * each round's evidence is a pure function of `(spec, round)` — the
//!   cell layer draws from round-salted split streams
//!   ([`divrel_devsim::adaptive::round_stream`]), so any thread count,
//!   fleet shape or crash/resume history reproduces the run bit for
//!   bit.
//!
//! The driver here is executor-generic: [`drive`] takes a closure that
//! evaluates one round's allocation to per-cell evidence. The
//! in-process executor threads it over [`divrel_devsim::sweep`]; the
//! distributed executor (`dist::AdaptiveCoordinator`) leases each round
//! to a worker fleet.

use crate::scenario::ScenarioResult;
use divrel_bayes::update::{credible_bounds_batch, observe_batch};
use divrel_bayes::PfdPrior;
use divrel_devsim::adaptive::{
    refine_allocation, uniform_allocation, AdaptivePfdRuntime, CellEvidence,
};
use divrel_model::FaultModel;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The refinement vocabulary of an `AdaptivePfd` experiment: the
/// stopping rule and the per-round budgets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RefinementSpec {
    /// Credible level of the convergence bound (`0.5 < confidence <
    /// 1`): each cell's interval runs from the `1 − confidence` to the
    /// `confidence` posterior quantile.
    pub confidence: f64,
    /// The sweep converges when every cell's credible width is at or
    /// below this (`> 0`).
    pub target_width: f64,
    /// Round 0's budget, spread uniformly over all cells (no posterior
    /// exists yet).
    pub initial_demands: u64,
    /// Every refinement round's budget, leased to unconverged cells in
    /// proportion to their posterior widths.
    pub round_demands: u64,
    /// Hard round cap (≥ 1, counting round 0): the sweep reports
    /// `converged = false` if the bound is still open when it hits.
    pub max_rounds: u32,
}

impl RefinementSpec {
    /// Validates the stopping rule and budgets.
    ///
    /// # Errors
    ///
    /// A message naming the offending field.
    pub fn validate(&self) -> ScenarioResult<()> {
        if !(self.confidence > 0.5 && self.confidence < 1.0) {
            return Err("refinement.confidence must lie in (0.5, 1)".into());
        }
        if self.target_width.is_nan() || self.target_width <= 0.0 {
            return Err("refinement.target_width must be > 0".into());
        }
        if self.initial_demands == 0 {
            return Err("refinement.initial_demands must be >= 1".into());
        }
        if self.round_demands == 0 {
            return Err("refinement.round_demands must be >= 1".into());
        }
        if self.max_rounds == 0 {
            return Err("refinement.max_rounds must be >= 1".into());
        }
        Ok(())
    }
}

/// One pinned round of an adaptive sweep: the execution form the
/// distributed runtime leases out. A spec carrying a `RoundPlan` runs
/// exactly that round (evidence only, no posterior loop) — the
/// coordinator pins each round it derived so workers never need the
/// evidence history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundPlan {
    /// Which round (salts the demand streams).
    pub round: u32,
    /// Per-cell demand budgets, cell order (length = `cells`).
    pub allocations: Vec<u64>,
}

/// The reduced outcome of one pinned round: per-cell evidence in cell
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveRoundOutcome {
    /// The round that ran.
    pub round: u32,
    /// Per-cell evidence, cell order.
    pub evidence: Vec<CellEvidence>,
}

/// One cell's final state after the round loop.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// The exact PFD of the cell's sampled version (simulation ground
    /// truth — the posterior never sees it).
    pub true_pfd: f64,
    /// Total failures observed across all rounds.
    pub failures: u64,
    /// Total demands spent across all rounds.
    pub demands: u64,
    /// Posterior mean PFD.
    pub posterior_mean: f64,
    /// Lower credible bound (the `1 − confidence` quantile).
    pub lower: f64,
    /// Upper credible bound (the `confidence` quantile).
    pub upper: f64,
    /// Credible width `upper − lower`.
    pub width: f64,
}

/// One round's record in the provenance trail.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Round index.
    pub round: u32,
    /// The allocation the round ran (cell order).
    pub allocations: Vec<u64>,
    /// Budget actually spent (`Σ allocations`).
    pub demands: u64,
    /// Widest posterior credible interval *after* folding the round's
    /// evidence in.
    pub max_width: f64,
}

impl RoundRecord {
    /// A compact human-readable allocation summary for provenance
    /// lines: how many cells got demands, and the min/max non-zero
    /// share.
    pub fn allocation_summary(&self) -> String {
        let active: Vec<u64> = self
            .allocations
            .iter()
            .copied()
            .filter(|&a| a > 0)
            .collect();
        if active.is_empty() {
            return "0 cells".into();
        }
        let min = active.iter().min().copied().unwrap_or(0);
        let max = active.iter().max().copied().unwrap_or(0);
        format!(
            "{} demands over {}/{} cells ({min}..{max} each)",
            self.demands,
            active.len(),
            self.allocations.len()
        )
    }
}

/// Everything an adaptive sweep reduces to.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutcome {
    /// Per-cell final state, cell order.
    pub cells: Vec<CellReport>,
    /// Per-round provenance, round order.
    pub rounds: Vec<RoundRecord>,
    /// Total demands spent across all rounds and cells.
    pub total_demands: u64,
    /// Whether the credible bound closed before `max_rounds`.
    pub converged: bool,
    /// The credible level the bound was assessed at.
    pub confidence: f64,
    /// The target width of the stopping rule.
    pub target_width: f64,
}

/// How a round's budget is spread — the adaptive driver vs the
/// fixed-budget baseline it is benchmarked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationStrategy {
    /// Width-proportional leasing to unconverged cells
    /// ([`refine_allocation`]).
    PosteriorDriven,
    /// Uniform spread over all cells regardless of posterior state
    /// ([`uniform_allocation`]) — the fixed-sweep baseline, run under
    /// the same stopping rule so samples-to-bound is comparable.
    Uniform,
}

/// Runs the round loop with a caller-supplied round executor:
/// `exec(runtime, round, allocations)` must return per-cell evidence
/// for exactly that round (cell order, one entry per cell, each cell's
/// `demands` equal to its allocation). The posterior side — exact
/// Bayes updates, widths, the stopping rule, the next allocation —
/// lives here, identically for every executor.
///
/// Round 0 computes every cell's credible width; a later round
/// recomputes only the cells it allocated demands to, since no other
/// cell's evidence changed. Widths come from
/// [`credible_bounds_batch`], which never builds a posterior; the
/// posteriors behind the [`CellReport`]s are built once, after the
/// last round.
///
/// # Errors
///
/// Model/prior construction errors, executor errors, evidence of the
/// wrong length, evidence that contradicts the round's allocation or
/// itself (`failures > demands`) or overflows the running totals —
/// each naming its round and cell — and posterior quantile errors.
pub fn drive<F>(
    model: Arc<FaultModel>,
    sweep_seed: u64,
    cells: usize,
    refinement: &RefinementSpec,
    strategy: AllocationStrategy,
    mut exec: F,
) -> ScenarioResult<AdaptiveOutcome>
where
    F: FnMut(&AdaptivePfdRuntime, u32, &[u64]) -> ScenarioResult<Vec<CellEvidence>>,
{
    refinement.validate()?;
    let prior = PfdPrior::exact_single(&model)?;
    let runtime = AdaptivePfdRuntime::new(model, sweep_seed, cells)?;
    let (lower, upper) = (1.0 - refinement.confidence, refinement.confidence);
    let mut cumulative = vec![CellEvidence::default(); cells];
    let mut rounds: Vec<RoundRecord> = Vec::new();
    let mut allocations = uniform_allocation(refinement.initial_demands, cells);
    let mut converged = false;
    let mut widths = vec![f64::INFINITY; cells];
    for round in 0..refinement.max_rounds {
        let evidence = exec(&runtime, round, &allocations)?;
        absorb_round(&mut cumulative, &evidence, &allocations, round)?;
        let refined: Vec<usize> = (0..cells)
            .filter(|&c| round == 0 || allocations[c] > 0)
            .collect();
        let flat: Vec<(u64, u64)> = refined
            .iter()
            .map(|&c| (cumulative[c].failures, cumulative[c].demands))
            .collect();
        let bounds = credible_bounds_batch(&prior, &flat, lower, upper)?;
        for (&c, (lo, hi)) in refined.iter().zip(bounds) {
            widths[c] = hi - lo;
        }
        let max_width = widths.iter().fold(0.0f64, |m, &w| m.max(w));
        rounds.push(RoundRecord {
            round,
            allocations: allocations.clone(),
            demands: allocations.iter().sum(),
            max_width,
        });
        if max_width <= refinement.target_width {
            converged = true;
            break;
        }
        allocations = match strategy {
            AllocationStrategy::PosteriorDriven => {
                refine_allocation(&widths, refinement.target_width, refinement.round_demands)
            }
            AllocationStrategy::Uniform => uniform_allocation(refinement.round_demands, cells),
        };
    }
    let flat: Vec<(u64, u64)> = cumulative.iter().map(|e| (e.failures, e.demands)).collect();
    let posteriors = observe_batch(&prior, &flat)?;
    let cell_reports = cumulative
        .iter()
        .zip(&posteriors)
        .enumerate()
        .map(|(c, (ev, p))| {
            let hi = p.quantile(upper)?;
            let lo = p.quantile(lower)?;
            Ok(CellReport {
                true_pfd: runtime.true_pfd(c),
                failures: ev.failures,
                demands: ev.demands,
                posterior_mean: p.mean(),
                lower: lo,
                upper: hi,
                width: hi - lo,
            })
        })
        .collect::<ScenarioResult<Vec<_>>>()?;
    Ok(AdaptiveOutcome {
        total_demands: rounds.iter().map(|r| r.demands).sum(),
        cells: cell_reports,
        rounds,
        converged,
        confidence: refinement.confidence,
        target_width: refinement.target_width,
    })
}

/// Folds one round's evidence into the running per-cell totals, after
/// checking it against the round: one entry per cell, no cell with more
/// failures than demands or with demands other than its allocation,
/// and no total past `u64::MAX`. Executors, fleet workers and replayed
/// journals all hand evidence in, so none of it is trusted; the
/// allocation check is also what lets [`drive`] keep the widths of
/// cells that got no demands.
fn absorb_round(
    cumulative: &mut [CellEvidence],
    evidence: &[CellEvidence],
    allocations: &[u64],
    round: u32,
) -> ScenarioResult<()> {
    if evidence.len() != cumulative.len() {
        return Err(format!(
            "adaptive round {round} returned {} evidence entries, want {}",
            evidence.len(),
            cumulative.len()
        )
        .into());
    }
    for (c, ((acc, ev), &allocated)) in cumulative
        .iter_mut()
        .zip(evidence)
        .zip(allocations)
        .enumerate()
    {
        if ev.failures > ev.demands {
            return Err(format!(
                "adaptive round {round} cell {c}: {} failures in {} demands",
                ev.failures, ev.demands
            )
            .into());
        }
        if ev.demands != allocated {
            return Err(format!(
                "adaptive round {round} cell {c}: {} demands, {allocated} allocated",
                ev.demands
            )
            .into());
        }
        let (Some(failures), Some(demands)) = (
            acc.failures.checked_add(ev.failures),
            acc.demands.checked_add(ev.demands),
        ) else {
            return Err(format!(
                "adaptive round {round} cell {c}: cumulative evidence overflows u64"
            )
            .into());
        };
        *acc = CellEvidence { failures, demands };
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> RefinementSpec {
        RefinementSpec {
            confidence: 0.99,
            target_width: 0.002,
            initial_demands: 2_000,
            round_demands: 8_000,
            max_rounds: 30,
        }
    }

    fn in_process_exec(
        runtime: &AdaptivePfdRuntime,
        round: u32,
        allocations: &[u64],
    ) -> ScenarioResult<Vec<CellEvidence>> {
        Ok((0..runtime.cells())
            .map(|c| runtime.run_cell(c, allocations[c], round))
            .collect())
    }

    #[test]
    fn validation_rejects_bad_stopping_rules() {
        for (mangle, msg) in [
            (
                Box::new(|s: &mut RefinementSpec| s.confidence = 0.5) as Box<dyn Fn(&mut _)>,
                "confidence",
            ),
            (
                Box::new(|s: &mut RefinementSpec| s.confidence = 1.0),
                "confidence",
            ),
            (
                Box::new(|s: &mut RefinementSpec| s.target_width = 0.0),
                "target_width",
            ),
            (
                Box::new(|s: &mut RefinementSpec| s.initial_demands = 0),
                "initial_demands",
            ),
            (
                Box::new(|s: &mut RefinementSpec| s.round_demands = 0),
                "round_demands",
            ),
            (
                Box::new(|s: &mut RefinementSpec| s.max_rounds = 0),
                "max_rounds",
            ),
        ] {
            let mut s = spec();
            mangle(&mut s);
            let err = s.validate().expect_err("must reject").to_string();
            assert!(err.contains(msg), "{err} should mention {msg}");
        }
        spec().validate().expect("the base spec is valid");
    }

    #[test]
    fn the_round_loop_converges_and_records_its_rounds() {
        let model = FaultModel::uniform(2, 0.25, 0.004).expect("valid model");
        let out = drive(
            Arc::new(model),
            41,
            16,
            &spec(),
            AllocationStrategy::PosteriorDriven,
            in_process_exec,
        )
        .expect("the drive succeeds");
        assert!(out.converged, "rounds: {:?}", out.rounds.len());
        assert_eq!(out.cells.len(), 16);
        assert!(!out.rounds.is_empty());
        // Round indices are consecutive from 0 and the budget ledger
        // adds up.
        for (i, r) in out.rounds.iter().enumerate() {
            assert_eq!(r.round as usize, i);
            assert_eq!(r.demands, r.allocations.iter().sum::<u64>());
        }
        let ledger: u64 = out.rounds.iter().map(|r| r.demands).sum();
        assert_eq!(out.total_demands, ledger);
        let spent: u64 = out.cells.iter().map(|c| c.demands).sum();
        assert_eq!(out.total_demands, spent);
        // Every cell's bound closed, and the interval brackets sanely.
        for c in &out.cells {
            assert!(c.width <= spec().target_width);
            assert!(c.lower <= c.upper);
            assert!(c.failures <= c.demands);
        }
        // max_width is monotone enough to have ended below target.
        assert!(out.rounds.last().expect("nonempty").max_width <= spec().target_width);
    }

    #[test]
    fn adaptive_spends_no_demands_on_converged_cells() {
        let model = FaultModel::uniform(2, 0.25, 0.004).expect("valid model");
        let out = drive(
            Arc::new(model),
            41,
            16,
            &spec(),
            AllocationStrategy::PosteriorDriven,
            in_process_exec,
        )
        .expect("the drive succeeds");
        // Refinement rounds (1+) must leave some cells unfunded once
        // posteriors diverge — that is the point of the strategy.
        assert!(
            out.rounds
                .iter()
                .filter(|r| r.round > 0)
                .any(|r| r.allocations.contains(&0)),
            "some refinement round should skip converged cells: {:?}",
            out.rounds
                .iter()
                .map(|r| r.allocation_summary())
                .collect::<Vec<_>>()
        );
    }

    /// Posterior-driven allocation against a fixed uniform schedule run
    /// under the same stopping rule until it closes the same bound. Both
    /// sides share the round loop and the per-cell demand streams, so
    /// the ratio of demand trials is the pure sampling-efficiency factor
    /// of chasing the widest intervals. Demand counts are pure functions
    /// of model, seed and spec, so each verdict is deterministic: there
    /// is no false-alarm rate.
    #[test]
    fn uniform_baseline_spends_more_to_reach_the_same_bound() {
        // The committed scenarios/adaptive_confidence.toml workload with
        // a round cap generous enough for the uniform baseline to reach
        // the bound at all. Uniform needs 427,200 demands and
        // posterior-driven 72,000: 5.93x against the 3x threshold.
        let committed = RefinementSpec {
            confidence: 0.99,
            target_width: 0.002,
            initial_demands: 4800,
            round_demands: 9600,
            max_rounds: 400,
        };
        let cases = [
            (
                FaultModel::uniform(2, 0.25, 0.004).expect("valid model"),
                41,
                16,
                spec(),
                1.0,
            ),
            (
                FaultModel::from_params(&[0.3, 0.18], &[0.004, 0.03]).expect("valid model"),
                4242,
                24,
                committed,
                3.0,
            ),
        ];
        for (model, seed, cells, refinement, min_factor) in cases {
            let model = Arc::new(model);
            let run = |strategy| {
                drive(
                    Arc::clone(&model),
                    seed,
                    cells,
                    &refinement,
                    strategy,
                    in_process_exec,
                )
                .expect("drive succeeds")
            };
            let adaptive = run(AllocationStrategy::PosteriorDriven);
            let uniform = run(AllocationStrategy::Uniform);
            assert!(adaptive.converged && uniform.converged, "seed {seed}");
            let factor = uniform.total_demands as f64 / adaptive.total_demands as f64;
            assert!(
                adaptive.total_demands < uniform.total_demands && factor >= min_factor,
                "seed {seed}: adaptive {} vs uniform {} demands, {factor:.2}x \
                 (want >= {min_factor}x)",
                adaptive.total_demands,
                uniform.total_demands
            );
        }
    }

    #[test]
    fn the_drive_is_deterministic() {
        let model = FaultModel::uniform(2, 0.25, 0.004).expect("valid model");
        let a = drive(
            Arc::new(model.clone()),
            41,
            16,
            &spec(),
            AllocationStrategy::PosteriorDriven,
            in_process_exec,
        )
        .expect("first drive");
        let b = drive(
            Arc::new(model),
            41,
            16,
            &spec(),
            AllocationStrategy::PosteriorDriven,
            in_process_exec,
        )
        .expect("second drive");
        assert_eq!(a, b);
    }

    /// Reference round loop: `observe_batch` plus both quantiles on
    /// every cell, every round. [`drive`] must reproduce it exactly.
    fn reference_drive(
        model: Arc<FaultModel>,
        sweep_seed: u64,
        cells: usize,
        refinement: &RefinementSpec,
        strategy: AllocationStrategy,
    ) -> ScenarioResult<AdaptiveOutcome> {
        use divrel_bayes::PfdPosterior;
        use divrel_numerics::sweep::SweepReduce;
        let prior = PfdPrior::exact_single(&model)?;
        let runtime = AdaptivePfdRuntime::new(model, sweep_seed, cells)?;
        let mut cumulative = vec![CellEvidence::default(); cells];
        let mut rounds: Vec<RoundRecord> = Vec::new();
        let mut allocations = uniform_allocation(refinement.initial_demands, cells);
        let mut converged = false;
        let mut final_posteriors: Vec<PfdPosterior> = Vec::new();
        let mut widths = vec![f64::INFINITY; cells];
        for round in 0..refinement.max_rounds {
            let evidence = in_process_exec(&runtime, round, &allocations)?;
            for (acc, ev) in cumulative.iter_mut().zip(&evidence) {
                acc.absorb(*ev);
            }
            let flat: Vec<(u64, u64)> =
                cumulative.iter().map(|e| (e.failures, e.demands)).collect();
            let posteriors = observe_batch(&prior, &flat)?;
            for (w, p) in widths.iter_mut().zip(&posteriors) {
                let upper = p.quantile(refinement.confidence)?;
                let lower = p.quantile(1.0 - refinement.confidence)?;
                *w = upper - lower;
            }
            let max_width = widths.iter().fold(0.0f64, |m, &w| m.max(w));
            rounds.push(RoundRecord {
                round,
                allocations: allocations.clone(),
                demands: allocations.iter().sum(),
                max_width,
            });
            final_posteriors = posteriors;
            if max_width <= refinement.target_width {
                converged = true;
                break;
            }
            allocations = match strategy {
                AllocationStrategy::PosteriorDriven => {
                    refine_allocation(&widths, refinement.target_width, refinement.round_demands)
                }
                AllocationStrategy::Uniform => uniform_allocation(refinement.round_demands, cells),
            };
        }
        let cell_reports = cumulative
            .iter()
            .zip(&final_posteriors)
            .enumerate()
            .map(|(c, (ev, p))| {
                let upper = p.quantile(refinement.confidence)?;
                let lower = p.quantile(1.0 - refinement.confidence)?;
                Ok(CellReport {
                    true_pfd: runtime.true_pfd(c),
                    failures: ev.failures,
                    demands: ev.demands,
                    posterior_mean: p.mean(),
                    lower,
                    upper,
                    width: upper - lower,
                })
            })
            .collect::<ScenarioResult<Vec<_>>>()?;
        Ok(AdaptiveOutcome {
            total_demands: rounds.iter().map(|r| r.demands).sum(),
            cells: cell_reports,
            rounds,
            converged,
            confidence: refinement.confidence,
            target_width: refinement.target_width,
        })
    }

    #[test]
    fn incremental_widths_reproduce_the_full_recompute() {
        let sparse_start = RefinementSpec {
            initial_demands: 5,
            round_demands: 3_000,
            ..spec()
        };
        let capped = RefinementSpec {
            target_width: 1e-6,
            max_rounds: 4,
            ..spec()
        };
        let models = [
            FaultModel::uniform(2, 0.25, 0.004).expect("valid model"),
            FaultModel::from_params(&[0.3, 0.18, 0.1], &[0.004, 0.03, 0.001]).expect("valid model"),
        ];
        let mut skipped_cells = 0;
        for model in models {
            for refinement in [spec(), sparse_start, capped] {
                for strategy in [
                    AllocationStrategy::PosteriorDriven,
                    AllocationStrategy::Uniform,
                ] {
                    let model = Arc::new(model.clone());
                    let got = drive(model.clone(), 7, 16, &refinement, strategy, in_process_exec)
                        .expect("drive");
                    let want = reference_drive(model, 7, 16, &refinement, strategy)
                        .expect("reference drive");
                    let case = format!("{refinement:?} {strategy:?}");
                    assert_eq!(got, want, "{case}");
                    for (g, w) in got.rounds.iter().zip(&want.rounds) {
                        assert_eq!(
                            g.max_width.to_bits(),
                            w.max_width.to_bits(),
                            "{case} round {}",
                            g.round
                        );
                    }
                    for (g, w) in got.cells.iter().zip(&want.cells) {
                        for (x, y) in [
                            (g.posterior_mean, w.posterior_mean),
                            (g.lower, w.lower),
                            (g.upper, w.upper),
                            (g.width, w.width),
                        ] {
                            assert_eq!(x.to_bits(), y.to_bits(), "{case}");
                        }
                    }
                    skipped_cells += got
                        .rounds
                        .iter()
                        .map(|r| r.allocations.iter().filter(|&&a| a == 0).count())
                        .sum::<usize>();
                }
            }
        }
        // The sparse start leaves cells unfunded in round 0, and
        // refinement leaves converged cells unfunded later: the cases
        // above exercise the skipped-cell path.
        assert!(skipped_cells > 0);
        let start = drive(
            Arc::new(FaultModel::uniform(2, 0.25, 0.004).expect("valid model")),
            7,
            16,
            &sparse_start,
            AllocationStrategy::PosteriorDriven,
            in_process_exec,
        )
        .expect("drive");
        assert!(start.rounds[0].allocations.contains(&0));
    }

    #[test]
    fn tampered_round_evidence_is_an_error_naming_round_and_cell() {
        let model = FaultModel::uniform(2, 0.25, 0.004).expect("valid model");
        // Each tampering rewrites one funded cell's round-1 evidence from
        // its allocation.
        type Tamper = fn(u64) -> CellEvidence;
        let tamperings: [(Tamper, &str); 4] = [
            (
                |a| CellEvidence {
                    failures: a + 1,
                    demands: a,
                },
                "failures in",
            ),
            (
                |a| CellEvidence {
                    failures: 0,
                    demands: a + 1,
                },
                "allocated",
            ),
            (
                |a| CellEvidence {
                    failures: 0,
                    demands: a.saturating_sub(1),
                },
                "allocated",
            ),
            (
                |_| CellEvidence {
                    failures: u64::MAX,
                    demands: u64::MAX,
                },
                "allocated",
            ),
        ];
        for (tamper, what) in tamperings {
            let err = drive(
                Arc::new(model.clone()),
                41,
                16,
                &spec(),
                AllocationStrategy::PosteriorDriven,
                |rt, round, allocations| {
                    let mut evidence = in_process_exec(rt, round, allocations)?;
                    if round == 1 {
                        let c = allocations
                            .iter()
                            .position(|&a| a > 0)
                            .expect("funded cell");
                        evidence[c] = tamper(allocations[c]);
                    }
                    Ok(evidence)
                },
            )
            .expect_err("tampered evidence must be rejected")
            .to_string();
            assert!(err.contains("round 1 cell "), "{err}");
            assert!(err.contains(what), "{err} should mention {what}");
        }
        let err = drive(
            Arc::new(model),
            41,
            16,
            &spec(),
            AllocationStrategy::PosteriorDriven,
            |rt, round, allocations| {
                let mut evidence = in_process_exec(rt, round, allocations)?;
                evidence.pop();
                Ok(evidence)
            },
        )
        .expect_err("short evidence must be rejected")
        .to_string();
        assert!(
            err.contains("round 0 returned 15 evidence entries"),
            "{err}"
        );
    }

    #[test]
    fn running_totals_refuse_to_overflow() {
        let mut cumulative = vec![
            CellEvidence::default(),
            CellEvidence {
                failures: 1,
                demands: u64::MAX - 1,
            },
        ];
        let evidence = [
            CellEvidence {
                failures: 0,
                demands: 2,
            },
            CellEvidence {
                failures: 0,
                demands: 2,
            },
        ];
        let err = absorb_round(&mut cumulative, &evidence, &[2, 2], 9)
            .expect_err("u64 overflow must be rejected")
            .to_string();
        assert_eq!(
            err,
            "adaptive round 9 cell 1: cumulative evidence overflows u64"
        );
        let mut fresh = vec![CellEvidence::default(); 2];
        absorb_round(&mut fresh, &evidence, &[2, 2], 0).expect("valid evidence folds");
        assert_eq!(fresh, evidence);
    }

    #[test]
    fn allocation_summaries_read_sanely() {
        let r = RoundRecord {
            round: 2,
            allocations: vec![0, 500, 300, 0],
            demands: 800,
            max_width: 0.01,
        };
        assert_eq!(
            r.allocation_summary(),
            "800 demands over 2/4 cells (300..500 each)"
        );
        let idle = RoundRecord {
            round: 3,
            allocations: vec![0, 0],
            demands: 0,
            max_width: 0.0,
        };
        assert_eq!(idle.allocation_summary(), "0 cells");
    }
}
