//! Running the workloads: set-up, untraced executions through the
//! program's public entry points (`Scenario::run`, `Coordinator::run`),
//! and traced executions that reach the same result through each
//! layer's public functions with a span around every call.

use crate::gen::{GeneratedSpec, Workload};
use crate::host::RssWatch;
use crate::trace::Tracer;
use divrel_bayes::prior::PfdPrior;
use divrel_bench::adaptive::{drive, AdaptiveOutcome, AllocationStrategy, RefinementSpec};
use divrel_bench::dist::{spawn_stdio_fleet, Coordinator, DistStats, StdioFleet};
use divrel_bench::scenario::{
    CampaignOutcome, CampaignRuntime, EstimatorSpec, ExperimentSpec, ScenarioOutcome,
};
use divrel_bench::Scenario;
use divrel_demand::version::ProgramVersion;
use divrel_devsim::adaptive::{AdaptivePfdRuntime, CellEvidence};
use divrel_devsim::rare::{RareAccumulator, RareEventExperiment, RareOutcome};
use divrel_devsim::sweep::{run_cells, SweepCell};
use divrel_model::spec::FaultModelSpec;
use divrel_numerics::sweep::SweepReduce;
use divrel_protection::spec::{CampaignSpec, PlantSpec};
use divrel_protection::{Channel, OperationLog, ProtectionSystem};
use std::error::Error;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's error type: whatever the program reports, boxed.
pub type BenchResult<T> = Result<T, Box<dyn Error>>;

/// Worker processes of the `fleet` workload.
pub const FLEET_WORKERS: usize = 2;
/// Threads per fleet worker.
pub const FLEET_WORKER_THREADS: usize = 1;
/// Base lease size of the `fleet` workload, in cells.
pub const FLEET_LEASE_CELLS: u64 = 1;

/// Two-sided z bound on a rare-event estimate's distance from the
/// closed-form PFD, in standard errors. Under the estimator's normal
/// approximation a correct estimate falls outside it with probability
/// 1e-5 (the check's false-alarm rate).
pub const RARE_Z_BOUND: f64 = 4.417;

/// What every run needs to know besides the spec.
pub struct Ctx {
    /// The benchmark's own executable (fleet workers run it in worker
    /// mode).
    pub exe: PathBuf,
    /// Where result files go.
    pub out_dir: PathBuf,
}

/// One spec's execution.
#[derive(Debug, Clone)]
pub struct SpecRun {
    /// The spec's label.
    pub label: &'static str,
    /// Wall time of the execution and the report render, in seconds.
    pub wall_s: f64,
    /// Wall time until the answer (before the render), in seconds.
    pub answer_s: f64,
    /// The rendered `results_markdown()`.
    pub markdown: String,
    /// Relative error of the answer (`None` where not applicable).
    pub rel_err: Option<f64>,
    /// Checks this execution failed, by description.
    pub failed_checks: Vec<String>,
    /// Summed peak resident memory of the fleet workers, in KiB.
    pub worker_rss_kib: u64,
    /// What the traced probes need from the outcome.
    pub detail: Detail,
}

/// Time to an answer of 10 % relative error for one execution of the
/// workload: the measured time scaled by `(achieved / 0.10)^2`. A
/// rare-event run takes the better of its estimators, each scaled by
/// its own error; a campaign scales its whole wall time by the error of
/// its primary system (the first system of its rate plant); an adaptive
/// sweep stops when its bound closes, so its time to the answer is the
/// measure.
pub fn s_to_target(w: Workload, runs: &[SpecRun]) -> f64 {
    let scaled = |wall: f64, r: f64| wall * (r / 0.10).powi(2);
    match w {
        Workload::Adaptive => runs.iter().map(|r| r.answer_s).sum(),
        Workload::RareEvent => runs
            .iter()
            .map(|r| scaled(r.wall_s, r.rel_err.unwrap_or(f64::NAN)))
            .fold(f64::INFINITY, f64::min),
        Workload::Campaign | Workload::Fleet => {
            let wall: f64 = runs.iter().map(|r| r.wall_s).sum();
            let r = runs.iter().find_map(|r| r.rel_err).unwrap_or(f64::NAN);
            scaled(wall, r)
        }
    }
}

/// Family-specific leftovers of an execution.
#[derive(Debug, Clone)]
pub enum Detail {
    /// A protection campaign: its outcome and per-cell logs (the logs
    /// only on traced runs).
    Campaign {
        /// The reduced outcome.
        outcome: CampaignOutcome,
        /// Per-cell logs in cell order.
        logs: Vec<OperationLog>,
    },
    /// A rare-event run.
    Rare {
        /// The outcome.
        outcome: RareOutcome,
        /// Per-cell accumulators in cell order (traced runs only).
        accs: Vec<RareAccumulator>,
    },
    /// An adaptive sweep.
    Adaptive {
        /// The outcome.
        outcome: AdaptiveOutcome,
    },
    /// A coordinated fleet run.
    Fleet {
        /// The coordinator's statistics.
        stats: DistStats,
    },
}

/// Parses and validates spec text, as every entry point does first.
pub fn parse(text: &str) -> BenchResult<Scenario> {
    let scenario = Scenario::from_spec_text(text)?;
    scenario.validate()?;
    Ok(scenario)
}

fn campaign_of(s: &Scenario) -> BenchResult<&CampaignSpec> {
    match &s.experiment {
        ExperimentSpec::Protection(c) => Ok(c),
        _ => Err(format!("{}: not a protection campaign", s.name).into()),
    }
}

struct RareParts<'a> {
    model: &'a FaultModelSpec,
    channels: u32,
    k: u32,
    samples: usize,
    estimator: EstimatorSpec,
}

fn rare_of(s: &Scenario) -> BenchResult<RareParts<'_>> {
    match &s.experiment {
        ExperimentSpec::RareEvent {
            model,
            channels,
            k,
            samples,
            estimator,
        } => Ok(RareParts {
            model,
            channels: *channels,
            k: *k,
            samples: *samples,
            estimator: *estimator,
        }),
        _ => Err(format!("{}: not a rare-event spec", s.name).into()),
    }
}

fn adaptive_of(s: &Scenario) -> BenchResult<(&FaultModelSpec, usize, &RefinementSpec)> {
    match &s.experiment {
        ExperimentSpec::AdaptivePfd {
            model,
            cells,
            refinement,
            round: None,
        } => Ok((model, *cells, refinement)),
        _ => Err(format!("{}: not an unpinned adaptive spec", s.name).into()),
    }
}

fn spawn_fleet(ctx: &Ctx) -> BenchResult<StdioFleet> {
    Ok(spawn_stdio_fleet(
        &ctx.exe,
        FLEET_WORKERS,
        FLEET_WORKER_THREADS,
        true,
        &[],
    )?)
}

/// Closes the workers' input and waits for every worker to exit.
fn reap(children: &mut Vec<std::process::Child>) {
    for child in children.iter_mut() {
        // A worker that is already gone has nothing left to reap.
        let _ = child.wait();
    }
    children.clear();
}

/// Time from spec text to runtimes ready to run, summed over the
/// workload's specs: parse + validate + the family's constructor (for
/// `fleet`, the coordinator plus spawning its workers).
pub fn setup(w: Workload, specs: &[GeneratedSpec], ctx: &Ctx) -> BenchResult<f64> {
    let mut keep: Vec<Box<dyn std::any::Any>> = Vec::new();
    let mut fleets: Vec<StdioFleet> = Vec::new();
    let t = Instant::now();
    for spec in specs {
        let scenario = parse(&spec.text)?;
        match w {
            Workload::Campaign => {
                let rt = CampaignRuntime::new(campaign_of(&scenario)?, scenario.seed.seed)?;
                keep.push(Box::new(rt));
            }
            Workload::RareEvent => {
                let p = rare_of(&scenario)?;
                let exp = RareEventExperiment::from_shared(
                    &p.model.build_shared()?,
                    p.channels,
                    p.k,
                    p.estimator.to_estimator(),
                )?;
                keep.push(Box::new(exp));
            }
            Workload::Adaptive => {
                let (model, cells, _) = adaptive_of(&scenario)?;
                let model = Arc::new(model.build()?);
                let prior = PfdPrior::exact_single(&model)?;
                let rt = AdaptivePfdRuntime::new(model, scenario.seed.seed, cells)?;
                keep.push(Box::new((prior, rt)));
            }
            Workload::Fleet => {
                let coordinator = Coordinator::new(scenario)?;
                keep.push(Box::new(coordinator));
                fleets.push(spawn_fleet(ctx)?);
            }
        }
    }
    let elapsed = t.elapsed().as_secs_f64();
    black_box(&keep);
    for mut fleet in fleets {
        // Dropping the transports closes the workers' stdin: they exit.
        drop(std::mem::take(&mut fleet.transports));
        reap(&mut fleet.children);
    }
    Ok(elapsed)
}

/// Binomial relative error of a campaign's primary (first) system.
/// Demands of a rate plant are independent, so the binomial error is
/// the error of the estimate; a Markov walk's demands are serially
/// correlated, so its campaigns report no error (their wall time still
/// counts towards `s_to_target`).
fn campaign_rel_err(
    spec: &CampaignSpec,
    outcome: &CampaignOutcome,
    failed: &mut Vec<String>,
) -> Option<f64> {
    if matches!(spec.plant, PlantSpec::MarkovWalk { .. }) {
        return None;
    }
    let log = &outcome.systems.first()?.log;
    let (n, f) = (log.demands() as f64, log.system_failures() as f64);
    if f == 0.0 || n == 0.0 {
        failed.push(format!(
            "primary system saw {f} failures in {n} demands: no error estimate"
        ));
        return None;
    }
    let p = f / n;
    Some(((1.0 - p) / (n * p)).sqrt())
}

fn rare_checks(r: &RareOutcome, failed: &mut Vec<String>) {
    let z = (r.estimate - r.true_pfd).abs() / r.std_error;
    // A NaN distance (no standard error) fails the check too.
    if z.is_nan() || z > RARE_Z_BOUND {
        failed.push(format!(
            "rare-event estimate {} is {z:.2} standard errors from the closed form {} \
             (bound {RARE_Z_BOUND}, false-alarm rate 1e-5)",
            r.estimate, r.true_pfd
        ));
    }
}

fn adaptive_checks(a: &AdaptiveOutcome, failed: &mut Vec<String>) {
    if !a.converged {
        failed.push(format!(
            "adaptive sweep did not converge in {} rounds",
            a.rounds.len()
        ));
    }
}

fn fleet_checks(stats: &DistStats, failed: &mut Vec<String>) {
    if stats.retries != 0 || stats.quarantined_workers != 0 {
        failed.push(format!(
            "fleet retried {} leases and quarantined {} workers (want 0 and 0)",
            stats.retries, stats.quarantined_workers
        ));
    }
}

/// The family checks and the relative error of an outcome.
fn judge(
    scenario: &Scenario,
    outcome: &ScenarioOutcome,
    failed: &mut Vec<String>,
) -> BenchResult<(Option<f64>, Detail)> {
    Ok(match outcome {
        ScenarioOutcome::Protection(c) => (
            campaign_rel_err(campaign_of(scenario)?, c, failed),
            Detail::Campaign {
                outcome: c.clone(),
                logs: Vec::new(),
            },
        ),
        ScenarioOutcome::RareEvent(r) => {
            rare_checks(r, failed);
            (
                Some(r.relative_error),
                Detail::Rare {
                    outcome: *r,
                    accs: Vec::new(),
                },
            )
        }
        ScenarioOutcome::Adaptive(a) => {
            adaptive_checks(a, failed);
            (None, Detail::Adaptive { outcome: a.clone() })
        }
        _ => return Err("unexpected outcome family".into()),
    })
}

/// One untraced execution of `spec` at `threads` threads through the
/// public entry point: `Scenario::run` in process, `Coordinator::run`
/// over a fresh worker fleet for `fleet`.
pub fn execute(
    w: Workload,
    spec: &GeneratedSpec,
    ctx: &Ctx,
    threads: usize,
) -> BenchResult<SpecRun> {
    let mut failed = Vec::new();
    if w == Workload::Fleet {
        let scenario = parse(&spec.text)?;
        let coordinator = Coordinator::new(scenario.clone())?.lease_cells(FLEET_LEASE_CELLS);
        let mut fleet = spawn_fleet(ctx)?;
        let watch = RssWatch::start(fleet.children.iter().map(|c| c.id()).collect());
        let t = Instant::now();
        let run = coordinator.run(std::mem::take(&mut fleet.transports));
        let answer_s = t.elapsed().as_secs_f64();
        let rendered = run.map(|r| {
            let markdown = r.outcome.card(&scenario.name).results_markdown();
            (r, markdown)
        });
        let wall_s = t.elapsed().as_secs_f64();
        // Workers exit on Done or end of input; wait for all of them,
        // and only then stop watching their memory.
        reap(&mut fleet.children);
        let worker_rss_kib = watch.finish();
        let (run, markdown) = rendered?;
        let rel_err = match &run.outcome {
            ScenarioOutcome::Protection(c) => {
                campaign_rel_err(campaign_of(&scenario)?, c, &mut failed)
            }
            _ => return Err("fleet spec is not a campaign".into()),
        };
        fleet_checks(&run.stats, &mut failed);
        return Ok(SpecRun {
            label: spec.label,
            wall_s,
            answer_s,
            markdown,
            rel_err,
            failed_checks: failed,
            worker_rss_kib,
            detail: Detail::Fleet { stats: run.stats },
        });
    }
    let t = Instant::now();
    let scenario = Scenario::from_spec_text(&spec.text)?;
    let outcome = scenario.run(threads)?;
    let answer_s = t.elapsed().as_secs_f64();
    let markdown = outcome.card(&scenario.name).results_markdown();
    let wall_s = t.elapsed().as_secs_f64();
    let (rel_err, detail) = judge(&scenario, &outcome, &mut failed)?;
    Ok(SpecRun {
        label: spec.label,
        wall_s,
        answer_s,
        markdown,
        rel_err,
        failed_checks: failed,
        worker_rss_kib: 0,
        detail,
    })
}

/// The 1-thread in-process reference rendering of `spec`: what every
/// execution, at any thread count and on any fleet, must reproduce
/// byte for byte.
pub fn reference_markdown(spec: &GeneratedSpec) -> BenchResult<String> {
    let scenario = Scenario::from_spec_text(&spec.text)?;
    Ok(scenario.run(1)?.card(&scenario.name).results_markdown())
}

fn campaign_cells(n: u64) -> Vec<SweepCell<u64>> {
    (0..n)
        .map(|k| SweepCell {
            index: k,
            seed: 0,
            config: k,
        })
        .collect()
}

/// Runs every cell of a campaign runtime under a `sweep.run_cells`
/// span, one `protection.run_cell` span per cell.
pub fn traced_campaign_cells(
    tracer: &Tracer,
    parent: u64,
    rt: &CampaignRuntime,
    threads: usize,
) -> BenchResult<Vec<OperationLog>> {
    let cells = campaign_cells(rt.cell_count());
    let results = tracer.span("sweep.run_cells", Some(parent), |sweep| {
        run_cells(&cells, threads, |cell| {
            tracer.span("protection.run_cell", Some(sweep), |_| {
                rt.run_cell(cell.config).map_err(|e| e.to_string())
            })
        })
    });
    Ok(results.into_iter().collect::<Result<Vec<_>, String>>()?)
}

/// Runs every cell of a rare-event grid under a `sweep.run_cells` span.
pub fn traced_rare_cells(
    tracer: &Tracer,
    parent: u64,
    exp: &RareEventExperiment,
    seed: u64,
    threads: usize,
) -> Vec<RareAccumulator> {
    let grid = exp.grid_spec().grid(seed);
    tracer.span("sweep.run_cells", Some(parent), |sweep| {
        run_cells(grid.cells(), threads, |cell| {
            tracer.span("rare.run_cell", Some(sweep), |_| {
                exp.run_cell(cell.config, cell.seed)
            })
        })
    })
}

/// Runs one adaptive round's cells under a `sweep.run_cells` span.
pub fn traced_adaptive_round(
    tracer: &Tracer,
    parent: u64,
    rt: &AdaptivePfdRuntime,
    round: u32,
    allocations: &[u64],
    threads: usize,
) -> Vec<CellEvidence> {
    let cells = campaign_cells(rt.cells() as u64);
    tracer.span("sweep.run_cells", Some(parent), |sweep| {
        run_cells(&cells, threads, |cell| {
            let c = cell.config as usize;
            tracer.span("adaptive.run_cell", Some(sweep), |_| {
                rt.run_cell(c, allocations[c], round)
            })
        })
    })
}

/// One traced execution of `spec`: the same result as [`execute`],
/// reached through each layer's public functions, one span per call,
/// all under a `bench.exec` root span with a fresh run id.
pub fn traced_execute(
    w: Workload,
    spec: &GeneratedSpec,
    ctx: &Ctx,
    threads: usize,
    tracer: &Tracer,
) -> BenchResult<SpecRun> {
    tracer.begin_run();
    tracer.span("bench.exec", None, |root| {
        let mut failed = Vec::new();
        let t = Instant::now();
        let scenario = tracer.span("scenario.parse", Some(root), |_| parse(&spec.text))?;
        let (outcome, detail_logs, detail_accs, stats, answer_s, t) = match w {
            Workload::Campaign => {
                let rt = tracer.span("protection.runtime_new", Some(root), |_| {
                    CampaignRuntime::new(campaign_of(&scenario)?, scenario.seed.seed)
                })?;
                let logs = traced_campaign_cells(tracer, root, &rt, threads)?;
                let outcome = tracer.span("pfd.finish", Some(root), |_| rt.finish(logs.clone()))?;
                tracer.span("protection.teardown", Some(root), |_| drop(rt));
                let answer_s = t.elapsed().as_secs_f64();
                (
                    ScenarioOutcome::Protection(outcome),
                    logs,
                    Vec::new(),
                    None,
                    answer_s,
                    t,
                )
            }
            Workload::RareEvent => {
                let p = rare_of(&scenario)?;
                let seed = scenario.seed.seed;
                let exp = tracer.span("rare.from_shared", Some(root), |_| {
                    BenchResult::Ok(
                        RareEventExperiment::from_shared(
                            &p.model.build_shared()?,
                            p.channels,
                            p.k,
                            p.estimator.to_estimator(),
                        )?
                        .samples(p.samples)
                        .seed(seed)
                        .threads(threads),
                    )
                })?;
                let accs = traced_rare_cells(tracer, root, &exp, seed, threads);
                let acc = tracer
                    .span("estimator.reduce", Some(root), |_| fold(accs.clone()))
                    .ok_or("rare-event grid has no cells")?;
                let outcome = tracer.span("estimator.finish", Some(root), |_| exp.finish(acc))?;
                let answer_s = t.elapsed().as_secs_f64();
                (
                    ScenarioOutcome::RareEvent(outcome),
                    Vec::new(),
                    accs,
                    None,
                    answer_s,
                    t,
                )
            }
            Workload::Adaptive => {
                let (model, cells, refinement) = adaptive_of(&scenario)?;
                let model = tracer.span("adaptive.model_build", Some(root), |_| model.build())?;
                // drive's own time is the posterior side: the exact
                // prior, batch Bayes updates, quantiles and the next
                // allocation; the round executor's spans are its
                // children.
                let outcome = tracer.span("bayes.posterior", Some(root), |post| {
                    drive(
                        Arc::new(model),
                        scenario.seed.seed,
                        cells,
                        refinement,
                        AllocationStrategy::PosteriorDriven,
                        |rt, round, allocations| {
                            Ok(traced_adaptive_round(
                                tracer,
                                post,
                                rt,
                                round,
                                allocations,
                                threads,
                            ))
                        },
                    )
                })?;
                let answer_s = t.elapsed().as_secs_f64();
                (
                    ScenarioOutcome::Adaptive(outcome),
                    Vec::new(),
                    Vec::new(),
                    None,
                    answer_s,
                    t,
                )
            }
            Workload::Fleet => {
                let coordinator = tracer.span("dist.coordinator_new", Some(root), |_| {
                    BenchResult::Ok(
                        Coordinator::new(scenario.clone())?.lease_cells(FLEET_LEASE_CELLS),
                    )
                })?;
                let mut fleet = tracer.span("dist.spawn", Some(root), |_| spawn_fleet(ctx))?;
                // The fleet's wall time starts at the run, as untraced.
                let t = Instant::now();
                let run = tracer.span("dist.run", Some(root), |_| {
                    coordinator.run(std::mem::take(&mut fleet.transports))
                });
                let answer_s = t.elapsed().as_secs_f64();
                tracer.span("dist.reap", Some(root), |_| reap(&mut fleet.children));
                let run = run?;
                fleet_checks(&run.stats, &mut failed);
                (
                    run.outcome,
                    Vec::new(),
                    Vec::new(),
                    Some(run.stats),
                    answer_s,
                    t,
                )
            }
        };
        let markdown = tracer.span("report.card", Some(root), |_| {
            outcome.card(&scenario.name).results_markdown()
        });
        let wall_s = t.elapsed().as_secs_f64();
        let (rel_err, mut detail) = match stats {
            Some(stats) => {
                let rel_err = match &outcome {
                    ScenarioOutcome::Protection(c) => {
                        campaign_rel_err(campaign_of(&scenario)?, c, &mut failed)
                    }
                    _ => None,
                };
                (rel_err, Detail::Fleet { stats })
            }
            None => judge(&scenario, &outcome, &mut failed)?,
        };
        match &mut detail {
            Detail::Campaign { logs, .. } => *logs = detail_logs,
            Detail::Rare { accs, .. } => *accs = detail_accs,
            _ => {}
        }
        Ok(SpecRun {
            label: spec.label,
            wall_s,
            answer_s,
            markdown,
            rel_err,
            failed_checks: failed,
            worker_rss_kib: 0,
            detail,
        })
    })
}

/// Folds accumulators in cell order, exactly as the sweep engine's
/// canonical reduction does (the grid lists cells in index order).
pub fn fold<R: SweepReduce>(parts: Vec<R>) -> Option<R> {
    let mut acc: Option<R> = None;
    for r in parts {
        match acc.as_mut() {
            Some(a) => a.absorb(r),
            None => acc = Some(r),
        }
    }
    acc
}

/// Rebuilds protection system `index` of a campaign from its outcome's
/// sampled versions (the common causes already merged in).
pub fn rebuild_system(
    campaign: &CampaignSpec,
    outcome: &CampaignOutcome,
    index: usize,
) -> BenchResult<ProtectionSystem> {
    let map = campaign.build_map()?;
    let sys = campaign
        .systems
        .get(index)
        .ok_or_else(|| format!("campaign has no system {index}"))?;
    let channels = sys
        .channels
        .iter()
        .map(|&vi| {
            let v = &outcome.versions[vi];
            Ok(Channel::new(
                format!("V{vi}"),
                ProgramVersion::from_fault_indices(map.len(), &v.fault_indices)?,
            ))
        })
        .collect::<BenchResult<Vec<_>>>()?;
    Ok(sys.build(channels, map)?)
}

/// A scratch path for the fleet's journal probe.
pub fn journal_path(out_dir: &Path, seed: u64) -> PathBuf {
    out_dir.join(format!("fleet-seed{seed}.journal"))
}
