//! Per-layer metrics of the traced run: figures read off the spans of
//! the traced executions, plus probes — extra calls into single layers
//! (a 1-thread sweep, the compiler, serial vs parallel exact PFD, wire
//! round trips, fleet baselines) that the end-to-end path cannot show.

use crate::gen::{GeneratedSpec, Workload};
use crate::stats::median;
use crate::trace::{self_times, Span, Tracer};
use crate::workloads::{
    fold, journal_path, parse, rebuild_system, traced_adaptive_round, traced_campaign_cells,
    traced_rare_cells, BenchResult, Ctx, Detail, SpecRun, FLEET_LEASE_CELLS, FLEET_WORKERS,
    FLEET_WORKER_THREADS,
};
use divrel_bayes::prior::PfdPrior;
use divrel_bench::dist::{spawn_stdio_fleet, Coordinator};
use divrel_bench::scenario::{CampaignRuntime, ExperimentSpec};
use divrel_devsim::adaptive::{uniform_allocation, AdaptivePfdRuntime};
use divrel_devsim::rare::RareEventExperiment;
use divrel_numerics::wire::{Wire, WireForm};
use divrel_protection::simulation;
use divrel_protection::OperationLog;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The layers spans are attributed to, in table order (`bench` is the
/// benchmark's own glue between calls).
pub const LAYERS: [&str; 11] = [
    "bench",
    "scenario",
    "protection",
    "pfd",
    "rare",
    "estimator",
    "adaptive",
    "bayes",
    "sweep",
    "dist",
    "report",
];

/// Per-layer metric values by name.
pub type Figures = BTreeMap<String, f64>;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The spans of one execution (all of its specs' run ids).
fn spans_of<'a>(spans: &'a [Span], runs: &[u64]) -> Vec<&'a Span> {
    spans.iter().filter(|s| runs.contains(&s.run)).collect()
}

fn total_ns<'a>(spans: impl IntoIterator<Item = &'a &'a Span>, name: &str) -> u64 {
    spans
        .into_iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns())
        .sum()
}

/// Figures from the spans of the traced executions: for each figure the
/// median over executions. `runs[e][i]` is the run id of spec `i` in
/// execution `e`, `execs[e][i]` its observations.
pub fn span_figures(
    w: Workload,
    specs: &[GeneratedSpec],
    spans: &[Span],
    runs: &[Vec<u64>],
    execs: &[Vec<SpecRun>],
    threads: usize,
) -> BenchResult<Figures> {
    let selfs = self_times(spans);
    let mut per_exec: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut push = |k: &str, v: f64| per_exec.entry(k.to_string()).or_default().push(v);
    let parsed: Vec<_> = specs
        .iter()
        .map(|s| parse(&s.text))
        .collect::<BenchResult<_>>()?;
    for (e, exec_runs) in runs.iter().enumerate() {
        let ex = spans_of(spans, exec_runs);
        push(
            "scenario.parse_us",
            total_ns(&ex, "scenario.parse") as f64 / 1e3,
        );
        push("scenario.card_ms", ms(total_ns(&ex, "report.card")));
        let roots: Vec<&&Span> = ex.iter().filter(|s| s.name == "bench.exec").collect();
        let root_ns: u64 = roots.iter().map(|s| s.duration_ns()).sum();
        let root_self: u64 = roots.iter().map(|s| selfs[&s.id]).sum();
        push("trace.coverage", 1.0 - root_self as f64 / root_ns as f64);
        for layer in LAYERS {
            let v: u64 = ex
                .iter()
                .filter(|s| s.layer() == layer)
                .map(|s| selfs[&s.id])
                .sum();
            push(&format!("self_ms.{layer}"), ms(v));
        }
        // Sweep utilisation: time inside cells over threads x sweep wall.
        let sweep_ids: Vec<u64> = ex
            .iter()
            .filter(|s| s.name == "sweep.run_cells")
            .map(|s| s.id)
            .collect();
        let sweep_ns = total_ns(&ex, "sweep.run_cells");
        let cell_ns: u64 = ex
            .iter()
            .filter(|s| s.parent.is_some_and(|p| sweep_ids.contains(&p)))
            .map(|s| s.duration_ns())
            .sum();
        if sweep_ns > 0 {
            push(
                "sweep.busy_frac",
                cell_ns as f64 / (threads as f64 * sweep_ns as f64),
            );
            push("sweep.wall_ms", ms(sweep_ns));
        }
        match w {
            Workload::Campaign => {
                push(
                    "protection.runtime_new_ms",
                    ms(total_ns(&ex, "protection.runtime_new")),
                );
                push("pfd.finish_ms", ms(total_ns(&ex, "pfd.finish")));
                let mut cells: Vec<f64> = ex
                    .iter()
                    .filter(|s| s.name == "protection.run_cell")
                    .map(|s| ms(s.duration_ns()))
                    .collect();
                cells.sort_by(f64::total_cmp);
                push("protection.cell_ms_p50", median(&cells));
                push(
                    "protection.cell_ms_max",
                    cells.last().copied().unwrap_or(0.0),
                );
                push("protection.busy_nt_ms", cells.iter().sum());
                let mut demands = 0u64;
                for (i, (spec, run)) in specs.iter().zip(&execs[e]).enumerate() {
                    let busy = ex
                        .iter()
                        .filter(|s| s.run == exec_runs[i] && s.name == "protection.run_cell")
                        .map(|s| s.duration_ns())
                        .sum::<u64>() as f64;
                    let Detail::Campaign { outcome, .. } = &run.detail else {
                        return Err("campaign execution without a campaign outcome".into());
                    };
                    let d: u64 = outcome.systems.iter().map(|s| s.log.demands()).sum();
                    demands += d;
                    let ExperimentSpec::Protection(c) = &parsed[i].experiment else {
                        return Err("campaign spec is not a campaign".into());
                    };
                    match spec.label {
                        "markov" => push(
                            "protection.markov.ns_per_tick",
                            busy / (c.steps as f64 * c.systems.len() as f64),
                        ),
                        _ => push("protection.rate.ns_per_demand", busy / d as f64),
                    }
                }
                push("protection.demands", demands as f64);
            }
            Workload::RareEvent => {
                for (i, (spec, run)) in specs.iter().zip(&execs[e]).enumerate() {
                    let busy = ex
                        .iter()
                        .filter(|s| s.run == exec_runs[i] && s.name == "rare.run_cell")
                        .map(|s| s.duration_ns())
                        .sum::<u64>() as f64;
                    let Detail::Rare { outcome, .. } = &run.detail else {
                        return Err("rare-event execution without a rare outcome".into());
                    };
                    let per = busy / outcome.samples as f64;
                    if spec.label == "tilt" {
                        push("rare.tilt.ns_per_sample", per);
                        push("rare.tilt.ess_frac", outcome.ess / outcome.samples as f64);
                        push("rare.rel_err", outcome.relative_error);
                    } else {
                        push("rare.strat.ns_per_sample", per);
                    }
                }
            }
            Workload::Adaptive => {
                let Detail::Adaptive { outcome } = &execs[e][0].detail else {
                    return Err("adaptive execution without an adaptive outcome".into());
                };
                let trial_ns = total_ns(&ex, "adaptive.run_cell");
                push(
                    "adaptive.trial_ns_per_demand",
                    trial_ns as f64 / outcome.total_demands as f64,
                );
                let drive_ns = total_ns(&ex, "bayes.posterior");
                push("adaptive.exec_s", sweep_ns as f64 / 1e9);
                push(
                    "adaptive.posterior_s",
                    drive_ns.saturating_sub(sweep_ns) as f64 / 1e9,
                );
                push("adaptive.rounds", outcome.rounds.len() as f64);
                push("adaptive.demands", outcome.total_demands as f64);
            }
            Workload::Fleet => {
                push("dist.spawn_ms", ms(total_ns(&ex, "dist.spawn")));
                push("dist.run_ms", ms(total_ns(&ex, "dist.run")));
                let Detail::Fleet { stats } = &execs[e][0].detail else {
                    return Err("fleet execution without fleet statistics".into());
                };
                push("dist.leases", stats.leases as f64);
                push("dist.retries", stats.retries as f64);
                push("dist.timeouts", stats.timeouts as f64);
            }
        }
    }
    Ok(per_exec.into_iter().map(|(k, v)| (k, median(&v))).collect())
}

/// Wire round trip of every accumulator in `cells`, repeated until at
/// least 20 ms have passed: encode = `to_wire` + `to_bytes`, decode =
/// `from_bytes` + `from_wire`. Checks each decode reproduces its input.
fn wire_probe<T: WireForm + PartialEq + Debug>(
    tracer: &Tracer,
    parent: u64,
    cells: &[T],
    figures: &mut Figures,
    failed: &mut Vec<String>,
) {
    if cells.is_empty() {
        return;
    }
    let encoded: Vec<Vec<u8>> = cells.iter().map(|c| c.to_wire().to_bytes()).collect();
    for (c, bytes) in cells.iter().zip(&encoded) {
        let back = Wire::from_bytes(bytes).and_then(|w| T::from_wire(&w));
        if back.as_ref() != Ok(c) {
            failed.push("wire round trip changed a cell accumulator".into());
            break;
        }
    }
    let mut reps = 0u64;
    let enc = tracer.span("wire.encode", Some(parent), |_| {
        let t = Instant::now();
        while reps == 0 || t.elapsed().as_millis() < 20 {
            for c in cells {
                black_box(c.to_wire().to_bytes());
            }
            reps += 1;
        }
        t.elapsed().as_nanos() as f64
    });
    let mut dreps = 0u64;
    let dec = tracer.span("wire.decode", Some(parent), |_| {
        let t = Instant::now();
        while dreps == 0 || t.elapsed().as_millis() < 20 {
            for bytes in &encoded {
                let w = Wire::from_bytes(bytes).expect("bytes encoded above decode");
                black_box(T::from_wire(&w).ok());
            }
            dreps += 1;
        }
        t.elapsed().as_nanos() as f64
    });
    let n = cells.len() as f64;
    figures.insert("wire.encode_ns_per_cell".into(), enc / (reps as f64 * n));
    figures.insert("wire.decode_ns_per_cell".into(), dec / (dreps as f64 * n));
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    figures.insert("wire.bytes_per_cell".into(), bytes as f64 / n);
}

/// Duration of the last span named `name` under `parent`.
fn last_ns(tracer: &Tracer, parent: u64, name: &str) -> u64 {
    tracer
        .spans()
        .iter()
        .rev()
        .find(|s| s.parent == Some(parent) && s.name == name)
        .map_or(0, Span::duration_ns)
}

/// The probes of workload `w`, each under a `bench.probe` root span.
/// `last` is the last traced execution (its outcomes seed the probes);
/// `nt` holds the span figures of the traced executions.
#[allow(clippy::too_many_arguments)]
pub fn probes(
    w: Workload,
    specs: &[GeneratedSpec],
    last: &[SpecRun],
    nt: &Figures,
    ctx: &Ctx,
    threads: usize,
    tracer: &Tracer,
    failed: &mut Vec<String>,
) -> BenchResult<Figures> {
    let mut f = Figures::new();
    tracer.begin_run();
    tracer.span("bench.probe", None, |root| -> BenchResult<()> {
        match w {
            Workload::Campaign => {
                campaign_probes(specs, last, nt, threads, tracer, root, &mut f, failed)
            }
            Workload::RareEvent => {
                rare_probes(specs, last, nt, threads, tracer, root, &mut f, failed)
            }
            Workload::Adaptive => adaptive_probes(specs, threads, tracer, root, &mut f, failed),
            Workload::Fleet => fleet_probes(specs, nt, ctx, threads, tracer, root, &mut f, failed),
        }
    })?;
    Ok(f)
}

#[allow(clippy::too_many_arguments)]
fn campaign_probes(
    specs: &[GeneratedSpec],
    last: &[SpecRun],
    nt: &Figures,
    threads: usize,
    tracer: &Tracer,
    root: u64,
    f: &mut Figures,
    failed: &mut Vec<String>,
) -> BenchResult<()> {
    let mut busy_1t = 0u64;
    let mut sweep_1t = 0u64;
    let mut all_logs: Vec<OperationLog> = Vec::new();
    for (spec, run) in specs.iter().zip(last) {
        let scenario = parse(&spec.text)?;
        let ExperimentSpec::Protection(campaign) = &scenario.experiment else {
            return Err("campaign spec is not a campaign".into());
        };
        let Detail::Campaign { outcome, logs } = &run.detail else {
            return Err("campaign execution without a campaign outcome".into());
        };
        // Contention: the same cells at 1 thread, compared bit for bit
        // with the nproc-thread logs.
        let rt = CampaignRuntime::new(campaign, scenario.seed.seed)?;
        let logs_1t = traced_campaign_cells(tracer, root, &rt, 1)?;
        let sweep = tracer
            .spans()
            .into_iter()
            .rev()
            .find(|s| s.parent == Some(root) && s.name == "sweep.run_cells")
            .ok_or("probe sweep span missing")?;
        sweep_1t += sweep.duration_ns();
        busy_1t += tracer
            .spans()
            .iter()
            .filter(|s| s.parent == Some(sweep.id))
            .map(Span::duration_ns)
            .sum::<u64>();
        if &logs_1t != logs {
            failed.push(format!(
                "{}: 1-thread cell logs differ from {threads}-thread logs",
                spec.label
            ));
        }
        drop(rt);
        all_logs.extend(logs.iter().cloned());
        if spec.label != "markov" {
            continue;
        }
        // The compiler and its occupancy after one shard's walk, which
        // must reproduce cell 0 of the traced execution.
        let profile = campaign.build_profile()?;
        let plant = campaign.build_plant(&profile)?;
        let compiled = tracer.span("protection.compile", Some(root), |_| {
            simulation::campaign_compile(&plant, campaign.steps)
        })?;
        f.insert(
            "protection.compile_ms".into(),
            ms(last_ns(tracer, root, "protection.compile")),
        );
        let primary = rebuild_system(campaign, outcome, 0)?;
        let layout = simulation::shard_layout(campaign.steps, campaign.shards);
        let shard0 = tracer.span("protection.run_cell", Some(root), |_| {
            simulation::run_campaign_shard(
                &plant,
                compiled.as_ref(),
                &primary,
                campaign.steps,
                layout[0],
                simulation::shard_seed(scenario.seed.seed ^ campaign.systems[0].seed_xor, 0),
            )
        })?;
        if Some(&shard0) != logs.first() {
            failed.push("markov: shard 0 rerun on a fresh compiled plant differs".into());
        }
        f.insert(
            "protection.occupancy".into(),
            compiled.as_ref().map_or(0.0, |c| c.occupancy()),
        );
        // Exact PFD of the largest system, serial vs parallel.
        let largest = (0..campaign.systems.len())
            .max_by_key(|&i| campaign.systems[i].channels.len())
            .unwrap_or(0);
        let system = rebuild_system(campaign, outcome, largest)?;
        let serial = tracer.span("pfd.true_pfd", Some(root), |_| system.true_pfd(&profile))?;
        let serial_ns = last_ns(tracer, root, "pfd.true_pfd");
        let parallel = tracer.span("pfd.true_pfd_parallel", Some(root), |_| {
            system.true_pfd_parallel(&profile, threads)
        })?;
        let parallel_ns = last_ns(tracer, root, "pfd.true_pfd_parallel");
        if (serial - parallel).abs() > 1e-12 * serial.abs().max(1e-300) {
            failed.push(format!("true_pfd {serial} != true_pfd_parallel {parallel}"));
        }
        f.insert("pfd.true_pfd_serial_ms".into(), ms(serial_ns));
        f.insert("pfd.true_pfd_parallel_ms".into(), ms(parallel_ns));
        f.insert(
            "pfd.true_pfd_speedup".into(),
            serial_ns as f64 / parallel_ns as f64,
        );
    }
    let busy_nt = nt.get("protection.busy_nt_ms").copied().unwrap_or(0.0);
    f.insert("protection.busy_1t_ms".into(), ms(busy_1t));
    f.insert("protection.contention".into(), busy_nt / ms(busy_1t));
    if let Some(sweep_nt) = nt.get("sweep.wall_ms") {
        f.insert("sweep.speedup".into(), ms(sweep_1t) / sweep_nt);
    }
    wire_probe(tracer, root, &all_logs, f, failed);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn rare_probes(
    specs: &[GeneratedSpec],
    last: &[SpecRun],
    nt: &Figures,
    threads: usize,
    tracer: &Tracer,
    root: u64,
    f: &mut Figures,
    failed: &mut Vec<String>,
) -> BenchResult<()> {
    let mut sweep_1t = 0u64;
    let mut all_accs = Vec::new();
    for (spec, run) in specs.iter().zip(last) {
        let scenario = parse(&spec.text)?;
        let ExperimentSpec::RareEvent {
            model,
            channels,
            k,
            samples,
            estimator,
        } = &scenario.experiment
        else {
            return Err("rare-event spec is not a rare-event spec".into());
        };
        let Detail::Rare { outcome, accs } = &run.detail else {
            return Err("rare-event execution without a rare outcome".into());
        };
        let exp = RareEventExperiment::from_shared(
            &model.build_shared()?,
            *channels,
            *k,
            estimator.to_estimator(),
        )?
        .samples(*samples)
        .seed(scenario.seed.seed);
        let accs_1t = traced_rare_cells(tracer, root, &exp, scenario.seed.seed, 1);
        sweep_1t += last_ns(tracer, root, "sweep.run_cells");
        let outcome_1t = fold(accs_1t).map(|a| exp.finish(a)).transpose()?;
        if outcome_1t.as_ref() != Some(outcome) {
            failed.push(format!(
                "{}: 1-thread estimate differs from {threads}-thread estimate",
                spec.label
            ));
        }
        all_accs.extend(accs.iter().cloned());
    }
    if let Some(sweep_nt) = nt.get("sweep.wall_ms") {
        f.insert("sweep.speedup".into(), ms(sweep_1t) / sweep_nt);
    }
    wire_probe(tracer, root, &all_accs, f, failed);
    Ok(())
}

fn adaptive_probes(
    specs: &[GeneratedSpec],
    threads: usize,
    tracer: &Tracer,
    root: u64,
    f: &mut Figures,
    failed: &mut Vec<String>,
) -> BenchResult<()> {
    let scenario = parse(&specs[0].text)?;
    let ExperimentSpec::AdaptivePfd {
        model,
        cells,
        refinement,
        ..
    } = &scenario.experiment
    else {
        return Err("adaptive spec is not an adaptive spec".into());
    };
    let model = Arc::new(model.build()?);
    tracer.span("bayes.prior", Some(root), |_| {
        PfdPrior::exact_single(&model)
    })?;
    f.insert(
        "bayes.prior_ms".into(),
        ms(last_ns(tracer, root, "bayes.prior")),
    );
    // Sweep speed-up on one full round-0 budget, 1 thread vs nproc.
    let rt = AdaptivePfdRuntime::new(model, scenario.seed.seed, *cells)?;
    let alloc = uniform_allocation(refinement.round_demands, *cells);
    let one = traced_adaptive_round(tracer, root, &rt, 0, &alloc, 1);
    let one_ns = last_ns(tracer, root, "sweep.run_cells");
    let many = traced_adaptive_round(tracer, root, &rt, 0, &alloc, threads);
    let many_ns = last_ns(tracer, root, "sweep.run_cells");
    if one != many {
        failed.push("adaptive: 1-thread round evidence differs".into());
    }
    f.insert("sweep.speedup".into(), one_ns as f64 / many_ns as f64);
    wire_probe(tracer, root, &many, f, failed);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn fleet_probes(
    specs: &[GeneratedSpec],
    nt: &Figures,
    ctx: &Ctx,
    threads: usize,
    tracer: &Tracer,
    root: u64,
    f: &mut Figures,
    failed: &mut Vec<String>,
) -> BenchResult<()> {
    let scenario = parse(&specs[0].text)?;
    let run_ms = nt.get("dist.run_ms").copied().unwrap_or(0.0);
    // In-process baseline of the same spec.
    let mut inproc = Vec::new();
    for _ in 0..3 {
        tracer.span("bench.inprocess", Some(root), |_| scenario.run(threads))?;
        inproc.push(ms(last_ns(tracer, root, "bench.inprocess")));
    }
    f.insert("dist.inprocess_ms".into(), median(&inproc));
    f.insert("dist.overhead_frac".into(), run_ms / median(&inproc) - 1.0);
    // The same coordinated run with a journal.
    let path = journal_path(&ctx.out_dir, scenario.seed.seed);
    let _ = std::fs::remove_file(&path);
    let coordinator = Coordinator::new(scenario.clone())?
        .lease_cells(FLEET_LEASE_CELLS)
        .journal(&path)?;
    let mut fleet = spawn_stdio_fleet(&ctx.exe, FLEET_WORKERS, FLEET_WORKER_THREADS, true, &[])?;
    let run = tracer.span("dist.run_journal", Some(root), |_| {
        coordinator.run(std::mem::take(&mut fleet.transports))
    });
    for child in &mut fleet.children {
        let _ = child.wait();
    }
    drop(coordinator);
    let _ = std::fs::remove_file(&path);
    if run?.stats.retries != 0 {
        failed.push("journaled fleet run retried leases".into());
    }
    f.insert(
        "dist.journal_overhead_frac".into(),
        ms(last_ns(tracer, root, "dist.run_journal")) / run_ms - 1.0,
    );
    // Wire cost of the campaign's cell accumulators.
    let ExperimentSpec::Protection(campaign) = &scenario.experiment else {
        return Err("fleet spec is not a campaign".into());
    };
    let rt = CampaignRuntime::new(campaign, scenario.seed.seed)?;
    let logs = (0..rt.cell_count().min(threads as u64))
        .map(|k| rt.run_cell(k))
        .collect::<Result<Vec<_>, _>>()?;
    wire_probe(tracer, root, &logs, f, failed);
    Ok(())
}
