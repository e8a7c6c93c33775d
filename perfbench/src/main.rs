//! `perfbench`: the repository's seeded end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! perfbench --workload <campaign|rare_event|adaptive|fleet> --seed N
//!           --seconds S --trace <0|1> [--out DIR]
//! perfbench --compare DIR_A DIR_B
//! perfbench --print-specs --workload W --seed N
//! ```
//!
//! A run generates the workload's spec text from the seed, measures it
//! for `--seconds` seconds and checks every output against a 1-thread
//! reference computed in the same run. The last line of standard output
//! is one JSON object (`correct`, `attempted`, `failed`, `metrics`):
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The full result, stamped with host and commit, goes to
//! `DIR/<workload>-seed<N>-trace<T>.json`; a traced run also writes its
//! spans (`.spans.ndjson`) and a per-layer self-time table
//! (`.layers.md`). Fleet workers are this binary in `--worker-stdio`
//! mode; the peak-memory probe is this binary in `--peak-rss` mode.

mod compare;
mod gen;
mod host;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use gen::{GeneratedSpec, Workload};
use host::HostStamp;
use serde_json::Value;
use stats::median;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{BenchResult, Ctx, SpecRun};

/// Set-up samples per untraced run: at least this many, and more until
/// [`SETUP_SECONDS`] have passed; `setup_s` is their median.
const SETUP_SAMPLES: usize = 5;
/// Time spent repeating set-ups, so cheap set-ups get many samples.
const SETUP_SECONDS: f64 = 0.5;
/// One set-up sample is the mean over a batch of set-ups lasting at
/// least this long, so a set-up of microseconds is not timer noise.
const SETUP_BATCH_SECONDS: f64 = 0.02;
/// Executions a run makes at least, however long they take.
const MIN_EXECS: usize = 3;
/// No new execution starts after this much time in one run, so every
/// run ends well inside three minutes.
const START_CUTOFF: Duration = Duration::from_secs(100);

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> String {
    "usage: perfbench --workload <campaign|rare_event|adaptive|fleet> --seed N \
     --seconds S --trace <0|1> [--out DIR]\n       perfbench --compare DIR_A DIR_B\n       \
     perfbench --print-specs --workload W --seed N"
        .into()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.iter().any(|a| a == "--worker-stdio") {
        serve_worker(&args)
    } else if args.first().map(String::as_str) == Some("--compare") {
        compare_mode(&args[1..])
    } else if args.iter().any(|a| a == "--print-specs") {
        print_specs(&args)
    } else if args.iter().any(|a| a == "--peak-rss") {
        peak_rss_child(&args)
    } else {
        parse_run_args(&args).and_then(|a| run(&a))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_run_args(args: &[String]) -> BenchResult<RunArgs> {
    let need = |name: &str| flag(args, name).ok_or_else(|| format!("missing {name}\n{}", usage()));
    let workload = need("--workload")?;
    let workload = Workload::parse(workload)
        .ok_or_else(|| format!("unknown workload {workload:?}\n{}", usage()))?;
    let seconds: f64 = need("--seconds")?.parse()?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}").into()),
    };
    Ok(RunArgs {
        workload,
        seed: need("--seed")?.parse()?,
        seconds,
        trace,
        out: PathBuf::from(flag(args, "--out").unwrap_or("perfbench/out")),
    })
}

/// Worker mode: serve one coordinator over stdin/stdout.
fn serve_worker(args: &[String]) -> BenchResult<()> {
    use divrel_bench::dist::{JsonLines, Worker};
    let threads: usize = flag(args, "--threads").unwrap_or("1").parse()?;
    let mut transport = JsonLines::new(std::io::stdin(), std::io::stdout());
    Worker::new().threads(threads).serve(&mut transport)?;
    Ok(())
}

fn print_specs(args: &[String]) -> BenchResult<()> {
    let w = flag(args, "--workload")
        .and_then(Workload::parse)
        .ok_or_else(usage)?;
    let seed: u64 = flag(args, "--seed").ok_or_else(usage)?.parse()?;
    for spec in gen::specs(w, seed) {
        println!(
            "# --- {} ({}) ---\n{}",
            spec.label,
            w.work_unit(),
            spec.text
        );
    }
    Ok(())
}

/// Peak-memory probe: one execution in this fresh process; prints the
/// peak resident set of this process plus its fleet workers, in KiB.
fn peak_rss_child(args: &[String]) -> BenchResult<()> {
    let w = flag(args, "--workload")
        .and_then(Workload::parse)
        .ok_or_else(usage)?;
    let seed: u64 = flag(args, "--seed").ok_or_else(usage)?.parse()?;
    let ctx = Ctx {
        exe: std::env::current_exe()?,
        out_dir: PathBuf::from(flag(args, "--out").unwrap_or("perfbench/out")),
    };
    let runs = execute_all(w, &gen::specs(w, seed), &ctx, host::nproc())?;
    let workers = runs.iter().map(|r| r.worker_rss_kib).max().unwrap_or(0);
    println!("{}", host::peak_rss_kib("self").unwrap_or(0) + workers);
    Ok(())
}

/// Runs the peak-memory probe in a fresh process, so the figure is one
/// execution's own and not what the allocator kept from earlier ones.
fn fresh_peak_rss_mb(ctx: &Ctx, w: Workload, seed: u64) -> BenchResult<f64> {
    let out = std::process::Command::new(&ctx.exe)
        .args([
            "--peak-rss",
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
        ])
        .arg("--out")
        .arg(&ctx.out_dir)
        .output()?;
    if !out.status.success() {
        return Err(format!(
            "peak-memory probe failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )
        .into());
    }
    let kib: u64 = String::from_utf8_lossy(&out.stdout).trim().parse()?;
    Ok(kib as f64 / 1024.0)
}

fn compare_mode(args: &[String]) -> BenchResult<()> {
    let [a, b] = args else {
        return Err(usage().into());
    };
    let bounds = compare::bounds(include_str!("../../BENCHMARK.json"));
    let table = compare::compare(
        &compare::load_dir(Path::new(a))?,
        &compare::load_dir(Path::new(b))?,
        &bounds,
    )?;
    print!("{table}");
    Ok(())
}

/// Tallies of the correctness checks of one run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checks {
    /// Judges one execution of every spec against the references.
    fn judge(&mut self, runs: &[SpecRun], reference: &[String]) {
        self.attempted += 1;
        let before = self.messages.len();
        for (run, want) in runs.iter().zip(reference) {
            if run.markdown != *want {
                self.messages.push(format!(
                    "{}: results_markdown differs from the 1-thread reference",
                    run.label
                ));
            }
            for m in &run.failed_checks {
                self.messages.push(format!("{}: {m}", run.label));
            }
        }
        if self.messages.len() > before {
            self.failed += 1;
        }
    }

    fn error(&mut self, e: &dyn std::error::Error) {
        self.attempted += 1;
        self.failed += 1;
        self.messages.push(format!("execution failed: {e}"));
    }
}

/// Executes every spec once, untraced.
fn execute_all(
    w: Workload,
    specs: &[GeneratedSpec],
    ctx: &Ctx,
    threads: usize,
) -> BenchResult<Vec<SpecRun>> {
    specs
        .iter()
        .map(|s| workloads::execute(w, s, ctx, threads))
        .collect()
}

/// Repeats `exec` for `window`, at least [`MIN_EXECS`] times, recording
/// every outcome in `checks`; returns the successful executions.
fn measure(
    window: Duration,
    start: Instant,
    checks: &mut Checks,
    reference: &[String],
    mut exec: impl FnMut() -> BenchResult<Vec<SpecRun>>,
) -> Vec<Vec<SpecRun>> {
    let t = Instant::now();
    let mut done = Vec::new();
    let mut tries = 0;
    while tries < MIN_EXECS || t.elapsed() < window {
        if start.elapsed() > START_CUTOFF && tries > 0 {
            break;
        }
        tries += 1;
        match exec() {
            Ok(runs) => {
                checks.judge(&runs, reference);
                done.push(runs);
            }
            Err(e) => checks.error(e.as_ref()),
        }
    }
    done
}

/// Set-up samples: batches of at least [`SETUP_BATCH_SECONDS`], each
/// sample the batch's mean, for at least [`SETUP_SECONDS`].
fn measure_setup(w: Workload, specs: &[GeneratedSpec], ctx: &Ctx) -> BenchResult<Vec<f64>> {
    let mut setups = Vec::new();
    let t = Instant::now();
    while setups.len() < SETUP_SAMPLES || t.elapsed().as_secs_f64() < SETUP_SECONDS {
        let (mut total, mut reps) = (0.0, 0u32);
        while reps == 0 || total < SETUP_BATCH_SECONDS {
            total += workloads::setup(w, specs, ctx)?;
            reps += 1;
        }
        setups.push(total / f64::from(reps));
    }
    Ok(setups)
}

fn sum_of(runs: &[SpecRun], f: impl Fn(&SpecRun) -> f64) -> f64 {
    runs.iter().map(f).sum()
}

fn run(a: &RunArgs) -> BenchResult<()> {
    let start = Instant::now();
    let w = a.workload;
    let threads = host::nproc();
    let specs = gen::specs(w, a.seed);
    std::fs::create_dir_all(&a.out)?;
    let ctx = Ctx {
        exe: std::env::current_exe()?,
        out_dir: a.out.clone(),
    };
    let host = HostStamp::current();
    let window = Duration::from_secs_f64(a.seconds);
    let mut checks = Checks::default();
    let mut metrics: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let tag = format!("{}-seed{}", w.name(), a.seed);
    // Set-up is timed first, on a fresh process.
    let setups = if a.trace {
        Vec::new()
    } else {
        measure_setup(w, &specs, &ctx)?
    };
    // Every execution must render exactly what a 1-thread in-process
    // run renders.
    let reference: Vec<String> = specs
        .iter()
        .map(workloads::reference_markdown)
        .collect::<BenchResult<_>>()?;
    if !a.trace {
        let execs = measure(window, start, &mut checks, &reference, || {
            execute_all(w, &specs, &ctx, threads)
        });
        let walls: Vec<f64> = execs.iter().map(|r| sum_of(r, |s| s.wall_s)).collect();
        let targets: Vec<f64> = execs.iter().map(|r| workloads::s_to_target(w, r)).collect();
        metrics.insert("setup_s".into(), (median(&setups), "s"));
        metrics.insert("wall_s".into(), (median(&walls), "s"));
        metrics.insert("s_to_target".into(), (median(&targets), "s"));
        metrics.insert(
            "peak_rss_mb".into(),
            (fresh_peak_rss_mb(&ctx, w, a.seed)?, "MB"),
        );
        for (i, spec) in specs.iter().enumerate() {
            let per: Vec<f64> = execs.iter().map(|r| r[i].wall_s).collect();
            samples.insert(format!("wall_s.{}", spec.label), per);
            let errs: Vec<f64> = execs.iter().filter_map(|r| r[i].rel_err).collect();
            if !errs.is_empty() {
                samples.insert(format!("rel_err.{}", spec.label), errs);
            }
        }
        samples.insert("setup_s".into(), setups);
        samples.insert("wall_s".into(), walls);
        samples.insert("s_to_target".into(), targets);
    } else {
        let tracer = Tracer::new();
        let mut runs: Vec<Vec<u64>> = Vec::new();
        let traced = measure(window / 2, start, &mut checks, &reference, || {
            let mut ids = Vec::new();
            let out = specs
                .iter()
                .map(|s| {
                    let r = workloads::traced_execute(w, s, &ctx, threads, &tracer);
                    ids.push(tracer.current_run());
                    r
                })
                .collect::<BenchResult<Vec<_>>>();
            if out.is_ok() {
                runs.push(ids);
            }
            out
        });
        let last = traced.last().ok_or("no traced execution succeeded")?;
        let mut figures =
            layers::span_figures(w, &specs, &tracer.spans(), &runs, &traced, threads)?;
        let mut probe_failures = Vec::new();
        let probe = layers::probes(
            w,
            &specs,
            last,
            &figures,
            &ctx,
            threads,
            &tracer,
            &mut probe_failures,
        )?;
        figures.extend(probe);
        if !probe_failures.is_empty() {
            checks.failed += 1;
            checks.attempted += 1;
            checks.messages.extend(probe_failures);
        }
        // Tracing overhead: the same executions untraced.
        let plain = measure(window / 2, start, &mut checks, &reference, || {
            execute_all(w, &specs, &ctx, threads)
        });
        let traced_wall = median(
            &traced
                .iter()
                .map(|r| sum_of(r, |s| s.wall_s))
                .collect::<Vec<_>>(),
        );
        let plain_wall = median(
            &plain
                .iter()
                .map(|r| sum_of(r, |s| s.wall_s))
                .collect::<Vec<_>>(),
        );
        figures.insert("trace.overhead_frac".into(), traced_wall / plain_wall - 1.0);
        let spans = tracer.spans();
        std::fs::write(
            a.out.join(format!("{tag}.spans.ndjson")),
            trace::to_ndjson(w.name(), &spans),
        )?;
        std::fs::write(
            a.out.join(format!("{tag}.layers.md")),
            layer_table(w, &spans, &runs, traced_wall),
        )?;
        for (name, unit, _) in metrics::PER_LAYER {
            let v = figures
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            metrics.insert(name.into(), (v, unit));
        }
    }
    for (name, (v, _)) in &metrics {
        if !v.is_finite() {
            checks.failed += 1;
            checks.messages.push(format!("metric {name} is not finite"));
        }
    }
    let failed_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    // Human-readable report.
    println!(
        "perfbench {} seed {} ({} work, {} threads, {} s window, trace {})",
        w.name(),
        a.seed,
        w.work_unit(),
        threads,
        a.seconds,
        u8::from(a.trace)
    );
    println!(
        "host: {} x {} | {} | commit {} (dirty: {})",
        host.nproc,
        host.cpu_model,
        host.rustc,
        host.commit,
        host.dirty.map_or("unknown".into(), |d| d.to_string())
    );
    for (name, (v, unit)) in &metrics {
        println!("  {name:<32} {v:>14.6} {unit}");
    }
    println!("  {:<32} {:>14.6} ratio", "failed_frac", failed_frac);
    for m in &checks.messages {
        println!("  check failed: {m}");
    }
    let metric_value = |keep: &dyn Fn(&str) -> bool| {
        Value::Map(
            metrics
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, (v, unit))| {
                    (
                        k.clone(),
                        Value::Map(vec![
                            (
                                "value".into(),
                                Value::Num(if v.is_finite() { *v } else { 0.0 }),
                            ),
                            ("unit".into(), Value::Str((*unit).into())),
                        ]),
                    )
                })
                .collect(),
        )
    };
    let summary = Value::Map(vec![
        ("correct".into(), Value::Bool(checks.failed == 0)),
        ("attempted".into(), Value::Int(i128::from(checks.attempted))),
        ("failed".into(), Value::Int(i128::from(checks.failed))),
        ("metrics".into(), metric_value(&|_| true)),
    ]);
    let full = Value::Map(vec![
        ("workload".into(), Value::Str(w.name().into())),
        ("seed".into(), Value::Int(i128::from(a.seed))),
        ("trace".into(), Value::Bool(a.trace)),
        ("seconds".into(), Value::Num(a.seconds)),
        ("work_unit".into(), Value::Str(w.work_unit().into())),
        ("host".into(), host_value(&host)),
        ("correct".into(), Value::Bool(checks.failed == 0)),
        ("attempted".into(), Value::Int(i128::from(checks.attempted))),
        ("failed".into(), Value::Int(i128::from(checks.failed))),
        ("failed_frac".into(), Value::Num(failed_frac)),
        (
            "checks_failed".into(),
            Value::Seq(
                checks
                    .messages
                    .iter()
                    .map(|m| Value::Str(m.clone()))
                    .collect(),
            ),
        ),
        ("metrics".into(), metric_value(&|_| true)),
        (
            "samples".into(),
            Value::Map(
                samples
                    .into_iter()
                    .map(|(k, v)| (k, Value::Seq(v.into_iter().map(Value::Num).collect())))
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(
        a.out.join(format!("{tag}-trace{}.json", u8::from(a.trace))),
        serde_json::to_string_pretty(&full)? + "\n",
    )?;
    println!("{}", serde_json::to_string(&summary)?);
    Ok(())
}

fn host_value(h: &HostStamp) -> Value {
    Value::Map(vec![
        ("nproc".into(), Value::Int(h.nproc as i128)),
        ("cpu_model".into(), Value::Str(h.cpu_model.clone())),
        ("rustc".into(), Value::Str(h.rustc.clone())),
        ("commit".into(), Value::Str(h.commit.clone())),
        ("dirty".into(), h.dirty.map_or(Value::Null, Value::Bool)),
    ])
}

/// The per-layer self-time table of the traced executions: median per
/// execution, and the share of the traced wall it represents (self time
/// inside parallel sweeps is thread time, so shares can sum past 100 %).
fn layer_table(
    w: Workload,
    spans: &[trace::Span],
    runs: &[Vec<u64>],
    traced_wall_s: f64,
) -> String {
    let mut per_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for exec in runs {
        let ex: Vec<trace::Span> = spans
            .iter()
            .filter(|s| exec.contains(&s.run))
            .cloned()
            .collect();
        let totals = trace::layer_self_times(&ex);
        for layer in layers::LAYERS {
            per_layer
                .entry(layer)
                .or_default()
                .push(totals.get(layer).copied().unwrap_or(0) as f64 / 1e6);
        }
    }
    let mut out = format!(
        "# {} per-layer self time ({} traced executions, median traced wall {:.3} s)\n\n| layer | self ms (median) | share of wall |\n|---|---|---|\n",
        w.name(),
        runs.len(),
        traced_wall_s
    );
    for layer in layers::LAYERS {
        let m = median(&per_layer[layer]);
        out.push_str(&format!(
            "| {layer} | {m:.3} | {:.1}% |\n",
            100.0 * m / (1e3 * traced_wall_s)
        ));
    }
    out
}
