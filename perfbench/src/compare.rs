//! Compare mode: two result sets (directories of result files written
//! by runs), metric by metric, with a verdict judged against the
//! benchmark's own bounds.

use crate::host::HostStamp;
use crate::stats::{median, quartiles, spread};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The outcome of comparing one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The second set is better beyond the first set's own spread, in at
    /// least nine tenths of the seed pairs.
    Better,
    /// The second set is worse by more than the bound.
    Worse,
    /// Within the bound, and not shown better.
    Unchanged,
    /// The spread is wider than the bound: no call either way.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for the table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a`, each a list of `(seed, value)`.
/// `lower_better` orients the metric; `bound` is the share of `a`'s
/// median by which `b` may get worse (`None` for per-layer metrics,
/// which are judged against their own spread).
pub fn verdict(
    a: &[(u64, f64)],
    b: &[(u64, f64)],
    lower_better: bool,
    bound: Option<f64>,
) -> Verdict {
    let va: Vec<f64> = a.iter().map(|p| p.1).collect();
    let vb: Vec<f64> = b.iter().map(|p| p.1).collect();
    let (ma, mb) = (median(&va), median(&vb));
    if va.is_empty() || vb.is_empty() || !ma.is_finite() || !mb.is_finite() {
        return Verdict::Unresolved;
    }
    if ma == mb {
        return Verdict::Unchanged;
    }
    if ma == 0.0 {
        return Verdict::Unresolved;
    }
    let sign = if lower_better { 1.0 } else { -1.0 };
    // Positive: b is worse than a, as a share of a's median.
    let worse_by = sign * (mb - ma) / ma.abs();
    let better = |x: f64, y: f64| sign * (x - y) < 0.0;
    let worse = |x: f64, y: f64| sign * (x - y) > 0.0;
    let spread_a = spread(&va).abs();
    let spread_max = spread_a.max(spread(&vb).abs());
    let limit = bound.unwrap_or(spread_max);
    if bound.is_some() && spread_max > limit {
        if vb.iter().all(|&y| va.iter().all(|&x| better(y, x))) {
            return Verdict::Better;
        }
        if vb.iter().all(|&y| va.iter().all(|&x| worse(y, x))) {
            return Verdict::Worse;
        }
        return Verdict::Unresolved;
    }
    // Pair by seed where both sides ran the seed; otherwise compare each
    // of b's values with a's median.
    let pa: BTreeMap<u64, f64> = a.iter().copied().collect();
    let pairs: Vec<(f64, f64)> = b
        .iter()
        .filter_map(|&(s, y)| pa.get(&s).map(|&x| (x, y)))
        .collect();
    let pairs = if pairs.is_empty() {
        vb.iter().map(|&y| (ma, y)).collect()
    } else {
        pairs
    };
    let wins = pairs.iter().filter(|&&(x, y)| better(y, x)).count();
    let losses = pairs.iter().filter(|&&(x, y)| worse(y, x)).count();
    let n = pairs.len() as f64;
    if worse_by > limit && (bound.is_some() || losses as f64 >= 0.9 * n) {
        return Verdict::Worse;
    }
    if -worse_by > spread_a && wins as f64 >= 0.9 * n {
        return Verdict::Better;
    }
    Verdict::Unchanged
}

/// One loaded result file.
#[derive(Debug, Clone)]
pub struct ResultFile {
    /// Workload name.
    pub workload: String,
    /// Benchmark seed.
    pub seed: u64,
    /// Host stamp.
    pub host: HostStamp,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_str(v: Option<&Value>) -> Option<String> {
    match v? {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

fn as_f64(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Num(x) => Some(*x),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Parses a result file's text.
pub fn parse_result(text: &str) -> Option<ResultFile> {
    let v: Value = serde_json::from_str(text).ok()?;
    let host = get(&v, "host")?;
    let metrics = match get(&v, "metrics")? {
        Value::Map(m) => m
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), as_f64(get(m, "value"))?)))
            .collect(),
        _ => return None,
    };
    Some(ResultFile {
        workload: as_str(get(&v, "workload"))?,
        seed: as_f64(get(&v, "seed"))? as u64,
        host: HostStamp {
            nproc: as_f64(get(host, "nproc"))? as usize,
            cpu_model: as_str(get(host, "cpu_model"))?,
            rustc: as_str(get(host, "rustc"))?,
            commit: as_str(get(host, "commit"))?,
            dirty: match get(host, "dirty") {
                Some(Value::Bool(b)) => Some(*b),
                _ => None,
            },
        },
        metrics,
    })
}

/// Loads every result file (`*.json`) in `dir`.
pub fn load_dir(dir: &Path) -> Result<Vec<ResultFile>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(r) = parse_result(&text) {
            out.push(r);
        }
    }
    if out.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(out)
}

/// The single host of a result set, or an error naming the mix.
fn one_host(set: &[ResultFile], name: &str) -> Result<HostStamp, String> {
    let first = set[0].host.clone();
    if let Some(other) = set.iter().find(|r| !r.host.same_host(&first)) {
        return Err(format!(
            "{name} mixes hosts: {:?} and {:?}",
            first, other.host
        ));
    }
    Ok(first)
}

/// Compares result set `b` against `a` and renders the table; refuses
/// sets from different hosts.
pub fn compare(
    a: &[ResultFile],
    b: &[ResultFile],
    bounds: &BTreeMap<String, f64>,
) -> Result<String, String> {
    let (ha, hb) = (one_host(a, "first set")?, one_host(b, "second set")?);
    if !ha.same_host(&hb) {
        return Err(format!(
            "refusing to compare results from different hosts: {ha:?} vs {hb:?}"
        ));
    }
    let collect = |set: &[ResultFile]| {
        let mut m: BTreeMap<(String, String), Vec<(u64, f64)>> = BTreeMap::new();
        for r in set {
            for (k, v) in &r.metrics {
                m.entry((r.workload.clone(), k.clone()))
                    .or_default()
                    .push((r.seed, *v));
            }
        }
        m
    };
    let (ma, mb) = (collect(a), collect(b));
    let keys: BTreeSet<_> = ma.keys().filter(|k| mb.contains_key(*k)).cloned().collect();
    let mut out = format!(
        "host: {} x {} ({}); commits {} -> {}\n\n| workload | metric | n | first: q1 / median / q3 | second: q1 / median / q3 | change | verdict |\n|---|---|---|---|---|---|---|\n",
        ha.nproc, ha.cpu_model, ha.rustc, ha.commit, hb.commit
    );
    for key in keys {
        let (va, vb) = (&ma[&key], &mb[&key]);
        let lower = crate::metrics::lookup(&key.1).is_none_or(|(_, better)| better == "lower");
        let v = verdict(va, vb, lower, bounds.get(&key.1).copied());
        let xs: Vec<f64> = va.iter().map(|p| p.1).collect();
        let ys: Vec<f64> = vb.iter().map(|p| p.1).collect();
        let (qa, qb) = (quartiles(&xs), quartiles(&ys));
        let change = (median(&ys) - median(&xs)) / median(&xs).abs();
        out.push_str(&format!(
            "| {} | {} | {}/{} | {:.4} / {:.4} / {:.4} | {:.4} / {:.4} / {:.4} | {:+.1}% | {} |\n",
            key.0,
            key.1,
            xs.len(),
            ys.len(),
            qa[0],
            qa[1],
            qa[2],
            qb[0],
            qb[1],
            qb[2],
            100.0 * change,
            v.label()
        ));
    }
    Ok(out)
}

/// The end-to-end bounds declared in `BENCHMARK.json` text.
pub fn bounds(benchmark_json: &str) -> BTreeMap<String, f64> {
    let Ok(v) = serde_json::from_str::<Value>(benchmark_json) else {
        return BTreeMap::new();
    };
    match get(&v, "end_to_end") {
        Some(Value::Seq(xs)) => xs
            .iter()
            .filter_map(|m| Some((as_str(get(m, "name"))?, as_f64(get(m, "bound"))?)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    const A: [f64; 10] = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00];

    #[test]
    fn identical_sets_are_unchanged() {
        assert_eq!(
            verdict(&set(&A), &set(&A), true, Some(0.1)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_uniform_slowdown_beyond_the_bound_is_worse() {
        let b: Vec<f64> = A.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(&set(&A), &set(&b), true, Some(0.1)), Verdict::Worse);
        // The same numbers on a higher-is-better metric are a gain.
        assert_eq!(
            verdict(&set(&A), &set(&b), false, Some(0.1)),
            Verdict::Better
        );
    }

    #[test]
    fn a_consistent_gain_beyond_the_spread_is_better() {
        let b: Vec<f64> = A.iter().map(|x| x * 0.9).collect();
        assert_eq!(
            verdict(&set(&A), &set(&b), true, Some(0.1)),
            Verdict::Better
        );
    }

    #[test]
    fn a_slowdown_within_the_bound_is_unchanged() {
        let b: Vec<f64> = A.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            verdict(&set(&A), &set(&b), true, Some(0.1)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0];
        let b: Vec<f64> = noisy.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            verdict(&set(&noisy), &set(&b), true, Some(0.1)),
            Verdict::Unresolved
        );
        // ...unless every value of one side beats every value of the other.
        let far: Vec<f64> = noisy.iter().map(|x| x * 10.0).collect();
        assert_eq!(
            verdict(&set(&noisy), &set(&far), true, Some(0.1)),
            Verdict::Worse
        );
    }

    #[test]
    fn a_gain_that_loses_pairs_is_not_better() {
        // Median lower, but only 6 of 10 seed pairs improve.
        let b = [0.90, 0.91, 0.89, 0.92, 0.88, 0.90, 1.10, 1.10, 1.10, 1.10];
        assert_eq!(
            verdict(&set(&A), &set(&b), true, Some(0.25)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn per_layer_metrics_use_their_spread() {
        let b: Vec<f64> = A.iter().map(|x| x * 1.5).collect();
        assert_eq!(verdict(&set(&A), &set(&b), true, None), Verdict::Worse);
        assert_eq!(verdict(&set(&A), &set(&A), true, None), Verdict::Unchanged);
    }

    #[test]
    fn compare_refuses_mixed_hosts() {
        let host = |cpu: &str| HostStamp {
            nproc: 2,
            cpu_model: cpu.into(),
            rustc: "rustc 1".into(),
            commit: "c".into(),
            dirty: Some(false),
        };
        let file = |cpu: &str| ResultFile {
            workload: "w".into(),
            seed: 1,
            host: host(cpu),
            metrics: [("wall_s".to_string(), 1.0)].into_iter().collect(),
        };
        let bounds = BTreeMap::new();
        assert!(compare(&[file("x")], &[file("y")], &bounds).is_err());
        let table = compare(&[file("x")], &[file("x")], &bounds).expect("same host");
        assert!(table.contains("| w | wall_s | 1/1 |"));
    }

    #[test]
    fn bounds_come_from_the_benchmark_file() {
        let b = bounds(include_str!("../../BENCHMARK.json"));
        assert!(b.contains_key("setup_s") && b.contains_key("wall_s"));
        assert!(b.values().all(|&x| x > 0.0 && x <= 0.25));
    }
}
