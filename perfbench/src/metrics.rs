//! The benchmark's metric catalogue: every name it reports, with unit
//! and direction, kept equal to `BENCHMARK.json` by a test.

/// `(name, unit, better)` of each end-to-end metric, reported by an
/// untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("s_to_target", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of each per-layer metric, reported by a
/// traced run (`--trace 1`). A metric the workload does not exercise
/// reads 0.
pub const PER_LAYER: [(&str, &str, &str); 54] = [
    ("scenario.parse_us", "us", "lower"),
    ("scenario.card_ms", "ms", "lower"),
    ("protection.runtime_new_ms", "ms", "lower"),
    ("protection.compile_ms", "ms", "lower"),
    ("protection.occupancy", "ratio", "lower"),
    ("protection.markov.ns_per_tick", "ns", "lower"),
    ("protection.rate.ns_per_demand", "ns", "lower"),
    ("protection.demands", "count", "higher"),
    ("protection.cell_ms_p50", "ms", "lower"),
    ("protection.cell_ms_max", "ms", "lower"),
    ("protection.busy_nt_ms", "ms", "lower"),
    ("protection.busy_1t_ms", "ms", "lower"),
    ("protection.contention", "ratio", "lower"),
    ("pfd.finish_ms", "ms", "lower"),
    ("pfd.true_pfd_serial_ms", "ms", "lower"),
    ("pfd.true_pfd_parallel_ms", "ms", "lower"),
    ("pfd.true_pfd_speedup", "ratio", "higher"),
    ("rare.tilt.ns_per_sample", "ns", "lower"),
    ("rare.strat.ns_per_sample", "ns", "lower"),
    ("rare.tilt.ess_frac", "ratio", "higher"),
    ("rare.rel_err", "ratio", "lower"),
    ("adaptive.trial_ns_per_demand", "ns", "lower"),
    ("adaptive.exec_s", "s", "lower"),
    ("adaptive.posterior_s", "s", "lower"),
    ("adaptive.rounds", "count", "lower"),
    ("adaptive.demands", "count", "lower"),
    ("bayes.prior_ms", "ms", "lower"),
    ("sweep.wall_ms", "ms", "lower"),
    ("sweep.busy_frac", "ratio", "higher"),
    ("sweep.speedup", "ratio", "higher"),
    ("wire.encode_ns_per_cell", "ns", "lower"),
    ("wire.decode_ns_per_cell", "ns", "lower"),
    ("wire.bytes_per_cell", "bytes", "lower"),
    ("dist.spawn_ms", "ms", "lower"),
    ("dist.run_ms", "ms", "lower"),
    ("dist.inprocess_ms", "ms", "lower"),
    ("dist.overhead_frac", "ratio", "lower"),
    ("dist.leases", "count", "lower"),
    ("dist.retries", "count", "lower"),
    ("dist.timeouts", "count", "lower"),
    ("dist.journal_overhead_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("self_ms.bench", "ms", "lower"),
    ("self_ms.scenario", "ms", "lower"),
    ("self_ms.protection", "ms", "lower"),
    ("self_ms.pfd", "ms", "lower"),
    ("self_ms.rare", "ms", "lower"),
    ("self_ms.estimator", "ms", "lower"),
    ("self_ms.adaptive", "ms", "lower"),
    ("self_ms.bayes", "ms", "lower"),
    ("self_ms.sweep", "ms", "lower"),
    ("self_ms.dist", "ms", "lower"),
    ("self_ms.report", "ms", "lower"),
];

/// Unit and direction of a metric name, end-to-end or per-layer.
pub fn lookup(name: &str) -> Option<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _, _)| *n == name)
        .map(|&(_, unit, better)| (unit, better))
}

/// Whether a metric name has the form the driver accepts: a letter or
/// digit first, then at most 63 of letters, digits, `_`, `.`, `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    const SPEC: &str = include_str!("../../BENCHMARK.json");

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Map(m) => m
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            _ => panic!("not a string"),
        }
    }

    fn list(v: &Value) -> &[Value] {
        match v {
            Value::Seq(s) => s,
            _ => panic!("not a list"),
        }
    }

    fn triples(spec: &Value, key: &str) -> Vec<(String, String, String)> {
        list(field(spec, key))
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")).to_string(),
                    text(field(m, "unit")).to_string(),
                    text(field(m, "better")).to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec: Value = serde_json::from_str(SPEC).expect("BENCHMARK.json parses");
        let own = |xs: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            xs.iter()
                .map(|(a, b, c)| (a.to_string(), b.to_string(), c.to_string()))
                .collect()
        };
        assert_eq!(triples(&spec, "end_to_end"), own(&END_TO_END));
        assert_eq!(triples(&spec, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn names_and_counts_are_within_limits() {
        let spec: Value = serde_json::from_str(SPEC).expect("BENCHMARK.json parses");
        let e2e = triples(&spec, "end_to_end");
        let layer = triples(&spec, "per_layer");
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layer.len()));
        let workloads: Vec<String> = list(field(&spec, "workloads"))
            .iter()
            .map(|w| text(field(w, "name")).to_string())
            .collect();
        assert!((2..=8).contains(&workloads.len()));
        let mut seen = std::collections::BTreeSet::new();
        for name in e2e.iter().chain(&layer).map(|t| &t.0).chain(&workloads) {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name.clone()), "duplicate name {name}");
        }
        for (_, unit, better) in e2e.iter().chain(&layer) {
            assert!(unit.len() <= 16 && !unit.is_empty());
            assert!(better == "lower" || better == "higher");
        }
        assert!(e2e
            .iter()
            .any(|(n, u, b)| n == "setup_s" && u == "s" && b == "lower"));
        for w in crate::gen::Workload::ALL {
            assert!(
                workloads.iter().any(|n| n == w.name()),
                "{} missing",
                w.name()
            );
        }
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("protection.markov.ns_per_tick"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
