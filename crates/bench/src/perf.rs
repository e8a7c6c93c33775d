//! Minimal wall-clock measurement used by the `bench` binary's
//! before/after comparisons and `BENCH_*.json` export, so a plain
//! `cargo run --release -p divrel-bench --bin bench` can record the perf
//! trajectory to a JSON artifact.

use std::time::Instant;

/// Median nanoseconds per iteration of `f`, after calibration.
pub fn time_ns<F: FnMut()>(mut f: F) -> f64 {
    // Calibrate: find an iteration count taking ~5 ms.
    let mut iters: u64 = 1;
    let per_iter = loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = t.elapsed().as_nanos();
        if ns >= 5_000_000 || iters >= 1 << 30 {
            break ns as f64 / iters as f64;
        }
        iters = iters.saturating_mul(4);
    };
    // Measure: 7 samples of ~20 ms each, keep the median.
    let sample_iters = ((20.0e6 / per_iter.max(0.5)) as u64).max(1);
    let mut samples: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..sample_iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / sample_iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// One before/after comparison row.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Benchmark name (`group/case` convention).
    pub name: String,
    /// ns/iter of the seed (legacy) implementation.
    pub legacy_ns: f64,
    /// ns/iter of the bitset fast path.
    pub fast_ns: f64,
}

impl Comparison {
    /// Runs both sides and records the medians.
    pub fn measure<L: FnMut(), F: FnMut()>(name: &str, legacy: L, fast: F) -> Self {
        let legacy_ns = time_ns(legacy);
        let fast_ns = time_ns(fast);
        Comparison {
            name: name.to_string(),
            legacy_ns,
            fast_ns,
        }
    }

    /// `legacy / fast` — how many times faster the fast path is.
    pub fn speedup(&self) -> f64 {
        self.legacy_ns / self.fast_ns
    }
}

/// Renders comparisons as the `BENCH_*.json` document.
pub fn to_json(pr: u32, comparisons: &[Comparison]) -> String {
    let mut rows = Vec::new();
    for c in comparisons {
        rows.push(format!(
            "    {{\"name\": \"{}\", \"legacy_ns\": {:.1}, \"fast_ns\": {:.1}, \
             \"speedup\": {:.2}}}",
            c.name,
            c.legacy_ns,
            c.fast_ns,
            c.speedup()
        ));
    }
    format!(
        "{{\n  \"pr\": {pr},\n  \"unit\": \"ns_per_iter\",\n  \"benchmarks\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_serialises() {
        let c = Comparison {
            name: "g/case".into(),
            legacy_ns: 100.0,
            fast_ns: 20.0,
        };
        assert!((c.speedup() - 5.0).abs() < 1e-12);
        let json = to_json(1, &[c]);
        assert!(json.contains("\"pr\": 1"));
        assert!(json.contains("\"speedup\": 5.00"));
        // The export must be valid JSON for downstream tooling.
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["benchmarks"][0]["name"], "g/case");
    }

    #[test]
    fn time_ns_returns_positive() {
        let mut acc = 0u64;
        let ns = time_ns(|| acc = acc.wrapping_add(std::hint::black_box(1)));
        assert!(ns > 0.0);
    }
}
