//! Runs paper-reproduction experiments in paper order and writes
//! artifacts under `results/`.
//!
//! Usage: `cargo run -p divrel-bench --release --bin all_experiments --
//! [ID…] [--smoke]`. With no IDs every experiment in
//! [`registry`] runs and `results/SUMMARY.md` is rewritten; naming IDs
//! (`E7 F2`) runs just those. An unknown ID lists the valid ones and
//! exits with status 2.

use divrel_bench::{registry, Context};

fn main() {
    let mut smoke = false;
    let mut wanted: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            wanted.push(arg);
        }
    }
    let entries = registry();
    let unknown: Vec<&String> = wanted
        .iter()
        .filter(|w| !entries.iter().any(|(id, _, _)| id == w))
        .collect();
    if !unknown.is_empty() {
        let valid: Vec<&str> = entries.iter().map(|(id, _, _)| *id).collect();
        eprintln!(
            "unknown experiment ID(s): {}\nvalid IDs: {}\nusage: all_experiments [ID…] [--smoke]",
            unknown
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(", "),
            valid.join(", ")
        );
        std::process::exit(2);
    }
    let ctx = if smoke {
        let mut c = Context::new();
        c.scale = 0.02;
        c
    } else {
        Context::new()
    };
    let mut failures = 0usize;
    let mut verdicts: Vec<(String, String)> = Vec::new();
    for (id, title, runner) in entries {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == id) {
            continue;
        }
        println!("\n──────────────────────────────────────────────────────");
        println!("Running {id}: {title}");
        println!("──────────────────────────────────────────────────────");
        match runner(&ctx) {
            Ok(summary) => {
                println!("{}", summary.to_console());
                verdicts.push((format!("{id} — {title}"), summary.verdict));
            }
            Err(e) => {
                eprintln!("EXPERIMENT {id} FAILED: {e}");
                verdicts.push((format!("{id} — {title}"), format!("FAILED: {e}")));
                failures += 1;
            }
        }
    }
    println!("\n================= REPRODUCTION SUMMARY =================");
    for (what, verdict) in &verdicts {
        println!("• {what}\n    {verdict}");
    }
    // A partial run must not overwrite the index of the full one.
    if wanted.is_empty() {
        let mut summary_md = String::from(
            "# Reproduction summary\n\nGenerated by `all_experiments`. One verdict \
             per paper artifact; detailed tables in the sibling directories.\n\n",
        );
        for (what, verdict) in &verdicts {
            summary_md.push_str(&format!("* **{what}** — {verdict}\n"));
        }
        summary_md.push_str(&format!(
            "\n{} experiments, {} failed.\n",
            verdicts.len(),
            failures
        ));
        let summary_path = ctx.results_root.join("SUMMARY.md");
        if let Err(e) = std::fs::write(&summary_path, summary_md) {
            eprintln!("could not write {}: {e}", summary_path.display());
        }
    }
    println!(
        "\n{} experiments, {} failed. Artifacts in {}/ (index: SUMMARY.md)",
        verdicts.len(),
        failures,
        ctx.results_root.display()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
