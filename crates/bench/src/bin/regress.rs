//! Statistical bench-regression gate (see `bitflow_bench::regress`).
//!
//! ```text
//! cargo run --release -p bitflow-bench --bin regress [--quick]
//! ```
//!
//! Times the Table IV workloads, appends the run to
//! `results/history/bench.jsonl`, then compares against
//! `results/baseline.json`. Exits 0 when every operator is within the
//! gate, 1 when an operator regressed (the offenders are named), and
//! blesses a fresh baseline when none exists for this machine/mode.
//!
//! Environment: `BITFLOW_BLESS=1` forces a re-bless;
//! `BITFLOW_REGRESS_INJECT="op:factor"` injects a synthetic slowdown;
//! `BITFLOW_RESULTS_DIR` moves the artifact directory.

use bitflow_bench::regress::{append_history, collect_run, compare, load_baseline, needs_bless};
use bitflow_bench::{quick_mode, write_json};

fn main() {
    let quick = quick_mode();
    eprintln!(
        "[regress] timing Table IV workloads ({} mode, single thread)…",
        if quick { "quick" } else { "full" }
    );
    let run = collect_run(quick);

    println!(
        "machine: {} | peak {:.0} GOPS, {:.1} GB/s",
        run.fingerprint(),
        run.machine.peak_gops,
        run.machine.peak_gb_per_s,
    );
    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>8}",
        "op", "median", "mad", "gops", "%peak"
    );
    for op in &run.ops {
        println!(
            "{:<10} {:>10}ns {:>8}ns {:>10.1} {:>7.2}%",
            op.name, op.median_ns, op.mad_ns, op.gops, op.pct_of_peak_compute,
        );
    }

    match append_history(&run) {
        Ok(path) => eprintln!("[history appended to {}]", path.display()),
        Err(e) => eprintln!("warning: cannot append history: {e}"),
    }

    let baseline = load_baseline();
    if let Some(reason) = needs_bless(baseline.as_ref(), &run) {
        write_json("baseline", &run);
        println!("baseline blessed ({reason}); gate skipped this run");
        return;
    }
    let baseline = baseline.expect("needs_bless returned None, baseline exists");

    let verdicts = compare(&baseline, &run);
    let mut failed = false;
    println!(
        "\n{:<10} {:>12} {:>12} {:>9}  verdict",
        "op", "base", "current", "Δ"
    );
    for v in &verdicts {
        let verdict = match (v.latency_regressed, v.gops_regressed) {
            (false, false) => "ok".to_string(),
            (lat, gops) => {
                failed = true;
                let mut parts = Vec::new();
                if lat {
                    parts.push("latency REGRESSED");
                }
                if gops {
                    parts.push("gops REGRESSED");
                }
                parts.join(", ")
            }
        };
        println!(
            "{:<10} {:>10}ns {:>10}ns {:>+8.1}%  {}",
            v.name, v.base_median_ns, v.cur_median_ns, v.latency_delta_pct, verdict
        );
    }
    if failed {
        let names: Vec<&str> = verdicts
            .iter()
            .filter(|v| v.regressed())
            .map(|v| v.name.as_str())
            .collect();
        eprintln!(
            "\nFAIL: {} operator(s) regressed vs baseline: {}",
            names.len(),
            names.join(", ")
        );
        std::process::exit(1);
    }
    println!("\nPASS: all {} operators within the gate", verdicts.len());
}
