//! `bitflow-benchmark`: see `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> --seed <n> [--seconds <s>] [--trace <0|1>] [--save <file>]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --compare a.jsonl b.jsonl
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --bless | --contract
//! ```

use std::io::Write;
use std::process::ExitCode;

use bitflow_benchmark::check::{logits_checksum, Golden, DATA_SEEDS};
use bitflow_benchmark::contract::{self, Better, END_TO_END, RUN_SECONDS, WORKLOADS};
use bitflow_benchmark::report::{result_line, Metric, SavedRun};
use bitflow_benchmark::stats::{iqr_share, median};
use bitflow_benchmark::sut::{self, Model, ModelKind};
use bitflow_benchmark::workloads::{self, E2eResult, RunCfg, Tally};
use bitflow_benchmark::{compare, fingerprint, ledger};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    save: Option<String>,
}

enum Mode {
    Run(Args),
    Compare(String, String),
    Bless,
    Contract,
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        save: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(args.seconds >= 1.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--save" => args.save = Some(value("a file")?),
            "--compare" => return Ok(Mode::Compare(value("two files")?, value("two files")?)),
            "--bless" => return Ok(Mode::Bless),
            "--contract" => return Ok(Mode::Contract),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|w| w.name == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {} or all",
            names.join(", ")
        ));
    }
    Ok(Mode::Run(args))
}

/// Each end-to-end metric's value over its windows.
fn e2e_metrics(r: &E2eResult) -> Result<Vec<Metric>, String> {
    END_TO_END
        .iter()
        .map(|m| {
            let series = r
                .series(m.name)
                .filter(|s| !s.windows.is_empty())
                .ok_or(format!("no value for end-to-end metric `{}`", m.name))?;
            Ok(Metric {
                name: m.name.to_string(),
                value: series.value(m.better == Better::Lower),
                unit: m.unit.to_string(),
                windows: series.windows.clone(),
            })
        })
        .collect()
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        if m.windows.is_empty() {
            println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
        } else {
            println!(
                "  {workload}.{:<20} {:>14.6} {:<4} over {} windows (median {:.6}, spread {:.1}%)",
                m.name,
                m.value,
                m.unit,
                m.windows.len(),
                median(&m.windows),
                100.0 * iqr_share(&m.windows)
            );
        }
    }
}

fn print_tally(tally: &Tally) {
    println!(
        "  attempted {} failed {} (fail_share {:.6}) mismatched {} (logits_ok_share {:.6})",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.mismatched,
        1.0 - tally.mismatched as f64 / tally.attempted.max(1) as f64,
    );
}

fn save(path: &str, run: &SavedRun) -> Result<(), String> {
    let line = run.render()?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(f, "{line}").map_err(|e| format!("{path}: {e}"))
}

/// One workload, untraced: (tally, metrics).
fn run_untraced(name: &str, cfg: &RunCfg, golden: &Golden) -> Result<(Tally, Vec<Metric>), String> {
    let runner = workloads::runner(name).ok_or(format!("workload `{name}` has no runner"))?;
    let result = runner(cfg, golden)?;
    println!("workload {name}");
    for note in &result.notes {
        println!("  {note}");
    }
    let metrics = e2e_metrics(&result)?;
    let over: Vec<String> = END_TO_END
        .iter()
        .filter_map(|m| Some(format!("{} {:?}", m.name, result.series(m.name)?.over)))
        .collect();
    println!("  reduced over windows by: {}", over.join(", "));
    print_metrics(name, &metrics);
    print_tally(&result.tally);
    Ok((result.tally, metrics))
}

/// The traced run: the whole per-layer ledger, and the span trace of each
/// workload in `write_traces`.
fn run_traced(
    write_traces: &[&str],
    cfg: &RunCfg,
    golden: &Golden,
) -> Result<(Tally, Vec<Metric>), String> {
    let ledger = ledger::run(cfg, golden)?;
    let contract = contract::per_layer();
    if let Some(extra) = ledger
        .metrics
        .keys()
        .find(|k| !contract.iter().any(|m| &m.name == *k))
    {
        return Err(format!(
            "the traced run measured `{extra}`, which BENCHMARK.json does not name"
        ));
    }
    println!("per-layer ledger (traced run)");
    for note in &ledger.notes {
        println!("  {note}");
    }
    let metrics: Vec<Metric> = contract
        .into_iter()
        .map(|m| {
            ledger
                .metrics
                .get(&m.name)
                .map(|&value| Metric {
                    name: m.name.clone(),
                    value,
                    unit: m.unit.to_string(),
                    windows: Vec::new(),
                })
                .ok_or(format!("the traced run did not measure `{}`", m.name))
        })
        .collect::<Result<_, String>>()?;
    print_metrics("", &metrics);
    let out_dir = fingerprint::bench_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    for (workload, log) in &ledger.traces {
        if !write_traces.contains(workload) {
            continue;
        }
        let path = out_dir.join(format!("trace-{workload}.json"));
        std::fs::write(&path, log.to_chrome_json(workload))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "  trace of {workload}: {} spans -> {}",
            log.spans().len(),
            path.display()
        );
        let mut by_name = log.self_time_by_name();
        by_name.sort_by_key(|(_, ns, _)| std::cmp::Reverse(*ns));
        for (name, ns, n) in by_name.iter().take(8) {
            println!(
                "    self time {:<32} {:>10.3} ms over {n} spans",
                name,
                *ns as f64 / 1e6
            );
        }
    }
    print_tally(&ledger.tally);
    Ok((ledger.tally, metrics))
}

fn run(args: &Args) -> Result<bool, String> {
    let bench_dir = fingerprint::bench_dir();
    let golden = Golden::load(&bench_dir.join("golden.json"))?;
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        threads: sut::nproc(),
    };
    println!(
        "fingerprint: {} seed={} data_seed={} seconds={} trace={}",
        fingerprint::fingerprint(&bench_dir),
        args.seed,
        cfg.data_seed(),
        args.seconds,
        u8::from(args.trace)
    );
    let ticks = fingerprint::cpu_ticks();
    let (tally, metrics) = if args.trace {
        // One ledger whatever the workload; `all` writes all four traces.
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .filter(|n| args.workload == "all" || *n == args.workload)
            .collect();
        run_traced(&names, &cfg, &golden)?
    } else {
        run_untraced(&args.workload, &cfg, &golden)?
    };
    if let Some(path) = &args.save {
        save(
            path,
            &SavedRun {
                workload: args.workload.clone(),
                seed: args.seed,
                trace: args.trace,
                rev: fingerprint::git_rev(&bench_dir),
                metrics: metrics.clone(),
            },
        )?;
    }
    if let Some(steal) = fingerprint::steal_share(ticks, fingerprint::cpu_ticks()) {
        println!(
            "host: {:.1}% of CPU time stolen by the hypervisor during the run",
            100.0 * steal
        );
    }
    let correct = tally.mismatched == 0 && tally.failed == 0;
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, &metrics)?
    );
    Ok(correct)
}

/// `--workload all`, untraced: one child process per workload, as the driver
/// runs them, so that none inherits another's process state (the one-CPU
/// pinning of `small_http_closed`, and what `bitflow-serve` and rayon cache
/// about the CPUs the first time they look). Each child prints its own
/// result line.
fn run_each(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut correct = true;
    for w in WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child.args(["--workload", w.name, "--trace", "0"]);
        child.args(["--seed", &args.seed.to_string()]);
        child.args(["--seconds", &args.seconds.to_string()]);
        if let Some(path) = &args.save {
            child.args(["--save", path]);
        }
        let status = child
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        match status.code() {
            Some(0) => {}
            Some(1) => correct = false,
            _ => return Err(format!("workload {} could not run", w.name)),
        }
    }
    Ok(correct)
}

/// Writes `golden.json` from this build's own direct single-thread path.
fn bless() -> Result<(), String> {
    let mut golden = Golden::default();
    for kind in [ModelKind::SmallCnn, ModelKind::TieredCnn, ModelKind::Vgg16] {
        for data_seed in 0..DATA_SEEDS {
            let model = Model::build(kind, data_seed)?;
            let mut ctx = model.new_context(false)?;
            let sums = (0..model.input_count())
                .map(|i| model.infer(&mut ctx, i).map(|l| logits_checksum(&l)))
                .collect::<Result<Vec<u64>, String>>()?;
            golden.set(kind.key(), data_seed, sums);
            eprintln!("blessed {} data seed {data_seed}", kind.key());
        }
    }
    let path = fingerprint::bench_dir().join("golden.json");
    std::fs::write(&path, golden.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// What every measuring mode does first: refuse a debug build, clear the
/// environment of `BITFLOW_*`, and hold the build to the root's profile.
fn measuring(f: impl FnOnce() -> Result<bool, String>) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err("this is a debug build; measure with --release".into());
    }
    let scrubbed = fingerprint::scrub_env();
    if !scrubbed.is_empty() {
        eprintln!("removed from the environment: {}", scrubbed.join(" "));
    }
    fingerprint::check_profiles(&fingerprint::bench_dir())?;
    f()
}

fn compare_sets(a: &str, b: &str) -> Result<bool, String> {
    let rows = compare::compare(&compare::load(a)?, &compare::load(b)?);
    print!("{}", compare::render(&rows));
    Ok(!rows
        .iter()
        .any(|r| r.verdict == compare::Verdict::Regressed))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|mode| match mode {
        Mode::Contract => {
            print!("{}", contract::benchmark_json());
            Ok(true)
        }
        Mode::Compare(a, b) => compare_sets(&a, &b),
        Mode::Bless => measuring(|| bless().map(|()| true)),
        Mode::Run(args) if args.workload == "all" && !args.trace => measuring(|| run_each(&args)),
        Mode::Run(args) => measuring(|| run(&args)),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
