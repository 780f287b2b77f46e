//! The repo benchmark. See `README.md` for the metrics, the workloads and
//! which layer metric should move which end-to-end metric.
//!
//! ```text
//! robopt-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                  one workload; last stdout line is the result JSON
//! robopt-benchmark run          [--seed N] [--seconds S]   all six, untraced
//! robopt-benchmark trace        [--seed N] [--seconds S]   all six, per-layer
//! robopt-benchmark check-repeat [--seed N] [--seconds S]   two sets of three untraced runs,
//!                                  gap of the medians per (metric, workload) vs its bound
//! robopt-benchmark write-golden                            rewrite golden/*.json
//! ```

mod gate;
mod golden;
mod measure;
mod oracle;
mod probe;
mod span;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use robopt::json::{self, JsonValue};

use golden::{Golden, GoldenEntry};
use spec::{spec, Metric};
use stats::{median, quantile};
use workloads::{generate, Inputs, System, Workload, DEFAULT_SEED};

/// Runs per set of `check-repeat`, each at another seed (the driver's
/// procedure in small). Not one: single runs of the same code at the same
/// seed differed by 35 % on the host this was written on.
const REPEAT_RUNS: u64 = 3;

#[derive(Debug, Clone, Copy)]
struct Options {
    seed: u64,
    seconds: f64,
}

/// The result of one workload run, as printed on the last line.
#[derive(Debug, Clone)]
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static Metric, f64)>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(metric, value)| {
                format!(
                    "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                    metric.name, metric.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn engine_golden() -> Result<Golden, String> {
    Golden::parse(golden::embedded(Workload::ExecuteEngine))
}

/// Run one workload in this process and print its result line.
fn run_workload(workload: Workload, options: Options, traced: bool) -> Result<RunResult, String> {
    let inputs = generate(workload, options.seed, &engine_golden()?)?;
    let golden = Golden::parse(golden::embedded(workload))?;
    let mut probe = probe::Probe::new();
    let (mut system, setups, setup_readings) = measure::timed_set_up(&inputs, &mut probe);
    let (set_up_peak, _) = measure::rss_mb();
    let gate_started = std::time::Instant::now();
    let gate = gate::run(&mut system, &inputs, Some(&golden));
    println!(
        "{}: seed {}, {} distinct requests, {} per pass; gate took {:.2} s and swept {} requests exhaustively",
        workload.name(),
        options.seed,
        inputs.requests.len(),
        inputs.stream.len(),
        gate_started.elapsed().as_secs_f64(),
        gate.exhaustive_checked,
    );
    for (_, error) in gate.failures() {
        println!("  GATE FAILED {error}");
    }
    let gate_failed = gate.failures().count() as u64;
    let gate_ops = inputs.requests.len() as u64;

    if traced {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace_{}.json", workload.name()));
        let metrics = trace::run(&mut system, &inputs, &gate, options.seconds, &path)?;
        let metrics: Vec<_> = listed(true)
            .iter()
            .map(|layer| (layer, metrics[layer.name.as_str()]))
            .collect();
        for (layer, value) in &metrics {
            println!("  {:<32} {value:>16.4} {}", layer.name, layer.unit);
        }
        println!("  spans of the first pass: {}", path.display());
        return Ok(RunResult {
            correct: gate_failed == 0,
            attempted: gate_ops,
            failed: gate_failed,
            metrics,
        });
    }

    // What the gate's references allocated (the serial enumerator, the
    // exhaustive sweeps, the reference executor, the expected outputs) is
    // the benchmark's memory, not the system's: the peak restarts here.
    let (gate_peak, _) = measure::rss_mb();
    let peak_was_reset = measure::reset_peak_rss();
    let (_, before_timed) = measure::rss_mb();
    let timed = measure::run(
        &mut system,
        &inputs,
        &gate.verdicts,
        &mut probe,
        options.seconds,
    );
    let (timed_peak, _) = measure::rss_mb();
    let peak_rss_mb = if peak_was_reset {
        set_up_peak.max(timed_peak)
    } else {
        timed_peak
    };

    let measured = [
        (
            "setup_s",
            median(&setups) / probe::slowdown(&setup_readings),
        ),
        ("ops_per_s", timed.ops_per_s),
        ("op_p50_ms", timed.p50_ms),
        ("op_p95_ms", timed.p95_ms),
        ("peak_rss_mb", peak_rss_mb),
    ];
    let metrics = listed(false)
        .iter()
        .map(|metric| {
            measured
                .iter()
                .find(|(name, _)| *name == metric.name)
                .map(|&(_, value)| (metric, value))
                .ok_or_else(|| {
                    format!(
                        "BENCHMARK.json lists {}, which is not measured",
                        metric.name
                    )
                })
        })
        .collect::<Result<Vec<_>, String>>()?;
    for (metric, value) in &metrics {
        println!("  {:<12} {value:>16.6} {}", metric.name, metric.unit);
    }
    println!(
        "  set-ups: {}, uncorrected median {:.6} s, q1 {:.6} s, q3 {:.6} s",
        setups.len(),
        median(&setups),
        quantile(&setups, 0.25),
        quantile(&setups, 0.75)
    );
    println!(
        "  timed section: {} passes of {} latency samples of {} operations; uncorrected {:.6} operations per busy second",
        timed.passes,
        timed.positions,
        workload.batch(),
        timed.raw_ops_per_s
    );
    for (when, readings) in [
        ("set-ups", &setup_readings),
        ("timed section", &timed.readings),
    ] {
        println!(
            "  host slowdown around the {when}: {:.4} ({} probe readings, q1 {:.2} us, q3 {:.2} us, reference {} us)",
            probe::slowdown(readings),
            readings.len(),
            quantile(readings, 0.25),
            quantile(readings, 0.75),
            probe::REFERENCE_US
        );
    }
    println!(
        "  peak RSS in MiB: {set_up_peak:.2} after the set-ups, {gate_peak:.2} after the gate, {} {before_timed:.2}, {timed_peak:.2} after the timed section",
        if peak_was_reset { "reset to" } else { "NOT reset from" }
    );
    let failed = gate_failed + timed.failed;
    println!(
        "  failed_share {} of {} operations; chosen_plan_sim_s {:?}",
        failed,
        gate_ops + timed.attempted,
        gate.chosen_plan_sim_s
    );
    Ok(RunResult {
        correct: failed == 0,
        attempted: gate_ops + timed.attempted,
        failed,
        metrics,
    })
}

/// The metrics a run reports: per-layer when traced, else end-to-end.
fn listed(traced: bool) -> &'static [Metric] {
    if traced {
        &spec().per_layer
    } else {
        &spec().end_to_end
    }
}

/// Run one workload in a child process (so `peak_rss_mb` is the
/// workload's own) and read its result line back.
fn run_child(
    workload: Workload,
    options: Options,
    traced: bool,
) -> Result<(bool, BTreeMap<String, f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let last = stdout.lines().last().unwrap_or_default();
    let doc = json::parse(last).map_err(|e| format!("{}: no result line: {e}", workload.name()))?;
    let correct = doc.get("correct").and_then(JsonValue::as_bool) == Some(true);
    let mut metrics = BTreeMap::new();
    for metric in listed(traced) {
        let value = doc
            .get("metrics")
            .and_then(|m| m.get(&metric.name))
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{}: result has no {}", workload.name(), metric.name))?;
        metrics.insert(metric.name.clone(), value);
    }
    Ok((correct && output.status.success(), metrics))
}

/// What a reader needs to know about the host a set of numbers came from.
fn print_host_facts(options: Options) {
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    println!(
        "host: nproc {}, {}, commit {}, seed {}, {} s per run",
        workloads::nproc(),
        tool("rustc", &["-V"]),
        tool("git", &["rev-parse", "--short", "HEAD"]),
        options.seed,
        options.seconds
    );
}

type MetricSet = BTreeMap<&'static str, BTreeMap<String, f64>>;

/// Run all six workloads, each in its own child. `Err` lists what failed.
fn run_set(options: Options, traced: bool) -> Result<MetricSet, String> {
    let mut set = MetricSet::new();
    let mut wrong = Vec::new();
    for workload in Workload::ALL {
        let (correct, metrics) = run_child(workload, options, traced)?;
        if !correct {
            wrong.push(workload.name());
        }
        set.insert(workload.name(), metrics);
    }
    if wrong.is_empty() {
        Ok(set)
    } else {
        Err(format!("correctness gate failed on {}", wrong.join(", ")))
    }
}

fn print_table(metrics: &[Metric], set: &MetricSet) {
    print!("\n{:<34}", "metric");
    for workload in Workload::ALL {
        print!(" {:>15}", workload.name());
    }
    println!();
    for metric in metrics {
        print!("{:<34}", format!("{} [{}]", metric.name, metric.unit));
        for workload in Workload::ALL {
            print!(" {:>15.4}", set[workload.name()][&metric.name]);
        }
        println!();
    }
}

/// What two sets of runs of the same code say about one metric on one
/// workload.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Repeat {
    /// The medians agree within the bound.
    Within,
    /// The medians differ by more than the bound although each set's own
    /// runs agree within it: the benchmark does not repeat.
    Beyond,
    /// The runs of one set already differ by more than the bound, so on
    /// this host the medians neither agree nor disagree.
    Unresolved,
}

/// Median and spread (largest minus smallest, as a share of the median) of
/// one set's values.
fn median_and_spread(values: &[f64]) -> (f64, f64) {
    let mid = median(values);
    (mid, (quantile(values, 1.0) - quantile(values, 0.0)) / mid)
}

fn judge_repeat(first: &[f64], second: &[f64], bound: f64) -> (f64, Repeat) {
    let (a, spread_a) = median_and_spread(first);
    let (b, spread_b) = median_and_spread(second);
    let gap = (b - a).abs() / a;
    let verdict = if spread_a > bound || spread_b > bound {
        Repeat::Unresolved
    } else if gap > bound {
        Repeat::Beyond
    } else {
        Repeat::Within
    };
    (gap, verdict)
}

/// Two sets of [`REPEAT_RUNS`] runs back to back; compares the sets'
/// medians per metric and workload with the metric's bound.
fn check_repeat(options: Options) -> Result<(), String> {
    print_host_facts(options);
    let mut sets = Vec::new();
    for _ in 0..2 {
        let set: Result<Vec<MetricSet>, String> = (0..REPEAT_RUNS)
            .map(|r| {
                let options = Options {
                    seed: options.seed + r,
                    ..options
                };
                run_set(options, false)
            })
            .collect();
        sets.push(set?);
    }
    let (mut beyond, mut unresolved) = (Vec::new(), 0);
    println!(
        "\nmedians of {REPEAT_RUNS} runs per set\n{:<16} {:<12} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for workload in Workload::ALL {
        for metric in &spec().end_to_end {
            let values = |set: &[MetricSet]| -> Vec<f64> {
                set.iter()
                    .map(|run| run[workload.name()][&metric.name])
                    .collect()
            };
            let (first, second) = (values(&sets[0]), values(&sets[1]));
            let (gap, verdict) = judge_repeat(&first, &second, metric.bound);
            println!(
                "{:<16} {:<12} {:>14.6} {:>14.6} {:>7.2}% {:>5.0}% {}",
                workload.name(),
                metric.name,
                median(&first),
                median(&second),
                gap * 1e2,
                metric.bound * 1e2,
                match verdict {
                    Repeat::Within => "",
                    Repeat::Beyond => "BEYOND",
                    Repeat::Unresolved => "unresolved: one set's own runs differ by more",
                }
            );
            match verdict {
                Repeat::Within => {}
                Repeat::Beyond => beyond.push(format!("{} on {}", metric.name, workload.name())),
                Repeat::Unresolved => unresolved += 1,
            }
        }
    }
    println!("{unresolved} pairs unresolved on this host");
    if beyond.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "two sets of runs of the same code disagree beyond the bound: {}",
            beyond.join(", ")
        ))
    }
}

/// Rewrite `golden/*.json` from the current tree at the default seed. An
/// answer is only written once the independent checks accept it.
fn write_golden() -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    // The engine's pinned assignments first: the analytic optimum.
    let mut pinned = Golden::default();
    let mut optimizer = robopt::Optimizer::named();
    for spec in workloads::engine_pool() {
        let response = optimizer
            .optimize(&robopt::OptimizeRequest::new(spec))
            .map_err(|e| e.to_string())?;
        pinned.entries.insert(
            workloads::engine_key(&spec),
            GoldenEntry {
                assignments: response.assignments,
                cost: response.cost,
                digest: 0,
                rows: 0,
            },
        );
    }
    for workload in Workload::ALL {
        let inputs = generate(workload, DEFAULT_SEED, &pinned)?;
        let mut system = System::set_up(&inputs);
        let report = gate::run(&mut system, &inputs, None);
        if let Some((_, error)) = report.failures().next() {
            return Err(format!("refusing to write a golden answer: {error}"));
        }
        let golden = golden_of(&inputs, &report, &pinned);
        let path = dir.join(format!("{}.json", workload.name()));
        std::fs::write(&path, golden.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "wrote {} ({} entries)",
            path.display(),
            golden.entries.len()
        );
    }
    Ok(())
}

fn golden_of(inputs: &Inputs, report: &gate::GateReport, pinned: &Golden) -> Golden {
    let entries = report
        .verdicts
        .iter()
        .enumerate()
        .map(|(i, verdict)| {
            let key = inputs.key(i);
            let entry = match &verdict.expected {
                gate::Expected::Run { digest, rows } => GoldenEntry {
                    digest: *digest,
                    rows: *rows,
                    ..pinned.entries[&key].clone()
                },
                _ => GoldenEntry {
                    assignments: verdict.assignments.clone(),
                    cost: verdict.cost,
                    digest: 0,
                    rows: 0,
                },
            };
            (key, entry)
        })
        .collect();
    Golden { entries }
}

fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn main_inner() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, flag_args) = match args.first() {
        Some(first) if !first.starts_with("--") => (first.as_str(), &args[1..]),
        _ => ("", &args[..]),
    };
    let flags = parse_flags(flag_args)?;
    let number = |name: &str| -> Result<Option<f64>, String> {
        flags
            .get(name)
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| format!("--{name} {v:?} is not a number"))
            })
            .transpose()
    };
    let options = Options {
        seed: match flags.get("seed") {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--seed {v:?} is not a whole number"))?,
            None => DEFAULT_SEED,
        },
        seconds: number("seconds")?.unwrap_or(spec().run_seconds),
    };
    if !(options.seconds > 0.0 && options.seconds <= 60.0) {
        return Err(format!("--seconds {} outside (0, 60]", options.seconds));
    }
    match command {
        "" => {
            let name = flags.get("workload").ok_or("missing --workload")?;
            let workload =
                Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
            let traced = number("trace")?.unwrap_or(0.0) != 0.0;
            let result = run_workload(workload, options, traced)?;
            println!("{}", result.to_json());
            Ok(result.correct)
        }
        "run" | "trace" => {
            let traced = command == "trace";
            print_host_facts(options);
            let set = run_set(options, traced)?;
            print_table(listed(traced), &set);
            Ok(true)
        }
        "check-repeat" => check_repeat(options).map(|()| true),
        "write-golden" => write_golden().map(|()| true),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("robopt-benchmark: {error}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_is_one_json_object_with_the_contract_keys() {
        let result = RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: spec().end_to_end.iter().map(|m| (m, 0.8127)).collect(),
        };
        let doc = json::parse(&result.to_json()).expect("parses");
        assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(JsonValue::as_u64), Some(12));
        assert_eq!(doc.get("failed").and_then(JsonValue::as_u64), Some(0));
        let setup = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("value").and_then(JsonValue::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(JsonValue::as_str), Some("s"));
        let listed = spec().end_to_end.len();
        assert_eq!(result.to_json().matches("\"value\"").count(), listed);
    }

    #[test]
    fn a_pair_whose_own_runs_disagree_is_unresolved_not_passed_or_failed() {
        let steady = [100.0, 101.0, 99.0];
        assert_eq!(
            judge_repeat(&steady, &[104.0, 105.0, 103.0], 0.1).1,
            Repeat::Within
        );
        assert_eq!(
            judge_repeat(&steady, &[120.0, 121.0, 119.0], 0.1).1,
            Repeat::Beyond
        );
        // The second set's runs span 30 % of their median: its median says
        // nothing to within 10 %, whether it lands near the first or not.
        assert_eq!(
            judge_repeat(&steady, &[90.0, 120.0, 100.0], 0.1).1,
            Repeat::Unresolved
        );
        assert_eq!(
            judge_repeat(&steady, &[110.0, 140.0, 125.0], 0.1).1,
            Repeat::Unresolved
        );
    }

    #[test]
    fn flags_parse_in_any_order_and_reject_strays() {
        let args: Vec<String> = ["--seed", "7", "--workload", "scale_wide"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = parse_flags(&args).expect("parses");
        assert_eq!(flags["seed"], "7");
        assert_eq!(flags["workload"], "scale_wide");
        assert!(parse_flags(&["stray".to_string()]).is_err());
        assert!(parse_flags(&["--seed".to_string()]).is_err());
    }
}
