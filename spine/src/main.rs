//! `spine`: one repeatable benchmark of the whole commit path.
//!
//! ```text
//! spine --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!       [--trace-out <file>]
//! spine all    [--seed <n>] [--seconds <s>]     every workload, both tables
//! spine repeat <n> [--seed <n>] [--seconds <s>] run-to-run spread against the bounds
//! spine --smoke                                  tiny dataset, one round, all workloads
//! spine manifest                                 print BENCHMARK.json from the tables
//! ```
//!
//! See README.md beside this package for what each workload and metric
//! means and how to read the numbers.

mod inputs;
mod json;
mod layers;
mod report;
mod run;
mod scratch;
mod stats;
mod tracer;
mod workloads;

use inputs::DEFAULT_SEED;
use report::{MetricDef, ParsedResult, END_TO_END, PER_LAYER};
use run::RunArgs;
use std::process::{Command, ExitCode};
use workloads::Workload;

/// How long one run measures unless `--seconds` says otherwise (the
/// `run_seconds` of `BENCHMARK.json`).
const RUN_SECONDS: u32 = 10;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("spine: {message}");
            ExitCode::from(2)
        }
    }
}

/// Parsed command-line options.
#[derive(Debug)]
struct Options {
    command: Option<String>,
    operand: Option<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<std::path::PathBuf>,
    smoke: bool,
}

fn parse_u64(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("{text:?} is not a whole number"))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        command: None,
        operand: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        trace_out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => o.seed = parse_u64(value()?)?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds needs a number".to_string())?;
                if !(o.seconds > 0.0 && o.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => o.trace_out = Some(value()?.into()),
            "--smoke" => o.smoke = true,
            word if !word.starts_with('-') && o.command.is_none() => o.command = Some(word.into()),
            word if !word.starts_with('-') && o.operand.is_none() => o.operand = Some(word.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let o = parse_args(args)?;
    match (o.command.as_deref(), o.workload) {
        (None, Some(workload)) => {
            let result = run::run(&RunArgs {
                workload,
                seed: o.seed,
                seconds: o.seconds,
                trace: o.trace,
                trace_out: o.trace_out,
                smoke: o.smoke,
            })?;
            // The result line is the last line of standard output.
            println!("{}", result.to_json());
            Ok(result.correct)
        }
        (None, None) if o.smoke => smoke(o.seed),
        (Some("all"), None) => all(o.seed, o.seconds),
        (Some("repeat"), None) => {
            let n = o.operand.as_deref().map(parse_u64).transpose()?.unwrap_or(10) as usize;
            repeat(n.max(2), o.seed, o.seconds)
        }
        (Some("manifest"), None) => {
            print!("{}", manifest());
            Ok(true)
        }
        _ => Err("usage: spine --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                  [--trace-out <file>] | all | repeat <n> | --smoke | manifest"
            .into()),
    }
}

/// Every workload once, in this process, on the tiny dataset: a
/// seconds-long check that each path runs and passes its own output check.
fn smoke(seed: u64) -> Result<bool, String> {
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            ok &= run::run(&RunArgs::smoke(workload, seed, trace))?.correct;
        }
    }
    println!("smoke: {}", if ok { "every workload passed its output check" } else { "FAILED" });
    Ok(ok)
}

/// One workload in a fresh process (so peak memory, caches and telemetry
/// of one never reach another): returns the parsed result line.
fn child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<ParsedResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    eprint!("{stderr}");
    let line = stdout.lines().last().ok_or_else(|| format!("{}: no output", workload.name()))?;
    ParsedResult::from_json(line)
        .map_err(|e| format!("{}: {e}; {}", workload.name(), stderr.trim()))
}

fn header(seed: u64, seconds: f64) {
    println!("spine: seed {seed:#x}, {seconds} s measured per run");
    println!("  {}", workloads::config_line(false));
}

/// Print every metric of every workload: the end-to-end table from an
/// untraced run and the per-layer table from a traced one.
fn all(seed: u64, seconds: f64) -> Result<bool, String> {
    header(seed, seconds);
    let mut ok = true;
    for workload in Workload::ALL {
        println!("\n== {} — {}", workload.name(), workload.why());
        for trace in [false, true] {
            let ParsedResult { correct, attempted, failed, metrics } =
                child(workload, seed, seconds, trace)?;
            ok &= correct;
            println!(
                "-- {} (annotations {attempted}, failed {failed}, failed_ratio {:.4}, output check {})",
                if trace { "per layer, traced rounds" } else { "end to end" },
                failed as f64 / attempted.max(1) as f64,
                if correct { "passed" } else { "FAILED" },
            );
            for (name, value, unit) in metrics {
                println!("   {name:<44} {value:>14.4} {unit}");
            }
        }
    }
    Ok(ok)
}

/// Run every workload `n` times, each with another seed, and print per
/// end-to-end metric the median, the quartiles and the spread (quartile
/// distance over median) next to its bound. Fails when a spread exceeds its
/// bound (`setup_s` is exempt, as in the driver).
fn repeat(n: usize, seed: u64, seconds: f64) -> Result<bool, String> {
    header(seed, seconds);
    println!("repeat: {n} runs per workload, seeds {seed:#x}..{:#x}", seed + n as u64 - 1);
    let mut ok = true;
    for workload in Workload::ALL {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for i in 0..n {
            let ParsedResult { correct, failed, metrics, .. } =
                child(workload, seed + i as u64, seconds, false)?;
            if !correct || failed > 0 {
                println!("{}: run {i} failed its output check", workload.name());
                ok = false;
            }
            for (slot, def) in samples.iter_mut().zip(END_TO_END) {
                let found = metrics.iter().find(|(name, _, _)| name == def.name);
                slot.push(found.ok_or_else(|| format!("{} was not reported", def.name))?.1);
            }
            // Every run made, so a spread can be traced to the runs behind it.
            let row: Vec<String> = samples.iter().map(|s| format!("{:.4}", s[i])).collect();
            println!("{} seed {:#x}: {}", workload.name(), seed + i as u64, row.join(" "));
        }
        println!("\n== {}", workload.name());
        println!(
            "   {:<30} {:>12} {:>12} {:>12} {:>8} {:>7}",
            "metric", "q1", "median", "q3", "spread", "bound"
        );
        for (def, values) in END_TO_END.iter().zip(&samples) {
            let [q1, _, q3] = stats::quartiles(values).ok_or("too few runs")?;
            let spread = stats::spread(values).unwrap_or(f64::INFINITY);
            let bound = def.bound.unwrap_or(0.0);
            let verdict = if def.name == "setup_s" || spread <= bound { "" } else { "  > bound" };
            ok &= verdict.is_empty();
            println!(
                "   {:<30} {q1:>12.4} {:>12.4} {q3:>12.4} {:>7.1}% {:>6.0}%{verdict}",
                def.name,
                stats::median(values),
                spread * 100.0,
                bound * 100.0,
            );
        }
    }
    Ok(ok)
}

/// `BENCHMARK.json`, generated from the tables so the two cannot drift.
fn manifest() -> String {
    let row = |d: &MetricDef| {
        let bound = d.bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            json::quote(d.name),
            json::quote(d.unit),
            json::quote(d.better.as_str())
        )
    };
    let rows = |table: &[MetricDef]| table.iter().map(row).collect::<Vec<_>>().join(",\n");
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(w.name()),
                json::quote(w.why())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"spine/Cargo.toml\", \"--\"],\n  \"paths\": [\"spine\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  \
         ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        rows(END_TO_END),
        rows(PER_LAYER),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let o = parse_args(&strings(&[
            "--workload",
            "paged-churn",
            "--seed",
            "17",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.workload, Some(Workload::PagedChurn));
        assert_eq!((o.seed, o.seconds, o.trace), (17, 10.0, true));
        assert_eq!(parse_args(&strings(&["--seed", "0x20150531"])).unwrap().seed, DEFAULT_SEED);
        let o = parse_args(&strings(&["repeat", "10"])).unwrap();
        assert_eq!((o.command.as_deref(), o.operand.as_deref()), (Some("repeat"), Some("10")));
        for bad in
            [&["--workload", "nope"][..], &["--trace", "2"], &["--seconds", "0"], &["--seed"]]
        {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn the_manifest_is_valid_json_within_the_contract() {
        let text = manifest();
        assert!(text.len() < 64 * 1024);
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("workloads").unwrap().items().len(), 6);
        assert_eq!(doc.get("run_seconds").unwrap().as_f64(), Some(f64::from(RUN_SECONDS)));
        for part in doc.get("command").unwrap().items() {
            let part = part.as_str().unwrap();
            assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
        }
        assert!(doc.get("per_layer").unwrap().items().iter().all(|m| m.get("bound").is_none()));
    }

    /// The tiny-dataset run of every workload, both tables, passes its own
    /// output check and prints a result line that parses.
    #[test]
    fn smoke_runs_pass_their_output_check() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let result = run::run(&RunArgs::smoke(workload, 42, trace))
                    .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
                assert!(result.correct, "{} trace={trace}", workload.name());
                assert_eq!(result.failed, 0);
                let table = if trace { PER_LAYER } else { END_TO_END };
                let parsed = ParsedResult::from_json(&result.to_json()).unwrap();
                assert!(parsed.correct && parsed.attempted >= 18);
                assert_eq!(parsed.metrics.len(), table.len());
            }
        }
    }
}
