//! `reproduce` — regenerate every table and figure of the Nebula paper.
//!
//! ```text
//! cargo run -p nebula-bench --release --bin reproduce -- [--fast] <experiment>
//!
//! experiments:
//!   fig11a fig11b fig11c     query generation (time / counts / quality)
//!   fig12a fig12b            execution time / produced tuples
//!   fig13                    multi-query shared execution
//!   fig14a fig14b            focal-spreading search
//!   fig15a fig15b            verification & assessment criteria
//!   naive-assess             §8.2 naive-baseline assessment
//!   profile                  Figure 7 hop profile + K selection
//!   ablation-acg ablation-learn ablation-querygen ablation-stability
//!   all                      everything above
//! ```
//!
//! `--fast` shrinks the datasets ~10× (shapes preserved) for quick runs.
//!
//! `--metrics[=DIR]` turns on the telemetry subsystem and writes one JSON
//! snapshot per experiment (work counters, stage latency histograms,
//! recent pipeline events) to `DIR/<experiment>.json` (default `metrics/`).

use nebula_bench::{ablation, fig11, fig12, fig13, fig14, fig15, profile, Scale, Setup};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let scale = if fast { Scale::Fast } else { Scale::Full };
    let metrics_dir: Option<std::path::PathBuf> = args.iter().find_map(|a| {
        a.strip_prefix("--metrics").map(|rest| match rest.strip_prefix('=') {
            Some(dir) if !dir.is_empty() => dir.into(),
            _ => std::path::PathBuf::from("metrics"),
        })
    });
    if metrics_dir.is_some() {
        nebula_obs::set_enabled(true);
    }
    let experiments: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect();
    let chosen: Vec<&str> = if experiments.is_empty() || experiments.contains(&"all") {
        vec![
            "fig11a",
            "fig11b",
            "fig11c",
            "fig12a",
            "fig12b",
            "fig13",
            "fig14a",
            "fig14b",
            "fig15a",
            "fig15b",
            "naive-assess",
            "profile",
            "ablation-acg",
            "ablation-learn",
            "ablation-querygen",
            "ablation-stability",
        ]
    } else if experiments.contains(&"help") {
        println!(
            "experiments: fig11a fig11b fig11c fig12a fig12b fig13 fig14a fig14b \
             fig15a fig15b naive-assess profile ablation-acg ablation-learn \
             ablation-querygen ablation-stability all"
        );
        return;
    } else {
        experiments
    };

    eprintln!("[reproduce] scale = {scale:?}");

    // Lazy per-dataset setups (only built when an experiment needs them).
    let mut large: Option<Setup> = None;
    let mut small_mid: Option<(Setup, Setup)> = None;
    let mut bounds_cache: Option<nebula_core::VerificationBounds> = None;

    macro_rules! get_large {
        () => {{
            if large.is_none() {
                eprintln!("[reproduce] generating D_large ...");
                large = Some(Setup::large(scale));
            }
            large.as_ref().unwrap()
        }};
    }

    for exp in chosen {
        // Per-experiment metrics: diff against the counters accumulated so
        // far, so each sidecar reports only its own experiment's work.
        let baseline = metrics_dir.as_ref().map(|_| nebula_obs::snapshot());
        match exp {
            "fig11a" | "fig11b" | "fig11c" => {
                let setup = get_large!();
                let cells = fig11::run(setup);
                match exp {
                    "fig11a" => fig11::table_a(&cells).print(),
                    "fig11b" => fig11::table_b(&cells).print(),
                    _ => fig11::table_c(&cells).print(),
                }
            }
            "fig12a" | "fig12b" => {
                if small_mid.is_none() {
                    eprintln!("[reproduce] generating D_small and D_mid ...");
                    small_mid = Some((Setup::small(scale), Setup::mid(scale)));
                }
                let mut cells = Vec::new();
                {
                    let (small, mid) = small_mid.as_ref().unwrap();
                    cells.extend(fig12::run_dataset(small));
                    cells.extend(fig12::run_dataset(mid));
                }
                cells.extend(fig12::run_dataset(get_large!()));
                if exp == "fig12a" {
                    fig12::table_a(&cells).print();
                } else {
                    fig12::table_b(&cells).print();
                }
            }
            "fig13" => {
                let setup = get_large!();
                fig13::table(&fig13::run_dataset(setup)).print();
            }
            "fig14a" | "fig14b" => {
                let setup = get_large!();
                let cells = fig14::run_dataset(setup, 100);
                if exp == "fig14a" {
                    fig14::table_a(&cells).print();
                } else {
                    fig14::table_b(&cells).print();
                }
            }
            "fig15a" | "fig15b" | "naive-assess" | "ablation-acg" | "ablation-learn" => {
                let setup = get_large!();
                if bounds_cache.is_none() {
                    eprintln!("[reproduce] tuning bounds via BoundsSetting() ...");
                    let training = if fast { 30 } else { 90 };
                    let (bounds, report) = fig15::tune_bounds(setup, training);
                    eprintln!(
                        "[reproduce] bounds = ({:.2}, {:.2}); training avg F_N={:.2} F_P={:.2} M_F={:.1}",
                        bounds.lower, bounds.upper, report.f_n, report.f_p, report.m_f
                    );
                    bounds_cache = Some(bounds);
                }
                let bounds = bounds_cache.as_ref().unwrap();
                match exp {
                    "fig15a" => {
                        let cells = fig15::run_with_bounds(setup, bounds);
                        fig15::table(
                            "Figure 15(a): assessment criteria, auto-adjusted bounds",
                            bounds,
                            &cells,
                        )
                        .print();
                    }
                    "fig15b" => {
                        let extreme = nebula_core::VerificationBounds::new(0.5, 0.5);
                        let cells = fig15::run_with_bounds(setup, &extreme);
                        fig15::table(
                            "Figure 15(b): extreme case — no expert involvement",
                            &extreme,
                            &cells,
                        )
                        .print();
                    }
                    "naive-assess" => {
                        let (report, tuples) = fig15::naive_assessment(setup, bounds);
                        fig15::naive_table(&report, tuples).print();
                    }
                    "ablation-acg" => {
                        ablation::acg_ablation(setup, bounds).print();
                    }
                    _ => {
                        ablation::learn_ablation(setup, bounds).print();
                    }
                }
            }
            "profile" => {
                let setup = get_large!();
                let p = profile::build_profile(setup, if fast { 30 } else { 120 });
                profile::table(&p).print();
                profile::k_selection_table(&p).print();
            }
            "ablation-querygen" => {
                ablation::querygen_ablation(get_large!()).print();
            }
            "ablation-stability" => {
                ablation::stability_ablation(get_large!()).print();
            }
            other => {
                eprintln!("[reproduce] unknown experiment `{other}` — try `help`");
            }
        }
        if let (Some(dir), Some(base)) = (&metrics_dir, baseline) {
            let diff = nebula_obs::snapshot().diff(&base);
            if let Err(e) = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(dir.join(format!("{exp}.json")), diff.render_json()))
            {
                eprintln!("[reproduce] failed to write metrics sidecar for {exp}: {e}");
            } else {
                eprintln!(
                    "[reproduce] metrics sidecar → {}",
                    dir.join(format!("{exp}.json")).display()
                );
            }
        }
    }
}
