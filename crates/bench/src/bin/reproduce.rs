//! Regenerates every table and figure of the VerdictDB evaluation at laptop
//! scale and prints them in a paper-aligned layout.
//!
//! Run with: `cargo run --release -p verdict-bench --bin reproduce`
//!
//! Pass `--quick` to use smaller datasets (used in CI smoke runs).

use verdict_bench::*;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (insta_scale, tpch_scale, ratio) = if quick {
        (0.05, 0.08, 0.05)
    } else {
        (0.3, 0.5, 0.02)
    };

    println!("# VerdictDB-rs — reproduction run (insta scale {insta_scale}, tpch scale {tpch_scale}, τ = {ratio})\n");

    // ----- Figures 4 / 9 / 10 -------------------------------------------------
    println!("## Figures 4 & 9 (speedups) and Figure 10 (actual relative errors)\n");
    println!(
        "Speedup = median exact time / median approximate time over {TIMED_RUNS} runs each.\n"
    );
    let ctx = workload_context(insta_scale, tpch_scale, ratio);
    let rows = speedup_experiment(&ctx);
    println!("| query | measured speedup | actual rel. error | fallback |");
    println!("|-------|-----------------:|------------------:|----------|");
    for r in &rows {
        println!(
            "| {} | {:.2}x | {:.2}% | {} |",
            r.query,
            r.speedup,
            100.0 * r.actual_relative_error,
            if r.fell_back { "exact" } else { "" }
        );
    }
    let approximated: Vec<&SpeedupRow> = rows.iter().filter(|r| !r.fell_back).collect();
    let mean = approximated.iter().map(|r| r.speedup).sum::<f64>() / approximated.len() as f64;
    println!(
        "\naverage measured speedup ({} approximated queries): {mean:.1}x",
        approximated.len()
    );
    if let Some(max) = approximated
        .iter()
        .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
    {
        println!(
            "maximum measured speedup: {:.1}x ({})",
            max.speedup, max.query
        );
    }
    let worst_err = rows
        .iter()
        .map(|r| r.actual_relative_error)
        .fold(0.0, f64::max);
    println!(
        "worst actual relative error across the workload: {:.2}%\n",
        100.0 * worst_err
    );

    // ----- Figure 5 -------------------------------------------------------------
    println!("## Figure 5 (speedup vs. data size, sample size fixed)\n");
    println!("| scale factor | measured speedup |");
    println!("|-------------:|-----------------:|");
    let scales: Vec<f64> = if quick {
        vec![0.05, 0.1, 0.2]
    } else {
        vec![0.1, 0.25, 0.5, 1.0]
    };
    for (scale, speedup) in scaling_experiment(&scales) {
        println!("| {scale} | {speedup:.1}x |");
    }
    println!();

    // ----- Figure 6 -------------------------------------------------------------
    println!("## Figure 6 (VerdictDB vs tightly-integrated AQP, median of {TIMED_RUNS} runs)\n");
    println!("| query | verdictdb | integrated | verdict wins |");
    println!("|-------|----------:|-----------:|--------------|");
    let comparison = integrated_comparison(&ctx);
    for (id, v, s, wins) in &comparison {
        println!(
            "| {} | {:.2?} | {:.2?} | {} |",
            id,
            v,
            s,
            if *wins { "yes" } else { "" }
        );
    }
    let verdict_wins = comparison.iter().filter(|row| row.3).count();
    println!(
        "\nVerdictDB is faster on {verdict_wins}/{} queries.\n",
        comparison.len()
    );

    // ----- Table 2 ---------------------------------------------------------------
    println!("## Table 2 (sampling-based vs native approximate aggregates)\n");
    println!(
        "| aggregate | verdict rows scanned | native rows scanned | verdict err | native err |"
    );
    println!(
        "|-----------|---------------------:|--------------------:|------------:|-----------:|"
    );
    for (label, v_rows, n_rows, v_err, n_err) in native_approx_comparison(&ctx) {
        println!(
            "| {label} | {v_rows} | {n_rows} | {:.2}% | {:.2}% |",
            100.0 * v_err,
            100.0 * n_err
        );
    }
    println!();

    // ----- Figure 7 ---------------------------------------------------------------
    println!("## Figure 7 (error-estimation runtime: variational vs baselines)\n");
    println!("| query shape | variational | traditional subsampling | consolidated bootstrap |");
    println!("|-------------|------------:|------------------------:|-----------------------:|");
    let sample_rows = if quick { 20_000 } else { 100_000 };
    for (shape, v, t, b) in estimation_overhead(sample_rows, 100) {
        println!("| {shape} | {v:.1?} | {t:.1?} | {b:.1?} |");
    }
    println!();

    // ----- Figures 8a / 8b ----------------------------------------------------------
    println!("## Figure 8a (estimated vs groundtruth error across selectivity)\n");
    println!("| selectivity | estimated rel. error | groundtruth rel. error |");
    println!("|------------:|---------------------:|-----------------------:|");
    for (sel, est, truth) in accuracy::selectivity_sweep(&[0.1, 0.3, 0.5, 0.7, 0.9]) {
        println!("| {sel:.1} | {:.3}% | {:.3}% |", 100.0 * est, 100.0 * truth);
    }
    println!("\n## Figure 8b / Figure 12 (error-bound accuracy across sample sizes)\n");
    println!("| n | CLT | bootstrap | subsampling | variational |");
    println!("|--:|----:|----------:|------------:|------------:|");
    let sizes: Vec<usize> = if quick {
        vec![10_000, 50_000]
    } else {
        vec![10_000, 100_000, 1_000_000]
    };
    for (n, clt, boot, tsub, vsub) in accuracy::sample_size_sweep(&sizes, 100) {
        println!(
            "| {n} | {:.1}% | {:.1}% | {:.1}% | {:.1}% |",
            100.0 * clt,
            100.0 * boot,
            100.0 * tsub,
            100.0 * vsub
        );
    }
    println!();

    // ----- Figure 13 ------------------------------------------------------------------
    println!("## Figure 13 (accuracy / latency vs number of resamples b)\n");
    println!("| b | bootstrap err | subsampling err | variational err | bootstrap time | variational time |");
    println!("|--:|--------------:|----------------:|----------------:|---------------:|-----------------:|");
    let n13 = if quick { 50_000 } else { 500_000 };
    for (b, be, te, ve, bt, vt) in accuracy::resample_count_sweep(n13, &[10, 50, 100, 200]) {
        println!(
            "| {b} | {:.1}% | {:.1}% | {:.1}% | {bt:.1?} | {vt:.1?} |",
            100.0 * be,
            100.0 * te,
            100.0 * ve
        );
    }
    println!();

    // ----- Figure 14 -------------------------------------------------------------------
    println!("## Figure 14 (effect of the subsample size ns = n^x)\n");
    println!("| exponent x | relative error of the bound |");
    println!("|-----------:|----------------------------:|");
    let n14 = if quick { 100_000 } else { 500_000 };
    for (x, err) in accuracy::subsample_size_sweep(n14, &[0.25, 0.333, 0.5, 0.667, 0.75]) {
        println!("| {x:.3} | {:.1}% |", 100.0 * err);
    }
    println!();

    // ----- Figure 11 ------------------------------------------------------------------
    println!("## Figure 11 (sample preparation time vs data movement)\n");
    println!("| task | time |");
    println!("|------|-----:|");
    for (task, t) in preparation_time(if quick { 0.05 } else { 0.3 }) {
        println!("| {task} | {t:.1?} |");
    }
    println!();
}
