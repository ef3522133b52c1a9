//! End-to-end benchmark of VerdictDB-rs.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <aqp-adhoc|exact-adhoc|dashboard-tcp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root.  With `--trace 0` the last line of standard
//! output is a JSON object with every end-to-end metric; with `--trace 1`
//! it holds every per-layer metric instead, each measured by timing, from
//! this package, calls into the layers' public functions (see `layers.rs`
//! for which end-to-end metric each should move).  Earlier lines record the
//! pinned knobs, the compiler, the run's shape and the cross-check against
//! the middleware's own stage histograms.  Every failed, refused or wrong
//! answer counts as a failed operation; `correct` is false when an operation
//! errored or an answer differed from its reference value.

mod accuracy;
mod adhoc;
mod common;
mod dashboard;
mod layers;
mod probes;

use common::Report;
use std::path::PathBuf;

/// Scratch space for the store's data directories, under the working
/// directory and removed again before the run ends.
const DATA_ROOT: &str = ".bench_data";

/// A fresh, empty data directory for this process.
pub fn data_dir(name: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(DATA_ROOT).join(format!("{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("bad {flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let overrides = common::forbidden_env();
    if !overrides.is_empty() {
        return Err(format!(
            "refusing to run: {} would override pinned knobs",
            overrides.join(", ")
        ));
    }
    println!("knobs {}", common::knobs_json(&args.workload, args.seed));
    let mut report = Report::default();
    let selftest = accuracy::self_test();
    report.check(selftest.is_ok(), || format!("{selftest:?}"));
    match args.workload.as_str() {
        "aqp-adhoc" => adhoc::run(
            adhoc::Mode::Approx,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "exact-adhoc" => adhoc::run(
            adhoc::Mode::Exact,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "dashboard-tcp" => dashboard::run(args.seed, args.seconds, args.trace, &mut report),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    let names = if args.trace {
        for (name, unit, _, moves) in layers::PER_LAYER {
            if let Some(v) = report.get(name) {
                println!("layer {name} = {v:.4} {unit} (should move: {moves})");
            }
        }
        layers::per_layer_names()
    } else {
        layers::end_to_end_names()
    };
    println!("{}", report.result_json(&names)?);
    Ok(())
}

fn main() {
    let outcome = run();
    let _ = std::fs::remove_dir(DATA_ROOT);
    if let Err(e) = outcome {
        eprintln!("e2ebench: {e}");
        std::process::exit(1);
    }
}
