//! Shared pieces: pinned knobs, seed derivation, percentiles, answer
//! fingerprints, and the per-run report.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use verdict_core::VerdictConfig;
use verdict_data::{InstacartGenerator, TpchGenerator};
use verdict_engine::{Engine, Table, Value};

/// Every knob the benchmark pins, set through config fields and builder
/// methods (never through environment variables), and printed by every run.
pub mod knobs {
    /// Engine morsel-parallel worker threads (`VerdictConfig::parallelism`,
    /// `Engine::with_seed_and_parallelism`).
    pub const PARALLELISM: usize = 2;
    /// Server I/O shard threads (`VerdictServer::with_io_shards`).
    pub const SERVER_IO_SHARDS: usize = 1;
    /// Server executor workers (`VerdictServer::with_workers`).
    pub const SERVER_WORKERS: usize = 2;
    /// Server run-queue capacity (`VerdictServer::with_queue_capacity`).
    pub const SERVER_QUEUE_CAPACITY: usize = 256;
    /// Answer-cache entries on `dashboard-tcp` and in the cache probe; the
    /// ad-hoc workloads run with the default capacity 0 (cache off).
    pub const CACHE_CAPACITY: usize = 256;
    /// `SET stream_block_rows` for every stream: a 1.2k-row scramble then
    /// yields several frames.
    pub const STREAM_BLOCK_ROWS: usize = 256;
    /// Instacart-like data scale (`reproduce` full scale).
    pub const INSTACART_SCALE: f64 = 0.3;
    /// TPC-H-like data scale (`reproduce` full scale).
    pub const TPCH_SCALE: f64 = 0.5;
    /// Sampling parameter τ of every scramble.
    pub const SAMPLING_RATIO: f64 = 0.02;
    /// I/O budget (`workload_context`: τ · 2.5, capped at 0.5).
    pub const IO_BUDGET: f64 = 0.05;
    /// Tables below this row count are never sampled.
    pub const MIN_TABLE_ROWS: u64 = 10_000;
    /// Set-ups per untraced run (`setup_s` is their median): at least
    /// `SETUP_MIN`, more while they have taken under `SETUP_BUDGET_S`, at
    /// most `SETUP_MAX`.
    pub const SETUP_MIN: usize = 3;
    pub const SETUP_MAX: usize = 25;
    pub const SETUP_BUDGET_S: f64 = 2.0;
    /// Client connections / threads on `dashboard-tcp`: one per vCPU of a
    /// 2-vCPU machine.
    pub const CLIENTS: usize = 2;
}

/// The middleware configuration every workload runs under (`cache` is the
/// answer-cache capacity).
pub fn config(seed: u64, cache: usize) -> VerdictConfig {
    VerdictConfig {
        min_table_rows: knobs::MIN_TABLE_ROWS,
        sampling_ratio: knobs::SAMPLING_RATIO,
        io_budget: knobs::IO_BUDGET,
        seed: Some(derive(seed, "subsample")),
        include_error_columns: true,
        parallelism: Some(knobs::PARALLELISM),
        answer_cache_capacity: cache,
        ..VerdictConfig::default()
    }
}

/// Ingest batches every workload generates, registered as `batch_<k>`.
pub const BATCHES: usize = 64;
/// Instacart scale of one `dashboard-tcp` ingest batch (1000 orders, ~2.6k
/// line items).
pub const DASHBOARD_BATCH_SCALE: f64 = 0.005;
/// Instacart scale of one batch of the ad-hoc workloads' ingest probe (40
/// orders, ~100 line items): the probe's ingests together grow
/// `order_products` by about 4%, so every probed ingest runs at about the
/// workload's data size.
pub const PROBE_BATCH_SCALE: f64 = 0.0002;

/// A fresh engine holding the workload's generated data: the Instacart-like
/// tables, the TPC-H-like ones when `tpch`, and [`BATCHES`] ingest batches of
/// `order_products` rows at Instacart scale `batch_scale`.  Every
/// generator's seed derives from `seed`.
pub fn seeded_engine(seed: u64, tpch: bool, batch_scale: f64) -> Arc<Engine> {
    let engine = Arc::new(Engine::with_seed_and_parallelism(
        derive(seed, "engine"),
        knobs::PARALLELISM,
    ));
    InstacartGenerator {
        scale: knobs::INSTACART_SCALE,
        seed: derive(seed, "instacart"),
    }
    .register(&engine);
    if tpch {
        TpchGenerator {
            scale: knobs::TPCH_SCALE,
            seed: derive(seed, "tpch"),
        }
        .register(&engine);
    }
    for k in 0..BATCHES {
        let batch = InstacartGenerator {
            scale: batch_scale,
            seed: derive(seed, &format!("batch{k}")),
        };
        engine.register_table(&format!("batch_{k}"), batch.order_products());
    }
    engine
}

/// Whether a run that has timed the set-ups in `done` (seconds each) sets
/// up once more; a traced run sets up once.
pub fn more_setups(done: &[f64], trace: bool) -> bool {
    if trace {
        return done.is_empty();
    }
    done.len() < knobs::SETUP_MIN
        || (done.iter().sum::<f64>() < knobs::SETUP_BUDGET_S && done.len() < knobs::SETUP_MAX)
}

/// Environment variables that silently change the measured program.
pub const FORBIDDEN_ENV_PREFIXES: [&str; 3] = [
    "VERDICT_PARALLELISM",
    "VERDICT_SERVER_",
    "VERDICT_QUEUE_CAP",
];

/// Names of set variables that would override a pinned knob.
pub fn forbidden_env() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| FORBIDDEN_ENV_PREFIXES.iter().any(|p| k.starts_with(p)))
        .collect()
}

/// The pinned knobs as one JSON object (printed before the result line).
pub fn knobs_json(workload: &str, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"nproc\":{nproc},\
         \"rustc\":\"{}\",\"parallelism\":{},\"server_io_shards\":{},\
         \"server_workers\":{},\"server_queue_capacity\":{},\"cache_capacity\":{},\
         \"stream_block_rows\":{},\"instacart_scale\":{},\"tpch_scale\":{},\
         \"sampling_ratio\":{},\"io_budget\":{},\"clients\":{},\
         \"store_flush\":\"wal fsync on commit (default)\"}}",
        env!("E2EBENCH_RUSTC_VERSION"),
        knobs::PARALLELISM,
        knobs::SERVER_IO_SHARDS,
        knobs::SERVER_WORKERS,
        knobs::SERVER_QUEUE_CAPACITY,
        knobs::CACHE_CAPACITY,
        knobs::STREAM_BLOCK_ROWS,
        knobs::INSTACART_SCALE,
        knobs::TPCH_SCALE,
        knobs::SAMPLING_RATIO,
        knobs::IO_BUDGET,
        knobs::CLIENTS,
    )
}

/// Derives an independent 64-bit seed for one consumer of the workload seed
/// (splitmix64 over the seed mixed with a hash of the tag).
pub fn derive(seed: u64, tag: &str) -> u64 {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    for b in tag.bytes() {
        x = (x ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    splitmix(&mut x)
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks; `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median, or 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// The `q`-quantile over groups of each group's median, by the
/// Harrell–Davis estimator ([`hd_quantile`]): with one group per query, the
/// latency of a typical statement of the query at that rank, robust to a
/// burst of noise in any one pass and to two queries near that rank trading
/// places from run to run.
pub fn quantile_of_medians(groups: &[Vec<f64>], q: f64) -> f64 {
    let medians: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| median(g))
        .collect();
    hd_quantile(&medians, q).unwrap_or(0.0)
}

/// The Harrell–Davis estimate of the `q`-quantile (0 < `q` < 1): a weighted
/// mean of all order statistics, the `i`-th of `n` weighted by the
/// probability a Beta(`q`(n+1), (1−`q`)(n+1)) variable falls in
/// ((i−1)/n, i/n].  Unlike one order statistic it moves smoothly when
/// values near the quantile trade ranks.  `None` for an empty slice.
pub fn hd_quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    let mut below = 0.0;
    let mut sum = 0.0;
    for (i, x) in v.iter().enumerate() {
        let upto = inc_beta(a, b, (i + 1) as f64 / n);
        sum += (upto - below) * x;
        below = upto;
    }
    Some(sum)
}

/// The regularized incomplete beta function I_x(a, b), by its continued
/// fraction (modified Lentz), using the symmetry I_x(a, b) = 1 − I_{1−x}(b, a)
/// where the fraction converges slowly.
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    if x > (a + 1.0) / (a + b + 2.0) {
        return 1.0 - inc_beta(b, a, 1.0 - x);
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp() / a;
    const TINY: f64 = 1e-300;
    let (mut c, mut d) = (1.0, 1.0 - (a + b) * x / (a + 1.0));
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut f = d;
    for m in 1..300 {
        let m = m as f64;
        for num in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + num * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + num / c;
            c = if c.abs() < TINY { TINY } else { c };
            f *= c * d;
        }
        if (c * d - 1.0).abs() < 1e-15 {
            break;
        }
    }
    front * f
}

/// ln Γ(x) for x > 0 (Lanczos approximation, g = 7, nine terms).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x) Γ(1 − x) = π / sin(πx).
        return (std::f64::consts::PI / (std::f64::consts::PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (i, g)| acc + g / (x + (i + 1) as f64));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// CPU time the hypervisor has stolen from this machine so far, in clock
/// ticks (the `steal` column of `/proc/stat`; 0 where it is not reported).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Share of an interval's CPU time the hypervisor may steal before
/// [`least_stolen`] sets the interval aside.
pub const STEAL_TOLERATED: f64 = 0.05;

/// Indices of the intervals (timed passes or dashboard windows; `steal` holds
/// each one's stolen clock ticks, `seconds` its length) that the figures
/// summarise: those where the hypervisor stole at most [`STEAL_TOLERATED`]
/// of the machine's CPU time, and always those whose steal is at most the
/// lower quartile of all intervals' steal.  On a 2-vCPU virtual machine
/// sharing its host, a run slows by up to half for tens of seconds while the
/// hypervisor steals CPU; this keeps such episodes out of the figures, and
/// keeps every interval of a run without them.  Where no steal is reported,
/// every interval is kept.
pub fn least_stolen(steal: &[u64], seconds: &[f64]) -> Vec<usize> {
    /// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
    const TICKS_PER_S: f64 = 100.0;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let as_f64: Vec<f64> = steal.iter().map(|&s| s as f64).collect();
    let cut = quantile(&as_f64, 0.25).unwrap_or(0.0);
    (0..steal.len())
        .filter(|&i| as_f64[i] <= cut.max(STEAL_TOLERATED * seconds[i] * nproc * TICKS_PER_S))
        .collect()
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f`, returning its result and wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Renders one cell exactly as the wire protocol does (floats in shortest
/// round-trip form), so in-process and over-the-wire answers compare
/// bit-for-bit.
pub fn cell(v: &Value) -> String {
    verdict_server::protocol::format_value(v)
}

/// A bit-exact rendering of a whole answer: column names, then every cell.
pub fn fingerprint(table: &Table) -> Vec<String> {
    let mut out = table.schema.names();
    for r in 0..table.num_rows() {
        for c in 0..table.num_columns() {
            out.push(cell(&table.value(r, c)));
        }
    }
    out
}

/// One run's outcome: operations attempted and failed, plus named metrics.
/// A run is `correct` when no operation errored and no answer differed from
/// its reference value; operations that fail a consistency check only (see
/// [`Report::inconsistent`]) count as failed but leave it correct.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    wrong: u64,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    /// Counts one failed operation (an error or a wrong answer) and says why
    /// on stderr.
    pub fn fail(&mut self, why: impl AsRef<str>) {
        self.failed += 1;
        self.wrong += 1;
        eprintln!("FAILED: {}", why.as_ref());
    }

    /// Counts `n` failed operations whose answers equal their reference
    /// values but break a consistency check (e.g. one data version served
    /// both approximately and exactly), and says why on stderr.
    pub fn inconsistent(&mut self, n: u64, why: impl AsRef<str>) {
        if n > 0 {
            self.failed += n;
            eprintln!("FAILED ({n} operations): {}", why.as_ref());
        }
    }

    /// Records a check that is not itself a timed operation: it counts as
    /// attempted, and as failed when it does not hold.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.0)
    }

    /// The result line: `correct`, `attempted`, `failed`, and the metrics
    /// named in `names` (every one must have been set).
    pub fn result_json(&self, names: &[&str]) -> Result<String, String> {
        let mut parts = Vec::new();
        for name in names {
            let (value, unit) = self
                .metrics
                .get(*name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong == 0,
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harrell_davis_matches_known_values() {
        // Symmetric weights: the median of symmetric data is its centre.
        assert!((hd_quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5).unwrap() - 3.0).abs() < 1e-9);
        assert!((hd_quantile(&[7.0, 9.0], 0.5).unwrap() - 8.0).abs() < 1e-9);
        assert_eq!(hd_quantile(&[4.2], 0.9), Some(4.2));
        // I_x(1, 1) = x and I_x(2, 1) = x^2.
        assert!((inc_beta(1.0, 1.0, 0.3) - 0.3).abs() < 1e-12);
        assert!((inc_beta(2.0, 1.0, 0.3) - 0.09).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        // Weights sum to one, so a constant sample gives the constant.
        let flat = vec![2.5; 33];
        assert!((hd_quantile(&flat, 0.9).unwrap() - 2.5).abs() < 1e-9);
        // Within the sample's range and monotone in q.
        let v: Vec<f64> = (0..33).map(|i| f64::from(i * i)).collect();
        let (p50, p90) = (hd_quantile(&v, 0.5).unwrap(), hd_quantile(&v, 0.9).unwrap());
        assert!(p50 > 200.0 && p50 < 300.0 && p90 > p50 && p90 < 1024.0);
    }
}
