//! The metric catalogue: every end-to-end metric, and every per-layer metric
//! with the end-to-end metric and workload it should move.  `BENCHMARK.json`
//! lists the same names, units and directions (checked by a test below);
//! the "should move" column lives here because that file's keys are fixed.

/// `(name, unit, better)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("qps", "stmt/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("first_frame_p50_ms", "ms", "lower"),
    ("stream_p50_ms", "ms", "lower"),
    ("ingest_p50_ms", "ms", "lower"),
    ("coverage", "fraction", "higher"),
    ("rel_err_p50", "fraction", "lower"),
    ("group_recall", "fraction", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// `(name, unit, better, should move)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str, &str, &str)] = &[
    (
        "sql.parse_us",
        "us",
        "lower",
        "latency_p50_ms on dashboard-tcp (hit path)",
    ),
    (
        "sql.canonical_us",
        "us",
        "lower",
        "latency_p50_ms on dashboard-tcp",
    ),
    ("sql.print_us", "us", "lower", "latency_p50_ms on aqp-adhoc"),
    (
        "core.rewrite.analyze_us",
        "us",
        "lower",
        "latency_p50_ms on aqp-adhoc",
    ),
    (
        "core.planner.plan_us",
        "us",
        "lower",
        "latency_p50_ms on aqp-adhoc",
    ),
    (
        "core.rewrite.rewrite_us",
        "us",
        "lower",
        "latency_p50_ms on aqp-adhoc",
    ),
    (
        "core.answer.assemble_ms",
        "ms",
        "lower",
        "qps and latency_p50_ms on aqp-adhoc, stream_p50_ms on dashboard-tcp; none on exact-adhoc",
    ),
    (
        "core.answer.assemble_share",
        "fraction",
        "lower",
        "qps and latency_p50_ms on aqp-adhoc, stream_p50_ms on dashboard-tcp; none on exact-adhoc",
    ),
    ("core.approx_frac", "fraction", "higher", "qps on aqp-adhoc"),
    (
        "core.fallback_waste_ms",
        "ms",
        "lower",
        "latency_p90_ms on aqp-adhoc",
    ),
    (
        "core.session.passthrough_us",
        "us",
        "lower",
        "latency_p50_ms on exact-adhoc",
    ),
    (
        "core.sample.build_ms",
        "ms",
        "lower",
        "setup_s on aqp-adhoc and dashboard-tcp",
    ),
    ("core.sample.refresh_ms", "ms", "lower", "ingest_p50_ms"),
    (
        "core.cache.hit_ratio",
        "fraction",
        "higher",
        "qps and latency_p50_ms on dashboard-tcp",
    ),
    (
        "core.cache.invalidations",
        "count",
        "lower",
        "qps on dashboard-tcp (each invalidation costs a miss)",
    ),
    (
        "core.cache.mode_flips",
        "count",
        "lower",
        "failed operations on dashboard-tcp if ingest stopped waiting for reads (race probe: exact answers cached while a REFRESH runs)",
    ),
    (
        "core.cache.hit_us",
        "us",
        "lower",
        "latency_p50_ms and latency_p90_ms on dashboard-tcp",
    ),
    (
        "core.cache.miss_ms",
        "ms",
        "lower",
        "qps on dashboard-tcp (misses follow each ingest)",
    ),
    (
        "core.progress.first_frame_ms",
        "ms",
        "lower",
        "first_frame_p50_ms",
    ),
    ("core.progress.frame_ms", "ms", "lower", "stream_p50_ms"),
    (
        "core.progress.frames",
        "count",
        "higher",
        "first_frame_p50_ms and stream_p50_ms",
    ),
    (
        "core.progress.fallback_frac",
        "fraction",
        "lower",
        "first_frame_p50_ms and stream_p50_ms",
    ),
    (
        "engine.exec_ms",
        "ms",
        "lower",
        "qps on exact-adhoc (most) and aqp-adhoc",
    ),
    (
        "engine.rows_scanned",
        "count",
        "lower",
        "qps on exact-adhoc; rows-scanned ratio between the ad-hoc workloads",
    ),
    (
        "engine.rows_per_s",
        "rows/s",
        "higher",
        "qps on exact-adhoc",
    ),
    (
        "engine.result_rows",
        "count",
        "lower",
        "core.answer.assemble_ms on aqp-adhoc",
    ),
    (
        "engine.calls_per_stmt",
        "count",
        "lower",
        "latency_p50_ms on aqp-adhoc",
    ),
    ("engine.insert_ms", "ms", "lower", "ingest_p50_ms"),
    (
        "store.pages_written",
        "count",
        "lower",
        "ingest_p50_ms on dashboard-tcp (per ingest)",
    ),
    (
        "store.wal_syncs",
        "count",
        "lower",
        "ingest_p50_ms on dashboard-tcp (per ingest)",
    ),
    (
        "store.pages_read",
        "count",
        "lower",
        "ingest_p50_ms on dashboard-tcp",
    ),
    (
        "store.setup_pages_written",
        "count",
        "lower",
        "setup_s on dashboard-tcp",
    ),
    (
        "store.setup_wal_syncs",
        "count",
        "lower",
        "setup_s on dashboard-tcp",
    ),
    (
        "server.ping_us",
        "us",
        "lower",
        "latency_p50_ms on dashboard-tcp",
    ),
    (
        "server.wire_us",
        "us",
        "lower",
        "latency_p50_ms on dashboard-tcp",
    ),
    ("server.errors", "count", "lower", "failed operations"),
    (
        "server.refused",
        "count",
        "lower",
        "failed operations and latency_p90_ms",
    ),
    (
        "server.shed",
        "count",
        "lower",
        "failed operations and latency_p90_ms",
    ),
    (
        "trace.overhead",
        "fraction",
        "lower",
        "none: traced qps against untraced qps, same run",
    ),
];

/// The end-to-end metric names, in catalogue order.
pub fn end_to_end_names() -> Vec<&'static str> {
    END_TO_END.iter().map(|m| m.0).collect()
}

/// The per-layer metric names, in catalogue order.
pub fn per_layer_names() -> Vec<&'static str> {
    PER_LAYER.iter().map(|m| m.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` (one level up) lists exactly the catalogued metrics.
    #[test]
    fn benchmark_json_matches_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let compact: String = text.split_whitespace().collect();
        for (name, unit, better) in END_TO_END {
            let want = format!("\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"");
            assert!(compact.contains(&want), "BENCHMARK.json lacks {want}");
        }
        for (name, unit, better, _) in PER_LAYER {
            let want =
                format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"}}");
            assert!(compact.contains(&want), "BENCHMARK.json lacks {want}");
        }
        let entries = compact.matches("\"name\":").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len() + 3,
            "3 workloads"
        );
    }
}
