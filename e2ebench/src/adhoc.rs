//! `aqp-adhoc` and `exact-adhoc`: one in-process `VerdictSession`, closed
//! loop, running the paper's 33 `tq-*`/`iq-*` queries in seed-shuffled
//! passes, approximately (`aqp-adhoc`) or under `BYPASS` (`exact-adhoc`),
//! which the middleware passes straight to the engine.
//!
//! Every workload reports every end-to-end metric.  After the timed passes
//! both ad-hoc workloads therefore run the same probes over their data and
//! the `aqp-adhoc` scramble set, which both build in set-up: accuracy,
//! in-process streams and in-process ingest.  `qps` and the latencies are
//! the timed passes alone.

use crate::accuracy::score_draws;
use crate::common::{
    derive, fingerprint, least_stolen, median, more_setups, ms, quantile, quantile_of_medians,
    seeded_engine, shuffled, steal_ticks, timed, Report, BATCHES, PROBE_BATCH_SCALE,
};
use crate::probes::{
    cache_wire_probe, ingest, obs_cross_check, obs_snapshot, passthrough_probe, stream_probe,
    Stages,
};
use std::sync::Arc;
use std::time::{Duration, Instant};
use verdict_core::{VerdictContext, VerdictResponse, VerdictSession};
use verdict_data::{instacart_queries, tpch_queries};
use verdict_engine::{Backend, Engine, Table};

/// The scrambles of `verdict_bench::workload_context`: uniform, hashed and
/// stratified, at the pinned τ.
const SCRAMBLES: [&str; 10] = [
    "CREATE SCRAMBLE adhoc_order_products_u FROM order_products",
    "CREATE SCRAMBLE adhoc_lineitem_u FROM lineitem",
    "CREATE SCRAMBLE adhoc_tpch_orders_u FROM tpch_orders",
    "CREATE SCRAMBLE adhoc_orders_u FROM orders",
    "CREATE SCRAMBLE adhoc_orders_h FROM orders METHOD hashed ON order_id",
    "CREATE SCRAMBLE adhoc_order_products_h FROM order_products METHOD hashed ON order_id",
    "CREATE SCRAMBLE adhoc_lineitem_h FROM lineitem METHOD hashed ON l_orderkey",
    "CREATE SCRAMBLE adhoc_tpch_orders_h FROM tpch_orders METHOD hashed ON o_orderkey",
    "CREATE SCRAMBLE adhoc_lineitem_s FROM lineitem METHOD stratified ON l_returnflag, l_linestatus",
    "CREATE SCRAMBLE adhoc_orders_s FROM orders METHOD stratified ON city",
];

/// Passes of the post-phase stream probe.
const STREAM_PASSES: usize = 8;
/// Scramble draws the accuracy metrics pool.
const ACCURACY_DRAWS: usize = 3;

#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    Approx,
    Exact,
}

struct Loaded {
    engine: Arc<Engine>,
    ctx: Arc<VerdictContext>,
    build_ms: Vec<f64>,
}

/// The workload's data and scrambles.  `exact-adhoc` builds the scrambles
/// too: its `BYPASS` statements never read them, its probes do, and without
/// them its set-up (data generation alone, 30–60 ms) moved by half between
/// two sets of runs.
fn load(seed: u64) -> Result<Loaded, String> {
    let engine = seeded_engine(seed, true, PROBE_BATCH_SCALE);
    let conn: Arc<dyn Backend> = engine.clone();
    let ctx = Arc::new(VerdictContext::new(conn, crate::common::config(seed, 0)));
    let build_ms = build_scrambles(&ctx)?;
    Ok(Loaded {
        engine,
        ctx,
        build_ms,
    })
}

/// Builds [`SCRAMBLES`] through SQL, returning each statement's wall time.
fn build_scrambles(ctx: &Arc<VerdictContext>) -> Result<Vec<f64>, String> {
    let mut session = VerdictSession::new(Arc::clone(ctx));
    let mut out = Vec::new();
    for ddl in SCRAMBLES {
        let (res, took) = timed(|| session.execute(ddl));
        res.map_err(|e| format!("{ddl}: {e}"))?;
        out.push(ms(took));
    }
    Ok(out)
}

/// Times [`BATCHES`] in-process ingests of small generated batches
/// ([`PROBE_BATCH_SCALE`]) into `order_products`, each an `INSERT … SELECT`
/// then `REFRESH SCRAMBLES … FROM`; `ingest_p50_ms` is their median.  An
/// ingest's cost climbs with the size of the table it appends to (the
/// catalog copies the whole table on every append) and with the number of
/// appends before it, so the batches are small and few enough that every
/// probed ingest runs at about the workload's data size: on tables that
/// doubled over the probe the cost climbed from about 6 to 30 ms, with a step
/// whose position moved from run to run, and over 256 small appends the
/// `INSERT` alone climbed from 1.8 to 5.5 ms.
fn ingest_probe(ctx: &Arc<VerdictContext>, trace: bool, r: &mut Report) {
    let (mut ingest_ms, mut insert_ms, mut refresh_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut writer = VerdictSession::new(Arc::clone(ctx));
    for k in 0..BATCHES {
        r.attempted += 1;
        match ingest(&mut writer, "order_products", &format!("batch_{k}")) {
            Ok((i, f)) => {
                ingest_ms.push(ms(i + f));
                insert_ms.push(ms(i));
                refresh_ms.push(ms(f));
            }
            Err(e) => r.fail(e),
        }
    }
    let q = |p: f64| quantile(&ingest_ms, p).unwrap_or(0.0);
    println!(
        "ingest ms over {} ingests: min {:.2} p50 {:.2} p90 {:.2} max {:.2}",
        ingest_ms.len(),
        q(0.0),
        q(0.5),
        q(0.9),
        q(1.0)
    );
    r.set("ingest_p50_ms", median(&ingest_ms), "ms");
    if trace {
        r.set("engine.insert_ms", median(&insert_ms), "ms");
        r.set("core.sample.refresh_ms", median(&refresh_ms), "ms");
    }
}

/// Sets the accuracy metrics from [`ACCURACY_DRAWS`] scramble draws.
fn accuracy(
    ctx: &Arc<VerdictContext>,
    ids: &[String],
    sqls: &[String],
    exact: Option<Vec<Table>>,
    r: &mut Report,
) {
    let score = score_draws(ctx, &SCRAMBLES, ids, sqls, exact, ACCURACY_DRAWS, r);
    println!(
        "accuracy: {} cells scored over {ACCURACY_DRAWS} scramble draws, {} groups",
        score.cells, score.exact_groups
    );
    r.set("coverage", score.coverage(), "fraction");
    r.set("rel_err_p50", score.rel_err_p50(), "fraction");
    r.set("group_recall", score.recall(), "fraction");
}

/// One statement's answer: fingerprint, whether it was exact, the table.
#[derive(Clone)]
struct Answer {
    fp: Vec<String>,
    exact: bool,
    table: Table,
}

fn answer_of(
    res: verdict_core::VerdictResult<VerdictResponse>,
    what: &str,
) -> Result<Answer, String> {
    match res {
        Ok(VerdictResponse::Answer(a)) => Ok(Answer {
            fp: fingerprint(&a.table),
            exact: a.exact,
            table: a.table,
        }),
        Ok(other) => Err(format!("{what}: unexpected {} response", other.kind())),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

/// Runs the workload and fills `r`.
pub fn run(mode: Mode, seed: u64, seconds: u64, trace: bool, r: &mut Report) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut loaded = None;
    while more_setups(&setup_s, trace) {
        drop(loaded.take());
        let (l, took) = timed(|| load(seed));
        setup_s.push(took.as_secs_f64());
        loaded = Some(l?);
    }
    let Loaded {
        engine,
        ctx,
        build_ms,
    } = loaded.expect("at least one set-up");
    r.set("setup_s", median(&setup_s), "s");

    let (ids, sqls): (Vec<String>, Vec<String>) = tpch_queries()
        .into_iter()
        .chain(instacart_queries())
        .map(|q| (q.id.to_string(), q.sql))
        .unzip();
    let stmts: Vec<String> = match mode {
        Mode::Approx => sqls.clone(),
        Mode::Exact => sqls.iter().map(|s| format!("BYPASS {s}")).collect(),
    };

    // The timed passes, whole passes only; answers are checked after the
    // clock stops.  The figures come from the passes without much stolen
    // CPU (`least_stolen`): `qps` is the query count over their median pass
    // time, and each latency percentile is taken over the queries' median
    // latencies in those passes.  A traced run splits its time between the
    // untraced and traced phases.
    let phase = Duration::from_secs(if trace { seconds.div_ceil(2) } else { seconds });
    let mut session = VerdictSession::new(Arc::clone(&ctx));
    let obs0 = obs_snapshot(&ctx);
    let routed0 = ctx.backend_stats().queries_routed;
    let mut latencies: Vec<Vec<f64>> = Vec::new();
    let mut steal = Vec::new();
    let mut results = Vec::new();
    let started = Instant::now();
    let mut pass = 0u64;
    let mut pass_ms: Vec<f64> = Vec::new();
    while pass == 0 || started.elapsed() < phase {
        let (pass_start, steal0) = (Instant::now(), steal_ticks());
        let mut lat = vec![0.0; stmts.len()];
        for qi in shuffled(stmts.len(), derive(seed, &format!("pass{pass}"))) {
            let (res, took) = timed(|| session.execute(&stmts[qi]));
            lat[qi] = ms(took);
            results.push((qi, res));
        }
        pass_ms.push(ms(pass_start.elapsed()));
        steal.push(steal_ticks() - steal0);
        latencies.push(lat);
        pass += 1;
    }
    let wall = started.elapsed();
    let routed = ctx.backend_stats().queries_routed - routed0;
    let obs1 = obs_snapshot(&ctx);
    let statements = results.len() as u64;
    r.attempted += statements;
    let pass_s: Vec<f64> = pass_ms.iter().map(|m| m / 1e3).collect();
    let kept = least_stolen(&steal, &pass_s);
    let kept_ms: Vec<f64> = kept.iter().map(|&p| pass_ms[p]).collect();
    let qps = stmts.len() as f64 / (median(&kept_ms) / 1e3);
    r.set("qps", qps, "stmt/s");
    let per_query: Vec<Vec<f64>> = (0..stmts.len())
        .map(|qi| kept.iter().map(|&p| latencies[p][qi]).collect())
        .collect();
    let mut sorted: Vec<f64> = per_query.iter().map(|g| median(g)).collect();
    sorted.sort_by(f64::total_cmp);
    let shown: Vec<String> = sorted.iter().map(|m| format!("{m:.1}")).collect();
    println!("per-query median latency ms, sorted: {}", shown.join(" "));
    r.set("latency_p50_ms", quantile_of_medians(&per_query, 0.5), "ms");
    r.set("latency_p90_ms", quantile_of_medians(&per_query, 0.9), "ms");
    println!(
        "{}: {pass} passes ({} kept for little stolen CPU), {statements} statements, {:.2} s",
        if mode == Mode::Approx {
            "aqp-adhoc"
        } else {
            "exact-adhoc"
        },
        kept.len(),
        wall.as_secs_f64()
    );

    // Each statement's answer is identical in every pass.
    let mut one_shot: Vec<Option<Answer>> = (0..stmts.len()).map(|_| None).collect();
    let mut approximated = 0u64;
    for (qi, res) in results {
        match answer_of(res, &stmts[qi]) {
            Ok(a) => {
                approximated += u64::from(!a.exact);
                match &one_shot[qi] {
                    None => one_shot[qi] = Some(a),
                    Some(first) if first.fp == a.fp => {}
                    Some(_) => r.fail(format!("{}: answer differs between passes", stmts[qi])),
                }
            }
            Err(e) => r.fail(e),
        }
    }
    let Some(one_shot) = one_shot.into_iter().collect::<Option<Vec<Answer>>>() else {
        return Err("a query failed in every pass".into());
    };
    if mode == Mode::Exact {
        // `BYPASS` answers equal a direct `Backend::execute` of the same SQL.
        for (sql, a) in sqls.iter().zip(&one_shot) {
            let direct = engine.execute(sql).map(|d| fingerprint(&d.table));
            r.check(matches!(&direct, Ok(fp) if *fp == a.fp), || {
                format!("BYPASS {sql}: differs from direct Backend::execute")
            });
        }
    }

    let cfg = session.effective_config();
    if trace {
        r.set(
            "core.approx_frac",
            approximated as f64 / statements as f64,
            "fraction",
        );
        r.set(
            "engine.calls_per_stmt",
            routed as f64 / statements as f64,
            "count",
        );
        // The traced passes: every statement replayed through the public
        // calls of each layer, its answer checked against the session's.
        let mut stages = Stages::default();
        let started = Instant::now();
        let (mut pass_s, mut tsteal) = (Vec::new(), Vec::new());
        let mut pass = 0u64;
        while pass == 0 || started.elapsed() < phase {
            let (before, steal0) = (stages.statement, steal_ticks());
            for qi in shuffled(stmts.len(), derive(seed, &format!("pass{pass}"))) {
                let table = match mode {
                    Mode::Approx => stages.replay_query(&ctx, &sqls[qi], &cfg, one_shot[qi].exact),
                    Mode::Exact => stages.replay_bypass(&ctx, &stmts[qi]),
                };
                r.attempted += 1;
                match table {
                    Ok(t) if fingerprint(&t) == one_shot[qi].fp => {}
                    Ok(_) => r.fail(format!("{}: replayed answer differs", stmts[qi])),
                    Err(e) => r.fail(e),
                }
            }
            pass_s.push((stages.statement - before).as_secs_f64());
            tsteal.push(steal_ticks() - steal0);
            pass += 1;
        }
        let kept: Vec<f64> = least_stolen(&tsteal, &pass_s)
            .iter()
            .map(|&p| pass_s[p])
            .collect();
        let tqps = stmts.len() as f64 / median(&kept);
        r.set("trace.overhead", 1.0 - tqps / qps, "fraction");
        obs_cross_check(&obs0, &obs1, &stages);
        stages.report(r);
        let diffs = passthrough_probe(&ctx, engine.as_ref(), &sqls, r);
        r.set("core.session.passthrough_us", median(&diffs), "us");
    }

    // Post-phase probes over the timed context and its scrambles.  Each
    // stream's reference is its query's one-shot approximate answer.
    drop(session);
    let refs = match mode {
        Mode::Approx => one_shot.iter().map(|a| a.fp.clone()).collect(),
        Mode::Exact => {
            let mut probe = VerdictSession::new(Arc::clone(&ctx));
            let mut stages = Stages::default();
            let mut out = Vec::new();
            for sql in &sqls {
                r.attempted += 1;
                let a = answer_of(probe.execute(sql), sql)?;
                if trace {
                    let t = stages.replay_query(&ctx, sql, &cfg, a.exact)?;
                    r.check(fingerprint(&t) == a.fp, || {
                        format!("{sql}: replayed answer differs")
                    });
                }
                out.push(a.fp);
            }
            if trace {
                stages.report_core(r);
            }
            out
        }
    };
    let refs: Vec<(String, Vec<String>)> = sqls.iter().cloned().zip(refs).collect();
    let streams0 = ctx.stream_stats();
    let streams = stream_probe(&ctx, &refs, STREAM_PASSES, r);
    r.set(
        "first_frame_p50_ms",
        quantile_of_medians(&streams.first_ms, 0.5),
        "ms",
    );
    r.set(
        "stream_p50_ms",
        quantile_of_medians(&streams.last_ms, 0.5),
        "ms",
    );
    if trace {
        let after = ctx.stream_stats();
        r.set(
            "core.progress.first_frame_ms",
            quantile_of_medians(&streams.first_ms, 0.5),
            "ms",
        );
        r.set("core.progress.frame_ms", median(&streams.gaps_ms), "ms");
        r.set("core.progress.frames", median(&streams.frames), "count");
        r.set(
            "core.progress.fallback_frac",
            (after.fallbacks - streams0.fallbacks) as f64
                / (after.started - streams0.started).max(1) as f64,
            "fraction",
        );
        cache_wire_probe(engine.clone(), &ctx, &cfg, &sqls, r);
        r.set("core.sample.build_ms", median(&build_ms), "ms");
        for m in [
            "store.pages_written",
            "store.wal_syncs",
            "store.pages_read",
            "store.setup_pages_written",
            "store.setup_wal_syncs",
            "core.cache.mode_flips",
        ] {
            r.set(m, 0.0, "count");
        }
    }

    // Ingest: it changes the data every check above relies on.
    ingest_probe(&ctx, trace, r);
    // Accuracy (untraced runs only) is scored on a fresh set-up, since the
    // timed phase advanced the engine's `rand()` seed by a varying number of
    // statements; `exact-adhoc` passes its exact answers along.
    if !trace {
        drop((ctx, engine));
        let exact =
            (mode == Mode::Exact).then(|| one_shot.iter().map(|a| a.table.clone()).collect());
        accuracy(&load(seed)?.ctx, &ids, &sqls, exact, r);
    }
    r.set("peak_rss_mb", crate::common::peak_rss_mib(), "MiB");
    Ok(())
}
