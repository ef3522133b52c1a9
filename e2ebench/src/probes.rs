//! Layer-by-layer measurement through public calls, shared by the
//! workloads: the replay of one statement through the middleware's stages,
//! the stream, ingest, cache, wire and passthrough probes, and the
//! cross-check against the middleware's own stage histograms.
//!
//! Every time here is taken from the benchmark's own code around a call into
//! a layer's public function; nothing is added to the program.

use crate::common::{fingerprint, knobs, least_stolen, median, ms, steal_ticks, timed, us, Report};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use verdict_core::answer::assemble;
use verdict_core::planner::{PlanningContext, SamplePlanner};
use verdict_core::rewrite::{analyze_query, rewrite};
use verdict_core::{VerdictConfig, VerdictContext, VerdictError, VerdictResponse, VerdictSession};
use verdict_engine::{Backend, Table};
use verdict_server::{ServerHandle, VerdictClient, VerdictServer};
use verdict_sql::{canonical_sql, parse_statement, print_statement, Statement};

/// Per-call samples of every replayed stage, pooled over statements.
#[derive(Default)]
pub struct Stages {
    pub parse_us: Vec<f64>,
    pub canonical_us: Vec<f64>,
    pub print_us: Vec<f64>,
    pub analyze_us: Vec<f64>,
    pub plan_us: Vec<f64>,
    pub rewrite_us: Vec<f64>,
    pub assemble_ms: Vec<f64>,
    pub assemble_share: Vec<f64>,
    pub fallback_waste_ms: Vec<f64>,
    pub exec_ms: Vec<f64>,
    pub rows_scanned: Vec<f64>,
    pub rows_per_s: Vec<f64>,
    pub result_rows: Vec<f64>,
    /// Wall time of whole replayed statements.
    pub statement: Duration,
}

impl Stages {
    fn exec(&mut self, conn: &dyn Backend, sql: &str) -> Result<(Table, Duration), String> {
        let (result, took) = timed(|| conn.execute(sql));
        let result = result.map_err(|e| format!("{sql}: {e}"))?;
        self.exec_ms.push(ms(took));
        self.rows_scanned.push(result.stats.rows_scanned as f64);
        if result.stats.rows_scanned > 0 {
            self.rows_per_s
                .push(result.stats.rows_scanned as f64 / took.as_secs_f64().max(1e-9));
        }
        Ok((result.table, took))
    }

    fn print(&mut self, stmt: &Statement, ctx: &VerdictContext) -> String {
        let (text, took) = timed(|| print_statement(stmt, ctx.dialect()));
        self.print_us.push(us(took));
        text
    }

    /// Replays one query as the session runs it — parse → analyze → plan →
    /// rewrite → print → `Backend::execute` → assemble — timing each call.
    /// `one_shot_exact` is whether the session answered exactly; for such a
    /// query that reaches the engine with a rewritten mean query, that
    /// query's engine time is the work the feasibility check discards.
    pub fn replay_query(
        &mut self,
        ctx: &VerdictContext,
        sql: &str,
        cfg: &VerdictConfig,
        one_shot_exact: bool,
    ) -> Result<Table, String> {
        let started = Instant::now();
        let answer = self.replay_query_inner(ctx, sql, cfg, one_shot_exact);
        self.statement += started.elapsed();
        answer
    }

    fn replay_query_inner(
        &mut self,
        ctx: &VerdictContext,
        sql: &str,
        cfg: &VerdictConfig,
        one_shot_exact: bool,
    ) -> Result<Table, String> {
        let conn = ctx.connection().as_ref();
        let (stmt, took) = timed(|| parse_statement(sql));
        self.parse_us.push(us(took));
        let (_, took) = timed(|| canonical_sql(sql));
        self.canonical_us.push(us(took));
        let Ok(Statement::Query(query)) = stmt else {
            return Err(format!("not a query: {sql}"));
        };
        let passthrough = |s: &mut Stages| s.exec(conn, sql).map(|r| r.0);
        let (analysis, took) = timed(|| analyze_query(&query));
        self.analyze_us.push(us(took));
        let analysis = match analysis {
            Ok(a) => a,
            Err(VerdictError::Unsupported(_) | VerdictError::NoSampleAvailable(_)) => {
                return passthrough(self)
            }
            Err(e) => return Err(e.to_string()),
        };
        let (plan, took) = timed(|| {
            let mut rows = HashMap::new();
            for t in &analysis.tables {
                rows.insert(
                    t.table.to_ascii_lowercase(),
                    conn.table_row_count(&t.table).ok()?,
                );
            }
            Some(SamplePlanner::new(ctx.meta(), cfg).plan(
                &analysis.table_refs(&rows),
                &PlanningContext {
                    group_columns: analysis.group_column_names(),
                    distinct_columns: analysis.distinct_column_names(),
                    io_budget: cfg.io_budget,
                },
            ))
        });
        self.plan_us.push(us(took));
        let Some(plan) = plan.filter(|p| p.uses_samples()) else {
            return passthrough(self);
        };
        let (rewritten, took) = timed(|| rewrite(&analysis, &plan, cfg));
        self.rewrite_us.push(us(took));
        let rewritten = match rewritten {
            Ok(r) => r,
            Err(VerdictError::Unsupported(_) | VerdictError::NoSampleAvailable(_)) => {
                return passthrough(self)
            }
            Err(e) => return Err(e.to_string()),
        };
        let mut engine_time = Duration::ZERO;
        let mut mean = None;
        if let Some(stmt) = &rewritten.mean_query {
            let text = self.print(stmt, ctx);
            let (table, took) = self.exec(conn, &text)?;
            self.result_rows.push(table.num_rows() as f64);
            engine_time += took;
            if one_shot_exact {
                self.fallback_waste_ms.push(ms(took));
                return passthrough(self);
            }
            mean = Some(table);
        }
        let mut side =
            |s: &mut Stages, stmt: &Option<Statement>| -> Result<Option<Table>, String> {
                let Some(stmt) = stmt else { return Ok(None) };
                let text = s.print(stmt, ctx);
                let (table, took) = s.exec(conn, &text)?;
                engine_time += took;
                Ok(Some(table))
            };
        let distinct_stmt = rewritten.distinct_query.as_ref().map(|d| d.0.clone());
        let distinct = side(self, &distinct_stmt)?;
        let extreme = side(self, &rewritten.extreme_query)?;
        let (assembled, took) = timed(|| {
            assemble(
                &rewritten,
                mean.as_ref(),
                distinct.as_ref(),
                extreme.as_ref(),
                cfg,
            )
        });
        self.assemble_ms.push(ms(took));
        self.assemble_share
            .push(took.as_secs_f64() / (took + engine_time).as_secs_f64().max(1e-12));
        assembled.map(|a| a.table).map_err(|e| e.to_string())
    }

    /// Replays `BYPASS <sql>` as the session runs it: parse, print the inner
    /// statement, execute the printed text.
    pub fn replay_bypass(
        &mut self,
        ctx: &VerdictContext,
        bypass_sql: &str,
    ) -> Result<Table, String> {
        let started = Instant::now();
        let (stmt, took) = timed(|| parse_statement(bypass_sql));
        self.parse_us.push(us(took));
        let (_, took) = timed(|| canonical_sql(bypass_sql));
        self.canonical_us.push(us(took));
        let Ok(Statement::Bypass(inner)) = stmt else {
            return Err(format!("not a BYPASS statement: {bypass_sql}"));
        };
        let text = self.print(&inner, ctx);
        let answer = self.exec(ctx.connection().as_ref(), &text).map(|r| r.0);
        self.statement += started.elapsed();
        answer
    }

    /// Sets every stage metric from the pooled samples (medians per call).
    pub fn report(&self, r: &mut Report) {
        r.set("sql.parse_us", median(&self.parse_us), "us");
        r.set("sql.canonical_us", median(&self.canonical_us), "us");
        r.set("sql.print_us", median(&self.print_us), "us");
        r.set("engine.exec_ms", median(&self.exec_ms), "ms");
        r.set("engine.rows_scanned", median(&self.rows_scanned), "count");
        r.set("engine.rows_per_s", median(&self.rows_per_s), "rows/s");
        self.report_core(r);
    }

    /// Sets the metrics of the approximation stages only.
    pub fn report_core(&self, r: &mut Report) {
        r.set("core.rewrite.analyze_us", median(&self.analyze_us), "us");
        r.set("core.planner.plan_us", median(&self.plan_us), "us");
        r.set("core.rewrite.rewrite_us", median(&self.rewrite_us), "us");
        r.set("core.answer.assemble_ms", median(&self.assemble_ms), "ms");
        r.set(
            "core.answer.assemble_share",
            median(&self.assemble_share),
            "fraction",
        );
        r.set(
            "core.fallback_waste_ms",
            median(&self.fallback_waste_ms),
            "ms",
        );
        r.set("engine.result_rows", median(&self.result_rows), "count");
    }
}

/// Stage histograms of the middleware's own tracing (`ctx.obs()`) that the
/// replay cross-checks.
pub const OBS_STAGES: [&str; 5] = ["analyze", "plan", "rewrite", "backend_exec", "assemble"];

/// Snapshot of the middleware's per-stage histogram buckets.
pub fn obs_snapshot(ctx: &VerdictContext) -> Vec<Vec<u64>> {
    OBS_STAGES
        .iter()
        .map(|s| ctx.obs().stage_histogram(s).bucket_counts().to_vec())
        .collect()
}

/// Prints, per stage, the replay's median against the median the
/// middleware's own histograms recorded between two snapshots (read-only;
/// the histograms resolve a quantile to a power-of-two bucket bound, so a
/// ratio within 0.5–2 is agreement).
pub fn obs_cross_check(before: &[Vec<u64>], after: &[Vec<u64>], stages: &Stages) {
    let replay_us = [
        median(&stages.analyze_us),
        median(&stages.plan_us),
        median(&stages.rewrite_us),
        median(&stages.exec_ms) * 1e3,
        median(&stages.assemble_ms) * 1e3,
    ];
    for (i, stage) in OBS_STAGES.iter().enumerate() {
        let delta: Vec<u64> = after[i]
            .iter()
            .zip(&before[i])
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let total: u64 = delta.iter().sum();
        let obs_p50 = (total > 0).then(|| {
            let target = total.div_ceil(2);
            let mut cum = 0;
            let bucket = delta
                .iter()
                .position(|c| {
                    cum += c;
                    cum >= target
                })
                .unwrap_or(delta.len() - 1);
            verdict_core::Histogram::bucket_bound(bucket) as f64
        });
        match obs_p50 {
            Some(p) => println!(
                "obs-cross-check stage={stage} replay_p50_us={:.1} obs_p50_bucket_us={p} \
                 ratio={:.2} obs_samples={total}",
                replay_us[i],
                replay_us[i] / p.max(1.0)
            ),
            None => println!(
                "obs-cross-check stage={stage} replay_p50_us={:.1} obs_samples=0",
                replay_us[i]
            ),
        }
    }
}

/// What [`stream_probe`] measured: per query, the first- and last-frame
/// times of each of its streams in the passes without much stolen CPU
/// (`least_stolen`; all passes for a query that has none there); pooled, the
/// frames per stream and the gaps between frames.
pub struct StreamSamples {
    pub first_ms: Vec<Vec<f64>>,
    pub last_ms: Vec<Vec<f64>>,
    pub frames: Vec<f64>,
    pub gaps_ms: Vec<f64>,
}

/// Streams every query `passes` times through a session with `SET
/// stream_block_rows`, timing the first and last frame and checking that the
/// last frame equals the query's one-shot answer (`queries` pairs each SQL
/// text with that answer's fingerprint).
pub fn stream_probe(
    ctx: &Arc<VerdictContext>,
    queries: &[(String, Vec<String>)],
    passes: usize,
    r: &mut Report,
) -> StreamSamples {
    let mut out = StreamSamples {
        first_ms: vec![Vec::new(); queries.len()],
        last_ms: vec![Vec::new(); queries.len()],
        frames: Vec::new(),
        gaps_ms: Vec::new(),
    };
    let mut session = VerdictSession::new(Arc::clone(ctx));
    let set = format!("SET stream_block_rows = {}", knobs::STREAM_BLOCK_ROWS);
    if let Err(e) = session.execute(&set) {
        r.fail(format!("{set}: {e}"));
        return out;
    }
    // (pass, first, last) of every stream, per query.
    let mut times: Vec<Vec<(usize, f64, f64)>> = vec![Vec::new(); queries.len()];
    let (mut steal, mut pass_s) = (Vec::new(), Vec::new());
    for pass in 0..passes {
        let (steal0, pass_start) = (steal_ticks(), Instant::now());
        for (qi, (sql, one_shot)) in queries.iter().enumerate() {
            r.attempted += 1;
            let started = Instant::now();
            let mut arrivals = Vec::new();
            let mut last = None;
            let outcome = session.stream(sql).and_then(|stream| {
                for frame in stream {
                    let f = frame?;
                    arrivals.push(started.elapsed());
                    if f.last {
                        last = Some(fingerprint(&f.answer.table));
                    }
                }
                Ok(())
            });
            match (outcome, last) {
                (Err(e), _) => r.fail(format!("STREAM {sql}: {e}")),
                (Ok(()), Some(fp)) if &fp == one_shot => {
                    let last = *arrivals.last().expect("a last frame arrived");
                    times[qi].push((pass, ms(arrivals[0]), ms(last)));
                    out.frames.push(arrivals.len() as f64);
                    out.gaps_ms
                        .extend(arrivals.windows(2).map(|w| ms(w[1] - w[0])));
                }
                (Ok(()), Some(_)) => r.fail(format!(
                    "STREAM {sql}: last frame differs from the one-shot answer"
                )),
                (Ok(()), None) => r.fail(format!("STREAM {sql}: no last frame")),
            }
        }
        steal.push(steal_ticks() - steal0);
        pass_s.push(pass_start.elapsed().as_secs_f64());
    }
    let kept = least_stolen(&steal, &pass_s);
    for (qi, t) in times.iter().enumerate() {
        let in_kept = t.iter().any(|e| kept.contains(&e.0));
        for &(pass, first, last) in t {
            if !in_kept || kept.contains(&pass) {
                out.first_ms[qi].push(first);
                out.last_ms[qi].push(last);
            }
        }
    }
    out
}

/// One in-process ingest: `INSERT INTO <base> SELECT * FROM <batch>` then
/// `REFRESH SCRAMBLES <base> FROM <batch>`.  Returns (insert, refresh).
pub fn ingest(
    session: &mut VerdictSession,
    base: &str,
    batch: &str,
) -> Result<(Duration, Duration), String> {
    let insert = format!("INSERT INTO {base} SELECT * FROM {batch}");
    let refresh = format!("REFRESH SCRAMBLES {base} FROM {batch}");
    let (res, t_insert) = timed(|| session.execute(&insert));
    res.map_err(|e| format!("{insert}: {e}"))?;
    let (res, t_refresh) = timed(|| session.execute(&refresh));
    match res {
        Ok(VerdictResponse::ScramblesRefreshed(_)) => Ok((t_insert, t_refresh)),
        Ok(other) => Err(format!("{refresh}: unexpected {} response", other.kind())),
        Err(e) => Err(format!("{refresh}: {e}")),
    }
}

/// Session `BYPASS` time minus direct `Backend::execute` time of the same
/// SQL, in µs, per query; which of the two runs first alternates from query
/// to query, and the two answers must agree.
pub fn passthrough_probe(
    ctx: &Arc<VerdictContext>,
    direct: &dyn Backend,
    sqls: &[String],
    r: &mut Report,
) -> Vec<f64> {
    let mut session = VerdictSession::new(Arc::clone(ctx));
    let mut diffs = Vec::new();
    for (i, sql) in sqls.iter().enumerate() {
        r.attempted += 1;
        let mut via = || timed(|| session.execute(&format!("BYPASS {sql}")));
        let raw = || timed(|| direct.execute(sql));
        let ((via, t_session), (raw, t_direct)) = if i % 2 == 0 {
            (via(), raw())
        } else {
            let d = raw();
            (via(), d)
        };
        match (via, raw) {
            (Ok(VerdictResponse::Answer(a)), Ok(d))
                if fingerprint(&a.table) == fingerprint(&d.table) =>
            {
                diffs.push(us(t_session) - us(t_direct));
            }
            _ => r.fail(format!(
                "BYPASS {sql}: differs from direct Backend::execute"
            )),
        }
    }
    diffs
}

/// The cache and wire probe: a second context over the same backend and
/// scramble metadata with the answer cache on runs every query twice (a
/// miss, then a hit), then serves over loopback, where every query is a
/// hit, to time `PING` and the wire overhead (client round trip minus the
/// server-reported `elapsed_us`).  Sets the `core.cache.*` and
/// `server.ping_us` / `server.wire_us` metrics.
pub fn cache_wire_probe(
    backend: Arc<dyn Backend>,
    meta_from: &VerdictContext,
    cfg: &VerdictConfig,
    sqls: &[String],
    r: &mut Report,
) {
    let mut cfg = cfg.clone();
    cfg.answer_cache_capacity = knobs::CACHE_CAPACITY;
    let ctx = Arc::new(VerdictContext::new(backend, cfg));
    for m in meta_from.meta().all() {
        ctx.meta().register(m);
    }
    let mut session = VerdictSession::new(Arc::clone(&ctx));
    let (mut hit_us, mut miss_ms) = (Vec::new(), Vec::new());
    let stats_before = ctx.cache_stats();
    for round in 0..2 {
        for sql in sqls {
            r.attempted += 1;
            let (res, took) = timed(|| session.execute(sql));
            match res {
                Ok(VerdictResponse::Answer(a)) if a.cached == (round == 1) => {
                    if a.cached {
                        hit_us.push(us(took));
                    } else {
                        miss_ms.push(ms(took));
                    }
                }
                Ok(_) => r.fail(format!(
                    "cache probe {sql}: unexpected cache state in round {round}"
                )),
                Err(e) => r.fail(format!("cache probe {sql}: {e}")),
            }
        }
    }
    let stats = ctx.cache_stats();
    let lookups =
        (stats.hits + stats.misses).saturating_sub(stats_before.hits + stats_before.misses);
    r.set(
        "core.cache.hit_ratio",
        (stats.hits - stats_before.hits) as f64 / lookups.max(1) as f64,
        "fraction",
    );
    r.set(
        "core.cache.invalidations",
        (stats.invalidations - stats_before.invalidations) as f64,
        "count",
    );
    r.set("core.cache.hit_us", median(&hit_us), "us");
    r.set("core.cache.miss_ms", median(&miss_ms), "ms");
    let (ping, wire) = wire_samples(&ctx, sqls, r);
    r.set("server.ping_us", median(&ping), "us");
    r.set("server.wire_us", median(&wire), "us");
}

/// Binds a server over `ctx` with every serving knob pinned.
pub fn serve(ctx: Arc<VerdictContext>) -> Result<ServerHandle, String> {
    VerdictServer::bind("127.0.0.1:0", ctx)
        .map_err(|e| format!("bind: {e}"))?
        .with_io_shards(knobs::SERVER_IO_SHARDS)
        .with_workers(knobs::SERVER_WORKERS)
        .with_queue_capacity(knobs::SERVER_QUEUE_CAPACITY)
        .spawn()
        .map_err(|e| format!("spawn: {e}"))
}

/// `PING` round trips and wire overheads (client round trip minus the
/// server-reported `elapsed_us`) of `sqls`, over a server bound to `ctx`.
pub fn wire_samples(
    ctx: &Arc<VerdictContext>,
    sqls: &[String],
    r: &mut Report,
) -> (Vec<f64>, Vec<f64>) {
    let (mut ping, mut wire) = (Vec::new(), Vec::new());
    let server = match serve(Arc::clone(ctx)) {
        Ok(s) => s,
        Err(e) => {
            r.fail(e);
            return (ping, wire);
        }
    };
    match VerdictClient::connect(server.addr()) {
        Ok(mut c) => {
            for _ in 0..200 {
                r.attempted += 1;
                let (res, took) = timed(|| c.ping());
                match res {
                    Ok(()) => ping.push(us(took)),
                    Err(e) => r.fail(format!("PING: {e}")),
                }
            }
            for _ in 0..3 {
                for sql in sqls {
                    r.attempted += 1;
                    let (res, took) = timed(|| c.sql(sql));
                    match res {
                        Ok(a) => wire.push(us(took) - a.header.elapsed_us as f64),
                        Err(e) => r.fail(format!("{sql}: {e}")),
                    }
                }
            }
            let _ = c.quit();
        }
        Err(e) => r.fail(format!("connect: {e}")),
    }
    server_counts(&server, r);
    server.stop();
    (ping, wire)
}

/// Sets the server's error, refusal and shedding counts.
pub fn server_counts(server: &ServerHandle, r: &mut Report) {
    let adm = server.admission_stats();
    r.set(
        "server.errors",
        server.stats().errors.load(Ordering::Relaxed) as f64,
        "count",
    );
    r.set("server.refused", adm.refused as f64, "count");
    r.set("server.shed", adm.shed as f64, "count");
}
