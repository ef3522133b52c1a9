//! [`VerdictContext`] — the user-facing entry point of the middleware.
//!
//! A context wraps a driver-level [`Backend`] to the underlying database
//! (paper Figure 1a) and exposes the two stages of the workflow (Figure 2):
//!
//! * **sample preparation** — [`VerdictContext::create_sample`] /
//!   [`VerdictContext::create_recommended_samples`] build sample tables with
//!   plain `CREATE TABLE … AS SELECT` statements and record their metadata;
//! * **query processing** — [`VerdictContext::execute`] parses the incoming
//!   query, plans which samples to use, rewrites the query, has the
//!   underlying database execute the rewritten SQL, and assembles the
//!   approximate answer plus error estimates.  Unsupported queries and
//!   queries for which no sampled plan fits the I/O budget are transparently
//!   passed through to the underlying database.

use crate::answer::{assemble, key_columns, ColumnErrorSummary};
use crate::backend::{BackendStats, DialectBackend, InstrumentedBackend};
use crate::cache::{AnswerCache, CacheStats};
use crate::config::VerdictConfig;
use crate::error::{VerdictError, VerdictResult};
use crate::meta::MetaStore;
use crate::obs::{Obs, QueryTrace, Stat, TraceBuilder};
use crate::planner::{PlanningContext, SamplePlanner};
use crate::rewrite::{analyze_query, rewrite, QueryAnalysis, RewriteOutput};
use crate::sample::builder::build_sample_sql;
use crate::sample::maintenance::{append_sql, staleness, Staleness};
use crate::sample::policy::{default_policy, ColumnCardinality};
use crate::sample::{SampleMeta, SampleType};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use verdict_engine::kernels::group_rows;
use verdict_engine::{Backend, Table, TableBuilder};
use verdict_sql::ast::Statement;
use verdict_sql::dialect::{Dialect, GenericDialect};
use verdict_sql::printer::print_statement;

/// The approximate (or exact, after fallback) answer to one query.
#[derive(Debug, Clone)]
pub struct VerdictAnswer {
    /// The result rows, shaped like the original query's output (plus
    /// optional `<column>_err` columns when configured).
    pub table: Table,
    /// True when the answer was computed exactly on the base tables
    /// (unsupported query, no viable sample plan, or accuracy-contract rerun).
    pub exact: bool,
    /// True when the answer was served from the approximate-answer cache
    /// without touching the underlying database.  `table`, `errors`,
    /// `rewritten_sql`, `rows_scanned`, and `used_samples` are bit-identical
    /// to the originally computed answer; only `elapsed` reflects the (much
    /// cheaper) cache lookup.
    pub cached: bool,
    /// Estimated error summaries per aggregate output column (empty for exact answers).
    pub errors: Vec<ColumnErrorSummary>,
    /// The SQL statements actually sent to the underlying database.
    pub rewritten_sql: Vec<String>,
    /// Wall-clock time spent end-to-end inside VerdictDB (including the
    /// underlying database's execution time).
    pub elapsed: Duration,
    /// Total base/sample rows scanned by the underlying database.
    pub rows_scanned: u64,
    /// Names of the sample tables used (empty for exact answers).
    pub used_samples: Vec<String>,
}

impl VerdictAnswer {
    /// The largest estimated relative error across all aggregate columns.
    pub fn max_relative_error(&self) -> f64 {
        self.errors
            .iter()
            .map(|e| e.max_relative_error)
            .fold(0.0, f64::max)
    }
}

/// Monotonic counters describing progressive-stream activity on a context
/// (surfaced by `SHOW STATS`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Streams opened (progressive or fallback).
    pub started: u64,
    /// Frames emitted across all streams.
    pub frames: u64,
    /// Streams that stopped early because the target error was met.
    pub early_stops: u64,
    /// Streams that consumed every scramble block.
    pub completed: u64,
    /// Streams answered as a single frame because the query was outside the
    /// progressive class (joins, count-distinct, min/max, no usable
    /// scramble, or a connection without block scans).
    pub fallbacks: u64,
}

/// Interior-mutable holder for [`StreamStats`].
#[derive(Debug, Default)]
pub(crate) struct StreamCounters {
    pub(crate) started: std::sync::atomic::AtomicU64,
    pub(crate) frames: std::sync::atomic::AtomicU64,
    pub(crate) early_stops: std::sync::atomic::AtomicU64,
    pub(crate) completed: std::sync::atomic::AtomicU64,
    pub(crate) fallbacks: std::sync::atomic::AtomicU64,
}

/// The VerdictDB middleware instance.
pub struct VerdictContext {
    /// The active backend, wrapped in routing instrumentation.  Kept as a
    /// type-erased `Arc<dyn Backend>` so [`Self::connection`] can hand out
    /// the trait object directly.
    conn: Arc<dyn Backend>,
    /// The same allocation as `conn`, concretely typed so the routing
    /// counters can be read back for `SHOW STATS`.
    instrumented: Arc<InstrumentedBackend>,
    config: VerdictConfig,
    meta: MetaStore,
    cache: AnswerCache,
    pub(crate) streams: StreamCounters,
    /// Optional persistent scramble store ([`Self::with_store`]).  When
    /// present, every scramble build/refresh/drop writes through to disk and
    /// the context reloads persisted scrambles plus their metadata on
    /// construction (cold-start serving).
    store: Option<Arc<verdict_store::Store>>,
    /// Always-on observability registry: per-stage / per-class latency
    /// histograms, statement counters, and the ring of recent query traces
    /// (see [`crate::obs`]).  Served by `EXPLAIN ANALYZE`, `SHOW PROFILE`,
    /// and `SHOW METRICS`.
    obs: Obs,
}

/// Key of the store blob holding the serialized sample-metadata registry.
const META_BLOB: &str = "verdict_meta";

impl VerdictContext {
    /// Creates a context over a backend, speaking the backend's own dialect
    /// ([`Backend::dialect`] — the generic dialect unless the backend
    /// overrides it).
    pub fn new(conn: Arc<dyn Backend>, config: VerdictConfig) -> VerdictContext {
        // Thread the engine speed knobs through to the backend; backends
        // without a local execution engine ignore the hints.
        if let Some(threads) = config.parallelism {
            conn.set_parallelism(threads);
        }
        if let Some(strategy) = config.group_strategy {
            conn.set_group_strategy(strategy);
        }
        let cache = AnswerCache::new(config.answer_cache_capacity);
        let instrumented = Arc::new(InstrumentedBackend::new(conn));
        VerdictContext {
            conn: instrumented.clone(),
            instrumented,
            config,
            meta: MetaStore::new(),
            cache,
            streams: StreamCounters::default(),
            store: None,
            obs: Obs::default(),
        }
    }

    /// The observability registry: latency histograms, statement counters,
    /// and the recent-trace ring.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Creates a context backed by a persistent scramble store.
    ///
    /// The caller must already have attached the same store to the
    /// backend's catalog (so persisted tables are visible through SQL);
    /// this constructor then reloads the persisted sample metadata and
    /// re-registers every scramble whose table still exists — **healing**
    /// records that no longer match the on-disk truth: a missing table
    /// drops its record, and a row-count drift (e.g. a crash between a
    /// scramble write and the metadata write) is folded into
    /// `appended_rows`, which marks the scramble's shuffle as lost so
    /// progressive execution declines it rather than serving a biased
    /// prefix.
    pub fn with_store(
        conn: Arc<dyn Backend>,
        config: VerdictConfig,
        store: Arc<verdict_store::Store>,
    ) -> VerdictResult<VerdictContext> {
        let mut ctx = Self::new(conn, config);
        ctx.store = Some(store);
        ctx.reload_persisted_meta()?;
        Ok(ctx)
    }

    /// The persistent store, when one is attached.
    pub fn store(&self) -> Option<&Arc<verdict_store::Store>> {
        self.store.as_ref()
    }

    /// Snapshot of the store's activity counters, when a store is attached.
    pub fn store_stats(&self) -> Option<verdict_store::StoreStats> {
        self.store.as_ref().map(|s| s.stats())
    }

    fn reload_persisted_meta(&self) -> VerdictResult<usize> {
        let store = self.store.as_ref().expect("called with store attached");
        let bytes = match store
            .get_blob(META_BLOB)
            .map_err(|e| VerdictError::Metadata(format!("store: {e}")))?
        {
            Some(b) => b,
            None => return Ok(0),
        };
        let mut loaded = 0usize;
        for mut meta in crate::meta::decode_samples(&bytes)? {
            if !self.conn.table_exists(&meta.sample_table) {
                // The scramble's table is gone (e.g. a crash mid-rebuild
                // after the drop committed): drop the stale record.
                continue;
            }
            let actual = self.conn.table_row_count(&meta.sample_table)?;
            if actual != meta.sample_rows {
                // Table and metadata disagree; trust the table, and mark
                // the shuffle as lost so progressive execution declines it.
                meta.appended_rows += actual.abs_diff(meta.sample_rows);
                meta.sample_rows = actual;
            }
            self.meta.register(meta);
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Captures the current contents of `sample_table` from the backend and
    /// writes them through the store's WAL, making the table *tracked*:
    /// later catalog-level appends and drops write through automatically.
    fn persist_sample_table(&self, sample_table: &str) -> VerdictResult<()> {
        let store = match &self.store {
            Some(s) => s,
            None => return Ok(()),
        };
        let table = self.conn.table_snapshot(sample_table).ok_or_else(|| {
            VerdictError::Metadata(format!(
                "backend {} cannot snapshot {sample_table}; persistence requires an \
                 in-process engine backend",
                self.conn.name()
            ))
        })?;
        let version = self.conn.data_version(sample_table).unwrap_or(1);
        store
            .save_table(&sample_table.to_ascii_lowercase(), &table, version)
            .map_err(|e| VerdictError::Metadata(format!("store: {e}")))
    }

    /// Persists the entire sample-metadata registry as one atomic blob
    /// write.  Called after every registry mutation so a restarted instance
    /// reloads exactly the scrambles this one knew about.
    fn persist_meta(&self) -> VerdictResult<()> {
        let store = match &self.store {
            Some(s) => s,
            None => return Ok(()),
        };
        let bytes = crate::meta::encode_samples(&self.meta.all());
        store
            .put_blob(META_BLOB, &bytes)
            .map_err(|e| VerdictError::Metadata(format!("store: {e}")))
    }

    /// Creates a context with an explicit SQL dialect (Impala, Spark SQL,
    /// Redshift, …) overriding whatever the backend itself reports.
    pub fn with_dialect(
        conn: Arc<dyn Backend>,
        dialect: Box<dyn Dialect>,
        config: VerdictConfig,
    ) -> VerdictContext {
        Self::new(Arc::new(DialectBackend::new(conn, dialect)), config)
    }

    /// The immutable base configuration.
    ///
    /// The context's configuration is fixed at construction time: a context
    /// is shared by many sessions behind an `Arc`, so there is deliberately
    /// no mutation path.  Per-session / per-query overrides go through
    /// [`crate::session::QueryOptions`] on a [`crate::session::VerdictSession`],
    /// which resolves an effective configuration for each statement.
    pub fn config(&self) -> &VerdictConfig {
        &self.config
    }

    /// The sample-metadata registry.
    pub fn meta(&self) -> &MetaStore {
        &self.meta
    }

    /// The active backend (wrapped in routing instrumentation).
    pub fn connection(&self) -> &Arc<dyn Backend> {
        &self.conn
    }

    /// The SQL dialect used when talking to the underlying database — the
    /// active backend's [`Backend::dialect`], possibly overridden by
    /// [`Self::with_dialect`].
    pub fn dialect(&self) -> &dyn Dialect {
        self.conn.dialect()
    }

    /// Quotes one identifier for the active backend's dialect (no-op for
    /// identifiers that do not need quoting).
    fn quoted(&self, ident: &str) -> String {
        self.dialect().quote_ident(ident)
    }

    // ------------------------------------------------------------------
    // Sample preparation (offline stage)
    // ------------------------------------------------------------------

    /// Creates one sample table of the given type over `base_table` using the
    /// configured default sampling ratio.
    pub fn create_sample(
        &self,
        base_table: &str,
        sample_type: SampleType,
    ) -> VerdictResult<SampleMeta> {
        self.create_sample_with_ratio(base_table, sample_type, self.config.sampling_ratio)
    }

    /// Creates one sample table with an explicit sampling parameter τ.
    pub fn create_sample_with_ratio(
        &self,
        base_table: &str,
        sample_type: SampleType,
        ratio: f64,
    ) -> VerdictResult<SampleMeta> {
        self.create_sample_named(None, base_table, sample_type, ratio, &self.config)
    }

    /// Creates one sample (scramble) table, optionally under a caller-chosen
    /// name (`CREATE SCRAMBLE <name> FROM …`), with an explicit configuration
    /// (sessions pass their per-statement resolved config).
    ///
    /// An existing **scramble** with the same name is replaced: its
    /// registration and table are dropped before the new one is built.  A
    /// name that collides with an existing table that is *not* a registered
    /// scramble (e.g. a base table) is rejected — replace semantics must
    /// never be able to destroy user data.
    pub fn create_sample_named(
        &self,
        name: Option<&str>,
        base_table: &str,
        sample_type: SampleType,
        ratio: f64,
        config: &VerdictConfig,
    ) -> VerdictResult<SampleMeta> {
        let base_rows = self.conn.table_row_count(base_table)?;
        let base_columns = self.column_names(base_table)?;
        let strata_count = match &sample_type {
            SampleType::Stratified { columns } => self.distinct_count(base_table, columns)?,
            _ => 0,
        };
        let sample_table = match name {
            Some(n) => n.to_string(),
            None => SampleMeta::table_name_for(base_table, &sample_type),
        };
        // Replace semantics: forget any scramble already registered under
        // this name (possibly over a different base table) before rebuilding.
        // If nothing was registered but a table with that name exists, the
        // name points at real data — refuse rather than clobber it.
        if self.meta.remove_sample(&sample_table).is_none() && self.conn.table_exists(&sample_table)
        {
            return Err(VerdictError::Metadata(format!(
                "{sample_table} already names a table that is not a registered scramble; \
                 refusing to replace it"
            )));
        }
        self.conn.execute(&format!(
            "DROP TABLE IF EXISTS {}",
            self.quoted(&sample_table)
        ))?;
        let plan = build_sample_sql(
            base_table,
            &sample_table,
            &sample_type,
            ratio,
            base_rows,
            strata_count,
            &base_columns,
            config,
            self.dialect(),
        );
        for stmt in &plan.statements {
            self.conn.execute(stmt)?;
        }
        let sample_rows = self.conn.table_row_count(&sample_table)?;
        let meta = SampleMeta {
            base_table: base_table.to_string(),
            sample_table,
            sample_type,
            ratio,
            sample_rows,
            base_rows,
            appended_rows: 0,
        };
        self.meta.register(meta.clone());
        self.persist_sample_table(&meta.sample_table)?;
        self.persist_meta()?;
        Ok(meta)
    }

    /// Applies the default sampling policy (Appendix F): inspects column
    /// cardinalities and builds a uniform sample plus hashed/stratified
    /// samples for high-/low-cardinality columns.
    pub fn create_recommended_samples(&self, base_table: &str) -> VerdictResult<Vec<SampleMeta>> {
        self.create_recommended_samples_with(base_table, &self.config)
    }

    /// [`Self::create_recommended_samples`] with an explicit configuration
    /// (sessions pass their per-statement resolved config).
    pub fn create_recommended_samples_with(
        &self,
        base_table: &str,
        config: &VerdictConfig,
    ) -> VerdictResult<Vec<SampleMeta>> {
        let base_rows = self.conn.table_row_count(base_table)?;
        let columns = self.column_names(base_table)?;
        let mut cardinalities = Vec::new();
        if !columns.is_empty() {
            let ndv_list = columns
                .iter()
                .map(|c| {
                    let q = self.quoted(c);
                    format!("ndv({q}) AS {q}")
                })
                .collect::<Vec<_>>()
                .join(", ");
            let result = self.conn.execute(&format!(
                "SELECT {ndv_list} FROM {}",
                self.quoted(base_table)
            ))?;
            for (i, c) in columns.iter().enumerate() {
                cardinalities.push(ColumnCardinality {
                    column: c.clone(),
                    distinct_values: result.table.value(0, i).as_i64().unwrap_or(0) as u64,
                });
            }
        }
        let decision = default_policy(base_rows, &cardinalities, config);
        let mut created = Vec::new();
        for sample_type in decision.sample_types {
            created.push(self.create_sample_named(
                None,
                base_table,
                sample_type,
                decision.ratio,
                config,
            )?);
        }
        Ok(created)
    }

    /// Refreshes every sample of `base_table` after a batch of new rows
    /// (available in `batch_table`) has been appended to it (Appendix D).
    ///
    /// The batch is projected in the **base table's** column order: the
    /// `INSERT` into each sample is positional, so a batch staged with the
    /// same columns in a different order must not end up writing values into
    /// the wrong sample columns.  (Columns are referenced by name, so order
    /// differences are harmless; a batch *missing* a base column fails
    /// loudly.)
    ///
    /// Only samples whose recorded base size lags the current base table
    /// (i.e. [`Staleness::Stale`]) are appended into; up-to-date samples are
    /// skipped.  This makes a retried `REFRESH` after a partial mid-loop
    /// failure idempotent — the samples that succeeded on the first attempt
    /// are not double-appended on the retry.
    pub fn refresh_samples_after_append(
        &self,
        base_table: &str,
        batch_table: &str,
    ) -> VerdictResult<usize> {
        let current_base_rows = self.conn.table_row_count(base_table)?;
        let batch_rows = self.conn.table_row_count(batch_table)?;
        let base_columns = self.column_names(base_table)?;
        let samples = self.meta.remove_for(base_table);
        let mut refreshed = 0usize;
        for (i, meta) in samples.iter().enumerate() {
            if !matches!(staleness(meta, current_base_rows), Staleness::Stale { .. }) {
                // Fresh (already refreshed, e.g. on a retried call) or
                // shrunk-base (needs a rebuild, not an append): keep as-is.
                self.meta.register(meta.clone());
                continue;
            }
            let appended = (|| -> VerdictResult<u64> {
                for stmt in append_sql(meta, batch_table, &base_columns, self.dialect()) {
                    self.conn.execute(&stmt)?;
                }
                Ok(self.conn.table_row_count(&meta.sample_table)?)
            })();
            match appended {
                Ok(sample_rows) => {
                    self.meta.register(SampleMeta {
                        // Appends land unshuffled at the sample's tail; the
                        // counter marks the prefix-uniformity property as
                        // lost until the next full rebuild (see
                        // `SampleMeta::appended_rows`).
                        appended_rows: meta.appended_rows
                            + sample_rows.saturating_sub(meta.sample_rows),
                        sample_rows,
                        base_rows: meta.base_rows + batch_rows,
                        ..meta.clone()
                    });
                    refreshed += 1;
                }
                Err(e) => {
                    // Re-register the failed and remaining samples untouched
                    // so a mid-loop error does not deregister them forever.
                    for m in &samples[i..] {
                        self.meta.register(m.clone());
                    }
                    // Best-effort metadata persistence: some samples may
                    // already have refreshed before the failure.
                    let _ = self.persist_meta();
                    return Err(e);
                }
            }
        }
        self.persist_meta()?;
        Ok(refreshed)
    }

    /// Reports whether samples of a base table are stale with respect to its
    /// current row count.
    pub fn sample_staleness(
        &self,
        base_table: &str,
    ) -> VerdictResult<Vec<(SampleMeta, Staleness)>> {
        let current = self.conn.table_row_count(base_table)?;
        Ok(self
            .meta
            .samples_for(base_table)
            .into_iter()
            .map(|m| {
                let s = staleness(&m, current);
                (m, s)
            })
            .collect())
    }

    /// Drops every sample table built for `base_table` and forgets its metadata.
    pub fn drop_samples(&self, base_table: &str) -> VerdictResult<usize> {
        let samples = self.meta.remove_for(base_table);
        let mut dropped = 0usize;
        for meta in samples {
            self.conn.execute(&format!(
                "DROP TABLE IF EXISTS {}",
                self.quoted(&meta.sample_table)
            ))?;
            dropped += 1;
        }
        self.persist_meta()?;
        Ok(dropped)
    }

    /// Drops a single scramble by its (sample-table) name, returning whether
    /// one existed.  With `if_exists` a missing scramble is not an error.
    pub fn drop_sample_named(&self, name: &str, if_exists: bool) -> VerdictResult<bool> {
        match self.meta.remove_sample(name) {
            Some(meta) => {
                self.conn.execute(&format!(
                    "DROP TABLE IF EXISTS {}",
                    self.quoted(&meta.sample_table)
                ))?;
                self.persist_meta()?;
                Ok(true)
            }
            None if if_exists => Ok(false),
            None => Err(VerdictError::Metadata(format!(
                "no scramble named {name} is registered"
            ))),
        }
    }

    /// Rebuilds every sample of `base_table` from the current base data,
    /// keeping each sample's name, type, and ratio (a batchless
    /// `REFRESH SCRAMBLES` statement).  Returns the number of samples rebuilt.
    pub fn rebuild_samples(
        &self,
        base_table: &str,
        config: &VerdictConfig,
    ) -> VerdictResult<usize> {
        let samples = self.meta.samples_for(base_table);
        let mut rebuilt = 0usize;
        for meta in &samples {
            // `create_sample_named` removes the old registration and drops
            // the old table itself; a failure leaves the remaining samples'
            // registrations untouched.
            self.create_sample_named(
                Some(&meta.sample_table),
                base_table,
                meta.sample_type.clone(),
                meta.ratio,
                config,
            )?;
            rebuilt += 1;
        }
        Ok(rebuilt)
    }

    // ------------------------------------------------------------------
    // Query processing (online stage)
    // ------------------------------------------------------------------

    /// Executes a query approximately when possible, exactly otherwise.
    ///
    /// When the answer cache is enabled (a nonzero
    /// [`VerdictConfig::answer_cache_capacity`]) and an identical query
    /// (modulo whitespace / case / literal spelling, see
    /// [`verdict_sql::canonical_sql`]) was answered before over unchanged
    /// data, the stored answer — estimate *and* confidence interval — is
    /// returned without touching the underlying database, with
    /// [`VerdictAnswer::cached`] set.
    pub fn execute(&self, sql: &str) -> VerdictResult<VerdictAnswer> {
        self.execute_with_config(sql, &self.config)
    }

    /// [`Self::execute`] with an explicit per-statement configuration.
    ///
    /// This is the execution entry point used by
    /// [`crate::session::VerdictSession`]: the session resolves its
    /// [`crate::session::QueryOptions`] against the base configuration and
    /// passes the result here, so per-query accuracy/caching overrides never
    /// mutate shared state.  Answers computed under different
    /// answer-affecting settings use distinct cache keys (see
    /// [`VerdictConfig::cache_fingerprint`]).
    pub fn execute_with_config(
        &self,
        sql: &str,
        config: &VerdictConfig,
    ) -> VerdictResult<VerdictAnswer> {
        let stmt = verdict_sql::parse_statement(sql)?;
        self.execute_statement_with_config(&stmt, sql, config)
    }

    /// [`Self::execute_with_config`] over an already-parsed statement
    /// (`sql` must be the statement's source text, used for passthrough).
    pub fn execute_statement_with_config(
        &self,
        stmt: &Statement,
        sql: &str,
        config: &VerdictConfig,
    ) -> VerdictResult<VerdictAnswer> {
        self.execute_statement_traced(stmt, sql, config, "none")
            .map(|(answer, _)| answer)
    }

    /// [`Self::execute_statement_with_config`], additionally returning the
    /// finished [`QueryTrace`] (already folded into the observability
    /// registry).  `shed_tier` is the admission tier label recorded in the
    /// trace (`"none"` outside the serving layer).  This is the execution
    /// entry point behind `EXPLAIN ANALYZE`.
    pub fn execute_statement_traced(
        &self,
        stmt: &Statement,
        sql: &str,
        config: &VerdictConfig,
        shed_tier: &'static str,
    ) -> VerdictResult<(VerdictAnswer, QueryTrace)> {
        let mut tb = TraceBuilder::new();
        let backend_before = self.instrumented.queries_routed();
        let pages_before = self.store.as_ref().map_or(0, |s| s.stats().pages_read);
        tb.begin("canonicalize");
        let cache_key = self.cache_key(stmt, config);
        tb.begin("cache_probe");
        if let Some(key) = &cache_key {
            if let Some(mut answer) = self.cache.lookup(key, |t| self.conn.data_version(t)) {
                tb.note("hit".into());
                answer.cached = true;
                let trace = self.finish_trace(
                    tb,
                    stmt,
                    sql,
                    config,
                    &mut answer,
                    shed_tier,
                    backend_before,
                    pages_before,
                );
                return Ok((answer, trace));
            }
            tb.note("miss".into());
        } else {
            tb.note("uncacheable".into());
        }
        let mut answer = self.execute_and_insert(stmt, sql, config, cache_key, &mut tb)?;
        let trace = self.finish_trace(
            tb,
            stmt,
            sql,
            config,
            &mut answer,
            shed_tier,
            backend_before,
            pages_before,
        );
        Ok((answer, trace))
    }

    /// The traced sibling of [`Self::execute_exact`]: runs `sql` exactly on
    /// the base tables while recording a trace classified by `class_stmt`
    /// (sessions pass the `BYPASS` wrapper or the bypassed statement, so the
    /// trace lands in the `bypass` / original class histogram).
    pub fn execute_exact_traced(
        &self,
        class_stmt: &Statement,
        sql: &str,
        config: &VerdictConfig,
        shed_tier: &'static str,
    ) -> VerdictResult<(VerdictAnswer, QueryTrace)> {
        let mut tb = TraceBuilder::new();
        let backend_before = self.instrumented.queries_routed();
        let pages_before = self.store.as_ref().map_or(0, |s| s.stats().pages_read);
        tb.begin("passthrough");
        let mut answer = self.passthrough(sql, tb.started())?;
        let trace = self.finish_trace(
            tb,
            class_stmt,
            sql,
            config,
            &mut answer,
            shed_tier,
            backend_before,
            pages_before,
        );
        Ok((answer, trace))
    }

    /// Records a one-span trace for a statement executed outside the query
    /// pipeline (scramble DDL, `SET`, `SHOW …`): the session times the
    /// statement and reports it here, so control statements appear in the
    /// class histograms and the recent-trace ring alongside queries.
    pub fn observe_control(
        &self,
        stmt: &Statement,
        sql: &str,
        total: Duration,
        config: &VerdictConfig,
        shed_tier: &'static str,
    ) -> QueryTrace {
        let slow = config.slow_query_ms > 0 && total >= Duration::from_millis(config.slow_query_ms);
        self.obs.observe(QueryTrace {
            seq: 0,
            class: statement_class(stmt),
            sql: sql.to_string(),
            total,
            spans: vec![crate::obs::SpanRecord {
                stage: "control",
                start: Duration::ZERO,
                duration: total,
                detail: String::new(),
            }],
            cached: false,
            exact: true,
            shed_tier,
            backend_queries: 0,
            store_pages_read: 0,
            rows_returned: 0,
            rows_scanned: 0,
            slow,
        })
    }

    /// Closes the trace, attributes the backend/store work done since the
    /// statement started, folds the trace into the observability registry,
    /// and stamps the answer's `elapsed` with the trace total (so span
    /// durations and the reported wall time agree).
    #[allow(clippy::too_many_arguments)]
    fn finish_trace(
        &self,
        tb: TraceBuilder,
        stmt: &Statement,
        sql: &str,
        config: &VerdictConfig,
        answer: &mut VerdictAnswer,
        shed_tier: &'static str,
        backend_before: u64,
        pages_before: u64,
    ) -> QueryTrace {
        let (total, spans) = tb.finish();
        answer.elapsed = total;
        let class = match statement_class(stmt) {
            "query" if answer.cached => "query_cached",
            c => c,
        };
        let backend_queries = self.instrumented.queries_routed() - backend_before;
        let pages_read = self
            .store
            .as_ref()
            .map_or(0, |s| s.stats().pages_read)
            .saturating_sub(pages_before);
        let slow = config.slow_query_ms > 0 && total >= Duration::from_millis(config.slow_query_ms);
        self.obs.observe(QueryTrace {
            seq: 0,
            class,
            sql: sql.to_string(),
            total,
            spans,
            cached: answer.cached,
            exact: answer.exact,
            shed_tier,
            backend_queries,
            store_pages_read: pages_read,
            rows_returned: answer.table.num_rows() as u64,
            rows_scanned: answer.rows_scanned,
            slow,
        })
    }

    /// Executes a statement **without consulting the cache**, while still
    /// inserting the freshly computed answer (streams and `STREAM`'s
    /// final-frame alias use this: a stream must observe current data, but
    /// its completed answer is exactly what a one-shot `SELECT` would have
    /// produced, so the next identical `SELECT` may reuse it).  The stage
    /// spans still feed the stage histograms; no ring trace is recorded —
    /// streams report through their own counters.
    pub(crate) fn execute_skip_cache_read(
        &self,
        stmt: &Statement,
        sql: &str,
        config: &VerdictConfig,
    ) -> VerdictResult<VerdictAnswer> {
        let mut tb = TraceBuilder::new();
        tb.begin("canonicalize");
        let cache_key = self.cache_key(stmt, config);
        let answer = self.execute_and_insert(stmt, sql, config, cache_key, &mut tb)?;
        let (_, spans) = tb.finish();
        for span in &spans {
            self.obs.record_stage(span.stage, span.duration);
        }
        Ok(answer)
    }

    fn execute_and_insert(
        &self,
        stmt: &Statement,
        sql: &str,
        config: &VerdictConfig,
        cache_key: Option<String>,
        tb: &mut TraceBuilder,
    ) -> VerdictResult<VerdictAnswer> {
        // Snapshot dependency versions BEFORE executing: if a concurrent
        // write lands mid-execution, the entry is stored under the
        // pre-write versions and fails revalidation, instead of a
        // post-execution snapshot masking the write and caching a stale
        // answer under the new version.
        let pre_versions = match &cache_key {
            Some(_) => self.snapshot_versions(stmt),
            None => None,
        };
        let answer = self.execute_parsed(stmt, sql, tb, config)?;
        if let (Some(key), Some(snapshot)) = (cache_key, pre_versions) {
            if let Some(versions) = Self::dependency_versions(&snapshot, stmt, &answer) {
                tb.begin("cache_insert");
                self.cache.insert(key, versions, answer.clone());
            }
        }
        Ok(answer)
    }

    fn execute_parsed(
        &self,
        stmt: &Statement,
        sql: &str,
        tb: &mut TraceBuilder,
        config: &VerdictConfig,
    ) -> VerdictResult<VerdictAnswer> {
        let query = match stmt {
            Statement::Query(q) => q.as_ref().clone(),
            _ => return self.passthrough_spanned(sql, tb, "control"),
        };

        // Analyse; unsupported queries are passed through unchanged (§2.2).
        tb.begin("analyze");
        let analysis = match analyze_query(&query) {
            Ok(a) => a,
            Err(VerdictError::Unsupported(_)) | Err(VerdictError::NoSampleAvailable(_)) => {
                return self.passthrough_spanned(sql, tb, "passthrough")
            }
            Err(e) => return Err(e),
        };

        // Plan sample usage.
        tb.begin("plan");
        let mut row_counts: HashMap<String, u64> = HashMap::new();
        for t in &analysis.tables {
            let rows = match self.conn.table_row_count(&t.table) {
                Ok(r) => r,
                Err(_) => return self.passthrough_spanned(sql, tb, "passthrough"),
            };
            row_counts.insert(t.table.to_ascii_lowercase(), rows);
        }
        let planner = SamplePlanner::new(&self.meta, config);
        let plan = planner.plan(
            &analysis.table_refs(&row_counts),
            &PlanningContext {
                group_columns: analysis.group_column_names(),
                distinct_columns: analysis.distinct_column_names(),
                io_budget: config.io_budget,
            },
        );
        if !plan.uses_samples() {
            return self.passthrough_spanned(sql, tb, "passthrough");
        }
        tb.note(format!(
            "{} sample(s), io_cost {}",
            plan.choices.iter().filter(|c| c.sample.is_some()).count(),
            plan.io_cost
        ));

        tb.begin("rewrite");
        let rewritten = match rewrite(&analysis, &plan, config) {
            Ok(r) => r,
            Err(VerdictError::Unsupported(_)) | Err(VerdictError::NoSampleAvailable(_)) => {
                return self.passthrough_spanned(sql, tb, "passthrough")
            }
            Err(e) => return Err(e),
        };

        match self.run_rewritten(&analysis, &rewritten, sql, tb, config)? {
            Some(answer) => Ok(answer),
            None => self.passthrough_spanned(sql, tb, "passthrough"),
        }
    }

    /// Executes the original query exactly on the base tables.
    pub fn execute_exact(&self, sql: &str) -> VerdictResult<VerdictAnswer> {
        self.passthrough(sql, Instant::now())
    }

    fn run_rewritten(
        &self,
        analysis: &QueryAnalysis,
        rewritten: &RewriteOutput,
        original_sql: &str,
        tb: &mut TraceBuilder,
        config: &VerdictConfig,
    ) -> VerdictResult<Option<VerdictAnswer>> {
        let mut sqls = Vec::new();
        let mut rows_scanned = 0u64;

        let mut mean_result = None;
        if let Some(stmt) = &rewritten.mean_query {
            tb.begin_with("backend_exec", "mean query".into());
            let sql = print_statement(stmt, self.dialect());
            let result = self.conn.execute(&sql)?;
            rows_scanned += result.stats.rows_scanned;
            sqls.push(sql);
            mean_result = Some(result.table);
        }

        // Feasibility: if subsample cells are too thin (high-cardinality
        // grouping), AQP will not produce useful estimates — fall back to the
        // exact query, as the paper does for tq-3, tq-8, tq-15.
        if let Some(table) = &mean_result {
            if !mean_result_feasible(analysis, table, config) {
                return Ok(None);
            }
        }

        let mut distinct_result = None;
        if let Some((stmt, _)) = &rewritten.distinct_query {
            tb.begin_with("backend_exec", "distinct query".into());
            let sql = print_statement(stmt, self.dialect());
            let result = self.conn.execute(&sql)?;
            rows_scanned += result.stats.rows_scanned;
            sqls.push(sql);
            distinct_result = Some(result.table);
        }

        let mut extreme_result = None;
        if let Some(stmt) = &rewritten.extreme_query {
            tb.begin_with("backend_exec", "extreme query".into());
            let sql = print_statement(stmt, self.dialect());
            let result = self.conn.execute(&sql)?;
            rows_scanned += result.stats.rows_scanned;
            sqls.push(sql);
            extreme_result = Some(result.table);
        }

        tb.begin("assemble");
        let assembled = assemble(
            rewritten,
            mean_result.as_ref(),
            distinct_result.as_ref(),
            extreme_result.as_ref(),
            config,
        )?;

        // High-level Accuracy Contract: rerun exactly when the estimated
        // error violates the configured accuracy requirement (§2.4).
        if let Some(max_rel) = config.max_relative_error {
            let worst = assembled
                .errors
                .iter()
                .map(|e| e.max_relative_error)
                .fold(0.0, f64::max);
            if worst > max_rel {
                tb.begin_with(
                    "rerun",
                    format!("estimated error {worst:.4} > target {max_rel:.4}"),
                );
                let mut exact = self.passthrough(original_sql, tb.started())?;
                exact.rewritten_sql.splice(0..0, sqls);
                return Ok(Some(exact));
            }
        }

        let used_samples: Vec<String> = rewritten
            .plan
            .choices
            .iter()
            .filter_map(|c| c.sample.as_ref().map(|s| s.sample_table.clone()))
            .collect();
        tb.note(format!("samples: {}", used_samples.join(", ")));

        Ok(Some(VerdictAnswer {
            table: assembled.table,
            exact: false,
            cached: false,
            errors: assembled.errors,
            rewritten_sql: sqls,
            elapsed: tb.elapsed(),
            rows_scanned,
            used_samples,
        }))
    }

    /// [`Self::passthrough`] under an open trace span: the exact execution is
    /// recorded as one `stage` span (`"passthrough"` for AQP fallbacks,
    /// `"control"` for non-query statements).
    fn passthrough_spanned(
        &self,
        sql: &str,
        tb: &mut TraceBuilder,
        stage: &'static str,
    ) -> VerdictResult<VerdictAnswer> {
        tb.begin(stage);
        self.passthrough(sql, tb.started())
    }

    pub(crate) fn passthrough(&self, sql: &str, start: Instant) -> VerdictResult<VerdictAnswer> {
        let result = self.conn.execute(sql)?;
        Ok(VerdictAnswer {
            table: result.table,
            exact: true,
            cached: false,
            errors: Vec::new(),
            rewritten_sql: vec![sql.to_string()],
            elapsed: start.elapsed(),
            rows_scanned: result.stats.rows_scanned,
            used_samples: Vec::new(),
        })
    }

    // ------------------------------------------------------------------
    // Observability surface (EXPLAIN / SHOW METRICS)
    // ------------------------------------------------------------------

    /// `EXPLAIN <statement>`: describes how the statement *would* execute —
    /// sample plan, rewritten SQL, cacheability — without executing it.
    /// Returns a two-column `(item, value)` table.
    pub fn explain_statement(
        &self,
        stmt: &Statement,
        config: &VerdictConfig,
    ) -> VerdictResult<Table> {
        let mut rows: Vec<(String, String)> = Vec::new();
        // Unwrap execution-mode wrappers so the plan describes the query the
        // wrapper would run.
        let (mode, query) = match stmt {
            Statement::Query(q) => ("query", q.as_ref().clone()),
            Statement::Stream(q) => ("stream", q.as_ref().clone()),
            Statement::Bypass(inner) => {
                rows.push(("statement".into(), "bypass".into()));
                rows.push(("plan".into(), "exact (bypass)".into()));
                rows.push(("sql".into(), print_statement(inner, self.dialect())));
                return explain_table(rows);
            }
            other => {
                rows.push(("statement".into(), statement_class(other).into()));
                rows.push(("plan".into(), "passthrough to backend".into()));
                return explain_table(rows);
            }
        };
        rows.push(("statement".into(), mode.into()));
        rows.push((
            "cacheable".into(),
            if self
                .cache_key(&Statement::Query(Box::new(query.clone())), config)
                .is_some()
            {
                "yes"
            } else {
                "no"
            }
            .into(),
        ));
        let analysis = match analyze_query(&query) {
            Ok(a) => a,
            Err(VerdictError::Unsupported(msg)) | Err(VerdictError::NoSampleAvailable(msg)) => {
                rows.push(("plan".into(), "exact passthrough".into()));
                rows.push(("reason".into(), msg));
                return explain_table(rows);
            }
            Err(e) => return Err(e),
        };
        let mut row_counts: HashMap<String, u64> = HashMap::new();
        for t in &analysis.tables {
            match self.conn.table_row_count(&t.table) {
                Ok(r) => {
                    row_counts.insert(t.table.to_ascii_lowercase(), r);
                }
                Err(e) => {
                    rows.push(("plan".into(), "exact passthrough".into()));
                    rows.push(("reason".into(), format!("row count for {}: {e}", t.table)));
                    return explain_table(rows);
                }
            }
        }
        let planner = SamplePlanner::new(&self.meta, config);
        let plan = planner.plan(
            &analysis.table_refs(&row_counts),
            &PlanningContext {
                group_columns: analysis.group_column_names(),
                distinct_columns: analysis.distinct_column_names(),
                io_budget: config.io_budget,
            },
        );
        for choice in &plan.choices {
            let what = match &choice.sample {
                Some(s) => format!(
                    "scramble {} (ratio {}, rows {})",
                    s.sample_table, s.ratio, s.sample_rows
                ),
                None => format!("base table (rows {})", choice.table_ref.rows),
            };
            rows.push((format!("table {}", choice.table_ref.table), what));
        }
        if !plan.uses_samples() {
            rows.push(("plan".into(), "exact passthrough".into()));
            rows.push((
                "reason".into(),
                "no registered scramble fits the I/O budget".into(),
            ));
            return explain_table(rows);
        }
        rows.push(("plan".into(), "approximate".into()));
        rows.push(("io_cost".into(), plan.io_cost.to_string()));
        match rewrite(&analysis, &plan, config) {
            Ok(rewritten) => {
                let mut i = 0usize;
                let mut push_sql = |rows: &mut Vec<(String, String)>, stmt: &Statement| {
                    rows.push((
                        format!("rewritten[{i}]"),
                        print_statement(stmt, self.dialect()),
                    ));
                    i += 1;
                };
                if let Some(s) = &rewritten.mean_query {
                    push_sql(&mut rows, s);
                }
                if let Some((s, _)) = &rewritten.distinct_query {
                    push_sql(&mut rows, s);
                }
                if let Some(s) = &rewritten.extreme_query {
                    push_sql(&mut rows, s);
                }
            }
            Err(VerdictError::Unsupported(msg)) | Err(VerdictError::NoSampleAvailable(msg)) => {
                rows.push(("plan".into(), "exact passthrough".into()));
                rows.push(("reason".into(), msg));
            }
            Err(e) => return Err(e),
        }
        explain_table(rows)
    }

    /// Every operator counter and gauge of this context, declared once:
    /// `SHOW STATS` renders the list as its cache, streams, backend and
    /// store sections, and `SHOW METRICS` as exposition series (see
    /// [`crate::obs::Stat`]).  The store section is present only when the
    /// context was opened over a data directory.
    pub fn stats(&self) -> Vec<Stat> {
        let cache = self.cache_stats();
        let streams = self.stream_stats();
        let backend = self.backend_stats();
        let mut stats = vec![
            Stat::gauge("cache", "cache_capacity", self.cache.capacity() as u64),
            Stat::gauge("cache", "cache_entries", self.cache.len() as u64),
            Stat::counter("cache", "cache_evictions", cache.evictions),
            Stat::counter("cache", "cache_hits", cache.hits),
            Stat::counter("cache", "cache_insertions", cache.insertions),
            Stat::counter("cache", "cache_invalidations", cache.invalidations),
            Stat::counter("cache", "cache_misses", cache.misses),
            Stat::counter("streams", "stream_early_stops", streams.early_stops),
            Stat::counter("streams", "stream_fallbacks", streams.fallbacks),
            Stat::counter("streams", "stream_frames", streams.frames),
            Stat::counter("streams", "streams_completed", streams.completed),
            Stat::counter("streams", "streams_started", streams.started),
            // Per-backend routing counters: which backend answered, how many
            // statements it was handed, and how often a missing capability
            // forced a degraded (but correct) path.
            Stat::counter("backend", "backend_queries", backend.queries_routed),
            Stat::counter("backend", "backend_scan_fallbacks", backend.scan_fallbacks),
            Stat::counter(
                "backend",
                "backend_version_fallbacks",
                backend.version_fallbacks,
            ),
            Stat::gauge("backend", "scrambles", self.meta.len() as u64),
        ];
        for (k, v) in &backend.extra {
            stats.push(Stat::counter("backend", format!("backend_{k}"), *v));
        }
        if let Some(store) = self.store_stats() {
            stats.extend([
                Stat::counter("store", "store_checkpoints", store.checkpoints),
                Stat::counter("store", "store_pages_read", store.pages_read),
                Stat::counter("store", "store_pages_written", store.pages_written),
                Stat::counter("store", "store_recoveries", store.recoveries),
                Stat::counter("store", "store_wal_records", store.wal_records),
                Stat::counter("store", "store_wal_syncs", store.wal_syncs),
            ]);
        }
        stats
    }

    // ------------------------------------------------------------------
    // Answer cache
    // ------------------------------------------------------------------

    /// The approximate-answer cache (disabled unless
    /// [`VerdictConfig::answer_cache_capacity`] > 0).
    pub fn cache(&self) -> &AnswerCache {
        &self.cache
    }

    /// Snapshot of the answer-cache activity counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Snapshot of the per-backend routing counters (queries routed,
    /// capability fallbacks taken, backend-specific extras).
    pub fn backend_stats(&self) -> BackendStats {
        self.instrumented.stats()
    }

    /// Snapshot of the progressive-stream activity counters.
    pub fn stream_stats(&self) -> StreamStats {
        use std::sync::atomic::Ordering::Relaxed;
        StreamStats {
            started: self.streams.started.load(Relaxed),
            frames: self.streams.frames.load(Relaxed),
            early_stops: self.streams.early_stops.load(Relaxed),
            completed: self.streams.completed.load(Relaxed),
            fallbacks: self.streams.fallbacks.load(Relaxed),
        }
    }

    /// The canonical cache key for a statement, or `None` when the statement
    /// must not be cached: the cache is disabled (globally, or for this
    /// statement by a per-session cache policy), the statement is not a
    /// `SELECT`, or it calls a nondeterministic function (`rand()`) anywhere
    /// — including inside scalar / `IN` / `EXISTS` subqueries — whose repeats
    /// must produce fresh draws.
    ///
    /// The key is the backend's identity, the canonical SQL text, and a
    /// fingerprint of every answer-affecting configuration knob: two
    /// sessions running the same query under different accuracy settings
    /// (confidence, target error, error columns, …) produce observably
    /// different answers, so they must not share a cache entry — and an
    /// answer computed against one backend must never be replayed against
    /// another, even if both can see tables with the same names.
    pub(crate) fn cache_key(&self, stmt: &Statement, config: &VerdictConfig) -> Option<String> {
        if !self.cache.enabled() || config.answer_cache_capacity == 0 {
            return None;
        }
        let query = match stmt {
            Statement::Query(q) => q.as_ref(),
            _ => return None,
        };
        if Self::contains_rand(query) {
            return None;
        }
        let canon = verdict_sql::canonical_statement(stmt);
        Some(format!(
            "{}\u{1f}{}\u{1f}{}",
            self.conn.identity(),
            print_statement(&canon, &GenericDialect),
            config.cache_fingerprint()
        ))
    }

    /// True when the query calls `rand()`/`random()` anywhere, recursing into
    /// predicate subqueries (which `walk_query` deliberately does not — the
    /// analyzer relies on that to keep subquery aggregates out of the outer
    /// query's classification).
    fn contains_rand(query: &verdict_sql::ast::Query) -> bool {
        use verdict_sql::ast::Expr;
        let mut found = false;
        let mut subqueries = Vec::new();
        verdict_sql::visitor::walk_query(query, &mut |e| match e {
            Expr::Function(f)
                if f.name.eq_ignore_ascii_case("rand") || f.name.eq_ignore_ascii_case("random") =>
            {
                found = true;
            }
            Expr::ScalarSubquery(q)
            | Expr::InSubquery { subquery: q, .. }
            | Expr::Exists { subquery: q, .. } => subqueries.push((**q).clone()),
            _ => {}
        });
        found || subqueries.iter().any(Self::contains_rand)
    }

    /// Pre-execution data versions of everything this statement *could*
    /// depend on: every referenced base table plus every sample currently
    /// registered for those tables (the plan's choices are a subset).
    /// Returns `None` when the connection cannot report versions — such an
    /// answer is never cached, because its invalidation could not be detected.
    pub(crate) fn snapshot_versions(&self, stmt: &Statement) -> Option<HashMap<String, u64>> {
        let query = match stmt {
            Statement::Query(q) => q.as_ref(),
            _ => return None,
        };
        let mut snapshot = HashMap::new();
        for name in verdict_sql::visitor::collect_base_tables(query) {
            let base = name.key();
            for meta in self.meta.samples_for(&base) {
                let sample = meta.sample_table.to_ascii_lowercase();
                snapshot.insert(sample.clone(), self.conn.data_version(&sample)?);
            }
            snapshot.insert(base.clone(), self.conn.data_version(&base)?);
        }
        Some(snapshot)
    }

    /// The `(table, data version)` pairs a computed answer depends on — every
    /// base table the query references plus every sample table the plan
    /// actually used — resolved against the pre-execution snapshot.  Returns
    /// `None` when a used sample is missing from the snapshot (registered
    /// mid-flight by another session): its pre-execution version is unknown,
    /// so the answer cannot be safely cached.
    pub(crate) fn dependency_versions(
        snapshot: &HashMap<String, u64>,
        stmt: &Statement,
        answer: &VerdictAnswer,
    ) -> Option<Vec<(String, u64)>> {
        let query = match stmt {
            Statement::Query(q) => q.as_ref(),
            _ => return None,
        };
        let mut tables: Vec<String> = verdict_sql::visitor::collect_base_tables(query)
            .iter()
            .map(|n| n.key())
            .collect();
        for s in &answer.used_samples {
            let key = s.to_ascii_lowercase();
            if !tables.contains(&key) {
                tables.push(key);
            }
        }
        tables
            .into_iter()
            .map(|t| snapshot.get(&t).map(|v| (t, *v)))
            .collect()
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn column_names(&self, table: &str) -> VerdictResult<Vec<String>> {
        let result = self
            .conn
            .execute(&format!("SELECT * FROM {} LIMIT 1", self.quoted(table)))?;
        Ok(result
            .table
            .schema
            .fields
            .iter()
            .map(|f| f.name.clone())
            .filter(|n| !n.starts_with("verdict_"))
            .collect())
    }

    fn distinct_count(&self, table: &str, columns: &[String]) -> VerdictResult<u64> {
        if columns.is_empty() {
            return Ok(0);
        }
        let col_list = columns
            .iter()
            .map(|c| self.quoted(c))
            .collect::<Vec<_>>()
            .join(", ");
        let sql = format!(
            "SELECT count(*) AS c FROM (SELECT {col_list} FROM {} GROUP BY {col_list}) AS verdict_card",
            self.quoted(table)
        );
        let result = self.conn.execute(&sql)?;
        Ok(result.table.value(0, 0).as_i64().unwrap_or(0) as u64)
    }
}

/// The statement class used as the `class` label on latency histograms and
/// ring traces (one of [`crate::obs::CLASSES`]).  `EXPLAIN` wrappers classify
/// as `"explain"`; the cached-vs-computed split (`"query_cached"`) is applied
/// at trace-finish time, not here.
pub fn statement_class(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::Query(_) => "query",
        Statement::Bypass(_) => "bypass",
        Statement::Stream(_) => "stream",
        Statement::Explain { .. } => "explain",
        Statement::SetOption { .. } => "set",
        Statement::ShowScrambles
        | Statement::ShowStats
        | Statement::ShowProfile { .. }
        | Statement::ShowMetrics => "show",
        Statement::CreateTableAs { .. }
        | Statement::DropTable { .. }
        | Statement::InsertIntoSelect { .. }
        | Statement::CreateScramble { .. }
        | Statement::CreateScrambles { .. }
        | Statement::DropScramble { .. }
        | Statement::DropScrambles { .. }
        | Statement::RefreshScrambles { .. } => "ddl",
    }
}

/// Builds the two-column `(item, value)` table returned by `EXPLAIN`.
fn explain_table(rows: Vec<(String, String)>) -> VerdictResult<Table> {
    TableBuilder::new()
        .str_column("item", rows.iter().map(|(k, _)| k.clone()).collect())
        .str_column("value", rows.into_iter().map(|(_, v)| v).collect())
        .build()
        .map_err(|e| VerdictError::Answer(format!("EXPLAIN table construction failed: {e}")))
}

/// The AQP feasibility test over a computed mean-query result: grouped
/// queries whose subsample cells average fewer than
/// [`VerdictConfig::min_rows_per_group`] rows produce useless estimates, so
/// the caller should answer exactly instead (the paper's behaviour for tq-3,
/// tq-8, tq-15).  Shared by the one-shot path and the progressive stream's
/// final frame, so both fall back under exactly the same condition.
pub(crate) fn mean_result_feasible(
    analysis: &crate::rewrite::QueryAnalysis,
    table: &Table,
    config: &VerdictConfig,
) -> bool {
    if analysis.group_by.is_empty() {
        return true;
    }
    let Some(idx) = table.schema.index_of(crate::rewrite::columns::SUB_SIZE) else {
        return true;
    };
    let sizes = &table.columns[idx];
    let total: f64 = (0..table.num_rows()).filter_map(|r| sizes.f64_at(r)).sum();
    // Distinct output groups = distinct combinations of the verdict_g*
    // columns in the per-(group, sid) result.
    let group_idxs: Vec<usize> = (0..analysis.group_by.len())
        .filter_map(|i| {
            table
                .schema
                .index_of(&format!("{}{i}", crate::rewrite::columns::GROUP_PREFIX))
        })
        .collect();
    let groups = group_rows(&key_columns(table, &group_idxs), table.num_rows()).num_groups();
    let rows_per_group = total / groups.max(1) as f64;
    rows_per_group >= config.min_rows_per_group
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_engine::{Column, DataType, Field, Schema};
    use verdict_sql::parse_statement;

    #[test]
    fn feasibility_counts_multi_column_groups_with_null_keys() {
        let Ok(Statement::Query(q)) = parse_statement("SELECT a, b, count(*) FROM t GROUP BY a, b")
        else {
            unreachable!()
        };
        let analysis = analyze_query(&q).unwrap();
        // Four groups across two nullable keys — (1,x) (1,NULL) (NULL,x)
        // (NULL,NULL) — over seven cells; the NULL size cell is skipped, so
        // the cells hold 40 rows: 10 per group.
        let a = vec![Some(1), Some(1), None, None, Some(1), None, Some(1)];
        let b = [Some("x"), None, Some("x"), None, Some("x"), None, None];
        let sizes = vec![Some(8), Some(4), Some(5), Some(6), Some(7), Some(10), None];
        let table = Table::new(
            Schema::new(vec![
                Field::new("verdict_g0", DataType::Int),
                Field::new("verdict_g1", DataType::Str),
                Field::new("verdict_sub_size", DataType::Int),
            ]),
            vec![
                Column::from_opt_i64(a),
                Column::from_opt_str(b.iter().map(|s| s.map(String::from)).collect()),
                Column::from_opt_i64(sizes),
            ],
        )
        .unwrap();
        let mut config = VerdictConfig::default();
        config.min_rows_per_group = 10.0;
        assert!(mean_result_feasible(&analysis, &table, &config));
        config.min_rows_per_group = 10.5;
        assert!(!mean_result_feasible(&analysis, &table, &config));
    }
}
