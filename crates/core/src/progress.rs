//! Progressive query execution: streaming answers that refine block by
//! block, with early stop at the target error.
//!
//! The paper sells AQP as "answers in seconds, not minutes"; this module
//! turns that into a latency feature users can watch.  A [`ProgressStream`]
//! plans a query exactly like the one-shot path (analysis → sample plan →
//! variational-subsampling rewrite), then — when the shape allows — executes
//! the rewritten mean query through the engine's resumable block-scan
//! cursor ([`verdict_engine::BlockScan`]): each pulled frame consumes the
//! next block of scramble rows (default: one 64K-row morsel,
//! [`VerdictConfig::stream_block_rows`]), folds the refreshed per-(group,
//! subsample) cells through the Answer Rewriter, and yields a
//! [`ProgressFrame`] whose estimate and confidence interval are **exactly**
//! the variational-subsampling answer for the scramble prefix seen so far.
//!
//! Invariants:
//!
//! * **monotone refinement** — intervals tighten in expectation as blocks
//!   accumulate (they are the estimator's honest intervals for a growing
//!   prefix, so individual frames may wobble, but never lie);
//! * **final-frame bit-identity** — a stream that consumes every block ends
//!   with the one-shot answer, bit for bit, at any engine parallelism: the
//!   block cursor buffers exactly the one-shot executor's evaluated frame
//!   and re-folds it through the same morsel-grid aggregation core, and the
//!   final frame then applies the same feasibility check and High-level
//!   Accuracy Contract (falling back to the exact answer under exactly the
//!   same conditions a plain `SELECT` would);
//! * **early stop** — with `SET target_error = r`, the stream ends at the
//!   first frame whose worst relative error is within `r`, skipping the
//!   remaining blocks entirely.
//!
//! Queries outside the progressive class (joins, count-distinct, `min`/
//! `max`, no usable scramble, or a connection without block scans) degrade
//! gracefully to a single-frame stream computed by the one-shot path.
//!
//! A completed stream's final frame is inserted into the shared answer
//! cache under the same key a plain `SELECT` would use — it *is* that
//! query's answer — so the next identical `SELECT` is served from memory.
//! Early-stopped streams saw only a prefix and are never cached.

use crate::answer::assemble;
use crate::config::VerdictConfig;
use crate::context::{mean_result_feasible, VerdictAnswer, VerdictContext};
use crate::error::{VerdictError, VerdictResult};
use crate::planner::{PlanningContext, SamplePlanner};
use crate::rewrite::{analyze_query, rewrite, AggClass, RewriteOutput};
use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;
use verdict_engine::{BlockScan, Column, ColumnData};
use verdict_sql::ast::{Query, Statement};
use verdict_sql::printer::print_statement;

/// One refinement step of a progressive query: the approximate answer (and
/// its confidence intervals) for the scramble prefix consumed so far.
#[derive(Debug, Clone)]
pub struct ProgressFrame {
    /// The assembled answer for the prefix: estimates, error summaries, and
    /// (when `error_columns` is on) `<column>_err` interval half-widths.
    pub answer: VerdictAnswer,
    /// 1-based frame number within the stream.
    pub index: usize,
    /// Scramble rows consumed when this frame was assembled.
    pub rows_seen: u64,
    /// Total scramble rows the stream would consume if run to completion.
    pub total_rows: u64,
    /// `rows_seen / total_rows` (1.0 for a completed or single-frame stream).
    pub fraction: f64,
    /// True for the stream's final frame.
    pub last: bool,
    /// True when this (final) frame ended the stream because the target
    /// error was met before the scramble was exhausted.
    pub early_stopped: bool,
}

/// Internal state of a [`ProgressStream`].
enum StreamState {
    /// Block-by-block execution over the rewritten mean query.
    Progressive {
        scan: Box<dyn BlockScan>,
        rewritten: Box<RewriteOutput>,
        /// Printed SQL of the rewritten mean query (reported per frame).
        mean_sql: String,
        used_samples: Vec<String>,
        /// Cache bookkeeping for the completed stream's final frame.
        cache_key: Option<String>,
        pre_versions: Option<HashMap<String, u64>>,
    },
    /// The query is outside the progressive class: one frame, computed by
    /// the one-shot path (cache-read skipped so the stream observes fresh
    /// data; the result is still inserted for future `SELECT`s).
    Single {
        /// Run exactly on base tables (session bypass).
        bypass: bool,
    },
    /// Stream finished (or failed); no further frames.
    Done,
}

/// A pull-based progressive execution: an iterator of
/// [`ProgressFrame`]s.  Obtain one from
/// [`VerdictSession::stream`](crate::session::VerdictSession::stream);
/// dropping it abandons the remaining blocks with no side effects.
pub struct ProgressStream {
    ctx: Arc<VerdictContext>,
    cfg: VerdictConfig,
    /// The original (inner) query statement and its printed SQL.
    stmt: Statement,
    sql: String,
    state: StreamState,
    index: usize,
    started: Instant,
}

impl ProgressStream {
    /// Plans a progressive execution for `query` under an already-resolved
    /// configuration.  Never fails for *unsupported* shapes — those fall
    /// back to a single-frame stream; errors here are planning-level
    /// (unparseable rewrites, missing tables surface on the first frame).
    pub(crate) fn open(
        ctx: Arc<VerdictContext>,
        query: Query,
        cfg: VerdictConfig,
        bypass: bool,
    ) -> ProgressStream {
        ctx.streams.started.fetch_add(1, Relaxed);
        let stmt = Statement::Query(Box::new(query));
        let sql = print_statement(&stmt, ctx.dialect());
        let state = if bypass {
            ctx.streams.fallbacks.fetch_add(1, Relaxed);
            StreamState::Single { bypass: true }
        } else {
            match Self::plan_progressive(&ctx, &stmt, &cfg) {
                Some(state) => state,
                None => {
                    ctx.streams.fallbacks.fetch_add(1, Relaxed);
                    StreamState::Single { bypass: false }
                }
            }
        };
        ProgressStream {
            ctx,
            cfg,
            stmt,
            sql,
            state,
            index: 0,
            started: Instant::now(),
        }
    }

    /// Attempts the progressive plan; `None` means "fall back to one-shot".
    fn plan_progressive(
        ctx: &Arc<VerdictContext>,
        stmt: &Statement,
        cfg: &VerdictConfig,
    ) -> Option<StreamState> {
        let query = match stmt {
            Statement::Query(q) => q.as_ref(),
            _ => return None,
        };
        let analysis = analyze_query(query).ok()?;
        // Progressive execution covers the single-table, mean-like class;
        // count-distinct and extreme statistics would need their own side
        // queries per frame and take the one-shot path instead.
        if analysis.tables.len() != 1
            || analysis.has_class(AggClass::Distinct)
            || analysis.has_class(AggClass::Extreme)
        {
            return None;
        }
        let mut row_counts: HashMap<String, u64> = HashMap::new();
        for t in &analysis.tables {
            let rows = ctx.connection().table_row_count(&t.table).ok()?;
            row_counts.insert(t.table.to_ascii_lowercase(), rows);
        }
        let planner = SamplePlanner::new(ctx.meta(), cfg);
        let plan = planner.plan(
            &analysis.table_refs(&row_counts),
            &PlanningContext {
                group_columns: analysis.group_column_names(),
                distinct_columns: analysis.distinct_column_names(),
                io_budget: cfg.io_budget,
            },
        );
        if !plan.uses_samples() {
            return None;
        }
        // Append maintenance inserts batch rows unshuffled at the sample's
        // tail, so a prefix of such a scramble is no longer a uniform
        // subsample — intermediate frames would be biased toward the old
        // data while claiming full-population coverage.  Decline and answer
        // one-shot (still correct); a batchless REFRESH rebuild restores
        // the shuffle and with it progressive execution.
        if plan
            .choices
            .iter()
            .any(|c| c.sample.as_ref().is_some_and(|s| s.appended_rows > 0))
        {
            return None;
        }
        let rewritten = rewrite(&analysis, &plan, cfg).ok()?;
        let mean_stmt = rewritten.mean_query.as_ref()?;
        let mean_sql = print_statement(mean_stmt, ctx.dialect());
        // Snapshot cache-dependency versions BEFORE the scan pins its input
        // (mirroring the one-shot path's insert-safety argument): a write
        // landing between the snapshot and the pin leaves the completed
        // answer stored under the pre-write versions, where revalidation
        // drops it — the other order could serve a pre-write answer under
        // post-write versions forever.
        let cache_key = ctx.cache_key(stmt, cfg);
        let pre_versions = match &cache_key {
            Some(_) => ctx.snapshot_versions(stmt),
            None => None,
        };
        let scan = ctx.connection().open_block_scan(&mean_sql)?;
        let used_samples: Vec<String> = rewritten
            .plan
            .choices
            .iter()
            .filter_map(|c| c.sample.as_ref().map(|s| s.sample_table.clone()))
            .collect();
        Some(StreamState::Progressive {
            scan,
            rewritten: Box::new(rewritten),
            mean_sql,
            used_samples,
            cache_key,
            pre_versions,
        })
    }

    /// The shared context this stream executes on.
    pub fn context(&self) -> &Arc<VerdictContext> {
        &self.ctx
    }

    /// True when the stream executes block by block (false: single-frame
    /// fallback).
    pub fn is_progressive(&self) -> bool {
        matches!(self.state, StreamState::Progressive { .. })
    }

    /// Drives the stream to its end and returns the final frame (the
    /// `STREAM` statement's single-response alias).  Early-stop semantics
    /// are identical to pulling the frames one by one: with a target error
    /// set, blocks are consumed and evaluated frame-by-frame so the stream
    /// can stop on a strict prefix; without one, no frame can end the
    /// stream early, so the remaining blocks are consumed in one step
    /// (skipping the per-block snapshots a frame-by-frame drain would pay).
    pub fn final_frame(mut self) -> VerdictResult<ProgressFrame> {
        if self.cfg.max_relative_error.is_none() {
            self.cfg.stream_max_frames = 1;
        }
        let mut last = None;
        for frame in &mut self {
            last = Some(frame?);
        }
        last.ok_or_else(|| VerdictError::Answer("stream produced no frames".to_string()))
    }

    fn next_progressive(&mut self) -> VerdictResult<ProgressFrame> {
        let StreamState::Progressive {
            scan,
            rewritten,
            mean_sql,
            used_samples,
            cache_key,
            pre_versions,
        } = &mut self.state
        else {
            unreachable!("next_progressive called on a non-progressive stream");
        };
        self.index += 1;
        // When a frame cap is configured and this frame reaches it, consume
        // everything left so the last emitted frame is the complete answer.
        let finish_now = self.cfg.stream_max_frames > 0 && self.index >= self.cfg.stream_max_frames;
        let block = self.cfg.stream_block_rows.max(1) as u64;
        loop {
            let consumed = scan.advance(block)?;
            if consumed == 0 || !finish_now {
                break;
            }
        }
        let result = scan.snapshot()?;
        let complete = scan.done();
        let rows_seen = scan.rows_seen();
        let total_rows = scan.total_rows();
        // A strict prefix sees each population tuple with probability
        // p·(k/n) rather than p (the scramble is shuffled at build time, so
        // the first k of its n rows are a uniform subsample): rescale the
        // Horvitz–Thompson totals (count/sum) by n/k so every frame
        // estimates the full-population answer.  Ratio and scale-free
        // statistics need no correction, and the factor is exactly 1 on the
        // final frame — bit-identity with the one-shot answer is untouched.
        let mean_table = if complete || rows_seen == 0 {
            result.table
        } else {
            scale_prefix_totals(
                result.table,
                rewritten,
                total_rows as f64 / rows_seen as f64,
            )
        };
        let assembled = assemble(rewritten, Some(&mean_table), None, None, &self.cfg)?;
        let mut answer = VerdictAnswer {
            table: assembled.table,
            exact: false,
            cached: false,
            errors: assembled.errors,
            rewritten_sql: vec![mean_sql.clone()],
            elapsed: self.started.elapsed(),
            rows_scanned: rows_seen,
            used_samples: used_samples.clone(),
        };
        // Early stop: the target error is met by a strict prefix.  Guard
        // against trivially "perfect" empty frames — no groups means no
        // error summaries, not zero error.
        let worst = answer.max_relative_error();
        let target_met = match self.cfg.max_relative_error {
            Some(t) => !answer.errors.is_empty() && worst.is_finite() && worst <= t,
            None => false,
        };
        let early_stopped = target_met && !complete;
        let last = complete || early_stopped;

        if complete {
            // Mirror the one-shot endgame exactly: infeasible grouping or a
            // violated accuracy contract turns the final frame into the
            // exact answer — precisely when a plain SELECT would have.
            let feasible = mean_result_feasible(&rewritten.analysis, &mean_table, &self.cfg);
            let contract_ok = match self.cfg.max_relative_error {
                Some(t) => worst <= t,
                None => true,
            };
            if !feasible || !contract_ok {
                let mut exact = self.ctx.passthrough(&self.sql, self.started)?;
                exact.rewritten_sql.insert(0, mean_sql.clone());
                answer = exact;
            }
            // The completed answer is exactly what a one-shot SELECT would
            // produce: make the next identical SELECT a cache hit.
            if let (Some(key), Some(snapshot)) = (cache_key.take(), pre_versions.take()) {
                if let Some(versions) =
                    VerdictContext::dependency_versions(&snapshot, &self.stmt, &answer)
                {
                    self.ctx.cache().insert(key, versions, answer.clone());
                }
            }
            self.ctx.streams.completed.fetch_add(1, Relaxed);
        } else if early_stopped {
            self.ctx.streams.early_stops.fetch_add(1, Relaxed);
        }
        if last {
            self.state = StreamState::Done;
        }
        self.ctx.streams.frames.fetch_add(1, Relaxed);
        Ok(ProgressFrame {
            answer,
            index: self.index,
            rows_seen,
            total_rows,
            fraction: if total_rows == 0 {
                1.0
            } else {
                rows_seen as f64 / total_rows as f64
            },
            last,
            early_stopped,
        })
    }

    fn next_single(&mut self, bypass: bool) -> VerdictResult<ProgressFrame> {
        self.index += 1;
        self.state = StreamState::Done;
        let answer = if bypass {
            self.ctx.execute_exact(&self.sql)?
        } else {
            self.ctx
                .execute_skip_cache_read(&self.stmt, &self.sql, &self.cfg)?
        };
        self.ctx.streams.frames.fetch_add(1, Relaxed);
        let rows = answer.rows_scanned;
        Ok(ProgressFrame {
            answer,
            index: self.index,
            rows_seen: rows,
            total_rows: rows,
            fraction: 1.0,
            last: true,
            early_stopped: false,
        })
    }
}

/// Rescales the per-subsample Horvitz–Thompson totals (`count`/`sum`
/// estimate columns) of a prefix mean-result by `inv_fraction = n/k`.  Cell
/// sizes and scale-free statistics (avg, variance, quantiles) are left
/// untouched; scaling every per-cell estimate scales the assembled point
/// estimate *and* its interval coherently.
fn scale_prefix_totals(
    mut table: verdict_engine::Table,
    rewritten: &RewriteOutput,
    inv_fraction: f64,
) -> verdict_engine::Table {
    for spec in &rewritten.analysis.aggregates {
        if spec.class != AggClass::MeanLike || !matches!(spec.call.name.as_str(), "count" | "sum") {
            continue;
        }
        let name = format!("{}{}", crate::rewrite::columns::EST_PREFIX, spec.index);
        if let Some(idx) = table.schema.index_of(&name) {
            let col = &table.columns[idx];
            table.columns[idx] = match col.data() {
                ColumnData::Float64(v) => Column::from_parts(
                    ColumnData::Float64(v.iter().map(|x| x * inv_fraction).collect()),
                    col.validity().cloned(),
                ),
                _ => Column::from_opt_f64(
                    (0..col.len())
                        .map(|r| col.f64_at(r).map(|x| x * inv_fraction))
                        .collect(),
                ),
            };
        }
    }
    table
}

impl Iterator for ProgressStream {
    type Item = VerdictResult<ProgressFrame>;

    fn next(&mut self) -> Option<Self::Item> {
        let result = match &self.state {
            StreamState::Done => return None,
            StreamState::Single { bypass } => {
                let bypass = *bypass;
                self.next_single(bypass)
            }
            StreamState::Progressive { .. } => self.next_progressive(),
        };
        if result.is_err() {
            // An error ends the stream; later `next` calls return None.
            self.state = StreamState::Done;
        }
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::SamplePlan;
    use verdict_engine::{DataType, Field, Schema, Table, Value};

    #[test]
    fn prefix_scaling_scales_totals_in_place_and_keeps_nulls() {
        let Ok(Statement::Query(q)) =
            verdict_sql::parse_statement("SELECT count(*) AS c, sum(x) AS s, avg(x) AS a FROM t")
        else {
            unreachable!()
        };
        let rewritten = RewriteOutput {
            analysis: analyze_query(&q).unwrap(),
            plan: SamplePlan {
                choices: Vec::new(),
                score: 0.0,
                io_cost: 0,
                effective_ratio: 1.0,
            },
            mean_query: None,
            distinct_query: None,
            extreme_query: None,
            subsample_count: 4,
        };
        let fields = ["verdict_est_0", "verdict_est_1", "verdict_est_2"];
        let table = Table::new(
            Schema::new(vec![
                Field::new(fields[0], DataType::Float),
                Field::new(fields[1], DataType::Int),
                Field::new(fields[2], DataType::Float),
            ]),
            vec![
                Column::from_opt_f64(vec![Some(1.1), None, Some(-2.5)]),
                Column::from_opt_i64(vec![None, Some(7), Some(3)]),
                Column::from_opt_f64(vec![Some(0.3), Some(0.6), None]),
            ],
        )
        .unwrap();
        let inv = 10.0 / 3.0;
        let scaled = scale_prefix_totals(table.clone(), &rewritten, inv);
        // count and sum totals scale by n/k bit for bit — an Int64 total
        // becomes Float64 — NULL cells stay NULL, and avg is untouched.
        assert!(matches!(scaled.columns[1].data(), ColumnData::Float64(_)));
        for r in 0..3 {
            for c in 0..3 {
                let want = match table.value_at(r, c).as_f64() {
                    Some(x) if c < 2 => Value::Float(x * inv),
                    _ => table.value_at(r, c),
                };
                let got = scaled.value_at(r, c);
                assert_eq!(
                    got.as_f64().map(f64::to_bits),
                    want.as_f64().map(f64::to_bits)
                );
                assert_eq!(got.is_null(), want.is_null());
            }
        }
    }
}
