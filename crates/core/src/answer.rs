//! The Answer Rewriter: turns the raw result of the rewritten query back into
//! the answer of the *original* query, together with error estimates.
//!
//! The rewritten (mean-like) query returns one row per (output group,
//! subsample id) with per-subsample unbiased estimates of every aggregate.
//! Following variational subsampling (Theorem 2), the point estimate for a
//! group is the subsample-size-weighted mean of the per-subsample estimates
//! (which algebraically equals the full-sample Horvitz–Thompson estimate),
//! and the error is derived from the spread of the per-subsample estimates,
//! scaled by `sqrt(avg(ns_i)) / sqrt(n_g)` exactly as in the paper's Query 9.
//!
//! Assembly is one pass over the mean result's typed columns: the key
//! columns are clustered with the engine's grouping kernel, each group's
//! estimates are folded from the `f64` estimate columns in row order, and
//! output and HAVING expressions arrive bound to aggregate slots at analysis
//! time ([`Bound`]), so no expression is printed or matched per group or
//! per cell.

use crate::config::VerdictConfig;
use crate::error::{VerdictError, VerdictResult};
use crate::rewrite::{
    columns, AggClass, Bound, BoundOutput, OutputColumn, QueryAnalysis, RewriteOutput,
};
use crate::stats::{normal_critical_value, stddev, weighted_mean};
use std::borrow::Cow;
use std::collections::HashMap;
use verdict_engine::kernels::group_rows;
use verdict_engine::{Column, DataType, Field, KeyValue, Schema, Table, Value};
use verdict_sql::ast::{BinaryOp, Expr};

/// The estimate and error bound reported for one aggregate column of one group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggEstimate {
    /// The unbiased point estimate.
    pub estimate: f64,
    /// Half-width of the confidence interval at the configured confidence level.
    pub error: f64,
}

impl AggEstimate {
    /// Relative error (error / |estimate|).
    ///
    /// A degenerate point estimate (near zero, NaN, or infinite) cannot
    /// anchor a relative error; returning 0 there would claim *perfect*
    /// accuracy for exactly the groups whose estimates are most suspect, so
    /// the relative error is `f64::INFINITY` instead.  The one exception is
    /// an estimate of 0 with an error bound of 0: every subsample agreed on
    /// exactly zero, which is an exact answer, not a degenerate one — an
    /// infinite value there would force the accuracy contract to rerun
    /// queries the estimator already answered exactly.  Averaging callers
    /// must skip non-finite entries (see [`ColumnErrorSummary`]).
    pub fn relative_error(&self) -> f64 {
        if !self.estimate.is_finite() || self.estimate.abs() < f64::EPSILON {
            if self.estimate == 0.0 && self.error.abs() < f64::EPSILON {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.error / self.estimate.abs()
        }
    }
}

/// Error summary for one aggregate output column across all groups.
///
/// `mean_relative_error` averages the *finite* per-group relative errors
/// (degenerate groups would otherwise swamp the mean with infinity), while
/// `max_relative_error` keeps the worst value including `f64::INFINITY`, so
/// the accuracy contract still triggers an exact rerun when any group's
/// estimate is degenerate.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnErrorSummary {
    /// Output column name the summary refers to.
    pub column: String,
    /// Mean of the finite per-group relative errors.
    pub mean_relative_error: f64,
    /// Worst per-group relative error (may be `f64::INFINITY`).
    pub max_relative_error: f64,
}

/// The assembled approximate answer.
#[derive(Debug, Clone)]
pub struct AssembledAnswer {
    /// The result table in the shape of the original query (plus optional
    /// `<column>_err` columns when configured).
    pub table: Table,
    /// Per-aggregate-column error summaries.
    pub errors: Vec<ColumnErrorSummary>,
}

/// The groups of an answer, in first-appearance order across the mean,
/// distinct and extreme results (in that order).
#[derive(Default)]
struct Groups {
    /// Group id by key, to match the rows of the next result.
    ids: HashMap<Vec<KeyValue>, usize>,
    /// Key values per group, from the group's first row.
    keys: Vec<Vec<Value>>,
    /// Mean-result rows per group (its subsample cells), in row order.
    rows: Vec<Vec<usize>>,
    /// Per group, the estimate of each aggregate slot.
    estimates: Vec<Vec<Option<AggEstimate>>>,
}

impl Groups {
    /// The group id of every row of `table`: its key columns are clustered
    /// with the engine's grouping kernel, and each cluster's first row is
    /// matched against (or appended to) the groups seen so far.
    fn assign(
        &mut self,
        table: &Table,
        group_count: usize,
        slots: usize,
    ) -> VerdictResult<Vec<usize>> {
        let idxs = group_columns(table, group_count)?;
        let grouping = group_rows(&key_columns(table, &idxs), table.num_rows());
        let mut ids = Vec::with_capacity(grouping.num_groups());
        for &row in &grouping.representatives {
            let values: Vec<Value> = idxs.iter().map(|&c| table.value_at(row, c)).collect();
            let next = self.keys.len();
            let id = *self
                .ids
                .entry(values.iter().map(KeyValue::from_value).collect())
                .or_insert(next);
            if id == next {
                self.keys.push(values);
                self.rows.push(Vec::new());
                self.estimates.push(vec![None; slots]);
            }
            ids.push(id);
        }
        Ok(grouping.gids.iter().map(|&g| ids[g]).collect())
    }
}

/// The `verdict_g*` key columns of a rewritten result, borrowed when they
/// lead the schema (as the rewriter emits them).
pub(crate) fn key_columns<'a>(table: &'a Table, idxs: &[usize]) -> Cow<'a, [Column]> {
    if idxs.iter().enumerate().all(|(i, &c)| i == c) {
        Cow::Borrowed(&table.columns[..idxs.len()])
    } else {
        Cow::Owned(idxs.iter().map(|&c| table.columns[c].clone()).collect())
    }
}

/// The mean result's subsample cells: the size of each row and, per
/// mean-like aggregate slot, its estimate column.
#[derive(Default)]
struct Cells<'a> {
    sizes: Vec<f64>,
    est: Vec<Option<&'a Column>>,
}

/// One group's gathered `(estimate, cell size)` pairs; reused across groups.
#[derive(Default)]
struct Fold {
    values: Vec<f64>,
    weights: Vec<f64>,
}

impl Fold {
    /// Gathers the estimate and size of each given row, in order, skipping
    /// rows whose estimate is missing.
    fn gather(&mut self, rows: &[usize], sizes: &[f64], estimate: impl Fn(usize) -> Option<f64>) {
        self.values.clear();
        self.weights.clear();
        for &r in rows {
            if let Some(v) = estimate(r) {
                self.values.push(v);
                self.weights.push(sizes[r]);
            }
        }
    }

    /// The spread of the gathered estimates scaled by
    /// `sqrt(avg(ns_i)) / sqrt(n_g)` (Theorem 2); 0 below two cells.
    fn sigma(&self) -> f64 {
        let total: f64 = self.weights.iter().sum();
        let avg_size = total / self.weights.len() as f64;
        if self.values.len() > 1 && total > 0.0 {
            stddev(&self.values) * avg_size.sqrt() / total.sqrt()
        } else {
            0.0
        }
    }
}

/// Assembles the final answer from the raw results of the rewritten parts.
pub fn assemble(
    rewrite: &RewriteOutput,
    mean_result: Option<&Table>,
    distinct_result: Option<&Table>,
    extreme_result: Option<&Table>,
    config: &VerdictConfig,
) -> VerdictResult<AssembledAnswer> {
    let analysis = &rewrite.analysis;
    let (k, slots) = (analysis.group_by.len(), analysis.aggregates.len());
    let z = normal_critical_value(config.confidence);
    let specs = |class| analysis.aggregates.iter().filter(move |s| s.class == class);
    let mut groups = Groups::default();
    let mut cells = Cells::default();
    let mut fold = Fold::default();

    // --- mean-like part: fold each group's cells in row order ---------------
    if let Some(table) = mean_result {
        required_column(table, columns::SID)?;
        let size = &table.columns[required_column(table, columns::SUB_SIZE)?];
        cells.sizes = (0..table.num_rows())
            .map(|r| size.f64_at(r).unwrap_or(0.0))
            .collect();
        cells.est = vec![None; slots];
        for spec in specs(AggClass::MeanLike) {
            let col = format!("{}{}", columns::EST_PREFIX, spec.index);
            cells.est[spec.index] = Some(&table.columns[required_column(table, &col)?]);
        }
        for (row, g) in groups.assign(table, k, slots)?.into_iter().enumerate() {
            groups.rows[g].push(row);
        }
        for (spec, col) in analysis.aggregates.iter().zip(&cells.est) {
            let Some(col) = col else { continue };
            for (rows, estimates) in groups.rows.iter().zip(&mut groups.estimates) {
                fold.gather(rows, &cells.sizes, |r| col.f64_at(r));
                if fold.values.is_empty() {
                    continue;
                }
                estimates[spec.index] = Some(AggEstimate {
                    estimate: combine_estimates(
                        &spec.call.name,
                        &fold.values,
                        &fold.weights,
                        rewrite.subsample_count,
                    ),
                    error: z * fold.sigma(),
                });
            }
        }
    }

    // --- count-distinct part --------------------------------------------------
    if let (Some(table), Some((_, scales))) = (distinct_result, &rewrite.distinct_query) {
        let ids = groups.assign(table, k, slots)?;
        for spec in specs(AggClass::Distinct) {
            let col = format!("{}{}", columns::DISTINCT_PREFIX, spec.index);
            let col = &table.columns[required_column(table, &col)?];
            let scale = *scales.get(&spec.index).unwrap_or(&1.0);
            for (row, &g) in ids.iter().enumerate() {
                let raw = col.f64_at(row).unwrap_or(0.0);
                // Binomial-style error: the observed distinct count is roughly
                // Binomial(D, 1/scale), so sd(D̂) ≈ scale * sqrt(raw * (1 - 1/scale)).
                let error = if scale > 1.0 {
                    z * scale * (raw * (1.0 - 1.0 / scale)).max(0.0).sqrt()
                } else {
                    0.0
                };
                groups.estimates[g][spec.index] = Some(AggEstimate {
                    estimate: raw * scale,
                    error,
                });
            }
        }
    }

    // --- extreme part ---------------------------------------------------------
    if let Some(table) = extreme_result {
        let ids = groups.assign(table, k, slots)?;
        for spec in specs(AggClass::Extreme) {
            let col = format!("{}{}", columns::EXTREME_PREFIX, spec.index);
            let col = &table.columns[required_column(table, &col)?];
            for (row, &g) in ids.iter().enumerate() {
                groups.estimates[g][spec.index] = Some(AggEstimate {
                    estimate: col.f64_at(row).unwrap_or(f64::NAN),
                    error: 0.0,
                });
            }
        }
    }

    build_output(analysis, &groups, &cells, &mut fold, config, z)
}

/// How per-subsample estimates of one aggregate are combined into the group's
/// point estimate.
///
/// Count and sum estimates are `b`-scaled HT totals of disjoint subsamples,
/// so summing them and dividing by the total number of subsamples `b`
/// recovers exactly the full-sample HT estimate (subsamples that happened to
/// receive no tuples contribute an implicit 0).  Ratio and scale-free
/// statistics (avg, variance, stddev, median, quantile) are combined as a
/// subsample-size-weighted mean.
fn combine_estimates(call_name: &str, values: &[f64], weights: &[f64], b: u64) -> f64 {
    match call_name {
        "count" | "sum" => values.iter().sum::<f64>() / b.max(1) as f64,
        _ => weighted_mean(values, weights),
    }
}

fn required_column(table: &Table, name: &str) -> VerdictResult<usize> {
    table
        .schema
        .index_of(name)
        .ok_or_else(|| VerdictError::Answer(format!("rewritten result is missing column {name}")))
}

fn group_columns(table: &Table, group_count: usize) -> VerdictResult<Vec<usize>> {
    (0..group_count)
        .map(|i| required_column(table, &format!("{}{i}", columns::GROUP_PREFIX)))
        .collect()
}

fn build_output(
    analysis: &QueryAnalysis,
    groups: &Groups,
    cells: &Cells,
    fold: &mut Fold,
    config: &VerdictConfig,
    z: f64,
) -> VerdictResult<AssembledAnswer> {
    // Apply HAVING using the estimated aggregates.
    let mut kept: Vec<usize> = (0..groups.keys.len()).collect();
    if let Some(having) = &analysis.bound_having {
        kept.retain(|&g| {
            let point = |s: usize| Some(groups.estimates[g][s]?.estimate);
            eval(having, &point, &groups.keys[g])
                .and_then(|v| v.as_bool())
                .unwrap_or(true)
        });
    }

    // Build the output as typed columns: group keys keep their inferred
    // type, aggregate estimates and their `_err` companions are nullable
    // Float64 columns built without per-cell boxing.
    let mut fields: Vec<Field> = Vec::new();
    let mut columns: Vec<Column> = Vec::new();
    let mut error_summaries: Vec<ColumnErrorSummary> = Vec::new();

    for (out, bound) in analysis.output.iter().zip(&analysis.bound_output) {
        match out {
            OutputColumn::GroupKey { index, name } => {
                let dt = kept
                    .first()
                    .and_then(|&g| groups.keys[g].get(*index))
                    .and_then(|v| v.data_type())
                    .unwrap_or(DataType::Str);
                fields.push(Field::new(name, dt));
                let keys: Vec<Value> = kept
                    .iter()
                    .map(|&g| groups.keys[g].get(*index).cloned().unwrap_or(Value::Null))
                    .collect();
                columns.push(Column::from_values_typed(dt, &keys));
            }
            OutputColumn::Aggregate { name, .. } => {
                let bound = bound
                    .as_ref()
                    .ok_or_else(|| VerdictError::Answer(format!("output {name} is not bound")))?;
                let mut values: Vec<Option<f64>> = Vec::with_capacity(kept.len());
                let mut errors: Vec<Option<f64>> = Vec::with_capacity(kept.len());
                let mut rel_errors = Vec::new();
                for &g in &kept {
                    let est = evaluate_aggregate_output(bound, analysis, groups, g, cells, fold, z);
                    values.push(est.map(|e| e.estimate));
                    errors.push(est.map(|e| e.error));
                    rel_errors.extend(est.map(|e| e.relative_error()));
                }
                fields.push(Field::new(name, DataType::Float));
                columns.push(Column::from_opt_f64(values));
                if config.include_error_columns {
                    fields.push(Field::new(&format!("{name}_err"), DataType::Float));
                    columns.push(Column::from_opt_f64(errors));
                }
                if !rel_errors.is_empty() {
                    let finite: Vec<f64> = rel_errors
                        .iter()
                        .copied()
                        .filter(|e| e.is_finite())
                        .collect();
                    let mean_relative_error = if finite.is_empty() {
                        f64::INFINITY
                    } else {
                        finite.iter().sum::<f64>() / finite.len() as f64
                    };
                    error_summaries.push(ColumnErrorSummary {
                        column: name.clone(),
                        mean_relative_error,
                        max_relative_error: rel_errors.iter().cloned().fold(0.0, f64::max),
                    });
                }
            }
        }
    }

    let mut table = Table::new(Schema::new(fields), columns)
        .map_err(|e| VerdictError::Answer(e.to_string()))?;

    // ORDER BY and LIMIT, evaluated on the assembled output.
    if !analysis.order_by.is_empty() && table.num_rows() > 1 {
        let mut indices: Vec<usize> = (0..table.num_rows()).collect();
        let keys: Vec<Option<usize>> = analysis
            .order_by
            .iter()
            .map(|o| order_key_column(&o.expr, analysis, &table))
            .collect();
        indices.sort_by(|&a, &b| {
            for (key, item) in keys.iter().zip(analysis.order_by.iter()) {
                if let Some(col) = key {
                    let ord = table.columns[*col].cmp_rows(a, b);
                    let ord = if item.asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
            }
            std::cmp::Ordering::Equal
        });
        table = table.take(&indices);
    }
    if let Some(limit) = analysis.limit {
        table = table.limit(limit as usize);
    }

    Ok(AssembledAnswer {
        table,
        errors: error_summaries,
    })
}

/// Finds the output column an ORDER BY expression refers to (by alias, by
/// matching the projection expression, or by group column name).
fn order_key_column(expr: &Expr, analysis: &QueryAnalysis, table: &Table) -> Option<usize> {
    if let Expr::Column { name, .. } = expr {
        if let Some(idx) = table.schema.index_of(name) {
            return Some(idx);
        }
    }
    for (i, out) in analysis.output.iter().enumerate() {
        let matches = match out {
            OutputColumn::Aggregate { expr: e, .. } => e == expr,
            OutputColumn::GroupKey { index, .. } => analysis.group_by.get(*index) == Some(expr),
        };
        if matches {
            return table.schema.index_of(out.name()).or(Some(i));
        }
    }
    None
}

/// Evaluates an aggregate output expression for group `g`.
///
/// When every aggregate in the expression is mean-like, the expression is
/// evaluated per subsample cell and re-combined (so e.g. `sum(a)/sum(b)` gets
/// a proper variational error estimate); otherwise it is evaluated over the
/// point estimates, and the error is taken from the single aggregate call
/// when the expression is exactly one call.
fn evaluate_aggregate_output(
    bound: &BoundOutput,
    analysis: &QueryAnalysis,
    groups: &Groups,
    g: usize,
    cells: &Cells,
    fold: &mut Fold,
    z: f64,
) -> Option<AggEstimate> {
    let (estimates, keys, rows) = (&groups.estimates[g], &groups.keys[g], &groups.rows[g]);
    let value = eval(&bound.expr, &|s| Some(estimates[s]?.estimate), keys)?.as_f64()?;

    let all_mean_like = bound
        .slots
        .iter()
        .all(|&s| analysis.aggregates[s].class == AggClass::MeanLike);
    if all_mean_like && !rows.is_empty() {
        fold.gather(rows, &cells.sizes, |r| {
            let cell = |s: usize| cells.est[s]?.f64_at(r);
            eval(&bound.expr, &cell, keys)
                .and_then(|v| v.as_f64())
                .filter(|v| v.is_finite())
        });
        if fold.values.len() > 1 {
            return Some(AggEstimate {
                estimate: value,
                error: z * fold.sigma(),
            });
        }
    }

    // Fallback error: exact when the expression is a single aggregate call.
    let error = match (&bound.expr, bound.slots.as_slice()) {
        (Bound::Agg(s), [_]) => estimates[*s].map_or(0.0, |e| e.error),
        _ => 0.0,
    };
    Some(AggEstimate {
        estimate: value,
        error,
    })
}

/// Evaluates a bound output or HAVING expression, `agg` supplying slot
/// values: integer literals are f64, `x/0` and `x%0` are NULL, comparisons
/// use [`Value::sql_cmp`], NULL propagates, and `None` (an opaque node, a
/// missing slot, or a NULL where a number or boolean is needed) fails the
/// whole evaluation.
fn eval(e: &Bound, agg: &dyn Fn(usize) -> Option<f64>, keys: &[Value]) -> Option<Value> {
    let sub = |e: &Bound| eval(e, agg, keys);
    Some(match e {
        Bound::Agg(s) => Value::Float(agg(*s)?),
        Bound::Key(i) => keys.get(*i)?.clone(),
        Bound::Lit(v) => v.clone(),
        Bound::Neg(x) => Value::Float(-sub(x)?.as_f64()?),
        Bound::Not(x) => Value::Bool(!sub(x)?.as_bool()?),
        Bound::Binary(l, op, r) => {
            let (l, r) = (sub(l)?, sub(r)?);
            match op {
                BinaryOp::And => Value::Bool(l.as_bool()? && r.as_bool()?),
                BinaryOp::Or => Value::Bool(l.as_bool()? || r.as_bool()?),
                op if op.is_comparison() => {
                    let ord = l.sql_cmp(&r)?;
                    Value::Bool(match op {
                        BinaryOp::Eq => ord.is_eq(),
                        BinaryOp::NotEq => ord.is_ne(),
                        BinaryOp::Lt => ord.is_lt(),
                        BinaryOp::LtEq => ord.is_le(),
                        BinaryOp::Gt => ord.is_gt(),
                        _ => ord.is_ge(),
                    })
                }
                _ => {
                    let (x, y) = (l.as_f64()?, r.as_f64()?);
                    match op {
                        BinaryOp::Plus => Value::Float(x + y),
                        BinaryOp::Minus => Value::Float(x - y),
                        BinaryOp::Multiply => Value::Float(x * y),
                        BinaryOp::Divide | BinaryOp::Modulo if y == 0.0 => Value::Null,
                        BinaryOp::Divide => Value::Float(x / y),
                        BinaryOp::Modulo => Value::Float(x % y),
                        _ => return None,
                    }
                }
            }
        }
        Bound::Opaque => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::analyze_query;
    use verdict_sql::{parse_statement, Statement};

    /// Binds the first output column of `SELECT <expr> FROM t GROUP BY g`.
    fn bound(expr: &str) -> BoundOutput {
        let Ok(Statement::Query(q)) = parse_statement(&format!("SELECT {expr} FROM t GROUP BY g"))
        else {
            panic!("not a query: {expr}");
        };
        analyze_query(&q).unwrap().bound_output[0].clone().unwrap()
    }

    #[test]
    fn const_evaluator_handles_arithmetic_and_lookup() {
        let b = bound("100 * sum(a) / (sum(b))");
        assert_eq!(b.slots, vec![0, 1]);
        let slot = |s: usize| Some(if s == 0 { 30.0 } else { 60.0 });
        let v = eval(&b.expr, &slot, &[]).unwrap().as_f64().unwrap();
        assert!((v - 50.0).abs() < 1e-9);
        // division by zero is NULL, a missing slot fails the evaluation
        let zero = |s: usize| Some(if s == 0 { 30.0 } else { 0.0 });
        assert_eq!(eval(&b.expr, &zero, &[]), Some(Value::Null));
        assert_eq!(eval(&b.expr, &|_| None, &[]), None);
    }

    #[test]
    fn const_evaluator_handles_comparisons() {
        let b = bound("count(*) > 10 AND 2 + 2 = 4 AND g <> 'x'");
        let keys = [Value::Str("y".into())];
        assert_eq!(
            eval(&b.expr, &|_| Some(50.0), &keys),
            Some(Value::Bool(true))
        );
        // a NULL key compares as unknown
        assert_eq!(eval(&b.expr, &|_| Some(50.0), &[Value::Null]), None);
    }

    #[test]
    fn binding_shares_slots_and_leaves_scalar_functions_opaque() {
        let b = bound("sum(x) + SUM(x)");
        assert_eq!(b.slots, vec![0]);
        assert_eq!(
            b.expr,
            Bound::Binary(
                Box::new(Bound::Agg(0)),
                BinaryOp::Plus,
                Box::new(Bound::Agg(0))
            )
        );
        assert_eq!(bound("round(sum(x))").expr, Bound::Opaque);
        assert_eq!(
            bound("-(+sum(x))").expr,
            Bound::Neg(Box::new(Bound::Agg(0)))
        );
    }

    #[test]
    fn relative_error_is_infinite_for_degenerate_estimate() {
        // A zero estimate must not claim perfect accuracy — it is the case
        // where the estimate is least trustworthy.
        let e = AggEstimate {
            estimate: 0.0,
            error: 5.0,
        };
        assert!(e.relative_error().is_infinite());
        let e = AggEstimate {
            estimate: f64::NAN,
            error: 5.0,
        };
        assert!(e.relative_error().is_infinite());
        // ... but an exact zero (zero estimate AND zero error) is not
        // degenerate and must not trigger accuracy-contract reruns
        let e = AggEstimate {
            estimate: 0.0,
            error: 0.0,
        };
        assert_eq!(e.relative_error(), 0.0);
        let e = AggEstimate {
            estimate: 100.0,
            error: 5.0,
        };
        assert!((e.relative_error() - 0.05).abs() < 1e-12);
    }
}
