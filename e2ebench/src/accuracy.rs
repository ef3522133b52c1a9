//! Cell-level accuracy scoring of approximate answers against exact ones.
//!
//! A scored cell is one group × aggregate column of an approximated query.
//! Rows are matched on the group-key columns *by name*, and each estimate,
//! its `<col>_err` half-width and the exact value are looked up by column
//! name, never by position: the approximate answer interleaves error columns
//! with estimates, and a single-row (scalar) answer has its estimate, not a
//! key, in column 0.

use crate::common::{cell, Report};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use verdict_core::rewrite::{analyze_query, OutputColumn};
use verdict_core::{VerdictContext, VerdictResponse, VerdictSession};
use verdict_engine::Table;
use verdict_sql::{parse_statement, Statement};

/// Group-key and aggregate output column names of a query, from the
/// middleware's own analysis of it.
pub struct Shape {
    pub keys: Vec<String>,
    pub aggregates: Vec<String>,
}

impl Shape {
    /// Analyses `sql`; `None` when the middleware cannot analyse it.
    pub fn of(sql: &str) -> Option<Shape> {
        let Ok(Statement::Query(q)) = parse_statement(sql) else {
            return None;
        };
        let analysis = analyze_query(&q).ok()?;
        let mut shape = Shape {
            keys: Vec::new(),
            aggregates: Vec::new(),
        };
        for col in &analysis.output {
            match col {
                OutputColumn::GroupKey { name, .. } => shape.keys.push(name.clone()),
                OutputColumn::Aggregate { name, .. } => shape.aggregates.push(name.clone()),
            }
        }
        Some(shape)
    }
}

/// Accumulated scores over any number of answers.
#[derive(Debug, Default, Clone)]
pub struct Score {
    /// Cells with an estimate, a finite-or-infinite half-width and an exact
    /// value.
    pub cells: usize,
    /// Cells whose exact value lies inside estimate ± half-width.
    pub covered: usize,
    /// `|est − exact| / |exact|` of every scored cell with a nonzero exact
    /// value.
    pub rel_errs: Vec<f64>,
    /// Groups of the exact answers.
    pub exact_groups: usize,
    /// Exact-answer groups present in the approximate answer.
    pub recalled_groups: usize,
}

impl Score {
    pub fn coverage(&self) -> f64 {
        self.covered as f64 / self.cells.max(1) as f64
    }

    pub fn recall(&self) -> f64 {
        self.recalled_groups as f64 / self.exact_groups.max(1) as f64
    }

    /// Median relative error of the scored cells.
    pub fn rel_err_p50(&self) -> f64 {
        crate::common::median(&self.rel_errs)
    }

    /// Scores one approximate answer against the exact answer of the same
    /// query.
    pub fn add(&mut self, approx: &Table, exact: &Table, shape: &Shape) {
        let exact_rows: HashMap<Vec<String>, usize> = (0..exact.num_rows())
            .filter_map(|r| Some((row_key(exact, r, &shape.keys)?, r)))
            .collect();
        let approx_keys: HashSet<Vec<String>> = (0..approx.num_rows())
            .filter_map(|r| row_key(approx, r, &shape.keys))
            .collect();
        self.exact_groups += exact_rows.len();
        self.recalled_groups += exact_rows
            .keys()
            .filter(|k| approx_keys.contains(*k))
            .count();
        for ra in 0..approx.num_rows() {
            let Some(key) = row_key(approx, ra, &shape.keys) else {
                continue;
            };
            let Some(&re) = exact_rows.get(&key) else {
                continue;
            };
            for name in &shape.aggregates {
                let (Some(est), Some(half), Some(truth)) = (
                    number(approx, ra, name),
                    number(approx, ra, &format!("{name}_err")),
                    number(exact, re, name),
                ) else {
                    continue;
                };
                self.cells += 1;
                if (est - truth).abs() <= half {
                    self.covered += 1;
                }
                if truth != 0.0 {
                    self.rel_errs.push((est - truth).abs() / truth.abs());
                }
            }
        }
    }
}

/// Scores `draws` independent scramble draws of the same data: draw 0 is the
/// scrambles as `ctx` holds them, and each later draw first re-runs every
/// statement of `ddl` (a rebuild draws afresh, since the engine's `rand()`
/// seed advances per statement).  Pooling draws steadies the scores from one
/// workload seed to the next.  `exact` holds each query's exact answer, or
/// `None` to obtain it through `BYPASS` first; every answer comes from a
/// session with the answer cache off.  The caller must reach this point
/// through a fixed sequence of statements, so that a seed's scores repeat.
/// Prints each query's scored cells and worst realized relative error in
/// draw 0, under its label.
pub fn score_draws(
    ctx: &Arc<VerdictContext>,
    ddl: &[&str],
    labels: &[String],
    sqls: &[String],
    exact: Option<Vec<Table>>,
    draws: usize,
    r: &mut Report,
) -> Score {
    let mut score = Score::default();
    let mut session = VerdictSession::new(Arc::clone(ctx));
    let answer = |session: &mut VerdictSession, sql: &str| match session.execute(sql) {
        Ok(VerdictResponse::Answer(a)) => Some(a),
        _ => None,
    };
    if let Err(e) = session.execute("SET cache = off") {
        r.fail(format!("SET cache = off: {e}"));
        return score;
    }
    let exact = match exact {
        Some(e) => e,
        None => {
            let mut out = Vec::new();
            for sql in sqls {
                match answer(&mut session, &format!("BYPASS {sql}")) {
                    Some(a) => out.push(a.table),
                    None => {
                        r.fail(format!("BYPASS {sql}: no exact answer to score against"));
                        return score;
                    }
                }
            }
            out
        }
    };
    for draw in 0..draws {
        if draw > 0 {
            for stmt in ddl {
                if let Err(e) = session.execute(stmt) {
                    r.fail(format!("{stmt}: {e}"));
                    return score;
                }
            }
        }
        for ((sql, truth), label) in sqls.iter().zip(&exact).zip(labels) {
            r.attempted += 1;
            match (answer(&mut session, sql), Shape::of(sql)) {
                (Some(a), Some(shape)) => {
                    let (cells, errs) = (score.cells, score.rel_errs.len());
                    if !a.exact {
                        score.add(&a.table, truth, &shape);
                    }
                    if draw == 0 {
                        let worst = score.rel_errs[errs..].iter().copied().fold(0.0, f64::max);
                        println!(
                            "accuracy-query {label}: exact={} cells={} worst_rel_err={worst:.5}",
                            a.exact,
                            score.cells - cells
                        );
                    }
                }
                _ => r.fail(format!("{sql}: no approximate answer to score")),
            }
        }
    }
    score
}

/// The group key of row `r`: the rendered values of the named key columns
/// (empty for a scalar answer, so its single rows match).
fn row_key(table: &Table, r: usize, keys: &[String]) -> Option<Vec<String>> {
    keys.iter()
        .map(|k| Some(cell(&table.value(r, table.schema.index_of(k)?))))
        .collect()
}

fn number(table: &Table, r: usize, column: &str) -> Option<f64> {
    table
        .value(r, table.schema.index_of(column)?)
        .as_f64()
        .filter(|v| !v.is_nan())
}

/// Scores hand-built answers whose correct scores are known.  It fails when
/// rows are keyed on column 0 (the scalar answer's estimate would never
/// match its exact row) or when columns are looked up by position (the
/// interleaved `_err` columns would be read as estimates).
pub fn self_test() -> Result<(), String> {
    use verdict_engine::TableBuilder;
    let build = |b: TableBuilder| b.build().map_err(|e| format!("self-test table: {e}"));
    // Grouped: rows in another order than the exact answer, error columns
    // interleaved.  city_b's `s` (19 vs 20, ±0.5) is the one miss.
    let approx = build(
        TableBuilder::new()
            .str_column("city", vec!["city_b".into(), "city_a".into()])
            .float_column("n", vec![9.0, 11.0])
            .float_column("n_err", vec![2.0, 2.0])
            .float_column("s", vec![19.0, 101.0])
            .float_column("s_err", vec![0.5, 5.0]),
    )?;
    let exact = build(
        TableBuilder::new()
            .str_column(
                "city",
                vec!["city_a".into(), "city_b".into(), "city_c".into()],
            )
            .float_column("n", vec![10.0, 10.0, 1.0])
            .float_column("s", vec![100.0, 20.0, 3.0]),
    )?;
    let grouped = Shape {
        keys: vec!["city".into()],
        aggregates: vec!["n".into(), "s".into()],
    };
    // Scalar: the estimate sits in column 0.
    let scalar_approx = build(
        TableBuilder::new()
            .float_column("avg_price", vec![10.5])
            .float_column("avg_price_err", vec![1.0]),
    )?;
    let scalar_exact = build(TableBuilder::new().float_column("avg_price", vec![10.0]))?;
    let scalar = Shape {
        keys: vec![],
        aggregates: vec!["avg_price".into()],
    };
    let mut score = Score::default();
    score.add(&approx, &exact, &grouped);
    score.add(&scalar_approx, &scalar_exact, &scalar);
    let mut rel = score.rel_errs.clone();
    rel.sort_by(f64::total_cmp);
    let want_rel = [0.01, 0.05, 0.05, 0.1, 0.1];
    let ok = score.cells == 5
        && score.covered == 4
        && score.exact_groups == 4
        && score.recalled_groups == 3
        && rel.len() == want_rel.len()
        && rel.iter().zip(want_rel).all(|(a, b)| (a - b).abs() < 1e-12);
    if ok {
        Ok(())
    } else {
        Err(format!("accuracy self-test scored {score:?}"))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn scorer_keys_by_name_and_scores_scalars() {
        super::self_test().unwrap();
    }
}
