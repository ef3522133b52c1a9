//! Workload-level integration test: every benchmark query of the evaluation
//! (tq-* and iq-*) must run through VerdictDB, and the queries that are not
//! expected to fall back must produce approximate answers whose headline
//! aggregates stay close to the exact ones.  The answer assembly is also
//! checked bit for bit against the reference assembly it replaced, on every
//! workload query's rewritten results and on hand-built edge cases.

mod common;

use std::collections::HashMap;
use std::sync::Arc;
use verdictdb::core::answer::{assemble, AssembledAnswer};
use verdictdb::core::planner::{PlanningContext, SamplePlan, SamplePlanner};
use verdictdb::core::rewrite::{analyze_query, rewrite, RewriteOutput};
use verdictdb::data::{instacart_queries, tpch_queries, InstacartGenerator, TpchGenerator};
use verdictdb::engine::{Column, DataType, Field, Schema};
use verdictdb::sql::{parse_statement, Statement};
use verdictdb::{Backend, Engine, Table, VerdictConfig, VerdictContext, VerdictSession};

fn workload_context() -> Arc<VerdictContext> {
    let engine = Arc::new(Engine::with_seed(1234));
    InstacartGenerator::new(0.2).register(&engine);
    TpchGenerator::new(0.3).register(&engine);
    let conn: Arc<dyn Backend> = engine;
    let mut config = VerdictConfig::default();
    config.min_table_rows = 10_000;
    config.sampling_ratio = 0.05;
    config.io_budget = 0.12;
    config.seed = Some(7);
    let ctx = Arc::new(VerdictContext::new(conn, config));

    // Sample preparation mirroring §6.1: uniform + universe samples for the
    // large fact tables, stratified samples on common grouping columns —
    // all declared as one SQL script on a session.
    let mut session = VerdictSession::new(Arc::clone(&ctx));
    session
        .execute_script(
            "CREATE SCRAMBLE verdict_sample_order_products_uniform FROM order_products;
             CREATE SCRAMBLE verdict_sample_lineitem_uniform FROM lineitem;
             CREATE SCRAMBLE verdict_sample_tpch_orders_uniform FROM tpch_orders;
             CREATE SCRAMBLE verdict_sample_orders_uniform FROM orders;
             CREATE SCRAMBLE verdict_sample_tpch_orders_hashed_o_orderkey FROM tpch_orders
               METHOD hashed ON o_orderkey;
             CREATE SCRAMBLE verdict_sample_orders_hashed_order_id FROM orders
               METHOD hashed ON order_id;
             CREATE SCRAMBLE verdict_sample_order_products_hashed_order_id FROM order_products
               METHOD hashed ON order_id;
             CREATE SCRAMBLE verdict_sample_lineitem_hashed_l_orderkey FROM lineitem
               METHOD hashed ON l_orderkey;
             CREATE SCRAMBLE verdict_sample_lineitem_stratified_l_returnflag_l_linestatus
               FROM lineitem METHOD stratified ON l_returnflag, l_linestatus;
             CREATE SCRAMBLE verdict_sample_orders_stratified_city FROM orders
               METHOD stratified ON city;",
        )
        .unwrap();
    ctx
}

#[test]
fn every_workload_query_runs_through_verdictdb() {
    let ctx = workload_context();
    let mut approximated = 0usize;
    let mut fallbacks: Vec<&str> = Vec::new();
    for q in tpch_queries().iter().chain(instacart_queries().iter()) {
        let answer = ctx
            .execute(&q.sql)
            .unwrap_or_else(|e| panic!("{} failed through VerdictDB: {e}\n{}", q.id, q.sql));
        assert!(
            answer.table.num_rows() > 0 || answer.exact,
            "{} returned no rows",
            q.id
        );
        if answer.exact {
            fallbacks.push(q.id);
        } else {
            approximated += 1;
        }
        if q.expect_fallback {
            assert!(
                answer.exact,
                "{} groups by a high-cardinality key and should have fallen back",
                q.id
            );
        }
    }
    // The bulk of the workload must actually be approximated, mirroring the
    // paper where 30 of 33 queries benefit from AQP.
    assert!(
        approximated >= 25,
        "only {approximated} queries were approximated; fallbacks: {fallbacks:?}"
    );
}

#[test]
fn approximate_answers_track_exact_answers_on_scalar_queries() {
    let ctx = workload_context();
    // Queries whose first output column is a single scalar aggregate.
    let scalar_queries = ["tq-6", "tq-19", "iq-1", "iq-2", "iq-3", "iq-8", "iq-14"];
    let all: HashMap<&str, String> = tpch_queries()
        .iter()
        .chain(instacart_queries().iter())
        .map(|q| (q.id, q.sql.clone()))
        .collect();
    for id in scalar_queries {
        let sql = &all[id];
        let approx = ctx.execute(sql).unwrap();
        let exact = ctx.execute_exact(sql).unwrap();
        let col = approx.table.num_columns() - 1; // last column is an aggregate in these queries
        let first_agg_col = approx
            .table
            .schema
            .fields
            .iter()
            .position(|f| f.data_type == verdictdb::engine::DataType::Float)
            .unwrap_or(col);
        let a = approx.table.value(0, first_agg_col).as_f64().unwrap();
        let e = exact.table.value(0, first_agg_col).as_f64().unwrap();
        let rel = if e.abs() < f64::EPSILON {
            0.0
        } else {
            (a - e).abs() / e.abs()
        };
        // At this laptop scale the samples hold only a few thousand rows, so
        // highly selective queries legitimately carry ~10-15% error; at the
        // paper's 500 GB scale the same 1% samples hold millions of rows and
        // errors drop below 3% (see EXPERIMENTS.md).
        assert!(
            rel < 0.20,
            "{id}: relative error {rel:.4} too large (approx {a}, exact {e})"
        );
    }
}

#[test]
fn sampled_queries_scan_far_fewer_rows() {
    let ctx = workload_context();
    let all: HashMap<&str, String> = tpch_queries()
        .iter()
        .chain(instacart_queries().iter())
        .map(|q| (q.id, q.sql.clone()))
        .collect();
    for id in ["tq-1", "tq-6", "iq-2", "iq-4"] {
        let sql = &all[id];
        let approx = ctx.execute(sql).unwrap();
        let exact = ctx.execute_exact(sql).unwrap();
        assert!(!approx.exact, "{id} should be approximated");
        assert!(
            approx.rows_scanned * 5 < exact.rows_scanned,
            "{id}: expected a large reduction in rows scanned ({} vs {})",
            approx.rows_scanned,
            exact.rows_scanned
        );
    }
}

/// Assembles `mean`/`distinct`/`extreme` with both the columnar assembly and
/// the reference one, with and without error columns, and asserts the
/// answers are bit-identical: schema, row order, every estimate and `_err`
/// cell by `f64::to_bits`, and the error summaries.
fn assert_assembly_matches_reference(
    rewritten: &RewriteOutput,
    mean: Option<&Table>,
    distinct: Option<&Table>,
    extreme: Option<&Table>,
    config: &VerdictConfig,
    label: &str,
) {
    for include_error_columns in [true, false] {
        let mut config = config.clone();
        config.include_error_columns = include_error_columns;
        let new = assemble(rewritten, mean, distinct, extreme, &config);
        let old = common::reference_answer::assemble(rewritten, mean, distinct, extreme, &config);
        let (new, old): (AssembledAnswer, AssembledAnswer) = match (new, old) {
            (Ok(new), Ok(old)) => (new, old),
            (new, old) => panic!("{label}: {:?} vs {:?}", new.err(), old.err()),
        };
        assert_eq!(
            new.table.schema, old.table.schema,
            "{label}: schemas differ"
        );
        common::assert_tables_bit_identical(&new.table, &old.table, label);
        assert_eq!(
            new.errors.len(),
            old.errors.len(),
            "{label}: error summaries"
        );
        for (n, o) in new.errors.iter().zip(&old.errors) {
            assert_eq!(n.column, o.column, "{label}");
            assert_eq!(
                n.mean_relative_error.to_bits(),
                o.mean_relative_error.to_bits(),
                "{label}: {}",
                n.column
            );
            assert_eq!(
                n.max_relative_error.to_bits(),
                o.max_relative_error.to_bits(),
                "{label}: {}",
                n.column
            );
        }
    }
}

/// Row prefixes of a mean result, as a STREAM's intermediate frames see it.
fn prefixes(table: &Table) -> Vec<Table> {
    let n = table.num_rows();
    [0, 1, n / 4, n / 2, n.saturating_sub(1)]
        .iter()
        .map(|&k| table.limit(k))
        .collect()
}

#[test]
fn columnar_assembly_matches_the_reference_on_every_workload_query() {
    let ctx = workload_context();
    let conn = ctx.connection();
    let cfg = ctx.config();
    let run = |stmt: &Statement| {
        let sql = verdictdb::sql::print_statement(stmt, ctx.dialect());
        conn.execute(&sql).unwrap().table
    };
    let mut compared = 0usize;
    for q in tpch_queries().iter().chain(instacart_queries().iter()) {
        let Ok(Statement::Query(query)) = parse_statement(&q.sql) else {
            continue;
        };
        let Ok(analysis) = analyze_query(&query) else {
            continue;
        };
        let rows: HashMap<String, u64> = analysis
            .tables
            .iter()
            .map(|t| {
                let n = conn.table_row_count(&t.table).unwrap();
                (t.table.to_ascii_lowercase(), n)
            })
            .collect();
        let plan = SamplePlanner::new(ctx.meta(), cfg).plan(
            &analysis.table_refs(&rows),
            &PlanningContext {
                group_columns: analysis.group_column_names(),
                distinct_columns: analysis.distinct_column_names(),
                io_budget: cfg.io_budget,
            },
        );
        let Ok(rewritten) = rewrite(&analysis, &plan, cfg) else {
            continue;
        };
        let mean = rewritten.mean_query.as_ref().map(run);
        let distinct = rewritten.distinct_query.as_ref().map(|(s, _)| run(s));
        let extreme = rewritten.extreme_query.as_ref().map(run);
        assert_assembly_matches_reference(
            &rewritten,
            mean.as_ref(),
            distinct.as_ref(),
            extreme.as_ref(),
            cfg,
            q.id,
        );
        for (i, prefix) in mean.iter().flat_map(prefixes).enumerate() {
            let label = format!("{} prefix {i}", q.id);
            assert_assembly_matches_reference(&rewritten, Some(&prefix), None, None, cfg, &label);
        }
        compared += 1;
    }
    assert!(compared >= 28, "only {compared} queries reached assembly");
}

/// A rewrite of `sql` with no backend statements: the hand-built tables
/// stand in for their results.
fn hand_rewrite(sql: &str) -> RewriteOutput {
    let Ok(Statement::Query(query)) = parse_statement(sql) else {
        panic!("not a query: {sql}");
    };
    let placeholder = parse_statement("SELECT 1").unwrap();
    RewriteOutput {
        analysis: analyze_query(&query).unwrap(),
        plan: SamplePlan {
            choices: Vec::new(),
            score: 0.0,
            io_cost: 0,
            effective_ratio: 1.0,
        },
        mean_query: None,
        distinct_query: Some((placeholder, HashMap::from([(0, 20.0)]))),
        extreme_query: None,
        subsample_count: 12,
    }
}

fn table(fields: &[(&str, DataType)], columns: Vec<Column>) -> Table {
    let fields = fields.iter().map(|(n, t)| Field::new(n, *t)).collect();
    Table::new(Schema::new(fields), columns).unwrap()
}

/// A hand-built mean result: four groups whose first key is NULL, twelve
/// subsamples each in interleaved row order, and five estimate columns with
/// scattered NULL cells (group 3 has no `verdict_est_2` at all).
fn hand_mean_result() -> Table {
    let n = 48;
    let mut state = 7u64;
    let mut draw = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let keys = [None, Some(2), Some(3), Some(5)];
    let mut fields = vec![("verdict_g0", DataType::Int)];
    let mut columns = vec![Column::from_opt_i64((0..n).map(|r| keys[r % 4]).collect())];
    let names: Vec<String> = (0..5).map(|j| format!("verdict_est_{j}")).collect();
    for (j, name) in names.iter().enumerate() {
        fields.push((name.as_str(), DataType::Float));
        columns.push(Column::from_opt_f64(
            (0..n)
                .map(|r| {
                    let v = 50.0 + 100.0 * draw() + 10.0 * j as f64;
                    let null = (r + j) % 7 == 0 || (j == 2 && r % 4 == 2);
                    (!null).then_some(v)
                })
                .collect(),
        ));
    }
    fields.push(("verdict_sid", DataType::Int));
    columns.push(Column::from_opt_i64(
        (0..n).map(|r| Some(1 + r as i64 / 4)).collect(),
    ));
    fields.push(("verdict_sub_size", DataType::Int));
    columns.push(Column::from_opt_i64(
        (0..n).map(|r| Some(5 + (r as i64 * 7) % 11)).collect(),
    ));
    table(&fields, columns)
}

#[test]
fn columnar_assembly_matches_the_reference_on_edge_cases() {
    let mean = hand_mean_result();
    let cfg = VerdictConfig::default();
    let queries = [
        "SELECT g, sum(x) AS s, avg(y) AS a, variance(z) AS v FROM t GROUP BY g",
        "SELECT sum(x) AS s, avg(y) AS a FROM t",
        "SELECT g, sum(x) AS s FROM t GROUP BY g HAVING g <> 3",
        "SELECT g, avg(x) AS a FROM t GROUP BY g HAVING avg(x) > 100",
        "SELECT g, avg(x) AS a FROM t GROUP BY g HAVING NOT (avg(x) / 0 > 1) OR g = 2",
        "SELECT g, avg(x) AS a FROM t GROUP BY g HAVING g <> 2 AND NULL",
        "SELECT g, avg(x) AS a FROM t GROUP BY g HAVING g = 2 AND sum(x) / 0",
        "SELECT g, sum(x) AS s, count(*) AS c FROM t GROUP BY g ORDER BY sum(x) DESC LIMIT 2",
        "SELECT g, 100 * sum(x) / sum(y) AS r FROM t GROUP BY g",
        "SELECT g, (sum(x)) AS p, -(avg(y)) AS n, sum(x) / 0 AS z, sum(x) % 7 AS m FROM t GROUP BY g",
        "SELECT g, SUM(x) AS u, sum(x) AS l FROM t GROUP BY g",
        "SELECT g, sum(x) + g AS k, round(sum(x)) AS f FROM t GROUP BY g",
    ];
    for sql in queries {
        let rewritten = hand_rewrite(sql);
        for (i, prefix) in prefixes(&mean).iter().enumerate() {
            let label = format!("{sql} (prefix {i})");
            assert_assembly_matches_reference(&rewritten, Some(prefix), None, None, &cfg, &label);
        }
        assert_assembly_matches_reference(&rewritten, Some(&mean), None, None, &cfg, sql);
    }

    // Distinct and extreme parts: group 7 exists only in the extreme result
    // (it runs on the base table), group 5 only in the mean result.
    let sql = "SELECT g, count(DISTINCT u) AS d, max(x) AS m, sum(x) AS s FROM t GROUP BY g";
    let distinct = table(
        &[
            ("verdict_g0", DataType::Int),
            ("verdict_dst_0", DataType::Int),
        ],
        vec![
            Column::from_opt_i64(vec![Some(3), None, Some(2)]),
            Column::from_opt_i64(vec![Some(40), Some(12), None]),
        ],
    );
    let extreme = table(
        &[
            ("verdict_g0", DataType::Int),
            ("verdict_ext_1", DataType::Float),
        ],
        vec![
            Column::from_opt_i64(vec![Some(7), Some(2), None, Some(3)]),
            Column::from_opt_f64(vec![Some(9.5), Some(3.25), None, Some(1.0)]),
        ],
    );
    let rewritten = hand_rewrite(sql);
    for mean in [Some(&mean), Some(&mean.limit(0)), None] {
        assert_assembly_matches_reference(
            &rewritten,
            mean,
            Some(&distinct),
            Some(&extreme),
            &cfg,
            sql,
        );
    }
}
