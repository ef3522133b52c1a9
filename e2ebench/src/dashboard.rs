//! `dashboard-tcp`: an in-process `VerdictServer` on loopback with the
//! persistent store attached and the answer cache on, driven closed-loop
//! over two connections by a mix of cached panel reads, live `STREAM`
//! panels, and ingest (`INSERT … SELECT` + `REFRESH SCRAMBLES … FROM`).
//! Ingest runs alone: the other connection waits while it runs (see
//! [`Gate`]), because a read that races a refresh is served inconsistently
//! (see [`race_probe`]).

use crate::accuracy::score_draws;
use crate::common::{
    cell, config, derive, fingerprint, knobs, least_stolen, median, more_setups, ms, quantile,
    quantile_of_medians, seeded_engine, steal_ticks, timed, us, Report, BATCHES,
    DASHBOARD_BATCH_SCALE,
};
use crate::probes::{passthrough_probe, serve, server_counts, Stages};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use verdict_core::{StreamStats, VerdictContext, VerdictResponse, VerdictSession};
use verdict_engine::{Backend, StoreHandle};
use verdict_server::{ClientResult, RemoteAnswer, ServerHandle, VerdictClient};
use verdict_store::{Store, StoreStats};

/// Panels read over and over; the answer cache serves them after the first
/// compute.  Panels over `order_products` are invalidated by every ingest;
/// the last one groups too finely to approximate and is answered exactly.
const PANELS: [&str; 8] = [
    "SELECT city, count(*) AS n, avg(days_since_prior) AS gap FROM orders GROUP BY city",
    "SELECT order_dow, count(*) AS n FROM orders GROUP BY order_dow",
    "SELECT order_hour, avg(days_since_prior) AS gap FROM orders GROUP BY order_hour",
    "SELECT reordered, count(*) AS n, sum(price * quantity) AS revenue FROM order_products GROUP BY reordered",
    "SELECT quantity, avg(price) AS avg_price FROM order_products GROUP BY quantity",
    "SELECT avg(price) AS avg_price, sum(quantity) AS units FROM order_products",
    "SELECT add_to_cart_order, count(*) AS n FROM order_products GROUP BY add_to_cart_order",
    "SELECT product_id, count(*) AS n FROM order_products GROUP BY product_id ORDER BY n DESC LIMIT 10",
];

/// Live panels sent as `STREAM`, over the `orders` scramble, which ingest
/// never touches (an append would make a scramble non-progressive).
const LIVE: [&str; 2] = [
    "SELECT order_dow, count(*) AS n, avg(days_since_prior) AS gap FROM orders GROUP BY order_dow",
    "SELECT order_hour, count(*) AS n FROM orders GROUP BY order_hour",
];

/// The dashboard's scrambles.
const SCRAMBLES: [&str; 2] = [
    "CREATE SCRAMBLE dash_orders FROM orders",
    "CREATE SCRAMBLE dash_order_products FROM order_products",
];
/// Scramble draws the accuracy metrics pool.
const ACCURACY_DRAWS: usize = 8;

/// The ingesting connection runs one ingest every this many operations.
const INGEST_EVERY: u64 = 2000;
/// The streaming connection sends one `STREAM` every this many operations.
const STREAM_EVERY: u64 = 100;
/// Ingests of the race probe (traced runs).
const RACE_INGESTS: usize = 16;
/// Length of one window of the timed phase: short enough that the windows
/// with the least stolen CPU can be picked out of a steal episode.
const WINDOW: Duration = Duration::from_millis(250);
/// Leading windows left out as warm-up (one second): every panel is
/// computed for the first time and the connections warm up.
const WARMUP_WINDOWS: usize = 4;
/// Windows per timed phase of `seconds`, plus one slot for completions
/// after the deadline.
fn window_slots(seconds: u64) -> usize {
    (Duration::from_secs(seconds).as_nanos() / WINDOW.as_nanos()) as usize + 1
}

struct Setup {
    server: ServerHandle,
    clients: Vec<VerdictClient>,
    dir: PathBuf,
    store: Arc<Store>,
    build_ms: Vec<f64>,
    setup_store: StoreStats,
}

impl Setup {
    fn ctx(&self) -> &Arc<VerdictContext> {
        self.server.context()
    }

    fn teardown(self) {
        for c in self.clients {
            let _ = c.quit();
        }
        let dir = self.dir.clone();
        self.server.stop();
        drop(self.store);
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn setup(seed: u64, attempt: usize) -> Result<Setup, String> {
    let engine = seeded_engine(seed, false, DASHBOARD_BATCH_SCALE);
    let dir = crate::data_dir(&format!("dashboard-{attempt}"))?;
    let store = Arc::new(Store::open(&dir).map_err(|e| format!("store: {e}"))?);
    engine
        .catalog()
        .set_store(Arc::clone(&store) as Arc<dyn StoreHandle>);
    let before = store.stats();
    let conn: Arc<dyn Backend> = engine;
    let ctx = Arc::new(
        VerdictContext::with_store(
            conn,
            config(seed, knobs::CACHE_CAPACITY),
            Arc::clone(&store),
        )
        .map_err(|e| format!("context: {e}"))?,
    );
    let mut session = VerdictSession::new(Arc::clone(&ctx));
    let mut build_ms = Vec::new();
    for ddl in SCRAMBLES {
        let (res, took) = timed(|| session.execute(ddl));
        res.map_err(|e| format!("{ddl}: {e}"))?;
        build_ms.push(ms(took));
    }
    let setup_store = delta(&before, &store.stats());
    let server = serve(ctx)?;
    let mut clients = Vec::new();
    for _ in 0..knobs::CLIENTS {
        let mut c = VerdictClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        c.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("timeout: {e}"))?;
        c.sql(&format!(
            "SET stream_block_rows = {}",
            knobs::STREAM_BLOCK_ROWS
        ))
        .map_err(|e| format!("SET: {e}"))?;
        clients.push(c);
    }
    Ok(Setup {
        server,
        clients,
        dir,
        store,
        build_ms,
        setup_store,
    })
}

fn delta(a: &StoreStats, b: &StoreStats) -> StoreStats {
    StoreStats {
        pages_read: b.pages_read - a.pages_read,
        pages_written: b.pages_written - a.pages_written,
        wal_records: b.wal_records - a.wal_records,
        wal_syncs: b.wal_syncs - a.wal_syncs,
        recoveries: b.recoveries - a.recoveries,
        checkpoints: b.checkpoints - a.checkpoints,
    }
}

fn remote_fp(a: &RemoteAnswer) -> Vec<String> {
    let mut out = a.columns.clone();
    for row in &a.rows {
        out.extend(row.iter().map(cell));
    }
    out
}

/// What one connection measured in the timed phase.
#[derive(Default)]
struct Samples {
    ops: u64,
    read_ms: Vec<f64>,
    /// Panel-read latencies and completed statements per [`WINDOW`] of the
    /// timed phase.
    window_read_ms: Vec<Vec<f64>>,
    window_ops: Vec<u64>,
    /// Stolen CPU ticks per whole window.
    window_steal: Vec<u64>,
    hit_us: Vec<f64>,
    miss_ms: Vec<f64>,
    wire_us: Vec<f64>,
    first_frame_ms: Vec<f64>,
    stream_ms: Vec<f64>,
    /// The window each stream completed in.
    stream_window: Vec<usize>,
    frame_gap_ms: Vec<f64>,
    frames: Vec<f64>,
    ingest_ms: Vec<f64>,
    insert_ms: Vec<f64>,
    refresh_ms: Vec<f64>,
    ingest_store: Vec<StoreStats>,
    /// Ingests started (successful or not); batch `k % BATCHES` is the k-th.
    ingests: u64,
    /// Panel reads between two ingests whose answer differed from the first
    /// answer of their panel since the last ingest.
    changed: u64,
    /// `(epoch, panel, answer)` of every distinct exact answer a panel read
    /// got between two ingests, ordered by epoch.
    exact_answers: Vec<(u64, usize, Vec<String>)>,
    /// Panel reads, and those answered exactly, per panel.
    reads: [u64; PANELS.len()],
    exact_reads: [u64; PANELS.len()],
    /// Live panel and last frame of every completed stream, in the order of
    /// `first_frame_ms` and `stream_ms`.
    stream_finals: Vec<(usize, Vec<String>)>,
    failures: Vec<String>,
}

/// Distinct answers seen per (panel, ingest epoch), each with its exact
/// flag, shared by both connections; the first is the reference every later
/// read of the epoch must equal, and every other read counts as a failed
/// operation (`Report::inconsistent`).
type Seen = Mutex<HashMap<(usize, u64), Vec<(bool, Vec<String>)>>>;

/// Keeps the other connections' operations out of ingests: the ingesting
/// connection waits until every other connection has parked (or left the
/// loop) before it sends `INSERT`, and they go on once `REFRESH SCRAMBLES`
/// has answered.  Their idle time counts in the phase's wall time, so
/// ingest still costs `qps`.
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    turn: Condvar,
}

#[derive(Default)]
struct GateState {
    ingesting: bool,
    parked: usize,
    left: usize,
}

impl Gate {
    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state
            .lock()
            .expect("no client thread panics holding it")
    }

    fn wait<'a>(
        &self,
        g: std::sync::MutexGuard<'a, GateState>,
    ) -> std::sync::MutexGuard<'a, GateState> {
        self.turn
            .wait(g)
            .expect("no client thread panics holding it")
    }

    /// The ingesting connection: returns once the `others` are parked.
    fn close(&self, others: usize) {
        let mut g = self.lock();
        g.ingesting = true;
        self.turn.notify_all();
        while g.parked + g.left < others {
            g = self.wait(g);
        }
    }

    fn open(&self) {
        self.lock().ingesting = false;
        self.turn.notify_all();
    }

    /// Every other connection, before each operation: parks while an
    /// ingest runs.
    fn pass(&self) {
        let mut g = self.lock();
        if g.ingesting {
            g.parked += 1;
            self.turn.notify_all();
            while g.ingesting {
                g = self.wait(g);
            }
            g.parked -= 1;
        }
    }

    fn leave(&self) {
        self.lock().left += 1;
        self.turn.notify_all();
    }
}

struct Shared<'a> {
    /// Even while no ingest is in flight; bumped before and after each one.
    epoch: AtomicU64,
    seen: Seen,
    gate: Gate,
    started: Instant,
    deadline: Instant,
    store: &'a Store,
    batch: AtomicU64,
    /// Also record the per-layer samples (the traced run's extra work).
    traced: bool,
}

fn drive(client: &mut VerdictClient, role: usize, seed: u64, sh: &Shared) -> Samples {
    let slots = window_slots((sh.deadline - sh.started).as_secs());
    let mut s = Samples {
        window_read_ms: vec![Vec::new(); slots],
        window_ops: vec![0; slots],
        ..Samples::default()
    };
    let order = crate::common::shuffled(PANELS.len() * 7, derive(seed, &format!("panels{role}")));
    let mut i = 0u64;
    while Instant::now() < sh.deadline {
        i += 1;
        if role != 0 {
            sh.gate.pass();
        }
        let statements = if role == 0 && i.is_multiple_of(INGEST_EVERY) {
            ingest_op(client, sh, &mut s);
            2
        } else if role == 1 && i.is_multiple_of(STREAM_EVERY) {
            if stream_op(client, ((i / STREAM_EVERY) as usize) % LIVE.len(), &mut s) {
                s.stream_window.push(window(sh));
            }
            1
        } else {
            let panel = order[(i as usize) % order.len()] % PANELS.len();
            if let Some(took) = read_op(client, panel, sh, &mut s) {
                let w = window(sh);
                s.window_read_ms[w].push(took);
            }
            1
        };
        let w = window(sh);
        s.window_ops[w] += statements;
    }
    if role != 0 {
        sh.gate.leave();
    }
    s.ops = i;
    s
}

/// The window of the timed phase the current instant falls in (the last
/// slot collects completions after the deadline).
fn window(sh: &Shared) -> usize {
    let last = window_slots((sh.deadline - sh.started).as_secs()) - 1;
    ((sh.started.elapsed().as_nanos() / WINDOW.as_nanos()) as usize).min(last)
}

/// One panel read; returns its latency in ms when it succeeded.
fn read_op(client: &mut VerdictClient, panel: usize, sh: &Shared, s: &mut Samples) -> Option<f64> {
    let e0 = sh.epoch.load(Ordering::SeqCst);
    let (res, took) = timed(|| client.sql(PANELS[panel]));
    let e1 = sh.epoch.load(Ordering::SeqCst);
    match res {
        Ok(a) => {
            s.read_ms.push(ms(took));
            if sh.traced {
                s.wire_us.push(us(took) - a.header.elapsed_us as f64);
                if a.header.cached {
                    s.hit_us.push(us(took));
                } else {
                    s.miss_ms.push(ms(took));
                }
            }
            s.reads[panel] += 1;
            s.exact_reads[panel] += u64::from(a.header.exact);
            if e0 == e1 && e0.is_multiple_of(2) {
                let fp = remote_fp(&a);
                let mut seen = sh.seen.lock().expect("no client thread panics holding it");
                let answers = seen.entry((panel, e0)).or_default();
                if answers.first().is_some_and(|first| first.1 != fp) {
                    s.changed += 1;
                }
                if !answers.iter().any(|seen| seen.1 == fp) {
                    answers.push((a.header.exact, fp));
                }
            }
            Some(ms(took))
        }
        Err(e) => {
            s.failures.push(format!("panel {panel}: {e}"));
            None
        }
    }
}

/// One `STREAM` of a live panel; returns whether it succeeded.
fn stream_op(client: &mut VerdictClient, live: usize, s: &mut Samples) -> bool {
    let started = Instant::now();
    let mut arrivals = Vec::new();
    let res = client.stream_with(LIVE[live], |_| arrivals.push(started.elapsed()));
    match res {
        Ok(frames) if frames.last().is_some_and(|f| f.last) => {
            s.first_frame_ms.push(ms(arrivals[0]));
            s.stream_ms.push(ms(*arrivals.last().expect("one frame")));
            s.frame_gap_ms
                .extend(arrivals.windows(2).map(|w| ms(w[1] - w[0])));
            s.frames.push(frames.len() as f64);
            let last = frames.last().expect("checked");
            s.stream_finals.push((live, remote_fp(&last.answer)));
            return true;
        }
        Ok(_) => s
            .failures
            .push(format!("STREAM live {live}: no last frame")),
        Err(e) => s.failures.push(format!("STREAM live {live}: {e}")),
    }
    false
}

fn ingest_op(client: &mut VerdictClient, sh: &Shared, s: &mut Samples) {
    let k = sh.batch.fetch_add(1, Ordering::SeqCst) as usize % BATCHES;
    s.ingests += 1;
    let before = sh.traced.then(|| sh.store.stats());
    sh.gate.close(knobs::CLIENTS - 1);
    sh.epoch.fetch_add(1, Ordering::SeqCst);
    let ((r1, t1), (r2, t2)) = ingest_remote(client, k);
    sh.epoch.fetch_add(1, Ordering::SeqCst);
    sh.gate.open();
    match (r1, r2) {
        (Ok(_), Ok(_)) => {
            s.ingest_ms.push(ms(t1 + t2));
            s.insert_ms.push(ms(t1));
            s.refresh_ms.push(ms(t2));
            if let Some(before) = before {
                s.ingest_store.push(delta(&before, &sh.store.stats()));
            }
        }
        (r1, r2) => s.failures.push(format!(
            "ingest batch_{k}: {:?} / {:?}",
            r1.err().map(|e| e.to_string()),
            r2.err().map(|e| e.to_string())
        )),
    }
}

type Timed = (ClientResult<RemoteAnswer>, Duration);

/// `INSERT INTO order_products SELECT * FROM batch_k`, then `REFRESH
/// SCRAMBLES order_products FROM batch_k`, over `client`, each timed.
fn ingest_remote(client: &mut VerdictClient, k: usize) -> (Timed, Timed) {
    let insert = format!("INSERT INTO order_products SELECT * FROM batch_{k}");
    let i = timed(|| client.sql(&insert));
    let f = timed(|| client.refresh("order_products", &format!("batch_{k}")));
    (i, f)
}

/// Runs the closed loop on every connection until `seconds` elapse.
fn phase(set: &mut Setup, seed: u64, seconds: u64, traced: bool) -> (Samples, Duration) {
    let now = Instant::now();
    let shared = Shared {
        epoch: AtomicU64::new(0),
        seen: Mutex::new(HashMap::new()),
        gate: Gate::default(),
        started: now,
        deadline: now + Duration::from_secs(seconds),
        store: &set.store,
        batch: AtomicU64::new(0),
        traced,
    };
    let mut steal = Vec::new();
    let parts: Vec<Samples> = std::thread::scope(|scope| {
        let sh = &shared;
        let steal = &mut steal;
        scope.spawn(move || {
            // Stolen CPU per window, read at each boundary.
            let mut last = steal_ticks();
            for w in 1..window_slots(seconds) as u32 {
                let boundary = sh.started + WINDOW * w;
                std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
                let now = steal_ticks();
                steal.push(now - last);
                last = now;
            }
        });
        let handles: Vec<_> = set
            .clients
            .iter_mut()
            .enumerate()
            .map(|(role, c)| {
                let sh = &shared;
                scope.spawn(move || drive(c, role, seed, sh))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall = shared.started.elapsed();
    let slots = window_slots(seconds);
    let mut all = Samples {
        window_read_ms: vec![Vec::new(); slots],
        window_ops: vec![0; slots],
        window_steal: steal,
        ..Samples::default()
    };
    for p in parts {
        for w in 0..slots {
            all.window_read_ms[w].extend(&p.window_read_ms[w]);
            all.window_ops[w] += p.window_ops[w];
        }
        all.ops += p.ops;
        all.ingests += p.ingests;
        all.changed += p.changed;
        all.read_ms.extend(p.read_ms);
        all.hit_us.extend(p.hit_us);
        all.miss_ms.extend(p.miss_ms);
        all.wire_us.extend(p.wire_us);
        all.first_frame_ms.extend(p.first_frame_ms);
        all.stream_ms.extend(p.stream_ms);
        all.stream_window.extend(p.stream_window);
        all.frame_gap_ms.extend(p.frame_gap_ms);
        all.frames.extend(p.frames);
        all.ingest_ms.extend(p.ingest_ms);
        all.insert_ms.extend(p.insert_ms);
        all.refresh_ms.extend(p.refresh_ms);
        all.ingest_store.extend(p.ingest_store);
        all.stream_finals.extend(p.stream_finals);
        all.failures.extend(p.failures);
        for i in 0..PANELS.len() {
            all.reads[i] += p.reads[i];
            all.exact_reads[i] += p.exact_reads[i];
        }
    }
    let seen = shared.seen.into_inner().expect("client threads have ended");
    for ((panel, epoch), answers) in seen {
        for (exact, fp) in answers {
            if exact {
                all.exact_answers.push((epoch, panel, fp));
            }
        }
    }
    all.exact_answers.sort_by_key(|a| (a.0, a.1));
    (all, wall)
}

/// Runs the workload and fills `r`.
pub fn run(seed: u64, seconds: u64, trace: bool, r: &mut Report) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut set = None;
    while more_setups(&setup_s, trace) {
        let attempt = setup_s.len();
        if let Some(old) = set.take() {
            Setup::teardown(old);
        }
        let (s, took) = timed(|| setup(seed, attempt));
        setup_s.push(took.as_secs_f64());
        set = Some(s?);
    }
    let mut set = set.expect("at least one set-up");
    r.set("setup_s", median(&setup_s), "s");

    let ctx = Arc::clone(set.ctx());
    // A traced run splits its time between the untraced and traced phases.
    let seconds = if trace { seconds.div_ceil(2) } else { seconds };
    let (mut s, wall) = phase(&mut set, seed, seconds, false);
    let statements = s.ops + s.ingest_ms.len() as u64;
    for f in &s.failures {
        r.fail(f);
    }
    r.attempted += statements;
    changed(&s, r);
    // `qps` and the read-latency percentiles summarise the phase's whole
    // windows without much stolen CPU (`kept_windows`), pooled: every
    // statement and every read they completed, ingests and the cache misses
    // after them included.
    let qps = window_qps(&s);
    r.set("qps", qps, "stmt/s");
    let kept = kept_windows(&s);
    let reads: Vec<f64> = kept
        .iter()
        .flat_map(|&w| s.window_read_ms[w].iter().copied())
        .collect();
    r.set("latency_p50_ms", median(&reads), "ms");
    r.set("latency_p90_ms", quantile(&reads, 0.9).unwrap_or(0.0), "ms");
    r.set(
        "first_frame_p50_ms",
        per_live(&s, &s.first_frame_ms, &kept),
        "ms",
    );
    r.set("stream_p50_ms", per_live(&s, &s.stream_ms, &kept), "ms");
    r.set("ingest_p50_ms", median(&s.ingest_ms), "ms");
    describe("untraced", &s, wall);
    let mut finals = std::mem::take(&mut s.stream_finals);
    let mut traced = None;

    if trace {
        // The traced phase: the same loop again on the same server, now
        // also recording the per-layer samples.
        let cache0 = ctx.cache_stats();
        let streams0 = ctx.stream_stats();
        let routed0 = ctx.backend_stats().queries_routed;
        let (mut t, twall) = phase(&mut set, seed, seconds, true);
        let routed = ctx.backend_stats().queries_routed - routed0;
        let tstatements = t.ops + t.ingest_ms.len() as u64;
        for f in &t.failures {
            r.fail(f);
        }
        r.attempted += tstatements;
        changed(&t, r);
        describe("traced", &t, twall);
        r.set("trace.overhead", 1.0 - window_qps(&t) / qps, "fraction");
        let cache = ctx.cache_stats();
        let lookups = (cache.hits + cache.misses) - (cache0.hits + cache0.misses);
        r.set(
            "core.cache.hit_ratio",
            (cache.hits - cache0.hits) as f64 / lookups.max(1) as f64,
            "fraction",
        );
        r.set(
            "core.cache.invalidations",
            (cache.invalidations - cache0.invalidations) as f64,
            "count",
        );
        r.set("core.cache.hit_us", median(&t.hit_us), "us");
        r.set("core.cache.miss_ms", median(&t.miss_ms), "ms");
        report_streams(r, &t, &streams0, &ctx.stream_stats());
        r.set(
            "engine.calls_per_stmt",
            routed as f64 / tstatements.max(1) as f64,
            "count",
        );
        r.set("engine.insert_ms", median(&t.insert_ms), "ms");
        r.set("core.sample.refresh_ms", median(&t.refresh_ms), "ms");
        r.set("core.sample.build_ms", median(&set.build_ms), "ms");
        let per_ingest = |f: fn(&StoreStats) -> u64| {
            median(
                &t.ingest_store
                    .iter()
                    .map(|d| f(d) as f64)
                    .collect::<Vec<_>>(),
            )
        };
        r.set(
            "store.pages_written",
            per_ingest(|d| d.pages_written),
            "count",
        );
        r.set("store.wal_syncs", per_ingest(|d| d.wal_syncs), "count");
        r.set("store.pages_read", per_ingest(|d| d.pages_read), "count");
        r.set(
            "store.setup_pages_written",
            set.setup_store.pages_written as f64,
            "count",
        );
        r.set(
            "store.setup_wal_syncs",
            set.setup_store.wal_syncs as f64,
            "count",
        );
        r.set("server.wire_us", median(&t.wire_us), "us");
        server_counts(&set.server, r);
        finals.extend(std::mem::take(&mut t.stream_finals));
        let mut ping = Vec::new();
        for _ in 0..200 {
            r.attempted += 1;
            let (res, took) = timed(|| set.clients[0].ping());
            match res {
                Ok(()) => ping.push(us(took)),
                Err(e) => r.fail(format!("PING: {e}")),
            }
        }
        r.set("server.ping_us", median(&ping), "us");
        let panels: Vec<String> = PANELS.iter().map(|p| p.to_string()).collect();
        let mut stages = Stages::default();
        let cfg = VerdictSession::new(Arc::clone(&ctx)).effective_config();
        let mut approx = 0;
        for sql in &panels {
            r.attempted += 1;
            let replayed = uncached(&ctx, sql).and_then(|(fp, exact)| {
                approx += usize::from(!exact);
                let table = stages.replay_query(&ctx, sql, &cfg, exact)?;
                Ok(fingerprint(&table) == fp)
            });
            if !matches!(replayed, Ok(true)) {
                r.fail(format!(
                    "replay of {sql} differs from the one-shot answer: {replayed:?}"
                ));
            }
        }
        stages.report(r);
        r.set(
            "core.approx_frac",
            approx as f64 / panels.len() as f64,
            "fraction",
        );
        let diffs = passthrough_probe(&ctx, ctx.connection().as_ref(), &panels, r);
        r.set("core.session.passthrough_us", median(&diffs), "us");
        traced = Some(t);
    }

    let modes = verify_after(&mut set, &finals, r);
    println!(
        "dashboard-tcp: {} panel reads served in the other kind than a recompute",
        mode_flips(&s, &modes)
    );
    if trace {
        let flips = race_probe(&mut set, &modes, r);
        r.set("core.cache.mode_flips", flips as f64, "count");
    }
    r.set("peak_rss_mb", crate::common::peak_rss_mib(), "MiB");
    set.teardown();
    let phases: Vec<&Samples> = std::iter::once(&s).chain(traced.as_ref()).collect();
    verify_exact_answers(seed, &phases, r)?;
    if !trace {
        score(seed, r)?;
    }
    Ok(())
}

/// Counts the phase's reads that differed from their epoch's first answer
/// as failed operations.
fn changed(s: &Samples, r: &mut Report) {
    r.inconsistent(
        s.changed,
        format!(
            "{} panel reads differed from their panel's first answer since the last ingest",
            s.changed
        ),
    );
}

/// Every exact answer a panel read got between two ingests equals a
/// `BYPASS` recompute of the same data version: a fresh engine with the
/// run's data replays the phases' ingests in order and, at each epoch,
/// recomputes the panels that were served exactly.
fn verify_exact_answers(seed: u64, phases: &[&Samples], r: &mut Report) -> Result<(), String> {
    let conn: Arc<dyn Backend> = seeded_engine(seed, false, DASHBOARD_BATCH_SCALE);
    let ctx = Arc::new(VerdictContext::new(conn, config(seed, 0)));
    let mut writer = VerdictSession::new(Arc::clone(&ctx));
    let mut checked = 0;
    for s in phases {
        if s.ingests != s.ingest_ms.len() as u64 {
            // A failed ingest (already counted) leaves the data unknown.
            return Ok(());
        }
        let mut next = s.exact_answers.iter().peekable();
        for j in 0..=s.ingests {
            while let Some((_, panel, fp)) = next.next_if(|a| a.0 == 2 * j) {
                let sql = PANELS[*panel];
                let bypass = uncached(&ctx, &format!("BYPASS {sql}"));
                r.check(bypass.is_ok_and(|b| b.0 == *fp), || {
                    format!("panel {sql}: exact answer after {j} ingests differs from BYPASS")
                });
                checked += 1;
            }
            if j < s.ingests {
                let k = j as usize % BATCHES;
                let insert = format!("INSERT INTO order_products SELECT * FROM batch_{k}");
                writer
                    .execute(&insert)
                    .map_err(|e| format!("{insert}: {e}"))?;
            }
        }
    }
    println!("dashboard-tcp: {checked} exact panel answers checked against BYPASS");
    Ok(())
}

/// A stream time (`v` holds one per completed stream) over the streams that
/// completed in the `kept` windows, or over all where that leaves a live
/// panel none: the mean of the live panels' medians.  Each live panel has a
/// mode of its own, so a median over both would sit between the two.
fn per_live(s: &Samples, v: &[f64], kept: &[usize]) -> f64 {
    let groups = |only_kept: bool| -> Vec<Vec<f64>> {
        (0..LIVE.len())
            .map(|l| {
                (0..v.len())
                    .filter(|&i| s.stream_finals[i].0 == l)
                    .filter(|&i| !only_kept || kept.contains(&s.stream_window[i]))
                    .map(|i| v[i])
                    .collect()
            })
            .collect()
    };
    let mut g = groups(true);
    if g.iter().any(Vec::is_empty) {
        g = groups(false);
    }
    quantile_of_medians(&g, 0.5)
}

fn report_streams(r: &mut Report, s: &Samples, before: &StreamStats, after: &StreamStats) {
    let all: Vec<usize> = (0..s.window_ops.len()).collect();
    r.set(
        "core.progress.first_frame_ms",
        per_live(s, &s.first_frame_ms, &all),
        "ms",
    );
    r.set("core.progress.frame_ms", median(&s.frame_gap_ms), "ms");
    r.set("core.progress.frames", median(&s.frames), "count");
    let started = after.started - before.started;
    r.set(
        "core.progress.fallback_frac",
        (after.fallbacks - before.fallbacks) as f64 / started.max(1) as f64,
        "fraction",
    );
}

/// Runs `sql` in-process with the answer cache off: (fingerprint, exact).
fn uncached(ctx: &Arc<VerdictContext>, sql: &str) -> Result<(Vec<String>, bool), String> {
    let mut session = VerdictSession::new(Arc::clone(ctx));
    session
        .execute("SET cache = off")
        .map_err(|e| format!("SET cache = off: {e}"))?;
    match session.execute(sql) {
        Ok(VerdictResponse::Answer(a)) => Ok((fingerprint(&a.table), a.exact)),
        Ok(other) => Err(format!("{sql}: unexpected {} response", other.kind())),
        Err(e) => Err(format!("{sql}: {e}")),
    }
}

/// After the run: every panel read over the wire equals an uncached
/// in-process recompute, and every stream's last frame equals the one-shot
/// answer of its query.
fn verify_after(set: &mut Setup, finals: &[(usize, Vec<String>)], r: &mut Report) -> Vec<bool> {
    let ctx = Arc::clone(set.ctx());
    let mut modes = Vec::new();
    for sql in PANELS {
        let wire = set.clients[0].sql(sql);
        let local = uncached(&ctx, sql);
        modes.push(local.as_ref().is_ok_and(|l| l.1));
        match (&wire, local) {
            (Ok(w), Ok(l)) if remote_fp(w) == l.0 => r.check(true, String::new),
            // Served exactly where a recompute approximates (see
            // `race_probe`): a failed operation, and a wrong answer unless it
            // equals `BYPASS`.
            (Ok(w), Ok(_))
                if w.header.exact
                    && uncached(&ctx, &format!("BYPASS {sql}"))
                        .is_ok_and(|e| e.0 == remote_fp(w)) =>
            {
                r.attempted += 1;
                r.inconsistent(
                    1,
                    format!("panel {sql}: served exactly where an uncached recompute approximates"),
                );
            }
            _ => r.check(false, || {
                format!("panel {sql}: served answer differs from an uncached recompute")
            }),
        }
    }
    let one_shot: Vec<Result<(Vec<String>, bool), String>> =
        LIVE.iter().map(|sql| uncached(&ctx, sql)).collect();
    for (live, fp) in finals {
        r.check(matches!(&one_shot[*live], Ok(f) if f.0 == *fp), || {
            format!(
                "STREAM {}: last frame differs from the one-shot answer",
                LIVE[*live]
            )
        });
    }
    modes
}

/// Ingests that panel reads race, traced runs only: while connection 0 runs
/// [`RACE_INGESTS`] ingests, connection 1 reads the approximated panels over
/// `order_products` without pause.
/// After each ingest connection 0 reads every panel once; each served in the
/// other kind (exact or approximate) than an uncached recompute gives
/// (`exact_modes`) is a flip, returned.  A read racing `REFRESH SCRAMBLES`
/// (which deregisters the scrambles while it appends) is answered exactly,
/// and that answer is cached with only the base table as a dependency, so it
/// outlives the refresh; this is why the timed phases keep reads out of
/// ingests ([`Gate`]).  Runs last: it leaves the cache in that state.
fn race_probe(set: &mut Setup, exact_modes: &[bool], r: &mut Report) -> u64 {
    let (writer, reader) = set.clients.split_at_mut(1);
    let (writer, reader) = (&mut writer[0], &mut reader[0]);
    let raced: Vec<usize> = (0..PANELS.len())
        .filter(|&p| PANELS[p].contains("order_products") && !exact_modes[p])
        .collect();
    let stop = AtomicBool::new(false);
    let mut flips = 0;
    let (reads, errors) = std::thread::scope(|scope| {
        let racing = scope.spawn(|| {
            let (mut reads, mut errors) = (0u64, Vec::new());
            while !stop.load(Ordering::SeqCst) {
                let panel = raced[reads as usize % raced.len()];
                reads += 1;
                if let Err(e) = reader.sql(PANELS[panel]) {
                    errors.push(format!("racing read of panel {panel}: {e}"));
                }
            }
            (reads, errors)
        });
        for k in 0..RACE_INGESTS {
            r.attempted += 2;
            let ((i, _), (f, _)) = ingest_remote(writer, k);
            if let Err(e) = i.and(f) {
                r.fail(format!("racing ingest batch_{k}: {e}"));
            }
            for (panel, sql) in PANELS.iter().enumerate() {
                r.attempted += 1;
                match writer.sql(sql) {
                    Ok(a) => flips += u64::from(a.header.exact != exact_modes[panel]),
                    Err(e) => r.fail(format!("panel {panel} after a racing ingest: {e}")),
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
        racing.join().expect("the racing reader does not panic")
    });
    r.attempted += reads;
    for e in errors {
        r.fail(e);
    }
    println!(
        "dashboard-tcp race probe: {flips} of {} panel reads after {RACE_INGESTS} ingests \
         raced by {reads} reads served in the other kind than a recompute",
        RACE_INGESTS * PANELS.len()
    );
    flips
}

/// Panel reads answered in the other kind (exact or approximate) than an
/// uncached recompute gives.
fn mode_flips(s: &Samples, exact_modes: &[bool]) -> u64 {
    (0..PANELS.len())
        .map(|p| {
            if exact_modes[p] {
                s.reads[p] - s.exact_reads[p]
            } else {
                s.exact_reads[p]
            }
        })
        .sum()
}

/// Accuracy of the panels and live panels over [`ACCURACY_DRAWS`] scramble
/// draws, on a fresh in-process set-up of the same data: the run's data
/// depend on how many ingests it timed, the scores must not.
fn score(seed: u64, r: &mut Report) -> Result<(), String> {
    let conn: Arc<dyn Backend> = seeded_engine(seed, false, DASHBOARD_BATCH_SCALE);
    let ctx = Arc::new(VerdictContext::new(conn, config(seed, 0)));
    let mut session = VerdictSession::new(Arc::clone(&ctx));
    for ddl in SCRAMBLES {
        session.execute(ddl).map_err(|e| format!("{ddl}: {e}"))?;
    }
    let sqls: Vec<String> = PANELS
        .iter()
        .chain(LIVE.iter())
        .map(|s| s.to_string())
        .collect();
    let labels: Vec<String> = (0..PANELS.len())
        .map(|i| format!("panel{i}"))
        .chain((0..LIVE.len()).map(|i| format!("live{i}")))
        .collect();
    let score = score_draws(&ctx, &SCRAMBLES, &labels, &sqls, None, ACCURACY_DRAWS, r);
    println!(
        "dashboard-tcp accuracy: {} cells scored over {ACCURACY_DRAWS} scramble draws",
        score.cells
    );
    r.set("coverage", score.coverage(), "fraction");
    r.set("rel_err_p50", score.rel_err_p50(), "fraction");
    r.set("group_recall", score.recall(), "fraction");
    Ok(())
}

/// The whole windows the figures summarise: those after the warm-up with
/// little stolen CPU (`least_stolen`).
fn kept_windows(s: &Samples) -> Vec<usize> {
    let skip = if s.window_steal.len() > WARMUP_WINDOWS {
        WARMUP_WINDOWS
    } else {
        0
    };
    let seconds = vec![WINDOW.as_secs_f64(); s.window_steal.len() - skip];
    least_stolen(&s.window_steal[skip..], &seconds)
        .into_iter()
        .map(|w| w + skip)
        .collect()
}

/// Statements per second over [`kept_windows`]: the statements they
/// completed over their total length.
fn window_qps(s: &Samples) -> f64 {
    let kept = kept_windows(s);
    let ops: u64 = kept.iter().map(|&w| s.window_ops[w]).sum();
    ops as f64 / (kept.len() as f64 * WINDOW.as_secs_f64())
}

fn describe(label: &str, s: &Samples, wall: Duration) {
    let ingest_share = s.ingest_ms.iter().sum::<f64>() / 1e3 / wall.as_secs_f64();
    println!(
        "dashboard-tcp {label}: {} reads, {} streams, {} ingests ({:.1}% of wall time), \
         {} failures, {:.2} s",
        s.read_ms.len(),
        s.stream_ms.len(),
        s.ingest_ms.len(),
        ingest_share * 100.0,
        s.failures.len(),
        wall.as_secs_f64()
    );
    let q: Vec<String> = [0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999]
        .iter()
        .map(|p| {
            format!(
                "p{}={:.3}",
                p * 100.0,
                quantile(&s.read_ms, *p).unwrap_or(0.0)
            )
        })
        .collect();
    println!("dashboard-tcp {label} read latency ms: {}", q.join(" "));
    for (l, sql) in LIVE.iter().enumerate() {
        let of = |v: &[f64]| -> Vec<f64> {
            (0..v.len())
                .filter(|&i| s.stream_finals[i].0 == l)
                .map(|i| v[i])
                .collect()
        };
        println!(
            "dashboard-tcp {label} STREAM {sql}: first frame p50={:.3} ms, last frame p50={:.3} ms",
            median(&of(&s.first_frame_ms)),
            median(&of(&s.stream_ms))
        );
    }
    if !s.miss_ms.is_empty() {
        println!(
            "dashboard-tcp {label}: {:.2}% of reads missed the cache",
            100.0 * s.miss_ms.len() as f64 / s.read_ms.len().max(1) as f64
        );
    }
}
