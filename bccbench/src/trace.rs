//! The traced run's per-layer account, measured from outside the server in
//! two ways:
//!
//! 1. the server's own `stats` and `metrics` verbs (exact counts and
//!    microsecond sums) plus `/proc/<pid>`, differenced across snapshots;
//! 2. an in-process replay of the workload's distinct requests through the
//!    layers' public functions, timing each call.
//!
//! Every breakdown ends in an explicit `unaccounted` remainder, so the
//! balance tables add up to the client's mean round trip by construction.

use std::path::Path;
use std::time::Instant;

use bcc_core::{
    BccIndex, BccParams, BccQuery, BccResult, L2pBcc, LpBcc, MbccParams, MbccQuery, MultiLabelBcc,
    OnlineBcc, SearchError, SearchStats,
};
use bcc_service::{BccService, GraphRegistry, Method, QueryResponse, ServiceConfig};

use crate::check::replay_batch;
use crate::outcome::Tally;
use crate::server::Snapshot;
use crate::stats::{median, Summary};
use crate::workload::{Op, Played, Stage, Workload};

/// One per-layer metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Every per-layer metric name with its unit, in report order. Each traced
/// run prints all of them (0 where the workload does not exercise the
/// layer).
pub const LAYER_METRICS: [(&str, &str); 51] = [
    ("session.search_wire_ms", "ms"),
    ("session.msearch_wire_ms", "ms"),
    ("session.commit_wire_ms", "ms"),
    ("codec.bytes_out_per_req", "B"),
    ("request.parse_us", "us"),
    ("response.encode_us", "us"),
    ("server.queue_wait_ms", "ms"),
    ("server.rejected", "count"),
    ("server.timeouts", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookups", "count"),
    ("cache.evictions", "count"),
    ("cache.invalidated", "count"),
    ("cache.retained", "count"),
    ("pool.exec_ms", "ms"),
    ("pool.busy_frac", "ratio"),
    ("server.cpu_ms_per_req", "ms"),
    ("scatter.engine_runs_per_msearch", "ratio"),
    ("scatter.msearch_base", "count"),
    ("scatter.pair_retries", "count"),
    ("mbcc.search_ms", "ms"),
    ("scatter.gap_ms", "ms"),
    ("engine.query_distance_ms", "ms"),
    ("engine.dist_expand_ms", "ms"),
    ("engine.dist_merge_ms", "ms"),
    ("engine.core_decomp_ms", "ms"),
    ("engine.butterfly_counting_ms", "ms"),
    ("engine.leader_pairing_ms", "ms"),
    ("engine.unaccounted_ms", "ms"),
    ("candidate.g0_ms", "ms"),
    ("candidate.g0_allcores_ms", "ms"),
    ("search.online_ms", "ms"),
    ("search.lp_ms", "ms"),
    ("search.l2p_ms", "ms"),
    ("search.online_allcores_ms", "ms"),
    ("search.lp_allcores_ms", "ms"),
    ("search.l2p_allcores_ms", "ms"),
    ("engine.butterfly_countings_per_query", "count"),
    ("engine.iterations_per_query", "count"),
    ("engine.full_bfs_per_query", "count"),
    ("engine.vertices_deleted_per_query", "count"),
    ("engine.no_answer_ratio", "ratio"),
    ("commit.overlay_apply_ms", "ms"),
    ("commit.cascade_ms", "ms"),
    ("commit.chi_delta_ms", "ms"),
    ("commit.cache_invalidate_ms", "ms"),
    ("commit.unaccounted_ms", "ms"),
    ("commit.dirty_vertices", "count"),
    ("stage.rtt_ms", "ms"),
    ("registry.load_ms", "ms"),
    ("index.build_ms", "ms"),
];

/// Extra per-layer metrics about the run itself.
pub const RUN_METRICS: [(&str, &str); 1] = [("failure_rate", "ratio")];

/// Server snapshots bracketing the measured activity of each segment's
/// server: before the msearch probe, before the window, after the window,
/// and after the commit probe; with the server's CPU seconds at the window's
/// start and end. Deltas sum over segments.
pub struct Brackets {
    pub segments: Vec<([Snapshot; 4], [f64; 2])>,
}

impl Brackets {
    /// Sum over segments of `f(snapshots)`.
    fn sum(&self, f: impl Fn(&[Snapshot; 4]) -> f64) -> f64 {
        self.segments.iter().map(|(snaps, _)| f(snaps)).sum()
    }

    /// `stats` counter delta over the window.
    fn window(&self, path: &[&str]) -> f64 {
        self.sum(|s| s[2].stats.num(path) - s[1].stats.num(path))
    }

    /// `stats` counter delta over window and probes.
    fn whole(&self, path: &[&str]) -> f64 {
        self.sum(|s| s[3].stats.num(path) - s[0].stats.num(path))
    }

    /// `metrics` histogram `(count, sum in ms)` delta; `whole` selects
    /// window + probes instead of the window.
    fn hist(&self, path: &[&str], whole: bool) -> (f64, f64) {
        let (from, to) = if whole { (0, 3) } else { (1, 2) };
        let delta = |field: &str| {
            let mut p = path.to_vec();
            p.push(field);
            self.sum(|s| s[to].metrics.num(&p) - s[from].metrics.num(&p))
        };
        (delta("count"), delta("sum_us") / 1e3)
    }

    /// Server CPU seconds used during the windows.
    fn cpu_s(&self) -> f64 {
        self.segments.iter().map(|(_, cpu)| cpu[1] - cpu[0]).sum()
    }

    /// Bytes of the `stats` + `metrics` responses that the window's
    /// opening snapshot adds to each segment's window `bytes_out` delta.
    fn control_bytes(&self) -> f64 {
        self.sum(|s| (s[1].stats_line_len + s[1].metrics_line_len) as f64)
    }

    /// Worker threads per server.
    fn workers(&self) -> f64 {
        self.segments
            .first()
            .map_or(1.0, |(s, _)| s[1].stats.num(&["workers"]).max(1.0))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Round trips of the client's `op` samples (window and probes) that got a
/// response.
fn client(played: &Played, op: Op) -> Vec<f64> {
    played
        .samples
        .iter()
        .filter(|s| s.op == op && s.response.is_some())
        .map(|s| s.rtt_ms())
        .collect()
}

/// The per-layer account and its printed tables.
pub struct Account {
    pub metrics: Vec<Metric>,
    pub tables: Vec<String>,
}

/// Measures every per-layer metric of a traced run.
pub fn account(
    w: &Workload,
    played: &Played,
    brackets: &Brackets,
    tally: &Tally,
    graph_path: &Path,
) -> Account {
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let mut tables = Vec::new();
    let b = brackets;
    let window_reqs = played
        .samples
        .iter()
        .filter(|s| s.stage == Stage::Window && s.response.is_some())
        .count() as f64;

    // Session + codec: client round trip minus the server's own verb latency.
    for (name, op, verb) in [
        ("session.search_wire_ms", Op::Search, "search"),
        ("session.msearch_wire_ms", Op::Msearch, "msearch"),
        ("session.commit_wire_ms", Op::Commit, "commit"),
    ] {
        let rtt = client(played, op);
        let (count, sum) = b.hist(&["verbs", verb], true);
        let wire = if rtt.is_empty() || count == 0.0 {
            0.0
        } else {
            Summary::of(&rtt).mean - sum / count
        };
        values.push((name, wire));
    }
    values.push((
        "codec.bytes_out_per_req",
        ratio(b.window(&["bytes_out"]) - b.control_bytes(), window_reqs),
    ));

    // Server: admission queue, rejections, timeouts.
    let (qw_count, qw_sum) = b.hist(&["queue_wait"], false);
    values.push(("server.queue_wait_ms", ratio(qw_sum, qw_count)));
    values.push(("server.rejected", b.whole(&["rejected_overloaded"])));
    values.push((
        "server.timeouts",
        b.whole(&["timeouts"]) + b.whole(&["admission_timeouts"]),
    ));

    // Cache.
    let (hits, misses) = (b.window(&["cache_hits"]), b.window(&["cache_misses"]));
    values.push(("cache.hit_ratio", ratio(hits, hits + misses)));
    values.push(("cache.lookups", hits + misses));
    values.push(("cache.evictions", b.whole(&["cache_evictions"])));
    values.push(("cache.invalidated", b.whole(&["cache_invalidated"])));
    values.push(("cache.retained", b.whole(&["cache_retained"])));

    // Pool and process.
    let executed = b.window(&["searches_executed"]);
    let exec_ms = b.window(&["total_search_time_us"]) / 1e3;
    values.push(("pool.exec_ms", ratio(exec_ms, executed)));
    values.push((
        "pool.busy_frac",
        ratio(exec_ms, played.window_s * 1e3 * b.workers()),
    ));
    values.push(("server.cpu_ms_per_req", ratio(b.cpu_s() * 1e3, window_reqs)));

    // Engine phases, per executed search in the window.
    let phase = |p: &str| b.hist(&["phases", p], false).1;
    let engine: Vec<(&str, f64)> = [
        ("engine.query_distance_ms", "query_distance"),
        ("engine.dist_expand_ms", "query_dist_expand"),
        ("engine.dist_merge_ms", "query_dist_merge"),
        ("engine.core_decomp_ms", "core_decomp"),
        ("engine.butterfly_counting_ms", "butterfly_counting"),
        ("engine.leader_pairing_ms", "leader_pairing"),
    ]
    .into_iter()
    .map(|(name, p)| (name, phase(p)))
    .collect();
    // Expansion and merge are sub-phases of the distance phase.
    let named: f64 = engine
        .iter()
        .filter(|(n, _)| !n.contains("dist_"))
        .map(|(_, v)| v)
        .sum();
    for &(name, total) in &engine {
        values.push((name, ratio(total, executed)));
    }
    values.push(("engine.unaccounted_ms", ratio(exec_ms - named, executed)));

    // Commit stages, per commit (window or probe).
    let (commits, commit_server_ms) = b.hist(&["verbs", "commit"], true);
    let stages: Vec<(&str, f64)> = [
        ("commit.overlay_apply_ms", "overlay_apply"),
        ("commit.cascade_ms", "cascade"),
        ("commit.chi_delta_ms", "chi_delta"),
        ("commit.cache_invalidate_ms", "cache_invalidate"),
    ]
    .into_iter()
    .map(|(name, p)| (name, b.hist(&["phases", p], true).1))
    .collect();
    let staged: f64 = stages.iter().map(|(_, v)| v).sum();
    for &(name, total) in &stages {
        values.push((name, ratio(total, commits)));
    }
    values.push((
        "commit.unaccounted_ms",
        ratio(commit_server_ms - staged, commits),
    ));
    let stage_rtt = client(played, Op::Stage);
    values.push(("stage.rtt_ms", Summary::of(&stage_rtt).mean));
    values.push(("scatter.pair_retries", b.whole(&["faults", "pair_retries"])));

    // The per-query thread count the server resolved its `query-threads`
    // setting to, read from the server itself: only the parallel
    // query-distance path records the frontier-expand sub-phase; the
    // sequential path never does.
    let expand_runs = b.hist(&["phases", "query_dist_expand"], false).0;
    let threads = if expand_runs > 0.0 { 0 } else { 1 };
    tables.push(format!(
        "per-query threads on the server: {}; {expand_runs} frontier-expand \
         sub-phases over {executed} executed searches in the window",
        if threads == 0 {
            "all cores"
        } else {
            "1 thread"
        },
    ));
    // In-process replay through the public functions.
    let replay = replay(w, played, graph_path, threads);
    values.extend(replay.values.iter().copied());
    values.push(("failure_rate", tally.failure_rate()));

    // Balance tables.
    tables.push(query_table(played, b, &engine, exec_ms));
    tables.push(commit_table(played, &stages, commit_server_ms, commits));
    tables.extend(replay.notes);

    let lookup = |name: &str| {
        values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0.0)
    };
    let metrics = LAYER_METRICS
        .iter()
        .chain(RUN_METRICS.iter())
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: lookup(name),
        })
        .collect();
    Account { metrics, tables }
}

/// The window's query requests (search + msearch), split into layer self
/// times whose means add up to the client's mean latency.
fn query_table(played: &Played, b: &Brackets, engine: &[(&str, f64)], exec_ms: f64) -> String {
    let window: Vec<_> = played
        .samples
        .iter()
        .filter(|s| {
            s.stage == Stage::Window
                && matches!(s.op, Op::Search | Op::Msearch)
                && s.response.is_some()
        })
        .collect();
    let n = window.len() as f64;
    let rtt: f64 = window.iter().map(|s| s.rtt_ms()).sum();
    let server_ms = b.hist(&["verbs", "search"], false).1 + b.hist(&["verbs", "msearch"], false).1;
    let queue_ms = b.hist(&["queue_wait"], false).1;
    let get = |name: &str| {
        engine
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0.0)
    };
    let qd_self = get("engine.query_distance_ms")
        - get("engine.dist_expand_ms")
        - get("engine.dist_merge_ms");
    let phases = get("engine.query_distance_ms")
        + get("engine.core_decomp_ms")
        + get("engine.butterfly_counting_ms")
        + get("engine.leader_pairing_ms");
    let rows = [
        (
            "service.session+codec: wire (rtt - server verb latency)",
            rtt - server_ms,
        ),
        ("service.server: admission queue wait", queue_ms),
        ("core.fast_dist: query distance (self)", qd_self),
        (
            "core.fast_dist: frontier expand",
            get("engine.dist_expand_ms"),
        ),
        (
            "core.fast_dist: frontier merge",
            get("engine.dist_merge_ms"),
        ),
        (
            "cohesion.core_decomp: label-core decomposition",
            get("engine.core_decomp_ms"),
        ),
        (
            "butterfly.counting: butterfly counting",
            get("engine.butterfly_counting_ms"),
        ),
        (
            "butterfly.leader: leader pairing",
            get("engine.leader_pairing_ms"),
        ),
        (
            "core.engine: unaccounted (pool exec - phases)",
            exec_ms - phases,
        ),
        (
            "service: unaccounted (verb latency - queue - exec)",
            server_ms - queue_ms - exec_ms,
        ),
    ];
    balance_table(
        "query requests (search + msearch) in the window",
        n,
        rtt,
        &rows,
    )
}

/// Commits (window or probe), split the same way.
fn commit_table(played: &Played, stages: &[(&str, f64)], server_ms: f64, commits: f64) -> String {
    let rtt: Vec<f64> = client(played, Op::Commit);
    let total: f64 = rtt.iter().sum();
    let mut rows: Vec<(&str, f64)> = vec![(
        "service.session+codec: wire (rtt - server verb latency)",
        total - server_ms,
    )];
    let staged: f64 = stages.iter().map(|(_, v)| v).sum();
    rows.extend(stages.iter().map(|&(name, v)| (name, v)));
    rows.push((
        "service.registry: unaccounted (verb latency - stages)",
        server_ms - staged,
    ));
    let label = format!("commits ({} server-side)", commits);
    balance_table(&label, rtt.len() as f64, total, &rows)
}

/// Renders `rows` (totals in ms over `n` requests) as means per request,
/// with the client total they must add up to.
fn balance_table(title: &str, n: f64, total: f64, rows: &[(&str, f64)]) -> String {
    let mut out = format!("balance: {title}, n={n}\n");
    let mut sum = 0.0;
    for (name, v) in rows {
        let mean = ratio(*v, n);
        sum += mean;
        out.push_str(&format!(
            "  {name:<58} {mean:>10.4} ms  {:>6.1}%\n",
            100.0 * ratio(*v, total)
        ));
    }
    out.push_str(&format!("  {:<58} {:>10.4} ms\n", "sum of rows", sum));
    out.push_str(&format!(
        "  {:<58} {:>10.4} ms",
        "client mean latency",
        ratio(total, n)
    ));
    out
}

/// What the in-process replay measured.
struct Replay {
    values: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

/// How many distinct requests of each kind the replay runs.
fn replay_budget(w: &Workload) -> (usize, usize) {
    match w.name {
        "large-search" => (30, 20),
        _ => (64, 32),
    }
}

/// Replays the workload's distinct requests through the layers' public
/// functions on the initial graph, timing each call. Thread-dependent
/// layers run at `threads`, the server's resolved per-query count, and
/// again on all cores (`*_allcores_ms`), the path AUTO takes above its
/// cutover.
fn replay(w: &Workload, played: &Played, graph_path: &Path, threads: usize) -> Replay {
    let mut values = Vec::new();
    let mut notes = Vec::new();
    let g = w.graph();
    // Setup layers: graph.io and core.index.
    let loads: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let loaded =
                bcc_graph::io::read_graph_file(graph_path).expect("graph file was just written");
            std::hint::black_box(loaded);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    values.push(("registry.load_ms", median(&loads)));
    let t = Instant::now();
    let index = BccIndex::build_with_threads(g, 0);
    values.push(("index.build_ms", t.elapsed().as_secs_f64() * 1e3));
    let coreness: Vec<u32> = g.vertices().map(|v| index.coreness(v)).collect();

    let (n_search, n_multi) = replay_budget(w);
    let searches: Vec<usize> = w.search_pool.iter().copied().take(n_search).collect();
    let multis: Vec<usize> = w.msearch_probe.iter().copied().take(n_multi).collect();

    // core.online / core.local per method, core.candidate, SearchStats.
    let mut per_method: [(Vec<f64>, &str); 3] = [
        (Vec::new(), "search.online_ms"),
        (Vec::new(), "search.lp_ms"),
        (Vec::new(), "search.l2p_ms"),
    ];
    let mut all_cores: [(Vec<f64>, &str); 3] = [
        (Vec::new(), "search.online_allcores_ms"),
        (Vec::new(), "search.lp_allcores_ms"),
        (Vec::new(), "search.l2p_allcores_ms"),
    ];
    let mut g0 = Vec::new();
    let mut g0_all_cores = Vec::new();
    let mut stats = SearchStats::default();
    let (mut answered, mut no_answer) = (0u64, 0u64);
    let mut results: Vec<(usize, BccResult)> = Vec::new();
    for &qi in &searches {
        let q = &w.queries[qi];
        let query = BccQuery::pair(q.vertices[0], q.vertices[1]);
        let params = BccParams::new(
            coreness[q.vertices[0].index()],
            coreness[q.vertices[1].index()],
            1,
        );
        let run = |threads: usize| -> (Result<BccResult, SearchError>, f64) {
            let t = Instant::now();
            let result = match q.method {
                "online" => OnlineBcc::default()
                    .with_query_threads(threads)
                    .search(g, &query, &params),
                "lp" => LpBcc::default()
                    .with_query_threads(threads)
                    .search(g, &query, &params),
                _ => L2pBcc::default()
                    .with_query_threads(threads)
                    .search(g, &index, &query, &params),
            };
            (result, t.elapsed().as_secs_f64() * 1e3)
        };
        let (result, ms) = run(threads);
        let slot = match q.method {
            "online" => 0,
            "lp" => 1,
            _ => 2,
        };
        per_method[slot].0.push(ms);
        all_cores[slot].0.push(run(0).1);
        match result {
            Ok(r) => {
                answered += 1;
                stats.merge(&r.stats);
                results.push((qi, r));
            }
            Err(_) => no_answer += 1,
        }
        let mq = MbccQuery::new(q.vertices.clone());
        let mp = MbccParams::new(vec![params.k1, params.k2], 1);
        for (threads, times) in [(threads, &mut g0), (0, &mut g0_all_cores)] {
            let mut scratch = SearchStats::default();
            let t = Instant::now();
            let found = bcc_core::candidate::Candidate::find_g0_threaded(
                g,
                &mq,
                &mp,
                threads,
                &mut scratch,
            );
            times.push(t.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(found.is_ok());
        }
    }
    for (samples, name) in per_method.iter().chain(&all_cores) {
        values.push((
            *name,
            if samples.is_empty() {
                0.0
            } else {
                Summary::of(samples).mean
            },
        ));
    }
    values.push(("candidate.g0_ms", Summary::of(&g0).mean));
    values.push(("candidate.g0_allcores_ms", Summary::of(&g0_all_cores).mean));
    let per = |x: u64| ratio(x as f64, answered as f64);
    values.push((
        "engine.butterfly_countings_per_query",
        per(stats.butterfly_countings),
    ));
    values.push(("engine.iterations_per_query", per(stats.iterations)));
    values.push(("engine.full_bfs_per_query", per(stats.full_bfs_runs)));
    values.push((
        "engine.vertices_deleted_per_query",
        per(stats.vertices_deleted),
    ));
    values.push((
        "engine.no_answer_ratio",
        ratio(no_answer as f64, (answered + no_answer) as f64),
    ));
    notes.push(format!(
        "replay: {} searches ({} answered) at query-threads {} on {} vertices",
        searches.len(),
        answered,
        if threads == 0 {
            "all".to_string()
        } else {
            threads.to_string()
        },
        g.vertex_count()
    ));

    // core.multi alone, then the scatter layer on a cache-off service.
    let mut mbcc = Vec::new();
    for &qi in &multis {
        let q = &w.queries[qi];
        let method = if q.method == "l2p" {
            Method::L2p
        } else {
            Method::Lp
        };
        let query = MbccQuery::new(q.vertices.clone());
        let params = MbccParams::new(q.vertices.iter().map(|v| coreness[v.index()]).collect(), 1);
        let searcher =
            MultiLabelBcc::with_strategy(method.multi_strategy()).with_query_threads(threads);
        let t = Instant::now();
        let r = searcher.search(g, Some(&index), &query, &params);
        mbcc.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(r.is_ok());
    }
    let mbcc_ms = Summary::of(&mbcc).mean;
    values.push(("mbcc.search_ms", mbcc_ms));
    let service = BccService::with_graph(
        ServiceConfig {
            cache_capacity: 0,
            default_graph: "g".into(),
            ..ServiceConfig::default()
        },
        g.clone(),
    );
    // Build the index before timing, as the server's set-up does.
    std::hint::black_box(service.registry().get("g").expect("registered").index());
    let mut runs = 0.0;
    let mut served = Vec::new();
    for &qi in &multis {
        let before = service.stats().searches_executed;
        let t = Instant::now();
        std::hint::black_box(service.process_line(&w.queries[qi].line));
        served.push(t.elapsed().as_secs_f64() * 1e3);
        runs += (service.stats().searches_executed - before) as f64;
    }
    values.push((
        "scatter.engine_runs_per_msearch",
        ratio(runs, multis.len() as f64),
    ));
    values.push(("scatter.msearch_base", multis.len() as f64));
    values.push(("scatter.gap_ms", Summary::of(&served).mean - mbcc_ms));

    // service.request / service.response: parse and encode per call.
    let lines: Vec<&str> = searches
        .iter()
        .chain(&multis)
        .map(|&qi| w.queries[qi].line.as_str())
        .collect();
    const REPS: usize = 200;
    let t = Instant::now();
    for _ in 0..REPS {
        for line in &lines {
            std::hint::black_box(bcc_service::parse_line(std::hint::black_box(line)).is_ok());
        }
    }
    values.push((
        "request.parse_us",
        ratio(t.elapsed().as_secs_f64() * 1e6, (REPS * lines.len()) as f64),
    ));
    let responses: Vec<QueryResponse> = results
        .iter()
        .map(|(qi, r)| {
            let q = &w.queries[*qi];
            let ks: Vec<u32> = q.vertices.iter().map(|v| coreness[v.index()]).collect();
            QueryResponse {
                seq: 0,
                graph: "g".into(),
                method: if q.method == "online" {
                    Method::Online
                } else if q.method == "lp" {
                    Method::Lp
                } else {
                    Method::L2p
                },
                outcome: Ok(bcc_service::response::outcome_from_result(r, &ks, 1)),
                cached: false,
                elapsed: std::time::Duration::ZERO,
            }
        })
        .collect();
    let t = Instant::now();
    for _ in 0..REPS {
        for r in &responses {
            std::hint::black_box(r.to_json());
        }
    }
    values.push((
        "response.encode_us",
        ratio(
            t.elapsed().as_secs_f64() * 1e6,
            (REPS * responses.len()) as f64,
        ),
    ));

    // service.registry + core.incremental + graph.overlay: the dirty set of
    // the committed batches, replayed on an index-backed registry.
    let registry = GraphRegistry::new();
    let mut entry = registry.insert("g", g.clone());
    std::hint::black_box(entry.index());
    let mut dirty = Vec::new();
    for batch in played.batches.iter().take(16) {
        // A batch that does not replay is already a failure of the check.
        let Ok(outcome) = replay_batch(&registry, &entry, batch) else {
            break;
        };
        dirty.push(outcome.dirty.as_ref().map_or(g.vertex_count(), |d| d.len()) as f64);
        entry = outcome.entry;
    }
    values.push(("commit.dirty_vertices", Summary::of(&dirty).mean));
    Replay { values, notes }
}
