//! The workloads: their graphs, request pools, and the loops that play
//! them against a live server.
//!
//! The server only ever sees the generated graph file and request lines.
//! Each workload's graph is a fixed `bcc_datasets` network; the run's
//! `--seed` derives every request stream.

use std::collections::HashSet;
use std::io;
use std::time::Instant;

use bcc_datasets::{PlantedNetwork, QueryConstraints};
use bcc_graph::{LabeledGraph, VertexId};
use rand::Rng;

use crate::draw::{self, Zipf};
use crate::server::Conn;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 2] = ["large-search", "read-write"];

/// Each run plays its window and probes on this many freshly spawned
/// servers in turn, `seconds / SEGMENTS` each, and pools the samples. One
/// server instance's placement and heap layout then no longer decide the
/// whole run's numbers, and every metric's samples spread over the whole
/// run: the host's speed changes from second to second, and a probe played
/// in one stretch at the end would follow the speed of that stretch alone.
pub const SEGMENTS: usize = 12;

/// The part of `items` that segment `seg` of [`SEGMENTS`] uses.
fn segment_of<T>(items: &[T], seg: usize) -> &[T] {
    let len = items.len() / SEGMENTS;
    &items[seg * len..(seg + 1) * len]
}

/// The random stream `base` of segment `seg`.
fn stream(base: u64, seg: usize) -> u64 {
    base + 16 * seg as u64
}

/// Changes staged per `commit` in the read-write window.
const COMMIT_BATCH: usize = 64;
/// Changes staged per `commit` in the commit probe: smaller, so that the
/// probe of the large graph stays a few seconds long.
const PROBE_BATCH: usize = 16;
/// `msearch` requests in the probe of workloads whose mix has none: 10
/// samples beyond the p95 (a multiple of [`SEGMENTS`]). They use method
/// `lp`: tens of milliseconds each, so that scheduler hiccups of a few
/// milliseconds do not decide the tail as they do for `l2p`'s few.
const MSEARCH_PROBE: usize = 204;
/// `commit` requests in the probe of workloads whose mix has none: 20
/// samples beyond the p90 (a multiple of [`SEGMENTS`]).
const COMMIT_PROBE: usize = 204;
/// Distinct `search` requests in the `large-search` pool: 300 per
/// segment, enough for about 120 requests per second before a segment runs
/// out (eight times today's rate).
const LARGE_POOL: usize = 3600;
/// Zipf exponent of the repeated-search pool.
const ZIPF_S: f64 = 1.0;
/// Protocol operations the benchmark sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Search,
    Msearch,
    Stage,
    Commit,
}

/// One distinct query request line with what is needed to check its
/// answer.
#[derive(Clone, Debug)]
pub struct Query {
    pub line: String,
    pub multi: bool,
    pub method: &'static str,
    pub vertices: Vec<VertexId>,
}

impl Query {
    fn search(ql: VertexId, qr: VertexId, method: &'static str) -> Query {
        Query {
            line: format!("search ql={} qr={} method={method}", ql.0, qr.0),
            multi: false,
            method,
            vertices: vec![ql, qr],
        }
    }

    fn msearch(vertices: Vec<VertexId>, method: &'static str) -> Query {
        let ids: Vec<String> = vertices.iter().map(|v| v.0.to_string()).collect();
        Query {
            line: format!("msearch q={} method={method}", ids.join(",")),
            multi: true,
            method,
            vertices,
        }
    }
}

/// Where in the run a sample was taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// The timed window of the workload's own mix.
    Window,
    /// The fixed-size probes of verbs the mix lacks: `msearch` before the
    /// window, `commit` after it.
    Probe,
}

/// One request as the client saw it. Times are seconds from the start of
/// its segment.
#[derive(Clone, Debug)]
pub struct Sample {
    pub op: Op,
    pub stage: Stage,
    /// Index into [`Workload::queries`] for `search`/`msearch`.
    pub query: Option<usize>,
    pub sent: f64,
    pub received: f64,
    /// `None` when no response arrived.
    pub response: Option<String>,
}

impl Sample {
    /// Round trip: from the send to the response. Every loop is closed, so
    /// this is the latency users see.
    pub fn rtt_ms(&self) -> f64 {
        (self.received - self.sent) * 1e3
    }
}

/// One staged edge change: `(u, v, insert)`.
pub type Flip = (VertexId, VertexId, bool);

/// A generated workload.
pub struct Workload {
    pub name: &'static str,
    pub net: PlantedNetwork,
    /// Every distinct query line the run may send.
    pub queries: Vec<Query>,
    /// The `l2p` query whose first answer forces the BCindex build during
    /// set-up. Not used afterwards.
    pub warm: usize,
    /// Query indices of the mix (order matters for `large-search`).
    pub search_pool: Vec<usize>,
    /// Query indices of the `msearch` probe.
    pub msearch_probe: Vec<usize>,
    /// Whether a commit probe runs after the window.
    pub commit_probe: bool,
    /// Flags `bcc listen` gets after its positional arguments.
    pub server_flags: &'static [&'static str],
    pub seed: u64,
}

impl Workload {
    /// Builds workload `name` from `seed`.
    pub fn generate(name: &str, seed: u64) -> Result<Workload, String> {
        let (name, spec, server_flags): (_, _, &'static [&'static str]) = match name {
            // One thread per query: the graph is above the AUTO cutover,
            // and the all-cores path's latency follows how many cores the
            // host grants from second to second (see README.md). The
            // traced replay times that path as `*_allcores_ms`.
            "large-search" => (
                "large-search",
                bcc_datasets::youtube(5.0),
                &["--query-threads", "1"],
            ),
            // Three labels, so that the msearch probe runs the scatter
            // fan-out (m = 3). Default flags.
            "read-write" => ("read-write", bcc_datasets::dblp_m(4.0, 3), &[]),
            other => {
                return Err(format!(
                    "unknown workload `{other}` (expected one of {NAMES:?})"
                ))
            }
        };
        // The graph is the dataset's own (fixed-seed) build, the size the
        // workload is defined at; `seed` drives every request stream.
        let net = spec.build();
        let mut w = Workload {
            name,
            net,
            queries: Vec::new(),
            warm: 0,
            search_pool: Vec::new(),
            msearch_probe: Vec::new(),
            commit_probe: false,
            server_flags,
            seed,
        };
        let mut pairs = w.distinct_pairs(6000, seed);
        let mut take = |n: usize| -> Vec<(VertexId, VertexId)> {
            let rest = pairs.split_off(n.min(pairs.len()));
            std::mem::replace(&mut pairs, rest)
        };
        let warm = take(1);
        match name {
            "large-search" => {
                // All distinct, split evenly across the three methods.
                let methods = ["online", "lp", "l2p"];
                let main = take(LARGE_POOL);
                w.search_pool = w.add_pairs(&main, |i| methods[i % 3]);
                w.msearch_probe = w.add_multi_pairs(&take(MSEARCH_PROBE), "lp");
                w.commit_probe = true;
            }
            _ => {
                // Two l2p to one lp: `search_p50_ms` then lies inside the
                // l2p band instead of at its upper edge, where the gap to
                // the lp band begins.
                w.search_pool = w.add_pairs(&take(512), |i| if i % 3 == 2 { "lp" } else { "l2p" });
                w.msearch_probe = w.add_triples(MSEARCH_PROBE, "lp");
            }
        }
        w.warm = w.add_pairs(&warm, |_| "l2p")[0];
        if w.search_pool.is_empty() {
            return Err(format!("{name}: the generator found no query pairs"));
        }
        Ok(w)
    }

    pub fn graph(&self) -> &LabeledGraph {
        &self.net.graph
    }

    /// Up to `count` distinct unordered pairs with different labels, drawn
    /// from inside ground-truth communities.
    fn distinct_pairs(&self, count: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
        let constraints = QueryConstraints {
            degree_rank: 80,
            inter_distance: None,
        };
        let mut seen = HashSet::new();
        bcc_datasets::random_community_queries(&self.net, count, constraints, seed ^ 0x5EED_0002)
            .into_iter()
            .map(|q| (q.vertices[0], q.vertices[1]))
            .filter(|&(a, b)| seen.insert((a.min(b), a.max(b))))
            .collect()
    }

    fn add_pairs(
        &mut self,
        pairs: &[(VertexId, VertexId)],
        method: impl Fn(usize) -> &'static str,
    ) -> Vec<usize> {
        pairs
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                self.queries.push(Query::search(a, b, method(i)));
                self.queries.len() - 1
            })
            .collect()
    }

    /// Up to `count` distinct m=3 `msearch` queries from `mbcc_queries`.
    fn add_triples(&mut self, count: usize, method: &'static str) -> Vec<usize> {
        let mut seen = HashSet::new();
        let mut added = Vec::new();
        for q in bcc_datasets::mbcc_queries(&self.net, 3, count, self.seed ^ 0x5EED_0003) {
            let mut key = q.vertices.clone();
            key.sort_unstable();
            if seen.insert(key) {
                self.queries.push(Query::msearch(q.vertices, method));
                added.push(self.queries.len() - 1);
            }
        }
        added
    }

    fn add_multi_pairs(
        &mut self,
        pairs: &[(VertexId, VertexId)],
        method: &'static str,
    ) -> Vec<usize> {
        pairs
            .iter()
            .map(|&(a, b)| {
                self.queries.push(Query::msearch(vec![a, b], method));
                self.queries.len() - 1
            })
            .collect()
    }
}

/// What the window and probes of one run produced.
#[derive(Default)]
pub struct Played {
    pub samples: Vec<Sample>,
    /// Length of the timed window, seconds.
    pub window_s: f64,
    /// Committed batches in commit order (window and probe).
    pub batches: Vec<Vec<Flip>>,
}

impl Played {
    /// The samples of several segments as one run: window lengths add up,
    /// and the committed batches are the first segment's (each segment
    /// starts from the original graph).
    pub fn pooled(segments: Vec<Played>) -> Played {
        let mut all = Played::default();
        for (i, seg) in segments.into_iter().enumerate() {
            all.samples.extend(seg.samples);
            all.window_s += seg.window_s;
            if i == 0 {
                all.batches = seg.batches;
            }
        }
        all
    }
}

/// Seconds since `t0`.
fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// One closed-loop round trip, recorded.
fn round_trip(
    conn: &mut Conn,
    t0: Instant,
    op: Op,
    stage: Stage,
    query: Option<usize>,
    line: &str,
) -> Sample {
    let sent = since(t0);
    let response = conn.call(line).ok();
    let received = since(t0);
    Sample {
        op,
        stage,
        query,
        sent,
        received,
        response,
    }
}

/// Plays segment `seg` of the workload's timed window on a warmed server,
/// `seconds` long; sample times count from the segment's start `t0`.
pub fn play_window(
    w: &Workload,
    seg: usize,
    addr: std::net::SocketAddr,
    seconds: f64,
    t0: Instant,
    played: &mut Played,
) -> io::Result<()> {
    let start = Instant::now();
    match w.name {
        "large-search" => {
            let mut conn = Conn::connect(addr)?;
            for &q in segment_of(&w.search_pool, seg) {
                if since(start) >= seconds {
                    break;
                }
                played.samples.push(round_trip(
                    &mut conn,
                    t0,
                    Op::Search,
                    Stage::Window,
                    Some(q),
                    &w.queries[q].line,
                ));
            }
            played.window_s = since(start);
            if played.window_s < seconds {
                return Err(io::Error::other(
                    "large-search ran out of distinct queries before the window ended",
                ));
            }
        }
        _ => read_write(w, seg, addr, seconds, t0, played)?,
    }
    Ok(())
}

/// `read-write`: connection A (this thread) sends Zipf-repeated `search`
/// requests; connection B (a second thread) stages random valid edge flips
/// and commits every [`COMMIT_BATCH`] changes. Both closed loop.
fn read_write(
    w: &Workload,
    seg: usize,
    addr: std::net::SocketAddr,
    seconds: f64,
    t0: Instant,
    played: &mut Played,
) -> io::Result<()> {
    let mut reader = Conn::connect(addr)?;
    let mut writer = Conn::connect(addr)?;
    let mut flips = FlipSource::new(w.graph(), draw::rng(w.seed, stream(10, seg)));
    let zipf = Zipf::new(w.search_pool.len(), ZIPF_S);
    let mut rng = draw::rng(w.seed, stream(11, seg));
    let start = Instant::now();
    let (reads, (writes, batches)) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut samples = Vec::new();
            let mut batches = Vec::new();
            while since(start) < seconds {
                let (s, batch) =
                    stage_and_commit(&mut writer, &mut flips, COMMIT_BATCH, t0, Stage::Window);
                samples.extend(s);
                // See `stage_and_commit`: nothing is staged after a failure.
                let Some(batch) = batch else { break };
                batches.push(batch);
            }
            (samples, batches)
        });
        let mut samples = Vec::new();
        while since(start) < seconds {
            let q = w.search_pool[zipf.sample(&mut rng)];
            samples.push(round_trip(
                &mut reader,
                t0,
                Op::Search,
                Stage::Window,
                Some(q),
                &w.queries[q].line,
            ));
        }
        (samples, writer.join().expect("writer thread panicked"))
    });
    played.window_s = since(start);
    played.samples.extend(reads);
    played.samples.extend(writes);
    played.batches.extend(batches);
    Ok(())
}

/// Stages one batch of `size` flips and commits it. Returns the samples
/// and, when the commit succeeded, the committed batch. After a failed
/// commit the caller stages nothing more: the server may still hold the
/// batch's flips while `flips` has moved past them, so later batches would
/// not replay on the client's copy of the committed graph.
fn stage_and_commit(
    conn: &mut Conn,
    flips: &mut FlipSource,
    size: usize,
    t0: Instant,
    stage: Stage,
) -> (Vec<Sample>, Option<Vec<Flip>>) {
    let mut samples = Vec::with_capacity(size + 1);
    let batch: Vec<Flip> = (0..size).map(|_| flips.flip()).collect();
    for &(u, v, insert) in &batch {
        let verb = if insert { "add_edge" } else { "remove_edge" };
        samples.push(round_trip(
            conn,
            t0,
            Op::Stage,
            stage,
            None,
            &format!("{verb} u={} v={}", u.0, v.0),
        ));
    }
    let commit = round_trip(conn, t0, Op::Commit, stage, None, "commit");
    let committed = commit
        .response
        .as_deref()
        .is_some_and(|r| r.starts_with("{\"ok\":true"));
    samples.push(commit);
    flips.end_batch();
    (samples, committed.then_some(batch))
}

/// Runs segment `seg`'s share of the `msearch` probe, before the window:
/// every workload's probe then queries the graph as generated, not one
/// that the window's commits have changed by as many flips as the host's
/// speed allowed.
pub fn play_msearch_probe(
    w: &Workload,
    seg: usize,
    addr: std::net::SocketAddr,
    t0: Instant,
    played: &mut Played,
) -> io::Result<()> {
    let mut conn = Conn::connect(addr)?;
    for &q in segment_of(&w.msearch_probe, seg) {
        played.samples.push(round_trip(
            &mut conn,
            t0,
            Op::Msearch,
            Stage::Probe,
            Some(q),
            &w.queries[q].line,
        ));
    }
    Ok(())
}

/// Runs segment `seg`'s share of the `commit` probe of workloads whose mix
/// has no commits, after the window.
pub fn play_commit_probe(
    w: &Workload,
    seg: usize,
    addr: std::net::SocketAddr,
    t0: Instant,
    played: &mut Played,
) -> io::Result<()> {
    if !w.commit_probe {
        return Ok(());
    }
    let mut conn = Conn::connect(addr)?;
    let mut flips = FlipSource::new(w.graph(), draw::rng(w.seed, stream(12, seg)));
    for _ in 0..COMMIT_PROBE / SEGMENTS {
        let (s, batch) = stage_and_commit(&mut conn, &mut flips, PROBE_BATCH, t0, Stage::Probe);
        played.samples.extend(s);
        let Some(batch) = batch else { break };
        played.batches.push(batch);
    }
    Ok(())
}

/// Random valid edge flips against a private copy of the edge set:
/// alternately the removal of an existing edge and the insertion of a
/// missing one, never touching a pair twice within one batch.
struct FlipSource {
    n: u32,
    edges: Vec<(u32, u32)>,
    present: HashSet<(u32, u32)>,
    touched: HashSet<(u32, u32)>,
    insert_next: bool,
    rng: rand_chacha::ChaCha8Rng,
}

impl FlipSource {
    fn new(graph: &LabeledGraph, rng: rand_chacha::ChaCha8Rng) -> FlipSource {
        let edges: Vec<(u32, u32)> = graph
            .edges()
            .map(|(u, v)| (u.0.min(v.0), u.0.max(v.0)))
            .collect();
        let present = edges.iter().copied().collect();
        FlipSource {
            n: graph.vertex_count() as u32,
            edges,
            present,
            touched: HashSet::new(),
            insert_next: false,
            rng,
        }
    }

    /// The next flip; applied to the private copy at once.
    fn flip(&mut self) -> Flip {
        self.insert_next = !self.insert_next;
        loop {
            if self.insert_next {
                let (a, b) = (self.rng.gen_range(0..self.n), self.rng.gen_range(0..self.n));
                let pair = (a.min(b), a.max(b));
                if a == b || self.present.contains(&pair) || !self.touched.insert(pair) {
                    continue;
                }
                self.present.insert(pair);
                self.edges.push(pair);
                return (VertexId(pair.0), VertexId(pair.1), true);
            }
            let i = self.rng.gen_range(0..self.edges.len());
            let pair = self.edges[i];
            if !self.touched.insert(pair) {
                continue;
            }
            self.present.remove(&pair);
            self.edges.swap_remove(i);
            return (VertexId(pair.0), VertexId(pair.1), false);
        }
    }

    /// Ends a batch: pairs may be touched again.
    fn end_batch(&mut self) {
        self.touched.clear();
    }
}
