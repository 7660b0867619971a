//! Algorithm 5 — fast query-distance computation.
//!
//! After a deletion round removes `D_i` from `G_i`, the paper's Algorithm 5
//! resets every vertex farther than `d_min = min_{v ∈ D_i} dist(v, q)` (the
//! unsettled set `S_u`) and re-runs a BFS from the settled ring at exactly
//! `d_min` (`S_s`). That suffix is sound but far too wide under bulk
//! deletion: a round deletes every farthest vertex *plus* the label-core
//! cascade's collateral, which lands anywhere in the candidate, so nearly
//! every batch holds some vertex close to one of the queries. `d_min` is
//! then small, `S_u` is most of the candidate, and each round re-settles it
//! — a near-full BFS per round under another name.
//!
//! This module keeps Algorithm 5's contract (exact hop distances after every
//! round, never a BFS from the query) but narrows the unsettled set to
//! exactly the survivors whose distance changed. Deletion only lengthens
//! distances, so a survivor at level `d` keeps it iff it still has a live
//! neighbour at `d − 1` that kept its own distance. The update therefore
//! runs in two level-ordered sweeps:
//!
//! 1. **Invalidate.** Every deleted vertex at level `d` nominates its live
//!    children (neighbours at `d + 1`). Levels are processed upward; a
//!    nominee without a surviving parent is invalidated (its distance reset
//!    to ∞) and nominates its own children in turn. Within a level each
//!    nominee is checked once.
//! 2. **Re-settle.** Each invalidated vertex starts from its best surviving
//!    neighbour (`1 + min dist`), and a level-bucketed BFS relaxes the
//!    invalidated set in increasing order — a unit-weight Dijkstra whose
//!    sources are the exact distances around it. Vertices no surviving path
//!    reaches stay at ∞ (a pocket cut off from the query).
//!
//! Only deleted vertices, nominees and invalidated vertices are touched: a
//! round costs `O(Σ deg(v))` over `D_i ∪ C`, where `C` is the nominee set (the
//! children of `D_i` and of the invalidated vertices) — proportional to what
//! the round deleted and what that deletion actually moved. The per-level
//! work lists and the nominee marks are reused across rounds, so a round
//! that moves nothing allocates nothing.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use bcc_graph::{GraphView, VertexId, WedgeScratch, INF_DIST};

use crate::stats::{timed, SearchStats};

/// Frontier sizes below this expand on the calling thread even when the
/// parallel path is enabled: the `thread::scope` spawn cost (~tens of µs)
/// dwarfs the relaxation work, and the first/last BFS levels are tiny on
/// every real graph.
const PARALLEL_FRONTIER_MIN: usize = 256;

/// Per-query BFS distance arrays maintained incrementally across deletions.
#[derive(Clone, Debug)]
pub struct IncrementalDistances {
    /// The query vertices, aligned with `dist`.
    pub queries: Vec<VertexId>,
    /// `dist[i][v]` = hop distance from query `i` to vertex `v`
    /// ([`INF_DIST`] for dead/unreachable vertices).
    pub dist: Vec<Vec<u32>>,
    /// Per-level work lists of one update (nominees while invalidating,
    /// relaxation buckets while re-settling). Empty between updates; their
    /// capacity is kept across rounds.
    levels: Vec<Vec<VertexId>>,
    /// The vertices invalidated by the current update.
    invalid: Vec<VertexId>,
    /// Nominees already checked for a surviving parent in this update.
    checked: WedgeScratch,
}

impl IncrementalDistances {
    fn from_dist(queries: &[VertexId], dist: Vec<Vec<u32>>) -> Self {
        IncrementalDistances {
            queries: queries.to_vec(),
            dist,
            levels: Vec::new(),
            invalid: Vec::new(),
            checked: WedgeScratch::default(),
        }
    }

    /// Full BFS from every query (the expensive baseline that Algorithm 5
    /// avoids repeating).
    pub fn compute(view: &GraphView<'_>, queries: &[VertexId], stats: &mut SearchStats) -> Self {
        let dist = timed(&mut stats.time_query_distance, || {
            queries.iter().map(|&q| bcc_graph::bfs_distances(view, q)).collect()
        });
        stats.full_bfs_runs += queries.len() as u64;
        Self::from_dist(queries, dist)
    }

    /// [`IncrementalDistances::compute`] with the chunked frontier-parallel
    /// BFS across up to `threads` workers (`0` = all cores, `≤ 1` = the
    /// sequential reference path). Hop distances are unique, and the
    /// level-synchronous expansion assigns exactly them, so the resulting
    /// arrays — and everything derived from them — are bit-identical to the
    /// sequential path at any thread count (pinned by tests and the service
    /// differential suite). Expansion and merge wall time land in the
    /// `time_dist_expand` / `time_dist_merge` sub-phase slots.
    pub fn compute_with_threads(
        view: &GraphView<'_>,
        queries: &[VertexId],
        threads: usize,
        stats: &mut SearchStats,
    ) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            threads
        };
        if threads <= 1 {
            return Self::compute(view, queries, stats);
        }
        let SearchStats {
            time_query_distance, time_dist_expand, time_dist_merge, ..
        } = stats;
        let dist = timed(time_query_distance, || {
            queries
                .iter()
                .map(|&q| {
                    bfs_distances_parallel(view, q, threads, time_dist_expand, time_dist_merge)
                })
                .collect()
        });
        stats.full_bfs_runs += queries.len() as u64;
        Self::from_dist(queries, dist)
    }

    /// Algorithm 5: refreshes the distance arrays after `removed` vertices
    /// were deleted from `view` (call *after* the deletion).
    pub fn update_after_removal(
        &mut self,
        view: &GraphView<'_>,
        removed: &[VertexId],
        stats: &mut SearchStats,
    ) {
        timed(&mut stats.time_query_distance, || {
            for qi in 0..self.queries.len() {
                self.update_one(view, qi, removed);
            }
        });
        stats.incremental_dist_updates += 1;
    }

    fn update_one(&mut self, view: &GraphView<'_>, qi: usize, removed: &[VertexId]) {
        let IncrementalDistances { queries, dist, levels, invalid, checked } = self;
        let dist = &mut dist[qi];
        if !view.is_alive(queries[qi]) {
            dist.fill(INF_DIST);
            return;
        }
        // Sweep 1: deleted vertices nominate their surviving children.
        let mut span = LevelSpan::EMPTY;
        for &r in removed {
            let d = std::mem::replace(&mut dist[r.index()], INF_DIST);
            if d == INF_DIST {
                continue; // it was unreachable: nobody's parent
            }
            for c in view.neighbors(r) {
                if dist[c.index()] == d + 1 {
                    span.push(levels, d as usize + 1, c);
                }
            }
        }
        checked.reset_for(dist.len());
        let mut level = span.lo;
        while level <= span.hi {
            let mut work = std::mem::take(&mut levels[level]);
            let (at, parent) = (level as u32, level as u32 - 1);
            for &c in &work {
                if dist[c.index()] != at || checked.contains(c) {
                    continue; // already invalidated, or already kept
                }
                checked.mark(c);
                if view.neighbors(c).any(|u| dist[u.index()] == parent) {
                    continue;
                }
                dist[c.index()] = INF_DIST;
                invalid.push(c);
                for w in view.neighbors(c) {
                    if dist[w.index()] == at + 1 {
                        span.push(levels, level + 1, w);
                    }
                }
            }
            work.clear();
            levels[level] = work;
            level += 1;
        }
        // Sweep 2: re-settle the invalidated set from its surviving
        // neighbours in level order. Exact distances never improve here
        // (`next < dist` fails for them), so only invalidated vertices move.
        let mut span = LevelSpan::EMPTY;
        for &x in invalid.iter() {
            let best = view.neighbors(x).map(|u| dist[u.index()]).min().unwrap_or(INF_DIST);
            if best != INF_DIST {
                dist[x.index()] = best + 1;
                span.push(levels, best as usize + 1, x);
            }
        }
        invalid.clear();
        let mut level = span.lo;
        while level <= span.hi {
            let mut work = std::mem::take(&mut levels[level]);
            let at = level as u32;
            for &x in &work {
                if dist[x.index()] != at {
                    continue; // improved after it was queued here
                }
                for w in view.neighbors(x) {
                    if at + 1 < dist[w.index()] {
                        dist[w.index()] = at + 1;
                        span.push(levels, level + 1, w);
                    }
                }
            }
            work.clear();
            levels[level] = work;
            level += 1;
        }
    }

    /// `dist(v, Q)` of Definition 5 (maximum over queries).
    #[inline]
    pub fn vertex_query_distance(&self, v: VertexId) -> u32 {
        self.dist
            .iter()
            .map(|d| d[v.index()])
            .max()
            .unwrap_or(INF_DIST)
    }

    /// The candidate's query distance `dist(G, Q)`.
    pub fn graph_query_distance(&self, view: &GraphView<'_>) -> u32 {
        view.alive_vertices()
            .map(|v| self.vertex_query_distance(v))
            .max()
            .unwrap_or(0)
    }

    /// All alive vertices at the maximum query distance, and that distance.
    pub fn farthest_vertices(&self, view: &GraphView<'_>) -> (Vec<VertexId>, u32) {
        let mut best = 0u32;
        let mut out = Vec::new();
        for v in view.alive_vertices() {
            let d = self.vertex_query_distance(v);
            match d.cmp(&best) {
                std::cmp::Ordering::Greater => {
                    best = d;
                    out.clear();
                    out.push(v);
                }
                std::cmp::Ordering::Equal => out.push(v),
                std::cmp::Ordering::Less => {}
            }
        }
        (out, best)
    }

    /// Returns `true` if every query can reach every other query.
    pub fn queries_connected(&self) -> bool {
        let first = &self.dist[0];
        self.queries.iter().all(|q| first[q.index()] != INF_DIST)
    }
}

/// The range of levels an update sweep has queued work at.
struct LevelSpan {
    lo: usize,
    hi: usize,
}

impl LevelSpan {
    /// No level queued: `lo > hi`, so the sweep loop does not run.
    const EMPTY: LevelSpan = LevelSpan { lo: usize::MAX, hi: 0 };

    /// Queues `v` at `level`, growing the work lists as needed.
    fn push(&mut self, levels: &mut Vec<Vec<VertexId>>, level: usize, v: VertexId) {
        if levels.len() <= level {
            levels.resize_with(level + 1, Vec::new);
        }
        levels[level].push(v);
        self.lo = self.lo.min(level);
        self.hi = self.hi.max(level);
    }
}

/// Chunked frontier-parallel single-source BFS: the level-synchronous
/// counterpart of [`bcc_graph::bfs_distances`], and bit-identical to it —
/// hop distances are unique, and every vertex is claimed for its exact
/// level by a `compare_exchange` from [`INF_DIST`].
///
/// Each level's frontier is split into contiguous chunks, one per worker;
/// workers relax their chunk's neighbors into private discovery buffers,
/// which are then concatenated in chunk order, so even the internal frontier
/// order is a pure function of the input. Levels smaller than
/// [`PARALLEL_FRONTIER_MIN`] are expanded on the calling thread through the
/// same claim loop. `expand` / `merge` accumulate the two sub-spans the
/// observability layer reports as `query_dist_expand` / `query_dist_merge`.
pub fn bfs_distances_parallel(
    view: &GraphView<'_>,
    source: VertexId,
    threads: usize,
    expand: &mut Duration,
    merge: &mut Duration,
) -> Vec<u32> {
    let n = view.graph().vertex_count();
    let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(INF_DIST)).collect();
    if view.is_alive(source) {
        dist[source.index()].store(0, Ordering::Relaxed);
        let mut frontier = vec![source];
        let mut level = 0u32;
        while !frontier.is_empty() {
            let next_level = level + 1;
            let workers = if frontier.len() < PARALLEL_FRONTIER_MIN { 1 } else { threads };
            if workers <= 1 {
                let mut next = Vec::new();
                timed(expand, || {
                    relax_chunk(view, &frontier, &dist, next_level, &mut next)
                });
                frontier = next;
            } else {
                let chunk = frontier.len().div_ceil(workers);
                let parts: Vec<Vec<VertexId>> = timed(expand, || {
                    std::thread::scope(|s| {
                        let handles: Vec<_> = frontier
                            .chunks(chunk)
                            .map(|slice| {
                                let dist = &dist;
                                s.spawn(move || {
                                    let mut out = Vec::new();
                                    relax_chunk(view, slice, dist, next_level, &mut out);
                                    out
                                })
                            })
                            .collect();
                        handles.into_iter().map(|h| h.join().expect("bfs worker")).collect()
                    })
                });
                timed(merge, || {
                    frontier.clear();
                    for part in parts {
                        frontier.extend(part);
                    }
                });
            }
            level = next_level;
        }
    }
    dist.into_iter().map(AtomicU32::into_inner).collect()
}

/// One worker's share of a BFS level: claim every still-unvisited neighbor
/// of `slice` for `next_level`. The winning `compare_exchange` also hands
/// the claimer the enqueue, so each vertex enters exactly one buffer.
fn relax_chunk(
    view: &GraphView<'_>,
    slice: &[VertexId],
    dist: &[AtomicU32],
    next_level: u32,
    out: &mut Vec<VertexId>,
) {
    for &v in slice {
        for u in view.neighbors(v) {
            if dist[u.index()]
                .compare_exchange(INF_DIST, next_level, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                out.push(u);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graph::{GraphBuilder, LabeledGraph};
    use rand::{Rng, SeedableRng};

    fn grid(w: usize, h: usize) -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let vs: Vec<Vec<VertexId>> = (0..h)
            .map(|_| (0..w).map(|_| b.add_vertex("A")).collect())
            .collect();
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    b.add_edge(vs[y][x], vs[y][x + 1]);
                }
                if y + 1 < h {
                    b.add_edge(vs[y][x], vs[y + 1][x]);
                }
            }
        }
        b.build()
    }

    fn assert_matches_fresh(view: &GraphView<'_>, inc: &IncrementalDistances) {
        for (qi, &q) in inc.queries.iter().enumerate() {
            let fresh = bcc_graph::bfs_distances(view, q);
            assert_eq!(inc.dist[qi], fresh, "query {q} distances diverged");
        }
    }

    #[test]
    fn parallel_bfs_is_bit_identical_to_sequential() {
        let g = grid(12, 12);
        let mut view = GraphView::new(&g);
        // Punch deterministic holes so detours and an unreachable pocket exist.
        for i in [13u32, 14, 25, 26, 37, 110, 121, 132] {
            view.remove_vertex(VertexId(i));
        }
        for source in [VertexId(0), VertexId(143), VertexId(70), VertexId(13)] {
            let reference = bcc_graph::bfs_distances(&view, source);
            for threads in [1usize, 2, 3, 7, 0] {
                let mut expand = Duration::ZERO;
                let mut merge = Duration::ZERO;
                assert_eq!(
                    bfs_distances_parallel(&view, source, threads, &mut expand, &mut merge),
                    reference,
                    "source {source}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn compute_with_threads_matches_sequential_compute() {
        let g = grid(10, 10);
        let view = GraphView::new(&g);
        let queries = [VertexId(0), VertexId(99)];
        let mut seq_stats = SearchStats::default();
        let seq = IncrementalDistances::compute(&view, &queries, &mut seq_stats);
        for threads in [1usize, 2, 3, 7, 0] {
            let mut stats = SearchStats::default();
            let par =
                IncrementalDistances::compute_with_threads(&view, &queries, threads, &mut stats);
            assert_eq!(par.dist, seq.dist, "threads {threads}");
            assert_eq!(stats.full_bfs_runs, 2);
        }
        // Sequential path never touches the sub-phase slots.
        assert!(seq_stats.time_dist_expand.is_zero() && seq_stats.time_dist_merge.is_zero());
    }

    #[test]
    fn incremental_matches_full_on_grid() {
        let g = grid(5, 5);
        let mut view = GraphView::new(&g);
        let mut stats = SearchStats::default();
        let queries = [VertexId(0), VertexId(24)];
        let mut inc = IncrementalDistances::compute(&view, &queries, &mut stats);
        assert_eq!(stats.full_bfs_runs, 2);
        // Delete the grid center, forcing detours.
        let center = VertexId(12);
        view.remove_vertex(center);
        inc.update_after_removal(&view, &[center], &mut stats);
        assert_matches_fresh(&view, &inc);
        assert_eq!(stats.incremental_dist_updates, 1);
    }

    #[test]
    fn randomized_deletion_equivalence() {
        let g = grid(6, 6);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let mut view = GraphView::new(&g);
        let mut stats = SearchStats::default();
        let queries = [VertexId(0), VertexId(35)];
        let mut inc = IncrementalDistances::compute(&view, &queries, &mut stats);
        for _round in 0..12 {
            // Remove a random batch of 1–3 alive non-query vertices.
            let alive: Vec<VertexId> = view
                .alive_vertices()
                .filter(|v| !queries.contains(v))
                .collect();
            if alive.len() <= 2 {
                break;
            }
            let k = rng.gen_range(1..=3.min(alive.len()));
            let mut batch = Vec::new();
            for _ in 0..k {
                let v = alive[rng.gen_range(0..alive.len())];
                if view.is_alive(v) {
                    view.remove_vertex(v);
                    batch.push(v);
                }
            }
            inc.update_after_removal(&view, &batch, &mut stats);
            assert_matches_fresh(&view, &inc);
        }
    }

    /// A seeded random graph over two labels: a ring backbone (so the
    /// queries start connected) plus random chords.
    fn random_labeled(n: usize, chords: usize, rng: &mut impl Rng) -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..n).map(|i| b.add_vertex(if i % 2 == 0 { "L" } else { "R" })).collect();
        for i in 0..n {
            b.add_edge(vs[i], vs[(i + 1) % n]);
        }
        for _ in 0..chords {
            let (x, y) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if x != y {
                b.add_edge(vs[x], vs[y]);
            }
        }
        b.build()
    }

    /// Alive vertices that are not `queries`, in id order.
    fn alive_non_queries(view: &GraphView<'_>, queries: &[VertexId]) -> Vec<VertexId> {
        view.alive_vertices().filter(|v| !queries.contains(v)).collect()
    }

    /// The decremental update against a fresh BFS after every bulk round,
    /// on seeded random graphs. Rounds cycle through random batches,
    /// batches adjacent to a query, and cuts that isolate a pocket; the
    /// last rounds kill a query and keep peeling around the survivors.
    #[test]
    fn bulk_rounds_match_fresh_bfs_on_random_graphs() {
        let (mut adjacent_rounds, mut pocket_rounds, mut dead_query_rounds) = (0, 0, 0);
        for seed in 0..8u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let g = random_labeled(90, 70, &mut rng);
            let mut view = GraphView::new(&g);
            let mut stats = SearchStats::default();
            let queries = [VertexId(0), VertexId(45), VertexId(21)];
            let mut inc = IncrementalDistances::compute(&view, &queries, &mut stats);
            for round in 0..24 {
                let pool = alive_non_queries(&view, &queries);
                if pool.len() < 8 {
                    break;
                }
                let random: Vec<VertexId> =
                    (0..rng.gen_range(1..=5)).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
                let batch: Vec<VertexId> = match round {
                    // Kill a query together with a few random vertices.
                    20 => [queries[2]].into_iter().chain(random).collect(),
                    _ if round % 3 == 0 => {
                        // A query's live neighbour and two of its own.
                        let q = queries[rng.gen_range(0..2usize)];
                        let near: Vec<VertexId> =
                            view.neighbors(q).filter(|v| !queries.contains(v)).collect();
                        match near.get(rng.gen_range(0..near.len().max(1))) {
                            Some(&hub) => [hub]
                                .into_iter()
                                .chain(view.neighbors(hub).filter(|v| !queries.contains(v)).take(2))
                                .collect(),
                            None => random,
                        }
                    }
                    _ if round % 3 == 1 => {
                        // Cut every live neighbour of a vertex and of its
                        // neighbour: the pair survives as a pocket.
                        let x = pool[rng.gen_range(0..pool.len())];
                        let cut: Vec<VertexId> = match view.neighbors(x).find(|v| !queries.contains(v)) {
                            Some(y) => view
                                .neighbors(x)
                                .chain(view.neighbors(y))
                                .filter(|&v| v != x && v != y)
                                .collect(),
                            None => Vec::new(),
                        };
                        if cut.is_empty() || cut.iter().any(|v| queries.contains(v)) {
                            random
                        } else {
                            cut
                        }
                    }
                    _ => random,
                };
                let mut removed = Vec::new();
                for v in batch {
                    if view.remove_vertex(v) {
                        removed.push(v);
                    }
                }
                let touched_query = removed.iter().any(|&r| {
                    queries[..2].iter().any(|&q| g.neighbors(q).contains(&r))
                });
                inc.update_after_removal(&view, &removed, &mut stats);
                assert_matches_fresh(&view, &inc);
                adjacent_rounds += usize::from(touched_query);
                let live_q = queries.iter().find(|q| view.is_alive(**q)).copied();
                if let Some(q) = live_q {
                    let qi = queries.iter().position(|&x| x == q).unwrap();
                    pocket_rounds += usize::from(
                        view.alive_vertices().any(|v| inc.dist[qi][v.index()] == INF_DIST),
                    );
                }
                dead_query_rounds += usize::from(!view.is_alive(queries[2]));
            }
            assert!(stats.incremental_dist_updates >= 20, "seed {seed}: too few rounds");
        }
        assert!(adjacent_rounds > 0, "no batch touched a query's neighbourhood");
        assert!(pocket_rounds > 0, "no round left an unreachable pocket");
        assert!(dead_query_rounds > 0, "no round ran with a dead query");
    }

    #[test]
    fn unreachable_deletion_is_noop() {
        // Two disconnected edges; deleting a vertex of the far component
        // leaves the query's distances untouched (d_min = ∞ path).
        let mut b = GraphBuilder::new();
        let a0 = b.add_vertex("A");
        let a1 = b.add_vertex("A");
        let c0 = b.add_vertex("A");
        let c1 = b.add_vertex("A");
        b.add_edge(a0, a1);
        b.add_edge(c0, c1);
        let g = b.build();
        let mut view = GraphView::new(&g);
        let mut stats = SearchStats::default();
        let mut inc = IncrementalDistances::compute(&view, &[a0], &mut stats);
        view.remove_vertex(c0);
        inc.update_after_removal(&view, &[c0], &mut stats);
        assert_eq!(inc.dist[0][a1.index()], 1);
        assert_eq!(inc.dist[0][c0.index()], INF_DIST);
        assert_matches_fresh(&view, &inc);
    }

    #[test]
    fn dead_query_blanks_distances() {
        let g = grid(3, 3);
        let mut view = GraphView::new(&g);
        let mut stats = SearchStats::default();
        let q = VertexId(0);
        let mut inc = IncrementalDistances::compute(&view, &[q], &mut stats);
        view.remove_vertex(q);
        inc.update_after_removal(&view, &[q], &mut stats);
        assert!(inc.dist[0].iter().all(|&d| d == INF_DIST));
        assert!(!inc.queries_connected());
    }

    #[test]
    fn distances_can_grow_across_repeated_updates() {
        // A ring: deleting vertices forces ever-longer detours, exercising
        // the bucket resize path (new levels beyond the initial maximum).
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..12).map(|_| b.add_vertex("A")).collect();
        for i in 0..12 {
            b.add_edge(vs[i], vs[(i + 1) % 12]);
        }
        let g = b.build();
        let mut view = GraphView::new(&g);
        let mut stats = SearchStats::default();
        let mut inc = IncrementalDistances::compute(&view, &[vs[0]], &mut stats);
        // Cut the short arc step by step: distances to the far side grow.
        for &cut in &[vs[1], vs[2], vs[3]] {
            view.remove_vertex(cut);
            inc.update_after_removal(&view, &[cut], &mut stats);
            assert_matches_fresh(&view, &inc);
        }
        assert_eq!(inc.dist[0][vs[4].index()], 8, "forced the long way round");
    }

    #[test]
    fn farthest_and_query_distance_agree_with_fresh() {
        let g = grid(4, 4);
        let view = GraphView::new(&g);
        let mut stats = SearchStats::default();
        let queries = [VertexId(0), VertexId(5)];
        let inc = IncrementalDistances::compute(&view, &queries, &mut stats);
        let fresh = bcc_graph::traversal::QueryDistances::compute(&view, &queries);
        assert_eq!(
            inc.graph_query_distance(&view),
            fresh.graph_query_distance(&view)
        );
        let (fi, di) = inc.farthest_vertices(&view);
        let (ff, df) = fresh.farthest_vertices(&view);
        assert_eq!((fi, di), (ff, df));
    }
}
