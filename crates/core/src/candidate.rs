//! The evolving BCC candidate: Algorithm 2 (finding `G_0`) generalized to
//! `m` labels, plus the maintenance hooks of Algorithm 4.
//!
//! A candidate holds a [`GraphView`] restricted to the query labels, the
//! per-label core thresholds, and the liveness of every label *pair*'s
//! cross-group interaction. Because butterfly degrees only ever decrease
//! under deletion, a pair that loses its interaction never regains it, so
//! pair liveness is monotone — which is what makes the leader-pair strategy
//! sound.

use bcc_butterfly::{BipartiteCross, ButterflyCounts};
use bcc_cohesion::LabelCoreThresholds;
use bcc_graph::{BitSet, GraphView, Label, LabeledGraph, UnionFind, VertexId};

use crate::model::{MbccParams, MbccQuery, SearchError};
use crate::stats::{timed, SearchStats};

/// The maximal-candidate state shared by every search variant.
#[derive(Clone, Debug)]
pub struct Candidate<'g> {
    /// The live candidate subgraph.
    pub view: GraphView<'g>,
    /// Per-label core thresholds (labels outside the query set excluded).
    pub thresholds: LabelCoreThresholds,
    /// Query vertices, one per label, aligned with `labels`.
    pub queries: Vec<VertexId>,
    /// The m query labels, aligned with `queries`.
    pub labels: Vec<Label>,
    /// Butterfly threshold b.
    pub b: u64,
    /// All unordered label-pair indices `(i, j)` with `i < j`.
    pub pairs: Vec<(usize, usize)>,
    /// Liveness of each pair's cross-group interaction (aligned with
    /// `pairs`). Monotone: once false, stays false.
    pub pair_alive: Vec<bool>,
    /// The alive set of `G_0`, kept for snapshot replay.
    pub g0_alive: BitSet,
    /// Worker threads for butterfly recounts (1 = sequential reference).
    pub query_threads: usize,
}

/// Resolves a thread-count knob: `0` means one worker per available core,
/// anything else is taken literally (matching `BccIndex::build_with_threads`).
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    }
}

impl<'g> Candidate<'g> {
    /// Algorithm 2 (generalized): builds the maximal connected candidate
    /// containing all queries — label cores, per-label query components,
    /// butterfly/leader condition per pair, cross-group connectivity, and a
    /// final restriction to the queries' connected component.
    ///
    /// Returns the candidate together with the per-pair butterfly counts of
    /// `G_0` (LP variants seed their leaders from these).
    pub fn find_g0(
        graph: &'g LabeledGraph,
        query: &MbccQuery,
        params: &MbccParams,
        stats: &mut SearchStats,
    ) -> Result<(Self, Vec<ButterflyCounts>), SearchError> {
        Self::find_g0_in(GraphView::new(graph), query, params, stats)
    }

    /// [`Candidate::find_g0`] with a query-thread knob: `threads > 1` (or 0,
    /// meaning all cores) runs the label-core reduction and per-pair
    /// butterfly counting on worker threads. Results are bit-identical to
    /// the sequential reference at every thread count.
    pub fn find_g0_threaded(
        graph: &'g LabeledGraph,
        query: &MbccQuery,
        params: &MbccParams,
        threads: usize,
        stats: &mut SearchStats,
    ) -> Result<(Self, Vec<ButterflyCounts>), SearchError> {
        Self::find_g0_in_threaded(GraphView::new(graph), query, params, threads, stats)
    }

    /// [`Candidate::find_g0`] over a pre-restricted view — the entry point
    /// for the local exploration of Algorithm 8, which hands in a small
    /// candidate neighborhood instead of the whole graph.
    pub fn find_g0_in(
        view: GraphView<'g>,
        query: &MbccQuery,
        params: &MbccParams,
        stats: &mut SearchStats,
    ) -> Result<(Self, Vec<ButterflyCounts>), SearchError> {
        Self::find_g0_in_threaded(view, query, params, 1, stats)
    }

    /// [`Candidate::find_g0_in`] with the query-thread knob of
    /// [`Candidate::find_g0_threaded`]. The candidate remembers the resolved
    /// thread count and reuses it for every later [`Candidate::recount_pair`].
    pub fn find_g0_in_threaded(
        mut view: GraphView<'g>,
        query: &MbccQuery,
        params: &MbccParams,
        threads: usize,
        stats: &mut SearchStats,
    ) -> Result<(Self, Vec<ButterflyCounts>), SearchError> {
        let threads = resolve_threads(threads);
        let graph = view.graph();
        let m = query.queries.len();
        if m < 2 {
            return Err(SearchError::TooFewQueries);
        }
        assert_eq!(params.ks.len(), m, "one k per query vertex required");
        let n = graph.vertex_count();
        for &q in &query.queries {
            if q.index() >= n {
                return Err(SearchError::QueryOutOfRange(q));
            }
        }
        let labels: Vec<Label> = query.queries.iter().map(|&q| graph.label(q)).collect();
        for i in 0..m {
            for j in (i + 1)..m {
                if labels[i] == labels[j] {
                    return Err(SearchError::DuplicateLabels);
                }
            }
        }

        // Lines 1–3: restrict to the query labels and peel to the per-label
        // cores.
        let mut thresholds = LabelCoreThresholds::new(graph.label_count());
        for (label, &k) in labels.iter().zip(&params.ks) {
            thresholds.require(*label, k);
        }
        if threads > 1 {
            // The parallel path computes the label coreness once (level-
            // synchronous peel) and filters on it — same surviving set, same
            // view counters, only the internal removal order differs.
            timed(&mut stats.time_core_decomp, || {
                bcc_cohesion::reduce_to_label_core_parallel(&mut view, &thresholds, threads)
            });
        } else {
            timed(&mut stats.time_core_decomp, || {
                bcc_cohesion::reduce_to_label_core(&mut view, &thresholds)
            });
        }
        for &q in &query.queries {
            if !view.is_alive(q) {
                return Err(SearchError::NoCandidate);
            }
        }

        // Per-label connected components: keep only each query's component
        // *within its label-induced subgraph* (Algorithm 2 lines 2–3).
        for (idx, &q) in query.queries.iter().enumerate() {
            let keep = same_label_component(&view, q);
            let to_remove: Vec<VertexId> = view
                .alive_vertices()
                .filter(|&v| graph.label(v) == labels[idx] && !keep.contains(v.index()))
                .collect();
            for v in to_remove {
                view.remove_vertex(v);
            }
            // Removing whole label components cannot break intra-label
            // cores of the surviving vertices, so no cascade is needed.
        }

        // Restrict to the connected component containing the queries (the
        // candidate must be a connected subgraph containing Q).
        let comp = view.component_of(query.queries[0]);
        for &q in &query.queries[1..] {
            if !comp.contains(q.index()) {
                return Err(SearchError::Disconnected);
            }
        }
        view.restrict_to(&comp);
        // Dropping other components may strand label-core violations only in
        // the removed part; inside the kept component degrees are unchanged.

        // Lines 4–9: butterfly counting per label pair + leader condition.
        let mut pairs = Vec::new();
        for i in 0..m {
            for j in (i + 1)..m {
                pairs.push((i, j));
            }
        }
        let mut pair_counts = Vec::with_capacity(pairs.len());
        let mut pair_alive = Vec::with_capacity(pairs.len());
        for &(i, j) in &pairs {
            let cross = BipartiteCross::new(labels[i], labels[j]);
            let counts = timed(&mut stats.time_butterfly_counting, || {
                ButterflyCounts::compute_with_threads(&view, cross, threads)
            });
            stats.butterfly_countings += 1;
            pair_alive.push(counts.satisfies_leader_condition(params.b));
            pair_counts.push(counts);
        }

        let g0_alive = view.alive_set().clone();
        let candidate = Candidate {
            view,
            thresholds,
            queries: query.queries.clone(),
            labels,
            b: params.b,
            pairs,
            pair_alive,
            g0_alive,
            query_threads: threads,
        };
        if !candidate.cross_group_connected() {
            return Err(SearchError::NoCandidate);
        }
        Ok((candidate, pair_counts))
    }

    /// Definition 7 check: the label groups, linked by pairs with live
    /// cross-group interaction, must form one connected block (checked with
    /// union-find, as Section 7 suggests). For m = 2 this is exactly the
    /// leader condition of Definition 4.
    pub fn cross_group_connected(&self) -> bool {
        let m = self.labels.len();
        let mut uf = UnionFind::new(m);
        for (idx, &(i, j)) in self.pairs.iter().enumerate() {
            if self.pair_alive[idx] {
                uf.union(i as u32, j as u32);
            }
        }
        uf.component_count() == 1
    }

    /// The [`BipartiteCross`] descriptor of pair `idx`.
    pub fn cross_of(&self, idx: usize) -> BipartiteCross {
        let (i, j) = self.pairs[idx];
        BipartiteCross::new(self.labels[i], self.labels[j])
    }

    /// Returns `true` if every query vertex is still alive.
    pub fn queries_alive(&self) -> bool {
        self.queries.iter().all(|&q| self.view.is_alive(q))
    }

    /// Removes `batch`, then cascades the label-core conditions
    /// (Algorithm 4 lines 1–3). `before_remove` fires for every vertex —
    /// batch or collateral — immediately *before* it is deleted, while the
    /// view still contains it (the precondition of Algorithm 7).
    ///
    /// Returns all removed vertices in deletion order.
    pub fn remove_batch_with(
        &mut self,
        batch: &[VertexId],
        mut before_remove: impl FnMut(&GraphView<'g>, VertexId),
    ) -> Vec<VertexId> {
        let mut removed = Vec::with_capacity(batch.len());
        let mut queue: std::collections::VecDeque<VertexId> = std::collections::VecDeque::new();
        for &v in batch {
            if self.view.is_alive(v) {
                before_remove(&self.view, v);
                self.remove_and_queue_violators(v, &mut queue);
                removed.push(v);
            }
        }
        while let Some(v) = queue.pop_front() {
            if !self.view.is_alive(v) || !self.violates(v) {
                continue;
            }
            before_remove(&self.view, v);
            self.remove_and_queue_violators(v, &mut queue);
            removed.push(v);
        }
        removed
    }

    /// Deletes `v`, then queues its live same-label neighbors that now
    /// violate their core threshold. The neighbor walk runs after the
    /// deletion: a dead vertex's view neighbors are its base neighbors
    /// that are still live, the same set (in the same order) as just
    /// before it died.
    fn remove_and_queue_violators(
        &mut self,
        v: VertexId,
        queue: &mut std::collections::VecDeque<VertexId>,
    ) {
        self.view.remove_vertex(v);
        for u in self.view.same_label_neighbors(v) {
            if self.violates(u) {
                queue.push_back(u);
            }
        }
    }

    #[inline]
    fn violates(&self, v: VertexId) -> bool {
        match self.thresholds.get(self.view.graph().label(v)) {
            Some(k) => (self.view.intra_degree(v) as u32) < k,
            None => true,
        }
    }

    /// Recounts butterflies for pair `idx` (a full Algorithm 3 run) and
    /// refreshes its liveness. Returns the fresh counts.
    pub fn recount_pair(&mut self, idx: usize, stats: &mut SearchStats) -> ButterflyCounts {
        let cross = self.cross_of(idx);
        let counts = timed(&mut stats.time_butterfly_counting, || {
            ButterflyCounts::compute_with_threads(&self.view, cross, self.query_threads)
        });
        stats.butterfly_countings += 1;
        self.pair_alive[idx] = self.pair_alive[idx] && counts.satisfies_leader_condition(self.b);
        counts
    }
}

/// The connected component of `q` inside its own label group (traversing
/// only same-label alive edges).
fn same_label_component(view: &GraphView<'_>, q: VertexId) -> BitSet {
    let mut comp = BitSet::new(view.graph().vertex_count());
    if !view.is_alive(q) {
        return comp;
    }
    comp.insert(q.index());
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(q);
    while let Some(v) = queue.pop_front() {
        for u in view.same_label_neighbors(v) {
            if comp.insert(u.index()) {
                queue.push_back(u);
            }
        }
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graph::GraphBuilder;

    /// Figure 2-style graph: left 4-clique (L), right 4-clique (R), a
    /// butterfly across, plus a stray Z-labeled vertex and a far L-clique
    /// not connected to the query component.
    fn fixture() -> (LabeledGraph, MbccQuery, MbccParams) {
        let mut b = GraphBuilder::new();
        let l: Vec<_> = (0..4).map(|_| b.add_vertex("L")).collect();
        let r: Vec<_> = (0..4).map(|_| b.add_vertex("R")).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_edge(l[i], l[j]);
                b.add_edge(r[i], r[j]);
            }
        }
        for &x in &l[..2] {
            for &y in &r[..2] {
                b.add_edge(x, y);
            }
        }
        let z = b.add_vertex("Z");
        b.add_edge(z, l[0]);
        // A second, disconnected L-clique.
        let far: Vec<_> = (0..4).map(|_| b.add_vertex("L")).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_edge(far[i], far[j]);
            }
        }
        let g = b.build();
        let query = MbccQuery::new(vec![l[0], r[0]]);
        let params = MbccParams::new(vec![3, 3], 1);
        (g, query, params)
    }

    #[test]
    fn find_g0_restricts_to_query_component_and_labels() {
        let (g, query, params) = fixture();
        let mut stats = SearchStats::default();
        let (candidate, counts) = Candidate::find_g0(&g, &query, &params, &mut stats).unwrap();
        assert_eq!(candidate.view.alive_count(), 8, "two 4-cliques only");
        assert!(!candidate.view.is_alive(VertexId(8)), "Z vertex excluded");
        assert!(!candidate.view.is_alive(VertexId(9)), "far clique excluded");
        assert_eq!(counts.len(), 1);
        assert!(counts[0].satisfies_leader_condition(1));
        assert!(candidate.cross_group_connected());
        assert_eq!(stats.butterfly_countings, 1);
    }

    #[test]
    fn find_g0_rejects_same_label_queries() {
        let (g, _, params) = fixture();
        let query = MbccQuery::new(vec![VertexId(0), VertexId(1)]);
        let mut stats = SearchStats::default();
        let err = Candidate::find_g0(&g, &query, &params, &mut stats).unwrap_err();
        assert_eq!(err, SearchError::DuplicateLabels);
    }

    #[test]
    fn find_g0_rejects_oversized_k() {
        let (g, query, _) = fixture();
        let params = MbccParams::new(vec![4, 3], 1);
        let mut stats = SearchStats::default();
        let err = Candidate::find_g0(&g, &query, &params, &mut stats).unwrap_err();
        assert_eq!(err, SearchError::NoCandidate, "no 4-core on the left");
    }

    #[test]
    fn find_g0_rejects_oversized_b() {
        let (g, query, _) = fixture();
        let params = MbccParams::new(vec![3, 3], 2);
        let mut stats = SearchStats::default();
        let err = Candidate::find_g0(&g, &query, &params, &mut stats).unwrap_err();
        assert_eq!(err, SearchError::NoCandidate, "only one butterfly exists");
    }

    #[test]
    fn find_g0_rejects_disconnected_queries() {
        let (g, _, params) = fixture();
        // far-clique member as left query, r0 as right: never connected.
        let query = MbccQuery::new(vec![VertexId(9), VertexId(4)]);
        let mut stats = SearchStats::default();
        let err = Candidate::find_g0(&g, &query, &params, &mut stats).unwrap_err();
        assert!(
            err == SearchError::Disconnected || err == SearchError::NoCandidate,
            "{err:?}"
        );
    }

    #[test]
    fn remove_batch_cascades_and_reports_order() {
        let (g, query, params) = fixture();
        let mut stats = SearchStats::default();
        let (mut candidate, _) = Candidate::find_g0(&g, &query, &params, &mut stats).unwrap();
        let mut seen = Vec::new();
        // Deleting any left vertex collapses the whole left 4-clique
        // (3-core of 3 vertices is impossible).
        let removed = candidate.remove_batch_with(&[VertexId(3)], |view, v| {
            assert!(view.is_alive(v), "callback must fire pre-deletion");
            seen.push(v);
        });
        assert_eq!(removed.len(), 4);
        assert_eq!(seen, removed);
        assert_eq!(candidate.view.alive_count(), 4);
    }

    #[test]
    fn find_g0_threaded_is_bit_identical_at_every_thread_count() {
        let (g, query, params) = fixture();
        let mut ref_stats = SearchStats::default();
        let (reference, ref_counts) =
            Candidate::find_g0(&g, &query, &params, &mut ref_stats).unwrap();
        for threads in [1usize, 2, 3, 7, 0] {
            let mut stats = SearchStats::default();
            let (cand, counts) =
                Candidate::find_g0_threaded(&g, &query, &params, threads, &mut stats).unwrap();
            assert_eq!(
                cand.view.alive_set(),
                reference.view.alive_set(),
                "threads={threads}"
            );
            assert_eq!(cand.pair_alive, reference.pair_alive, "threads={threads}");
            assert_eq!(stats.butterfly_countings, ref_stats.butterfly_countings);
            for (a, b) in counts.iter().zip(&ref_counts) {
                assert_eq!(a.chi, b.chi, "threads={threads}");
                assert_eq!(a.max_left, b.max_left, "threads={threads}");
                assert_eq!(a.max_right, b.max_right, "threads={threads}");
            }
        }
    }

    #[test]
    fn recount_pair_updates_liveness_monotonically() {
        let (g, query, params) = fixture();
        let mut stats = SearchStats::default();
        let (mut candidate, _) = Candidate::find_g0(&g, &query, &params, &mut stats).unwrap();
        // Kill one butterfly wing: the left vertex l1 that carries cross edges.
        candidate.remove_batch_with(&[VertexId(1)], |_, _| {});
        let counts = candidate.recount_pair(0, &mut stats);
        assert!(!counts.satisfies_leader_condition(1));
        assert!(!candidate.pair_alive[0]);
        assert!(!candidate.cross_group_connected());
    }
}
