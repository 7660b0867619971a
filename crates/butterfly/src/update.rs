//! Algorithm 7 — butterfly-degree update for a leader vertex.
//!
//! When Algorithm 1 deletes a vertex `v`, a leader `p`'s butterfly degree
//! χ(p) only loses the butterflies containing *both* `p` and `v`. Algorithm 7
//! computes that loss in O(d²) instead of recounting the whole side:
//!
//! * same side (`ℓ(p) = ℓ(v)`): the lost butterflies pick 2 of the
//!   `α = |N(v) ∩ N(p)|` shared cross neighbors → `C(α, 2)`;
//! * opposite sides (`ℓ(p) ≠ ℓ(v)`): nothing is lost unless `v ∈ N(p)`;
//!   otherwise each wing partner `u ∈ N(v) \ {p}` contributes
//!   `|N(u) ∩ N(p)| − 1` (the shared cross neighbors other than `v`).
//!
//! Neighborhoods are in the bipartite cross-graph `B`.
//!
//! All routines read through [`bcc_graph::GraphRead`]: Algorithm 1 passes
//! its live [`bcc_graph::GraphView`], the incremental index maintenance
//! passes a bare snapshot or the mid-batch [`bcc_graph::OverlayGraph`] —
//! no O(|V|) view construction on the maintenance path. Neighborhood
//! membership runs on the dense epoch-stamped [`WedgeScratch`] (no hash
//! sets); the `*_with` variants take the scratch explicitly so loops reuse
//! one allocation across many deltas. [`leader_decrement_marked`] goes one
//! step further for the peel, where one leader faces thousands of victims:
//! it probes marks of the leader's cross neighbors taken once, when the
//! leader was picked, and every other vertex form delegates to it.

use bcc_graph::{GraphRead, VertexId, WedgeScratch};

use crate::bipartite::BipartiteCross;
use crate::counting::choose2;

/// How much χ(p) decreases when `v` is deleted. Must be called while `v` is
/// still live in `g` (i.e. *before* the view deletes it).
///
/// Returns 0 when either vertex lies outside the cross-graph. Borrows a
/// thread-local [`WedgeScratch`] for the neighborhood marks; hot loops
/// (e.g. the Algorithm 1 peel, the batched index patcher) should pass an
/// explicit reused scratch via [`leader_decrement_with`].
pub fn leader_decrement<G: GraphRead>(
    g: &G,
    cross: BipartiteCross,
    p: VertexId,
    v: VertexId,
) -> u64 {
    WedgeScratch::with_thread_local(|scratch| leader_decrement_with(g, cross, p, v, scratch))
}

/// [`leader_decrement`] on a caller-provided scratch: marks `p`'s live
/// cross neighbors in `scratch`, then applies [`leader_decrement_marked`].
pub fn leader_decrement_with<G: GraphRead>(
    g: &G,
    cross: BipartiteCross,
    p: VertexId,
    v: VertexId,
    scratch: &mut WedgeScratch,
) -> u64 {
    scratch.reset_for(g.vertex_count());
    for u in cross.cross_neighbors(g, p) {
        scratch.mark(u);
    }
    leader_decrement_marked(g, cross, p, v, |u| scratch.contains(u))
}

/// [`leader_decrement`] against precomputed marks of `p`'s cross
/// neighbors, so that a leader facing many deletions marks its
/// neighborhood once instead of once per victim.
///
/// `marked(u)` must hold for every live cross neighbor of `p`, and for no
/// live vertex that is not one. Marks taken on an earlier state of a view
/// that has since only *lost* vertices satisfy this: every lookup below
/// probes only live neighbors of the victim's wing, and a marked vertex
/// that is still live is still adjacent to `p`. Must be called while `v`
/// is live in `g`.
pub fn leader_decrement_marked<G: GraphRead>(
    g: &G,
    cross: BipartiteCross,
    p: VertexId,
    v: VertexId,
    marked: impl Fn(VertexId) -> bool,
) -> u64 {
    if p == v {
        return 0; // the caller is about to lose the leader entirely
    }
    let (lp, lv) = (g.label(p), g.label(v));
    if cross.opposite(lp).is_none() || cross.opposite(lv).is_none() {
        return 0;
    }
    if lp == lv {
        // Same side: butterflies containing p and v choose 2 of the
        // α = |N(v) ∩ N(p)| common cross neighbors.
        let alpha = cross.cross_neighbors(g, v).filter(|&u| marked(u)).count();
        choose2(alpha as u64)
    } else {
        // Opposite sides: only butterflies using the edge (p, v) die.
        if !marked(v) {
            return 0;
        }
        let mut beta = 0u64;
        for u in cross.cross_neighbors(g, v) {
            if u == p {
                continue;
            }
            // |N(u) ∩ N(p)| − 1: common cross neighbors of u and p other
            // than v itself (v is common since u ∈ N(v) and v ∈ N(p)).
            let common = cross.cross_neighbors(g, u).filter(|&w| marked(w)).count() as u64;
            beta += common.saturating_sub(1);
        }
        beta
    }
}

/// Algorithm 7 at *edge* granularity: the number of butterflies that
/// contain both `p` and the cross edge `{u, v}` — i.e. how much χ(p) drops
/// when that edge is deleted (equivalently: how much it rose when the edge
/// was just inserted, evaluated on the graph that contains the edge).
///
/// Butterflies are 2×2 bicliques, so a butterfly containing two adjacent
/// opposite-side vertices necessarily uses the edge between them; the
/// endpoint cases therefore reduce to [`leader_decrement`] verbatim, and a
/// wing vertex `p` on `u`'s side loses one butterfly `{u, p} × {v, w}` per
/// common cross neighbor `w ≠ v` — provided `p` is itself adjacent to `v`.
/// Cost is O(d²) like the vertex form.
///
/// Returns 0 when `p` is unrelated to the edge (not adjacent to the far
/// endpoint, outside the cross-graph, or dead in a view — a dead vertex has
/// no live neighbors). The edge must be present in `g`.
pub fn edge_decrement<G: GraphRead>(
    g: &G,
    cross: BipartiteCross,
    p: VertexId,
    u: VertexId,
    v: VertexId,
) -> u64 {
    WedgeScratch::with_thread_local(|scratch| edge_decrement_with(g, cross, p, u, v, scratch))
}

/// [`edge_decrement`] on a caller-provided scratch — the form the batched
/// index patcher uses, one scratch for a whole commit.
pub fn edge_decrement_with<G: GraphRead>(
    g: &G,
    cross: BipartiteCross,
    p: VertexId,
    u: VertexId,
    v: VertexId,
    scratch: &mut WedgeScratch,
) -> u64 {
    debug_assert!(g.has_edge(u, v), "edge deltas are evaluated while the edge exists");
    debug_assert_ne!(g.label(u), g.label(v), "cross edges are heterogeneous");
    if p == u {
        return leader_decrement_with(g, cross, u, v, scratch);
    }
    if p == v {
        return leader_decrement_with(g, cross, v, u, scratch);
    }
    let lp = g.label(p);
    if cross.opposite(lp).is_none() {
        return 0;
    }
    // A wing vertex must sit on one of the edge's sides and close the
    // 4-cycle with the far endpoint.
    let (near, far) = if lp == g.label(u) {
        (u, v)
    } else if lp == g.label(v) {
        (v, u)
    } else {
        return 0;
    };
    if !cross.cross_neighbors(g, p).any(|w| w == far) {
        return 0;
    }
    // Common cross neighbors of p and the same-side endpoint, minus `far`
    // itself (counted in the intersection because far ∈ N(near) ∩ N(p)).
    (common_cross_neighbors(g, cross, p, near, scratch) as u64).saturating_sub(1)
}

/// `|N(a) ∩ N(b)|` in the cross-graph for two same-side vertices, marking
/// `N(a)` in the scratch and probing it with `N(b)`.
fn common_cross_neighbors<G: GraphRead>(
    g: &G,
    cross: BipartiteCross,
    a: VertexId,
    b: VertexId,
    scratch: &mut WedgeScratch,
) -> usize {
    scratch.reset_for(g.vertex_count());
    for u in cross.cross_neighbors(g, a) {
        scratch.mark(u);
    }
    cross.cross_neighbors(g, b).filter(|&u| scratch.contains(u)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::{butterfly_degrees, ButterflyCounts};
    use bcc_graph::{GraphBuilder, GraphView, Label, LabeledGraph};
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn cross01() -> BipartiteCross {
        BipartiteCross::new(Label(0), Label(1))
    }

    /// The Figure 3 bipartite subgraph of the paper (used by Example 6):
    /// L = {v1, v2, v3}, R = {u1..u9} with the example's cross edges.
    fn figure3() -> (LabeledGraph, Vec<VertexId>, Vec<VertexId>) {
        let mut b = GraphBuilder::new();
        let l: Vec<_> = (0..3).map(|i| b.add_named_vertex(&format!("v{}", i + 1), "L")).collect();
        let r: Vec<_> = (0..9).map(|i| b.add_named_vertex(&format!("u{}", i + 1), "R")).collect();
        // Edges chosen so that χ(v1)=χ(v3)=6 and χ(u2)=χ(u3)=χ(u5)=χ(u6)=3,
        // the non-zero butterfly degrees quoted in Example 5.
        // v1 and v3 share cross neighbors {u2, u3, u5, u6}; v2 has {u1}.
        for &u in &[1usize, 2, 4, 5] {
            b.add_edge(l[0], r[u]);
            b.add_edge(l[2], r[u]);
        }
        b.add_edge(l[1], r[0]);
        let g = b.build();
        (g, l, r)
    }

    #[test]
    fn figure3_butterfly_degrees_match_example5() {
        let (g, l, r) = figure3();
        let view = GraphView::new(&g);
        let chi = butterfly_degrees(&view, cross01());
        assert_eq!(chi[l[0].index()], 6, "χ(v1) = 6");
        assert_eq!(chi[l[2].index()], 6, "χ(v3) = 6");
        for &u in &[1usize, 2, 4, 5] {
            assert_eq!(chi[r[u].index()], 3, "χ(u{}) = 3", u + 1);
        }
        assert_eq!(chi[l[1].index()], 0);
        assert_eq!(chi[r[0].index()], 0);
    }

    #[test]
    fn example6_same_label_update() {
        // Deleting u6 (same side as leader u2): common neighbors {v1, v3},
        // α = 2 → χ(u2) drops by C(2,2)... C(2,2)=1: 3 → 2.
        let (g, _l, r) = figure3();
        let view = GraphView::new(&g);
        let u2 = r[1];
        let u6 = r[5];
        let dec = leader_decrement(&view, cross01(), u2, u6);
        assert_eq!(dec, 1);
    }

    #[test]
    fn example6_cross_label_update() {
        // Deleting u6 with leader v1 (opposite sides, adjacent): β = 3,
        // χ(v1): 6 → 3.
        let (g, l, r) = figure3();
        let view = GraphView::new(&g);
        let dec = leader_decrement(&view, cross01(), l[0], r[5]);
        assert_eq!(dec, 3);
    }

    #[test]
    fn non_adjacent_cross_deletion_costs_nothing() {
        let (g, l, r) = figure3();
        let view = GraphView::new(&g);
        // u1 is only adjacent to v2; deleting it cannot affect v1.
        let dec = leader_decrement(&view, cross01(), l[0], r[0]);
        assert_eq!(dec, 0);
    }

    #[test]
    fn update_matches_recount_randomized() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for trial in 0..30 {
            let mut b = GraphBuilder::new();
            let left: Vec<_> = (0..7).map(|_| b.add_vertex("L")).collect();
            let right: Vec<_> = (0..7).map(|_| b.add_vertex("R")).collect();
            for &x in &left {
                for &y in &right {
                    if rng.gen_bool(0.4) {
                        b.add_edge(x, y);
                    }
                }
            }
            let g = b.build();
            let mut view = GraphView::new(&g);
            let cross = cross01();
            let before = butterfly_degrees(&view, cross);
            // Pick a leader and a victim on random sides.
            let all: Vec<VertexId> = left.iter().chain(&right).copied().collect();
            let p = all[rng.gen_range(0..all.len())];
            let mut v = all[rng.gen_range(0..all.len())];
            while v == p {
                v = all[rng.gen_range(0..all.len())];
            }
            let dec = leader_decrement(&view, cross, p, v);
            view.remove_vertex(v);
            let after = butterfly_degrees(&view, cross);
            assert_eq!(
                before[p.index()] - dec,
                after[p.index()],
                "trial {trial}: χ(p) {} − {dec} should equal {}",
                before[p.index()],
                after[p.index()]
            );
        }
    }

    /// Marks taken once, before any deletion, stay exact for every later
    /// (leader, victim) pair on both sides while vertices die one by one —
    /// including third-label vertices outside the cross-graph.
    #[test]
    fn marked_decrement_matches_scratch_under_deletion() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(31);
        for trial in 0..12 {
            let mut b = GraphBuilder::new();
            let vs: Vec<VertexId> =
                (0..24).map(|i| b.add_vertex(["L", "R", "Z"][i % 3])).collect();
            for (i, &x) in vs.iter().enumerate() {
                for &y in &vs[i + 1..] {
                    if rng.gen_bool(0.35) {
                        b.add_edge(x, y);
                    }
                }
            }
            let g = b.build();
            let cross = cross01();
            let mut view = GraphView::new(&g);
            let marks: Vec<bcc_graph::BitSet> = vs
                .iter()
                .map(|&p| {
                    let mut set = bcc_graph::BitSet::new(g.vertex_count());
                    for u in cross.cross_neighbors(&view, p) {
                        set.insert(u.index());
                    }
                    set
                })
                .collect();
            let mut order = vs.clone();
            order.shuffle(&mut rng);
            for &victim_of_step in &order {
                for &p in vs.iter().filter(|&&p| view.is_alive(p) && cross.contains(&g, p)) {
                    for v in view.alive_vertices() {
                        let marked = |u: VertexId| marks[p.index()].contains(u.index());
                        assert_eq!(
                            leader_decrement_marked(&view, cross, p, v, marked),
                            leader_decrement(&view, cross, p, v),
                            "trial {trial}: leader {p}, victim {v}"
                        );
                    }
                }
                view.remove_vertex(victim_of_step);
            }
        }
    }

    #[test]
    fn figure3_edge_decrements() {
        // Butterflies containing the edge (v1, u2) are {v1, v3} × {u2, x}
        // for x ∈ {u3, u5, u6}: three of them.
        let (g, l, r) = figure3();
        let view = GraphView::new(&g);
        let (v1, v3, u2, u3, u1) = (l[0], l[2], r[1], r[2], r[0]);
        assert_eq!(edge_decrement(&view, cross01(), v1, v1, u2), 3, "endpoint v1");
        assert_eq!(edge_decrement(&view, cross01(), u2, v1, u2), 3, "endpoint u2");
        assert_eq!(edge_decrement(&view, cross01(), v3, v1, u2), 3, "wing v3");
        assert_eq!(edge_decrement(&view, cross01(), u3, v1, u2), 1, "wing u3");
        assert_eq!(edge_decrement(&view, cross01(), u1, v1, u2), 0, "u1 closes no 4-cycle");
        assert_eq!(edge_decrement(&view, cross01(), l[1], v1, u2), 0, "v2 closes no 4-cycle");
    }

    #[test]
    fn edge_decrement_matches_recount_randomized() {
        use bcc_graph::{apply_change, EdgeChange, EdgeOp};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        for trial in 0..30 {
            let mut b = GraphBuilder::new();
            let left: Vec<_> = (0..6).map(|_| b.add_vertex("L")).collect();
            let right: Vec<_> = (0..6).map(|_| b.add_vertex("R")).collect();
            for &x in &left {
                for &y in &right {
                    if rng.gen_bool(0.45) {
                        b.add_edge(x, y);
                    }
                }
            }
            let g = b.build();
            let cross_edges: Vec<(VertexId, VertexId)> = g.edges().collect();
            if cross_edges.is_empty() {
                continue;
            }
            let (u, v) = cross_edges[rng.gen_range(0..cross_edges.len())];
            let shrunk =
                apply_change(&g, &EdgeChange { u, v, op: EdgeOp::Remove });
            let cross = cross01();
            let view = GraphView::new(&g);
            let before = butterfly_degrees(&view, cross);
            let after = butterfly_degrees(&GraphView::new(&shrunk), cross);
            for p in g.vertices() {
                assert_eq!(
                    before[p.index()] - edge_decrement(&view, cross, p, u, v),
                    after[p.index()],
                    "trial {trial}: χ({p}) delta for edge ({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn counts_struct_agrees_with_figure3() {
        let (g, l, _r) = figure3();
        let view = GraphView::new(&g);
        let counts = ButterflyCounts::compute(&view, cross01());
        assert_eq!(counts.max_left, 6);
        assert_eq!(counts.max_right, 3);
        assert_eq!(counts.side_argmax(&view, g.label(l[0])).map(|v| counts.chi(v)), Some(6));
    }
}
