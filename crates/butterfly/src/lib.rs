//! Butterfly (2×2 biclique) analytics on the bipartite cross-graph between
//! two label groups.
//!
//! The BCC model quantifies cross-group interaction with *butterflies*
//! (Definition 2): complete 2×2 bicliques across the two labeled groups.
//! This crate implements:
//!
//! * [`counting`] — the per-vertex butterfly-degree algorithm of the paper's
//!   Algorithm 3 on a dense epoch-stamped wedge scratch (plus a BFC-VP-style
//!   vertex-priority per-vertex variant and global counters in the style of
//!   Wang et al. [41]; the seed's hash-map kernel is retained as the
//!   differential reference);
//! * [`update`] — Algorithm 7, the O(d²) butterfly-degree *update* for a
//!   leader vertex when a single vertex is deleted;
//! * [`leader`] — Algorithm 6, leader-pair identification by binary search
//!   over the butterfly-degree threshold within ρ hops of a query vertex;
//! * [`approx`] — randomized estimators (pair sampling, edge
//!   sparsification) in the style of Sanei-Mehri et al. [32].
//!
//! ```
//! use bcc_graph::{GraphBuilder, GraphView};
//! use bcc_butterfly::{BipartiteCross, ButterflyCounts};
//!
//! // One butterfly: {l0, l1} × {r0, r1}.
//! let mut b = GraphBuilder::new();
//! let l0 = b.add_vertex("L");
//! let l1 = b.add_vertex("L");
//! let r0 = b.add_vertex("R");
//! let r1 = b.add_vertex("R");
//! for (x, y) in [(l0, r0), (l0, r1), (l1, r0), (l1, r1)] {
//!     b.add_edge(x, y);
//! }
//! let g = b.build();
//!
//! let view = GraphView::new(&g);
//! let counts = ButterflyCounts::compute(&view, BipartiteCross::new(g.label(l0), g.label(r0)));
//! assert_eq!(counts.chi(l0), 1);
//! assert_eq!(counts.total(), 1);
//! assert!(counts.satisfies_leader_condition(1));
//! ```

pub mod approx;
pub mod bipartite;
pub mod counting;
pub mod leader;
pub mod update;

pub use approx::{approx_total_butterflies_espar, approx_total_butterflies_pairs};
pub use bipartite::BipartiteCross;
pub use counting::{
    brute_force_butterfly_degrees, butterfly_degree_of, butterfly_degree_of_with,
    butterfly_degrees, butterfly_degrees_hash, butterfly_degrees_priority, total_butterflies,
    total_butterflies_priority, ButterflyCounts,
};
pub use leader::{identify_leader, LeaderConfig};
pub use update::{
    edge_decrement, edge_decrement_with, leader_decrement, leader_decrement_marked,
    leader_decrement_with,
};
