//! # bcc-core — the Butterfly-Core Community model and search algorithms
//!
//! Implements the primary contribution of *Butterfly-Core Community Search
//! over Labeled Graphs* (PVLDB 14(1), 2021):
//!
//! | Paper artifact | Here |
//! |---|---|
//! | Definition 4 (BCC model) | [`BccParams`], [`is_valid_bcc`] |
//! | Problem 1 (BCC search) | [`OnlineBcc::search`] et al. |
//! | Algorithm 1 (online greedy, 2-approx) | [`OnlineBcc`], [`engine`] |
//! | Algorithm 2 (finding G₀) | [`candidate::Candidate::find_g0`] |
//! | Algorithm 4 (BCC maintenance) | [`candidate::Candidate::remove_batch_with`] + engine recounts |
//! | Algorithm 5 (fast query distance) | [`fast_dist::IncrementalDistances`]: exact decremental update that re-settles only the survivors left without a parent one level closer |
//! | Algorithms 6–7 (leader pairs) | [`LpBcc`] via [`engine`]: `bcc_butterfly::identify_leader` picks, `bcc_butterfly::leader_decrement_marked` updates against the leader's cross-neighbor marks, taken once per pick |
//! | Section 6.3 (BCindex + local search, Algorithm 8) | [`BccIndex`], [`L2pBcc`] |
//! | Section 7 (mBCC, Algorithm 9) | [`MultiLabelBcc`] |
//!
//! The three public searchers mirror the paper's evaluated methods:
//! **Online-BCC**, **LP-BCC**, **L2P-BCC**; [`MultiLabelBcc`] provides their
//! multi-label extensions.
//!
//! ```
//! use bcc_graph::GraphBuilder;
//! use bcc_core::{BccParams, BccQuery, OnlineBcc};
//!
//! // Two labeled 4-cliques bridged by a butterfly.
//! let mut b = GraphBuilder::new();
//! let l: Vec<_> = (0..4).map(|_| b.add_vertex("L")).collect();
//! let r: Vec<_> = (0..4).map(|_| b.add_vertex("R")).collect();
//! for grp in [&l, &r] {
//!     for i in 0..4 {
//!         for j in (i + 1)..4 {
//!             b.add_edge(grp[i], grp[j]);
//!         }
//!     }
//! }
//! for &x in &l[..2] {
//!     for &y in &r[..2] {
//!         b.add_edge(x, y);
//!     }
//! }
//! let g = b.build();
//!
//! let result = OnlineBcc::default()
//!     .search(&g, &BccQuery::pair(l[0], r[0]), &BccParams::new(3, 3, 1))
//!     .unwrap();
//! assert_eq!(result.community.len(), 8);
//! assert!(result.leaders.iter().all(|v| result.contains(v)));
//! ```

pub mod candidate;
pub mod engine;
pub mod fast_dist;
pub mod incremental;
pub mod index;
pub mod local;
pub mod model;
pub mod multi;
pub mod online;
pub mod stats;

pub use engine::EngineConfig;
pub use fast_dist::IncrementalDistances;
pub use incremental::{
    affected_neighborhood, patch_index_batch, patch_index_edge, BatchPatchReport, PatchReport,
};
pub use index::{
    hetero_butterfly_degree_of, hetero_butterfly_degree_of_with, hetero_butterfly_degrees,
    hetero_butterfly_degrees_hash, BccIndex,
};
pub use local::{butterfly_core_path, expand_candidate, PathWeights};
pub use model::{
    is_valid_bcc, is_valid_mbcc, BccParams, BccQuery, BccResult, MbccParams, MbccQuery,
    SearchError,
};
pub use multi::{MultiLabelBcc, MultiStrategy};
pub use online::{L2pBcc, LpBcc, OnlineBcc};
pub use stats::SearchStats;
