//! The peel engine with Algorithm 5's decremental distances against the
//! same engine recomputing every distance by full BFS each round, over
//! planted query sets: both must return the same community, query
//! distance, iteration count and leaders, and every `SearchStats` count
//! except the two that name the distance strategy (`full_bfs_runs`,
//! `incremental_dist_updates`).

use bcc_core::candidate::Candidate;
use bcc_core::engine::{run_peel, EngineConfig};
use bcc_core::{BccIndex, MbccParams, MbccQuery, SearchStats};
use bcc_datasets::{NetworkSpec, QueryConstraints};
use bcc_graph::LabeledGraph;

/// Runs one query under `config`; `None` when the query has no candidate.
fn peel(
    graph: &LabeledGraph,
    query: &MbccQuery,
    params: &MbccParams,
    config: EngineConfig,
) -> Option<(bcc_core::engine::PeelOutcome, SearchStats)> {
    let mut stats = SearchStats::default();
    let (candidate, counts) = Candidate::find_g0(graph, query, params, &mut stats).ok()?;
    let outcome = run_peel(candidate, counts, config, &mut stats).ok()?;
    Some((outcome, stats))
}

/// Asserts full-BFS and decremental LP agree on every query; returns how
/// many queries produced a community, and their peel rounds in total.
fn assert_same_peel(spec: &NetworkSpec, queries: &[Vec<bcc_graph::VertexId>]) -> (usize, usize) {
    let net = spec.build();
    let index = BccIndex::build(&net.graph);
    let full_bfs = EngineConfig {
        fast_dist: false,
        ..EngineConfig::leader_pair()
    };
    let (mut answered, mut rounds) = (0, 0);
    for (n, vertices) in queries.iter().enumerate() {
        let query = MbccQuery::new(vertices.clone());
        let ks = vertices.iter().map(|&q| index.coreness(q).max(1)).collect();
        let params = MbccParams::new(ks, 1);
        let reference = peel(&net.graph, &query, &params, full_bfs);
        let fast = peel(&net.graph, &query, &params, EngineConfig::leader_pair());
        let ctx = format!("{} query {n} {vertices:?}", spec.name);
        let (Some((want, want_stats)), Some((got, got_stats))) = (reference, fast) else {
            continue;
        };
        answered += 1;
        rounds += want.iterations;
        assert_eq!(got.community, want.community, "{ctx}: community");
        assert_eq!(
            got.query_distance, want.query_distance,
            "{ctx}: query distance"
        );
        assert_eq!(got.iterations, want.iterations, "{ctx}: iterations");
        assert_eq!(got.leaders, want.leaders, "{ctx}: leaders");
        assert_eq!(
            got_stats.butterfly_countings, want_stats.butterfly_countings,
            "{ctx}"
        );
        assert_eq!(got_stats.leader_updates, want_stats.leader_updates, "{ctx}");
        assert_eq!(
            got_stats.vertices_deleted, want_stats.vertices_deleted,
            "{ctx}"
        );
        assert_eq!(got_stats.iterations, want_stats.iterations, "{ctx}");
        assert_eq!(
            got_stats.full_bfs_runs,
            vertices.len() as u64,
            "{ctx}: one BFS per query"
        );
        assert_eq!(
            got_stats.incremental_dist_updates, got_stats.iterations,
            "{ctx}"
        );
    }
    (answered, rounds)
}

fn pair_queries(spec: &NetworkSpec, count: usize) -> Vec<Vec<bcc_graph::VertexId>> {
    let net = spec.build();
    let constraints = QueryConstraints {
        degree_rank: 50,
        inter_distance: None,
    };
    bcc_datasets::random_community_queries(&net, count, constraints, 5)
        .into_iter()
        .map(|q| q.vertices)
        .collect()
}

#[test]
fn dblp_lp_peel_is_identical_with_decremental_distances() {
    let spec = bcc_datasets::dblp(0.3);
    let (answered, rounds) = assert_same_peel(&spec, &pair_queries(&spec, 24));
    assert!(
        answered >= 20 && rounds >= 4 * answered,
        "{answered} answers, {rounds} rounds"
    );
}

#[test]
fn youtube_lp_peel_is_identical_with_decremental_distances() {
    let spec = bcc_datasets::youtube(0.3);
    let (answered, rounds) = assert_same_peel(&spec, &pair_queries(&spec, 24));
    assert!(
        answered >= 20 && rounds >= 4 * answered,
        "{answered} answers, {rounds} rounds"
    );
}

#[test]
fn multi_label_lp_peel_is_identical_with_decremental_distances() {
    let spec = bcc_datasets::dblp_m(0.3, 3);
    let net = spec.build();
    let queries: Vec<_> = bcc_datasets::mbcc_queries(&net, 3, 16, 9)
        .into_iter()
        .map(|q| q.vertices)
        .collect();
    let (answered, rounds) = assert_same_peel(&spec, &queries);
    assert!(
        answered >= 12 && rounds >= 4 * answered,
        "{answered} answers, {rounds} rounds"
    );
}
