//! Self-tests of the benchmark's own pieces: percentile math, seeded draws,
//! answer validation and failure accounting.

use bcc_graph::{GraphBuilder, GraphView, LabeledGraph, VertexId};
use bcc_service::{session_error_json, ErrorKind, Method, QueryResponse, RequestError};
use bccbench::draw::{rng, Zipf};
use bccbench::json::Json;
use bccbench::outcome::{validate, Tally, Verdict};
use bccbench::stats::{beyond, median, nearest_rank, Summary};

#[test]
fn percentiles_follow_the_nearest_rank_rule() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(nearest_rank(&samples, 0.50), Some(50.0));
    assert_eq!(nearest_rank(&samples, 0.90), Some(90.0));
    assert_eq!(nearest_rank(&samples, 0.95), Some(95.0));
    assert_eq!(nearest_rank(&samples, 1.0), Some(100.0));
    assert_eq!(nearest_rank(&[7.0], 0.95), Some(7.0));
    assert_eq!(nearest_rank(&[], 0.5), None);
    assert_eq!(beyond(100, 0.95), 5);
    assert_eq!(beyond(200, 0.95), 10);
    assert_eq!(beyond(100, 0.90), 10);
    assert_eq!(beyond(0, 0.95), 0);

    let reversed: Vec<f64> = samples.iter().rev().copied().collect();
    let s = Summary::of(&reversed);
    assert_eq!(
        (s.n, s.p50, s.p90, s.p95, s.max),
        (100, 50.0, 90.0, 95.0, 100.0)
    );
    assert!((s.mean - 50.5).abs() < 1e-12);
    assert!(s.describe("ms").contains("n=100"));

    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

#[test]
fn zipf_draws_repeat_for_a_seed_and_differ_across_seeds() {
    let zipf = Zipf::new(64, 1.0);
    let ranks = |seed| -> Vec<usize> {
        let mut r = rng(seed, 9);
        (0..500).map(|_| zipf.sample(&mut r)).collect()
    };
    assert_eq!(ranks(1), ranks(1));
    assert_ne!(ranks(1), ranks(2));
    assert!(ranks(3).iter().all(|&r| r < 64));
    // Rank 0 is the most popular.
    let mut counts = [0usize; 64];
    for r in ranks(4).into_iter().chain(ranks(5)) {
        counts[r] += 1;
    }
    assert!(counts[0] > counts[10] && counts[0] > counts[63]);
    // Different streams of one seed are independent too.
    let mut a = rng(1, 8);
    let mut b = rng(1, 9);
    let draws = |r: &mut rand_chacha::ChaCha8Rng| -> Vec<usize> {
        (0..500).map(|_| zipf.sample(r)).collect()
    };
    assert_ne!(draws(&mut a), draws(&mut b));
}

/// Two 4-cliques (labels L and R) bridged by a butterfly, plus `x`: an L
/// vertex hanging off one clique, and `y`: a vertex of a third label.
/// `{l0..l3, r0..r3}` is a (3, 3, 1)-BCC for the query (l0, r0).
fn bridged_cliques() -> (LabeledGraph, Vec<VertexId>) {
    let mut b = GraphBuilder::new();
    let l: Vec<_> = (0..4).map(|_| b.add_vertex("L")).collect();
    let r: Vec<_> = (0..4).map(|_| b.add_vertex("R")).collect();
    for grp in [&l, &r] {
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_edge(grp[i], grp[j]);
            }
        }
    }
    for &x in &l[..2] {
        for &y in &r[..2] {
            b.add_edge(x, y);
        }
    }
    let x = b.add_vertex("L");
    b.add_edge(x, l[3]);
    let y = b.add_vertex("Z");
    b.add_edge(y, l[2]);
    let mut community: Vec<VertexId> = l.into_iter().chain(r).collect();
    community.sort_unstable();
    (b.build(), community)
}

fn answer(community: &[VertexId], ks: [u32; 2]) -> Json {
    let ids: Vec<String> = community.iter().map(|v| v.0.to_string()).collect();
    Json::parse(&format!(
        "{{\"ok\":true,\"seq\":0,\"ks\":[{},{}],\"b\":1,\"community\":[{}]}}",
        ks[0],
        ks[1],
        ids.join(",")
    ))
    .unwrap()
}

#[test]
fn validation_rejects_tampered_communities() {
    let (g, community) = bridged_cliques();
    let coreness = bcc_cohesion::label_core_decomposition(&GraphView::new(&g));
    let queries = [VertexId(0), VertexId(4)];
    let ks = [coreness[0], coreness[4]];
    assert_eq!(ks, [3, 3]);
    assert_eq!(
        validate(&g, &coreness, &queries, false, &answer(&community, ks)),
        Ok(())
    );
    // The same answer checked as a 2-label msearch.
    assert_eq!(
        validate(&g, &coreness, &queries, true, &answer(&community, ks)),
        Ok(())
    );

    // A member dropped: its clique falls below the 3-core.
    for dropped in 0..community.len() {
        let mut tampered = community.clone();
        tampered.remove(dropped);
        assert!(
            validate(&g, &coreness, &queries, false, &answer(&tampered, ks)).is_err(),
            "dropped {dropped}"
        );
    }
    // A vertex added from outside: a low-degree L vertex, or a third label.
    for outsider in [VertexId(8), VertexId(9)] {
        let mut tampered = community.clone();
        tampered.push(outsider);
        tampered.sort_unstable();
        assert!(
            validate(&g, &coreness, &queries, false, &answer(&tampered, ks)).is_err(),
            "added {outsider}"
        );
    }
    // Weakened parameters and duplicated members are rejected too.
    assert!(validate(&g, &coreness, &queries, false, &answer(&community, [2, 3])).is_err());
    let mut doubled = community.clone();
    doubled.push(community[0]);
    assert!(validate(&g, &coreness, &queries, false, &answer(&doubled, ks)).is_err());
}

#[test]
fn failure_rate_counts_structured_errors_but_not_no_answer() {
    let error = |kind, message: &str| {
        QueryResponse::error(
            3,
            "g",
            Method::Lp,
            RequestError {
                kind,
                message: message.into(),
            },
        )
        .to_json()
    };
    let internal = error(ErrorKind::Internal, "worker died");
    let timeout = error(ErrorKind::Timeout, "deadline passed");
    let no_answer = error(
        ErrorKind::Search,
        "no butterfly-core community satisfies the parameters",
    );
    let overloaded = session_error_json(Some(4), "overloaded", "queue full");

    assert!(Verdict::of(Some(&internal)).is_failed());
    assert!(Verdict::of(Some(&timeout)).is_failed());
    assert!(Verdict::of(Some(&overloaded)).is_failed());
    assert_eq!(
        Verdict::of(Some(&overloaded)),
        Verdict::Failed("error `overloaded`".into())
    );
    assert_eq!(Verdict::of(Some(&no_answer)), Verdict::NoAnswer);
    assert!(Verdict::of(None).is_failed());
    assert!(Verdict::of(Some("{\"ok\":")).is_failed());

    let mut tally = Tally::default();
    for line in [&internal, &overloaded, &no_answer, &no_answer] {
        tally.count(&Verdict::of(Some(line)));
    }
    tally.count(&Verdict::of(Some(
        "{\"ok\":true,\"seq\":9,\"community\":[1,2]}",
    )));
    assert_eq!(
        (
            tally.attempted,
            tally.failed,
            tally.no_answer,
            tally.answered
        ),
        (5, 2, 2, 1)
    );
    assert_eq!(tally.failure_rate(), 0.4);
}
