//! Off-the-clock correctness check of a played run: every response is
//! classified, and every distinct `ok:true` answer is validated against the
//! graph version(s) that could have produced it.

use std::collections::BTreeMap;

use bcc_graph::GraphView;
use bcc_service::{CommitOutcome, GraphEntry, GraphRegistry};

use crate::json::Json;
use crate::outcome::{validate, Tally, Verdict};
use crate::workload::{Flip, Op, Played, Workload};

/// The run's failure count and the first few reasons.
pub struct Checked {
    pub tally: Tally,
    pub problems: Vec<String>,
    /// Distinct answers validated.
    pub distinct_answers: usize,
}

/// One distinct answer still to be validated.
struct Pending {
    query: usize,
    /// First and last graph version it may have been computed on.
    lo: usize,
    hi: usize,
    answer: Json,
    /// How many samples carried this answer.
    samples: u64,
    /// Why the last version tried rejected it.
    why: String,
}

/// The response without its per-response `seq` field, so that identical
/// answers to the same request compare equal.
fn canonical(json: &Json) -> String {
    match json {
        Json::Obj(members) => format!(
            "{:?}",
            members
                .iter()
                .filter(|(k, _)| k != "seq")
                .collect::<Vec<_>>()
        ),
        other => format!("{other:?}"),
    }
}

/// Classifies and validates every sample of `played`.
///
/// A query answered while commits were in flight may reflect the graph
/// before or after them: it passes if it is valid on any version between
/// the last commit acknowledged before it was sent and the last commit sent
/// before its response arrived. Versions are rebuilt by replaying the
/// committed batches on a private registry, the client's own copy of the
/// committed graph.
pub fn check(w: &Workload, played: &Played) -> Checked {
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    // Commit acknowledgement/send times, in commit order.
    let commits: Vec<(f64, f64)> = played
        .samples
        .iter()
        .filter(|s| {
            s.op == Op::Commit && matches!(Verdict::of(s.response.as_deref()), Verdict::Answer(_))
        })
        .map(|s| (s.sent, s.received))
        .collect();
    // (query, lo, hi, canonical answer) -> (answer, samples carrying it).
    let mut distinct: BTreeMap<(usize, usize, usize, String), (Json, u64)> = BTreeMap::new();
    for s in &played.samples {
        let verdict = Verdict::of(s.response.as_deref());
        match (&verdict, s.query) {
            (Verdict::Answer(json), Some(q)) => {
                let lo = commits.iter().filter(|c| c.1 < s.sent).count();
                let hi = commits.iter().filter(|c| c.0 < s.received).count();
                let entry = distinct
                    .entry((q, lo, hi, canonical(json)))
                    .or_insert((json.clone(), 0));
                entry.1 += 1;
                // Counted once validated below.
                tally.attempted += 1;
                tally.answered += 1;
            }
            (Verdict::Failed(why), _) => {
                if problems.len() < 5 {
                    let line = s.query.map_or("(mutation)", |q| w.queries[q].line.as_str());
                    problems.push(format!("{why}: {line}"));
                }
                tally.count(&verdict);
            }
            _ => tally.count(&verdict),
        }
    }

    let distinct_answers = distinct.len();
    let mut pending: Vec<Pending> = distinct
        .into_iter()
        .map(|((query, lo, hi, _), (answer, samples))| Pending {
            query,
            lo,
            hi,
            answer,
            samples,
            why: String::new(),
        })
        .collect();
    let registry = GraphRegistry::new();
    let mut entry = registry.insert("g", w.graph().clone());
    let last = pending.iter().map(|p| p.hi).max().unwrap_or(0);
    for version in 0..=last.min(played.batches.len()) {
        if version > 0 {
            // A batch the server committed but the private registry
            // rejects makes that commit a failed one; the answers that need
            // this or a later version stay pending and fail below.
            match replay_batch(&registry, &entry, &played.batches[version - 1]) {
                Ok(outcome) => entry = outcome.entry,
                Err(why) => {
                    tally.failed += 1;
                    problems.push(format!("committed batch {version} does not replay: {why}"));
                    break;
                }
            }
        }
        if !pending.iter().any(|p| p.lo <= version && version <= p.hi) {
            continue;
        }
        let graph = entry.graph();
        let coreness = bcc_cohesion::label_core_decomposition(&GraphView::new(graph));
        pending.retain_mut(|p| {
            if version < p.lo || p.hi < version {
                return true;
            }
            let query = &w.queries[p.query];
            match validate(graph, &coreness, &query.vertices, query.multi, &p.answer) {
                Ok(()) => false,
                Err(why) => {
                    p.why = why;
                    true
                }
            }
        });
    }
    // Whatever is left was valid on no version it could have seen.
    for p in &pending {
        tally.failed += p.samples;
        tally.answered -= p.samples;
        if problems.len() < 5 {
            problems.push(format!(
                "invalid answer on graph versions {}..={} ({}): {}",
                p.lo, p.hi, p.why, w.queries[p.query].line
            ));
        }
    }
    Checked {
        tally,
        problems,
        distinct_answers,
    }
}

/// Stages and commits one batch of flips on `registry`'s graph `g`, whose
/// current version is `entry`.
pub fn replay_batch(
    registry: &GraphRegistry,
    entry: &GraphEntry,
    batch: &[Flip],
) -> Result<CommitOutcome, String> {
    for &(u, v, insert) in batch {
        registry.stage_edge(entry, u, v, insert)?;
    }
    registry.commit("g")
}
