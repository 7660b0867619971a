//! What counts as a failure, and the feasibility check of every answer.
//!
//! * Failed: no response or a transport error; a structured error other
//!   than `search` (`internal`, `timeout`, `overloaded`, `parse`,
//!   `resolve`, `mutate`, ...); an `ok:true` answer that fails validation.
//! * Not failed: a `search` error — "no BCC exists" is a legitimate answer,
//!   counted in `engine.no_answer_ratio` instead.

use bcc_core::{is_valid_bcc, is_valid_mbcc, BccParams, BccQuery, MbccParams, MbccQuery};
use bcc_graph::{GraphView, LabeledGraph, VertexId};

use crate::json::Json;

/// The classification of one response line.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// `ok:true` — still to be validated when it carries a community.
    Answer(Json),
    /// A `search` error: no community exists for the query.
    NoAnswer,
    /// Everything else that is not a success.
    Failed(String),
}

impl Verdict {
    /// Classifies a response line; `None` means no response arrived.
    pub fn of(line: Option<&str>) -> Verdict {
        let Some(line) = line else {
            return Verdict::Failed("no response".into());
        };
        let json = match Json::parse(line) {
            Ok(json) => json,
            Err(e) => return Verdict::Failed(format!("unparsable response ({e})")),
        };
        match json.get("ok").and_then(Json::as_bool) {
            Some(true) => Verdict::Answer(json),
            // Query errors carry `"error":"<kind>"`; session-level errors
            // (admission, framing) carry `"error":{"kind":"<kind>",...}`.
            Some(false) => match json
                .get("error")
                .and_then(|e| e.as_str().or(e.get("kind").and_then(Json::as_str)))
            {
                Some("search") => Verdict::NoAnswer,
                Some(kind) => Verdict::Failed(format!("error `{kind}`")),
                None => Verdict::Failed("error without a kind".into()),
            },
            None => Verdict::Failed("response without an `ok` field".into()),
        }
    }

    pub fn is_failed(&self) -> bool {
        matches!(self, Verdict::Failed(_))
    }
}

/// Attempted/failed/no-answer counts of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Queries answered "no community exists".
    pub no_answer: u64,
    /// Queries answered with a community.
    pub answered: u64,
}

impl Tally {
    /// Counts one operation's verdict.
    pub fn count(&mut self, verdict: &Verdict) {
        self.attempted += 1;
        match verdict {
            Verdict::Answer(json) if json.get("community").is_some() => self.answered += 1,
            Verdict::Answer(_) => {}
            Verdict::NoAnswer => self.no_answer += 1,
            Verdict::Failed(_) => self.failed += 1,
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.no_answer += other.no_answer;
        self.answered += other.answered;
    }

    /// failed ÷ attempted (0 when nothing was attempted).
    pub fn failure_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Checks one `ok:true` query answer against `graph`: the parameters must
/// be the paper's defaults (`k` = each query vertex's label coreness in
/// `coreness`, `b = 1`), and the community must be a feasible (k1,k2,b)-BCC
/// (two queries, `search`) or mBCC (`msearch`).
pub fn validate(
    graph: &LabeledGraph,
    coreness: &[u32],
    queries: &[VertexId],
    multi: bool,
    answer: &Json,
) -> Result<(), String> {
    let community = answer
        .get("community")
        .and_then(Json::as_u32s)
        .ok_or("answer has no community")?;
    let ks = answer
        .get("ks")
        .and_then(Json::as_u32s)
        .ok_or("answer has no ks")?;
    let b = answer.num(&["b"]) as u64;
    // The server reports `ks` in ascending order of the query vertex ids.
    let mut queries = queries.to_vec();
    queries.sort_unstable();
    let expected: Vec<u32> = queries.iter().map(|q| coreness[q.index()]).collect();
    if ks != expected || b != 1 {
        return Err(format!(
            "parameters ks={ks:?} b={b}, expected ks={expected:?} b=1"
        ));
    }
    if community
        .iter()
        .any(|&v| v as usize >= graph.vertex_count())
    {
        return Err("community names a vertex outside the graph".into());
    }
    let view = GraphView::from_vertices(graph, community.iter().map(|&v| VertexId(v)));
    if view.alive_count() != community.len() {
        return Err("community lists a vertex twice".into());
    }
    let ok = if multi {
        is_valid_mbcc(&view, &MbccQuery::new(queries), &MbccParams::new(ks, b))
    } else {
        let [ql, qr] = queries[..] else {
            return Err("a search has exactly two query vertices".into());
        };
        is_valid_bcc(
            &view,
            &BccQuery::pair(ql, qr),
            &BccParams::new(ks[0], ks[1], b),
        )
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "community of {} vertices is not a feasible answer",
            community.len()
        ))
    }
}
