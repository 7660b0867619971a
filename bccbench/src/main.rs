//! Runs one benchmark workload against the shipped `bcc listen` server and
//! prints every metric by name with its unit; the last stdout line is the
//! machine-readable result. See README.md.
//!
//! ```text
//! bccbench --bcc <bcc binary> --work <scratch dir> --workload <name>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use bccbench::check::check;
use bccbench::json::Json;
use bccbench::machine::Machine;
use bccbench::outcome::{Tally, Verdict};
use bccbench::server::{cpu_seconds, peak_rss_mb, Conn, Server};
use bccbench::stats::{beyond, median, Summary};
use bccbench::trace::{self, Brackets, Metric};
use bccbench::workload::{self, Op, Played, Stage, Workload};

struct Args {
    bcc: PathBuf,
    work: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {flag} <value>"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        bcc: PathBuf::from(get("--bcc")?),
        work: PathBuf::from(get("--work")?),
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed must be an unsigned integer")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bccbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Servers spawned only to time their set-up, on top of the segments'.
const EXTRA_SETUPS: usize = 6;

/// Spawns a server and times its set-up: from the spawn until it listens,
/// has parsed the graph and has built the BCindex (forced by one warm-up
/// `l2p` query).
fn start(args: &Args, w: &Workload, graph: &Path) -> Result<(Server, f64), String> {
    let begun = Instant::now();
    let server = Server::spawn(&args.bcc, graph, w.server_flags).map_err(err)?;
    let reply = server
        .connect()
        .and_then(|mut c| c.call(&w.queries[w.warm].line))
        .map_err(err)?;
    let setup = begun.elapsed().as_secs_f64();
    if Verdict::of(Some(&reply)).is_failed() {
        return Err(format!("warm-up query failed: {reply}"));
    }
    Ok((server, setup))
}

fn run(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    // Wall-clock end of each part of the run, for the report.
    let mut phases: Vec<(&str, f64)> = Vec::new();
    let mark =
        |phases: &mut Vec<(&str, f64)>, name| phases.push((name, started.elapsed().as_secs_f64()));
    let machine = Machine::probe();
    let w = Workload::generate(&args.workload, args.seed)?;
    std::fs::create_dir_all(&args.work).map_err(err)?;
    let graph_path = args.work.join(format!("{}.g", w.name));
    bcc_graph::io::write_graph_file(w.graph(), &graph_path).map_err(err)?;
    mark(&mut phases, "generate");

    // `setup_s` is the median of the set-ups of EXTRA_SETUPS servers that
    // play nothing and of the SEGMENTS servers that play the run in turn.
    // Each segment server plays its share of the window and the probes and
    // is shut down.
    let mut setups = Vec::new();
    for _ in 0..EXTRA_SETUPS {
        let (server, setup) = start(args, &w, &graph_path)?;
        setups.push(setup);
        server.shutdown().map_err(err)?;
    }
    mark(&mut phases, "setups");
    let mut segments: Vec<Played> = Vec::new();
    let mut brackets = Vec::new();
    let mut rss = Vec::new();
    for seg in 0..workload::SEGMENTS {
        let (server, setup) = start(args, &w, &graph_path)?;
        setups.push(setup);

        // A segment plays the msearch probe, the window and the commit
        // probe. Traced runs bracket each with `stats` and `metrics`
        // snapshots on a control connection; untraced runs send nothing
        // extra.
        let pid = server.pid();
        let mut control = if args.trace {
            Some(server.connect().map_err(err)?)
        } else {
            None
        };
        let snap = |c: &mut Option<Conn>| c.as_mut().map(Conn::snapshot).transpose().map_err(err);
        let t0 = Instant::now();
        let mut played = Played::default();
        let s0 = snap(&mut control)?;
        workload::play_msearch_probe(&w, seg, server.addr, t0, &mut played).map_err(err)?;
        let s1 = snap(&mut control)?;
        let cpu0 = cpu_seconds(pid).map_err(err)?;
        workload::play_window(
            &w,
            seg,
            server.addr,
            args.seconds / workload::SEGMENTS as f64,
            t0,
            &mut played,
        )
        .map_err(err)?;
        let cpu1 = cpu_seconds(pid).map_err(err)?;
        let s2 = snap(&mut control)?;
        workload::play_commit_probe(&w, seg, server.addr, t0, &mut played).map_err(err)?;
        let s3 = snap(&mut control)?;
        rss.push(peak_rss_mb(pid).map_err(err)?);
        drop(control);
        server.shutdown().map_err(err)?;
        if let (Some(s0), Some(s1), Some(s2), Some(s3)) = (s0, s1, s2, s3) {
            brackets.push(([s0, s1, s2, s3], [cpu0, cpu1]));
        }
        for op in [Op::Search, Op::Msearch, Op::Commit] {
            let (stage, samples) = latencies(&played, op);
            if !samples.is_empty() {
                eprintln!(
                    "segment {seg} {op:?} ({stage:?}): {}",
                    Summary::of(&samples).describe("ms")
                );
            }
        }
        segments.push(played);
        mark(&mut phases, "segment");
    }

    // Off the clock: every segment's answers against its own graph versions.
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let mut distinct_answers = 0;
    for played in &segments {
        let checked = check(&w, played);
        tally.merge(&checked.tally);
        problems.extend(checked.problems);
        distinct_answers += checked.distinct_answers;
    }
    mark(&mut phases, "check");
    let played = Played::pooled(segments);
    let e2e = end_to_end(&played, &setups, median(&rss));

    // The report: every line is printed with a leading `# `; the result
    // line comes last.
    let g = w.graph();
    let mut report = vec![
        format!("machine {}", machine.to_json()),
        format!(
            "workload {} seed {}: {} vertices, {} edges, {} labels; window {:.3} s; trace {}",
            w.name,
            args.seed,
            g.vertex_count(),
            g.edge_count(),
            g.label_count(),
            played.window_s,
            args.trace as u8
        ),
        format!("setup_s samples {setups:?}"),
    ];
    let ends: Vec<String> = phases.iter().map(|(n, t)| format!("{n} {t:.2}")).collect();
    report.push(format!(
        "run timeline (s since start, end of each part): {}",
        ends.join(", ")
    ));
    for (label, op) in [
        ("search", Op::Search),
        ("msearch", Op::Msearch),
        ("commit", Op::Commit),
        ("stage", Op::Stage),
    ] {
        let (stage, samples) = latencies(&played, op);
        if !samples.is_empty() {
            report.push(format!(
                "{label} latency ({stage:?}): {}",
                Summary::of(&samples).describe("ms")
            ));
        }
    }
    // The window's searches by method: `search_p50_ms` lies where the
    // methods' latency bands meet, and these show how.
    for method in ["online", "lp", "l2p"] {
        let samples: Vec<f64> = played
            .samples
            .iter()
            .filter(|s| s.op == Op::Search && s.stage == Stage::Window && s.response.is_some())
            .filter(|s| s.query.is_some_and(|q| w.queries[q].method == method))
            .map(|s| s.rtt_ms())
            .collect();
        if !samples.is_empty() {
            report.push(format!(
                "search latency, method {method}: {}",
                Summary::of(&samples).describe("ms")
            ));
        }
    }
    for (metric, op, q) in [
        ("search_p95_ms", Op::Search, 0.95),
        ("msearch_p95_ms", Op::Msearch, 0.95),
        ("commit_p90_ms", Op::Commit, 0.90),
    ] {
        let n = latencies(&played, op).1.len();
        if beyond(n, q) < 10 {
            report.push(format!(
                "WARNING {metric}: only {} samples beyond it (n={n}); the tail is noisy",
                beyond(n, q)
            ));
        }
    }
    report.push(format!(
        "outcomes: attempted {} failed {} (failure_rate {}) answered {} no-answer {}; {distinct_answers} distinct answers validated",
        tally.attempted,
        tally.failed,
        tally.failure_rate(),
        tally.answered,
        tally.no_answer,
    ));
    report.extend(problems.iter().take(5).map(|p| format!("FAILED {p}")));
    report.extend(
        e2e.iter()
            .map(|m| format!("{} = {} {}", m.name, m.value, m.unit)),
    );

    let history = args.work.join(format!("{}.untraced.jsonl", w.name));
    let run_key = RunKey {
        build: build_id(&args.bcc),
        seconds: args.seconds,
        seed: args.seed,
    };
    let metrics = if args.trace {
        let brackets = Brackets { segments: brackets };
        let account = trace::account(&w, &played, &brackets, &tally, &graph_path);
        report.extend(
            account
                .tables
                .iter()
                .flat_map(|t| t.lines().map(str::to_string)),
        );
        report.extend(overhead(&history, &run_key, &e2e));
        report.extend(
            account
                .metrics
                .iter()
                .map(|m| format!("{} = {} {}", m.name, m.value, m.unit)),
        );
        account.metrics
    } else {
        let mut record = vec![
            format!("\"build\":\"{}\"", run_key.build),
            format!("\"seconds\":{}", run_key.seconds),
            format!("\"seed\":{}", run_key.seed),
        ];
        record.extend(e2e.iter().map(|m| format!("\"{}\":{}", m.name, m.value)));
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&history)
            .map_err(err)?;
        writeln!(file, "{{{}}}", record.join(",")).map_err(err)?;
        e2e
    };

    let correct = tally.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let mut out = std::io::stdout().lock();
    for line in &report {
        writeln!(out, "# {line}").map_err(err)?;
    }
    writeln!(
        out,
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(",")
    )
    .map_err(err)
}

/// A finite JSON number (NaN or infinity would make the line unparsable).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Latency samples of `op`: from the window when the workload's mix has
/// the verb, otherwise from the probe.
fn latencies(played: &Played, op: Op) -> (Stage, Vec<f64>) {
    let of = |stage| -> Vec<f64> {
        played
            .samples
            .iter()
            .filter(|s| s.op == op && s.stage == stage && s.response.is_some())
            .map(|s| s.rtt_ms())
            .collect()
    };
    let window = of(Stage::Window);
    if window.is_empty() {
        (Stage::Probe, of(Stage::Probe))
    } else {
        (Stage::Window, window)
    }
}

/// The end-to-end metrics of one run.
fn end_to_end(played: &Played, setups: &[f64], rss_mb: f64) -> Vec<Metric> {
    let summary = |op| Summary::of(&latencies(played, op).1);
    let (search, msearch, commit) = (
        summary(Op::Search),
        summary(Op::Msearch),
        summary(Op::Commit),
    );
    let completed = played
        .samples
        .iter()
        .filter(|s| s.stage == Stage::Window && s.response.is_some())
        .count();
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("setup_s", "s", median(setups)),
        m("rss_mb", "MB", rss_mb),
        m("search_p50_ms", "ms", search.p50),
        m("search_p95_ms", "ms", search.p95),
        m("msearch_p50_ms", "ms", msearch.p50),
        m("msearch_p95_ms", "ms", msearch.p95),
        m("commit_p50_ms", "ms", commit.p50),
        m("commit_p90_ms", "ms", commit.p90),
        m(
            "throughput_qps",
            "req/s",
            completed as f64 / played.window_s,
        ),
    ]
}

/// What an untraced run is recorded with, so that a traced run compares
/// itself only with runs of the same code and window length.
struct RunKey {
    build: String,
    seconds: f64,
    seed: u64,
}

/// Identifies the code under test: size and modification time of the
/// `bcc` binary and of this benchmark binary (a rebuild changes both).
fn build_id(bcc: &Path) -> String {
    let stamp = |path: &Path| {
        std::fs::metadata(path).map_or_else(
            |_| "?".to_string(),
            |m| {
                let mtime = m
                    .modified()
                    .ok()
                    .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                    .map_or(0, |d| d.as_nanos());
                format!("{}-{mtime}", m.len())
            },
        )
    };
    let me = std::env::current_exe().map_or_else(|_| "?".to_string(), |p| stamp(&p));
    format!("{}+{me}", stamp(bcc))
}

/// Tracing overhead: this traced run's end-to-end numbers minus the median
/// of the untraced runs recorded for the same workload, build and
/// `--seconds`: those of the same seed when there are any, otherwise those
/// of every seed.
fn overhead(history: &Path, key: &RunKey, traced: &[Metric]) -> Vec<String> {
    let matching: Vec<Json> = std::fs::read_to_string(history)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|r| {
            r.get("build").and_then(Json::as_str) == Some(key.build.as_str())
                && r.num(&["seconds"]) == key.seconds
        })
        .collect();
    let same_seed: Vec<Json> = matching
        .iter()
        .filter(|r| r.num(&["seed"]) == key.seed as f64)
        .cloned()
        .collect();
    let (records, seeds) = if same_seed.is_empty() {
        (matching, "any seed")
    } else {
        (same_seed, "this seed")
    };
    if records.is_empty() {
        return vec![format!(
            "tracing overhead: no untraced run of this workload, build and --seconds {} recorded yet",
            key.seconds
        )];
    }
    let mut lines = vec![format!(
        "tracing overhead vs the median of {} untraced run(s) of this build, --seconds {}, {seeds}:",
        records.len(),
        key.seconds
    )];
    for m in traced {
        let base = median(&records.iter().map(|r| r.num(&[m.name])).collect::<Vec<_>>());
        let pct = if base == 0.0 {
            0.0
        } else {
            100.0 * (m.value - base) / base
        };
        lines.push(format!(
            "  {:<16} traced {:>10.4} untraced {:>10.4} diff {:>+10.4} {} ({pct:+.1}%)",
            m.name,
            m.value,
            base,
            m.value - base,
            m.unit
        ));
    }
    lines
}
