//! The repository benchmark: three workloads over the study pipeline and
//! the analysis daemon, with output checks, printed end-to-end metrics
//! and — with `--trace 1` — a per-layer split measured from outside the
//! program.
//!
//! ```text
//! perfbench --workload study|scan_cold|clone_churn --seed N --seconds S
//!           --trace 0|1 --serve-bin PATH
//! perfbench --record-digests FROM TO
//! ```
//!
//! Run it through `perfbench/run.sh`, which builds `serve` and this
//! binary from source first. The last line of standard output is the
//! result object; the lines above it print every metric by name with its
//! unit. The exit code is non-zero when an output check fails.

mod clone_churn;
mod daemon;
mod inputs;
mod measure;
mod scan_cold;
mod study;
mod trace;

use ccd::{order_independent_similarity, CcdParams, CloneDetector, Fingerprint};
use daemon::Exchange;
use measure::{Metric, Tally};
use pipeline::api::{error_to_json, AnalysisEngine, AnalysisRequest};
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::time::Duration;
use trace::Tracer;

/// Set-up is repeated this many times per run — the first
/// `SETUP_REPS_BEFORE` before the measurement (the last of them is the
/// one measured), the rest after it — and `setup_s` is the median.
const SETUP_REPS: usize = 7;
const SETUP_REPS_BEFORE: usize = 4;
/// Closed-loop client threads (one process, keep-alive connections).
pub const CLIENTS: usize = 2;

/// The per-layer metrics of the traced run, with units. Every workload
/// reports all of them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("corpus.generate_s", "s"),
    ("solidity.parse_us", "us"),
    ("solidity.parse_mb_s", "MB/s"),
    ("cpg.build_us", "us"),
    ("cpg.nodes", "count"),
    ("cpg.edges", "count"),
    ("ccc.check_us", "us"),
    ("ccc.findings", "count"),
    ("ccd.fingerprint_us", "us"),
    ("ngram-index.candidates_us", "us"),
    ("ngram-index.candidates_per_query", "count"),
    ("ccd.score_us", "us"),
    ("ccd.score_pairs", "count"),
    ("ccd.useful_ratio", "ratio"),
    ("pipeline.funnel_s", "s"),
    ("pipeline.mapping_s", "s"),
    ("pipeline.study_rest_s", "s"),
    ("pipeline.cpu_util", "ratio"),
    ("api.decode_us", "us"),
    ("api.analyze_us", "us"),
    ("api.encode_us", "us"),
    ("api.response_cache_hits", "count"),
    ("api.cpg_cache_hits", "count"),
    ("server.transport_us", "us"),
    ("server.wait_us", "us"),
    ("server.shed", "count"),
    ("ccd.daemon_fingerprints", "count"),
    ("ccd.daemon_match_queries", "count"),
    ("corpus_index.matches_us", "us"),
    ("corpus_index.front_hit_rate", "ratio"),
    ("corpus_index.insert_share", "ratio"),
    ("corpus_index.insert_us", "us"),
    ("corpus_index.write_p50_ms", "ms"),
    ("corpus_index.write_p90_ms", "ms"),
    ("corpus_index.compact_ms", "ms"),
    ("corpus_index.compactions", "count"),
    ("corpus_index.load_ms", "ms"),
    ("index-store.wal_appends", "count"),
    ("index-store.wal_append_us", "us"),
    ("index-store.wal_appends_per_insert", "ratio"),
    ("index-store.wal_fsyncs_per_insert", "ratio"),
    ("index-store.wal_bytes_per_insert", "B"),
    ("bench.trace_overhead", "ratio"),
    ("share.corpus", "ratio"),
    ("share.solidity", "ratio"),
    ("share.cpg", "ratio"),
    ("share.ccc", "ratio"),
    ("share.ccd", "ratio"),
    ("share.ngram-index", "ratio"),
    ("share.index-store", "ratio"),
    ("share.pipeline", "ratio"),
    ("share.server", "ratio"),
];

/// What a run was asked to do.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub duration: Duration,
    pub trace: bool,
    /// The checkout root (the working directory).
    pub root: PathBuf,
    pub serve_bin: PathBuf,
}

/// What a run measured.
pub struct Outcome {
    pub correct: bool,
    pub tally: Tally,
    /// End-to-end metrics of the result line (`--trace 0`).
    pub e2e: Vec<Metric>,
    /// Further end-to-end figures printed by name only.
    pub extra: Vec<Metric>,
    /// Per-layer values (`--trace 1`), keyed by [`PER_LAYER`] names.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable facts printed above the result line.
    pub notes: Vec<String>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            correct: true,
            tally: Tally::default(),
            e2e: Vec::new(),
            extra: Vec::new(),
            layers: BTreeMap::new(),
            notes: Vec::new(),
        }
    }
}

impl Outcome {
    /// Record a failed output check.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {why}"));
    }
}

/// The `share.<layer>` metric name of a layer.
pub fn share_name(layer: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .find(|name| name.strip_prefix("share.") == Some(layer))
        .unwrap_or("share.pipeline")
}

/// Total self time (ns) per layer — the part of each span name before
/// the first dot — over the spans under the roots named `roots`.
pub fn self_time_by_layer(tracer: &Tracer, roots: &[&str]) -> BTreeMap<String, f64> {
    let spans = tracer.spans();
    let selfs = trace::self_times(&spans);
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let mut by_layer = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if roots.contains(&spans[root_of(i)].name) {
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            *by_layer.entry(layer).or_insert(0.0) += selfs[i] as f64;
        }
    }
    by_layer
}

/// Per-source parse / CPG / CCC figures of a probe.
#[derive(Default)]
pub struct Checked {
    pub sources: usize,
    pub bytes: usize,
    pub nodes: usize,
    pub edges: usize,
    pub findings: usize,
}

/// Parse, build the CPG of and check one source, a span around each call.
pub fn parse_build_check(
    tracer: &Tracer,
    checker: &ccc::Checker,
    source: &str,
    request: u64,
    parent: Option<usize>,
    c: &mut Checked,
) {
    let unit = tracer.span("solidity.parse", parent, request, |_| {
        solidity::parse_snippet(source)
    });
    c.sources += 1;
    c.bytes += source.len();
    let Ok(unit) = unit else { return };
    let cpg = tracer.span("cpg.build", parent, request, |_| cpg::Cpg::from_unit(&unit));
    c.nodes += cpg.graph.node_count();
    c.edges += cpg.graph.edge_count();
    let findings = tracer.span("ccc.check", parent, request, |_| checker.check(&cpg));
    c.findings += findings.len();
}

/// The parse / CPG / CCC per-layer metrics of a probe.
pub fn parse_cpg_ccc_layers(l: &mut BTreeMap<&'static str, f64>, tracer: &Tracer, c: &Checked) {
    let (parse_us, parses) = tracer.mean_us("solidity.parse");
    let n = c.sources.max(1) as f64;
    l.insert("solidity.parse_us", parse_us);
    l.insert(
        "solidity.parse_mb_s",
        c.bytes as f64 / (parse_us * parses as f64).max(1e-9),
    );
    l.insert("cpg.build_us", tracer.mean_us("cpg.build").0);
    l.insert("cpg.nodes", c.nodes as f64 / n);
    l.insert("cpg.edges", c.edges as f64 / n);
    l.insert("ccc.check_us", tracer.mean_us("ccc.check").0);
    l.insert("ccc.findings", c.findings as f64 / n);
}

/// The set-ups before the measurement: `setup` runs `SETUP_REPS_BEFORE`
/// times and every result but the last is discarded.
pub fn set_up_before<T>(
    setup: &mut impl FnMut() -> Result<T, String>,
    discard: &mut impl FnMut(T) -> Result<(), String>,
) -> Result<T, String> {
    let mut kept = setup()?;
    for _ in 1..SETUP_REPS_BEFORE {
        discard(kept)?;
        kept = setup()?;
    }
    Ok(kept)
}

/// The remaining set-ups, after the measurement, so the median of all
/// `SETUP_REPS` samples the host at both ends of the run.
pub fn set_up_after<T>(
    setup: &mut impl FnMut() -> Result<T, String>,
    discard: &mut impl FnMut(T) -> Result<(), String>,
) -> Result<(), String> {
    for _ in SETUP_REPS_BEFORE..SETUP_REPS {
        discard(setup()?)?;
    }
    Ok(())
}

/// One clone-detection query decomposed call by call: N-gram candidate
/// retrieval, then Algorithm 1 scoring of every candidate, a span around
/// each. Returns the candidate count and the sorted matching doc ids.
pub fn decomposed_match(
    tracer: &Tracer,
    detector: &CloneDetector,
    fp: &Fingerprint,
    params: CcdParams,
    request: u64,
    parent: Option<usize>,
) -> (usize, Vec<u64>) {
    let candidates: HashSet<u64> = tracer.span("ngram-index.candidates", parent, request, |_| {
        detector
            .index()
            .candidates(&fp.indexed_text(), params.eta)
            .into_iter()
            .collect()
    });
    let mut ids = tracer.span("ccd.score", parent, request, |_| {
        detector
            .iter_fingerprints()
            .filter(|(doc, _)| candidates.contains(doc))
            .filter(|(_, other)| order_independent_similarity(fp, other) >= params.epsilon)
            .map(|(doc, _)| doc)
            .collect::<Vec<u64>>()
    });
    ids.sort_unstable();
    (candidates.len(), ids)
}

/// Replay one single-client exchange in-process under a
/// `server.single_client` span: `api.decode`, then `api.analyze_served`
/// on `served` (the daemon's in-process twin, when given), `api.analyze`
/// on the cache-less `engine` and `api.encode`. The encoded answer must
/// equal the daemon's.
pub fn replay_facade(
    tracer: &Tracer,
    out: &mut Outcome,
    e: &Exchange,
    body: &str,
    engine: &AnalysisEngine,
    served: Option<&AnalysisEngine>,
) {
    let json = tracer.span("server.single_client", None, e.index, |root| {
        let request = tracer.span("api.decode", Some(root), e.index, |_| {
            AnalysisRequest::from_json(body)
        });
        let request = match request {
            Ok(request) => request,
            Err(error) => return error_to_json(&error),
        };
        if let Some(served) = served {
            let _ = tracer.span("api.analyze_served", Some(root), e.index, |_| {
                served.analyze(&request)
            });
        }
        let response = tracer.span("api.analyze", Some(root), e.index, |_| {
            engine.analyze(&request)
        });
        tracer.span("api.encode", Some(root), e.index, |_| match response {
            Ok(response) => response.to_json(),
            Err(error) => error_to_json(&error),
        })
    });
    if e.status != 200 || json != e.body {
        out.fail(format!(
            "single-client request {} differs from the in-process engine",
            e.index
        ));
    }
}

/// `server.transport_us` (single-client latency minus the in-process
/// time of the same requests) and `server.wait_us` (closed-loop latency
/// minus single-client latency), inserted into `layers` and returned.
pub fn server_split(
    layers: &mut BTreeMap<&'static str, f64>,
    single: &[Exchange],
    in_process_us: f64,
    loop_us: f64,
) -> (f64, f64) {
    let single_us = measure::mean(
        &single
            .iter()
            .map(|e| e.latency_ms() * 1e3)
            .collect::<Vec<_>>(),
    );
    let (transport, wait) = (single_us - in_process_us, loop_us - single_us);
    layers.insert("server.transport_us", transport);
    layers.insert("server.wait_us", wait);
    (transport, wait)
}

/// Write the run's spans next to the other run artefacts.
pub fn write_trace(ctx: &Ctx, tracer: &Tracer) -> Result<(), String> {
    let dir = ctx.root.join(".bench_run");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace-{}-seed{}.json", ctx.workload, ctx.seed));
    tracer
        .write_json(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "trace: {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    for (name, n, ns) in trace::self_time_table(&tracer.spans()) {
        println!(
            "trace: {name:<28} {n:>8} spans {:>12.3} ms self",
            ns as f64 / 1e6
        );
    }
    Ok(())
}

fn parse_args() -> Result<Option<Ctx>, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {}", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--record-digests" => {
                let from: u64 = value
                    .parse()
                    .map_err(|e| format!("--record-digests: {e}"))?;
                let to: u64 = args
                    .get(i + 2)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--record-digests FROM TO")?;
                study::record_digests(from..=to);
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["study", "scan_cold", "clone_churn"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    Ok(Some(Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        duration: Duration::from_secs_f64(seconds),
        trace: trace.unwrap_or(false),
        root: std::env::current_dir().map_err(|e| e.to_string())?,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
    }))
}

fn main() {
    let ctx = match parse_args() {
        Ok(Some(ctx)) => ctx,
        Ok(None) => return,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match ctx.workload.as_str() {
        "study" => study::run(&ctx),
        "scan_cold" => scan_cold::run(&ctx),
        _ => clone_churn::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(ctx.root.join(".bench_run").join(format!(
        "{}-{}",
        ctx.workload,
        std::process::id()
    )));
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            std::process::exit(1);
        }
    };
    println!(
        "{}: seed {}, {} s, trace {}; machine: {} cores, release profile (lto = \"fat\", codegen-units = 1)",
        ctx.workload,
        ctx.seed,
        ctx.duration.as_secs_f64(),
        u8::from(ctx.trace),
        measure::cores()
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in outcome.e2e.iter().chain(&outcome.extra) {
        println!("{}: {} = {:.6} {}", ctx.workload, m.name, m.value, m.unit);
    }
    println!(
        "{}: attempted {} failed {} correct {}",
        ctx.workload, outcome.tally.attempted, outcome.tally.failed, outcome.correct
    );
    let metrics: Vec<Metric> = if ctx.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let value = outcome.layers.get(name).copied().unwrap_or(0.0);
                println!("{}: {name} = {value:.6} {unit}", ctx.workload);
                measure::metric(name, value, unit)
            })
            .collect()
    } else {
        outcome.e2e
    };
    println!(
        "{}",
        measure::result_line(outcome.correct, outcome.tally, &metrics)
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}
