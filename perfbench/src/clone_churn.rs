//! `clone_churn`: clone-check reads beside index inserts on the real
//! daemon, over a durable snapshot-backed corpus the benchmark prepares.
//! Reads are Type I/II mutants of popularity-skewed Q&A snippets (the
//! copy-paste traffic shape, which the front cache's fingerprint tier
//! serves); every insert appends to the WAL and invalidates the front
//! cache, and auto-compaction folds the deltas several times a run.

use crate::daemon::{self, counter, json_number, measured_phase, Daemon, Exchange, Kind};
use crate::inputs::{self, Churn, ChurnOp, INSERT_EVERY};
use crate::measure::{self, mean, median, metric, percentile, succeeded};
use crate::trace::Tracer;
use crate::{Ctx, Outcome, CLIENTS};
use ccd::{CcdParams, CloneDetector, Fingerprint};
use pipeline::api::{
    escape_json, AnalysisConfig, AnalysisEngine, AnalysisRequest, AnalysisResponse,
};
use pipeline::CorpusBuilder;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `serve --compact-after`: deltas that trigger a background compaction.
pub const COMPACT_AFTER: u64 = 64;
/// Reads sent after the final insert, before and after the warm restart,
/// and compared with a fresh engine on the final corpus.
const VERIFY_READS: u64 = 64;
/// Reads of the single-client phase of the traced run.
const SINGLE_CLIENT_READS: u64 = 300;
/// Inserts timed in-process in the traced run (one compaction's worth).
const PROBE_INSERTS: u64 = COMPACT_AFTER;
const VERIFY_FIRST: u64 = 1 << 40;
const SINGLE_CLIENT_FIRST: u64 = 1 << 41;
const CLONE_CHECK: &str = "/v1/clone-check";

fn daemon_args(snapshot: &Path) -> Vec<String> {
    vec![
        "--snapshot-dir".into(),
        snapshot.display().to_string(),
        "--compact-after".into(),
        COMPACT_AFTER.to_string(),
    ]
}

fn request(churn: &Churn, seed: u64, i: u64) -> (Kind, &'static str, String) {
    match churn.op(seed, i) {
        ChurnOp::Read(source) => (
            Kind::Read,
            CLONE_CHECK,
            AnalysisRequest::clone_check(source).to_json(),
        ),
        ChurnOp::Insert { id, source } => (
            Kind::Write,
            "/v1/index/insert",
            format!(
                "{{\"v\":1,\"source\":\"{}\",\"id\":{id}}}",
                escape_json(&source)
            ),
        ),
    }
}

fn read_body(churn: &Churn, seed: u64, i: u64) -> String {
    AnalysisRequest::clone_check(churn.read(seed, i)).to_json()
}

/// A read's output check: a clone list sorted by descending score (doc
/// id ascending on ties) with every score at least ε.
fn clones_ok(body: &str, epsilon: f64) -> (bool, bool) {
    match AnalysisResponse::from_json(body) {
        Ok(AnalysisResponse::Clones(hits)) => {
            let sorted = hits.windows(2).all(|w| {
                w[0].score > w[1].score || (w[0].score == w[1].score && w[0].doc < w[1].doc)
            });
            (true, sorted && hits.iter().all(|h| h.score >= epsilon))
        }
        Ok(_) => (true, false),
        Err(_) => (false, false),
    }
}

fn front_cache(status: &str) -> (f64, f64) {
    let value = telemetry::json::parse(status).ok();
    let field = |name| {
        value
            .as_ref()
            .and_then(|v| v.get("front_cache")?.get(name)?.as_f64())
            .unwrap_or(0.0)
    };
    (field("exact_hits") + field("near_hits"), field("misses"))
}

fn status(addr: &str) -> Result<String, String> {
    match daemon::get(addr, "/v1/index/status") {
        Ok((200, body)) => Ok(body),
        other => Err(format!("GET /v1/index/status failed: {other:?}")),
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = Tracer::default();
    let work = daemon::workdir(&ctx.root, &ctx.workload)?;
    let params: CcdParams = AnalysisConfig::default().ccd_params();
    let seed = ctx.seed;

    // Set-up: generate the corpora, fingerprint the base, commit it as
    // snapshot generation 1, start the daemon warm on it.
    let mut setups = Vec::new();
    let mut generate = Vec::new();
    let mut rep = 0;
    let mut setup = || -> Result<_, String> {
        let snapshot = work.join(format!("snapshot-{rep}"));
        rep += 1;
        let t = Instant::now();
        let churn = inputs::churn(seed);
        generate.push(t.elapsed().as_secs_f64());
        let base =
            CorpusBuilder::fingerprint_sources(churn.base.iter().map(|(id, s)| (*id, s.as_str())));
        let handle = CorpusBuilder::new(params)
            .snapshot_dir(&snapshot)
            .from_fingerprints(base.clone());
        handle
            .compact()
            .map_err(|e| format!("cannot commit the snapshot: {e}"))?;
        drop(handle);
        let daemon = Daemon::start(&ctx.serve_bin, &work, &daemon_args(&snapshot))?;
        setups.push(t.elapsed().as_secs_f64());
        Ok((churn, base, snapshot, daemon))
    };
    let mut discard =
        |(_, _, snapshot, daemon): (Churn, Vec<(u64, Fingerprint)>, PathBuf, Daemon)| {
            daemon.stop()?;
            let _ = std::fs::remove_dir_all(snapshot);
            Ok(())
        };
    let (churn, base, snapshot, daemon) = crate::set_up_before(&mut setup, &mut discard)?;
    let addr = daemon.addr.clone();

    let status0 = status(&addr)?;
    let metrics0 = daemon::metrics(&addr)?;
    let (exchanges, wall) =
        measured_phase(&addr, ctx.duration, ctx.trace.then_some(&tracer), |i| {
            request(&churn, seed, i)
        });
    let status1 = status(&addr)?;
    let metrics1 = daemon::metrics(&addr)?;

    // Outcomes: an insert is acknowledged when the daemon echoes its id.
    let epsilon = params.epsilon;
    let mut acked: Vec<(u64, String)> = Vec::new();
    let mut read_ms = Vec::new();
    let mut write_ms = Vec::new();
    for e in &exchanges {
        let ok = match (e.kind, churn.op(seed, e.index)) {
            (Kind::Write, ChurnOp::Insert { id, source }) => {
                let echoed = json_number(&e.body, "doc");
                let ok = succeeded(e.status, echoed.is_some(), echoed == Some(id as f64));
                if ok {
                    acked.push((id, source));
                }
                write_ms.push(if ok { e.latency_ms() } else { f64::INFINITY });
                ok
            }
            _ => {
                let (decoded, checked) = clones_ok(&e.body, epsilon);
                let ok = succeeded(e.status, decoded, checked);
                read_ms.push(if ok { e.latency_ms() } else { f64::INFINITY });
                ok
            }
        };
        out.tally.count(ok);
        if !ok && out.notes.len() < 8 {
            out.fail(format!(
                "request {} answered {}: {}",
                e.index,
                e.status,
                e.body.chars().take(120).collect::<String>()
            ));
        }
    }

    // Every acknowledged insert is in the corpus, its WAL append counted.
    let docs0 = json_number(&status0, "docs").unwrap_or(0.0) as u64;
    let docs1 = json_number(&status1, "docs").unwrap_or(0.0) as u64;
    if docs1 != docs0 + acked.len() as u64 {
        out.fail(format!(
            "{} docs after {} acknowledged inserts on {docs0}",
            docs1,
            acked.len()
        ));
    }
    let delta = |name: &str| counter(&metrics1, name).saturating_sub(counter(&metrics0, name));
    let appends = delta("wal_appends_total");
    if appends != acked.len() as u64 {
        out.fail(format!(
            "{appends} WAL appends for {} acknowledged inserts",
            acked.len()
        ));
    }
    let compactions = json_number(&status1, "auto_compactions").unwrap_or(0.0)
        - json_number(&status0, "auto_compactions").unwrap_or(0.0);

    // Reads after the final insert, then again after a warm restart from
    // the snapshot directory, must equal a fresh engine on the final corpus.
    let verify: Vec<(u64, String)> = (VERIFY_FIRST..VERIFY_FIRST + VERIFY_READS)
        .map(|i| (i, read_body(&churn, seed, i)))
        .collect();
    let before_restart = daemon::single_client(&addr, CLONE_CHECK, verify.iter().cloned())?;
    let single = if ctx.trace {
        daemon::single_client(
            &addr,
            CLONE_CHECK,
            (SINGLE_CLIENT_FIRST..SINGLE_CLIENT_FIRST + SINGLE_CLIENT_READS)
                .map(|i| (i, read_body(&churn, seed, i))),
        )?
    } else {
        Vec::new()
    };
    let peak_rss = measure::peak_rss_mb(&daemon.pid());
    daemon.stop()?;
    let restarted = Daemon::start(&ctx.serve_bin, &work, &daemon_args(&snapshot))?;
    let docs_restarted = json_number(&status(&restarted.addr)?, "docs").unwrap_or(0.0) as u64;
    if docs_restarted != docs1 {
        out.fail(format!(
            "{docs_restarted} docs after a warm restart, {docs1} before"
        ));
    }
    let after_restart =
        daemon::single_client(&restarted.addr, CLONE_CHECK, verify.iter().cloned())?;
    restarted.stop()?;
    crate::set_up_after(&mut setup, &mut discard)?;

    let mut all = base.clone();
    for (id, source) in &acked {
        let fp = CloneDetector::try_fingerprint_source(source).map_err(|e| e.to_string())?;
        all.push((*id, fp));
    }
    let fresh = AnalysisEngine::with_corpus_handle(
        AnalysisConfig::default(),
        CorpusBuilder::new(params).from_fingerprints(all.clone()),
    );
    for ((_, body), (pre, post)) in verify.iter().zip(before_restart.iter().zip(&after_restart)) {
        let request = AnalysisRequest::from_json(body).map_err(|e| e.to_string())?;
        let expected = fresh
            .analyze(&request)
            .map_err(|e| e.to_string())?
            .to_json();
        for (when, got) in [("before", pre), ("after", post)] {
            if got.status != 200 || got.body != expected {
                out.fail(format!(
                    "read {} after the final insert, {when} the warm restart, answered {} {} \
                     where a fresh engine on the final corpus answers {expected}",
                    got.index, got.status, got.body
                ));
            }
        }
    }

    let ok = out.tally.attempted - out.tally.failed;
    let rps = daemon::ops_per_s(ok as usize, wall);
    let (hits0, misses0) = front_cache(&status0);
    let (hits1, misses1) = front_cache(&status1);
    let hit_rate = (hits1 - hits0) / ((hits1 - hits0) + (misses1 - misses0)).max(1.0);
    let insert_share = write_ms.len() as f64 / exchanges.len().max(1) as f64;
    out.notes.push(format!(
        "clone_churn: {} base docs, {} held-out contracts, {} read snippets (Zipf s={}), 1 insert per {INSERT_EVERY} requests, \
         compact-after {COMPACT_AFTER}, fsync policy {}, {CLIENTS} closed-loop clients",
        base.len(),
        churn.held_out.len(),
        churn.reads.len(),
        inputs::ZIPF_S,
        telemetry::json::parse(&status1).ok().and_then(|v| v.get("fsync_policy")?.as_str().map(str::to_string)).unwrap_or_default(),
    ));
    out.notes.push(format!(
        "clone_churn: {} acknowledged inserts, {compactions} auto-compactions, front-cache hit rate {hit_rate:.4} at insert share {insert_share:.4}",
        acked.len()
    ));
    out.e2e = vec![
        metric("setup_s", median(&setups), "s"),
        metric("peak_rss_mb", peak_rss, "MB"),
        metric("ops_per_s", rps, "1/s"),
        metric("p50_ms", median(&read_ms), "ms"),
        metric("p90_ms", percentile(&read_ms, 0.9), "ms"),
    ];
    out.extra.push(metric("rps", rps, "1/s"));
    out.extra
        .push(metric("p99_ms", percentile(&read_ms, 0.99), "ms"));
    out.extra
        .push(metric("write_p50_ms", median(&write_ms), "ms"));
    out.extra
        .push(metric("write_p90_ms", percentile(&write_ms, 0.9), "ms"));
    out.extra
        .push(metric("error_rate", out.tally.error_rate(), "ratio"));
    if !ctx.trace {
        return Ok(out);
    }

    let l = &mut out.layers;
    l.insert("corpus.generate_s", median(&generate));
    l.insert("corpus_index.front_hit_rate", hit_rate);
    l.insert("corpus_index.insert_share", insert_share);
    l.insert("corpus_index.compactions", compactions);
    l.insert("corpus_index.write_p50_ms", median(&write_ms));
    l.insert("corpus_index.write_p90_ms", percentile(&write_ms, 0.9));
    l.insert("index-store.wal_appends", appends as f64);
    l.insert(
        "index-store.wal_appends_per_insert",
        appends as f64 / acked.len().max(1) as f64,
    );
    l.insert(
        "index-store.wal_fsyncs_per_insert",
        delta("wal_fsyncs_total") as f64 / acked.len().max(1) as f64,
    );
    l.insert("server.shed", delta("server_shed_total") as f64);
    l.insert(
        "api.response_cache_hits",
        delta("api_response_cache_hits_total") as f64,
    );
    l.insert(
        "ccd.daemon_fingerprints",
        delta("ccd_fingerprints_total") as f64,
    );
    l.insert(
        "ccd.daemon_match_queries",
        delta("ccd_matcher_queries_total") as f64,
    );
    // Spans of the measured phase were recorded afterwards from its own
    // timestamps, so tracing cost it nothing.
    l.insert("bench.trace_overhead", 1.0);
    probe(
        &mut out, &tracer, &churn, seed, &snapshot, &all, &single, &fresh,
    )?;

    // Shares of one closed-loop operation, reads and writes weighted by
    // their share of the stream.
    let us = |name| tracer.mean_us(name).0;
    let read_us = mean(&read_ms) * 1e3;
    let write_us = mean(&write_ms) * 1e3;
    let in_process = us("api.decode") + us("api.analyze_served") + us("api.encode");
    let l = &mut out.layers;
    let (transport, wait) = crate::server_split(l, &single, in_process, read_us);
    let per_op = (1.0 - insert_share) * read_us + insert_share * write_us;
    // The decomposition ran cache-less; scale it to the served time, so a
    // front-cache hit's saving is spread over the layers it skipped.
    let served = us("api.analyze_served") / us("api.analyze").max(1e-9);
    let (parse, fingerprint, candidates, score) = (
        served * us("solidity.parse"),
        served * us("ccd.fingerprint"),
        served * us("ngram-index.candidates"),
        served * us("ccd.score"),
    );
    let read_rest = (us("api.analyze_served") - fingerprint - candidates - score).max(0.0)
        + us("api.decode")
        + us("api.encode");
    let (insert, wal, write_fp) = (
        us("corpus_index.insert"),
        us("index-store.wal_append"),
        us("ccd.fingerprint_doc"),
    );
    let (r, w) = (1.0 - insert_share, insert_share);
    for (layer, part) in [
        (
            "server",
            r * (wait + transport) + w * (write_us - insert - write_fp).max(0.0),
        ),
        ("solidity", r * parse),
        (
            "ccd",
            r * ((fingerprint - parse).max(0.0) + score) + w * write_fp,
        ),
        ("ngram-index", r * candidates),
        ("index-store", w * wal.min(insert)),
        ("pipeline", r * read_rest + w * (insert - wal).max(0.0)),
    ] {
        l.insert(crate::share_name(layer), part / per_op);
    }
    crate::write_trace(ctx, &tracer)?;
    Ok(out)
}

/// In-process layer probe of the traced run, on the final snapshot
/// directory and the single-client reads.
#[allow(clippy::too_many_arguments)]
fn probe(
    out: &mut Outcome,
    tracer: &Tracer,
    churn: &Churn,
    seed: u64,
    snapshot: &Path,
    corpus: &[(u64, Fingerprint)],
    single: &[Exchange],
    served: &AnalysisEngine,
) -> Result<(), String> {
    let params = served.corpus_handle().params();
    // The daemon runs with telemetry on (its shipped default), so the
    // in-process calls compared with it do too.
    telemetry::enable();
    // Warm start with WAL replay, as the daemon's set-up does it.
    let t = Instant::now();
    let handle = tracer
        .span("corpus_index.load", None, 0, |_| {
            CorpusBuilder::new(params)
                .snapshot_dir(snapshot)
                .load_snapshot()
        })
        .map_err(|e| e.to_string())?
        .ok_or("no committed snapshot to load")?;
    out.layers
        .insert("corpus_index.load_ms", t.elapsed().as_secs_f64() * 1e3);

    // Reads: the cache-less facade, and its clone-detection calls one by one.
    let engine = AnalysisEngine::with_corpus_handle(
        AnalysisConfig::default()
            .with_cache_capacity(0)
            .with_response_cache_capacity(0),
        CorpusBuilder::new(params)
            .front_cache_capacity(0)
            .from_fingerprints(corpus.to_vec()),
    );
    let mut detector = CloneDetector::new(params);
    for (doc, fp) in corpus {
        detector.insert_fingerprint(*doc, fp.clone());
    }
    let (mut candidates_total, mut useful) = (0u64, 0u64);
    for e in single {
        let body = read_body(churn, seed, e.index);
        // The daemon answers with its front cache warm from the reads since
        // the final insert; `served` has seen the same reads, so its time
        // is what the daemon spent in-process.
        crate::replay_facade(tracer, out, e, &body, &engine, Some(served));
        let AnalysisRequest::CloneCheck { source } =
            AnalysisRequest::from_json(&body).map_err(|e| e.to_string())?
        else {
            continue;
        };
        tracer.span("corpus_index.probe_read", None, e.index, |root| {
            let _ = tracer.span("solidity.parse", Some(root), e.index, |_| {
                solidity::parse_snippet(&source)
            });
            let Ok(fp) = tracer.span("ccd.fingerprint", Some(root), e.index, |_| {
                CloneDetector::try_fingerprint_source(&source)
            }) else {
                return;
            };
            let expected = tracer.span("corpus_index.matches", Some(root), e.index, |_| {
                handle.matches(&fp)
            });
            let (candidates, matched) =
                crate::decomposed_match(tracer, &detector, &fp, params, e.index, Some(root));
            let matched = matched.len();
            if matched != expected.len() {
                out.fail(format!(
                    "decomposed read {} found {matched} clones, the corpus {}",
                    e.index,
                    expected.len()
                ));
            }
            candidates_total += candidates as u64;
            useful += matched as u64;
        });
    }
    let us = |name| tracer.mean_us(name).0;
    let l = &mut out.layers;
    let reads = single.len().max(1) as f64;
    l.insert("solidity.parse_us", us("solidity.parse"));
    l.insert("ccd.fingerprint_us", us("ccd.fingerprint"));
    l.insert("ngram-index.candidates_us", us("ngram-index.candidates"));
    l.insert(
        "ngram-index.candidates_per_query",
        candidates_total as f64 / reads,
    );
    l.insert("ccd.score_us", us("ccd.score"));
    l.insert("ccd.score_pairs", candidates_total as f64);
    l.insert(
        "ccd.useful_ratio",
        useful as f64 / candidates_total.max(1) as f64,
    );
    l.insert("corpus_index.matches_us", us("corpus_index.matches"));
    l.insert("api.decode_us", us("api.decode"));
    l.insert("api.analyze_us", us("api.analyze"));
    l.insert("api.encode_us", us("api.encode"));

    // Writes: fingerprint then insert with the fingerprint precomputed,
    // through the loaded handle's WAL; then one compaction.
    let wal_before = handle.wal_stats().unwrap_or_default();
    for k in 0..PROBE_INSERTS {
        let source = &churn.held_out[(k % churn.held_out.len() as u64) as usize];
        let id = inputs::INSERT_ID_BASE + (1 << 24) + k;
        let fp = tracer
            .span("ccd.fingerprint_doc", None, id, |_| {
                CloneDetector::try_fingerprint_source(source)
            })
            .map_err(|e| e.to_string())?;
        tracer
            .span("corpus_index.insert", None, id, |_| {
                handle.insert_fingerprint(Some(id), fp)
            })
            .map_err(|e| e.to_string())?;
    }
    let wal_after = handle.wal_stats().unwrap_or_default();
    // The WAL append alone, on a segment of its own.
    let mut wal = index_store::wal::WalWriter::create(
        snapshot.with_extension("probe-wal"),
        1,
        index_store::wal::FsyncPolicy::default(),
    )
    .map_err(|e| e.to_string())?;
    for (doc, fp) in corpus.iter().take(PROBE_INSERTS as usize) {
        tracer
            .span("index-store.wal_append", None, *doc, |_| {
                wal.append(*doc, fp)
            })
            .map_err(|e| e.to_string())?;
    }
    drop(wal);
    let t = Instant::now();
    tracer
        .span("corpus_index.compact", None, 0, |_| handle.compact())
        .map_err(|e| e.to_string())?;
    let l = &mut out.layers;
    l.insert("corpus_index.compact_ms", t.elapsed().as_secs_f64() * 1e3);
    l.insert("corpus_index.insert_us", us("corpus_index.insert"));
    l.insert("index-store.wal_append_us", us("index-store.wal_append"));
    l.insert(
        "index-store.wal_bytes_per_insert",
        wal_after.bytes.saturating_sub(wal_before.bytes) as f64 / PROBE_INSERTS as f64,
    );
    Ok(())
}
