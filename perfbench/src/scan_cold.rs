//! `scan_cold`: `/v1/scan` on the real daemon with a source that is
//! unique by bytes in every request, so the response and CPG caches miss
//! every time. Parse, CPG build, CCC, JSON and transport do the work; the
//! clone-detection layers and the WAL must do none.

use crate::daemon::{self, counter, measured_phase, Daemon, Kind};
use crate::inputs;
use crate::measure::{self, mean, median, metric, percentile, succeeded};
use crate::trace::Tracer;
use crate::{Ctx, Outcome, CLIENTS};
use pipeline::api::{
    error_to_json, AnalysisConfig, AnalysisEngine, AnalysisRequest, AnalysisResponse,
};
use std::time::Instant;

/// `peak_rss_mb` is the median peak of the daemons of the set-ups after
/// the measurement, each of which first serves this many scans from one
/// client. The peak of the measured daemon follows how the host
/// schedules its two workers, whose heap arenas fill separately: it read
/// 28-37 MB over ten runs, higher whenever the VM was slow.
const MEMORY_PROBE_REQUESTS: u64 = 4096;
/// Stream indices of the memory probe start here.
const MEMORY_PROBE_FIRST: u64 = 1 << 41;
/// Requests of the single-client phase of the traced run.
const SINGLE_CLIENT_REQUESTS: u64 = 400;
/// Stream indices of the single-client phase start here, clear of the
/// closed-loop indices.
const SINGLE_CLIENT_FIRST: u64 = 1 << 40;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = Tracer::default();
    let work = daemon::workdir(&ctx.root, &ctx.workload)?;

    // Set-up: generate the sources, start the daemon in its shipped
    // defaults and wait until it answers.
    let mut setups = Vec::new();
    let mut generate = Vec::new();
    let mut setup = || -> Result<_, String> {
        let t = Instant::now();
        let pool = inputs::scan_pool(ctx.seed);
        generate.push(t.elapsed().as_secs_f64());
        let daemon = Daemon::start(&ctx.serve_bin, &work, &[])?;
        setups.push(t.elapsed().as_secs_f64());
        Ok((pool, daemon))
    };
    let mut discard = |(_, daemon): (Vec<String>, Daemon)| daemon.stop();
    let (pool, daemon) = crate::set_up_before(&mut setup, &mut discard)?;
    let addr = daemon.addr.clone();
    let body = |i: u64| AnalysisRequest::scan(inputs::scan_source(&pool, ctx.seed, i)).to_json();
    let request = |i: u64| (Kind::Read, "/v1/scan", body(i));

    let before = daemon::metrics(&addr)?;
    let (exchanges, wall) =
        measured_phase(&addr, ctx.duration, ctx.trace.then_some(&tracer), request);
    let single = if ctx.trace {
        daemon::single_client(
            &addr,
            "/v1/scan",
            (SINGLE_CLIENT_FIRST..SINGLE_CLIENT_FIRST + SINGLE_CLIENT_REQUESTS)
                .map(|i| (i, body(i))),
        )?
    } else {
        Vec::new()
    };
    let after = daemon::metrics(&addr)?;
    let loop_peak_rss = measure::peak_rss_mb(&daemon.pid());
    daemon.stop()?;
    // Each daemon of the set-ups after the measurement serves the memory
    // probe before it stops.
    let mut peaks = Vec::new();
    let mut probed = Vec::new();
    let mut probe = |(_, daemon): (Vec<String>, Daemon)| {
        probed.extend(daemon::single_client(
            &daemon.addr,
            "/v1/scan",
            (MEMORY_PROBE_FIRST..MEMORY_PROBE_FIRST + MEMORY_PROBE_REQUESTS).map(|i| (i, body(i))),
        )?);
        peaks.push(measure::peak_rss_mb(&daemon.pid()));
        daemon.stop()
    };
    crate::set_up_after(&mut setup, &mut probe)?;

    // Cold really is cold: no cache hit, no clone-detection or WAL work.
    let delta = |name: &str| counter(&after, name).saturating_sub(counter(&before, name));
    let cold = [
        ("api_response_cache_hits_total", "api.response_cache_hits"),
        ("api_cache_hits_total", "api.cpg_cache_hits"),
        ("ccd_fingerprints_total", "ccd.daemon_fingerprints"),
        ("ccd_matcher_queries_total", "ccd.daemon_match_queries"),
        ("wal_appends_total", "index-store.wal_appends"),
    ];
    for (prom, layer) in cold {
        let n = delta(prom);
        out.layers.insert(layer, n as f64);
        if n != 0 {
            out.fail(format!("scan_cold is not cold: {prom} rose by {n}"));
        }
    }
    out.layers
        .insert("server.shed", delta("server_shed_total") as f64);

    // Output check, outside the timed phases and set-up: every response
    // byte-equal to a cache-less in-process engine's answer.
    let engine = AnalysisEngine::new(
        AnalysisConfig::default()
            .with_cache_capacity(0)
            .with_response_cache_capacity(0),
    );
    let expected = |i: u64| match engine.analyze(&AnalysisRequest::scan(inputs::scan_source(
        &pool, ctx.seed, i,
    ))) {
        Ok(response) => response.to_json(),
        Err(error) => error_to_json(&error),
    };
    let verdicts = pipeline::par::par_map(&exchanges, |_, e| {
        let decoded = AnalysisResponse::from_json(&e.body).is_ok();
        succeeded(e.status, decoded, e.body == expected(e.index))
    });
    let mut latencies = Vec::with_capacity(exchanges.len());
    for (e, ok) in exchanges.iter().zip(&verdicts) {
        out.tally.count(*ok);
        latencies.push(if *ok { e.latency_ms() } else { f64::INFINITY });
        if !ok && out.notes.len() < 8 {
            out.fail(format!(
                "scan request {} answered {} ({} bytes) unlike the reference",
                e.index,
                e.status,
                e.body.len()
            ));
        }
    }
    let probes_ok = pipeline::par::par_map(&probed, |_, e| {
        e.status == 200 && e.body == expected(e.index)
    });
    if probes_ok.contains(&false) {
        out.fail("a memory-probe scan answered unlike the reference".into());
    }
    let ok = verdicts.iter().filter(|ok| **ok).count();
    let rps = daemon::ops_per_s(ok, wall);
    out.notes.push(format!(
        "scan_cold: {} pool sources, {} unique requests, {CLIENTS} closed-loop clients, serve in shipped defaults; \
         memory probe: {MEMORY_PROBE_REQUESTS} single-client scans on each of {} fresh daemons, peaks (MB) {peaks:.2?}",
        pool.len(),
        exchanges.len() + single.len() + MEMORY_PROBE_REQUESTS as usize,
        peaks.len(),
    ));
    out.e2e = vec![
        metric("setup_s", median(&setups), "s"),
        metric("peak_rss_mb", median(&peaks), "MB"),
        metric("ops_per_s", rps, "1/s"),
        metric("p50_ms", median(&latencies), "ms"),
        metric("p90_ms", percentile(&latencies, 0.9), "ms"),
    ];
    out.extra.push(metric("rps", rps, "1/s"));
    out.extra
        .push(metric("loop_peak_rss_mb", loop_peak_rss, "MB"));
    out.extra
        .push(metric("p99_ms", percentile(&latencies, 0.99), "ms"));
    out.extra
        .push(metric("error_rate", out.tally.error_rate(), "ratio"));
    if !ctx.trace {
        return Ok(out);
    }

    // Traced run: the in-process layer probe on the single-client
    // requests. Spans of the measured phase were recorded afterwards from
    // its own timestamps, so tracing cost it nothing.
    out.layers.insert("bench.trace_overhead", 1.0);
    out.layers.insert("corpus.generate_s", median(&generate));
    // The daemon runs with telemetry on (its shipped default), so the
    // in-process calls compared with it do too.
    telemetry::enable();
    let mut checked = crate::Checked::default();
    for e in &single {
        let request_body = body(e.index);
        crate::replay_facade(&tracer, &mut out, e, &request_body, &engine, None);
        let AnalysisRequest::Scan { source, .. } =
            AnalysisRequest::from_json(&request_body).map_err(|e| e.to_string())?
        else {
            continue;
        };
        crate::parse_build_check(
            &tracer,
            engine.checker(),
            &source,
            e.index,
            None,
            &mut checked,
        );
    }
    crate::parse_cpg_ccc_layers(&mut out.layers, &tracer, &checked);
    let us = |name| tracer.mean_us(name).0;
    let loop_us = mean(&latencies) * 1e3;
    let in_process = us("api.decode") + us("api.analyze") + us("api.encode");
    let l = &mut out.layers;
    let (transport, wait) = crate::server_split(l, &single, in_process, loop_us);
    l.insert("api.decode_us", us("api.decode"));
    l.insert("api.analyze_us", us("api.analyze"));
    l.insert("api.encode_us", us("api.encode"));
    // Shares of one closed-loop request: queueing and transport are the
    // server's; decode, encode and the facade's own analyze time are the
    // pipeline's; parse, CPG build and checking go to their crates.
    let (parse, build, check) = (us("solidity.parse"), us("cpg.build"), us("ccc.check"));
    let rest =
        us("api.decode") + us("api.encode") + (us("api.analyze") - parse - build - check).max(0.0);
    for (layer, part) in [
        ("server", wait + transport),
        ("pipeline", rest),
        ("solidity", parse),
        ("cpg", build),
        ("ccc", check),
    ] {
        l.insert(crate::share_name(layer), part / loop_us);
    }
    crate::write_trace(ctx, &tracer)?;
    Ok(out)
}
