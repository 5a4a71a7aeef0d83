//! `study`: the paper's experiment in-process — `run_funnel` plus
//! `run_study` on generated Q&A and contract corpora at one fixed scale.

use crate::inputs::{self, STUDY_SCALE};
use crate::measure::{self, median, metric, percentile};
use crate::trace::Tracer;
use crate::{Checked, Ctx, Outcome};
use ccc::Checker;
use ccd::CloneDetector;
use corpus::contracts::ContractCorpus;
use pipeline::{map_snippets, run_funnel, run_study, StudyConfig, StudyResult, UniqueSnippet};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// `<scale> <digest>` lines recorded by `--record-digests`.
const RECORDED: &str = include_str!("../study_digests.txt");

/// FNV-1a over a canonical rendering of the full study output: every
/// Table 6/7 count, the Table 6 distribution, the sorted clone mapping,
/// the sorted snippet findings and the validation records.
pub fn digest(result: &StudyResult) -> u64 {
    let mut text = format!(
        "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}\n{:?}\n",
        result.unique_snippets,
        result.vulnerable_snippets,
        result.contained_in_contracts,
        result.posted_before_deployment,
        result.source_snippets,
        result.contracts_containing,
        result.contracts_containing_source,
        result.unique_contracts,
        result.unique_contracts_source,
        result.analyzed_phase1,
        result.analyzed_total,
        result.vulnerable_contracts_phase1,
        result.vulnerable_contracts,
        result.vulnerable_contracts_source,
        result.snippets_in_vulnerable_contracts,
        result.snippets_in_vulnerable_contracts_source,
        result.dasp_distribution,
    );
    let mut mapping: Vec<_> = result.mapping.matches.iter().collect();
    mapping.sort();
    let mut findings: Vec<_> = result.snippet_findings.iter().collect();
    findings.sort();
    let _ = write!(text, "{mapping:?}\n{findings:?}\n");
    for r in &result.records {
        let _ = writeln!(
            text,
            "{} {} {:?} {:?} {:?}",
            r.snippet, r.contract, r.queries, r.confirmed, r.outcome
        );
    }
    inputs::fnv1a(text.as_bytes())
}

/// The digest recorded for `STUDY_SCALE` (the same for every seed, see
/// `inputs::study_corpora`).
fn recorded_digest() -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let (scale, digest) = line.split_once(' ')?;
        (scale.parse::<f64>().ok()? == STUDY_SCALE)
            .then(|| u64::from_str_radix(digest.trim(), 16).ok())?
    })
}

/// Print `<scale> <digest>` (the `study_digests.txt` format) for each
/// seed; every seed must print the same line.
pub fn record_digests(seeds: impl Iterator<Item = u64>) {
    for seed in seeds {
        let (qa, contracts) = inputs::study_corpora(seed);
        let funnel = run_funnel(&qa);
        let result = run_study(&qa, &contracts, &funnel.unique, StudyConfig::default());
        println!("{STUDY_SCALE} {:016x}", digest(&result));
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = Tracer::default();

    let mut setups = Vec::new();
    let mut setup = || {
        let t = Instant::now();
        let corpora = tracer.span("corpus.generate", None, 0, |_| {
            inputs::study_corpora(ctx.seed)
        });
        setups.push(t.elapsed().as_secs_f64());
        Ok(corpora)
    };
    let mut discard = |corpora| {
        drop(corpora);
        Ok(())
    };
    let (qa, contracts) = crate::set_up_before(&mut setup, &mut discard)?;

    let expected =
        recorded_digest().ok_or(format!("no study digest recorded for scale {STUDY_SCALE}"))?;
    let check = |result: &StudyResult, out: &mut Outcome| {
        let d = digest(result);
        out.tally.count(d == expected);
        if d != expected {
            out.fail(format!("study digest {d:016x}, recorded {expected:016x}"));
        }
    };

    // Passes until the run time is up (at least three). A traced run
    // alternates untraced passes, which give the end-to-end numbers, with
    // passes that record a span around each pipeline call.
    let cpu0 = measure::cpu_seconds();
    let wall0 = Instant::now();
    let mut passes = Vec::new();
    let mut traced = Vec::new();
    let mut funnel_s = Vec::new();
    let mut study_s = Vec::new();
    let mut unique = Vec::new();
    while passes.len() < 3 || wall0.elapsed() < ctx.duration {
        if ctx.trace && traced.len() < passes.len() {
            let pass = traced.len() as u64;
            let t = Instant::now();
            let result = tracer.span("pipeline.pass", None, pass, |root| {
                let funnel = tracer.span("pipeline.funnel", Some(root), pass, |_| run_funnel(&qa));
                tracer.span("pipeline.study", Some(root), pass, |_| {
                    run_study(&qa, &contracts, &funnel.unique, StudyConfig::default())
                })
            });
            traced.push(t.elapsed().as_secs_f64());
            check(&result, &mut out);
            continue;
        }
        let t = Instant::now();
        let funnel = run_funnel(&qa);
        let t_study = Instant::now();
        let result = run_study(&qa, &contracts, &funnel.unique, StudyConfig::default());
        let end = Instant::now();
        passes.push((end - t).as_secs_f64());
        funnel_s.push((t_study - t).as_secs_f64());
        study_s.push((end - t_study).as_secs_f64());
        check(&result, &mut out);
        unique = funnel.unique;
    }
    let cpu_util =
        (measure::cpu_seconds() - cpu0) / (wall0.elapsed().as_secs_f64() * measure::cores() as f64);
    let peak_rss = measure::peak_rss_mb("self");
    crate::set_up_after(&mut setup, &mut discard)?;
    let setup_s = median(&setups);
    let pass_s = median(&passes);
    out.notes.push(format!(
        "study: scale {STUDY_SCALE}, {} unique snippets, {} contracts, recorded digest {expected:016x}, \
         {} passes (s): {passes:.4?}, set-ups (s): {setups:.4?}",
        unique.len(),
        contracts.contracts.len(),
        passes.len(),
    ));
    out.e2e = vec![
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss, "MB"),
        // Unique snippets taken through the whole study per second.
        metric(
            "ops_per_s",
            (unique.len() * passes.len()) as f64 / passes.iter().sum::<f64>(),
            "1/s",
        ),
        metric("p50_ms", pass_s * 1e3, "ms"),
        metric("p90_ms", percentile(&passes, 0.9) * 1e3, "ms"),
    ];
    out.extra.push(metric("study_s", pass_s, "s"));
    out.extra
        .push(metric("error_rate", out.tally.error_rate(), "ratio"));
    if !ctx.trace {
        return Ok(out);
    }

    let result = run_study(&qa, &contracts, &unique, StudyConfig::default());

    // Layer probe: the mapping step timed whole, then decomposed call by
    // call into fingerprinting, N-gram retrieval and Algorithm 1 scoring.
    let params = StudyConfig::default().ccd;
    let mapping_runs: Vec<f64> = (0..3)
        .map(|n| {
            tracer.span("pipeline.mapping", None, n, |_| {
                let t = Instant::now();
                std::hint::black_box(map_snippets(&unique, &contracts, params));
                t.elapsed().as_secs_f64()
            })
        })
        .collect();
    let mapping_s = median(&mapping_runs);
    let probe = decomposed_mapping(&tracer, &unique, &contracts);
    let mapping_ok = unique.iter().all(|u| {
        probe
            .matches
            .get(&u.id)
            .is_none_or(|ids| ids.as_slice() == result.mapping.contracts_of(u.id))
    });
    if !mapping_ok {
        out.fail("the decomposed mapping disagrees with map_snippets".into());
    }
    let checked = check_snippets(&tracer, &unique);

    let l = &mut out.layers;
    l.insert("corpus.generate_s", setup_s);
    crate::parse_cpg_ccc_layers(l, &tracer, &checked);
    l.insert("ccd.fingerprint_us", tracer.mean_us("ccd.fingerprint").0);
    l.insert(
        "ngram-index.candidates_us",
        tracer.mean_us("ngram-index.candidates").0,
    );
    l.insert(
        "ngram-index.candidates_per_query",
        probe.candidates as f64 / unique.len().max(1) as f64,
    );
    l.insert("ccd.score_us", tracer.mean_us("ccd.score").0);
    l.insert("ccd.score_pairs", probe.candidates as f64);
    l.insert(
        "ccd.useful_ratio",
        probe.useful as f64 / probe.candidates.max(1) as f64,
    );
    let run_study_s = median(&study_s);
    l.insert("pipeline.funnel_s", median(&funnel_s));
    l.insert("pipeline.mapping_s", mapping_s);
    l.insert("pipeline.study_rest_s", (run_study_s - mapping_s).max(0.0));
    l.insert("pipeline.cpu_util", cpu_util);
    l.insert("bench.trace_overhead", median(&traced) / pass_s);

    // Shares of one pass: funnel and the non-mapping study steps are
    // pipeline time; the mapping splits by the decomposed self times
    // (CPU-proportional, since the mapping runs on every core).
    let mapping_share = (mapping_s / pass_s).min(1.0);
    let by_layer = crate::self_time_by_layer(&tracer, &["ccd.index_build", "pipeline.map_snippet"]);
    let mapping_total: f64 = by_layer.values().sum();
    for (layer, ns) in &by_layer {
        let share = mapping_share * ns / mapping_total.max(1.0);
        *l.entry(crate::share_name(layer)).or_insert(0.0) += share;
    }
    *l.entry(crate::share_name("pipeline")).or_insert(0.0) += 1.0 - mapping_share;
    crate::write_trace(ctx, &tracer)?;
    Ok(out)
}

pub struct ProbeMapping {
    pub matches: HashMap<u64, Vec<u64>>,
    pub candidates: u64,
    pub useful: u64,
}

/// `map_snippets` re-done from the benchmark's side with a span around
/// each public call, on every core like the original.
fn decomposed_mapping(
    tracer: &Tracer,
    unique: &[UniqueSnippet],
    contracts: &ContractCorpus,
) -> ProbeMapping {
    let params = StudyConfig::default().ccd;
    let detector = tracer.span("ccd.index_build", None, 0, |root| {
        let mut detector = CloneDetector::new(params);
        for c in &contracts.contracts {
            let fp = tracer.span("ccd.fingerprint_doc", Some(root), c.id, |_| {
                CloneDetector::fingerprint_source(&c.source)
            });
            if let Some(fp) = fp {
                tracer.span("ngram-index.insert", Some(root), c.id, |_| {
                    detector.insert_fingerprint(c.id, fp)
                });
            }
        }
        detector
    });
    let per_snippet = pipeline::par::par_map(unique, |_, u| {
        tracer.span("pipeline.map_snippet", None, u.id, |root| {
            let fp = tracer.span("ccd.fingerprint", Some(root), u.id, |_| {
                CloneDetector::try_fingerprint_source(&u.text)
            });
            let fp = fp.ok()?;
            let (candidates, ids) =
                crate::decomposed_match(tracer, &detector, &fp, params, u.id, Some(root));
            Some((u.id, candidates as u64, ids))
        })
    });
    let mut probe = ProbeMapping {
        matches: HashMap::new(),
        candidates: 0,
        useful: 0,
    };
    for (id, candidates, ids) in per_snippet.into_iter().flatten() {
        probe.candidates += candidates;
        probe.useful += ids.len() as u64;
        probe.matches.insert(id, ids);
    }
    probe
}

/// The study's CCC-on-snippets step re-done call by call: parse, CPG
/// build and detector evaluation of every unique snippet.
fn check_snippets(tracer: &Tracer, unique: &[UniqueSnippet]) -> Checked {
    let checker = Checker::new();
    let mut c = Checked::default();
    for u in unique {
        crate::parse_build_check(tracer, &checker, &u.text, u.id, None, &mut c);
    }
    c
}
