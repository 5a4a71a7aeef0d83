//! Seeded workload inputs, built from the repository's `corpus`
//! generators; the program only ever receives the generated text.
//!
//! Each workload has a fixed shape: its corpora come from the generator
//! seeds of the recorded experiment run (`bench::QA_SEED`,
//! `bench::SANCTUARY_SEED`) at a fixed scale. `--seed` drives the byte
//! level: every text is re-laid-out by the corpus crate's Type I mutation
//! (indentation and comment lines), request order is shuffled, and each
//! request draws its own source or mutant. A generator seed per run made
//! the work itself swing between runs by 15–40% at the sizes a run
//! affords (a few hot snippets dominate the clone-matching cost), which
//! no bound could absorb. Everything is a pure function of the seed and,
//! for request streams, the request index.

use corpus::contracts::{generate_contracts, ContractCorpus, SanctuaryConfig};
use corpus::mutate::{mutate, CloneType};
use corpus::qa::{generate_qa, QaConfig, QaCorpus};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Study scale (fraction of the paper's Q&A corpus); contracts are
/// generated at a quarter of it, as in the recorded experiment run.
pub const STUDY_SCALE: f64 = 0.05;
/// Q&A scale of the snippet pools of the daemon workloads.
pub const POOL_QA_SCALE: f64 = 0.05;
/// Contract scale of the `scan_cold` pool (≈ 320 full contracts).
pub const SCAN_CONTRACT_SCALE: f64 = 0.0005;
/// Contract scale of `clone_churn` (≈ 3,900 contracts: base + held out).
pub const CHURN_CONTRACT_SCALE: f64 = 0.012;
/// Share of the churn contracts that go into the prepared snapshot; the
/// rest are held out for inserts.
pub const CHURN_BASE_SHARE: f64 = 0.75;
/// One request in this many is an insert in `clone_churn`.
pub const INSERT_EVERY: u64 = 16;
/// Zipf exponent of read popularity over the snippet pool.
pub const ZIPF_S: f64 = 1.0;
/// Inserted documents get explicit ids from here up, clear of the
/// generated contract ids.
pub const INSERT_ID_BASE: u64 = 1 << 32;

/// Generator seeds of the recorded experiment run.
const QA_SEED: u64 = 0x50DD;
const CONTRACT_SEED: u64 = 0xC0DE;

/// SplitMix64 finaliser: decorrelates (seed, salt) pairs.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

fn qa(scale: f64) -> QaCorpus {
    generate_qa(QaConfig {
        seed: QA_SEED,
        scale,
    })
}

fn contracts(qa: &QaCorpus, scale: f64) -> ContractCorpus {
    generate_contracts(
        SanctuaryConfig {
            seed: CONTRACT_SEED,
            scale,
            ..SanctuaryConfig::default()
        },
        qa,
    )
}

/// `text` re-laid-out under `seed`. Equal texts get equal layouts, so
/// exact duplicates stay duplicates; the token stream is untouched.
fn relayout(text: &str, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(mix(seed, fnv1a(text.as_bytes())));
    mutate(text, CloneType::TypeI, &mut rng)
}

/// The `study` corpora, re-laid-out under `seed`. The study output — and
/// its digest — is the same for every seed.
pub fn study_corpora(seed: u64) -> (QaCorpus, ContractCorpus) {
    let mut qa = qa(STUDY_SCALE);
    let mut contracts = contracts(&qa, STUDY_SCALE / 4.0);
    for s in &mut qa.snippets {
        s.text = relayout(&s.text, seed);
    }
    for c in &mut contracts.contracts {
        c.source = relayout(&c.source, seed);
    }
    (qa, contracts)
}

/// Unique parsable Solidity snippets of a Q&A corpus (contract-,
/// function- and statement-level), as the funnel keeps them.
fn unique_snippets(qa: &QaCorpus) -> Vec<String> {
    pipeline::run_funnel(qa)
        .unique
        .into_iter()
        .map(|u| u.text)
        .collect()
}

/// `scan_cold` base sources: unique Q&A snippets at every hierarchy level
/// plus full deployed contracts, re-laid-out and shuffled under `seed`.
pub fn scan_pool(seed: u64) -> Vec<String> {
    let qa = qa(POOL_QA_SCALE);
    let mut pool = unique_snippets(&qa);
    pool.extend(
        contracts(&qa, SCAN_CONTRACT_SCALE)
            .contracts
            .into_iter()
            .map(|c| c.source),
    );
    let mut pool: Vec<String> = pool.iter().map(|text| relayout(text, seed)).collect();
    pool.shuffle(&mut StdRng::seed_from_u64(mix(seed, 3)));
    pool
}

/// Request `i` of the `scan_cold` stream: a pool source made unique by
/// bytes, so neither the response cache nor the CPG cache can hit.
pub fn scan_source(pool: &[String], seed: u64, i: u64) -> String {
    let base = &pool[(i % pool.len() as u64) as usize];
    format!("{base}\n// perfbench scan {seed}:{i}\n")
}

/// `clone_churn` inputs.
pub struct Churn {
    /// Read pool: fingerprintable unique Q&A snippets, most popular first.
    pub reads: Vec<String>,
    /// Cumulative Zipf popularity over `reads`.
    cdf: Vec<f64>,
    /// Snapshot corpus: (doc id, source).
    pub base: Vec<(u64, String)>,
    /// Contracts held out for inserts.
    pub held_out: Vec<String>,
}

/// One `clone_churn` operation.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnOp {
    Read(String),
    Insert { id: u64, source: String },
}

/// `clone_churn` inputs for `seed`. The popularity order of the read pool
/// is part of the fixed shape; the seed re-lays-out the contracts and
/// draws every read's snippet and mutation.
pub fn churn(seed: u64) -> Churn {
    let qa = qa(POOL_QA_SCALE);
    let mut reads: Vec<String> = unique_snippets(&qa)
        .into_iter()
        .filter(|s| ccd::CloneDetector::try_fingerprint_source(s).is_ok())
        .collect();
    reads.shuffle(&mut StdRng::seed_from_u64(mix(QA_SEED, 4)));
    let weights: Vec<f64> = (0..reads.len())
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let cdf = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let contracts = contracts(&qa, CHURN_CONTRACT_SCALE).contracts;
    let split = (contracts.len() as f64 * CHURN_BASE_SHARE) as usize;
    let mut base = Vec::with_capacity(split);
    let mut held_out = Vec::with_capacity(contracts.len() - split);
    for (n, c) in contracts.into_iter().enumerate() {
        let source = relayout(&c.source, seed);
        if n < split {
            base.push((c.id, source));
        } else {
            held_out.push(source);
        }
    }
    Churn {
        reads,
        cdf,
        base,
        held_out,
    }
}

impl Churn {
    /// Operation `i` of the stream: every `INSERT_EVERY`-th is an insert
    /// of the next held-out contract, the rest are clone checks of a
    /// Type I or Type II mutant of a popularity-weighted snippet.
    pub fn op(&self, seed: u64, i: u64) -> ChurnOp {
        if i % INSERT_EVERY == INSERT_EVERY - 1 {
            let k = i / INSERT_EVERY;
            let base = &self.held_out[(k % self.held_out.len() as u64) as usize];
            return ChurnOp::Insert {
                id: INSERT_ID_BASE + k,
                source: format!("{base}\n// perfbench insert {seed}:{k}\n"),
            };
        }
        ChurnOp::Read(self.read(seed, i))
    }

    /// The clone-check source of stream index `i`.
    pub fn read(&self, seed: u64, i: u64) -> String {
        let mut rng = StdRng::seed_from_u64(mix(seed, i.wrapping_add(5)));
        let u: f64 = rng.gen();
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.reads.len() - 1);
        let kind = if rng.gen_bool(0.5) {
            CloneType::TypeI
        } else {
            CloneType::TypeII
        };
        mutate(&self.reads[rank], kind, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_stream_is_a_function_of_the_seed() {
        let a = scan_pool(7);
        let stream = |pool: &[String], seed| {
            (0..400)
                .map(|i| scan_source(pool, seed, i))
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(&a, 7), stream(&scan_pool(7), 7));
        assert_ne!(stream(&a, 7), stream(&scan_pool(8), 8));
        let one = stream(&a, 7);
        let unique: std::collections::HashSet<&String> = one.iter().collect();
        assert_eq!(
            unique.len(),
            one.len(),
            "every scan source is unique by bytes"
        );
    }

    #[test]
    fn churn_stream_and_corpus_are_functions_of_the_seed() {
        let (a, b, c) = (churn(11), churn(11), churn(12));
        assert_eq!(a.base, b.base);
        assert_ne!(a.base, c.base);
        assert_eq!(a.held_out, b.held_out);
        assert_ne!(a.held_out, c.held_out);
        let stream = |ch: &Churn, seed| (0..200).map(|i| ch.op(seed, i)).collect::<Vec<_>>();
        assert_eq!(stream(&a, 11), stream(&b, 11));
        assert_ne!(stream(&a, 11), stream(&c, 12));
        let inserts = stream(&a, 11)
            .iter()
            .filter(|op| matches!(op, ChurnOp::Insert { .. }))
            .count();
        assert_eq!(inserts, 200 / INSERT_EVERY as usize);
    }

    #[test]
    fn study_corpora_are_functions_of_the_seed() {
        let text = |seed| {
            let (qa, contracts) = study_corpora(seed);
            let snippets: Vec<String> = qa.snippets.into_iter().map(|s| s.text).collect();
            let sources: Vec<String> = contracts.contracts.into_iter().map(|c| c.source).collect();
            (snippets, sources)
        };
        assert_eq!(text(3), text(3));
        assert_ne!(text(3), text(4));
    }
}
