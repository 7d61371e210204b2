//! Replayed spans: the model layers that have no public seam, timed on a
//! freshly built model over the requests of a traced run.
//!
//! Only requests that reached the model are replayed: the first occurrence
//! of each completion key and each Run query key, in the order the server
//! saw them, so the model's memo caches warm as they did in the measured
//! run. Each replayed call mirrors what the model does for that request:
//! a completion is a suffix-tree lookup, plus a residual-bin scan when the
//! tree returns fewer than `k` matches; a Run is the Algorithm 2 candidate
//! generation, then the Steiner relaxation when the query has two or more
//! literals.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use sapphire_core::qsm::{AlteredPosition, QsmOutput, StructureRelaxer};
use sapphire_core::session::Session;
use sapphire_core::{completion_request_key, run_request_key, PredictiveUserModel};
use sapphire_rdf::{Literal, Term};
use sapphire_sparql::{SelectQuery, TermPattern};

use crate::single::Event;
use crate::timing::{Request, TimingEndpoint};

/// Samples (sorted ascending) and counts of one replay.
#[derive(Debug, Default)]
pub struct Replay {
    /// Suffix-tree lookup times, ns.
    pub tree_ns: Vec<u64>,
    /// Lookups that returned at least one match.
    pub tree_hits: u64,
    /// Residual-bin scan times, ns.
    pub bins_ns: Vec<u64>,
    /// Literals in the length range of each scan, summed.
    pub bins_candidates: u64,
    /// Algorithm 2 candidate-generation times, ns.
    pub alternatives_ns: Vec<u64>,
    /// Steiner relaxation times, ns.
    pub relax_ns: Vec<u64>,
    /// Expansion queries the relaxations issued.
    pub relax_queries: u64,
    /// Runs replayed.
    pub runs: u64,
    /// Replayed child time per request (`seq`), excluding endpoint time
    /// that the live run already timed.
    pub child_ns: HashMap<u64, u64>,
    /// Literal-alternative memo cache hit ratio after the replay.
    pub literal_hit_ratio: f64,
    /// Predicate-alternative memo cache hit ratio after the replay.
    pub predicate_hit_ratio: f64,
    /// Steiner neighborhood cache hit ratio after the replay.
    pub neighborhood_hit_ratio: f64,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Replay `events` (sorted by `seq`) against `pum`, whose endpoint is
/// `endpoint`.
pub fn replay(pum: &PredictiveUserModel, endpoint: &TimingEndpoint, events: &[Event]) -> Replay {
    let mut out = Replay::default();
    let cache = pum.qcm().cache();
    let config = pum.config();
    let mut seen: HashSet<String> = HashSet::new();
    for event in events {
        match event {
            Event::Complete { seq, typed } => {
                let t = typed.trim();
                if t.is_empty() || t.starts_with('?') || !seen.insert(completion_request_key(t)) {
                    continue;
                }
                let started = Instant::now();
                let matches = std::hint::black_box(cache.tree_lookup(t, config.k));
                let tree = ns_since(started);
                out.tree_ns.push(tree);
                out.tree_hits += u64::from(!matches.is_empty());
                let mut child = tree;
                if matches.len() < config.k {
                    let len = t.chars().count();
                    out.bins_candidates +=
                        cache.bins.count_in_range(len..len + config.gamma + 1) as u64;
                    let started = Instant::now();
                    std::hint::black_box(cache.residual_lookup(t, config.gamma, config.processes));
                    let bins = ns_since(started);
                    out.bins_ns.push(bins);
                    child += bins;
                }
                out.child_ns.insert(*seq, child);
            }
            Event::Run {
                seq,
                script,
                suggestions,
            } => {
                let Ok(query) =
                    Session::resume(pum, script.rows.clone(), script.modifiers.clone(), 0)
                        .build_query()
                else {
                    continue;
                };
                if !seen.insert(run_request_key(&query)) {
                    continue;
                }
                out.runs += 1;
                let started = Instant::now();
                std::hint::black_box(pum.qsm().finder().candidates(&query));
                let alternatives = ns_since(started);
                out.alternatives_ns.push(alternatives);
                let mut child = alternatives;
                let groups = seed_groups(pum, &query);
                if groups.len() >= 2 {
                    let relaxer = StructureRelaxer::new(
                        pum.federation(),
                        config.steiner,
                        preferred_predicates(&query, suggestions),
                    )
                    .with_cache(pum.qsm().neighborhood().clone());
                    let queries_before = endpoint.local().stats().queries;
                    let span = Request::begin();
                    std::hint::black_box(relaxer.relax(&groups));
                    let (relax, endpoint_ns) = span.finish();
                    out.relax_queries += endpoint.local().stats().queries - queries_before;
                    out.relax_ns.push(relax);
                    child += relax.saturating_sub(endpoint_ns);
                }
                out.child_ns.insert(*seq, child);
            }
        }
    }
    for samples in [
        &mut out.tree_ns,
        &mut out.bins_ns,
        &mut out.alternatives_ns,
        &mut out.relax_ns,
    ] {
        samples.sort_unstable();
    }
    let alt = pum.alt_cache_stats();
    out.literal_hit_ratio = alt.literal.hit_ratio();
    out.predicate_hit_ratio = alt.predicate.hit_ratio();
    out.neighborhood_hit_ratio = pum.relax_cache_stats().hit_ratio();
    out
}

/// Algorithm 3 line 3: each distinct query literal, grounded in the cache
/// language, plus its top `seeds_per_group - 1` literal alternatives.
fn seed_groups(pum: &PredictiveUserModel, query: &SelectQuery) -> Vec<Vec<Term>> {
    let config = pum.config();
    let mut literals: Vec<&Literal> = Vec::new();
    for tp in &query.pattern.triples {
        if let TermPattern::Term(Term::Literal(l)) = &tp.object {
            if !literals.contains(&l) {
                literals.push(l);
            }
        }
    }
    if literals.len() < 2 {
        return Vec::new();
    }
    literals
        .into_iter()
        .map(|lit| {
            let mut group = vec![match &lit.lang {
                Some(_) => Term::Literal(lit.clone()),
                None => Term::Literal(Literal::lang_tagged(
                    lit.value.clone(),
                    config.language.clone(),
                )),
            }];
            for (alt, _) in pum
                .qsm()
                .finder()
                .literal_alternatives(&lit.value)
                .iter()
                .take(config.steiner.seeds_per_group.saturating_sub(1))
            {
                group.push(Term::Literal(Literal::lang_tagged(
                    alt.clone(),
                    config.language.clone(),
                )));
            }
            group
        })
        .collect()
}

/// The query's predicates plus the predicates of the live run's
/// "did you mean" rewrites: the expansion's preferred edges.
fn preferred_predicates(query: &SelectQuery, live: &Arc<QsmOutput>) -> HashSet<String> {
    let mut out = HashSet::new();
    for tp in &query.pattern.triples {
        if let TermPattern::Term(Term::Iri(iri)) = &tp.predicate {
            out.insert(iri.clone());
        }
    }
    for alt in &live.alternatives {
        if alt.position == AlteredPosition::Predicate {
            if let TermPattern::Term(Term::Iri(iri)) =
                &alt.query.pattern.triples[alt.triple_index].predicate
            {
                out.insert(iri.clone());
            }
        }
    }
    out
}
