//! Deterministic session generators: the scripted users the benchmark
//! replays.
//!
//! A *script* is what one simulated user does in one session: the rows of
//! the query (subject, predicate keyword, object keyword) and its modifiers.
//! The benchmark types every non-variable predicate and object keyword one
//! character at a time, asking for one completion per prefix, sets the rows
//! and modifiers, clicks Run and closes the session.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sapphire_core::session::{Modifiers, TripleInput};
use sapphire_datagen::userstudy::misspell;
use sapphire_datagen::workload::qald_style_50;
use sapphire_rdf::{Graph, Term};
use sapphire_text::surface_form;

const DBO: &str = "http://dbpedia.org/ontology/";
const NAME: &str = "http://dbpedia.org/ontology/name";

/// The three cold session shapes plus the replayed QALD-style scripts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Shape {
    /// `?e name "A" . ?e <pred> ?o`.
    Factoid,
    /// A factoid whose name went through `userstudy::misspell`.
    Misspelled,
    /// `?e name "A" . ?e <pred> "B"`: the Figure 6 shape that triggers
    /// Steiner relaxation.
    Flattened,
    /// One of the 50 `workload::qald_style_50` scripts.
    Qald,
}

impl Shape {
    /// Stable label used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Shape::Factoid => "factoid",
            Shape::Misspelled => "misspelled",
            Shape::Flattened => "flattened",
            Shape::Qald => "qald",
        }
    }
}

/// One simulated user's session.
#[derive(Debug, Clone)]
pub struct Script {
    /// Which generator shape produced it.
    pub shape: Shape,
    /// The query rows, set with `set_row(0..rows.len())` on a fresh session.
    pub rows: Vec<TripleInput>,
    /// The query modifiers.
    pub modifiers: Modifiers,
}

impl Script {
    /// The prefixes typed while filling row `row`: every prefix of the
    /// predicate keyword, then of the object keyword. Variables (`?x`) are
    /// not typed, since the model never completes them.
    pub fn keystrokes(&self, row: usize) -> Vec<String> {
        let r = &self.rows[row];
        let mut out = Vec::new();
        for word in [&r.predicate, &r.object] {
            if word.starts_with('?') {
                continue;
            }
            let chars: Vec<char> = word.chars().collect();
            for end in 1..=chars.len() {
                out.push(chars[..end].iter().collect());
            }
        }
        out
    }

    /// A one-line rendering for reports.
    pub fn describe(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| format!("{} {} {:?}", r.subject, r.predicate, r.object))
            .collect();
        format!("[{}] {}", self.shape.name(), rows.join(" . "))
    }
}

/// The dataset's own named facts, the universe the cold sessions draw from.
#[derive(Debug, Default)]
pub struct Universe {
    /// `(A, predicate keyword)`, one per triple `e <pred> o` whose subject
    /// is named "A".
    pub facts: Vec<(String, String)>,
    /// `(A, predicate keyword, B)`, one per triple `e <pred> o` whose
    /// subject is named "A" and whose object is named "B".
    pub edges: Vec<(String, String, String)>,
}

impl Universe {
    /// Collect every named fact and named edge of `graph`, one entry per
    /// triple, in the sealed graph's canonical iteration order, so that a
    /// seed picks the same sessions on every run. An entity's name is its
    /// first English `dbo:name` literal.
    pub fn from_graph(graph: &Graph) -> Self {
        let mut names: HashMap<&str, &str> = HashMap::new();
        for (s, p, o) in graph.iter_terms() {
            if let (Term::Iri(s), Term::Iri(p), Term::Literal(lit)) = (s, p, o) {
                if p == NAME && lit.lang.as_deref() == Some("en") {
                    names.entry(s.as_str()).or_insert(lit.value.as_str());
                }
            }
        }
        let mut universe = Universe::default();
        for (s, p, o) in graph.iter_terms() {
            let (Term::Iri(s), Term::Iri(p)) = (s, p) else {
                continue;
            };
            if p == NAME || !p.starts_with(DBO) {
                continue;
            }
            let Some(a) = names.get(s.as_str()) else {
                continue;
            };
            let keyword = surface_form(p);
            if let Term::Iri(o) = o {
                if let Some(b) = names.get(o.as_str()) {
                    universe
                        .edges
                        .push((a.to_string(), keyword.clone(), b.to_string()));
                }
            }
            universe.facts.push((a.to_string(), keyword));
        }
        universe
    }
}

/// Percent shares of the cold mix: factoid, misspelled, flattened.
pub const COLD_MIX: [(Shape, u32); 3] = [
    (Shape::Factoid, 40),
    (Shape::Misspelled, 30),
    (Shape::Flattened, 30),
];

/// The cold mix is dealt in shuffled decks of `100 / MIX_QUANTUM` sessions
/// that hold every shape exactly its share, so a run's mix does not drift
/// with the seed.
const MIX_QUANTUM: u32 = 10;

/// The cold-session generator: an endless, seeded stream of scripts drawn
/// from the dataset's own facts in the [`COLD_MIX`] proportions.
pub struct ColdGen {
    universe: Arc<Universe>,
    rng: StdRng,
    /// Shapes left in the current deck.
    deck: Vec<Shape>,
}

impl ColdGen {
    /// Stream `stream` (one per client) of the workload seeded by `seed`.
    pub fn new(universe: Arc<Universe>, seed: u64, stream: u64) -> Self {
        ColdGen {
            universe,
            rng: StdRng::seed_from_u64(mix(seed, stream)),
            deck: Vec::new(),
        }
    }

    /// The next session.
    pub fn next_script(&mut self) -> Script {
        if self.deck.is_empty() {
            for (shape, share) in COLD_MIX {
                let copies = (share / MIX_QUANTUM) as usize;
                self.deck.extend(std::iter::repeat_n(shape, copies));
            }
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, self.rng.gen_range(0..=i));
            }
        }
        let shape = self.deck.pop().expect("the deck was just refilled");
        let rows = match shape {
            Shape::Factoid | Shape::Misspelled => {
                let i = self.rng.gen_range(0..self.universe.facts.len());
                let (a, p) = &self.universe.facts[i];
                let a = if shape == Shape::Misspelled {
                    misspell(a, &mut self.rng)
                } else {
                    a.clone()
                };
                vec![
                    TripleInput::new("?e", "name", a),
                    TripleInput::new("?e", p.clone(), "?o"),
                ]
            }
            _ => {
                let i = self.rng.gen_range(0..self.universe.edges.len());
                let (a, p, b) = &self.universe.edges[i];
                vec![
                    TripleInput::new("?e", "name", a.clone()),
                    TripleInput::new("?e", p.clone(), b.clone()),
                ]
            }
        };
        Script {
            shape,
            rows,
            modifiers: Modifiers::default(),
        }
    }
}

/// The 50 QALD-style scripts (27 Appendix-B + 23 factoids), with their
/// ORDER BY, LIMIT, COUNT and FILTER modifiers.
pub fn qald_scripts() -> Vec<Script> {
    qald_style_50()
        .into_iter()
        .map(|q| Script {
            shape: Shape::Qald,
            rows: q.script.rows.clone(),
            modifiers: Modifiers {
                distinct: false,
                order_by: q.script.order_by.clone(),
                limit: q.script.limit,
                count: q.script.count,
                filters: q.script.filters.clone(),
            },
        })
        .collect()
}

/// The hot-session generator: scripts drawn uniformly at random (seeded)
/// from the QALD-style set. Independent draws keep the two clients from
/// running the same pairs of scripts side by side for the whole window, as
/// a fixed cyclic order per client would.
pub struct HotGen {
    scripts: Arc<Vec<Script>>,
    rng: StdRng,
}

impl HotGen {
    /// Stream `stream` of the workload seeded by `seed`.
    pub fn new(scripts: Arc<Vec<Script>>, seed: u64, stream: u64) -> Self {
        HotGen {
            scripts,
            rng: StdRng::seed_from_u64(mix(seed, stream)),
        }
    }

    /// The next session.
    pub fn next_script(&mut self) -> Script {
        self.scripts[self.rng.gen_range(0..self.scripts.len())].clone()
    }
}

/// One RNG seed per (workload seed, client stream).
fn mix(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
}
