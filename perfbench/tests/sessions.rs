//! The session generators are deterministic per seed and hold their mix.

use std::sync::Arc;

use perfbench::sessions::{qald_scripts, ColdGen, HotGen, Shape, Universe, COLD_MIX};
use sapphire_datagen::{generate, DatasetConfig};

fn universe() -> Arc<Universe> {
    Arc::new(Universe::from_graph(&generate(DatasetConfig::tiny(42))))
}

fn draw(gen: &mut ColdGen, n: usize) -> Vec<String> {
    (0..n).map(|_| format!("{:?}", gen.next_script())).collect()
}

#[test]
fn cold_stream_is_a_function_of_seed_and_stream() {
    let u = universe();
    let a = draw(&mut ColdGen::new(u.clone(), 7, 0), 300);
    assert_eq!(a, draw(&mut ColdGen::new(u.clone(), 7, 0), 300));
    assert_ne!(a, draw(&mut ColdGen::new(u.clone(), 8, 0), 300));
    assert_ne!(a, draw(&mut ColdGen::new(u, 7, 1), 300));
}

#[test]
fn universe_is_the_same_for_the_same_dataset() {
    let (a, b) = (universe(), universe());
    assert_eq!(a.facts, b.facts);
    assert_eq!(a.edges, b.edges);
    assert!(!a.facts.is_empty() && !a.edges.is_empty());
}

#[test]
fn cold_mix_shares_hold() {
    // Every deck of ten sessions holds each shape exactly its share.
    let mut gen = ColdGen::new(universe(), 3, 0);
    for _ in 0..200 {
        let mut counts = [0u32; 3];
        for _ in 0..10 {
            let s = gen.next_script();
            let i = COLD_MIX
                .iter()
                .position(|(shape, _)| *shape == s.shape)
                .unwrap();
            counts[i] += 1;
        }
        for ((shape, share), count) in COLD_MIX.iter().zip(counts) {
            assert_eq!(count * 10, *share, "{shape:?} in a deck of ten");
        }
    }
}

#[test]
fn cold_shapes_are_what_they_claim() {
    let u = universe();
    let mut gen = ColdGen::new(u.clone(), 5, 0);
    for _ in 0..500 {
        let s = gen.next_script();
        assert_eq!(s.rows.len(), 2);
        assert_eq!(
            (s.rows[0].subject.as_str(), s.rows[0].predicate.as_str()),
            ("?e", "name")
        );
        let name = &s.rows[0].object;
        match s.shape {
            Shape::Factoid => {
                assert_eq!(s.rows[1].object, "?o");
                assert!(u
                    .facts
                    .iter()
                    .any(|(a, p)| a == name && *p == s.rows[1].predicate));
            }
            Shape::Misspelled => {
                assert_eq!(s.rows[1].object, "?o");
                assert!(!name.is_empty());
            }
            Shape::Flattened => {
                assert!(!s.rows[1].object.starts_with('?'));
                assert!(u.edges.iter().any(|(a, p, b)| a == name
                    && *p == s.rows[1].predicate
                    && *b == s.rows[1].object));
            }
            Shape::Qald => panic!("cold stream produced a QALD script"),
        }
    }
}

#[test]
fn keystrokes_type_every_prefix_of_keywords_only() {
    let mut gen = ColdGen::new(universe(), 9, 0);
    let s = loop {
        let s = gen.next_script();
        if s.shape == Shape::Factoid {
            break s;
        }
    };
    let row0 = s.keystrokes(0);
    let name = &s.rows[0].object;
    assert_eq!(row0.len(), 4 + name.chars().count());
    assert_eq!(&row0[..4], ["n", "na", "nam", "name"]);
    assert_eq!(row0.last().unwrap(), name);
    // Row 1's object is the variable ?o: only the predicate is typed.
    let row1 = s.keystrokes(1);
    assert_eq!(row1.len(), s.rows[1].predicate.chars().count());
}

#[test]
fn hot_stream_is_seeded_and_covers_every_script() {
    let scripts = Arc::new(qald_scripts());
    assert_eq!(scripts.len(), 50);
    let take = |seed, stream| {
        let mut g = HotGen::new(scripts.clone(), seed, stream);
        (0..5_000)
            .map(|_| format!("{:?}", g.next_script()))
            .collect::<Vec<_>>()
    };
    let a = take(1, 0);
    assert_eq!(a, take(1, 0));
    assert_ne!(a, take(2, 0));
    assert_ne!(a, take(1, 1));
    // Uniform draws: every script shows up, none far from 1/50.
    let mut counts = std::collections::HashMap::new();
    for s in &a {
        *counts.entry(s).or_insert(0usize) += 1;
    }
    assert_eq!(counts.len(), 50);
    assert!(
        counts.values().all(|&n| (50..=150).contains(&n)),
        "{:?}",
        counts.values()
    );
}
