//! The exact-query guard and the timing decorators.

use std::sync::Arc;

use perfbench::guard::{check_keystrokes, check_runs, completion_fingerprint, run_fingerprint};
use perfbench::sessions::{Script, Shape};
use perfbench::single::{bring_up, init_model};
use perfbench::timing::{Request, TimingEndpoint, TimingShard};
use sapphire_core::session::{Modifiers, TripleInput};
use sapphire_datagen::{generate, DatasetConfig};
use sapphire_endpoint::{Endpoint, EndpointLimits, LocalEndpoint};
use sapphire_server::ShardService;
use sapphire_sparql::{parse_query, parse_select};

fn script(rows: &[(&str, &str, &str)]) -> Script {
    Script {
        shape: Shape::Qald,
        rows: rows
            .iter()
            .map(|(s, p, o)| TripleInput::new(*s, *p, *o))
            .collect(),
        modifiers: Modifiers::default(),
    }
}

#[test]
fn guard_fires_on_a_stale_session_and_passes_a_fresh_one() {
    let d = bring_up_tiny();
    let long = script(&[
        ("?b", "author", "?w"),
        ("?w", "name", "Jack Kerouac"),
        ("?b", "publisher", "?p"),
    ]);
    let short = script(&[("?w", "name", "Jack Kerouac"), ("?w", "birth place", "?c")]);

    // A session reused across questions keeps the long script's third row.
    let id = d.server.open_session("t").unwrap();
    for (i, row) in long.rows.iter().enumerate() {
        d.server.set_row(id, i, row.clone()).unwrap();
    }
    d.server.run(id).unwrap();
    for (i, row) in short.rows.iter().enumerate() {
        d.server.set_row(id, i, row.clone()).unwrap();
    }
    let stale = d.server.run(id).unwrap();
    let got = run_fingerprint(
        stale.answers.solutions(),
        stale.executed,
        &stale.suggestions,
    );
    let verdict = check_runs(&d.pum, [(&short, got)]);
    assert_eq!(
        (verdict.checked, verdict.mismatches),
        (1, 1),
        "stale row went unnoticed"
    );

    // A fresh session with exactly the script's rows passes.
    let id = d.server.open_session("t").unwrap();
    for (i, row) in short.rows.iter().enumerate() {
        d.server.set_row(id, i, row.clone()).unwrap();
    }
    let fresh = d.server.run(id).unwrap();
    let got = run_fingerprint(
        fresh.answers.solutions(),
        fresh.executed,
        &fresh.suggestions,
    );
    let verdict = check_runs(&d.pum, [(&short, got)]);
    assert_eq!(
        (verdict.checked, verdict.mismatches),
        (1, 0),
        "{:?}",
        verdict.examples
    );
}

#[test]
fn keystroke_guard_compares_with_complete_top() {
    let d = bring_up_tiny();
    let id = d.server.open_session("t").unwrap();
    let good = d.server.complete(id, "Ker").unwrap();
    let other = d.server.complete(id, "Vik").unwrap();
    assert_ne!(good.suggestions, other.suggestions);
    let v = check_keystrokes(&d.pum, [("Ker", completion_fingerprint(&good.suggestions))]);
    assert_eq!((v.checked, v.mismatches), (1, 0));
    let v = check_keystrokes(
        &d.pum,
        [("Ker", completion_fingerprint(&other.suggestions))],
    );
    assert_eq!((v.checked, v.mismatches), (1, 1));
}

fn bring_up_tiny() -> perfbench::single::Deployment {
    let (pum, endpoint) = init_model(generate(DatasetConfig::tiny(42)));
    bring_up(pum, endpoint)
}

const QUERIES: &[&str] = &[
    r#"SELECT ?w ?c WHERE { ?w <http://dbpedia.org/ontology/name> "Jack Kerouac"@en . ?w <http://dbpedia.org/ontology/birthPlace> ?c }"#,
    "SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p",
    "SELECT ?s WHERE { ?s a <http://dbpedia.org/ontology/Person> } LIMIT 7",
    "ASK { ?s ?p ?o }",
];

#[test]
fn timing_endpoint_passes_results_through_byte_identically() {
    let local = || {
        LocalEndpoint::new(
            "dbpedia",
            generate(DatasetConfig::tiny(42)),
            EndpointLimits::warehouse(),
        )
    };
    let plain = local();
    let timed = TimingEndpoint::new(Arc::new(local()));
    for q in QUERIES {
        let want = format!("{:?}", plain.execute(q));
        assert_eq!(want, format!("{:?}", timed.execute(q)), "untraced {q}");
        let req = Request::begin();
        let got = format!("{:?}", timed.execute_parsed(&parse_query(q).unwrap()));
        let (span, child) = req.finish();
        assert_eq!(want, got, "traced {q}");
        assert!(child > 0 && child <= span);
    }
    // Only the traced calls were timed.
    assert_eq!(timed.take_spans().len(), QUERIES.len());
    assert_eq!(timed.name(), plain.name());
}

#[test]
fn timing_shard_passes_results_through_byte_identically() {
    let d = bring_up_tiny();
    let shard = TimingShard::new(d.server.clone() as Arc<dyn ShardService>);
    shard.record(true);
    let direct = d.server.clone() as Arc<dyn ShardService>;
    for typed in ["Ker", "Viking", "birth"] {
        assert_eq!(
            format!(
                "{:?}",
                direct.complete_top("t", typed, 10).map(|r| r.suggestions)
            ),
            format!(
                "{:?}",
                shard.complete_top("t", typed, 10).map(|r| r.suggestions)
            ),
        );
    }
    let q = parse_select(QUERIES[0]).unwrap();
    let want = direct.run_select_tiered("t", &q, 0, None).unwrap();
    let got = shard.run_select_tiered("t", &q, 0, None).unwrap();
    assert_eq!(
        run_fingerprint(&want.answers, want.executed, &want.suggestions),
        run_fingerprint(&got.answers, got.executed, &got.suggestions)
    );
    let raw = parse_query(QUERIES[2]).unwrap();
    assert_eq!(
        format!("{:?}", direct.execute_raw("t", &raw)),
        format!("{:?}", shard.execute_raw("t", &raw))
    );
    assert_eq!(
        (shard.shard_name(), shard.top_k()),
        (direct.shard_name(), direct.top_k())
    );
    assert_eq!(shard.calls(), 5);
    assert_eq!(shard.take_spans().len(), 5);
}
