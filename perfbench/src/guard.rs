//! The exact-query guard: sampled replies must equal what the model itself
//! answers for exactly the script the user typed.
//!
//! A Run reply is compared, as a rendered fingerprint, with
//! [`PredictiveUserModel::run`] on the query a fresh core [`Session`] builds
//! from the script's rows and modifiers and nothing else. A server session
//! that still carried a row from an earlier question would build a
//! different query, so its reply would not match. A keystroke reply is
//! compared with [`PredictiveUserModel::complete_top`].

use std::collections::HashMap;
use std::fmt::Write as _;

use sapphire_core::qcm::Completion;
use sapphire_core::qsm::QsmOutput;
use sapphire_core::session::Session;
use sapphire_core::PredictiveUserModel;
use sapphire_sparql::Solutions;

use crate::sessions::Script;

/// A byte-exact rendering of everything a Run reply shows the user except
/// the wall-clock `elapsed` field: the answers, whether the query executed,
/// and every suggestion with its prefetched answers.
pub fn run_fingerprint(answers: &Solutions, executed: bool, qsm: &QsmOutput) -> String {
    let mut out = String::new();
    write!(
        out,
        "{answers:?}|{executed}|{:?}|{:?}|{:?}|{}|{}",
        qsm.alternatives, qsm.relaxations, qsm.candidates, qsm.tier, qsm.degraded
    )
    .expect("writing to a String cannot fail");
    out
}

/// A byte-exact rendering of a completion list.
pub fn completion_fingerprint(suggestions: &[Completion]) -> String {
    format!("{suggestions:?}")
}

/// The key a script is verified under: its rows and modifiers, exactly.
fn script_key(script: &Script) -> String {
    format!("{:?}|{:?}", script.rows, script.modifiers)
}

/// The model's own Run fingerprint for `script`, built by a fresh session.
fn expected_run(pum: &PredictiveUserModel, script: &Script) -> Result<String, String> {
    let query = Session::resume(pum, script.rows.clone(), script.modifiers.clone(), 0)
        .build_query()
        .map_err(|e| format!("script does not build: {e}"))?;
    let outcome = pum.run(&query);
    Ok(run_fingerprint(
        &outcome.answers,
        outcome.executed,
        &outcome.suggestions,
    ))
}

/// Verdicts of one guard pass.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Samples compared.
    pub checked: u64,
    /// Samples that differed from the model's own answer.
    pub mismatches: u64,
    /// A description of the first few mismatches.
    pub examples: Vec<String>,
}

impl Verdict {
    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        if self.examples.len() < 5 {
            self.examples.push(what);
        }
    }

    /// Fold another verdict into this one.
    pub fn merge(&mut self, other: Verdict) {
        self.checked += other.checked;
        self.mismatches += other.mismatches;
        for e in other.examples {
            if self.examples.len() < 5 {
                self.examples.push(e);
            }
        }
    }
}

/// Check sampled Run replies `(script, reply fingerprint)` against `pum`.
/// Each distinct script is run through the model once.
pub fn check_runs<'a>(
    pum: &PredictiveUserModel,
    samples: impl IntoIterator<Item = (&'a Script, String)>,
) -> Verdict {
    let mut verdict = Verdict::default();
    let mut expected: HashMap<String, Result<String, String>> = HashMap::new();
    for (script, got) in samples {
        verdict.checked += 1;
        let want = expected
            .entry(script_key(script))
            .or_insert_with(|| expected_run(pum, script));
        match want {
            Ok(want) if *want == got => {}
            Ok(_) => verdict.mismatch(format!("run differs: {}", script.describe())),
            Err(e) => verdict.mismatch(format!("{e}: {}", script.describe())),
        }
    }
    verdict
}

/// Check sampled keystroke replies `(typed prefix, reply fingerprint)`
/// against `pum.complete_top` at the model's `k`.
pub fn check_keystrokes<'a>(
    pum: &PredictiveUserModel,
    samples: impl IntoIterator<Item = (&'a str, String)>,
) -> Verdict {
    let mut verdict = Verdict::default();
    let mut expected: HashMap<&str, String> = HashMap::new();
    let k = pum.config().k;
    for (typed, got) in samples {
        verdict.checked += 1;
        let want = expected
            .entry(typed)
            .or_insert_with(|| completion_fingerprint(&pum.complete_top(typed, k).suggestions));
        if *want != got {
            verdict.mismatch(format!("completion differs for {typed:?}"));
        }
    }
    verdict
}
