//! The single-box workloads: closed-loop users against one
//! [`SapphireServer`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sapphire_core::qcm::Completion;
use sapphire_core::qsm::QsmOutput;
use sapphire_core::{InitMode, PredictiveUserModel, SapphireConfig};
use sapphire_endpoint::{Endpoint, EndpointLimits, LocalEndpoint};
use sapphire_rdf::Graph;
use sapphire_server::{RunOutput, SapphireServer, ServerConfig};
use sapphire_text::Lexicon;

use crate::guard::{completion_fingerprint, run_fingerprint};
use crate::sessions::Script;
use crate::timing::{Request, TimingEndpoint};

/// The model configuration of every workload: the experiments' constants
/// (paper values, residual scans on as many workers as cores, at most 8)
/// with a 1,000-string suffix tree, the ratio that mirrors the paper's
/// 40K-string tree over 21M residual literals. With the default 40,000 every
/// `medium` literal fits in the tree and the residual-bin scan never runs.
pub fn model_config() -> SapphireConfig {
    SapphireConfig {
        processes: crate::host::nproc().min(8),
        suffix_tree_capacity: 1_000,
        ..SapphireConfig::default()
    }
}

/// A served model and the handles the benchmark measures it through.
pub struct Deployment {
    /// The server the users talk to.
    pub server: Arc<SapphireServer>,
    /// Its model (the guard's oracle).
    pub pum: Arc<PredictiveUserModel>,
    /// The timing seam between the model and its SPARQL endpoint.
    pub endpoint: Arc<TimingEndpoint>,
}

/// Initialize a model over `graph` behind a timing endpoint: returns the
/// model and its endpoint handle.
pub fn init_model(graph: Graph) -> (Arc<PredictiveUserModel>, Arc<TimingEndpoint>) {
    let local = Arc::new(LocalEndpoint::new(
        "dbpedia",
        graph,
        EndpointLimits::warehouse(),
    ));
    let endpoint = Arc::new(TimingEndpoint::new(local));
    let pum = PredictiveUserModel::initialize(
        vec![endpoint.clone() as Arc<dyn Endpoint>],
        Lexicon::dbpedia_default(),
        model_config(),
        InitMode::Federated,
    )
    .expect("model initialization over a generated dataset succeeds");
    (Arc::new(pum), endpoint)
}

/// Stand a default-configured server up over a model.
pub fn bring_up(pum: Arc<PredictiveUserModel>, endpoint: Arc<TimingEndpoint>) -> Deployment {
    Deployment {
        server: Arc::new(SapphireServer::new(pum.clone(), ServerConfig::default())),
        pum,
        endpoint,
    }
}

/// What one user request was, in the order the model saw requests; the
/// traced run replays these against a fresh model.
#[derive(Debug, Clone)]
pub enum Event {
    /// A keystroke completion for the typed prefix.
    Complete { seq: u64, typed: String },
    /// A Run of the script, with the suggestions the server returned.
    Run {
        seq: u64,
        script: Script,
        suggestions: Arc<QsmOutput>,
    },
}

impl Event {
    /// Global order of the request.
    pub fn seq(&self) -> u64 {
        match self {
            Event::Complete { seq, .. } | Event::Run { seq, .. } => *seq,
        }
    }
}

/// A traced request's span as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Global request order (joins replayed child spans).
    pub seq: u64,
    /// True for a Run, false for a keystroke.
    pub run: bool,
    /// Whole request, ns.
    pub span_ns: u64,
    /// Time covered by live child spans (endpoint queries), ns.
    pub child_ns: u64,
    /// False for requests made while warming up.
    pub measured: bool,
}

/// Sub-window length: measured samples are grouped by the sub-window their
/// request started in, so that metrics can be taken per sub-window and a
/// burst of host noise moves one sub-window, not the whole run.
pub const SUB_WINDOW: Duration = Duration::from_secs(1);

/// How a phase of the run records what it does.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Start of the measured window (sub-window 0).
    pub origin: Instant,
    /// Keep latency samples and counts (false while warming up).
    pub measure: bool,
    /// Record replay events and, on traced slices, spans.
    pub trace: bool,
    /// Sample every n-th keystroke for the guard (0 = never).
    pub keystroke_every: u64,
    /// Sample every n-th Run for the guard (0 = never).
    pub run_every: u64,
}

impl Mode {
    /// The sub-window `at` falls in.
    pub fn sub_window(&self, at: Instant) -> u32 {
        (at.saturating_duration_since(self.origin).as_nanos() / SUB_WINDOW.as_nanos()) as u32
    }
}

/// Everything one client recorded.
#[derive(Default)]
pub struct ClientRec {
    /// Keystroke latencies: (sub-window of the request's start, ns).
    pub keystrokes: Vec<(u32, u64)>,
    /// Run latencies: (sub-window of the request's start, ns).
    pub runs: Vec<(u32, u64)>,
    /// Sessions completed (all keystrokes plus the Run).
    pub sessions: u64,
    /// Sessions completed per sub-window of the measured window.
    pub sessions_by_window: Vec<u64>,
    /// Keystrokes and Runs attempted, warm-up included.
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub errors: u64,
    /// First few error texts.
    pub error_examples: Vec<String>,
    /// Guard samples: typed prefix and reply.
    pub keystroke_samples: Vec<(String, Vec<Completion>)>,
    /// Guard samples: script and reply.
    pub run_samples: Vec<(Script, RunOutput)>,
    /// Replay events (traced run only).
    pub events: Vec<Event>,
    /// Request spans (traced run only).
    pub spans: Vec<Span>,
    /// Sessions started on traced / untraced slices (traced run only).
    pub sessions_by_slice: [u64; 2],
    keystroke_count: u64,
    run_count: u64,
}

impl ClientRec {
    fn error(&mut self, what: String) {
        self.errors += 1;
        if self.error_examples.len() < 5 {
            self.error_examples.push(what);
        }
    }

    /// Fold another client's record into this one.
    pub fn merge(&mut self, other: ClientRec) {
        self.keystrokes.extend(other.keystrokes);
        self.runs.extend(other.runs);
        self.sessions += other.sessions;
        if self.sessions_by_window.len() < other.sessions_by_window.len() {
            self.sessions_by_window
                .resize(other.sessions_by_window.len(), 0);
        }
        for (mine, theirs) in self
            .sessions_by_window
            .iter_mut()
            .zip(&other.sessions_by_window)
        {
            *mine += theirs;
        }
        self.attempted += other.attempted;
        self.errors += other.errors;
        for e in other.error_examples {
            if self.error_examples.len() < 5 {
                self.error_examples.push(e);
            }
        }
        self.keystroke_samples.extend(other.keystroke_samples);
        self.run_samples.extend(other.run_samples);
        self.events.extend(other.events);
        self.spans.extend(other.spans);
        for i in 0..2 {
            self.sessions_by_slice[i] += other.sessions_by_slice[i];
        }
    }
}

/// Guard samples kept per client and kind, so the memory they hold stays
/// bounded whatever the throughput.
pub const MAX_SAMPLES: usize = 256;

/// Global request order across clients (traced run).
pub static SEQ: AtomicU64 = AtomicU64::new(0);

/// Time one request: traced as a span with its children, or plainly.
fn time_request<T>(traced: bool, f: impl FnOnce() -> T) -> (T, u64, u64) {
    if traced {
        let req = Request::begin();
        let out = f();
        let (span, child) = req.finish();
        (out, span, child)
    } else {
        let started = Instant::now();
        let out = f();
        (out, started.elapsed().as_nanos() as u64, 0)
    }
}

/// One user session on a fresh server session: type every keyword prefix,
/// set exactly the script's rows and modifiers, click Run, close.
/// `traced` spans the requests (traced run, traced slice).
pub fn session(
    server: &SapphireServer,
    script: &Script,
    mode: Mode,
    traced: bool,
    rec: &mut ClientRec,
) {
    let id = match server.open_session("bench") {
        Ok(id) => id,
        Err(e) => {
            rec.attempted += 1;
            rec.error(format!("open_session: {e}"));
            return;
        }
    };
    let seq = || {
        if mode.trace {
            SEQ.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    };
    for (i, row) in script.rows.iter().enumerate() {
        for typed in script.keystrokes(i) {
            let s = seq();
            let at = mode.sub_window(Instant::now());
            let (reply, span, child) = time_request(traced, || server.complete(id, &typed));
            rec.attempted += 1;
            match reply {
                Ok(r) => {
                    if mode.measure {
                        rec.keystrokes.push((at, span));
                        rec.keystroke_count += 1;
                        if mode.keystroke_every > 0
                            && rec.keystroke_count.is_multiple_of(mode.keystroke_every)
                            && rec.keystroke_samples.len() < MAX_SAMPLES
                        {
                            rec.keystroke_samples.push((typed.clone(), r.suggestions));
                        }
                    }
                }
                Err(e) => rec.error(format!("complete {typed:?}: {e}")),
            }
            if mode.trace {
                if traced {
                    rec.spans.push(Span {
                        seq: s,
                        run: false,
                        span_ns: span,
                        child_ns: child,
                        measured: mode.measure,
                    });
                }
                rec.events.push(Event::Complete { seq: s, typed });
            }
        }
        if let Err(e) = server.set_row(id, i, row.clone()) {
            rec.error(format!("set_row: {e}"));
        }
    }
    if let Err(e) = server.set_modifiers(id, script.modifiers.clone()) {
        rec.error(format!("set_modifiers: {e}"));
    }
    let s = seq();
    let at = mode.sub_window(Instant::now());
    let (reply, span, child) = time_request(traced, || server.run(id));
    rec.attempted += 1;
    match reply {
        Ok(out) => {
            if mode.trace {
                if traced {
                    rec.spans.push(Span {
                        seq: s,
                        run: true,
                        span_ns: span,
                        child_ns: child,
                        measured: mode.measure,
                    });
                }
                rec.events.push(Event::Run {
                    seq: s,
                    script: script.clone(),
                    suggestions: out.suggestions.clone(),
                });
            }
            if mode.measure {
                rec.runs.push((at, span));
                rec.run_count += 1;
                if mode.run_every > 0
                    && rec.run_count.is_multiple_of(mode.run_every)
                    && rec.run_samples.len() < MAX_SAMPLES
                {
                    rec.run_samples.push((script.clone(), out));
                }
            }
        }
        Err(e) => rec.error(format!("run {}: {e}", script.describe())),
    }
    server.close_session(id);
    if mode.measure {
        rec.sessions += 1;
        let w = mode.sub_window(Instant::now()) as usize;
        if rec.sessions_by_window.len() <= w {
            rec.sessions_by_window.resize(w + 1, 0);
        }
        rec.sessions_by_window[w] += 1;
    }
}

/// Guard fingerprints of a record's keystroke samples, rendered lazily.
pub fn keystroke_fingerprints(rec: &ClientRec) -> impl Iterator<Item = (&str, String)> {
    rec.keystroke_samples
        .iter()
        .map(|(typed, s)| (typed.as_str(), completion_fingerprint(s)))
}

/// Guard fingerprints of a record's Run samples, rendered lazily.
pub fn run_fingerprints(rec: &ClientRec) -> impl Iterator<Item = (&Script, String)> {
    rec.run_samples.iter().map(|(script, out)| {
        (
            script,
            run_fingerprint(out.answers.solutions(), out.executed, &out.suggestions),
        )
    })
}

/// Alternating traced and untraced slices of the traced run's measured
/// window, so both halves see the same cache state and machine noise.
#[derive(Debug, Clone, Copy)]
pub struct Slices {
    /// Window start.
    pub start: Instant,
    /// Slice length.
    pub slice: Duration,
    /// False for an untraced run: no slice is traced.
    pub enabled: bool,
}

impl Slices {
    /// True if a session starting at `at` is traced.
    pub fn traced(&self, at: Instant) -> bool {
        self.enabled && (at.duration_since(self.start).as_nanos() / self.slice.as_nanos()) % 2 == 1
    }

    /// Seconds spent on `[untraced, traced]` slices between `start` and `end`.
    pub fn split(&self, end: Instant) -> [f64; 2] {
        let total = end.duration_since(self.start).as_secs_f64();
        let slice = self.slice.as_secs_f64();
        let full = (total / slice).floor();
        let rest = total - full * slice;
        let pairs = (full / 2.0).floor();
        let mut out = [pairs * slice, pairs * slice];
        if full as u64 % 2 == 1 {
            out[0] += slice;
            out[1] += rest;
        } else {
            out[0] += rest;
        }
        out
    }
}

/// Drive the measured window: closed-loop users until `until`, each taking
/// scripts from its own generator and running them back to back.
pub fn drive<G: FnMut() -> Script + Send>(
    server: &SapphireServer,
    gens: Vec<G>,
    until: Instant,
    mode: Mode,
    slices: Slices,
) -> ClientRec {
    let recs: Vec<ClientRec> = std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .into_iter()
            .map(|mut next| {
                scope.spawn(move || {
                    let mut rec = ClientRec::default();
                    loop {
                        let now = Instant::now();
                        if now >= until {
                            break;
                        }
                        let traced = mode.trace && slices.traced(now);
                        let script = next();
                        let before = rec.sessions;
                        session(server, &script, mode, traced, &mut rec);
                        if mode.measure && rec.sessions > before {
                            rec.sessions_by_slice[usize::from(traced)] += 1;
                        }
                    }
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = ClientRec::default();
    for r in recs {
        all.merge(r);
    }
    all
}
