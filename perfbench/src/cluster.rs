//! The `cluster_wire` workload: the cold session mix through a two-shard
//! cluster whose edge reaches every replica over a loopback socket.
//!
//! The dataset is split by `Partitioner::new(2)` into one replica per
//! shard. Each replica sits behind an in-process `WireServer`; the edge is a
//! `ClusterRouter` over one pipelined `WireClient` per replica, each
//! wrapped in a [`TimingShard`]. Sessions live at the edge: a script's
//! query is built against the shard models (the first shard whose cache
//! resolves every keyword), and `ClusterRouter::complete` and
//! `ClusterRouter::run` carry the traffic. Sampled replies are checked
//! against an in-process router over the same replicas.
//!
//! A single Run can take far longer than the window (see `README.md`,
//! "Known stragglers"). The window therefore ends on time: a request still
//! in flight after a grace period is reported as a straggler with its
//! elapsed time, and the caller exits without waiting for it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sapphire_cluster::{Cluster, ClusterConfig, ClusterMetrics, ClusterRouter};
use sapphire_core::session::Session;
use sapphire_core::PredictiveUserModel;
use sapphire_datagen::{generate, DatasetConfig};
use sapphire_rdf::Partitioner;
use sapphire_server::{ServerConfig, ShardService};
use sapphire_sparql::SelectQuery;
use sapphire_text::Lexicon;
use sapphire_wire::{WireClient, WireClientConfig, WireServer, WireServerConfig};

use crate::report::{json_num, json_str, Metric, Outcome};
use crate::sessions::{ColdGen, Script, Universe};
use crate::single::model_config;
use crate::stats::ratio;
use crate::timing::TimingShard;

/// Closed-loop clients.
const CLIENTS: u64 = 2;
/// Shards, one replica each.
const SHARDS: usize = 2;
/// How long after the window in-flight requests may still finish.
const GRACE: Duration = Duration::from_secs(20);
/// A Run slower than this is listed as a straggler.
const STRAGGLER: Duration = Duration::from_secs(1);
/// Guard: check every n-th Run and keystroke against the in-process edge.
const RUN_EVERY: u64 = 8;
const KEYSTROKE_EVERY: u64 = 64;

/// Build the query of `script` against the shard models: the first shard
/// whose cache resolves every keyword builds it.
pub fn build_query(models: &[Arc<PredictiveUserModel>], script: &Script) -> Option<SelectQuery> {
    models.iter().find_map(|m| {
        Session::resume(m, script.rows.clone(), script.modifiers.clone(), 0)
            .build_query()
            .ok()
    })
}

#[derive(Default)]
struct Rec {
    keystrokes: Vec<u64>,
    runs: Vec<u64>,
    sessions: u64,
    attempted: u64,
    errors: u64,
    checked: u64,
    mismatches: u64,
    stragglers: Vec<(f64, String)>,
}

impl Rec {
    fn merge(&mut self, o: Rec) {
        self.keystrokes.extend(o.keystrokes);
        self.runs.extend(o.runs);
        self.sessions += o.sessions;
        self.attempted += o.attempted;
        self.errors += o.errors;
        self.checked += o.checked;
        self.mismatches += o.mismatches;
        self.stragglers.extend(o.stragglers);
    }
}

struct Shared {
    router: ClusterRouter,
    oracle: ClusterRouter,
    models: Vec<Arc<PredictiveUserModel>>,
    universe: Arc<Universe>,
    /// What each client is waiting on, and since when.
    in_flight: Vec<Mutex<Option<(Instant, String)>>>,
    done: Mutex<Vec<Rec>>,
    finished: AtomicU64,
}

fn client(shared: Arc<Shared>, seed: u64, c: u64, until: Instant) {
    let mut gen = ColdGen::new(shared.universe.clone(), seed, c);
    let mut rec = Rec::default();
    let (mut keystroke_n, mut run_n) = (0u64, 0u64);
    let mark = |what: Option<String>| {
        *shared.in_flight[c as usize].lock().expect("in-flight lock") =
            what.map(|w| (Instant::now(), w));
    };
    while Instant::now() < until {
        let script = gen.next_script();
        for row in 0..script.rows.len() {
            for typed in script.keystrokes(row) {
                rec.attempted += 1;
                let t = Instant::now();
                match shared.router.complete("bench", &typed) {
                    Ok(r) => {
                        rec.keystrokes.push(t.elapsed().as_nanos() as u64);
                        keystroke_n += 1;
                        if keystroke_n.is_multiple_of(KEYSTROKE_EVERY) {
                            rec.checked += 1;
                            let same = shared
                                .oracle
                                .complete("bench", &typed)
                                .is_ok_and(|o| o.suggestions == r.suggestions);
                            rec.mismatches += u64::from(!same);
                        }
                    }
                    Err(e) => {
                        rec.errors += 1;
                        eprintln!("perfbench: complete {typed:?}: {e}");
                    }
                }
            }
        }
        rec.attempted += 1;
        let Some(query) = build_query(&shared.models, &script) else {
            rec.errors += 1;
            eprintln!("perfbench: no shard builds {}", script.describe());
            continue;
        };
        mark(Some(script.describe()));
        let t = Instant::now();
        let reply = shared.router.run("bench", &query);
        let took = t.elapsed();
        mark(None);
        if took >= STRAGGLER {
            eprintln!(
                "perfbench: straggler {:.3} s: {}",
                took.as_secs_f64(),
                script.describe()
            );
            rec.stragglers.push((took.as_secs_f64(), script.describe()));
        }
        match reply {
            Ok(r) => {
                rec.runs.push(took.as_nanos() as u64);
                run_n += 1;
                if run_n.is_multiple_of(RUN_EVERY) {
                    rec.checked += 1;
                    let same = shared
                        .oracle
                        .run("bench", &query)
                        .is_ok_and(|o| format!("{:?}", o.payload) == format!("{:?}", r.payload));
                    rec.mismatches += u64::from(!same);
                }
            }
            Err(e) => {
                rec.errors += 1;
                eprintln!("perfbench: run {}: {e}", script.describe());
            }
        }
        rec.sessions += 1;
    }
    shared.done.lock().expect("results lock").push(rec);
    shared.finished.fetch_add(1, Ordering::SeqCst);
}

/// Run the workload. The second value is true when a client was still
/// stuck in a request at the end of the grace period: the caller must
/// exit the process rather than wait for it.
pub fn run(seed: u64, seconds: u64, trace: bool) -> (Outcome, bool) {
    let clock = Instant::now();
    let graph = generate(DatasetConfig::medium(42));
    let generate_s = clock.elapsed().as_secs_f64();
    let universe = Arc::new(Universe::from_graph(&graph));
    let clock = Instant::now();
    let partition = Partitioner::new(SHARDS).split(&graph);
    drop(graph);
    let partition_s = clock.elapsed().as_secs_f64();
    let clock = Instant::now();
    let cluster = Cluster::build_from_shards(
        "edge",
        partition.shards,
        partition.schema_triples,
        partition.data_triples,
        1,
        &Lexicon::dbpedia_default(),
        &model_config(),
        &ServerConfig::default(),
    )
    .expect("shard initialization over a generated dataset succeeds");
    let init_s = clock.elapsed().as_secs_f64();
    let clock = Instant::now();
    let mut hosts = Vec::new();
    let mut shards: Vec<Arc<TimingShard>> = Vec::new();
    for replicas in cluster.shards() {
        let host = WireServer::serve(
            replicas[0].clone() as Arc<dyn ShardService>,
            "127.0.0.1:0",
            WireServerConfig::default(),
        )
        .expect("bind a loopback wire server");
        let client = WireClient::connect(
            host.local_addr(),
            WireClientConfig {
                max_pool: 1,
                ..WireClientConfig::default()
            },
        )
        .expect("handshake with a loopback replica");
        shards.push(Arc::new(TimingShard::new(Arc::new(client))));
        hosts.push(host);
    }
    let router = ClusterRouter::over(
        shards
            .iter()
            .map(|s| vec![s.clone() as Arc<dyn ShardService>])
            .collect(),
        ClusterConfig::default(),
    );
    let bringup_s = clock.elapsed().as_secs_f64();
    let shared = Arc::new(Shared {
        router,
        oracle: ClusterRouter::new(
            Cluster::from_replicas(cluster.shards().to_vec()),
            ClusterConfig::default(),
        ),
        models: cluster
            .shards()
            .iter()
            .map(|r| r[0].model().clone())
            .collect(),
        universe,
        in_flight: (0..CLIENTS).map(|_| Mutex::new(None)).collect(),
        done: Mutex::new(Vec::new()),
        finished: AtomicU64::new(0),
    });

    for s in &shards {
        s.record(trace);
    }
    let before = shared.router.metrics();
    let start = Instant::now();
    let until = start + Duration::from_secs(seconds);
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let shared = shared.clone();
            std::thread::spawn(move || client(shared, seed, c, until))
        })
        .collect();
    while shared.finished.load(Ordering::SeqCst) < CLIENTS && Instant::now() < until + GRACE {
        std::thread::sleep(Duration::from_millis(20));
    }
    let end = Instant::now();
    let stuck = shared.finished.load(Ordering::SeqCst) < CLIENTS;
    let mut rec = Rec::default();
    for r in shared.done.lock().expect("results lock").drain(..) {
        rec.merge(r);
    }
    for slot in &shared.in_flight {
        if let Some((since, what)) = &*slot.lock().expect("in-flight lock") {
            let secs = end.duration_since(*since).as_secs_f64();
            eprintln!("perfbench: straggler still running after {secs:.1} s: {what}");
            rec.stragglers.push((secs, format!("(unfinished) {what}")));
            rec.attempted += 1;
            rec.errors += 1;
        }
    }
    if !stuck {
        for h in handles {
            h.join().expect("client thread panicked");
        }
        for h in hosts {
            h.shutdown();
        }
    }
    let after = shared.router.metrics();
    let window_s = end.duration_since(start).as_secs_f64();
    let outcome = report(
        &mut rec,
        window_s,
        trace,
        &shards,
        (&before, &after),
        [generate_s, partition_s, init_s, bringup_s],
    );
    (outcome, stuck)
}

fn report(
    rec: &mut Rec,
    window_s: f64,
    trace: bool,
    shards: &[Arc<TimingShard>],
    (before, after): (&ClusterMetrics, &ClusterMetrics),
    [generate_s, partition_s, init_s, bringup_s]: [f64; 4],
) -> Outcome {
    let failed = rec.errors + rec.mismatches;
    let setup_s = generate_s + partition_s + init_s + bringup_s;
    let mut stragglers = std::mem::take(&mut rec.stragglers);
    stragglers.sort_by(|a, b| b.0.total_cmp(&a.0));
    let notes = vec![
        ("window_s".to_string(), json_num(window_s)),
        ("guard_checked".to_string(), rec.checked.to_string()),
        ("guard_mismatches".to_string(), rec.mismatches.to_string()),
        ("errors".to_string(), rec.errors.to_string()),
        (
            "stragglers".to_string(),
            format!(
                "[{}]",
                stragglers
                    .iter()
                    .map(|(s, what)| format!(
                        "{{\"seconds\": {}, \"session\": {}}}",
                        json_num(*s),
                        json_str(what)
                    ))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    let extra = vec![Metric::over(
        "error_rate",
        ratio(failed as f64, rec.attempted as f64),
        "ratio",
        rec.attempted as usize,
    )];
    let metrics = if !trace {
        rec.keystrokes.sort_unstable();
        rec.runs.sort_unstable();
        vec![
            Metric::over(
                "sessions_per_s",
                rec.sessions as f64 / window_s,
                "1/s",
                rec.sessions as usize,
            ),
            Metric::percentile("keystroke_p50_us", &rec.keystrokes, 50.0, "us", 1e3),
            Metric::percentile("keystroke_p99_us", &rec.keystrokes, 99.0, "us", 1e3),
            Metric::percentile("run_p50_ms", &rec.runs, 50.0, "ms", 1e6),
            Metric::percentile("run_p99_ms", &rec.runs, 99.0, "ms", 1e6),
            Metric::over("setup_s", setup_s, "s", 1),
            Metric::value("rss_peak_mb", crate::host::rss_peak_mb(), "MiB"),
        ]
    } else {
        let mut wire: Vec<u64> = shards.iter().flat_map(|s| s.take_spans()).collect();
        wire.sort_unstable();
        let calls: u64 = shards.iter().map(|s| s.calls()).sum();
        let requests = (rec.keystrokes.len() + rec.runs.len()) as f64;
        let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
        let fanout = d(
            after.fanout_per_shard.iter().sum(),
            before.fanout_per_shard.iter().sum(),
        );
        let hits = d(
            after.completion_cache.hits + after.run_cache.hits,
            before.completion_cache.hits + before.run_cache.hits,
        );
        let misses = d(
            after.completion_cache.misses + after.run_cache.misses,
            before.completion_cache.misses + before.run_cache.misses,
        );
        vec![
            Metric::over(
                "cluster.fanout_per_request",
                ratio(fanout, requests),
                "count",
                requests as usize,
            ),
            Metric::over(
                "cluster.edge_hit_ratio",
                ratio(hits, hits + misses),
                "ratio",
                (hits + misses) as usize,
            ),
            Metric::value(
                "cluster.retries",
                d(after.replica_retries, before.replica_retries),
                "count",
            ),
            Metric::percentile("wire.call_us_p50", &wire, 50.0, "us", 1e3),
            Metric::percentile("wire.call_us_p99", &wire, 99.0, "us", 1e3),
            Metric::over(
                "wire.calls_per_request",
                ratio(calls as f64, requests),
                "count",
                requests as usize,
            ),
            Metric::value(
                "wire.reconnects",
                d(after.wire_reconnects, before.wire_reconnects),
                "count",
            ),
            Metric::value("setup.generate_s", generate_s, "s"),
            Metric::value("setup.partition_s", partition_s, "s"),
            Metric::value("setup.init_s", init_s, "s"),
            Metric::value("setup.bringup_s", bringup_s, "s"),
        ]
    };
    Outcome {
        metrics,
        extra,
        attempted: rec.attempted,
        failed,
        notes,
    }
}
