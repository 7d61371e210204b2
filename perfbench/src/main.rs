//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for one measured window and prints every metric as a
//! text line, a `REPORT` line with the run's metadata, and, last, the
//! one-line JSON result. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones. See `README.md`.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use perfbench::guard::{check_keystrokes, check_runs, Verdict};
use perfbench::host;
use perfbench::replay::replay;
use perfbench::report::{detailed_json, json_num, json_str, metrics_json, Metric, Outcome};
use perfbench::sessions::{qald_scripts, ColdGen, HotGen, Universe};
use perfbench::single::{
    bring_up, drive, init_model, keystroke_fingerprints, run_fingerprints, session, ClientRec,
    Deployment, Mode, Slices, SUB_WINDOW,
};
use perfbench::stats::{blocked_percentile, median, ratio};
use sapphire_datagen::{generate, DatasetConfig};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 2;
/// Dataset seed (the workload seed only picks sessions).
const DATASET_SEED: u64 = 42;
/// Warm-up sessions before the measured window, split evenly over the
/// client streams: a fixed amount of work, so that the memory it leaves
/// behind does not depend on how fast the program is.
const WARMUP_SESSIONS: usize = 96;
/// Session seed of the warm-up, whatever `--seed` is.
const WARMUP_SEED: u64 = u64::MAX;
/// Smallest block of samples a median (p50) is taken over.
const P50_BLOCK: usize = 200;
/// Smallest block of samples a p99 is taken over: ten samples beyond it.
const P99_BLOCK: usize = 1_000;
/// Traced and untraced slices alternate at this period in a traced run.
const SLICE: Duration = Duration::from_millis(250);

struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = number()?,
            "--seconds" => opts.seconds = number()?.max(1),
            "--trace" => opts.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(opts)
}

const WORKLOADS: &[&str] = &["cold_sessions", "hot_sessions", "cluster_wire"];

/// Closed-loop clients of a workload: as many as keep the cores of the
/// 2-core reference host busy without oversubscribing them. A cold
/// keystroke's residual scan already splits across both cores, so
/// `cold_sessions` has one user; with a second one contending for the cores
/// its keystroke and Run tails followed the host's load more than the
/// program. `hot_sessions` requests are served from the caches on the
/// caller's thread, so it has one user per core, as has `cluster_wire`.
fn clients(workload: &str) -> usize {
    if workload == "cold_sessions" {
        1
    } else {
        2
    }
}

/// Print the metric lines, the `REPORT` line and the JSON result.
fn print(outcome: &Outcome, opts: &Opts) {
    for m in outcome.metrics.iter().chain(&outcome.extra) {
        println!("{}", m.line());
    }
    let meta = [
        ("workload", json_str(&opts.workload)),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", u8::from(opts.trace).to_string()),
        ("commit", json_str(&host::commit())),
        ("nproc", host::nproc().to_string()),
        ("cpu", json_str(&host::cpu_model())),
        ("kernel", json_str(&host::kernel())),
        ("scale", json_str("medium")),
        ("dataset_seed", DATASET_SEED.to_string()),
        ("clients", clients(&opts.workload).to_string()),
        ("warmup_sessions", WARMUP_SESSIONS.to_string()),
        ("setups", SETUPS.to_string()),
    ];
    let mut fields: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    fields.extend(
        outcome
            .notes
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k))),
    );
    fields.push(format!("\"attempted\": {}", outcome.attempted));
    fields.push(format!("\"failed\": {}", outcome.failed));
    let all: Vec<Metric> = outcome
        .metrics
        .iter()
        .chain(&outcome.extra)
        .cloned()
        .collect();
    fields.push(format!("\"metrics\": {}", detailed_json(&all)));
    println!("REPORT {{{}}}", fields.join(", "));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if opts.workload == "cluster_wire" {
        let (outcome, stuck) = perfbench::cluster::run(opts.seed, opts.seconds, opts.trace);
        print(&outcome, &opts);
        if stuck {
            // A client is still inside a straggling request; its thread
            // cannot be cancelled, so end the process with the report out.
            std::process::exit(0);
        }
        return ExitCode::SUCCESS;
    }
    print(&single_box(&opts), &opts);
    ExitCode::SUCCESS
}

/// `values`, each divided by `scale`, as a JSON list.
fn json_list(values: &[f64], scale: f64) -> String {
    let items: Vec<String> = values.iter().map(|v| json_num(v / scale)).collect();
    format!("[{}]", items.join(", "))
}

static EXEC_RECORD: AtomicBool = AtomicBool::new(false);
static EXEC_WAITS: Mutex<Vec<u64>> = Mutex::new(Vec::new());

fn single_box(opts: &Opts) -> Outcome {
    let cold = opts.workload == "cold_sessions";
    // Set up SETUPS times; serve from the last deployment and, in a traced
    // run, replay the model layers on the one before it.
    let mut reps: Vec<[f64; 3]> = Vec::new();
    let mut universe = None;
    let mut deployments: Vec<Deployment> = Vec::new();
    for _ in 0..SETUPS {
        if !opts.trace {
            // Keep one model resident at a time so rss_peak_mb is the
            // served deployment's, not two.
            deployments.clear();
        }
        let clock = Instant::now();
        let graph = generate(DatasetConfig::medium(DATASET_SEED));
        let generate_s = clock.elapsed().as_secs_f64();
        if cold && universe.is_none() {
            universe = Some(Arc::new(Universe::from_graph(&graph)));
        }
        let clock = Instant::now();
        let (pum, endpoint) = init_model(graph);
        let init_s = clock.elapsed().as_secs_f64();
        let clock = Instant::now();
        let deployment = bring_up(pum, endpoint);
        let bringup_s = clock.elapsed().as_secs_f64();
        reps.push([generate_s, init_s, bringup_s]);
        deployments.push(deployment);
    }
    let live = deployments.pop().expect("at least one set-up");
    let server = &*live.server;
    if opts.trace {
        sapphire_core::exec::global().set_queue_wait_observer(|us| {
            if EXEC_RECORD.load(Ordering::Relaxed) {
                EXEC_WAITS.lock().expect("exec wait lock").push(us);
            }
        });
    }

    let hot_scripts = Arc::new(qald_scripts());
    let gens = |seed: u64| -> Vec<Box<dyn FnMut() -> perfbench::sessions::Script + Send>> {
        (0..clients(&opts.workload) as u64)
            .map(
                |c| -> Box<dyn FnMut() -> perfbench::sessions::Script + Send> {
                    match &universe {
                        Some(u) => {
                            let mut g = ColdGen::new(u.clone(), seed, c);
                            Box::new(move || g.next_script())
                        }
                        None => {
                            let mut g = HotGen::new(hot_scripts.clone(), seed, c);
                            Box::new(move || g.next_script())
                        }
                    }
                },
            )
            .collect()
    };
    let (keystroke_every, run_every) = if cold { (64, 16) } else { (256, 64) };
    let warm = Mode {
        origin: Instant::now(),
        measure: false,
        trace: opts.trace,
        keystroke_every: 0,
        run_every: 0,
    };

    // Layer counters cover the whole run, warm-up included: on
    // hot_sessions the model is only reached while warming up.
    let exec_before = sapphire_core::exec::global().stats();
    let work_before = live.endpoint.local().stats();
    EXEC_RECORD.store(true, Ordering::Relaxed);

    // Warm-up: every hot script once (fills the response caches), then a
    // fixed number of sessions from the warm-up seed's streams, the same
    // work whatever the workload seed.
    let warm_clock = Instant::now();
    let mut warm_rec = ClientRec::default();
    if !cold {
        for script in hot_scripts.iter() {
            session(server, script, warm, opts.trace, &mut warm_rec);
        }
    }
    for mut next in gens(WARMUP_SEED) {
        for _ in 0..WARMUP_SESSIONS / clients(&opts.workload) {
            session(server, &next(), warm, opts.trace, &mut warm_rec);
        }
    }
    let warmup_s = warm_clock.elapsed().as_secs_f64();
    // Peak memory through set-up and the fixed warm-up. The response and
    // memo caches keep growing with every cold request, so a peak taken
    // after the timed window would grow with throughput.
    let rss_peak_mb = host::rss_peak_mb();

    let metrics_before = server.metrics();
    let steal_before = host::cpu_steal();
    let start = Instant::now();
    let slices = Slices {
        start,
        slice: SLICE,
        enabled: opts.trace,
    };
    let measured = Mode {
        origin: start,
        measure: true,
        trace: opts.trace,
        keystroke_every,
        run_every,
    };
    let mut rec = drive(
        server,
        gens(opts.seed),
        start + Duration::from_secs(opts.seconds),
        measured,
        slices,
    );
    let end = Instant::now();
    EXEC_RECORD.store(false, Ordering::Relaxed);
    let steal_after = host::cpu_steal();
    let window_s = end.duration_since(start).as_secs_f64();
    let metrics_after = server.metrics();
    let exec_after = sapphire_core::exec::global().stats();
    let work_after = live.endpoint.local().stats();

    // The guard runs after the window, so it costs the measurement nothing.
    let mut verdict = Verdict::default();
    verdict.merge(check_keystrokes(&live.pum, keystroke_fingerprints(&rec)));
    verdict.merge(check_runs(&live.pum, run_fingerprints(&rec)));
    for e in rec.error_examples.iter().chain(&verdict.examples) {
        eprintln!("perfbench: {e}");
    }
    let failed = rec.errors + warm_rec.errors + verdict.mismatches;
    let attempted = rec.attempted + warm_rec.attempted;

    let setup_total: Vec<f64> = reps.iter().map(|r| r.iter().sum()).collect();
    let setup_col =
        |i: usize| median(&reps.iter().map(|r| r[i]).collect::<Vec<_>>()).unwrap_or(0.0);
    let mut notes = vec![
        ("setup_s_runs".to_string(), json_list(&setup_total, 1.0)),
        ("warmup_s".to_string(), json_num(warmup_s)),
        ("window_s".to_string(), json_num(window_s)),
        ("rss_end_mb".to_string(), json_num(host::rss_peak_mb())),
        (
            "cpu_steal_share".to_string(),
            json_num(ratio(
                (steal_after.0 - steal_before.0) as f64,
                (steal_after.1 - steal_before.1) as f64,
            )),
        ),
        ("guard_checked".to_string(), verdict.checked.to_string()),
        (
            "guard_mismatches".to_string(),
            verdict.mismatches.to_string(),
        ),
        (
            "errors".to_string(),
            (rec.errors + warm_rec.errors).to_string(),
        ),
    ];

    // error_rate is 0 on a correct run, so it is reported beside the
    // metrics (and as the result's `failed` / `attempted`), not as one.
    let extra = vec![Metric::over(
        "error_rate",
        ratio(failed as f64, attempted as f64),
        "ratio",
        attempted as usize,
    )];
    let metrics = if !opts.trace {
        // Medians over one-second sub-windows (percentiles over blocks of
        // sub-windows large enough for the percentile), so that a burst of
        // host noise moves one sub-window and not the result.
        let blocked = [
            (
                "keystroke_p50_us",
                &rec.keystrokes,
                50.0,
                P50_BLOCK,
                "us",
                1e3,
            ),
            (
                "keystroke_p99_us",
                &rec.keystrokes,
                99.0,
                P99_BLOCK,
                "us",
                1e3,
            ),
            ("run_p50_ms", &rec.runs, 50.0, P50_BLOCK, "ms", 1e6),
            ("run_p99_ms", &rec.runs, 99.0, P99_BLOCK, "ms", 1e6),
        ]
        .map(|(name, samples, p, block, unit, scale)| {
            let b = blocked_percentile(samples, p, block);
            if let Some(b) = &b {
                notes.push((format!("{name}_by_block"), json_list(&b.per_block, scale)));
            }
            Metric::blocked(name, b, unit, scale)
        });
        let full = (opts.seconds as usize).min(rec.sessions_by_window.len());
        let per_window: Vec<f64> = rec.sessions_by_window[..full]
            .iter()
            .map(|&n| n as f64 / SUB_WINDOW.as_secs_f64())
            .collect();
        notes.push((
            "sessions_by_window".to_string(),
            json_list(&per_window, 1.0),
        ));
        let mut metrics = vec![Metric::over(
            "sessions_per_s",
            median(&per_window).unwrap_or(0.0),
            "1/s",
            rec.sessions as usize,
        )];
        metrics.extend(blocked);
        metrics.push(Metric::over(
            "setup_s",
            median(&setup_total).unwrap_or(0.0),
            "s",
            setup_total.len(),
        ));
        metrics.push(Metric::value("rss_peak_mb", rss_peak_mb, "MiB"));
        metrics
    } else {
        let replay_dep = deployments.pop().expect("a spare set-up for the replay");
        let mut events = std::mem::take(&mut warm_rec.events);
        events.append(&mut rec.events);
        events.sort_by_key(|e| e.seq());
        let keystrokes_total = events
            .iter()
            .filter(|e| matches!(e, perfbench::single::Event::Complete { .. }))
            .count();
        let runs_total = events.len() - keystrokes_total;
        let replayed = replay(&replay_dep.pum, &replay_dep.endpoint, &events);
        let mut sparql = live.endpoint.take_spans();
        sparql.sort_unstable();

        // Self time and coverage of the measured window's traced requests.
        let (mut self_complete, mut self_run) = (Vec::new(), Vec::new());
        let (mut covered_sum, mut span_sum) = (0u64, 0u64);
        for s in rec.spans.iter().filter(|s| s.measured) {
            let covered =
                (s.child_ns + replayed.child_ns.get(&s.seq).copied().unwrap_or(0)).min(s.span_ns);
            covered_sum += covered;
            span_sum += s.span_ns;
            if s.run {
                &mut self_run
            } else {
                &mut self_complete
            }
            .push(s.span_ns - covered);
        }
        self_complete.sort_unstable();
        self_run.sort_unstable();
        let mut waits = std::mem::take(&mut *EXEC_WAITS.lock().expect("exec wait lock"));
        waits.sort_unstable();
        let (tree, bins) = (&replayed.tree_ns, &replayed.bins_ns);
        let (alts, relax) = (&replayed.alternatives_ns, &replayed.relax_ns);
        let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
        let completion_hits = d(
            metrics_after.completion_cache.hits,
            metrics_before.completion_cache.hits,
        );
        let completion_misses = d(
            metrics_after.completion_cache.misses,
            metrics_before.completion_cache.misses,
        );
        let run_hits = d(metrics_after.run_cache.hits, metrics_before.run_cache.hits);
        let run_misses = d(
            metrics_after.run_cache.misses,
            metrics_before.run_cache.misses,
        );
        let rejected = |m: &sapphire_server::ServerMetrics| {
            m.rejected_overloaded + m.rejected_queue_timeout + m.rejected_quota
        };
        let tasks = d(
            exec_after.tasks_run + exec_after.inline_runs,
            exec_before.tasks_run + exec_before.inline_runs,
        );
        let rate = |i: usize, secs: [f64; 2]| ratio(rec.sessions_by_slice[i] as f64, secs[i]);
        let secs = slices.split(end);
        let us = 1e3;
        notes.push((
            "sessions_untraced_traced".to_string(),
            format!(
                "[{}, {}]",
                rec.sessions_by_slice[0], rec.sessions_by_slice[1]
            ),
        ));
        vec![
            Metric::percentile("suffix.lookup_us_p50", tree, 50.0, "us", us),
            Metric::percentile("suffix.lookup_us_p99", tree, 99.0, "us", us),
            Metric::value("suffix.calls", tree.len() as f64, "count"),
            Metric::over(
                "suffix.hit_ratio",
                ratio(replayed.tree_hits as f64, tree.len() as f64),
                "ratio",
                tree.len(),
            ),
            Metric::percentile("bins.scan_us_p50", bins, 50.0, "us", us),
            Metric::percentile("bins.scan_us_p99", bins, 99.0, "us", us),
            Metric::over(
                "bins.scans_per_keystroke",
                ratio(bins.len() as f64, keystrokes_total as f64),
                "ratio",
                keystrokes_total,
            ),
            Metric::over(
                "bins.candidates_per_scan",
                ratio(replayed.bins_candidates as f64, bins.len() as f64),
                "count",
                bins.len(),
            ),
            Metric::value("exec.tasks", tasks, "count"),
            Metric::over(
                "exec.inline_ratio",
                ratio(d(exec_after.inline_runs, exec_before.inline_runs), tasks),
                "ratio",
                tasks as usize,
            ),
            Metric::percentile("exec.queue_us_p99", &waits, 99.0, "us", 1.0),
            Metric::percentile("sparql.exec_us_p50", &sparql, 50.0, "us", us),
            Metric::percentile("sparql.exec_us_p99", &sparql, 99.0, "us", us),
            Metric::over(
                "sparql.queries_per_run",
                ratio(
                    d(work_after.queries, work_before.queries),
                    runs_total as f64,
                ),
                "count",
                runs_total,
            ),
            Metric::over(
                "sparql.work_per_run",
                ratio(
                    d(work_after.total_work, work_before.total_work),
                    runs_total as f64,
                ),
                "count",
                runs_total,
            ),
            Metric::percentile("alternatives.us_p50", alts, 50.0, "us", us),
            Metric::percentile("alternatives.us_p99", alts, 99.0, "us", us),
            Metric::value(
                "alternatives.literal_hit_ratio",
                replayed.literal_hit_ratio,
                "ratio",
            ),
            Metric::value(
                "alternatives.predicate_hit_ratio",
                replayed.predicate_hit_ratio,
                "ratio",
            ),
            Metric::percentile("relax.us_p50", relax, 50.0, "us", us),
            Metric::percentile("relax.us_p99", relax, 99.0, "us", us),
            Metric::over(
                "relax.expansion_queries_per_run",
                ratio(replayed.relax_queries as f64, replayed.runs as f64),
                "count",
                replayed.runs as usize,
            ),
            Metric::value(
                "relax.neighborhood_hit_ratio",
                replayed.neighborhood_hit_ratio,
                "ratio",
            ),
            Metric::percentile(
                "server.self_us_p50.complete",
                &self_complete,
                50.0,
                "us",
                us,
            ),
            Metric::percentile("server.self_us_p50.run", &self_run, 50.0, "us", us),
            Metric::over(
                "server.completion_hit_ratio",
                ratio(completion_hits, completion_hits + completion_misses),
                "ratio",
                (completion_hits + completion_misses) as usize,
            ),
            Metric::over(
                "server.run_hit_ratio",
                ratio(run_hits, run_hits + run_misses),
                "ratio",
                (run_hits + run_misses) as usize,
            ),
            Metric::value(
                "server.coalesced",
                d(metrics_after.coalesced_hits, metrics_before.coalesced_hits),
                "count",
            ),
            Metric::value(
                "server.rejected",
                d(rejected(&metrics_after), rejected(&metrics_before)),
                "count",
            ),
            Metric::value("setup.generate_s", setup_col(0), "s"),
            Metric::value("setup.init_s", setup_col(1), "s"),
            Metric::value("setup.bringup_s", setup_col(2), "s"),
            Metric::over(
                "trace.coverage",
                ratio(covered_sum as f64, span_sum as f64),
                "ratio",
                rec.spans.iter().filter(|s| s.measured).count(),
            ),
            Metric::value(
                "trace.overhead",
                1.0 - ratio(rate(1, secs), rate(0, secs)),
                "ratio",
            ),
        ]
    };
    Outcome {
        metrics,
        extra,
        attempted,
        failed,
        notes,
    }
}
