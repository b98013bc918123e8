//! `servebench` — the benchmark of record for the ohmflow serving tier and
//! batch library path. See `README.md` beside this package for the
//! workloads, the metrics and how to run it.

mod inputs;
mod library;
mod record;
mod serving;
mod trace;
mod traced;

use std::time::{Duration, Instant};

use ohmflow::{MaxFlowSolver, SolveOptions};

use inputs::{RepeatInputs, Scale, SolveRequest};

use record::{median, percentile, tail_percentile, Outcome, Record};
use trace::Tracer;

/// Parsed command line.
struct Args {
    workload: &'static str,
    kind: Kind,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = String::new();
    let (mut seed, mut seconds, mut trace) = (1, 10.0_f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = value()?,
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let Some(&(workload, kind, scale)) = WORKLOADS.iter().find(|(name, ..)| *name == workload)
    else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(name, ..)| *name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        kind,
        scale,
        seed,
        seconds,
        trace,
    })
}

/// The path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Pooled topologies with fresh capacities over the serving tier.
    Repeat,
    /// Pooled vision-style topologies with fresh capacities through the
    /// serving worker's calls, in-process: the plan-hit path without the
    /// transport.
    RepeatInproc,
    /// Never-seen vision-style graphs through the same calls in-process:
    /// the cold path without the transport.
    NovelInproc,
    /// Never-seen graphs over the serving tier.
    Novel,
    /// Delta-session batches over the serving tier.
    Delta,
    /// `solve_many` batches under the evaluation configuration.
    Transient,
}

/// Every workload this program runs: the full-size workloads and their
/// small-scale variants.
const WORKLOADS: [(&str, Kind, Scale); 10] = [
    ("repeat_topology", Kind::Repeat, Scale::Full),
    ("novel_topology", Kind::Novel, Scale::Full),
    ("delta_stream", Kind::Delta, Scale::Full),
    ("transient_sweep", Kind::Transient, Scale::Full),
    ("repeat_small", Kind::Repeat, Scale::Small),
    ("repeat_inproc", Kind::RepeatInproc, Scale::Small),
    ("novel_small", Kind::Novel, Scale::Small),
    ("novel_inproc", Kind::NovelInproc, Scale::Small),
    ("delta_small", Kind::Delta, Scale::Small),
    ("transient_small", Kind::Transient, Scale::Small),
];

/// Set-up repetitions per run; `setup_s` is their median. In-process
/// set-ups take tens of milliseconds, so they repeat more often.
const SETUP_REPS: usize = 5;
const INPROC_SETUP_REPS: usize = 15;

/// How much one pass of a workload sends.
#[derive(Debug, Clone, Copy)]
enum Budget {
    /// Every caller sends until this many seconds have passed (or its
    /// list runs out).
    Seconds(f64),
    /// Every caller sends this many requests (or its whole list), with no
    /// deadline.
    Requests(usize),
}

/// A caller's stopping rule under its pass's budget.
struct Stop {
    deadline: Option<Instant>,
    max: usize,
}

impl Stop {
    /// Whether a caller that has sent `sent` requests stops.
    fn done(&self, sent: usize) -> bool {
        sent >= self.max || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// What one pass measured.
struct Measured {
    /// Answers of the timed phase; `input` names the request answered.
    records: Vec<Record>,
    /// Answers given during set-up (warm solves, session opens).
    setup_records: Vec<Record>,
    /// Timed-phase wall time (seconds).
    wall_s: f64,
    /// Process CPU time over the timed phase (seconds).
    cpu_s: f64,
    /// Durations of the set-up repetitions (seconds).
    setup_s: Vec<f64>,
    /// Correctness tolerance, as stated in the report.
    tolerance: &'static str,
    /// Per-request latency limit (seconds).
    limit_s: f64,
    /// Closed-loop callers.
    callers: usize,
}

/// Closed-loop callers of the serving and in-process repeat workloads:
/// one per core.
fn callers() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// Per-request latency limit of the serving workloads: a request without
/// an answer by then counts as a `timeout` failure.
fn latency_limit(scale: Scale) -> Duration {
    match scale {
        Scale::Full => Duration::from_secs(5),
        Scale::Small => Duration::from_secs(1),
    }
}

const IDEAL: &str = "1% of the exact max flow (ideal configuration)";

/// Runs `make` `reps` times (once under a request budget, whose pass
/// reports no `setup_s`), each after the previous result has been handed
/// to `close` (so no two set-ups are alive at once); returns the last
/// result and every duration.
fn set_up<S, T>(
    reps: usize,
    budget: Budget,
    make: impl Fn() -> (S, T),
    close: impl Fn(S),
) -> (S, Vec<f64>, T) {
    let reps = match budget {
        Budget::Seconds(_) => reps,
        Budget::Requests(_) => 1,
    };
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        if let Some((old, _)) = last.take() {
            close(old);
        }
        let start = Instant::now();
        let made = make();
        setup_s.push(start.elapsed().as_secs_f64());
        last = Some(made);
    }
    let (made, warmed) = last.expect("at least one set-up repetition");
    (made, setup_s, warmed)
}

/// Set-up of a serving pass: spawn the server, then `warm` it.
fn set_up_server<T>(
    budget: Budget,
    warm: impl Fn(&serving::Server) -> T,
) -> (serving::Server, Vec<f64>, T) {
    set_up(
        SETUP_REPS,
        budget,
        || {
            let server = serving::Server::spawn();
            let warmed = warm(&server);
            (server, warmed)
        },
        serving::Server::close,
    )
}

/// Copies of the eight-topology mix in a `repeat_*` pool: `repeat_inproc`
/// answers some hundred times more requests per run than the serving
/// workloads, over a larger pool.
fn pool_copies(kind: Kind, scale: Scale) -> usize {
    match (kind, scale) {
        (Kind::RepeatInproc, _) => 16,
        (_, Scale::Small) => 4,
        (_, Scale::Full) => 1,
    }
}

/// Request-list lengths per caller of the stateless workloads.
fn list_len(kind: Kind, scale: Scale) -> usize {
    match (kind, scale) {
        (Kind::Novel, Scale::Small) => 1500,
        (Kind::RepeatInproc, _) => 20000,
        (Kind::NovelInproc, _) => 30000,
        (_, Scale::Small) => 2000,
        (_, Scale::Full) => 400,
    }
}

/// `repeat_*` over the serving tier: set-up warms the pool's plans; a list
/// shorter than the pass is replayed from its start (capacities are fresh
/// per request, and a replay sends the same requests again).
fn serve_repeat(inputs: &RepeatInputs, limit: Duration, budget: Budget) -> Measured {
    let (server, setup_s, setup_records) = set_up_server(budget, |s| {
        let mut conn = s.connect(limit);
        inputs
            .pool
            .iter()
            .map(|req| serving::solve(&mut conn, req))
            .collect()
    });
    let lists = &inputs.lists;
    let (records, wall_s, cpu_s) = drive(lists.len(), budget, |i, stop| {
        let mut conn = server.connect(limit);
        send_list(&lists[i], true, stop, |j, req| {
            let mut r = serving::solve(&mut conn, req);
            r.input = (i, j);
            r
        })
    });
    server.close();
    Measured {
        records,
        setup_records,
        wall_s,
        cpu_s,
        setup_s,
        tolerance: IDEAL,
        limit_s: limit.as_secs_f64(),
        callers: lists.len(),
    }
}

/// Plan-cache budget of `novel_inproc`'s solver. Under the default
/// (512 MiB of estimated plan cost) a run's never-seen plans would all stay
/// resident, and each small plan holds about ten times its estimate, so
/// the process would grow by gigabytes; under this budget eviction starts
/// within the first seconds and memory levels off.
const NOVEL_PLAN_CACHE_BYTES: usize = 16 << 20;

/// `repeat_inproc` and `novel_inproc`: requests through decode → plan →
/// instance → solve on one solver shared by the callers, as the serving
/// workers share one, each answer followed by its CPU baseline; set-up
/// builds the solver and plans the pool (the warm-up graphs of
/// `novel_inproc`, which its requests never repeat). A `replay`ed list
/// starts again from its beginning when a pass outlasts it.
fn inproc(kind: Kind, inputs: &RepeatInputs, budget: Budget) -> Measured {
    let replay = kind == Kind::RepeatInproc;
    let options = match kind {
        Kind::NovelInproc => SolveOptions::ideal().with_plan_cache_bytes(NOVEL_PLAN_CACHE_BYTES),
        _ => SolveOptions::ideal(),
    };
    let (solver, setup_s, ()) = set_up(
        INPROC_SETUP_REPS,
        budget,
        || {
            let solver = MaxFlowSolver::new(options.clone());
            for req in &inputs.pool {
                // A topology that cannot be planned fails again, counted,
                // in the timed phase.
                let _ = solver.plan(&library::decode(req));
            }
            (solver, ())
        },
        drop,
    );
    let lists = &inputs.lists;
    let (records, wall_s, cpu_s) = drive(lists.len(), budget, |i, stop| {
        let mut tr = Tracer::disabled();
        send_list(&lists[i], replay, stop, |j, req| {
            let mut r = library::solve(&mut tr, &solver, req).record;
            r.baseline_s = library::cpu_baseline_s(req);
            r.input = (i, j);
            r
        })
    });
    Measured {
        records,
        setup_records: Vec::new(),
        wall_s,
        cpu_s,
        setup_s,
        tolerance: IDEAL,
        limit_s: f64::INFINITY,
        callers: lists.len(),
    }
}

/// `novel_*` over the serving tier: set-up is a warm-up round trip per
/// graph family; every graph is new to the server, so a list is never
/// replayed.
fn serve_novel(lists: &[Vec<SolveRequest>], limit: Duration, budget: Budget) -> Measured {
    let warm_up = inputs::warm_up_requests();
    let (server, setup_s, setup_records) = set_up_server(budget, |s| {
        let mut conn = s.connect(limit);
        warm_up
            .iter()
            .map(|req| serving::solve(&mut conn, req))
            .collect()
    });
    let (records, wall_s, cpu_s) = drive(lists.len(), budget, |i, stop| {
        let mut conn = server.connect(limit);
        send_list(&lists[i], false, stop, |j, req| {
            let mut r = serving::solve(&mut conn, req);
            r.input = (i, j);
            r
        })
    });
    server.close();
    Measured {
        records,
        setup_records,
        wall_s,
        cpu_s,
        setup_s,
        tolerance: IDEAL,
        limit_s: limit.as_secs_f64(),
        callers: lists.len(),
    }
}

/// Sends `list` in order (from its start again when `replay`) until `stop`.
fn send_list(
    list: &[SolveRequest],
    replay: bool,
    stop: &Stop,
    mut send: impl FnMut(usize, &SolveRequest) -> Record,
) -> Vec<Record> {
    let rounds = if replay { usize::MAX } else { 1 };
    let mut out = Vec::new();
    for j in (0..rounds).flat_map(|_| 0..list.len()) {
        if stop.done(out.len()) {
            break;
        }
        out.push(send(j, &list[j]));
    }
    out
}

/// Delta sessions per connection and batches per session.
fn delta_shape(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (1, 600),
        Scale::Small => (32, 60),
    }
}

/// `delta_*` over the serving tier: set-up opens every session (each
/// connection its own, concurrently); batches go round-robin over a
/// connection's sessions. A record's `input` is (session, batch).
fn serve_delta(
    streams: &[inputs::DeltaStream],
    per_connection: usize,
    limit: Duration,
    budget: Budget,
) -> Measured {
    let open_limit = limit * 4;
    let connections = streams.len() / per_connection;
    let (server, setup_s, opens) = set_up_server(budget, |s| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .chunks(per_connection)
                .map(|mine| {
                    scope.spawn(move || {
                        let mut conn = s.connect(open_limit);
                        mine.iter()
                            .map(|stream| serving::open_session(&mut conn, stream))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("open thread panicked"))
                .collect::<Vec<_>>()
        })
    });
    let batches = streams.first().map_or(0, |s| s.steps.len());
    let (records, wall_s, cpu_s) = drive(connections, budget, |i, stop| {
        let first = i * per_connection;
        let mine = &streams[first..first + per_connection];
        let mut sessions: Vec<Option<serving::SessionIds>> = opens[first..first + per_connection]
            .iter()
            .zip(mine)
            .map(|(o, stream)| {
                o.id.map(|id| serving::SessionIds::new(id, stream.graph.edge_count()))
            })
            .collect();
        let mut conn = server.connect(limit);
        let mut out = Vec::new();
        'steps: for step in 0..batches {
            for (k, stream) in mine.iter().enumerate() {
                if stop.done(out.len()) {
                    break 'steps;
                }
                let Some(ids) = sessions[k].as_mut() else {
                    continue;
                };
                let mut r = serving::apply(&mut conn, ids, stream, step);
                r.input = (first + k, step);
                // The session's state after a failed batch is unknown, so
                // its later answers could not be checked: it stops here.
                if r.outcome != Outcome::Correct {
                    sessions[k] = None;
                }
                out.push(r);
            }
        }
        out
    });
    server.close();
    Measured {
        records,
        setup_records: opens.into_iter().map(|o| o.record).collect(),
        wall_s,
        cpu_s,
        setup_s,
        tolerance: "1% of the exact max flow of the live graph (ideal configuration)",
        limit_s: limit.as_secs_f64(),
        callers: connections,
    }
}

/// `transient_*`: one caller per core submits `solve_many` batches. Set-up builds
/// the evaluation-configuration solver and solves the fixed warm-up batches.
fn run_transient(batches: &[inputs::TransientBatch], budget: Budget) -> Measured {
    let warm_up = inputs::transient_warm_up();
    let (solver, setup_s, setup_records) = set_up(
        INPROC_SETUP_REPS,
        budget,
        || {
            let solver = MaxFlowSolver::new(inputs::evaluation());
            let mut tr = Tracer::disabled();
            let warmed = warm_up
                .iter()
                .flat_map(|batch| library::solve_batch(&mut tr, &solver, batch))
                .map(|m| m.record)
                .collect();
            (solver, warmed)
        },
        drop,
    );
    // Caller `c` submits the `c`-th of `n` equal runs of the list (each
    // alternating between the presets from a sparse batch).
    let n = callers();
    let share = (batches.len() / n) & !1;
    let (records, wall_s, cpu_s) = drive(n, budget, |c, stop| {
        let mut tr = Tracer::disabled();
        let mut out = Vec::new();
        let mine = batches.iter().enumerate().skip(c * share).take(share);
        for (sent, (i, batch)) in mine.enumerate() {
            if stop.done(sent) {
                break;
            }
            for (k, m) in library::solve_batch(&mut tr, &solver, batch)
                .into_iter()
                .enumerate()
            {
                out.push(Record {
                    input: (i, k),
                    ..m.record
                });
            }
        }
        out
    });
    Measured {
        records,
        setup_records,
        wall_s,
        cpu_s,
        setup_s,
        tolerance:
            "1% of the exact max flow of the quantized instance (20 levels, nearest rounding)",
        limit_s: f64::INFINITY,
        callers: n,
    }
}

/// The inputs of a stateless workload: `callers` request lists of `len`,
/// and the pool its set-up plans (for `novel_inproc` fixed warm-up graphs;
/// empty for the serving `novel_*`, whose set-up sends warm-up graphs of
/// its own).
fn stateless_inputs(
    kind: Kind,
    scale: Scale,
    seed: u64,
    callers: usize,
    len: usize,
) -> RepeatInputs {
    match kind {
        Kind::Repeat => inputs::repeat(seed, scale, pool_copies(kind, scale), callers, len),
        Kind::Novel => RepeatInputs {
            pool: Vec::new(),
            lists: inputs::novel(seed, scale, callers, len),
        },
        Kind::RepeatInproc => inputs::repeat_vision(seed, pool_copies(kind, scale), callers, len),
        Kind::NovelInproc => RepeatInputs {
            pool: inputs::vision_warm_up(),
            lists: inputs::novel_vision(seed, callers, len),
        },
        Kind::Delta | Kind::Transient => unreachable!("{kind:?} is not a stateless workload"),
    }
}

/// Generates a workload's inputs from `seed` and runs one untraced pass
/// of `seconds` over them.
fn run(kind: Kind, scale: Scale, seed: u64, seconds: f64) -> Measured {
    let n = callers();
    let limit = latency_limit(scale);
    let budget = Budget::Seconds(seconds);
    match kind {
        Kind::Repeat | Kind::Novel | Kind::RepeatInproc | Kind::NovelInproc => {
            let inputs = stateless_inputs(kind, scale, seed, n, list_len(kind, scale));
            match kind {
                Kind::Repeat => serve_repeat(&inputs, limit, budget),
                Kind::Novel => serve_novel(&inputs.lists, limit, budget),
                _ => inproc(kind, &inputs, budget),
            }
        }
        Kind::Delta => {
            let (per_connection, batches) = delta_shape(scale);
            let streams = inputs::delta(seed, scale, n * per_connection, batches);
            serve_delta(&streams, per_connection, limit, budget)
        }
        Kind::Transient => {
            let batches = match scale {
                Scale::Full => 80,
                Scale::Small => 4500,
            };
            run_transient(&inputs::transient(seed, scale, batches), budget)
        }
    }
}

/// Runs `callers` closed-loop caller threads under `budget` and collects
/// their records, the timed wall time and the process CPU time.
fn drive(
    callers: usize,
    budget: Budget,
    caller: impl Fn(usize, &Stop) -> Vec<Record> + Sync,
) -> (Vec<Record>, f64, f64) {
    let cpu0 = record::process_cpu_s();
    let start = Instant::now();
    let stop = match budget {
        Budget::Seconds(s) => Stop {
            deadline: Some(start + Duration::from_secs_f64(s)),
            max: usize::MAX,
        },
        Budget::Requests(max) => Stop {
            deadline: None,
            max,
        },
    };
    let records: Vec<Record> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|i| {
                let (caller, stop) = (&caller, &stop);
                scope.spawn(move || caller(i, stop))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    (records, wall_s, record::process_cpu_s() - cpu0)
}

/// One metric of the final JSON line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// The seven end-to-end metrics of an untraced run.
fn end_to_end(m: &Measured) -> (Vec<Metric>, usize, f64) {
    let mut latencies: Vec<f64> = m
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Correct)
        .map(|r| r.latency_s * 1e3)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let tail_p = tail_percentile(latencies.len());
    let answers = latencies.len() as f64;
    // Each correct answer against the exact CPU solver's time on the same
    // graph, where measured: host speed drifts by tens of percent over
    // seconds here and moves both sides of a ratio alike. A core taken
    // away by the host for milliseconds does not: it stretches the long
    // answers that `work_vs_cpu` sums, but hardly the median answer.
    let paired: Vec<(f64, f64)> = m
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Correct && r.baseline_s > 0.0)
        .map(|r| (r.latency_s, r.baseline_s))
        .collect();
    let (p50_vs_cpu, work_vs_cpu) = if paired.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        let ratios: Vec<f64> = paired.iter().map(|(l, b)| l / b).collect();
        let (spent, base) = paired
            .iter()
            .fold((0.0, 0.0), |(s, b), (l, c)| (s + l, b + c));
        (median(&ratios), spent / base)
    };
    let failed_ratio = 1.0 - answers / m.records.len().max(1) as f64;
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("goodput_per_s", answers / m.wall_s, "1/s"),
        metric("latency_p50_ms", percentile(&latencies, 50.0), "ms"),
        metric("latency_tail_ms", percentile(&latencies, tail_p), "ms"),
        metric("latency_p50_vs_cpu", p50_vs_cpu, "ratio"),
        metric("work_vs_cpu", work_vs_cpu, "ratio"),
        metric("failed_ratio", failed_ratio, "ratio"),
        metric("correct_ratio", 1.0 - failed_ratio, "ratio"),
        metric("cpu_ms_per_answer", m.cpu_s * 1e3 / answers.max(1.0), "ms"),
        metric("setup_s", median(&m.setup_s), "s"),
        metric("peak_rss_mb", record::peak_rss_mb(), "MiB"),
    ];
    (metrics, latencies.len(), tail_p)
}

/// The end-to-end metrics `BENCHMARK.json` registers (the JSON line of an
/// untraced run carries exactly these; the report prints all of them).
const REGISTERED_END_TO_END: [&str; 4] = [
    "latency_p50_vs_cpu",
    "correct_ratio",
    "setup_s",
    "peak_rss_mb",
];

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// The environment record every report starts with.
fn print_environment(args: &Args) {
    println!(
        "# workload {}  seed {}  seconds {}  trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# nproc {}  rustc {}  commit {}",
        callers(),
        env!("SERVEBENCH_RUSTC"),
        env!("SERVEBENCH_COMMIT")
    );
}

fn print_failures(label: &str, records: &[Record]) {
    let table = record::failure_table(records);
    let mut by_class = std::collections::BTreeMap::new();
    for ((class, outcome), count) in &table {
        by_class
            .entry(*class)
            .or_insert_with(Vec::new)
            .push(format!("{outcome}={count}"));
    }
    for (class, counts) in by_class {
        println!("# {label} {class}: {}", counts.join(" "));
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!("usage: servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    print_environment(&args);
    if args.trace {
        let outcome = traced::run(args.workload, args.kind, args.scale, args.seed);
        finish(outcome);
    }
    let measured = run(args.kind, args.scale, args.seed, args.seconds);
    let (metrics, samples, tail_p) = end_to_end(&measured);
    println!(
        "# tolerance: {}  latency limit: {} s  callers: {}",
        measured.tolerance, measured.limit_s, measured.callers
    );
    println!(
        "# timing samples (correct answers): {samples}  tail percentile: p{tail_p}  wall {:.3} s",
        measured.wall_s
    );
    print_failures("failures", &measured.records);
    print_failures("setup answers", &measured.setup_records);
    let mut iters: Vec<f64> = measured
        .records
        .iter()
        .map(|r| r.iterations as f64)
        .collect();
    iters.sort_by(f64::total_cmp);
    println!(
        "# state iterations: p50 {}  max {}",
        percentile(&iters, 50.0),
        iters.last().copied().unwrap_or(0.0)
    );
    for m in &metrics {
        println!("# {:<20} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let count = |o: Outcome| measured.records.iter().filter(|r| r.outcome == o).count();
    let failed = measured.records.len() - samples;
    // Every answer was checked: its verdict is in `failed` (wrong answers,
    // refusals and timeouts alike, as `failed_ratio` counts them). The run
    // itself is invalid only without a single correct answer or when the
    // server broke the protocol (a malformed or mis-shaped frame).
    let correct = samples > 0 && count(Outcome::Transport) == 0;
    let registered: Vec<Metric> = metrics
        .into_iter()
        .filter(|m| REGISTERED_END_TO_END.contains(&m.name))
        .collect();
    print_result(correct, measured.records.len().max(1), failed, &registered);
    finish(0);
}

/// Flushes and exits without joining servers a timed-out request may
/// still occupy.
fn finish(code: i32) -> ! {
    use std::io::Write;
    let _ = std::io::stdout().flush();
    std::process::exit(code)
}
