//! The traced run (`--trace 1`): a fixed-count replay of the workload's
//! request list, made three ways —
//!
//! * **serve** — the workload's own serving pass (`serve_repeat`,
//!   `serve_novel`, `serve_delta`) under a request budget, untraced:
//!   round-trip latencies, the `templated` share and the requests that
//!   outlive the latency limit (skipped by the in-process passes);
//! * **plain** — in-process through the same public calls the server
//!   worker makes, untraced: the wall-time base of `trace.overhead_ratio`
//!   and the first copy of every count;
//! * **traced** — the same calls with a span around each, plus direct
//!   calls into `builder::build`, the linalg ordering / factor / refactor /
//!   solve API and `push_relabel` on each request's graph.
//!
//! Layers the workload's own path never reaches are probed directly on
//! its first graphs, so every per-layer metric has a value on every
//! workload: a delta session batch (all but `delta_*`), a lone and a
//! batched evaluation-configuration solve (all but `transient_*`), and for
//! `transient_*` a DIMACS decode and a serving pass of the batches' first
//! members.
//!
//! Count-type metrics of the plain and traced passes must agree exactly;
//! any that differ are reported as nondeterminism.

use std::collections::BTreeMap;
use std::time::Instant;

use ohmflow::{DeltaBatch, MaxFlowSolver, PlanCacheStats, Problem, SolveOptions};
use ohmflow_circuit::DcSolver;
use ohmflow_graph::{binfmt, dimacs, FlowNetwork};
use ohmflow_linalg::{amd_btf_nd_ordering, SparseLu};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inputs::{self, EdgeTable, Scale, SolveRequest};
use crate::library;
use crate::record::{median, percentile, within, Outcome, IDEAL_TOLERANCE};
use crate::trace::Tracer;
use crate::{callers, latency_limit, Budget, Kind, Measured, Metric};

/// Requests (or batches) each caller sends in the traced run.
fn trace_count(kind: Kind, scale: Scale) -> usize {
    match (kind, scale) {
        (Kind::Delta, Scale::Small) => 200,
        (Kind::Transient, Scale::Small) => 48,
        (_, Scale::Small) => 150,
        (Kind::Delta, Scale::Full) => 30,
        (Kind::Transient, Scale::Full) => 4,
        (Kind::Novel, Scale::Full) => 20,
        (_, Scale::Full) => 30,
    }
}

/// Successful cross-layer probes per layer, and the graphs tried for them.
const CROSS_PROBES: usize = 8;
const CROSS_CANDIDATES: usize = 4 * CROSS_PROBES;

/// Count-type observations of one in-process pass; the plain and traced
/// passes must produce identical values.
#[derive(Debug, Default, Clone, PartialEq)]
struct Counts {
    outcomes: BTreeMap<&'static str, u64>,
    state_iters: Vec<u64>,
    refinements: u64,
    plan_hits: u64,
    plan_misses: u64,
    factor_nnz: u64,
    consolidations: u64,
    replans: u64,
}

impl Counts {
    fn answer(&mut self, outcome: Outcome, iterations: u64) {
        *self.outcomes.entry(outcome.name()).or_insert(0) += 1;
        self.state_iters.push(iterations);
    }

    /// Every count as (name, value), for printing and diffing.
    fn flat(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .outcomes
            .iter()
            .map(|(k, v)| (format!("outcome.{k}"), *v))
            .collect();
        out.push(("dc.state_iters_total".into(), self.state_iters.iter().sum()));
        out.push((
            "dc.state_iters_max".into(),
            self.state_iters.iter().copied().max().unwrap_or(0),
        ));
        out.push(("dc.refinements_total".into(), self.refinements));
        out.push(("plan.hits".into(), self.plan_hits));
        out.push(("plan.misses".into(), self.plan_misses));
        out.push(("linalg.answer_factor_nnz_total".into(), self.factor_nnz));
        out.push(("delta.consolidations".into(), self.consolidations));
        out.push(("delta.replans".into(), self.replans));
        out
    }
}

/// Layer probe results (direct calls, traced pass only).
#[derive(Default)]
struct Probes {
    factor_nnz: u64,
    block_count: u64,
    singular: u64,
    /// Delta-session totals: phase times (ms), outstanding rank after each
    /// batch, consolidations and replans.
    delta_phases_ms: [f64; 4],
    delta_ranks: Vec<f64>,
    delta_batches: u64,
    consolidations: u64,
    replans: u64,
    /// Evaluation-configuration solves: state iterations (relaxation
    /// steps), settle times, and (lone member, batch) times in ms.
    transient_steps: u64,
    convergence_ns: Vec<f64>,
    transient_pairs: Vec<(f64, f64)>,
}

impl Probes {
    /// Adds a delta session's phase times and counters.
    fn add_session(&mut self, session: &ohmflow::DeltaSession) {
        self.consolidations += session.consolidations();
        self.replans += session.replans();
        if let Some(p) = session.report().phases {
            for (total, ns) in self.delta_phases_ms.iter_mut().zip([
                p.stamp_ns,
                p.refactor_ns,
                p.solve_ns,
                p.woodbury_ns,
            ]) {
                *total += ns as f64 / 1e6;
            }
        }
    }

    /// Pairs the last lone evaluation-configuration solve with the last
    /// `solve_many` batch it belongs to (the base of `batch.speedup`).
    fn add_transient_pair(&mut self, tr: &Tracer) {
        let last = |name| tr.durations(name).last().copied().unwrap_or(f64::NAN);
        self.transient_pairs
            .push((last("transient.solve"), last("batch.solve_many")));
    }
}

/// Direct calls into the builder, the linalg API and the CPU baseline on
/// `g`, each in its own span under a `probe` root (so they never count
/// towards a request's in-process time). `decode` adds a DIMACS parse of
/// `g` for a workload whose path decodes nothing.
fn probe(tr: &mut Tracer, solver: &MaxFlowSolver, g: &FlowNetwork, decode: bool, out: &mut Probes) {
    let opts = solver.options();
    tr.span("probe", |tr| {
        if decode {
            let text = dimacs::write(g);
            let parsed = tr.span("graph.decode", |_| dimacs::parse(&text));
            std::hint::black_box(parsed.expect("written DIMACS parses"));
        }
        let built = tr.span("builder.build", |_| {
            ohmflow::builder::build(g, &opts.params, &opts.build)
        });
        if let Ok(sc) = built {
            match DcSolver::new().lu_options(opts.lu).stamp(sc.circuit()) {
                Ok((m, _)) => {
                    let ordering = tr.span("linalg.ordering", |_| amd_btf_nd_ordering(&m));
                    std::hint::black_box(ordering);
                    if let Ok(mut lu) =
                        tr.span("linalg.factor", |_| SparseLu::factor_with(&m, &opts.lu))
                    {
                        out.factor_nnz += lu.factor_nnz() as u64;
                        out.block_count += lu.symbolic().block_count() as u64;
                        let _ = tr.span("linalg.refactor", |_| lu.refactor(&m));
                        let b = vec![1.0; lu.dim()];
                        let _ = std::hint::black_box(tr.span("linalg.solve", |_| lu.solve(&b)));
                    }
                }
                Err(_) => out.singular += 1,
            }
        }
        let flow = tr.span("maxflow.push_relabel", |_| inputs::exact_value(g));
        std::hint::black_box(flow);
        let cold = MaxFlowSolver::new(opts.clone());
        let _ = std::hint::black_box(tr.span("plan.cold", |_| cold.plan(g)));
    });
}

/// A delta session opened on `g` by a phase-timed solver, with one seeded
/// batch of `DELTA_K` capacity updates (the probe of a workload that opens
/// no session).
fn delta_probe(tr: &mut Tracer, g: &FlowNetwork, rng: &mut StdRng, out: &mut Probes) -> bool {
    let solver = MaxFlowSolver::new(SolveOptions::ideal().with_phase_timing(true));
    tr.span("probe", |tr| {
        let Ok(mut session) = solver.delta_session(g) else {
            return false;
        };
        let mut batch = DeltaBatch::new();
        for _ in 0..inputs::DELTA_K {
            batch = batch.set_capacity(
                rng.gen_range(0..g.edge_count()),
                rng.gen_range(1..=inputs::MAX_CAP),
            );
        }
        let applied = tr
            .span("delta.apply", |_| session.apply_deltas(&batch))
            .is_ok();
        if applied {
            out.delta_batches += 1;
            out.delta_ranks.push(session.outstanding_rank() as f64);
        }
        out.add_session(&session);
        applied
    })
}

/// `g` solved alone and as one of `TRANSIENT_BATCH` capacity variants
/// through `solve_many`, each on a fresh evaluation-configuration solver
/// (the probe of a workload that solves nothing under it).
fn transient_probe(tr: &mut Tracer, g: &FlowNetwork, rng: &mut StdRng, out: &mut Probes) -> bool {
    let mut graphs = vec![g.clone()];
    graphs.extend((1..inputs::TRANSIENT_BATCH).map(|_| inputs::recapacitate(g, rng)));
    tr.span("probe", |tr| {
        let alone = MaxFlowSolver::new(inputs::evaluation());
        if tr.span("transient.solve", |_| alone.solve(g)).is_err() {
            return false;
        }
        let batched = MaxFlowSolver::new(inputs::evaluation());
        let members = tr.span("batch.solve_many", |_| {
            batched.solve_many(graphs.iter().map(Problem::Graph))
        });
        for sol in members.iter().flatten() {
            out.transient_steps += sol.report.iterations as u64;
            out.convergence_ns
                .extend(sol.convergence_time.map(|t| t * 1e9));
        }
        out.add_transient_pair(tr);
        true
    })
}

/// One in-process pass over stateless requests (`pool` warmed first, as
/// the serving set-up does); returns the counts, the wall time, the final
/// plan-cache stats and every request's plan-cache hit flag.
fn solve_pass(
    tr: &mut Tracer,
    requests: &[&SolveRequest],
    pool: &[SolveRequest],
    traced: bool,
    probes: &mut Probes,
) -> (Counts, f64, PlanCacheStats, Vec<Option<bool>>) {
    let solver = MaxFlowSolver::new(SolveOptions::ideal());
    for req in pool {
        library::solve(&mut Tracer::disabled(), &solver, req);
    }
    let mut counts = Counts::default();
    let mut hits = Vec::new();
    let start = Instant::now();
    for (i, req) in requests.iter().enumerate() {
        tr.set_request(i as u64);
        let answer = library::solve(tr, &solver, req);
        match answer.plan_hit {
            Some(true) => counts.plan_hits += 1,
            Some(false) => counts.plan_misses += 1,
            None => {}
        }
        hits.push(answer.plan_hit);
        counts.refinements += answer.refinements;
        counts.factor_nnz += answer.factor_nnz;
        counts.answer(answer.record.outcome, answer.record.iterations);
        if traced {
            probe(tr, &solver, &library::decode(req), false, probes);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    (counts, wall, solver.engine().plan_cache_stats(), hits)
}

/// One in-process pass over delta streams: open every session, then
/// apply the (session, batch) pairs of `replay` in order.
fn delta_pass(
    tr: &mut Tracer,
    streams: &[inputs::DeltaStream],
    replay: &[(usize, usize)],
    traced: bool,
    probes: &mut Probes,
) -> (Counts, f64) {
    let solver = MaxFlowSolver::new(SolveOptions::ideal().with_phase_timing(traced));
    let mut counts = Counts::default();
    let start = Instant::now();
    let mut sessions: Vec<Option<(ohmflow::DeltaSession, Vec<usize>, EdgeTable)>> = streams
        .iter()
        .enumerate()
        .map(|(k, stream)| {
            tr.set_request(k as u64);
            tr.span("delta.open", |tr| {
                let g = tr.span("graph.decode", |_| {
                    binfmt::parse_binary(&stream.open_body).expect("generated OFG1 parses")
                });
                let mut s = tr
                    .span("delta.session", |_| solver.delta_session(&g))
                    .ok()?;
                s.apply_deltas(&DeltaBatch::new()).ok()?;
                Some((s, (0..g.edge_count()).collect(), EdgeTable::new(&g)))
            })
        })
        .collect();
    for (i, &(k, step)) in replay.iter().enumerate() {
        let Some((session, map, table)) = sessions[k].as_mut() else {
            continue;
        };
        let step_in = &streams[k].steps[step];
        let mut batch = DeltaBatch::new();
        for d in inputs::translate(map, &step_in.deltas) {
            batch.push(d);
        }
        tr.set_request((streams.len() + i) as u64);
        let result = tr.span("request", |tr| {
            tr.span("delta.apply", |_| session.apply_deltas(&batch))
        });
        match result {
            Ok(report) => {
                map.extend(report.new_edge_ids.iter().copied());
                let ok = report.new_edge_ids.len() == step_in.inserts
                    && within(report.value, step_in.exact as f64, IDEAL_TOLERANCE);
                let outcome = if ok {
                    Outcome::Correct
                } else {
                    Outcome::WrongAnswer
                };
                counts.answer(outcome, report.state_iterations as u64);
                table.apply(&step_in.deltas);
                if traced {
                    probes.delta_batches += 1;
                    probes.delta_ranks.push(session.outstanding_rank() as f64);
                    probe(tr, &solver, &table.live(), false, probes);
                }
                if !ok {
                    sessions[k] = None;
                }
            }
            Err(e) => {
                counts.answer(Outcome::from_error(&e.to_string()), 0);
                sessions[k] = None;
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    for (session, _, _) in sessions.iter().flatten() {
        counts.consolidations += session.consolidations();
        counts.replans += session.replans();
        counts.refinements += session.report().refinements as u64;
        if traced {
            probes.add_session(session);
        }
    }
    (counts, wall)
}

/// One in-process pass over `solve_many` batches; the traced pass also
/// solves each batch's first member alone on a fresh solver, the base of
/// `batch.speedup`.
fn transient_pass(
    tr: &mut Tracer,
    batches: &[inputs::TransientBatch],
    traced: bool,
    probes: &mut Probes,
) -> (Counts, f64) {
    let solver = MaxFlowSolver::new(inputs::evaluation());
    let mut counts = Counts::default();
    let start = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        tr.set_request(i as u64);
        let members = library::solve_batch(tr, &solver, batch);
        for m in &members {
            counts.answer(m.record.outcome, m.record.iterations);
            counts.refinements += m.refinements;
        }
        if traced {
            probes.transient_steps += members.iter().map(|m| m.record.iterations).sum::<u64>();
            probes
                .convergence_ns
                .extend(members.iter().filter_map(|m| m.convergence_ns));
            let alone = MaxFlowSolver::new(inputs::evaluation());
            if tr
                .span("transient.solve", |_| alone.solve(&batch.graphs[0]))
                .is_ok()
            {
                probes.add_transient_pair(tr);
            }
            probe(tr, &solver, &batch.graphs[0], true, probes);
        }
    }
    (counts, start.elapsed().as_secs_f64())
}

/// What the serving-tier side of a traced run measured.
struct ServeLayer {
    /// Round trip minus in-process time per replayed request (ms).
    self_ms: Vec<f64>,
    templated_ratio: f64,
    timeouts: usize,
    busy_ratio: f64,
}

/// The serving pass's answers that the in-process passes replay: every
/// request that did not time out, as (input, round-trip ms).
fn replayable(serve: &Measured) -> Vec<((usize, usize), f64)> {
    serve
        .records
        .iter()
        .filter(|r| r.outcome != Outcome::Timeout)
        .map(|r| (r.input, r.latency_s * 1e3))
        .collect()
}

fn serve_layer(serve: &Measured, kept: &[((usize, usize), f64)], inproc_ms: &[f64]) -> ServeLayer {
    let ok = serve
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Correct)
        .count();
    let templated = serve.records.iter().filter(|r| r.templated).count();
    ServeLayer {
        self_ms: kept
            .iter()
            .zip(inproc_ms)
            .map(|((_, rt), inproc)| rt - inproc)
            .collect(),
        templated_ratio: templated as f64 / ok.max(1) as f64,
        timeouts: serve.records.len() - kept.len(),
        busy_ratio: serve.cpu_s / (serve.wall_s * serve.callers as f64),
    }
}

/// Both in-process passes of a traced run and what they measured.
struct Passes {
    plain: Counts,
    traced: Counts,
    plain_wall: f64,
    traced_wall: f64,
}

fn push(metrics: &mut Vec<Metric>, name: &'static str, value: f64, unit: &'static str) {
    metrics.push(Metric { name, value, unit });
}

/// Runs the traced replay of `workload` and prints its per-layer report;
/// returns the process exit code.
pub fn run(workload: &str, kind: Kind, scale: Scale, seed: u64) -> i32 {
    let per = trace_count(kind, scale);
    let limit = latency_limit(scale);
    let n = callers();
    let budget = Budget::Requests(per);
    let mut plain_tr = Tracer::disabled();
    let mut tr = Tracer::new();
    let mut probes = Probes::default();
    let mut extra: Vec<(&str, f64)> = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);
    // Graphs the cross-layer probes run on.
    let cross: Vec<FlowNetwork>;
    let (passes, serve) = match kind {
        Kind::Repeat | Kind::RepeatInproc | Kind::Novel | Kind::NovelInproc => {
            let inputs = crate::stateless_inputs(kind, scale, seed, n, per);
            let serve = if matches!(kind, Kind::Novel | Kind::NovelInproc) {
                crate::serve_novel(&inputs.lists, limit, budget)
            } else {
                crate::serve_repeat(&inputs, limit, budget)
            };
            let kept = replayable(&serve);
            let requests: Vec<&SolveRequest> = kept
                .iter()
                .map(|((i, j), _)| &inputs.lists[*i][*j])
                .collect();
            let pool = &inputs.pool;
            let (plain, plain_wall, _, _) =
                solve_pass(&mut plain_tr, &requests, pool, false, &mut probes);
            let (traced, traced_wall, stats, hits) =
                solve_pass(&mut tr, &requests, pool, true, &mut probes);
            let plans = tr.durations("plan");
            let plan_ms = |hit: bool| -> f64 {
                let v: Vec<f64> = plans
                    .iter()
                    .zip(&hits)
                    .filter(|(_, h)| **h == Some(hit))
                    .map(|(d, _)| *d)
                    .collect();
                median(&v)
            };
            extra.push(("plan.hit_ms", plan_ms(true)));
            extra.push(("plan.miss_in_path_ms", plan_ms(false)));
            extra.push((
                "plan.hit_ratio",
                stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
            ));
            extra.push(("plan.evictions", stats.evictions as f64));
            extra.push(("plan.resident_mb", stats.resident_bytes as f64 / 1048576.0));
            cross = requests
                .iter()
                .take(CROSS_CANDIDATES)
                .map(|r| library::decode(r))
                .collect();
            let mut layer = serve_layer(&serve, &kept, &tr.durations("request"));
            if matches!(kind, Kind::RepeatInproc | Kind::NovelInproc) {
                let m = crate::inproc(kind, &inputs, budget);
                layer.busy_ratio = m.cpu_s / (m.wall_s * m.callers as f64);
            }
            let passes = Passes {
                plain,
                traced,
                plain_wall,
                traced_wall,
            };
            (passes, layer)
        }
        Kind::Delta => {
            let (per_connection, _) = crate::delta_shape(scale);
            let streams = inputs::delta(
                seed,
                scale,
                n * per_connection,
                per.div_ceil(per_connection),
            );
            let serve = crate::serve_delta(&streams, per_connection, limit, budget);
            let kept = replayable(&serve);
            let replay: Vec<(usize, usize)> = kept.iter().map(|(input, _)| *input).collect();
            let (plain, plain_wall) =
                delta_pass(&mut plain_tr, &streams, &replay, false, &mut probes);
            let (traced, traced_wall) = delta_pass(&mut tr, &streams, &replay, true, &mut probes);
            cross = streams
                .iter()
                .take(CROSS_CANDIDATES)
                .map(|s| s.graph.clone())
                .collect();
            let layer = serve_layer(&serve, &kept, &tr.durations("request"));
            let passes = Passes {
                plain,
                traced,
                plain_wall,
                traced_wall,
            };
            (passes, layer)
        }
        Kind::Transient => {
            let batches = inputs::transient(seed, scale, per);
            let cpu0 = crate::record::process_cpu_s();
            let (plain, plain_wall) = transient_pass(&mut plain_tr, &batches, false, &mut probes);
            let busy_ratio = (crate::record::process_cpu_s() - cpu0) / (plain_wall * n as f64);
            let (traced, traced_wall) = transient_pass(&mut tr, &batches, true, &mut probes);
            cross = batches
                .iter()
                .take(CROSS_CANDIDATES)
                .map(|b| b.graphs[0].clone())
                .collect();
            // The serving tier on the batches' first members: their round
            // trips against the same calls in-process, on a tracer of its
            // own so its requests stay out of this workload's spans.
            let firsts: Vec<SolveRequest> = batches
                .iter()
                .map(|b| SolveRequest::new(ohmflow_apps::serve::TAG_BINARY, &b.graphs[0], b.shape))
                .collect();
            let lists = vec![firsts];
            let serve = crate::serve_novel(&lists, limit, Budget::Requests(per));
            let kept = replayable(&serve);
            let requests: Vec<&SolveRequest> =
                kept.iter().map(|((i, j), _)| &lists[*i][*j]).collect();
            let mut side = Tracer::new();
            solve_pass(&mut side, &requests, &[], false, &mut Probes::default());
            let mut layer = serve_layer(&serve, &kept, &side.durations("request"));
            layer.busy_ratio = busy_ratio;
            let passes = Passes {
                plain,
                traced,
                plain_wall,
                traced_wall,
            };
            (passes, layer)
        }
    };
    // A graph the probed layer refuses (a singular session, a diverging
    // transient) is skipped for the next candidate.
    let (mut deltas, mut transients) = (0, 0);
    for g in &cross {
        if kind != Kind::Delta && deltas < CROSS_PROBES {
            deltas += usize::from(delta_probe(&mut tr, g, &mut rng, &mut probes));
        }
        if kind != Kind::Transient && transients < CROSS_PROBES {
            transients += usize::from(transient_probe(&mut tr, g, &mut rng, &mut probes));
        }
    }
    extra.push(("serve.templated_ratio", serve.templated_ratio));
    extra.push(("serve.timeouts", serve.timeouts as f64));
    report(workload, seed, &tr, &passes, &serve, &probes, &extra)
}

fn report(
    workload: &str,
    seed: u64,
    tr: &Tracer,
    passes: &Passes,
    serve: &ServeLayer,
    probes: &Probes,
    extra: &[(&str, f64)],
) -> i32 {
    let (plain, traced) = (&passes.plain, &passes.traced);
    // Determinism self-check: every count of the plain pass against the
    // traced pass.
    let mut nondeterministic = 0;
    for ((name, a), (_, b)) in plain.flat().iter().zip(traced.flat()) {
        if *a != b {
            nondeterministic += 1;
            println!("# NONDETERMINISTIC {name}: plain {a} traced {b}");
        }
    }
    println!(
        "# determinism: {nondeterministic} count(s) differ between the plain and traced passes"
    );
    println!(
        "# probes: {} graph(s) with a singular MNA matrix skipped by the linalg probes",
        probes.singular
    );
    let self_times = tr.self_times();
    println!("# span self times (median ms, count):");
    for (name, v) in &self_times {
        println!("#   {name:<24} {:>12.4} {:>6}", median(v), v.len());
    }
    for (name, value) in plain.flat() {
        println!("# count {name:<34} {value}");
    }
    let sdur = |name: &str| median(&tr.durations(name));
    for (metric, span) in [
        ("instance.restamp_ms", "instance"),
        ("dc.solve_ms", "solve"),
        ("batch.solve_many_ms", "batch.solve_many"),
    ] {
        println!("# layer {metric:<34} {:.6}", sdur(span));
    }
    for (name, value) in extra {
        println!("# layer {name:<34} {value:.6}");
    }
    let mut iters: Vec<f64> = traced.state_iters.iter().map(|&i| i as f64).collect();
    iters.sort_by(f64::total_cmp);
    let batches = probes.delta_batches.max(1) as f64;
    let [stamp, refactor, solve, woodbury] = probes.delta_phases_ms.map(|ms| ms / batches);
    let (alone, batched): (Vec<f64>, Vec<f64>) = probes.transient_pairs.iter().copied().unzip();
    let mut metrics = Vec::new();
    let mut m = |name, value, unit| push(&mut metrics, name, value, unit);
    m("graph.decode_ms", sdur("graph.decode"), "ms");
    m("serve.self_ms", median(&serve.self_ms), "ms");
    m("builder.build_ms", sdur("builder.build"), "ms");
    m("plan.cold_ms", sdur("plan.cold"), "ms");
    m("linalg.ordering_ms", sdur("linalg.ordering"), "ms");
    m("linalg.factor_ms", sdur("linalg.factor"), "ms");
    m("linalg.refactor_ms", sdur("linalg.refactor"), "ms");
    m("linalg.solve_ms", sdur("linalg.solve"), "ms");
    m("linalg.factor_nnz", probes.factor_nnz as f64, "count");
    m("linalg.block_count", probes.block_count as f64, "count");
    // nnz × (8-byte value + 4-byte index): computed, not measured.
    m(
        "linalg.factor_mb_computed",
        probes.factor_nnz as f64 * 12.0 / 1048576.0,
        "MiB",
    );
    m("dc.state_iters_p50", percentile(&iters, 50.0), "count");
    m(
        "dc.state_iters_max",
        iters.last().copied().unwrap_or(0.0),
        "count",
    );
    m("dc.state_iters_total", iters.iter().sum(), "count");
    m("dc.refinements_total", traced.refinements as f64, "count");
    m("delta.apply_ms", sdur("delta.apply"), "ms");
    m("delta.phase_stamp_ms", stamp, "ms");
    m("delta.phase_refactor_ms", refactor, "ms");
    m("delta.phase_solve_ms", solve, "ms");
    m("delta.phase_woodbury_ms", woodbury, "ms");
    m(
        "delta.consolidations",
        (traced.consolidations + probes.consolidations) as f64,
        "count",
    );
    m(
        "delta.replans",
        (traced.replans + probes.replans) as f64,
        "count",
    );
    m(
        "delta.rank_mean",
        probes.delta_ranks.iter().sum::<f64>() / batches,
        "count",
    );
    m("transient.solve_ms", median(&alone), "ms");
    m(
        "transient.steps_total",
        probes.transient_steps as f64,
        "count",
    );
    m(
        "batch.speedup",
        inputs::TRANSIENT_BATCH as f64 * median(&alone) / median(&batched),
        "ratio",
    );
    m(
        "transient.sim_convergence_ns",
        median(&probes.convergence_ns),
        "ns",
    );
    m("cpu.push_relabel_ms", sdur("maxflow.push_relabel"), "ms");
    m("answer.inproc_ms", sdur("request"), "ms");
    m("proc.cpu_busy_ratio", serve.busy_ratio, "ratio");
    m(
        "trace.overhead_ratio",
        passes.traced_wall / passes.plain_wall,
        "ratio",
    );
    for m in &metrics {
        println!("# {:<30} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let path = std::path::Path::new("servebench/traces").join(format!("{workload}-{seed}.jsonl"));
    match tr.write_jsonl(&path) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# spans not written ({e})"),
    }
    let attempted = traced.state_iters.len();
    let failed = attempted - traced.outcomes.get("correct").copied().unwrap_or(0) as usize;
    crate::print_result(
        nondeterministic == 0 && attempted > 0,
        attempted.max(1),
        failed,
        &metrics,
    );
    0
}
