//! The in-process library paths, shared by the untraced workloads and the
//! traced run: the serving worker's single-job path (decode → plan →
//! instance → solve) and `solve_many` batches. Each call sits in a span of
//! the given tracer; a disabled tracer just runs it.

use std::time::Instant;

use ohmflow::{MaxFlowSolver, Problem};
use ohmflow_graph::{binfmt, dimacs, FlowNetwork};

use crate::inputs::{self, SolveRequest, TransientBatch};
use crate::record::{within, Outcome, Record, IDEAL_TOLERANCE};
use crate::trace::Tracer;

/// Relative tolerance of evaluation-configuration answers against the
/// exact max flow of the quantized instance.
pub const TRANSIENT_TOLERANCE: f64 = 0.01;

/// Decodes a generated request frame body, as the server does.
pub fn decode(req: &SolveRequest) -> FlowNetwork {
    if req.tag == ohmflow_apps::serve::TAG_DIMACS {
        let text = std::str::from_utf8(&req.body).expect("generated DIMACS is UTF-8");
        dimacs::parse(text).expect("generated DIMACS parses")
    } else {
        binfmt::parse_binary(&req.body).expect("generated OFG1 parses")
    }
}

/// Times the exact CPU solver (push-relabel, the paper's baseline) on the
/// request's graph, decoded beforehand: the base of the `*_vs_cpu`
/// metrics. Measured right after the answer it is compared with, so both
/// run under the same host conditions.
pub fn cpu_baseline_s(req: &SolveRequest) -> f64 {
    let g = decode(req);
    let start = Instant::now();
    std::hint::black_box(inputs::exact_value(std::hint::black_box(&g)));
    start.elapsed().as_secs_f64()
}

/// One in-process answer with the counts behind it.
pub struct Answer {
    /// Verdict and latency of the whole call sequence.
    pub record: Record,
    /// Whether `plan` hit the cache (`None` when planning failed).
    pub plan_hit: Option<bool>,
    /// Mixed-precision refinement rounds of the solve.
    pub refinements: u64,
    /// Factor nonzeros behind the answer.
    pub factor_nnz: u64,
}

/// Solves one request through decode → `plan` → `instance` → `solve`
/// under a `request` span, and checks it against its exact value.
pub fn solve(tr: &mut Tracer, solver: &MaxFlowSolver, req: &SolveRequest) -> Answer {
    let start = Instant::now();
    let mut answer = Answer {
        record: Record::transport(0.0, req.shape.class()),
        plan_hit: None,
        refinements: 0,
        factor_nnz: 0,
    };
    answer.record.outcome = tr.span("request", |tr| {
        let g = tr.span("graph.decode", |_| decode(req));
        let plan = match tr.span("plan", |_| solver.plan(&g)) {
            Ok(p) => p,
            Err(e) => return Outcome::from_error(&e.to_string()),
        };
        answer.plan_hit = Some(plan.cache_hit());
        answer.record.templated = true;
        let instance = match tr.span("instance", |_| plan.instance(&g)) {
            Ok(inst) => inst,
            Err(e) => return Outcome::from_error(&e.to_string()),
        };
        match tr.span("solve", |_| instance.solve()) {
            Ok(sol) => {
                answer.refinements = sol.report.refinements as u64;
                answer.factor_nnz = sol.report.factor_nnz as u64;
                answer.record.iterations = sol.report.iterations as u64;
                if within(sol.value, req.exact as f64, IDEAL_TOLERANCE) {
                    Outcome::Correct
                } else {
                    Outcome::WrongAnswer
                }
            }
            Err(e) => Outcome::from_error(&e.to_string()),
        }
    });
    answer.record.latency_s = start.elapsed().as_secs_f64();
    answer
}

/// One member of a `solve_many` batch.
pub struct Member {
    /// Verdict; the latency is the whole batch's.
    pub record: Record,
    /// Refinement rounds of the member's solve.
    pub refinements: u64,
    /// Simulated relaxation settle time (ns), when the member settled.
    pub convergence_ns: Option<f64>,
}

/// Solves one batch through `solve_many` under a `request` span and
/// checks every member against the exact flow of its quantized instance.
pub fn solve_batch(tr: &mut Tracer, solver: &MaxFlowSolver, batch: &TransientBatch) -> Vec<Member> {
    let start = Instant::now();
    let results = tr.span("request", |tr| {
        tr.span("batch.solve_many", |_| {
            solver.solve_many(batch.graphs.iter().map(Problem::Graph))
        })
    });
    let latency_s = start.elapsed().as_secs_f64();
    results
        .iter()
        .zip(&batch.quantized)
        .map(|(result, &exact)| {
            let mut record = Record::transport(latency_s, batch.shape.class());
            let (mut refinements, mut convergence_ns) = (0, None);
            record.outcome = match result {
                Ok(sol) => {
                    record.iterations = sol.report.iterations as u64;
                    record.templated = sol.report.templated;
                    refinements = sol.report.refinements as u64;
                    convergence_ns = sol.convergence_time.map(|t| t * 1e9);
                    if within(sol.value, exact, TRANSIENT_TOLERANCE) {
                        Outcome::Correct
                    } else {
                        Outcome::WrongAnswer
                    }
                }
                Err(e) => Outcome::from_error(&e.to_string()),
            };
            Member {
                record,
                refinements,
                convergence_ns,
            }
        })
        .collect()
}
