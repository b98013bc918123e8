//! Microprofile of the incremental frozen-DC engine: where a relaxation
//! time step spends its nanoseconds, and the session's effort counters;
//! then the plan-hit operating point on vision-shaped graphs: work counts
//! and per-phase times per answer.
//!
//! Run with: `cargo run --release -p ohmflow-bench --bin engine_profile`

use std::time::Instant;

use ohmflow::builder::{build, BuildOptions, CapacityMapping, Drive, NegativeResistorImpl};
use ohmflow::solver::RelaxationEngine;
use ohmflow::{MaxFlowSolver, SolveOptions};
use ohmflow::{SubstrateParams, SubstrateTemplate};
use ohmflow_bench::median_ns;
use ohmflow_circuit::{DcSolver, DcTemplate, LuOptions};
use ohmflow_graph::{generators, FlowNetwork};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let g = generators::fig15a(100);
    let mut params = SubstrateParams::with_gbw(10e9);
    params.v_flow = 50.0 * params.v_dd;
    let mut bo = BuildOptions::evaluation(&params);
    bo.capacity_mapping = CapacityMapping::Exact;
    bo.negative_resistor = NegativeResistorImpl::Ideal;
    bo.parasitics = false;
    bo.drive = Drive::Step;
    let sc = build(&g, &params, &bo).expect("build");
    let ckt = sc.circuit();
    println!(
        "fig15a(100): {} nodes, {} elements, {} diodes, {} unknowns-ish",
        ckt.node_count(),
        ckt.element_count(),
        ckt.diode_count(),
        ckt.node_count() - 1
    );

    // Cold-path phase breakdown. The cold session runs
    // structure + stamp + ordering + symbolic + numeric; the template
    // session reruns only stamp + numeric (shared symbolic plan), so the
    // difference is the amortizable ordering/symbolic share.
    let t_build = median_ns(9, || build(&g, &params, &bo).expect("build"));
    let dcs = DcSolver::new();
    let dc_tpl = DcTemplate::new(ckt, LuOptions::default()).expect("dc template");
    let t_cold = median_ns(9, || dcs.session(ckt, None).expect("session"));
    let t_numeric = median_ns(9, || dcs.session(ckt, Some(&dc_tpl)).expect("session"));
    let t_tpl = median_ns(5, || {
        SubstrateTemplate::new(&g, &params, &bo, LuOptions::default()).expect("template")
    });
    let sub_tpl = SubstrateTemplate::new(&g, &params, &bo, LuOptions::default()).expect("template");
    let t_inst = median_ns(9, || sub_tpl.instantiate(&g).expect("instantiate"));
    println!("--- cold-path phases ---");
    println!("substrate build                 : {t_build:>10.0} ns");
    println!("session cold (sym+numeric)      : {t_cold:>10.0} ns");
    println!("session from template (numeric) : {t_numeric:>10.0} ns");
    println!(
        "  => ordering+symbolic share      : {:>10.0} ns",
        (t_cold - t_numeric).max(0.0)
    );
    println!("substrate template create       : {t_tpl:>10.0} ns");
    println!("template instantiate (values)   : {t_inst:>10.0} ns");

    // Raw session throughput: quiescent steps (skip path) and flip steps.
    let n_diodes = ckt.diode_count();
    let mut session = DcSolver::new()
        .phase_timing(true)
        .session(ckt, None)
        .expect("session");
    let off = vec![false; n_diodes];
    let steps = 20_000;
    let t0 = Instant::now();
    for k in 0..steps {
        session.solve(k as f64 * 1e-9, &off).expect("solve");
    }
    let quiescent_ns = t0.elapsed().as_nanos() as f64 / steps as f64;

    let phases_quiescent = session.phase_times();
    let mut on = vec![false; n_diodes];
    let t0 = Instant::now();
    for k in 0..steps {
        on[k % n_diodes] = !on[k % n_diodes];
        session.solve(k as f64 * 1e-9, &on).expect("solve");
    }
    let flip_ns = t0.elapsed().as_nanos() as f64 / steps as f64;
    println!("session quiescent step : {quiescent_ns:>8.0} ns");
    println!("session flip step      : {flip_ns:>8.0} ns");
    println!("session stats          : {:?}", session.stats());

    // Per-phase attribution of the flip loop (quiescent share subtracted),
    // so a transient regression names its culprit: stamping, the numeric
    // refactorization, the triangular solves or the Woodbury bookkeeping.
    let all = session.phase_times();
    let flips = [
        ("stamp", all.stamp_ns - phases_quiescent.stamp_ns),
        ("refactor", all.refactor_ns - phases_quiescent.refactor_ns),
        ("triangular-solve", all.solve_ns - phases_quiescent.solve_ns),
        (
            "woodbury-apply",
            all.woodbury_ns - phases_quiescent.woodbury_ns,
        ),
    ];
    let accounted: u64 = flips.iter().map(|(_, ns)| ns).sum();
    println!("--- flip-loop phase breakdown ({steps} steps) ---");
    for (label, ns) in flips {
        println!(
            "{label:<17}: {:>9.1} ns/step ({:>4.1}%)",
            ns as f64 / steps as f64,
            100.0 * ns as f64 / accounted.max(1) as f64
        );
    }
    println!(
        "accounted          : {:>9.1} of {flip_ns:.1} ns/step",
        accounted as f64 / steps as f64
    );

    // Factorization structure under the production (AMD+BTF) ordering: the
    // fill the flip loop replays every rebase, and the block decomposition
    // that bounds it (the largest block is the irreducible core).
    let sym = dc_tpl.symbolic();
    println!(
        "factor structure   : nnz(L+U) {}  blocks {}  largest block {} of {}",
        sym.pattern_nnz(),
        sym.block_count(),
        sym.largest_block(),
        sym.dim(),
    );

    // End-to-end engine comparison.
    for (label, engine) in [
        ("incremental", RelaxationEngine::Incremental),
        ("full_refactor", RelaxationEngine::FullRefactor),
    ] {
        let mut cfg = SolveOptions::evaluation(10e9);
        cfg.build.capacity_mapping = CapacityMapping::Exact;
        cfg.engine = engine;
        let solver = MaxFlowSolver::new(cfg);
        let reps = 50;
        let t0 = Instant::now();
        let mut value = 0.0;
        for _ in 0..reps {
            value = solver.solve_fresh(&g).expect("solve").value;
        }
        let per = t0.elapsed().as_micros() as f64 / reps as f64;
        println!("{label:<14} : {per:>8.1} µs/solve  (value {value:.3})");
    }

    plan_hit_profile();
}

/// The plan-hit operating point on vision-shaped graphs (square grids of
/// side 3–6, layered DAGs of 2–4 layers of width 2–5) under
/// `SolveOptions::ideal()`: per shape, one plan and `ANSWERS` instances
/// with fresh capacities, reporting per answer the state iterations, the
/// always-on work counts (restamps, refactors, fresh factorizations), the
/// untimed wall time and — from a second, phase-timed pass over the same
/// capacities — the stamp / refactor / triangular-solve split, with the
/// unattributed rest (state updates, instantiation, readout).
fn plan_hit_profile() {
    const ANSWERS: usize = 200;
    let mut shapes: Vec<(String, FlowNetwork)> = (3..=6)
        .map(|side| {
            let g = generators::grid(side, side, 100, side as u64).expect("grid");
            (format!("grid{side}"), g)
        })
        .collect();
    for layers in 2..=4 {
        for width in 2..=5 {
            let g = generators::layered(layers, width, 100, (layers * 10 + width) as u64)
                .expect("layered");
            shapes.push((format!("layered{layers}x{width}"), g));
        }
    }
    println!("--- plan-hit operating point, per answer ({ANSWERS} answers per shape) ---");
    println!(
        "{:<12} {:>5} {:>6} {:>8} {:>9} {:>5} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "shape",
        "n",
        "iters",
        "restamps",
        "refactors",
        "facts",
        "wall_us",
        "stamp_us",
        "refac_us",
        "solve_us",
        "other_us"
    );
    for (name, g) in &shapes {
        let mut rng = StdRng::seed_from_u64(7);
        let variants: Vec<FlowNetwork> = (0..ANSWERS)
            .map(|_| {
                let mut h =
                    FlowNetwork::new(g.vertex_count(), g.source(), g.sink()).expect("endpoints");
                for e in g.edges() {
                    h.add_edge(e.from, e.to, rng.gen_range(1..=100))
                        .expect("edge");
                }
                h
            })
            .collect();
        let untimed = MaxFlowSolver::new(SolveOptions::ideal());
        let plan = untimed.plan(g).expect("plan");
        let n = plan
            .instance(g)
            .expect("instance")
            .substrate()
            .dc_template()
            .expect("plan instances carry their DC template")
            .structure()
            .n_unknowns();
        let (mut iters, mut restamps, mut refactors, mut facts) = (0, 0, 0, 0);
        let t0 = Instant::now();
        for h in &variants {
            let r = plan
                .instance(h)
                .expect("instance")
                .solve()
                .expect("solve")
                .report;
            iters += r.iterations;
            restamps += r.restamps;
            refactors += r.refactors;
            facts += r.factorizations;
        }
        let wall_us = t0.elapsed().as_secs_f64() * 1e6 / ANSWERS as f64;
        let timed = MaxFlowSolver::new(SolveOptions::ideal().with_phase_timing(true));
        let plan = timed.plan(g).expect("plan");
        let (mut stamp, mut refactor, mut solve) = (0u64, 0u64, 0u64);
        let t0 = Instant::now();
        for h in &variants {
            let p = plan
                .instance(h)
                .expect("instance")
                .solve()
                .expect("solve")
                .report
                .phases
                .expect("phase timing on");
            stamp += p.stamp_ns;
            refactor += p.refactor_ns;
            solve += p.solve_ns;
        }
        let timed_us = t0.elapsed().as_secs_f64() * 1e6 / ANSWERS as f64;
        let per = |ns: u64| ns as f64 / 1e3 / ANSWERS as f64;
        let per_count = |c: usize| c as f64 / ANSWERS as f64;
        println!(
            "{name:<12} {n:>5} {:>6.2} {:>8.2} {:>9.2} {:>5.2} {wall_us:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            per_count(iters),
            per_count(restamps),
            per_count(refactors),
            per_count(facts),
            per(stamp),
            per(refactor),
            per(solve),
            timed_us - per(stamp + refactor + solve),
        );
    }
}
