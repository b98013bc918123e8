//! Facade self-consistency: the staged `MaxFlowSolver` / `DcSolver`
//! facade is the one public solve surface (the deprecated shims it
//! replaced were pinned equivalent here at 1e-12 and then deleted), so
//! this suite now pins the facade's own paths against each other at the
//! same tolerance: convenience `solve` vs the explicit
//! plan → instance → solve stages vs the cache-bypassing cold path,
//! batch `solve_many` vs sequential solves, and plan-derived sessions vs
//! cold sessions. Also audits option identity: a solver's plans are
//! built under exactly its own options, never shared with a solver under
//! other factorization options, and a plan built under AMD+BTF can never
//! silently fall back to a differently-ordered fresh factorization.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::sync::Arc;

use ohmflow::solver::facade::{MaxFlowSolver, Problem, SolveOptions};
use ohmflow::DeltaBatch;
use ohmflow_circuit::{ColumnOrdering, DcSolver, DcTemplate, FrozenDcPhases, LuOptions, Precision};
use ohmflow_graph::{generators, FlowNetwork};

/// A random small flow network with a guaranteed source→sink spine plus
/// random chords (same family as the template-agreement suite).
fn random_graph(rng: &mut StdRng) -> FlowNetwork {
    let n = rng.gen_range(4..9);
    let mut g = FlowNetwork::new(n, 0, n - 1).expect("endpoints");
    for v in 0..n - 1 {
        g.add_edge(v, v + 1, rng.gen_range(1..=20)).expect("spine");
    }
    for _ in 0..rng.gen_range(0..2 * n) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            let _ = g.add_edge(a, b, rng.gen_range(1..=20));
        }
    }
    g
}

fn assert_solutions_match(a: &ohmflow::AnalogSolution, b: &ohmflow::AnalogSolution, label: &str) {
    let tol = |r: f64| 1e-12 * r.abs().max(1.0);
    assert!(
        (a.value - b.value).abs() < tol(b.value),
        "{label}: value {} vs {}",
        a.value,
        b.value
    );
    for (e, (x, y)) in a.edge_flows.iter().zip(&b.edge_flows).enumerate() {
        assert!((x - y).abs() < tol(*y), "{label}: edge {e} flow {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The three single-instance paths agree: cache-bypassing
    /// `solve_fresh`, plan-cached `solve` (repeated, so the second round
    /// rides a warm plan) and the explicit plan → instance → solve
    /// stages.
    #[test]
    fn solve_paths_agree(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let solver = MaxFlowSolver::new(SolveOptions::ideal());
        let fresh = solver.solve_fresh(&g).expect("solve_fresh");
        for round in 0..3 {
            let cached = solver.solve(&g).expect("facade solve");
            assert_solutions_match(&cached, &fresh, &format!("solve round {round}"));
        }
        let plan = solver.plan(&g).expect("plan");
        if g.edge_count() >= ohmflow::solver::SMALL_INSTANCE_EDGES {
            prop_assert!(plan.cache_hit(), "the solve rounds must have planned this topology");
        } else {
            // Below the adaptive threshold, one-shot solves deliberately
            // skip plan building — the explicit plan above is the cache's
            // first entry for this topology, and a repeat rides it.
            prop_assert!(
                solver.plan(&g).expect("replan").cache_hit(),
                "explicit plans populate the cache"
            );
        }
        let staged = plan.instance(&g).expect("instance").solve().expect("staged solve");
        assert_solutions_match(&staged, &fresh, "staged");
    }

    /// `MaxFlowSolver::solve_many` vs sequential `solve` on a mixed batch
    /// (repeated topology + a singleton) — the fingerprint-grouped batch
    /// fan-out must be value-identical to one-at-a-time solving.
    #[test]
    fn solve_many_matches_sequential_solve(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = random_graph(&mut rng);
        let mut graphs: Vec<FlowNetwork> = (1..=3)
            .map(|s| base.scaled_capacities(s).expect("scaled"))
            .collect();
        graphs.push(random_graph(&mut rng));
        let solver = MaxFlowSolver::new(SolveOptions::ideal());
        let batch = solver.solve_many(graphs.iter().map(Problem::from));
        prop_assert_eq!(batch.len(), graphs.len());
        let sequential_solver = MaxFlowSolver::new(SolveOptions::ideal());
        for (i, (b, g)) in batch.iter().zip(&graphs).enumerate() {
            let b = b.as_ref().expect("batch member");
            let s = sequential_solver.solve(g).expect("sequential member");
            assert_solutions_match(b, &s, &format!("batch member {i}"));
        }
    }

    /// Frozen-DC flip loop: a plan-derived `Instance::session` vs a cold
    /// `DcSolver::session` on the same circuit, over a deterministic
    /// pseudo-random clamp-toggle walk. The two paths factor the same
    /// matrix with genuinely different pivot sequences (numeric refactor
    /// against the plan's symbolic pattern vs a fresh pivoting
    /// factorization), so the gate is the iterative-refinement accuracy
    /// bound (1e-9), not bitwise path identity.
    #[test]
    fn plan_sessions_match_cold_sessions(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let solver = MaxFlowSolver::new(SolveOptions::ideal());
        let plan = solver.plan(&g).expect("plan");
        let instance = plan.instance(&g).expect("instance");
        let ckt = instance.substrate().circuit();
        let n_diodes = ckt.diode_count();
        assert!(n_diodes > 0, "substrate always carries clamp diodes");

        let mut cold = DcSolver::new().session(ckt, None).expect("cold session");
        let mut planned = instance.session().expect("plan session");
        prop_assert!(planned.report().templated, "plan session must ride the plan");

        let mut on = vec![false; n_diodes];
        let mut lcg = seed | 1;
        for step in 0..40 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let flip = (lcg >> 33) as usize % (n_diodes + 1);
            if flip < n_diodes {
                on[flip] = !on[flip];
            }
            let t = step as f64 * 1e-9;
            // Some random clamp configurations are legitimately singular;
            // both paths must then agree on failing.
            let r_cold = cold.solve(t, &on);
            let r_plan = planned.solve(t, &on);
            prop_assert_eq!(r_cold.is_ok(), r_plan.is_ok(), "step {}", step);
            if r_cold.is_ok() && r_plan.is_ok() {
                for (u, (a, b)) in planned.values().iter().zip(cold.values()).enumerate() {
                    prop_assert!(
                        (a - b).abs() < 1e-9 * b.abs().max(1.0),
                        "step {step} unknown {u}: {a} vs {b}"
                    );
                }
            }
        }
    }
}

/// Transient consistency on the paper's Fig. 5a: the plan-cached solve
/// must agree with the cache-bypassing cold solve in transient mode, and
/// the built-batch fan-out (`solve_many(Built…)`, shared symbolic plan)
/// must agree with singleton `solve_problem(Built…)` calls.
#[test]
fn transient_paths_are_self_consistent() {
    let g = generators::fig5a();
    let mut opts = SolveOptions::evaluation(10e9);
    opts.build.capacity_mapping = ohmflow::builder::CapacityMapping::Exact;
    let solver = MaxFlowSolver::new(opts.clone());

    let cached = solver.solve(&g).expect("cached transient");
    let fresh = solver.solve_fresh(&g).expect("fresh transient");
    assert!((cached.value - fresh.value).abs() < 1e-12 * fresh.value.abs().max(1.0));
    let (tc, tf) = (
        cached.convergence_time.expect("cached settles"),
        fresh.convergence_time.expect("fresh settles"),
    );
    assert!(((tc - tf) / tf).abs() < 1e-12, "settle {tc} vs {tf}");

    // Built-batch: `solve_many(Built…)` (shared symbolic plan) vs
    // member-at-a-time `solve_problem(Built…)` (independent cold paths).
    let build = ohmflow::builder::BuildOptions {
        drive: ohmflow::builder::Drive::Step,
        ..ohmflow::builder::BuildOptions::ideal()
    };
    let scs: Vec<_> = (0..3)
        .map(|_| ohmflow::builder::build(&g, &opts.params, &build).expect("build"))
        .collect();
    let singles: Vec<_> = scs
        .iter()
        .map(|sc| {
            solver
                .solve_problem(Problem::Built {
                    circuit: sc,
                    graph: &g,
                })
                .expect("single built")
        })
        .collect();
    let batch = solver.solve_many(scs.iter().map(|sc| Problem::Built {
        circuit: sc,
        graph: &g,
    }));
    for (i, (s, b)) in singles.iter().zip(&batch).enumerate() {
        let b = b.as_ref().expect("batch built");
        assert!(
            (s.value - b.value).abs() < 1e-12 * s.value.abs().max(1.0),
            "built member {i}: {} vs {}",
            b.value,
            s.value
        );
    }
}

/// Circuit-level consistency: `DcSolver::solve` without a template (cold
/// path inline) vs with one (template fast path) on the substrate circuit
/// of a real instance.
#[test]
fn dc_plan_solve_matches_cold_solve() {
    let g = generators::fig15a(40);
    let solver = MaxFlowSolver::new(SolveOptions::ideal());
    let instance = solver
        .plan(&g)
        .expect("plan")
        .instance(&g)
        .expect("instance");
    let ckt = instance.substrate().circuit();
    let dcs = DcSolver::new();
    let (cold, report) = dcs.solve(ckt, None).expect("cold dc");
    assert!(report.iterations >= 1);
    let dc_tpl = DcTemplate::new(ckt, LuOptions::default()).expect("dc template");
    let (planned, preport) = dcs.solve(ckt, Some(&dc_tpl)).expect("planned dc");
    assert!(preport.templated, "matching plan must ride the template");
    for (u, (a, b)) in planned.values().iter().zip(cold.values()).enumerate() {
        assert!(
            (a - b).abs() < 1e-12 * b.abs().max(1.0),
            "unknown {u}: {a} vs {b}"
        );
    }
}

/// Ordering audit: a plan built under AMD+BTF can never silently fall
/// back to a differently-ordered fresh factorization — neither in the
/// facade's plans, nor in sessions, nor in the cold fallback path of a
/// mismatched template passed to any `DcSolver` entry point (templates
/// remember their options, and a passed template's options win over the
/// solver's).
#[test]
fn amd_btf_plan_never_falls_back_to_another_ordering() {
    let g = generators::fig15a(40);

    let mut opts = SolveOptions::ideal();
    opts.lu.ordering = ColumnOrdering::AmdBtf;
    // The *full* options must reach the plan's symbolic work, not just
    // the ordering: strict partial pivoting is observable through
    // `Plan::lu_options`.
    opts.lu.pivot_threshold = 1.0;
    let solver = MaxFlowSolver::new(opts);
    let plan = solver.plan(&g).expect("plan");
    assert_eq!(
        plan.lu_options().pivot_threshold,
        1.0,
        "pivoting thresholds must flow into the plan's factorization"
    );
    let report = plan.report();
    assert_eq!(report.ordering, ColumnOrdering::AmdBtf);
    assert!(
        report.block_count > 1,
        "AMD+BTF on fig15a(40) must decompose into blocks, got {}",
        report.block_count
    );

    // Sessions derived from the instance inherit the plan's ordering.
    let instance = plan.instance(&g).expect("instance");
    let session = instance.session().expect("session");
    let sreport = session.report();
    assert!(sreport.templated, "plan-derived session must ride the plan");
    assert_eq!(sreport.block_count, report.block_count);

    // A Natural-ordered solver on the same circuit shows the observable
    // actually discriminates (one monolithic block).
    let ckt = instance.substrate().circuit();
    let natural_dcs = DcSolver::new().lu_options(LuOptions {
        ordering: ColumnOrdering::Natural,
        ..LuOptions::default()
    });
    let (_, natural) = natural_dcs.solve(ckt, None).expect("natural solve");
    assert_eq!(natural.block_count, 1, "natural order has no BTF blocks");

    // Circuit-level: a template that does NOT match the solved circuit
    // falls back to a fresh factorization — which must still run under
    // the template's own AMD+BTF options, not the solver's. The solver
    // here is the Natural-ordered one, so every BTF block count below
    // proves the template's options won.
    // A genuinely different structure (fig15a only varies capacities on
    // the same diamond, so a layered graph is used for the mismatch).
    let g_other = generators::layered(3, 2, 5, 1).expect("layered");
    let other = solver
        .plan(&g_other)
        .expect("plan other")
        .instance(&g_other)
        .expect("instance other");
    let dc_tpl = DcTemplate::new(
        ckt,
        LuOptions {
            ordering: ColumnOrdering::AmdBtf,
            ..LuOptions::default()
        },
    )
    .expect("dc template");
    assert_eq!(dc_tpl.lu_options().ordering, ColumnOrdering::AmdBtf);
    let mismatched = other.substrate().circuit();
    assert!(!dc_tpl.matches(mismatched));
    let (fb_sol, fallback) = natural_dcs
        .solve(mismatched, Some(&dc_tpl))
        .expect("fallback solve");
    assert!(!fallback.templated, "mismatch must fall back cold");
    assert!(
        fallback.block_count > 1,
        "cold fallback kept the plan's AMD+BTF ordering (blocks {})",
        fallback.block_count
    );
    let (_, fb_at) = natural_dcs
        .solve_at(mismatched, Some(&dc_tpl), 1.0)
        .expect("fallback solve_at");
    let (_, fb_warm) = natural_dcs
        .solve_warm(mismatched, Some(&dc_tpl), fb_sol.device_states())
        .expect("fallback solve_warm");
    for (entry, r) in [("solve_at", fb_at), ("solve_warm", fb_warm)] {
        assert!(!r.templated, "{entry}: mismatch must fall back cold");
        assert!(
            r.block_count > 1,
            "{entry}: cold fallback kept the template's AMD+BTF ordering (blocks {})",
            r.block_count
        );
    }
    let fb_session = natural_dcs
        .session(mismatched, Some(&dc_tpl))
        .expect("fallback session");
    let fb_report = fb_session.report();
    assert!(!fb_report.templated);
    assert!(
        fb_report.block_count > 1,
        "fallback session kept the plan's AMD+BTF ordering (blocks {})",
        fb_report.block_count
    );
}

/// Phase timing reaches every session kind through the options record:
/// `SolveOptions::phase_timing` → `DcSolver::phase_timing` → the frozen-DC
/// session behind `Instance::session` and behind a `DeltaSession`, both
/// after a value-only capacity batch and after a batch that re-keys the
/// plan (the re-key builds a new session). With timing off, no session
/// reports phases.
#[test]
fn phase_timing_reaches_sessions() {
    let g = generators::fig5a();
    for on in [true, false] {
        let check = |phases: Option<FrozenDcPhases>, what: &str| match phases {
            Some(p) => assert!(on && p.total_ns() > 0, "{what}: phases {p:?}, timing {on}"),
            None => assert!(!on, "{what}: timing on but no phases reported"),
        };
        let solver = MaxFlowSolver::new(SolveOptions::ideal().with_phase_timing(on));
        let instance = solver
            .plan(&g)
            .expect("plan")
            .instance(&g)
            .expect("instance");
        let n_diodes = instance.substrate().circuit().diode_count();
        let mut session = instance.session().expect("session");
        session
            .solve(0.0, &vec![false; n_diodes])
            .expect("session solve");
        check(session.report().phases, "instance session");

        let mut delta = solver.delta_session(&g).expect("delta session");
        let report = delta
            .apply_deltas(&DeltaBatch::new().set_capacity(0, 5))
            .expect("capacity batch");
        assert!(!report.replanned, "a capacity batch stays value-only");
        check(delta.report().phases, "delta session, capacity batch");
        let report = delta
            .apply_deltas(&DeltaBatch::new().insert_edge(1, 3, 3))
            .expect("replan batch");
        assert!(report.replanned, "a novel endpoint pair must re-key");
        check(delta.report().phases, "delta session, replan batch");
    }
}

/// A plan-hit operating point pays numeric work only: every state
/// iteration restamps the plan's base matrix in place and refactors it,
/// and no fresh factorization happens — the counts are always on. With
/// `SolveOptions::phase_timing` the same answer also carries its
/// per-phase times.
#[test]
fn plan_hit_solve_reports_no_fresh_factorization() {
    for (g, capacities) in [
        (generators::grid(5, 5, 100, 3).expect("grid"), 7),
        (generators::layered(3, 4, 100, 5).expect("layered"), 11),
    ] {
        for on in [false, true] {
            let solver = MaxFlowSolver::new(SolveOptions::ideal().with_phase_timing(on));
            let plan = solver.plan(&g).expect("plan");
            let mut recapped =
                FlowNetwork::new(g.vertex_count(), g.source(), g.sink()).expect("endpoints");
            for (k, e) in g.edges().iter().enumerate() {
                let cap = 1 + (k as i64 * capacities) % 97;
                recapped.add_edge(e.from, e.to, cap).expect("edge");
            }
            for graph in [&g, &recapped, &recapped] {
                let report = plan
                    .instance(graph)
                    .expect("instance")
                    .solve()
                    .expect("solve")
                    .report;
                assert!(report.templated, "{report:?}");
                assert_eq!(report.factorizations, 0, "{report:?}");
                assert!(report.restamps >= 1, "{report:?}");
                assert_eq!(report.refactors, report.restamps, "{report:?}");
                match report.phases {
                    Some(p) => assert!(on && p.stamp_ns > 0 && p.refactor_ns > 0, "{p:?}"),
                    None => assert!(!on, "timing on but no phases reported"),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mixed precision is transparent at the DC level: an
    /// `F32Refined`-configured solver (f32 factor values, f64 iterative
    /// refinement) must land within 1e-9 of the full-f64 solver on the
    /// same circuits — the accuracy gate the refinement loop exists to
    /// meet.
    #[test]
    fn f32_refined_solve_matches_f64_within_1e9(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let f64_solver = MaxFlowSolver::new(SolveOptions::ideal());
        let f32_solver = MaxFlowSolver::new(
            SolveOptions::ideal().with_precision(Precision::F32Refined),
        );
        let a = f64_solver.solve_fresh(&g).expect("f64 solve");
        let b = f32_solver.solve_fresh(&g).expect("f32refined solve");
        let tol = |r: f64| 1e-9 * r.abs().max(1.0);
        prop_assert!(
            (a.value - b.value).abs() < tol(a.value),
            "flow value {} vs {}", b.value, a.value
        );
        for (e, (x, y)) in b.edge_flows.iter().zip(&a.edge_flows).enumerate() {
            prop_assert!((x - y).abs() < tol(*y), "edge {e} flow {x} vs {y}");
        }
    }
}

/// Precision is part of a plan's identity: an `F32Refined` solver can
/// never be handed an f64 template (or vice versa) for the same topology.
/// The template key is topology-only, so the two plans share a key but
/// not a template, and each carries its own solver's precision.
#[test]
fn template_key_separates_precisions() {
    let g = generators::fig15a(12);
    let plan_under = |precision| {
        MaxFlowSolver::new(SolveOptions::ideal().with_precision(precision))
            .plan(&g)
            .expect("plan")
    };
    let f64_plan = plan_under(Precision::F64);
    let f32_plan = plan_under(Precision::F32Refined);
    assert_eq!(f64_plan.template().key(), f32_plan.template().key());
    assert!(
        !Arc::ptr_eq(f64_plan.template(), f32_plan.template()),
        "plans differing only in precision must not share a template"
    );
    assert_eq!(f64_plan.lu_options().precision, Precision::F64);
    assert_eq!(f32_plan.lu_options().precision, Precision::F32Refined);
}

/// Plans never cross options: solvers under different factorization
/// options plan the same graph into distinct templates, each built under
/// its own solver's options, while clones of one solver share theirs.
#[test]
fn plans_never_cross_options() {
    let g = generators::fig15a(12);
    let solvers: Vec<MaxFlowSolver> = [
        (ColumnOrdering::AmdBtf, Precision::F64),
        (ColumnOrdering::AmdBtf, Precision::F32Refined),
        (ColumnOrdering::Natural, Precision::F64),
    ]
    .into_iter()
    .map(|(ordering, precision)| {
        MaxFlowSolver::new(
            SolveOptions::ideal()
                .with_ordering(ordering)
                .with_precision(precision),
        )
    })
    .collect();
    let plans: Vec<_> = solvers.iter().map(|s| s.plan(&g).expect("plan")).collect();
    for (i, (solver, plan)) in solvers.iter().zip(&plans).enumerate() {
        assert_eq!(
            plan.lu_options(),
            &solver.options().lu,
            "solver {i}: the plan must be built under its own solver's options"
        );
        for (j, other) in plans.iter().enumerate().skip(i + 1) {
            assert!(
                !Arc::ptr_eq(plan.template(), other.template()),
                "solvers {i} and {j} must not share a template"
            );
        }
        let clone_plan = solver.clone().plan(&g).expect("clone plan");
        assert!(clone_plan.cache_hit(), "solver {i}: clones share one cache");
        assert!(
            Arc::ptr_eq(plan.template(), clone_plan.template()),
            "solver {i}: clones must share the template"
        );
    }
}

/// Options round-trip: a solver rebuilt from another solver's
/// `options()` runs under the same options (the build shape is resolved
/// once, and resolving again changes nothing) and answers bit for bit
/// the same.
#[test]
fn options_round_trip_reproduces_the_solver() {
    let g = generators::fig5a();
    for (label, opts) in [
        ("ideal", SolveOptions::ideal()),
        ("evaluation", SolveOptions::evaluation(10e9)),
        (
            "evaluation_quasi_static",
            SolveOptions::evaluation_quasi_static(10e9),
        ),
    ] {
        let solver = MaxFlowSolver::new(opts);
        let again = MaxFlowSolver::new(solver.options().clone());
        assert_eq!(again.options(), solver.options(), "{label}: options");
        let a = solver.solve_fresh(&g).expect("solve");
        let b = again.solve_fresh(&g).expect("round-tripped solve");
        assert_eq!(a.value.to_bits(), b.value.to_bits(), "{label}: value");
        assert_eq!(
            a.convergence_time.map(f64::to_bits),
            b.convergence_time.map(f64::to_bits),
            "{label}: convergence time"
        );
        for (e, (x, y)) in a.edge_flows.iter().zip(&b.edge_flows).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: edge {e} flow");
        }
    }
}
