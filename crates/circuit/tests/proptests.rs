//! Property-based tests for the circuit simulator: random passive ladder
//! networks must satisfy basic circuit laws.

use proptest::prelude::*;

use ohmflow_circuit::{Circuit, DcSolver, DiodeModel, SourceValue};

/// A random resistive ladder from a 1 V source to ground.
fn arb_ladder() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(10.0..10_000.0f64, 2..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ladder_voltages_are_monotone_and_bounded(rs in arb_ladder()) {
        // v_src --R0-- n1 --R1-- n2 ... --Rk-- gnd
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        let src = ckt.voltage_source(top, Circuit::GROUND, SourceValue::dc(1.0));
        let mut prev = top;
        let mut nodes = Vec::new();
        for (i, &r) in rs.iter().enumerate() {
            let nxt = if i + 1 == rs.len() {
                Circuit::GROUND
            } else {
                ckt.node(format!("n{i}"))
            };
            ckt.resistor(prev, nxt, r);
            if !nxt.is_ground() {
                nodes.push(nxt);
            }
            prev = nxt;
        }
        let sol = DcSolver::new().solve(&ckt, None).unwrap().0;
        // Voltages decrease monotonically along the ladder and stay in [0,1].
        let mut last = 1.0f64;
        for n in nodes {
            let v = sol.voltage(n);
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v), "v={v}");
            prop_assert!(v <= last + 1e-9, "not monotone: {v} after {last}");
            last = v;
        }
        // Source current equals 1 V over the series total (Ohm's law).
        let total: f64 = rs.iter().sum();
        let i = sol.source_current(src).unwrap();
        prop_assert!((i - 1.0 / total).abs() < 1e-9 * (1.0 + 1.0 / total));
    }

    #[test]
    fn superposition_holds_for_two_sources(
        r1 in 100.0..10_000.0f64,
        r2 in 100.0..10_000.0f64,
        r3 in 100.0..10_000.0f64,
        v1 in -5.0..5.0f64,
        v2 in -5.0..5.0f64,
    ) {
        // Classic two-source divider: superposition must hold exactly for
        // the linear network.
        let solve = |va: f64, vb: f64| {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            let b = ckt.node("b");
            let mid = ckt.node("mid");
            ckt.voltage_source(a, Circuit::GROUND, SourceValue::dc(va));
            ckt.voltage_source(b, Circuit::GROUND, SourceValue::dc(vb));
            ckt.resistor(a, mid, r1);
            ckt.resistor(b, mid, r2);
            ckt.resistor(mid, Circuit::GROUND, r3);
            DcSolver::new().solve(&ckt, None).unwrap().0.voltage(mid)
        };
        let both = solve(v1, v2);
        let only1 = solve(v1, 0.0);
        let only2 = solve(0.0, v2);
        prop_assert!((both - (only1 + only2)).abs() < 1e-9);
    }

    #[test]
    fn diode_clamp_never_violated(drive in 0.0..20.0f64, clamp in 0.1..5.0f64) {
        let mut ckt = Circuit::new();
        let d = ckt.node("drive");
        let x = ckt.node("x");
        let c = ckt.node("clamp");
        ckt.voltage_source(d, Circuit::GROUND, SourceValue::dc(drive));
        ckt.resistor(d, x, 1e3);
        ckt.voltage_source(c, Circuit::GROUND, SourceValue::dc(clamp));
        ckt.diode(x, c, DiodeModel::ideal());
        ckt.diode(Circuit::GROUND, x, DiodeModel::ideal());
        let sol = DcSolver::new().solve(&ckt, None).unwrap().0;
        let v = sol.voltage(x);
        // Within clamp bounds up to the r_on/r divider error.
        prop_assert!(v >= -0.01 && v <= clamp + 0.01, "v={v} clamp={clamp}");
        // When the drive is below the clamp, the node follows the drive.
        if drive < clamp {
            prop_assert!((v - drive).abs() < 0.01, "v={v} drive={drive}");
        }
    }
}
