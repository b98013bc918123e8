//! Property-based tests for the circuit simulator: random passive ladder
//! networks must satisfy basic circuit laws.

use proptest::prelude::*;

use ohmflow_circuit::mna::{stamp_matrix, DeviceState, MnaStructure, StampMode, StampedMatrix};
use ohmflow_circuit::{
    Circuit, DcSolver, DiodeModel, Element, MemristorModel, MemristorState, NodeId, OpAmpModel,
    SourceValue,
};

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

/// One element of every kind with the given values (resistances, then
/// capacitances, then the VCVS gain, the dynamic negative resistor's
/// magnitude and the second op-amp's output resistance): two diodes and
/// two op-amps, one of them with an output resistance (a linear-only
/// diagonal stamp).
fn every_kind(r: [f64; 3], c: [f64; 2], gain: f64, neg: f64, r_out: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let n: Vec<NodeId> = (0..7).map(|i| ckt.node(format!("n{i}"))).collect();
    let g = Circuit::GROUND;
    ckt.voltage_source(n[0], g, SourceValue::dc(2.0));
    ckt.current_source(n[1], g, SourceValue::dc(1e-3));
    ckt.resistor(n[0], n[1], r[0]);
    ckt.resistor(n[1], n[2], r[1]);
    ckt.memristor(n[2], n[3], MemristorModel::table1(), MemristorState::Hrs);
    ckt.capacitor(n[3], g, c[0]);
    ckt.capacitor(n[1], n[3], c[1]);
    ckt.vcvs(n[4], g, n[1], n[2], gain);
    ckt.diode(n[2], n[4], DiodeModel::ideal());
    ckt.diode(g, n[3], DiodeModel::ideal());
    ckt.negative_resistor_dyn(n[3], neg, 1e-9);
    ckt.opamp(n[1], n[4], n[5], OpAmpModel::table1());
    ckt.opamp(
        n[5],
        g,
        n[6],
        OpAmpModel {
            r_out,
            ..OpAmpModel::table1()
        },
    );
    ckt.resistor(n[6], n[5], r[2]);
    ckt
}

/// A state assignment drawn from `pick`: each diode On/Off, each op-amp
/// Linear/SatHigh/SatLow.
fn states_from(ckt: &Circuit, pick: &[usize]) -> Vec<DeviceState> {
    let mut k = 0;
    ckt.elements()
        .iter()
        .map(|e| {
            let choices: &[DeviceState] = match e {
                Element::Diode { .. } => &[DeviceState::Off, DeviceState::On],
                Element::OpAmp { .. } => &[
                    DeviceState::Linear,
                    DeviceState::SatHigh,
                    DeviceState::SatLow,
                ],
                _ => return DeviceState::Stateless,
            };
            k += 1;
            choices[pick[k - 1] % choices.len()]
        })
        .collect()
}

fn mode_from(pick: usize, h: f64) -> StampMode {
    match pick % 3 {
        0 => StampMode::Dc,
        1 => StampMode::BackwardEuler { h },
        _ => StampMode::Trapezoidal { h },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Restamping into the slots of a pattern discovered under other
    /// states, mode and values equals the triplet assembly of the target:
    /// the same pattern when the op-amps keep their regions (values to
    /// summation-order rounding), explicit zeros only when a rail state
    /// restamps into a linear pattern, and — when a stamp leaves the
    /// pattern — the triplet pattern adopted by the fallback.
    #[test]
    fn slot_restamp_matches_triplet_assembly(
        r in (10.0..1e5f64, 10.0..1e5f64, 10.0..1e5f64),
        c in (1e-13..1e-9f64, 1e-13..1e-9f64),
        gain in -10.0..10.0f64,
        neg in 1e3..1e5f64,
        r_out in 0.0..100.0f64,
        h in 1e-12..1e-6f64,
        target in proptest::collection::vec(0..6usize, 4..5),
        base in proptest::collection::vec(0..6usize, 4..5),
        modes in (0..3usize, 0..3usize),
        base_r in (10.0..1e5f64, 10.0..1e5f64, 10.0..1e5f64),
    ) {
        // A third of the cases drop the output resistance (no linear-only
        // diagonal stamp).
        let r_out = if r_out < 33.0 { 0.0 } else { r_out };
        let ckt = every_kind([r.0, r.1, r.2], [c.0, c.1], gain, neg, r_out);
        let other = every_kind([base_r.0, base_r.1, base_r.2], [c.1, c.0], -gain, 2.0 * neg, r_out);
        let st = MnaStructure::new(&ckt);
        let (states, base_states) = (states_from(&ckt, &target), states_from(&ckt, &base));
        let (mode, base_mode) = (mode_from(modes.0, h), mode_from(modes.1, 2.0 * h));
        let triplet = stamp_matrix(&ckt, &st, &states, mode).to_csc();
        let base_pattern = stamp_matrix(&other, &st, &base_states, base_mode).to_csc();
        let mut m = StampedMatrix::assemble(&other, &st, &base_states, base_mode);
        prop_assert_eq!(m.csc().row_idx(), base_pattern.row_idx());
        let fits = (0..triplet.cols())
            .all(|col| triplet.col(col).all(|(row, _)| base_pattern.col(col).any(|(r2, _)| r2 == row)));
        let kept = m.update(&ckt, &st, &states, mode);
        prop_assert_eq!(kept, fits);
        let same_regions = states.iter().zip(&base_states).all(|(a, b)| {
            (*a == DeviceState::Linear) == (*b == DeviceState::Linear)
        });
        if same_regions || !kept {
            prop_assert_eq!(m.csc().col_ptr(), triplet.col_ptr());
            prop_assert_eq!(m.csc().row_idx(), triplet.row_idx());
        }
        for col in 0..triplet.cols() {
            for (row, v) in triplet.col(col) {
                let got = m.csc().get(row, col);
                prop_assert!((got - v).abs() <= 1e-12 * v.abs().max(1.0), "({row},{col}) {got} vs {v}");
            }
            for (row, v) in m.csc().col(col) {
                prop_assert!(v == 0.0 || triplet.get(row, col) != 0.0, "stray ({row},{col}) {v}");
            }
        }
    }

    /// The out-of-pattern fallback at solver level: a warm start with the
    /// op-amp railed stamps the rail pattern, the answer is linear, so the
    /// first state change leaves the pattern — reassembly and a second
    /// fresh factorization — and the answer equals the cold solve's.
    #[test]
    fn warm_start_out_of_pattern_fallback_matches_cold(
        r_in in 100.0..1_000.0f64,
        r_f in 100.0..1_000.0f64,
        v in -2.0..2.0f64,
    ) {
        // |gain| <= 10 keeps the output far inside the ±100 V rails.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let sum = ckt.node("sum");
        let out = ckt.node("out");
        ckt.voltage_source(vin, Circuit::GROUND, SourceValue::dc(v));
        ckt.resistor(vin, sum, r_in);
        ckt.resistor(sum, out, r_f);
        ckt.opamp(Circuit::GROUND, sum, out, OpAmpModel::table1());
        let (cold, _) = DcSolver::new().solve(&ckt, None).unwrap();
        prop_assert!(cold.device_states().contains(&DeviceState::Linear));
        let railed: Vec<DeviceState> = cold
            .device_states()
            .iter()
            .map(|s| if *s == DeviceState::Linear { DeviceState::SatLow } else { *s })
            .collect();
        let (sol, report) = DcSolver::new().solve_warm(&ckt, None, &railed).unwrap();
        prop_assert_eq!(report.factorizations, 2);
        prop_assert_eq!(sol.device_states(), cold.device_states());
        for (a, b) in sol.values().iter().zip(cold.values()) {
            prop_assert!((a - b).abs() < 1e-12 * b.abs().max(1.0), "{a} vs {b}");
        }
        let expected = -v * r_f / r_in;
        prop_assert!((sol.voltage(out) - expected).abs() < 1e-3 * (1.0 + expected.abs()));
    }
}
