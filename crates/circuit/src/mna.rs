//! Modified nodal analysis: unknown indexing, matrix/RHS stamping, and the
//! piecewise-linear device-state (complementarity) iteration shared by DC
//! and transient analyses.
//!
//! Unknowns are ordered as `[node voltages (ground excluded) | branch
//! currents]`, with one branch current per voltage source, VCVS and op-amp.
//! All devices are linear *given* a conduction-state assignment for diodes
//! and a saturation-state assignment for op-amps; analyses iterate those
//! states to a consistent fixed point, which is exact for PWL models (no
//! Newton damping heuristics required).

use ohmflow_linalg::{CscMatrix, CscValuesMut, SparseLu, TripletMatrix};

use crate::circuit::Circuit;
use crate::dc::{FrozenDcPhases, SolveReport};
use crate::element::Element;
use crate::error::CircuitError;
use crate::ids::{ElementId, NodeId};
use crate::timing::PhaseTimer;

/// Conduction/saturation state of one element.
///
/// Diodes use [`DeviceState::Off`] / [`DeviceState::On`]; op-amps use
/// [`DeviceState::Linear`] / [`DeviceState::SatHigh`] / [`DeviceState::SatLow`];
/// all other elements stay [`DeviceState::Stateless`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceState {
    /// Element has no switching state.
    Stateless,
    /// Diode blocking.
    Off,
    /// Diode conducting.
    On,
    /// Op-amp in its linear region.
    Linear,
    /// Op-amp clamped at the high rail.
    SatHigh,
    /// Op-amp clamped at the low rail.
    SatLow,
}

/// How reactive elements are treated during stamping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StampMode {
    /// DC operating point: capacitors open, op-amp poles ignored.
    Dc,
    /// Backward-Euler companion models with step `h`.
    BackwardEuler {
        /// Time step (seconds).
        h: f64,
    },
    /// Trapezoidal companion models with step `h`.
    Trapezoidal {
        /// Time step (seconds).
        h: f64,
    },
}

/// Dynamic history carried between transient steps.
#[derive(Debug, Clone, Default)]
pub(crate) struct History {
    /// Previous solution vector (unknown-indexed).
    pub solution: Vec<f64>,
    /// Previous current through each capacitor, element-indexed
    /// (trapezoidal integration needs it; backward Euler ignores it).
    pub cap_currents: Vec<f64>,
}

/// Unknown indexing for a circuit.
#[derive(Debug, Clone)]
pub struct MnaStructure {
    n_node_unknowns: usize,
    /// Branch-current unknown per element (element-indexed).
    branch: Vec<Option<usize>>,
    n_unknowns: usize,
}

impl MnaStructure {
    /// Builds the unknown map for `ckt`.
    pub fn new(ckt: &Circuit) -> Self {
        let n_node_unknowns = ckt.node_count().saturating_sub(1);
        let mut branch = Vec::with_capacity(ckt.element_count());
        let mut next = n_node_unknowns;
        for e in ckt.elements() {
            if e.has_branch_current() {
                branch.push(Some(next));
                next += 1;
            } else {
                branch.push(None);
            }
        }
        MnaStructure {
            n_node_unknowns,
            branch,
            n_unknowns: next,
        }
    }

    /// Total number of unknowns (node voltages + branch currents).
    pub fn n_unknowns(&self) -> usize {
        self.n_unknowns
    }

    /// Number of node-voltage unknowns.
    pub fn n_node_unknowns(&self) -> usize {
        self.n_node_unknowns
    }

    /// Branch-current unknown of an element, if it has one.
    pub fn branch_unknown(&self, id: ElementId) -> Option<usize> {
        self.branch.get(id.0).copied().flatten()
    }
}

/// A solved operating point (node voltages and branch currents).
#[derive(Debug, Clone)]
pub struct Solution {
    values: Vec<f64>,
    structure: MnaStructure,
}

impl Solution {
    pub(crate) fn new(values: Vec<f64>, structure: MnaStructure) -> Self {
        Solution { values, structure }
    }

    /// Voltage of `node` (0 for ground).
    pub fn voltage(&self, node: NodeId) -> f64 {
        match node.unknown() {
            Some(u) => self.values[u],
            None => 0.0,
        }
    }

    /// Raw branch current unknown of `id` (the current flowing from the
    /// positive terminal *into* the element), if the element has one.
    pub fn branch_current(&self, id: ElementId) -> Option<f64> {
        self.structure.branch_unknown(id).map(|u| self.values[u])
    }

    /// Current delivered by a source-like element *out of* its positive
    /// terminal into the circuit (the negative of [`Solution::branch_current`]).
    ///
    /// This is the `I_flow` readout of Eq. (7a) when applied to `V_flow`.
    pub fn source_current(&self, id: ElementId) -> Option<f64> {
        self.branch_current(id).map(|i| -i)
    }

    /// The raw unknown vector.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Initial state assignment: diodes off, op-amps linear.
pub(crate) fn initial_states(ckt: &Circuit) -> Vec<DeviceState> {
    ckt.elements()
        .iter()
        .map(|e| match e {
            Element::Diode { .. } => DeviceState::Off,
            Element::OpAmp { .. } => DeviceState::Linear,
            _ => DeviceState::Stateless,
        })
        .collect()
}

/// Where one MNA stamping walk ([`stamp_into`]) writes its entries:
/// duplicates at one position are summed by every sink.
pub(crate) trait StampSink {
    /// Adds `value` at `(row, col)`.
    fn add(&mut self, row: usize, col: usize, value: f64);
}

/// The pattern-discovering sink: triplets, compressed afterwards.
impl StampSink for TripletMatrix {
    fn add(&mut self, row: usize, col: usize, value: f64) {
        self.push(row, col, value);
    }
}

/// Stamps the MNA matrix for the given states (one per element, as
/// [`crate::DcSolution::device_states`]) and mode as triplets: the
/// pattern-discovery walk ([`StampedMatrix::assemble`]) and the
/// full-refactor oracle's assembly.
pub fn stamp_matrix(
    ckt: &Circuit,
    st: &MnaStructure,
    states: &[DeviceState],
    mode: StampMode,
) -> TripletMatrix {
    let n = st.n_unknowns;
    let mut m = TripletMatrix::with_capacity(n, n, 4 * ckt.element_count() + n);
    stamp_into(&mut m, ckt, st, states, mode);
    m
}

/// The one MNA matrix stamping walk: every element's stamp for the given
/// states and mode, in element order, into `m`.
pub(crate) fn stamp_into<S: StampSink>(
    m: &mut S,
    ckt: &Circuit,
    st: &MnaStructure,
    states: &[DeviceState],
    mode: StampMode,
) {
    let add = |m: &mut S, r: Option<usize>, c: Option<usize>, v: f64| {
        if let (Some(r), Some(c)) = (r, c) {
            m.add(r, c, v);
        }
    };
    let conductance_stamp = |m: &mut S, a: NodeId, b: NodeId, g: f64| {
        let (ua, ub) = (a.unknown(), b.unknown());
        if let Some(ua) = ua {
            m.add(ua, ua, g);
        }
        if let Some(ub) = ub {
            m.add(ub, ub, g);
        }
        if let (Some(ua), Some(ub)) = (ua, ub) {
            m.add(ua, ub, -g);
            m.add(ub, ua, -g);
        }
    };

    for (idx, e) in ckt.elements().iter().enumerate() {
        let ib = st.branch[idx];
        match e {
            Element::Resistor { a, b, resistance } => {
                conductance_stamp(m, *a, *b, 1.0 / resistance);
            }
            Element::Memristor { a, b, .. } => {
                let r = e
                    .memristance()
                    .expect("invariant: memristor elements carry a memristance");
                conductance_stamp(m, *a, *b, 1.0 / r);
            }
            Element::Capacitor { a, b, capacitance } => match mode {
                StampMode::Dc => {
                    // Open in DC; a tiny conductance keeps otherwise
                    // capacitor-only nodes from floating.
                    conductance_stamp(m, *a, *b, 1e-15);
                }
                StampMode::BackwardEuler { h } => {
                    conductance_stamp(m, *a, *b, capacitance / h);
                }
                StampMode::Trapezoidal { h } => {
                    conductance_stamp(m, *a, *b, 2.0 * capacitance / h);
                }
            },
            Element::VoltageSource { pos, neg, .. } => {
                let ib = ib.expect("invariant: vsource rows were assigned a branch");
                add(m, pos.unknown(), Some(ib), 1.0);
                add(m, neg.unknown(), Some(ib), -1.0);
                add(m, Some(ib), pos.unknown(), 1.0);
                add(m, Some(ib), neg.unknown(), -1.0);
            }
            Element::CurrentSource { .. } => {
                // RHS only.
            }
            Element::Vcvs {
                out_pos,
                out_neg,
                ctrl_pos,
                ctrl_neg,
                gain,
            } => {
                let ib = ib.expect("invariant: vcvs rows were assigned a branch");
                add(m, out_pos.unknown(), Some(ib), 1.0);
                add(m, out_neg.unknown(), Some(ib), -1.0);
                add(m, Some(ib), out_pos.unknown(), 1.0);
                add(m, Some(ib), out_neg.unknown(), -1.0);
                add(m, Some(ib), ctrl_pos.unknown(), -gain);
                add(m, Some(ib), ctrl_neg.unknown(), *gain);
            }
            Element::Diode {
                anode,
                cathode,
                model,
            } => {
                let g = match states[idx] {
                    DeviceState::On => 1.0 / model.r_on,
                    _ => 1.0 / model.r_off,
                };
                conductance_stamp(m, *anode, *cathode, g);
            }
            Element::NegativeResistorDyn { a, magnitude, tau } => {
                let ib = ib.expect("invariant: dynamic negative resistors were assigned a branch");
                // KCL: branch current leaves node a.
                add(m, a.unknown(), Some(ib), 1.0);
                // Branch equation: DC  i + V/Rm = 0;
                // BE  (1 + τ/h) i + V/Rm = (τ/h) i_prev;
                // TRAP (0.5 + τ/h) i + 0.5 V/Rm = (τ/h − 0.5) i_prev − 0.5 V_prev/Rm.
                let g = 1.0 / magnitude;
                match mode {
                    StampMode::Dc => {
                        add(m, Some(ib), Some(ib), 1.0);
                        add(m, Some(ib), a.unknown(), g);
                    }
                    StampMode::BackwardEuler { h } => {
                        add(m, Some(ib), Some(ib), 1.0 + tau / h);
                        add(m, Some(ib), a.unknown(), g);
                    }
                    StampMode::Trapezoidal { h } => {
                        add(m, Some(ib), Some(ib), 0.5 + tau / h);
                        add(m, Some(ib), a.unknown(), 0.5 * g);
                    }
                }
            }
            Element::OpAmp {
                inp,
                inn,
                out,
                model,
            } => {
                let ib = ib.expect("invariant: opamp rows were assigned a branch");
                // Output behaves as a grounded voltage source carrying ib.
                add(m, out.unknown(), Some(ib), 1.0);
                match states[idx] {
                    DeviceState::SatHigh | DeviceState::SatLow => {
                        // v_out = rail (RHS carries the rail value).
                        add(m, Some(ib), out.unknown(), 1.0);
                    }
                    _ => {
                        // Linear region.
                        let (c_out, c_vd) = match mode {
                            StampMode::Dc => (1.0, model.gain),
                            StampMode::BackwardEuler { h } => {
                                let toh = model.time_constant() / h;
                                (1.0 + toh, model.gain)
                            }
                            StampMode::Trapezoidal { h } => {
                                let toh = model.time_constant() / h;
                                (0.5 + toh, 0.5 * model.gain)
                            }
                        };
                        add(m, Some(ib), out.unknown(), c_out);
                        add(m, Some(ib), inp.unknown(), -c_vd);
                        add(m, Some(ib), inn.unknown(), c_vd);
                        if model.r_out > 0.0 {
                            add(m, Some(ib), Some(ib), model.r_out);
                        }
                    }
                }
            }
        }
    }
}

/// An MNA matrix held in a fixed CSC pattern, restamped in place: the
/// pattern is discovered once by triplet assembly, the slot (value index)
/// of each stamp of the walk is resolved once, and every restamp zeroes
/// the values and adds each element's stamp at its remembered slot — no
/// triplets, sort or allocation (SPICE's per-device matrix-element
/// pointers). Device states may change the walk (an op-amp's rail stamp
/// has fewer entries than its linear one); slots past such a change are
/// re-resolved by binary search on the next walk and remembered again.
#[derive(Debug, Clone)]
pub struct StampedMatrix {
    csc: CscMatrix,
    /// Slot of each stamp of the last walk, in walk order (`u32`: half
    /// the bytes a template keeps resident per stamp).
    slots: Vec<u32>,
}

impl StampedMatrix {
    /// Assembles the matrix through triplets, discovering its pattern and
    /// the slot of every stamp of the walk (the triplets are pushed in
    /// walk order).
    pub fn assemble(
        ckt: &Circuit,
        st: &MnaStructure,
        states: &[DeviceState],
        mode: StampMode,
    ) -> Self {
        let (csc, slots) = stamp_matrix(ckt, st, states, mode).to_csc_with_slots();
        let slots = slots
            .into_iter()
            .map(|s| u32::try_from(s).expect("invariant: MNA patterns hold < 2^32 entries"))
            .collect();
        StampedMatrix { csc, slots }
    }

    /// Restamps the values in place over the fixed pattern. Returns
    /// `false` — leaving the values invalid — when a stamp falls outside
    /// the pattern.
    pub fn restamp(
        &mut self,
        ckt: &Circuit,
        st: &MnaStructure,
        states: &[DeviceState],
        mode: StampMode,
    ) -> bool {
        let mut sink = SlotSink {
            values: self.csc.values_mut(),
            slots: &mut self.slots,
            next: 0,
            in_pattern: true,
        };
        sink.values.fill_zero();
        stamp_into(&mut sink, ckt, st, states, mode);
        sink.in_pattern
    }

    /// Restamps in place, or — when a stamp falls outside the pattern —
    /// assembles through triplets once and adopts the new pattern.
    /// Returns whether the pattern was kept.
    pub fn update(
        &mut self,
        ckt: &Circuit,
        st: &MnaStructure,
        states: &[DeviceState],
        mode: StampMode,
    ) -> bool {
        let kept = self.restamp(ckt, st, states, mode);
        if !kept {
            *self = Self::assemble(ckt, st, states, mode);
        }
        kept
    }

    /// The stamped matrix.
    pub fn csc(&self) -> &CscMatrix {
        &self.csc
    }

    /// Bytes held by the pattern, the values and the slots.
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<usize>() * (self.csc.col_ptr().len() + self.csc.nnz())
            + size_of::<f64>() * self.csc.nnz()
            + size_of::<u32>() * self.slots.len()
    }
}

/// The restamp sink of [`StampedMatrix`]: each stamp goes to the slot
/// remembered at its walk position when that slot still holds its
/// `(row, col)`, otherwise to a slot found by binary search (and then
/// remembered).
struct SlotSink<'a> {
    values: CscValuesMut<'a>,
    slots: &'a mut Vec<u32>,
    /// Walk position of the next stamp.
    next: usize,
    in_pattern: bool,
}

impl StampSink for SlotSink<'_> {
    fn add(&mut self, row: usize, col: usize, value: f64) {
        if !self.in_pattern {
            return;
        }
        let slot = match self.slots.get(self.next) {
            Some(&s) if self.values.is_slot(s as usize, row, col) => s as usize,
            remembered => {
                let Some(s) = self.values.slot(row, col) else {
                    self.in_pattern = false;
                    return;
                };
                let short = u32::try_from(s).expect("invariant: MNA patterns hold < 2^32 entries");
                match remembered {
                    Some(_) => self.slots[self.next] = short,
                    None => self.slots.push(short),
                }
                s
            }
        };
        self.values.add(slot, value);
        self.next += 1;
    }
}

/// Stamps the RHS vector for the given states, time and mode.
pub(crate) fn stamp_rhs(
    ckt: &Circuit,
    st: &MnaStructure,
    states: &[DeviceState],
    time: f64,
    mode: StampMode,
    history: Option<&History>,
    dc_pre_step: bool,
) -> Vec<f64> {
    let mut b = Vec::new();
    stamp_rhs_into(&mut b, ckt, st, states, time, mode, history, dc_pre_step);
    b
}

/// [`stamp_rhs`] into a caller-provided buffer, reusing its allocation.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stamp_rhs_into(
    b: &mut Vec<f64>,
    ckt: &Circuit,
    st: &MnaStructure,
    states: &[DeviceState],
    time: f64,
    mode: StampMode,
    history: Option<&History>,
    dc_pre_step: bool,
) {
    b.clear();
    b.resize(st.n_unknowns, 0.0);
    let prev_v = |node: NodeId, h: &History| match node.unknown() {
        Some(u) => h.solution[u],
        None => 0.0,
    };

    for (idx, e) in ckt.elements().iter().enumerate() {
        let ib = st.branch[idx];
        match e {
            Element::VoltageSource { value, .. } => {
                let v = if dc_pre_step {
                    value.dc_value()
                } else {
                    value.value_at(time)
                };
                b[ib.expect("invariant: vsource rows were assigned a branch")] += v;
            }
            Element::CurrentSource { pos, neg, value } => {
                let j = if dc_pre_step {
                    value.dc_value()
                } else {
                    value.value_at(time)
                };
                if let Some(u) = pos.unknown() {
                    b[u] += j;
                }
                if let Some(u) = neg.unknown() {
                    b[u] -= j;
                }
            }
            Element::Capacitor {
                a,
                b: nb,
                capacitance,
            } => {
                if let Some(h) = history {
                    match mode {
                        StampMode::BackwardEuler { h: dt } => {
                            let g = capacitance / dt;
                            let vprev = prev_v(*a, h) - prev_v(*nb, h);
                            if let Some(u) = a.unknown() {
                                b[u] += g * vprev;
                            }
                            if let Some(u) = nb.unknown() {
                                b[u] -= g * vprev;
                            }
                        }
                        StampMode::Trapezoidal { h: dt } => {
                            let g = 2.0 * capacitance / dt;
                            let vprev = prev_v(*a, h) - prev_v(*nb, h);
                            let iprev = h.cap_currents[idx];
                            let inj = g * vprev + iprev;
                            if let Some(u) = a.unknown() {
                                b[u] += inj;
                            }
                            if let Some(u) = nb.unknown() {
                                b[u] -= inj;
                            }
                        }
                        StampMode::Dc => {}
                    }
                }
            }
            Element::Diode { model, .. } if states[idx] == DeviceState::On && model.v_on != 0.0 => {
                let g = 1.0 / model.r_on;
                let (anode, cathode) = e.terminals();
                if let Some(u) = anode.unknown() {
                    b[u] += g * model.v_on;
                }
                if let Some(u) = cathode.unknown() {
                    b[u] -= g * model.v_on;
                }
            }
            Element::NegativeResistorDyn { a, magnitude, tau } => {
                if let Some(hist) = history {
                    let row =
                        ib.expect("invariant: dynamic negative resistors were assigned a branch");
                    let i_prev = hist.solution[row];
                    let v_prev = match a.unknown() {
                        Some(u) => hist.solution[u],
                        None => 0.0,
                    };
                    match mode {
                        StampMode::BackwardEuler { h } => {
                            b[row] += tau / h * i_prev;
                        }
                        StampMode::Trapezoidal { h } => {
                            b[row] += (tau / h - 0.5) * i_prev - 0.5 * v_prev / magnitude;
                        }
                        StampMode::Dc => {}
                    }
                }
            }
            Element::OpAmp {
                inp,
                inn,
                out,
                model,
            } => {
                let row = ib.expect("invariant: opamp rows were assigned a branch");
                match states[idx] {
                    DeviceState::SatHigh => b[row] += model.rails.1,
                    DeviceState::SatLow => b[row] += model.rails.0,
                    _ => {
                        if let Some(h) = history {
                            match mode {
                                StampMode::BackwardEuler { h: dt } => {
                                    let toh = model.time_constant() / dt;
                                    b[row] += toh * prev_v(*out, h);
                                }
                                StampMode::Trapezoidal { h: dt } => {
                                    let toh = model.time_constant() / dt;
                                    let vd_prev = prev_v(*inp, h) - prev_v(*inn, h);
                                    b[row] +=
                                        (toh - 0.5) * prev_v(*out, h) + 0.5 * model.gain * vd_prev;
                                }
                                StampMode::Dc => {}
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Computes the consistent next state of every stateful device from a
/// candidate solution. Returns `(new_states, n_changes)`.
/// Computes consistent next states with an explicit switching band:
/// candidate flips whose
/// boundary violation is within `band` volts are suppressed. Late in a
/// cycling complementarity iteration the band is escalated — near the
/// boundary both states are physically equivalent (zero diode current).
pub(crate) fn next_states_banded(
    ckt: &Circuit,
    st: &MnaStructure,
    states: &[DeviceState],
    x: &[f64],
    band: f64,
) -> (Vec<DeviceState>, usize) {
    let volt = |node: NodeId| match node.unknown() {
        Some(u) => x[u],
        None => 0.0,
    };
    let mut result = states.to_vec();
    let mut changes = 0;
    for (idx, e) in ckt.elements().iter().enumerate() {
        match e {
            Element::Diode {
                anode,
                cathode,
                model,
            } => {
                let vak = volt(*anode) - volt(*cathode);
                // Hysteresis avoids chattering at complementarity
                // boundaries (where the exact solution has zero diode
                // current and both states are physically equivalent).
                let want = match states[idx] {
                    DeviceState::On => vak > model.v_on - band,
                    _ => vak > model.v_on + band,
                };
                let new = if want {
                    DeviceState::On
                } else {
                    DeviceState::Off
                };
                if new != result[idx] {
                    result[idx] = new;
                    changes += 1;
                }
            }
            Element::OpAmp {
                inp,
                inn,
                out,
                model,
                ..
            } => {
                // While linear, saturation is judged on the *actual* output
                // (the pole keeps it small during transients even when the
                // input difference is large); while saturated, the desired
                // open-loop value decides when to re-enter the linear region.
                let desired = model.gain * (volt(*inp) - volt(*inn));
                let vo = volt(*out);
                let new = match states[idx] {
                    DeviceState::SatHigh => {
                        if desired < model.rails.1 {
                            DeviceState::Linear
                        } else {
                            DeviceState::SatHigh
                        }
                    }
                    DeviceState::SatLow => {
                        if desired > model.rails.0 {
                            DeviceState::Linear
                        } else {
                            DeviceState::SatLow
                        }
                    }
                    _ => {
                        if vo > model.rails.1 + 1e-9 {
                            DeviceState::SatHigh
                        } else if vo < model.rails.0 - 1e-9 {
                            DeviceState::SatLow
                        } else {
                            DeviceState::Linear
                        }
                    }
                };
                if new != result[idx] {
                    result[idx] = new;
                    changes += 1;
                }
            }
            _ => {}
        }
        let _ = st;
    }
    (result, changes)
}

/// Maximum state-iteration count before declaring divergence. Scales with
/// the number of switching devices because the substrate's diodes can turn
/// on in long causal chains.
pub(crate) fn max_state_iters(ckt: &Circuit) -> usize {
    200 + 4 * ckt.diode_count()
}

/// f64 iterative refinement of `x` against the stamped system `m x = b`:
/// recompute the residual in f64, solve the correction through `lu`, and
/// apply it, up to `max_steps` times. Stops at the f64 noise floor
/// (residual at machine epsilon relative to `b`) or when the residual
/// stops shrinking — the limiting accuracy of refining with f64
/// residuals, whatever the factor's storage precision. Returns the number
/// of correction steps applied. A failed correction solve simply stops
/// the loop: `x` is never worse than the input.
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine_f64(
    lu: &SparseLu,
    m: &CscMatrix,
    b: &[f64],
    x: &mut [f64],
    work: &mut Vec<f64>,
    r: &mut Vec<f64>,
    dx: &mut Vec<f64>,
    max_steps: usize,
) -> usize {
    use ohmflow_linalg::vecops;
    let bnorm = vecops::norm_inf(b);
    let mut prev = f64::INFINITY;
    let mut steps = 0;
    for _ in 0..max_steps {
        m.mul_vec_into(x, r);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        let rnorm = vecops::norm_inf(r);
        if steps > 0 && (rnorm <= f64::EPSILON * (1.0 + bnorm) || rnorm >= 0.5 * prev) {
            break;
        }
        prev = rnorm;
        if lu.solve_into(r, work, dx).is_err() {
            break;
        }
        vecops::axpy(1.0, dx, x);
        steps += 1;
    }
    steps
}

/// The factorization a PWL solve carries between state iterations (and
/// between calls): the device states it was stamped for, their factor and
/// the stamped matrix.
pub(crate) type FactorCache = Option<(Vec<DeviceState>, SparseLu, StampedMatrix)>;

/// Solves the PWL system at one instant: iterate (factor, solve, restate)
/// until the state assignment is a fixed point. Returns the solution
/// vector together with the number of state iterations it took — the
/// `iterations` field of the facade's `SolveReport`.
///
/// `factor_cache` carries `(states, matrix-lu, stamped matrix)` between
/// calls so an unchanged state assignment reuses the previous
/// factorization, a changed one restamps the cached matrix in place and
/// refactors it, and callers can compute residuals (iterative refinement)
/// against the already-stamped matrix instead of re-stamping it.
/// `report` accumulates the restamp, refactor and fresh-factorization
/// counts, and per-phase times when its `phases` is present.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_pwl(
    ckt: &Circuit,
    st: &MnaStructure,
    states: &mut Vec<DeviceState>,
    time: f64,
    mode: StampMode,
    history: Option<&History>,
    dc_pre_step: bool,
    lu_opts: &crate::LuOptions,
    factor_cache: &mut FactorCache,
    report: &mut SolveReport,
) -> Result<(Vec<f64>, usize), CircuitError> {
    let max_iters = max_state_iters(ckt);
    let mut x = Vec::new();
    // RHS and triangular-solve scratch reused across state iterations (and,
    // via the caller's buffers, across transient time steps): the fixed
    // point loop allocates only when a stamp leaves its pattern.
    let mut b = Vec::new();
    let mut work = Vec::new();
    let mut lu_ws = ohmflow_linalg::LuWorkspace::new();
    // Residual/correction scratch for the narrow-factor refinement below
    // (left empty — never touched — under `Precision::F64`).
    let mut resid = Vec::new();
    let mut dx = Vec::new();
    let timed = report.phases.is_some();
    let mut untimed = FrozenDcPhases::default();
    let phases = match &mut report.phases {
        Some(p) => p,
        None => &mut untimed,
    };
    for iter in 0..max_iters {
        // Escalate the switching band late in the iteration: flips that
        // only fight over nanovolt boundaries are physically meaningless.
        let band = if iter < max_iters / 2 {
            1e-9
        } else if iter < 3 * max_iters / 4 {
            1e-6
        } else {
            1e-3
        };
        let lu_ok = matches!(factor_cache, Some((s, _, _)) if s == states);
        if !lu_ok {
            // A state flip only changes matrix *values* (a diode swaps
            // conductance, an op-amp rail swaps a couple of coefficients),
            // so restamp the cached matrix in place and try the
            // numeric-only refactorization against the cached symbolic
            // pattern first, falling back to a fresh pivoting
            // factorization when the pattern moved or a frozen pivot died.
            let t = PhaseTimer::start(timed);
            let (lu, m) = match factor_cache.take() {
                Some((_, lu, mut m)) => {
                    m.update(ckt, st, states, mode);
                    (Some(lu), m)
                }
                None => (None, StampedMatrix::assemble(ckt, st, states, mode)),
            };
            report.restamps += 1;
            t.stop(&mut phases.stamp_ns);
            let t = PhaseTimer::start(timed);
            let reused =
                lu.and_then(|mut lu| lu.refactor_with(m.csc(), &mut lu_ws).is_ok().then_some(lu));
            let lu = match reused {
                Some(lu) => {
                    report.refactors += 1;
                    lu
                }
                None => {
                    report.factorizations += 1;
                    SparseLu::factor_with(m.csc(), lu_opts)?
                }
            };
            t.stop(&mut phases.refactor_ns);
            *factor_cache = Some((states.clone(), lu, m));
        }
        let (_, lu, m) = factor_cache
            .as_ref()
            .expect("invariant: factor cache is populated before reuse");
        let t = PhaseTimer::start(timed);
        stamp_rhs_into(&mut b, ckt, st, states, time, mode, history, dc_pre_step);
        t.stop(&mut phases.stamp_ns);
        let t = PhaseTimer::start(timed);
        lu.solve_into(&b, &mut work, &mut x)?;
        if lu.symbolic().precision() == ohmflow_linalg::Precision::F32Refined {
            // The device-state decisions below compare voltages against
            // switching thresholds; a bare narrow-factor solve leaves
            // ~1e-7 relative error in them, enough to flip a marginal
            // device differently than the f64 path and converge to a
            // different (or no) fixed point. Refine to f64 quality first.
            refine_f64(lu, m.csc(), &b, &mut x, &mut work, &mut resid, &mut dx, 4);
        }
        t.stop(&mut phases.solve_ns);
        let (new_states, changes) = next_states_banded(ckt, st, states, &x, band);
        if changes == 0 {
            return Ok((x, iter + 1));
        }
        // Late in the iteration, flip only the single most-violated device
        // to break multi-device cycles.
        if iter > max_iters / 2 {
            let volt = |node: crate::ids::NodeId| match node.unknown() {
                Some(u) => x[u],
                None => 0.0,
            };
            let mut best: Option<(usize, f64)> = None;
            for (i, (old, new)) in states.iter().zip(&new_states).enumerate() {
                if old != new {
                    let violation = match &ckt.elements()[i] {
                        Element::Diode {
                            anode,
                            cathode,
                            model,
                        } => (volt(*anode) - volt(*cathode) - model.v_on).abs(),
                        _ => f64::MAX, // op-amp saturation flips take priority
                    };
                    if best.is_none_or(|(_, v)| violation > v) {
                        best = Some((i, violation));
                    }
                }
            }
            if let Some((i, _)) = best {
                states[i] = new_states[i];
            }
        } else {
            *states = new_states;
        }
    }
    // One final consistency check with the widest band: accept if the last
    // solve was consistent up to physically-negligible boundary violations.
    let (_, changes) = next_states_banded(ckt, st, states, &x, 1e-3);
    if changes == 0 {
        Ok((x, max_iters))
    } else {
        Err(CircuitError::StateIterationDiverged {
            time,
            iterations: max_iters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{DiodeModel, MemristorModel, MemristorState, OpAmpModel};
    use crate::source::SourceValue;

    /// One element of every kind; two diodes and two op-amps (one with
    /// an output resistance, which adds a diagonal stamp while linear).
    fn every_kind() -> Circuit {
        let mut ckt = Circuit::new();
        let n: Vec<NodeId> = (0..7).map(|i| ckt.node(format!("n{i}"))).collect();
        let g = Circuit::GROUND;
        ckt.voltage_source(n[0], g, SourceValue::dc(2.0));
        ckt.current_source(n[1], g, SourceValue::dc(1e-3));
        ckt.resistor(n[0], n[1], 1e3);
        ckt.resistor(n[1], n[2], 2.2e3);
        ckt.memristor(n[2], n[3], MemristorModel::table1(), MemristorState::Lrs);
        ckt.capacitor(n[3], g, 1e-12);
        ckt.capacitor(n[1], n[3], 2e-12);
        ckt.vcvs(n[4], g, n[1], n[2], 3.0);
        ckt.diode(n[2], n[4], DiodeModel::ideal());
        ckt.diode(g, n[3], DiodeModel::ideal());
        ckt.negative_resistor_dyn(n[3], 5e3, 1e-9);
        ckt.opamp(n[1], n[4], n[5], OpAmpModel::table1());
        let buffered = OpAmpModel {
            r_out: 50.0,
            ..OpAmpModel::table1()
        };
        ckt.opamp(n[5], g, n[6], buffered);
        ckt.resistor(n[6], n[5], 4.7e3);
        ckt
    }

    const MODES: [StampMode; 3] = [
        StampMode::Dc,
        StampMode::BackwardEuler { h: 1e-9 },
        StampMode::Trapezoidal { h: 1e-9 },
    ];

    /// Every state assignment of `ckt`: each diode On/Off, each op-amp
    /// Linear/SatHigh/SatLow.
    fn every_state(ckt: &Circuit) -> Vec<Vec<DeviceState>> {
        let mut all = vec![initial_states(ckt)];
        for (i, e) in ckt.elements().iter().enumerate() {
            let choices: &[DeviceState] = match e {
                Element::Diode { .. } => &[DeviceState::Off, DeviceState::On],
                Element::OpAmp { .. } => &[
                    DeviceState::Linear,
                    DeviceState::SatHigh,
                    DeviceState::SatLow,
                ],
                _ => continue,
            };
            all = all
                .into_iter()
                .flat_map(|s| {
                    choices.iter().map(move |&c| {
                        let mut s = s.clone();
                        s[i] = c;
                        s
                    })
                })
                .collect();
        }
        all
    }

    /// The other state of the same stamp pattern: diodes flipped, op-amp
    /// rails swapped, linear op-amps kept linear.
    fn same_pattern_partner(states: &[DeviceState]) -> Vec<DeviceState> {
        states
            .iter()
            .map(|s| match s {
                DeviceState::On => DeviceState::Off,
                DeviceState::Off => DeviceState::On,
                DeviceState::SatHigh => DeviceState::SatLow,
                DeviceState::SatLow => DeviceState::SatHigh,
                other => *other,
            })
            .collect()
    }

    /// `a` holds every stored position of `b` with the same value (to
    /// summation-order rounding) and nothing else but explicit zeros.
    fn assert_values_match(a: &CscMatrix, b: &CscMatrix, what: &str) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}");
        for c in 0..a.cols() {
            for (r, v) in b.col(c) {
                let got = a.get(r, c);
                assert!(
                    (got - v).abs() <= 1e-12 * v.abs().max(1.0),
                    "{what}: ({r},{c}) {got} vs {v}"
                );
            }
            for (r, v) in a.col(c) {
                assert!(
                    b.get(r, c) != 0.0 || v == 0.0,
                    "{what}: stray ({r},{c}) {v}"
                );
            }
        }
    }

    #[test]
    fn slot_restamp_equals_triplet_assembly_for_every_state_and_mode() {
        let ckt = every_kind();
        let st = MnaStructure::new(&ckt);
        let states = every_state(&ckt);
        assert_eq!(states.len(), 4 * 9);
        for (k, s) in states.iter().enumerate() {
            for (mi, &mode) in MODES.iter().enumerate() {
                let what = format!("states {s:?} mode {mode:?}");
                let triplet = stamp_matrix(&ckt, &st, s, mode).to_csc();
                // Restamp over a pattern discovered under other values of
                // the same pattern (other diode states, swapped rails,
                // another mode): the pattern is kept exactly.
                let other_mode = MODES[(mi + 1 + k) % 3];
                let partner = same_pattern_partner(s);
                let mut m = StampedMatrix::assemble(&ckt, &st, &partner, other_mode);
                assert!(m.restamp(&ckt, &st, s, mode), "{what}");
                assert_eq!(m.csc().col_ptr(), triplet.col_ptr(), "{what}");
                assert_eq!(m.csc().row_idx(), triplet.row_idx(), "{what}");
                assert_values_match(m.csc(), &triplet, &what);
                // A second restamp through the remembered slots agrees.
                assert!(m.restamp(&ckt, &st, s, mode), "{what}");
                assert_values_match(m.csc(), &triplet, &what);
            }
        }
    }

    #[test]
    fn rail_states_restamp_inside_the_linear_pattern() {
        // The initial (all-linear) pattern holds every rail pattern: a
        // saturated op-amp leaves explicit zeros in its linear slots.
        let ckt = every_kind();
        let st = MnaStructure::new(&ckt);
        let mut m = StampedMatrix::assemble(&ckt, &st, &initial_states(&ckt), StampMode::Dc);
        let pattern = m.csc().row_idx().to_vec();
        for s in every_state(&ckt) {
            for mode in MODES {
                assert!(m.update(&ckt, &st, &s, mode), "{s:?} {mode:?}");
                assert_eq!(m.csc().row_idx(), &pattern[..]);
                let triplet = stamp_matrix(&ckt, &st, &s, mode).to_csc();
                assert_values_match(m.csc(), &triplet, &format!("{s:?} {mode:?}"));
            }
        }
    }

    #[test]
    fn a_stamp_outside_the_pattern_falls_back_to_assembly() {
        // A rail pattern lacks the linear op-amp couplings: restamping a
        // linear op-amp into it must fail, and `update` must adopt the
        // triplet pattern.
        let ckt = every_kind();
        let st = MnaStructure::new(&ckt);
        let mut rails = initial_states(&ckt);
        for (s, e) in rails.iter_mut().zip(ckt.elements()) {
            if matches!(e, Element::OpAmp { .. }) {
                *s = DeviceState::SatHigh;
            }
        }
        let linear = initial_states(&ckt);
        let mut m = StampedMatrix::assemble(&ckt, &st, &rails, StampMode::Dc);
        let rail_nnz = m.csc().nnz();
        assert!(!m.clone().restamp(&ckt, &st, &linear, StampMode::Dc));
        assert!(!m.update(&ckt, &st, &linear, StampMode::Dc));
        let triplet = stamp_matrix(&ckt, &st, &linear, StampMode::Dc).to_csc();
        assert!(triplet.nnz() > rail_nnz);
        assert_eq!(m.csc().row_idx(), triplet.row_idx());
        assert_values_match(m.csc(), &triplet, "adopted pattern");
        // The adopted pattern restamps in place from then on.
        assert!(m.update(&ckt, &st, &rails, StampMode::Dc));
    }
}
