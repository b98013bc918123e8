//! The crate's one clock: opt-in wall-clock phase attribution for
//! [`SolveReport::phases`](crate::SolveReport::phases) and
//! [`FrozenDcPhases`](crate::FrozenDcPhases). A timer started with timing
//! off reads no clock, so untimed solves pay nothing.

use std::time::Instant;

/// A started phase timer; inert when timing is off.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhaseTimer(Option<Instant>);

impl PhaseTimer {
    /// Starts a timer, reading the clock only when `on`.
    #[inline]
    pub(crate) fn start(on: bool) -> Self {
        PhaseTimer(on.then(Instant::now))
    }

    /// Adds the nanoseconds since [`PhaseTimer::start`] to `acc` (nothing
    /// when timing is off).
    #[inline]
    pub(crate) fn stop(self, acc: &mut u64) {
        if let Some(t0) = self.0 {
            *acc += t0.elapsed().as_nanos() as u64;
        }
    }
}
