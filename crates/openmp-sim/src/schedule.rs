//! The `schedule` clause: how a worksharing loop's iterations are
//! carved into dispatch units. The clause type and every size formula
//! are `dls::openmp`'s (the paper's Table 1 lives there, once); this
//! module only turns the team's shared cursor into the state that
//! formula reads.

use dls::openmp::OmpSchedule;
use dls::{LoopSpec, SchedState};

/// Size of the next dispatch from a shared cursor with `remaining`
/// iterations left, in a team of `threads` (dynamic/guided only). No
/// clause reads the scheduling step and none reads more of the loop
/// than what is left of it, so the cursor alone is the state.
pub(crate) fn next_dispatch(schedule: OmpSchedule, remaining: u64, threads: u32) -> u64 {
    schedule.chunk_size(&LoopSpec::new(remaining, threads), SchedState::START).min(remaining)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_dispatch_fixed() {
        let s = OmpSchedule::Dynamic { chunk: 8 };
        assert_eq!(next_dispatch(s, 100, 4), 8);
        assert_eq!(next_dispatch(s, 5, 4), 5);
    }

    #[test]
    fn guided_dispatch_shrinks() {
        let s = OmpSchedule::guided1();
        assert_eq!(next_dispatch(s, 100, 4), 25);
        assert_eq!(next_dispatch(s, 7, 4), 2);
        assert_eq!(next_dispatch(s, 1, 4), 1);
    }

    #[test]
    fn guided_respects_min_chunk() {
        let s = OmpSchedule::Guided { chunk: 10 };
        assert_eq!(next_dispatch(s, 12, 4), 10);
        assert_eq!(next_dispatch(s, 4, 4), 4);
    }
}
