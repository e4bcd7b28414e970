//! Switchable scheduling: re-base any DLS technique — pure or adaptive —
//! onto a partially-consumed iteration range, so a live job can change
//! technique at a batch boundary without perturbing the two shared
//! counters that guarantee exactly-once delivery.
//!
//! The types here are the substrate of the `autotune` crate and the
//! `dls-service` AUTO job mode:
//!
//! * [`SchedKind`] — a superset of [`Kind`](crate::Kind) that also names
//!   the adaptive techniques (`AF`, `AWF-B/-C/-D/-E`) and the `AUTO`
//!   meta-mode, with a canonical wire byte (`0–15`) shared by the
//!   service protocol and the durability journal.
//! * [`SwitchableScheduler`] — wraps one active technique and exposes a
//!   uniform `next_size`/`record` interface. [`switch`] re-bases the
//!   active calculator onto the *remaining* range: the wrapper keeps an
//!   **origin** (the global `step`/`scheduled` watermarks at the moment
//!   of the switch) and sizes chunks from a private segment state, while
//!   the caller's global counters keep advancing monotonically.
//! * [`Decision`]/[`SwitchReason`] — one journaled technique switch.
//!
//! ## The re-basing invariant
//!
//! The global counters are *never* rewound or rebased. A switch replaces
//! only the *sizing view*: the new calculator sees a fresh loop of
//! `n - scheduled` iterations, and every size it produces is clamped to
//! the true remainder by the caller exactly as before. Chunk *placement*
//! (`start = scheduled`) stays a pure function of the global counters,
//! so coverage is exactly-once across any switch sequence
//! (`switch_ladder_walk_covers_loop` and
//! `exactly_once_across_switches_every_concrete_kind` below).
//!
//! [`switch`]: SwitchableScheduler::switch

use crate::adaptive::{AfScheduler, AwfScheduler, AwfVariant, WorkerReport};
use crate::chunk::{Chunk, LoopSpec, SchedState};
use crate::technique::{ChunkCalculator, Kind, Technique, WorkerCtx};
use std::fmt;
use std::str::FromStr;

/// A schedulable kind on the service wire: every pure [`Kind`], the
/// stateful adaptive techniques, and the `AUTO` meta-mode (the service
/// picks and re-picks the technique at runtime).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchedKind {
    /// A pure (stateless-formula) technique.
    Fixed(Kind),
    /// Adaptive factoring (stateful).
    Af,
    /// Adaptive weighted factoring, one of the four variants.
    Awf(AwfVariant),
    /// Online technique selection: the service starts at `SS` and
    /// switches along the ladder as measured overhead/imbalance shift.
    Auto,
}

impl SchedKind {
    /// Every concrete kind (excludes `Auto`, which is a mode, not a
    /// calculator): the ten pure kinds, `AF`, and the four AWF variants.
    pub const CONCRETE: [SchedKind; 15] = [
        SchedKind::Fixed(Kind::STATIC),
        SchedKind::Fixed(Kind::SS),
        SchedKind::Fixed(Kind::GSS),
        SchedKind::Fixed(Kind::TSS),
        SchedKind::Fixed(Kind::FAC),
        SchedKind::Fixed(Kind::FAC2),
        SchedKind::Fixed(Kind::TFSS),
        SchedKind::Fixed(Kind::FSC),
        SchedKind::Fixed(Kind::RND),
        SchedKind::Fixed(Kind::WF),
        SchedKind::Af,
        SchedKind::Awf(AwfVariant::B),
        SchedKind::Awf(AwfVariant::C),
        SchedKind::Awf(AwfVariant::D),
        SchedKind::Awf(AwfVariant::E),
    ];

    /// The adaptive kinds the service exposes on the wire.
    pub const ADAPTIVE: [SchedKind; 5] = [
        SchedKind::Af,
        SchedKind::Awf(AwfVariant::B),
        SchedKind::Awf(AwfVariant::C),
        SchedKind::Awf(AwfVariant::D),
        SchedKind::Awf(AwfVariant::E),
    ];

    /// Display name (e.g. `"GSS"`, `"AWF-C"`, `"AUTO"`).
    pub fn name(&self) -> &'static str {
        match self {
            SchedKind::Fixed(k) => k.name(),
            SchedKind::Af => "AF",
            SchedKind::Awf(v) => v.name(),
            SchedKind::Auto => "AUTO",
        }
    }

    /// The canonical wire byte, shared by the service protocol (v3) and
    /// the durability journal. Bytes `0–9` are the pure kinds in
    /// declaration order — identical to the v2 wire and to every
    /// journal ever written — so old journals replay unchanged.
    pub fn to_byte(self) -> u8 {
        match self {
            SchedKind::Fixed(Kind::STATIC) => 0,
            SchedKind::Fixed(Kind::SS) => 1,
            SchedKind::Fixed(Kind::GSS) => 2,
            SchedKind::Fixed(Kind::TSS) => 3,
            SchedKind::Fixed(Kind::FAC) => 4,
            SchedKind::Fixed(Kind::FAC2) => 5,
            SchedKind::Fixed(Kind::TFSS) => 6,
            SchedKind::Fixed(Kind::FSC) => 7,
            SchedKind::Fixed(Kind::RND) => 8,
            SchedKind::Fixed(Kind::WF) => 9,
            SchedKind::Af => 10,
            SchedKind::Awf(AwfVariant::B) => 11,
            SchedKind::Awf(AwfVariant::C) => 12,
            SchedKind::Awf(AwfVariant::D) => 13,
            SchedKind::Awf(AwfVariant::E) => 14,
            SchedKind::Auto => 15,
        }
    }

    /// Decode the canonical wire byte; `None` for anything above 15.
    pub fn from_byte(b: u8) -> Option<SchedKind> {
        Some(match b {
            0 => SchedKind::Fixed(Kind::STATIC),
            1 => SchedKind::Fixed(Kind::SS),
            2 => SchedKind::Fixed(Kind::GSS),
            3 => SchedKind::Fixed(Kind::TSS),
            4 => SchedKind::Fixed(Kind::FAC),
            5 => SchedKind::Fixed(Kind::FAC2),
            6 => SchedKind::Fixed(Kind::TFSS),
            7 => SchedKind::Fixed(Kind::FSC),
            8 => SchedKind::Fixed(Kind::RND),
            9 => SchedKind::Fixed(Kind::WF),
            10 => SchedKind::Af,
            11 => SchedKind::Awf(AwfVariant::B),
            12 => SchedKind::Awf(AwfVariant::C),
            13 => SchedKind::Awf(AwfVariant::D),
            14 => SchedKind::Awf(AwfVariant::E),
            15 => SchedKind::Auto,
            _ => return None,
        })
    }
}

impl From<Kind> for SchedKind {
    fn from(k: Kind) -> Self {
        SchedKind::Fixed(k)
    }
}

impl fmt::Display for SchedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SchedKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "AF" => Ok(SchedKind::Af),
            "AWF-B" | "AWFB" => Ok(SchedKind::Awf(AwfVariant::B)),
            "AWF-C" | "AWFC" => Ok(SchedKind::Awf(AwfVariant::C)),
            "AWF-D" | "AWFD" => Ok(SchedKind::Awf(AwfVariant::D)),
            "AWF-E" | "AWFE" => Ok(SchedKind::Awf(AwfVariant::E)),
            "AUTO" => Ok(SchedKind::Auto),
            other => other.parse::<Kind>().map(SchedKind::Fixed),
        }
    }
}

/// Why the tuner switched technique.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SwitchReason {
    /// Per-chunk scheduling overhead dominates chunk compute time:
    /// move to a coarser-chunked technique.
    Overhead,
    /// Worker latencies are skewed (stragglers): move to a
    /// finer-chunked or adaptive technique.
    Imbalance,
    /// Measurements settled; no pressure either way (informational,
    /// used when the tuner re-asserts the current technique).
    Calm,
    /// Externally requested (tests, admin tooling).
    Manual,
}

impl SwitchReason {
    /// Canonical wire byte (protocol v3 and journal record).
    pub fn to_byte(self) -> u8 {
        match self {
            SwitchReason::Overhead => 0,
            SwitchReason::Imbalance => 1,
            SwitchReason::Calm => 2,
            SwitchReason::Manual => 3,
        }
    }

    /// Decode the canonical wire byte.
    pub fn from_byte(b: u8) -> Option<SwitchReason> {
        Some(match b {
            0 => SwitchReason::Overhead,
            1 => SwitchReason::Imbalance,
            2 => SwitchReason::Calm,
            3 => SwitchReason::Manual,
            _ => return None,
        })
    }

    /// Display name, lower-case (for JSON / trace labels).
    pub fn name(&self) -> &'static str {
        match self {
            SwitchReason::Overhead => "overhead",
            SwitchReason::Imbalance => "imbalance",
            SwitchReason::Calm => "calm",
            SwitchReason::Manual => "manual",
        }
    }
}

/// One technique switch, as journaled and as reported in the decision
/// history of an AUTO job. `step`/`scheduled` are the **global** job
/// watermarks at the moment of the switch (the re-basing origin).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Dense 0-based sequence number within the job.
    pub seq: u32,
    /// Global scheduling step at the switch.
    pub step: u64,
    /// Global scheduled-iterations watermark at the switch.
    pub scheduled: u64,
    /// Technique active before the switch.
    pub from: SchedKind,
    /// Technique active after the switch.
    pub to: SchedKind,
    /// Why the tuner switched.
    pub reason: SwitchReason,
}

/// The active calculator behind a [`SwitchableScheduler`].
#[derive(Clone, Debug)]
enum Inner {
    Pure(Technique),
    Af(Box<AfScheduler>),
    Awf(Box<AwfScheduler>),
}

/// Wraps one active technique — pure or adaptive — behind a uniform
/// sizing interface, and re-bases it onto the remaining range when the
/// technique is switched mid-job.
///
/// The wrapper mirrors, in a private *segment* state, exactly the
/// advances the caller applies to its global counters; the two stay in
/// lockstep because [`next_size`](Self::next_size) both computes and
/// consumes the returned size. See the module docs for the invariant.
#[derive(Clone, Debug)]
pub struct SwitchableScheduler {
    /// The full-job specification (global `n`, `p`, statistics).
    spec: LoopSpec,
    /// Currently active concrete kind (never `Auto`).
    active: SchedKind,
    /// Global watermarks at the last switch (or `START`).
    origin: SchedState,
    /// The remaining-range view the active calculator sizes against.
    seg_spec: LoopSpec,
    /// Segment progress for a pure calculator (`seg_state.scheduled ==
    /// global.scheduled - origin.scheduled`); adaptive inners track
    /// their own equivalent state.
    seg_state: SchedState,
    inner: Inner,
    switches: u32,
}

impl SwitchableScheduler {
    /// New scheduler for `spec`, starting with `kind`. `Auto` resolves
    /// to the ladder's entry technique, [`Kind::SS`] — the service owns
    /// the tuner that will switch away from it.
    pub fn new(spec: LoopSpec, kind: SchedKind) -> Self {
        let active = Self::resolve(kind);
        Self {
            spec,
            active,
            origin: SchedState::START,
            seg_spec: spec,
            seg_state: SchedState::START,
            inner: Self::build_inner(spec, active),
            switches: 0,
        }
    }

    /// Rebuild a scheduler at recovered global watermarks (`origin`),
    /// with `kind` active — used on journal replay. Adaptive
    /// measurement state is not persisted; the restored calculator
    /// starts fresh on the remaining range, which is safe because the
    /// journal replays *granted* chunks verbatim and never re-runs the
    /// sizing formula for past grants.
    pub fn restore(spec: LoopSpec, kind: SchedKind, origin: SchedState, switches: u32) -> Self {
        let active = Self::resolve(kind);
        let seg_spec = Self::segment_spec(spec, origin);
        Self {
            spec,
            active,
            origin,
            seg_spec,
            seg_state: SchedState::START,
            inner: Self::build_inner(seg_spec, active),
            switches,
        }
    }

    fn resolve(kind: SchedKind) -> SchedKind {
        match kind {
            SchedKind::Auto => SchedKind::Fixed(Kind::SS),
            concrete => concrete,
        }
    }

    fn segment_spec(spec: LoopSpec, origin: SchedState) -> LoopSpec {
        let mut seg = spec;
        seg.n_iters = spec.n_iters.saturating_sub(origin.scheduled);
        seg
    }

    fn build_inner(seg_spec: LoopSpec, active: SchedKind) -> Inner {
        match active {
            SchedKind::Fixed(k) => Inner::Pure(Technique::from_kind(k)),
            SchedKind::Af => Inner::Af(Box::new(AfScheduler::new(seg_spec))),
            SchedKind::Awf(v) => Inner::Awf(Box::new(AwfScheduler::new(seg_spec, v))),
            // `resolve` maps Auto away before we get here.
            SchedKind::Auto => Inner::Pure(Technique::ss()),
        }
    }

    /// The concrete kind currently sizing chunks.
    pub fn active(&self) -> SchedKind {
        self.active
    }

    /// How many times the technique has been switched.
    pub fn switch_count(&self) -> u32 {
        self.switches
    }

    /// The full-job specification.
    pub fn spec(&self) -> &LoopSpec {
        &self.spec
    }

    /// Map a service worker id into the calculator's `0..p` slot space.
    fn slot(&self, worker: u32) -> u32 {
        worker.checked_rem(self.spec.n_workers.max(1)).unwrap_or(0)
    }

    /// Compute **and consume** the size of the next chunk for `ctx`,
    /// already clamped to the remaining iterations. Returns 0 once the
    /// loop is exhausted. The caller must advance its global counters
    /// by exactly the returned size (`step += 1`, `scheduled += size`)
    /// — that is the lockstep that keeps the segment view consistent.
    pub fn next_size(&mut self, ctx: WorkerCtx) -> u64 {
        let slot = self.slot(ctx.worker);
        let taken = match &mut self.inner {
            Inner::Pure(t) => {
                let ctx = WorkerCtx { worker: slot, ..ctx };
                let size = t.chunk_size(&self.seg_spec, self.seg_state, ctx);
                self.seg_state.take(&self.seg_spec, size)
            }
            Inner::Af(s) => s.next_chunk(slot),
            Inner::Awf(s) => s.next_chunk(slot),
        };
        taken.map_or(0, |c| c.len)
    }

    /// Feed a completed chunk's measured times into an adaptive inner
    /// (a no-op for pure techniques). `len` is the chunk length;
    /// `compute_ns`/`sched_ns` are execute and scheduling-overhead
    /// times. Times reach the estimators as `f64` nanoseconds, so
    /// values near `u64::MAX` degrade in precision but cannot wrap.
    pub fn record(&mut self, worker: u32, len: u64, compute_ns: u64, sched_ns: u64) {
        let slot = self.slot(worker);
        // The inners only consult `len` (placement is irrelevant to the
        // estimators), so a synthetic chunk is sufficient.
        let chunk = Chunk { start: 0, len, step: 0 };
        match &mut self.inner {
            Inner::Pure(_) => {}
            Inner::Af(s) => s.record(slot, chunk, compute_ns as f64),
            Inner::Awf(s) => s.record(WorkerReport {
                worker: slot,
                chunk,
                compute_time: compute_ns as f64,
                sched_time: sched_ns as f64,
            }),
        }
    }

    /// Switch the active technique, re-basing the new calculator onto
    /// the remaining range. `global` is the caller's current global
    /// counter pair — it becomes the new origin; the counters
    /// themselves are **not** modified (the re-basing invariant).
    pub fn switch(&mut self, to: SchedKind, global: SchedState) {
        let active = Self::resolve(to);
        self.origin = global;
        self.seg_spec = Self::segment_spec(self.spec, global);
        self.seg_state = SchedState::START;
        self.inner = Self::build_inner(self.seg_spec, active);
        self.active = active;
        self.switches = self.switches.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_exactly_once;

    /// Drive a job the way `dls-service` does — global counters outside
    /// the scheduler, switching at the given step boundaries — and
    /// return the granted chunks.
    fn drive(n: u64, p: u32, start: SchedKind, plan: &[(u64, SchedKind)]) -> Vec<Chunk> {
        let spec = LoopSpec::new(n, p);
        let mut s = SwitchableScheduler::new(spec, start);
        let (mut step, mut scheduled) = (0u64, 0u64);
        let mut chunks = Vec::new();
        let mut w = 0u32;
        while scheduled < n {
            let size = s.next_size(WorkerCtx::worker(w)).clamp(1, n - scheduled);
            chunks.push(Chunk { start: scheduled, len: size, step });
            step += 1;
            scheduled += size;
            s.record(w, size, size * 7, 3);
            w = (w + 1) % p;
            if let Some(&(_, to)) = plan.iter().find(|&&(at, _)| at == step) {
                s.switch(to, SchedState { step, scheduled });
            }
            assert!(chunks.len() < 2 * n as usize + 16, "must terminate");
        }
        chunks
    }

    #[test]
    fn byte_mapping_roundtrips_and_rejects() {
        for k in SchedKind::CONCRETE.into_iter().chain([SchedKind::Auto]) {
            assert_eq!(SchedKind::from_byte(k.to_byte()), Some(k));
        }
        // Bytes 0–9 must match the historical pure-kind wire mapping.
        assert_eq!(SchedKind::from_byte(0), Some(SchedKind::Fixed(Kind::STATIC)));
        assert_eq!(SchedKind::from_byte(9), Some(SchedKind::Fixed(Kind::WF)));
        assert_eq!(SchedKind::from_byte(15), Some(SchedKind::Auto));
        for b in 16..=u8::MAX {
            assert_eq!(SchedKind::from_byte(b), None);
        }
    }

    #[test]
    fn reason_bytes_roundtrip() {
        for r in [
            SwitchReason::Overhead,
            SwitchReason::Imbalance,
            SwitchReason::Calm,
            SwitchReason::Manual,
        ] {
            assert_eq!(SwitchReason::from_byte(r.to_byte()), Some(r));
        }
        assert_eq!(SwitchReason::from_byte(4), None);
    }

    #[test]
    fn parse_and_display() {
        for k in SchedKind::CONCRETE.into_iter().chain([SchedKind::Auto]) {
            assert_eq!(k.name().parse::<SchedKind>().unwrap(), k);
        }
        assert_eq!("auto".parse::<SchedKind>().unwrap(), SchedKind::Auto);
        assert_eq!("awf-c".parse::<SchedKind>().unwrap(), SchedKind::Awf(AwfVariant::C));
        assert_eq!("gss".parse::<SchedKind>().unwrap(), SchedKind::Fixed(Kind::GSS));
        assert!("nope".parse::<SchedKind>().is_err());
        assert_eq!(SchedKind::Awf(AwfVariant::D).to_string(), "AWF-D");
    }

    #[test]
    fn no_switch_matches_plain_technique() {
        // With zero switches the wrapper must reproduce the plain
        // calculator's schedule exactly.
        for kind in Kind::ALL {
            let spec = LoopSpec::new(5_000, 4);
            let mut plain = SchedState::START;
            let t = Technique::from_kind(kind);
            let mut s = SwitchableScheduler::new(spec, kind.into());
            let mut w = 0u32;
            loop {
                if plain.exhausted(&spec) {
                    assert_eq!(s.next_size(WorkerCtx::worker(w)), 0);
                    break;
                }
                let raw = t.chunk_size(&spec, plain, WorkerCtx::worker(w));
                let expect = plain.take(&spec, raw).unwrap().len;
                let got = s.next_size(WorkerCtx::worker(w));
                assert_eq!(got, expect, "{kind} diverged at step {}", plain.step);
                w = (w + 1) % 4;
            }
        }
    }

    #[test]
    fn exactly_once_across_switches_every_concrete_kind() {
        // Switch from every concrete kind into every other at an early
        // and a late boundary; coverage must stay exactly-once.
        for from in SchedKind::CONCRETE {
            for to in SchedKind::CONCRETE {
                let chunks = drive(2_048, 4, from, &[(3, to), (9, from)]);
                check_exactly_once(&chunks, 2_048)
                    .unwrap_or_else(|e| panic!("{from}->{to}: {e:?}"));
            }
        }
    }

    #[test]
    fn auto_starts_at_ss() {
        let s = SwitchableScheduler::new(LoopSpec::new(100, 4), SchedKind::Auto);
        assert_eq!(s.active(), SchedKind::Fixed(Kind::SS));
        assert_eq!(s.switch_count(), 0);
    }

    #[test]
    fn switch_ladder_walk_covers_loop() {
        // The tuner's ladder: SS -> GSS -> FAC2 -> AF.
        let plan = [
            (4, SchedKind::Fixed(Kind::GSS)),
            (8, SchedKind::Fixed(Kind::FAC2)),
            (12, SchedKind::Af),
        ];
        let chunks = drive(10_000, 8, SchedKind::Auto, &plan);
        check_exactly_once(&chunks, 10_000).unwrap();
    }

    #[test]
    fn restore_resumes_remaining_range() {
        // Restore at a mid-loop watermark: the scheduler must cover
        // exactly the remainder.
        let spec = LoopSpec::new(1_000, 4);
        let origin = SchedState { step: 7, scheduled: 400 };
        let mut s = SwitchableScheduler::restore(spec, SchedKind::Fixed(Kind::GSS), origin, 2);
        assert_eq!(s.switch_count(), 2);
        let (mut step, mut scheduled) = (origin.step, origin.scheduled);
        let mut chunks = Vec::new();
        while scheduled < 1_000 {
            let size = s.next_size(WorkerCtx::worker(0)).clamp(1, 1_000 - scheduled);
            chunks.push(Chunk { start: scheduled, len: size, step });
            step += 1;
            scheduled += size;
        }
        let total: u64 = chunks.iter().map(|c| c.len).sum();
        assert_eq!(total, 600);
        assert_eq!(chunks.first().unwrap().start, 400);
        assert_eq!(s.next_size(WorkerCtx::worker(0)), 0, "exhausted after remainder");
    }

    #[test]
    fn adaptive_records_shape_future_chunks() {
        // Feeding skewed times into an AF inner must shrink chunks
        // relative to a clean history (sanity that record() reaches the
        // estimator through the wrapper).
        let spec = LoopSpec::new(100_000, 4);
        let chunk_after = |noisy: bool| {
            let mut s = SwitchableScheduler::new(spec, SchedKind::Af);
            let a = s.next_size(WorkerCtx::worker(0));
            s.record(0, a, if noisy { a / 5 } else { a }, 0);
            let b = s.next_size(WorkerCtx::worker(0));
            s.record(0, b, if noisy { b * 3 } else { b }, 0);
            s.next_size(WorkerCtx::worker(0))
        };
        assert!(chunk_after(true) < chunk_after(false));
    }

    #[test]
    fn out_of_range_worker_ids_are_mapped_into_slots() {
        let spec = LoopSpec::new(512, 4);
        let mut s = SwitchableScheduler::new(spec, SchedKind::Awf(AwfVariant::C));
        let mut scheduled = 0u64;
        // Worker ids way past p: slot-mapping keeps the estimators fed.
        for w in [0u32, 1000, 7, 4_294_967_294] {
            let size = s.next_size(WorkerCtx::worker(w)).clamp(1, 512 - scheduled);
            scheduled += size;
            s.record(w, size, size, 1);
        }
        assert!(scheduled > 0);
    }

    #[test]
    fn extreme_n_switches_do_not_wrap() {
        // Near-u64::MAX loops: walk a prefix with switches; counters
        // must stay monotonic and within bounds (mirrors
        // crates/dls/tests/extreme.rs).
        for n in [u64::MAX / 2, u64::MAX - 1] {
            let spec = LoopSpec::new(n, 16);
            let mut s = SwitchableScheduler::new(spec, SchedKind::Auto);
            let (mut step, mut scheduled) = (0u64, 0u64);
            let ladder = [
                SchedKind::Fixed(Kind::GSS),
                SchedKind::Fixed(Kind::FAC2),
                SchedKind::Af,
                SchedKind::Fixed(Kind::SS),
            ];
            for (i, &to) in ladder.iter().enumerate() {
                for _ in 0..64 {
                    let size = s.next_size(WorkerCtx::worker(step as u32 % 16));
                    let size = size.clamp(1, n - scheduled);
                    let prev = scheduled;
                    step += 1;
                    scheduled += size;
                    assert!(scheduled > prev && scheduled <= n, "n={n} i={i}");
                    s.record(step as u32 % 16, size, u64::MAX / 2, u64::MAX / 4);
                }
                s.switch(to, SchedState { step, scheduled });
                assert_eq!(s.active(), to);
            }
            assert_eq!(s.switch_count(), 4);
        }
    }
}
