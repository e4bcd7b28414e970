//! The live-only [`LeaseTable`] against the ledger it replaced, and its
//! memory bound.
//!
//! The reference model below is the previous table: one row per lease
//! ever granted, each carrying its settlement state. The table under
//! test keeps a row only while its lease is unsettled, so agreement on
//! every call — `Ok`/`Err`, the returned range, the totals, the live
//! set — is what shows that dropping the settled rows lost nothing a
//! caller can observe.

use resilience::{Lease, LeaseError, LeaseTable};

/// splitmix64 — `resilience` has no dependency on an RNG crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform enough for a test: a value in `0..below`.
    fn below(&mut self, below: u64) -> u64 {
        self.next() % below
    }
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Active,
    Completed,
    Reclaimed,
}

/// A row per lease ever granted, never dropped.
#[derive(Default)]
struct Reference {
    rows: Vec<(Lease, State)>,
}

impl Reference {
    fn grant(&mut self, owner: u32, lo: u64, hi: u64, now: u64) -> u64 {
        let id = self.rows.len() as u64;
        self.rows.push((Lease { id, owner, lo, hi, granted_ns: now }, State::Active));
        id
    }

    fn settle(&mut self, id: u64, to: State) -> Result<Lease, LeaseError> {
        let (lease, state) = self.rows.get_mut(id as usize).ok_or(LeaseError::Unknown(id))?;
        if *state != State::Active {
            return Err(LeaseError::Settled(id));
        }
        *state = to;
        Ok(*lease)
    }

    fn count(&self, s: State) -> u64 {
        self.rows.iter().filter(|(_, state)| *state == s).count() as u64
    }

    fn live(&self) -> Vec<Lease> {
        self.rows.iter().filter(|(_, s)| *s == State::Active).map(|(l, _)| *l).collect()
    }
}

#[test]
fn agrees_with_the_full_ledger_on_random_streams() {
    for seed in 0..64 {
        let mut rng = Rng(seed);
        let mut table = LeaseTable::new();
        let mut model = Reference::default();
        let mut next_lo = 0u64;
        for _ in 0..400 {
            // Ids around the grant counter: live, settled (a double
            // settlement) and never granted all come up.
            let id = rng.below(model.rows.len() as u64 + 3);
            match rng.below(10) {
                0..=3 => {
                    let (owner, len, now) = (rng.below(4) as u32, 1 + rng.below(8), rng.next());
                    assert_eq!(
                        table.grant(owner, next_lo, next_lo + len, now),
                        model.grant(owner, next_lo, next_lo + len, now)
                    );
                    next_lo += len;
                }
                4..=6 => assert_eq!(table.complete(id), model.settle(id, State::Completed)),
                _ => assert_eq!(table.reclaim(id), model.settle(id, State::Reclaimed)),
            }
            assert_eq!(
                table.counts(),
                (
                    model.rows.len() as u64,
                    model.count(State::Completed),
                    model.count(State::Reclaimed)
                )
            );
            assert_eq!(table.len(), model.rows.len() as u64);
            assert_eq!(table.get(id).copied(), model.live().into_iter().find(|l| l.id == id));
        }
        let live = model.live();
        assert_eq!(table.active(None).copied().collect::<Vec<_>>(), live);
        for owner in 0..4 {
            assert_eq!(
                table.active(Some(owner)).copied().collect::<Vec<_>>(),
                live.iter().copied().filter(|l| l.owner == owner).collect::<Vec<_>>()
            );
        }

        let mut image = Vec::new();
        table.serialize_into(&mut image);
        let (back, used) = LeaseTable::deserialize(&image).expect("own image decodes");
        assert_eq!(used, image.len());
        assert_eq!(back, table, "seed {seed}");
    }
}

/// SS with one slow worker: lease 0 stays out while a million leases
/// behind it are granted and settled. State follows the one live lease.
#[test]
fn a_straggler_does_not_pin_settled_rows() {
    const LEASES: u64 = 1_000_000;
    let mut table = LeaseTable::new();
    let straggler = table.grant(0, 0, 1, 0);
    for i in 1..LEASES {
        let id = table.grant(1, i, i + 1, i);
        table.complete(id).expect("fresh lease completes");
    }
    assert_eq!(table.counts(), (LEASES, LEASES - 1, 0));
    assert_eq!(table.active(None).map(|l| l.id).collect::<Vec<_>>(), [straggler]);
    let mut image = Vec::new();
    table.serialize_into(&mut image);
    assert!(image.len() <= 128, "image is {} bytes for one live lease", image.len());
    assert_eq!(table.complete(LEASES / 2), Err(LeaseError::Settled(LEASES / 2)));
    assert_eq!(table.complete(straggler).map(|l| (l.lo, l.hi)), Ok((0, 1)));
}
