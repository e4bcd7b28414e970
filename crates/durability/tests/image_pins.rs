//! Byte pins of a `TechniqueSwitched` journal record and of a snapshot
//! image whose job carries weights, a reclaim pool, decisions and an
//! unsettled lease. Round-trip tests cannot see an encoder and a
//! decoder that reorder fields the same way; these can.

use dls::switchable::{Decision, SchedKind, SwitchReason};
use durability::{GrantEntry, JournalRecord, RecoveredState};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn switch(seq: u32) -> JournalRecord {
    JournalRecord::TechniqueSwitched {
        job: 2,
        decision: Decision {
            seq,
            step: 0x0a + u64::from(seq),
            scheduled: 0x0300 + u64::from(seq),
            from: dls::Kind::SS.into(),
            to: if seq == 0 { dls::Kind::GSS.into() } else { SchedKind::Af },
            reason: SwitchReason::Overhead,
        },
    }
}

#[test]
fn a_technique_switch_record_is_pinned() {
    let rec = switch(0);
    let bytes = rec.encode();
    assert_eq!(hex(&bytes), "080200000000000000000000000a000000000000000003000000000000010200");
    assert_eq!(JournalRecord::decode(&bytes), Some(rec));
}

#[test]
fn a_populated_image_is_pinned() {
    let grant = |lease, worker, lo, hi, from_pool| GrantEntry { lease, worker, lo, hi, from_pool };
    let records = [
        JournalRecord::ServerStart { epoch: 3 },
        JournalRecord::JobCreated {
            job: 2,
            n: 1000,
            kind: SchedKind::Auto,
            weights: vec![1.0, 0.5, 2.25],
        },
        JournalRecord::Granted {
            job: 2,
            step: 3,
            scheduled: 0x0300,
            grants: vec![
                grant(0, 0, 0, 0x0100, false),
                grant(1, 1, 0x0100, 0x0200, false),
                grant(2, 2, 0x0200, 0x0300, false),
            ],
        },
        JournalRecord::Settled { job: 2, leases: vec![0] },
        JournalRecord::Reclaimed { job: 2, leases: vec![1] },
        switch(0),
        switch(1),
    ];
    let mut st = RecoveredState::new();
    for rec in &records {
        st.apply(rec).unwrap();
    }
    let bytes = st.serialize();
    assert_eq!(
        hex(&bytes),
        "\
        0300000000030000000000000001000000000000000200000000000000e80300\
        00000000000f03000000000000000000f03f000000000000e03f000000000000\
        0240030000000000000000030000000000000001000000000000000100000000\
        0000000001000000000000000200000000000002000000000000000a00000000\
        0000000003000000000000010200010000000b00000000000000010300000000\
        0000010a00030000000000000001000000000000000100000000000000010000\
        0000000000020000000000000002000000000200000000000000030000000000\
        000000000000000000"
    );
    assert_eq!(RecoveredState::deserialize(&bytes).map(|back| back.serialize()), Some(bytes));
}
