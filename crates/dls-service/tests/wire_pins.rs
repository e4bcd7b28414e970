//! Byte pins of the wire protocol: the exact payloads of a populated
//! `Stats` reply, a `JobEpoch` with decisions, a weighted `CreateJob`
//! and a `ReportDone`. Round-trip tests cannot see an encoder and a
//! decoder that reorder fields the same way; these can.

use dls::switchable::{Decision, SchedKind, SwitchReason};
use dls::Kind;
use dls_service::protocol::{
    ConnSnapshot, JobSnapshot, JournalTotals, Request, Response, ServiceTotals, StatsSnapshot,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn decision(seq: u32) -> Decision {
    Decision {
        seq,
        step: 0x10 + u64::from(seq),
        scheduled: 0x100 * u64::from(seq + 1),
        from: SchedKind::Fixed(Kind::SS),
        to: SchedKind::Af,
        reason: SwitchReason::Imbalance,
    }
}

/// Decode the pinned bytes back, and check they are what was encoded.
fn pin_response(resp: Response, want: &str) {
    let bytes = resp.encode();
    assert_eq!(hex(&bytes), want);
    assert_eq!(Response::decode(&bytes), Ok(resp));
}

fn pin_request(req: Request, want: &str) {
    let bytes = req.encode();
    assert_eq!(hex(&bytes), want);
    assert_eq!(Request::decode(&bytes), Ok(req));
}

#[test]
fn a_populated_snapshot_is_pinned() {
    let snap = StatsSnapshot {
        uptime_ns: 0x01,
        shutting_down: true,
        totals: ServiceTotals {
            fetches: 0x02,
            chunks_granted: 0x03,
            reclaims: 0x04,
            empty_polls: 0x05,
            jobs_created: 0x06,
            jobs_active: 0x07,
            conns_active: 0x08,
            conns_total: 0x09,
            bytes_in: 0x0a,
            bytes_out: 0x0b,
        },
        journal: JournalTotals {
            enabled: true,
            epoch: 0x0c,
            journal_records: 0x0d,
            journal_bytes: 0x0e,
            fsyncs: 0x0f,
            snapshots: 0x10,
            segments: 0x11,
        },
        jobs: vec![
            JobSnapshot {
                job: 0x12,
                n: 0x13,
                step: 0x14,
                scheduled: 0x15,
                completed: 0x16,
                done: true,
                fetches: 0x17,
                chunks_granted: 0x18,
                reclaims: 0x19,
                empty_polls: 0x1a,
                leases_granted: 0x1b,
                leases_completed: 0x1c,
                leases_reclaimed: 0x1d,
                kind: Some(SchedKind::Af),
                mode: Some(SchedKind::Auto),
                decisions: vec![decision(0), decision(1)],
            },
            JobSnapshot { job: 0x1e, ..Default::default() },
        ],
        conns: vec![
            ConnSnapshot {
                conn: 0x1f,
                worker: 0x20,
                bytes_in: 0x21,
                bytes_out: 0x22,
                requests: 0x23,
                fetches: 0x24,
                chunks: 0x25,
                iterations: 0x26,
                open: true,
            },
            ConnSnapshot { conn: 0x27, worker: u32::MAX, ..Default::default() },
        ],
    };
    pin_response(
        Response::Snapshot(snap),
        "\
        0383010000000000000001020000000000000003000000000000000400000000\
        0000000500000000000000060000000000000007000000000000000800000000\
        00000009000000000000000a000000000000000b00000000000000010c000000\
        0d000000000000000e000000000000000f000000000000001000000000000000\
        1100000000000000020012000000000000001300000000000000140000000000\
        0000150000000000000016000000000000001700000000000000180000000000\
        000019000000000000001a000000000000001b000000000000001c0000000000\
        00001d00000000000000010a0f02000000000010000000000000000001000000\
        000000010a010100000011000000000000000002000000000000010a011e0000\
        0000000000000000000000000000000000000000000000000000000000000000\
        0000000000000000000000000000000000000000000000000000000000000000\
        000000000000000000000000000000000000000000000000000000000000ffff\
        000002001f000000000000002000000021000000000000002200000000000000\
        2300000000000000240000000000000025000000000000002600000000000000\
        012700000000000000ffffffff00000000000000000000000000000000000000\
        000000000000000000000000000000000000000000000000000000000000",
    );
}

#[test]
fn a_job_epoch_with_decisions_is_pinned() {
    pin_response(
        Response::JobEpoch {
            job: 4,
            epoch: 2,
            n: 4096,
            scheduled: 100,
            completed: 96,
            done: false,
            kind: SchedKind::Fixed(Kind::GSS),
            decisions: vec![decision(0), decision(1)],
        },
        "\
            0385040000000000000002000000001000000000000064000000000000006000\
            000000000000000202000000000010000000000000000001000000000000010a\
            010100000011000000000000000002000000000000010a01",
    );
}

#[test]
fn a_weighted_create_job_and_a_report_are_pinned() {
    pin_request(
        Request::CreateJob { n: 1 << 40, kind: Kind::WF.into(), weights: vec![0.5, 1.5] },
        "03010000000000010000090200000000000000e03f000000000000f83f",
    );
    pin_request(
        Request::ReportDone { job: 3, leases: vec![0, 1, 0x1234], epoch: 7 },
        "\
        0303030000000000000007000000030000000000000000000100000000000000\
        3412000000000000",
    );
}
