//! Crash-recovery semantics across every stock protocol.
//!
//! The chaos experiments crash stations mid-execution; these tests pin the
//! contract of `Recoverable::crash_amnesia` (volatile state resets, ROM
//! configuration survives) and of snapshot/restore via `clone_box`. States
//! are compared exactly, with each automaton's derived `Eq`.

use nonfifo_protocols::{
    AfekFlush, AlternatingBit, DataLink, GhostInfo, GoBackN, NaiveCycle, Outnumber,
    SelectiveReject, SequenceNumber, SlidingWindow, StabilizingDl,
};

fn all_protocols() -> Vec<Box<dyn DataLink>> {
    vec![
        Box::new(AlternatingBit::new()),
        Box::new(NaiveCycle::new(3)),
        Box::new(SequenceNumber::new()),
        Box::new(SlidingWindow::new(4)),
        Box::new(GoBackN::new(4)),
        Box::new(SelectiveReject::new(4)),
        Box::new(Outnumber::new(5)),
        Box::new(AfekFlush::new()),
        Box::new(StabilizingDl::new()),
    ]
}

/// Push the pair away from its initial state: a few messages over a
/// perfect in-memory "channel", leaving at least one message in flight.
fn perturb(
    tx: &mut nonfifo_protocols::BoxedTransmitter,
    rx: &mut nonfifo_protocols::BoxedReceiver,
) {
    for _ in 0..3u64 {
        if !tx.ready() {
            break;
        }
        tx.on_send_msg(None);
        rx.on_ghost(&GhostInfo::default());
        while let Some(d) = tx.poll_send() {
            rx.on_receive_pkt(d);
        }
        while let Some(a) = rx.poll_send() {
            tx.on_receive_pkt(a);
        }
        while rx.poll_deliver().is_some() {}
        tx.on_tick();
        rx.on_tick();
    }
    // Leave one message pending so the crash hits a non-quiescent station.
    if tx.ready() {
        tx.on_send_msg(None);
    }
}

#[test]
fn amnesia_resets_to_the_initial_fingerprint() {
    for proto in all_protocols() {
        let (fresh_tx, fresh_rx) = proto.make();
        let (mut tx, mut rx) = proto.make();
        perturb(&mut tx, &mut rx);
        assert!(
            !tx.same_state(fresh_tx.as_ref()),
            "{}: perturbation should move the transmitter",
            proto.name()
        );
        tx.crash_amnesia();
        rx.crash_amnesia();
        assert!(
            tx.same_state(fresh_tx.as_ref()),
            "{}: tx amnesia must reach the initial state, got {tx:?}",
            proto.name()
        );
        assert!(
            rx.same_state(fresh_rx.as_ref()),
            "{}: rx amnesia must reach the initial state, got {rx:?}",
            proto.name()
        );
        assert!(
            tx.poll_send().is_none(),
            "{}: no output survives",
            proto.name()
        );
        assert!(
            rx.poll_send().is_none(),
            "{}: no acks survive",
            proto.name()
        );
        assert!(
            rx.poll_deliver().is_none(),
            "{}: no deliveries survive",
            proto.name()
        );
        assert!(
            tx.ready(),
            "{}: a rebooted transmitter is ready",
            proto.name()
        );
    }
}

#[test]
fn amnesia_preserves_rom_configuration() {
    // A rebooted k=3 cycle transmitter still labels mod 3, not mod 2.
    let mut tx = nonfifo_protocols::NaiveCycleTx::new(3);
    use nonfifo_protocols::{Recoverable, Transmitter};
    tx.on_send_msg(None);
    let _ = tx.poll_send();
    tx.crash_amnesia();
    for i in 0..4u64 {
        tx.on_send_msg(None);
        let d = tx.poll_send().expect("data packet");
        assert_eq!(
            u64::from(d.header().index()),
            i % 3,
            "labels still cycle mod 3"
        );
        // Self-ack to advance.
        tx.on_receive_pkt(nonfifo_ioa::Packet::header_only(d.header()));
    }
}

#[test]
fn snapshot_and_restore_round_trips() {
    for proto in all_protocols() {
        let (mut tx, mut rx) = proto.make();
        perturb(&mut tx, &mut rx);
        // Checkpoint with stable storage: clone_box is the snapshot.
        let snap_tx = tx.clone_box();
        let snap_rx = rx.clone_box();
        // More activity, then a crash that restores the checkpoint.
        perturb(&mut tx, &mut rx);
        tx = snap_tx.clone_box();
        rx = snap_rx.clone_box();
        assert!(
            tx.same_state(snap_tx.as_ref()),
            "{}: restore reproduces the checkpointed tx state",
            proto.name()
        );
        assert!(
            rx.same_state(snap_rx.as_ref()),
            "{}: restore reproduces the checkpointed rx state",
            proto.name()
        );
    }
}

#[test]
fn amnesiac_pair_still_makes_progress_together() {
    // Crash BOTH stations, then run the protocol to completion over a
    // perfect channel: a total reboot is a fresh, working protocol.
    for proto in all_protocols() {
        let (mut tx, mut rx) = proto.make();
        perturb(&mut tx, &mut rx);
        tx.crash_amnesia();
        rx.crash_amnesia();
        let mut delivered = 0u64;
        tx.on_send_msg(None);
        rx.on_ghost(&GhostInfo::default());
        for _ in 0..64 {
            while let Some(d) = tx.poll_send() {
                rx.on_receive_pkt(d);
            }
            while rx.poll_deliver().is_some() {
                delivered += 1;
            }
            while let Some(a) = rx.poll_send() {
                tx.on_receive_pkt(a);
            }
            if tx.ready() {
                break;
            }
            tx.on_tick();
        }
        assert_eq!(delivered, 1, "{}: rebooted pair delivers", proto.name());
    }
}
