//! Bench E1: boundness probing (Theorem 2.1) — forward-simulation oracle
//! cost and randomized schedule exploration per protocol.

use nonfifo_adversary::boundness::{probe, BoundnessProbeConfig};
use nonfifo_adversary::{BoundnessOracle, ExploreConfig, Explorer, System};
use nonfifo_bench::harness::Group;
use nonfifo_protocols::{AlternatingBit, DataLink, NaiveCycle, SequenceNumber};

fn bench_probe() {
    let protocols: Vec<Box<dyn DataLink>> = vec![
        Box::new(AlternatingBit::new()),
        Box::new(NaiveCycle::new(5)),
        Box::new(SequenceNumber::new()),
    ];
    let group = Group::new("boundness_probe");
    for proto in &protocols {
        let cfg = BoundnessProbeConfig::default();
        group.bench(&proto.name(), || probe(proto.as_ref(), &cfg));
    }
}

fn bench_oracle_fork() {
    // The oracle (clone + forward simulate) is the inner loop of every
    // falsifier; measure it in isolation on a loaded system.
    let mut sys = System::new(&SequenceNumber::new());
    for _ in 0..32 {
        sys.send_msg();
        for _ in 0..4 {
            sys.step_park_all();
        }
        assert!(sys.run_to_quiescence(64));
    }
    let oracle = BoundnessOracle::default();
    let group = Group::new("oracle");
    group.bench("extension_on_loaded_system", || {
        oracle.extension_with_new_message(&sys)
    });
}

fn bench_exhaustive_explore() {
    let group = Group::new("exhaustive_explore").samples(3);
    group.bench("abp_counterexample", || {
        let outcome = Explorer::new().explore(&AlternatingBit::new(), &ExploreConfig::default());
        assert!(outcome.is_counterexample());
        outcome
    });
    let cfg = ExploreConfig {
        max_messages: 3,
        max_depth: 12,
        max_pool: 5,
        max_states: 500_000,
        ..ExploreConfig::default()
    };
    group.bench("seqnum_certificate", || {
        Explorer::new().explore(&SequenceNumber::new(), &cfg)
    });
}

fn main() {
    bench_probe();
    bench_oracle_fork();
    bench_exhaustive_explore();
}
