//! The transport-invariance property, end to end: the bits and
//! rounds a two-party session reports are *defined* by the protocol,
//! not the wire — metering happens above the link — so every
//! `CommStats`, and in fact every whole `TrialRecord`, must be
//! bit-identical whether the session runs over the in-process
//! exchange, OS pipes, or a loopback TCP socket.

use bichrome_comm::{with_session_transport, TransportKind};
use bichrome_graph::partition::Partitioner;
use bichrome_graph::{gen, Graph};
use bichrome_runner::{
    compute_trial, registry, FaultPlan, GraphSpec, Instance, InstanceCache, TrialRecord,
};
use bichrome_store::TrialKey;
use proptest::prelude::*;

/// Protocols spanning every family the registry has: vertex, edge,
/// baselines, streaming — all must be transport-invariant.
const PROTOCOLS: [&str; 6] = [
    "vertex/theorem1",
    "edge/theorem2",
    "edge/lemma5.1-bounded",
    "baseline/flin-mittal",
    "baseline/greedy-binary-search",
    "streaming/greedy-w",
];

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..32, 0u64..10_000).prop_map(|(n, seed)| {
        let p = 0.05 + (seed % 13) as f64 / 30.0;
        gen::gnp(n, p.min(0.5), seed)
    })
}

fn arb_partitioner() -> impl Strategy<Value = Partitioner> {
    prop_oneof![
        Just(Partitioner::Alternating),
        Just(Partitioner::AllToAlice),
        Just(Partitioner::ParitySum),
        (0u64..1000).prop_map(Partitioner::Random),
    ]
}

proptest! {
    // Every case runs 3 transports × 6 protocols, two of them across
    // real file descriptors — keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Raw protocol sessions: identical `CommStats` on every wire.
    #[test]
    fn prop_comm_stats_are_transport_invariant(
        g in arb_graph(),
        part in arb_partitioner(),
        seed in 0u64..1000,
    ) {
        let inst = Instance::new("prop", part.split(&g), seed);
        for key in PROTOCOLS {
            let proto = registry().get(key).expect("registered");
            let base = with_session_transport(TransportKind::InProc, || proto.run(&inst));
            for kind in [TransportKind::Pipe, TransportKind::Tcp] {
                let out = with_session_transport(kind, || proto.run(&inst));
                prop_assert_eq!(
                    &out.stats, &base.stats,
                    "{} must meter identically over {}", key, kind
                );
                prop_assert_eq!(
                    out.verdict.is_valid(), base.verdict.is_valid(),
                    "{} verdict changed over {}", key, kind
                );
            }
        }
    }

    /// Whole trial descriptors (the unit remote workers compute):
    /// identical `TrialRecord`s on every wire, over a multi-protocol
    /// grid point with the campaign's per-seed default partitioner.
    #[test]
    fn prop_trial_records_are_transport_invariant(
        n in 8usize..48,
        d in 2usize..6,
        seed in 0u64..1000,
        short in 1usize..16,
    ) {
        let cache = InstanceCache::new();
        for key in PROTOCOLS {
            let trial = TrialKey {
                protocol: key.to_string(),
                graph: GraphSpec::NearRegular { n, d }.to_string(),
                partitioner: "random(per-seed)".to_string(),
                seed,
            };
            let no_fault = FaultPlan::new();
            let records: Vec<TrialRecord> = TransportKind::ALL
                .iter()
                .map(|&kind| {
                    compute_trial(&trial, kind, &no_fault, &cache).expect("descriptor resolves")
                })
                .collect();
            prop_assert_eq!(
                &records[1], &records[0],
                "{} pipe record differs from inproc", key
            );
            prop_assert_eq!(
                &records[2], &records[0],
                "{} tcp record differs from inproc", key
            );
            // A recoverable fault plan on the harshest wire changes
            // nothing either: retransmits and short reads and writes
            // happen below the meter.
            let plan = FaultPlan::new()
                .sever_at(1 + seed % 3)
                .corrupt_at(2)
                .short(short);
            let faulted = compute_trial(&trial, TransportKind::Tcp, &plan, &cache)
                .expect("descriptor resolves under faults");
            prop_assert_eq!(
                &faulted, &records[0],
                "{} record changed under {}", key, plan
            );
        }
    }
}
