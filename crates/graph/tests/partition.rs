//! `EdgePartition::new` and `Partitioner::split`, checked against a
//! frozen copy of the hash-set split the mask-based one replaced.
//!
//! The frozen copy below is the earlier `split` + `EdgePartition::new`
//! verbatim, except that it returns the three graphs in a plain struct
//! (the real type's fields are private). Both must produce equal
//! `whole`, `alice` and `bob` graphs under `Graph`'s `PartialEq` —
//! every CSR array, the edge-id companion array and Δ — and agree on
//! the owner of every edge, for every partitioner and seed.

use bichrome_graph::partition::{EdgePartition, Partitioner, Party};
use bichrome_graph::{gen, Edge, Graph, VertexId};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

/// The three graphs of a partition, as the frozen code built them.
struct Frozen {
    whole: Graph,
    alice: Graph,
    bob: Graph,
}

impl Frozen {
    fn new(whole: Graph, alice_edges: &[Edge]) -> Self {
        let mut is_alice = std::collections::HashSet::new();
        for &e in alice_edges {
            assert!(
                whole.edges().binary_search(&e).is_ok(),
                "edge {e} assigned to Alice is not in the graph"
            );
            is_alice.insert(e);
        }
        let alice = whole.edge_subgraph(|e| is_alice.contains(&e));
        let bob = whole.edge_subgraph(|e| !is_alice.contains(&e));
        Frozen { whole, alice, bob }
    }

    fn owner(&self, e: Edge) -> Option<Party> {
        if self.alice.edges().binary_search(&e).is_ok() {
            Some(Party::Alice)
        } else if self.bob.edges().binary_search(&e).is_ok() {
            Some(Party::Bob)
        } else {
            None
        }
    }
}

fn frozen_split(part: Partitioner, g: &Graph) -> Frozen {
    let n = g.num_vertices();
    let alice: Vec<Edge> = match part {
        Partitioner::AllToAlice => g.edges().to_vec(),
        Partitioner::AllToBob => Vec::new(),
        Partitioner::Alternating => g.edges().iter().copied().step_by(2).collect(),
        Partitioner::Random(seed) => {
            let mut rng = StdRng::seed_from_u64(seed);
            g.edges()
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.5))
                .collect()
        }
        Partitioner::ParitySum => g
            .edges()
            .iter()
            .copied()
            .filter(|e| (e.u().0 + e.v().0) % 2 == 0)
            .collect(),
        Partitioner::LowHalf => g
            .edges()
            .iter()
            .copied()
            .filter(|e| (e.u().index()) < n / 2)
            .collect(),
    };
    Frozen::new(g.clone(), &alice)
}

fn assert_same(part: Partitioner, g: &Graph) {
    let new = part.split(g);
    let old = frozen_split(part, g);
    assert_eq!(new.whole(), &old.whole, "{part}: whole");
    assert_eq!(new.alice(), &old.alice, "{part}: alice");
    assert_eq!(new.bob(), &old.bob, "{part}: bob");
    for &e in g.edges() {
        assert_eq!(new.owner(e), old.owner(e), "{part}: owner of {e}");
    }
}

/// One of the five graph families, sized and seeded by the inputs.
fn graph(family: usize, n: usize, seed: u64) -> Graph {
    match family {
        0 => gen::gnp(n, 0.05 + (seed % 7) as f64 / 20.0, seed),
        1 => {
            let dmax = 1 + (seed % 6) as usize;
            let m = (n * dmax / 2).min(n * (n - 1) / 2) * 2 / 3;
            gen::gnm_max_degree(n, m, dmax, seed)
        }
        2 => gen::cycle(n),
        3 => gen::complete(n.min(24)),
        _ => gen::empty(n),
    }
}

fn arb_partitioner() -> impl Strategy<Value = Partitioner> {
    prop_oneof![
        Just(Partitioner::AllToAlice),
        Just(Partitioner::AllToBob),
        Just(Partitioner::Alternating),
        any::<u64>().prop_map(Partitioner::Random),
        Just(Partitioner::ParitySum),
        Just(Partitioner::LowHalf),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mask_split_matches_the_frozen_hash_split(
        family in 0usize..5,
        n in 3usize..80,
        seed in any::<u64>(),
        part in arb_partitioner(),
    ) {
        assert_same(part, &graph(family, n, seed));
    }
}

#[test]
fn every_partitioner_matches_on_every_family() {
    for family in 0..5 {
        for (n, seed) in [(3usize, 0u64), (17, 5), (64, 42)] {
            let g = graph(family, n, seed);
            for part in Partitioner::family(seed ^ 0x5eed) {
                assert_same(part, &g);
            }
        }
    }
}

#[test]
fn new_ignores_order_and_duplicates_in_alices_edges() {
    let g = gen::gnp(50, 0.2, 9);
    let mut rng = StdRng::seed_from_u64(3);
    let sorted: Vec<Edge> = g
        .edges()
        .iter()
        .copied()
        .filter(|_| rng.gen_bool(0.4))
        .collect();
    let mut messy: Vec<Edge> = sorted.iter().rev().copied().collect();
    messy.extend(sorted.iter().step_by(3).copied());
    let clean = EdgePartition::new(g.clone(), &sorted);
    let p = EdgePartition::new(g.clone(), &messy);
    assert_eq!(p.alice(), clean.alice());
    assert_eq!(p.bob(), clean.bob());
    assert_eq!(p.alice().num_edges(), sorted.len());
    let old = Frozen::new(g, &messy);
    assert_eq!(p.alice(), &old.alice);
    assert_eq!(p.bob(), &old.bob);
}

#[test]
#[should_panic(expected = "not in the graph")]
fn new_rejects_an_edge_not_in_the_graph() {
    let _ = EdgePartition::new(gen::path(4), &[Edge::new(VertexId(0), VertexId(2))]);
}

#[test]
#[should_panic(expected = "not in the graph")]
fn new_rejects_an_edge_past_the_vertex_set() {
    let _ = EdgePartition::new(gen::path(4), &[Edge::new(VertexId(1), VertexId(9))]);
}
