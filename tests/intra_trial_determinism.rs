//! Property tests pinning the invariant of intra-trial parallelism:
//! the thread budget is a *performance* knob, never a *semantics*
//! knob. At any budget, the D1LC finishing rounds and whole protocol
//! trials must produce bit-identical artifacts, communication meters,
//! and serialized [`TrialRecord`]s. (Misra–Gries takes no budget: it
//! is a single serial fan/Kempe sweep.)

use bichrome_comm::session::run_two_party_ctx;
use bichrome_comm::{with_intra_budget, Side};
use bichrome_core::d1lc::{solve_d1lc, D1lcInput};
use bichrome_graph::coloring::ColorId;
use bichrome_graph::partition::Partitioner;
use bichrome_graph::{gen, Graph, VertexId};
use bichrome_runner::{registry, Instance, TrialRecord};
use proptest::prelude::*;

/// The non-serial budgets every layer is checked against.
const BUDGETS: [usize; 3] = [2, 4, 8];

/// Strategy: a random simple graph with `n ∈ [2, 60]`.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..60, 0u64..10_000).prop_map(|(n, seed)| {
        let p = 0.02 + (seed % 17) as f64 / 40.0;
        gen::gnp(n, p.min(0.5), seed)
    })
}

fn arb_partitioner() -> impl Strategy<Value = Partitioner> {
    prop_oneof![
        Just(Partitioner::Alternating),
        Just(Partitioner::ParitySum),
        Just(Partitioner::LowHalf),
        (0u64..1000).prop_map(Partitioner::Random),
    ]
}

/// Builds a D1LC instance pair the way Theorem 1 does: greedily
/// pre-color three quarters of the vertices, let `Z` be the rest, and
/// give each party the palette minus its own colored neighbors.
fn d1lc_pair(g: &Graph, part: Partitioner) -> (D1lcInput, D1lcInput) {
    let p = part.split(g);
    let palette = g.max_degree() + 1;
    let full = bichrome_graph::greedy::greedy_vertex_coloring(g);
    let z: Vec<VertexId> = g
        .vertices()
        .filter(|v| v.index().is_multiple_of(4))
        .collect();
    let pre = |v: VertexId| -> Option<ColorId> {
        if v.index().is_multiple_of(4) {
            None
        } else {
            full.get(v)
        }
    };
    let psi_of = |side: &Graph| -> Vec<Vec<ColorId>> {
        z.iter()
            .map(|&v| {
                let occupied: Vec<ColorId> =
                    side.neighbors(v).iter().filter_map(|&u| pre(u)).collect();
                (0..palette as u32)
                    .map(ColorId)
                    .filter(|c| !occupied.contains(c))
                    .collect()
            })
            .collect()
    };
    let (psi_a, psi_b) = (psi_of(p.alice()), psi_of(p.bob()));
    let ia = D1lcInput {
        side: Side::Alice,
        graph: p.alice().clone(),
        z: z.clone(),
        psi: psi_a,
        palette,
    };
    let ib = D1lcInput {
        side: Side::Bob,
        graph: p.bob().clone(),
        z,
        psi: psi_b,
        palette,
    };
    (ia, ib)
}

/// Runs one protocol trial under an ambient intra-trial budget and
/// returns its fully serialized record (colors, validity + first
/// violation, and the communication meter all round through it).
fn trial_json(key: &str, g: &Graph, part: Partitioner, seed: u64, budget: usize) -> String {
    let inst = Instance::new("determinism", part.split(g), seed);
    let proto = registry().get(key).expect("registered");
    let out = with_intra_budget(budget, || proto.run(&inst));
    TrialRecord::from_outcome(&inst, out).to_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// D1LC: both parties' colorings and the bit/round meter must be
    /// identical at every budget.
    #[test]
    fn prop_d1lc_budget_is_invisible(
        g in arb_graph(),
        part in arb_partitioner(),
        seed in 0u64..1000,
    ) {
        let (ia, ib) = d1lc_pair(&g, part);
        let run = |budget: usize| {
            let (ia, ib) = (ia.clone(), ib.clone());
            with_intra_budget(budget, || {
                run_two_party_ctx(seed, move |ctx| solve_d1lc(&ia, &ctx), move |ctx| {
                    solve_d1lc(&ib, &ctx)
                })
            })
        };
        let (sa, sb, sstats) = run(1);
        for budget in BUDGETS {
            let (pa, pb, pstats) = run(budget);
            prop_assert_eq!(&sa, &pa, "Alice diverged at budget {}", budget);
            prop_assert_eq!(&sb, &pb, "Bob diverged at budget {}", budget);
            prop_assert_eq!(&sstats, &pstats, "CommStats diverged at budget {}", budget);
        }
    }

    /// Whole trials: the serialized TrialRecord (label, sizes, bits,
    /// rounds, colors, validity, first violation, metrics) must be
    /// byte-identical at every budget for both paper protocols.
    #[test]
    fn prop_trial_record_json_budget_is_invisible(
        g in arb_graph(),
        part in arb_partitioner(),
        seed in 0u64..1000,
    ) {
        for key in ["vertex/theorem1", "edge/theorem2"] {
            let serial = trial_json(key, &g, part, seed, 1);
            for budget in BUDGETS {
                let budgeted = trial_json(key, &g, part, seed, budget);
                prop_assert_eq!(
                    &serial, &budgeted,
                    "{} record diverged at budget {}", key, budget
                );
            }
        }
    }
}
