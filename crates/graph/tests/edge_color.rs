//! `misra_gries` and `fournier`, checked against a frozen copy of the
//! fan/Kempe code as it stood before the speculative parallel path
//! was deleted.
//!
//! The frozen copy below is the earlier serial code verbatim: the
//! `ColorOps` trait with its `FanState` impl, `FanScratch`, and the
//! generic `invert_cd_path`, `take_maximal_fan`, `prefix_is_fan` and
//! `color_edge[_with_fan]`. `FanState` keeps its `touched` /
//! `log_touches` write log, which only the speculative path switched
//! on. `frozen_misra_gries` is the `threads <= 1` branch of the old
//! `misra_gries_with_budget`, and `frozen_fournier` is the old
//! `fournier`. The plain functions over `FanState` that replaced them
//! must produce equal `EdgeColoring`s — every edge, every color — and
//! equal `fournier` errors, on every graph family.

use bichrome_graph::coloring::{ColorId, EdgeColoring};
use bichrome_graph::edge_color::{fournier, misra_gries, FournierError};
use bichrome_graph::{gen, Edge, EdgeId, Graph, VertexId};
use proptest::prelude::*;

/// The "no neighbor" sentinel of [`FanState::tbl`].
const NO_VERTEX: u32 = u32::MAX;

/// The state one fan/Kempe step reads and writes, abstracted so the
/// identical procedure drives both the live [`FanState`] and a
/// speculative overlay (`SpecState`, not part of this copy).
///
/// Read methods take `&mut self` so the speculative implementation can
/// record its read set (for commit-time conflict detection); the live
/// state simply ignores the mutability.
trait ColorOps {
    /// Palette size `k`; colors are `0..k`.
    fn palette(&self) -> usize;
    /// Neighbor joined to `v` by an edge colored `c`, or [`NO_VERTEX`].
    fn joined(&mut self, v: VertexId, c: ColorId) -> u32;
    /// Current color of edge `(a, b)`.
    fn edge_color(&mut self, a: VertexId, b: VertexId) -> Option<ColorId>;
    /// Colors the edge `(a, b)` with `c` (must be free at both ends).
    fn assign(&mut self, a: VertexId, b: VertexId, c: ColorId);
    /// Uncolors the edge `(a, b)`, returning its color.
    fn clear(&mut self, a: VertexId, b: VertexId) -> ColorId;

    /// Is `c` unused at `v`?
    fn free(&mut self, v: VertexId, c: ColorId) -> bool {
        self.joined(v, c) == NO_VERTEX
    }

    /// Smallest color unused at `v`.
    fn first_free(&mut self, v: VertexId) -> Option<ColorId> {
        (0..self.palette() as u32)
            .map(ColorId)
            .find(|&c| self.free(v, c))
    }
}

/// Reusable fan / Kempe-path buffers, independent of the state they
/// operate on (stamp-marked membership instead of a fresh `Vec<bool>`
/// per edge).
struct FanScratch {
    /// Reusable fan buffer (taken out while a fan is processed).
    fan: Vec<VertexId>,
    /// Stamp-marked "vertex is in the current fan" scratch.
    in_fan: Vec<u32>,
    fan_stamp: u32,
    /// Reusable Kempe-path segment buffer.
    segments: Vec<(VertexId, VertexId, ColorId)>,
}

impl FanScratch {
    fn new(num_vertices: usize) -> Self {
        FanScratch {
            fan: Vec::new(),
            in_fan: vec![0; num_vertices],
            fan_stamp: 0,
            segments: Vec::new(),
        }
    }
}

/// Inverts the maximal alternating `c/d` path starting at `u`.
///
/// Precondition: `c` is free at `u`. The path (if nonempty) starts
/// with the `d`-edge at `u` and alternates; since each vertex has
/// at most one edge of each color and `u` has no `c`-edge, the path
/// is simple.
fn invert_cd_path<S: ColorOps>(
    st: &mut S,
    scratch: &mut FanScratch,
    u: VertexId,
    c: ColorId,
    d: ColorId,
) {
    debug_assert!(st.free(u, c));
    let mut segments = std::mem::take(&mut scratch.segments);
    segments.clear();
    let mut cur = u;
    let mut want = d;
    loop {
        let next = st.joined(cur, want);
        if next == NO_VERTEX {
            break;
        }
        segments.push((cur, VertexId(next), want));
        cur = VertexId(next);
        want = if want == c { d } else { c };
    }
    for &(a, b, _) in &segments {
        st.clear(a, b);
    }
    for &(a, b, col) in &segments {
        let flipped = if col == c { d } else { c };
        st.assign(a, b, flipped);
    }
    scratch.segments = segments;
}

/// Builds the maximal fan of `u` starting at `v` into the reused
/// fan buffer and hands it out: distinct neighbors
/// `f_0 = v, f_1, ...` where edge `(u, f_{i+1})` is colored with a
/// color free at `f_i`. Return the buffer via `scratch.fan` when
/// done.
fn take_maximal_fan<S: ColorOps>(
    st: &mut S,
    scratch: &mut FanScratch,
    u: VertexId,
    v: VertexId,
) -> Vec<VertexId> {
    if scratch.fan_stamp == u32::MAX {
        scratch.in_fan.fill(0);
        scratch.fan_stamp = 0;
    }
    scratch.fan_stamp += 1;
    let mut fan = std::mem::take(&mut scratch.fan);
    fan.clear();
    fan.push(v);
    scratch.in_fan[v.index()] = scratch.fan_stamp;
    'grow: loop {
        let last = *fan.last().expect("fan nonempty");
        for c in 0..st.palette() as u32 {
            let c = ColorId(c);
            if !st.free(last, c) {
                continue;
            }
            let w = st.joined(u, c);
            if w != NO_VERTEX && scratch.in_fan[w as usize] != scratch.fan_stamp {
                scratch.in_fan[w as usize] = scratch.fan_stamp;
                fan.push(VertexId(w));
                continue 'grow;
            }
        }
        return fan;
    }
}

/// Checks the fan property of `fan[0..=j]` under current colors.
fn prefix_is_fan<S: ColorOps>(st: &mut S, u: VertexId, fan: &[VertexId], j: usize) -> bool {
    (0..j).all(|i| match st.edge_color(u, fan[i + 1]) {
        Some(c) => st.free(fan[i], c),
        None => false,
    })
}

/// Colors the uncolored edge `(u, v)` by the Misra–Gries fan /
/// Kempe-chain procedure with palette `[k]`, centering the fan at
/// `u`.
///
/// Requires that `u` and every neighbor of `u` reachable as a fan
/// vertex have a free color; callers establish this via the
/// preconditions documented on [`misra_gries`] and [`fournier`].
fn color_edge<S: ColorOps>(
    st: &mut S,
    scratch: &mut FanScratch,
    u: VertexId,
    v: VertexId,
) -> Result<(), FournierError> {
    let fan = take_maximal_fan(st, scratch, u, v);
    let result = color_edge_with_fan(st, scratch, u, &fan);
    scratch.fan = fan; // hand the buffer back for the next edge
    result
}

fn color_edge_with_fan<S: ColorOps>(
    st: &mut S,
    scratch: &mut FanScratch,
    u: VertexId,
    fan: &[VertexId],
) -> Result<(), FournierError> {
    let v = fan[0];
    let stuck = || FournierError::FanStuck(Edge::new(u, v));
    let c = st.first_free(u).ok_or_else(stuck)?;
    let last = *fan.last().expect("fan nonempty");
    let d = st.first_free(last).ok_or_else(stuck)?;
    if !st.free(u, d) {
        invert_cd_path(st, scratch, u, c, d);
    }
    debug_assert!(st.free(u, d), "d must be free at u after inversion");
    // Find a rotation point: smallest j with d free at fan[j] and a
    // valid fan prefix under post-inversion colors. Misra–Gries
    // guarantees one exists.
    let j = (0..fan.len())
        .find(|&j| st.free(fan[j], d) && prefix_is_fan(st, u, fan, j))
        .ok_or_else(stuck)?;
    // Rotate the prefix: shift each fan edge's color one step down.
    for i in 0..j {
        let col = st.clear(u, fan[i + 1]);
        st.assign(u, fan[i], col);
    }
    st.assign(u, fan[j], d);
    Ok(())
}

/// Mutable edge-coloring state with O(1) "which neighbor is joined to
/// `v` by color `c`" lookups, the workhorse of the fan algorithm.
///
/// All bookkeeping is dense and edge-id-indexed: the color table is
/// one flat `n × k` array and the coloring is a dense vector over the
/// graph's [`EdgeId`] space.
struct FanState<'a> {
    g: &'a Graph,
    k: usize,
    /// `tbl[v·k + c]` = neighbor joined to `v` by an edge colored `c`,
    /// or [`NO_VERTEX`].
    tbl: Vec<u32>,
    coloring: EdgeColoring,
    /// When `log_touches`, every vertex written by `set`/`unset` is
    /// appended here — how the serial fallback of the parallel path
    /// reports its write set for conflict stamping.
    touched: Vec<u32>,
    log_touches: bool,
}

impl<'a> FanState<'a> {
    fn new(g: &'a Graph, k: usize) -> Self {
        FanState {
            g,
            k,
            tbl: vec![NO_VERTEX; k * g.num_vertices()],
            coloring: EdgeColoring::dense_for(g),
            touched: Vec::new(),
            log_touches: false,
        }
    }

    #[inline]
    fn tbl_at(&self, v: VertexId, c: ColorId) -> u32 {
        self.tbl[v.index() * self.k + c.index()]
    }

    #[inline]
    fn is_free(&self, v: VertexId, c: ColorId) -> bool {
        self.tbl_at(v, c) == NO_VERTEX
    }

    fn some_free(&self, v: VertexId) -> Option<ColorId> {
        let row = &self.tbl[v.index() * self.k..(v.index() + 1) * self.k];
        row.iter()
            .position(|&slot| slot == NO_VERTEX)
            .map(|c| ColorId(c as u32))
    }

    #[inline]
    fn id_of(&self, a: VertexId, b: VertexId) -> EdgeId {
        self.g.edge_id(a, b).expect("fan edges are graph edges")
    }

    fn set(&mut self, a: VertexId, b: VertexId, c: ColorId) {
        debug_assert!(
            self.is_free(a, c) && self.is_free(b, c),
            "color {c} not free"
        );
        self.tbl[a.index() * self.k + c.index()] = b.0;
        self.tbl[b.index() * self.k + c.index()] = a.0;
        self.coloring.set_id(self.id_of(a, b), c);
        if self.log_touches {
            self.touched.push(a.0);
            self.touched.push(b.0);
        }
    }

    fn unset(&mut self, a: VertexId, b: VertexId) -> ColorId {
        let c = self
            .coloring
            .clear_id(self.id_of(a, b))
            .expect("edge was colored");
        self.tbl[a.index() * self.k + c.index()] = NO_VERTEX;
        self.tbl[b.index() * self.k + c.index()] = NO_VERTEX;
        if self.log_touches {
            self.touched.push(a.0);
            self.touched.push(b.0);
        }
        c
    }

    fn color_of(&self, a: VertexId, b: VertexId) -> Option<ColorId> {
        self.coloring.get_id(self.id_of(a, b))
    }
}

impl ColorOps for FanState<'_> {
    fn palette(&self) -> usize {
        self.k
    }

    fn joined(&mut self, v: VertexId, c: ColorId) -> u32 {
        self.tbl_at(v, c)
    }

    fn edge_color(&mut self, a: VertexId, b: VertexId) -> Option<ColorId> {
        self.color_of(a, b)
    }

    fn assign(&mut self, a: VertexId, b: VertexId, c: ColorId) {
        self.set(a, b, c);
    }

    fn clear(&mut self, a: VertexId, b: VertexId) -> ColorId {
        self.unset(a, b)
    }

    fn first_free(&mut self, v: VertexId) -> Option<ColorId> {
        self.some_free(v)
    }
}

/// The `threads <= 1` branch of the old `misra_gries_with_budget`.
fn frozen_misra_gries(g: &Graph) -> EdgeColoring {
    let k = g.max_degree() + 1;
    if g.num_edges() == 0 {
        return EdgeColoring::new();
    }
    let mut st = FanState::new(g, k);
    let mut scratch = FanScratch::new(g.num_vertices());
    for &e in g.edges() {
        // With k = Δ+1 every vertex always has a free color, so the
        // fan procedure cannot get stuck.
        color_edge(&mut st, &mut scratch, e.u(), e.v())
            .expect("Vizing: Δ+1 colors never get stuck");
    }
    st.coloring
}

/// The old `fournier`.
fn frozen_fournier(g: &Graph) -> Result<EdgeColoring, FournierError> {
    let d = g.max_degree();
    if g.num_edges() == 0 {
        return Ok(EdgeColoring::new());
    }
    let top = g.vertices_of_degree(d);
    if !g.is_independent_set(&top) {
        return Err(FournierError::MaxDegreeNotIndependent);
    }
    let mut is_top = vec![false; g.num_vertices()];
    for &v in &top {
        is_top[v.index()] = true;
    }
    let mut st = FanState::new(g, d);
    let mut scratch = FanScratch::new(g.num_vertices());
    // Phase 1: edges avoiding all degree-Δ vertices. Every vertex seen
    // by the fan has degree ≤ Δ−1, hence a free color among Δ.
    for &e in g.edges() {
        if !is_top[e.u().index()] && !is_top[e.v().index()] {
            color_edge(&mut st, &mut scratch, e.u(), e.v())?;
        }
    }
    // Phase 2: edges incident to a degree-Δ vertex; center the fan
    // there. Independence makes all fan vertices degree ≤ Δ−1.
    for &e in g.edges() {
        let (u, v) = e.endpoints();
        if is_top[u.index()] {
            color_edge(&mut st, &mut scratch, u, v)?;
        } else if is_top[v.index()] {
            color_edge(&mut st, &mut scratch, v, u)?;
        }
    }
    Ok(st.coloring)
}

fn assert_same(g: &Graph) {
    assert_eq!(misra_gries(g), frozen_misra_gries(g), "misra_gries on {g}");
    assert_eq!(fournier(g), frozen_fournier(g), "fournier on {g}");
}

/// One of the eight graph families, sized and seeded by the inputs.
/// Most fail Fournier's precondition, so `fournier` is compared on its
/// error too; [`hubbed`] covers the instances it colors.
fn graph(family: usize, n: usize, seed: u64) -> Graph {
    match family {
        0 => gen::gnp(n, 0.05 + (seed % 7) as f64 / 20.0, seed),
        1 => {
            let dmax = 1 + (seed % 6) as usize;
            let m = (n * dmax / 2).min(n * (n - 1) / 2) * 2 / 3;
            gen::gnm_max_degree(n, m, dmax, seed)
        }
        2 => gen::complete(n.min(24)),
        3 => {
            let a = 1 + (seed % 9) as usize;
            gen::complete_bipartite(a, n.min(30))
        }
        4 => gen::near_regular(n, (2 + (seed % 7) as usize).min(n - 1), seed),
        5 => gen::star(n),
        6 => gen::path(n),
        _ => gen::empty(n),
    }
}

/// A graph whose degree-Δ vertices are independent, so `fournier`
/// colors it with Δ colors.
fn hubbed(d: usize, hubs: usize, extra: usize, seed: u64) -> Graph {
    gen::independent_max_degree(hubs * (d + 1) + d + extra, d, hubs, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fan_code_matches_the_frozen_generic_code(
        family in 0usize..8,
        n in 3usize..80,
        seed in any::<u64>(),
    ) {
        assert_same(&graph(family, n, seed));
    }

    #[test]
    fn fournier_matches_the_frozen_code_on_independent_max_degree(
        d in 2usize..9,
        hubs in 1usize..5,
        extra in 0usize..40,
        seed in any::<u64>(),
    ) {
        let g = hubbed(d, hubs, extra, seed);
        let new = fournier(&g);
        prop_assert!(new.is_ok(), "precondition holds by construction");
        prop_assert_eq!(new, frozen_fournier(&g));
    }
}

#[test]
fn every_family_matches_on_a_fixed_grid() {
    for family in 0..8 {
        for (n, seed) in [(3usize, 0u64), (17, 5), (64, 42), (150, 7)] {
            assert_same(&graph(family, n, seed));
        }
    }
    for (d, hubs, seed) in [(2, 1, 0u64), (5, 3, 1), (9, 6, 2), (16, 4, 3)] {
        let g = hubbed(d, hubs, 20, seed);
        assert!(fournier(&g).is_ok());
        assert_same(&g);
    }
}
