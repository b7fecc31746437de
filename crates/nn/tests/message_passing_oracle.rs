//! Oracle tests for the tape-free message passing: `GatLayer::infer`
//! (the fused CSR kernel) must equal the tape `forward` bit for bit, on
//! awkward random graphs and on row-stacked batches of several graph
//! copies — computed cold, and incrementally from the copy before.

use mapzero_nn::{GatLayer, GatMemo, Graph, InferCtx, Matrix, MessageIndex, Params, SeedRng};

const HEAD_WIDTHS: [usize; 7] = [1, 3, 4, 5, 8, 16, 17];
const COPIES: [usize; 4] = [1, 2, 3, 8];

/// A random edge list over `n` nodes with a duplicate edge, an explicit
/// self-edge, an isolated last node, and node 0 fed by nothing but its
/// own self-loop.
fn awkward_graph(rng: &mut SeedRng, n: usize) -> Vec<(usize, usize)> {
    let live = n - 1; // node n-1 stays isolated
    let mut edges = Vec::new();
    for _ in 0..rng.below(3 * n) {
        let s = rng.below(live);
        let d = 1 + rng.below(live - 1); // never into node 0
        edges.push((s, d));
    }
    edges.push((0, live - 1));
    edges.push((0, live - 1)); // duplicate
    edges.push((live - 1, live - 1)); // explicit self-edge
    // Shuffle so duplicates and self-edges land mid-list.
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.below(i + 1));
    }
    edges
}

/// Features with exact zeros sprinkled in (the matmul zero skip).
fn features(rng: &mut SeedRng, rows: usize, cols: usize) -> Matrix {
    let mut m = rng.uniform(rows, cols, 1.5);
    for v in m.data_mut().iter_mut().step_by(7) {
        *v = 0.0;
    }
    m
}

fn tape(layer: &GatLayer, params: &Params, x: &Matrix, edges: &[(usize, usize)]) -> Matrix {
    let mut g = Graph::new();
    let gx = g.input(x.clone());
    let y = layer.forward(&mut g, params, gx, edges);
    g.value(y).clone()
}

fn infer(
    layer: &GatLayer,
    ctx: &mut InferCtx,
    params: &Params,
    xs: &[&Matrix],
    index: &MessageIndex,
) -> Matrix {
    ctx.begin();
    let x = ctx.load_stacked(xs);
    let y = layer.infer(ctx, params, x, index, &mut GatMemo::new(), None);
    ctx.value(y).clone()
}

#[test]
fn message_passing_matches_tape() {
    let mut rng = SeedRng::new(0x5eec);
    let mut ctx = InferCtx::new();
    let mut index = MessageIndex::new();
    for case in 0..12 {
        let n = 3 + rng.below(10);
        let edges = awkward_graph(&mut rng, n);
        index.rebuild(&edges, n);
        let in_dim = 1 + rng.below(9);
        for &width in &HEAD_WIDTHS {
            let mut params = Params::new();
            let layer = GatLayer::new(&mut params, in_dim, width, 1 + case % 3, &mut rng);
            for &k in &COPIES {
                let xs: Vec<Matrix> = (0..k).map(|_| features(&mut rng, n, in_dim)).collect();
                let refs: Vec<&Matrix> = xs.iter().collect();
                let stacked = infer(&layer, &mut ctx, &params, &refs, &index);
                let cols = stacked.cols();
                for (c, x) in xs.iter().enumerate() {
                    let want = tape(&layer, &params, x, &edges);
                    assert_eq!(cols, want.cols());
                    let got = &stacked.data()[c * n * cols..(c + 1) * n * cols];
                    let same = got
                        .iter()
                        .zip(want.data())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(
                        same,
                        "case {case} width {width} K={k} copy {c}: \
                         infer {got:?} != tape {:?} (edges {edges:?})",
                        want.data()
                    );
                }
            }
        }
    }
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Rewrite one feature in each of up to three random rows (none, some
/// of the time: an exact repeat).
fn perturb(rng: &mut SeedRng, x: &mut Matrix) {
    for _ in 0..rng.below(4) {
        let (r, c) = (rng.below(x.rows()), rng.below(x.cols()));
        x[(r, c)] = if rng.below(4) == 0 { 0.0 } else { rng.uniform(1, 1, 1.5)[(0, 0)] };
    }
}

/// Two stacked layers, each with its own memo and the second driven by
/// the first's dirty rows, over a walk of batches whose copies each
/// differ from the one before in a few rows. Every copy must equal the
/// tape bit for bit — also across an all-new batch, a parameter update
/// and an index rebuilt with the same node count but other links.
#[test]
fn incremental_message_passing_matches_tape() {
    let mut rng = SeedRng::new(0xde17a);
    let mut ctx = InferCtx::new();
    let mut index = MessageIndex::new();
    let (mut rows, mut recomputed) = (0, 0);
    for case in 0..8 {
        // Graphs under 32 nodes recompute every row; larger ones only
        // what changed.
        let n = if case % 4 == 0 { 3 + rng.below(10) } else { 32 + rng.below(40) };
        let mut edges = awkward_graph(&mut rng, n);
        index.rebuild(&edges, n);
        let in_dim = 1 + rng.below(9);
        let width = HEAD_WIDTHS[case % HEAD_WIDTHS.len()];
        let heads = 1 + case % 3;
        let mut params = Params::new();
        let l1 = GatLayer::new(&mut params, in_dim, width, heads, &mut rng);
        let l2 = GatLayer::new(&mut params, width * heads, width, heads, &mut rng);
        let (mut m1, mut m2) = (GatMemo::new(), GatMemo::new());
        let mut x = features(&mut rng, n, in_dim);
        for step in 0..16 {
            match step {
                6 => x = features(&mut rng, n, in_dim),
                9 => {
                    let id = params.ids().next().expect("registered");
                    params.value_mut(id)[(0, 0)] += 0.25;
                }
                12 => {
                    edges = awkward_graph(&mut rng, n);
                    index.rebuild(&edges, n);
                }
                _ => {}
            }
            let k = COPIES[step % COPIES.len()];
            let xs: Vec<Matrix> = (0..k)
                .map(|_| {
                    perturb(&mut rng, &mut x);
                    x.clone()
                })
                .collect();
            let refs: Vec<&Matrix> = xs.iter().collect();
            ctx.begin();
            let cx = ctx.load_stacked(&refs);
            let h1 = l1.infer(&mut ctx, &params, cx, &index, &mut m1, None);
            let h2 = l2.infer(&mut ctx, &params, h1, &index, &mut m2, Some(m1.dirty()));
            rows += 2 * n * k;
            recomputed += m1.dirty().len() + m2.dirty().len();
            let (got1, got2) = (ctx.value(h1), ctx.value(h2));
            for (c, x) in xs.iter().enumerate() {
                let mut g = Graph::new();
                let gx = g.input(x.clone());
                let y1 = l1.forward(&mut g, &params, gx, &edges);
                let y2 = l2.forward(&mut g, &params, y1, &edges);
                for (got, want, layer) in [(got1, g.value(y1), 1), (got2, g.value(y2), 2)] {
                    let cols = want.cols();
                    let got = &got.data()[c * n * cols..(c + 1) * n * cols];
                    assert!(
                        same_bits(got, want.data()),
                        "case {case} step {step} K={k} copy {c} layer {layer}: \
                         infer {got:?} != tape {:?} (edges {edges:?})",
                        want.data()
                    );
                }
            }
        }
    }
    assert!(recomputed < rows, "the walk never reused a row ({recomputed} of {rows})");
}
