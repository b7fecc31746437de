//! Oracle tests for the tape-free message passing: `GatLayer::infer`
//! (the fused CSR kernel) must equal the tape `forward` bit for bit, on
//! awkward random graphs and on row-stacked batches of several graph
//! copies.

use mapzero_nn::{GatLayer, Graph, InferCtx, Matrix, MessageIndex, Params, SeedRng};

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
    let y = layer.infer(ctx, params, x, index);
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
