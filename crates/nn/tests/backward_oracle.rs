//! Oracle tests for the hand-derived backward: `Linear`, `Mlp` and
//! `GatLayer` `backward` over an `InferCtx` forward must
//! produce the parameter gradients and the input gradient of the tape
//! `forward` + `Graph::backward`, bit for bit — on awkward random
//! graphs, at every head width the kernels special-case, and
//! accumulated over several samples like a training batch.

use mapzero_nn::{
    BufId, GatLayer, GatMemo, Graph, InferCtx, Linear, Matrix, MessageIndex, Mlp, Params,
    SeedRng, VarId,
};

const HEAD_WIDTHS: [usize; 7] = [1, 3, 4, 5, 8, 16, 17];
/// Samples accumulated into one set of parameter gradients per case.
const SAMPLES: usize = 3;

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
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.below(i + 1));
    }
    edges
}

/// Values with exact zeros sprinkled in (the matmul zero skips).
fn random(rng: &mut SeedRng, rows: usize, cols: usize) -> Matrix {
    let mut m = rng.uniform(rows, cols, 1.5);
    for v in m.data_mut().iter_mut().step_by(7) {
        *v = 0.0;
    }
    m
}

enum Layer {
    Linear(Linear),
    Mlp(Mlp),
    Gat(GatLayer),
}

impl Layer {
    fn tape_forward(&self, g: &mut Graph, params: &Params, x: VarId, edges: &[(usize, usize)]) -> VarId {
        match self {
            Layer::Linear(l) => l.forward(g, params, x),
            Layer::Mlp(l) => l.forward(g, params, x),
            Layer::Gat(l) => l.forward(g, params, x, edges),
        }
    }

    fn infer(&self, ctx: &mut InferCtx, params: &Params, x: BufId, index: &MessageIndex) -> BufId {
        match self {
            Layer::Linear(l) => l.infer(ctx, params, x),
            Layer::Mlp(l) => l.infer(ctx, params, x),
            Layer::Gat(l) => l.infer(ctx, params, x, index, &mut GatMemo::new(), None),
        }
    }

    fn backward(
        &self,
        ctx: &mut InferCtx,
        params: &mut Params,
        x: BufId,
        y: BufId,
        index: &MessageIndex,
    ) {
        match self {
            Layer::Linear(l) => l.backward(ctx, params, x, y, true),
            Layer::Mlp(l) => l.backward(ctx, params, x, y, true),
            Layer::Gat(l) => l.backward(ctx, params, x, y, index, true),
        }
    }
}

fn assert_bits(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{what}: shape");
    let same = got.data().iter().zip(want.data()).all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same, "{what}: backward {:?} != tape {:?}", got.data(), want.data());
}

/// Run `SAMPLES` forward/backward pairs through both paths, each pair
/// seeded with the same upstream gradient, and compare the input
/// gradient of every sample and the accumulated parameter gradients.
fn check_layer(
    layer: &Layer,
    params: &Params,
    inputs: &[(Matrix, Matrix)],
    edges: &[(usize, usize)],
    ctx: &mut InferCtx,
    index: &MessageIndex,
    what: &str,
) {
    let mut tape_params = params.clone();
    let mut fast_params = params.clone();
    for (s, (x, upstream)) in inputs.iter().enumerate() {
        let mut g = Graph::new();
        let gx = g.input(x.clone());
        let gy = layer.tape_forward(&mut g, &tape_params, gx, edges);
        let up = g.input(upstream.clone());
        let weighted = g.mul(gy, up);
        let loss = g.sum_all(weighted);
        g.backward(loss, &mut tape_params);

        ctx.begin();
        let cx = ctx.load(x);
        let cy = layer.infer(ctx, &fast_params, cx, index);
        assert_bits(ctx.value(cy), g.value(gy), &format!("{what} sample {s}: forward"));
        ctx.begin_backward();
        ctx.grad_mut(cy).copy_from(upstream);
        layer.backward(ctx, &mut fast_params, cx, cy, index);
        assert_bits(ctx.grad(cx), g.grad(gx), &format!("{what} sample {s}: input gradient"));
    }
    for id in params.ids() {
        assert_bits(
            fast_params.grad(id),
            tape_params.grad(id),
            &format!("{what}: gradient of {id:?}"),
        );
    }
}

#[test]
fn backward_matches_tape() {
    let mut rng = SeedRng::new(0xbac5);
    let mut ctx = InferCtx::new();
    let mut index = MessageIndex::new();
    for case in 0..8 {
        let n = 3 + rng.below(10);
        let edges = awkward_graph(&mut rng, n);
        index.rebuild(&edges, n);
        let in_dim = 1 + rng.below(9);
        for &width in &HEAD_WIDTHS {
            let mut params = Params::new();
            let layers = [
                Layer::Linear(Linear::new(&mut params, in_dim, width, &mut rng)),
                Layer::Mlp(Mlp::new(&mut params, in_dim, &[width, 1 + case, width], &mut rng)),
                Layer::Gat(GatLayer::new(&mut params, in_dim, width, 1 + case % 3, &mut rng)),
            ];
            for (l, layer) in layers.iter().enumerate() {
                // Probe the output width with a throwaway forward.
                ctx.begin();
                let probe = ctx.load(&Matrix::zeros(n, in_dim));
                let out = layer.infer(&mut ctx, &params, probe, &index);
                let out_cols = ctx.value(out).cols();
                let inputs: Vec<(Matrix, Matrix)> = (0..SAMPLES)
                    .map(|_| (random(&mut rng, n, in_dim), random(&mut rng, n, out_cols)))
                    .collect();
                let what = format!("case {case} width {width} layer {l} (edges {edges:?})");
                check_layer(layer, &params, &inputs, &edges, &mut ctx, &index, &what);
            }
        }
    }
}
