//! Candidate-pruning invariants (DESIGN.md §13): the live sets and the
//! doomed check keep every conflict-free completion of small kernels
//! (the soundness oracle), the action and pruned masks match a per-PE
//! oracle along any step/undo walk (so the pruned mask is a subset of
//! the legal mask and undo restores it exactly), mappings found with
//! pruning are valid, the fail-first order is deterministic, pruning
//! shrinks the actions the search is offered, and the fail-first order
//! never loses a Table-2 kernel that schedule order maps at equal
//! budget.

use mapzero::arch::{CgraBuilder, Interconnect, RoutingStyle};
use mapzero::core::search::{IiBounds, IiSearch};
use mapzero::core::validate;
use mapzero::core::{MapEnv, MapZeroAgent, MapZeroNet, Placement};
use mapzero::dfg::Edge;
use mapzero::dfg::random::{random_dfg, RandomDfgConfig};
use mapzero::prelude::*;
use proptest::prelude::*;

fn dfg_strategy() -> impl Strategy<Value = Dfg> {
    (2usize..14, 0usize..8, 0usize..2, any::<u64>()).prop_map(
        |(nodes, extra, cycles, seed)| {
            random_dfg(
                "prop",
                &RandomDfgConfig {
                    nodes,
                    edges: nodes - 1 + extra,
                    self_cycles: cycles,
                    max_fanin: 3,
                    seed,
                },
            )
        },
    )
}

/// A tiny random kernel: `nodes` nodes of mixed op classes, a forward
/// spanning tree plus up to two extra forward edges, and up to two
/// loop-carried edges (self-loops included) of distance 1 or 2.
fn tiny_kernel(nodes: usize, seed: u64) -> Dfg {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    const OPS: [Opcode; 6] =
        [Opcode::Add, Opcode::Mul, Opcode::Load, Opcode::Store, Opcode::And, Opcode::Const];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = DfgBuilder::new("tiny");
    let ids: Vec<NodeId> = (0..nodes).map(|_| b.node(OPS[rng.gen_range(0..OPS.len())])).collect();
    for j in 1..nodes {
        b.edge(ids[rng.gen_range(0..j)], ids[j]).expect("fresh tree edge");
    }
    for _ in 0..rng.gen_range(0usize..3) {
        let j = rng.gen_range(1..nodes);
        let i = rng.gen_range(0..j);
        if !b.has_edge(ids[i], ids[j]) {
            b.edge(ids[i], ids[j]).expect("fresh forward edge");
        }
    }
    for _ in 0..rng.gen_range(0usize..3) {
        let src = rng.gen_range(0..nodes);
        let dst = rng.gen_range(0..src + 1);
        if !b.has_edge(ids[src], ids[dst]) {
            b.back_edge(ids[src], ids[dst], rng.gen_range(1u32..3)).expect("fresh back edge");
        }
    }
    b.finish().expect("forward edges only point to later nodes")
}

/// Enumerate every conflict-free completion below `env` by depth-first
/// search over the legal actions (a step whose routes fail is undone
/// and not descended). `pruned` names the first doomed state or
/// non-search step on the path so far; a completion reached through one
/// is an error. Returns the number of completions.
fn completions(env: &mut MapEnv<'_>, pruned: Option<&str>) -> Result<u64, String> {
    if env.done() {
        return match pruned {
            None => Ok(1),
            Some(why) => Err(format!("{why}; completion {:?}", env.placements())),
        };
    }
    let pruned = pruned.or_else(|| env.doomed().then_some("a prefix state was doomed"));
    let search = env.search_actions();
    let mut found = 0;
    for pe in env.legal_actions() {
        if env.step(pe).failed_routes == 0 {
            let step_pruned = (!search.contains(&pe)).then_some("a step was not a search action");
            found += completions(env, pruned.or(step_pruned))?;
        }
        env.undo();
    }
    Ok(found)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The soundness oracle of candidate pruning: the live sets and the
    /// doomed check drop no conflict-free completion. On a tiny random
    /// kernel, one of every fabric kind (meshes, a row-bus mesh, the
    /// Fig. 14 heterogeneous fabric, the HyCube crossbar, HReA), an II
    /// from MII to MII + 2 and either placement order, an exhaustive
    /// search over the legal actions finds every completion, and each
    /// must have stepped only through search actions of states that were
    /// not doomed.
    #[test]
    fn pruning_keeps_every_conflict_free_completion(
        nodes in 3usize..7,
        seed in any::<u64>(),
        fabric in 0usize..7,
        extra_ii in 0u32..3,
        fail_first in any::<bool>(),
    ) {
        let dfg = tiny_kernel(nodes, seed);
        let cgra = match fabric {
            0 => presets::simple_mesh(2, 2),
            1 => presets::simple_mesh(2, 3),
            2 => presets::simple_mesh(3, 3),
            3 => CgraBuilder::new("3x3 row-bus mesh", 3, 3)
                .interconnect(Interconnect::Mesh)
                .row_shared_mem_bus()
                .finish(),
            4 => presets::heterogeneous(),
            5 => presets::hycube(),
            _ => presets::hrea(),
        };
        let Ok(mii) = Problem::mii(&dfg, &cgra) else { return Ok(()); };
        let Ok(problem) = Problem::new(&dfg, &cgra, mii + extra_ii) else { return Ok(()); };
        let problem = if fail_first { problem.with_candidate_pruning() } else { problem };
        let found = completions(&mut MapEnv::new(&problem), None);
        prop_assert!(
            found.is_ok(),
            "{} at II {}, order {:?}: {}",
            cgra.name(),
            problem.ii(),
            problem.order(),
            found.unwrap_err()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Along random step/undo walks on one- and multi-word fabrics
    /// (ragged last word, row bus, circuit-switched crossbar), the
    /// action and search masks and their PE lists equal a per-PE
    /// oracle recomputed from scratch from the placement set, and so
    /// does the doomed flag. The live sets are therefore a pure function
    /// of the placement set, which keeps the prediction cache sound, and
    /// the pruned mask is a subset of the legal mask.
    #[test]
    fn pruned_mask_is_subset_and_restores_exactly(
        dfg in dfg_strategy(),
        fabric in 0usize..6,
        ops in proptest::collection::vec((0usize..64, 0usize..4), 0..24),
    ) {
        let cgra = [
            presets::simple_mesh(4, 4),
            presets::simple_mesh(9, 9),
            presets::adres(),
            presets::baseline16(),
            presets::hycube(),
            presets::heterogeneous(),
        ][fabric].clone();
        let Ok(mii) = Problem::mii(&dfg, &cgra) else { return Ok(()); };
        let Ok(problem) = Problem::new(&dfg, &cgra, mii) else { return Ok(()); };
        let problem = problem.with_candidate_pruning();
        let oracle = Oracle::new(&problem);
        let mut env = MapEnv::new(&problem);
        for (pick, op) in ops {
            let (legal, live) = oracle.masks(&env);
            let search: Vec<bool> = legal.iter().zip(&live).map(|(l, c)| *l && *c).collect();
            prop_assert_eq!(env.action_mask(), legal.clone());
            prop_assert_eq!(env.search_mask(), search.clone());
            let ids = |mask: &[bool]| -> Vec<PeId> {
                (0..mask.len()).filter(|&p| mask[p]).map(|p| PeId(p as u32)).collect()
            };
            let (legal_ids, search_ids) = (ids(&legal), ids(&search));
            prop_assert_eq!(env.legal_actions(), legal_ids.clone());
            prop_assert_eq!(env.search_actions(), search_ids.clone());
            prop_assert_eq!(env.doomed(), oracle.doomed(&env));
            let pool = if search_ids.is_empty() { legal_ids } else { search_ids };
            if op == 0 || env.done() || pool.is_empty() {
                if env.undo().is_none() {
                    break;
                }
            } else {
                env.step(pool[pick % pool.len()]);
            }
        }
    }

    /// A doomed flag is conservative: whenever the pruned walk reaches
    /// a complete conflict-free mapping, no prefix state was doomed.
    #[test]
    fn successful_walks_are_never_doomed(
        dfg in dfg_strategy(),
        choices in proptest::collection::vec(0usize..64, 0..24),
    ) {
        let cgra = presets::simple_mesh(4, 4);
        let Ok(mii) = Problem::mii(&dfg, &cgra) else { return Ok(()); };
        let Ok(problem) = Problem::new(&dfg, &cgra, mii) else { return Ok(()); };
        let problem = problem.with_candidate_pruning();
        let mut env = MapEnv::new(&problem);
        let mut doomed_seen = false;
        for pick in &choices {
            if env.done() {
                break;
            }
            doomed_seen |= env.doomed();
            let search = env.search_actions();
            if search.is_empty() {
                break;
            }
            env.step(search[pick % search.len()]);
        }
        if env.success() {
            prop_assert!(!doomed_seen, "a conflict-free mapping passed through a doomed state");
            let mapping = env.final_mapping().expect("success implies a mapping");
            prop_assert!(
                validate::check_mapping(&dfg, &cgra, &mapping, mapping.ii).is_ok(),
                "pruned walk produced an invalid mapping"
            );
        }
    }
}

/// The same oracle check on full-size kernels, in the regimes where
/// exclusivity does most of the pruning: stencil_u on the 16×16 baseline
/// at II 1 (all 141 nodes share one modulo slot, so every placement
/// takes a PE from every unplaced node) and mulul on ADRES at MII (28
/// memory ops over 8 row buses), both in fail-first order; stencil_u at
/// MII + 1, where the doomed check watches PEs of several slots; and
/// stencil_u on the heterogeneous fabric in schedule order, as
/// `Problem::new` builds it for the exact mapper (the one fabric here
/// whose fail-first order differs from it). A seeded walk of 200
/// step/undo operations, stepping from doomed states too and continuing
/// on a clone of the environment taken at operation 100, checks the
/// masks, PE lists and doomed flag at every state.
#[test]
fn oracle_walks_hold_on_full_size_kernels() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    for (kernel, cgra, extra_ii, fail_first) in [
        ("stencil_u", presets::baseline16(), 0, true),
        ("mulul", presets::adres(), 0, true),
        ("stencil_u", presets::baseline16(), 1, true),
        ("stencil_u", presets::heterogeneous(), 0, false),
    ] {
        let dfg = suite::by_name(kernel).expect("kernel exists");
        let ii = Problem::mii(&dfg, &cgra).unwrap() + extra_ii;
        let problem = Problem::new(&dfg, &cgra, ii).unwrap();
        let problem = if fail_first { problem.with_candidate_pruning() } else { problem };
        let case = format!("{kernel} at II {ii}, fail-first {fail_first}");
        let oracle = Oracle::new(&problem);
        let mut env = MapEnv::new(&problem);
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let (mut doomed_states, mut max_depth) = (0usize, 0usize);
        for op in 0..200 {
            if op == 100 {
                env = env.clone();
            }
            let (legal, live) = oracle.masks(&env);
            let search: Vec<bool> = legal.iter().zip(&live).map(|(l, c)| *l && *c).collect();
            assert_eq!(env.action_mask(), legal, "{case}: legal mask at op {op}");
            assert_eq!(env.search_mask(), search, "{case}: search mask at op {op}");
            let ids = |mask: &[bool]| -> Vec<PeId> {
                (0..mask.len()).filter(|&p| mask[p]).map(|p| PeId(p as u32)).collect()
            };
            let (legal_ids, search_ids) = (ids(&legal), ids(&search));
            assert_eq!(env.legal_actions(), legal_ids, "{case}: legal ids at op {op}");
            assert_eq!(env.search_actions(), search_ids, "{case}: search ids at op {op}");
            let doomed = env.doomed();
            assert_eq!(doomed, oracle.doomed(&env), "{case}: doomed at op {op}");
            doomed_states += usize::from(doomed);
            max_depth = max_depth.max(env.placed_count());
            let pool = if search_ids.is_empty() { legal_ids } else { search_ids };
            if rng.gen_range(0usize..4) == 0 || env.done() || pool.is_empty() {
                env.undo();
            } else {
                env.step(pool[rng.gen_range(0..pool.len())]);
            }
        }
        assert!(doomed_states > 0, "{case}: the walk never reached a doomed state");
        assert!(max_depth >= 50, "{case}: the walk only reached depth {max_depth}");
    }
}

/// Per-PE restatement of the action mask and the forward-checked live
/// candidate sets, from public accessors only: the static candidate
/// sets, the schedule, hop distances and the current placements.
struct Oracle<'p> {
    problem: &'p Problem<'p>,
    hops: Vec<Vec<Option<u32>>>,
}

impl<'p> Oracle<'p> {
    fn new(problem: &'p Problem<'p>) -> Self {
        Oracle { problem, hops: mapzero::arch::analysis::shortest_paths(problem.cgra()) }
    }

    fn on_bus(&self, u: NodeId) -> bool {
        self.problem.cgra().row_shared_mem_bus()
            && self.problem.dfg().node(u).opcode.class() == OpClass::Memory
    }

    /// `u` on `p` clashes with a placed node: same modulo slot and
    /// either the same PE or, for two memory ops, the same row bus.
    fn clashes(&self, u: NodeId, p: PeId, placements: &[Option<Placement>]) -> bool {
        let schedule = self.problem.schedule();
        let row = |pe: PeId| self.problem.cgra().pe(pe).row;
        self.problem.dfg().node_ids().any(|w| {
            placements[w.index()].is_some_and(|q| {
                schedule.modulo_slot(w) == schedule.modulo_slot(u)
                    && (q.pe == p || (self.on_bus(u) && self.on_bus(w) && row(q.pe) == row(p)))
            })
        })
    }

    /// Legal: capable and no clash.
    fn legal(&self, u: NodeId, p: PeId, placements: &[Option<Placement>]) -> bool {
        self.problem.cgra().pe(p).capability.supports(self.problem.dfg().node(u).opcode)
            && !self.clashes(u, p, placements)
    }

    /// Live: a static candidate, no clash, and every DFG edge between
    /// `u` and a placed node within its hop bound (`hops ≤ slack` on
    /// registered fabrics, reachable on crossbars).
    fn live(&self, u: NodeId, p: PeId, placements: &[Option<Placement>]) -> bool {
        let schedule = self.problem.schedule();
        let circuit = self.problem.cgra().style() == RoutingStyle::CircuitSwitched;
        let within_bound = |e: &Edge| {
            let (from, to) = match (e.src == u, e.dst == u) {
                (true, false) => match placements[e.dst.index()] {
                    Some(q) => (p, q.pe),
                    None => return true,
                },
                (false, true) => match placements[e.src.index()] {
                    Some(q) => (q.pe, p),
                    None => return true,
                },
                _ => return true,
            };
            let slack = schedule.time(e.dst) + e.dist * self.problem.ii() - schedule.time(e.src);
            self.hops[from.index()][to.index()].is_some_and(|d| circuit || d <= slack)
        };
        self.problem.candidates().is_candidate(u, p)
            && !self.clashes(u, p, placements)
            && self.problem.dfg().edges().all(within_bound)
    }

    /// `(legal, live)` masks of the current node (all-false when done).
    fn masks(&self, env: &MapEnv<'_>) -> (Vec<bool>, Vec<bool>) {
        let pes = (0..self.problem.cgra().pe_count()).map(|p| PeId(p as u32));
        let Some(u) = env.current_node() else {
            return (pes.clone().map(|_| false).collect(), pes.map(|_| false).collect());
        };
        (
            pes.clone().map(|p| self.legal(u, p, env.placements())).collect(),
            pes.map(|p| self.live(u, p, env.placements())).collect(),
        )
    }

    /// Some unplaced node has no live candidate left.
    fn doomed(&self, env: &MapEnv<'_>) -> bool {
        let pes = self.problem.cgra().pe_count();
        self.problem.dfg().node_ids().filter(|u| env.placement(*u).is_none()).any(|u| {
            !(0..pes).any(|p| self.live(u, PeId(p as u32), env.placements()))
        })
    }
}

/// The fail-first order is a pure function of the problem: pinned for a
/// fixed kernel/fabric/II so any platform- or iteration-order
/// dependence shows up as a diff, and identical across rebuilds.
#[test]
fn scarcity_order_is_deterministic_and_pinned() {
    let dfg = suite::by_name("mac").expect("kernel exists");
    let cgra = presets::hrea();
    let mii = Problem::mii(&dfg, &cgra).unwrap();
    let a = Problem::new(&dfg, &cgra, mii).unwrap().with_candidate_pruning();
    let b = Problem::new(&dfg, &cgra, mii).unwrap().with_candidate_pruning();
    assert_eq!(a.order(), b.order(), "rebuild changed the order");
    let ids: Vec<u32> = a.order().iter().map(|u| u.0).collect();
    assert_eq!(
        ids,
        vec![0, 1, 2, 4, 5, 3, 6, 10, 8, 9, 7, 11],
        "fail-first order for mac on HReA at MII drifted"
    );
}

/// Two pruned compiles with the same seed visit the same placement
/// sequence and produce identical mappings (bit-reproducibility with
/// pruning on).
#[test]
fn pruned_compile_is_reproducible() {
    let dfg = suite::by_name("conv2").expect("kernel exists");
    let cgra = presets::hrea();
    let run = || {
        let mut config = MapZeroConfig::fast_test();
        config.agent.mcts.seed = 7;
        let mut compiler = Compiler::new(config);
        compiler.map(&dfg, &cgra).expect("conv2 maps on HReA")
    };
    let a = run();
    let b = run();
    assert_eq!(a.mapping, b.mapping, "pruned compile is not reproducible");
}

/// Along one placement walk of a Fig. 13 kernel on the 16×16 baseline,
/// the search is offered strictly fewer actions than the legal mask
/// holds at the same states — the effective branching factor shrinks.
#[test]
fn pruning_shrinks_the_offered_actions_on_the_16x16_baseline() {
    let dfg = suite::by_name("stencil_u").expect("kernel exists");
    let cgra = presets::baseline16();
    let mii = Problem::mii(&dfg, &cgra).unwrap();
    let pruned = Problem::new(&dfg, &cgra, mii).unwrap().with_candidate_pruning();
    let mut env = MapEnv::new(&pruned);
    let (mut offered_legal, mut offered_pruned, mut steps) = (0usize, 0usize, 0usize);
    while !env.done() && !env.doomed() {
        let search = env.search_actions();
        let Some(&first) = search.first() else { break };
        offered_legal += env.legal_actions().len();
        offered_pruned += search.len();
        env.step(first);
        steps += 1;
    }
    assert!(steps > 1, "walk stopped after {steps} steps");
    assert!(
        offered_pruned < offered_legal,
        "pruning offered {offered_pruned} actions vs {offered_legal} legal over {steps} steps"
    );
}

/// Table-2 smoke at equal (deterministic) budget: the agent in the
/// fail-first order of [`Problem::with_candidate_pruning`] must not lose
/// any kernel it maps in schedule order, both climbing II through the
/// compiler's driver, and every fail-first mapping must pass the full
/// validator.
#[test]
fn pruning_never_loses_a_kernel_at_equal_budget() {
    let cgra = presets::hrea();
    let config = MapZeroConfig::fast_test();
    let net = MapZeroNet::new(cgra.pe_count(), config.net);
    for dfg in suite::small() {
        let arm = |fail_first: bool| -> Option<Mapping> {
            let order =
                if fail_first { Problem::with_candidate_pruning } else { std::convert::identity };
            let agent = MapZeroAgent::new(&net, config.agent);
            let budget = Budget::unlimited().with_expansion_cap(6_000);
            let search =
                IiSearch::new(&dfg, &cgra, config.max_extra_ii, IiBounds::default()).ok()?;
            let climb = search
                .climb(order, config.attempts_per_ii, &budget, |problem, slice| {
                    Ok(agent.run_episode_budgeted(problem, slice).into())
                })
                .ok()?;
            climb.mapping
        };
        let fail_first = arm(true);
        let schedule_order = arm(false);
        assert!(
            fail_first.is_some() >= schedule_order.is_some(),
            "{}: the fail-first order lost the mapping (schedule order={}, fail-first={})",
            dfg.name(),
            schedule_order.is_some(),
            fail_first.is_some()
        );
        if let Some(mapping) = &fail_first {
            validate::check_mapping(&dfg, &cgra, mapping, mapping.ii)
                .unwrap_or_else(|e| panic!("{}: fail-first mapping invalid: {e:?}", dfg.name()));
        }
    }
}

/// The prune, prediction-cache, leaf-batch and expansion counters
/// surface through `MapReport::telemetry` when telemetry is enabled. One test function: the enable flag is
/// process-global.
#[test]
fn prune_counters_surface_in_report_telemetry() {
    use mapzero::obs::sink::{MemorySink, TelemetrySink};
    use std::sync::Arc;
    let sink = Arc::new(MemorySink::new());
    mapzero::obs::sink::install_sink(Arc::clone(&sink) as Arc<dyn TelemetrySink>);

    let dfg = suite::by_name("conv2").expect("kernel exists");
    let cgra = presets::hrea();
    let mut compiler = Compiler::new(MapZeroConfig::fast_test());
    let report = compiler.map(&dfg, &cgra).expect("conv2 maps onto HReA");
    let t = report.telemetry.as_ref().expect("telemetry was enabled");

    assert!(
        t.counter("search.prune.candidate_rebuild") > 0,
        "no candidate build recorded: {:?}",
        t.counters
    );
    // Registered when the search and its caches are built, so present
    // (possibly zero) in the delta.
    for name in [
        "search.prune.masked_actions",
        "search.prune.dead_state",
        "search.predict_cache.hit",
        "search.predict_cache.miss",
        "search.batch.flush",
        "search.batch.partial",
        "search.batch.cache_short_circuit",
        "search.expand.offered",
    ] {
        assert!(t.counters.contains_key(name), "{name} absent: {:?}", t.counters);
    }
    assert!(t.counter("search.expand.offered") > 0, "no expansion offered an action");
    assert!(t.counter("search.batch.flush") > 0, "no leaf batch was flushed");
    let (count, _) = t
        .histograms
        .get("search.candidates.per_node")
        .copied()
        .expect("per-node candidate histogram recorded");
    assert!(count >= dfg.node_count() as u64, "histogram saw {count} nodes");
}
