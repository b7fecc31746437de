//! Integration tests for the training stack: self-play, checkpointing,
//! and using trained weights inside the compiler.

use mapzero::core::network::{MapZeroNet, NetConfig};
use mapzero::core::validate::check_mapping;
use mapzero::nn::{load_params, save_params};
use mapzero::prelude::*;
use std::time::Duration;

#[test]
fn training_produces_finite_learning_curves() {
    let cgra = presets::simple_mesh(4, 4);
    let mut trainer = Trainer::new(cgra, NetConfig::tiny(), TrainConfig::fast_test());
    let metrics = trainer.run().unwrap();
    assert!(!metrics.epochs.is_empty());
    for e in &metrics.epochs {
        assert!(e.total_loss.is_finite(), "epoch {}", e.epoch);
        assert!(e.avg_reward.is_finite());
        assert!((0.0..=1.0).contains(&e.success_rate));
    }
}

#[test]
fn trained_weights_survive_checkpoint_round_trip() {
    let cgra = presets::simple_mesh(4, 4);
    let config = TrainConfig { epochs: 1, ..TrainConfig::fast_test() };
    let mut trainer = Trainer::new(cgra.clone(), NetConfig::tiny(), config);
    trainer.run().unwrap();
    let net = trainer.into_net();

    let dir = std::env::temp_dir().join("mapzero_ckpt_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("agent.mzw");
    save_params(&net.params, &path).unwrap();

    let mut restored = MapZeroNet::new(cgra.pe_count(), NetConfig::tiny());
    load_params(&mut restored.params, &path).unwrap();

    // Identical predictions after restore.
    let dfg = suite::by_name("sum").unwrap();
    let problem = Problem::new(&dfg, &cgra, 1).unwrap();
    let env = mapzero::core::MapEnv::new(&problem);
    let obs = mapzero::core::embed::observe(&env);
    assert_eq!(net.predict(&obs), restored.predict(&obs));
}

#[test]
fn compiler_uses_installed_pretrained_net() {
    let cgra = presets::simple_mesh(4, 4);
    let config = TrainConfig { epochs: 1, ..TrainConfig::fast_test() };
    let mut trainer = Trainer::new(cgra.clone(), NetConfig::tiny(), config);
    trainer.run().unwrap();

    let mut compiler = Compiler::new(MapZeroConfig::fast_test());
    compiler.install_net(trainer.into_net());
    assert!(compiler.net_for(16).is_some());

    let dfg = suite::by_name("sum").unwrap();
    let report = compiler.map(&dfg, &cgra).unwrap();
    let mapping = report.mapping.expect("sum maps with the trained agent");
    assert_eq!(check_mapping(&dfg, &cgra, &mapping, mapping.ii), Ok(()));
}

#[test]
fn ablation_mcts_off_still_terminates() {
    use mapzero::core::agent::{AgentConfig, MapZeroAgent};
    let cgra = presets::hrea();
    let dfg = suite::by_name("conv2").unwrap();
    let mii = Problem::mii(&dfg, &cgra).unwrap();
    let problem = Problem::new(&dfg, &cgra, mii).unwrap();
    let net = MapZeroNet::new(cgra.pe_count(), NetConfig::tiny());
    let config = AgentConfig {
        use_mcts: false,
        ..AgentConfig::fast_test()
    };
    let agent = MapZeroAgent::new(&net, config);
    let result = agent.run_episode(&problem, Duration::from_secs(30));
    assert!(!result.timed_out);
    if let Some(m) = result.mapping {
        assert_eq!(check_mapping(&dfg, &cgra, &m, m.ii), Ok(()));
    }
}
