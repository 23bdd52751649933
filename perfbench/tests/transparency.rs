//! The benchmark's own guarantees: its tracing seams leave the simulated
//! machine untouched, its workload replicas match the originals, and its
//! fingerprints reject wrong output.

use dorado_base::snap::save_image;
use dorado_cluster::{ClusterConfig, ClusterSim, Exec};
use dorado_core::{Dorado, ExecMode};
use dorado_emu::scenario::{drive_mode_on, ScenarioKind};
use dorado_io::NetworkController;
use dorado_perfbench::cluster::{self, progressed, run_external, Check, ExecLedger, Pin};
use dorado_perfbench::desktop;
use dorado_perfbench::traced::{self, drain, sink};
use dorado_perfbench::workstation::{self, Inputs};
use dorado_perfbench::{END_TO_END, PER_LAYER};

fn run_workstation(mode: ExecMode, wrap: bool) -> (dorado_base::Stats, Vec<u8>) {
    let suite = workstation::suite();
    let code = workstation::program(15);
    let mut m = workstation::build(&suite, &Inputs::DEFAULT, &code);
    m.set_exec_mode(mode);
    let s = sink();
    if wrap {
        traced::wrap_devices(&mut m, &workstation::DEVICES, &s);
        assert!(
            m.device_mut::<NetworkController>("network").is_some(),
            "downcasts reach the wrapped controller"
        );
    }
    assert!(m.run(10_000_000).halted());
    let out = (m.stats(), save_image(&m));
    drop(m);
    if wrap {
        let ledgers = drain(&s);
        assert_eq!(ledgers.len(), 3, "one ledger per wrapped device");
        assert!(ledgers.iter().all(|l| l.total_calls() > 0));
    }
    out
}

#[test]
fn device_wrapper_is_transparent_on_the_workstation() {
    for mode in [ExecMode::Interpreted, ExecMode::Compiled] {
        let (plain_stats, plain_image) = run_workstation(mode, false);
        let (wrapped_stats, wrapped_image) = run_workstation(mode, true);
        assert_eq!(plain_stats.cycles, workstation::DEFAULT_CYCLES);
        assert_eq!(plain_stats, wrapped_stats, "{mode:?}");
        assert!(
            plain_image == wrapped_image,
            "{mode:?}: snapshot bytes differ"
        );
    }
}

fn run_scenario(
    kind: ScenarioKind,
    mode: ExecMode,
    wrap: bool,
) -> (dorado_base::Stats, Vec<u8>, Vec<u64>) {
    let suite = desktop::suite();
    let s = sink();
    let mut last = None;
    let report = drive_mode_on(kind, &suite, false, mode, &mut |step, m: &mut Dorado| {
        if step == 0 && wrap {
            traced::wrap_devices(m, &desktop::DEVICES, &s);
        }
        last = Some((m.stats(), save_image(&*m)));
    });
    let (stats, image) = last.expect("hooks ran");
    (stats, image, report.frame_hashes)
}

#[test]
fn device_wrapper_is_transparent_on_a_desktop_scenario() {
    for mode in [ExecMode::Interpreted, ExecMode::Compiled] {
        let plain = run_scenario(ScenarioKind::BootSplash, mode, false);
        let wrapped = run_scenario(ScenarioKind::BootSplash, mode, true);
        assert_eq!(plain.0, wrapped.0, "{mode:?}: stats");
        assert!(plain.1 == wrapped.1, "{mode:?}: snapshot bytes differ");
        assert_eq!(plain.2, wrapped.2, "{mode:?}: frames");
        assert!(desktop::frames_match(ScenarioKind::BootSplash, &wrapped.2));
    }
}

#[test]
fn workstation_replica_matches_the_bench_crate_machine() {
    let suite = workstation::suite();
    let mut ours = workstation::build(&suite, &Inputs::DEFAULT, &workstation::program(15));
    let mut theirs = dorado_bench::workstation_machine();
    assert!(
        save_image(&ours) == save_image(&theirs),
        "initial state differs"
    );
    assert!(ours.run(10_000_000).halted());
    assert!(theirs.run(10_000_000).halted());
    assert_eq!(ours.stats(), theirs.stats());
    assert_eq!(dorado_emu::mesa::tos(&ours), 610);
}

#[test]
fn workstation_fingerprint_holds_for_other_seeds() {
    let suite = workstation::suite();
    for seed in [1, 7] {
        let inputs = Inputs::from_seed(seed);
        let code = workstation::program(inputs.fib_n);
        let mut reference = None;
        for _ in 0..2 {
            let mut m = workstation::build(&suite, &inputs, &code);
            let halted = m.run(10_000_000).halted();
            assert!(
                workstation::fingerprint(&m, halted, &inputs, &mut reference),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn workstation_cycle_table_matches_the_simulator() {
    let suite = workstation::suite();
    let code = workstation::program(15);
    let table: Vec<[u64; 4]> = (0..8)
        .map(|disk| {
            std::array::from_fn(|packet| {
                let mut m = workstation::build(&suite, &Inputs::at(disk, packet), &code);
                assert!(m.run(10_000_000).halted());
                m.cycles()
            })
        })
        .collect();
    assert_eq!(table, workstation::CYCLES, "CYCLES = {table:?}");
    assert_eq!(workstation::DEFAULT_CYCLES, 183_776);
}

#[test]
fn every_seed_has_pinned_workstation_cycles() {
    for seed in 0..1000 {
        assert!(
            Inputs::from_seed(seed).expected_cycles().is_some(),
            "seed {seed}"
        );
    }
    let odd = Inputs {
        disk_words: 2047,
        ..Inputs::DEFAULT
    };
    assert_eq!(odd.expected_cycles(), None);
}

/// One Sequential round of period set `index`, checking every chunk's
/// progress; returns the round's totals.
fn cluster_round(suite: &dorado_emu::Suite, index: usize) -> Pin {
    let cfg = cluster::config_at(index);
    let mut sim = ClusterSim::build_with(&cfg, suite).expect("builds");
    let expected = cluster::MACHINES as u64 * cluster::CHUNK * cfg.epoch_cycles;
    let mut last = Check::of(&sim);
    for chunk in 0..cluster::ROUND {
        let before = cluster::machine_cycles(&sim);
        sim.run(cluster::CHUNK, Exec::Sequential);
        let check = Check::of(&sim);
        let ran = cluster::machine_cycles(&sim) - before;
        assert!(
            progressed(&sim, &last, &check, ran, expected),
            "set {index}, chunk {chunk}"
        );
        last = check;
    }
    Pin::of(&last)
}

#[test]
fn cluster_pins_match_the_simulator() {
    let suite = cluster::suite();
    let pins: Vec<Pin> = (0..cluster::CONFIGS)
        .map(|i| cluster_round(&suite, i))
        .collect();
    assert_eq!(pins, cluster::PINS, "PINS = {pins:#?}");
}

#[test]
fn cluster_progress_check_rejects_a_short_chunk() {
    let cfg = cluster::config(0);
    let mut sim = ClusterSim::build(&cfg).expect("builds");
    let expected = cluster::MACHINES as u64 * cluster::CHUNK * cfg.epoch_cycles;
    sim.run(cluster::CHUNK, Exec::Sequential);
    let last = Check::of(&sim);
    let before = cluster::machine_cycles(&sim);
    sim.run(cluster::CHUNK - 1, Exec::Sequential);
    let ran = cluster::machine_cycles(&sim) - before;
    assert!(!progressed(&sim, &last, &Check::of(&sim), ran, expected));
    assert!(
        !progressed(&sim, &last, &last, expected, expected),
        "no client heard"
    );
}

fn external_matches_sequential(cfg: &ClusterConfig, epochs: u64) {
    let mut reference = ClusterSim::build(cfg).expect("builds");
    reference.run(epochs, Exec::Sequential);
    let mut ours = ClusterSim::build(cfg).expect("builds");
    let mut ledger = ExecLedger::default();
    let now = run_external(
        &mut ours.machines,
        &ours.fabric,
        cfg.epoch_cycles,
        epochs,
        0,
        &mut ledger,
    );
    assert_eq!(now, reference.cycles());
    assert_eq!(ledger.epochs, epochs);
    assert!(cluster::state(&ours) == cluster::state(&reference));
    assert!(ledger.sent > 0 && ledger.collected > 0);
}

#[test]
fn external_epoch_loop_is_bit_identical_on_closed_loop_pairs() {
    external_matches_sequential(&ClusterConfig::pairs(8, 2, 2), 40);
}

#[test]
fn external_epoch_loop_is_bit_identical_on_open_loop_generators() {
    external_matches_sequential(&ClusterConfig::open_loop(8, 25, 4, 2), 40);
}

#[test]
fn external_epoch_loop_is_bit_identical_with_wrapped_controllers() {
    let cfg = ClusterConfig::open_loop(4, 25, 4, 2);
    let mut reference = ClusterSim::build(&cfg).expect("builds");
    reference.run(30, Exec::Sequential);
    let mut ours = ClusterSim::build(&cfg).expect("builds");
    let s = sink();
    for m in &mut ours.machines {
        traced::wrap_devices(m, &["network"], &s);
    }
    run_external(
        &mut ours.machines,
        &ours.fabric,
        cfg.epoch_cycles,
        30,
        0,
        &mut ExecLedger::default(),
    );
    assert!(cluster::state(&ours) == cluster::state(&reference));
}

#[test]
fn cluster_sim_counts_repeat_across_runs() {
    let cfg = cluster::config(3);
    let counts = || {
        let mut sim = ClusterSim::build(&cfg).expect("builds");
        sim.run(24, Exec::Sequential);
        cluster::sim_counts(&sim, 24, cfg.epoch_cycles)
    };
    assert_eq!(counts(), counts());
}

#[test]
fn desktop_fingerprint_rejects_a_corrupted_frame_hash() {
    for kind in ScenarioKind::ALL {
        let golden = desktop::golden(kind);
        assert!(golden.len() >= 3, "{}", kind.name());
        assert!(desktop::frames_match(kind, &golden));
        let mut bad = golden.clone();
        bad[1] ^= 1;
        assert!(!desktop::frames_match(kind, &bad), "{}", kind.name());
        assert!(!desktop::frames_match(kind, &golden[..golden.len() - 1]));
    }
}

#[test]
fn desktop_orders_are_permutations_of_the_corpus() {
    assert_eq!(desktop::order(0), ScenarioKind::ALL);
    for seed in 0..20 {
        let mut names = desktop::order(seed).map(ScenarioKind::name);
        names.sort_unstable();
        assert_eq!(names, ["blit_anim", "boot_splash", "editor_storm"]);
    }
}

/// The metric names in `BENCHMARK.json`, in file order, from the section
/// starting at `key`.
fn declared(key: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let section = &text[start..];
    let end = section.find(']').expect("section closes");
    section[..end]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_declares_every_reported_metric() {
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(declared("end_to_end"), e2e);
    assert_eq!(declared("per_layer"), layers);
    let workloads = declared("workloads");
    assert_eq!(workloads, ["workstation", "cluster"]);
}
