//! E17: raw simulator throughput (host Mcycles/s), with and without the
//! event-horizon I/O scheduler.
//!
//! Two workloads bracket the design space:
//!
//! * **workstation** — the §4 single-machine scenario (Mesa fib(15) plus
//!   display/disk/network device tasks).  Device-heavy: the disk and
//!   display pace real events, so the scheduler's win comes from skipping
//!   the cycles *between* events.
//! * **cluster8** — eight machines on the deterministic Ethernet running
//!   the closed-loop RPC workload, sequential executor (low noise).
//!   Network-idle-heavy: machines spend long stretches with empty FIFOs.
//!
//! Each workload runs three ways: `always_tick` (the naive reference —
//! every device ticked every cycle, exactly the pre-scheduler simulator),
//! `scheduled` (the event-horizon default), and `compiled` (E20: the
//! basic-block superinstruction core on top of the scheduler).  All modes
//! are asserted to produce the same architectural results before any
//! number is reported.
//!
//! ```sh
//! cargo bench -p dorado-bench --bench e17_sim_throughput               # full
//! cargo bench -p dorado-bench --bench e17_sim_throughput -- --quick   # ci-sized
//! cargo bench ... -- --json BENCH_PERF.json     # write machine-readable results
//! cargo bench ... -- --check BENCH_PERF.json    # fail if >25% below committed
//! ```
//!
//! The `--check` gate compares the *scheduled* throughput against the
//! committed `BENCH_PERF.json` and fails on a >25% regression.  Set
//! `DORADO_E17_NO_GATE=1` to skip the gate (slow or shared hardware).
//! The compiled-mode speedup ratios are gated the same way under
//! `DORADO_E20_NO_GATE=1`.

use std::time::Instant;

use dorado_bench::harness::json_number;
use dorado_bench::workstation_machine;
use dorado_cluster::{ClusterConfig, ClusterSim, Exec};
use dorado_core::ExecMode;
use dorado_emu::mesa;

/// One measured configuration of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Naive reference: every device ticked every cycle.
    Naive,
    /// Event-horizon scheduled interpreter (the default).
    Scheduled,
    /// Scheduled plus the compiled basic-block core.
    Compiled,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::Naive, Mode::Scheduled, Mode::Compiled];
}

const WINDOW: u16 = 3;
const PAYLOAD: u16 = 2;
const EPOCH_CYCLES: u64 = 2_000;

struct Sized {
    workstation_cycles: u64,
    cluster_epochs: u64,
    samples: usize,
}

const FULL: Sized = Sized {
    workstation_cycles: 2_000_000,
    cluster_epochs: 150,
    samples: 9,
};
const QUICK: Sized = Sized {
    workstation_cycles: 400_000,
    cluster_epochs: 40,
    samples: 3,
};

/// Runs the workstation workload once; returns (simulated cycles, seconds,
/// fib result) so the modes can be cross-checked.
fn run_workstation(budget: u64, mode: Mode) -> (u64, f64, dorado_base::Word) {
    let mut m = workstation_machine();
    m.io_mut().set_always_tick(mode == Mode::Naive);
    if mode == Mode::Compiled {
        m.set_exec_mode(ExecMode::Compiled);
    }
    let t = Instant::now();
    m.run(budget);
    let secs = t.elapsed().as_secs_f64();
    (m.cycles(), secs, mesa::tos(&m))
}

/// Runs the 8-machine cluster sequentially; returns (aggregate simulated
/// machine-cycles, seconds, completed responses).
fn run_cluster(epochs: u64, mode: Mode) -> (u64, f64, u64) {
    let mut cfg = ClusterConfig::pairs(8, WINDOW, PAYLOAD);
    cfg.epoch_cycles = EPOCH_CYCLES;
    let mut sim = ClusterSim::build(&cfg).expect("cluster builds");
    for m in &mut sim.machines {
        m.io_mut().set_always_tick(mode == Mode::Naive);
        if mode == Mode::Compiled {
            m.set_exec_mode(ExecMode::Compiled);
        }
    }
    let t = Instant::now();
    sim.run(epochs, Exec::Sequential);
    let secs = t.elapsed().as_secs_f64();
    let cycles: u64 = sim.machines.iter().map(dorado_core::Dorado::cycles).sum();
    (cycles, secs, sim.responses())
}

/// Best-of-N Mcycles/s for every mode of one workload, sampled
/// *interleaved* (naive, scheduled, compiled, naive, ...) so a sustained
/// slow window on a shared host hits all sides rather than biasing the
/// ratios.  Asserts every sample reproduces the same architectural result
/// and that all modes agree on it.
fn measure_modes<C: PartialEq + std::fmt::Debug>(
    samples: usize,
    mut run: impl FnMut(Mode) -> (u64, f64, C),
) -> ([f64; 3], C) {
    let mut best = [0.0f64; 3];
    let (mut cycles0, mut check0) = (None, None);
    for _ in 0..samples.max(1) {
        for (slot, mode) in Mode::ALL.into_iter().enumerate() {
            let (cycles, secs, check) = run(mode);
            if let (Some(c0), Some(k0)) = (&cycles0, &check0) {
                assert_eq!(*c0, cycles, "simulated cycle count must be deterministic");
                assert_eq!(
                    k0, &check,
                    "execution modes must be architecturally invisible (same result everywhere)"
                );
            } else {
                cycles0 = Some(cycles);
                check0 = Some(check);
            }
            best[slot] = best[slot].max(cycles as f64 / secs.max(1e-9) / 1e6);
        }
    }
    (best, check0.expect("at least one sample"))
}

/// One instrumented compiled-mode workstation run for the E20 telemetry
/// lines: fused-frame coverage plus the basic-block length census.
fn workstation_telemetry(budget: u64) {
    let mut m = workstation_machine();
    m.set_exec_mode(ExecMode::Compiled);
    m.run(budget);
    let (frames, fused) = m.fused_coverage();
    let total = m.cycles().max(1);
    println!(
        "E20 | workstation coverage: {fused}/{total} cycles fused ({:.1}%), {frames} frames, avg {:.1} cycles/frame",
        fused as f64 * 100.0 / total as f64,
        fused as f64 / frames.max(1) as f64,
    );
    let lens = m.compiled_block_lengths();
    let census = |lo: u32, hi: u32| lens.iter().filter(|&&l| l >= lo && l <= hi).count();
    println!(
        "E20 | block census: {} blocks, len 1: {}, 2: {}, 3-4: {}, 5-8: {}, 9+: {}, max {}",
        lens.len(),
        census(1, 1),
        census(2, 2),
        census(3, 4),
        census(5, 8),
        census(9, u32::MAX),
        lens.iter().max().copied().unwrap_or(0),
    );
}

fn main() {
    let mut quick = false;
    let mut json_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => json_path = Some(args.next().expect("--json needs a path")),
            s if s.starts_with("--json=") => json_path = Some(s["--json=".len()..].to_string()),
            "--check" => check_path = Some(args.next().expect("--check needs a path")),
            s if s.starts_with("--check=") => check_path = Some(s["--check=".len()..].to_string()),
            "--bench" => {} // cargo bench passes this through
            other => panic!("unknown argument `{other}`"),
        }
    }
    let size = if quick { QUICK } else { FULL };

    println!(
        "E17 | workstation {} cycles, cluster 8 machines x {} epochs x {EPOCH_CYCLES} cycles, best of {} sample(s){}",
        size.workstation_cycles,
        size.cluster_epochs,
        size.samples,
        if quick { " (quick)" } else { "" },
    );

    let ([ws_naive, ws_sched, ws_comp], fib) = measure_modes(size.samples, |mode| {
        run_workstation(size.workstation_cycles, mode)
    });
    let ws_speedup = ws_sched / ws_naive.max(1e-9);
    let ws_comp_speedup = ws_comp / ws_sched.max(1e-9);
    println!(
        "E17 | workstation: always_tick {ws_naive:.2} Mcycles/s, scheduled {ws_sched:.2} Mcycles/s, speedup x{ws_speedup:.2} (fib(15) = {fib})"
    );
    println!(
        "E20 | workstation: compiled {ws_comp:.2} Mcycles/s, x{ws_comp_speedup:.2} over scheduled"
    );
    workstation_telemetry(size.workstation_cycles);

    let ([cl_naive, cl_sched, cl_comp], responses) = measure_modes(size.samples, |mode| {
        run_cluster(size.cluster_epochs, mode)
    });
    let cl_speedup = cl_sched / cl_naive.max(1e-9);
    let cl_comp_speedup = cl_comp / cl_sched.max(1e-9);
    println!(
        "E17 | cluster8: always_tick {cl_naive:.2} Mcycles/s, scheduled {cl_sched:.2} Mcycles/s, speedup x{cl_speedup:.2} ({responses} responses)"
    );
    println!(
        "E20 | cluster8: compiled {cl_comp:.2} Mcycles/s, x{cl_comp_speedup:.2} over scheduled"
    );

    if let Some(path) = &json_path {
        let json = format!(
            "{{\n  \"schema\": \"dorado-e17-v2\",\n  \"quick\": {quick},\n  \"workstation_always_tick_mcps\": {ws_naive:.3},\n  \"workstation_scheduled_mcps\": {ws_sched:.3},\n  \"workstation_speedup\": {ws_speedup:.3},\n  \"workstation_compiled_mcps\": {ws_comp:.3},\n  \"workstation_compiled_speedup\": {ws_comp_speedup:.3},\n  \"cluster8_always_tick_mcps\": {cl_naive:.3},\n  \"cluster8_scheduled_mcps\": {cl_sched:.3},\n  \"cluster8_speedup\": {cl_speedup:.3},\n  \"cluster8_compiled_mcps\": {cl_comp:.3},\n  \"cluster8_compiled_speedup\": {cl_comp_speedup:.3}\n}}\n"
        );
        std::fs::write(path, json).expect("write results json");
        println!("E17 | wrote {path}");
    }

    if let Some(path) = &check_path {
        let committed = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("--check {path}: {e}"));
        // Absolute Mcycles/s is not comparable across hosts (or even across
        // invocations on a noisy shared runner — we have measured ±2×), so
        // the hard gates are on the *in-process* speedup ratios, which
        // cancel host speed: scheduled-vs-naive (E17) and
        // compiled-vs-scheduled (E20).  Absolute throughput is still
        // printed against the committed numbers for the log.
        let skip = |var: &str| std::env::var(var).is_ok_and(|v| v == "1");
        let (skip_e17, skip_e20) = (skip("DORADO_E17_NO_GATE"), skip("DORADO_E20_NO_GATE"));
        let mut failed = false;
        for (tag, skipped, key, measured, abs_key, abs) in [
            ("E17", skip_e17, "workstation_speedup", ws_speedup, "workstation_scheduled_mcps", ws_sched),
            ("E17", skip_e17, "cluster8_speedup", cl_speedup, "cluster8_scheduled_mcps", cl_sched),
            ("E20", skip_e20, "workstation_compiled_speedup", ws_comp_speedup, "workstation_compiled_mcps", ws_comp),
            ("E20", skip_e20, "cluster8_compiled_speedup", cl_comp_speedup, "cluster8_compiled_mcps", cl_comp),
        ] {
            if skipped {
                println!("{tag} | gate {key} skipped (DORADO_{tag}_NO_GATE=1)");
                continue;
            }
            let baseline = json_number(&committed, key)
                .unwrap_or_else(|| panic!("--check {path}: missing key {key}"));
            let floor = baseline * 0.75;
            let verdict = if measured < floor { "FAIL" } else { "ok" };
            println!(
                "{tag} | gate {key}: measured x{measured:.2} vs committed x{baseline:.2} (floor x{floor:.2}) {verdict}"
            );
            failed |= measured < floor;
            if let Some(abs_base) = json_number(&committed, abs_key) {
                println!(
                    "{tag} | info {abs_key}: measured {abs:.2} vs committed {abs_base:.2} (host-dependent, not gated)"
                );
            }
        }
        if failed {
            eprintln!(
                "E17 | a mode-speedup ratio regressed >25% vs {path}; rerun the full bench and recommit, or set DORADO_E17_NO_GATE=1 / DORADO_E20_NO_GATE=1"
            );
            std::process::exit(1);
        }
        println!("E17 | gate passed");
    }
}
