//! The `cluster` workload: 32 machines on the Ethernet fabric — 16 echo
//! servers and 16 open-loop generators driven past saturation — in epochs
//! of 2,000 cycles.  One iteration is one `ClusterSim::run` call of
//! [`CHUNK`] epochs.  A fresh cluster is built every [`ROUND`] iterations,
//! so every round simulates the same epochs and host memory stays bounded
//! by one round's fabric logs.  Fingerprint: after each chunk, every
//! machine ran every cycle of the chunk without halting, every client
//! received a packet, and the per-port fabric tx/rx/drop counters and the
//! request-latency p50/p99 equal those of an `Exec::Sequential` round of
//! the same seed, whose totals at the round's end equal [`PINS`].

use std::time::{Duration, Instant};

use dorado_base::{Cycles, FabricPortStats, Stats, Word};
use dorado_cluster::{ClusterConfig, ClusterSim, Exec, Fabric, Role};
use dorado_core::{Dorado, ExecMode};
use dorado_emu::{Suite, SuiteBuilder};
use dorado_io::NetworkController;

use crate::traced::{self, Calibration};
use crate::{micro, stats, Counts, Outcome, SimCounts};

/// Machines in the cluster.
pub const MACHINES: usize = 32;
/// Epochs per iteration.
pub const CHUNK: u64 = 4;
/// Iterations per freshly built cluster.
pub const ROUND: usize = 32;
/// The executor the end-to-end metrics measure.  `Exec::Pool(2)` spread
/// too widely on a shared 2-vCPU host: its barriers stall whenever the
/// host steals either vCPU (median 26 Mcycles/s, IQR 51% of it over five
/// 20 s runs, against 15, ~10% for Sequential).  The pool's gain is
/// measured instead by `cluster.exec.pool_speedup` in the traced run.
pub const EXEC: Exec = Exec::Sequential;
/// Worker threads the traced run's `Exec::Pool` lane asks for.
pub const POOL_THREADS: usize = 2;

/// Generator-period sets a seed picks from.
pub const CONFIGS: usize = 8;

/// The period set `seed` picks: 0 for seed 0, any of [`CONFIGS`] otherwise.
pub fn config_index(seed: u64) -> usize {
    if seed == 0 {
        0
    } else {
        (stats::mix(seed) % CONFIGS as u64) as usize
    }
}

/// The open-loop topology of period set `index`:
/// `ClusterConfig::open_loop(32, 25, 4, 2)` for index 0; the others give
/// each generator its own period in 24..=26.
pub fn config_at(index: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::open_loop(MACHINES, 25, 4, 2);
    if index != 0 {
        for (i, spec) in cfg.specs.iter_mut().enumerate() {
            if let Role::OpenClient { period, .. } = &mut spec.role {
                *period = 24 + (stats::mix(index as u64 ^ (i as u64) << 32) % 3) as Word;
            }
        }
    }
    cfg
}

/// The topology of `seed`.
pub fn config(seed: u64) -> ClusterConfig {
    config_at(config_index(seed))
}

/// A round's fabric totals and request latency: what one Sequential round
/// of [`ROUND`] × [`CHUNK`] epochs must end with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// Packets sent into the fabric, all ports.
    pub tx: u64,
    /// Packets delivered, all ports.
    pub rx: u64,
    /// Packets dropped, all ports.
    pub drops: u64,
    /// Request round-trip latency p50 (cycles).
    pub p50: u64,
    /// Request round-trip latency p99 (cycles).
    pub p99: u64,
}

impl Pin {
    /// The totals of a fingerprint.
    pub fn of(check: &Check) -> Self {
        let sum = |f: fn(&(u64, u64, u64)) -> u64| check.ports.iter().map(f).sum();
        Pin {
            tx: sum(|p| p.0),
            rx: sum(|p| p.1),
            drops: sum(|p| p.2),
            p50: check.latency.0,
            p99: check.latency.1,
        }
    }
}

/// The round totals of each period set, as the simulator produced them
/// when the benchmark was defined (`tests/transparency.rs` re-derives
/// them).  A change to simulated behaviour shows here on every seed.
pub const PINS: [Pin; CONFIGS] = [
    pin(100_832, 74_016, 26_240, 114_906, 219_534),
    pin(101_065, 74_016, 26_473, 114_911, 219_576),
    pin(100_530, 74_016, 25_938, 114_906, 219_576),
    pin(100_852, 74_016, 26_260, 114_906, 219_576),
    pin(100_753, 74_016, 26_161, 114_906, 219_600),
    pin(100_545, 74_016, 25_953, 114_893, 219_600),
    pin(100_867, 74_016, 26_275, 114_906, 219_600),
    pin(100_436, 74_016, 25_844, 114_893, 219_600),
];

const fn pin(tx: u64, rx: u64, drops: u64, p50: u64, p99: u64) -> Pin {
    Pin {
        tx,
        rx,
        drops,
        p50,
        p99,
    }
}

/// Assembles and places the cluster microcode.
pub fn suite() -> Suite {
    SuiteBuilder::new()
        .with_cluster()
        .assemble()
        .expect("cluster suite assembles")
}

/// What the fingerprint compares after each chunk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Check {
    /// Per-port `(tx_packets, rx_packets, drops)`.
    pub ports: Vec<(u64, u64, u64)>,
    /// Request round-trip latency p50 and p99 (cycles).
    pub latency: (u64, u64),
}

impl Check {
    /// Reads the fingerprint of `sim`.
    pub fn of(sim: &ClusterSim) -> Self {
        let ports = sim
            .fabric
            .stats()
            .ports
            .iter()
            .map(|p: &FabricPortStats| (p.tx_packets, p.rx_packets, p.drops))
            .collect();
        let lat = sim.workload_summary().latency;
        Check {
            ports,
            latency: (lat.p50, lat.p99),
        }
    }
}

/// Machine cycles simulated so far, summed over every machine.
pub fn machine_cycles(sim: &ClusterSim) -> u64 {
    sim.machines.iter().map(Dorado::cycles).sum()
}

/// Whether a chunk did its work: between `before` and `after` every
/// machine ran all `expected` cycles (`ran` is what they did run), none
/// halted, and every client received at least one packet.
pub fn progressed(
    sim: &ClusterSim,
    before: &Check,
    after: &Check,
    ran: u64,
    expected: u64,
) -> bool {
    let clients_heard = sim
        .roles()
        .iter()
        .zip(before.ports.iter().zip(&after.ports))
        .filter(|(r, _)| r.is_client())
        .all(|(_, (b, a))| a.1 > b.1);
    ran == expected && !sim.machines.iter().any(Dorado::halted) && clients_heard
}

/// The deterministic counts of a round: core/memory/IFU over every
/// machine, plus the fabric and request-level figures.  Goodput comes
/// from the fabric's u64 rx counters on client ports, not from the
/// machines' 16-bit response counters, which wrap.
pub fn sim_counts(sim: &ClusterSim, epochs: u64, epoch_cycles: u64) -> SimCounts {
    let mut counts = Counts::default();
    for m in &sim.machines {
        counts.add(&Counts::of(&m.stats()));
    }
    let fs = sim.fabric.stats();
    let goodput: u64 = sim
        .roles()
        .iter()
        .zip(&fs.ports)
        .filter(|(r, _)| r.is_client())
        .map(|(_, p)| p.rx_packets)
        .sum();
    let secs = dorado_base::ClockConfig::multiwire().to_seconds(Cycles(epochs * epoch_cycles));
    let lat = sim.workload_summary().latency;
    let mut sim_counts = counts.sim();
    sim_counts.insert(
        "cluster.fabric.packets_per_epoch",
        stats::ratio(fs.tx_packets() as f64, epochs as f64),
    );
    sim_counts.insert(
        "cluster.fabric.drop_share",
        stats::ratio(fs.drops() as f64, fs.tx_packets() as f64),
    );
    sim_counts.insert(
        "cluster.sim.goodput_rps",
        stats::ratio(goodput as f64, secs),
    );
    sim_counts.insert("cluster.sim.latency_p50_cycles", lat.p50 as f64);
    sim_counts.insert("cluster.sim.latency_p99_cycles", lat.p99 as f64);
    sim_counts
}

/// Where an external sequential epoch loop spent its time.
#[derive(Debug, Clone, Default)]
pub struct ExecLedger {
    /// Epochs run.
    pub epochs: u64,
    /// Run phase: every machine's `run_quantum` (ns).
    pub run_ns: f64,
    /// Send phase: drains and `Fabric::send_stamped` calls (ns).
    pub send_ns: f64,
    /// Collect phase: `collect_for_port` and injections (ns).
    pub collect_ns: f64,
    /// Sum over epochs of max ÷ mean per-machine `run_quantum` time.
    pub imbalance_sum: f64,
    /// Packets sent, and ns inside `send_stamped`.
    pub sent: u64,
    /// ns inside `Fabric::send_stamped`.
    pub send_call_ns: f64,
    /// Packets collected.
    pub collected: u64,
    /// ns inside `Fabric::collect_for_port`.
    pub collect_call_ns: f64,
}

fn net(m: &mut Dorado) -> &mut NetworkController {
    m.device_mut::<NetworkController>("network")
        .expect("cluster machines carry a network controller")
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// The sequential epoch loop rebuilt from public calls — `run_quantum`,
/// `drain_transmitted_stamped`, `Fabric::send_stamped`, `collect_for_port`
/// and `inject_packet` — with a span around each phase and each fabric
/// call.  Bit-identical to `dorado_cluster::run_sequential` (see
/// `tests/transparency.rs`).  Returns the fabric time reached.
pub fn run_external(
    machines: &mut [Dorado],
    fabric: &Fabric,
    epoch_cycles: u64,
    epochs: u64,
    start_cycle: u64,
    ledger: &mut ExecLedger,
) -> u64 {
    let mut now = start_cycle;
    let mut per_machine = vec![0.0; machines.len()];
    for _ in 0..epochs {
        if !machines.is_empty() && machines.iter().all(Dorado::halted) {
            break;
        }
        now += epoch_cycles;
        ledger.epochs += 1;

        let phase = Instant::now();
        for (m, t) in machines.iter_mut().zip(&mut per_machine) {
            let start = Instant::now();
            m.run_quantum(epoch_cycles);
            *t = ns(start);
        }
        ledger.run_ns += ns(phase);
        let max = per_machine.iter().copied().fold(0.0, f64::max);
        let mean = per_machine.iter().sum::<f64>() / per_machine.len().max(1) as f64;
        ledger.imbalance_sum += stats::ratio(max, mean);

        let phase = Instant::now();
        for (port, m) in machines.iter_mut().enumerate() {
            let pending = m
                .io()
                .device_by_name("network")
                .is_some_and(dorado_io::Device::tx_pending);
            if !pending {
                continue;
            }
            for (stamp, pkt) in net(m).drain_transmitted_stamped() {
                let start = Instant::now();
                fabric.send_stamped(port, pkt, now, stamp);
                ledger.send_call_ns += ns(start);
                ledger.sent += 1;
            }
        }
        ledger.send_ns += ns(phase);

        let phase = Instant::now();
        for (port, m) in machines.iter_mut().enumerate() {
            let start = Instant::now();
            let packets = fabric.collect_for_port(port, now);
            ledger.collect_call_ns += ns(start);
            ledger.collected += packets.len() as u64;
            if !packets.is_empty() {
                let controller = net(m);
                for pkt in packets {
                    controller.inject_packet(pkt);
                }
            }
        }
        ledger.collect_ns += ns(phase);
    }
    now
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// `ClusterSim::run` under this executor.
    Plain(Exec),
    /// [`EXEC`] with every machine in `ExecMode::Compiled`.
    Compiled,
    /// [`EXEC`] with every machine's I/O in always-tick mode.
    AlwaysTick,
    /// [`run_external`] with the network controllers wrapped.
    Traced,
}

/// One variant's cluster, partway through a round.
struct Lane {
    v: Variant,
    sim: Option<ClusterSim>,
    chunk: usize,
    now: u64,
    /// The fingerprint after the previous chunk.
    last: Check,
}

struct Fixture {
    suite: Suite,
    cfg: ClusterConfig,
    /// The round totals this seed's Sequential round must reach.
    pin: Pin,
    reference: Vec<Check>,
    /// Whether the reference round progressed in every chunk and ended on
    /// [`Fixture::pin`]; if not, no iteration passes.
    anchored: bool,
    build_ms: Vec<f64>,
    sink: traced::Sink,
    ledger: ExecLedger,
    /// Simulated counts of every finished traced round.
    traced_rounds: Vec<SimCounts>,
}

impl Fixture {
    fn new(seed: u64) -> Self {
        let index = config_index(seed);
        Fixture {
            suite: suite(),
            cfg: config_at(index),
            pin: PINS[index],
            reference: Vec::new(),
            anchored: false,
            build_ms: crate::sample_vec(),
            sink: traced::sink(),
            ledger: ExecLedger::default(),
            traced_rounds: Vec::new(),
        }
    }

    fn build(&mut self) -> ClusterSim {
        let t = Instant::now();
        let sim = ClusterSim::build_with(&self.cfg, &self.suite).expect("cluster builds");
        self.build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        sim
    }

    /// Runs one sequential round, recording the fingerprint after every
    /// chunk and checking it against the pinned totals; returns the
    /// finished cluster.
    fn reference_round(&mut self) -> ClusterSim {
        let mut sim = self.build();
        self.reference.clear();
        let mut last = Check::of(&sim);
        self.anchored = true;
        for _ in 0..ROUND {
            let before = machine_cycles(&sim);
            sim.run(CHUNK, Exec::Sequential);
            let check = Check::of(&sim);
            let ran = machine_cycles(&sim) - before;
            self.anchored &= progressed(&sim, &last, &check, ran, self.cycles_per_chunk());
            self.reference.push(check.clone());
            last = check;
        }
        self.anchored &= Pin::of(&last) == self.pin;
        sim
    }

    fn cycles_per_chunk(&self) -> u64 {
        MACHINES as u64 * CHUNK * self.cfg.epoch_cycles
    }

    /// One checked chunk of `lane`'s round, rebuilding at round boundaries.
    fn iteration(&mut self, lane: &mut Lane) -> Option<(f64, u64)> {
        if lane.sim.is_none() || lane.chunk == ROUND {
            // Drop the finished cluster first: its wrapped controllers
            // hand their ledgers to the sink.
            lane.sim = None;
            let mut sim = self.build();
            for m in &mut sim.machines {
                match lane.v {
                    Variant::Compiled => m.set_exec_mode(ExecMode::Compiled),
                    Variant::AlwaysTick => m.io_mut().set_always_tick(true),
                    Variant::Traced => traced::wrap_devices(m, &["network"], &self.sink),
                    Variant::Plain(_) => {}
                }
            }
            lane.last = Check::of(&sim);
            lane.sim = Some(sim);
            lane.chunk = 0;
            lane.now = 0;
        }
        let sim = lane.sim.as_mut().expect("built above");
        let before = machine_cycles(sim);
        let t = Instant::now();
        match lane.v {
            Variant::Plain(exec) => sim.run(CHUNK, exec),
            Variant::Compiled | Variant::AlwaysTick => sim.run(CHUNK, EXEC),
            Variant::Traced => {
                lane.now = run_external(
                    &mut sim.machines,
                    &sim.fabric,
                    self.cfg.epoch_cycles,
                    CHUNK,
                    lane.now,
                    &mut self.ledger,
                );
            }
        }
        let ns = ns(t);
        let ran = machine_cycles(sim) - before;
        let check = Check::of(sim);
        let ok = self.anchored
            && progressed(sim, &lane.last, &check, ran, self.cycles_per_chunk())
            && check == self.reference[lane.chunk];
        lane.last = check;
        lane.chunk += 1;
        if lane.v == Variant::Traced && lane.chunk == ROUND {
            let epochs = ROUND as u64 * CHUNK;
            self.traced_rounds
                .push(sim_counts(sim, epochs, self.cfg.epoch_cycles));
        }
        if !ok {
            // A diverged cluster cannot pass later checks: start afresh.
            lane.sim = None;
        }
        ok.then_some((ns, ran))
    }
}

fn lane(v: Variant) -> Lane {
    Lane {
        v,
        sim: None,
        chunk: 0,
        now: 0,
        last: Check::default(),
    }
}

fn assemble_ms() -> f64 {
    crate::setup_ms(crate::SETUP_SAMPLES, suite)
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome {
        threads: 1,
        ..Outcome::default()
    };
    let mut fx = Fixture::new(seed);
    drop(fx.reference_round());
    let mut plain = lane(Variant::Plain(EXEC));
    let budget = Duration::from_secs_f64(seconds);
    let mut asm_ns = crate::fast_quantile();
    let samples = crate::measure(&mut out, budget, crate::MIN_ITERS + 1, || {
        asm_ns.push(crate::time_ns(suite));
        fx.iteration(&mut plain)
    });
    let assemble = asm_ns.value() as f64 / 1e6;
    let build = crate::setup_quantile(&fx.build_ms);
    out.set_end_to_end(&samples, (assemble + build) / 1e3);
    out.notes.push(format!(
        "exec {EXEC:?}, {CHUNK} epochs per iteration, {ROUND} iterations per cluster; \
         setup: suite assembly {:.3} ms (of {}) + cluster build {build:.3} ms (of {})",
        assemble,
        asm_ns.count(),
        fx.build_ms.len()
    ));
    out
}

/// The traced run: the per-layer ledger.  Sequential, pool, compiled,
/// always-tick and traced clusters advance a chunk each in turn, so they
/// see the same host-speed drift.
pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome {
        threads: POOL_THREADS,
        ..Outcome::default()
    };
    let share = |f: f64| Duration::from_secs_f64(seconds * f);
    let cal = Calibration::measure();
    out.set("asm.assemble_ms", assemble_ms());
    let mut fx = Fixture::new(seed);
    let epoch_cycles = fx.cfg.epoch_cycles;

    // Host memory per simulated epoch: the fabric's tx/rx logs grow
    // without bound on one long-lived cluster.  Measured first, before
    // freed clusters leave pages the allocator could reuse or trim.
    let mut cs = fx.build();
    cs.run(CHUNK, EXEC);
    let before = crate::host::rss_mb();
    let epochs = 4 * ROUND as u64 * CHUNK;
    cs.run(epochs, EXEC);
    out.set(
        "cluster.rss_growth_mb_per_kepoch",
        (crate::host::rss_mb() - before) / (epochs as f64 / 1e3),
    );
    drop(cs);

    let reference = fx.reference_round();
    let sim = sim_counts(&reference, ROUND as u64 * CHUNK, epoch_cycles);
    out.set_sim(&sim);
    drop(reference);

    let mut lanes = [
        lane(Variant::Plain(Exec::Sequential)),
        lane(Variant::Plain(Exec::Pool(POOL_THREADS))),
        lane(Variant::Compiled),
        lane(Variant::AlwaysTick),
        lane(Variant::Traced),
    ];
    let order: Vec<usize> = (0..lanes.len()).collect();
    let per = crate::measure_rotating(&mut out, share(0.7), ROUND, &order, |i| {
        fx.iteration(&mut lanes[i])
    });
    let [seq, pool, compiled, always, traced_samples] = &per[..] else {
        unreachable!("one sample set per lane")
    };
    let seq_ns = crate::ns_per_cycle(seq);
    out.set(
        "cluster.exec.pool_speedup",
        stats::ratio(seq_ns, crate::ns_per_cycle(pool)),
    );
    out.set("core.compiled.ns_per_cycle", crate::ns_per_cycle(compiled));
    out.set("io.always_tick.ns_per_cycle", crate::ns_per_cycle(always));
    let compiled_lane = &lanes[2];
    let (frames, fused_cycles) = compiled_lane.sim.as_ref().map_or((0, 0), |cs| {
        cs.machines.iter().fold((0, 0), |(f, c), m| {
            let (mf, mc) = m.fused_coverage();
            (f + mf, c + mc)
        })
    });
    let run_cycles = compiled_lane.sim.as_ref().map_or(0, machine_cycles);
    out.set(
        "core.compiled.fused_share",
        stats::ratio(fused_cycles as f64, run_cycles as f64),
    );
    out.set(
        "core.compiled.cycles_per_frame",
        stats::ratio(fused_cycles as f64, frames as f64),
    );

    for traced_round in &fx.traced_rounds {
        out.compare_sim("cluster", &sim, traced_round);
    }
    if fx.traced_rounds.is_empty() {
        out.sim_mismatches
            .push("cluster: no traced round finished".to_string());
    }
    // Release every wrapped controller's ledger.
    lanes[4].sim = None;
    let ledgers = traced::drain(&fx.sink);
    let ledger = &fx.ledger;
    let e = ledger.epochs as f64;
    let cycles: u64 = traced_samples.iter().map(|s| s.1).sum();
    let io = crate::io_metrics(&mut out, &ledgers, cycles, 1, &cal);
    let traced_ns: f64 = traced_samples.iter().map(|s| s.0).sum();
    let other_ns = traced_ns - ledger.run_ns;
    crate::ledger_metrics(&mut out, traced_ns, other_ns, cycles, &io, seq_ns);
    out.set("cluster.exec.run_ms_per_epoch", ledger.run_ns / e / 1e6);
    out.set("cluster.exec.send_ms_per_epoch", ledger.send_ns / e / 1e6);
    out.set(
        "cluster.exec.collect_ms_per_epoch",
        ledger.collect_ns / e / 1e6,
    );
    out.set("cluster.exec.imbalance", ledger.imbalance_sum / e);
    out.set(
        "cluster.fabric.send_ns_per_packet",
        stats::ratio(ledger.send_call_ns, ledger.sent as f64),
    );
    out.set(
        "cluster.fabric.collect_ns_per_packet",
        stats::ratio(ledger.collect_call_ns, ledger.collected as f64),
    );
    drop(lanes);

    out.set("emu.build_ms", crate::setup_quantile(&fx.build_ms));

    let costs = micro::mem_costs(sim["mem.hit_rate"], share(0.1));
    out.set("mem.fetch_ns", costs.fetch_ns);
    out.set("mem.store_ns", costs.store_ns);
    out.set("mem.munch_ns", costs.munch_ns);
    out.notes.push(format!(
        "samples: {} sequential, {} pool, {} compiled, {} always-tick, {} traced chunks of \
         {CHUNK} epochs; {} traced rounds; calibration {cal:?}",
        seq.len(),
        pool.len(),
        compiled.len(),
        always.len(),
        traced_samples.len(),
        fx.traced_rounds.len()
    ));
    out
}

/// Every machine's statistics and the fabric counters, for comparing two
/// executions of one cluster.
pub fn state(sim: &ClusterSim) -> (Vec<Stats>, dorado_base::FabricStats) {
    (
        sim.machines.iter().map(Dorado::stats).collect(),
        sim.fabric.stats(),
    )
}
