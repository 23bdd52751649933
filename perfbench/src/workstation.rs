//! The `workstation` workload: the §4 machine — Mesa computing fib(15)
//! through the IFU beside a 256 Mbit/s display on fast I/O, a disk read
//! and one inbound network packet.  One iteration is one freshly built
//! machine run to its deterministic halt; machines are built outside the
//! timed region, so every iteration starts with empty caches.

use std::time::{Duration, Instant};

use dorado_base::{BaseRegId, Stats, VirtAddr, Word};
use dorado_core::{Dorado, ExecMode};
use dorado_emu::layout::*;
use dorado_emu::mesa::{self, MesaAsm};
use dorado_emu::{Suite, SuiteBuilder};
use dorado_io::{DiskController, DisplayController, NetworkController};

use crate::traced::{self, Calibration};
use crate::{micro, stats, Counts, Outcome};

/// The devices the traced run wraps.
pub const DEVICES: [&str; 3] = ["display", "disk", "network"];

/// Cycles to the halt on the default inputs.
pub const DEFAULT_CYCLES: u64 = CYCLES[0][0];

/// Cycles to the halt for every input pair a seed can pick, indexed by
/// `[disk step][packet step]` (see [`Inputs::from_seed`]), as the simulator
/// produced them when the benchmark was defined (`tests/transparency.rs`
/// re-derives them).  The packet length does not move the halt.
pub const CYCLES: [[u64; 4]; 8] = [
    [183_776; 4],
    [183_743; 4],
    [183_710; 4],
    [183_693; 4],
    [183_660; 4],
    [183_626; 4],
    [183_593; 4],
    [183_560; 4],
];

/// A budget no iteration reaches: the halt ends every run.
const BUDGET: u64 = 10_000_000;

/// Cycles per timed slice of an untraced iteration: the run to the halt
/// is made of `Dorado::run` calls of this budget, each timed on its own
/// for `mcps` (see [`Outcome::set_end_to_end_sliced`]).
pub const SLICE: u64 = 8_192;

/// The workload's free inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inputs {
    /// The Fibonacci argument.  It sets the iteration's size, which is what
    /// `iter_ms` measures, so every seed keeps it at 15.
    pub fib_n: u8,
    /// Words the disk streams into memory.
    pub disk_words: u32,
    /// Words in the inbound network packet.
    pub packet_words: Word,
}

impl Inputs {
    /// The inputs of `dorado_bench::workstation_machine()`.
    pub const DEFAULT: Inputs = Inputs {
        fib_n: 15,
        disk_words: 2048,
        packet_words: 48,
    };

    /// Seed 0 gives [`Inputs::DEFAULT`]; any other seed shortens the disk
    /// read by up to 112 words and the packet by up to 12 words.
    pub fn from_seed(seed: u64) -> Self {
        if seed == 0 {
            return Inputs::DEFAULT;
        }
        let h = stats::mix(seed);
        Inputs::at((h % 8) as usize, ((h >> 8) % 4) as usize)
    }

    /// The inputs at `disk` (0..8) and `packet` (0..4) steps below the
    /// default lengths.
    pub fn at(disk: usize, packet: usize) -> Self {
        Inputs {
            fib_n: 15,
            disk_words: 2048 - 16 * disk as u32,
            packet_words: 48 - 4 * packet as Word,
        }
    }

    /// Cycles to the halt on these inputs, from [`CYCLES`]; `None` for
    /// inputs no seed gives.
    pub fn expected_cycles(&self) -> Option<u64> {
        let disk = (2048u32.checked_sub(self.disk_words)? / 16) as usize;
        let packet = (48 as Word).checked_sub(self.packet_words)? as usize / 4;
        let fits = self.fib_n == 15 && *self == Inputs::at(disk, packet);
        CYCLES.get(disk)?.get(packet).copied().filter(|_| fits)
    }
}

/// fib(`n`) as the machine computes it.
pub fn fib(n: u8) -> Word {
    let (mut a, mut b) = (0 as Word, 1 as Word);
    for _ in 0..n {
        (a, b) = (b, a.wrapping_add(b));
    }
    a
}

/// The Mesa byte code computing fib(`n`) recursively.
pub fn program(n: u8) -> Vec<u8> {
    let mut p = MesaAsm::new();
    p.lib(n);
    p.call("fib", 1);
    p.halt();
    p.label("fib");
    p.ll(0);
    p.lib(2);
    p.sub();
    p.sl(2);
    p.ll(0);
    p.jzb("base0");
    p.ll(0);
    p.lib(1);
    p.sub();
    p.jzb("base1");
    p.ll(0);
    p.lib(1);
    p.sub();
    p.call("fib", 1);
    p.ll(2);
    p.call("fib", 1);
    p.add();
    p.ret();
    p.label("base0");
    p.lib(0);
    p.ret();
    p.label("base1");
    p.lib(1);
    p.ret();
    p.assemble().expect("fib program assembles")
}

/// Assembles and places the workstation's microcode.
pub fn suite() -> Suite {
    SuiteBuilder::new()
        .with_mesa()
        .with_display()
        .with_disk()
        .with_network()
        .assemble()
        .expect("workstation suite assembles")
}

/// Builds the machine on a pre-assembled suite — the same machine as
/// `dorado_bench::workstation_machine()` for [`Inputs::DEFAULT`].
pub fn build(suite: &Suite, inputs: &Inputs, code: &[u8]) -> Dorado {
    let mut display = DisplayController::with_rate(TASK_DISPLAY, 256.0, 60.0);
    display.start();
    let mut disk = DiskController::new(TASK_DISK);
    for (i, w) in disk
        .platter_mut()
        .iter_mut()
        .take(inputs.disk_words as usize)
        .enumerate()
    {
        *w = i as Word;
    }
    disk.start_read(inputs.disk_words as usize);
    let mut net = NetworkController::new(TASK_NET);
    net.inject_packet((1..=inputs.packet_words).map(|x| x * 3).collect());

    let mut m = suite
        .machine()
        .task_entry(TASK_EMU, "mesa:boot")
        .device(Box::new(display), IOA_DISPLAY, 2)
        .wire_ioaddress(TASK_DISPLAY, IOA_DISPLAY)
        .task_entry(TASK_DISPLAY, "disp:init")
        .device(Box::new(disk), IOA_DISK, 2)
        .wire_ioaddress(TASK_DISK, IOA_DISK)
        .task_entry(TASK_DISK, "disk:init")
        .device(Box::new(net), IOA_NET, 3)
        .wire_ioaddress(TASK_NET, IOA_NET)
        .task_entry(TASK_NET, "net:init")
        .build()
        .expect("workstation machine builds");
    mesa::configure_ifu(&mut m);
    mesa::init_runtime(&mut m);
    mesa::load_program(&mut m, code);
    m.memory_mut()
        .set_base_reg(BaseRegId::new(BR_DISPLAY), 0x2000);
    m.memory_mut().set_base_reg(BaseRegId::new(BR_DISK), 0x3000);
    m.memory_mut().set_base_reg(BaseRegId::new(BR_NET), 0x3800);
    for i in 0..0x1000u32 {
        m.memory_mut()
            .write_virt(VirtAddr::new(0x2000 + i), (i as Word).wrapping_mul(3));
    }
    m
}

/// The architectural fingerprint of one finished iteration: halted with
/// fib(n) on the stack, the disk data intact in memory, the cycle count
/// [`CYCLES`] pins for these inputs (183,776 on the default inputs), and
/// statistics equal to every other iteration's, traced and compiled ones
/// included (the first iteration sets `reference`).  The last is the
/// sim-invariance check: the traced run's counts come from `reference`.
pub fn fingerprint(
    m: &Dorado,
    halted: bool,
    inputs: &Inputs,
    reference: &mut Option<Stats>,
) -> bool {
    let disk_ok = (0..inputs.disk_words)
        .all(|i| m.memory().read_virt(VirtAddr::new(0x3000 + i)) == i as Word);
    let cycles_ok = inputs.expected_cycles() == Some(m.cycles());
    let stats = m.stats();
    let same = reference.get_or_insert_with(|| stats.clone()) == &stats;
    halted && mesa::tos(m) == fib(inputs.fib_n) && disk_ok && cycles_ok && same
}

/// How one iteration is set up before its timed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Plain,
    Traced,
    Compiled,
    CompiledTraced,
    AlwaysTick,
}

struct Fixture {
    suite: Suite,
    inputs: Inputs,
    code: Vec<u8>,
    reference: Option<Stats>,
    build_ms: Vec<f64>,
    /// Plain iterations that passed their check.
    plain_passed: usize,
    /// Per slice position, its cycles and the host ns of that slice in
    /// every passing plain iteration after the first, which warms the
    /// allocator and host caches.
    slices: Vec<(u64, stats::LowQuantile)>,
    sink: traced::Sink,
    fused: (u64, u64),
}

impl Fixture {
    fn new(seed: u64) -> Self {
        let inputs = Inputs::from_seed(seed);
        Fixture {
            suite: suite(),
            code: program(inputs.fib_n),
            inputs,
            reference: None,
            build_ms: crate::sample_vec(),
            plain_passed: 0,
            slices: Vec::new(),
            sink: traced::sink(),
            fused: (0, 0),
        }
    }

    /// One checked iteration: build (untimed), run to the halt (timed).
    fn iteration(&mut self, v: Variant) -> Option<(f64, u64)> {
        let t = Instant::now();
        let mut m = build(&self.suite, &self.inputs, &self.code);
        self.build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match v {
            Variant::Plain => {}
            Variant::Traced => traced::wrap_devices(&mut m, &DEVICES, &self.sink),
            Variant::Compiled => m.set_exec_mode(ExecMode::Compiled),
            Variant::CompiledTraced => {
                m.set_exec_mode(ExecMode::Compiled);
                traced::wrap_devices(&mut m, &DEVICES, &self.sink);
            }
            Variant::AlwaysTick => m.io_mut().set_always_tick(true),
        }
        // Plain iterations run to the halt in timed slices; the others in
        // one call.
        let budget = if v == Variant::Plain { SLICE } else { BUDGET };
        let mut slices = Vec::with_capacity(self.slices.len());
        let t = Instant::now();
        let halted = loop {
            let s = Instant::now();
            let out = m.run(budget);
            let ran = out.cycles();
            slices.push((s.elapsed().as_nanos() as u64, ran.unwrap_or(0)));
            if out.halted() || ran.is_none() || m.cycles() >= BUDGET {
                break out.halted();
            }
        };
        let ns = t.elapsed().as_nanos() as f64;
        if matches!(v, Variant::Compiled | Variant::CompiledTraced) {
            self.fused = m.fused_coverage();
        }
        let ok = fingerprint(&m, halted, &self.inputs, &mut self.reference);
        if ok && v == Variant::Plain {
            if self.plain_passed > 0 {
                if self.slices.is_empty() {
                    self.slices = slices
                        .iter()
                        .map(|&(_, cycles)| (cycles, crate::fast_quantile()))
                        .collect();
                }
                for (kind, (ns, _)) in self.slices.iter_mut().zip(slices) {
                    kind.1.push(ns);
                }
            }
            self.plain_passed += 1;
        }
        ok.then_some((ns, m.cycles()))
    }

    fn setup_s(&self, assemble_ms: f64) -> f64 {
        (assemble_ms + crate::setup_quantile(&self.build_ms)) / 1e3
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
    out.notes.push(format!("inputs: {:?}", fx.inputs));
    let budget = Duration::from_secs_f64(seconds);
    let mut asm_ns = crate::fast_quantile();
    let samples = crate::measure(&mut out, budget, crate::MIN_ITERS + 1, || {
        asm_ns.push(crate::time_ns(suite));
        fx.iteration(Variant::Plain)
    });
    let assemble = asm_ns.value() as f64 / 1e6;
    out.set_end_to_end_sliced(&samples, &fx.slices, fx.setup_s(assemble));
    out.notes.push(format!(
        "setup: {} builds, {:.3} ms, plus suite assembly {:.3} ms (of {})",
        fx.build_ms.len(),
        crate::setup_quantile(&fx.build_ms),
        assemble,
        asm_ns.count()
    ));
    out
}

/// The traced run: the per-layer ledger.  The untraced, traced, compiled
/// and always-tick variants take turns, so they see the same host-speed
/// drift.
pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome {
        threads: 1,
        ..Outcome::default()
    };
    let share = |f: f64| Duration::from_secs_f64(seconds * f);
    let cal = Calibration::measure();
    out.set("asm.assemble_ms", assemble_ms());
    let mut fx = Fixture::new(seed);

    let variants = [
        Variant::Plain,
        Variant::Traced,
        Variant::Compiled,
        Variant::AlwaysTick,
    ];
    let per = crate::measure_rotating(&mut out, share(0.75), 5, &variants, |v| fx.iteration(v));
    let [plain, traced_samples, compiled, always] = &per[..] else {
        unreachable!("one sample set per variant")
    };
    // With no passing iteration the counts read 0 and the run fails anyway.
    let untraced = Counts::of(&fx.reference.clone().unwrap_or_default());
    let sim = untraced.sim();
    out.set_sim(&sim);

    let ledgers = traced::drain(&fx.sink);
    let cycles: u64 = traced_samples.iter().map(|s| s.1).sum();
    let traced_ns: f64 = traced_samples.iter().map(|s| s.0).sum();
    let io = crate::io_metrics(&mut out, &ledgers, cycles, DEVICES.len(), &cal);
    crate::ledger_metrics(
        &mut out,
        traced_ns,
        0.0,
        cycles,
        &io,
        crate::ns_per_cycle(plain),
    );

    let (frames, fused_cycles) = fx.fused;
    let c = untraced.cycles as f64;
    out.set("core.compiled.ns_per_cycle", crate::ns_per_cycle(compiled));
    out.set(
        "core.compiled.fused_share",
        stats::ratio(fused_cycles as f64, c),
    );
    out.set(
        "core.compiled.cycles_per_frame",
        stats::ratio(fused_cycles as f64, frames as f64),
    );
    out.set("io.always_tick.ns_per_cycle", crate::ns_per_cycle(always));
    let ok = fx.iteration(Variant::CompiledTraced).is_some();
    out.check(ok);
    let display_span: u64 = traced::drain(&fx.sink)
        .iter()
        .filter(|l| l.name == "display")
        .map(|l| l.span_cycles)
        .sum();
    out.set(
        "io.display.span_share",
        stats::ratio(display_span as f64, c),
    );
    out.set("emu.build_ms", crate::setup_quantile(&fx.build_ms));

    let costs = micro::mem_costs(untraced.hit_rate(), share(0.15));
    out.set("mem.fetch_ns", costs.fetch_ns);
    out.set("mem.store_ns", costs.store_ns);
    out.set("mem.munch_ns", costs.munch_ns);
    let m = build(&fx.suite, &fx.inputs, &fx.code);
    out.set("ifu.op_ns", micro::ifu_op_ns(&m, fx.code.len(), share(0.1)));
    out.notes.push(format!(
        "samples: {} untraced, {} traced, {} compiled, {} always-tick iterations; \
         calibration {cal:?}",
        plain.len(),
        traced_samples.len(),
        compiled.len(),
        always.len()
    ));
    out
}
