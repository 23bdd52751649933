//! Isolated microbenchmarks of the memory pipeline and the IFU, driven
//! through their public functions on standalone instances — the seams the
//! interpreter calls every cycle but exposes no span around.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dorado_base::{TaskId, VirtAddr};
use dorado_core::Dorado;
use dorado_mem::{MemConfig, MemorySystem};

/// Host ns per memory operation, each retried through holds and ticked
/// to completion.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemCosts {
    /// `start_fetch` + `tick`s + `memdata` (ns per fetch).
    pub fetch_ns: f64,
    /// `start_store` + `tick`s (ns per store).
    pub store_ns: f64,
    /// `fast_fetch` + `tick`s (ns per fast-I/O munch).
    pub munch_ns: f64,
}

const OPS: usize = 4096;

/// A deterministic address stream hitting the cache at `hit_rate`: hits go
/// to a small hot set kept most-recently-used, misses walk fresh munches
/// through the rest of storage (one hot line per set, so with the
/// two-way cache a miss evicts the previous miss, not the hot line).
fn addresses(hit_rate: f64) -> Vec<VirtAddr> {
    let mut acc = 0.0;
    let mut next_miss = 0x4000u32;
    (0..OPS)
        .map(|i| {
            acc += hit_rate;
            if acc >= 1.0 {
                acc -= 1.0;
                VirtAddr::new(0x100 + (i as u32 % 8) * 16 + i as u32 % 16)
            } else {
                next_miss = if next_miss >= 0xFFF0 {
                    0x4000
                } else {
                    next_miss + 16
                };
                VirtAddr::new(next_miss)
            }
        })
        .collect()
}

fn per_op(budget: Duration, mut batch: impl FnMut() -> usize) -> f64 {
    let mut samples = Vec::new();
    let end = Instant::now() + budget;
    while samples.len() < 5 || Instant::now() < end {
        let t = Instant::now();
        let ops = batch();
        samples.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    crate::stats::median(&samples)
}

/// Times processor fetches, processor stores and fast-I/O munch fetches on
/// a fresh default [`MemorySystem`], with the cache hit rate the workload
/// reported.  Each third of `budget` goes to one operation; the reported
/// cost is the median over batches of [`OPS`] operations.
pub fn mem_costs(hit_rate: f64, budget: Duration) -> MemCosts {
    let addrs = addresses(hit_rate);
    let task = TaskId::EMULATOR;
    let third = budget / 3;
    let mut mem = MemorySystem::new(MemConfig::default());
    let fetch_ns = per_op(third, || {
        for &a in &addrs {
            while mem.start_fetch(task, a).is_err() {
                mem.tick();
            }
            mem.tick();
            loop {
                match mem.memdata(task) {
                    Ok(w) => {
                        black_box(w);
                        break;
                    }
                    Err(_) => mem.tick(),
                }
            }
        }
        addrs.len()
    });
    let mut mem = MemorySystem::new(MemConfig::default());
    let store_ns = per_op(third, || {
        for (i, &a) in addrs.iter().enumerate() {
            while mem.start_store(task, a, i as u16).is_err() {
                mem.tick();
            }
            mem.tick();
        }
        addrs.len()
    });
    let mut mem = MemorySystem::new(MemConfig::default());
    let munch_ns = per_op(third, || {
        for i in 0..OPS as u32 {
            let a = VirtAddr::new(0x2000 + (i % 256) * 16);
            loop {
                match mem.fast_fetch(a) {
                    Ok(m) => {
                        black_box(m);
                        break;
                    }
                    Err(_) => mem.tick(),
                }
            }
            mem.tick();
        }
        OPS
    });
    MemCosts {
        fetch_ns,
        store_ns,
        munch_ns,
    }
}

/// Host ns per macroinstruction for the IFU alone: `tick` (with the
/// memory clock) until a dispatch is ready, `dispatch`, then `ifudata`
/// for every operand, streaming the byte code loaded in `m` (decode table
/// and code copied into a standalone memory system) from its start.
pub fn ifu_op_ns(m: &Dorado, code_bytes: usize, budget: Duration) -> f64 {
    let template = m.ifu().clone();
    let base = template.code_base();
    let mut mem = MemorySystem::new(MemConfig::default());
    for i in 0..code_bytes.div_ceil(2) as u32 {
        let a = VirtAddr::new(base.0 + i);
        mem.write_virt(a, m.memory().read_virt(a));
    }
    let mut ifu = template;
    per_op(budget, || {
        let mut ops = 0;
        for _ in 0..1024 {
            if ifu.pc() as usize >= code_bytes {
                ifu.jump(0);
            }
            while ifu.dispatch_peek().is_none() {
                ifu.tick(&mut mem);
                mem.tick();
            }
            black_box(ifu.dispatch());
            while let Some(w) = ifu.ifudata() {
                black_box(w);
            }
            ifu.tick(&mut mem);
            mem.tick();
            ops += 1;
        }
        ops
    })
}
