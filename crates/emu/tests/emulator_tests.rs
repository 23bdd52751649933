//! End-to-end tests for the Lisp, BCPL, and Smalltalk emulators, plus the
//! cross-emulator cost comparisons the paper's §7 reports.

use dorado_base::Word;
use dorado_emu::lisp::{self, tag, LispAsm};
use dorado_emu::smalltalk::{self, StAsm};
use dorado_emu::suite::{build_bcpl, build_lisp, build_mesa, build_smalltalk};
use dorado_emu::{bcpl, mesa};

// --- Lisp ------------------------------------------------------------------

fn run_lisp(f: impl FnOnce(&mut LispAsm)) -> dorado_core::Dorado {
    let mut p = LispAsm::new();
    f(&mut p);
    let bytes = p.assemble().expect("lisp byte assembly");
    let mut m = build_lisp(&bytes).expect("machine");
    let out = m.run(1_000_000);
    assert!(out.halted(), "did not halt: {out:?}");
    m
}

#[test]
fn lisp_fixnum_arithmetic() {
    let m = run_lisp(|p| {
        p.push_fix(1000);
        p.push_fix(234);
        p.add();
        p.push_fix(34);
        p.sub();
        p.halt();
    });
    assert_eq!(lisp::tos(&m), (tag::FIXNUM, 1200));
    assert_eq!(lisp::stack_depth(&m), 1);
}

#[test]
fn lisp_tag_check_catches_non_fixnum() {
    let mut p = LispAsm::new();
    p.push_fix(1);
    p.push_nil();
    p.add(); // NIL is not a number: must divert to lisp:tagerr
    p.halt();
    let bytes = p.assemble().unwrap();
    let mut m = build_lisp(&bytes).unwrap();
    assert!(m.run(100_000).halted());
    let err = m.label("lisp:tagerr").unwrap();
    assert_eq!(m.control().this_pc, err, "halted at the type-error trap");
}

#[test]
fn lisp_cons_car_cdr() {
    let m = run_lisp(|p| {
        p.push_fix(7); // car
        p.push_fix(9); // cdr
        p.cons();
        p.car();
        p.halt();
    });
    assert_eq!(lisp::tos(&m), (tag::FIXNUM, 7));
    let m = run_lisp(|p| {
        p.push_fix(7);
        p.push_fix(9);
        p.cons();
        p.cdr();
        p.halt();
    });
    assert_eq!(lisp::tos(&m), (tag::FIXNUM, 9));
}

#[test]
fn lisp_nested_lists() {
    // (cons 1 (cons 2 nil)) then (car (cdr x)) = 2.
    let m = run_lisp(|p| {
        p.push_fix(1);
        p.push_fix(2);
        p.push_nil();
        p.cons(); // (2 . nil)
        p.cons(); // (1 2)
        p.cdr();
        p.car();
        p.halt();
    });
    assert_eq!(lisp::tos(&m), (tag::FIXNUM, 2));
}

#[test]
fn lisp_locals_and_jumps() {
    let m = run_lisp(|p| {
        // local0 = 5; loop: local0 -= 1 until zero... using JNIL on a
        // NIL sentinel requires list logic; use fixnum compare via sub +
        // cons trickery instead: simply compute 5+6 through locals.
        p.push_fix(5);
        p.lset(0);
        p.push_fix(6);
        p.lset(1);
        p.lget(0);
        p.lget(1);
        p.add();
        p.halt();
    });
    assert_eq!(lisp::tos(&m), (tag::FIXNUM, 11));
}

#[test]
fn lisp_jnil_branches() {
    let m = run_lisp(|p| {
        p.push_nil();
        p.jnil("taken");
        p.push_fix(111);
        p.halt();
        p.label("taken");
        p.push_fix(42);
        p.halt();
    });
    assert_eq!(lisp::tos(&m), (tag::FIXNUM, 42));
    // Non-NIL: falls through.
    let m = run_lisp(|p| {
        p.push_fix(1);
        p.jnil("taken");
        p.push_fix(111);
        p.halt();
        p.label("taken");
        p.push_fix(42);
        p.halt();
    });
    assert_eq!(lisp::tos(&m), (tag::FIXNUM, 111));
}

#[test]
fn lisp_function_call() {
    let m = run_lisp(|p| {
        p.push_fix(30);
        p.push_fix(12);
        p.call("f", 2);
        p.halt();
        // f(a, b) = a - b
        p.label("f");
        p.lget(0);
        p.lget(1);
        p.sub();
        p.ret();
    });
    assert_eq!(lisp::tos(&m), (tag::FIXNUM, 18));
}

#[test]
fn lisp_recursive_call() {
    // sum(n) = n == 0 ? 0 : n + sum(n-1), using JNIL on a 0-tag trick:
    // fixnum 0 has tag FIXNUM, so test with explicit countdown via cons?
    // Simpler: iterate 3 levels of nesting explicitly.
    let m = run_lisp(|p| {
        p.push_fix(1);
        p.call("g", 1);
        p.halt();
        p.label("g");
        p.lget(0);
        p.push_fix(10);
        p.add();
        p.call("h", 1);
        p.ret();
        p.label("h");
        p.lget(0);
        p.push_fix(100);
        p.add();
        p.ret();
    });
    assert_eq!(lisp::tos(&m), (tag::FIXNUM, 111));
}

// --- BCPL ------------------------------------------------------------------

#[test]
fn bcpl_arithmetic_and_vector() {
    let mut p = bcpl::BcplAsm::new();
    p.lit(40);
    p.lit(2);
    p.add();
    p.sv(5);
    p.lv(5);
    p.halt();
    let mut m = build_bcpl(&p.assemble().unwrap()).unwrap();
    assert!(m.run(100_000).halted());
    assert_eq!(bcpl::tos(&m), 42);
}

#[test]
fn bcpl_loop_and_call() {
    let mut p = bcpl::BcplAsm::new();
    // v0 = 0; do { v0 += 2 } 5 times via countdown in v1.
    p.lit(0);
    p.sv(0);
    p.lit(5);
    p.sv(1);
    p.label("top");
    p.lv(0);
    p.lit(2);
    p.add();
    p.sv(0);
    p.lv(1);
    p.lit(1);
    p.sub();
    p.sv(1);
    p.lv(1);
    p.jnz("top");
    p.call("double");
    p.lv(0);
    p.halt();
    p.label("double");
    p.lv(0);
    p.lv(0);
    p.add();
    p.sv(0);
    p.ret();
    let mut m = build_bcpl(&p.assemble().unwrap()).unwrap();
    assert!(m.run(200_000).halted());
    assert_eq!(bcpl::tos(&m), 20, "(2*5)*2");
}

// --- Smalltalk --------------------------------------------------------------

#[test]
fn smalltalk_send_hits_and_misses() {
    use dorado_emu::layout::SCRATCH;
    // Program: push 5, push receiver, send sel 7 (no args), add, halt.
    let mut p = StAsm::new();
    p.push_fix(5);
    p.push_var(0);
    p.send(7, 0);
    p.add();
    p.halt();
    let target = p.label("m_field");
    p.push_inst(0);
    p.mret();
    let bytes = p.assemble();

    let class_addr = SCRATCH;
    let obj_addr = SCRATCH + 0x40;
    let mut m = build_smalltalk(&bytes).unwrap();
    smalltalk::define_class(&mut m, class_addr, &[(7, target)]);
    smalltalk::define_object(&mut m, obj_addr, class_addr, &[37]);
    m.memory_mut().write_virt(
        dorado_base::VirtAddr::new(dorado_emu::layout::GLOBAL_FRAME),
        obj_addr as Word,
    );
    assert!(m.run(1_000_000).halted());
    assert_eq!(smalltalk::tos(&m), 42, "5 + field0(37)");
}

#[test]
fn smalltalk_cache_makes_second_send_cheaper() {
    use dorado_emu::layout::SCRATCH;
    // Two identical sends: the first misses (dictionary walk), the second
    // hits the method cache.
    let mut p = StAsm::new();
    p.push_var(0);
    p.send(7, 0);
    p.set_var(1);
    p.push_var(0);
    p.send(7, 0);
    p.set_var(2);
    p.halt();
    let target = p.label("m_field");
    p.push_inst(0);
    p.mret();
    let bytes = p.assemble();

    let class_addr = SCRATCH;
    let obj_addr = SCRATCH + 0x40;
    let mut m = build_smalltalk(&bytes).unwrap();
    smalltalk::define_class(&mut m, class_addr, &[(3, 999), (5, 998), (7, target)]);
    smalltalk::define_object(&mut m, obj_addr, class_addr, &[11]);
    m.memory_mut().write_virt(
        dorado_base::VirtAddr::new(dorado_emu::layout::GLOBAL_FRAME),
        obj_addr as Word,
    );
    m.trace_enable(100_000);
    assert!(m.run(1_000_000).halted());
    // Both sends produced the same value.
    let g = dorado_emu::layout::GLOBAL_FRAME;
    assert_eq!(m.memory().read_virt(dorado_base::VirtAddr::new(g + 1)), 11);
    assert_eq!(m.memory().read_virt(dorado_base::VirtAddr::new(g + 2)), 11);
}

// --- cross-emulator cost shape (E1) ------------------------------------------

#[test]
fn lisp_loads_cost_several_times_mesa_loads() {
    // §7: Mesa loads are 1-2 microinstructions; Lisp's are about 5
    // ("two loads and two stores ... in a basic data transfer operation").
    let mesa_cost = {
        let mut p = mesa::MesaAsm::new();
        p.lib(1);
        p.sl(0);
        for _ in 0..64 {
            p.ll(0);
            p.sl(1);
        }
        p.halt();
        let mut m = build_mesa(&p.assemble().unwrap()).unwrap();
        assert!(m.run(1_000_000).halted());
        m.stats().executed[0] as f64 / 128.0
    };
    let lisp_cost = {
        let mut p = LispAsm::new();
        p.push_fix(1);
        p.lset(0);
        for _ in 0..64 {
            p.lget(0);
            p.lset(1);
        }
        p.halt();
        let mut m = build_lisp(&p.assemble().unwrap()).unwrap();
        assert!(m.run(1_000_000).halted());
        m.stats().executed[0] as f64 / 128.0
    };
    assert!(
        lisp_cost / mesa_cost >= 2.5,
        "Lisp transfer ({lisp_cost:.1}) must cost several times Mesa's ({mesa_cost:.1})"
    );
    assert!(mesa_cost <= 3.0, "Mesa loads/stores stay tiny: {mesa_cost}");
}

#[test]
fn lisp_calls_cost_several_times_mesa_calls() {
    // §7: "Function calls take about 50 microinstructions for Mesa and 200
    // for Lisp."  The shape requirement: Lisp ≫ Mesa.
    let mesa_cycles = {
        let mut p = mesa::MesaAsm::new();
        for _ in 0..16 {
            p.lib(1);
            p.call("f", 1);
            p.drop_top();
        }
        p.halt();
        p.label("f");
        p.ll(0);
        p.ret();
        let mut m = build_mesa(&p.assemble().unwrap()).unwrap();
        assert!(m.run(1_000_000).halted());
        m.stats().cycles as f64 / 16.0
    };
    let lisp_cycles = {
        let mut p = LispAsm::new();
        for _ in 0..16 {
            p.push_fix(1);
            p.call("f", 1);
        }
        p.halt();
        p.label("f");
        p.lget(0);
        p.ret();
        let mut m = build_lisp(&p.assemble().unwrap()).unwrap();
        assert!(m.run(1_000_000).halted());
        m.stats().cycles as f64 / 16.0
    };
    assert!(
        lisp_cycles > mesa_cycles * 1.3,
        "Lisp call {lisp_cycles:.0} vs Mesa call {mesa_cycles:.0}"
    );
    let bcpl_cycles = {
        let mut p = bcpl::BcplAsm::new();
        for _ in 0..16 {
            p.call("f");
        }
        p.halt();
        p.label("f");
        p.ret();
        let mut m = build_bcpl(&p.assemble().unwrap()).unwrap();
        assert!(m.run(1_000_000).halted());
        m.stats().cycles as f64 / 16.0
    };
    assert!(
        bcpl_cycles < mesa_cycles,
        "BCPL call {bcpl_cycles:.0} is cheaper than Mesa's {mesa_cycles:.0}"
    );
}

// --- IFU-selected MEMBASE (§6.3.3) -------------------------------------------

#[test]
fn locals_and_globals_interleave_without_base_switching() {
    // LL and LG alternate; the IFU selects the base register at each
    // dispatch, so both stay at their §7 cost with no switching code.
    let mut m = {
        let mut p = mesa::MesaAsm::new();
        p.lib(3);
        p.sl(0); // local0 = 3
        p.lib(4);
        p.sg(0); // global0 = 4
        for _ in 0..8 {
            p.ll(0);
            p.lg(0);
            p.add();
            p.drop_top();
        }
        p.ll(0);
        p.lg(0);
        p.add();
        p.halt();
        build_mesa(&p.assemble().unwrap()).unwrap()
    };
    assert!(m.run(100_000).halted());
    assert_eq!(mesa::tos(&m), 7);
    // SG is now a single microinstruction, like SL.
    let s = m.stats();
    assert!(
        s.executed[0] < 100,
        "interleaved access stays cheap: {}",
        s.executed[0]
    );
}

#[test]
fn smalltalk_unknown_selector_reaches_dnu() {
    use dorado_emu::layout::{GLOBAL_FRAME, SCRATCH};
    let mut p = StAsm::new();
    p.push_var(0);
    p.send(9, 0); // selector 9 is not in the dictionary
    p.halt();
    let target = p.label("m");
    let _ = target;
    p.push_inst(0);
    p.mret();
    let bytes = p.assemble();
    let mut m = build_smalltalk(&bytes).unwrap();
    smalltalk::define_class(&mut m, SCRATCH, &[(7, target)]);
    smalltalk::define_object(&mut m, SCRATCH + 0x40, SCRATCH, &[1]);
    m.memory_mut().write_virt(
        dorado_base::VirtAddr::new(GLOBAL_FRAME),
        (SCRATCH + 0x40) as Word,
    );
    assert!(m.run(100_000).halted());
    assert_eq!(
        m.control().this_pc,
        m.label("st:dnu").unwrap(),
        "halted at doesNotUnderstand"
    );
}

#[test]
fn lisp_list_sum_loop_with_jnil() {
    // Sum a 5-element list by walking CDRs until NIL — loops, lists, and
    // tag dispatch together.
    let m = run_lisp(|p| {
        // Build (1 2 3 4 5) into local 0.
        p.push_fix(1);
        p.push_fix(2);
        p.push_fix(3);
        p.push_fix(4);
        p.push_fix(5);
        p.push_nil();
        for _ in 0..5 {
            p.cons();
        }
        p.lset(0); // the list
        p.push_fix(0);
        p.lset(1); // sum = 0
        p.label("loop");
        p.lget(0);
        p.jnil("done"); // pops the test copy
        // sum += car(list)
        p.lget(1);
        p.lget(0);
        p.car();
        p.add();
        p.lset(1);
        // list = cdr(list)
        p.lget(0);
        p.cdr();
        p.lset(0);
        p.jmp("loop");
        p.label("done");
        p.lget(1);
        p.halt();
    });
    assert_eq!(lisp::tos(&m), (tag::FIXNUM, 15));
}

#[test]
fn bcpl_recursion_through_the_stack() {
    // sum(n) = n + sum(n-1): return PCs nest on the hardware stack.
    let mut p = bcpl::BcplAsm::new();
    p.lit(5);
    p.sv(0); // n
    p.lit(0);
    p.sv(1); // acc
    p.call("sum");
    p.lv(1);
    p.halt();
    p.label("sum");
    p.lv(1);
    p.lv(0);
    p.add();
    p.sv(1); // acc += n
    p.lv(0);
    p.lit(1);
    p.sub();
    p.sv(0); // n -= 1
    p.lv(0);
    p.jnz("recurse");
    p.ret();
    p.label("recurse");
    p.call("sum");
    p.ret();
    let mut m = build_bcpl(&p.assemble().unwrap()).unwrap();
    assert!(m.run(200_000).halted());
    assert_eq!(bcpl::tos(&m), 15);
}

// --- IFU decode tables ------------------------------------------------------

/// Every opcode of every shipped decode table — the entries each emulator
/// installs, and the default trap entry on the opcodes it leaves free —
/// dispatches over exactly `length()` bytes and delivers the operands
/// `operands()` describes.
#[test]
fn shipped_decode_tables_dispatch_exactly_their_encoded_length() {
    use dorado_base::VirtAddr;
    use dorado_ifu::OperandKind;
    use dorado_mem::{MemConfig, MemorySystem};

    // Operand bytes with the sign bit set, so sign extension shows.
    const OPERAND_BYTES: [u8; 3] = [0x81, 0xf2, 0x37];
    let machines = [
        ("mesa", build_mesa(&[])),
        ("lisp", build_lisp(&[])),
        ("bcpl", build_bcpl(&[])),
        ("smalltalk", build_smalltalk(&[])),
    ];
    for (name, m) in machines {
        let mut ifu = m.expect("machine").ifu().clone();
        // Opcode i's code sits at word 2i: the opcode, then operand bytes.
        let mut mem = MemorySystem::new(MemConfig::default());
        let [b0, b1, b2] = OPERAND_BYTES.map(Word::from);
        for op in 0..=255u8 {
            let base = 2 * u32::from(op);
            mem.write_virt(VirtAddr::new(base), (Word::from(op) << 8) | b0);
            mem.write_virt(VirtAddr::new(base + 1), (b1 << 8) | b2);
        }
        for op in 0..=255u8 {
            let at = format!("{name} opcode {op:#04x}");
            let e = *ifu.decode_entry(op);
            let bytes: usize = e.operands().iter().map(|k| k.bytes()).sum();
            assert_eq!(e.length(), 1 + bytes, "{at}");
            ifu.set_code_base(VirtAddr::new(2 * u32::from(op)));
            let mut ticks = 0;
            let dispatched = loop {
                if let Some(d) = ifu.dispatch() {
                    break d;
                }
                ifu.tick(&mut mem);
                mem.tick();
                ticks += 1;
                assert!(ticks < 1000, "{at} never dispatched");
            };
            assert_eq!(dispatched, (e.entry(), e.membase()), "{at}");
            assert_eq!(ifu.pc() as usize, e.length(), "{at}");
            let mut stream = OPERAND_BYTES.iter().map(|&b| Word::from(b));
            let mut next = || stream.next().expect("three operand bytes");
            for kind in e.operands() {
                let want = match kind {
                    OperandKind::Byte => next(),
                    OperandKind::SignedByte => next() as u8 as i8 as i16 as Word,
                    OperandKind::WordPair => (next() << 8) | next(),
                };
                assert_eq!(ifu.ifudata(), Some(want), "{at} {kind:?}");
            }
            assert_eq!(ifu.ifudata(), None, "{at}: extra operand");
        }
    }
}
